"""The majorant certificate: its system, its online solver and its checks.

For mu = -p/q the certificate's scalar system reads F = A(F, G) / eig_f
and G = B(F, G) / eig_g, where

    A = (z + F) c_p ((1 + G)^k - 1) + (1 + G)^k a(z + F, w~ (1 + G)),
    B = r_1 w~^k G + c_q ((1 + G)^(k+1) - 1 - (k+1) G)
        + r_3 w~^k ((1 + G)^(2k+1) - 1) + (1 + G)^(k+1) b(z + F, w~ (1 + G)),

with w~ the image of w in the diagonalized chart. `MajorantSystem` holds
a, b and w~ for a field scaled so that B = q; `certify` runs the exact
solve, the check of the chart identity its jets stand for, the
dominating solve and the domination test, with the slot rule's
eigenvalues passed in by the caller.

`majorant_solve` is online (relaxed): it keeps every series A and B are
built from as homogeneous components, and forms the degree-m part of
each product as sum_d X_d Y_{m-d} from components already final (van der
Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).
Each degree component is one raw accumulator, reduced once per
coefficient: integer multiples scale its raw numerators, and `_part`
forms each degree-m part of a product in one loop over its component
pairs, a Horner coefficient or the t of t G_m entering as a constant
series. The package writes A and B down only here; the test suite's
`helpers.py` evaluates them whole as the solver's reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Series, substitute_all
from .backend import (ONE, WIDTH, ZERO, GaussRational, add_over_lcm, add_raw, exponent, pack,
                      settle, unpack)
from .errors import CertificateError, InternalError, WrongBranchError
from .field import VF_VARS, VectorField

_ORIGIN = 0  # the key of the constant term


@dataclass
class MajorantReport:
    holds: bool
    order: int
    p: int
    q: int
    k: int
    r: GaussRational
    f_jet: Series = None  # solved inverse-map jets (diagonalized chart)
    g_jet: Series = None
    f_star: Series = None  # dominating jets
    g_star: Series = None


@dataclass
class MajorantSystem:
    """The diagonalized system behind the certificate: mu = -p/q, the model
    invariants k and r, and the explicit ingredients (in (z, w), cap order)
    of the right-hand functionals."""

    p: int
    q: int
    k: int
    r: GaussRational
    order: int  # the cap of the ingredients and of the certified jets
    a_ing: Series  # P/w^k + p z
    b_ing: Series  # Q/w^(k+1) - q - r w^k
    wimg: Series  # tau^-1(w): the image of w after removing r w^(k+1) d/dw

    @classmethod
    def of(cls, xs: VectorField, p: int, q: int, k: int, r: GaussRational, order: int):
        """The system of the field xs = P dz + Q dw, scaled so that B = q,
        through `order`. tau^-1(w) = w (1 - (r/q) w^k)^(-1/k) removes
        r w^{k+1} d/dw; its w^{1+jk} coefficient is the previous one times
        (r/q)(1+(j-1)k)/(kj). r is 0 by definition for k = 0, so any
        other r there raises WrongBranchError."""
        if k == 0 and not r.is_zero():
            raise WrongBranchError(f"r = {r} at k = 0, where the residue slot is w dw itself")
        ptil = xs.p.divide_monomial((0, k)).as_jet(order)
        qtil = xs.q.divide_monomial((0, k + 1)).as_jet(order)
        z_s = Series.variable(VF_VARS, 1, "z", exact=True)
        a_ing = ptil + z_s.scale(p)  # P/w^k + p z, vanishing at the origin
        b_ing = qtil - Series.constant(VF_VARS, order, q, exact=True) \
            - Series.monomial(VF_VARS, order, (0, k), r, exact=True)
        wimg = {pack((0, 1)): ONE}
        c, j = ONE, 1
        while not r.is_zero() and 1 + j * k <= order:
            c = c * r * (1 + (j - 1) * k) / (q * k * j)
            wimg[pack((0, 1 + j * k))] = c
            j += 1
        return cls(p, q, k, r, order, a_ing, b_ing, Series._make(VF_VARS, order, wimg, False))


def _abs_bound(c: GaussRational) -> GaussRational:
    """A rational upper bound |Re c| + |Im c| >= |c|, keeping exactness."""
    return GaussRational(abs(c.re) + abs(c.im))


def _bound_series(a: Series) -> Series:
    return Series._make(a.vars, a.cap, {k: _abs_bound(c) for k, c in a.packed.items()},
                        a.exact)


def certify(sysm: MajorantSystem, eig_f, eig_g) -> MajorantReport:
    """Certify |F_ab| <= F*_ab, |G_ab| <= G*_ab, by exact modulus squares,
    for the jets through the system's order of the map (z + F, W (1 + G))
    sending the normal form back to the scaled field; resonant slots
    (zeros of eig_f, eig_g) are pinned to zero. A failed check of the exact
    solve raises InternalError, a slot it cannot pin (a term off the
    (p, q, r) model) WrongBranchError, a failed domination CertificateError.
    """
    p, qq, k, r, order = sysm.p, sysm.q, sysm.k, sysm.r, sysm.order
    a_ing, b_ing, wimg = sysm.a_ing, sysm.b_ing, sysm.wimg
    try:
        fj, gj = majorant_solve(a_ing, b_ing, wimg, k, -p, qq, -r, r, eig_f, eig_g, order)
    except CertificateError as exc:
        raise WrongBranchError(
            f"input does not normalize to the (p, q, r) model at this cap: {exc}") from exc

    # the chart identity D Phi . N' = x_s o Phi, divided by W^k (dz) and by
    # W^(k+1) (dw), with P~ = P/w^k and Q~ = Q/w^(k+1) of x_s:
    #   L(F) - p z = (1 + G)^k P~(Phi),
    #   L(G) + (q + r W^k)(1 + G) = (1 + G)^(k+1) Q~(Phi),
    # where q w W' = W (q + r W^k) is tau's defining equation and the
    # diagonal operator L: z^a w^b -> (-p a + q b) z^a w^b is applied
    # coefficientwise, so every degree through the order is checked
    def diag(s):
        weighted = ((key, c, -p * exponent(key, 0, 2) + qq * exponent(key, 1, 2))
                    for key, c in s.packed.items())
        return Series._make(VF_VARS, order, {key: c * w for key, c, w in weighted if w}, False)

    z_s = Series.variable(VF_VARS, 1, "z", exact=True)
    og = gj + 1
    ptil = a_ing - z_s.scale(p)
    qtil = b_ing + Series.monomial(VF_VARS, order, (0, k), r, exact=True) + qq
    p_phi, q_phi = substitute_all((ptil, qtil), {"z": z_s + fj, "w": wimg * og}, order)
    ogk = og**k
    if (diag(fj) - z_s.scale(p) != ogk * p_phi
            or diag(gj) + og * ((wimg**k).scale(r) + qq) != ogk * og * q_phi):
        raise InternalError("homological solve failed verification")

    # dominating jets from the implicit system with bounded coefficients
    a_abs = _bound_series(a_ing)
    b_abs = _bound_series(b_ing)
    w_abs = _bound_series(wimg)
    r_abs = _abs_bound(r)
    fstar, gstar = majorant_solve(a_abs, b_abs, w_abs, k, p, qq, r_abs, r_abs,
                                  None, None, order)

    failures = []
    for series, star, name in ((fj, fstar, "F"), (gj, gstar, "G")):
        for key, c in series.packed.items():
            bound = star.packed.get(key, ZERO)
            if not bound.is_real() or bound.re < 0:
                raise InternalError("majorant coefficients must be nonnegative")
            if c.modulus_squared() > bound.re * bound.re:
                failures.append((name, unpack(key, 2)))
    if failures:
        raise CertificateError(f"majorant domination failed at {failures}")
    return MajorantReport(
        holds=True, order=order, p=p, q=qq, k=k, r=r,
        f_jet=fj, g_jet=gj, f_star=fstar, g_star=gstar,
    )


# ----------------------------------------------------------------------
# the online solver


def _components(s: Series, order: int) -> list:
    """The homogeneous components of s of degree 0..order, as term dicts."""
    comps = [{} for _ in range(order + 1)]
    for key, c in s.packed.items():
        d = key >> 2 * WIDTH
        if d <= order:
            comps[d][key] = c
    return comps


def _part(acc, x, y, m, lo, hi):
    """acc += sum_{lo <= d <= hi} x[d] y[m-d], raw: part of the degree-m
    component of the product of two series given by their homogeneous
    components, in one loop over the pairs of terms. Every pair lands in
    degree m, so none is tested against a cap. Returns acc."""
    get = acc.get
    for d in range(lo, hi + 1):
        yd = y[m - d]
        if yd:
            for ka, ca in x[d].items():
                a, b, f = ca.a, ca.b, ca.d
                for kb, cb in yd.items():
                    u, v, den = cb.a, cb.b, f * cb.d
                    key = ka + kb
                    cur = get(key)  # backend.add_raw, inlined
                    if cur is None:
                        acc[key] = [a * u - b * v, a * v + b * u, den]
                    elif cur[2] == den:
                        cur[0] += a * u - b * v
                        cur[1] += a * v + b * u
                    else:
                        add_over_lcm(cur, a * u - b * v, a * v + b * u, den)
    return acc


def _add(acc, x, n=1):
    """acc += n x for an int n and a raw accumulator x. Returns acc."""
    for e, (re, im, den) in x.items():
        add_raw(acc, e, re * n, im * n, den)
    return acc


class _Composite:
    """The degree components of c(Z, W) = sum_i Z^i C_i, with the Horner
    groups C_i = sum_j c_ij W^j, for one ingredient series c."""

    def __init__(self, c: Series, order: int):
        self.rows = {}  # i -> [(j, [{origin: c_ij}])] for j >= 1
        self.groups = {}  # i >= 1 -> components of C_i
        for key, coeff in c.packed.items():
            i, j = unpack(key, 2)
            if i + j <= order:
                if i:
                    self.groups.setdefault(i, [{} for _ in range(order + 1)])
                if j:
                    self.rows.setdefault(i, []).append((j, [{_ORIGIN: coeff}]))
                else:
                    self.groups[i][0] = {_ORIGIN: coeff}
        self.comp = [{} for _ in range(order + 1)]
        self.zmax = max(self.groups, default=0)
        self.wmax = max((j for row in self.rows.values() for j, _ in row), default=0)

    def component(self, zp, wp, m):
        """Settle the degree-m components of the Horner groups C_i, i >= 1,
        and of c(Z, W), from the current Z and W powers; C_0's goes into
        c(Z, W)'s accumulator as it is formed. Returns that accumulator,
        for the caller to add on to."""
        acc = {}
        for i, row in self.rows.items():
            horner = {} if i else acc
            for j, cj in row:
                # c_ij as a constant series: its one component scales W^j_m
                _part(horner, cj, wp[j], m, 0, 0)
            if i:
                self.groups[i][m] = settle(horner)
        for i, group in self.groups.items():
            _part(acc, zp[i], group, m, i, m)
        self.comp[m] = settle(acc)
        return acc


def _settle(rhs, eig, name):
    """The solution slots rhs_e / eig(e) of the raw accumulator rhs, by
    increasing z-power; a zero eigenvalue pins its slot to zero, and
    raises when rhs_e is not zero there."""
    new = {}
    # within one degree, key order is z-power order
    for key, val in sorted(settle(rhs).items()):
        a, b = unpack(key, 2)
        cf = None if eig is None else eig(a, b)
        if cf == 0:
            raise CertificateError(f"resonant {name} slot ({a},{b}) is obstructed")
        new[key] = val if cf is None else val / cf
    return new


def majorant_solve(a_series, b_series, wseries, k, p_const, q_const, r_t1, r_t3,
                   eig_f, eig_g, order):
    """Solve F = A(F, G) / eig_f, G = B(F, G) / eig_g through `order`, one
    degree at a time, with A and B as in the module docstring for a =
    a_series, b = b_series, w~ = wseries, the ints c_p = p_const and
    c_q = q_const, r_1 = r_t1 and r_3 = r_t3.

    At degree m every component of Z = z + F, W = wseries (1 + G), their
    powers, (1 + G)^t (t <= 2k+1) and the Horner groups of a and b is
    final except Z_m = F_m, which enters only through b's z-linear
    coefficient, and (1 + G)^t_m = t G_m + rest. a and b must vanish at
    the origin, a without a z-linear term. An eigenvalue function of None
    takes A and B as they are; a zero eigenvalue pins a resonant slot to
    zero, and the first obstructed slot, F before G and by increasing
    z-power within a degree, raises CertificateError.
    Returns (F, G) as cap-`order` jets.
    """
    if a_series.coefficient((1, 0)) or _ORIGIN in a_series.packed \
            or _ORIGIN in b_series.packed:
        raise InternalError("majorant ingredients must vanish at the origin, and a "
                            "must have no z-linear term")
    comp_a = _Composite(a_series, order)
    comp_b = _Composite(b_series, order)
    zmax = max(comp_a.zmax, comp_b.zmax, 1)
    wmax = max(comp_a.wmax, comp_b.wmax, 1)
    # (1 + G)^(2k+1) enters B only through the r_3 term
    tmax = 2 * k + 1 if r_t3 else k + 1

    def unit():
        return [{_ORIGIN: ONE}] + [{} for _ in range(order)]

    wt = _components(wseries, order)
    wk = wseries**k
    rw1 = _components(wk.scale(r_t1), order)
    rw3 = _components(wk.scale(r_t3), order)
    # powers Z^i, W^j, (1 + G)^t by exponent; index 0 is the constant 1
    zp = [unit()] + [[{} for _ in range(order + 1)] for _ in range(zmax)]
    zp[1][1] = {pack((1, 0)): ONE}
    wp = [unit()] + [[{} for _ in range(order + 1)] for _ in range(wmax)]
    gp = [unit()] + [unit() for _ in range(tmax)]
    t_factor = [[{_ORIGIN: GaussRational(t)}] for t in range(tmax + 1)]
    f_terms, g_terms = {}, {}
    for m in range(1, order + 1):
        # components that are final before F_m and G_m are known
        # W_m = sum_d w~_d (1 + G)_{m-d}, where (1 + G)_0 = 1 carries w~_m
        wp[1][m] = settle(_part({}, wt, gp[1], m, 1, m))
        for j in range(2, min(wmax, m) + 1):
            wp[j][m] = settle(_part({}, wp[1], wp[j - 1], m, 1, m - 1))
        for i in range(2, min(zmax, m) + 1):
            zp[i][m] = settle(_part({}, zp[1], zp[i - 1], m, 1, m - 1))
        # the rest of each (1 + G)^t_m, raw, with G_m still zero
        rest = [{}, {}]
        for t in range(2, tmax + 1):
            rest.append(_part(_add({}, rest[t - 1]), gp[1], gp[t - 1], m, 1, m - 1))

        # F_m from A, with Z_m and G_m still zero
        gk = gp[k]
        rhs = _part(comp_a.component(zp, wp, m), gk, comp_a.comp, m, 1, m - 1)
        _add(rhs, _part({}, zp[1], gk, m, 1, m - 1), p_const)
        fm = _settle(rhs, eig_f, "F")
        f_terms.update(fm)
        # at m = 1, F_1 has no z slot: a has no z-linear term
        zp[1][m].update(fm)

        # G_m from B, with F_m in Z_m and G_m still zero
        rhs = _part(comp_b.component(zp, wp, m), gp[k + 1], comp_b.comp, m, 1, m - 1)
        _add(rhs, rest[k + 1], q_const)
        _part(rhs, rw1, gp[1], m, 1, m - 1)
        if r_t3:
            _part(rhs, rw3, gp[2 * k + 1], m, 1, m - 1)
        gm = _settle(rhs, eig_g, "G")
        g_terms.update(gm)
        gp[1][m] = gm
        for t in range(2, tmax + 1):
            gp[t][m] = settle(_part(rest[t], t_factor[t], gp[1], m, 0, 0))
    return (Series._make(VF_VARS, order, f_terms, False),
            Series._make(VF_VARS, order, g_terms, False))
