"""The online solver of the majorant certificate's scalar system.

The system reads F = A(F, G) / eig_f and G = B(F, G) / eig_g, where

    A = (z + F) c_p ((1 + G)^k - 1) + (1 + G)^k a(z + F, w~ (1 + G)),
    B = r_1 w~^k G + c_q ((1 + G)^(k+1) - 1 - (k+1) G)
        + r_3 w~^k ((1 + G)^(2k+1) - 1) + (1 + G)^(k+1) b(z + F, w~ (1 + G)),

with w~ the image of w in the diagonalized chart. `majorant_solve` solves
it online (relaxed): it keeps every series A and B are built from as a
list of homogeneous components, and forms the degree-m part of each
product as sum_d X_d Y_{m-d} from components that are already final.
Each degree costs one pass over the products instead of one evaluation
of A and B (see van der Hoeven, "Relax, but don't be too lazy",
J. Symbolic Comput. 34, 2002). The package writes A and B down only
here; the test suite's `helpers.py` evaluates them whole as the solver's
reference, and the certificate closes on the chart identity its jets
stand for, not on A and B.
"""

from __future__ import annotations

from .algebra import Series
from .backend import (
    ONE,
    GaussRational,
    as_gauss,
    mul_into,
    series_add,
    series_add_into,
    series_scale,
    settle,
)
from .errors import CertificateError, InternalError
from .field import VF_VARS

_ORIGIN = (0, 0)


def _abs_bound(c: GaussRational) -> GaussRational:
    """A rational upper bound |Re c| + |Im c| >= |c|, keeping exactness."""
    return GaussRational(abs(c.re) + abs(c.im))


def _bound_series(a: Series) -> Series:
    return Series(a.vars, a.cap, {e: _abs_bound(c) for e, c in a.terms.items()},
                  exact=a.exact)


def _components(s: Series, order: int) -> list:
    """The homogeneous components of s of degree 0..order, as term dicts."""
    comps = [{} for _ in range(order + 1)]
    for e, c in s.terms.items():
        d = sum(e)
        if d <= order:
            comps[d][e] = c
    return comps


def _part(x, y, m, lo, hi):
    """sum_{lo <= d <= hi} x[d] y[m-d]: part of the degree-m component of
    the product of two series given by their homogeneous components,
    accumulated raw and reduced once per coefficient."""
    acc = {}
    for d in range(lo, hi + 1):
        xd, yd = x[d], y[m - d]
        if xd and yd:
            mul_into(acc, xd, yd, m)
    return settle(acc)


def _add_scaled(out, x, c):
    """out + c x, added into out, which the caller owns."""
    if x and c:
        series_add_into(out, series_scale(x, c))
    return out


class _Composite:
    """The degree components of c(Z, W) = sum_i Z^i C_i, with the Horner
    groups C_i = sum_j c_ij W^j, for one ingredient series c."""

    def __init__(self, c: Series, order: int):
        self.rows = {}  # i -> [(j, c_ij)] for j >= 1
        self.groups = {}  # i -> components of C_i
        for (i, j), coeff in c.terms.items():
            if i + j <= order:
                group = self.groups.setdefault(i, [{} for _ in range(order + 1)])
                if j:
                    self.rows.setdefault(i, []).append((j, coeff))
                else:
                    group[0] = {_ORIGIN: coeff}
        self.comp = [{} for _ in range(order + 1)]
        self.comp[0] = self.groups[0][0] if 0 in self.groups else {}
        self.zmax = max(self.groups, default=0)
        self.wmax = max((j for row in self.rows.values() for j, _ in row), default=0)

    def advance(self, wp, m):
        """Settle the degree-m component of every Horner group."""
        for i, row in self.rows.items():
            acc = {}
            for j, coeff in row:
                _add_scaled(acc, wp[j][m], coeff)
            self.groups[i][m] = acc

    def component(self, zp, m):
        """The degree-m component of c(Z, W) from the current Z powers."""
        out = {}
        for i, group in self.groups.items():
            series_add_into(out, group[m] if i == 0 else _part(zp[i], group, m, i, m))
        self.comp[m] = out
        return out


def _settle(rhs, eig, name, m):
    """The degree-m solution slots rhs_e / eig(e); a zero eigenvalue pins
    its slot to zero, and raises when rhs_e is not zero there."""
    new = {}
    for alpha in range(0, m + 1):
        e = (alpha, m - alpha)
        val = rhs.get(e)
        cf = None if eig is None else eig(*e)
        if cf == 0:
            if val is not None:
                raise CertificateError(
                    f"resonant {name} slot ({e[0]},{e[1]}) is obstructed"
                )
        elif val is not None:
            new[e] = val if cf is None else val / cf
    return new


def majorant_solve(a_series, b_series, wseries, k, p_const, q_const, r_t1, r_t3,
                   eig_f, eig_g, order):
    """Solve F = A(F, G) / eig_f, G = B(F, G) / eig_g through `order`, one
    degree at a time, with A and B as in the module docstring for a =
    a_series, b = b_series, w~ = wseries, c_p = p_const, c_q = q_const,
    r_1 = r_t1 and r_3 = r_t3.

    It carries the components of Z = z + F, W = wseries (1 + G), their
    powers, (1 + G)^t for t <= 2k+1, and the Horner groups of a and b.
    At degree m only two of them are not final: Z_m = F_m, which enters
    only through b's z-linear coefficient, and (1 + G)^t_m = t G_m + rest.
    So F_m is settled from A with Z_m and G_m still zero, then added to
    Z_m; G_m is settled from B, then t G_m is added to each (1 + G)^t_m.
    a must have no z-linear term. An eigenvalue function of None takes the
    coefficients of A and B as they are; a zero eigenvalue pins a
    resonant slot to zero, and the first obstructed slot, F before G and
    by increasing z-power within a degree, raises CertificateError.
    Returns (F, G) as cap-`order` jets.
    """
    if not a_series.coefficient((1, 0)).is_zero():
        raise InternalError("majorant ingredient a has a z-linear term")
    p_const, q_const, r_t1, r_t3 = (as_gauss(c) for c in (p_const, q_const, r_t1, r_t3))
    top = order + 1
    comp_a = _Composite(a_series, order)
    comp_b = _Composite(b_series, order)
    zmax = max(comp_a.zmax, comp_b.zmax, 1)
    wmax = max(comp_a.wmax, comp_b.wmax, 1)
    # (1 + G)^(2k+1) enters B only through the r terms
    tmax = 2 * k + 1 if r_t1 or r_t3 else k + 1

    def unit():
        comps = [{} for _ in range(top)]
        comps[0] = {_ORIGIN: ONE}
        return comps

    wt = _components(wseries, order)
    wk = _components(wseries**k, order)
    # powers Z^i, W^j, (1 + G)^t by exponent; index 0 is the constant 1
    zp = [unit()] + [[{} for _ in range(top)] for _ in range(zmax)]
    zp[1][1] = {(1, 0): ONE}
    wp = [unit()] + [[{} for _ in range(top)] for _ in range(wmax)]
    gp = [unit()] + [unit() for _ in range(tmax)]
    f_terms, g_terms = {}, {}
    for m in range(1, top):
        # components that are final before F_m and G_m are known
        wp[1][m] = series_add(wt[m], _part(wt, gp[1], m, 1, m - 1))
        for j in range(2, min(wmax, m) + 1):
            wp[j][m] = _part(wp[1], wp[j - 1], m, 1, m - 1)
        for i in range(2, min(zmax, m) + 1):
            zp[i][m] = _part(zp[1], zp[i - 1], m, 1, m - 1)
        comp_a.advance(wp, m)
        comp_b.advance(wp, m)
        for t in range(2, tmax + 1):
            gp[t][m] = series_add(gp[t - 1][m], _part(gp[1], gp[t - 1], m, 1, m - 1))

        # F_m from A, with Z_m and G_m still zero
        gk = gp[k]
        ca = comp_a.component(zp, m)
        rhs = _add_scaled(series_add(ca, _part(gk, comp_a.comp, m, 1, m)),
                          _part(zp[1], gk, m, 1, m - 1), p_const)
        fm = _settle(rhs, eig_f, "F", m)
        f_terms.update(fm)
        zp[1][m] = series_add(zp[1][m], fm)

        # G_m from B, with F_m in Z_m and G_m still zero
        gk1 = gp[k + 1]
        cb = comp_b.component(zp, m)
        rhs = series_add(cb, _part(gk1, comp_b.comp, m, 1, m))
        rhs = _add_scaled(rhs, gk1[m], q_const)
        if r_t1:
            rhs = _add_scaled(rhs, _part(wk, gp[1], m, 0, m - 1), r_t1)
        if r_t3:
            rhs = _add_scaled(rhs, _part(wk, gp[2 * k + 1], m, 0, m - 1), r_t3)
        gm = _settle(rhs, eig_g, "G", m)
        g_terms.update(gm)
        gp[1][m] = gm
        for t in range(2, tmax + 1):
            gp[t][m] = series_add(gp[t][m], {e: c * t for e, c in gm.items()})
    return (Series._make(VF_VARS, order, f_terms, False),
            Series._make(VF_VARS, order, g_terms, False))
