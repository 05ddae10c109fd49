"""Shared builders for the test suite: deterministic random series, jets,
model fields and surfaces."""

from fractions import Fraction

from holonorm.algebra import INFINITY, Series
from holonorm.backend import GaussRational
from holonorm.errors import InternalError, NotInvertibleError, OrderGuaranteeError
from holonorm.field import JetMap, VectorField, bracket
from holonorm.hypersurface import (
    HALF,
    HS_VARS,
    MINUS_HALF_I,
    RealHypersurface,
    bar_coefficients,
    conjugate_real,
)

VF = ("z", "w")


def gr(re=0, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def series(terms, cap=10, vars=VF, exact=True):
    return Series(vars, cap, terms, exact=exact)


def vf(p_terms, q_terms, cap=12, exact=True):
    return VectorField(
        Series(VF, cap, p_terms, exact=exact),
        Series(VF, cap, q_terms, exact=exact),
    )


def rand_coeff(rng, span=3, den=3, real=False):
    re = Fraction(rng.randint(-span, span), rng.randint(1, den))
    im = 0 if real else Fraction(rng.randint(-span, span), rng.randint(1, den))
    return GaussRational(re, im)


def rand_series(rng, vars=VF, cap=6, max_terms=5, max_deg=4, real=False):
    terms = {}
    nv = len(vars)
    for _ in range(max_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nv))
        if sum(exps) <= min(cap, max_deg):
            terms[exps] = rand_coeff(rng, real=real)
    return Series(vars, cap, terms, exact=False)


def rand_preserves_e_jet(rng, cap=10, max_deg=4):
    """Random invertible jet fixing 0, preserving {w = 0}, with g_w(0) = 1
    (so transported surfaces stay graphs)."""
    f = {(1, 0): GaussRational(1)}
    g = {(0, 1): GaussRational(1)}
    for _ in range(4):
        a, b = rng.randint(0, max_deg), rng.randint(0, max_deg)
        if 2 <= a + b <= max_deg:
            f[(a, b)] = rand_coeff(rng)
        a, b = rng.randint(0, max_deg), rng.randint(1, max_deg)
        if 2 <= a + b <= max_deg:
            g[(a, b)] = rand_coeff(rng)
    return JetMap(Series(VF, cap, f, exact=True), Series(VF, cap, g, exact=True))


def near_identity_step(rng, cap=12, max_deg=5):
    """Kill-loop-style step (z + c z^n w^m, w + c' z^n' w^(m'+1)): the
    identity plus one correction per component in a single layer."""
    m = rng.randint(0, 2)
    n = rng.randint(max(0, 2 - m), max(2 - m, max_deg - m))
    f = {(1, 0): GaussRational(1), (n, m): rand_coeff(rng)}
    g = {(0, 1): GaussRational(1)}
    if rng.random() < 0.5:
        n2 = rng.randint(max(0, 1 - m), max(1 - m, max_deg - m - 1))
        g[(n2, m + 1)] = rand_coeff(rng)
    return JetMap(Series(VF, cap, f, exact=True), Series(VF, cap, g, exact=True))


def rand_linear_jet(rng, cap=12, max_deg=4):
    """Random invertible jet whose linear part [[1, b], [c, 1 + bc]] is not
    diagonal, with Re g_w(0) != 0 (so transported surfaces stay graphs).
    The linear part has determinant 1, which keeps coefficients small."""
    while True:
        b = GaussRational(rng.randint(-2, 2), rng.randint(-1, 1))
        c = GaussRational(rng.randint(-2, 2), rng.randint(-1, 1))
        d = GaussRational(1) + b * c
        if not b.is_zero() and not c.is_zero() and d.re != 0:
            break
    f = {(1, 0): GaussRational(1), (0, 1): b}
    g = {(1, 0): c, (0, 1): d}
    for _ in range(3):
        for terms in (f, g):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            if 2 <= sum(e) <= max_deg:
                terms[e] = rand_coeff(rng)
    return JetMap(Series(VF, cap, f, exact=False), Series(VF, cap, g, exact=False))


def nfgen_field(mu, k, r, cap=12):
    """mu z w^k dz + (w^{k+1} + r w^{2k+1}) dw"""
    p = {(1, k): mu}
    q = {(0, k + 1): GaussRational(1)}
    rr = r if isinstance(r, GaussRational) else gr(r)
    if not rr.is_zero():
        q[(0, 2 * k + 1)] = rr
    return vf(p, q, cap=cap)


def nf14_field(k, q, r, t, c, cap=14):
    """i z w^k (1 + c_1 w + ...) dz + (r w^{k+q+1} + t w^{2(k+q)+1}) dw"""
    i = GaussRational(0, 1)
    p = {(1, k): i}
    for j, cj in enumerate(c, start=1):
        cjg = cj if isinstance(cj, GaussRational) else gr(cj)
        if not cjg.is_zero():
            p[(1, k + j)] = i * cjg
    qd = {(0, k + q + 1): gr(r)}
    tg = t if isinstance(t, GaussRational) else gr(t)
    if not tg.is_zero():
        qd[(0, 2 * (k + q) + 1)] = tg
    return vf(p, qd, cap=cap)


def circle_surface(cap=10):
    """v = u |z|^2, the basic Levi-nonflat nonminimal surface."""
    return RealHypersurface(Series(HS_VARS, cap, {(1, 1, 1): 1}, exact=True))


# ----------------------------------------------------------------------
# slow references: every pass recomputes at the full cap


def reference_jet_inverse(h: JetMap, cap=None) -> JetMap:
    """Degree-by-degree left inverse: each pass composes at the full cap and
    keeps only that degree's error."""
    if cap is None:
        c = h.cap()
        if c == INFINITY:
            raise OrderGuaranteeError("pass a cap to invert an exact polynomial map")
        cap = int(c)
    det = h.jacobian0_det()
    if det.is_zero():
        raise NotInvertibleError("jet map has singular linear part")
    a, b, c2, d = h.jacobian0()
    vars = h.vars
    one = GaussRational(1)
    linv_f = Series(vars, cap, {(1, 0): d / det, (0, 1): (-one) * b / det}, exact=False)
    linv_g = Series(vars, cap, {(1, 0): (-one) * c2 / det, (0, 1): a / det}, exact=False)
    linv = JetMap(linv_f, linv_g)

    hj = h.as_jet(min(cap, h.cap()) if h.cap() != INFINITY else cap)
    cur = linv
    ident = JetMap.identity(vars, cap, exact=True)
    for degree in range(2, cap + 1):
        err = cur.compose(hj, cap=cap)
        ef = err.f - ident.f
        eg = err.g - ident.g
        ef_d = Series(vars, cap, {e: c for e, c in ef.terms.items() if sum(e) == degree})
        eg_d = Series(vars, cap, {e: c for e, c in eg.terms.items() if sum(e) == degree})
        if ef_d.is_zero() and eg_d.is_zero():
            continue
        images = {vars[0]: linv.f, vars[1]: linv.g}
        cur = JetMap(
            cur.f - ef_d.substitute(images, cap=cap),
            cur.g - eg_d.substitute(images, cap=cap),
        )
    return cur


def reference_transport(h: JetMap, m: RealHypersurface, order: int) -> RealHypersurface:
    """Graph function of h(M) by the fixed-point loop run at the full order
    on every iteration."""
    psi = m.psi
    hinv = reference_jet_inverse(h, cap=order)
    fi, gi = hinv.f, hinv.g
    fbar, gbar = bar_coefficients(fi), bar_coefficients(gi)

    lam = gi.coefficient((0, 1))
    lam0 = lam + lam.conjugate()  # 2 Re g_w(0)
    if lam0.is_zero():
        raise NotInvertibleError(
            "transported surface is not a graph: Re dg/dw (0) = 0"
        )

    z_hs = Series.variable(HS_VARS, 1, "z", exact=True)
    zbar_hs = Series.variable(HS_VARS, 1, "zbar", exact=True)
    u_hs = Series.variable(HS_VARS, 1, "u", exact=True)
    i = GaussRational(0, 1)

    cur = Series.zero(HS_VARS, order, exact=False)
    for _ in range(order + 2):
        w_img = u_hs + cur.scale(i)
        wbar_img = u_hs - cur.scale(i)
        z_old = fi.substitute({"z": z_hs, "w": w_img}, cap=order)
        zb_old = fbar.substitute({"z": zbar_hs, "w": wbar_img}, cap=order)
        g_old = gi.substitute({"z": z_hs, "w": w_img}, cap=order)
        gb_old = gbar.substitute({"z": zbar_hs, "w": wbar_img}, cap=order)
        u_old = (g_old + gb_old).scale(HALF)
        v_old = (g_old - gb_old).scale(MINUS_HALF_I)
        t = v_old - psi.substitute({"z": z_old, "zbar": zb_old, "u": u_old}, cap=order)
        if t.is_zero():
            break
        cur = cur - t.scale(GaussRational(2) / lam0)
    else:
        if not t.is_zero():
            raise InternalError("hypersurface transport did not converge")
    if conjugate_real(cur) != cur:
        raise InternalError("transported defining series lost reality")
    return RealHypersurface(cur)


def reference_commutation_rows(x: VectorField, order: int, eq_cap: int):
    """The equations [X, Y] = 0 through degree eq_cap, assembled from one
    full bracket per unknown monomial, keyed as `commutation_rows` keys
    them."""
    monos = [(a, d - a) for d in range(1, order + 1) for a in range(d + 1)]
    work = eq_cap + 1
    xw = x.as_jet(work) if x.cap() == INFINITY else x.truncate(work)
    rows = {}
    for k, comp in enumerate(("dz", "dw")):
        for col, e in enumerate(monos, start=k * len(monos)):
            mono = Series.monomial(VF, work, e, 1, exact=True).as_jet(work)
            zero = Series.zero(VF, work, exact=False)
            y = VectorField(mono, zero) if comp == "dz" else VectorField(zero, mono)
            br = bracket(xw, y)
            for tag, part in (("dz", br.p), ("dw", br.q)):
                for ex, c in part.terms.items():
                    if sum(ex) <= eq_cap:
                        rows.setdefault((tag, ex), {})[col] = c
    return rows


def reference_nullspace(rows, ncols):
    """Right nullspace by dense-order reduction: pivots at the smallest
    column, rows taken as given, then back-substitution over every later
    pivot and a free x pivot scan for the basis."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = GaussRational(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                new = row.get(c, GaussRational(0)) - factor * v
                if new.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = new
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for col2 in sorted(pivots):
            factor = row.get(col2) if col2 > col else None
            if factor is None:
                continue
            for c, v in pivots[col2].items():
                new = row.get(c, GaussRational(0)) - factor * v
                if new.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = new
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = {fc: GaussRational(1)}
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis
