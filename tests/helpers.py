"""Shared builders for the test suite: deterministic random series, jets,
model fields and surfaces."""

from fractions import Fraction
from itertools import combinations, permutations

from holonorm import fileio, grading
from holonorm.algebra import INFINITY, Series
from holonorm.backend import (
    I,
    ZERO,
    GaussRational,
    series_add,
    series_add_into,
    series_neg,
    series_scale,
)
from holonorm.errors import (
    ArityError,
    CertificateError,
    InternalError,
    NotInvertibleError,
    OrderGuaranteeError,
    ParseError,
    WrongBranchError,
)
from holonorm.field import JetMap, VectorField, _apply_capped, apply_field, pushforward
from holonorm.hypersurface import (
    HALF,
    HS_VARS,
    MINUS_HALF_I,
    RealHypersurface,
    conjugate_real,
)
from holonorm.normalform import (
    ORD0,
    VF_VARS,
    _eig_w,
    _eig_z,
    _gate,
    _kill_to_resonant,
    _slot_eig,
    _SHIFT,
    leading_data,
    nonneg_integer,
)

VF = ("z", "w")


def gr(re=0, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def reference_series_mul(a, b, cap):
    """Sparse product of term dicts through total degree cap, one
    GaussRational product and one reduced running sum per pair of terms:
    the kernel's product before sums of products were accumulated raw."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if sum(exps) > cap:
                continue
            c = ca * cb
            cur = out.get(exps)
            if cur is None:
                out[exps] = c
            else:
                s = cur + c
                if s.a == 0 and s.b == 0:
                    del out[exps]
                else:
                    out[exps] = s
    return out


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


def reference_substitute_all(sources, assignments, cap=None):
    """`substitute_all` by products of image powers: every power of an
    image is built once by repeated squaring, and each source term
    multiplies the powers its exponents name. The checks, the guaranteed
    order and the exact flags are those of `substitute_all`."""
    vars = sources[0].vars
    for src in sources:
        if src.vars != vars:
            raise ArityError("substitution sources disagree on variables")
    if not assignments:
        target_vars = vars
    else:
        target_vars = None
        for img in assignments.values():
            if target_vars is None:
                target_vars = img.vars
            elif img.vars != target_vars:
                raise ArityError("substitution images disagree on variables")
    images = {}
    for v in vars:
        if v in assignments:
            images[v] = assignments[v]
        else:
            if v not in target_vars:
                raise ArityError(
                    f"variable {v!r} has no image and is absent from the target"
                )
            images[v] = Series.variable(target_vars, 0, v, exact=True)
    for v in assignments:
        if v not in vars:
            raise ArityError(f"substitution for unknown variable {v!r}")

    m_min = INFINITY
    img_limit = INFINITY
    for v, img in images.items():
        ordv = img.order()
        if not img.exact:
            ordv = min(ordv, img.cap + 1)
        if ordv == 0:
            raise OrderGuaranteeError(
                f"image of {v!r} has a nonzero constant term"
            )
        m_min = min(m_min, ordv)
        if not img.exact:
            img_limit = min(img_limit, img.cap + 1)
    plans = []
    for src in sources:
        source_limit = INFINITY if src.exact else (src.cap + 1) * m_min
        guaranteed = min(source_limit, img_limit) - 1
        c = cap
        if guaranteed == INFINITY:
            full_bound = max(0, src.degree()) * max(
                (img.degree() for img in images.values() if not img.is_zero()),
                default=1,
            )
            full_bound = max(full_bound, 0)
            if c is None:
                c = full_bound
            result_exact = c >= full_bound
        else:
            guaranteed = int(guaranteed)
            if guaranteed < 0:
                raise OrderGuaranteeError("no exact order can be guaranteed")
            if c is None:
                c = guaranteed
            elif c > guaranteed:
                raise OrderGuaranteeError(
                    f"requested order {c} exceeds guaranteed order {guaranteed}"
                )
            result_exact = False
        if c < 0:
            raise OrderGuaranteeError("negative truncation cap")
        plans.append((src, c, result_exact))

    top = max(c for _, c, _ in plans)
    power_cache = {v: {1: {e: c for e, c in images[v].terms.items() if sum(e) <= top}}
                   for v in vars}

    def power_terms(v, n):
        cache = power_cache[v]
        if n in cache:
            return cache[n]
        half = power_terms(v, n // 2)
        sq = reference_series_mul(half, half, top)
        if n % 2:
            sq = reference_series_mul(sq, cache[1], top)
        cache[n] = sq
        return sq

    constant = (0,) * len(target_vars)
    results = []
    for src, c, result_exact in plans:
        result = {}
        for exps, coeff in src.terms.items():
            prod = None
            for v, e in zip(vars, exps):
                if e:
                    power = power_terms(v, e)
                    prod = (series_scale(power, coeff) if prod is None
                            else reference_series_mul(prod, power, c))
                    if not prod:
                        break
            if prod is None:
                prod = {constant: coeff}
            series_add_into(result, prod)
        if c < top:
            result = {e: v for e, v in result.items() if sum(e) <= c}
        results.append(Series(target_vars, c, result, exact=result_exact))
    return results


def graph_images(psi: Series, vars=VF):
    """(z, w) -> (z, u + i psi): the graph of psi as Series images in
    HS_VARS, keyed by vars in order."""
    z, w = vars
    return {z: Series.variable(HS_VARS, 1, "z", exact=True),
            w: Series.variable(HS_VARS, 1, "u", exact=True) + psi.scale(I)}


def reference_graph_substitution(sources, psi, cap=None):
    """Sources in (z, w) on the graph w = u + i psi by
    `reference_substitute_all`: every power of u + i psi in full, by
    repeated `reference_series_mul`."""
    return reference_substitute_all(sources, graph_images(psi, sources[0].vars), cap)


def reference_tangency_residual(x: VectorField, m: RealHypersurface, order: int) -> Series:
    """`tangency_residual` by separately reduced products and sums: P and Q
    on the graph by `reference_graph_substitution`; -P psi_z, Q/2i and
    -Q psi_u/2 each reduced and added; then the real part (s + conj s)/2
    taken on Series. The cap check and its message are those of
    `tangency_residual`."""
    psi = m.psi
    psi_cap = psi._eff_cap()
    limit = min(psi_cap if x.vanishes_at_origin() else psi_cap - 1, x.cap())
    if limit != INFINITY and order > limit:
        raise OrderGuaranteeError(f"caps certify order {int(limit)} < requested {order}")
    p_on, q_on = reference_graph_substitution((x.p, x.q), psi, order)
    psi_z = psi.derive("z") if psi_cap > 0 or psi.exact else psi.scale(0)
    psi_u = psi.derive("u") if psi_cap > 0 or psi.exact else psi.scale(0)
    t1 = series_neg(reference_series_mul(p_on.terms, psi_z.terms, order))
    t2 = series_scale(q_on.terms, MINUS_HALF_I)
    t3 = series_scale(reference_series_mul(q_on.terms, psi_u.terms, order), GaussRational(-HALF))
    s = Series(HS_VARS, order, series_add(series_add(t1, t2), t3), exact=False)
    residual = (s + conjugate_real(s)).scale(HALF)
    return residual.truncate(min(order, residual.cap))


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


def reference_pushforward(h: JetMap, x: VectorField, cap=None) -> VectorField:
    """Y with Y o h = Dh . X by inverting h and substituting Dh . X into
    the inverse."""
    if cap is None:
        caps = [v for v in (x.cap(), h.cap()) if v != INFINITY]
        if not caps:
            raise OrderGuaranteeError("pass a cap to push an exact field forward")
        cap = int(min(caps))
    hinv = reference_jet_inverse(h, cap=cap)
    images = {h.vars[0]: hinv.f, h.vars[1]: hinv.g}
    if x.vanishes_at_origin() and min(x.cap(), h.cap()) >= cap:
        xf = _apply_capped(x, h.f, cap)
        xg = _apply_capped(x, h.g, cap)
    else:
        xf = apply_field(x, h.f)
        xg = apply_field(x, h.g)
    return VectorField(xf.substitute(images, cap=cap), xg.substitute(images, cap=cap))


def _reference_step(xc, h, order, dz=None, dw=None):
    """Push xc forward by (z + dz, w + dw) and compose the step onto h."""
    z_s = Series.variable(VF_VARS, 1, "z", exact=True)
    w_s = Series.variable(VF_VARS, 1, "w", exact=True)
    step = JetMap(
        z_s + Series(VF_VARS, order, dz, exact=True) if dz else z_s,
        w_s + Series(VF_VARS, order, dw, exact=True) if dw else w_s,
    )
    return pushforward(step, xc, cap=order), step.compose(h, cap=order)


def reference_kill_to_resonant(xs: VectorField, order: int, variant: str = "w_first"):
    """The kill loop composing every pass's step onto the transform:
    returns (leading data, transform, field)."""
    ld = leading_data(xs)
    A, B, k = ld.A, ld.B, ld.k
    xc = xs.as_jet(order)
    h = JetMap.identity(VF_VARS, order, exact=True)
    first, second = ("dw", "dz") if variant == "w_first" else ("dz", "dw")

    def corrections(comp, m):
        # -c / eigenvalue per term, formed afresh on every pass
        out = {}
        for (n, j), c in (xc.p if comp == "dz" else xc.q).terms.items():
            if j == k + m + _SHIFT[comp]:
                if comp == "dz" and (n, m) == (0, 0):
                    raise InternalError("constant dz term appeared during the kill loop")
                eig = _slot_eig(comp, A, B, k, n, m)
                if eig is not None and not eig.is_zero():
                    out[(n, m + _SHIFT[comp])] = -c / eig
        return out

    for m in range(0, order - k + 1):
        for _ in range(8 * order + 40):
            corr = {first: corrections(first, m)}
            if not corr[first]:
                corr = {second: corrections(second, m)}
                if not corr[second]:
                    break
            xc, h = _reference_step(xc, h, order, **corr)
        else:
            raise InternalError(f"kill loop did not stabilize in layer {m}")
    for comp, part in (("dz", xc.p), ("dw", xc.q)):
        for n, j in part.terms:
            eig = _slot_eig(comp, A, B, k, n, j - k - _SHIFT[comp])
            if j - k - _SHIFT[comp] < 0 or (eig is not None and not eig.is_zero()):
                raise InternalError("kill loop left removable terms")
    return ld, h, xc


def reference_b_zero_stage2(x: VectorField, k: int, q: int, r, order: int, h=None):
    """`normalform._b_zero_stage2` composing every pass's step onto the
    transform h (the identity by default): returns (transform, field)."""
    xc = x
    if h is None:
        h = JetMap.identity(VF_VARS, order, exact=True)
    for j in range(k + q + 2, order + 1):
        coeff = xc.q.coefficient((0, j))
        if j != 2 * (k + q) + 1 and not coeff.is_zero():
            eig = r * (j - k - q - (k + q + 1))
            xc, h = _reference_step(xc, h, order, dw={(0, j - k - q): -coeff / eig})
    for j in range(q + 1, order - k):
        coeff = xc.p.coefficient((1, k + j))
        if not coeff.is_zero():
            eig = r * (j - q)
            xc, h = _reference_step(xc, h, order, dz={(1, j - q): -coeff / eig})
    return h, xc


def reference_normalize_b_zero_transform(x: VectorField, order: int) -> JetMap:
    """The NF14 transform of `normalform.normalize_b_zero` composed pass by
    pass: the kill loop on x rescaled so alpha_k'(0) = i, then every
    stage-2 step composed onto the same transform."""
    scale = GaussRational(1) / GaussRational(leading_data(x).A.im)
    ld, h, xc = reference_kill_to_resonant(x.scale(scale), order)
    ord_g = min(e[1] for e in xc.q.terms)
    r = xc.q.coefficient((0, ord_g))
    return reference_b_zero_stage2(xc, ld.k, ord_g - ld.k - 1, r, order, h)[0]


def reference_majorant_model_check(x: VectorField, order: int):
    """r of the majorant certificate's system for a GENERIC x with mu = -p/q
    in Q^- and B real, read after the kill loop through degree
    order + k + 1 on x scaled so B = q. Every slot the homological solve
    reads is checked on the normal form: dz slots through degree
    order + k and dw slots through order + k + 1 must be model slots, else
    WrongBranchError names the extra slots."""
    ld = leading_data(x)
    k, q = ld.k, ld.mu.re.denominator
    scale = GaussRational(q) / ld.B
    _, xf = _kill_to_resonant(x.scale(scale), order + k + 1, ld.A * scale, ld.B * scale, k)
    model = {("dz", (1, k)), ("dw", (0, k + 1)), ("dw", (0, 2 * k + 1))}
    extra = [(comp, e) for comp, e in xf.support()
             if sum(e) <= order + k + _SHIFT[comp] and (comp, e) not in model]
    if extra:
        raise WrongBranchError(f"extra slots {extra}")
    return xf.q.coefficient((0, 2 * k + 1)) if k else GaussRational(0)


# The majorant certificate's functionals A and B, evaluated whole through a
# cap: the reference for `majorant.majorant_solve`, which forms their
# degree parts online.


def majorant_functional_a(fj, gj, a_series, p_const, wseries, k, cap):
    """(z + F) p_const ((1 + G)^k - 1) + (1 + G)^k a(z + F, w (1 + G)),
    through total degree cap."""
    fj, gj, a_series, wseries = (s.truncate(cap) for s in (fj, gj, a_series, wseries))
    one = Series.constant(VF_VARS, cap, 1, exact=True)
    zf = Series.variable(VF_VARS, 1, "z", exact=True) + fj
    og = one + gj
    comp = a_series.substitute({"z": zf, "w": wseries * og}, cap=cap)
    return zf.scale(p_const) * (og**k - one) + og**k * comp


def majorant_functional_b(fj, gj, b_series, q_const, r_t1, r_t3, wseries, k, cap):
    """r_t1 w^k G + q_const ((1 + G)^(k+1) - 1 - (k+1) G)
    + r_t3 w^k ((1 + G)^(2k+1) - 1) + (1 + G)^(k+1) b(z + F, w (1 + G)),
    through total degree cap."""
    fj, gj, b_series, wseries = (s.truncate(cap) for s in (fj, gj, b_series, wseries))
    one = Series.constant(VF_VARS, cap, 1, exact=True)
    zf = Series.variable(VF_VARS, 1, "z", exact=True) + fj
    og = one + gj
    comp = b_series.substitute({"z": zf, "w": wseries * og}, cap=cap)
    kp1 = og ** (k + 1)
    wk = wseries**k if k else one.as_jet(cap)
    t1 = (wk * gj).scale(r_t1)
    t2 = (kp1 - one - gj.scale(k + 1)).scale(q_const)
    t3 = (wk * (og ** (2 * k + 1) - one)).scale(r_t3)
    return t1 + t2 + t3 + kp1 * comp


def reference_solve_degrees(a_series, b_series, wseries, k, p_const, q_const, r_t1, r_t3,
                            eig_f, eig_g, order):
    """`majorant_solve` by evaluating the whole functionals once per degree
    and unknown: F_m from majorant_functional_a(F, G, ..., m) with F and G
    known below m, then G_m from majorant_functional_b with F known
    through m."""
    functionals = (
        lambda f, g, cap: majorant_functional_a(f, g, a_series, p_const, wseries, k, cap),
        lambda f, g, cap: majorant_functional_b(f, g, b_series, q_const, r_t1, r_t3,
                                                wseries, k, cap),
    )
    solved = [Series.zero(VF, order, exact=False)] * 2
    for mdeg in range(1, order + 1):
        for slot, (functional, eig, name) in enumerate(
            zip(functionals, (eig_f, eig_g), ("F", "G"))
        ):
            rhs = functional(solved[0], solved[1], mdeg)
            new = {}
            for alpha in range(0, mdeg + 1):
                e = (alpha, mdeg - alpha)
                val = rhs.coefficient(e)
                cf = None if eig is None else eig(*e)
                if cf == 0:
                    if not val.is_zero():
                        raise CertificateError(
                            f"resonant {name} slot ({e[0]},{e[1]}) is obstructed"
                        )
                elif not val.is_zero():
                    new[e] = val if cf is None else val / cf
            if new:
                solved[slot] = solved[slot] + Series(VF, order, new, exact=False)
    return solved


def _bar_coefficients(a: Series) -> Series:
    """Coefficientwise conjugation (exponents untouched)."""
    return Series(a.vars, a.cap, {e: c.conjugate() for e, c in a.terms.items()}, exact=a.exact)


def reference_transport(h: JetMap, m: RealHypersurface, order: int) -> RealHypersurface:
    """Graph function of h(M) by the fixed-point loop run at the full order
    on every iteration, substituting the barred pair (conj F, conj G) at
    (zbar, u - i cur) on its own."""
    psi = m.psi
    hinv = reference_jet_inverse(h, cap=order)
    fi, gi = hinv.f, hinv.g
    fbar, gbar = _bar_coefficients(fi), _bar_coefficients(gi)

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


def reference_bracket(x: VectorField, y: VectorField) -> VectorField:
    """`field.bracket` composed of Series operations, each product and sum
    reduced as it is made: X(Y_i) - Y(X_i) by `apply_field`."""
    return VectorField(apply_field(x, y.p) - apply_field(y, x.p),
                       apply_field(x, y.q) - apply_field(y, x.q))


def reference_commutation_rows(x: VectorField, order: int, eq_cap: int):
    """The equations [X, Y] = 0 through degree eq_cap, assembled from one
    full `reference_bracket` per unknown monomial, the row of the
    coefficient of z^i w^j in component c keyed (c, (i, j)), the column
    numbering that of `centralizer.commutation_rows`."""
    monos = [(a, d - a) for d in range(1, order + 1) for a in range(d + 1)]
    work = eq_cap + 1
    xw = x.as_jet(work) if x.cap() == INFINITY else x.truncate(work)
    rows = {}
    for k, comp in enumerate(("dz", "dw")):
        for col, e in enumerate(monos, start=k * len(monos)):
            mono = Series.monomial(VF, work, e, 1, exact=True).as_jet(work)
            zero = Series.zero(VF, work, exact=False)
            y = VectorField(mono, zero) if comp == "dz" else VectorField(zero, mono)
            br = reference_bracket(xw, y)
            for tag, part in (("dz", br.p), ("dw", br.q)):
                for ex, c in part.terms.items():
                    if sum(ex) <= eq_cap:
                        rows.setdefault((tag, ex), {})[col] = c
    return rows


def raw_rows(rows):
    """Rows {col: GaussRational} as the raw rows {col: [re, im, den]} that
    `linalg.nullspace` takes."""
    return [{c: [v.a, v.b, v.d] for c, v in row.items()} for row in rows]


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


def reference_det(m):
    """Determinant of a square GaussRational matrix as a (re, im) pair of
    Fractions, by the Leibniz formula: no row reduction and none of the
    kernel's arithmetic."""
    cells = [[(Fraction(c.a, c.d), Fraction(c.b, c.d)) for c in row] for row in m]
    re_sum = im_sum = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        re, im = Fraction((-1) ** inversions), Fraction(0)
        for i, j in enumerate(perm):
            a, b = cells[i][j]
            re, im = re * a - im * b, re * b + im * a
        re_sum += re
        im_sum += im
    return re_sum, im_sum


def reference_parse_terms(lines, start, vars_, cap):
    """Term lines read field by field, each checked on its own, into a
    dict from exponent tuples to coefficients, zeros kept: the parser
    before each line was matched whole into a packed key. It reads an
    exponent spelled -0 as 0."""
    terms = {}
    for idx in range(start + 1, len(lines) + 1):
        stripped = lines[idx - 1].strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 1 + len(vars_):
            raise ParseError(f"term line needs a coefficient and {len(vars_)} exponents", idx)
        coeff = fileio._coefficient(parts[0], idx)
        exps = tuple(fileio._integer(p) for p in parts[1:])
        if None in exps:
            raise ParseError("exponents must be integers of ASCII 0-9 digits", idx)
        if any(e < 0 for e in exps):
            raise ParseError("exponents must be nonnegative", idx)
        if exps in terms:
            raise ParseError(f"duplicate exponent tuple {exps}", idx)
        if sum(exps) > cap:
            raise ParseError(f"term {exps} exceeds the cap {cap}", idx)
        terms[exps] = coeff
    return terms


def reference_parse_series_text(text, expected_vars=None) -> Series:
    """`fileio.parse_series_text` through `reference_parse_terms` and the
    checks of the `Series` constructor."""
    lines = text.splitlines()
    with fileio._any_size_digits():
        vars_, cap, idx = fileio._parse_header(lines, expected_vars)
        terms = reference_parse_terms(lines, idx, vars_, cap)
    return Series(vars_, cap, terms, exact=False)


def parse_gauss(text: str, line=None) -> GaussRational:
    """One "(re,im)" coefficient, by the parser's own grammar."""
    with fileio._any_size_digits():
        return fileio._coefficient(text, line)


def support_degrees(a: Series, ws):
    """Sorted list of weighted degrees present in a."""
    grading._check(a, ws)
    return sorted({Fraction(ws.scaled_degree(e), ws.scale) for e in a.terms})


def homological_matrix(A, B, k, ell, n):
    """The 2x2 block ((An - (A - l B), 0), (B, An - (k - l) B))."""
    return (_eig_z(A, B, n, ell), ZERO, B, _eig_w(A, B, k, n, ell))


def homological_rank_deficient(A, B, k, ell, n) -> bool:
    a11, a12, a21, a22 = homological_matrix(A, B, k, ell, n)
    det = a11 * a22 - a12 * a21
    return det.is_zero()


def reference_normalize_ord0(x: VectorField, order: int, m=None):
    """`normalform.normalize_ord0` by the degree-in-z recursion it replaced:
    map X with alpha_k(0) = alpha != 0 to the monomial field alpha w^k dz.

    Solves the first-order system for z -> f(z,w), w -> w g(z,w) by the
    degree-in-z recursion with initial data f(0,w) = 0, g(0,w) = 1. Given
    a surface m, X must be tangent to it through `order`; the gate's other
    checks do not apply, since ORD0 admits B = 0. Returns (h, target).
    """
    ld = _gate(x, ORD0, order, m)
    k = ld.k
    alpha = ld.alpha_k.coefficient((0,))
    avail = x.cap()
    if avail != INFINITY and avail < order + k:
        raise OrderGuaranteeError(
            f"field cap {avail} cannot certify order {order}"
        )
    work = order + 1 if avail == INFINITY else min(order + 1, int(avail) - k)
    pt_raw = x.p.divide_monomial((0, k))  # P / w^k, unit constant term
    qt_raw = x.q.divide_monomial((0, k + 1))
    pt = pt_raw.as_jet(work if pt_raw.exact else min(work, pt_raw.cap))
    qt = qt_raw.as_jet(work if qt_raw.exact else min(work, qt_raw.cap))
    w_s = Series.variable(VF_VARS, 1, "w", exact=True)

    p0 = pt.coefficient_series("z", 0)  # unit series in (w,)
    p0_inv = p0.invert_unit(cap=work)

    f = Series.zero(VF_VARS, work, exact=False)
    g = Series.constant(VF_VARS, work, 1, exact=False)
    for i in range(0, work):
        e2 = pt * g.derive("z") + qt * (g + w_s * g.derive("w"))
        r2 = e2.coefficient_series("z", i)
        if not r2.is_zero():
            gamma = (r2 * p0_inv).scale(Fraction(-1, i + 1))
            g = g + gamma.embed(VF_VARS, {"w": "w"}).mul_monomial((i + 1, 0))
        e1 = pt * f.derive("z") + w_s * qt * f.derive("w") - (g**k).scale(alpha)
        r1 = e1.coefficient_series("z", i)
        if not r1.is_zero():
            phi = (r1 * p0_inv).scale(Fraction(-1, i + 1))
            f = f + phi.embed(VF_VARS, {"w": "w"}).mul_monomial((i + 1, 0))

    target = VectorField(
        Series.monomial(VF_VARS, max(order, k), (0, k), alpha, exact=True),
        Series.zero(VF_VARS, max(order, k), exact=True),
    )
    h = JetMap(f.truncate(order), (w_s * g).truncate(order))
    # verify the divided defining equations through the solved range
    e1 = pt * f.derive("z") + w_s * qt * f.derive("w") - (g**k).scale(alpha)
    e2 = pt * g.derive("z") + qt * (g + w_s * g.derive("w"))
    for res in (e1, e2):
        if any(e[0] < work for e in res.terms):
            raise InternalError("ord0 recursion failed to solve the system")
    return h, target


def resonant_slots(report):
    """All resonant (component, z-power, layer) slots of a
    `normalform.ResonanceReport` within its range."""
    out = []
    for e in report.entries:
        if e.n1_integral:
            out.append(("dz", nonneg_integer(e.n1), e.ell))
        if e.n2_integral:
            out.append(("dw", nonneg_integer(e.n2), e.ell))
    return out


def beyond_model(report):
    """Resonant slots of a report other than the model terms mu*z*w^k and
    w^{2k+1}."""
    out = []
    for comp, n, ell in resonant_slots(report):
        if comp == "dz" and ell == 0 and n == 1:
            continue
        if comp == "dw" and ell == report.k and n == 0:
            continue
        out.append((comp, n, ell))
    return out


def normalize_1d(h: Series, order: int) -> Series:
    """Jet tau conjugating h(w) d/dw to q w d/dw: h tau' = q tau.

    h must be q w + O(w^{k+1}) with q != 0; tau = w + O(w^2). The
    reference for the majorant's binomial series of tau^-1(w).
    """
    if h.vars != ("w",):
        raise WrongBranchError("normalize_1d expects a series in ('w',)")
    qcoef = h.coefficient((1,))
    if qcoef.is_zero():
        raise WrongBranchError("linear coefficient q must be nonzero")
    if not h.coefficient((0,)).is_zero():
        raise WrongBranchError("h must vanish at the origin")
    tau = Series.variable(("w",), order, "w", exact=False).truncate(order)
    hj = h.as_jet(min(order, h.cap) if not h.exact else order)
    for j in range(2, order + 1):
        res = hj * tau.derive("w") - tau.scale(qcoef)
        cj = res.coefficient((j,))
        if cj.is_zero():
            continue
        tau = tau + Series.monomial(("w",), order, (j,), -cj / (qcoef * (j - 1)), exact=False)
    res = (hj * tau.derive("w") - tau.scale(qcoef)).truncate(order - 1)
    if not res.is_zero():
        raise InternalError("one-variable linearization failed")
    return tau
