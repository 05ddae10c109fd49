"""Integral-hypersurface jets realizing each normal form.

Every constructor runs the same scheme: start from the free data the
realization admits (a weighted-homogeneous seed, Cauchy data in (z, zbar),
or Cauchy data in |z|^2), then solve the tangency identity slot by slot in
the one recursion `_solve_tangency`; each form supplies only its slot
correction. Each slot is a diagonal solve whose coefficient the theory
guarantees nonzero, so a singular solve raises InternalError rather than
skipping. The recursion is verified at the end: the constructed surface
must have an identically vanishing tangency residual through the requested
order. A seed jet known below the degree the order reads raises
SeedInvalidError rather than having its unknown terms read as zero.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Series
from .backend import I, GaussRational, as_gauss, limit, pack, series_add_into
from .errors import InternalError, SeedInvalidError, WrongBranchError
from .field import VF_VARS, VectorField
from .grading import WeightSystem, component, is_homogeneous
from .hypersurface import (HS_VARS, MINUS_HALF_I, RealHypersurface, conjugate_real,
                           tangency_residual)

TWO = GaussRational(2)


def _check_k(k):
    if k < 0:
        raise SeedInvalidError(f"k = {k}: the forms need k >= 0")


def _check_seed_cap(seed: Series, degree: int, order: int):
    """Refuse a seed jet known only below the degree the order reads: its
    unknown terms would silently be taken for zero."""
    if not seed.exact and seed.cap < degree:
        raise SeedInvalidError(
            f"seed cap {seed.cap} is below degree {degree}, which order {order} reads"
        )


def _solve_tangency(x, terms, work, order, slots, correction, what):
    """Solve the tangency identity of x slot by slot, starting from the free
    data in the term dict `terms` (updated in place), and verify the
    surface.

    For each j in `slots` the residual is read at cap `work` and
    correction(residual, j) is added through `order`. The recursion stops
    early on a zero residual; the surface must then have an identically
    vanishing residual through `order`.
    """
    top = limit(order, 3)
    for j in slots:
        psi = Series._make(HS_VARS, work, dict(terms), False)
        residual = tangency_residual(x, RealHypersurface(psi), work)
        if residual.is_zero():
            break
        series_add_into(terms, {k: c for k, c in correction(residual, j).packed.items()
                                if k < top})
    final = RealHypersurface(Series._make(HS_VARS, order, terms, False))
    residual = tangency_residual(x.truncate(order + 1), final, order)
    if not residual.is_zero():
        raise InternalError(
            f"{what} realization did not close: residual from degree "
            f"{int(residual.order())}"
        )
    return final


def _field_nfgen(mu, k, r, cap):
    cap = max(cap, 2 * k + 1)  # at least the degree of the r w^(2k+1) term
    return VectorField(Series.monomial(VF_VARS, cap, (1, k), mu, exact=True),
                       Series.monomial(VF_VARS, cap, (0, k + 1), 1, exact=True)
                       + Series.monomial(VF_VARS, cap, (0, 2 * k + 1), r, exact=True))


def default_generic_seed(mu, k, order) -> Series:
    """The canonical seed C z^q zbar^q u^{k+2p} for mu = -p/q, with C = 1."""
    mu = as_gauss(mu)
    p = -mu.re.numerator
    q = mu.re.denominator
    if k + 2 * p < 0:
        raise SeedInvalidError(
            f"default seed needs k + 2p >= 0 for mu = -p/q, got k + 2p = {k + 2 * p}"
        )
    exps = (q, q, k + 2 * p)
    if sum(exps) > order:
        raise SeedInvalidError(
            f"default seed has degree {sum(exps)} beyond the order {order}"
        )
    return Series.monomial(HS_VARS, order, exps, 1, exact=True)


def realize_generic(mu, k: int, r, seed: Series, order: int) -> RealHypersurface:
    """The unique surface v = u psi~ tangent to mu z w^k dz + (w^{k+1} +
    r w^{2k+1}) dw whose weighted degree-k part is the seed.

    The seed must be real, free of harmonic terms, homogeneous of degree k
    under the weights [z] = [zbar] = mu, [u] = 1, and nonzero.
    """
    _check_k(k)
    mu = as_gauss(mu)
    r = as_gauss(r)
    if mu is None or not mu.is_real() or mu.is_zero():
        raise SeedInvalidError("mu must be a nonzero real rational")
    if k == 0 and not r.is_zero():
        raise WrongBranchError("at k = 0 the residue slot merges with w dw")
    if seed.vars != HS_VARS:
        raise SeedInvalidError(f"seed must be a series in {HS_VARS}")
    if seed.is_zero():
        raise SeedInvalidError("zero seed: the surface would be Levi-flat at cap")
    if conjugate_real(seed) != seed:
        raise SeedInvalidError("seed is not real")
    if any(e[0] == 0 or e[1] == 0 for e in seed.exponents()):
        raise SeedInvalidError("seed contains harmonic terms")
    ws = WeightSystem(HS_VARS, (mu.re, mu.re, 1))
    if not is_homogeneous(seed, ws, Fraction(k)):
        raise SeedInvalidError(
            f"seed is not weighted-homogeneous of degree {k} under {ws}"
        )
    _check_seed_cap(seed, order - 1, order)

    def correction(residual, ell):
        layer = component(residual, ws, Fraction(2 * k + 1 + ell))
        delta = layer.divide_monomial((0, 0, k)).scale(Fraction(2, ell))
        if delta.degree() > order:
            raise InternalError("generic correction escaped the certified range")
        return delta

    # reading the u^k-shifted slot for a degree-d correction costs k degrees
    # of the residual, so the recursion runs at cap order + k; corrections
    # never exceed total degree `order`
    work = order + k
    top = limit(order, 3)
    terms = {key: c for key, c in seed.mul_monomial((0, 0, 1)).packed.items() if key < top}
    return _solve_tangency(_field_nfgen(mu, k, r, work + 1), terms, work, order,
                           range(1, work + 1), correction, "generic")


def realize_alpha_zero(k: int, r, c: Series, order: int) -> RealHypersurface:
    """Surface v = u^{k+1} f(u; z, zbar) tangent to (w^{k+1} + r w^{2k+1}) dw
    with Cauchy data f(0) = c(z, zbar); Levi-nonflat iff c has a mixed term.
    """
    _check_k(k)
    r = as_gauss(r)
    if not r.is_real():
        raise SeedInvalidError("r must be real")
    if c.vars != ("z", "zbar"):
        raise SeedInvalidError("Cauchy data must be a series in ('z', 'zbar')")
    c_h = c.embed(HS_VARS)
    if conjugate_real(c_h) != c_h:
        raise SeedInvalidError("Cauchy data is not real")
    if k == 0 and not r.is_zero():
        raise WrongBranchError("at k = 0 the residue merges into w dw")
    _check_seed_cap(c, order - k - 1, order)

    def correction(residual, j):
        theta = residual.coefficient_series("u", 2 * k + 1 + j)
        return theta.embed(HS_VARS).mul_monomial((0, 0, k + 1 + j), Fraction(2, j))

    work = order + k
    x = _field_nfgen(0, k, r, work + 1)
    top = limit(order, 3)
    terms = {key: c for key, c in c_h.mul_monomial((0, 0, k + 1)).packed.items() if key < top}
    return _solve_tangency(x, terms, work, order, range(1, max(order - k, 0) + 1),
                           correction, "alpha-zero")


def _field_nf14(k, q, r, t, c, cap):
    cap = max(cap, 2 * (k + q) + 1)  # at least the degree of the t w^(2(k+q)+1) term
    fz = {(1, k + j): I * cj for j, cj in enumerate([1, *c])}
    fw = {(0, k + q + 1): r, (0, 2 * (k + q) + 1): t}
    return VectorField(Series(VF_VARS, cap, fz, exact=True), Series(VF_VARS, cap, fw, exact=True))


def realize_b_zero(k: int, q: int, r, t, c, cauchy: Series, order: int) -> RealHypersurface:
    """Surface v = u^{k+q+1} phi(|z|^2, u) tangent to the exceptional form
    i z w^k (1 + c_1 w + ...) dz + (r w^{k+q+1} + t w^{2(k+q)+1}) dw.

    cauchy is the initial value phi(0, .) as a real series in the single
    variable t = |z|^2 (default t, i.e. |z|^2 itself). r must be nonzero;
    r = 0 belongs to the rotation form.
    """
    _check_k(k)
    if q < 1:
        raise SeedInvalidError(f"q = {q}: the exceptional form needs q >= 1")
    r = as_gauss(r)
    t_par = as_gauss(t)
    if r.is_zero():
        raise WrongBranchError("r = 0 selects the rotation form, not this branch")
    if not (r.is_real() and t_par.is_real()):
        raise SeedInvalidError("r and t must be real")
    c = [as_gauss(cj) for cj in c]
    if len(c) != q:
        raise SeedInvalidError(f"expected {q} coefficients c_j, got {len(c)}")
    if any(not cj.is_real() for cj in c):
        raise SeedInvalidError("all c_j must be real")
    if cauchy.vars != ("t",):
        raise SeedInvalidError("Cauchy data must be a series in ('t',)")
    if any(not co.is_real() for co in cauchy.packed.values()):
        raise SeedInvalidError("Cauchy data must have real coefficients")
    base = k + q + 1
    _check_seed_cap(cauchy, (order - base) // 2, order)

    def correction(residual, m):
        theta = residual.coefficient_series("u", 2 * (k + q) + 1 + m)
        return theta.embed(HS_VARS).mul_monomial((0, 0, base + m)).scale(TWO / (r * m))

    work = order + k + q
    terms = {pack((a, a, base)): co
             for (a,), co in zip(cauchy.exponents(), cauchy.packed.values())
             if 2 * a + base <= order}
    final = _solve_tangency(_field_nf14(k, q, r, t_par, c, work + 1), terms, work, order,
                            range(1, max(order - base, 0) + 1), correction, "exceptional")
    if any(e[0] != e[1] for e in final.psi.exponents()):
        raise InternalError("rotational invariance lost in the realization")
    return final


def realize_nf7(k: int, order: int) -> RealHypersurface:
    """An integral surface for w^k dz from the flow invariant Im(z wbar^k).

    v = [Im(z wbar^k)]^2 solved as a graph. The surface is exactly
    invariant (both Im w and Im(z wbar^k) are constants of the real flow)
    and Levi-nonflat, but not in normal coordinates: any nonzero graph
    tangent to w^k dz must carry harmonic terms (its leading part would
    otherwise be annihilated by d/dz + d/dzbar, which no harmonic-free
    series survives).
    """
    if k < 1:
        raise WrongBranchError("k >= 1 for the polynomial flow form")
    z_hs = Series.variable(HS_VARS, 1, "z", exact=True)
    u_hs = Series.variable(HS_VARS, 1, "u", exact=True)
    psi = Series.zero(HS_VARS, order, exact=False)
    for _ in range(order + 2):
        wbar = u_hs.as_jet(order) - psi.scale(I)
        s = z_hs.as_jet(order) * wbar**k
        g = (s - conjugate_real(s)).scale(MINUS_HALF_I)
        new = (g * g).truncate(order)
        if new == psi:
            break
        psi = new
    else:
        raise InternalError("nf7 fixed point did not stabilize")
    cap = max(order + 1, k)  # at least the degree of the w^k term
    x = VectorField(
        Series.monomial(VF_VARS, cap, (0, k), 1, exact=True),
        Series.zero(VF_VARS, cap, exact=True),
    )
    m = RealHypersurface(psi)
    if not tangency_residual(x, m, order).is_zero():
        raise InternalError("nf7 surface failed the exact residual check")
    return m
