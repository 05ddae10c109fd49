"""The normalization pipeline: leading data, trichotomy, resonance
bookkeeping, prenormalization, the case normal forms, and the majorant
convergence certificate.

All homological solves are per-monomial diagonal solves. One slot rule,
`_slot_eig`, gives the eigenvalue A(n-1) + Bm of a dz slot z^n w^{k+m} and
An + B(m-k) of a dw slot z^n w^{k+m+1}, or None for the two model slots
every normal form keeps; a slot is resonant exactly when its eigenvalue
vanishes. The resonance block, the majorant solves and the centralizer's
map slots read the same law (`_eig_z`, `_eig_w`). Every normalizing pass
applies its corrections through one step routine, `_apply_step`, as an
honest coordinate change (pushforward) that re-reads the field, so every
cancellation is verified rather than assumed. `_kill_to_resonant` is the
one scale-and-kill entry behind `prenormalize`, `normalize_alpha_zero` and
the majorant system; it raises while a removable slot survives. The loops
keep their steps, and a caller that reports the transform folds them once
(`_fold_steps`, by the engine's one series expansion,
`algebra._compose_near_identity`); the majorant system never reads it and
does not fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .algebra import INFINITY, Series, _compose_near_identity
from .backend import GaussRational
from .errors import (
    CertificateError,
    InconsistentTangencyError,
    InternalError,
    NotIntegralManifoldError,
    OrderGuaranteeError,
    WrongBranchError,
)
from .field import JetMap, VectorField, jet_inverse, pushforward
from .majorant import (
    _abs_bound,
    _bound_series,
    majorant_functional_a,
    majorant_functional_b,
    majorant_solve,
)

VF_VARS = ("z", "w")

ORD0 = "ORD0"
GENERIC = "GENERIC"
ALPHA_ZERO = "ALPHA_ZERO"
B_ZERO = "B_ZERO"


# ----------------------------------------------------------------------
# leading data and the trichotomy


@dataclass
class LeadingData:
    k: int
    alpha_k: Series  # series in ("z",)
    beta_k: Series
    A: GaussRational  # alpha_k'(0)
    B: GaussRational  # beta_k(0)
    lam: object  # B/A, or None when A = 0
    mu: object  # A/B, or None when B = 0


def leading_data(x: VectorField) -> LeadingData:
    """Extract k, alpha_k, beta_k, A, B from the layer expansion of X."""
    if x.is_zero():
        raise OrderGuaranteeError("field vanishes through its cap")
    candidates = [e[1] for e in x.p.terms]
    candidates += [e[1] - 1 for e in x.q.terms]
    k = min(candidates)
    if k < 0:
        raise WrongBranchError("dw component not divisible by w")
    alpha_k = x.p.coefficient_series("w", k)
    beta_k = x.q.coefficient_series("w", k + 1)
    A = alpha_k.coefficient((1,))
    B = beta_k.coefficient((0,))
    lam = B / A if not A.is_zero() else None
    mu = A / B if not B.is_zero() else None
    return LeadingData(k=k, alpha_k=alpha_k, beta_k=beta_k, A=A, B=B, lam=lam, mu=mu)


def classify_case(x: VectorField) -> str:
    """ORD0 / GENERIC / ALPHA_ZERO / B_ZERO per the leading layer."""
    ld = leading_data(x)
    if not ld.alpha_k.coefficient((0,)).is_zero():
        return ORD0
    if ld.alpha_k.is_zero():
        return ALPHA_ZERO
    if ld.B.is_zero():
        return B_ZERO
    return GENERIC


def is_rational_negative(value: GaussRational) -> bool:
    return value.is_real() and value.re < 0


def nonneg_integer(value: GaussRational):
    """The value as an int when it is a nonnegative rational integer."""
    if value.is_rational_integer() and value.re >= 0:
        return int(value.re)
    return None


def n1_of(lam: GaussRational, ell: int) -> GaussRational:
    return GaussRational(1) - lam * ell


def n2_of(lam: GaussRational, k: int, ell: int) -> GaussRational:
    return lam * (k - ell)


def homological_matrix(A, B, k, ell, n):
    """The 2x2 block ((An - (A - l B), 0), (B, An - (k - l) B))."""
    return (_eig_z(A, B, n, ell), GaussRational(0), B, _eig_w(A, B, k, n, ell))


def homological_rank_deficient(A, B, k, ell, n) -> bool:
    a11, a12, a21, a22 = homological_matrix(A, B, k, ell, n)
    det = a11 * a22 - a12 * a21
    return det.is_zero()


# ----------------------------------------------------------------------
# resonance report


@dataclass
class ResonanceEntry:
    ell: int
    n1: object  # GaussRational or None (A = 0)
    n2: object
    n1_integral: bool
    n2_integral: bool


@dataclass
class ResonanceReport:
    k: int
    lam: object
    entries: list

    def slots(self):
        """All resonant (component, z-power, layer) slots within range."""
        out = []
        for e in self.entries:
            if e.n1_integral:
                out.append(("dz", nonneg_integer(e.n1), e.ell))
            if e.n2_integral:
                out.append(("dw", nonneg_integer(e.n2), e.ell))
        return out

    def beyond_model(self):
        """Resonant slots other than the model terms mu*z*w^k and w^{2k+1}."""
        out = []
        for comp, n, ell in self.slots():
            if comp == "dz" and ell == 0 and n == 1:
                continue
            if comp == "dw" and ell == self.k and n == 0:
                continue
            out.append((comp, n, ell))
        return out


def resonance_report(ld: LeadingData, order: int) -> ResonanceReport:
    entries = []
    top = max(order - ld.k, 0)
    for ell in range(0, top + 1):
        if ld.lam is None:
            # A = 0: the dz family is resonant at every n for ell = 0 and
            # the dw family at every n for ell = k
            entries.append(
                ResonanceEntry(
                    ell=ell,
                    n1=None,
                    n2=None,
                    n1_integral=False,
                    n2_integral=False,
                )
            )
            continue
        n1 = n1_of(ld.lam, ell)
        n2 = n2_of(ld.lam, ld.k, ell)
        entries.append(
            ResonanceEntry(
                ell=ell,
                n1=n1,
                n2=n2,
                n1_integral=nonneg_integer(n1) is not None,
                n2_integral=nonneg_integer(n2) is not None,
            )
        )
    return ResonanceReport(k=ld.k, lam=ld.lam, entries=entries)


# ----------------------------------------------------------------------
# the slot rule and the kill loop: remove every non-resonant monomial by
# honest coordinate changes, layer by layer


def _eig_z(A, B, n, m):
    """Eigenvalue A(n-1) + Bm of the slot z^n w^{k+m} dz."""
    return A * (n - 1) + B * m


def _eig_w(A, B, k, n, m):
    """Eigenvalue An + B(m-k) of the slot z^n w^{k+m+1} dw."""
    return A * n + B * (m - k)


# w-power of a layer-m slot beyond w^{k+m}, per component
_SHIFT = {"dz": 0, "dw": 1}


def _slot_eig(comp, A, B, k, n, m):
    """The homological eigenvalue of the `comp` slot with z-power n in layer
    m, or None for the model slots z w^k dz and w^{k+1} dw, which every
    normal form keeps."""
    if comp == "dz":
        return None if (n, m) == (1, 0) else _eig_z(A, B, n, m)
    return None if (n, m) == (0, 0) else _eig_w(A, B, k, n, m)


def _corrections(x: VectorField, comp: str, A, B, k: int, m: int):
    """The `comp` terms of the near-identity step removing every
    non-resonant `comp` slot of layer m: -c / eigenvalue per slot."""
    shift = _SHIFT[comp]
    out = {}
    for (n, j), coeff in (x.p if comp == "dz" else x.q).terms.items():
        if j != k + m + shift:
            continue
        if comp == "dz" and (n, m) == (0, 0):
            raise InternalError("constant dz term appeared during the kill loop")
        eig = _slot_eig(comp, A, B, k, n, m)
        if eig is not None and not eig.is_zero():
            out[(n, m + shift)] = -coeff / eig
    return out


def _apply_step(xc: VectorField, order: int, dz=None, dw=None):
    """Push xc forward by the near-identity step (z + dz, w + dw), dz and dw
    term dicts.

    Returns (field, step): the field exact through `order`, and the step as
    an exact JetMap for `_fold_steps`."""
    z_s = Series.variable(VF_VARS, 1, "z", exact=True)
    w_s = Series.variable(VF_VARS, 1, "w", exact=True)
    step = JetMap(
        z_s + Series(VF_VARS, order, dz, exact=True) if dz else z_s,
        w_s + Series(VF_VARS, order, dw, exact=True) if dw else w_s,
    )
    return pushforward(step, xc, cap=order), step


def _fold_steps(steps, order: int) -> JetMap:
    """The transform step_N o ... o step_1 of a loop's steps, with the
    terms, cap (`order`) and exact flag per component that composing each
    step onto the transform in turn gives.

    `substitute_all` flags a composition exact when the source degree times
    the largest image degree is at most the cap, so the flags need the
    true degree of each partial composition. The steps are therefore
    composed in turn while every composition stays exact; each is a
    polynomial of degree <= order. The remaining steps are folded once from
    the left, G = step_N, then G = G o step_i down to the first step whose
    composition is inexact, and last G o prefix, each by
    `algebra._compose_near_identity` with the term dicts of step_i (or of
    the prefix) as the images: z + dz and w + dw are Taylor slots, so each
    fold is the near-identity Taylor sum. Truncated composition of
    origin-fixing jets is associative, so the terms are those of composing
    pass by pass.
    """
    h = JetMap.identity(VF_VARS, order, exact=True)
    d = 1  # degree of h
    for i, step in enumerate(steps):
        degs = (step.f.degree(), step.g.degree())
        if max(degs) * d > order:
            break
        h = step.compose(h, cap=order)
        d = max(h.f.degree(), h.g.degree())
    else:
        return h
    # once a component is inexact, every later composition is
    exact = [e * d <= order for e in degs] if i == len(steps) - 1 else [False, False]
    g = [steps[-1].f.terms, steps[-1].g.terms]
    for step in reversed(steps[i:-1]):
        g = _compose_near_identity([step.f.terms, step.g.terms], g, order)
    g = _compose_near_identity([h.f.terms, h.g.terms], g, order)
    return JetMap(*(Series._make(VF_VARS, order, t, x) for t, x in zip(g, exact)))


def _kill_to_resonant(xs: VectorField, order: int, variant: str = "w_first"):
    """Normalize the rescaled field xs = A z w^k dz + B w^{k+1} dw + ... to
    resonant support, with A, B, k its own leading data.

    Returns (leading data, steps, field): the near-identity steps of the
    passes in order, and the field, which equals
    pushforward(_fold_steps(steps, order), xs) through `order`. Each pass
    pushes the field forward by its step and keeps the step; no pass
    touches a transform. `variant` chooses which
    component's slots each pass removes first; any choice lands on the same
    resonant support (and, for tangent generic fields, the same
    coefficients). Raises InternalError if a removable slot survives.
    """
    if xs.cap() != INFINITY and xs.cap() < order:
        raise OrderGuaranteeError(
            f"field cap {xs.cap()} below requested order {order}"
        )
    ld = leading_data(xs)
    if not ld.alpha_k.coefficient((0,)).is_zero():
        # the dz slot z^0 w^k has no step; refuse before any pass
        raise InternalError("constant dz term in the leading layer: the field is ORD0")
    A, B, k = ld.A, ld.B, ld.k
    xc = xs.as_jet(order)
    steps = []
    # each full sweep advances the lowest offending z-power, but every
    # resonant kept slot adds a back-coupling round; the bound is generous
    max_passes = 8 * order + 40
    first, second = ("dw", "dz") if variant == "w_first" else ("dz", "dw")
    for m in range(0, order - k + 1):
        for _ in range(max_passes):
            corr = {first: _corrections(xc, first, A, B, k, m)}
            if not corr[first]:
                corr = {second: _corrections(xc, second, A, B, k, m)}
                if not corr[second]:
                    break
            xc, step = _apply_step(xc, order, **corr)
            steps.append(step)
        else:
            raise InternalError(f"kill loop did not stabilize in layer {m}")

    bad = []
    for comp, series in (("dz", xc.p), ("dw", xc.q)):
        for n, j in series.terms:
            m = j - k - _SHIFT[comp]
            eig = _slot_eig(comp, A, B, k, n, m)
            if m < 0 or (eig is not None and not eig.is_zero()):
                bad.append((comp, (n, j)))
    if bad:
        raise InternalError(f"kill loop left removable terms: {bad}")
    return ld, steps, xc


@dataclass
class PrenormalizeResult:
    transform: JetMap
    field: VectorField
    resonance: ResonanceReport
    rescale: GaussRational
    case: str
    guaranteed_order: int


def prenormalize(x: VectorField, order: int, variant: str = "w_first") -> PrenormalizeResult:
    """Bring a GENERIC (or, by extension, B = 0) field to resonant support.

    GENERIC fields are rescaled so the leading dw coefficient is 1; the
    output is then mu z w^k dz + w^{k+1} dw plus the resonant slots
    c_l z^{n1(l)} w^{k+l} dz and d_l z^{n2(l)} w^{k+l+1} dw. For B = 0 the
    same loop leaves i-axis data: z F(w) w^k dz + G(w) dw support.
    """
    case = classify_case(x)
    if case == ORD0:
        raise WrongBranchError("alpha_k(0) != 0: use normalize_ord0")
    if case == ALPHA_ZERO:
        raise WrongBranchError("alpha_k == 0: use normalize_alpha_zero")
    ld = leading_data(x)
    scale = GaussRational(1)
    if case == GENERIC:
        scale = GaussRational(1) / ld.B
    elif case == B_ZERO and ld.A.is_imaginary() and not ld.A.is_zero():
        scale = GaussRational(1) / GaussRational(ld.A.im)
    lds, steps, xf = _kill_to_resonant(x.scale(scale), order, variant)
    return PrenormalizeResult(
        transform=_fold_steps(steps, order),
        field=xf,
        resonance=resonance_report(lds, order),
        rescale=scale,
        case=case,
        guaranteed_order=order,
    )


# ----------------------------------------------------------------------
# results


@dataclass
class NormalFormResult:
    tag: str
    params: dict
    transform: JetMap
    rescale: GaussRational
    guaranteed_order: int
    convergent_claim: str
    case: str
    field: VectorField
    resonance: object = None
    notes: list = dc_field(default_factory=list)


# ----------------------------------------------------------------------
# ORD0: alpha_k(0) != 0


def normalize_ord0(x: VectorField, order: int):
    """Map X with alpha_k(0) = alpha != 0 to the monomial field alpha w^k dz.

    Solves the first-order system for z -> f(z,w), w -> w g(z,w) by the
    degree-in-z recursion with initial data f(0,w) = 0, g(0,w) = 1.
    """
    if classify_case(x) != ORD0:
        raise WrongBranchError("normalize_ord0 requires alpha_k(0) != 0")
    ld = leading_data(x)
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
        Series.monomial(VF_VARS, order, (0, k), alpha, exact=True),
        Series.zero(VF_VARS, order, exact=True),
    )
    h = JetMap(f.truncate(order), (w_s * g).truncate(order))
    # verify the divided defining equations through the solved range
    e1 = pt * f.derive("z") + w_s * qt * f.derive("w") - (g**k).scale(alpha)
    e2 = pt * g.derive("z") + qt * (g + w_s * g.derive("w"))
    for res in (e1, e2):
        if any(e[0] < work for e in res.terms):
            raise InternalError("ord0 recursion failed to solve the system")
    return h, target


# ----------------------------------------------------------------------
# GENERIC with an integral hypersurface


def normalize_generic(x: VectorField, m, order: int, variant: str = "w_first") -> NormalFormResult:
    """Full normalization in the generic case, against an integral surface.

    With a Levi-nonflat integral hypersurface the resonant slots beyond the
    model are forced to vanish (the normal form of a tangent field is
    unique), so after prenormalization the field must land on
    mu z w^k dz + w^{k+1} dw (+ eta w^{2k+1} dw when mu is negative
    rational and k >= 1, with eta real).
    """
    from .hypersurface import leading_tangency_constraints, tangency_residual

    if classify_case(x) != GENERIC:
        raise WrongBranchError("normalize_generic requires the generic case")
    residual = tangency_residual(x, m, order)
    if not residual.is_zero():
        raise NotIntegralManifoldError(
            f"tangency residual nonzero from degree {int(residual.order())}"
        )
    ld = leading_data(x)
    if not ld.B.is_real():
        raise InconsistentTangencyError(
            f"beta_k(0) = {ld.B} is not real, so no real rescale normalizes it"
        )
    if m.in_normal_coordinates():
        # in normal coordinates the basic identity forces more: beta_k is a
        # real constant
        leading_tangency_constraints(x, m)
    pre = prenormalize(x, order, variant=variant)
    xf = pre.field
    k = ld.k
    mu = ld.mu
    notes = list()

    model = {("dz", (1, k)), ("dw", (0, k + 1))}
    eta_slot = ("dw", (0, 2 * k + 1))
    support = set(xf.support())
    eta = GaussRational(0)
    if is_rational_negative(mu):
        allowed = set(model)
        if k >= 1:
            allowed.add(eta_slot)
        if not support <= allowed:
            raise InconsistentTangencyError(
                f"resonant terms {sorted(support - allowed)} survive; the input "
                "cannot be tangent to a Levi-nonflat hypersurface"
            )
        if k >= 1:
            eta = xf.q.coefficient((0, 2 * k + 1))
            if not eta.is_real():
                raise InconsistentTangencyError(f"eta = {eta} is not real")
            tag = "NF11"
        else:
            tag = "NF12"
    else:
        if not support <= model:
            raise InconsistentTangencyError(
                f"terms {sorted(support - model)} survive outside the complete "
                "normal form"
            )
        tag = "NF10"
        if mu.is_real():
            notes.append(
                "mu is real and not negative: outside the classified families, "
                "reported as the complete-form family"
            )
    params = {"k": k, "mu": mu}
    if tag == "NF11":
        params["eta"] = eta
    return NormalFormResult(
        tag=tag,
        params=params,
        transform=pre.transform,
        rescale=pre.rescale,
        guaranteed_order=order,
        convergent_claim="convergent",
        case=GENERIC,
        field=xf,
        resonance=pre.resonance,
        notes=notes,
    )


# ----------------------------------------------------------------------
# ALPHA_ZERO: alpha_k == 0, B != 0


def normalize_alpha_zero(x: VectorField, order: int) -> NormalFormResult:
    """Normalize fields with vanishing dz leading part to w^{k+1} dw forms.

    The kill loop realizes the intermediate form
    (w^{k+1} + c(z) w^{2k+1}) dw; tangency to a Levi-nonflat hypersurface
    forces c constant and real (the w^{2k+1}-level data is a per-leaf
    residue, invariant under all changes of coordinates), so nonconstant
    or nonreal c is rejected.
    """
    if classify_case(x) != ALPHA_ZERO:
        raise WrongBranchError("normalize_alpha_zero requires alpha_k == 0")
    ld = leading_data(x)
    if ld.B.is_zero():
        raise InconsistentTangencyError(
            "alpha_k == 0 with beta_k(0) = 0 admits no Levi-nonflat integral "
            "hypersurface"
        )
    if not ld.B.is_real():
        raise InconsistentTangencyError(f"beta_k(0) = {ld.B} is not real")
    scale = GaussRational(1) / ld.B
    k = ld.k
    _, steps, xf = _kill_to_resonant(x.scale(scale), order)
    if not xf.p.is_zero():
        raise InconsistentTangencyError(
            "dz terms survive at the resonant layer; no real constant "
            "multiple of these fields is tangent to a Levi-nonflat surface"
        )
    c_series = xf.q.coefficient_series("w", 2 * k + 1) if k >= 1 else None
    expected = {(0, k + 1)}
    extra = set(xf.q.terms) - expected
    if k >= 1:
        extra -= {(n, 2 * k + 1) for n in range(order + 1)}
    if extra:
        raise InternalError(f"unexpected dw support {sorted(extra)}")
    if k == 0:
        if set(xf.q.terms) != expected:
            raise InconsistentTangencyError(
                "nonconstant linear dw data cannot be normalized away at k = 0"
            )
        tag = "NF9"
        params = {"k": 0, "r": GaussRational(0)}
        notes = []
    else:
        if c_series.degree() > 0:
            raise InconsistentTangencyError(
                f"c(z) = {c_series.pretty()} is nonconstant: it is a per-leaf "
                "residue invariant, so no integral hypersurface exists"
            )
        r = c_series.coefficient((0,))
        if not r.is_real():
            raise InconsistentTangencyError(f"r = {r} is not real")
        tag = "NF8"
        params = {"k": k, "r": r, "shifted_index_K": k + 1}
        notes = [
            "the same field reads (w^K + r w^{2K-1}) dw under the shifted "
            f"index K = k + 1 = {k + 1}; both indexings are reported"
        ]
    return NormalFormResult(
        tag=tag,
        params=params,
        transform=_fold_steps(steps, order),
        rescale=scale,
        guaranteed_order=order,
        convergent_claim="convergent",
        case=ALPHA_ZERO,
        field=xf,
        resonance=None,
        notes=notes,
    )


# ----------------------------------------------------------------------
# B_ZERO: beta_k == B = 0


def _b_zero_stage2(x: VectorField, k: int, q: int, r, order: int):
    """Reduce i z F(w) w^k dz + G(w) dw to the form with parameters
    (c_1..c_q, r, t), using corrections built on the r w^{k+q+1} slot.

    Returns (transform, field); each pass pushes the field forward by its
    step, and the kept steps are folded once (`_fold_steps`)."""
    xc = x
    steps = []
    t_slot = 2 * (k + q) + 1

    # pure-w dw slots first: P never feeds back into Q under these maps
    for j in range(k + q + 2, order + 1):
        if j == t_slot:
            continue
        coeff = xc.q.coefficient((0, j))
        if coeff.is_zero():
            continue
        mexp = j - k - q
        eig = r * (mexp - (k + q + 1))
        xc, step = _apply_step(xc, order, dw={(0, mexp): -coeff / eig})
        steps.append(step)

    # z w^{k+j} dz slots with j > q, killed through the r-slot coupling
    for j in range(q + 1, order - k):
        coeff = xc.p.coefficient((1, k + j))
        if coeff.is_zero():
            continue
        eig = r * (j - q)
        xc, step = _apply_step(xc, order, dz={(1, j - q): -coeff / eig})
        steps.append(step)
    return _fold_steps(steps, order), xc


def normalize_b_zero(x: VectorField, m, order: int) -> NormalFormResult:
    """Normalize the B = 0 branch against an integral hypersurface.

    After prenormalization the field is i z F(w) w^k dz + G(w) dw. A zero
    G at the cap is reported as the rotation form NF13 (with a caveat for
    k >= 1, where a genuine dw part may hide beyond the cap); otherwise
    the second-stage reduction produces NF14 and tangency forces its
    parameters r, t, c_j to be real.
    """
    from .hypersurface import leading_tangency_constraints, tangency_residual

    if classify_case(x) != B_ZERO:
        raise WrongBranchError("normalize_b_zero requires the B = 0 case")
    residual = tangency_residual(x, m, order)
    if not residual.is_zero():
        raise NotIntegralManifoldError(
            f"tangency residual nonzero from degree {int(residual.order())}"
        )
    ld = leading_data(x)
    if not ld.A.is_imaginary() or ld.A.is_zero():
        raise InconsistentTangencyError(
            f"B = 0 requires alpha_k'(0) purely imaginary; got {ld.A}"
        )
    if m.in_normal_coordinates():
        leading_tangency_constraints(x, m)  # also enforces phi_s = |z|^s
    pre = prenormalize(x, order)
    xf = pre.field
    k = ld.k
    notes = []

    ghat = xf.q
    if ghat.is_zero():
        f_slots = xf.p.divide_monomial((1, k))
        if k == 0:
            if f_slots != Series.constant(VF_VARS, order, GaussRational(0, 1), exact=False):
                raise InconsistentTangencyError(
                    "i z F(w) dz with F nonconstant is not tangent to any "
                    "Levi-nonflat hypersurface"
                )
            tag = "NF13"
            params = {"k": 0}
        else:
            tag = "NF13"
            params = {"k": k}
            notes.append(
                "dw part vanishes at the cap: reported as NF13-at-cap; a "
                "genuine r != 0 may hide beyond the cap, and true NF13 "
                "requires k = 0"
            )
        return NormalFormResult(
            tag=tag,
            params=params,
            transform=pre.transform,
            rescale=pre.rescale,
            guaranteed_order=order,
            convergent_claim="convergent",
            case=B_ZERO,
            field=xf,
            resonance=pre.resonance,
            notes=notes,
        )

    ord_g = min(e[1] for e in ghat.terms)
    q = ord_g - (k + 1)
    if q < 1:
        raise InternalError("prenormal dw part starts at w^{k+1} despite B = 0")
    r = ghat.coefficient((0, ord_g))
    h2, x2 = _b_zero_stage2(xf, k, q, r, order)
    if not r.is_real():
        raise InconsistentTangencyError(f"r = {r} is not real")
    t = x2.q.coefficient((0, 2 * (k + q) + 1))
    if not t.is_real():
        raise InconsistentTangencyError(f"t = {t} is not real")
    c = []
    for j in range(1, q + 1):
        cj = x2.p.coefficient((1, k + j))
        # the dz part is i z w^k (1 + c_1 w + ...): divide the stored
        # coefficient by i to expose c_j
        cj = cj / GaussRational(0, 1)
        if not cj.is_real():
            raise InconsistentTangencyError(f"c_{j} = {cj} is not real")
        c.append(cj)
    expected = {("dz", (1, k))}
    expected |= {("dz", (1, k + j)) for j in range(1, q + 1)}
    expected |= {("dw", (0, k + q + 1)), ("dw", (0, 2 * (k + q) + 1))}
    support = set(x2.support())
    if not support <= expected:
        raise InternalError(f"stage-2 left support {sorted(support - expected)}")
    params = {"k": k, "q": q, "r": r, "t": t, "c": c}
    return NormalFormResult(
        tag="NF14",
        params=params,
        transform=h2.compose(pre.transform, cap=order),
        rescale=pre.rescale,
        guaranteed_order=order,
        convergent_claim="formal-only",
        case=B_ZERO,
        field=x2,
        resonance=pre.resonance,
        notes=notes,
    )


# ----------------------------------------------------------------------
# one-variable normalization (the dim-1 helper)


def normalize_1d(h: Series, order: int) -> Series:
    """Jet tau conjugating h(w) d/dw to q w d/dw: h tau' = q tau.

    h must be q w + O(w^{k+1}) with q != 0; tau = w + O(w^2).
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


# ----------------------------------------------------------------------
# majorant certificate


@dataclass
class MajorantReport:
    holds: bool
    order: int
    p: int
    q: int
    k: int
    r: GaussRational
    failures: list = dc_field(default_factory=list)
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
    a_ing: Series  # P/w^k + p z
    b_ing: Series  # Q/w^(k+1) - q - r w^k
    wimg: Series  # tau^-1(w): the image of w after removing r w^(k+1) d/dw


def majorant_system(x: VectorField, order: int) -> MajorantSystem:
    """Check the certificate's preconditions and build its system."""
    if order < 1:
        raise OrderGuaranteeError(f"order {order}: the certificate needs order >= 1")
    if classify_case(x) != GENERIC:
        raise WrongBranchError("majorant certificate applies to the generic case")
    ld = leading_data(x)
    mu = ld.mu
    if mu is None or not is_rational_negative(mu):
        raise WrongBranchError("majorant certificate requires mu in Q^-")
    if not ld.B.is_real():
        raise WrongBranchError("certificate requires a real leading dw constant")
    p = -mu.re.numerator
    qq = mu.re.denominator
    scale = GaussRational(Fraction(qq)) / ld.B
    xs = x.scale(scale)
    k = ld.k
    if xs.cap() != INFINITY and xs.cap() < order + k + 1:
        raise OrderGuaranteeError(
            f"field cap {xs.cap()} cannot certify order {order}: "
            f"need {order + k + 1}"
        )

    _, _, xf = _kill_to_resonant(xs, order)
    model = {("dz", (1, k)), ("dw", (0, k + 1)), ("dw", (0, 2 * k + 1))}
    support = set(xf.support())
    if not support <= model:
        raise WrongBranchError(
            "input does not normalize to the (p, q, r) model at this cap; "
            f"extra slots {sorted(support - model)}"
        )
    r = GaussRational(0) if k == 0 else xf.q.coefficient((0, 2 * k + 1))

    # ingredient series of the right-hand functionals, in (z, w)
    ptil = xs.p.divide_monomial((0, k)).as_jet(order)
    qtil = xs.q.divide_monomial((0, k + 1)).as_jet(order)
    z_s = Series.variable(VF_VARS, 1, "z", exact=True)
    a_ing = ptil + z_s.scale(p)  # P/w^k + p z, vanishing at the origin
    b_ing = qtil - Series.constant(VF_VARS, order, qq, exact=True) \
        - Series.monomial(VF_VARS, order, (0, k), r, exact=True)

    # one-variable change removing r w^{k+1} d/dw from the operator: the
    # scalar system keeps its shape with w replaced by tau_inv(w) in all
    # explicit ingredients
    if not r.is_zero():
        h1 = Series(("w",), order + 1,
                    {(1,): GaussRational(qq), (k + 1,): r}, exact=True)
        tau = normalize_1d(h1, order + 1).truncate(order).embed(VF_VARS)
        wimg = jet_inverse(JetMap(z_s, tau), cap=order).g
    else:
        wimg = Series.variable(VF_VARS, order, "w", exact=False)
    return MajorantSystem(p=p, q=qq, k=k, r=r, a_ing=a_ing, b_ing=b_ing, wimg=wimg)


def majorant_certificate(x: VectorField, order: int) -> MajorantReport:
    """Certify |F_ab| <= F*_ab, |G_ab| <= G*_ab for the inverse-map jets.

    F, G solve the homological system for the map (z+F, w+wG) sending the
    normal form back to X, with resonant slots pinned to zero; F*, G* are
    the jets of the dominating solution of the implicit system built from
    coefficientwise upper bounds. Comparison is by exact modulus squares.
    Both solves are online (`majorant.majorant_solve`): each degree of F
    and G is settled from the degree-m parts of the functionals' products,
    built from components that are already final, so no pass evaluates a
    functional. The homological identity is then checked once, with the
    functionals evaluated whole at the full order.
    """
    sysm = majorant_system(x, order)
    p, qq, k, r = sysm.p, sysm.q, sysm.k, sysm.r
    a_ing, b_ing, wimg = sysm.a_ing, sysm.b_ing, sysm.wimg

    # exact homological solve for F, G with resonant slots pinned to zero
    fj, gj = majorant_solve(
        a_ing, b_ing, wimg, k, -p, qq, -r, r,
        lambda a, b: _eig_z(-p, qq, a, b),
        lambda a, b: _eig_w(-p, qq, k, a, b),
        order,
    )

    # sanity: the solved jets satisfy the diagonalized system
    af = majorant_functional_a(fj, gj, a_ing, -p, wimg, k, order)
    bf = majorant_functional_b(fj, gj, b_ing, qq, -r, r, wimg, k, order)
    # the diagonal operator applied coefficientwise, so every degree
    # through the order is checked
    lhs_f = {e: c * (-p * e[0] + qq * e[1] + p) for e, c in fj.terms.items()}
    lhs_g = {e: c * (-p * e[0] + qq * e[1] - k * qq) for e, c in gj.terms.items()}
    if Series(VF_VARS, order, lhs_f) != af or Series(VF_VARS, order, lhs_g) != bf:
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
        for e, c in series.terms.items():
            bound = star.coefficient(e)
            if not bound.is_real() or bound.re < 0:
                raise InternalError("majorant coefficients must be nonnegative")
            if c.modulus_squared() > bound.re * bound.re:
                failures.append((name, e))
    if failures:
        raise CertificateError(f"majorant domination failed at {failures}")
    return MajorantReport(
        holds=True, order=order, p=p, q=qq, k=k, r=r, failures=[],
        f_jet=fj, g_jet=gj, f_star=fstar, g_star=gstar,
    )
