"""The normalization pipeline: leading data, trichotomy, resonance
bookkeeping, prenormalization, the case normal forms, and the entry of
the majorant convergence certificate.

All homological solves are per-monomial diagonal solves. One slot rule,
`_slot_eig`, gives the eigenvalue A(n-1) + Bm of a dz slot z^n w^{k+m} and
An + B(m-k) of a dw slot z^n w^{k+m+1}, or None for the two model slots
every normal form keeps; a slot is resonant exactly when its eigenvalue
vanishes. The resonance block, the centralizer's map slots and the
majorant solves, which `majorant_certificate` hands the law to, read the
same law (`_eig_z`, `_eig_w`). One pass loop, `_passes`, runs the slot
rule it is given: it builds each step from the rule's terms and applies
it as an honest coordinate change (pushforward) that re-reads the field,
so every cancellation is verified rather than assumed. It runs the kill
loop `_kill_to_resonant`, behind the prenormal routine and
`majorant_system`'s read of r; NF14's second stage, the slot rule at
(A, B, k) = (0, r, k + q) with all dw layers first; and ORD0's passes by
z-power. The loops keep their steps, and a caller that reports the
transform folds them once (`_fold_steps`: `JetMap.compose` while the
transform stays exact, so `substitute_all` decides the flags, then the
one series expansion, `algebra._compose_near_identity`); NF14 folds its
second stage's steps onto the prenormal transform. The majorant system
never reads the transform and does not fold; its ingredients, solves and
checks live in `majorant`.

`normalize` is the one normal-form entry: it reads the case
(`LeadingData.case`), refuses GENERIC and B_ZERO without a surface, and
runs that case's normalizer; `FAMILY` names the normal forms each case
can reach. All four normalizers pass one gate, `_gate`: the case and the
tangency residual against a given surface, where ORD0 stops; for the
other three also the leading data, and for a surface in normal
coordinates the two constraints of the basic identity (beta_k constant
and, for B = 0, phi_s = c|z|^s). Those three share one prenormal
routine, `_prenormal` (the rescale rule of every case, the kill loop and
the fold), which `prenormalize` also calls before it adds the resonance
report. Every named real parameter is refused through one check, `_real`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import INFINITY, Series, _compose_near_identity
from .backend import I, MAX_DEGREE, ONE, WIDTH, ZERO, GaussRational, exponent, pack, unpack
from .errors import (InconsistentTangencyError, InternalError, NotIntegralManifoldError,
                     OrderGuaranteeError, WrongBranchError)
from .field import VF_VARS, JetMap, VectorField, pushforward
from .hypersurface import tangency_residual
from .majorant import MajorantReport, MajorantSystem, certify

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

    @property
    def case(self) -> str:
        """ORD0 / ALPHA_ZERO / B_ZERO / GENERIC per the leading layer."""
        if not self.alpha_k.coefficient((0,)).is_zero():
            return ORD0
        if self.alpha_k.is_zero():
            return ALPHA_ZERO
        if self.B.is_zero():
            return B_ZERO
        return GENERIC


def leading_data(x: VectorField) -> LeadingData:
    """Extract k, alpha_k, beta_k, A, B from the layer expansion of X."""
    if x.is_zero():
        raise OrderGuaranteeError("field vanishes through its cap")
    candidates = [exponent(key, 1, 2) for key in x.p.packed]
    candidates += [exponent(key, 1, 2) - 1 for key in x.q.packed]
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
    return leading_data(x).case


def is_rational_negative(value: GaussRational) -> bool:
    return value.is_real() and value.re < 0


def nonneg_integer(value: GaussRational):
    """The value as an int when it is a nonnegative rational integer."""
    if value.is_rational_integer() and value.re >= 0:
        return int(value.re)
    return None


def n1_of(lam: GaussRational, ell: int) -> GaussRational:
    return ONE - lam * ell


def n2_of(lam: GaussRational, k: int, ell: int) -> GaussRational:
    return lam * (k - ell)


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


def resonance_report(ld: LeadingData, order: int) -> ResonanceReport:
    entries = []
    for ell in range(0, max(order - ld.k, 0) + 1):
        # A = 0: the dz family is resonant at every n for ell = 0 and the
        # dw family at every n for ell = k; no one z-power is named
        n1 = n2 = None
        if ld.lam is not None:
            n1, n2 = n1_of(ld.lam, ell), n2_of(ld.lam, ld.k, ell)
        entries.append(ResonanceEntry(
            ell=ell,
            n1=n1,
            n2=n2,
            n1_integral=n1 is not None and nonneg_integer(n1) is not None,
            n2_integral=n2 is not None and nonneg_integer(n2) is not None,
        ))
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
    j = k + m + shift
    out = {}
    for key, coeff in (x.p if comp == "dz" else x.q).packed.items():
        # the key's fields: degree, z-power n, w-power
        if key & MAX_DEGREE != j:
            continue
        n = key >> WIDTH & MAX_DEGREE
        if comp == "dz" and (n, m) == (0, 0):
            raise InternalError("constant dz term appeared during the kill loop")
        eig = _slot_eig(comp, A, B, k, n, m)
        if eig is not None and not eig.is_zero():
            out[pack((n, m + shift))] = -coeff / eig
    return out


# the keys of z and w: the identity part of every step
_ZKEY, _WKEY = pack((1, 0)), pack((0, 1))


def _fold_steps(steps, order: int, start=None) -> JetMap:
    """The transform step_N o ... o step_1 o start (`start` the identity by
    default), with the terms, cap (`order`) and exact flag per component
    that composing each step onto `start` in turn gives.

    The steps are composed onto `start` in turn by `JetMap.compose`, whose
    `substitute_all` decides each exact flag, while the transform stays
    exact. Once a component is inexact every later composition is, so the
    remaining steps are folded once from the left, G = step_N, then
    G = G o step_i, by `algebra._compose_near_identity` (z + dz and w + dw
    are Taylor slots, so each is the near-identity Taylor sum), and G is
    composed onto the transform. Truncated composition of origin-fixing
    jets is associative, so the terms are those of composing pass by pass.
    """
    h = JetMap.identity(VF_VARS, order, exact=True) if start is None else start
    for i, step in enumerate(steps):
        if not (h.f.exact and h.g.exact):
            break
        h = step.compose(h, cap=order)
    else:
        return h
    g = [steps[-1].f.packed, steps[-1].g.packed]
    for step in reversed(steps[i:-1]):
        g = _compose_near_identity([step.f.packed, step.g.packed], g, order)
    return JetMap(*(Series._make(VF_VARS, order, t, False) for t in g)).compose(h, cap=order)


def _passes(xc: VectorField, cap: int, layers, comps, rule):
    """The one pass loop: for each layer in turn, push xc forward through
    `cap` by the near-identity step (z + dz, w + dw) whose `comp` terms,
    of degree <= cap, are `rule(xc, comp, layer)` for the first component
    in `comps` that has any, until none has. Each step is an exact JetMap
    built from the two term dicts, for `_fold_steps`.

    Returns (field, steps), the steps in order. Raises InternalError if a
    layer does not stabilize."""
    steps = []
    # each full sweep advances the lowest offending z-power, but every
    # resonant kept slot adds a back-coupling round; the bound is generous
    max_passes = 8 * cap + 40
    for layer in layers:
        for _ in range(max_passes):
            for comp in comps:
                corr = rule(xc, comp, layer)
                if corr:
                    break
            else:
                break
            f, g = {_ZKEY: ONE}, {_WKEY: ONE}
            (f if comp == "dz" else g).update(corr)
            # keys order by degree first: the largest key's degree is the cap
            step = JetMap(*(Series._make(VF_VARS, max(t) >> 2 * WIDTH, t, True) for t in (f, g)))
            xc = pushforward(step, xc, cap=cap)
            steps.append(step)
        else:
            raise InternalError(f"kill loop did not stabilize in layer {layer}")
    return xc, steps


def _kill_to_resonant(xs: VectorField, order: int, A, B, k: int, variant: str = "w_first"):
    """Normalize the rescaled field xs = A z w^k dz + B w^{k+1} dw + ... to
    resonant support, with A, B, k its own leading data: the caller's A
    and B times the rescale, and its k, passed in and not read again.

    Returns (steps, field): the near-identity steps of the
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
    if pack((0, k)) in xs.p.packed:
        # the dz slot z^0 w^k has no step; refuse before any pass
        raise InternalError("constant dz term in the leading layer: the field is ORD0")
    xc, steps = _passes(xs.as_jet(order), order, range(0, order - k + 1),
                        ("dw", "dz") if variant == "w_first" else ("dz", "dw"),
                        lambda xc, comp, m: _corrections(xc, comp, A, B, k, m))
    bad = []
    for comp, series in (("dz", xc.p), ("dw", xc.q)):
        for n, j in series.exponents():
            m = j - k - _SHIFT[comp]
            eig = _slot_eig(comp, A, B, k, n, m)
            if m < 0 or (eig is not None and not eig.is_zero()):
                bad.append((comp, (n, j)))
    if bad:
        raise InternalError(f"kill loop left removable terms: {bad}")
    return steps, xc


@dataclass
class PrenormalizeResult:
    transform: JetMap
    field: VectorField
    resonance: ResonanceReport
    rescale: GaussRational
    case: str


def prenormalize(x: VectorField, order: int, variant: str = "w_first") -> PrenormalizeResult:
    """Bring a GENERIC (or, by extension, B = 0) field to resonant support.

    GENERIC fields are rescaled so the leading dw coefficient is 1; the
    output is then mu z w^k dz + w^{k+1} dw plus the resonant slots
    c_l z^{n1(l)} w^{k+l} dz and d_l z^{n2(l)} w^{k+l+1} dw. For B = 0 the
    same loop leaves i-axis data: z F(w) w^k dz + G(w) dw support. The
    resonance report reads lambda = B/A, which the rescale keeps.
    """
    ld = leading_data(x)
    if ld.case == ORD0:
        raise WrongBranchError("alpha_k(0) != 0: use normalize_ord0")
    if ld.case == ALPHA_ZERO:
        raise WrongBranchError("alpha_k == 0: use normalize_alpha_zero")
    transform, xf, rescale = _prenormal(x, ld, order, variant)
    return PrenormalizeResult(transform, xf, resonance_report(ld, order), rescale, ld.case)


def _prenormal(x: VectorField, ld: LeadingData, order: int, variant: str = "w_first"):
    """The one rescale-and-kill normalization behind `prenormalize` and the
    three tangent normalizers: scale by 1/B when B != 0, by 1/Im A when
    B = 0 and A is purely imaginary, else by 1; kill to resonant support
    and fold the steps into the transform. Returns (transform, field,
    rescale)."""
    scale = ONE
    if not ld.B.is_zero():
        scale = ONE / ld.B
    elif ld.A.is_imaginary() and not ld.A.is_zero():
        scale = ONE / GaussRational(ld.A.im)
    steps, xf = _kill_to_resonant(x.scale(scale), order, ld.A * scale, ld.B * scale, ld.k,
                                  variant)
    return _fold_steps(steps, order), xf, scale


# ----------------------------------------------------------------------
# results and the one gate


@dataclass
class NormalFormResult:
    tag: str
    params: dict
    transform: JetMap
    rescale: GaussRational
    guaranteed_order: int
    case: str
    field: VectorField
    convergent_claim: str = "convergent"
    notes: list = dc_field(default_factory=list)


_WRONG_CASE = {
    ORD0: "normalize_ord0 requires alpha_k(0) != 0",
    GENERIC: "normalize_generic requires the generic case",
    ALPHA_ZERO: "normalize_alpha_zero requires alpha_k == 0",
    B_ZERO: "normalize_b_zero requires the B = 0 case",
}


def _real(name: str, value: GaussRational, why: str = "") -> GaussRational:
    """The parameter `value`, refused unless it is real: tangency to a
    Levi-nonflat hypersurface forces every named parameter real."""
    if not value.is_real():
        raise InconsistentTangencyError(f"{name} = {value} is not real{why}")
    return value


def _gate(x: VectorField, case: str, order: int, m=None) -> LeadingData:
    """The one gate of the four normalizers: x must be in `case`; given a
    surface m, x must be tangent to it through `order`. ORD0, which admits
    B = 0, stops there. Otherwise the leading data must admit a
    Levi-nonflat integral surface (B real, and B != 0 when alpha_k == 0;
    A purely imaginary when B = 0); and when m is in normal coordinates,
    beta_k must be constant and, for B = 0, the leading part phi_s of m
    must be c|z|^s. Returns the leading data."""
    ld = leading_data(x)
    if ld.case != case:
        raise WrongBranchError(_WRONG_CASE[case])
    if m is not None:
        residual = tangency_residual(x, m, order)
        if not residual.is_zero():
            raise NotIntegralManifoldError(
                f"tangency residual nonzero from degree {int(residual.order())}")
    if case == ORD0:
        return ld
    if case == B_ZERO:
        if not ld.A.is_imaginary() or ld.A.is_zero():
            raise InconsistentTangencyError(
                f"B = 0 requires alpha_k'(0) purely imaginary; got {ld.A}"
            )
    elif ld.B.is_zero():
        raise InconsistentTangencyError(
            "alpha_k == 0 with beta_k(0) = 0 admits no Levi-nonflat integral "
            "hypersurface"
        )
    else:
        _real("beta_k(0)", ld.B,
              ", so no real rescale normalizes it" if case == GENERIC else "")
    if m is not None and m.in_normal_coordinates():
        # beta_k(0) = B is real by now; phi_s = c|z|^s is a diagonal
        # single term, so s is even
        if ld.beta_k.degree() > 0:
            raise InconsistentTangencyError(
                f"beta_k = {ld.beta_k.pretty()} is not constant; no Levi-nonflat "
                "integral hypersurface in normal coordinates admits it"
            )
        lead = m.leading_part().exponents() if case == B_ZERO else ()
        if len(lead) > 1 or any(i != j for i, j, _ in lead):
            raise InconsistentTangencyError(
                "B = 0 forces phi_s proportional to |z|^s with s even"
            )
    return ld


# ----------------------------------------------------------------------
# ORD0: alpha_k(0) != 0


def _ord0_corrections(x: VectorField, comp: str, alpha, k: int, n: int, order: int):
    """The `comp` terms of the step removing every `comp` slot z^n w^{k+j}
    other than the model slot alpha w^k dz: -c z^{n+1} w^j / ((n+1) alpha)
    per slot, dropped above degree `order`."""
    out = {}
    for key, coeff in (x.p if comp == "dz" else x.q).packed.items():
        i, j = unpack(key, 2)
        if i == n and (comp, i, j) != ("dz", 0, k) and n + 1 + j - k <= order:
            out[pack((n + 1, j - k))] = -coeff / (alpha * (n + 1))
    return out


def normalize_ord0(x: VectorField, order: int, m=None) -> NormalFormResult:
    """Map X with alpha_k(0) = alpha != 0 to the monomial field alpha w^k dz
    (NF7, with parameters k and alpha).

    The passes run by increasing z-power n, at cap order + k: each removes
    the slots z^n w^{k+j} of one component by the step -c z^{n+1} w^j /
    ((n+1) alpha) in that component, through `_passes`. For n >= 1 one
    pass clears them; at n = 0 the error squares on each pass. Every step
    fixes {z = 0} pointwise, and under that normalization the map is
    unique. Below degree order + k only alpha w^k dz may be left.
    """
    ld = _gate(x, ORD0, order, m)
    k = ld.k
    alpha = ld.alpha_k.coefficient((0,))
    cap = order + k
    if x.cap() != INFINITY and x.cap() < cap:
        raise OrderGuaranteeError(f"field cap {x.cap()} cannot certify order {order}")
    xc, steps = _passes(x.as_jet(cap), cap, range(order), ("dz", "dw"),
                        lambda xc, comp, n: _ord0_corrections(xc, comp, alpha, k, n, order))
    left = {(comp, e): c for comp, s in (("dz", xc.p), ("dw", xc.q))
            for e, c in zip(s.exponents(), s.packed.values()) if sum(e) < cap}
    if left != {("dz", (0, k)): alpha}:
        raise InternalError(f"ord0 passes left terms {sorted(left)}")
    target = VectorField(
        Series.monomial(VF_VARS, max(order, k), (0, k), alpha, exact=True),
        Series.zero(VF_VARS, max(order, k), exact=True),
    )
    return NormalFormResult(tag="NF7", params={"k": k, "alpha": alpha},
                            transform=_fold_steps(steps, order), rescale=ONE,
                            guaranteed_order=order, case=ORD0, field=target)


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
    ld = _gate(x, GENERIC, order, m)
    transform, xf, rescale = _prenormal(x, ld, order, variant)
    k = ld.k
    mu = ld.mu
    params = {"k": k, "mu": mu}
    notes = []

    model = {("dz", (1, k)), ("dw", (0, k + 1))}
    support = set(xf.support())
    if is_rational_negative(mu):
        allowed = model | ({("dw", (0, 2 * k + 1))} if k >= 1 else set())
        if not support <= allowed:
            raise InconsistentTangencyError(
                f"resonant terms {sorted(support - allowed)} survive; the input "
                "cannot be tangent to a Levi-nonflat hypersurface"
            )
        if k >= 1:
            params["eta"] = _real("eta", xf.q.coefficient((0, 2 * k + 1)))
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
    return NormalFormResult(tag=tag, params=params, transform=transform, rescale=rescale,
                            guaranteed_order=order, case=GENERIC, field=xf, notes=notes)


# ----------------------------------------------------------------------
# ALPHA_ZERO: alpha_k == 0, B != 0


def normalize_alpha_zero(x: VectorField, order: int, m=None) -> NormalFormResult:
    """Normalize fields with vanishing dz leading part to w^{k+1} dw forms.

    The kill loop realizes the intermediate form
    (w^{k+1} + c(z) w^{2k+1}) dw; tangency to a Levi-nonflat hypersurface
    forces c constant and real (the w^{2k+1}-level data is a per-leaf
    residue, invariant under all changes of coordinates), so nonconstant
    or nonreal c is rejected.
    """
    ld = _gate(x, ALPHA_ZERO, order, m)
    transform, xf, rescale = _prenormal(x, ld, order)
    k = ld.k
    if not xf.p.is_zero():
        raise InconsistentTangencyError(
            "dz terms survive at the resonant layer; no real constant "
            "multiple of these fields is tangent to a Levi-nonflat surface"
        )
    # the c(z) slots z^n w^{2k+1}; at k = 0 they hold the model slot w
    expected = {(0, k + 1)}
    support = set(xf.q.exponents())
    extra = support - expected - {(n, 2 * k + 1) for n in range(order + 1)}
    if extra:
        raise InternalError(f"unexpected dw support {sorted(extra)}")
    if k == 0:
        if support != expected:
            raise InconsistentTangencyError(
                "nonconstant linear dw data cannot be normalized away at k = 0"
            )
        tag = "NF9"
        params = {"k": 0, "r": ZERO}
        notes = []
    else:
        c_series = xf.q.coefficient_series("w", 2 * k + 1)
        if c_series.degree() > 0:
            raise InconsistentTangencyError(
                f"c(z) = {c_series.pretty()} is nonconstant: it is a per-leaf "
                "residue invariant, so no integral hypersurface exists"
            )
        tag = "NF8"
        params = {"k": k, "r": _real("r", c_series.coefficient((0,))),
                  "shifted_index_K": k + 1}
        notes = [
            "the same field reads (w^K + r w^{2K-1}) dw under the shifted "
            f"index K = k + 1 = {k + 1}; both indexings are reported"
        ]
    return NormalFormResult(tag=tag, params=params, transform=transform, rescale=rescale,
                            guaranteed_order=order, case=ALPHA_ZERO, field=xf, notes=notes)


# ----------------------------------------------------------------------
# B_ZERO: beta_k == B = 0


def _b_zero_stage2(x: VectorField, k: int, q: int, r, order: int):
    """Reduce i z F(w) w^k dz + G(w) dw to the form with parameters
    (c_1..c_q, r, t) by the pass loop under the slot rule at
    (A, B, k) = (0, r, k + q): on this support only r w^{k+q+1} dw enters
    an eigenvalue, the dz slot z w^{k+q+m} has r m and the dw slot
    w^{k+q+m+1} has r (m - k - q), resonant at the t slot m = k + q. All
    dw layers run first: a dw step moves the dz part, a dz step leaves
    the dw part alone.

    Returns (steps, field): each pass pushes the field forward by its step
    and keeps it, for `normalize_b_zero` to fold onto the prenormal map."""
    layers = range(1, order - k - q)

    def rule(xc, comp, m):
        return _corrections(xc, comp, ZERO, r, k + q, m)

    x, dw_steps = _passes(x, order, layers, ("dw",), rule)
    x, dz_steps = _passes(x, order, layers, ("dz",), rule)
    return dw_steps + dz_steps, x


def normalize_b_zero(x: VectorField, m, order: int) -> NormalFormResult:
    """Normalize the B = 0 branch against an integral hypersurface.

    After prenormalization the field is i z F(w) w^k dz + G(w) dw. A zero
    G at the cap is reported as the rotation form NF13 (with a caveat for
    k >= 1, where a genuine dw part may hide beyond the cap); otherwise
    the second-stage reduction produces NF14, whose steps are folded onto
    the prenormal transform, and tangency forces its parameters r, t, c_j
    to be real.
    """
    ld = _gate(x, B_ZERO, order, m)
    transform, xf, rescale = _prenormal(x, ld, order)
    k = ld.k

    ghat = xf.q
    if ghat.is_zero():
        f_slots = xf.p.divide_monomial((1, k))
        if k == 0 and f_slots != Series.constant(VF_VARS, order, I, exact=False):
            raise InconsistentTangencyError(
                "i z F(w) dz with F nonconstant is not tangent to any "
                "Levi-nonflat hypersurface"
            )
        notes = [
            "dw part vanishes at the cap: reported as NF13-at-cap; a "
            "genuine r != 0 may hide beyond the cap, and true NF13 "
            "requires k = 0"
        ] if k else []
        return NormalFormResult(tag="NF13", params={"k": k}, transform=transform,
                                rescale=rescale, guaranteed_order=order, case=B_ZERO,
                                field=xf, notes=notes)

    ord_g = min(exponent(key, 1, 2) for key in ghat.packed)
    q = ord_g - (k + 1)
    if q < 1:
        raise InternalError("prenormal dw part starts at w^{k+1} despite B = 0")
    r = ghat.coefficient((0, ord_g))
    steps, x2 = _b_zero_stage2(xf, k, q, r, order)
    _real("r", r)
    t = _real("t", x2.q.coefficient((0, 2 * (k + q) + 1)))
    # the dz part is i z w^k (1 + c_1 w + ...): divide the stored
    # coefficient by i to expose c_j
    c = [_real(f"c_{j}", x2.p.coefficient((1, k + j)) / I)
         for j in range(1, q + 1)]
    expected = {("dz", (1, k))}
    expected |= {("dz", (1, k + j)) for j in range(1, q + 1)}
    expected |= {("dw", (0, k + q + 1)), ("dw", (0, 2 * (k + q) + 1))}
    support = set(x2.support())
    if not support <= expected:
        raise InternalError(f"stage-2 left support {sorted(support - expected)}")
    return NormalFormResult(tag="NF14", params={"k": k, "q": q, "r": r, "t": t, "c": c},
                            transform=_fold_steps(steps, order, transform),
                            rescale=rescale, guaranteed_order=order, case=B_ZERO,
                            field=x2, convergent_claim="formal-only")


# ----------------------------------------------------------------------
# the one entry


# the normal forms each case can reach
FAMILY = {
    ORD0: "NF7",
    ALPHA_ZERO: "NF8/NF9",
    B_ZERO: "NF13/NF14",
    GENERIC: "NF10/NF11/NF12",
}


def normalize(x: VectorField, order: int, m=None) -> NormalFormResult:
    """The normal form of X through `order` by the normalizer of its case.

    GENERIC and B_ZERO need an integral surface m; ORD0 and ALPHA_ZERO
    check one when it is given. The normalizers are looked up by name at
    each call, so a wrapper bound over one of them is the one called.
    """
    case = classify_case(x)
    if case == ORD0:
        return normalize_ord0(x, order, m)
    if case == ALPHA_ZERO:
        return normalize_alpha_zero(x, order, m)
    if m is None:
        raise WrongBranchError(f"case {case} needs --hypersurface (an integral surface)")
    if case == GENERIC:
        return normalize_generic(x, m, order)
    return normalize_b_zero(x, m, order)


# ----------------------------------------------------------------------
# majorant certificate


def majorant_system(x: VectorField, order: int) -> MajorantSystem:
    """Check the certificate's preconditions and build its system
    (`majorant.MajorantSystem.of`) from X scaled so that B = q.

    r is read after the kill loop through degree 2k + 1 only (r = 0 for
    k = 0); the homological solve decides whether X is on the model.
    """
    if order < 1:
        raise OrderGuaranteeError(f"order {order}: the certificate needs order >= 1")
    ld = leading_data(x)
    if ld.case != GENERIC:
        raise WrongBranchError("majorant certificate applies to the generic case")
    mu = ld.mu
    if mu is None or not is_rational_negative(mu):
        raise WrongBranchError("majorant certificate requires mu in Q^-")
    if not ld.B.is_real():
        raise WrongBranchError("certificate requires a real leading dw constant")
    p = -mu.re.numerator
    qq = mu.re.denominator
    k = ld.k
    if order < k:
        raise OrderGuaranteeError(f"order {order}: the certificate needs order >= k = {k}")
    scale = GaussRational(qq) / ld.B
    xs = x.scale(scale)
    if xs.cap() != INFINITY and xs.cap() < order + k + 1:
        raise OrderGuaranteeError(
            f"field cap {xs.cap()} cannot certify order {order}: "
            f"need {order + k + 1}"
        )
    r = ZERO
    if k:
        xf = _kill_to_resonant(xs, 2 * k + 1, ld.A * scale, ld.B * scale, k)[1]
        r = xf.q.coefficient((0, 2 * k + 1))
    return MajorantSystem.of(xs, p, qq, k, r, order)


def majorant_certificate(x: VectorField, order: int) -> MajorantReport:
    """`majorant.certify` on the system of X, with the slot rule's
    eigenvalues at A = -p, B = q for the F and G slots."""
    sysm = majorant_system(x, order)
    p, q, k = sysm.p, sysm.q, sysm.k
    return certify(sysm, lambda a, b: _eig_z(-p, q, a, b),
                   lambda a, b: _eig_w(-p, q, k, a, b))
