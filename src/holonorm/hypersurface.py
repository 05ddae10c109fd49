"""Real hypersurfaces v = psi(z, zbar, u) and the tangency residual.

psi lives in the fixed variable list ("z", "zbar", "u"). Reality
(conjugation symmetry under z <-> zbar) is enforced at construction;
normal coordinates (no harmonic terms) are validated on demand, because
mid-pipeline transports legitimately leave them and the engine restores
them explicitly. Levi-nonflatness is decided at the cap, with a warning,
since flatness is undecidable from a finite jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import INFINITY, Series
from .backend import GaussRational, series_add, series_mul, series_neg, series_scale
from .errors import (
    ArityError,
    InconsistentTangencyError,
    InternalError,
    NotInvertibleError,
    NotNormalCoordinatesError,
    OrderGuaranteeError,
)
from .field import JetMap, VectorField, jet_inverse

HS_VARS = ("z", "zbar", "u")
PAIRING = {"z": "zbar", "zbar": "z", "u": "u"}

HALF = Fraction(1, 2)
MINUS_HALF_I = GaussRational(0, -HALF)


def conjugate_real(a: Series) -> Series:
    """Conjugation for series on the real hypersurface chart."""
    return a.conjugate(PAIRING)


class RealHypersurface:
    """Graph v = psi(z, zbar, u) through the origin."""

    __slots__ = ("psi",)

    def __init__(self, psi: Series):
        if psi.vars != HS_VARS:
            raise ArityError(f"hypersurface series must use variables {HS_VARS}")
        if conjugate_real(psi) != psi:
            raise InconsistentTangencyError("defining series is not real")
        if not psi.coefficient((0, 0, 0)).is_zero():
            raise ArityError("hypersurface must pass through the origin")
        self.psi = psi

    def cap(self):
        return self.psi.cap

    def is_zero(self):
        return self.psi.is_zero()

    def harmonic_part(self) -> Series:
        """Terms with z-degree 0 or zbar-degree 0 (violations of normality)."""
        bad = {
            e: c for e, c in self.psi.terms.items() if e[0] == 0 or e[1] == 0
        }
        return Series(HS_VARS, self.psi.cap, bad, exact=self.psi.exact)

    def in_normal_coordinates(self):
        return self.harmonic_part().is_zero()

    def nonminimality_order(self):
        """m with psi = u^m * (unit in u); None for the zero jet."""
        if self.psi.is_zero():
            return None
        return min(e[2] for e in self.psi.terms)

    def leading_z_degree(self):
        """s = degree of the leading homogeneous part of psi/u^m in (z, zbar)."""
        m = self.nonminimality_order()
        if m is None:
            return None
        return min(e[0] + e[1] for e in self.psi.terms if e[2] == m)

    def leading_part(self) -> Series:
        """phi_s: the (z, zbar)-leading block of psi at u-power m."""
        m = self.nonminimality_order()
        if m is None:
            return Series.zero(HS_VARS, self.psi.cap)
        s = self.leading_z_degree()
        kept = {
            e: c
            for e, c in self.psi.terms.items()
            if e[2] == m and e[0] + e[1] == s
        }
        return Series(HS_VARS, self.psi.cap, kept, exact=self.psi.exact)

    def is_levi_nonflat_at_cap(self):
        return any(e[0] >= 1 and e[1] >= 1 for e in self.psi.terms)

    def __eq__(self, other):
        if not isinstance(other, RealHypersurface):
            return NotImplemented
        return self.psi == other.psi

    def __repr__(self):
        return f"RealHypersurface[v = {self.psi.pretty()}]"


@dataclass
class ValidationReport:
    real: bool
    normal_coordinates: bool
    nonminimality_order: object
    leading_degree: object
    levi_nonflat_at_cap: bool
    warnings: list = field(default_factory=list)

    def ok(self):
        return self.real and self.normal_coordinates


def validate(m: RealHypersurface, strict=True) -> ValidationReport:
    """Check normal-coordinate shape and extract the invariants m and s."""
    harmonic = m.harmonic_part()
    if strict and not harmonic.is_zero():
        raise NotNormalCoordinatesError(
            f"harmonic terms present: {harmonic.pretty()}"
        )
    warnings = []
    if m.is_zero():
        warnings.append("psi vanishes through the cap: Levi-flat at cap")
    elif not m.is_levi_nonflat_at_cap():
        warnings.append("no mixed term through the cap: Levi-flat at cap")
    return ValidationReport(
        real=True,
        normal_coordinates=harmonic.is_zero(),
        nonminimality_order=m.nonminimality_order(),
        leading_degree=m.leading_z_degree(),
        levi_nonflat_at_cap=m.is_levi_nonflat_at_cap(),
        warnings=warnings,
    )


def tangency_residual(x: VectorField, m: RealHypersurface, order: int) -> Series:
    """Re X(rho) restricted to M, expanded exactly through `order`.

    rho = (w - wbar)/2i - psi(z, zbar, (w + wbar)/2); the result is the real
    series Re[ -P psi_z + Q (1/2i - psi_u/2) ] with w = u + i psi. The zero
    series through `order` certifies tangency to that order.

    When X vanishes at the origin the derivative's cap loss is absorbed by
    the order >= 1 factors, so a cap-N jet pair certifies order N.
    """
    psi = m.psi
    psi_cap = psi._eff_cap()
    x_cap = x.cap()
    vanishes = x.vanishes_at_origin()
    limit = min(psi_cap if vanishes else psi_cap - 1, x_cap)
    if limit != INFINITY and order > limit:
        raise OrderGuaranteeError(
            f"caps certify order {int(limit)} < requested {order}"
        )

    # P and Q evaluated on the graph w = u + i psi
    z, w = x.vars
    on_graph = {z: Series.variable(HS_VARS, 1, "z", exact=True),
                w: Series.variable(HS_VARS, 1, "u", exact=True) + psi.scale(GaussRational(0, 1))}
    p_on = x.p.substitute(on_graph, cap=order)
    q_on = x.q.substitute(on_graph, cap=order)

    psi_z = psi.derive("z") if psi_cap > 0 or psi.exact else psi.scale(0)
    psi_u = psi.derive("u") if psi_cap > 0 or psi.exact else psi.scale(0)

    # raw products at the full cap: with p_on, q_on constant-free the
    # missing top-degree derivative terms only feed degrees > order
    t1 = series_neg(series_mul(p_on.terms, psi_z.terms, order))
    t2 = series_scale(q_on.terms, MINUS_HALF_I)
    t3 = series_mul(q_on.terms, psi_u.terms, order)
    t3 = series_scale(t3, GaussRational(-HALF))
    s = Series._make(HS_VARS, order, series_add(series_add(t1, t2), t3), False)
    residual = (s + conjugate_real(s)).scale(HALF)
    return residual.truncate(min(order, residual.cap))


@dataclass
class TangencyConstraintsReport:
    k: int
    alpha_k: Series
    beta_k: Series
    A: GaussRational
    B: GaussRational
    branch: str
    witnessed_z_order: int
    phi_s_is_circular: object = None
    undetermined_at_cap: bool = False
    notes: list = field(default_factory=list)


def leading_tangency_constraints(x: VectorField, m: RealHypersurface):
    """Extract k, alpha_k, beta_k and check what the basic identity forces.

    beta_k must be a real constant; in the B = 0 branch, alpha_k must have a
    simple zero with purely imaginary derivative and the leading part of M
    must be |z|^s with s even. Inputs violating a witnessed constraint are
    rejected: they cannot be tangent to a Levi-nonflat M in normal form.
    """
    from .normalform import B_ZERO, classify_case, leading_data  # local import to avoid a cycle

    ld = leading_data(x)
    k, alpha_k, beta_k = ld.k, ld.alpha_k, ld.beta_k
    witness = max(-1, int(x.cap() - (k + 1)) if x.cap() != INFINITY else beta_k.degree())
    notes = []

    if beta_k.degree() > 0:
        raise InconsistentTangencyError(
            f"beta_k = {beta_k.pretty()} is not constant; no Levi-nonflat "
            "integral hypersurface in normal coordinates admits it"
        )
    B = ld.B
    if not B.is_real():
        raise InconsistentTangencyError(f"beta_k(0) = {B} is not real")
    undetermined = witness < 1
    if undetermined:
        notes.append("cap too low to witness beta_k beyond its constant term")

    branch = classify_case(x)
    phi_circ = None
    if branch == B_ZERO:
        A = ld.A
        if A.is_zero():
            raise InconsistentTangencyError(
                "B = 0 requires ord_0 alpha_k = 1, but alpha_k'(0) = 0"
            )
        if not A.is_imaginary():
            raise InconsistentTangencyError(
                f"B = 0 forces alpha_k'(0) purely imaginary; got {A}"
            )
        lead = m.leading_part()
        s = m.leading_z_degree()
        if s is None:
            phi_circ = None
            notes.append("M vanishes at cap; phi_s undetermined")
        else:
            diag = all(e[0] == e[1] for e in lead.terms)
            phi_circ = diag and s % 2 == 0 and len(lead.terms) == 1
            if not phi_circ:
                raise InconsistentTangencyError(
                    "B = 0 forces phi_s proportional to |z|^s with s even"
                )
    return TangencyConstraintsReport(
        k=k,
        alpha_k=alpha_k,
        beta_k=beta_k,
        A=ld.A,
        B=B,
        branch=branch,
        witnessed_z_order=witness,
        phi_s_is_circular=phi_circ,
        undetermined_at_cap=undetermined,
        notes=notes,
    )


def transport(h: JetMap, m: RealHypersurface, order: int) -> RealHypersurface:
    """Defining series of h(M) as a graph in the new coordinates.

    Solves Im G = psi(F, conj F, Re G) for the new graph function by a
    fixed-point iteration, where (F, G) = h^{-1}. Requires Re(dg/dw)(0) != 0
    so the image stays a graph over (z, zbar, u). Each iteration settles at
    least one more degree, so iteration j runs at cap min(j + 2, order); the
    loop ends only when the residual vanishes at the full order.

    The iterate stays real (psi is real and the step -2 / (2 Re g_w(0)) is
    real), so (conj F, conj G) at (zbar, u - i cur) is the conjugate of
    (F, G) at (z, u + i cur): each iteration substitutes the holomorphic
    pair only.
    """
    psi = m.psi
    hinv = jet_inverse(h, cap=order)
    fi, gi = hinv.f, hinv.g

    lam = gi.coefficient((0, 1))
    lam0 = lam + lam.conjugate()  # 2 Re g_w(0)
    if lam0.is_zero():
        raise NotInvertibleError(
            "transported surface is not a graph: Re dg/dw (0) = 0"
        )
    if not psi.exact and psi.cap < order:
        raise OrderGuaranteeError(
            f"surface cap {psi.cap} below requested order {order}"
        )

    z_hs = Series.variable(HS_VARS, 1, "z", exact=True)
    u_hs = Series.variable(HS_VARS, 1, "u", exact=True)
    i = GaussRational(0, 1)
    step = GaussRational(-2) / lam0

    cur = {}
    for it in range(2 * order + 4):
        cap = min(it + 2, order)
        images = {"z": z_hs, "w": u_hs + Series._make(HS_VARS, cap, cur, False).scale(i)}
        z_old = fi.truncate(cap).substitute(images, cap=cap)
        g_old = gi.truncate(cap).substitute(images, cap=cap)
        zb_old = conjugate_real(z_old)
        gb_old = conjugate_real(g_old)
        u_old = (g_old + gb_old).scale(HALF)
        v_old = (g_old - gb_old).scale(MINUS_HALF_I)
        t = v_old - psi.truncate(cap).substitute(
            {"z": z_old, "zbar": zb_old, "u": u_old}, cap=cap
        )
        if t.is_zero() and cap == order:
            break
        cur = series_add(cur, series_scale(t.terms, step))
    else:
        raise InternalError("hypersurface transport did not converge")
    cur = Series._make(HS_VARS, order, cur, False)
    if conjugate_real(cur) != cur:
        raise InternalError("transported defining series lost reality")
    return RealHypersurface(cur)
