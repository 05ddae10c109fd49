"""Real hypersurfaces v = psi(z, zbar, u), the tangency residual and
transport through a jet map.

psi lives in the fixed variable list ("z", "zbar", "u"). Reality
(conjugation symmetry under z <-> zbar) is enforced at construction;
normal coordinates (no harmonic terms) are validated on demand, because
mid-pipeline transports legitimately leave them and the engine restores
them explicitly. Levi-nonflatness is decided at the cap, with a warning,
since flatness is undecidable from a finite jet.

Transport substitutes the map into the graph once and finds the new graph
function by the near-identity solve of `field`, in (z, zbar, u); the map is
never inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import INFINITY, Series, substitute_all
from .backend import ZERO, GaussRational, series_add, series_mul, series_neg, series_scale
from .errors import (
    ArityError,
    InconsistentTangencyError,
    InternalError,
    NotInvertibleError,
    NotNormalCoordinatesError,
    OrderGuaranteeError,
)
from .field import (
    JetMap,
    VectorField,
    _compose_linear,
    _linear_inverse,
    _near_identity_part,
    _solve_near_identity,
)

HS_VARS = ("z", "zbar", "u")
PAIRING = {"z": "zbar", "zbar": "z", "u": "u"}

HALF = Fraction(1, 2)
MINUS_HALF_I = GaussRational(0, -HALF)


def conjugate_real(a: Series) -> Series:
    """Conjugation for series on the real hypersurface chart."""
    return a.conjugate(PAIRING)


def _graph_images(psi: Series, vars=("z", "w")):
    """(z, w) -> (z, u + i psi): the graph of psi as images in HS_VARS."""
    z, w = vars
    return {z: Series.variable(HS_VARS, 1, "z", exact=True),
            w: Series.variable(HS_VARS, 1, "u", exact=True) + psi.scale(GaussRational(0, 1))}


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
    p_on, q_on = substitute_all((x.p, x.q), _graph_images(psi, x.vars), order)

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


def _inverse3(m):
    """Rows of the inverse of a 3x3 matrix; None when it is singular."""
    (a, b, c), (d, e, f), (g, k, l) = m
    cof = ((e * l - f * k, f * g - d * l, d * k - e * g),
           (c * k - b * l, a * l - c * g, b * g - a * k),
           (b * f - c * e, c * d - a * f, a * e - b * d))
    det = a * cof[0][0] + b * cof[0][1] + c * cof[0][2]
    if det.is_zero():
        return None
    return tuple(tuple(cof[j][i] / det for j in range(3)) for i in range(3))


def transport(h: JetMap, m: RealHypersurface, order: int) -> RealHypersurface:
    """Defining series of h(M) as a graph in the new coordinates.

    Substituting h into the graph gives (F, G) = (f, g)(z, u + i psi)
    through `order`, one table of image products serving both. With
    P = (F, conj F, Re G), a map of (z, zbar, u), and V = Im G, the new
    graph function phi solves phi o P = V. Split P = L o (id + eps), L its
    linear part and ord eps >= 2: the near-identity solve settles
    S o (id + eps) = V degree by degree, and phi = S o L^-1. Neither h nor
    P is inverted by substitution.

    h(M) is a graph over (z, zbar, u) exactly when det L != 0; when psi
    has no linear terms, det L = |det Dh(0)|^2 Re (h^-1)_(g,w)(0). The
    result is checked at the full order by substituting P into phi, a
    computation independent of the solve, and checked to be real.
    """
    _linear_inverse(h, order)  # the preconditions of inverting h
    psi = m.psi
    if not psi.exact and psi.cap < order:
        raise OrderGuaranteeError(
            f"surface cap {psi.cap} below requested order {order}"
        )

    f, g = substitute_all((h.f.truncate(order), h.g.truncate(order)),
                          _graph_images(psi), order)
    fb, gb = conjugate_real(f), conjugate_real(g)
    re_g = (g + gb).scale(HALF)
    v = (g - gb).scale(MINUS_HALF_I).terms

    comps = (f.terms, fb.terms, re_g.terms)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    linv = _inverse3([[c.get(e, ZERO) for e in units] for c in comps])
    if linv is None:
        raise NotInvertibleError(
            "transported surface is not a graph: Re dg/dw (0) = 0"
        )
    eps = _near_identity_part(comps, linv, order)
    (phi,) = _compose_linear(HS_VARS, _solve_near_identity(eps, (v,), order), linv, order)

    if phi.substitute({"z": f, "zbar": fb, "u": re_g}, cap=order).terms != v:
        raise InternalError("transported graph fails phi o P = Im G")
    if conjugate_real(phi) != phi:
        raise InternalError("transported defining series lost reality")
    return RealHypersurface(phi)
