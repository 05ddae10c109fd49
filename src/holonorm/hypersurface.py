"""Real hypersurfaces v = psi(z, zbar, u), the tangency residual and
transport through a jet map.

psi lives in the fixed variable list ("z", "zbar", "u"). Reality
(conjugation symmetry under z <-> zbar) is enforced at construction;
normal coordinates (no harmonic terms) are validated on demand, because
mid-pipeline transports legitimately leave them and the engine restores
them explicitly. Levi-nonflatness is decided at the cap, with a warning,
since flatness is undecidable from a finite jet.

A field or a map is evaluated on the graph w = u + i psi by Taylor sums
in u: w takes the slot of u in the packed core of `substitute_all`, so
only the powers of i psi under the order are built. The images, the
derivatives of psi and (psi_u + i)/2 stay packed or raw terms, and the
real part swaps z and zbar by moving key fields: no Series is built on
the way. Transport substitutes the map into the graph once and finds the
new graph function by `field.solve_under` in (z, zbar, u), the split
solve the pushforward uses; the map is never inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import INFINITY, Series, _derive_raw, _substitute_packed
from .backend import (ONE, WIDTH, GaussRational, _new, add_raw, exponent, limit, mul_into,
                      remap, settle, unit, unpack)
from .errors import (ArityError, InconsistentTangencyError, InternalError, NotInvertibleError,
                     NotNormalCoordinatesError, OrderGuaranteeError)
from .field import JetMap, VectorField, check_invertible, solve_under

HS_VARS = ("z", "zbar", "u")
PAIRING = {"z": "zbar", "zbar": "z", "u": "u"}

HALF = Fraction(1, 2)
MINUS_HALF_I = GaussRational(0, -HALF)


def conjugate_real(a: Series) -> Series:
    """Conjugation for series on the real hypersurface chart."""
    return a.conjugate(PAIRING)


def _on_graph(psi: Series, vars, comps, order):
    """The term dicts comps in vars, read as (z, w), on the graph
    (z, u + i psi) through an order the caller's caps certify."""
    u = unit(2, 3)
    w = {u: ONE}
    for key, c in psi.packed.items():
        ic = _new(-c.b, c.a, c.d)  # i c, canonical as c is
        w[key] = ic + 1 if key == u else ic
    images = dict(zip(vars, ({unit(0, 3): ONE}, w)))
    return _substitute_packed(vars, HS_VARS, images, comps, (order,) * len(comps))


class RealHypersurface:
    """Graph v = psi(z, zbar, u) through the origin."""

    __slots__ = ("psi",)

    def __init__(self, psi: Series):
        if psi.vars != HS_VARS:
            raise ArityError(f"hypersurface series must use variables {HS_VARS}")
        if conjugate_real(psi) != psi:
            raise InconsistentTangencyError("defining series is not real")
        if 0 in psi.packed:  # key 0 is the constant monomial
            raise ArityError("hypersurface must pass through the origin")
        self.psi = psi

    def cap(self):
        return self.psi.cap

    def is_zero(self):
        return self.psi.is_zero()

    def harmonic_part(self) -> Series:
        """Terms with z-degree 0 or zbar-degree 0 (violations of normality)."""
        psi = self.psi
        bad = {key: c for key, c in psi.packed.items() if 0 in unpack(key, 3)[:2]}
        return Series._make(HS_VARS, psi.cap, bad, psi.exact)

    def in_normal_coordinates(self):
        return self.harmonic_part().is_zero()

    def nonminimality_order(self):
        """m with psi = u^m * (unit in u); None for the zero jet."""
        if self.psi.is_zero():
            return None
        return min(e[2] for e in self.psi.exponents())

    def leading_z_degree(self):
        """s = degree of the leading homogeneous part of psi/u^m in (z, zbar)."""
        m = self.nonminimality_order()
        if m is None:
            return None
        return min(e[0] + e[1] for e in self.psi.exponents() if e[2] == m)

    def leading_part(self) -> Series:
        """phi_s: the (z, zbar)-leading block of psi at u-power m."""
        m = self.nonminimality_order()
        if m is None:
            return Series.zero(HS_VARS, self.psi.cap)
        psi, d = self.psi, self.leading_z_degree() + m
        # the terms of u-power m and total degree s + m
        kept = {key: c for key, c in psi.packed.items()
                if exponent(key, 2, 3) == m and key >> 3 * WIDTH == d}
        return Series._make(HS_VARS, psi.cap, kept, psi.exact)

    def is_levi_nonflat_at_cap(self):
        return any(e[0] >= 1 and e[1] >= 1 for e in self.psi.exponents())

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
    series Re[ -P psi_z + Q (1/2i - psi_u/2) ] with w = u + i psi. The
    zero series through `order` certifies tangency to that order. P and Q
    are evaluated on the graph by Taylor sums in u (`_on_graph`); the
    bracket is one raw sum of products and its real part another, read
    from the first's raw values and reduced once.

    When X vanishes at the origin the derivative's cap loss is absorbed by
    the order >= 1 factors, so a cap-N jet pair certifies order N. The
    check refuses every order `substitute_all`'s planning would.
    """
    psi = m.psi
    psi_cap = psi._eff_cap()
    known = min(psi_cap if x.vanishes_at_origin() else psi_cap - 1, x.cap())
    if known != INFINITY and order > known:
        raise OrderGuaranteeError(f"caps certify order {int(known)} < requested {order}")
    if order < 0:
        raise OrderGuaranteeError("negative truncation cap")

    p_on, q_on = _on_graph(psi, x.vars, (x.p.packed, x.q.packed), order)

    # t = P psi_z + Q (psi_u + i)/2 raw at the full cap (with p_on, q_on
    # constant-free the missing top-degree derivative terms only feed
    # degrees > order); Re s = -(t + conj t)/2, conj a swap of key fields
    top = limit(order, 3)
    acc = mul_into({}, p_on, _derive_raw(psi.packed, 0, 3), top)
    half = [(k, a, b, 2 * d) for k, a, b, d in _derive_raw(psi.packed, 2, 3)]
    mul_into(acc, q_on, half + [(0, 0, 1, 2)], top)
    real = {}
    for key, bar, (re, im, den) in zip(acc, remap(acc, (1, 0, 2), 3), acc.values()):
        add_raw(real, key, -re, -im, 2 * den)
        add_raw(real, bar, -re, im, 2 * den)
    return Series._make(HS_VARS, order, settle(real), False)


def transport(h: JetMap, m: RealHypersurface, order: int) -> RealHypersurface:
    """Defining series of h(M) as a graph in the new coordinates.

    Substituting h into the graph gives (F, G) = (f, g)(z, u + i psi)
    through `order`, one table of image products serving both. With
    P = (F, conj F, Re G), a map of (z, zbar, u), and V = Im G, the new
    graph function phi solves phi o P = V (`field.solve_under`): with
    P = L o (id + eps), L its linear part and ord eps >= 2, the
    near-identity solve settles S o (id + eps) = V degree by degree, and
    phi = S o L^-1. Neither h nor P is inverted by substitution.

    h(M) is a graph over (z, zbar, u) exactly when det L != 0; when psi
    has no linear terms, det L = |det Dh(0)|^2 Re (h^-1)_(g,w)(0). The
    result is checked at the full order by substituting P into phi, a
    computation independent of the solve, and checked to be real. h's
    variables are read in order as (z, w), as its linear part is. Its two
    checks refuse every order `substitute_all`'s planning would.
    """
    check_invertible(h, order)
    psi = m.psi
    if not psi.exact and psi.cap < order:
        raise OrderGuaranteeError(f"surface cap {psi.cap} below requested order {order}")

    f, g = (Series._make(HS_VARS, order, t, False)
            for t in _on_graph(psi, h.vars, (h.f.packed, h.g.packed), order))
    fb, gb = conjugate_real(f), conjugate_real(g)
    re_g = (g + gb).scale(HALF)
    v = (g - gb).scale(MINUS_HALF_I).packed

    solved = solve_under(HS_VARS, (f.packed, fb.packed, re_g.packed),
                         ({k: [c.a, c.b, c.d] for k, c in v.items()},), order)
    if solved is None:
        raise NotInvertibleError(
            "transported surface is not a graph: Re dg/dw (0) = 0"
        )
    (phi,) = solved

    if phi.substitute({"z": f, "zbar": fb, "u": re_g}, cap=order).packed != v:
        raise InternalError("transported graph fails phi o P = Im G")
    try:
        return RealHypersurface(phi)
    except InconsistentTangencyError:
        raise InternalError("transported defining series lost reality") from None
