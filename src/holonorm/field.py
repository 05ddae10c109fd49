"""Planar holomorphic vector fields as series pairs, and jet coordinate maps.

Conventions: a VectorField is P dz + Q dw with P, Q Series in two variables
(canonically ("z", "w")); a JetMap sends (z, w) to (f, g) and acts on fields
by pushforward. A map is split as h = L o (id + eps), L its linear part and
ord eps >= 2, and both the pushforward and the jet inverse come from one
near-identity solve of Y o (id + eps) = R, followed by L^-1; no map is
inverted by substitution. The solve and its two helpers work in any number
of variables, so `hypersurface.transport` uses them in (z, zbar, u). The
solve's Taylor table is `algebra._TaylorTable`, the one every substitution
expands through, and L^-1 is applied by that expansion
(`algebra._compose_near_identity`). Every operation returns values exact
through the cap recorded on the result.
"""

from __future__ import annotations

from .algebra import INFINITY, Series, _compose_near_identity, _TaylorTable, substitute_all
from .backend import (
    ONE,
    ZERO,
    GaussRational,
    as_gauss,
    series_add,
    series_add_into,
    series_mul,
    series_scale,
)
from .errors import ArityError, FlowOrderError, NotInvertibleError, OrderGuaranteeError


class VectorField:
    """P(z,w) d/dz + Q(z,w) d/dw."""

    __slots__ = ("p", "q")

    def __init__(self, p: Series, q: Series):
        if p.vars != q.vars:
            raise ArityError("components live in different variable lists")
        if len(p.vars) != 2:
            raise ArityError("vector fields are planar: exactly two variables")
        self.p = p
        self.q = q

    @property
    def vars(self):
        return self.p.vars

    def cap(self):
        caps = [c for c in (self.p._eff_cap(), self.q._eff_cap()) if c != INFINITY]
        return min(caps) if caps else INFINITY

    def is_zero(self):
        return self.p.is_zero() and self.q.is_zero()

    def vanishes_at_origin(self):
        zero = (0,) * len(self.vars)
        return self.p.coefficient(zero).is_zero() and self.q.coefficient(zero).is_zero()

    def __add__(self, other):
        return VectorField(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return VectorField(self.p - other.p, self.q - other.q)

    def __neg__(self):
        return VectorField(-self.p, -self.q)

    def scale(self, c):
        return VectorField(self.p.scale(c), self.q.scale(c))

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def truncate(self, cap):
        return VectorField(self.p.truncate(cap), self.q.truncate(cap))

    def as_jet(self, cap=None):
        return VectorField(self.p.as_jet(cap), self.q.as_jet(cap))

    def support(self):
        """Sorted (component, exponents) pairs; component is 'dz' or 'dw'."""
        out = [("dz", e) for e in self.p.terms]
        out += [("dw", e) for e in self.q.terms]
        return sorted(out)

    def __repr__(self):
        return f"VectorField[({self.p.pretty()}) dz + ({self.q.pretty()}) dw]"


def apply_field(x: VectorField, a: Series) -> Series:
    """The derivation X(a) = P da/dz + Q da/dw."""
    if a.vars != x.vars:
        raise ArityError("series and field variable lists differ")
    z, w = x.vars
    return x.p * a.derive(z) + x.q * a.derive(w)


def _derive_terms(terms, slot):
    return {e[:slot] + (e[slot] - 1,) + e[slot + 1 :]: c * e[slot]
            for e, c in terms.items() if e[slot]}


def _apply_capped(x: VectorField, a: Series, cap: int) -> Series:
    """X(a) exact through cap, valid when X(0) = 0 and both jets are known
    through cap: the derivative's lost top degree is absorbed by the
    order >= 1 coefficients of X."""
    out = series_add(
        series_mul(x.p.terms, _derive_terms(a.terms, 0), cap),
        series_mul(x.q.terms, _derive_terms(a.terms, 1), cap),
    )
    return Series._make(x.vars, cap, out, False)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y] componentwise."""
    return VectorField(
        apply_field(x, y.p) - apply_field(y, x.p),
        apply_field(x, y.q) - apply_field(y, x.q),
    )


class JetMap:
    """Coordinate-change jet (z, w) -> (f(z,w), g(z,w)) fixing the origin,
    with invertible linear part."""

    __slots__ = ("f", "g")

    def __init__(self, f: Series, g: Series):
        if f.vars != g.vars:
            raise ArityError("components live in different variable lists")
        if len(f.vars) != 2:
            raise ArityError("jet maps are planar: exactly two variables")
        zero = (0,) * 2
        if not f.coefficient(zero).is_zero() or not g.coefficient(zero).is_zero():
            raise ArityError("jet maps must fix the origin")
        self.f = f
        self.g = g
        if not self.is_invertible():
            raise NotInvertibleError("jet map has singular linear part")

    @property
    def vars(self):
        return self.f.vars

    @classmethod
    def identity(cls, vars=("z", "w"), cap=1, exact=True):
        vars = tuple(vars)
        return cls(
            Series.variable(vars, cap, vars[0], exact=exact),
            Series.variable(vars, cap, vars[1], exact=exact),
        )

    def cap(self):
        caps = [c for c in (self.f._eff_cap(), self.g._eff_cap()) if c != INFINITY]
        return min(caps) if caps else INFINITY

    def jacobian0(self):
        z, w = self.vars
        ez = (1, 0)
        ew = (0, 1)
        return (
            self.f.coefficient(ez),
            self.f.coefficient(ew),
            self.g.coefficient(ez),
            self.g.coefficient(ew),
        )

    def jacobian0_det(self) -> GaussRational:
        a, b, c, d = self.jacobian0()
        return a * d - b * c

    def is_invertible(self):
        return not self.jacobian0_det().is_zero()

    def preserves_E(self):
        """Whether {w = 0} maps into itself: g divisible by w."""
        return all(e[1] >= 1 for e in self.g.terms)

    def compose(self, inner: "JetMap", cap=None) -> "JetMap":
        """self after inner: (self o inner)(p) = self(inner(p))."""
        images = {inner.vars[0]: inner.f, inner.vars[1]: inner.g}
        # rename self's variables onto inner's domain if they differ
        f = self.f if self.vars == inner.vars else self.f.embed(
            inner.vars, dict(zip(self.vars, inner.vars))
        )
        g = self.g if self.vars == inner.vars else self.g.embed(
            inner.vars, dict(zip(self.vars, inner.vars))
        )
        return JetMap(*substitute_all((f, g), images, cap))

    def truncate(self, cap):
        return JetMap(self.f.truncate(cap), self.g.truncate(cap))

    def as_jet(self, cap=None):
        return JetMap(self.f.as_jet(cap), self.g.as_jet(cap))

    def __eq__(self, other):
        if not isinstance(other, JetMap):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __repr__(self):
        return f"JetMap[z -> {self.f.pretty()}; w -> {self.g.pretty()}]"


def _linear_inverse(h: JetMap, cap: int):
    """Rows of L^-1 for the linear part L of h, after the preconditions of
    inverting h through `cap`."""
    det = h.jacobian0_det()
    if det.is_zero():
        raise NotInvertibleError("jet map has singular linear part")
    if cap < 0:
        raise OrderGuaranteeError("negative truncation cap")
    if cap == 0:  # an order-0 jet loses the linear part
        raise NotInvertibleError("jet map has singular linear part")
    if h.cap() < cap:
        raise OrderGuaranteeError(
            f"requested order {cap} exceeds guaranteed order {int(h.cap())}"
        )
    a, b, c, d = h.jacobian0()
    return (d / det, -b / det), (-c / det, a / det)


def _is_identity(linv):
    return all(c == (ONE if i == j else ZERO)
               for i, row in enumerate(linv) for j, c in enumerate(row))


def _near_identity_part(comps, linv, cap: int):
    """eps = L^-1 (h - L) through cap, one term dict per variable, where
    comps are the term dicts of h's components and linv the rows of L^-1:
    h = L o (id + eps) with ord eps >= 2."""
    nonlinear = [{e: v for e, v in c.items() if 2 <= sum(e) <= cap} for c in comps]
    if _is_identity(linv):
        return nonlinear
    out = []
    for row in linv:
        acc = {}
        for terms, r in zip(nonlinear, row):
            series_add_into(acc, series_scale(terms, r))
        out.append(acc)
    return out


def _solve_near_identity(eps, rhs, cap: int):
    """The term dicts Y with Y o (id + eps) = R through cap, one per term
    dict R in rhs; eps holds one term dict of order >= 2 per variable.

    Exponents are settled by increasing total degree: Y_e = R_e - pending_e.
    Then every Taylor term C(e, a) x^(e - a) eps^a of Y_e x^e with a != 0
    that reaches a degree <= cap moves into pending (`_TaylorTable`). It
    raises the degree by at least |a|, so it never reaches an exponent
    already settled.
    """
    table = _TaylorTable(eps, cap)
    solved = []
    for r in rhs:
        pending = [{} for _ in range(cap + 1)]  # R - pending, by degree
        for e, v in r.items():
            d = sum(e)
            if d <= cap:
                pending[d][table.pack(e)] = v
        y = {}
        for d, level in enumerate(pending):
            for key, v in level.items():
                if v.is_zero():
                    continue
                y[table.unpack(key)] = v
                table.spread(pending, key, d, -v)
        solved.append(y)
    return solved


def _compose_linear(vars, comps, linv, cap: int):
    """Series through cap of each term dict in comps after L^-1, whose
    rows are the images of the variables."""
    if not _is_identity(linv):
        units = [tuple(int(i == j) for i in range(len(vars))) for j in range(len(vars))]
        rows = [{u: c for u, c in zip(units, row) if not c.is_zero()} for row in linv]
        comps = _compose_near_identity(rows, comps, cap)
    return [Series._make(vars, cap, y, False) for y in comps]


def jet_inverse(h: JetMap, cap=None) -> JetMap:
    """Compositional inverse through the cap: inverse(h) o h = identity.

    With h = L o (id + eps), L the linear part and ord eps >= 2, the inverse
    is S o L^-1, where S o (id + eps) = id is settled degree by degree by
    the near-identity solve. The jet inverse is unique, so the left and
    right inverses agree through the cap.
    """
    if cap is None:
        c = h.cap()
        if c == INFINITY:
            raise OrderGuaranteeError("pass a cap to invert an exact polynomial map")
        cap = int(c)
    linv = _linear_inverse(h, cap)
    ident = ({(1, 0): ONE}, {(0, 1): ONE})
    eps = _near_identity_part((h.f.terms, h.g.terms), linv, cap)
    s = _solve_near_identity(eps, ident, cap)
    return JetMap(*_compose_linear(h.vars, s, linv, cap))


def pushforward(h: JetMap, x: VectorField, cap=None) -> VectorField:
    """The transformed field Y with Y o h = Dh . X.

    With h = L o (id + eps) as in `jet_inverse`, Y o L solves
    (Y o L) o (id + eps) = Dh . X, so Y is the near-identity solve of
    Dh . X followed by L^-1; h itself is never inverted.
    """
    if cap is None:
        caps = [v for v in (x.cap(), h.cap()) if v != INFINITY]
        if not caps:
            raise OrderGuaranteeError("pass a cap to push an exact field forward")
        cap = int(min(caps))
    linv = _linear_inverse(h, cap)
    if x.vars != h.vars:
        raise ArityError("field and map variable lists differ")
    if x.vanishes_at_origin() and min(x.cap(), h.cap()) >= cap:
        rhs = (_apply_capped(x, h.f, cap), _apply_capped(x, h.g, cap))
    else:
        rhs = (apply_field(x, h.f), apply_field(x, h.g))
    for r in rhs:
        if not r.exact and r.cap < cap:
            raise OrderGuaranteeError(
                f"requested order {cap} exceeds guaranteed order {r.cap}"
            )
    eps = _near_identity_part((h.f.terms, h.g.terms), linv, cap)
    y = _solve_near_identity(eps, [r.terms for r in rhs], cap)
    return VectorField(*_compose_linear(h.vars, y, linv, cap))


def flow(x: VectorField, t, order: int) -> JetMap:
    """Time-t formal flow of X as a jet map, exact through `order`.

    Requires every term of X to have weighted order >= 1 under [z]=0,[w]=1,
    i.e. P divisible by w and Q by w^2; each application of the derivation
    then raises the w-order, so every jet coefficient is a finite sum.
    """
    t = as_gauss(t)
    if t is None or not t.is_real():
        raise FlowOrderError("flow time must be a real rational")
    for e in x.p.terms:
        if e[1] < 1:
            raise FlowOrderError(f"dz term {e} has weighted order < 1")
    for e in x.q.terms:
        if e[1] < 2:
            raise FlowOrderError(f"dw term {e} has weighted order < 1")
    xc = x.cap()
    if xc != INFINITY and order > xc:
        raise OrderGuaranteeError(f"field cap {xc} below requested order {order}")

    vars = x.vars
    # the layer structure keeps truncation at `order` stable under X
    xo = x.truncate(order)
    results = []
    for name in vars:
        acc = {(1, 0) if name == vars[0] else (0, 1): GaussRational(1)}
        cur = Series(vars, order, acc)
        factor = GaussRational(1)
        j = 0
        while not cur.is_zero():
            j += 1
            if j > 3 * order + 3:
                raise FlowOrderError("flow iteration failed to terminate")
            cur = _apply_capped(xo, cur, order)
            factor = factor * t / j
            if factor.is_zero():
                break
            series_add_into(acc, series_scale(cur.terms, factor))
        results.append(Series(vars, order, acc, exact=False))
    return JetMap(*results)
