"""Planar holomorphic vector fields as series pairs, and jet coordinate maps.

Conventions: a VectorField is P dz + Q dw with P, Q Series in two variables
(canonically VF_VARS, z and w); a JetMap sends (z, w) to (f, g) and acts on fields
by pushforward. Both the pushforward and the jet inverse come from one
entry, `solve_under`: a map is split as h = L o (id + eps), L its linear
part and ord eps >= 2, Y o (id + eps) = R is settled by a near-identity
solve, and L^-1 (from `linalg.inverse`, skipped when L is the identity)
follows; no map is inverted by substitution. `solve_under` works in any
number of variables, so `hypersurface.transport` uses it in (z, zbar, u).
The solve's Taylor table is `algebra._TaylorTable`, the one every
substitution expands through, and L^-1 is applied by that expansion
(`algebra._compose_near_identity`). The solve takes each right-hand side
raw and settles only the degrees that hold terms: Dh . X enters as the
accumulator it was summed in, X's own component where h_i = x_i. Every
operation returns values exact through the cap recorded on the result.
"""

from __future__ import annotations

from .algebra import (INFINITY, Series, _compose_near_identity, _derive_raw, _TaylorTable,
                      substitute_all)
from .backend import (ONE, WIDTH, ZERO, GaussRational, as_gauss, exponent, limit, mul_into,
                      series_neg, settle, unit, unpack)
from .errors import ArityError, FlowOrderError, NotInvertibleError, OrderGuaranteeError
from .linalg import inverse

VF_VARS = ("z", "w")
_UNITS = (unit(0, 2), unit(1, 2))  # the keys of z and w


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
        return 0 not in self.p.packed and 0 not in self.q.packed  # key 0: constant

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
        out = [("dz", e) for e in self.p.exponents()]
        out += [("dw", e) for e in self.q.exponents()]
        return sorted(out)

    def __repr__(self):
        return f"VectorField[({self.p.pretty()}) dz + ({self.q.pretty()}) dw]"


def apply_field(x: VectorField, a: Series) -> Series:
    """The derivation X(a) = P da/dz + Q da/dw."""
    if a.vars != x.vars:
        raise ArityError("series and field variable lists differ")
    z, w = x.vars
    return x.p * a.derive(z) + x.q * a.derive(w)


def _derivation_into(acc, x: VectorField, terms, top):
    """acc += X(a) = P a_z + Q a_w for the term dict a in the raw
    accumulator acc, keeping the keys below top; returns acc. Each
    derivative enters raw, its exponents weighing the numerators."""
    mul_into(acc, x.p.packed, _derive_raw(terms, 0, 2), top)
    return mul_into(acc, x.q.packed, _derive_raw(terms, 1, 2), top)


def _apply_capped(x: VectorField, a: Series, cap: int) -> Series:
    """X(a) exact through cap when X is known through cap and a through
    cap + 1, or through cap if X(0) = 0, whose order >= 1 coefficients
    absorb the degree the derivative loses. Both products go into one raw
    accumulator, reduced once per coefficient."""
    acc = _derivation_into({}, x, a.packed, limit(cap, 2))
    return Series._make(x.vars, cap, settle(acc), False)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y], component i being X(Y_i) - Y(X_i).

    Each component's four products go into one raw accumulator, reduced
    once per coefficient. The terms, cap and exact flag are those of the
    same sum composed of Series operations: exact when all four components
    are, with the cap its degree; otherwise known through the least cap
    of the other components and of the component's own derivatives,
    cap - 1 for X_i and Y_i.
    """
    if x.vars != y.vars:
        raise ArityError("series and field variable lists differ")
    comps = (x.p, x.q, y.p, y.q)
    if any(not s.exact and s.cap == 0 for s in comps):
        raise OrderGuaranteeError("derivative of an order-0 jet is unknown")
    eff = [s._eff_cap() for s in comps]
    exact = all(s.exact for s in comps)
    if exact:
        top = limit(max(max(x.p.degree(), x.q.degree()) + max(y.p.degree(), y.q.degree()), 0), 2)
    out = []
    for i in (0, 1):
        if not exact:
            cap = int(min(eff[1 - i], eff[3 - i], eff[i] - 1, eff[2 + i] - 1))
            top = limit(cap, 2)
        acc = _derivation_into({}, x, comps[2 + i].packed, top)
        terms = settle(_derivation_into(acc, y, series_neg(comps[i].packed), top))
        if exact:
            cap = max(terms) >> 2 * WIDTH if terms else 0
        out.append(Series._make(x.vars, cap, terms, exact))
    return VectorField(*out)


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
    def identity(cls, vars=VF_VARS, cap=1, exact=True):
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


def check_invertible(h: JetMap, cap: int):
    """Refuse to invert h through `cap` when its jet cannot say: a
    negative cap, cap 0 (an order-0 jet loses the linear part) or a cap
    above h's own. A JetMap's linear part is invertible by construction."""
    if cap < 0:
        raise OrderGuaranteeError("negative truncation cap")
    if cap == 0:
        raise NotInvertibleError("jet map has singular linear part")
    if h.cap() < cap:
        raise OrderGuaranteeError(
            f"requested order {cap} exceeds guaranteed order {int(h.cap())}"
        )


def _solve_near_identity(eps, rhs, cap: int):
    """The term dicts Y with Y o (id + eps) = R through cap, one per raw
    accumulator R in rhs (`backend.mul_into`'s form), whose values the
    solve adds on to; eps holds one term dict of order >= 2 per variable.

    Exponents are settled by increasing total degree: Y_e = R_e - pending_e.
    Then every Taylor term C(e, a) x^(e - a) eps^a of Y_e x^e with a != 0
    that reaches a degree <= cap moves into pending (`_TaylorTable`). It
    raises the degree by at least |a|, so it never reaches an exponent
    already settled, and each degree's raw accumulator is complete, and
    reduced once per coefficient (`backend.settle`), when it is reached.
    A degree that holds no term is passed over.
    """
    table = _TaylorTable(eps, cap)
    top, shift = table.top, len(eps) * WIDTH
    solved = []
    for r in rhs:
        # R - pending by degree, raw accumulators settled when reached; a
        # zero of R holds no place in its degree's key order
        pending = [{} for _ in range(cap + 1)]
        for key, v in r.items():
            if key < top and (v[0] or v[1]):
                pending[key >> shift][key] = v
        y = {}
        for d, level in enumerate(pending):
            if level:
                for key, v in settle(level).items():
                    y[key] = v
                    table.spread(pending, key, d, -v)
        solved.append(y)
    return solved


def solve_under(vars, comps, rhs, cap: int):
    """The Series Y with Y o P = R through cap, one per raw accumulator R
    in rhs, which the solve adds on to, where P is the map of `vars` whose
    components are the term dicts comps; None when P's linear part L is
    singular.

    P = L o (id + eps) with eps = L^-1 (P - L) of order >= 2, so Y o L is
    the near-identity solve of R and Y is that solve after L^-1, applied
    by the Taylor expansion. When L is the identity, as on nearly every
    kill-loop pass, eps = P - id and L is not inverted.
    """
    n = len(vars)
    units = [unit(j, n) for j in range(n)]
    lin = [[c.get(u, ZERO) for u in units] for c in comps]
    low, top = limit(1, n), limit(cap, n)  # the keys of degree 2..cap
    eps = [{k: v for k, v in c.items() if low <= k < top} for c in comps]
    if lin == [[ONE if u == e else ZERO for e in units] for u in units]:
        return [Series._make(vars, cap, y, False) for y in _solve_near_identity(eps, rhs, cap)]
    linv = inverse(lin)
    if linv is None:
        return None
    # eps = L^-1 (P - L), one raw sum per component, reduced once
    raw = [{} for _ in linv]
    for acc, row in zip(raw, linv):
        for terms, r in zip(eps, row):
            mul_into(acc, {0: r}, terms, top)
    eps = [settle(acc) for acc in raw]
    rows = [{u: c for u, c in zip(units, row) if c} for row in linv]
    ys = _compose_near_identity(rows, _solve_near_identity(eps, rhs, cap), cap)
    return [Series._make(vars, cap, y, False) for y in ys]


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
    check_invertible(h, cap)
    ident = ({_UNITS[0]: [1, 0, 1]}, {_UNITS[1]: [1, 0, 1]})
    return JetMap(*solve_under(h.vars, (h.f.packed, h.g.packed), ident, cap))


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
    check_invertible(h, cap)
    if x.vars != h.vars:
        raise ArityError("field and map variable lists differ")
    # Dh . X is known through the cap of X and of h, less one unless X(0) = 0
    known = min(x.cap(), h.cap() - (0 if x.vanishes_at_origin() else 1))
    if known < cap:
        raise OrderGuaranteeError(f"requested order {cap} exceeds guaranteed order {known}")
    top = limit(cap, 2)
    rhs = [{k: [c.a, c.b, c.d] for k, c in comp.packed.items() if k < top}
           if h_i.packed == {e: ONE} else _derivation_into({}, x, h_i.packed, top)
           for h_i, comp, e in zip((h.f, h.g), (x.p, x.q), _UNITS)]
    return VectorField(*solve_under(h.vars, (h.f.packed, h.g.packed), rhs, cap))


def flow(x: VectorField, t, order: int) -> JetMap:
    """Time-t formal flow of X as a jet map, exact through `order`.

    Requires every term of X to have weighted order >= 1 under [z]=0,[w]=1,
    i.e. P divisible by w and Q by w^2; each application of the derivation
    then raises the w-order, so every jet coefficient is a finite sum.
    """
    if order < 1:
        raise OrderGuaranteeError(f"order {order}: the flow needs order >= 1")
    t = as_gauss(t)
    if t is None or not t.is_real():
        raise FlowOrderError("flow time must be a real rational")
    for comp, series, least in (("dz", x.p, 1), ("dw", x.q, 2)):
        for key in series.packed:
            if exponent(key, 1, 2) < least:
                raise FlowOrderError(f"{comp} term {unpack(key, 2)} has weighted order < 1")
    xc = x.cap()
    if xc != INFINITY and order > xc:
        raise OrderGuaranteeError(f"field cap {xc} below requested order {order}")

    vars = x.vars
    # the layer structure keeps truncation at `order` stable under X
    xo = x.truncate(order)
    results = []
    for name in vars:
        # sum_j t^j/j! X^j(name) in one raw accumulator, each term of X^j
        # entering as a product with its factor
        e = unit(vars.index(name), 2)
        acc = {e: [1, 0, 1]}
        cur = Series._make(vars, order, {e: ONE}, False)
        factor = ONE
        j = 0
        while not cur.is_zero():
            j += 1
            if j > 3 * order + 3:
                raise FlowOrderError("flow iteration failed to terminate")
            cur = _apply_capped(xo, cur, order)
            factor = factor * t / j
            if factor.is_zero():
                break
            mul_into(acc, cur.packed, {0: factor}, limit(order, 2))
        results.append(Series._make(vars, order, settle(acc), False))
    return JetMap(*results)
