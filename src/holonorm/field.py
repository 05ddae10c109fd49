"""Planar holomorphic vector fields as series pairs, and jet coordinate maps.

Conventions: a VectorField is P dz + Q dw with P, Q Series in two variables
(canonically ("z", "w")); a JetMap sends (z, w) to (f, g) and acts on fields
by pushforward, computed through explicit jet inversion. Every operation
returns values exact through the cap recorded on the result.
"""

from __future__ import annotations

from .algebra import INFINITY, Series
from .backend import GaussRational, as_gauss, series_add, series_mul, series_scale
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
        return JetMap(f.substitute(images, cap=cap), g.substitute(images, cap=cap))

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


def jet_inverse(h: JetMap, cap=None) -> JetMap:
    """Compositional inverse through the cap: inverse(h) o h = identity.

    Solves the fixed point psi = L^-1 (id - N o psi), with L the linear and
    N the nonlinear part of h. N has order >= 2, so the degree-c part of
    N o psi needs psi only through degree c - 1: each pass substitutes at
    its own precision c, and the last pass runs at the full cap. The jet
    inverse is unique, so the left and right inverses agree through the cap.
    """
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
    linv = ((d / det, -b / det), (-c2 / det, a / det))  # rows of L^-1
    linv_f, linv_g = (Series(vars, cap, {(1, 0): r0, (0, 1): r1}, exact=False)
                      for r0, r1 in linv)
    JetMap(linv_f, linv_g)  # a cap below 1 loses the linear part
    if h.cap() < cap:
        raise OrderGuaranteeError(
            f"requested order {cap} exceeds guaranteed order {int(h.cap())}"
        )

    pf, pg = dict(linv_f.terms), dict(linv_g.terms)
    for degree in range(2, cap + 1):
        images = {
            vars[0]: Series._make(vars, degree, dict(pf), False),
            vars[1]: Series._make(vars, degree, dict(pg), False),
        }
        nf = {e: v for e, v in h.f.terms.items() if 2 <= sum(e) <= degree}
        ng = {e: v for e, v in h.g.terms.items() if 2 <= sum(e) <= degree}
        sf = Series._make(vars, degree, nf, False).substitute(images, cap=degree)
        sg = Series._make(vars, degree, ng, False).substitute(images, cap=degree)
        top_f = {e: v for e, v in sf.terms.items() if sum(e) == degree}
        top_g = {e: v for e, v in sg.terms.items() if sum(e) == degree}
        for row, out in zip(linv, (pf, pg)):
            out.update(series_add(series_scale(top_f, -row[0]),
                                  series_scale(top_g, -row[1])))
    return JetMap(Series._make(vars, cap, pf, False), Series._make(vars, cap, pg, False))


def pushforward(h: JetMap, x: VectorField, cap=None) -> VectorField:
    """The transformed field Y with Y o h = Dh . X."""
    if cap is None:
        caps = [v for v in (x.cap(), h.cap()) if v != INFINITY]
        if not caps:
            raise OrderGuaranteeError("pass a cap to push an exact field forward")
        cap = int(min(caps))
    hinv = jet_inverse(h, cap=cap)
    images = {h.vars[0]: hinv.f, h.vars[1]: hinv.g}
    if x.vanishes_at_origin() and min(x.cap(), h.cap()) >= cap:
        xf = _apply_capped(x, h.f, cap)
        xg = _apply_capped(x, h.g, cap)
    else:
        xf = apply_field(x, h.f)
        xg = apply_field(x, h.g)
    yp = xf.substitute(images, cap=cap)
    yq = xg.substitute(images, cap=cap)
    return VectorField(yp, yq)


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
            acc = series_add(acc, series_scale(cur.terms, factor))
        results.append(Series(vars, order, acc, exact=False))
    fz, fw = results
    # strip the identity padding the exponent bookkeeping added
    return JetMap(fz, fw)
