"""Weight systems and weighted-homogeneous decomposition.

One grading is used downstream: `manifold.realize_generic` takes
[z]=[zbar]=mu, [u]=1 (mu a nonzero rational) to check that its seed is
weighted-homogeneous and to read each correction's weighted component.
Rational weights are compared through an integer scale so no rational
arithmetic runs in the hot path. Components under a nonpositive weight
are cap-windows of possibly infinite homogeneous parts; callers must not
assume completeness (see is_cap_window).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import Series
from .backend import unpack
from .errors import ArityError


class WeightSystem:
    """Per-variable rational weights with an integer comparison scale."""

    __slots__ = ("vars", "weights", "scale", "int_weights")

    def __init__(self, vars, weights):
        self.vars = tuple(vars)
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != len(self.vars):
            raise ArityError("one weight per variable required")
        self.weights = ws
        self.scale = lcm(*(w.denominator for w in ws)) if ws else 1
        self.int_weights = tuple(int(w * self.scale) for w in ws)

    def degree(self, exps):
        """Weighted degree of an exponent tuple, as an exact Fraction."""
        return Fraction(self.scaled_degree(exps), self.scale)

    def scaled_degree(self, exps):
        return sum(e * w for e, w in zip(exps, self.int_weights))

    def scaled(self, d):
        """d * scale when integral, else None (no monomial has degree d)."""
        v = Fraction(d) * self.scale
        return int(v) if v.denominator == 1 else None

    def has_nonpositive_weight(self):
        return any(w <= 0 for w in self.weights)

    def __repr__(self):
        pairs = ", ".join(f"[{v}]={w}" for v, w in zip(self.vars, self.weights))
        return f"WeightSystem({pairs})"


def _check(a: Series, ws: WeightSystem):
    if a.vars != ws.vars:
        raise ArityError(f"weights are for {ws.vars}, series is in {a.vars}")


def weighted_order(a: Series, ws: WeightSystem):
    """Minimum weighted degree over stored terms; None for the zero series."""
    _check(a, ws)
    if a.is_zero():
        return None
    return Fraction(min(ws.scaled_degree(e) for e in a.exponents()), ws.scale)


def component(a: Series, ws: WeightSystem, d) -> Series:
    """Stored terms of weighted degree exactly d.

    When some weight is <= 0 this is a cap-window of a possibly infinite
    homogeneous part; use is_cap_window(ws) to detect that situation.
    """
    _check(a, ws)
    target = ws.scaled(d)
    if target is None:
        return Series.zero(a.vars, a.cap, exact=a.exact)
    n = len(a.vars)
    out = {key: c for key, c in a.packed.items() if ws.scaled_degree(unpack(key, n)) == target}
    return Series._make(a.vars, a.cap, out, a.exact)


def is_homogeneous(a: Series, ws: WeightSystem, d) -> bool:
    """True iff every stored term has weighted degree d."""
    _check(a, ws)
    target = ws.scaled(d)
    if target is None:
        return a.is_zero()
    return all(ws.scaled_degree(e) == target for e in a.exponents())


def is_cap_window(ws: WeightSystem) -> bool:
    """Whether components under ws are windows of infinite homogeneous parts."""
    return ws.has_nonpositive_weight()

