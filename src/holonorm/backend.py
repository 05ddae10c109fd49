"""Exact Gaussian-rational scalars and the sparse truncated-series kernel.

A coefficient is (a + b*i)/d over one denominator: three ints with d > 0
and gcd(a, b, d) = 1. That form is canonical, so structural equality is
exact equality, and an operation ends in at most one gcd (none when the
denominator is 1, or for negation, conjugation and adding an int). The
real and imaginary parts in lowest terms, rn/rd and imn/imd, are computed
on demand; they are what ``str`` prints.

Series are dicts mapping exponent tuples to nonzero coefficients; the
kernel functions enforce the total-degree cap and never store zeros.
"""

from fractions import Fraction
from math import gcd
from operator import add

BACKEND = "python"  # kernel name shown in the CLI help and run metadata

_alloc = object.__new__


def _new(a, b, d):
    """A GaussRational from fields already in canonical form."""
    self = _alloc(GaussRational)
    self.a = a
    self.b = b
    self.d = d
    return self


def _canonical(a, b, d):
    """(a + b*i)/d, d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _new(a, b, d)


class GaussRational:
    """Exact complex scalar (a + b*i)/d with rational real and imaginary
    parts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        rn, rd = _as_ratio(re)
        imn, imd = _as_ratio(im)
        if rd == imd:
            self.a, self.b, self.d = rn, imn, rd
        else:
            # both parts are in lowest terms, so over lcm(rd, imd) the
            # three fields are already coprime
            d = rd // gcd(rd, imd) * imd
            self.a, self.b, self.d = rn * (d // rd), imn * (d // imd), d

    # parts in lowest terms, for printing and inspection
    @property
    def rn(self):
        return self.a // gcd(self.a, self.d)

    @property
    def rd(self):
        return self.d // gcd(self.a, self.d)

    @property
    def imn(self):
        return self.b // gcd(self.b, self.d)

    @property
    def imd(self):
        return self.d // gcd(self.b, self.d)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_real(self):
        return self.b == 0

    def is_imaginary(self):
        return self.a == 0

    def is_rational_integer(self):
        return self.b == 0 and self.d == 1

    def conjugate(self):
        return _new(self.a, -self.b, self.d)

    def modulus_squared(self):
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        if type(other) is not GaussRational:
            if isinstance(other, int):
                # gcd(a + n*d, b, d) = gcd(a, b, d) = 1
                return _new(self.a + int(other) * self.d, self.b, self.d)
            other = as_gauss(other)
            if other is None:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _canonical(self.a + other.a, self.b + other.b, d)
        return _canonical(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussRational:
            if isinstance(other, int):
                return _new(self.a - int(other) * self.d, self.b, self.d)
            other = as_gauss(other)
            if other is None:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _canonical(self.a - other.a, self.b - other.b, d)
        return _canonical(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRational:
            if isinstance(other, int):
                return self._mul_int(int(other))
            other = as_gauss(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        # (a + bi)(c + ei) = (ac - be) + (ae + bc)i
        return _canonical(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def _mul_int(self, n):
        # gcd(a, b, d) = 1 gives gcd(n*a, n*b, d) = gcd(n, d)
        if n == 0:
            return _new(0, 0, 1)
        d = self.d
        if d != 1:
            g = gcd(n, d)
            if g != 1:
                n //= g
                d //= g
        return _new(self.a * n, self.b * n, d)

    def __truediv__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        c, e = other.a, other.b
        m = c * c + e * e
        if m == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, f = self.a, self.b, other.d
        return _canonical(f * (a * c + b * e), f * (b * c - a * e), self.d * m)

    def __rtruediv__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = GaussRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not GaussRational:
            other = as_gauss(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"GaussRational({self.rn}/{self.rd}, {self.imn}/{self.imd})"

    def __str__(self):
        return f"({self.rn}/{self.rd},{self.imn}/{self.imd})"


def _as_ratio(value):
    """(numerator, denominator) in lowest terms, denominator > 0."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, GaussRational):
        if value.b != 0:
            raise ValueError("non-real GaussRational used as a rational part")
        return value.a, value.d
    raise TypeError(f"cannot build a rational part from {value!r}")


def as_gauss(value):
    """Coerce ints, Fractions and GaussRationals; None when impossible."""
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, int):
        return _new(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _new(value.numerator, 0, value.denominator)
    return None


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def series_add(a, b):
    out = dict(a)
    series_add_into(out, b)
    return out


def series_add_into(out, b):
    """out += b in place."""
    for exps, coeff in b.items():
        cur = out.get(exps)
        if cur is None:
            out[exps] = coeff
        else:
            s = cur + coeff
            if s.a == 0 and s.b == 0:
                del out[exps]
            else:
                out[exps] = s


def series_neg(a):
    return {exps: -coeff for exps, coeff in a.items()}


def series_scale(a, c):
    if c.is_zero():
        return {}
    return {exps: coeff * c for exps, coeff in a.items()}


def series_mul(a, b, cap):
    """Sparse product of exponent-dicts, dropping total degree > cap."""
    if len(a) > len(b):
        a, b = b, a
    bitems = [(exps, sum(exps), coeff) for exps, coeff in b.items()]
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        rem = cap - da
        for eb, db, cb in bitems:
            if db > rem:
                continue
            exps = tuple(map(add, ea, eb))
            c = ca * cb
            cur = out.get(exps)
            if cur is None:
                out[exps] = c
            else:
                s = cur + c
                if s.a == 0 and s.b == 0:
                    del out[exps]
                else:
                    out[exps] = s
    return out
