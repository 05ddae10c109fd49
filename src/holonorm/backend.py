"""Exact Gaussian-rational scalars and the sparse truncated-series kernel.

A coefficient is re + im*i with re = rn/rd and im = imn/imd kept in lowest
terms with positive denominators, so structural equality is exact equality.
Series are dicts mapping exponent tuples to nonzero coefficients; the kernel
functions enforce the total-degree cap and never store zeros.
"""

from fractions import Fraction
from math import gcd

BACKEND = "python"  # kernel name shown in the CLI help and run metadata


def _reduce(n, d):
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        n, d = -n, -d
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    return n // g, d // g


class GaussRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("rn", "rd", "imn", "imd")

    def __init__(self, re=0, im=0):
        rn, rd = _as_ratio(re)
        imn, imd = _as_ratio(im)
        self.rn, self.rd = _reduce(rn, rd)
        self.imn, self.imd = _reduce(imn, imd)

    @classmethod
    def _raw(cls, rn, rd, imn, imd):
        self = cls.__new__(cls)
        self.rn, self.rd = _reduce(rn, rd)
        self.imn, self.imd = _reduce(imn, imd)
        return self

    @property
    def re(self):
        return Fraction(self.rn, self.rd)

    @property
    def im(self):
        return Fraction(self.imn, self.imd)

    def is_zero(self):
        return self.rn == 0 and self.imn == 0

    def is_real(self):
        return self.imn == 0

    def is_imaginary(self):
        return self.rn == 0

    def is_rational_integer(self):
        return self.imn == 0 and self.rd == 1

    def conjugate(self):
        return GaussRational._raw(self.rn, self.rd, -self.imn, self.imd)

    def modulus_squared(self):
        return Fraction(self.rn * self.rn, self.rd * self.rd) + Fraction(
            self.imn * self.imn, self.imd * self.imd
        )

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRational._raw(
            self.rn * other.rd + other.rn * self.rd,
            self.rd * other.rd,
            self.imn * other.imd + other.imn * self.imd,
            self.imd * other.imd,
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussRational._raw(-self.rn, self.rd, -self.imn, self.imd)

    def __sub__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        # (a+bi)(c+di) = (ac - bd) + (ad + bc)i on raw ratios
        a_n, a_d, b_n, b_d = self.rn, self.rd, self.imn, self.imd
        c_n, c_d, d_n, d_d = other.rn, other.rd, other.imn, other.imd
        re_n = a_n * c_n * b_d * d_d - b_n * d_n * a_d * c_d
        re_d = a_d * c_d * b_d * d_d
        im_n = a_n * d_n * b_d * c_d + b_n * c_n * a_d * d_d
        im_d = a_d * d_d * b_d * c_d
        return GaussRational._raw(re_n, re_d, im_n, im_d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero GaussRational")
        m2 = other.modulus_squared()
        inv = GaussRational._raw(
            other.rn * m2.denominator,
            other.rd * m2.numerator,
            -other.imn * m2.denominator,
            other.imd * m2.numerator,
        )
        return self * inv

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
        other = as_gauss(other)
        if other is None:
            return NotImplemented
        return (
            self.rn == other.rn
            and self.rd == other.rd
            and self.imn == other.imn
            and self.imd == other.imd
        )

    def __hash__(self):
        return hash((self.rn, self.rd, self.imn, self.imd))

    def __repr__(self):
        return f"GaussRational({self.rn}/{self.rd}, {self.imn}/{self.imd})"

    def __str__(self):
        return f"({self.rn}/{self.rd},{self.imn}/{self.imd})"


def _as_ratio(value):
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, GaussRational):
        if value.imn != 0:
            raise ValueError("non-real GaussRational used as a rational part")
        return value.rn, value.rd
    raise TypeError(f"cannot build a rational part from {value!r}")


def as_gauss(value):
    """Coerce ints, Fractions and GaussRationals; None when impossible."""
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value)
    return None


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def series_add(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        cur = out.get(exps)
        if cur is None:
            out[exps] = coeff
        else:
            s = cur + coeff
            if s.is_zero():
                del out[exps]
            else:
                out[exps] = s
    return out


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
            exps = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            cur = out.get(exps)
            if cur is None:
                if not c.is_zero():
                    out[exps] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[exps]
                else:
                    out[exps] = s
    return out
