"""Exact Gaussian-rational scalars and the sparse truncated-series kernel.

A coefficient is (a + b*i)/d over one denominator: three ints with d > 0
and gcd(a, b, d) = 1. That form is canonical, so structural equality is
exact equality, and an operation ends in at most one gcd (none when the
denominator is 1, or for negation, conjugation and adding an int). The
real and imaginary parts in lowest terms, rn/rd and imn/imd, are computed
on demand; they are what ``str`` prints.

Series are dicts mapping monomial keys to nonzero coefficients; the
kernel functions enforce the total-degree cap and never store zeros. A
key is one int: the total degree in the top field, then the exponents
e_0, e_1, ..., WIDTH bits each (`pack`), so a key in n variables has
degree `key >> n * WIDTH`. A product's key is the sum of the keys, int
order is the order by degree, then exponents, and the cap test is one
compare with `limit(cap, n)`, which refuses a cap above MAX_DEGREE, so no
field ever carries into the next. A permutation, an embedding or a
dropped variable moves whole fields by masks and shifts (`remap`).

A sum of products is reduced once per output coefficient, not once per
term. Its running sums live in a raw accumulator, a dict mapping each key
to a list [re, im, den] of unreduced ints, value (re + im*i)/den: a
product's numerators are added as they are when its denominator equals
the running one, and over the lcm of the two (one gcd) when it does not.
`settle` then turns the accumulator into canonical coefficients and drops
the zeros (Monagan and Pearce, "Sparse polynomial multiplication and
division in Maple 14", ISSAC 2009). `mul_into`, the one product loop,
adds a series product into one; its second factor may also be given as
raw terms (key, re, im, den). `series_mul` is `settle(mul_into({}, a, b,
top))`.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import OrderGuaranteeError

BACKEND = "python"  # kernel name shown in the CLI help and run metadata

WIDTH = 32  # bits per exponent field of a monomial key
MAX_DEGREE = (1 << WIDTH) - 1  # the largest cap, degree or exponent a key holds

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
        if type(other) is not GaussRational and not isinstance(other, int):
            other = as_gauss(other)
            if other is None:
                return NotImplemented
        return self + -other

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


def sub_product(cur, x, y):
    """cur - x*y with one reduction, cur None for zero; None when the
    result is zero."""
    a, b, c, e = x.a, x.b, y.a, y.b
    re, im, den = a * c - b * e, a * e + b * c, x.d * y.d
    if cur is None:
        re, im = -re, -im
    elif cur.d == den:
        re, im = cur.a - re, cur.b - im
    else:
        d = cur.d
        re, im, den = cur.a * den - re * d, cur.b * den - im * d, d * den
    if re == 0 and im == 0:
        return None
    return _canonical(re, im, den)


def from_ratios(rn, rd, imn, imd):
    """rn/rd + (imn/imd) i in canonical form, for ints with rd, imd > 0 in
    any terms."""
    if rd == imd:
        return _canonical(rn, imn, rd)
    return _canonical(rn * imd, imn * rd, rd * imd)


# ----------------------------------------------------------------------
# monomial keys


def pack(e):
    """The key of the exponents e, of total degree <= MAX_DEGREE."""
    key = sum(e)
    for x in e:
        key = (key << WIDTH) + x
    return key


def unpack(key, n):
    """The exponent tuple of a key in n variables."""
    return tuple([key >> s & MAX_DEGREE for s in range((n - 1) * WIDTH, -1, -WIDTH)])


def exponent(key, i, n):
    """Entry i of the exponent tuple of a key in n variables."""
    return key >> (n - 1 - i) * WIDTH & MAX_DEGREE


def unit(i, n):
    """The key of the i-th variable of n."""
    return 1 << n * WIDTH | 1 << (n - 1 - i) * WIDTH


def remap(keys, at, n):
    """The keys in n variables moved to len(at) variables: field j of each
    holds field at[j], or 0 where at[j] is None; a field the tuple at does
    not name is dropped and its exponent taken off the degree."""
    moves, right, dropped, degree = _moves(at, n)
    out = []
    for key in keys:
        new = 0
        for mask, shift in moves:
            new |= (key & mask) << shift
        new >>= right
        for shift in dropped:
            new -= (key >> shift & MAX_DEGREE) << degree
        out.append(new)
    return out


@lru_cache(maxsize=256)
def _moves(at, n):
    """`remap`'s (mask, left shift) pairs, right shift and dropped fields."""
    m = len(at)
    moves = {(m - n) * WIDTH: MAX_DEGREE << n * WIDTH}
    for j, i in enumerate(at):
        if i is not None:
            shift = (n - 1 - i) * WIDTH
            dist = (m - 1 - j) * WIDTH - shift
            moves[dist] = moves.get(dist, 0) | MAX_DEGREE << shift
    right = max(0, -min(moves))
    return ([(mask, dist + right) for dist, mask in moves.items()], right,
            [(n - 1 - i) * WIDTH for i in range(n) if i not in at], m * WIDTH)


def check_degree(cap):
    """cap, refused with OrderGuaranteeError when a key cannot hold it."""
    if cap > MAX_DEGREE:
        raise OrderGuaranteeError(f"degree {cap} exceeds {MAX_DEGREE}, the largest supported")
    return cap


def limit(cap, n):
    """The least key of total degree cap + 1 in n variables: a key is of
    degree <= cap exactly when it is below it."""
    return check_degree(cap) + 1 << n * WIDTH


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


def series_mul(a, b, top):
    """Sparse product of term dicts, keeping the keys below top
    (`limit(cap, n)`)."""
    return settle(mul_into({}, a, b, top))


# ----------------------------------------------------------------------
# raw accumulators: {key: [re, im, den]}, reduced once by `settle`


def add_over_lcm(cur, re, im, den):
    """cur += (re + im*i)/den in place for a raw value cur whose
    denominator differs from den: over their lcm, with one gcd."""
    d = cur[2]
    g = gcd(d, den)
    s, t = den // g, d // g
    cur[0] = cur[0] * s + re * t
    cur[1] = cur[1] * s + im * t
    cur[2] = d * s


def add_raw(acc, key, re, im, den):
    """acc[key] += (re + im*i)/den in the raw accumulator acc."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = [re, im, den]
    elif cur[2] == den:
        cur[0] += re
        cur[1] += im
    else:
        add_over_lcm(cur, re, im, den)


def mul_into(acc, a, b, top):
    """acc += a * b for a term dict a and b a term dict or a list of raw
    terms (key, re, im, den), value (re + im*i)/den in any terms, keeping
    the keys below top (`limit(cap, n)`), into the raw accumulator acc;
    returns acc. The one product loop of the kernel."""
    if type(b) is dict:
        if len(a) > len(b):
            a, b = b, a
        b = [(key, c.a, c.b, c.d) for key, c in b.items()]
    get = acc.get
    for ka, ca in a.items():
        rem = top - ka
        x, y, f = ca.a, ca.b, ca.d
        for kb, u, v, g in b:
            if kb >= rem:
                continue
            key = ka + kb
            den = f * g
            cur = get(key)
            # add_raw inlined, as in the hottest loop of the kernel:
            # (x + yi)(u + vi) = (xu - yv) + (xv + yu)i
            if cur is None:
                acc[key] = [x * u - y * v, x * v + y * u, den]
            elif cur[2] == den:
                cur[0] += x * u - y * v
                cur[1] += x * v + y * u
            else:
                add_over_lcm(cur, x * u - y * v, x * v + y * u, den)
    return acc


def settle(*accs):
    """The term dict of raw accumulators with no key in common: one
    canonical coefficient per key, in their order, zeros dropped."""
    return {key: _canonical(re, im, den) for acc in accs
            for key, (re, im, den) in acc.items() if re or im}
