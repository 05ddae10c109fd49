"""Differential tests of the exact kernel against a slow reference.

The reference keeps a scalar as a (re, im) pair of Fractions and a series
as a dict of exponent tuples to such pairs, built term by term from the
definitions. The kernel must agree with it exactly, including its
canonical form: the stored (a + b*i)/d has d > 0 and gcd(a, b, d) = 1, and
the printed parts rn/rd and imn/imd are in lowest terms. The kernel works
on packed monomial keys; its inputs are packed from tuple-keyed dicts and
its outputs unpacked, so the references never touch a key.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from holonorm import backend
from holonorm.algebra import Series
from holonorm.errors import OrderGuaranteeError
from holonorm.backend import (
    GaussRational,
    limit,
    mul_into,
    pack,
    remap,
    series_add,
    series_mul,
    series_neg,
    series_scale,
    settle,
    unpack,
)

from helpers import reference_series_mul

ZERO = (Fraction(0), Fraction(0))


def r_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def r_neg(a):
    return (-a[0], -a[1])


def r_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def r_div(a, b):
    m = b[0] * b[0] + b[1] * b[1]
    return r_mul(a, (b[0] / m, -b[1] / m))


def r_series_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = r_add(out.get(e, ZERO), c)
    return {e: c for e, c in out.items() if c != ZERO}


def r_series_mul(a, b, cap):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= cap:
                out[e] = r_add(out.get(e, ZERO), r_mul(ca, cb))
    return {e: c for e, c in out.items() if c != ZERO}


def canonical(pair):
    """The kernel's stored fields (rn, rd, imn, imd) for a reference pair."""
    re, im = pair
    return (re.numerator, re.denominator, im.numerator, im.denominator)


def fields(c):
    return (c.rn, c.rd, c.imn, c.imd)


def series_fields(terms):
    return {e: fields(c) for e, c in terms.items()}


def packed(terms):
    """A tuple-keyed term dict with packed keys."""
    return {pack(e): c for e, c in terms.items()}


def unpacked(terms, n):
    """A packed term dict in n variables with tuple keys."""
    return {unpack(key, n): c for key, c in terms.items()}


def ref_fields(terms):
    return {e: canonical(c) for e, c in terms.items()}


def rand_pair(rng, size=6):
    def part():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    return (part(), part())


def rand_series(rng, nvars, pool):
    """A zero-free series over a small coefficient pool and exponents <= 2,
    so products collide and cancel often."""
    out = {}
    for _ in range(rng.randint(0, 7)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        out[e] = rng.choice(pool)
    return out


def kernel_series(ref):
    return {e: GaussRational(re, im) for e, (re, im) in ref.items()}


def test_scalar_ops_match_reference():
    rng = random.Random(1)
    pool = [rand_pair(rng, 3) for _ in range(12)]
    for _ in range(400):
        pa = rand_pair(rng) if rng.random() < 0.5 else rng.choice(pool)
        pb = rand_pair(rng) if rng.random() < 0.5 else rng.choice(pool)
        a, b = GaussRational(*pa), GaussRational(*pb)
        assert fields(a) == canonical(pa)
        assert fields(a + b) == canonical(r_add(pa, pb))
        assert fields(a - b) == canonical(r_add(pa, r_neg(pb)))
        assert fields(-a) == canonical(r_neg(pa))
        assert fields(a * b) == canonical(r_mul(pa, pb))
        assert fields(a.conjugate()) == canonical((pa[0], -pa[1]))
        assert a.modulus_squared() == pa[0] ** 2 + pa[1] ** 2
        if pb == ZERO:
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert fields(a / b) == canonical(r_div(pa, pb))
            assert a * b / b == a and hash(a * b / b) == hash(a)
        assert (a == b) == (pa == pb)
        if a == b:
            assert hash(a) == hash(b)
        # mixed with ints and Fractions, on either side
        n = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        pn = (n, Fraction(0))
        assert fields(a + n) == fields(n + a) == canonical(r_add(pa, pn))
        assert fields(n - a) == canonical(r_add(pn, r_neg(pa)))
        assert fields(a * n) == fields(n * a) == canonical(r_mul(pa, pn))
        if pa != ZERO:
            assert fields(n / a) == canonical(r_div(pn, pa))
        assert (a == n) == (pa == pn)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_series_ops_match_reference(nvars):
    rng = random.Random(10 + nvars)
    zero, one, half = Fraction(0), Fraction(1), Fraction(1, 2)
    pool = [(one, zero), (-one, zero), (zero, one), (zero, -one), (half, zero), (-half, half)]
    truncated = mul_cancelled = add_cancelled = 0
    for _ in range(300):
        ra, rb = rand_series(rng, nvars, pool), rand_series(rng, nvars, pool)
        if ra and rng.random() < 0.3:
            # (s + t)(s - t): the cross terms of s and t cancel in the product
            rb = dict(ra)
            e = rng.choice(sorted(ra))
            rb[e] = r_neg(rb[e])
        elif ra and rng.random() < 0.3:
            # terms that cancel in the sum
            rb.update({e: r_neg(ra[e]) for e in rng.sample(sorted(ra), (len(ra) + 1) // 2)})
        a, b = packed(kernel_series(ra)), packed(kernel_series(rb))
        before = (series_fields(a), series_fields(b))
        cap = rng.randint(0, 7)

        prod = unpacked(series_mul(a, b, limit(cap, nvars)), nvars)
        assert series_fields(prod) == ref_fields(r_series_mul(ra, rb, cap))
        assert all(sum(e) <= cap and not c.is_zero() for e, c in prod.items())
        reached = {tuple(x + y for x, y in zip(ea, eb)) for ea in ra for eb in rb}
        truncated += any(sum(e) > cap for e in reached)
        mul_cancelled += len({e for e in reached if sum(e) <= cap}) > len(prod)

        total = unpacked(series_add(a, b), nvars)
        assert series_fields(total) == ref_fields(r_series_add(ra, rb))
        assert all(not c.is_zero() for c in total.values())
        add_cancelled += len(set(ra) | set(rb)) > len(total)
        assert series_add(a, series_neg(a)) == {}

        assert series_fields(unpacked(series_neg(a), nvars)) == ref_fields(
            {e: r_neg(c) for e, c in ra.items()})
        pc = rng.choice(pool + [ZERO])
        scaled = unpacked(series_scale(a, GaussRational(*pc)), nvars)
        assert series_fields(scaled) == ref_fields(
            {e: r_mul(c, pc) for e, c in ra.items() if pc != ZERO})

        # the kernel never writes into its arguments
        assert (series_fields(a), series_fields(b)) == before
    # the seeded draws exercise both the cap and cancellation
    assert min(truncated, mul_cancelled, add_cancelled) > 20


def assert_canonical(c):
    """The stored form (a + b*i)/d has d > 0 and gcd(a, b, d) = 1."""
    assert type(c) is GaussRational
    assert c.d > 0 and gcd(c.a, c.b, c.d) == 1


def test_scalar_results_are_canonical():
    rng = random.Random(2)
    pool = [rand_pair(rng, 4) for _ in range(10)]
    for _ in range(400):
        pa = rand_pair(rng, 12) if rng.random() < 0.5 else rng.choice(pool)
        pb = rand_pair(rng, 12) if rng.random() < 0.5 else rng.choice(pool)
        a, b = GaussRational(*pa), GaussRational(*pb)
        n = rng.choice([0, 1, -1, 2, -6, rng.randint(-30, 30)])
        results = [a, b, a + b, a - b, b - a, a * b, -a, a.conjugate(),
                   a + n, n + a, a - n, n - a, a * n, n * a,
                   GaussRational(pa[0]), GaussRational(0, pa[1]), GaussRational(a.re, 0)]
        if pb != ZERO:
            results += [a / b, n / b, b / b]
        if n:
            results.append(a / n)
        for c in results:
            assert_canonical(c)
        # a sum over one shared denominator, reduced after the add
        assert_canonical(GaussRational(pa[0], pa[1]) + GaussRational(-pa[0], pa[1]))


def test_printed_parts_match_reference():
    rng = random.Random(3)
    for _ in range(300):
        pa = rand_pair(rng, 20)
        pb = rand_pair(rng, 20)
        for pair, c in ((pa, GaussRational(*pa)),
                        (r_mul(pa, pb), GaussRational(*pa) * GaussRational(*pb)),
                        (r_add(pa, pb), GaussRational(*pa) + GaussRational(*pb))):
            re, im = pair
            assert (c.rn, c.rd, c.imn, c.imd) == canonical(pair)
            assert (c.re, c.im) == pair
            assert str(c) == (f"({re.numerator}/{re.denominator},"
                              f"{im.numerator}/{im.denominator})")
            assert repr(c) == (f"GaussRational({re.numerator}/{re.denominator}, "
                               f"{im.numerator}/{im.denominator})")


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: GaussRational(Fraction(1, 2)) + GaussRational(Fraction(1, 2)),
         lambda: GaussRational(1)),
        (lambda: GaussRational(Fraction(2, 4), Fraction(3, 6)),
         lambda: GaussRational(Fraction(1, 2), Fraction(1, 2))),
        (lambda: GaussRational(Fraction(1, 3), Fraction(1, 6)) * 6,
         lambda: GaussRational(2, 1)),
        (lambda: GaussRational(0, Fraction(1, 2)) - GaussRational(Fraction(-1, 2), 0),
         lambda: GaussRational(Fraction(1, 2), Fraction(1, 2))),
        (lambda: GaussRational(Fraction(1, 2), Fraction(1, 2)) / GaussRational(1, 1),
         lambda: GaussRational(Fraction(1, 2))),
        (lambda: GaussRational(Fraction(5, 3), 2) - GaussRational(Fraction(5, 3), 2),
         lambda: GaussRational(0)),
    ],
)
def test_routes_to_one_value_compare_and_hash_equal(first, second):
    a, b = first(), second()
    assert a == b and hash(a) == hash(b)
    assert (a.a, a.b, a.d) == (b.a, b.b, b.d)
    assert len({a, b}) == 1


def test_int_operands_match_reference():
    rng = random.Random(4)
    for _ in range(400):
        pa = rand_pair(rng, 9)
        a = GaussRational(*pa)
        n = rng.choice([0, 1, -1, rng.randint(-40, 40), rng.randint(-10**20, 10**20)])
        pn = (Fraction(n), Fraction(0))
        expected = canonical(r_mul(pa, pn))
        assert fields(a * n) == fields(n * a) == expected
        assert a * n == n * a == a * GaussRational(n)
        assert_canonical(a * n)
        assert fields(a + n) == fields(n + a) == canonical(r_add(pa, pn))
        assert fields(a - n) == canonical(r_add(pa, r_neg(pn)))
        assert fields(a * True) == fields(a)


def test_backend_reports_name():
    assert backend.BACKEND == "python"


# denominators of the accumulator tests: all 1, all one value, or coprime
DENOMINATORS = {"unit": [1], "equal": [6], "coprime": [2, 3, 5, 7, 11]}


def rand_terms(rng, nvars, dens, max_terms=6):
    """A zero-free term dict whose coefficients have denominators from
    dens (before reduction), each exponent at most 6 // nvars so products
    meet caps 0-10 in every arity."""
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, 6 // nvars) for _ in range(nvars))
        d = rng.choice(dens)
        c = GaussRational(Fraction(rng.randint(-7, 7), d), Fraction(rng.randint(-7, 7), d))
        if c:
            out[e] = c
    return out


def reference_sum_of_products(pairs, cap):
    out = {}
    for a, b in pairs:
        out = series_add(out, reference_series_mul(a, b, cap))
    return out


def product_denominators(pairs, cap):
    """{exponent: set of the unreduced denominators of the products that
    reach it}."""
    out = {}
    for a, b in pairs:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if sum(e) <= cap:
                    out.setdefault(e, set()).add(ca.d * cb.d)
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
def test_raw_accumulator_matches_per_term_products(nvars, kind):
    """Several products into one raw accumulator, settled once, equal the
    per-term products summed term by term, in canonical form."""
    rng = random.Random(f"{kind}{nvars}")
    dens = DENOMINATORS[kind]
    cancelled = mixed = 0
    for _ in range(150):
        cap = rng.randint(0, 10)
        pairs = [(rand_terms(rng, nvars, dens), rand_terms(rng, nvars, dens))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            # a b + a (-b): the accumulator must cancel to exactly zero there
            a, b = pairs[rng.randrange(len(pairs))]
            pairs.append((a, series_neg(b)))
        acc = {}
        top = limit(cap, nvars)
        for a, b in pairs:
            assert mul_into(acc, packed(a), packed(b), top) is acc
        got = unpacked(settle(acc), nvars)
        assert got == reference_sum_of_products(pairs, cap)
        a, b = pairs[0]
        assert unpacked(series_mul(packed(a), packed(b), top), nvars) \
            == reference_series_mul(a, b, cap)
        for e, c in got.items():
            assert sum(e) <= cap and c
            assert_canonical(c)
        cancelled += len(acc) > len(got)
        mixed += any(len(d) > 1 for d in product_denominators(pairs, cap).values())
    # the seeded draws reach exact cancellation, and the lcm path
    # wherever denominators differ
    assert cancelled > 20
    if kind == "coprime":
        assert mixed > 20


def test_settle_drops_zeros_and_keeps_order():
    acc = {(2,): [3, -3, 6], (0,): [0, 0, 5], (1,): [4, 0, 2]}
    got = settle(acc)
    assert list(got) == [(2,), (1,)]
    assert got[(2,)] == GaussRational(Fraction(1, 2), Fraction(-1, 2))
    assert (got[(1,)].a, got[(1,)].b, got[(1,)].d) == (2, 0, 1)
    # different denominators meet over their lcm
    backend.add_raw(acc, (1,), 1, 1, 3)
    assert acc[(1,)] == [14, 2, 6]
    assert settle(acc)[(1,)] == GaussRational(Fraction(7, 3), Fraction(1, 3))


raw_coeff_st = st.builds(
    lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 12),
).filter(bool)
raw_terms_st = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               raw_coeff_st, max_size=5)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(raw_terms_st, raw_terms_st), min_size=1, max_size=4),
       st.integers(0, 8))
def test_settled_coefficients_are_canonical(pairs, cap):
    acc = {}
    for a, b in pairs:
        mul_into(acc, packed(a), packed(b), limit(cap, 2))
    got = unpacked(settle(acc), 2)
    for c in got.values():
        assert type(c) is GaussRational
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1
        assert c.a or c.b
    assert got == reference_sum_of_products(pairs, cap)


def test_sub_product_and_from_ratios_match_reference():
    rng = random.Random(5)
    pool = [rand_pair(rng, 4) for _ in range(8)]
    branches = set()
    for _ in range(400):
        pc, px, py = (rand_pair(rng, 12) if rng.random() < 0.5 else rng.choice(pool)
                      for _ in range(3))
        x, y = GaussRational(*px), GaussRational(*py)
        cur = None if rng.random() < 0.2 else GaussRational(*pc)
        if cur is not None and rng.random() < 0.2:
            cur = x * y  # cancels exactly
        got = backend.sub_product(cur, x, y)
        want = (cur if cur is not None else GaussRational(0)) - x * y
        if want.is_zero():
            assert got is None
        else:
            assert fields(got) == fields(want)
            assert_canonical(got)
        branches.add("none" if cur is None else "zero" if got is None
                     else "equal" if cur.d == x.d * y.d else "cross")
        # either part in any terms, sign on the numerator only
        rn, imn = rng.randint(-30, 30), rng.randint(-30, 30)
        rd, imd = rng.randint(1, 30), rng.choice([1, 6, rng.randint(1, 30)])
        c = backend.from_ratios(rn, rd, imn, imd)
        assert fields(c) == canonical((Fraction(rn, rd), Fraction(imn, imd)))
        assert_canonical(c)
    assert branches == {"none", "zero", "equal", "cross"}


# ----------------------------------------------------------------------
# monomial keys: the packed kernel against the tuple-keyed reference

# exponents near the top of a field, where a carry would show
EDGE = backend.MAX_DEGREE


def exps_st(n, high):
    small = st.integers(0, 3)
    return st.tuples(*[st.one_of(small, st.integers(high - 2, high)) if high else small
                       for _ in range(n)]).filter(lambda e: sum(e) <= EDGE)


@st.composite
def packed_case(draw):
    """(n, a, b, cap): tuple-keyed term dicts in n variables whose
    exponents are small, or near half or all of the largest degree, and a
    cap that may be the largest one."""
    n = draw(st.integers(1, 3))
    high = draw(st.sampled_from([0, EDGE // 2, EDGE]))
    terms = st.dictionaries(exps_st(n, high), raw_coeff_st, max_size=4)
    cap = draw(st.one_of(st.integers(0, 8), st.integers(EDGE - 3, EDGE),
                         st.sampled_from([EDGE // 2, EDGE // 2 + 1])))
    return n, draw(terms), draw(terms), cap


@settings(max_examples=150, deadline=None)
@given(packed_case(), st.integers(-3, 3))
def test_packed_product_matches_reference(case, weight):
    n, a, b, cap = case
    top = limit(cap, n)
    got = unpacked(series_mul(packed(a), packed(b), top), n)
    assert got == reference_series_mul(a, b, cap)
    # the second factor as raw terms, its numerators weighted by an int
    raw = [(pack(e), c.a * weight, c.b * weight, c.d) for e, c in b.items()]
    got = unpacked(settle(mul_into({}, packed(a), raw, top)), n)
    assert got == reference_series_mul(a, {e: c * weight for e, c in b.items() if weight}, cap)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pack_round_trip_at_the_field_edges(n):
    exps = [(0,) * n]
    for i in range(n):
        exps.append(tuple(EDGE if j == i else 0 for j in range(n)))
        exps.append(tuple(EDGE - 1 if j == i else int(j == (i + 1) % n) for j in range(n)))
    exps.append(tuple(EDGE // n for _ in range(n)))
    for e in exps:
        key = pack(e)
        assert unpack(key, n) == e
        assert [backend.exponent(key, i, n) for i in range(n)] == list(e)
        assert limit(sum(e) - 1, n) <= key < limit(sum(e), n) if sum(e) else key == 0
    series = Series(tuple("xyz"[:n]), EDGE, {e: 1 for e in exps})
    assert dict(series.terms) == {e: 1 for e in exps}
    assert series.degree() == EDGE and series.order() == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(exps_st(n, EDGE // 2), max_size=12)))
def test_key_order_is_degree_then_exponents(exps):
    n = len(exps[0]) if exps else 1
    assert [unpack(key, n) for key in sorted(map(pack, exps))] \
        == sorted(exps, key=lambda e: (sum(e), e))


def test_caps_beyond_the_fields_are_refused():
    with pytest.raises(OrderGuaranteeError, match="exceeds"):
        limit(EDGE + 1, 2)
    with pytest.raises(OrderGuaranteeError, match="exceeds"):
        Series(("w",), EDGE + 1)
    with pytest.raises(OrderGuaranteeError, match="beyond its cap"):
        Series(("w",), EDGE, {(EDGE + 1,): 1}, exact=True)
    top = Series.monomial(("w",), EDGE, (EDGE,))
    with pytest.raises(OrderGuaranteeError, match="exceeds"):
        top * Series.variable(("w",), 1, "w")
    with pytest.raises(OrderGuaranteeError, match="exceeds"):
        top.mul_monomial((1,))
    with pytest.raises(OrderGuaranteeError, match="exceeds"):
        top.truncate(EDGE + 1)
    # a jet drops what lies beyond its cap, however large
    assert Series(("w",), 2, {(EDGE + 1,): 1}).is_zero()


@st.composite
def remap_case(draw):
    """(n, at, exponent tuples): a permutation, an embedding or a drop of
    the fields of keys in one to four variables, whose exponents reach
    2^32 - 1 in one field or split a total near it over several."""
    n = draw(st.integers(1, 4))
    kept = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    m = draw(st.integers(max(len(kept), 1), 5))
    at = [None] * m
    for pos, i in zip(draw(st.permutations(range(m))), kept):
        at[pos] = i

    def split(total):
        cut = st.one_of(st.integers(0, min(3, total)), st.integers(max(total - 3, 0), total),
                        st.integers(0, total))
        return st.lists(cut, min_size=n - 1, max_size=n - 1).map(
            lambda cuts: (lambda b: tuple(y - x for x, y in zip(b, b[1:])))(
                [0, *sorted(cuts), total]))

    spread = st.one_of(st.integers(0, 6), st.integers(EDGE - 6, EDGE)).flatmap(split)
    exps = draw(st.lists(st.one_of(exps_st(n, EDGE), spread), min_size=1, max_size=6))
    return n, tuple(at), exps


@settings(max_examples=200, deadline=None)
@given(remap_case())
def test_remap_moves_fields_like_unpack_and_pack(case):
    n, at, exps = case
    want = [pack([0 if i is None else e[i] for i in at]) for e in exps]
    assert remap([pack(e) for e in exps], at, n) == want
    assert [unpack(key, n) for key in map(pack, exps)] == exps
