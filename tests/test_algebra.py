import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holonorm.algebra import Series, gauss
from holonorm.backend import GaussRational
from holonorm.errors import ArityError, OrderGuaranteeError

from helpers import rand_series, series

V = ("z", "w")


class TestGaussRational:
    def test_reduction(self):
        c = GaussRational(Fraction(2, 4), Fraction(-3, -6))
        assert (c.rn, c.rd, c.imn, c.imd) == (1, 2, 1, 2)

    def test_arithmetic(self):
        i = gauss(0, 1)
        assert i * i == gauss(-1)
        assert (gauss(1, 1) * gauss(1, -1)) == gauss(2)
        assert gauss(1) / gauss(0, 1) == gauss(0, -1)
        assert gauss(Fraction(1, 2)) + gauss(Fraction(1, 3)) == gauss(Fraction(5, 6))

    def test_modulus_squared(self):
        assert gauss(Fraction(3, 5), Fraction(4, 5)).modulus_squared() == 1

    def test_pow(self):
        assert gauss(0, 1) ** 4 == gauss(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gauss(1) / gauss(0)


class TestRingOps:
    def test_cancellation(self):
        one = Series.constant(V, 4, 1)
        z = Series.variable(V, 4, "z")
        assert (one + z) + (one - z) == Series.constant(V, 4, 2)

    def test_expansion(self):
        z = Series.variable(V, 4, "z")
        w = Series.variable(V, 4, "w")
        prod = (z + w) * (z - w)
        assert prod == series({(2, 0): 1, (0, 2): -1})

    def test_cap_semantics(self):
        z2 = Series(V, 2, {(1, 0): gauss(1)}, exact=False)
        assert (z2 * z2).coefficient((2, 0)) == gauss(1)
        z1 = Series(V, 1, {(1, 0): gauss(1)}, exact=False)
        out = z1 * z1
        assert out.is_zero() and out.cap == 1

    def test_variable_mismatch(self):
        a = Series.variable(("z", "w"), 4, "z")
        b = Series.variable(("x", "y"), 4, "x")
        with pytest.raises(ArityError):
            a + b


class TestDerive:
    def test_simple(self):
        a = series({(2, 1): 1}, cap=5)
        assert a.derive("z") == series({(1, 1): 2})
        assert series({(2, 0): 1}).derive("w").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ArityError):
            series({}).derive("t")

    def test_product_rule_u_power(self):
        # d/du (u^k f(u)) == k u^{k-1} f + u^k f' for random degree-<=6 f
        rng = random.Random(11)
        for k in (1, 2, 3):
            for _ in range(10):
                f = rand_series(rng, vars=("u",), cap=8, max_deg=6)
                lhs = f.mul_monomial((k,)).derive("u")
                rhs = f.mul_monomial((k - 1,)).scale(k) + f.derive("u").mul_monomial((k,))
                assert lhs.truncate(min(lhs.cap, rhs.cap)) == rhs.truncate(
                    min(lhs.cap, rhs.cap)
                )


class TestSubstitute:
    def test_binomial(self):
        # w^2 under w -> u + i u^2 gives u^2 + 2i u^3 - u^4
        a = Series.monomial(("w",), 4, (2,), 1)
        img = Series(("u",), 4, {(1,): gauss(1), (2,): gauss(0, 1)}, exact=True)
        out = a.substitute({"w": img})
        assert out == Series(
            ("u",), 4, {(1 + 1,): gauss(1), (3,): gauss(0, 2), (4,): gauss(-1)}
        )

    def test_identity_like(self):
        a = Series.variable(V, 4, "z")
        out = a.substitute({"z": Series.variable(V, 4, "z") + Series.variable(V, 4, "w")})
        assert out == series({(1, 0): 1, (0, 1): 1})

    def test_im_w_squared_on_graph(self):
        # Im(w^{k+1}) with w = u + i psi, k = 1, psi = u z zbar equals
        # 2 u^2 z zbar + O(deg > 6) -- cross-checked by hand expansion
        hs = ("z", "zbar", "u")
        psi = Series(hs, 6, {(1, 1, 1): 1}, exact=True)
        u = Series.variable(hs, 1, "u")
        w_img = u + psi.scale(gauss(0, 1))
        w2 = Series.monomial(("w",), 2, (2,), 1).substitute({"w": w_img}, cap=6)
        im = (w2 - w2.conjugate({"z": "zbar", "zbar": "z"})).scale(
            gauss(0, -Fraction(1, 2))
        )
        # hand expansion: (u + i u z zbar)^2 = u^2 + 2i u^2 z zbar - u^2 (z zbar)^2
        hand = Series(hs, 6, {(1, 1, 2): 2}, exact=False)
        assert im == hand

    def test_constant_term_rejected(self):
        a = Series.variable(V, 4, "z")
        img = Series.constant(V, 4, 1) + Series.variable(V, 4, "z")
        with pytest.raises(OrderGuaranteeError):
            a.as_jet().substitute({"z": img})

    def test_guaranteed_order_cap(self):
        a = Series(V, 3, {(1, 0): gauss(1)}, exact=False)
        img = Series(V, 2, {(0, 1): gauss(1)}, exact=False)
        with pytest.raises(OrderGuaranteeError):
            a.substitute({"z": img}, cap=5)


class TestConjugate:
    def test_simple(self):
        hs = ("z", "zbar", "u")
        a = Series(hs, 3, {(1, 0, 0): gauss(0, 1)})
        out = a.conjugate({"z": "zbar", "zbar": "z"})
        assert out == Series(hs, 3, {(0, 1, 0): gauss(0, -1)})

    def test_real_monomial_fixed(self):
        hs = ("z", "zbar", "u")
        a = Series(hs, 4, {(1, 1, 1): 1})
        assert a.conjugate({"z": "zbar", "zbar": "z"}) == a

    def test_reality_fixed_point(self):
        rng = random.Random(5)
        hs = ("z", "zbar", "u")
        pairing = {"z": "zbar", "zbar": "z"}
        for _ in range(20):
            h = rand_series(rng, vars=hs, cap=6)
            psi = h + h.conjugate(pairing)
            assert psi.conjugate(pairing) == psi

    def test_non_involution_rejected(self):
        hs = ("z", "zbar", "u")
        with pytest.raises(ArityError):
            Series(hs, 2, {}).conjugate({"z": "zbar", "zbar": "u", "u": "z"})


# ----------------------------------------------------------------------
# property tests

coeff_st = st.builds(
    gauss,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
exps_st = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 6)
series_st = st.dictionaries(exps_st, coeff_st, max_size=5).map(
    lambda d: Series(V, 6, d, exact=False)
)


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, series_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    cap = min(x.cap for x in (a, b, c))
    assert ((a * b) * c).truncate(cap) == (a * (b * c)).truncate(cap)
    assert (a * (b + c)) == (a * b + a * c)


@settings(max_examples=60, deadline=None)
@given(series_st, series_st)
def test_leibniz(a, b):
    lhs = (a * b).derive("z")
    rhs = a.derive("z") * b + a * b.derive("z")
    cap = min(lhs.cap, rhs.cap)
    assert lhs.truncate(cap) == rhs.truncate(cap)


@settings(max_examples=40, deadline=None)
@given(series_st)
def test_conjugate_involution(a):
    pairing = {"z": "w", "w": "z"}
    assert a.conjugate(pairing).conjugate(pairing) == a


small_image_st = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: 1 <= sum(e) <= 2),
    coeff_st,
    min_size=1,
    max_size=3,
).map(lambda d: Series(V, 6, d, exact=False))


@settings(max_examples=40, deadline=None)
@given(series_st, small_image_st, small_image_st)
def test_substitution_associativity(a, f, g):
    # a(z -> f) (z -> g)  ==  a(z -> f(z -> g)) through the guaranteed order
    inner = a.substitute({"z": f})
    lhs = inner.substitute({"z": g})
    fg = f.substitute({"z": g})
    rhs = a.substitute({"z": fg})
    cap = min(lhs.cap, rhs.cap)
    assert lhs.truncate(cap) == rhs.truncate(cap)


# ----------------------------------------------------------------------
# kernel results skip the checking constructor; they must be what it builds

POOL = [gauss(1), gauss(-1), gauss(0, 1), gauss(0, -1), gauss(Fraction(1, 2)),
        gauss(Fraction(-1, 3), Fraction(2, 3))]


def rand_operand(rng, vars, low=0):
    """A jet or polynomial with terms of total degree >= low."""
    exact = rng.random() < 0.3
    cap = rng.randint(low, 6)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 3) for _ in vars)
        if low <= sum(e) <= cap:
            terms[e] = rng.choice(POOL)
    return Series(vars, cap, terms, exact=exact)


def assert_clean(s):
    rebuilt = Series(s.vars, s.cap, s.terms, exact=s.exact)
    assert type(s.vars) is tuple and type(s.cap) is int and type(s.exact) is bool
    assert (rebuilt.terms, rebuilt.cap, rebuilt.exact) == (s.terms, s.cap, s.exact)
    for e, c in s.terms.items():
        assert type(e) is tuple and len(e) == len(s.vars) and sum(e) <= s.cap
        assert type(c) is GaussRational and not c.is_zero()


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_results_match_checking_constructor(nvars):
    rng = random.Random(20 + nvars)
    vars = ("z", "w", "u")[:nvars]
    mixed_sums = dropped = substituted = 0
    for _ in range(250):
        a, b = rand_operand(rng, vars), rand_operand(rng, vars)
        if rng.random() < 0.3:
            b = b - a  # a + b cancels
        if not a.exact and not b.exact and a.cap != b.cap:
            mixed_sums += 1
            high = a if a.cap > b.cap else b
            dropped += any(sum(e) > min(a.cap, b.cap) for e in high.terms)
        results = [a + b, a - b, b + a, -a, a * b, a.as_jet(), a + 1, 2 - a, a * 3,
                   a.scale(rng.choice(POOL + [gauss(0), 4])), a.truncate(rng.randint(0, a.cap)),
                   a.conjugate(), a.conjugate(dict(zip(vars[:2], vars[1::-1])))]
        if a.exact:
            results.append(a.truncate(a.cap + 2))
        for v in vars:
            if a.exact or a.cap > 0:
                results.append(a.derive(v))
        images = {v: rand_operand(rng, vars, low=1) for v in vars if rng.random() < 0.7}
        try:
            results.append(a.substitute(images))
            results.append(a.substitute(images, cap=rng.randint(0, 3)))
            substituted += 1
        except OrderGuaranteeError:
            pass
        for s in results:
            assert_clean(s)
    # the draws reach jet sums whose larger-cap summand knows terms the
    # sum does not, and substitutions at the guaranteed and a lower cap
    assert mixed_sums > 50 and dropped > 20 and substituted > 100
