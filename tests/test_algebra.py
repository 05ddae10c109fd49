import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holonorm import algebra
from holonorm.algebra import Series, gauss, substitute_all
from holonorm.backend import ONE, GaussRational, limit, pack
from holonorm.errors import ArityError, OrderGuaranteeError
from holonorm.hypersurface import HS_VARS, conjugate_real, transport

from helpers import (
    circle_surface,
    graph_images,
    rand_coeff,
    rand_preserves_e_jet,
    rand_series,
    reference_graph_substitution,
    reference_substitute_all,
    series,
)

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

    def test_exact_series_drops_zero_terms_beyond_its_cap(self):
        assert Series(V, 2, {(0, 5): gauss(0), (1, 0): gauss(1)}, exact=True).terms == {
            (1, 0): gauss(1)}
        with pytest.raises(OrderGuaranteeError):
            Series(V, 2, {(0, 5): gauss(1)}, exact=True)

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


# ----------------------------------------------------------------------
# substitute_all against the power-product reference

SUB_VARS = [("z", "w"), ("z", "zbar", "u"), ("w",), ("t",), ("z", "w", "u")]
IMAGE_KINDS = ("own + eps", "scaled own", "others", "zero", "constant")


def _image_terms(vars, v, kind, coeffs, degrees):
    """The terms of an image of kind `kind` in `vars` for the variable v;
    coeffs and degrees are draws, consumed in order."""
    n = len(vars)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    own = units[vars.index(v)] if v in vars else None
    terms = {}
    if kind == "constant":
        terms[(0,) * n] = next(coeffs)
    if kind == "own + eps" and own:
        terms[own] = GaussRational(1)
    elif kind == "scaled own" and own:
        terms[own] = next(coeffs)
    if kind != "zero":
        for u in units:
            if u != own and next(degrees) % 2:
                terms[u] = next(coeffs)
        for _ in range(2):
            e = tuple(next(degrees) % 3 for _ in range(n))
            if sum(e) >= 2:
                terms[e] = next(coeffs)
    return terms


def _substitution_case(rng):
    """A seeded substitution: sources, assignments and cap, drawn over the
    variable lists and image kinds above, exact and inexact."""
    src_vars, tgt_vars = rng.choice(SUB_VARS), rng.choice(SUB_VARS)
    coeffs = iter(lambda: rand_coeff(rng), None)
    degrees = iter(lambda: rng.randint(0, 5), None)
    assignments = {}
    for v in src_vars:
        # a source variable absent from the target is assigned, bar a few
        if rng.random() < (0.95 if v not in tgt_vars else 0.7):
            kind = rng.choices(IMAGE_KINDS, (8, 3, 3, 1, 0.3))[0]
            terms = _image_terms(tgt_vars, v, kind, coeffs, degrees)
            if rng.random() < 0.5:
                deg = max(map(sum, terms), default=0)
                assignments[v] = Series(tgt_vars, deg + rng.randint(0, 2), terms, exact=True)
            else:
                assignments[v] = Series(tgt_vars, rng.randint(2, 10), terms)
    if rng.random() < 0.03:
        assignments["q"] = Series(tgt_vars, 3, {})  # an unknown variable
    sources = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            terms[tuple(rng.randint(0, 3) for _ in src_vars)] = rand_coeff(rng)
        if rng.random() < 0.4:
            deg = max(map(sum, terms), default=0)
            sources.append(Series(src_vars, deg + rng.randint(0, 2), terms, exact=True))
        else:
            sources.append(Series(src_vars, rng.randint(0, 8), terms))
    cap = rng.choice([None] * 4 + list(range(11)) + list(range(4)) * 2)
    return sources, assignments, cap


def _outcome(run, sources, assignments, cap):
    try:
        return [(s.vars, s.terms, s.cap, s.exact) for s in run(sources, assignments, cap)]
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block", range(8))
def test_substitute_all_matches_reference(block):
    """vars, terms, cap and exact flag, or error class and message, equal
    the reference's on seeded draws that reach every variable list, source
    variables absent from the target, full and Taylor slots, zero images,
    refusals and caps None and 0-10."""
    rng = random.Random(f"substitute:{block}")
    refused = 0
    for _ in range(150):
        case = _substitution_case(rng)
        want = _outcome(reference_substitute_all, *case)
        assert _outcome(substitute_all, *case) == want
        refused += isinstance(want, tuple)
    assert 0 < refused < 75


@st.composite
def substitution_st(draw):
    src_vars = draw(st.sampled_from(SUB_VARS))
    tgt_vars = draw(st.sampled_from(SUB_VARS))
    small = st.integers(-2, 2).map(GaussRational)
    coeffs = iter(lambda: draw(small), None)
    degrees = iter(lambda: draw(st.integers(0, 5)), None)
    assignments = {}
    for v in src_vars:
        if v not in tgt_vars or draw(st.booleans()):
            kind = draw(st.sampled_from(IMAGE_KINDS[:4]))
            terms = _image_terms(tgt_vars, v, kind, coeffs, degrees)
            exact = draw(st.booleans())
            cap = max(map(sum, terms), default=0) if exact else draw(st.integers(1, 4))
            assignments[v] = Series(tgt_vars, cap, terms, exact=exact)
    exps = st.tuples(*[st.integers(0, 3)] * len(src_vars))
    terms = draw(st.dictionaries(exps, small, max_size=5))
    exact = draw(st.booleans())
    cap = max(map(sum, terms), default=0) if exact else draw(st.integers(0, 5))
    sources = [Series(src_vars, cap, terms, exact=exact)]
    return sources, assignments, draw(st.one_of(st.none(), st.integers(0, 8)))


@settings(max_examples=80, deadline=None)
@given(substitution_st())
def test_substitute_all_property(case):
    assert _outcome(substitute_all, *case) == _outcome(reference_substitute_all, *case)


# ----------------------------------------------------------------------
# the graph slot: a source variable the target lacks (w) takes the slot of
# a target variable no source has (u) when its image has coefficient 1
# there, and is a full slot otherwise

GRAPH_PSI = ("normal", "transported", "u-linear")


def _graph_psi(kind, rng):
    """A real psi in (z, zbar, u), cap 12: free of harmonic terms, carried
    by a seeded jet, or with a real u-linear term (w's image then has
    coefficient 1 + i c on u, so w is a full slot)."""
    if kind == "transported":
        return transport(rand_preserves_e_jet(rng, cap=12), circle_surface(cap=12), 12).psi
    terms = {}
    for _ in range(4):
        e = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3))
        terms[e] = rand_coeff(rng)
    if kind == "u-linear":
        terms[(0, 0, 1)] = GaussRational(Fraction(rng.choice([-1, 1]), rng.randint(1, 3)))
    t = Series(HS_VARS, 12, terms)
    return t + conjugate_real(t)


def _slot_count(monkeypatch):
    """The number of slots of each expansion substitute_all makes."""
    counts = []
    expand = algebra._compose_near_identity

    def spy(images, comps, cap):
        counts.append(len(images))
        return expand(images, comps, cap)

    monkeypatch.setattr(algebra, "_compose_near_identity", spy)
    return counts


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "jet"])
@pytest.mark.parametrize("kind", GRAPH_PSI)
def test_graph_substitution_matches_reference(kind, exact, monkeypatch):
    """P and Q on the graph w = u + i psi: vars, terms, cap and exact flag,
    or error class and message, equal those of expanding every power of
    u + i psi in full, at caps None and 1-12; w takes u's slot unless psi
    has a u-linear term."""
    rng = random.Random(f"graph:{kind}:{exact}")
    slots = _slot_count(monkeypatch)
    refused = 0
    for _ in range(3):
        psi = _graph_psi(kind, rng)
        if exact:
            psi = Series(HS_VARS, max(psi.degree(), 0), psi.terms, exact=True)
        for cap in [None, *range(1, 13)]:
            p, q = (rand_series(rng, cap=rng.randint(4, 12), max_terms=6, max_deg=5)
                    for _ in range(2))
            if rng.random() < 0.3:
                p = Series(V, max(p.degree(), 0), p.terms, exact=True)
            case = ((p, q), graph_images(psi), cap)
            want = _outcome(reference_graph_substitution, (p, q), psi, cap)
            assert _outcome(substitute_all, *case) == want
            refused += isinstance(want, tuple)
    assert set(slots) == {4 if kind == "u-linear" else 3}
    assert 0 < refused < 20


def _claim_case(rng):
    """Sources on variable lists that share some variables with the target
    and lack others; each variable the target lacks gets an image whose
    linear coefficients are often exactly 1, so several of them compete
    for one free target variable, and some could claim one a source has."""
    src_vars, tgt_vars = rng.choice([
        (("z", "w", "t"), HS_VARS), (("t", "w", "z"), HS_VARS), (("w", "t"), HS_VARS),
        (("a", "b"), ("x", "y")), (("a", "b", "c"), ("x", "y")), (("a", "x"), ("x", "y")),
    ])
    n = len(tgt_vars)
    assignments = {}
    for v in src_vars:
        if v in tgt_vars:
            continue
        terms = {}
        for j in range(n):
            if rng.random() < 0.8:
                unit = tuple(int(i == j) for i in range(n))
                terms[unit] = rng.choice([GaussRational(1)] * 3 + [gauss(2), gauss(0, 1)])
        for _ in range(2):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(e) >= 2:
                terms[e] = rand_coeff(rng)
        if rng.random() < 0.5:
            deg = max(map(sum, terms), default=0)
            assignments[v] = Series(tgt_vars, deg, terms, exact=True)
        else:
            assignments[v] = Series(tgt_vars, rng.randint(6, 12), terms)
    sources = []
    for _ in range(rng.randint(1, 2)):
        terms = {tuple(rng.randint(0, 3) for _ in src_vars): rand_coeff(rng)
                 for _ in range(rng.randint(1, 6))}
        deg = max(map(sum, terms))
        sources.append(Series(src_vars, deg, terms, exact=True) if rng.random() < 0.4
                       else Series(src_vars, rng.randint(3, 8), terms))
    return sources, assignments, rng.choice([None] * 4 + list(range(1, 13)))


@pytest.mark.parametrize("block", range(4))
def test_claimed_slots_match_reference(block):
    """Source variables competing for one free target variable, or with
    coefficient 1 on a target variable a source has: vars, terms, cap and
    exact flag, or the error, equal the power-product reference's."""
    rng = random.Random(f"claim:{block}")
    refused = 0
    for _ in range(60):
        case = _claim_case(rng)
        want = _outcome(reference_substitute_all, *case)
        assert _outcome(substitute_all, *case) == want
        refused += isinstance(want, tuple)
    assert 0 < refused < 30


def test_first_claimant_takes_the_free_slot(monkeypatch):
    """a takes x; b takes y where its coefficient is 1, and is a full slot
    where it is 2; a source variable named like a target variable keeps
    that slot, so c, with coefficient 1 on it, is a full slot."""
    xy = ("x", "y")
    src = Series(("a", "b"), 4, {(2, 1): 1, (1, 2): gauss(0, 1)}, exact=True)
    slots = _slot_count(monkeypatch)
    for b_image, want in (({(1, 0): 1, (0, 1): 1}, 2), ({(1, 0): 1, (0, 1): 2}, 3)):
        images = {"a": Series(xy, 2, {(1, 0): 1, (0, 2): 1}, exact=True),
                  "b": Series(xy, 1, b_image, exact=True)}
        assert substitute_all([src], images) == reference_substitute_all([src], images)
        assert slots.pop() == want
    src = Series(("x", "c"), 3, {(1, 2): 1, (0, 3): 2}, exact=True)
    images = {"c": Series(xy, 1, {(1, 0): 1, (0, 1): 3}, exact=True)}
    assert substitute_all([src], images) == reference_substitute_all([src], images)
    assert slots.pop() == 3


def test_terms_is_a_read_only_view_built_once():
    s = Series(("z", "w"), 4, {(1, 2): 1, (0, 1): gauss(0, 1), (2, 0): 0})
    view = s.terms
    assert view is s.terms
    assert dict(view) == {(1, 2): gauss(1), (0, 1): gauss(0, 1)}
    with pytest.raises(TypeError):
        view[(0, 0)] = gauss(1)
    # the view keeps the storage order of the packed terms
    assert list(s.packed) == [pack(e) for e in view]
    assert s.coefficient((1, 2)) == gauss(1) and s.coefficient((2, 1)) == gauss(0)
    # no other tuple reads a stored term, whatever its arity or sign
    c = Series(("z", "w"), 4, {(0, 0): 2, (1, 2): 1})
    assert [c.coefficient(e) for e in ((0,), (0, 0, 0), (3,), (-1, 4), (2, -1))] == [0] * 5


def test_monomial_shifts_refuse_malformed_exponents():
    # a shift is packed into a key, so it must have one nonnegative
    # exponent per variable
    s = Series(("z", "w"), 6, {(1, 2): 1})
    for shift in (s.mul_monomial, s.divide_monomial):
        with pytest.raises(ArityError):
            shift((1,))
        with pytest.raises(ValueError, match="negative exponent"):
            shift((1, -1))
    assert s.mul_monomial((0, 1)) == Series(("z", "w"), 7, {(1, 3): 1})
    assert s.divide_monomial((1, 1)) == Series(("z", "w"), 4, {(0, 1): 1})


@pytest.mark.parametrize("seed", range(8))
def test_compose_near_identity_on_a_wider_table(seed):
    """A Taylor table built at a higher cap, its plans and products used
    there first, gives the terms, in the same key order, that a table at
    the caller's cap gives: every term is bounded by the caller's cap."""
    rng = random.Random(f"wider-table:{seed}")
    cap, extra = rng.randint(2, 7), rng.randint(1, 3)

    def terms(low, high, count):
        out = {}
        for _ in range(count):
            a, b = rng.randint(0, high), rng.randint(0, high)
            if low <= a + b <= high:
                out[pack((a, b))] = rand_coeff(rng) or ONE
        return out

    eps = [terms(2, cap + extra, 3), terms(2, cap + extra, 3)]
    images = [{pack((1, 0)): ONE, **eps[0]}, {pack((0, 1)): ONE, **eps[1]}]
    comps = [terms(1, cap + extra, 6) for _ in range(2)]
    wide = algebra._TaylorTable(eps, cap + extra)
    algebra._compose_near_identity(images, comps, cap + extra, wide)
    want = algebra._compose_near_identity(images, comps, cap)
    got = algebra._compose_near_identity(images, comps, cap, wide)
    assert [list(t.items()) for t in got] == [list(t.items()) for t in want]
    assert all(k < limit(cap, 2) for t in got for k in t)
