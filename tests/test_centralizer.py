import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holonorm import linalg
from holonorm.algebra import gauss
from holonorm.backend import GaussRational, add_raw, settle, unpack
from holonorm.centralizer import (
    _equation_cap,
    _unknown_monomials,
    commutation_rows,
    divergence_probe,
    growth_verdict,
    jet_centralizer,
    predicted_symmetry_support,
    symmetry_support_check,
)
from holonorm.field import bracket
from holonorm.linalg import nullspace

from helpers import (
    gr,
    nf14_field,
    rand_coeff,
    raw_rows,
    reference_commutation_rows,
    reference_nullspace,
    vf,
)

V = ("z", "w")


class TestJetCentralizer:
    def test_w2_dw_contains_expected_directions(self):
        x = vf({}, {(0, 2): 1}, cap=16)
        basis = jet_centralizer(x, 6)
        span = set()
        for y in basis:
            span |= set(y.support())
        assert ("dw", (0, 2)) in span
        assert ("dz", (1, 0)) in span

    def test_nf14_dimension_two(self):
        x = nf14_field(1, 1, 1, 0, [0], cap=18)
        for order in (8, 10):
            basis = jet_centralizer(x, order)
            assert len(basis) == 2

    def test_r_zero_dimension_grows(self):
        x = vf({(1, 1): gauss(0, 1)}, {}, cap=16)
        dims = [len(jet_centralizer(x, order)) for order in (6, 8, 10)]
        assert dims == sorted(dims) and dims[0] < dims[-1]

    def test_elements_commute(self):
        x = nf14_field(1, 1, 1, 0, [0], cap=18)
        for y in jet_centralizer(x, 8):
            br = bracket(x.truncate(10), y)
            assert all(sum(e) > 7 for e in br.p.terms)
            assert all(sum(e) > 7 for e in br.q.terms)

    def test_closed_under_bracket(self):
        # the bracket of two basis elements lies in the computed span
        x = vf({}, {(0, 2): 1}, cap=16)
        basis = jet_centralizer(x, 6)
        sup = set()
        for y in basis:
            sup |= set(y.support())
        a, b = basis[0], basis[-1]
        br = bracket(a, b)
        for comp, e in br.support():
            if sum(e) <= 4:  # certified window of the bracket of two jets
                assert (comp, e) in sup


def rand_vanishing_field(rng, max_deg, real, exact):
    """Random X with X(0) = 0, terms of degree 1..max_deg and at least one
    term of degree max_deg; a jet field gets the cap `_equation_cap` asks
    for at the largest order drawn."""
    terms = ({}, {})
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, max_deg)
        a = rng.randint(0, d)
        terms[rng.randint(0, 1)][(a, d - a)] = rand_coeff(rng, real=real)
    a = rng.randint(0, max_deg)
    terms[rng.randint(0, 1)][(a, max_deg - a)] = rand_coeff(rng, real=real)
    return vf(*terms, cap=max_deg if exact else 10 + max_deg, exact=exact)


# (seed, highest degree of X, order, real coefficients, exact polynomial)
DIFF_CASES = [
    (seed, 1 + seed % 4, 1 + (3 * seed) % 10, seed % 3 == 0, seed % 2 == 0)
    for seed in range(16)
]


def settled_rows(rows):
    """Raw commutation rows settled, each keyed as
    `reference_commutation_rows` keys it, rows that cancel dropped."""
    out = {}
    for key, row in rows.items():
        row = settle(row)
        if row:
            out[("dw" if key & 1 else "dz", unpack(key >> 1, 2))] = row
    return out


def basis_terms(vectors, monos):
    """Nullspace vectors as the (dz, dw) term dicts of their fields."""
    n = len(monos)
    return [({monos[c]: v for c, v in vec.items() if c < n},
             {monos[c - n]: v for c, v in vec.items() if c >= n}) for vec in vectors]


class TestAgainstReference:
    """Closed-form rows and the sparse solve against one bracket per
    unknown and the dense-order reduction."""

    @pytest.mark.parametrize("seed,max_deg,order,real,exact", DIFF_CASES)
    def test_rows_and_basis_match_reference(self, seed, max_deg, order, real, exact):
        x = rand_vanishing_field(random.Random(seed), max_deg, real, exact)
        eq_cap = _equation_cap(x, order)
        monos = _unknown_monomials(order)
        rows = commutation_rows(x, monos, eq_cap)
        ref = reference_commutation_rows(x, order, eq_cap)
        assert settled_rows(rows) == ref
        ncols = 2 * len(monos)
        basis = nullspace(sorted(rows.values(), key=len), ncols)
        assert basis == reference_nullspace(list(ref.values()), ncols)
        # each vector solves every equation
        for vec in basis:
            for row in ref.values():
                assert sum((v * vec[c] for c, v in row.items() if c in vec),
                           GaussRational(0)).is_zero()
        # jet_centralizer reports the same basis, one monomial per column
        got = [(y.p.terms, y.q.terms) for y in jet_centralizer(x, order)]
        assert got == basis_terms(basis, monos)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 7), st.booleans(),
           st.booleans())
    def test_jet_centralizer_matches_bracket_per_unknown(self, seed, max_deg, order, real,
                                                          exact):
        x = rand_vanishing_field(random.Random(seed), max_deg, real, exact)
        ref = reference_commutation_rows(x, order, _equation_cap(x, order))
        monos = _unknown_monomials(order)
        want = basis_terms(reference_nullspace(list(ref.values()), 2 * len(monos)), monos)
        assert [(y.p.terms, y.q.terms) for y in jet_centralizer(x, order)] == want

    @pytest.mark.parametrize("seed", range(6))
    def test_row_order_does_not_change_the_basis(self, seed):
        rng = random.Random(100 + seed)
        x = rand_vanishing_field(rng, 1 + seed % 3, seed % 2 == 0, True)
        order = 4 + seed
        monos = _unknown_monomials(order)
        rows = list(commutation_rows(x, monos, _equation_cap(x, order)).values())
        ncols = 2 * len(monos)
        expected = [list(v.items()) for v in nullspace(rows, ncols)]
        for _ in range(3):
            rng.shuffle(rows)
            assert [list(v.items()) for v in nullspace(rows, ncols)] == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_with_mixed_denominators_matches_reference(self, seed):
        """Rows over denominators 1-12, with dependent rows (sums of two
        rows scaled by fractions), so eliminations meet different
        denominators and cancel exactly."""
        rng = random.Random(300 + seed)
        ncols = rng.randint(4, 12)

        def coeff():
            d = rng.randint(1, 12)
            return gr(Fraction(rng.randint(-9, 9), d), Fraction(rng.randint(-9, 9), d))

        rows = []
        for _ in range(rng.randint(2, ncols)):
            row = {c: coeff() for c in rng.sample(range(ncols), rng.randint(1, 4))}
            rows.append({c: v for c, v in row.items() if v})
        for _ in range(3):
            r1, r2 = rng.sample(rows, 2)
            s1, s2 = coeff() or gr(1), coeff() or gr(1)
            dep = {c: r1.get(c, gr(0)) * s1 + r2.get(c, gr(0)) * s2 for c in set(r1) | set(r2)}
            rows.append({c: v for c, v in dep.items() if v})
        rows = [row for row in rows if row]
        basis = nullspace(raw_rows(sorted(rows, key=len)), ncols)
        assert basis == reference_nullspace(rows, ncols)
        for vec in basis:
            for row in rows:
                assert sum((v * vec[c] for c, v in row.items() if c in vec),
                           GaussRational(0)).is_zero()

    def test_nullspace_of_known_matrix(self):
        # x0 + 2 x2 = 0, x1 - i x2 = 0 (given in a redundant, unsorted form)
        i = gr(0, 1)
        rows = [{1: gr(2), 2: gr(0, -2)}, {0: gr(1), 2: gr(2)},
                {0: gr(1), 1: gr(1), 2: gr(2) - i}]
        assert nullspace(raw_rows(rows), 4) == [{2: gr(1), 0: gr(-2), 1: i}, {3: gr(1)}]

    def test_entry_cancelled_over_different_denominators_is_dropped(self):
        # 1/2 - 3/6 accumulates to the raw zero [0, 0, 6]: it neither pivots
        # nor makes row 0 a singleton once x1 is forced
        def cancelled():
            acc = {}
            add_raw(acc, 0, 1, 0, 2)
            add_raw(acc, 0, -3, 0, 6)
            assert acc[0] == [0, 0, 6]
            return acc[0]

        rows = [{0: cancelled(), 1: [5, 0, 1]}, {1: [1, 0, 1]}]
        settled = [settle(row) for row in rows]
        assert settled[0] == {1: gr(5)}
        got = [list(v.items()) for v in nullspace(rows, 2)]
        assert got == [[(0, gr(1))]] == reference_items(settled, 2)
        # nor does it reach a basis vector from a row the reduction keeps
        rows = [{0: [1, 0, 3], 1: [0, 2, 3], 2: cancelled()}, {0: [1, 1, 2], 1: [1, 0, 1]}]
        settled = [settle(row) for row in rows]
        got = [list(v.items()) for v in nullspace(rows, 3)]
        assert got == reference_items(settled, 3) == [[(2, gr(1))]]

    def test_stored_zero_entry_is_dropped(self):
        # a zero on column 0 neither pivots (1/0) nor makes row 0 a
        # singleton that would force x0 = 0
        rows = [{0: GaussRational(0), 1: gr(5)}, {1: gr(1)}]
        assert [list(v.items()) for v in nullspace(raw_rows(rows), 2)] == [[(0, gr(1))]]
        # nor does a zero on a row the reduction keeps reach a basis vector
        rows = [{0: gr(1), 1: gr(1), 2: GaussRational(0)}]
        assert [list(v.items()) for v in nullspace(raw_rows(rows), 3)] == [
            [(1, gr(1)), (0, gr(-1))], [(2, gr(1))]]


def reference_items(rows, ncols):
    """`reference_nullspace` with each vector's items in the documented
    order: its free column, then the pivot columns in increasing order."""
    out = []
    for vec in reference_nullspace(rows, ncols):
        free, *rest = vec.items()
        out.append([free] + sorted(rest))
    return out


def pq_field(p, q, k, r):
    """-p z w^k dz + (q w^{k+1} + r w^{2k+1}) dw"""
    qterms = {(0, k + 1): q}
    if r:
        qterms[(0, 2 * k + 1)] = r
    return vf({(1, k): -p}, qterms)


# exact models whose rows the peel mostly consumes; every (p, q) model has
# resonant entries -p(a - 1) + q b = 0 that the row build cancels
STRUCTURED_CASES = [
    pytest.param(nf14_field(1, 1, Fraction(3, 2), Fraction(-1, 3), [Fraction(1, 2)]), 12,
                 id="nf14.q1"),
    pytest.param(nf14_field(1, 1, Fraction(-2, 5), Fraction(1, 4),
                            [Fraction(1, 3), Fraction(-2, 3)]), 14, id="nf14.q1.c2"),
    pytest.param(nf14_field(1, 2, Fraction(5, 3), Fraction(2, 7),
                            [Fraction(-1, 2), Fraction(3, 4)]), 10, id="nf14.q2"),
    pytest.param(pq_field(1, 1, 1, Fraction(2, 3)), 8, id="pq.1_1.k1.r"),
    pytest.param(pq_field(1, 2, 1, 0), 12, id="pq.1_2.k1.0"),
    pytest.param(pq_field(2, 1, 1, Fraction(-3, 2)), 10, id="pq.2_1.k1.r"),
    pytest.param(pq_field(2, 3, 2, Fraction(1, 5)), 14, id="pq.2_3.k2.r"),
    pytest.param(pq_field(3, 2, 1, 0), 14, id="pq.3_2.k1.0"),
    pytest.param(vf({(1, 1): gr(0, 1)}, {}), 12, id="rotation"),
]


class TestStructuredModels:
    """The sparse solve against the dense-order reduction on the exact
    models the benchmark and the support check solve, where nearly every
    column is forced to zero."""

    @pytest.mark.parametrize("x,order", STRUCTURED_CASES)
    def test_basis_and_item_order_match_reference(self, x, order):
        monos = _unknown_monomials(order)
        rows = list(commutation_rows(x, monos, _equation_cap(x, order)).values())
        ncols = 2 * len(monos)
        got = [list(v.items()) for v in nullspace(rows, ncols)]
        assert got == reference_items([settle(row) for row in rows], ncols)
        assert got


NONZERO = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 5)).filter(
    lambda t: t[0] or t[1]).map(lambda t: gr(Fraction(t[0], t[2]), Fraction(t[1], t[2])))


@st.composite
def homogeneous_systems(draw):
    """(rows, ncols): a triangular block with a nonzero diagonal, a chain
    of rows each singled out only once the one before it is peeled, and a
    small dense block with dependent rows that may also touch the forced
    columns; columns permuted and rows shuffled."""
    t, m, k = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    spare = draw(st.integers(0, 2))
    ncols = t + m + k + spare
    perm = draw(st.permutations(range(ncols))) if ncols else []
    tri, chain, dense = perm[:t], perm[t:t + m], perm[t + m:t + m + k]
    rows = []
    for i, c in enumerate(tri):
        row = {c: draw(NONZERO)}
        for c2 in tri[i + 1:]:
            if draw(st.booleans()):
                row[c2] = draw(NONZERO)
        rows.append(row)
    for i, c in enumerate(chain):
        row = {c: draw(NONZERO)}
        if i:
            row[chain[i - 1]] = draw(NONZERO)
        rows.append(row)
    forced = tri + chain
    block = []
    for _ in range(draw(st.integers(0, k))):
        row = {c: draw(NONZERO) for c in dense if draw(st.booleans())}
        if forced and draw(st.booleans()):
            row[draw(st.sampled_from(forced))] = draw(NONZERO)
        block.append(row)
    for _ in range(draw(st.integers(0, 2)) if len(block) >= 2 else 0):
        r1, r2 = draw(st.permutations(block))[:2]
        s1, s2 = draw(NONZERO), draw(NONZERO)
        dep = {c: r1.get(c, GaussRational(0)) * s1 + r2.get(c, GaussRational(0)) * s2
               for c in set(r1) | set(r2)}
        block.append({c: v for c, v in dep.items() if v})
    rows = [row for row in rows + block if row]
    return draw(st.permutations(rows)), ncols


class TestPeel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(homogeneous_systems())
    def test_matches_reference(self, system):
        rows, ncols = system
        got = [list(v.items()) for v in nullspace(raw_rows(rows), ncols)]
        assert got == reference_items(rows, ncols)

    def test_full_column_rank_gives_empty_basis(self):
        # a 2 x 2 block holds no singleton; the third row is one
        rows = [{0: gr(1), 1: gr(1)}, {0: gr(1), 1: gr(2), 2: gr(0, 1)}, {2: gr(3)}]
        assert nullspace(raw_rows(rows), 3) == []

    def test_no_singleton_row(self):
        # x0 + x1 = 0, x1 + x2 = 0: nothing to peel, x2 is free
        rows = [{1: gr(1), 2: gr(1)}, {0: gr(1), 1: gr(1)}]
        assert [list(v.items()) for v in nullspace(raw_rows(rows), 3)] == [
            [(2, gr(1)), (0, gr(1)), (1, gr(-1))]]

    def test_singleton_after_a_peel_needs_no_elimination(self, monkeypatch):
        # 3 x1 = 0 forces x1, which leaves 2 x0 alone in the first row
        def eliminate(*args):
            raise AssertionError("a forced zero reached the elimination")

        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        rows = [{0: gr(2), 1: gr(1)}, {1: gr(3)}]
        assert [list(v.items()) for v in nullspace(raw_rows(rows), 3)] == [[(2, gr(1))]]


class TestSymmetrySupport:
    def test_p1_q2_support(self):
        x = vf({(1, 1): -1}, {(0, 2): 2}, cap=14)
        rep = symmetry_support_check(x, 8)
        assert rep.ok and rep.resonant_map_slots_match
        dz, dw = predicted_symmetry_support(1, 2, 1, 8)
        assert (1, 0) in dz  # the rotation direction z dz
        assert (3, 1) in dz  # z (z^2 w) pattern
        assert (0, 2) in dw

    def test_trivial_element_passes(self):
        x = vf({(1, 1): -1}, {(0, 2): 2, (0, 3): 1}, cap=14)
        rep = symmetry_support_check(x, 8)
        assert rep.ok

    def test_g_support_pattern(self):
        # p=1, q=2, k=1, r=0: dw support within z^{2j} w^{j+1+s}
        x = vf({(1, 1): -1}, {(0, 2): 2}, cap=14)
        basis = jet_centralizer(x, 8)
        for y in basis:
            for (a, b) in y.q.terms:
                j2, rem = divmod(a, 2)
                assert rem == 0 and b >= j2 + 1 + 1


class TestDivergenceProbe:
    def test_first_coefficient(self):
        rep = divergence_probe(1, 15)
        assert rep.coefficients[0] == gauss(0, -1)  # a_1 = -i

    def test_factorial_moduli(self):
        rep = divergence_probe(1, 15)
        # |a_{l+1}|^2 = (l!)^2 exactly (a_{l+1} is the w^{l+1} coefficient)
        fact = 1
        for ell in range(1, 15):
            fact *= ell
            assert rep.moduli_squared[ell] == Fraction(fact) ** 2
        assert rep.verdict == "factorial"

    def test_commutation_and_ode_verified(self):
        rep = divergence_probe(2, 12)
        assert rep.ode_verified and rep.commutation_verified

    def test_geometric_control(self):
        seq = [Fraction(2) ** (2 * l) for l in range(1, 12)]  # |a_l| = 2^l
        assert growth_verdict(seq) == "geometric"

    def test_super_geometric(self):
        # ratios 3, 5, 7, ... strictly increase but are not squares
        seq = [Fraction(1)]
        for l in range(1, 10):
            seq.append(seq[-1] * (2 * l + 1))
        assert growth_verdict(seq) == "super-geometric"

    def test_irregular(self):
        assert growth_verdict([Fraction(1), Fraction(2), Fraction(9), Fraction(10)]) == "irregular"
