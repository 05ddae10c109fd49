import random
from fractions import Fraction

import pytest

from holonorm.algebra import Series, gauss
from holonorm.backend import GaussRational
from holonorm.centralizer import (
    _equation_cap,
    _nullspace,
    _unknown_monomials,
    commutation_rows,
    divergence_probe,
    growth_verdict,
    jet_centralizer,
    predicted_symmetry_support,
    symmetry_support_check,
)
from holonorm.field import VectorField, bracket

from helpers import (
    gr,
    nf14_field,
    rand_coeff,
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


class TestAgainstReference:
    """Closed-form rows and the sparse solve against one bracket per
    unknown and the dense-order reduction."""

    @pytest.mark.parametrize("seed,max_deg,order,real,exact", DIFF_CASES)
    def test_rows_and_basis_match_reference(self, seed, max_deg, order, real, exact):
        x = rand_vanishing_field(random.Random(seed), max_deg, real, exact)
        eq_cap = _equation_cap(x, order)
        rows = commutation_rows(x, order, eq_cap)
        ref = reference_commutation_rows(x, order, eq_cap)
        assert rows == ref
        assert all(v for row in rows.values() for v in row.values())
        ncols = 2 * len(_unknown_monomials(order))
        basis = _nullspace(sorted(rows.values(), key=len), ncols)
        assert basis == reference_nullspace(list(ref.values()), ncols)
        # each vector solves every equation
        for vec in basis:
            for row in rows.values():
                assert sum((v * vec[c] for c, v in row.items() if c in vec),
                           GaussRational(0)).is_zero()
        # jet_centralizer reports the same basis, one monomial per column
        monos = _unknown_monomials(order)
        got = [(y.p.terms, y.q.terms) for y in jet_centralizer(x, order)]
        want = [({monos[c]: v for c, v in vec.items() if c < len(monos)},
                 {monos[c - len(monos)]: v for c, v in vec.items() if c >= len(monos)})
                for vec in basis]
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_row_order_does_not_change_the_basis(self, seed):
        rng = random.Random(100 + seed)
        x = rand_vanishing_field(rng, 1 + seed % 3, seed % 2 == 0, True)
        order = 4 + seed
        rows = list(commutation_rows(x, order, _equation_cap(x, order)).values())
        ncols = 2 * len(_unknown_monomials(order))
        expected = [list(v.items()) for v in _nullspace(rows, ncols)]
        for _ in range(3):
            rng.shuffle(rows)
            assert [list(v.items()) for v in _nullspace(rows, ncols)] == expected

    def test_nullspace_of_known_matrix(self):
        # x0 + 2 x2 = 0, x1 - i x2 = 0 (given in a redundant, unsorted form)
        i = gr(0, 1)
        rows = [{1: gr(2), 2: gr(0, -2)}, {0: gr(1), 2: gr(2)},
                {0: gr(1), 1: gr(1), 2: gr(2) - i}]
        assert _nullspace(rows, 4) == [{2: gr(1), 0: gr(-2), 1: i}, {3: gr(1)}]


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
