from fractions import Fraction

import pytest

from holonorm.algebra import Series
from holonorm.errors import SeedInvalidError, WrongBranchError
from holonorm.hypersurface import HS_VARS, tangency_residual, validate
from holonorm.manifold import (
    default_generic_seed,
    realize_alpha_zero,
    realize_b_zero,
    realize_generic,
    realize_nf7,
)

from helpers import gr, nf14_field, nfgen_field, support_degrees, vf


def hs(terms, cap=10, exact=True):
    return Series(HS_VARS, cap, terms, exact=exact)


class TestRealizeGeneric:
    def test_basic_seed(self):
        seed = hs({(1, 1, 3): 1})
        m = realize_generic(gr(-1), 1, 0, seed, 10)
        x = nfgen_field(gr(-1), 1, 0)
        assert tangency_residual(x, m, 10).is_zero()
        rep = validate(m)
        assert rep.levi_nonflat_at_cap and rep.normal_coordinates

    def test_with_residue(self):
        seed = default_generic_seed(gr(-1), 1, 11)
        m = realize_generic(gr(-1), 1, 1, seed, 11)
        x = nfgen_field(gr(-1), 1, 1)
        assert tangency_residual(x, m, 11).is_zero()

    def test_mu_half(self):
        mu = gr(Fraction(-1, 2))
        seed = default_generic_seed(mu, 1, 10)  # z^2 zbar^2 u^3
        assert seed == hs({(2, 2, 3): 1})
        m = realize_generic(mu, 1, 0, seed, 10)
        x = nfgen_field(mu, 1, 0)
        assert tangency_residual(x, m, 10).is_zero()

    def test_zero_seed_rejected(self):
        with pytest.raises(SeedInvalidError):
            realize_generic(gr(-1), 1, 0, hs({}), 8)

    def test_bad_homogeneity_rejected(self):
        with pytest.raises(SeedInvalidError):
            realize_generic(gr(-1), 1, 0, hs({(1, 1, 1): 1}), 8)

    def test_harmonic_seed_rejected(self):
        with pytest.raises(SeedInvalidError):
            realize_generic(gr(-1), 1, 0, hs({(2, 0, 3): 1, (0, 2, 3): 1}), 8)

    def test_determinism(self):
        seed = default_generic_seed(gr(-2), 1, 10)
        m1 = realize_generic(gr(-2), 1, 1, seed, 10)
        m2 = realize_generic(gr(-2), 1, 1, seed, 10)
        assert m1.psi == m2.psi

    def test_weighted_support_multiples_of_k(self):
        # psi~_j nonzero only for j a multiple of k (k = 2 here)
        from holonorm.grading import WeightSystem

        mu, k = gr(-1), 2
        seed = default_generic_seed(mu, k, 12)
        m = realize_generic(mu, k, 1, seed, 12)
        ws = WeightSystem(HS_VARS, (mu.re, mu.re, 1))
        psit = m.psi.divide_monomial((0, 0, 1))
        for d in support_degrees(psit, ws):
            assert d % k == 0, f"layer {d} is not a multiple of k = {k}"


class TestRealizeAlphaZero:
    def test_basic(self):
        c = Series(("z", "zbar"), 8, {(1, 1): 1}, exact=True)
        m = realize_alpha_zero(1, 0, c, 10)
        assert m.psi.coefficient((1, 1, 2)) == gr(1)
        x = vf({}, {(0, 2): 1})
        assert tangency_residual(x, m, 10).is_zero()
        assert validate(m).levi_nonflat_at_cap

    def test_constant_data_flagged_flat(self):
        c = Series(("z", "zbar"), 8, {(0, 0): 1}, exact=True)
        m = realize_alpha_zero(1, 0, c, 8)
        rep = validate(m, strict=False)
        assert not rep.levi_nonflat_at_cap
        assert not rep.normal_coordinates  # pure u-terms are harmonic

    def test_k0_rotation_of_w(self):
        c = Series(("z", "zbar"), 8, {(1, 1): 1}, exact=True)
        m = realize_alpha_zero(0, 0, c, 8)
        x = vf({}, {(0, 1): 1})
        assert tangency_residual(x, m, 8).is_zero()


class TestRealizeBZero:
    def test_basic(self):
        cau = Series.variable(("t",), 9, "t", exact=True)
        m = realize_b_zero(1, 1, 1, 0, [0], cau, 9)
        x = nf14_field(1, 1, 1, 0, [0])
        assert tangency_residual(x, m, 9).is_zero()

    def test_rotational_support(self):
        cau = Series(("t",), 8, {(1,): gr(1), (2,): gr(Fraction(1, 3))}, exact=True)
        m = realize_b_zero(1, 1, 1, 1, [Fraction(1, 2)], cau, 9)
        assert all(e[0] == e[1] for e in m.psi.terms)
        x = nf14_field(1, 1, 1, 1, [Fraction(1, 2)])
        assert tangency_residual(x, m, 9).is_zero()

    def test_zero_cauchy_is_flat(self):
        cau = Series.zero(("t",), 8)
        m = realize_b_zero(1, 1, 1, 0, [0], cau, 8)
        assert m.psi.is_zero()
        assert not validate(m, strict=False).levi_nonflat_at_cap

    def test_r_zero_rejected(self):
        cau = Series.variable(("t",), 8, "t", exact=True)
        with pytest.raises(WrongBranchError):
            realize_b_zero(1, 1, 0, 0, [0], cau, 8)


@pytest.mark.parametrize("realize, psi", [
    # the model fields are built at cap order + k (+ q) + 1, below the
    # r w^{2k+1} or t w^{2(k+q)+1} slot, whose parameter is zero
    (lambda: realize_generic(5, 10, 0, hs({(1, 1, 0): 1}, cap=3), 3), {(1, 1, 1): gr(1)}),
    (lambda: realize_alpha_zero(5, 0, Series(("z", "zbar"), 2, {(1, 1): 1}), 2), {}),
    (lambda: realize_b_zero(3, 2, 1, 0, [0, 0], Series.variable(("t",), 3, "t"), 2), {}),
], ids=["generic", "alpha-zero", "b-zero"])
def test_zero_parameter_slot_beyond_the_field_cap(realize, psi):
    assert realize().psi.terms == psi


class TestRealizeNf7:
    @pytest.mark.parametrize("k,order", [(1, 8), (1, 10), (2, 8)])
    def test_residual_exactly_zero(self, k, order):
        m = realize_nf7(k, order)
        x = vf({(0, k): 1}, {})
        assert tangency_residual(x, m, order).is_zero()

    def test_levi_nonflat_not_normal(self):
        # the construction is exactly invariant but lives outside normal
        # coordinates: harmonic terms are unavoidable for this form
        m = realize_nf7(1, 8)
        rep = validate(m, strict=False)
        assert rep.levi_nonflat_at_cap
        assert not rep.normal_coordinates
