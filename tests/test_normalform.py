import random
from fractions import Fraction

import pytest

from holonorm import normalform
from holonorm.algebra import Series, gauss
from holonorm.backend import GaussRational
from holonorm.errors import (
    CertificateError,
    HolonormError,
    InconsistentTangencyError,
    InternalError,
    NotIntegralManifoldError,
    OrderGuaranteeError,
    WrongBranchError,
)
from holonorm.field import JetMap, VectorField, jet_inverse, pushforward
from holonorm.hypersurface import RealHypersurface, tangency_residual, transport
from holonorm.manifold import (default_generic_seed, realize_alpha_zero, realize_b_zero,
                               realize_generic, realize_nf7)
from holonorm.majorant import MajorantSystem, _abs_bound, _bound_series, majorant_solve
from holonorm.normalform import (
    _b_zero_stage2,
    _eig_w,
    _eig_z,
    _fold_steps,
    _kill_to_resonant,
    ALPHA_ZERO,
    B_ZERO,
    FAMILY,
    GENERIC,
    ORD0,
    classify_case,
    leading_data,
    majorant_certificate,
    majorant_system,
    n1_of,
    n2_of,
    normalize,
    normalize_alpha_zero,
    normalize_b_zero,
    normalize_generic,
    normalize_ord0,
    prenormalize,
)

from helpers import (
    beyond_model,
    circle_surface,
    gr,
    homological_matrix,
    homological_rank_deficient,
    majorant_functional_a,
    majorant_functional_b,
    nf14_field,
    nfgen_field,
    normalize_1d,
    rand_coeff,
    rand_preserves_e_jet,
    reference_b_zero_stage2,
    reference_kill_to_resonant,
    reference_majorant_model_check,
    reference_normalize_b_zero_transform,
    reference_normalize_ord0,
    reference_solve_degrees,
    series,
    vf,
)

V = ("z", "w")
HS = ("z", "zbar", "u")


class TestLeadingData:
    def test_pure_dz(self):
        ld = leading_data(vf({(0, 3): 1}, {}))
        assert ld.k == 3 and ld.alpha_k == Series.constant(("z",), 9, 1)
        assert ld.beta_k.is_zero()

    def test_readoff(self):
        ld = leading_data(vf({(1, 1): -2}, {(0, 2): 1}))
        assert (ld.k, ld.A, ld.B) == (1, gr(-2), gr(1))
        assert ld.lam == gr(Fraction(-1, 2)) and ld.mu == gr(-2)

    def test_nonconstant_beta(self):
        ld = leading_data(vf({(1, 1): 1, (3, 1): 1}, {(0, 2): 1, (1, 2): 1}))
        assert ld.beta_k == Series(("z",), 10, {(0,): gr(1), (1,): gr(1)})


class TestClassify:
    def test_cases(self):
        assert classify_case(vf({(0, 2): 1}, {})) == ORD0
        assert classify_case(vf({}, {(0, 3): 1})) == ALPHA_ZERO
        assert classify_case(vf({(1, 1): gauss(0, 1)}, {(0, 3): 1})) == B_ZERO
        assert classify_case(vf({(1, 1): 1}, {(0, 2): 1})) == GENERIC


class TestResonance:
    def test_n_values(self):
        # n1(0) = 1 and n2(0) = k lambda
        for k in range(1, 5):
            lam = gr(Fraction(-1, 2))
            assert n1_of(lam, 0) == gr(1)
            assert n2_of(lam, k, 0) == gr(Fraction(-k, 2))

    def test_half_lambda_pattern(self):
        # lambda = -1/2, k = 1: n1(l) integral for even l, n2 for odd l
        x = nfgen_field(gr(-2), 1, 0)
        rep = prenormalize(x, 10).resonance
        for e in rep.entries:
            if e.ell % 2 == 0:
                assert e.n1_integral and e.n1 == gr(1 + e.ell // 2)
            else:
                assert not e.n1_integral
            if e.ell % 2 == 1:
                assert e.n2_integral and e.n2 == gr((e.ell - 1) // 2)
            else:
                assert not e.n2_integral

    def test_matrix_rank_vs_brute_force(self):
        samples = [
            (gr(1), gr(1), 1),
            (gr(-2), gr(1), 2),
            (gr(2, 1), gr(1), 1),
            (gr(Fraction(1, 2)), gr(Fraction(3, 2)), 3),
        ]
        for a, b, k in samples:
            lam = b / a
            for ell in range(0, 11):
                for n in range(0, 11):
                    a11, a12, a21, a22 = homological_matrix(a, b, k, ell, n)
                    det = a11 * a22 - a12 * a21
                    predicate = (gr(n) == n1_of(lam, ell)) or (
                        gr(n) == n2_of(lam, k, ell)
                    )
                    assert homological_rank_deficient(a, b, k, ell, n) == det.is_zero()
                    assert det.is_zero() == predicate


class TestPrenormalize:
    def test_complete_for_imaginary_lambda(self):
        # X = (i z w + z^2 w^2) dz + w^2 dw: lambda = -i, output is complete
        x = vf({(1, 1): gauss(0, 1), (2, 2): 1}, {(0, 2): 1})
        res = prenormalize(x, 10)
        assert res.field.support() == [("dw", (0, 2)), ("dz", (1, 1))]
        assert res.field.p.coefficient((1, 1)) == gauss(0, 1)
        assert beyond_model(res.resonance) == []

    def test_removes_nonresonant_perturbation(self):
        # mu = -2, k = 1 model plus z^3 w^3 dz (non-resonant): removed; the
        # support stays inside the allowed set
        x = nfgen_field(gr(-2), 1, gr(3)) + vf({(3, 3): 1}, {})
        res = prenormalize(x, 10)
        allowed = {("dz", (1, 1)), ("dw", (0, 2)), ("dw", (0, 3))}
        lam = gr(Fraction(-1, 2))
        for ell in range(1, 10):
            n1 = n1_of(lam, ell)
            if n1.is_rational_integer() and n1.re >= 0:
                allowed.add(("dz", (int(n1.re), 1 + ell)))
            n2 = n2_of(lam, 1, ell)
            if n2.is_rational_integer() and n2.re >= 0:
                allowed.add(("dw", (int(n2.re), 2 + ell)))
        assert set(res.field.support()) <= allowed
        assert res.field.p.coefficient((3, 3)).is_zero()

    def test_fixed_point(self):
        x = nfgen_field(gr(-2), 1, gr(3))
        res = prenormalize(x, 10)
        assert res.field == x.truncate(10).as_jet()
        assert res.transform.f == Series.variable(V, 10, "z", exact=False)
        assert res.transform.g == Series.variable(V, 10, "w", exact=False)

    def test_residue_slot_is_invariant(self):
        # the w^{2k+1} dw slot survives any jet transform: transforms of the
        # r = 3 model recover exactly r = 3
        rng = random.Random(31)
        x = nfgen_field(gr(-2), 1, gr(3), cap=12)
        for _ in range(3):
            h = rand_preserves_e_jet(rng, cap=10)
            xt = pushforward(h, x, cap=10)
            res = prenormalize(xt, 10)
            assert res.field.q.coefficient((0, 3)) == gr(3)

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            prenormalize(vf({(0, 2): 1}, {}), 8)
        with pytest.raises(WrongBranchError):
            prenormalize(vf({}, {(0, 2): 1}), 8)

    def test_positive_lambda_resonance_rich(self):
        # lambda = 1 has kept slots in every layer (n1(1) = 0, n2(0) = 1,
        # n2(1) = 0, ...); the within-layer back-couplings need many sweep
        # rounds but must still stabilize on the allowed support
        rng = random.Random(1234)
        base = vf(
            {(1, 1): 1, (0, 2): Fraction(1, 2)},
            {(0, 2): 1, (1, 2): Fraction(1, 3), (0, 3): 2},
            cap=12,
        )
        h = rand_preserves_e_jet(rng, cap=10)
        x = pushforward(h, base, cap=10)
        res = prenormalize(x, 10)
        lam = leading_data(res.field).lam
        allowed = {("dz", (1, 1)), ("dw", (0, 2))}
        for ell in range(0, 10):
            n1, n2 = n1_of(lam, ell), n2_of(lam, 1, ell)
            if n1.is_rational_integer() and n1.re >= 0 and ell > 0:
                allowed.add(("dz", (int(n1.re), 1 + ell)))
            if n2.is_rational_integer() and n2.re >= 0:
                allowed.add(("dw", (int(n2.re), 2 + ell)))
        assert set(res.field.support()) <= allowed


def _ord0(x, order, m=None):
    """`normalize_ord0`'s transform and target, after checking the rest of
    its NF7 result."""
    res = normalize_ord0(x, order, m)
    assert (res.tag, res.case, res.rescale, res.guaranteed_order) == ("NF7", ORD0, gr(1), order)
    (_, k), alpha = next(iter(res.field.p.terms.items()))
    assert res.params == {"k": k, "alpha": alpha} and res.notes == []
    return res.transform, res.field


class TestNormalizeOrd0:
    def test_identity_on_model(self):
        x = vf({(0, 2): 1}, {})
        h, target = _ord0(x, 8)
        assert h.f == Series.variable(V, 8, "z", exact=False)
        assert h.g == Series.variable(V, 8, "w", exact=False)

    def test_z_correction(self):
        x = vf({(0, 2): 1, (1, 2): 1}, {}, cap=14)
        h, target = _ord0(x, 9)
        out = pushforward(h, x, cap=9)
        assert out.p.truncate(8) == target.p.truncate(8)
        assert out.q.truncate(8).is_zero()

    def test_dw_absorbed(self):
        x = vf({(0, 2): 1}, {(0, 3): 1}, cap=14)
        h, target = _ord0(x, 9)
        out = pushforward(h, x, cap=9)
        assert out.p.truncate(8) == target.p.truncate(8)
        assert out.q.truncate(8).is_zero()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_k_above_the_order(self, order):
        # the target alpha w^k dz is exact, so it keeps its term w^3 even
        # when the order is below k; it used to be capped at the order
        x = vf({(0, 3): gr(2)}, {}, cap=10)
        h, target = _ord0(x, order)
        assert target.p.terms == {(0, 3): gr(2)} and target.q.is_zero()
        assert h.f == Series.variable(V, order, "z", exact=False)
        assert h.g == Series.variable(V, order, "w", exact=False)

    def test_surface_checked(self):
        # w^2 dz is not tangent to v = z zbar: the residual starts at degree 3
        m = RealHypersurface(series({(1, 1, 0): 1}, cap=8, vars=HS, exact=False))
        with pytest.raises(NotIntegralManifoldError,
                           match=r"^tangency residual nonzero from degree 3$"):
            normalize_ord0(vf({(0, 2): 1}, {}, cap=10), 6, m)

    def test_tangent_surface_leaves_the_result(self):
        # w^2 dz and its realized surface, moved by one jet
        g = rand_preserves_e_jet(random.Random(41), cap=10)
        x = pushforward(g, vf({(0, 2): 1}, {}, cap=12), cap=10)
        h, target = _ord0(x, 8)
        h_m, target_m = _ord0(x, 8, transport(g, realize_nf7(2, 10), 8))
        assert _same_map(h_m, h) and _same_field(target_m, target)


class TestNormalizeOrd0AgainstReference:
    """`normalize_ord0` gives the transform terms, the target and any
    refusal of the degree-in-z recursion it replaced, on moved ORD0 fields
    with P depending on z and Q != 0; some caps fall below order + k."""

    @staticmethod
    def moved(seed):
        rng = random.Random(f"ord0:{seed}")
        k, order = seed % 4, 3 + seed % 10
        p = {(0, k): rand_coeff(rng) or gr(1)}
        q = {}
        for _ in range(3):
            p[(rng.randint(1, 3), k + rng.randint(0, 2))] = rand_coeff(rng)
            q[(rng.randint(0, 2), k + 1 + rng.randint(0, 2))] = rand_coeff(rng)
        cap = order + k + rng.choice([-1, 0, 0, 1, 1, 2, 2, 2])
        h = rand_preserves_e_jet(rng, cap=12, max_deg=3)
        return pushforward(h, vf(p, q, cap=cap + 4), cap=cap), order

    @staticmethod
    def run(normalize, x, order):
        try:
            h, target = normalize(x, order)
        except HolonormError as exc:
            return type(exc), str(exc)
        return h.f.terms, h.g.terms, [(s.terms, s.cap, s.exact) for s in (target.p, target.q)]

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_moved_fields(self, seed):
        x, order = self.moved(seed)
        assert classify_case(x) == ORD0 and not x.q.is_zero()
        assert any(n for n, _ in x.p.terms)
        assert (self.run(_ord0, x, order)
                == self.run(reference_normalize_ord0, x, order))


class TestNormalizeGeneric:
    def test_fixed_point_with_surface(self):
        mu, k, r = gr(-2), 1, gr(3)
        x = nfgen_field(mu, k, r, cap=12)
        seed = default_generic_seed(mu, k, 10)
        m = realize_generic(mu, k, r, seed, 10)
        res = normalize_generic(x, m, 10)
        assert res.tag == "NF11"
        assert res.params["eta"] == r
        assert res.params["mu"] == mu
        assert res.field == x.truncate(10).as_jet()

    def test_transported_input(self):
        rng = random.Random(41)
        mu, k = gr(-1), 1
        x = nfgen_field(mu, k, 0, cap=12)
        seed = default_generic_seed(mu, k, 11)
        m = realize_generic(mu, k, 0, seed, 11)
        h = rand_preserves_e_jet(rng, cap=11)
        from holonorm.hypersurface import transport

        xt = pushforward(h, x, cap=11)
        mt = transport(h, m, 10)
        res = normalize_generic(xt, mt, 9)
        assert res.tag == "NF11"
        assert res.params["mu"] == mu
        assert res.params["eta"] == gr(0)

    def test_k0_is_nf12(self):
        mu = gr(-1)
        x = nfgen_field(mu, 0, 0, cap=12)
        seed = default_generic_seed(mu, 0, 10)
        m = realize_generic(mu, 0, 0, seed, 10)
        res = normalize_generic(x, m, 9)
        assert res.tag == "NF12"

    def test_eigenvalue_law(self):
        # f -> L0(f) + p f has eigenvalue q b - p (a - 1) on z^a w^b
        for (p, q) in ((1, 2), (2, 3)):
            l0 = vf({(1, 0): -p}, {(0, 1): q}, cap=24)
            for a in range(0, 6):
                for b in range(0, 6):
                    mono = Series.monomial(V, 22, (a, b), 1)
                    from holonorm.field import apply_field

                    out = apply_field(l0, mono) + mono.scale(p)
                    assert out == mono.scale(q * b - p * (a - 1))


class TestNormalizeAlphaZero:
    def test_nf8_trivial(self):
        res = normalize_alpha_zero(vf({}, {(0, 3): 1}), 10)
        assert res.tag == "NF8" and res.params["k"] == 2
        assert res.params["r"] == gr(0)
        assert res.params["shifted_index_K"] == 3

    def test_nf8_with_residue(self):
        res = normalize_alpha_zero(vf({}, {(0, 2): 1, (0, 3): 1}), 10)
        assert res.tag == "NF8" and res.params["k"] == 1
        assert res.params["r"] == gr(1)

    def test_nf9(self):
        res = normalize_alpha_zero(vf({}, {(0, 1): 1}), 10)
        assert res.tag == "NF9"

    def test_higher_junk_removed(self):
        x = vf({(2, 3): 1}, {(0, 2): 1, (1, 4): gauss(0, 2)})
        res = normalize_alpha_zero(x, 10)
        assert res.tag == "NF8"
        assert res.field.q.coefficient((0, 2)) == gr(1)

    def test_nonconstant_c_rejected(self):
        # c(z) is a per-leaf residue invariant: w^2 dw + z w^3 dw cannot be
        # tangent to any Levi-nonflat surface
        with pytest.raises(InconsistentTangencyError):
            normalize_alpha_zero(vf({}, {(0, 2): 1, (1, 3): 1}), 10)

    def test_surface_checked(self):
        # (w^2 + 1/2 w^3) dw is tangent to v = z zbar through degree 2 only
        m = RealHypersurface(series({(1, 1, 0): 1}, cap=8, vars=HS, exact=False))
        x = vf({}, {(0, 2): 1, (0, 3): Fraction(1, 2)}, cap=10)
        with pytest.raises(NotIntegralManifoldError,
                           match=r"^tangency residual nonzero from degree 3$"):
            normalize_alpha_zero(x, 6, m)

    def test_tangent_surface_leaves_the_result(self):
        # a transported NF8 pair normalizes as the field alone does
        order = 8
        c_data = Series(("z", "zbar"), order + 1, {(1, 1): 1}, exact=True)
        m = realize_alpha_zero(1, Fraction(1, 2), c_data, order + 1)
        h = rand_preserves_e_jet(random.Random(43), cap=order + 1)
        x = pushforward(h, vf({}, {(0, 2): 1, (0, 3): Fraction(1, 2)}, cap=order + 3),
                        cap=order + 1)
        res = normalize_alpha_zero(x, order)
        res_m = normalize_alpha_zero(x, order, transport(h, m, order))
        assert (res_m.tag, res_m.params) == (res.tag, res.params) == \
            ("NF8", {"k": 1, "r": gr(Fraction(1, 2)), "shifted_index_K": 2})
        assert _same_map(res_m.transform, res.transform) and _same_field(res_m.field, res.field)

    @pytest.mark.parametrize("q_terms", [
        {(0, 1): 1, (1, 1): 1},
        {(0, 1): 2, (2, 1): gauss(0, 1)},
        {(0, 1): 1, (1, 1): Fraction(1, 2), (1, 2): 3},
    ])
    def test_k0_nonconstant_linear_data_rejected(self, q_terms):
        # at k = 0 the c(z) slots z^n w are the linear dw data: refused as
        # inconsistent, not as an internal error
        with pytest.raises(InconsistentTangencyError, match="nonconstant linear dw data"):
            normalize_alpha_zero(vf({}, q_terms, cap=8), 6)


class TestNormalizeBZero:
    def test_nf13(self):
        x = vf({(1, 0): gauss(0, 1)}, {})
        m = RealHypersurface(Series(HS, 10, {(1, 1, 1): 1}, exact=True))
        res = normalize_b_zero(x, m, 10)
        assert res.tag == "NF13" and res.params == {"k": 0}

    def test_nf14_parameters(self):
        k, q, r, t = 1, 1, 1, 0
        x = nf14_field(k, q, r, t, [0])
        cau = Series.variable(("t",), 9, "t", exact=True)
        m = realize_b_zero(k, q, r, t, [0], cau, 9)
        res = normalize_b_zero(x, m, 9)
        assert res.tag == "NF14"
        assert res.params["k"] == 1 and res.params["q"] == 1
        assert res.params["r"] == gr(1) and res.params["t"] == gr(0)
        assert res.params["c"] == [gr(0)]
        assert res.convergent_claim == "formal-only"

    def test_nf14_with_c1(self):
        k, q, r, t = 1, 1, 1, 1
        c = [Fraction(1, 2)]
        x = nf14_field(k, q, r, t, c)
        cau = Series.variable(("t",), 9, "t", exact=True)
        m = realize_b_zero(k, q, r, t, c, cau, 9)
        res = normalize_b_zero(x, m, 9)
        assert res.params["c"] == [gr(Fraction(1, 2))]
        assert res.params["t"] == gr(1)

    def test_nf14_higher_parameters(self):
        k, q, r, t = 2, 2, 1, 1
        c = [1, Fraction(-1, 3)]
        x = nf14_field(k, q, r, t, c, cap=14)
        cau = Series.variable(("t",), 11, "t", exact=True)
        m = realize_b_zero(k, q, r, t, c, cau, 11)
        res = normalize_b_zero(x, m, 11)
        assert res.tag == "NF14"
        assert res.params["k"] == 2 and res.params["q"] == 2
        assert res.params["c"] == [gr(1), gr(Fraction(-1, 3))]
        assert res.params["t"] == gr(1)

    def test_divergence_witness_normalizes_to_nf14(self):
        # (w^2 + i z w) dz + w^3 dw is the k = 1 divergence witness; it
        # normalizes (formally) to the exceptional form. Its integral
        # surface jet is obtained by pulling the model surface back through
        # the computed normalizing transform.
        from holonorm.field import jet_inverse
        from holonorm.hypersurface import transport
        from holonorm.normalform import _b_zero_stage2

        order = 9
        x = vf({(0, 2): 1, (1, 1): gauss(0, 1)}, {(0, 3): 1}, cap=16)
        assert classify_case(x) == B_ZERO
        pre = prenormalize(x, order)
        assert pre.rescale == gr(1)
        k = 1
        ord_g = min(e[1] for e in pre.field.q.terms)
        q = ord_g - (k + 1)
        r = pre.field.q.coefficient((0, ord_g))
        steps, x2 = _b_zero_stage2(pre.field, k, q, r, order)
        t = x2.q.coefficient((0, 2 * (k + q) + 1))
        c = [x2.p.coefficient((1, k + j)) / gauss(0, 1) for j in range(1, q + 1)]
        assert q == 1 and r.is_real() and t.is_real()
        h_tot = _fold_steps(steps, order, pre.transform)

        cau = Series.variable(("t",), order, "t", exact=True)
        m_model = realize_b_zero(k, q, r, t, c, cau, order)
        m = transport(jet_inverse(h_tot, cap=order), m_model, order - 1)
        res = normalize_b_zero(x, m, order - 2)
        assert res.tag == "NF14"
        assert res.params["q"] == 1 and res.params["r"] == r
        assert res.convergent_claim == "formal-only"

    def test_nf13_at_cap_caveat(self):
        # a dw part hiding beyond the cap: at the cap the field looks like
        # i z w dz and its true surface is flat through the cap, so the
        # result is NF13-at-cap with an explicit caveat
        x = vf({(1, 1): gauss(0, 1)}, {})
        m = RealHypersurface(Series(HS, 8, {}, exact=False))
        assert tangency_residual(x, m, 8).is_zero()
        res = normalize_b_zero(x, m, 8)
        assert res.tag == "NF13" and res.params["k"] == 1
        assert any("hide beyond the cap" in note for note in res.notes)


# every refusal of the three tangent normalizers, as (call, class, message)
I = GaussRational(0, 1)
MU = gr(-1)
T_VAR = Series.variable(("t",), 10, "t", exact=True)


def _nf11_surface():
    return realize_generic(MU, 1, 0, default_generic_seed(MU, 1, 8), 8)


def _nf14_surface():
    return realize_b_zero(0, 1, 1, 0, [0], T_VAR, 8)


def _cubic_surface():
    """v = u (z^2 zbar + z zbar^2): normal, but phi_s is not c|z|^s."""
    return RealHypersurface(Series(HS, 10, {(2, 1, 1): 1, (1, 2, 1): 1}, exact=True))


REFUSALS = {
    "ord0-wrong-case": (
        lambda: normalize_ord0(nfgen_field(MU, 1, 0), 4),
        WrongBranchError, "normalize_ord0 requires alpha_k(0) != 0"),
    "generic-wrong-case": (
        lambda: normalize_generic(vf({}, {(0, 2): 1}), circle_surface(), 4),
        WrongBranchError, "normalize_generic requires the generic case"),
    "alpha-zero-wrong-case": (
        lambda: normalize_alpha_zero(nfgen_field(MU, 1, 0), 4),
        WrongBranchError, "normalize_alpha_zero requires alpha_k == 0"),
    "b-zero-wrong-case": (
        lambda: normalize_b_zero(nfgen_field(MU, 1, 0), circle_surface(), 4),
        WrongBranchError, "normalize_b_zero requires the B = 0 case"),
    "generic-not-tangent": (
        lambda: normalize_generic(nfgen_field(MU, 1, 0), circle_surface(), 6),
        NotIntegralManifoldError, "tangency residual nonzero from degree 4"),
    "b-zero-not-tangent": (
        lambda: normalize_b_zero(nf14_field(0, 1, 1, 0, [0]), circle_surface(), 6),
        NotIntegralManifoldError, "tangency residual nonzero from degree 4"),
    # at order 1 the residual of -z w dz + (1 + i) w^2 dw is still zero
    "generic-beta-not-real": (
        lambda: normalize_generic(vf({(1, 1): -1}, {(0, 2): gr(1, 1)}), circle_surface(), 1),
        InconsistentTangencyError,
        "beta_k(0) = (1/1,1/1) is not real, so no real rescale normalizes it"),
    "alpha-zero-beta-not-real": (
        lambda: normalize_alpha_zero(vf({}, {(0, 2): gr(1, 1)}), 4),
        InconsistentTangencyError, "beta_k(0) = (1/1,1/1) is not real"),
    "alpha-zero-b-zero": (
        lambda: normalize_alpha_zero(vf({}, {(1, 2): 1}), 4),
        InconsistentTangencyError,
        "alpha_k == 0 with beta_k(0) = 0 admits no Levi-nonflat integral hypersurface"),
    # in normal coordinates the gate also needs beta_k constant and, for
    # B = 0, phi_s = c|z|^s; at order 3 the residual refuses the first pair
    "generic-beta-nonconstant": (
        lambda: normalize_generic(vf({(1, 1): 1}, {(0, 2): 1, (1, 2): 1}), circle_surface(), 2),
        InconsistentTangencyError,
        "beta_k = (1/1,0/1) + (1/1,0/1) z is not constant; no Levi-nonflat integral "
        "hypersurface in normal coordinates admits it"),
    "b-zero-phi-not-circular": (
        lambda: normalize_b_zero(vf({(1, 1): I}, {}), _cubic_surface(), 4),
        InconsistentTangencyError, "B = 0 forces phi_s proportional to |z|^s with s even"),
    "b-zero-a-not-imaginary": (
        lambda: normalize_b_zero(vf({(1, 1): 1}, {(0, 3): 1}), circle_surface(), 3),
        InconsistentTangencyError,
        "B = 0 requires alpha_k'(0) purely imaginary; got (1/1,0/1)"),
    "alpha-zero-c-nonconstant": (
        lambda: normalize_alpha_zero(vf({}, {(0, 2): 1, (1, 3): 1}), 6),
        InconsistentTangencyError,
        "c(z) = (1/1,0/1) z is nonconstant: it is a per-leaf residue invariant, "
        "so no integral hypersurface exists"),
    "nf8-r-not-real": (
        lambda: normalize_alpha_zero(vf({}, {(0, 2): 1, (0, 3): I}), 6),
        InconsistentTangencyError, "r = (0/1,1/1) is not real"),
    # c_1 = i first shows in the residual at degree 5, above order 4
    "nf14-c1-not-real": (
        lambda: normalize_b_zero(nf14_field(0, 1, 1, 0, [I]), _nf14_surface(), 4),
        InconsistentTangencyError, "c_1 = (0/1,1/1) is not real"),
}

# eta, and NF14's r and t, are read at the degree where a nonreal value
# already makes the residual nonzero, so these cases stub the residual to
# reach the check itself
STUBBED = {
    "nf11-eta-not-real": (
        lambda: normalize_generic(nfgen_field(MU, 1, I), _nf11_surface(), 3),
        InconsistentTangencyError, "eta = (0/1,1/1) is not real"),
    "nf14-r-not-real": (
        lambda: normalize_b_zero(vf({(1, 0): I}, {(0, 2): I}), _nf14_surface(), 4),
        InconsistentTangencyError, "r = (0/1,1/1) is not real"),
    "nf14-t-not-real": (
        lambda: normalize_b_zero(nf14_field(0, 1, 1, I, [0]), _nf14_surface(), 4),
        InconsistentTangencyError, "t = (0/1,1/1) is not real"),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal(self, name):
        call, cls, message = REFUSALS[name]
        with pytest.raises(cls) as info:
            call()
        assert type(info.value) is cls and str(info.value) == message

    @pytest.mark.parametrize("name", sorted(STUBBED))
    def test_refusal_behind_the_residual(self, name, monkeypatch):
        call, cls, message = STUBBED[name]
        monkeypatch.setattr(normalform, "tangency_residual",
                            lambda x, m, order: Series.zero(HS, order, exact=False))
        with pytest.raises(cls) as info:
            call()
        assert type(info.value) is cls and str(info.value) == message


@pytest.mark.parametrize("case, pair", [
    (GENERIC, lambda: (nfgen_field(MU, 1, 0), _nf11_surface())),
    (B_ZERO, lambda: (nf14_field(0, 1, 1, 0, [0]), _nf14_surface())),
], ids=["nf11", "nf14"])
def test_gate_reads_the_leading_data_once_per_check(case, pair, monkeypatch):
    """On a tangent pair in normal coordinates the gate reads the leading
    data once."""
    x, m = pair()
    assert m.in_normal_coordinates()
    calls = []
    read = normalform.leading_data
    monkeypatch.setattr(normalform, "leading_data", lambda x: calls.append(x) or read(x))
    assert normalform._gate(x, case, 6, m) == read(x)
    assert len(calls) == 1


def _moved_pair(case, order=7):
    """A field of `case` moved by a seeded jet and its integral surface
    moved with it: realized at order + 2, the field moved at cap order + 2
    (ORD0's k = 2 needs order + k) and the surface at order + 1."""
    models = {
        ORD0: lambda: (vf({(0, 2): 1}, {}, cap=order + 5), realize_nf7(2, order + 2)),
        ALPHA_ZERO: lambda: (
            vf({}, {(0, 2): 1, (0, 3): Fraction(1, 2)}, cap=order + 3),
            realize_alpha_zero(1, Fraction(1, 2),
                               Series(("z", "zbar"), order + 2, {(1, 1): 1}, exact=True),
                               order + 2)),
        GENERIC: lambda: (
            nfgen_field(MU, 1, gr(Fraction(1, 2)), cap=order + 3),
            realize_generic(MU, 1, gr(Fraction(1, 2)),
                            default_generic_seed(MU, 1, order + 2), order + 2)),
        B_ZERO: lambda: (
            nf14_field(1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)], cap=order + 3),
            realize_b_zero(1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)], T_VAR, order + 2)),
    }
    x, m = models[case]()
    h = rand_preserves_e_jet(random.Random(case), cap=order + 2)
    return pushforward(h, x, cap=order + 2), transport(h, m, order + 1)


# each case's own normalizer, called as (field, surface, order)
OWN = {
    ORD0: ("normalize_ord0", lambda x, m, order: normalize_ord0(x, order, m)),
    ALPHA_ZERO: ("normalize_alpha_zero", lambda x, m, order: normalize_alpha_zero(x, order, m)),
    GENERIC: ("normalize_generic", lambda x, m, order: normalize_generic(x, m, order)),
    B_ZERO: ("normalize_b_zero", lambda x, m, order: normalize_b_zero(x, m, order)),
}


class TestNormalize:
    """`normalize` runs the normalizer of the field's case, refuses GENERIC
    and B_ZERO without a surface, and finds the normalizers by name when
    it runs, so a wrapper bound over one (a tracer's) is called."""

    @pytest.mark.parametrize("case, tag", [(ORD0, "NF7"), (ALPHA_ZERO, "NF8"),
                                           (GENERIC, "NF11"), (B_ZERO, "NF14")])
    def test_runs_the_normalizer_of_the_case(self, case, tag):
        x, m = _moved_pair(case)
        assert classify_case(x) == case
        got, want = normalize(x, 7, m), OWN[case][1](x, m, 7)
        assert (got.tag, got.case, got.params) == (want.tag, case, want.params)
        assert _same_map(got.transform, want.transform) and _same_field(got.field, want.field)
        assert got.tag == tag and tag in FAMILY[case].split("/")

    @pytest.mark.parametrize("case", [GENERIC, B_ZERO])
    def test_surface_required(self, case):
        x, _ = _moved_pair(case)
        with pytest.raises(WrongBranchError) as info:
            normalize(x, 7)
        assert str(info.value) == f"case {case} needs --hypersurface (an integral surface)"

    @pytest.mark.parametrize("case", [ORD0, ALPHA_ZERO, GENERIC, B_ZERO])
    def test_finds_the_normalizer_by_name(self, case, monkeypatch):
        x, m = _moved_pair(case)
        name, _ = OWN[case]
        own, calls = getattr(normalform, name), []
        monkeypatch.setattr(normalform, name, lambda *a: calls.append(a) or own(*a))
        assert normalize(x, 7, m).case == case
        assert len(calls) == 1 and calls[0][0] is x


def test_leading_data_read_once_per_decision(monkeypatch):
    """One GENERIC `normalize` reads the leading data for the case and in
    the gate, and `majorant_system` once: the kill loop is handed A, B and
    k times the rescale and reads none of its own."""
    x, m = _moved_pair(GENERIC)
    read, calls = normalform.leading_data, []
    monkeypatch.setattr(normalform, "leading_data", lambda x: calls.append(x) or read(x))
    assert normalize(x, 7, m).tag == "NF11"
    assert calls == [x, x]
    calls.clear()
    assert not majorant_system(x, 5).r.is_zero()
    assert calls == [x]


class TestTransformMatchesField:
    """The reported transform carries the rescaled input onto the reported
    field: pushforward(transform, rescale * x) == field through the order."""

    def moved(self, model, seed, scale, cap):
        h = rand_preserves_e_jet(random.Random(seed), cap=cap)
        return h, pushforward(h, model, cap=cap).scale(gr(scale))

    @staticmethod
    def assert_matches(x, res, order):
        assert pushforward(res.transform, x.scale(res.rescale), cap=order) == res.field

    @pytest.mark.parametrize("variant", ["w_first", "z_first"])
    def test_prenormalize(self, variant):
        _, x = self.moved(nfgen_field(gr(-2), 1, 1), 83, 3, cap=9)
        res = prenormalize(x, 8, variant=variant)
        assert res.rescale == gr(Fraction(1, 3)) and res.case == GENERIC
        self.assert_matches(x, res, 8)

    def test_normalize_alpha_zero(self):
        _, x = self.moved(vf({}, {(0, 2): 1, (0, 3): Fraction(1, 2)}), 89, -2, cap=9)
        res = normalize_alpha_zero(x, 8)
        assert res.tag == "NF8" and res.rescale == gr(Fraction(-1, 2))
        self.assert_matches(x, res, 8)

    def test_normalize_b_zero_nf14(self):
        # a moved NF14 leaves slots for the second stage to remove
        k, q, r, t, c = 1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)]
        h, x = self.moved(nf14_field(k, q, r, t, c), 97, 3, cap=9)
        cau = Series.variable(("t",), 9, "t", exact=True)
        m = transport(h, realize_b_zero(k, q, r, t, c, cau, 9), 8)
        res = normalize_b_zero(x, m, 7)
        assert res.tag == "NF14" and res.rescale == gr(Fraction(1, 3))
        pre = prenormalize(x, 7)
        assert res.transform != pre.transform
        self.assert_matches(x, res, 7)


def _same_map(a, b):
    """Equal terms, cap and exact flag in each component."""
    return all((s.terms, s.cap, s.exact) == (t.terms, t.cap, t.exact)
               for s, t in ((a.f, b.f), (a.g, b.g)))


def _same_field(a, b):
    return all((s.terms, s.cap, s.exact) == (t.terms, t.cap, t.exact)
               for s, t in ((a.p, b.p), (a.q, b.q)))


def _kill(x, order, variant="w_first"):
    """`_kill_to_resonant` with x's own leading data."""
    ld = leading_data(x)
    return _kill_to_resonant(x, order, ld.A, ld.B, ld.k, variant)


class TestKillLoopAgainstReference:
    """The kept steps folded once give the transform (terms, cap and exact
    flag per component) of composing every pass's step onto it, and the
    kill loop's field is unchanged."""

    MODELS = {
        GENERIC: [nfgen_field(gr(-2), 1, 1, cap=12), nfgen_field(gr(Fraction(-1, 2)), 2, 3, cap=12),
                  nfgen_field(gr(0, 1), 1, 0, cap=12),
                  vf({(1, 1): 1, (0, 2): Fraction(1, 2)}, {(0, 2): 1, (0, 3): 2}, cap=12)],
        ALPHA_ZERO: [vf({}, {(0, 2): 1, (0, 3): Fraction(1, 2)}, cap=12),
                     vf({}, {(0, 3): 1, (0, 5): 2}, cap=12)],
        B_ZERO: [nf14_field(1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)], cap=12),
                 nf14_field(0, 2, 1, 1, [1, 2], cap=12)],
    }

    @staticmethod
    def check(x, order, variant="w_first"):
        steps, xf = _kill(x, order, variant)
        _, href, xref = reference_kill_to_resonant(x, order, variant)
        assert _same_field(xf, xref)
        h = _fold_steps(steps, order)
        assert _same_map(h, href)
        return steps, h

    @pytest.mark.parametrize("variant", ["w_first", "z_first"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", [GENERIC, ALPHA_ZERO, B_ZERO])
    def test_seeded_moved_models(self, case, seed, variant):
        rng = random.Random(f"{case}:{seed}")
        models = self.MODELS[case]
        h = rand_preserves_e_jet(rng, cap=10, max_deg=rng.choice([3, 4]))
        x = pushforward(h, models[seed % len(models)], cap=10)
        assert classify_case(x) == case
        steps, _ = self.check(x, rng.choice([5, 7, 9]), variant)
        assert steps

    def test_ord0_raises_in_both(self):
        x = vf({(0, 1): 1, (1, 2): 1}, {(0, 2): 1}, cap=10)
        assert classify_case(x) == ORD0
        for run in (_kill, reference_kill_to_resonant):
            with pytest.raises(InternalError, match="constant dz term"):
                run(x, 6)

    def test_ord0_refused_before_any_pass(self, monkeypatch):
        # moved, the constant dz slot only surfaces after the dw passes
        x = pushforward(rand_preserves_e_jet(random.Random(3), cap=8),
                        vf({(0, 1): 1}, {(0, 2): 1}, cap=8), cap=8)
        assert classify_case(x) == ORD0

        def no_pass(*args, **kwargs):
            raise AssertionError("a kill pass ran on an ORD0 field")

        monkeypatch.setattr(normalform, "pushforward", no_pass)
        with pytest.raises(InternalError, match="constant dz term"):
            _kill(x, 6)

    @pytest.mark.parametrize("x, order, nsteps, exact", [
        # no step: the exact identity
        (nfgen_field(gr(-2), 1, 1) + vf({(3, 3): 1}, {}), 4, 0, (True, True)),
        # one step composed onto the identity stays exact
        (nfgen_field(gr(-2), 1, 1) + vf({(3, 3): 1}, {}), 6, 1, (True, True)),
        (vf({(0, 2): 1}, {(0, 1): 1}), 6, 1, (True, True)),
        # the second step's z-degree times the first's exceeds the order
        (nfgen_field(gr(-2), 1, 1) + vf({(3, 3): 1}, {}), 8, 2, (False, True)),
        # the first step is z + c w, of order 1
        (nfgen_field(gr(-2), 1, 1) + vf({(0, 2): 1}, {}), 4, 3, (False, True)),
        (nfgen_field(gr(-2), 1, 1) + vf({(0, 2): 1}, {}), 6, 5, (False, False)),
    ])
    def test_exact_flags(self, x, order, nsteps, exact):
        steps, h = self.check(x, order)
        assert len(steps) == nsteps
        assert (h.f.exact, h.g.exact) == exact and (h.f.cap, h.g.cap) == (order, order)

    @staticmethod
    def check_stage2(k, q, seed, order, cap):
        """`_b_zero_stage2` on the prenormal form of a seeded moved NF14
        field: the folded steps and the field have the terms, in the same
        key order, and the cap and exact flag per component of
        `reference_b_zero_stage2`. Returns the folded steps."""
        h = rand_preserves_e_jet(random.Random(seed), cap=cap)
        x = pushforward(h, nf14_field(k, q, 2, Fraction(1, 3), [Fraction(-1, 2), 1][:q]),
                        cap=cap)
        pre = prenormalize(x, order)
        ghat = pre.field.q
        q = min(e[1] for e in ghat.terms) - (k + 1)
        r = ghat.coefficient((0, k + q + 1))
        steps, x2 = _b_zero_stage2(pre.field, k, q, r, order)
        h2 = _fold_steps(steps, order)
        href, xref = reference_b_zero_stage2(pre.field, k, q, r, order)
        for s, t in ((h2.f, href.f), (h2.g, href.g), (x2.p, xref.p), (x2.q, xref.q)):
            assert list(s.packed.items()) == list(t.packed.items())
            assert (s.cap, s.exact) == (t.cap, t.exact)
        return h2

    @pytest.mark.parametrize("seed, order", [(97, 7), (102, 9), (105, 8), (107, 8)])
    def test_b_zero_stage2(self, seed, order):
        assert self.check_stage2(1, 1, seed, order, 10) != JetMap.identity(V, order)

    # from order k + q + 1, where stage 2 has no layer, upward
    @pytest.mark.parametrize("k, q, seed", [(k, q, seed) for k in (0, 1, 2) for q in (1, 2)
                                            for seed in range(3)])
    def test_b_zero_stage2_grid(self, k, q, seed):
        for order in range(k + q + 1, 12):
            self.check_stage2(k, q, seed, order, 12)


class TestFoldOntoStart:
    """`_fold_steps` onto a start transform gives the terms, cap and exact
    flag per component of composing each step onto the start in turn."""

    ORDER = 8
    # degrees 2, 2 and 3: onto a start of degree 2 the first two stay
    # exact (degrees 4 and 6); the third is exact only in its w component
    STEPS = [JetMap(series({(1, 0): 1, (0, 2): 1}, cap=8), series({(0, 1): 1}, cap=8)),
             JetMap(series({(1, 0): 1}, cap=8), series({(0, 1): 1, (1, 1): -2}, cap=8)),
             JetMap(series({(1, 0): 1, (1, 2): gauss(0, 1)}, cap=8), series({(0, 1): 1}, cap=8))]

    @staticmethod
    def start(exact_g=True):
        return JetMap(series({(1, 0): 1, (0, 2): 3}, cap=8),
                      series({(0, 1): 1, (1, 1): Fraction(1, 2)}, cap=8, exact=exact_g))

    @staticmethod
    def in_turn(steps, h):
        for step in steps:
            h = step.compose(h, cap=TestFoldOntoStart.ORDER)
        return h

    def test_no_steps_returns_the_start(self):
        start = self.start(exact_g=False)
        h = _fold_steps([], self.ORDER, start)
        assert _same_map(h, start) and (h.f.exact, h.g.exact) == (True, False)

    @pytest.mark.parametrize("n, exact", [(1, (True, True)), (2, (True, True)),
                                          (3, (False, True))])
    def test_exact_start_keeps_composing(self, n, exact):
        h = _fold_steps(self.STEPS[:n], self.ORDER, self.start())
        assert _same_map(h, self.in_turn(self.STEPS[:n], self.start()))
        assert (h.f.exact, h.g.exact) == exact

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inexact_start_makes_every_result_inexact(self, n):
        start = self.start(exact_g=False)
        h = _fold_steps(self.STEPS[:n], self.ORDER, start)
        assert _same_map(h, self.in_turn(self.STEPS[:n], start))
        assert (h.f.exact, h.g.exact) == (False, False)


class TestNormalizeBZeroAgainstReference:
    """The NF14 transform of `normalize_b_zero` has the terms, cap and exact
    flag per component of composing pass by pass: the kill loop on the
    rescaled field, then every stage-2 step onto the same transform."""

    GRID = [(k, q, r) for k in (0, 1, 2) for q in (1, 2) for r in (1, 2, Fraction(-1, 2))]

    @staticmethod
    def check(k, q, r, t, c, order, seed, max_deg):
        h = rand_preserves_e_jet(random.Random(seed), cap=order + 2, max_deg=max_deg)
        x = pushforward(h, nf14_field(k, q, r, t, c, cap=order + 2 * k + 6), cap=order + 2)
        cau = Series.variable(("t",), order + 2, "t", exact=True)
        m = transport(h, realize_b_zero(k, q, r, t, c, cau, order + 2), order + 1)
        res = normalize_b_zero(x, m, order)
        assert res.tag == "NF14"
        assert _same_map(res.transform, reference_normalize_b_zero_transform(x, order))
        return res.transform

    @pytest.mark.parametrize("i, k, q, r", [(i, *g) for i, g in enumerate(GRID)], ids=str)
    def test_seeded_moved_nf14(self, i, k, q, r):
        self.check(k, q, r, Fraction(1, 3), [Fraction(-1, 2), 1][:q], 5 + i % 4, i, 2 + i % 3)

    # composing the folded stage-2 map onto the prenormal transform in one
    # step flags these three otherwise
    @pytest.mark.parametrize("k, c, order, seed, max_deg, exact", [
        (1, [1], 8, 51, 3, (False, False)),
        (2, [Fraction(-1, 2)], 6, 3, 4, (True, False)),
        (2, [Fraction(-1, 2)], 6, 8, 4, (False, False)),
    ])
    def test_flags_of_composing_pass_by_pass(self, k, c, order, seed, max_deg, exact):
        h = self.check(k, 1, 1, Fraction(1, 3), c, order, seed, max_deg)
        assert (h.f.exact, h.g.exact) == exact


class TestNormalize1d:
    def test_scaling_fixed(self):
        h = Series(("w",), 8, {(1,): gr(2)}, exact=True)
        tau = normalize_1d(h, 8)
        assert tau == Series.variable(("w",), 8, "w", exact=False)

    def test_linearization(self):
        # h = w + w^2: conjugation h tau' = tau verified through order 8
        h = Series(("w",), 9, {(1,): gr(1), (2,): gr(1)}, exact=True)
        tau = normalize_1d(h, 8)
        res = h.as_jet(8) * tau.derive("w") - tau
        assert res.truncate(7).is_zero()

    def test_residue_free_case(self):
        h = Series(("w",), 9, {(1,): gr(2), (3,): gr(1)}, exact=True)
        tau = normalize_1d(h, 8)
        res = h.as_jet(8) * tau.derive("w") - tau.scale(2)
        assert res.truncate(7).is_zero()

    def test_q_zero_rejected(self):
        with pytest.raises(WrongBranchError):
            normalize_1d(Series(("w",), 6, {(2,): gr(1)}, exact=True), 6)


class TestMajorant:
    def test_normal_form_input(self):
        # already normal: F = G = 0 dominated by anything
        x = nfgen_field(gr(-1), 1, 0, cap=12)
        rep = majorant_certificate(x, 8)
        assert rep.holds

    def test_spec_example(self):
        x = vf({(1, 1): -1}, {(0, 2): 1, (2, 2): 1}, cap=12)
        rep = majorant_certificate(x, 10)
        assert rep.holds and (rep.p, rep.q, rep.k) == (1, 1, 1)

    @pytest.mark.parametrize("r", [gr(1), gr(Fraction(-1, 3), 2)])
    def test_system_refuses_a_residue_at_k0(self, r):
        # r is 0 by definition at k = 0; the binomial step of tau^-1(w)
        # divides by q k j there
        xs = nfgen_field(gr(Fraction(-1, 2)), 0, 0, cap=10).scale(gr(2))
        assert majorant_system(xs, 6).r.is_zero()
        with pytest.raises(WrongBranchError, match="at k = 0"):
            MajorantSystem.of(xs, 1, 2, 0, r, 6)

    def test_with_residue_and_rescale(self):
        # mu = -1/2 (p = 1, q = 2) with a residue slot, fed a transformed
        # representative of the model class
        rng = random.Random(47)
        model = nfgen_field(gr(Fraction(-1, 2)), 1, 1, cap=14)
        h = rand_preserves_e_jet(rng, cap=12)
        x = pushforward(h, model, cap=12)
        rep = majorant_certificate(x, 9)
        assert rep.holds and (rep.p, rep.q) == (1, 2)

    def test_homological_check_covers_the_top_degree(self, monkeypatch):
        # halving one degree-`order` coefficient of the solved G must fail
        # the homological check, so that degree is verified too
        from holonorm import majorant

        rng = random.Random(47)
        model = nfgen_field(gr(Fraction(-1, 2)), 1, 1, cap=14)
        x = pushforward(rand_preserves_e_jet(rng, cap=12), model, cap=12)
        order = 9
        solve = majorant.majorant_solve
        halved = []

        def damaged(*args):
            f, g = solve(*args)
            if halved:
                return f, g
            top = sorted(e for e in g.terms if sum(e) == order)
            assert top
            halved.append(top[0])
            terms = dict(g.terms)
            terms[top[0]] = terms[top[0]] * Fraction(1, 2)
            return f, Series(g.vars, g.cap, terms)

        monkeypatch.setattr(majorant, "majorant_solve", damaged)
        with pytest.raises(InternalError, match="homological solve failed verification"):
            majorant_certificate(x, order)
        assert halved

    @pytest.mark.parametrize("damage", ["r_t1", "c_q"])
    def test_chart_check_catches_a_wrong_solve_with_residue(self, damage, monkeypatch):
        # the exact solve run with r_t1 = +r, or with c_q = -q, on an r != 0
        # input: the check on the chart identity must refuse its jets
        from holonorm import majorant

        rng = random.Random(47)
        model = nfgen_field(gr(Fraction(-3, 2)), 1, 1, cap=9)
        x = pushforward(rand_preserves_e_jet(rng, cap=7), model, cap=7)
        order = 5
        assert not majorant_system(x, order).r.is_zero()
        solve = majorant.majorant_solve

        def damaged(a, b, w, k, c_p, c_q, r_t1, r_t3, eig_f, eig_g, order):
            if eig_f is not None:  # the exact solve, not the dominating one
                if damage == "r_t1":
                    r_t1 = -r_t1
                else:
                    c_q = -c_q
            return solve(a, b, w, k, c_p, c_q, r_t1, r_t3, eig_f, eig_g, order)

        monkeypatch.setattr(majorant, "majorant_solve", damaged)
        with pytest.raises(InternalError, match="homological solve failed verification"):
            majorant_certificate(x, order)

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            majorant_certificate(vf({(1, 1): gauss(0, 1)}, {(0, 2): 1}), 8)

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        x = vf({(1, 1): -1}, {(0, 2): 1, (2, 2): 1}, cap=12)
        with pytest.raises(OrderGuaranteeError, match=f"order {order}: "):
            majorant_certificate(x, order)

    @pytest.mark.parametrize("k, r", [(0, 0), (1, 0), (1, 1), (1, Fraction(-3, 2)),
                                      (2, 0), (2, 1), (2, Fraction(-3, 2))])
    def test_solved_map_conjugates_model_to_input(self, k, r):
        # independent oracle, undivided: Phi = (z + F, W (1 + G)) pushes
        # N' = W^k (-p z dz + q w dw) to the input scaled so B = q, dz
        # through order + k and dw through order + k + 1. W = tau^-1(w) is
        # taken through order + 1 and checked on its defining equation
        # q w W' = W (q + r W^k); at k = 0 the residue merges into w dw
        order = 8
        cap = order + k + 1
        rng = random.Random(53)
        model = nfgen_field(gr(Fraction(-1, 2)), k, r, cap=cap + 2)
        x = pushforward(rand_preserves_e_jet(rng, cap=cap), model, cap=cap)
        rep = majorant_certificate(x, order)
        p, q = rep.p, rep.q
        z_s = Series.variable(V, 1, "z", exact=True)
        w_s = Series.variable(V, 1, "w", exact=True)
        w_terms, c, j = {(0, 1): gr(1)}, gr(1), 1
        while not rep.r.is_zero() and 1 + j * k <= order + 1:
            c = c * rep.r * (1 + (j - 1) * k) / (q * k * j)
            w_terms[(0, 1 + j * k)] = c
            j += 1
        big_w = Series(V, order + 1, w_terms, exact=True)
        wk = big_w**k
        assert ((w_s * big_w.derive("w")).scale(q) - big_w * (wk.scale(rep.r) + q)
                ).truncate(order + 1).is_zero()
        f, g = (Series(V, order, s.terms, exact=True) for s in (rep.f_jet, rep.g_jet))
        phi = JetMap(z_s + f, big_w * (g + 1))
        n_prime = VectorField((wk * z_s).scale(-p), (wk * w_s).scale(q))
        out = pushforward(phi, n_prime, cap=order + k + 1)
        xs = x.scale(gr(q) / leading_data(x).B)
        assert out.p.truncate(order + k) == xs.p.truncate(order + k)
        assert out.q.truncate(order + k + 1) == xs.q.truncate(order + k + 1)

    @pytest.mark.parametrize("mu", [gr(-1), gr(-2), gr(Fraction(-1, 2))])
    @pytest.mark.parametrize("r", [0, 1])
    def test_solved_jets_are_fixed_points_at_full_order(self, mu, r):
        # the per-degree solves evaluate the functionals at each degree's
        # own precision; their output must still be the fixed point of the
        # functionals evaluated once at the full order
        order = 8
        rng = random.Random(59 + 2 * r + int(mu.re.denominator))
        model = nfgen_field(mu, 1, r, cap=order + 4)
        h = rand_preserves_e_jet(rng, cap=order + 2)
        x = pushforward(h, model, cap=order + 2)
        rep = majorant_certificate(x, order)
        sysm = majorant_system(x, order)
        p, q, k = sysm.p, sysm.q, sysm.k
        assert (rep.p, rep.q, rep.k) == (p, q, k) and rep.r == sysm.r
        fs, gs = rep.f_star, rep.g_star
        a_abs, b_abs, w_abs = (_bound_series(s) for s in (sysm.a_ing, sysm.b_ing, sysm.wimg))
        r_abs = _abs_bound(sysm.r)
        assert fs == majorant_functional_a(fs, gs, a_abs, p, w_abs, k, order)
        assert gs == majorant_functional_b(fs, gs, b_abs, q, r_abs, r_abs, w_abs, k, order)
        # homological identity with the diagonal operator applied
        # coefficientwise, so it holds through the full order
        fj, gj = rep.f_jet, rep.g_jet
        af = majorant_functional_a(fj, gj, sysm.a_ing, -p, sysm.wimg, k, order)
        bf = majorant_functional_b(fj, gj, sysm.b_ing, q, -sysm.r, sysm.r, sysm.wimg,
                                   k, order)
        lhs_f = {e: c * (-p * e[0] + q * e[1] + p) for e, c in fj.terms.items()}
        lhs_g = {e: c * (-p * e[0] + q * e[1] - k * q) for e, c in gj.terms.items()}
        assert Series(V, order, lhs_f) == af
        assert Series(V, order, lhs_g) == bf

    @pytest.mark.parametrize("order", [1, 2])
    def test_model_below_the_residue_degree(self, order):
        # -z w dz + (w^2 + 2 w^3) dw: its residue sits at degree 2k + 1 = 3,
        # above the order, yet the solve reads the r w^3 term
        x = vf({(1, 1): -1}, {(0, 2): 1, (0, 3): 2}, cap=12)
        rep = majorant_certificate(x, order)
        assert rep.holds and (rep.p, rep.q, rep.k, rep.r) == (1, 1, 1, gr(2))

    def test_moved_model_at_order_two(self):
        # the input of the majorant report digests, certified at order 2
        model = nfgen_field(gr(Fraction(-1, 2)), 1, gr(-1), cap=13)
        x = pushforward(rand_preserves_e_jet(random.Random(5), cap=10), model, cap=10)
        rep = majorant_certificate(x, 2)
        assert rep.holds and (rep.p, rep.q, rep.k, rep.r) == (1, 2, 1, gr(-2))

    @pytest.mark.parametrize("moved", [False, True])
    def test_off_model_resonant_term_refused(self, moved):
        # z^3 w^2 dz is resonant for mu = -1/2, k = 1: -(3 - 1) + 2 * 1 = 0
        x = vf({(1, 1): gr(Fraction(-1, 2)), (3, 2): 1}, {(0, 2): 1, (0, 3): 2}, cap=10)
        if moved:
            x = pushforward(rand_preserves_e_jet(random.Random(3), cap=8), x, cap=8)
        with pytest.raises(WrongBranchError) as exc:
            majorant_certificate(x, 4)
        assert str(exc.value) == ("input does not normalize to the (p, q, r) model at "
                                  "this cap: resonant F slot (3,1) is obstructed")

    def test_order_below_k_rejected(self):
        x = nfgen_field(gr(-1), 2, 1, cap=12)
        with pytest.raises(OrderGuaranteeError,
                           match=r"^order 1: the certificate needs order >= k = 2$"):
            majorant_certificate(x, 1)
        assert majorant_certificate(x, 2).holds

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["jet", "moved", "resonant"])
    def test_model_check_matches_deep_reference(self, kind, k):
        # the homological solve decides the model as the kill loop run
        # through every degree the solve reads does
        rng = random.Random(f"majorant-model {kind} {k}")
        refused = []
        for _ in range(12):
            order = rng.randint(max(k, 1), 6)
            x = _majorant_input(rng, kind, k, order)
            try:
                want = ("r", reference_majorant_model_check(x, order))
            except WrongBranchError:
                want = ("refused",)
            try:
                rep = majorant_certificate(x, order)
                got = ("r", rep.r) if rep.holds else ("fails",)
            except WrongBranchError as exc:
                assert str(exc).startswith(
                    "input does not normalize to the (p, q, r) model at this cap: "
                    "resonant ")
                got = ("refused",)
            assert got == want
            refused.append(want == ("refused",))
        if kind == "moved":
            assert not any(refused)
        if kind == "resonant":
            assert any(refused) and not all(refused)

    @pytest.mark.parametrize("r", [0, 1, Fraction(-3, 2), gr(1, 2)])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_w_image_is_the_jet_inverse_of_tau(self, k, q, r):
        # tau^-1(w) = w (1 - (r/q) w^k)^(-1/k) against linearizing
        # (q w + r w^{k+1}) d/dw and inverting (z, tau) as a jet
        for order in sorted({k, k + 1, 2 * k + 1, 7}):
            x = nfgen_field(gr(Fraction(-1, q)), k, r, cap=order + k + 1)
            sysm = majorant_system(x, order)
            assert sysm.r == gr(q) * r
            h1 = Series(("w",), order + 1, {(1,): gr(q), (k + 1,): sysm.r}, exact=True)
            tau = normalize_1d(h1, order + 1).truncate(order).embed(V)
            want = jet_inverse(JetMap(Series.variable(V, 1, "z"), tau), cap=order).g
            got = sysm.wimg
            assert (got.terms, got.cap, got.exact) == (want.terms, want.cap, want.exact)

    def test_domination_is_entrywise(self):
        x = vf({(1, 1): -1}, {(0, 2): 1, (2, 2): 1}, cap=14)
        rep = majorant_certificate(x, 8)
        for jet, star in ((rep.f_jet, rep.f_star), (rep.g_jet, rep.g_star)):
            for e, c in jet.terms.items():
                bound = star.coefficient(e)
                assert bound.is_real() and bound.re >= 0
                assert c.modulus_squared() <= bound.re**2


def _majorant_input(rng, kind, k, order):
    """A GENERIC field with mu in Q^- and leading layer k, known through
    order + k + 1: a random jet ("jet"), a model pushed by a random map
    ("moved"), or a model plus one resonant term, pushed ("resonant")."""
    mu = rng.choice([gr(-1), gr(-2), gr(Fraction(-1, 2)), gr(Fraction(-2, 3)), gr(-3)])
    cap = order + k + 1
    if kind == "jet":
        b = rng.choice([gr(1), gr(2), gr(Fraction(-1, 3))])
        p, q = {(1, k): mu * b}, {(0, k + 1): b}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(k, k + 3))
            if e not in ((0, k), (1, k)) and sum(e) <= cap:
                p[e] = rand_coeff(rng)
            e = (rng.randint(0, 3), rng.randint(k + 1, k + 4))
            if e != (0, k + 1) and sum(e) <= cap:
                q[e] = rand_coeff(rng)
        return vf(p, q, cap=cap, exact=False)
    r = 0 if k == 0 else rng.choice([0, 1, Fraction(-3, 2)])
    model = nfgen_field(mu, k, r, cap=cap + 2)
    if kind == "resonant":
        # for mu = -p/q the dz slot z^(1+qt) w^(k+pt) and the dw slot
        # z^(qt) w^(2k+pt+1) are resonant
        pp, qq, t = -mu.re.numerator, mu.re.denominator, rng.randint(1, 2)
        c = gr(rng.choice([1, -2, Fraction(1, 3)]), rng.choice([0, 1]))
        dz = rng.random() < 0.5
        slot = (1 + qq * t, k + pp * t) if dz else (qq * t, 2 * k + pp * t + 1)
        term = {slot: c}
        model = model + (vf(term, {}, cap=sum(slot)) if dz else vf({}, term, cap=sum(slot)))
    return pushforward(rand_preserves_e_jet(rng, cap=max(cap, 4)), model, cap=cap)


def _solve_args(sysm, exact):
    """The arguments `majorant_certificate` passes to the exact (F, G) or
    the bound (F*, G*) solve of its system."""
    p, q, k, r = sysm.p, sysm.q, sysm.k, sysm.r
    if exact:
        return (sysm.a_ing, sysm.b_ing, sysm.wimg, k, -p, q, -r, r,
                lambda a, b: _eig_z(-p, q, a, b), lambda a, b: _eig_w(-p, q, k, a, b))
    r_abs = _abs_bound(r)
    return (*(_bound_series(s) for s in (sysm.a_ing, sysm.b_ing, sysm.wimg)),
            k, p, q, r_abs, r_abs, None, None)


_SOLVE_GRID = [(mu, k, r)
               for mu in (gr(-1), gr(-2), gr(Fraction(-1, 2)), gr(-3), gr(Fraction(-2, 3)))
               for k in (0, 1, 2)
               for r in ((0,) if k == 0 else (0, 1, Fraction(-3, 2)))]


class TestMajorantSolveAgainstReference:
    """The online solver against the solve that evaluates the whole
    functionals once per degree and unknown."""

    @pytest.mark.parametrize("mu, k, r", _SOLVE_GRID,
                             ids=[f"mu={mu.re}-k={k}-r={r}" for mu, k, r in _SOLVE_GRID])
    def test_seeded_systems(self, mu, k, r):
        rng = random.Random(f"majorant-solve {mu} {k} {r}")
        order = rng.randint(6, 11)
        cap = order + k + 1
        x = pushforward(rand_preserves_e_jet(rng, cap=cap),
                        nfgen_field(mu, k, r, cap=cap + 2), cap=cap)
        sysm = majorant_system(x, order)
        for exact in (True, False):
            args = _solve_args(sysm, exact)
            got = majorant_solve(*args, order)
            want = reference_solve_degrees(*args, order)
            for g, w in zip(got, want):
                assert (g.terms, g.cap, g.exact) == (w.terms, w.cap, w.exact)

    @pytest.mark.parametrize("a_terms, b_terms, slot", [
        ({(2, 1): gr(1)}, {}, "F slot (2,1)"),  # eig_z = -(2 - 1) + 1 = 0
        ({}, {(1, 2): gr(1, 2)}, "G slot (1,2)"),  # eig_w = -1 + (2 - 1) = 0
    ])
    def test_obstructed_resonant_slot(self, a_terms, b_terms, slot):
        # p = q = k = 1: a term of a or b on a resonant slot
        order = 5
        args = (series(a_terms, cap=order), series(b_terms, cap=order),
                Series.variable(V, order, "w", exact=False), 1, -1, 1, 0, 0,
                lambda a, b: _eig_z(-1, 1, a, b), lambda a, b: _eig_w(-1, 1, 1, a, b))
        with pytest.raises(CertificateError) as want:
            reference_solve_degrees(*args, order)
        with pytest.raises(CertificateError) as got:
            majorant_solve(*args, order)
        assert str(got.value) == str(want.value) == f"resonant {slot} is obstructed"

    def test_z_linear_term_of_a_rejected(self):
        # a z-linear term in a, a constant in a, a constant in b
        for a_terms, b_terms in (({(1, 0): gr(1), (2, 1): gr(1)}, {}),
                                 ({(0, 0): gr(1), (2, 1): gr(1)}, {}),
                                 ({(2, 1): gr(1)}, {(0, 0): gr(1)})):
            a, b = series(a_terms, cap=5), series(b_terms, cap=5)
            with pytest.raises(InternalError, match="z-linear"):
                majorant_solve(a, b, Series.variable(V, 5, "w", exact=False),
                               1, -1, 1, 0, 0, None, None, 5)
