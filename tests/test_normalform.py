import random
from fractions import Fraction

import pytest

from holonorm import normalform
from holonorm.algebra import Series, gauss
from holonorm.backend import GaussRational
from holonorm.errors import (
    CertificateError,
    InconsistentTangencyError,
    InternalError,
    OrderGuaranteeError,
    WrongBranchError,
)
from holonorm.field import JetMap, VectorField, pushforward
from holonorm.hypersurface import RealHypersurface, tangency_residual, transport
from holonorm.manifold import default_generic_seed, realize_b_zero, realize_generic
from holonorm.majorant import majorant_solve
from holonorm.normalform import (
    _abs_bound,
    _b_zero_stage2,
    _bound_series,
    _eig_w,
    _eig_z,
    _fold_steps,
    _kill_to_resonant,
    ALPHA_ZERO,
    B_ZERO,
    GENERIC,
    ORD0,
    classify_case,
    homological_matrix,
    homological_rank_deficient,
    leading_data,
    majorant_certificate,
    majorant_functional_a,
    majorant_functional_b,
    majorant_system,
    n1_of,
    n2_of,
    normalize_1d,
    normalize_alpha_zero,
    normalize_b_zero,
    normalize_generic,
    normalize_ord0,
    prenormalize,
)

from helpers import (
    gr,
    nf14_field,
    nfgen_field,
    rand_preserves_e_jet,
    reference_b_zero_stage2,
    reference_kill_to_resonant,
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
        assert res.resonance.beyond_model() == []

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


class TestNormalizeOrd0:
    def test_identity_on_model(self):
        x = vf({(0, 2): 1}, {})
        h, target = normalize_ord0(x, 8)
        assert h.f == Series.variable(V, 8, "z", exact=False)
        assert h.g == Series.variable(V, 8, "w", exact=False)

    def test_z_correction(self):
        x = vf({(0, 2): 1, (1, 2): 1}, {}, cap=14)
        h, target = normalize_ord0(x, 9)
        out = pushforward(h, x, cap=9)
        assert out.p.truncate(8) == target.p.truncate(8)
        assert out.q.truncate(8).is_zero()

    def test_dw_absorbed(self):
        x = vf({(0, 2): 1}, {(0, 3): 1}, cap=14)
        h, target = normalize_ord0(x, 9)
        out = pushforward(h, x, cap=9)
        assert out.p.truncate(8) == target.p.truncate(8)
        assert out.q.truncate(8).is_zero()


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
        h2, x2 = _b_zero_stage2(pre.field, k, q, r, order)
        t = x2.q.coefficient((0, 2 * (k + q) + 1))
        c = [x2.p.coefficient((1, k + j)) / gauss(0, 1) for j in range(1, q + 1)]
        assert q == 1 and r.is_real() and t.is_real()
        h_tot = h2.compose(pre.transform, cap=order)

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
        _, steps, xf = _kill_to_resonant(x, order, variant)
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
        for run in (_kill_to_resonant, reference_kill_to_resonant):
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
            _kill_to_resonant(x, 6)

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

    @pytest.mark.parametrize("seed, order", [(97, 7), (102, 9), (105, 8), (107, 8)])
    def test_b_zero_stage2(self, seed, order):
        k, q, r, t, c = 1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)]
        h = rand_preserves_e_jet(random.Random(seed), cap=10)
        x = pushforward(h, nf14_field(k, q, r, t, c), cap=10)
        pre = prenormalize(x, order)
        ghat = pre.field.q
        q = min(e[1] for e in ghat.terms) - (k + 1)
        r = ghat.coefficient((0, k + q + 1))
        h2, x2 = _b_zero_stage2(pre.field, k, q, r, order)
        href, xref = reference_b_zero_stage2(pre.field, k, q, r, order)
        assert _same_map(h2, href) and _same_field(x2, xref)
        assert h2 != JetMap.identity(V, order)


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
        from holonorm import normalform

        rng = random.Random(47)
        model = nfgen_field(gr(Fraction(-1, 2)), 1, 1, cap=14)
        x = pushforward(rand_preserves_e_jet(rng, cap=12), model, cap=12)
        order = 9
        solve = normalform.majorant_solve
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

        monkeypatch.setattr(normalform, "majorant_solve", damaged)
        with pytest.raises(InternalError, match="homological solve failed verification"):
            majorant_certificate(x, order)
        assert halved

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            majorant_certificate(vf({(1, 1): gauss(0, 1)}, {(0, 2): 1}), 8)

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        x = vf({(1, 1): -1}, {(0, 2): 1, (2, 2): 1}, cap=12)
        with pytest.raises(OrderGuaranteeError, match=f"order {order}: "):
            majorant_certificate(x, order)

    def test_solved_map_conjugates_model_to_input(self):
        # independent oracle: with r = 0 (no one-variable change in the
        # chart) the solved jets give H0 = (z + F, w + w G) with
        # pushforward(H0, X_N) equal to the scaled input
        rng = random.Random(53)
        model = nfgen_field(gr(-1), 1, 0, cap=14)
        h = rand_preserves_e_jet(rng, cap=12)
        x = pushforward(h, model, cap=12)
        rep = majorant_certificate(x, 8)
        assert rep.r == gr(0)
        z_s = Series.variable(V, 1, "z", exact=True)
        w_s = Series.variable(V, 1, "w", exact=True)
        h0 = JetMap(z_s + rep.f_jet, (w_s + (w_s * rep.g_jet).truncate(8)))
        xn = vf({(1, 1): -rep.p}, {(0, 2): rep.q}, cap=12)
        out = pushforward(h0, xn, cap=8)
        xs = x.scale(gr(rep.q))  # input scaled so B = q
        assert out.p.truncate(7) == xs.p.truncate(7)
        assert out.q.truncate(7) == xs.q.truncate(7)

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

    def test_domination_is_entrywise(self):
        x = vf({(1, 1): -1}, {(0, 2): 1, (2, 2): 1}, cap=14)
        rep = majorant_certificate(x, 8)
        for jet, star in ((rep.f_jet, rep.f_star), (rep.g_jet, rep.g_star)):
            for e, c in jet.terms.items():
                bound = star.coefficient(e)
                assert bound.is_real() and bound.re >= 0
                assert c.modulus_squared() <= bound.re**2


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
        a = series({(1, 0): gr(1), (2, 1): gr(1)}, cap=5)
        with pytest.raises(InternalError, match="z-linear"):
            majorant_solve(a, series({}, cap=5), Series.variable(V, 5, "w", exact=False),
                           1, -1, 1, 0, 0, None, None, 5)
