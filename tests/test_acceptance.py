"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic at desk scale (jets of total degree <= 15);
tolerances are exact zero / exact equality throughout.
"""

import random
from fractions import Fraction

from holonorm.algebra import Series, gauss
from holonorm.centralizer import divergence_probe, growth_verdict, jet_centralizer
from holonorm.field import apply_field, pushforward
from holonorm.hypersurface import (
    HS_VARS,
    RealHypersurface,
    tangency_residual,
    transport,
)
from holonorm.manifold import (
    default_generic_seed,
    realize_alpha_zero,
    realize_b_zero,
    realize_generic,
    realize_nf7,
)
from holonorm.normalform import (
    classify_case,
    majorant_certificate,
    n1_of,
    n2_of,
    normalize_alpha_zero,
    normalize_b_zero,
    normalize_generic,
    normalize_ord0,
    prenormalize,
)

from helpers import (
    gr,
    homological_rank_deficient,
    nf14_field,
    nfgen_field,
    rand_preserves_e_jet,
    rand_series,
    vf,
)

V = ("z", "w")
MUS = [gr(-1), gr(-2), gr(Fraction(-1, 2))]


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS — {message}")


# ----------------------------------------------------------------------
def test_criterion_1_realizations():
    """NF7-NF14 realizations have exactly vanishing residuals at order 10."""
    order = 10
    count = 0

    for k in (1, 2):  # NF7
        m = realize_nf7(k, order)
        x = vf({(0, k): 1}, {}, cap=order + 1)
        assert tangency_residual(x, m, order).is_zero()
        count += 1

    c_data = Series(("z", "zbar"), order, {(1, 1): 1}, exact=True)
    for k in (1, 2):  # NF8 (paper indexing K = k + 1 in {2, 3})
        for r in (0, 1):
            m = realize_alpha_zero(k, r, c_data, order)
            q = {(0, k + 1): gr(1)}
            if r:
                q[(0, 2 * k + 1)] = gr(r)
            x = vf({}, q, cap=order + 1)
            assert tangency_residual(x, m, order).is_zero()
            count += 1

    m = realize_alpha_zero(0, 0, c_data, order)  # NF9: w dw
    x = vf({}, {(0, 1): 1}, cap=order + 1)
    assert tangency_residual(x, m, order).is_zero()
    count += 1

    # NF10 requires Im mu != 0; with the exact rational mu grid its field
    # shape coincides with NF11 at eta = 0 / NF12 below, so it is covered
    # by those rows.
    for mu in MUS:  # NF11 (k >= 1) and NF12 (k = 0)
        for k in (0, 1, 2):
            etas = (0,) if k == 0 else (0, 1)
            for eta in etas:
                seed = default_generic_seed(mu, k, order + k)
                m = realize_generic(mu, k, gr(eta), seed, order)
                x = nfgen_field(mu, k, gr(eta), cap=order + 1)
                assert tangency_residual(x, m, order).is_zero()
                count += 1

    # NF13: i z dz with v = u |z|^2
    m = RealHypersurface(Series(HS_VARS, order, {(1, 1, 1): 1}, exact=True))
    x = vf({(1, 0): gauss(0, 1)}, {}, cap=order + 1)
    assert tangency_residual(x, m, order).is_zero()
    count += 1

    cau = Series.variable(("t",), order, "t", exact=True)
    for k in (1, 2):  # NF14
        for q in (1, 2):
            for t in (0, 1):
                cs = [0] * q
                m = realize_b_zero(k, q, 1, t, cs, cau, order)
                x = nf14_field(k, q, 1, t, cs, cap=order + 1)
                assert tangency_residual(x, m, order).is_zero()
                count += 1
    # one NF14 instance with a nonzero c_1
    m = realize_b_zero(1, 1, 1, 1, [1], cau, order)
    x = nf14_field(1, 1, 1, 1, [1], cap=order + 1)
    assert tangency_residual(x, m, order).is_zero()
    count += 1

    ok(1, f"{count} realizations across NF7-NF14, residuals exactly zero at order {order}")


# ----------------------------------------------------------------------
def test_criterion_2_prenormal_support():
    """Randomized generic inputs land exactly inside the allowed support."""
    order = 10
    rng = random.Random(2024)
    lam_cases = [
        ("lambda=-1/2", gr(-2), 1),  # lambda = B/A = -1/2
        ("lambda=-2", gr(Fraction(-1, 2)), 1),
        ("lambda=i", None, 1),
    ]
    for label, mu, k in lam_cases:
        for trial in range(20):
            if mu is None:
                # lambda = i: A = -i, B = 1, complete model
                model = vf({(1, k): gauss(0, -1)}, {(0, k + 1): 1}, cap=order + 2)
                lam = gr(1) / gauss(0, -1)
            else:
                r = gr(trial % 2)
                model = nfgen_field(mu, k, r, cap=order + 2)
                lam = gr(1) / mu
            h = rand_preserves_e_jet(rng, cap=order)
            x = pushforward(h, model, cap=order)
            res = prenormalize(x, order)
            allowed = {("dz", (1, k)), ("dw", (0, k + 1))}
            for ell in range(0, order - k + 1):
                n1 = n1_of(lam, ell)
                if n1.is_rational_integer() and n1.re >= 0 and ell > 0:
                    allowed.add(("dz", (int(n1.re), k + ell)))
                n2 = n2_of(lam, k, ell)
                if n2.is_rational_integer() and n2.re >= 0:
                    allowed.add(("dw", (int(n2.re), k + ell + 1)))
            support = set(res.field.support())
            assert support <= allowed, (label, trial, support - allowed)
            if mu is None:
                # Remark: the prenormal form becomes complete
                assert res.field == model.scale(gr(1)).truncate(order).as_jet()
    ok(2, "60 randomized inputs: support inside the allowed set; lambda = i complete")


# ----------------------------------------------------------------------
def test_criterion_3_resonance_arithmetic():
    """n1(0) = 1, n2(0) = k*lambda; rank deficiency matches determinants."""
    for k in range(1, 5):
        for lam in (gr(Fraction(-1, 2)), gr(-2), gr(2, 1)):
            assert n1_of(lam, 0) == gr(1)
            assert n2_of(lam, k, 0) == lam * k
    samples = [
        (gr(1), gr(1), 1),
        (gr(-2), gr(1), 2),
        (gr(0, 1), gr(1), 1),
        (gr(Fraction(3, 2)), gr(Fraction(-1, 2)), 3),
    ]
    checked = 0
    for a, b, k in samples:
        lam = b / a
        for ell in range(0, 11):
            for n in range(0, 11):
                here = homological_rank_deficient(a, b, k, ell, n)
                brute = (
                    (a * n - (a - b * ell)) * (a * n - b * (k - ell))
                ).is_zero()
                predicate = gr(n) == n1_of(lam, ell) or gr(n) == n2_of(lam, k, ell)
                assert here == brute == predicate
                checked += 1
    ok(3, f"n_i(0) values for k <= 4 and {checked} rank-deficiency checks agree")


# ----------------------------------------------------------------------
def test_criterion_4_eigenvalue_law():
    """f -> L0(f) + p f has eigenvalue q b - p (a - 1) on z^a w^b."""
    for p, q in ((1, 2), (2, 3)):
        l0 = vf({(1, 0): -p}, {(0, 1): q}, cap=24)
        for a in range(0, 11):
            for b in range(0, 11 - a):
                mono = Series.monomial(V, 22, (a, b), 1)
                out = apply_field(l0, mono) + mono.scale(p)
                assert out == mono.scale(q * b - p * (a - 1))
    ok(4, "eigenvalue q*b - p*(a-1) exact for all a, b <= 10 and both (p, q)")


# ----------------------------------------------------------------------
def test_criterion_5_divergence_witness():
    """a_1 = -i; |a_{l+1}|^2 = (l!)^2 exactly; geometric control detected."""
    rep = divergence_probe(1, 15)
    assert rep.coefficients[0] == gauss(0, -1)
    fact = 1
    for ell in range(1, 15):
        fact *= ell
        # a_{l+1} is the coefficient of w^{l+1}
        assert rep.moduli_squared[ell] == Fraction(fact) ** 2
    assert rep.verdict == "factorial"
    assert rep.ode_verified and rep.commutation_verified
    geom = [Fraction(2) ** (2 * l) for l in range(1, 16)]
    assert growth_verdict(geom) == "geometric"
    ok(5, "a_1 = -i, |a_{l+1}|^2 = (l!)^2 for l <= 14, control sequence geometric")


# ----------------------------------------------------------------------
def test_criterion_6_centralizer_dimensions():
    """NF14 jets: dimension exactly 2 at orders 8-12; r = 0 grows."""
    x = nf14_field(1, 1, 1, 0, [0], cap=18)
    for order in (8, 9, 10, 11, 12):
        assert len(jet_centralizer(x, order)) == 2
    x0 = vf({(1, 1): gauss(0, 1)}, {}, cap=16)
    dims = [len(jet_centralizer(x0, order)) for order in range(6, 11)]
    assert all(d2 > d1 for d1, d2 in zip(dims, dims[1:]))
    ok(6, f"NF14 dimension 2 at orders 8-12; r = 0 dims {dims} strictly increasing")


# ----------------------------------------------------------------------
def test_criterion_7_majorant():
    """10 randomized mu in Q^- inputs pass the exact domination check."""
    rng = random.Random(77)
    order = 10
    holds = 0
    for trial in range(10):
        mu = MUS[trial % 3]
        r = gr(trial % 2)
        model = nfgen_field(mu, 1, r, cap=order + 4)
        h = rand_preserves_e_jet(rng, cap=order + 2)
        x = pushforward(h, model, cap=order + 2)
        rep = majorant_certificate(x, order)
        assert rep.holds
        holds += 1
    ok(7, f"{holds}/10 majorant certificates hold at order {order} (exact squares)")


# ----------------------------------------------------------------------
def test_criterion_8_algebra_kernel():
    """Ring axioms, Leibniz, substitution associativity, conjugation: 200+ each."""
    rng = random.Random(88)

    def rand(cap=6):
        return rand_series(rng, cap=cap, max_terms=4, max_deg=4)

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert ((a * b) * c).truncate(6) == (a * (b * c)).truncate(6)
        assert a * (b + c) == a * b + a * c

    for _ in range(200):
        a, b = rand(), rand()
        lhs = (a * b).derive("z")
        rhs = a.derive("z") * b + a * b.derive("z")
        assert lhs.truncate(5) == rhs.truncate(5)

    for _ in range(200):
        a = rand()
        f = rand_series(rng, cap=6, max_terms=3, max_deg=2)
        g = rand_series(rng, cap=6, max_terms=3, max_deg=2)
        f = Series(V, 6, {e: c for e, c in f.terms.items() if sum(e) >= 1})
        g = Series(V, 6, {e: c for e, c in g.terms.items() if sum(e) >= 1})
        lhs = a.substitute({"z": f}).substitute({"z": g})
        rhs = a.substitute({"z": f.substitute({"z": g})})
        cap = min(lhs.cap, rhs.cap)
        assert lhs.truncate(cap) == rhs.truncate(cap)

    pairing = {"z": "w", "w": "z"}
    for _ in range(200):
        a, b = rand(), rand()
        assert a.conjugate(pairing).conjugate(pairing) == a
        assert (a + b).conjugate(pairing) == a.conjugate(pairing) + b.conjugate(pairing)
        lhs = (a * b).conjugate(pairing)
        rhs = a.conjugate(pairing) * b.conjugate(pairing)
        assert lhs == rhs
    ok(8, "ring axioms, Leibniz, substitution associativity, conjugation x200 each")


# ----------------------------------------------------------------------
def test_criterion_9_covariance():
    """Case classification and tangency vanishing survive transport."""
    rng = random.Random(99)
    order = 8
    cases = [
        vf({(0, 2): 1}, {}, cap=order + 4),                      # ORD0
        vf({}, {(0, 2): 1, (0, 3): 1}, cap=order + 4),           # ALPHA_ZERO
        nf14_field(1, 1, 1, 0, [0], cap=order + 4),              # B_ZERO
        nfgen_field(gr(-1), 1, 0, cap=order + 4),                # GENERIC
    ]
    tangent_pair = (
        vf({}, {(0, 1): 1}, cap=order + 4),
        RealHypersurface(Series(HS_VARS, order + 2, {(1, 1, 1): 1}, exact=True)),
    )
    for trial in range(20):
        h = rand_preserves_e_jet(rng, cap=order + 2)
        assert all(e[1] >= 1 for e in h.g.terms)  # h maps {w = 0} into itself
        for x in cases:
            assert classify_case(pushforward(h, x, cap=order + 2)) == classify_case(x)
        x, m = tangent_pair
        assert tangency_residual(x, m, order).is_zero()
        xt = pushforward(h, x, cap=order + 2)
        mt = transport(h, m, order + 1)
        assert tangency_residual(xt, mt, order).is_zero()
    ok(9, "20 jets: classification invariant, tangency preserved through order 8")


# ----------------------------------------------------------------------
def test_criterion_10_idempotence_uniqueness():
    """normalize_* are fixed points; independent runs agree exactly."""
    order = 9
    ident_f = Series.variable(V, order, "z", exact=False)
    ident_g = Series.variable(V, order, "w", exact=False)

    # ORD0 fixed point
    x7 = vf({(0, 2): 1}, {}, cap=order + 4)
    h = normalize_ord0(x7, order).transform
    assert h.f == ident_f.truncate(order) and h.g == ident_g.truncate(order)

    # GENERIC fixed point on its own output
    mu = gr(-2)
    xg = nfgen_field(mu, 1, gr(1), cap=order + 4)
    seed = default_generic_seed(mu, 1, order + 1)
    mg = realize_generic(mu, 1, gr(1), seed, order + 1)
    res = normalize_generic(xg, mg, order)
    assert res.transform.f == ident_f and res.transform.g == ident_g
    assert res.params["eta"] == gr(1)

    # ALPHA_ZERO fixed point
    xa = vf({}, {(0, 2): 1, (0, 3): 1}, cap=order + 4)
    res_a = normalize_alpha_zero(xa, order)
    assert res_a.transform.f == ident_f and res_a.transform.g == ident_g
    res_a2 = normalize_alpha_zero(res_a.field.as_jet(order), order)
    assert res_a2.field == res_a.field

    # B_ZERO fixed point
    xb = nf14_field(1, 1, 1, 0, [0], cap=order + 4)
    cau = Series.variable(("t",), order, "t", exact=True)
    mb = realize_b_zero(1, 1, 1, 0, [0], cau, order)
    res_b = normalize_b_zero(xb, mb, order)
    assert res_b.transform.f == ident_f and res_b.transform.g == ident_g

    # uniqueness: two independent runs (different removable-term orderings)
    rng = random.Random(1010)
    model = nfgen_field(mu, 1, gr(1), cap=order + 4)
    h = rand_preserves_e_jet(rng, cap=order + 2)
    xt = pushforward(h, model, cap=order + 2)
    mt = transport(h, realize_generic(mu, 1, gr(1),
                                      default_generic_seed(mu, 1, order + 2),
                                      order + 2), order + 1)
    r1 = normalize_generic(xt, mt, order, variant="w_first")
    r2 = normalize_generic(xt, mt, order, variant="z_first")
    assert r1.params == r2.params
    assert r1.field == r2.field
    ok(10, "fixed points exact; two independent orderings give identical parameters")
