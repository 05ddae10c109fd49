import random
from fractions import Fraction

import pytest

from holonorm.algebra import Series, _compose_near_identity, gauss
from holonorm.errors import (
    ArityError,
    FlowOrderError,
    NotInvertibleError,
    OrderGuaranteeError,
)
from holonorm.field import (
    JetMap,
    VectorField,
    apply_field,
    bracket,
    flow,
    jet_inverse,
    pushforward,
)

from helpers import (
    gr,
    near_identity_step,
    nfgen_field,
    rand_coeff,
    rand_linear_jet,
    rand_preserves_e_jet,
    rand_series,
    reference_jet_inverse,
    reference_pushforward,
    reference_substitute_all,
    series,
    vf,
)

V = ("z", "w")


class TestApply:
    def test_euler(self):
        x = vf({(1, 0): 1}, {})
        a = series({(3, 0): 1}, cap=6)
        assert apply_field(x, a) == series({(3, 0): 3})

    def test_w_dz(self):
        x = vf({(0, 1): 1}, {})
        assert apply_field(x, Series.variable(V, 6, "z")) == series({(0, 1): 1})

    def test_weighted_model(self):
        # X = -2 z w dz + w^2 dw applied to z^2 w gives -3 z^2 w^2
        x = vf({(1, 1): -2}, {(0, 2): 1})
        a = series({(2, 1): 1}, cap=6)
        assert apply_field(x, a) == series({(2, 2): -3})


class TestBracket:
    def test_commuting_linear(self):
        x = vf({(1, 0): 1}, {})
        y = vf({}, {(0, 1): 1})
        assert bracket(x.as_jet(6), y.as_jet(6)).is_zero()

    def test_antisymmetry_self(self):
        rng = random.Random(9)
        for _ in range(10):
            x = VectorField(rand_series(rng, cap=6, max_deg=5),
                            rand_series(rng, cap=6, max_deg=5))
            assert bracket(x, x).is_zero()

    def test_commute_equation_first_line(self):
        # dz component of [X_N, L] for X_N = -p z w^k dz + (q w^{k+1} +
        # r w^{2k+1}) dw, L = f dz + w g dw reproduces
        # (-p z f_z + (q w + r w^{k+1}) f_w + p f + k p z g) w^k
        p, q, k, r = 1, 2, 1, 1
        xn = vf({(1, k): -p}, {(0, k + 1): q, (0, 2 * k + 1): r}, cap=14)
        rng = random.Random(2)
        z_s = Series.variable(V, 1, "z")
        w_s = Series.variable(V, 1, "w")
        for _ in range(6):
            f = rand_series(rng, cap=8, max_terms=3, max_deg=4)
            g = rand_series(rng, cap=8, max_terms=3, max_deg=4)
            ell = VectorField(f, (w_s * g).truncate(8))
            br = bracket(xn, ell)
            opw = (w_s * q + Series.monomial(V, 8, (0, k + 1), r)).truncate(8)
            expected = (
                -(z_s * f.derive("z")).scale(p)
                + opw * f.derive("w")
                + f.scale(p)
                + (z_s * g).scale(k * p)
            )
            expected = expected.mul_monomial((0, k))
            cap = min(br.p.cap, expected.cap)
            assert br.p.truncate(cap) == expected.truncate(cap)

    def test_jacobi(self):
        rng = random.Random(12)
        for _ in range(5):
            fields = [
                VectorField(
                    rand_series(rng, cap=8, max_terms=3, max_deg=4),
                    rand_series(rng, cap=8, max_terms=3, max_deg=4),
                )
                for _ in range(3)
            ]
            x, y, z = fields
            j = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            cap = min(j.p.cap, j.q.cap)
            assert j.p.truncate(cap).is_zero() and j.q.truncate(cap).is_zero()


class TestJetInverse:
    def test_identity(self):
        h = JetMap.identity(V, 6)
        hi = jet_inverse(h, cap=6)
        assert hi.f == h.f and hi.g == h.g

    def test_shear(self):
        z = Series.variable(V, 8, "z")
        w = Series.variable(V, 8, "w")
        h = JetMap(z + w * w, w)
        hi = jet_inverse(h, cap=8)
        assert hi.f == z - w * w and hi.g == w

    def test_composition_identity(self):
        z = Series.variable(V, 8, "z")
        w = Series.variable(V, 8, "w")
        h = JetMap(z + z * w, w + w * w)
        hi = jet_inverse(h, cap=8)
        comp = hi.compose(h.as_jet(8), cap=8)
        assert comp.f == z and comp.g == w

    def test_singular_rejected(self):
        w = Series.variable(V, 4, "w")
        with pytest.raises(NotInvertibleError):
            jet_inverse(JetMap(w, w), cap=4)


def _inverse_cases():
    """24 seeded (jet, cap) pairs over caps 1-12: kill-loop steps, jets
    preserving {w = 0}, and jets with a non-diagonal linear part."""
    rng = random.Random(61)
    builders = (near_identity_step, rand_preserves_e_jet, rand_linear_jet)
    return [
        pytest.param(builders[i % 3](rng, cap=12), 1 + i % 12, id=f"case{i}")
        for i in range(24)
    ]


class TestJetInverseAgainstReference:
    @pytest.mark.parametrize("h, cap", _inverse_cases())
    def test_matches_full_cap_reference(self, h, cap):
        new = jet_inverse(h, cap=cap)
        ref = reference_jet_inverse(h, cap=cap)
        for a, b in ((new.f, ref.f), (new.g, ref.g)):
            assert (a.terms, a.cap, a.exact) == (b.terms, b.cap, b.exact)

    @pytest.mark.parametrize("h, cap", _inverse_cases())
    def test_left_inverse_through_cap(self, h, cap):
        comp = jet_inverse(h, cap=cap).compose(h.as_jet(cap), cap=cap)
        ident = JetMap.identity(V, cap)
        assert comp.f == ident.f and comp.g == ident.g

    def test_cap_above_jet_rejected(self):
        h = rand_linear_jet(random.Random(3), cap=5)
        with pytest.raises(OrderGuaranteeError, match="order 7 exceeds guaranteed order 5"):
            jet_inverse(h, cap=7)


def _outcome(fn, *args, **kwargs):
    """(terms, cap, exact) of each component of the result, or the class
    of the precondition error raised."""
    try:
        out = fn(*args, **kwargs)
    except (ArityError, NotInvertibleError, OrderGuaranteeError) as exc:
        return type(exc)
    parts = (out.p, out.q) if isinstance(out, VectorField) else (out.f, out.g)
    return [(s.terms, s.cap, s.exact) for s in parts]


def _kill_step_with_linear_part(cap=None):
    """The kill-loop step (z + c w, w): its linear part is not the identity.
    Exact without a cap, a jet through `cap` otherwise."""
    z = Series.variable(V, 1, "z")
    w = Series.variable(V, 1, "w")
    h = JetMap(z + w.scale(gr(2, -1)), w)
    return h if cap is None else h.as_jet(cap)


def _edge_maps():
    """Cap-8 maps of every builder, and the kill step exact and as a jet."""
    rng = random.Random(67)
    return {
        "step": near_identity_step(rng, cap=8),
        "preserves_e": rand_preserves_e_jet(rng, cap=8),
        "linear": rand_linear_jet(rng, cap=8),
        "kill_linear": _kill_step_with_linear_part(cap=8),
        "kill_linear_exact": _kill_step_with_linear_part(),
    }


def _edge_fields():
    """Exact fields vanishing at the origin or not, and a cap-9 jet with a
    constant term."""
    rng = random.Random(69)
    return {
        "model": nfgen_field(gr(-2), 1, 1, cap=12),
        "constant": vf({(0, 0): gr(1, 1), (1, 1): 2}, {(0, 2): 1, (1, 0): gr(0, -1)}),
        "jet": VectorField(rand_series(rng, cap=9, max_terms=6, max_deg=5)
                           + Series.constant(V, 9, gr(-1, 2), exact=False),
                           rand_series(rng, cap=9, max_terms=6, max_deg=5)),
    }


# caps 0 and 1, none, in range, at the maps' cap and above it
EDGE_CAPS = (0, 1, None, 5, 8, 10)


class TestJetInverseEdgeCaps:
    @pytest.mark.parametrize("cap", EDGE_CAPS)
    @pytest.mark.parametrize("name", sorted(_edge_maps()))
    def test_matches_reference(self, name, cap):
        h = _edge_maps()[name]
        assert _outcome(jet_inverse, h, cap=cap) == _outcome(reference_jet_inverse, h, cap=cap)


class TestPushforwardAgainstReference:
    @pytest.mark.parametrize("h, cap", _inverse_cases())
    def test_model_field(self, h, cap):
        x = nfgen_field(gr(-2), 1, 1, cap=14)
        assert _outcome(pushforward, h, x, cap=cap) == _outcome(reference_pushforward, h, x, cap=cap)

    @pytest.mark.parametrize("cap", EDGE_CAPS)
    @pytest.mark.parametrize("field", sorted(_edge_fields()))
    @pytest.mark.parametrize("name", sorted(_edge_maps()))
    def test_edge_cases(self, name, field, cap):
        h, x = _edge_maps()[name], _edge_fields()[field]
        assert _outcome(pushforward, h, x, cap=cap) == _outcome(reference_pushforward, h, x, cap=cap)

    def test_mismatched_variables_rejected(self):
        x = VectorField(Series.variable(("u", "v"), 4, "u"), Series.zero(("u", "v"), 4))
        with pytest.raises(ArityError):
            pushforward(JetMap.identity(V, 4), x, cap=4)


class TestPushforward:
    def test_identity(self):
        x = vf({(1, 1): 1}, {(0, 2): 1})
        assert pushforward(JetMap.identity(V, 8), x, cap=8) == x.as_jet(8)

    def test_linear_scaling_euler(self):
        z = Series.variable(V, 8, "z")
        w = Series.variable(V, 8, "w")
        h = JetMap(z.scale(2), w)
        x = vf({(1, 0): 1}, {})
        assert pushforward(h, x, cap=8) == x.as_jet(8)

    def test_homogeneous_step_increment(self):
        # the layer-(k+l) increment of the inverse transformation
        # z = x + y^l f(x), w = y + y^{l+1} g(x) applied to
        # X_k = A z w^k dz + B w^{k+1} dw is
        # ((A - l B) f - A x f' + k A x g) y^{k+l} dx
        #   + ((k - l) B g - A x g') y^{k+l+1} dy
        # for A = B = 1, k = 1, l = 1, f = x^2, g = x
        x_field = vf({(1, 1): 1}, {(0, 2): 1})
        z = Series.variable(V, 8, "z")
        w = Series.variable(V, 8, "w")
        h = JetMap(z + (z * z * w).truncate(8), w + (z * w * w).truncate(8))
        hinv = jet_inverse(h, cap=8)
        y = pushforward(hinv, x_field, cap=8)
        diff_p = y.p - x_field.p.as_jet(y.p.cap)
        diff_q = y.q - x_field.q.as_jet(y.q.cap)
        # layer k+l = 2: dz coefficient of w^2; dy coefficient of w^3
        # ((1 - 1) x^2 - x 2x + 1 x x) w^2 = -x^2 w^2
        assert diff_p.coefficient((2, 2)) == gauss(-1)
        # ((1-1) x - x) w^3 = -x w^3
        assert diff_q.coefficient((1, 3)) == gauss(-1)

    def test_functorial(self):
        rng = random.Random(21)
        x = vf({(1, 1): 1, (2, 2): 1}, {(0, 2): 1})
        h1 = rand_preserves_e_jet(rng, cap=8)
        h2 = rand_preserves_e_jet(rng, cap=8)
        lhs = pushforward(h2, pushforward(h1, x, cap=8), cap=8)
        rhs = pushforward(h2.compose(h1, cap=8), x, cap=8)
        cap = 7
        assert lhs.p.truncate(cap) == rhs.p.truncate(cap)
        assert lhs.q.truncate(cap) == rhs.q.truncate(cap)


class TestFlow:
    def test_geometric_closed_form(self):
        # flow of w^2 dw: w -> w / (1 - t w)
        x = vf({}, {(0, 2): 1})
        h = flow(x, 1, 4)
        assert h.g == series({(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1})

    def test_zero_time(self):
        x = vf({(1, 1): 1}, {(0, 2): 1})
        h = flow(x, 0, 5)
        assert h.f == Series.variable(V, 5, "z")
        assert h.g == Series.variable(V, 5, "w")

    def test_group_law(self):
        x = vf({(1, 1): 1}, {(0, 2): 1})
        h1 = flow(x, 1, 8)
        h2 = flow(x, -1, 8)
        comp = h1.compose(h2, cap=8)
        assert comp.f == Series.variable(V, 8, "z")
        assert comp.g == Series.variable(V, 8, "w")

    def test_additivity(self):
        x = vf({(1, 1): 1}, {(0, 2): 1})
        lhs = flow(x, Fraction(1, 2), 7).compose(flow(x, Fraction(1, 3), 7), cap=7)
        rhs = flow(x, Fraction(5, 6), 7)
        assert lhs.f == rhs.f and lhs.g == rhs.g

    def test_precondition(self):
        with pytest.raises(FlowOrderError):
            flow(vf({(1, 0): 1}, {}), 1, 4)
        with pytest.raises(FlowOrderError):
            flow(vf({}, {(0, 1): 1}), 1, 4)

    def test_commuting_flow_preserves_field(self):
        # [X, L] = 0 implies the flow of L preserves X
        x = vf({(1, 1): 1}, {(0, 2): 1})  # z w dz + w^2 dw
        ell = vf({(1, 1): 2}, {(0, 2): 2})  # a multiple commutes
        assert bracket(x.as_jet(10), ell.as_jet(10)).is_zero()
        h = flow(ell, Fraction(1, 2), 8)
        y = pushforward(h, x, cap=8)
        assert y.p.truncate(7) == x.p.as_jet(7)
        assert y.q.truncate(7) == x.q.as_jet(7)


def _rand_terms(rng, nvars, low, high, count):
    """Up to `count` random terms of total degree low..high."""
    terms = {}
    for _ in range(count):
        e = tuple(rng.randint(0, high) for _ in range(nvars))
        if low <= sum(e) <= high:
            terms[e] = rand_coeff(rng)
    return terms


class TestComposeNearIdentity:
    """G o (x + eps) by the one expansion equals the reference substitution
    of the images x + eps into G by image powers, truncated at the cap. An
    image whose own variable cancels or is scaled is a full slot."""

    @staticmethod
    def eps_of(rng, nvars, kind):
        if kind == "empty":
            return {}
        if kind == "c w":  # a kill-loop step z + c w
            return {(0, 1) + (0,) * (nvars - 2): rand_coeff(rng)}
        low = 1 if kind == "order 1" else 2
        terms = _rand_terms(rng, nvars, low + 1, 4, 3)
        terms[tuple(int(i == nvars - 1) * low for i in range(nvars))] = rand_coeff(rng)
        return terms

    @pytest.mark.parametrize("cap", range(13))
    @pytest.mark.parametrize("kinds", [
        ("c w", "empty"),
        ("order 1", "order 2"),
        ("order 2", "order 2"),
        ("empty", "order 2"),
        ("order 1", "order 2", "empty"),
        ("order 2", "empty", "order 1"),
    ])
    def test_matches_substitution(self, kinds, cap):
        vars = V if len(kinds) == 2 else ("z", "zbar", "u")
        rng = random.Random(f"{kinds}:{cap}")
        eps = [self.eps_of(rng, len(vars), kind) for kind in kinds]
        comps = [_rand_terms(rng, len(vars), 0, cap + 2, 12) for _ in range(2)]
        images = {v: Series.variable(vars, 1, v) + Series(vars, 4, t, exact=True)
                  for v, t in zip(vars, eps)}
        got = _compose_near_identity([images[v].terms for v in vars], comps, cap)
        sources = [Series(vars, cap + 2, g, exact=True) for g in comps]
        want = reference_substitute_all(sources, images, cap)
        assert got == [w.terms for w in want]
