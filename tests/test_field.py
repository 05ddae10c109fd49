import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holonorm.algebra import INFINITY, Series, _compose_near_identity, gauss
from holonorm.errors import (
    ArityError,
    FlowOrderError,
    NotInvertibleError,
    OrderGuaranteeError,
)
from holonorm.field import (
    JetMap,
    VectorField,
    _apply_capped,
    apply_field,
    bracket,
    flow,
    jet_inverse,
    pushforward,
    solve_under,
)

from helpers import (
    gr,
    near_identity_step,
    nfgen_field,
    rand_coeff,
    rand_linear_jet,
    rand_preserves_e_jet,
    rand_series,
    raw_rows,
    reference_bracket,
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


COEFFS = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)).map(
    lambda t: gr(Fraction(t[0], t[2]), Fraction(t[1], t[2])))


@st.composite
def components(draw):
    """A series in (z, w) of up to five terms: a polynomial, or a jet of
    its own cap 0-6 (a cap-0 jet has no known derivative)."""
    exact = draw(st.booleans())
    cap = draw(st.integers(0, 6))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= cap)
    return Series(V, cap, draw(st.dictionaries(exps, COEFFS, max_size=5)), exact=exact)


class TestBracket:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(components(), components(), components(), components())
    def test_matches_series_composition(self, xp, xq, yp, yq):
        # terms, cap and exact flag of each component, over every mix of
        # exact and jet components with unequal caps
        x, y = VectorField(xp, xq), VectorField(yp, yq)
        try:
            want = reference_bracket(x, y)
        except OrderGuaranteeError:
            with pytest.raises(OrderGuaranteeError):
                bracket(x, y)
            return
        got = bracket(x, y)
        for g, w in ((got.p, want.p), (got.q, want.q)):
            assert (g.packed, g.cap, g.exact) == (w.packed, w.cap, w.exact)

    def test_variable_lists_must_agree(self):
        x = vf({(1, 0): 1}, {})
        y = VectorField(Series(("u", "v"), 4, {(0, 1): 1}), Series.zero(("u", "v"), 4))
        with pytest.raises(ArityError):
            bracket(x, y)

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


@st.composite
def corrections(draw):
    """One to three terms of degree 2-5, of order drawn first: two moved
    components mostly differ in the least degree their steps raise."""
    low = draw(st.integers(2, 4))
    n = draw(st.integers(0, low))
    exps = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: low < sum(e) <= 5)
    return {(n, low - n): draw(COEFFS.filter(bool)),
            **draw(st.dictionaries(exps, COEFFS, max_size=2))}


@st.composite
def kill_steps(draw):
    """A sparse near-identity step in the style of
    `helpers.near_identity_step`: the identity, z + dz, w + dw or both
    moved; exact, or a jet of its own cap 2-9."""
    moved = draw(st.sampled_from(["none", "z", "w", "both"]))
    f = {(1, 0): gr(1), **(draw(corrections()) if moved in ("z", "both") else {})}
    g = {(0, 1): gr(1), **(draw(corrections()) if moved in ("w", "both") else {})}
    h = JetMap(Series(V, 5, f, exact=True), Series(V, 5, g, exact=True))
    cap = draw(st.one_of(st.none(), st.integers(2, 9)))
    return h if cap is None else h.as_jet(cap)


@st.composite
def kill_fields(draw):
    """A field of up to six terms per component, a constant term (X(0) !=
    0) allowed: a polynomial, or a jet of its own cap 1-9."""
    exact, cap = draw(st.booleans()), draw(st.integers(1, 9))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: sum(e) <= cap)
    return VectorField(*(Series(V, cap, draw(st.dictionaries(exps, COEFFS, max_size=6)),
                                exact=exact) for _ in V))


class TestPushforwardOfKillSteps:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kill_steps(), kill_fields(), st.data())
    def test_matches_reference(self, h, x, data):
        # caps at the guard known = min(cap X, cap h - (X(0) != 0)), one
        # below and one above it, and the default
        known = min(x.cap(), h.cap() - (0 if x.vanishes_at_origin() else 1))
        near = [] if known == INFINITY else [known - 1, known, known + 1]
        cap = data.draw(st.sampled_from([None, 1, 4] + [c for c in near if c >= 0]))
        got = _outcome(pushforward, h, x, cap=cap)
        assert got == _outcome(reference_pushforward, h, x, cap=cap)
        if isinstance(got, list):
            # term order: that of solving Dh . X settled first
            y = pushforward(h, x, cap=cap)
            c = y.p.cap
            rhs = raw_rows([_apply_capped(x, h.f, c).packed, _apply_capped(x, h.g, c).packed])
            want = solve_under(V, (h.f.packed, h.g.packed), rhs, c)
            assert [list(s.packed) for s in (y.p, y.q)] == [list(s.packed) for s in want]

    def test_cancelled_term_keeps_the_place_of_settling_first(self):
        # X(z + c w^2) = P + 2c w Q cancels at w^2, where the solve's spread
        # of z then adds -c w^2: it follows z^2, as when Dh . X was settled
        # before the solve
        c = gr(1, 2)
        h = JetMap(Series(V, 2, {(1, 0): gr(1), (0, 2): c}, exact=True),
                   Series.variable(V, 1, "w"))
        x = vf({(1, 0): 1, (0, 2): -2 * c, (2, 0): 1}, {(0, 1): 1})
        y = pushforward(h, x, cap=4)
        assert list(y.p.terms) == [(1, 0), (2, 0), (0, 2), (1, 2), (0, 4)]
        assert _outcome(pushforward, h, x, cap=4) == _outcome(reference_pushforward, h, x, cap=4)


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

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_refused(self, order):
        # order 0 used to raise "jet map has singular linear part" and
        # order -1 "negative truncation cap"
        with pytest.raises(OrderGuaranteeError,
                           match=rf"^order {order}: the flow needs order >= 1$"):
            flow(vf({(1, 1): 1}, {(0, 2): 1}), 1, order)

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
        sources = [Series(vars, cap + 2, g, exact=True) for g in comps]
        got = _compose_near_identity([images[v].packed for v in vars],
                                     [s.packed for s in sources], cap)
        want = reference_substitute_all(sources, images, cap)
        assert got == [w.packed for w in want]

    @pytest.mark.parametrize("cap", range(11))
    @pytest.mark.parametrize("seed", range(3))
    def test_slots_that_move_nothing_and_unequal_excess(self, seed, cap):
        # slots a -> a (an empty Taylor slot), b -> 0 (a full slot whose
        # image is zero), c -> c + eps of order 4 and d -> d + eps of order
        # 2 (excess 3 and 1): a term of degree cap - 2 or cap - 1 with a
        # power of d stays under the cap through d, though not through c
        vars = ("a", "b", "c", "d")
        rng = random.Random(f"slots:{seed}:{cap}")
        eps_c = {(0, 0, 4, 0): rand_coeff(rng), (1, 0, 3, 1): rand_coeff(rng)}
        eps_d = {(0, 0, 0, 2): rand_coeff(rng), (1, 0, 1, 1): rand_coeff(rng)}
        images = {"a": Series.variable(vars, 1, "a"), "b": Series.zero(vars, 1),
                  "c": Series.variable(vars, 1, "c") + Series(vars, 5, eps_c, exact=True),
                  "d": Series.variable(vars, 1, "d") + Series(vars, 5, eps_d, exact=True)}
        comps = [_rand_terms(rng, 4, 0, cap, 12) for _ in range(2)]
        for d in range(max(cap - 2, 1), cap + 1):
            comps[0][(d - 1, 0, 0, 1)] = rand_coeff(rng)  # a^(d-1) d
            comps[1][(0, 1, d - 2, 1) if d >= 2 else (0, 1, 0, 0)] = rand_coeff(rng)
        sources = [Series(vars, cap, g, exact=True) for g in comps]
        got = _compose_near_identity([images[v].packed for v in vars],
                                     [s.packed for s in sources], cap)
        want = reference_substitute_all(sources, images, cap)
        assert got == [w.packed for w in want]


class TestSolveUnder:
    def test_singular_linear_part_gives_none(self):
        # P = (z + w^2, z + z w): both components have linear part z
        comps = [Series(V, 4, t).packed
                 for t in ({(1, 0): gr(1), (0, 2): gr(1)}, {(1, 0): gr(1), (1, 1): gr(1)})]
        assert solve_under(V, comps, raw_rows([Series(V, 4, {(1, 0): gr(1)}).packed]), 4) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_general_linear_part_composes_back(self, seed):
        # Y o P = R through the cap, checked by substitution, in (z, zbar, u)
        rng = random.Random(500 + seed)
        vars, cap = ("z", "zbar", "u"), 5
        r = _rand_terms(rng, 3, 0, cap, 8)
        solved = None
        while solved is None:  # redraw a singular linear part
            comps = [{**_rand_terms(rng, 3, 1, 1, 3), **_rand_terms(rng, 3, 2, 4, 3)}
                     for _ in vars]
            solved = solve_under(vars, [Series(vars, cap, t).packed for t in comps],
                                 raw_rows([Series(vars, cap, r).packed]), cap)
        (y,) = solved
        images = {v: Series(vars, cap, t) for v, t in zip(vars, comps)}
        assert y.substitute(images, cap=cap) == Series(vars, cap, r)
