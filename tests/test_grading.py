import random
from fractions import Fraction

from holonorm.algebra import Series, gauss
from holonorm.grading import (
    WeightSystem,
    component,
    is_cap_window,
    is_homogeneous,
    weighted_order,
)

from helpers import rand_series, series, support_degrees

V = ("z", "w")


def test_weighted_order_standard():
    ws = WeightSystem(V, (0, 1))
    a = series({(1, 3): 1})
    assert weighted_order(a, ws) == 3


def test_weighted_order_rational():
    ws = WeightSystem(V, (Fraction(-1, 2), 1))
    a = series({(1, 3): 1})
    assert weighted_order(a, ws) == Fraction(5, 2)
    assert ws.scale == 2


def test_weighted_order_zero_series():
    ws = WeightSystem(V, (0, 1))
    assert weighted_order(Series.zero(V, 4), ws) is None


def test_field_layer_readoff():
    # X = (zw + z^2 w) dz + w^2 dw has both components in the l = 1 layer
    ws = WeightSystem(V, (0, 1))
    p = series({(1, 1): 1, (2, 1): 1})
    q = series({(0, 2): 1})
    # P terms sit at weight 1; Q at weight 2 = (l+1) for l = 1
    assert weighted_order(p, ws) == 1
    assert weighted_order(q, ws) == 2


def test_component_standard():
    ws = WeightSystem(V, (0, 1))
    a = series({(1, 1): 1, (0, 2): 1})
    assert component(a, ws, 1) == series({(1, 1): 1})


def test_component_negative_weight():
    ws = WeightSystem(V, (-1, 1))
    a = series({(1, 1): 1, (0, 2): 1})
    assert component(a, ws, 2) == series({(0, 2): 1})
    assert is_cap_window(ws)


def test_component_mu_minus_one_collects_diagonal():
    ws = WeightSystem(V, (-1, 1))
    a = series({(1, 3): 1, (2, 4): 1}, cap=8)
    out = component(a, ws, 2)
    assert out == a


def test_is_homogeneous():
    mu = Fraction(-2)
    ws = WeightSystem(V, (mu, 1))
    k = 3
    a = series({(1, k): gauss(-2)})
    assert is_homogeneous(a, ws, mu + k)
    b = series({(1, 0): 1, (0, 1): 1})
    assert not is_homogeneous(b, WeightSystem(V, (0, 1)), 0)
    assert not is_homogeneous(b, WeightSystem(V, (0, 1)), 1)


def test_delta_slots_homogeneous_degree_k():
    # d_l z^{n2(l)} w^l with n2(l) = (k - l) lambda all share (mu,1)-degree k:
    # k = 2, lambda = -1/2 (mu = -2), l = 4: n2 = 1, weight -2 + 4 = 2
    k = 2
    lam = Fraction(-1, 2)
    mu = 1 / lam
    ws = WeightSystem(V, (mu, 1))
    for ell in range(0, 9):
        n2 = (k - ell) * lam
        if n2.denominator != 1 or n2 < 0:
            continue
        mono = series({(int(n2), ell): 1}, cap=12)
        assert is_homogeneous(mono, ws, Fraction(k))


def test_sum_of_components_reconstructs():
    rng = random.Random(3)
    ws = WeightSystem(V, (Fraction(-1, 2), 1))
    for _ in range(15):
        a = rand_series(rng, cap=6)
        total = Series.zero(V, a.cap, exact=False)
        for d in support_degrees(a, ws):
            total = total + component(a, ws, d)
        assert total == a


def test_weighted_order_multiplicative():
    rng = random.Random(4)
    ws = WeightSystem(V, (Fraction(-1, 2), 1))
    for _ in range(20):
        a = rand_series(rng, cap=8, max_terms=3, max_deg=3)
        b = rand_series(rng, cap=8, max_terms=3, max_deg=3)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        if prod.is_zero():
            continue
        wa, wb = weighted_order(a, ws), weighted_order(b, ws)
        assert weighted_order(prod, ws) >= wa + wb
        la, lb = component(a, ws, wa), component(b, ws, wb)
        if not (la * lb).is_zero():
            assert weighted_order(prod, ws) == wa + wb
