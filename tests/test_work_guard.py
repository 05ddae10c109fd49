"""Deterministic work guard for the degree-by-degree solvers.

Counts Gaussian-rational multiplies (`GaussRational.__mul__`, including its
reflected use) on four seeded jobs. Exact arithmetic makes the counts
repeat on every machine, so the gain of solving each degree at its own
precision is guarded without timing noise. Each count may exceed the
figure in LIMITS, measured on the current solvers, by at most 10%.
Before `Series.substitute` scaled each source term's first power instead
of multiplying it by a constant series, the counts were transport 68,523,
prenormalize 14,116 and majorant 91,365. Before `transport` read the
barred pair (conj F, conj G) as the conjugate of the substituted (F, G)
instead of substituting it on its own, transport made 64,930.

Before `pushforward` and `jet_inverse` became one near-identity solve
(write h = L o (id + eps) and settle Y o (id + eps) = R degree by degree),
`pushforward` inverted h one full substitution per degree and substituted
Dh . X into the inverse. The jobs then made pushforward 130,736,
prenormalize 13,449, majorant 87,922 and transport 42,165 multiplies.

Before the majorant solves became online (each degree's part of every
product built from components already final), each degree evaluated the
whole functionals, substitution included, at its own cap: the majorant
job made 82,390 multiplies.

Before `transport` became one forward substitution of h into the graph
followed by one near-identity solve in (z, zbar, u), it inverted h and ran
a fixed-point loop that substituted the inverse and psi again on every
pass: the transport job made 41,694 multiplies. Before substitutions
sharing their images built each image power once for all sources, and
before the majorant homological check applied its diagonal operator
coefficientwise, the jobs made pushforward 18,464, prenormalize 5,128 and
majorant 31,017.

Before the kill loop kept its steps and folded them once from the left
by near-identity Taylor sums (only where a caller reads the transform),
each pass composed its step onto the dense transform, and the majorant
system composed steps it never read: the jobs made prenormalize 5,093 and
majorant 30,903 multiplies.

Counts of the former full-cap solvers (each pass recomputing the whole
composition or substitution at the full order) on the same jobs:
transport 201,831, prenormalize 20,474, majorant 212,688.

A second guard counts calls to `holonorm.backend.gcd` on an order-14 NF14
`jet_centralizer` job, bounded at 110% of GCD_LIMIT. The one-denominator
scalar (a + b*i)/d makes one gcd per operation at most, none for a
denominator of 1, for negation or for adding an int. The former scalar,
which kept the real and imaginary parts as two reduced fractions (two gcds
per operation), made 45,080 calls on the same job; the one-denominator
scalar with the centralizer rows built from one bracket per unknown and
reduced in the order they were built made 17,614.

A third guard counts multiplies on an order-22 NF14 `jet_centralizer` job,
bounded at 110% of CENTRALIZER_MUL_LIMIT: rows written down in closed form
(one multiply by a small integer per entry), reduced shortest first, with
back-substitution over only the pivot columns each row holds. Rows built
from one full bracket per unknown and reduced in the order they were built
made 39,508 multiplies on the same job.
"""

import random
from fractions import Fraction

import pytest

from holonorm import backend
from holonorm.backend import GaussRational
from holonorm.centralizer import jet_centralizer
from holonorm.field import pushforward
from holonorm.hypersurface import transport
from holonorm.manifold import default_generic_seed, realize_generic
from holonorm.normalform import majorant_certificate, prenormalize

from helpers import gr, nf14_field, nfgen_field, rand_linear_jet, rand_preserves_e_jet

LIMITS = {"pushforward": 17_588, "transport": 4_110, "prenormalize": 2_130,
          "majorant": 23_125}
GCD_LIMIT = 4_089
CENTRALIZER_MUL_LIMIT = 10_147


def _nf14_model(cap):
    return nf14_field(1, 1, Fraction(3, 2), Fraction(-1, 3),
                      [Fraction(1, 2), Fraction(-2, 3)], cap=cap)


def _transport_job():
    rng = random.Random(71)
    mu = gr(-1)
    m = realize_generic(mu, 1, gr(1), default_generic_seed(mu, 1, 11), 11)
    h = rand_preserves_e_jet(rng, cap=12)
    return lambda: transport(h, m, 10)


def _prenormalize_job():
    rng = random.Random(73)
    x = pushforward(rand_preserves_e_jet(rng, cap=14),
                    nfgen_field(gr(-2), 1, 1, cap=16), cap=14)
    return lambda: prenormalize(x, 12)


def _majorant_job():
    rng = random.Random(79)
    x = pushforward(rand_preserves_e_jet(rng, cap=12),
                    nfgen_field(gr(Fraction(-1, 2)), 1, 1, cap=14), cap=12)
    return lambda: majorant_certificate(x, 10)


def _pushforward_job():
    h = rand_linear_jet(random.Random(83), cap=14)
    x = nfgen_field(gr(-2), 1, 1, cap=16)
    return lambda: pushforward(h, x, cap=14)


JOBS = {
    "pushforward": _pushforward_job,
    "transport": _transport_job,
    "prenormalize": _prenormalize_job,
    "majorant": _majorant_job,
}


def count_multiplies(job, monkeypatch):
    calls = [0]
    mul = GaussRational.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(GaussRational, "__mul__", counted)
    monkeypatch.setattr(GaussRational, "__rmul__", counted)
    job()
    monkeypatch.undo()
    return calls[0]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_multiply_count_within_limit(name, monkeypatch):
    job = JOBS[name]()
    count = count_multiplies(job, monkeypatch)
    assert count <= LIMITS[name] * 1.1


def test_centralizer_multiply_count_within_limit(monkeypatch):
    x = _nf14_model(28)
    basis = []
    count = count_multiplies(lambda: basis.extend(jet_centralizer(x, 22)), monkeypatch)
    assert len(basis) == 2
    assert count <= CENTRALIZER_MUL_LIMIT * 1.1


def test_gcd_count_within_limit(monkeypatch):
    x = _nf14_model(20)
    calls = [0]
    gcd = backend.gcd

    def counted(*args):
        calls[0] += 1
        return gcd(*args)

    monkeypatch.setattr(backend, "gcd", counted)
    basis = jet_centralizer(x, 14)
    monkeypatch.undo()
    assert len(basis) == 2
    assert calls[0] <= GCD_LIMIT * 1.1
