"""Deterministic work guard for the degree-by-degree solvers.

Counts the coefficient products the kernel performs on eight seeded jobs:
the `GaussRational.__mul__` calls (including its reflected use) plus the
pair products of the raw-accumulator loops, `backend.mul_into` (every
pair of terms within the cap, its second factor a term dict or raw
terms), `algebra._TaylorTable.spread` (every term of eps^a it adds),
`linalg._eliminate` (one per pivot-row entry) and `majorant._part`
(every pair of terms of its component pairs). Test-side wrappers read
those from the arguments, comparing packed monomial keys with the cap's
`backend.limit`; the kernel loops count nothing. Exact arithmetic makes
the counts repeat on every machine, so the gain of solving each degree
at its own precision is guarded without timing noise. Each count may
exceed the figure in LIMITS, measured on the current solvers, by at most
10%.

Until products were accumulated raw and reduced once per coefficient, the
guard counted `__mul__` calls alone, every product being one; the raw
loops bypass it, so that count read pushforward 17,656 -> 24. Under that
definition the jobs made pushforward 17,656, transport 2,638,
prenormalize 2,103 and majorant 19,301, and the order-22 centralizer
10,147 multiplies. Under the present definition the parent of that change
counts the same, since all its products were `__mul__` calls; the change
counts pushforward 16,110, transport 2,002, prenormalize 1,940, majorant
18,802 and centralizer 6,786: a product by an integer weight (Taylor
binomials, commutation multiplicities) is no longer a coefficient
product, but an int multiply of the numerators.

A reduction guard counts `backend._canonical` calls, each a candidate gcd
and a fresh scalar, on the same eight jobs, bounded at 110% of
REDUCTION_LIMITS. Reducing once per output coefficient cut them from
pushforward 30,761, transport 3,663, prenormalize 3,149 and majorant
33,166, when every product and every running sum was reduced.

The tangency job is `tangency_residual` of a moved NF11 pair at order 9.
Before the graph variable w took the slot of u (w -> u + i psi expanded
by Taylor sums, not by full powers of u + i psi) and the residual and its
real part were each accumulated raw and reduced once (not as separately
reduced products, scales and sums), it made 3,071 products and 1,285
reductions, and the transport job 2,002 and 416.

Before the majorant certificate read r after a kill loop through degree
2k + 1 only, left the model check to its homological solve and wrote
tau^-1(w) down as a binomial series, it ran the kill loop through the
full order and inverted tau as a jet: the majorant job made 18,802
products and 12,090 reductions.

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

Before every substitution went through the one Taylor-table expansion
(a slot whose image is x_i + eps_i expanded by binomial sums, any other
image raised to its power), `substitute_all` multiplied cached powers of
each image per source term: the jobs made transport 4,110, prenormalize
2,130 and majorant 23,125 multiplies. The pushforward job, whose general
linear part L^-1 now goes through the same expansion, made 17,588 then
and makes 17,656 now, inside the slack; its limit is left as it was.

Counts of the former full-cap solvers (each pass recomputing the whole
composition or substitution at the full order) on the same jobs:
transport 201,831, prenormalize 20,474, majorant 212,688.

A gcd guard counts calls to `holonorm.backend.gcd` on an order-14 NF14
`jet_centralizer` job, bounded at 110% of GCD_LIMIT. Every gcd of the
kernel goes through that name, the lcm of two raw denominators included.
The one-denominator scalar (a + b*i)/d makes one gcd per operation at
most, none for a denominator of 1, for negation or for adding an int. The
former scalar, which kept the real and imaginary parts as two reduced
fractions (two gcds per operation), made 45,080 calls on the same job;
the one-denominator scalar with the centralizer rows built from one
bracket per unknown and reduced in the order they were built made 17,614;
rows reduced per product and per sum, and an elimination step reducing
factor * v and then cur - factor * v, made 4,089.

A further guard counts coefficient products on an order-22 NF14
`jet_centralizer` job, bounded at 110% of CENTRALIZER_MUL_LIMIT: rows
written down in closed form, forced zeros peeled, the rest reduced
shortest first, with back-substitution over only the pivot columns each
row holds. Rows built from one full bracket per unknown and reduced in
the order they were built made 39,508 multiplies on the same job.

Before the nullspace peeled the forced zeros (a row left with one live
column forces it to vanish) ahead of the row reduction, every row went
through the elimination: the order-22 job made 6,786 products and the
order-14 job 2,887 gcds. The peel leaves 6 of the 709 rows and 5 of the
550 columns of the order-22 job to the reduction.

Before the majorant certificate closed on its chart identity (one
substitution of P/w^k and Q/w^(k+1) through Phi = (z + F, W (1 + G))),
it evaluated the functionals A and B whole, one substitution each: the
majorant job made 16,988 products and 10,530 reductions.

Before the split h = L o (id + eps) became one entry, `field.solve_under`,
which skips L^-1 when L is the identity and otherwise reads it off
`linalg.inverse` (the closed-form 2x2 and the 3x3 cofactor inverses
retired), the jobs made transport 1,998 products and 415 reductions,
prenormalize 1,938 and 962, and majorant 16,217 and 10,145; their limits
were transport 1,998 and 415, prenormalize 1,940 and 967 and majorant
16,217 and 10,145. The pushforward job, whose general linear part now
goes through the row reduction, made 16,110 and 1,483 then and makes
16,116 and 1,486 now, inside the slack; its limits are left as they were.

Before each degree component of the majorant's online solve (W_m, the Z,
W and (1 + G) powers, the Horner groups, c(Z, W)_m and the F and G
right-hand sides) became one raw accumulator settled once, with c_p and
c_q scaling raw numerators, and each Horner coefficient, w~_m and t G_m
entering as a product with a one-term factor, its parts were settled and then summed and scaled as reduced
series: the majorant job made 16,215 products and 10,138 reductions.
Before `flow` added each t^j/j! X^j term into one raw accumulator, it
scaled and added reduced series: the flow job (the time-1/2 flow of a
six-term field at order 12) made 1,713 products and 840 reductions.

The ord0 job is `normalize_ord0` of a moved k = 2 field at order 10.
Before it ran as passes of the shared kill loop, each removal an honest
step, it solved a divided first-order system by a degree-in-z recursion
(with a Newton inverse of P~(0, w) and each z-power's equations
recomputed and re-checked): the job made 34,668 products and 7,063
reductions.

Before `field._apply_capped` carried each derivative's exponent as an
int weight on the raw numerators of its product, it multiplied each
coefficient by its exponent first, one `__mul__` per term: the jobs made
flow 1,713, ord0 8,669, prenormalize 1,983, majorant 16,046 and
pushforward 16,116 products, at the same reductions (one of the
majorant's four is the certificate's diagonal check, which no longer
multiplies a coefficient by a zero weight). Monomial keys packed into
ints left every other count as it was.

A reduction guard on the order-22 NF14 `jet_centralizer` job counts its
`backend._canonical` calls, bounded at 110% of
CENTRALIZER_REDUCTION_LIMIT. The commutation rows are raw accumulators
that the peel reads by their numerators alone; only the rows it leaves
are settled and reduced, and the bracket re-check sums its four products
per component raw, reducing each coefficient once. Before that, every
entry of every row was settled, and the re-check composed reduced Series
products and sums: the job made 2,960 reductions, 80 products (the
re-check's derivatives multiplied each coefficient by its exponent, one
`__mul__` per term) and, on the order-14 job, 973 gcds. `linalg.inverse`
now settles its [M | -I] rows too, which moved the pushforward job from
1,486 to 1,492 reductions, inside the slack; its limit is left as it was.

A key guard counts the calls of `backend.pack` and `backend.unpack` on
one surface job (transport of a realized NF11 surface, then the residual
of the pushed field on it), bounded by KEY_CONVERSION_LIMIT itself: the
calls are the misses of the Taylor-term cache, cleared first. The graph
evaluation, the conjugations and the residual's real part move key
fields (`backend.remap`) on packed terms. Before that, the graph images
and the derivatives were Series, and every conjugation, source remap and
real part unpacked and packed each term: the job made 1,919 calls. The
graph image i psi then cost a product per term, each derivative one per
term, and the residual's sum was reduced before its real part: the
tangency job made 2,868 products and 848 reductions, and the transport
job 1,975 and 367.

Before `pushforward` handed each component X(h_i) of Dh . X to the
near-identity solve as the raw accumulator it is summed in (where h_i is
its own variable, X's component copied rather than multiplied by 1), the
solve settled Dh . X a second time, and the Taylor table built a plan for
every term, even one that reaches no degree under the cap: the jobs made
prenormalize 1,905 products and 909 reductions (limits 1,905 and 906),
ord0 8,404 and 4,328, and majorant 16,042 and 2,981, and the pushforward
job 1,492 reductions (limit 1,483). The majorant's degree parts then went
through `mul_into`, a Horner coefficient and t G_m as products with a
one-term factor; `majorant._part` now forms them in its own pair loop,
counted pair by pair as `mul_into` was.

The nf14 job is `normalize_b_zero` of a moved k = 1, q = 2 NF14 field
against its transported realized surface at order 10; its second stage
takes four steps. Before that stage ran as passes of the shared loop
under the slot rule at (A, B, k) = (0, r, k + q), it formed its own
eigenvalues, r (j - q) and the like, one product and one sum fewer than
the rule's A n + B (m - k), and skipped the resonant t slot, whose
eigenvalue the rule now forms too: the job made 1,147 products and 745
reductions.

Before each slot's eigenvalue was formed once per loop (with no product
by a zero A or B) and negated there, and the fold reused each
identity-linear step's Taylor table from its pass's solve, every pass
formed the eigenvalue of every slot it removed and the fold built each
step's table again: the jobs made prenormalize 1,891 products and 710
reductions, ord0 7,701 and 2,943, nf14 1,153 and 750, and majorant
16,042 and 2,977. A table guard counts the `_TaylorTable` constructions
of the prenormalize and nf14 jobs, in all and in the fold's near-identity
tail, pinned at TABLE_COUNTS; the tail then built 5 of 16 and 6 of 21.

Before the fold composed every step once from the left (G = id, then
G = G o step_i from the last step to the first), reading the exact flags
off the steps' degrees, it composed each step onto the transform by
`JetMap.compose` while the transform stayed exact, building a table of
the growing transform per step, and left-folded only the tail. Before
`_TaylorTable.spread` bounded its terms by its caller's cap, ORD0's fold at
`order` could not use the tables its passes built at order + k; and
`_ord0_corrections` formed (n + 1) alpha and its negation per term. The
jobs then made prenormalize 1,812 products and 642 reductions, ord0 7,657
and 2,877, and nf14 1,073 and 666, and built prenormalize 11 tables (none
in the fold's tail), nf14 15 (none) and ord0 44 (19 in the tail). The
left fold without the wider-cap table makes ord0 7,797 products, 2,953
reductions and 44 tables, 22 of them in the fold. `count_products` counts
a `spread` call's terms under the cap it was called with, which is the
table's own for every caller but the fold.
"""

import random
import sys
from bisect import bisect_left
from fractions import Fraction

import pytest

from holonorm import algebra, backend, linalg, majorant, normalform
from holonorm.algebra import Series
from holonorm.backend import GaussRational
from holonorm.centralizer import jet_centralizer
from holonorm.field import flow, pushforward
from holonorm.hypersurface import tangency_residual, transport
from holonorm.manifold import default_generic_seed, realize_b_zero, realize_generic
from holonorm.normalform import (majorant_certificate, normalize_b_zero, normalize_ord0,
                                 prenormalize)

from helpers import gr, nf14_field, nfgen_field, rand_linear_jet, rand_preserves_e_jet, vf

LIMITS = {"pushforward": 16_104, "transport": 1_969, "prenormalize": 1_601,
          "majorant": 16_040, "tangency": 2_242, "flow": 1_216, "ord0": 7_500,
          "nf14": 1_055}
REDUCTION_LIMITS = {"pushforward": 1_479, "transport": 361, "prenormalize": 575,
                    "majorant": 2_974, "tangency": 425, "flow": 431, "ord0": 2_790,
                    "nf14": 649}
# (all, in the fold) `_TaylorTable` constructions: every step of these jobs
# has the identity as its linear part, and its pass's table serves the
# fold; nf14's one table in the fold is that of its start, the prenormal
# transform, which no pass solved through
TABLE_COUNTS = {"prenormalize": (8, 0), "nf14": (12, 1), "ord0": (22, 0)}
KEY_CONVERSION_LIMIT = 785
GCD_LIMIT = 40
CENTRALIZER_MUL_LIMIT = 55
CENTRALIZER_REDUCTION_LIMIT = 27


def _nf14_model(cap):
    return nf14_field(1, 1, Fraction(3, 2), Fraction(-1, 3),
                      [Fraction(1, 2), Fraction(-2, 3)], cap=cap)


def _transport_job():
    rng = random.Random(71)
    mu = gr(-1)
    m = realize_generic(mu, 1, gr(1), default_generic_seed(mu, 1, 11), 11)
    h = rand_preserves_e_jet(rng, cap=12)
    return lambda: transport(h, m, 10)


def _tangency_job():
    rng = random.Random(97)
    mu = gr(-1)
    m = realize_generic(mu, 1, gr(1), default_generic_seed(mu, 1, 11), 11)
    h = rand_preserves_e_jet(rng, cap=12)
    x = pushforward(h, nfgen_field(mu, 1, 1, cap=12), cap=11)
    mt = transport(h, m, 10)
    assert tangency_residual(x, mt, 9).is_zero()
    return lambda: tangency_residual(x, mt, 9)


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


def _ord0_job():
    rng = random.Random(89)
    x = pushforward(rand_preserves_e_jet(rng, cap=14),
                    vf({(0, 2): gr(2), (1, 2): gr(1), (2, 3): gr(0, 1)},
                       {(1, 3): gr(Fraction(-1, 2)), (0, 4): gr(1)}, cap=14), cap=12)
    return lambda: normalize_ord0(x, 10)


def _nf14_job():
    k, q, r, t, c = 1, 2, Fraction(3, 2), Fraction(-1, 3), [Fraction(1, 2), Fraction(-2, 3)]
    h = rand_preserves_e_jet(random.Random(101), cap=12)
    x = pushforward(h, nf14_field(k, q, r, t, c, cap=16), cap=12)
    cau = Series.variable(("t",), 12, "t", exact=True)
    m = transport(h, realize_b_zero(k, q, r, t, c, cau, 12), 11)
    return lambda: normalize_b_zero(x, m, 10)


def _flow_job():
    x = vf({(1, 1): gr(-2), (0, 2): gr(1, 1), (2, 3): gr(Fraction(1, 3))},
           {(0, 2): gr(1), (1, 2): gr(Fraction(-1, 2)), (0, 4): gr(0, 2)}, cap=14)
    return lambda: flow(x, Fraction(1, 2), 12)


def _pushforward_job():
    h = rand_linear_jet(random.Random(83), cap=14)
    x = nfgen_field(gr(-2), 1, 1, cap=16)
    return lambda: pushforward(h, x, cap=14)


JOBS = {
    "pushforward": _pushforward_job,
    "transport": _transport_job,
    "tangency": _tangency_job,
    "prenormalize": _prenormalize_job,
    "majorant": _majorant_job,
    "flow": _flow_job,
    "ord0": _ord0_job,
    "nf14": _nf14_job,
}


# the product loops `count_products` reads, besides `GaussRational.__mul__`
COUNTED = ("backend.mul_into", "algebra._TaylorTable.spread", "linalg._eliminate",
           "majorant._part")


def _pairs_within(a, b, top):
    """The number of pairs of keys of a and b whose sum is below top, the
    `backend.limit` of the cap: the term pairs of total degree <= cap."""
    b = sorted(b)
    return sum(bisect_left(b, top - x) for x in a)


def count_products(job, monkeypatch):
    """Coefficient products made by job: `__mul__` calls plus the pair
    products of `mul_into`, `spread`, `_eliminate` and `majorant._part`,
    read from their arguments."""
    calls = [0]
    mul = GaussRational.__mul__
    mul_into = backend.mul_into
    spread = algebra._TaylorTable.spread
    eliminate = linalg._eliminate
    part = majorant._part

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    def counted_mul_into(acc, a, b, top):
        calls[0] += _pairs_within(a, b if type(b) is dict else [key for key, *_ in b], top)
        return mul_into(acc, a, b, top)

    def counted_spread(table, levels, cap, key, d, *coeff):
        out = spread(table, levels, cap, key, d, *coeff)
        # a term that reaches no degree under the cap builds no plan; the
        # plans of a table built at a higher cap are counted under this one
        top = backend.limit(cap, len(table.eps))
        calls[0] += sum(shift + pk < top
                        for shift, _, _, terms in table.plans.get(key, ()) for pk, *_ in terms)
        return out

    def counted_part(acc, x, y, m, lo, hi):
        calls[0] += sum(len(x[d]) * len(y[m - d]) for d in range(lo, hi + 1))
        return part(acc, x, y, m, lo, hi)

    def counted_eliminate(row, factor, pivot_row):
        calls[0] += len(pivot_row)
        return eliminate(row, factor, pivot_row)

    monkeypatch.setattr(GaussRational, "__mul__", counted)
    monkeypatch.setattr(GaussRational, "__rmul__", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("holonorm") and getattr(module, "mul_into", None) is mul_into:
            monkeypatch.setattr(module, "mul_into", counted_mul_into)
    monkeypatch.setattr(algebra._TaylorTable, "spread", counted_spread)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(majorant, "_part", counted_part)
    job()
    monkeypatch.undo()
    return calls[0]


def count_calls(module, name, job, monkeypatch):
    """Calls of module.name made by job, through the module attribute."""
    calls = [0]
    func = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return func(*args)

    monkeypatch.setattr(module, name, counted)
    job()
    monkeypatch.undo()
    return calls[0]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_multiply_count_within_limit(name, monkeypatch):
    job = JOBS[name]()
    count = count_products(job, monkeypatch)
    assert count <= LIMITS[name] * 1.1


@pytest.mark.parametrize("name", sorted(JOBS))
def test_reduction_count_within_limit(name, monkeypatch):
    job = JOBS[name]()
    count = count_calls(backend, "_canonical", job, monkeypatch)
    assert count <= REDUCTION_LIMITS[name] * 1.1


def test_centralizer_multiply_count_within_limit(monkeypatch):
    x = _nf14_model(28)
    basis = []
    count = count_products(lambda: basis.extend(jet_centralizer(x, 22)), monkeypatch)
    assert len(basis) == 2
    assert count <= CENTRALIZER_MUL_LIMIT * 1.1


def test_centralizer_reduction_count_within_limit(monkeypatch):
    x = _nf14_model(28)
    basis = []
    count = count_calls(backend, "_canonical", lambda: basis.extend(jet_centralizer(x, 22)),
                        monkeypatch)
    assert len(basis) == 2
    assert count <= CENTRALIZER_REDUCTION_LIMIT * 1.1


def test_gcd_count_within_limit(monkeypatch):
    x = _nf14_model(20)
    basis = []
    count = count_calls(backend, "gcd", lambda: basis.extend(jet_centralizer(x, 14)),
                        monkeypatch)
    assert len(basis) == 2
    assert count <= GCD_LIMIT * 1.1


def _surface_job():
    """The tangency job's pair: transport of a realized NF11 surface by a
    seeded jet, then the residual of the pushed field on the result."""
    rng = random.Random(97)
    mu = gr(-1)
    m = realize_generic(mu, 1, gr(1), default_generic_seed(mu, 1, 11), 11)
    h = rand_preserves_e_jet(rng, cap=12)
    x = pushforward(h, nfgen_field(mu, 1, 1, cap=12), cap=11)

    def job():
        assert tangency_residual(x, transport(h, m, 10), 9).is_zero()

    return job


def count_key_conversions(job, monkeypatch):
    """Calls of `backend.pack` and `backend.unpack` made by job, through
    every package module that imported them by name. The Taylor-term
    cache, whose misses pack, starts empty."""
    calls = [0]
    for name in ("pack", "unpack"):
        func = getattr(backend, name)

        def counted(*args, func=func):
            calls[0] += 1
            return func(*args)

        for key, module in list(sys.modules.items()):
            if key.startswith("holonorm") and getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counted)
    algebra._taylor_terms.cache_clear()
    job()
    monkeypatch.undo()
    return calls[0]


def test_surface_key_conversions_within_limit(monkeypatch):
    assert count_key_conversions(_surface_job(), monkeypatch) <= KEY_CONVERSION_LIMIT


def count_tables(job, monkeypatch):
    """(all, in the fold) `algebra._TaylorTable` constructions made by job,
    through every package module that binds the name; the fold is
    `normalform`'s own calls of `_compose_near_identity`."""
    counts, folding = [0, 0], [False]
    table, compose = algebra._TaylorTable, normalform._compose_near_identity

    def counted(*args):
        counts[0] += 1
        counts[1] += folding[0]
        return table(*args)

    def counted_compose(*args):
        folding[0] = True
        try:
            return compose(*args)
        finally:
            folding[0] = False

    for name, module in list(sys.modules.items()):
        if name.startswith("holonorm") and getattr(module, "_TaylorTable", None) is table:
            monkeypatch.setattr(module, "_TaylorTable", counted)
    monkeypatch.setattr(normalform, "_compose_near_identity", counted_compose)
    job()
    monkeypatch.undo()
    return tuple(counts)


@pytest.mark.parametrize("name", sorted(TABLE_COUNTS))
def test_fold_reuses_the_tables_of_its_steps(name, monkeypatch):
    assert count_tables(JOBS[name](), monkeypatch) == TABLE_COUNTS[name]
