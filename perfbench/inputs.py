"""Seeded inputs for the three benchmark workloads.

`plan(workload, seed)` is cheap: it draws every parameter and jet
coefficient from the seed and returns the cycle of jobs. `write_inputs`
does the expensive part, pushing each model field forward by its seeded
jet and writing the text files the engine reads. Run as a script it does
both into a directory and prints its monotonic clock on the last line, so
the caller can time interpreter start, `import holonorm` and input
generation as one set-up:

    python3 perfbench/inputs.py --workload normalize --seed 1 --out DIR

Jets mirror `rand_preserves_e_jet` in tests/helpers.py, with one change:
each job slot fixes the monomial support of its jet and the seed draws
only the coefficients. Job cost depends mostly on that support, so fixing
it keeps a slot's cost comparable across seeds while every coefficient,
parameter and hence every exact output still changes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from holonorm import fileio  # noqa: E402
from holonorm.algebra import Series  # noqa: E402
from holonorm.backend import GaussRational  # noqa: E402
from holonorm.field import JetMap, VectorField  # noqa: E402

VF = ("z", "w")
WORKLOADS = ("normalize", "surface", "centralizer")

# extra monomials of f (beyond z) and of g (beyond w); g stays divisible
# by w so {w = 0} is preserved and transported surfaces stay graphs
SHAPES = {
    "light": ([(2, 1)], [(1, 2)]),
    "mid": ([(1, 1)], [(0, 2)]),
    "wide": ([(2, 0)], [(1, 1)]),
}


@dataclass
class Job:
    """One job slot of a workload cycle.

    The job's input file `field` holds `model`, pushed forward by `jet`
    at `push_cap` when that is set. A surface job pushes the model itself,
    so its jet is written beside it. `args` are extra CLI arguments, and
    `expect` holds what the output check compares against; both derive
    from the model, never from an engine run.
    """

    slot: str
    kind: str
    order: int
    model: VectorField | None = None
    jet: JetMap | None = None
    push_cap: int | None = None
    args: tuple = ()
    expect: dict = field(default_factory=dict)

    def path(self, workdir, role):
        return os.path.join(workdir, f"{self.slot}.{role}")


def gr(re=0, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def _rational(rng):
    """Nonzero rational with numerator and denominator at most 3 in size,
    the range `rand_coeff` in tests/helpers.py draws from."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _coeff(rng):
    # both parts nonzero: a real or imaginary jet coefficient can make a
    # job several times cheaper (transport of a real w^2 term, say), which
    # would make a slot's cost depend on the seed
    return GaussRational(_rational(rng), _rational(rng))


def _real(rng):
    return gr(_rational(rng))


def _jet(rng, shape, cap):
    fs, gs = SHAPES[shape]
    f = {(1, 0): gr(1)}
    g = {(0, 1): gr(1)}
    for e in fs:
        f[e] = _coeff(rng)
    for e in gs:
        g[e] = _coeff(rng)
    return JetMap(Series(VF, cap, f, exact=True), Series(VF, cap, g, exact=True))


def _vf(p, q, cap):
    return VectorField(Series(VF, cap, p, exact=True), Series(VF, cap, q, exact=True))


def nfgen(mu, k, eta, cap):
    """mu z w^k dz + (w^{k+1} + eta w^{2k+1}) dw"""
    q = {(0, k + 1): gr(1)}
    if not eta.is_zero():
        q[(0, 2 * k + 1)] = eta
    return _vf({(1, k): mu}, q, cap)


def nf14(k, q, r, t, c, cap):
    """i z w^k (1 + c_1 w + ...) dz + (r w^{k+q+1} + t w^{2(k+q)+1}) dw"""
    i = gr(0, 1)
    p = {(1, k): i}
    for j, cj in enumerate(c, start=1):
        if not cj.is_zero():
            p[(1, k + j)] = i * cj
    qd = {(0, k + q + 1): r}
    if not t.is_zero():
        qd[(0, 2 * (k + q) + 1)] = t
    return _vf(p, qd, cap)


def pq_model(p, q, k, r, cap):
    """-p z w^k dz + (q w^{k+1} + r w^{2k+1}) dw"""
    qd = {(0, k + 1): gr(q)}
    if not r.is_zero():
        qd[(0, 2 * k + 1)] = r
    return _vf({(1, k): gr(-p)}, qd, cap)


# ----------------------------------------------------------------------
# workload cycles


def _normalize_cycle(rng):
    """Perturbed fields of all four cases at orders 10-12."""
    jobs = []

    def pushed(slot, kind, model, order, shape, cap, expect):
        jobs.append(Job(slot, kind, order, model, _jet(rng, shape, cap), cap, expect=expect))

    for rep in (1, 2, 3):
        # GENERIC, mu in {-1, -2, -1/2} without and with eta
        for mu, label, order, shape in ((gr(-1), "mu-1", 12, "wide"),
                                        (gr(-2), "mu-2", 12, "light"),
                                        (gr(Fraction(-1, 2)), "mu-1_2", 11, "mid")):
            for with_eta in (False, True):
                eta = _real(rng) if with_eta else gr(0)
                name = f"pre.{label}{'.eta' if with_eta else ''}.{rep}"
                o = order - 1 if with_eta else order
                pushed(name, "prenormalize", nfgen(mu, 1, eta, o + 2), o, shape, o,
                       {"A": mu, "B": gr(1), "k": 1})
        # lambda = i: A = -i, B = 1; the prenormal form is the complete model
        model = _vf({(1, 1): gr(0, -1)}, {(0, 2): gr(1)}, 14)
        pushed(f"pre.lambda_i.{rep}", "prenormalize", model, 12, "mid", 12,
               {"A": gr(0, -1), "B": gr(1), "k": 1, "complete": True})
        # complex mu
        mu = gr(Fraction(rng.choice((-1, 1)), rng.randint(1, 3)), rng.choice((-1, 1)))
        pushed(f"pre.mu_complex.{rep}", "prenormalize", nfgen(mu, 1, gr(0), 14), 12,
               "wide", 12, {"A": mu, "B": gr(1), "k": 1})
        # B_ZERO: NF14, prenormal data on the i-axis slots (lambda = 0)
        model = nf14(1, 1, _real(rng), _real(rng), [_real(rng)], 14)
        pushed(f"pre.nf14.{rep}", "prenormalize", model, 12, "mid", 12,
               {"A": gr(0, 1), "B": gr(0), "k": 1})
        # ALPHA_ZERO: NF8 (k = 1, residue r) and NF9 (w dw)
        r = _real(rng)
        pushed(f"normalize.nf8.{rep}", "normalize", _vf({}, {(0, 2): gr(1), (0, 3): r}, 14),
               12, "wide", 12, {"tag": "NF8", "params": {"k": "1", "r": r}})
        pushed(f"normalize.nf9.{rep}", "normalize", _vf({}, {(0, 1): gr(1)}, 14),
               12, "mid", 12, {"tag": "NF9", "params": {"k": "0", "r": gr(0)}})
        # ORD0: NF7, w^2 dz
        pushed(f"normalize.nf7.{rep}", "normalize", _vf({(0, 2): gr(1)}, {}, 16),
               11, "mid", 13, {"tag": "NF7", "params": {"k": "2", "alpha": gr(1)}})
        # majorant certificates, mu in Q^-
        for mu, p, q, label, shape in ((gr(-1), 1, 1, "mu-1", "mid"),
                                       (gr(-2), 2, 1, "mu-2", "light"),
                                       (gr(Fraction(-1, 2)), 1, 2, "mu-1_2", "light")):
            eta = _real(rng)
            pushed(f"majorant.{label}.{rep}", "majorant", nfgen(mu, 1, eta, 14), 10,
                   shape, 12, {"p": p, "q": q, "k": 1, "r": eta * q})
    return jobs


def _surface_cycle(rng):
    """Realize, transport, certify and normalize back, at orders 8-10.

    `order` is the working order o: the surface is realized at o + 1, the
    pair is transported at o and normalized back at o - 1.
    """
    jobs = []

    def moved(slot, model, order, shape, args, tag, params):
        jobs.append(Job(slot, "surface", order, model, _jet(rng, shape, order + 1),
                        args=tuple(args), expect={"tag": tag, "params": params}))

    for rep, (order, shape) in enumerate(((10, "mid"), (9, "wide"), (8, "light")), start=1):
        cap = order + 2
        # NF11: mu z w dz + (w^2 + eta w^3) dw, mu in Q^-
        for mu, label in ((gr(-1), "mu-1"), (gr(-2), "mu-2"), (gr(Fraction(-1, 2)), "mu-1_2")):
            eta = _real(rng)
            moved(f"surface.nf11.{label}.{rep}", nfgen(mu, 1, eta, cap), order, shape,
                  ["--form", "generic", "--k", "1", "--mu=" + _rat(mu), "--r=" + _rat(eta)],
                  "NF11", {"k": "1", "mu": mu, "eta": eta})
        # NF12: mu z dz + w dw
        moved(f"surface.nf12.{rep}", nfgen(gr(-1), 0, gr(0), cap), order, shape,
              ["--form", "generic", "--k", "0", "--mu=-1"], "NF12", {"k": "0", "mu": gr(-1)})
        # NF14: i z w (1 + c_1 w) dz + (r w^3 + t w^5) dw
        r, t, c1 = _real(rng), _real(rng), _real(rng)
        moved(f"surface.nf14.{rep}", nf14(1, 1, r, t, [c1], cap), order, shape,
              ["--form", "b-zero", "--k", "1", "--q", "1", "--r=" + _rat(r), "--t=" + _rat(t),
               "--c=" + _rat(c1)],
              "NF14", {"k": "1", "q": "1", "r": r, "t": t, "c1": c1})
        # NF8: (w^2 + r w^3) dw
        r = _real(rng)
        moved(f"surface.nf8.{rep}", _vf({}, {(0, 2): gr(1), (0, 3): r}, cap), order, shape,
              ["--form", "alpha-zero", "--k", "1", "--r=" + _rat(r)], "NF8", {"k": "1", "r": r})
    return jobs


# centralizer dimensions at the parent of the benchmark commit, by slot
# family and order; dimension is an exact invariant, so this is a fair
# reference. Support-check models with r != 0 are all equivalent to r = 1
# (w -> c w rescales r by c^k), so the table keys only on r != 0.
RECORDED_DIMS = {
    ("nf14_q2", 14): 2, ("nf14_q2", 18): 2,
    ("rotation", 16): 16, ("rotation", 20): 20, ("rotation", 22): 22,
    ("pq.1_1.k1.r", 14): 3, ("pq.1_2.k1.0", 16): 11, ("pq.2_1.k1.r", 18): 2,
    ("pq.2_3.k2.r", 20): 3, ("pq.3_2.k1.0", 22): 10,
}


def _centralizer_cycle(rng):
    """Exact polynomial models at orders 14-22: sparse row reduction and
    bracket only, no substitution and no kill loop."""
    jobs = []
    # the NF14 slots are the costliest and their cost moves with the drawn
    # r, t and c_j, so each takes three draws; one draw per slot left
    # job_s.p90 depending on the seed
    for rep in (1, 2, 3):
        for order in (14, 18, 22):
            model = nf14(1, 1, _real(rng), _real(rng), [_real(rng)], order + 6)
            jobs.append(Job(f"centralizer.nf14.o{order}.{rep}", "centralizer", order, model,
                            expect={"dimension": 2}))
        for order in (14, 18):
            model = nf14(1, 2, _real(rng), _real(rng), [_real(rng), _real(rng)], order + 10)
            jobs.append(Job(f"centralizer.nf14_q2.o{order}.{rep}", "centralizer", order, model,
                            expect={"dimension": RECORDED_DIMS[("nf14_q2", order)]}))
    for order in (16, 20, 22):
        model = _vf({(1, 1): gr(0, 1)}, {}, order + 4)
        jobs.append(Job(f"centralizer.rotation.o{order}", "centralizer", order, model,
                        expect={"dimension": RECORDED_DIMS[("rotation", order)]}))
    for p, q, k, with_r, order in ((1, 1, 1, True, 14), (1, 2, 1, False, 16),
                                   (2, 1, 1, True, 18), (2, 3, 2, True, 20),
                                   (3, 2, 1, False, 22)):
        key = f"pq.{p}_{q}.k{k}.{'r' if with_r else '0'}"
        r = _real(rng) if with_r else gr(0)
        jobs.append(Job(f"support.{key}.o{order}", "support-check", order,
                        pq_model(p, q, k, r, order + 2 * k + 4),
                        expect={"dimension": RECORDED_DIMS[(key, order)]}))
    for k, order in ((1, 20), (2, 22)):
        jobs.append(Job(f"divergence.k{k}.o{order}", "probe-divergence", order,
                        args=("--k", str(k))))
    return jobs


def _rat(c):
    return fileio.format_rational(c.re)


CYCLES = {
    "normalize": _normalize_cycle,
    "surface": _surface_cycle,
    "centralizer": _centralizer_cycle,
}


def plan(workload, seed):
    """The cycle of jobs for a workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return CYCLES[workload](rng)


def write_inputs(jobs, workdir):
    """Write every job's input field, and a surface job's jet as two
    series files."""
    from holonorm.field import pushforward

    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        if job.model is None:
            continue
        x = job.model
        if job.push_cap is not None:
            x = pushforward(job.jet, x, cap=job.push_cap)
        _write(job.path(workdir, "field"), fileio.serialize_field(x))
        if job.jet is not None and job.push_cap is None:
            _write(job.path(workdir, "jet_f"), fileio.serialize_series(job.jet.f))
            _write(job.path(workdir, "jet_g"), fileio.serialize_series(job.jet.g))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(plan(args.workload, args.seed), args.out)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
