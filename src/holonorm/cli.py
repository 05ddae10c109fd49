"""Command-line front end.

Each subcommand wraps one pipeline operation, reads exact text files and
writes a deterministic key-value report. Exit codes: 0 success, 2 parse
error, 3 precondition violation, 4 inconsistent tangency, 5 internal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys

from . import fileio
from .algebra import Series
from .backend import BACKEND, GaussRational
from .centralizer import divergence_probe, jet_centralizer, symmetry_support_check
from .errors import (
    ArityError,
    CertificateError,
    FlowOrderError,
    HolonormError,
    InconsistentTangencyError,
    InternalError,
    NotIntegralManifoldError,
    NotInvertibleError,
    NotNormalCoordinatesError,
    OrderGuaranteeError,
    OutputError,
    ParseError,
    SeedInvalidError,
    WrongBranchError,
)
from .field import bracket, flow
from .hypersurface import HS_VARS, tangency_residual
from .manifold import (
    default_generic_seed,
    realize_alpha_zero,
    realize_b_zero,
    realize_generic,
    realize_nf7,
)
from .normalform import (
    ALPHA_ZERO,
    B_ZERO,
    GENERIC,
    ORD0,
    classify_case,
    leading_data,
    majorant_certificate,
    normalize_alpha_zero,
    normalize_b_zero,
    normalize_generic,
    normalize_ord0,
    prenormalize,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TANGENCY = 4
EXIT_INTERNAL = 5

_PRECONDITION = (
    OrderGuaranteeError,
    OutputError,
    WrongBranchError,
    ArityError,
    FlowOrderError,
    NotInvertibleError,
    SeedInvalidError,
)
_TANGENCY = (
    InconsistentTangencyError,
    NotIntegralManifoldError,
    NotNormalCoordinatesError,
)


class Report:
    def __init__(self, command):
        self.lines = [("command", command)]

    def add(self, key, value):
        self.lines.append((key, value))

    def add_terms(self, key, series):
        for line in fileio.term_lines(series):
            self.lines.append((key, line))

    def extend_raw(self, raw_lines):
        for line in raw_lines:
            key, _, value = line.partition(": ")
            self.lines.append((key, value))

    def render(self):
        return "\n".join(f"{k}: {v}" for k, v in self.lines) + "\n"


def _digest(path):
    return "sha256:" + hashlib.sha256(fileio.read_bytes(path)).hexdigest()


def _emit(text, out_path):
    """Write text to out_path, or to stdout when no path is given; a path
    that cannot be written raises OutputError naming it."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _add_field_inputs(rep, args, hs=False):
    rep.add("input.field", args.field)
    rep.add("input.field.digest", _digest(args.field))
    if hs and getattr(args, "hypersurface", None):
        rep.add("input.hypersurface", args.hypersurface)
        rep.add("input.hypersurface.digest", _digest(args.hypersurface))
    rep.add("order", args.order)


def _add_result(rep, res):
    rep.add("result.tag", res.tag)
    rep.add("result.case", res.case)
    for key in sorted(res.params):
        value = res.params[key]
        if isinstance(value, list):
            for j, item in enumerate(value, start=1):
                rep.add(f"result.param.{key}{j}", fileio.format_gauss(item))
        elif isinstance(value, GaussRational):
            rep.add(f"result.param.{key}", fileio.format_gauss(value))
        else:
            rep.add(f"result.param.{key}", value)
    rep.add("result.rescale", fileio.format_gauss(res.rescale))
    rep.add("result.convergent", res.convergent_claim)
    rep.add("result.guaranteed_order", res.guaranteed_order)
    rep.add_terms("result.field.dz", res.field.p)
    rep.add_terms("result.field.dw", res.field.q)
    rep.extend_raw(fileio.jetmap_lines(res.transform))
    for note in res.notes:
        rep.add("note", note)


def cmd_classify(args):
    x = fileio.parse_field(args.field)
    rep = Report("classify")
    _add_field_inputs(rep, args)
    ld = leading_data(x)
    case = classify_case(x)
    rep.add("result.case", case)
    rep.add("result.k", ld.k)
    rep.add("result.A", fileio.format_gauss(ld.A))
    rep.add("result.B", fileio.format_gauss(ld.B))
    if ld.lam is not None:
        rep.add("result.lambda", fileio.format_gauss(ld.lam))
    if ld.mu is not None:
        rep.add("result.mu", fileio.format_gauss(ld.mu))
    family = {
        ORD0: "NF7",
        ALPHA_ZERO: "NF8/NF9",
        B_ZERO: "NF13/NF14",
        GENERIC: "NF10/NF11/NF12",
    }[case]
    rep.add("result.family", family)
    _emit(rep.render(), args.out)


def cmd_prenormalize(args):
    x = fileio.parse_field(args.field)
    rep = Report("prenormalize")
    _add_field_inputs(rep, args)
    res = prenormalize(x, args.order)
    rep.add("result.case", res.case)
    rep.add("result.rescale", fileio.format_gauss(res.rescale))
    rep.add_terms("result.field.dz", res.field.p)
    rep.add_terms("result.field.dw", res.field.q)
    for entry in res.resonance.entries:
        n1 = "-" if entry.n1 is None else fileio.format_gauss(entry.n1)
        n2 = "-" if entry.n2 is None else fileio.format_gauss(entry.n2)
        rep.add(
            f"resonance.l{entry.ell}",
            f"n1={n1} integral={entry.n1_integral} "
            f"n2={n2} integral={entry.n2_integral}",
        )
    rep.extend_raw(fileio.jetmap_lines(res.transform))
    _emit(rep.render(), args.out)


def cmd_normalize(args):
    x = fileio.parse_field(args.field)
    rep = Report("normalize")
    _add_field_inputs(rep, args, hs=True)
    case = classify_case(x)
    if case == ORD0:
        h, target = normalize_ord0(x, args.order)
        ld = leading_data(x)
        rep.add("result.tag", "NF7")
        rep.add("result.case", case)
        rep.add("result.param.k", ld.k)
        rep.add("result.param.alpha", fileio.format_gauss(ld.alpha_k.coefficient((0,))))
        rep.add("result.convergent", "convergent")
        rep.extend_raw(fileio.jetmap_lines(h))
        _emit(rep.render(), args.out)
        return
    if case == ALPHA_ZERO:
        res = normalize_alpha_zero(x, args.order)
    else:
        if not args.hypersurface:
            raise WrongBranchError(
                f"case {case} needs --hypersurface (an integral surface)"
            )
        m = fileio.parse_hypersurface(args.hypersurface)
        if case == GENERIC:
            res = normalize_generic(x, m, args.order)
        else:
            res = normalize_b_zero(x, m, args.order)
    _add_result(rep, res)
    _emit(rep.render(), args.out)


def cmd_tangency(args):
    x = fileio.parse_field(args.field)
    m = fileio.parse_hypersurface(args.hypersurface)
    rep = Report("tangency")
    _add_field_inputs(rep, args, hs=True)
    residual = tangency_residual(x, m, args.order)
    if residual.is_zero():
        rep.add("result.tangent_through", args.order)
    else:
        rep.add("result.tangent_through", int(residual.order()) - 1)
        first = min(residual.terms, key=lambda e: (sum(e), e))
        rep.add(
            "result.first_obstruction",
            f"{fileio.format_gauss(residual.terms[first])} "
            f"{' '.join(str(e) for e in first)}",
        )
    _emit(rep.render(), args.out)


def cmd_majorant(args):
    x = fileio.parse_field(args.field)
    rep = Report("majorant")
    _add_field_inputs(rep, args)
    report = majorant_certificate(x, args.order)
    rep.add("result.holds", report.holds)
    rep.add("result.p", report.p)
    rep.add("result.q", report.q)
    rep.add("result.k", report.k)
    rep.add("result.r", fileio.format_gauss(report.r))
    _emit(rep.render(), args.out)


def cmd_realize(args):
    order = args.order
    if args.form == "generic":
        mu = GaussRational(fileio.parse_rational(args.mu))
        if args.seed:
            seed = fileio.parse_series(args.seed, HS_VARS)
        else:
            seed = default_generic_seed(mu, args.k, order)
        r = GaussRational(fileio.parse_rational(args.r))
        m = realize_generic(mu, args.k, r, seed, order)
    elif args.form == "alpha-zero":
        r = GaussRational(fileio.parse_rational(args.r))
        if args.seed:
            c = fileio.parse_series(args.seed, ("z", "zbar"))
        else:
            c = Series.monomial(("z", "zbar"), order, (1, 1), 1, exact=True)
        m = realize_alpha_zero(args.k, r, c, order)
    elif args.form == "b-zero":
        r = GaussRational(fileio.parse_rational(args.r))
        t = GaussRational(fileio.parse_rational(args.t))
        c = [GaussRational(fileio.parse_rational(v)) for v in args.c or []]
        if len(c) < args.q:
            c = c + [GaussRational(0)] * (args.q - len(c))
        if args.seed:
            cauchy = fileio.parse_series(args.seed, ("t",))
        else:
            cauchy = Series.variable(("t",), order, "t", exact=True)
        m = realize_b_zero(args.k, args.q, r, t, c, cauchy, order)
    else:
        m = realize_nf7(args.k, order)
    _emit(fileio.serialize_hypersurface(m), args.out)


def cmd_centralizer(args):
    x = fileio.parse_field(args.field)
    rep = Report("centralizer")
    _add_field_inputs(rep, args)
    if args.support_check:
        report = symmetry_support_check(x, args.order)
        rep.add("result.dimension", report.dimension)
        rep.add("result.support_ok", report.ok)
        rep.add("result.map_slots_match", report.resonant_map_slots_match)
        for v in report.violations:
            rep.add("violation", f"{v[0]} {v[1]} {v[2]}")
    else:
        basis = jet_centralizer(x, args.order)
        rep.add("result.dimension", len(basis))
        for idx, y in enumerate(basis):
            rep.add_terms(f"basis.{idx}.dz", y.p)
            rep.add_terms(f"basis.{idx}.dw", y.q)
    _emit(rep.render(), args.out)


def cmd_probe_divergence(args):
    rep = Report("probe-divergence")
    rep.add("k", args.k)
    rep.add("order", args.order)
    report = divergence_probe(args.k, args.order)
    rep.add("result.verdict", report.verdict)
    rep.add("result.ode_verified", report.ode_verified)
    rep.add("result.commutation_verified", report.commutation_verified)
    for ell, coeff in enumerate(report.coefficients, start=1):
        rep.add(f"result.a{ell}", fileio.format_gauss(coeff))
    _emit(rep.render(), args.out)


def cmd_flow(args):
    x = fileio.parse_field(args.field)
    rep = Report("flow")
    _add_field_inputs(rep, args)
    rep.add("time", args.time)
    h = flow(x, fileio.parse_rational(args.time), args.order)
    rep.extend_raw(fileio.jetmap_lines(h))
    _emit(rep.render(), args.out)


def cmd_bracket(args):
    x = fileio.parse_field(args.field)
    y = fileio.parse_field(args.field2)
    rep = Report("bracket")
    rep.add("input.field", args.field)
    rep.add("input.field.digest", _digest(args.field))
    rep.add("input.field2", args.field2)
    rep.add("input.field2.digest", _digest(args.field2))
    br = bracket(x, y)
    rep.add_terms("result.dz", br.p)
    rep.add_terms("result.dw", br.q)
    _emit(rep.render(), args.out)


# subcommand -> name of the module function that runs it; `main` looks the
# function up when it runs, so the parser can be built once and shared
COMMANDS = {
    "classify": "cmd_classify",
    "prenormalize": "cmd_prenormalize",
    "normalize": "cmd_normalize",
    "tangency": "cmd_tangency",
    "majorant": "cmd_majorant",
    "realize": "cmd_realize",
    "centralizer": "cmd_centralizer",
    "probe-divergence": "cmd_probe_divergence",
    "flow": "cmd_flow",
    "bracket": "cmd_bracket",
}


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it:
    parsing leaves no state in it, and each call returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="holonorm",
        description=(
            "Exact jet-level normal forms for singular planar holomorphic "
            f"vector fields with real integral hypersurfaces (kernel: {BACKEND})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hs=False, field=True):
        if field:
            p.add_argument("--field", required=True, help="vector-field file")
        if hs:
            p.add_argument("--hypersurface", help="hypersurface file")
        p.add_argument("--order", type=int, default=10)
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("classify", help="leading data and case")
    common(p)

    p = sub.add_parser("prenormalize", help="kill all non-resonant terms")
    common(p)

    p = sub.add_parser("normalize", help="full normalization")
    common(p, hs=True)

    p = sub.add_parser("tangency", help="tangency residual order")
    common(p, hs=True)

    p = sub.add_parser("majorant", help="majorant convergence certificate")
    common(p)

    p = sub.add_parser("realize", help="construct an integral hypersurface")
    p.add_argument("--form", required=True,
                   choices=["generic", "alpha-zero", "b-zero", "nf7"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--mu", default="-1")
    p.add_argument("--r", default="0")
    p.add_argument("--t", default="0")
    p.add_argument("--c", action="append", help="c_j (repeatable)")
    p.add_argument("--seed", help="seed / Cauchy-data series file")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("centralizer", help="jet centralizer basis")
    common(p)
    p.add_argument("--support-check", action="store_true")

    p = sub.add_parser("probe-divergence", help="divergence witness recursion")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--order", type=int, default=15)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("flow", help="formal time-t flow")
    common(p)
    p.add_argument("--time", default="1")

    p = sub.add_parser("bracket", help="Lie bracket of two fields")
    p.add_argument("--field", required=True)
    p.add_argument("--field2", required=True)
    p.add_argument("--out", help="output path (default stdout)")
    return parser


# what each subcommand's --order bounds, for the order >= 1 check
ORDER_USE = {
    "classify": "classification",
    "prenormalize": "prenormalization",
    "normalize": "normalization",
    "tangency": "the tangency residual",
    "majorant": "the certificate",
    "realize": "a realization",
    "centralizer": "the centralizer",
    "probe-divergence": "the divergence probe",
    "flow": "the flow",
}

# options whose value is a rational that may be negative
RATIONAL_OPTIONS = ("--mu", "--r", "--t", "--c", "--time")


def _join_negative_rationals(argv):
    """Rewrite `--mu -1/2` as `--mu=-1/2`: argparse takes a value such as
    -1/2, which is not a plain negative number, for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in RATIONAL_OPTIONS and nxt[:1] == "-" and nxt[1:2].isdigit():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_rationals(argv))
    try:
        order = getattr(args, "order", None)
        if order is not None and order < 1:
            raise OrderGuaranteeError(
                f"order {order}: {ORDER_USE[args.command]} needs order >= 1"
            )
        globals()[COMMANDS[args.command]](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _TANGENCY as exc:
        print(f"inconsistent tangency: {exc}", file=sys.stderr)
        return EXIT_TANGENCY
    except _PRECONDITION as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InternalError, CertificateError, HolonormError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: still one line and a documented code
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
