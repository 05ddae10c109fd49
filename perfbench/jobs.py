"""Running one benchmark job and checking its output.

`run_job` is the timed part: it calls `holonorm.cli.main(argv)` in-process
(and, in the surface workload, the library's `pushforward` and
`transport`), writing every report to a file. `check_job` runs outside the
timed region and compares the reports with invariants that do not depend
on the algorithm: supports allowed by the resonance arithmetic, model
tags and exact parameters, exactly vanishing tangency residuals and exact
centralizer dimensions.

Library modules are reached through their module attributes (`field.
pushforward`, not a bound name) so the traced run sees these calls too.
"""

from __future__ import annotations

import re

from holonorm import cli, field, fileio, hypersurface
from holonorm.backend import GaussRational

RATIONAL = re.compile(r"-?(\d+)/(\d+)")


class JobFailed(Exception):
    """A job exited nonzero or its output failed a check."""


def _cli(argv):
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise JobFailed(f"holonorm {argv[0]} exited with code {code}")


def run_job(job, workdir):
    """Execute the job; every output lands in a file under workdir."""
    p = lambda role: job.path(workdir, role)  # noqa: E731
    o = job.order
    if job.kind in ("prenormalize", "normalize", "majorant", "centralizer"):
        _cli([job.kind, "--field", p("field"), "--order", o, "--out", p("out")])
    elif job.kind == "support-check":
        _cli(["centralizer", "--support-check", "--field", p("field"), "--order", o,
              "--out", p("out")])
    elif job.kind == "probe-divergence":
        _cli(["probe-divergence", *job.args, "--order", o, "--out", p("out")])
    elif job.kind == "surface":
        _run_surface(job, p)
    else:
        raise ValueError(f"unknown job kind {job.kind!r}")


def _run_surface(job, p):
    o = job.order
    # 1. realize the model's integral surface
    _cli(["realize", *job.args, "--order", o + 1, "--out", p("hs")])
    # 2. carry field and surface through the seeded jet
    x = fileio.parse_field(p("field"))
    m = fileio.parse_hypersurface(p("hs"))
    h = field.JetMap(fileio.parse_series(p("jet_f"), ("z", "w")),
                     fileio.parse_series(p("jet_g"), ("z", "w")))
    xt = field.pushforward(h, x, cap=o + 1)
    mt = hypersurface.transport(h, m, o)
    with open(p("xt"), "w", encoding="utf-8") as fh:
        fh.write(fileio.serialize_field(xt))
    with open(p("mt"), "w", encoding="utf-8") as fh:
        fh.write(fileio.serialize_hypersurface(mt))
    # 3. certify tangency of the model pair and of the transported pair
    _cli(["tangency", "--field", p("field"), "--hypersurface", p("hs"),
          "--order", o + 1, "--out", p("tan_model")])
    _cli(["tangency", "--field", p("xt"), "--hypersurface", p("mt"),
          "--order", o - 1, "--out", p("tan_moved")])
    # 4. normalize the transported pair back
    _cli(["normalize", "--field", p("xt"), "--hypersurface", p("mt"),
          "--order", o - 1, "--out", p("out")])


# ----------------------------------------------------------------------
# output checks

OUTPUTS = {"surface": ("hs", "xt", "mt", "tan_model", "tan_moved", "out")}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _report(text):
    """A key-value report as a list of (key, value) pairs."""
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise JobFailed(f"malformed report line {line!r}")
        pairs.append((key, value))
    return pairs


def _one(pairs, key):
    values = [v for k, v in pairs if k == key]
    if len(values) != 1:
        raise JobFailed(f"expected one {key!r} line, found {len(values)}")
    return values[0]


def _expect(cond, message):
    if not cond:
        raise JobFailed(message)


def _terms(pairs, key):
    """{exponents: coefficient text} of the report lines under key."""
    out = {}
    for k, v in pairs:
        if k == key:
            coeff, *exps = v.split()
            out[tuple(int(e) for e in exps)] = coeff
    return out


def coeff_bits(texts):
    """Largest numerator or denominator bit length in the texts."""
    bits = 0
    for text in texts:
        for num, den in RATIONAL.findall(text):
            bits = max(bits, int(num).bit_length(), int(den).bit_length())
    return bits


def check_job(job, workdir):
    """Check the job's outputs; return their largest coefficient bits."""
    roles = OUTPUTS.get(job.kind, ("out",))
    texts = {role: _read(job.path(workdir, role)) for role in roles}
    CHECKS[job.kind](job, texts)
    return coeff_bits(texts.values())


def _check_prenormalize(job, texts):
    """Support inside the allowed resonant set (acceptance criterion 2),
    leading coefficients kept, and the complete model for lambda = i."""
    pairs = _report(texts["out"])
    A, B, k, order = job.expect["A"], job.expect["B"], job.expect["k"], job.order
    scale = GaussRational(1) / (B if not B.is_zero() else GaussRational(A.im))
    lam = B / A
    allowed = {("dz", (1, k)), ("dw", (0, k + 1))}
    for ell in range(0, order - k + 1):
        n1 = GaussRational(1) - lam * ell
        if n1.is_rational_integer() and n1.re >= 0 and ell > 0:
            allowed.add(("dz", (int(n1.re), k + ell)))
        n2 = lam * (k - ell)
        if n2.is_rational_integer() and n2.re >= 0:
            allowed.add(("dw", (int(n2.re), k + ell + 1)))
    dz = _terms(pairs, "result.field.dz")
    dw = _terms(pairs, "result.field.dw")
    support = {("dz", e) for e in dz} | {("dw", e) for e in dw}
    _expect(support <= allowed, f"non-resonant terms survive: {sorted(support - allowed)}")
    _expect(dz.get((1, k)) == fileio.format_gauss(A * scale), "leading dz coefficient changed")
    if not B.is_zero():
        _expect(dw.get((0, k + 1)) == fileio.format_gauss(B * scale),
                "leading dw coefficient changed")
    if job.expect.get("complete"):
        _expect(dz == {(1, k): fileio.format_gauss(A)}
                and dw == {(0, k + 1): fileio.format_gauss(B)},
                "lambda = i field is not the complete model")


def _check_model(pairs, expect):
    _expect(_one(pairs, "result.tag") == expect["tag"], f"tag is not {expect['tag']}")
    for key, value in expect["params"].items():
        want = value if isinstance(value, str) else fileio.format_gauss(value)
        _expect(_one(pairs, f"result.param.{key}") == want, f"parameter {key} is not {want}")


def _check_normalize(job, texts):
    _check_model(_report(texts["out"]), job.expect)


def _check_majorant(job, texts):
    pairs = _report(texts["out"])
    _expect(_one(pairs, "result.holds") == "True", "majorant certificate does not hold")
    for key in ("p", "q", "k"):
        _expect(_one(pairs, f"result.{key}") == str(job.expect[key]), f"{key} differs")
    _expect(_one(pairs, "result.r") == fileio.format_gauss(job.expect["r"]), "r differs")


def _check_surface(job, texts):
    fileio.parse_hypersurface_text(texts["hs"])
    fileio.parse_field_text(texts["xt"])
    fileio.parse_hypersurface_text(texts["mt"])
    for role, order in (("tan_model", job.order + 1), ("tan_moved", job.order - 1)):
        pairs = _report(texts[role])
        _expect(_one(pairs, "result.tangent_through") == str(order)
                and not any(k == "result.first_obstruction" for k, _ in pairs),
                f"{role}: tangency residual is not zero through order {order}")
    _check_model(_report(texts["out"]), job.expect)


def _check_centralizer(job, texts):
    pairs = _report(texts["out"])
    want = job.expect["dimension"]
    _expect(_one(pairs, "result.dimension") == str(want), f"dimension is not {want}")
    if job.kind == "support-check":
        _expect(_one(pairs, "result.support_ok") == "True", "support check failed")
        _expect(_one(pairs, "result.map_slots_match") == "True", "map slots differ")


def _check_divergence(job, texts):
    pairs = _report(texts["out"])
    _expect(_one(pairs, "result.verdict") == "factorial", "verdict is not factorial")
    _expect(_one(pairs, "result.ode_verified") == "True", "ODE check failed")
    _expect(_one(pairs, "result.commutation_verified") == "True", "commutation check failed")
    _expect(_one(pairs, "result.a1") == "(0/1,-1/1)", "a_1 is not -i")


CHECKS = {
    "prenormalize": _check_prenormalize,
    "normalize": _check_normalize,
    "majorant": _check_majorant,
    "surface": _check_surface,
    "centralizer": _check_centralizer,
    "support-check": _check_centralizer,
    "probe-divergence": _check_divergence,
}
