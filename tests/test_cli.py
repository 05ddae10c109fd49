import contextlib
import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from holonorm import cli, fileio
from holonorm.backend import MAX_DEGREE, GaussRational
from holonorm.errors import ParseError
from holonorm.field import pushforward

from helpers import gr, nfgen_field, rand_preserves_e_jet, rand_series, series, vf

FIELD_NFGEN = """\
vars: z w
cap: 12
dz:
(-2/1,0/1) 1 1
dw:
(1/1,0/1) 0 2
(3/1,0/1) 0 3
"""

FIELD_W2DZ = """\
vars: z w
cap: 10
dz:
(1/1,0/1) 0 2
dw:
"""

FIELD_IZ = """\
vars: z w
cap: 10
dz:
(0/1,1/1) 1 0
dw:
"""

# ALPHA_ZERO at k = 0 with nonconstant linear dw data: (w + z w) dw
FIELD_ALPHA_ZERO_K0 = """\
vars: z w
cap: 8
dz:
dw:
(1/1,0/1) 0 1
(1/1,0/1) 1 1
"""

SURFACE_CIRCLE = """\
vars: z zbar u
cap: 10
(1/1,0/1) 1 1 1
"""


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_term_line_semantics(self):
        x = fileio.parse_field_text(FIELD_NFGEN)
        assert x.p.coefficient((1, 1)) == gr(-2)
        assert x.q.coefficient((0, 3)) == gr(3)

    def test_imaginary_coefficient(self):
        x = fileio.parse_field_text(
            "vars: z w\ncap: 4\ndz:\n(0/1,1/1) 1 1\ndw:\n"
        )
        assert x.p.coefficient((1, 1)) == GaussRational(0, 1)

    def test_round_trip_canonical(self):
        rng = random.Random(3)
        for _ in range(5):
            p = rand_series(rng, cap=10, max_terms=50, max_deg=9)
            q = rand_series(rng, cap=10, max_terms=50, max_deg=9)
            from holonorm.field import VectorField

            text = fileio.serialize_field(VectorField(p, q))
            again = fileio.serialize_field(fileio.parse_field_text(text))
            assert text == again

    def test_coefficients_of_any_size(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        big = GaussRational(10**4400 + 7, -(3 * 10**4400 + 1)) / 7
        x = vf({(1, 1): big}, {(0, 2): 1}, cap=4, exact=False)
        text = fileio.serialize_field(x)
        assert len(text) > 2 * 4400
        again = fileio.parse_field_text(text)
        assert again == x
        assert fileio.serialize_field(again) == text
        assert fileio.parse_rational(fileio.format_rational(big.re)) == big.re
        assert limit() == before  # lifted only inside the conversions

    @pytest.mark.parametrize("bracketed", [False, True])
    def test_polynomial_field_round_trips(self, bracketed):
        from holonorm.field import VectorField, bracket

        # z w dz + w^5 dw, each component exact at its own degree
        x = VectorField(series({(1, 1): 1}, cap=2), series({(0, 5): 1}, cap=5))
        if bracketed:
            x = bracket(x, vf({(2, 0): 1}, {(1, 3): 2}, cap=4))
        text = fileio.serialize_field(x)
        again = fileio.parse_field_text(text)
        assert again == x
        assert fileio.serialize_field(again) == text

    def test_hypersurface_reality_enforced(self):
        bad = "vars: z zbar u\ncap: 6\n(1/1,0/1) 2 0 1\n"
        with pytest.raises(Exception):
            fileio.parse_hypersurface_text(bad)

    @pytest.mark.parametrize("parse, text, line, key", [
        (fileio.parse_field_text, "cap: 2\ncap: 6\nvars: z w\ndz:\n", 2, "cap"),
        (fileio.parse_field_text, "vars: a b\n# the field\nvars: z w\ncap: 6\n", 3, "vars"),
        (fileio.parse_hypersurface_text, "cap: 4\n\ncap: 4\nvars: z zbar u\n", 3, "cap"),
        (lambda text: fileio.parse_series_text(text, ("t",)), "vars: t\nvars: t\ncap: 3\n",
         2, "vars"),
    ], ids=["field-cap", "field-vars", "surface-cap", "series-vars"])
    def test_repeated_header_line_rejected(self, parse, text, line, key):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: duplicate header line {key}:"

    def test_duplicate_exponents_rejected(self):
        bad = "vars: z w\ncap: 6\ndz:\n(1/1,0/1) 1 1\n(2/1,0/1) 1 1\ndw:\n"
        with pytest.raises(Exception):
            fileio.parse_field_text(bad)


class TestCommands:
    def test_classify(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        code, out, err = run(["classify", "--field", str(f), "--order", "8"], capsys)
        assert code == 0
        assert "result.case: ORD0" in out
        assert "result.family: NF7" in out

    def test_normalize_generic_via_cli(self, tmp_path, capsys):
        from holonorm.fileio import serialize_hypersurface
        from holonorm.manifold import default_generic_seed, realize_generic

        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        mu = gr(-2)
        m = realize_generic(mu, 1, gr(3), default_generic_seed(mu, 1, 10), 10)
        hsf = tmp_path / "m.hs"
        hsf.write_text(serialize_hypersurface(m))
        code, out, err = run(
            ["normalize", "--field", str(f), "--hypersurface", str(hsf),
             "--order", "10"],
            capsys,
        )
        assert code == 0
        assert "result.tag: NF11" in out
        assert "result.param.eta: (3/1,0/1)" in out

    def test_normalize_perturbed_end_to_end(self, tmp_path, capsys):
        # transform the nfgen model and its surface by a jet, write both to
        # files, and recover NF11 with the original parameters via the CLI
        from holonorm.field import pushforward
        from holonorm.fileio import serialize_field, serialize_hypersurface
        from holonorm.hypersurface import transport
        from holonorm.manifold import default_generic_seed, realize_generic

        rng = random.Random(55)
        from helpers import nfgen_field, rand_preserves_e_jet

        mu = gr(-1)
        model = nfgen_field(mu, 1, gr(1), cap=16)
        m = realize_generic(mu, 1, gr(1), default_generic_seed(mu, 1, 14), 14)
        h = rand_preserves_e_jet(rng, cap=14)
        xt = pushforward(h, model, cap=14)
        mt = transport(h, m, 13)
        f = tmp_path / "f.vf"
        f.write_text(serialize_field(xt))
        hsf = tmp_path / "m.hs"
        hsf.write_text(serialize_hypersurface(mt))
        code, out, err = run(
            ["normalize", "--field", str(f), "--hypersurface", str(hsf),
             "--order", "12"],
            capsys,
        )
        assert code == 0, err
        assert "result.tag: NF11" in out
        assert "result.param.eta: (1/1,0/1)" in out
        assert "result.param.mu: (-1/1,0/1)" in out

    def test_probe_divergence(self, tmp_path, capsys):
        code, out, err = run(["probe-divergence", "--k", "1", "--order", "15"], capsys)
        assert code == 0
        assert "result.verdict: factorial" in out
        assert "result.a1: (0/1,-1/1)" in out

    def test_probe_divergence_past_4300_digits(self, capsys):
        code, out, err = run(["probe-divergence", "--k", "1", "--order", "1600"], capsys)
        assert (code, err) == (0, "")
        assert "result.a1: (0/1,-1/1)" in out

    def test_normalize_ord0_via_cli(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        code, out, err = run(
            ["normalize", "--field", str(f), "--order", "8"], capsys
        )
        assert code == 0
        assert "result.tag: NF7" in out
        assert "result.param.k: 2" in out

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_normalize_ord0_k_above_the_order(self, order, tmp_path, capsys):
        # w^3 dz below order 3 used to exit 3 on an internal cap message;
        # k and alpha come from the leading data and print as at order 3
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 10\ndz:\n(1/1,0/1) 0 3\ndw:\n")
        argv = ["normalize", "--field", str(f), "--order"]
        code, out, err = run([*argv, order], capsys)
        _, at_three, _ = run([*argv, "3"], capsys)
        assert (code, err) == (0, "")
        assert out == at_three.replace("order: 3\n", f"order: {order}\n")
        assert "result.param.k: 3\nresult.param.alpha: (1/1,0/1)\n" in out

    def test_majorant_via_cli(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(
            "vars: z w\ncap: 12\ndz:\n(-1/1,0/1) 1 1\ndw:\n"
            "(1/1,0/1) 0 2\n(1/1,0/1) 2 2\n"
        )
        code, out, err = run(["majorant", "--field", str(f), "--order", "9"], capsys)
        assert code == 0
        assert "result.holds: True" in out

    def test_realize_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "m.hs"
        code, out, err = run(
            ["realize", "--form", "generic", "--mu", "-1", "--k", "1",
             "--r", "0", "--order", "10", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        m = fileio.parse_hypersurface(str(out_path))
        assert not m.psi.is_zero()

    @pytest.mark.parametrize("args, order", [
        (["--k", "0"], "1"), (["--k", "1"], "1"), (["--k", "2"], "1"),
        (["--k", "2", "--r", "1"], "1"), (["--k", "3", "--r", "1"], "1"),
        (["--k", "3", "--r", "1"], "2"),
    ], ids=["0", "1", "2", "2-r1", "3-r1", "3-r1-order2"])
    def test_realize_alpha_zero_at_order_one(self, args, order, capsys):
        # the default Cauchy data |z|^2 has degree 2, so a low order is the
        # zero jet; it used to be built capped at the order and refused, and
        # with r != 0 the model field was capped below its r w^(2k+1) term
        code, out, err = run(["realize", "--form", "alpha-zero", *args, "--order", order],
                             capsys)
        assert (code, out, err) == (0, f"vars: z zbar u\ncap: {order}\n", "")

    @pytest.mark.parametrize("q, t", [("1", "1"), ("2", "1"), ("2", "-1/2")])
    def test_realize_b_zero_at_order_one(self, q, t, capsys):
        # order 1 lies below the surface's u^(k+q+1), so it is the zero jet;
        # the model field used to be capped below its t w^(2(k+q)+1) term
        code, out, err = run(["realize", "--form", "b-zero", "--q", q, "--r", "1",
                              f"--t={t}", *["--c=1/2"] * int(q), "--order", "1"], capsys)
        assert (code, out, err) == (0, "vars: z zbar u\ncap: 1\n", "")

    @pytest.mark.parametrize("k, order", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3),
                                          (6, 1), (6, 2), (6, 3), (6, 4)])
    def test_realize_nf7_with_k_above_the_order(self, k, order, capsys):
        # the surface is the zero jet below its degree; the model field w^k dz
        # used to be capped at order + 1, below its own term
        code, out, err = run(["realize", "--form", "nf7", "--k", str(k),
                              "--order", str(order)], capsys)
        assert (code, out, err) == (0, f"vars: z zbar u\ncap: {order}\n", "")

    def test_tangency(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_IZ)
        hsf = tmp_path / "m.hs"
        hsf.write_text(SURFACE_CIRCLE)
        code, out, err = run(
            ["tangency", "--field", str(f), "--hypersurface", str(hsf),
             "--order", "8"],
            capsys,
        )
        assert code == 0
        assert "result.tangent_through: 8" in out

    def test_flow_and_bracket(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 8\ndz:\ndw:\n(1/1,0/1) 0 2\n")
        code, out, err = run(
            ["flow", "--field", str(f), "--time", "1", "--order", "4"], capsys
        )
        assert code == 0
        assert "transform.w: (1/1,0/1) 0 4" in out
        g = tmp_path / "g.vf"
        g.write_text("vars: z w\ncap: 8\ndz:\n(1/1,0/1) 1 0\ndw:\n")
        code, out, err = run(["bracket", "--field", str(f), "--field2", str(g)], capsys)
        assert code == 0

    def test_centralizer_command(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(
            "vars: z w\ncap: 16\ndz:\n(0/1,1/1) 1 1\ndw:\n(1/1,0/1) 0 3\n"
        )
        code, out, err = run(
            ["centralizer", "--field", str(f), "--order", "8"], capsys
        )
        assert code == 0
        assert "result.dimension: 2" in out


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bad.vf"
        f.write_text("vars: z w\ncap: x\n")
        code, out, err = run(["classify", "--field", str(f)], capsys)
        assert code == 2

    def test_precondition(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        code, out, err = run(["prenormalize", "--field", str(f), "--order", "8"], capsys)
        assert code == 3

    def test_inconsistent_tangency(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        # alpha_k == 0 with nonconstant c(z)
        f.write_text("vars: z w\ncap: 10\ndz:\ndw:\n(1/1,0/1) 0 2\n(1/1,0/1) 1 3\n")
        code, out, err = run(["normalize", "--field", str(f), "--order", "8"], capsys)
        assert code == 4

    @pytest.mark.parametrize("order", ["2", "6"])
    def test_alpha_zero_k0_linear_data(self, tmp_path, capsys, order):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_ALPHA_ZERO_K0)
        code, out, err = run(["normalize", "--field", str(f), "--order", order], capsys)
        assert (code, out) == (4, "")
        assert err == ("inconsistent tangency: nonconstant linear dw data cannot be "
                       "normalized away at k = 0\n")

    @pytest.mark.parametrize("command, text, code, err", [
        ("prenormalize", "vars: z w\ncap: 8\ndz:\ndw:\n(1/1,0/1) 0 2\n", 3,
         "precondition violated: alpha_k == 0: use normalize_alpha_zero\n"),
        ("normalize", "vars: z w\ncap: 8\ndz:\ndw:\n(1/1,0/1) 0 2\n(0/1,1/1) 0 3\n", 4,
         "inconsistent tangency: r = (0/1,1/1) is not real\n"),
    ], ids=["exit-3", "exit-4"])
    def test_normalizer_refusal(self, tmp_path, capsys, command, text, code, err):
        f = tmp_path / "f.vf"
        f.write_text(text)
        assert run([command, "--field", str(f), "--order", "6"], capsys) == (code, "", err)

    @pytest.mark.parametrize("field, surface, order, err", [
        ("(1/1,0/1) 1 1\ndw:\n(1/1,0/1) 0 2\n(1/1,0/1) 1 2\n", "(1/1,0/1) 1 1 1\n", "2",
         "beta_k = (1/1,0/1) + (1/1,0/1) z is not constant; no Levi-nonflat integral "
         "hypersurface in normal coordinates admits it"),
        ("(0/1,1/1) 1 1\ndw:\n", "(1/1,0/1) 2 1 1\n(1/1,0/1) 1 2 1\n", "4",
         "B = 0 forces phi_s proportional to |z|^s with s even"),
    ], ids=["beta-nonconstant", "phi-not-circular"])
    def test_normal_coordinate_constraint(self, field, surface, order, err, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(f"vars: z w\ncap: 12\ndz:\n{field}")
        m = tmp_path / "m.hs"
        m.write_text(f"vars: z zbar u\ncap: 10\n{surface}")
        argv = ["normalize", "--field", str(f), "--hypersurface", str(m), "--order", order]
        assert run(argv, capsys) == (4, "", f"inconsistent tangency: {err}\n")

    @pytest.mark.parametrize("argv, text, err", [
        (["classify"], "vars: z w\ncap: 6\ndz:\ndw:\n", "field vanishes through its cap"),
        (["classify"], "vars: z w\ncap: 6\ndz:\n(1/1,0/1) 1 1\ndw:\n(1/1,0/1) 1 0\n",
         "dw component not divisible by w"),
        (["centralizer"], "vars: z w\ncap: 8\ndz:\n(1/1,0/1) 0 0\ndw:\n(1/1,0/1) 0 2\n",
         "jet centralizer requires X(0) = 0"),
        (["centralizer"], "vars: z w\ncap: 8\ndz:\ndw:\n", "zero field"),
        (["centralizer", "--order", "9"],
         "vars: z w\ncap: 8\ndz:\n(-1/1,0/1) 1 1\ndw:\n(1/1,0/1) 0 2\n",
         "field cap 8 cannot constrain jets of degree 9"),
        (["centralizer", "--support-check"],
         "vars: z w\ncap: 12\ndz:\n(-1/1,0/1) 1 1\n(1/1,0/1) 2 1\ndw:\n(1/1,0/1) 0 2\n",
         "dz part must be the single monomial -p z w^k"),
        (["probe-divergence", "--k", "0"], None, "the witness family requires k >= 1"),
        (["normalize"], FIELD_NFGEN, "case GENERIC needs --hypersurface (an integral surface)"),
        (["majorant"], "vars: z w\ncap: 12\ndz:\ndw:\n(1/1,0/1) 0 2\n",
         "majorant certificate applies to the generic case"),
        (["majorant"], "vars: z w\ncap: 12\ndz:\n(0/1,-1/1) 1 1\ndw:\n(0/1,1/1) 0 2\n",
         "certificate requires a real leading dw constant"),
    ], ids=["classify-zero", "classify-dw-not-divisible", "centralizer-x0", "centralizer-zero",
            "centralizer-cap", "support-check-off-model", "probe-k0", "normalize-no-surface",
            "majorant-alpha-zero", "majorant-complex-b"])
    def test_refusal_message(self, argv, text, err, tmp_path, capsys):
        if text is not None:
            f = tmp_path / "f.vf"
            f.write_text(text)
            argv = [*argv, "--field", str(f)]
        if "--order" not in argv:
            argv = [*argv, "--order", "6"]
        assert run(argv, capsys) == (3, "", f"precondition violated: {err}\n")

    @pytest.mark.parametrize("text, err", [
        ("cap: 2\ncap: 6\nvars: z w\ndz:\ndw:\n(1/1,0/1) 0 2\n",
         "parse error: line 2: duplicate header line cap:\n"),
        ("vars: a b\nvars: z w\ncap: 6\ndz:\ndw:\n(1/1,0/1) 0 2\n",
         "parse error: line 2: duplicate header line vars:\n"),
    ], ids=["cap", "vars"])
    def test_repeated_header_line(self, tmp_path, capsys, text, err):
        f = tmp_path / "f.vf"
        f.write_text(text)
        assert run(["classify", "--field", str(f)], capsys) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--form", "generic", "--mu", "2", "--k", "1"], "k + 2p"),
            (["--form", "generic", "--k", "-1"], "k >= 0"),
            (["--form", "alpha-zero", "--k", "-1"], "k >= 0"),
            (["--form", "b-zero", "--q", "0"], "q >= 1"),
            (["--form", "b-zero", "--k", "-1", "--r", "1"], "k >= 0"),
        ],
    )
    def test_realize_parameter_out_of_range(self, argv, names, capsys):
        code, out, err = run(["realize", *argv, "--order", "6"], capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert names in err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            # the default seed alone would violate a precondition first
            (["--r", "abc", "--order", "4"], "abc"),
            (["--mu", "2", "--r", "1/0", "--order", "6"], "1/0"),
        ],
    )
    def test_realize_parses_text_before_engine(self, argv, bad, capsys):
        code, out, err = run(["realize", "--form", "generic", *argv], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"parse error: bad rational '{bad}'")

    @pytest.mark.parametrize("old, new", [
        ("(-2/1,0/1) 1 1", "(+2/1,0/1) 1 1"),
        ("(-2/1,0/1) 1 1", "(2/-1,0/1) 1 1"),
        ("(-2/1,0/1) 1 1", "(-2/+1,0/1) 1 1"),
        ("(-2/1,0/1) 1 1", "(-2/1,0/1) +1 1"),
        ("cap: 12", "cap: +12"),
    ])
    def test_number_spellings_outside_the_grammar(self, old, new, tmp_path, capsys):
        # a number is -?[0-9]+; a denominator, an exponent and a cap [0-9]+
        f = tmp_path / "f.vf"
        assert old in FIELD_NFGEN
        f.write_text(FIELD_NFGEN.replace(old, new))
        code, out, err = run(["classify", "--field", str(f), "--order", "6"], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error: line ")

    @pytest.mark.parametrize("option, bad", [
        ("--mu=+1/2", "+1/2"),
        ("--r=1/+2", "1/+2"),
        ("--r=1/-2", "1/-2"),
        ("--r= 1 / 2", " 1 / 2"),
    ])
    def test_rational_option_spellings_outside_the_grammar(self, option, bad, capsys):
        argv = ["realize", "--form", "generic", "--mu=-1", "--k", "1", option, "--order", "4"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"parse error: bad rational {bad!r}")

    @pytest.mark.parametrize("field", [
        "dz:\ndw:\n(1/1,0/1) 0 2\n(1/2,0/1) 0 3\n",  # ALPHA_ZERO
        "dz:\n(1/1,0/1) 0 2\ndw:\n",  # ORD0
    ], ids=["alpha-zero", "ord0"])
    def test_normalize_checks_the_surface_in_every_case(self, field, tmp_path, capsys):
        # neither field is tangent to v = z zbar beyond degree 2
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 10\n" + field)
        hs = tmp_path / "m.hs"
        hs.write_text("vars: z zbar u\ncap: 8\n(1/1,0/1) 1 1 0\n")
        code, out, err = run(["tangency", "--field", str(f), "--hypersurface", str(hs),
                              "--order", "6"], capsys)
        assert code == 0 and "result.tangent_through: 2\n" in out
        code, out, err = run(["normalize", "--field", str(f), "--hypersurface", str(hs),
                              "--order", "6"], capsys)
        assert (code, out, err) == (
            4, "", "inconsistent tangency: tangency residual nonzero from degree 3\n")

    def test_normalize_ord0_with_its_realized_surface(self, tmp_path, capsys):
        # a tangent pair prints what the field alone prints, plus the surface
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        hs = tmp_path / "m.hs"
        code, _, _ = run(["realize", "--form", "nf7", "--k", "2", "--order", "6",
                          "--out", str(hs)], capsys)
        argv = ["normalize", "--field", str(f), "--order", "6"]
        code_m, out_m, err_m = run([*argv, "--hypersurface", str(hs)], capsys)
        _, out, _ = run(argv, capsys)
        assert (code, code_m, err_m) == (0, 0, "") and "result.tag: NF7\n" in out
        assert [line for line in out_m.splitlines(True)
                if not line.startswith("input.hypersurface")] == out.splitlines(True)

    def test_normalize_parses_surface_for_every_case(self, tmp_path, capsys):
        # z w^3 dz + w^2 dw is ALPHA_ZERO; the surface is parsed first
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 10\ndz:\n(1/1,0/1) 1 3\ndw:\n(1/1,0/1) 0 2\n")
        hs = tmp_path / "bad.hs"
        hs.write_text("garbage")
        code, out, err = run(["normalize", "--field", str(f), "--order", "8"], capsys)
        assert code == 0 and "NF8" in out
        code, out, err = run(["normalize", "--field", str(f), "--hypersurface", str(hs),
                              "--order", "8"], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error:")

    def test_majorant_order_below_one(self, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        code, out, err = run(["majorant", "--field", str(f), "--order", "0"], capsys)
        assert code == 3
        assert err == "precondition violated: order 0: the certificate needs order >= 1\n"

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_majorant_model_below_the_residue_degree(self, order, tmp_path, capsys):
        # -z w dz + (w^2 + 2 w^3) dw: its residue sits at degree 2k + 1 = 3
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 12\ndz:\n(-1/1,0/1) 1 1\ndw:\n"
                     "(1/1,0/1) 0 2\n(2/1,0/1) 0 3\n")
        code, out, err = run(["majorant", "--field", str(f), "--order", order], capsys)
        assert (code, err) == (0, "")
        assert "result.holds: True" in out and "result.r: (2/1,0/1)" in out

    @pytest.mark.parametrize("moved", [False, True])
    def test_majorant_off_model_refused(self, moved, tmp_path, capsys):
        # z^3 w^2 dz is resonant for mu = -1/2, k = 1
        x = vf({(1, 1): gr(Fraction(-1, 2)), (3, 2): 1}, {(0, 2): 1, (0, 3): 2}, cap=10,
               exact=False)
        if moved:
            x = pushforward(rand_preserves_e_jet(random.Random(3), cap=8), x, cap=8)
        f = tmp_path / "f.vf"
        f.write_text(fileio.serialize_field(x))
        code, out, err = run(["majorant", "--field", str(f), "--order", "4"], capsys)
        assert (code, out) == (3, "")
        assert err == ("precondition violated: input does not normalize to the (p, q, r) "
                       "model at this cap: resonant F slot (3,1) is obstructed\n")

    def test_tangency_needs_a_surface(self, tmp_path, capsys):
        # without one the command used to exit 5 on a TypeError
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        with pytest.raises(SystemExit) as exc:
            cli.main(["tangency", "--field", str(f), "--order", "4"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "the following arguments are required: --hypersurface" in err

    def test_majorant_order_below_k(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 12\ndz:\n(-1/1,0/1) 1 2\ndw:\n(1/1,0/1) 0 3\n")
        code, out, err = run(["majorant", "--field", str(f), "--order", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == "precondition violated: order 1: the certificate needs order >= k = 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["realize", "--form", "generic", "--mu", "-1/2", "--k", "1", "--order", "10"],
            ["realize", "--form", "generic", "--mu", "-1", "--r", "-3/2", "--k", "1",
             "--order", "8"],
            ["realize", "--form", "alpha-zero", "--r", "-1/2", "--k", "1", "--order", "8"],
            ["realize", "--form", "b-zero", "--k", "1", "--q", "2", "--r", "1",
             "--t", "-3/2", "--c", "-1/3", "--c", "2", "--order", "8"],
            ["flow", "--field", "FIELD", "--time", "-3/2", "--order", "4"],
        ],
    )
    def test_negative_rational_values(self, argv, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        argv = [str(f) if a == "FIELD" else a for a in argv]
        joined = []
        for a in argv:
            if a.startswith("-") and a[1:2].isdigit():
                joined[-1] = f"{joined[-1]}={a}"
            else:
                joined.append(a)
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert run(joined, capsys) == (0, out, "")

    @pytest.mark.parametrize("order", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "FIELD"],
            ["prenormalize", "--field", "FIELD"],
            ["normalize", "--field", "FIELD", "--hypersurface", "SURFACE"],
            ["tangency", "--field", "FIELD", "--hypersurface", "SURFACE"],
            ["majorant", "--field", "FIELD"],
            ["realize", "--form", "generic"],
            ["realize", "--form", "alpha-zero", "--k", "0"],
            ["realize", "--form", "b-zero"],
            ["realize", "--form", "nf7"],
            ["centralizer", "--field", "FIELD"],
            ["centralizer", "--field", "FIELD", "--support-check"],
            ["probe-divergence"],
            ["flow", "--field", "FIELD"],
        ],
    )
    def test_order_below_one(self, argv, order, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        m = tmp_path / "m.hs"
        m.write_text(SURFACE_CIRCLE)
        argv = [{"FIELD": str(f), "SURFACE": str(m)}.get(a, a) for a in argv]
        code, out, err = run([*argv, "--order", order], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"precondition violated: order {order}: ")

    @pytest.mark.parametrize("bad", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "BAD", "--order", "6"],
            ["normalize", "--field", "FIELD", "--hypersurface", "BAD", "--order", "6"],
            ["tangency", "--field", "FIELD", "--hypersurface", "BAD", "--order", "6"],
            ["bracket", "--field", "FIELD", "--field2", "BAD"],
            ["realize", "--form", "alpha-zero", "--seed", "BAD", "--order", "6"],
        ],
    )
    def test_unreadable_input(self, argv, bad, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        path = tmp_path / "bad"
        if bad == "directory":
            path.mkdir()
        elif bad == "not-utf8":
            path.write_bytes(b"vars: z w\ncap: 4\n# caf\xe9\n")
        argv = [{"FIELD": str(f), "BAD": str(path)}.get(a, a) for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"parse error: cannot read {path}: ")

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "FIELD", "--order", "6"],
            ["realize", "--form", "nf7", "--k", "1", "--order", "4"],
        ],
    )
    def test_unwritable_output(self, argv, target, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        dest = tmp_path / "no" / "x.txt" if target == "missing-dir" else tmp_path
        argv = [str(f) if a == "FIELD" else a for a in argv]
        code, out, err = run([*argv, "--out", str(dest)], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"precondition violated: cannot write {dest}: ")

    @pytest.mark.parametrize(
        "argv, seed_head, seed_terms, degree",
        [
            (["--form", "alpha-zero", "--k", "1", "--order", "6"],
             "vars: z zbar", "(1/1,0/1) 1 1\n", 4),
            (["--form", "b-zero", "--k", "1", "--q", "1", "--r", "1", "--order", "8"],
             "vars: t", "(1/1,0/1) 1\n", 2),
            (["--form", "generic", "--mu", "-1", "--k", "1", "--order", "12"],
             "vars: z zbar u", "(1/1,0/1) 1 1 3\n", 11),
        ],
    )
    def test_realize_seed_cap_below_read_degree(self, argv, seed_head, seed_terms, degree,
                                                capsys, tmp_path):
        # a seed known through the degree the order reads is accepted; one
        # degree less leaves terms unknown, which must not be taken for zero
        seed = tmp_path / "seed.txt"
        seed.write_text(f"{seed_head}\ncap: {degree}\n{seed_terms}")
        code, out, err = run(["realize", *argv, "--seed", str(seed)], capsys)
        assert (code, err) == (0, "")
        seed.write_text(f"{seed_head}\ncap: {degree - 1}\n{seed_terms}")
        code, out, err = run(["realize", *argv, "--seed", str(seed)], capsys)
        order = argv[-1]
        assert (code, out) == (3, "")
        assert err == (f"precondition violated: seed cap {degree - 1} is below degree "
                       f"{degree}, which order {order} reads\n")

    @pytest.mark.parametrize("body", ["", "(1/1,0/1) 1 1\n"])
    @pytest.mark.parametrize("command", ["classify", "bracket"])
    def test_negative_cap_is_a_parse_error(self, command, body, capsys, tmp_path):
        good = tmp_path / "good.vf"
        good.write_text(FIELD_NFGEN)
        bad = tmp_path / "bad.vf"
        bad.write_text(f"vars: z w\ncap: -1\ndz:\n{body}dw:\n")
        argv = {"classify": ["classify", "--field", str(bad), "--order", "6"],
                "bracket": ["bracket", "--field", str(good), "--field2", str(bad)]}[command]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "parse error: line 2: cap must be nonnegative, got -1\n"

    @pytest.mark.parametrize("surface, line, what", [
        ("vars: z zbar u\ncap: 10\n(1/1,0/1) 1 1 -0\n", 3, "exponents"),
        ("vars: z zbar u\ncap: -0\n", 2, "cap"),
    ], ids=["exponent", "cap"])
    def test_signed_zero_is_a_parse_error(self, surface, line, what, capsys, tmp_path):
        # the grammar of an exponent and a cap is [0-9]+: -0 is not read as 0
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        m = tmp_path / "m.hs"
        m.write_text(surface)
        code, out, err = run(["tangency", "--field", str(f), "--hypersurface", str(m),
                              "--order", "6"], capsys)
        assert (code, out) == (2, "")
        assert err == f"parse error: line {line}: {what} must be unsigned [0-9]+, not -0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "FIELD"],
            ["normalize", "--field", "FIELD", "--hypersurface", "SURFACE"],
            ["tangency", "--field", "FIELD", "--hypersurface", "SURFACE"],
            ["realize", "--form", "generic"],
            ["centralizer", "--field", "FIELD"],
            ["probe-divergence"],
            ["flow", "--field", "FIELD"],
        ],
    )
    def test_order_beyond_the_key_fields(self, argv, capsys, tmp_path):
        # refused before any computation, whatever the command
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        m = tmp_path / "m.hs"
        m.write_text(SURFACE_CIRCLE)
        argv = [{"FIELD": str(f), "SURFACE": str(m)}.get(a, a) for a in argv]
        code, out, err = run([*argv, "--order", str(MAX_DEGREE + 1)], capsys)
        assert (code, out) == (3, "")
        assert err == (f"precondition violated: order {MAX_DEGREE + 1} exceeds "
                       f"{MAX_DEGREE}, the largest supported\n")

    @pytest.mark.parametrize("command", ["classify", "bracket"])
    def test_cap_beyond_the_key_fields_is_a_parse_error(self, command, capsys, tmp_path):
        good = tmp_path / "good.vf"
        good.write_text(FIELD_NFGEN)
        bad = tmp_path / "bad.vf"
        bad.write_text(f"vars: z w\n# a comment\ncap: {MAX_DEGREE + 1}\ndz:\n"
                       f"(1/1,0/1) 0 {MAX_DEGREE + 1}\ndw:\n")
        argv = {"classify": ["classify", "--field", str(bad), "--order", "6"],
                "bracket": ["bracket", "--field", str(good), "--field2", str(bad)]}[command]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"parse error: line 3: cap {MAX_DEGREE + 1} exceeds {MAX_DEGREE}, "
                       "the largest supported\n")

    def test_high_exponents_within_the_fields(self, capsys, tmp_path):
        # a sparse field of high degree: the key fields hold it
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 3000\ndz:\n(1/1,0/1) 1 0\ndw:\n(1/2,0/1) 0 2500\n")
        g = tmp_path / "g.vf"
        g.write_text("vars: z w\ncap: 3000\ndz:\n(1/1,0/1) 0 2\ndw:\n(1/1,0/1) 0 1\n")
        code, out, err = run(["bracket", "--field", str(f), "--field2", str(g)], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("result.dz: (-1/1,0/1) 0 2\nresult.dz: (1/1,0/1) 0 2501\n"
                            "result.dw: (-2499/2,0/1) 0 2500\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "FIELD", "--order", "8"],
            ["tangency", "--field", "FIELD", "--hypersurface", "SURFACE", "--order", "6"],
        ],
    )
    def test_byte_order_mark_accepted(self, argv, capsys, tmp_path):
        def report(marked):
            paths = {}
            for key, text in (("FIELD", FIELD_NFGEN), ("SURFACE", SURFACE_CIRCLE)):
                path = tmp_path / f"{key}.{marked}"
                path.write_bytes(b"\xef\xbb\xbf" * marked + text.encode())
                paths[key] = str(path)
            code, out, err = run([paths.get(a, a) for a in argv], capsys)
            # paths and digests name the files, which differ
            return code, [line for line in out.splitlines()
                          if not line.startswith("input.")], err

        expected = report(0)
        assert expected[0] in (0, 4) and expected[1]
        assert report(1) == expected

    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys, tmp_path):
        def broken(args):
            raise KeyError("slot\nsecond line")

        monkeypatch.setattr(cli, "cmd_classify", broken)
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        code, out, err = run(["classify", "--field", str(f), "--order", "6"], capsys)
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "internal error: KeyError: 'slot\\nsecond line'\n"
        assert "Traceback" not in err

    def test_back_to_back_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once; a repeated option or a flag of one call
        # must not reach the next
        f = tmp_path / "f.vf"
        f.write_text("vars: z w\ncap: 14\ndz:\n(-1/1,0/1) 1 1\ndw:\n(2/1,0/1) 0 2\n")
        plain = ["centralizer", "--field", str(f), "--order", "6"]
        check = plain + ["--support-check"]
        b_zero = ["realize", "--form", "b-zero", "--k", "1", "--q", "2", "--r", "1",
                  "--order", "10"]
        with_c = b_zero + ["--c=1/2"]
        runs = [run(argv, capsys)
                for argv in (plain, check, plain, b_zero, with_c, with_c, b_zero)]
        assert all(code == 0 and not err for code, _, err in runs)
        assert runs[0] == runs[2]
        assert "basis.0.dz" in runs[0][1] and "support_ok" not in runs[0][1]
        assert "result.support_ok: True" in runs[1][1] and "basis." not in runs[1][1]
        # --c appends (c_1 shows from order 10 on): each call starts empty
        assert runs[3] == runs[6] and runs[4] == runs[5] and runs[3] != runs[4]
        assert cli.build_parser() is cli.build_parser()

    def test_determinism(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        code1, out1, _ = run(["classify", "--field", str(f), "--order", "8"], capsys)
        code2, out2, _ = run(["classify", "--field", str(f), "--order", "8"], capsys)
        assert code1 == code2 == 0 and out1 == out2


# ----------------------------------------------------------------------
# fuzzing argument vectors: every run ends in a documented exit code other
# than the internal-error 5, and a rerun prints the same bytes

FUZZ_RATIONALS = ["-1", "-1/2", "-2/3", "-3/2", "0", "1/3", "1/2", "2"]

FUZZ_MALFORMED = {
    "garbage.vf": "garbage",
    "empty.vf": "",
    "bad-cap.vf": "vars: z w\ncap: x\n",
    "beyond-cap.vf": "vars: z w\ncap: 2\ndz:\n(1/1,0/1) 3 0\ndw:\n",
    "other-vars.vf": "vars: u v\ncap: 4\ndz:\n(1/1,0/1) 1 1\ndw:\n",
    "not-real.hs": "vars: z zbar u\ncap: 4\n(0/1,1/1) 1 1 1\n",
    "garbage.hs": "vars: z zbar u\n(1/1,0/1) 1\n",
}


@pytest.fixture(scope="module")
def fuzz_pool(tmp_path_factory):
    """(fields, surfaces, seeds): the report-digest inputs, the bare NF11
    model and malformed files, by path."""
    from test_report_digests import write_inputs

    d = tmp_path_factory.mktemp("fuzz")
    write_inputs(d)
    nf11 = nfgen_field(gr(-1), 1, gr(Fraction(1, 2)), cap=12)
    (d / "nf11-model.vf").write_text(fileio.serialize_field(nf11), encoding="utf-8")
    for name, text in FUZZ_MALFORMED.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "t.seed").write_text("vars: t\ncap: 6\n(1/1,0/1) 1\n", encoding="utf-8")
    (d / "zzbar.seed").write_text("vars: z zbar\ncap: 6\n(1/1,0/1) 1 1\n", encoding="utf-8")
    fields = sorted(str(p) for p in d.glob("*.vf")) + [str(d / "missing.vf")]
    surfaces = sorted(str(p) for p in d.glob("*.hs"))
    seeds = sorted(str(p) for p in d.glob("*.seed"))
    return fields, surfaces, seeds


def _fuzz_argv(fields, surfaces, seeds):
    field = st.sampled_from(fields)
    order = st.integers(1, 5).map(str)
    rational = st.sampled_from(FUZZ_RATIONALS)
    small = st.integers(0, 2).map(str)

    def realize(form, k, q, mu, r, t, cs, seed, order):
        argv = ["realize", "--form", form, "--k", k, "--q", q, f"--mu={mu}", f"--r={r}",
                f"--t={t}", *(f"--c={c}" for c in cs)]
        return argv + (["--seed", seed] if seed else []) + ["--order", order]

    return st.one_of(
        st.builds(lambda cmd, f, o: [cmd, "--field", f, "--order", o],
                  st.sampled_from(["classify", "prenormalize", "centralizer"]), field, order),
        # the certificate draws most often: its preconditions have the most cases
        *[st.builds(lambda f, o: ["majorant", "--field", f, "--order", o], field, order)] * 2,
        st.builds(lambda f, o: ["centralizer", "--support-check", "--field", f, "--order", o],
                  field, order),
        st.builds(lambda cmd, f, m, o: [cmd, "--field", f, *(["--hypersurface", m] if m else []),
                                        "--order", o],
                  st.sampled_from(["normalize", "tangency"]), field,
                  st.none() | st.sampled_from(surfaces), order),
        st.builds(lambda f, t, o: ["flow", "--field", f, f"--time={t}", "--order", o],
                  field, rational, order),
        st.builds(lambda f, g: ["bracket", "--field", f, "--field2", g], field, field),
        st.builds(lambda k, o: ["probe-divergence", "--k", k, "--order", o], small, order),
        st.builds(realize, st.sampled_from(["generic", "alpha-zero", "b-zero", "nf7"]),
                  st.integers(0, 4).map(str), st.integers(1, 2).map(str), rational, rational,
                  rational, st.lists(rational, max_size=2), st.none() | st.sampled_from(seeds),
                  order),
    )


# the kernel's refusal of a malformed exact series: a bug in the engine
# when it reaches the user as a precondition
KERNEL_CAP_ERROR = "exact series has a term beyond its cap"


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argument_vectors(fuzz_pool, data):
    argv = data.draw(_fuzz_argv(*fuzz_pool), label="argv")
    first = _run_quiet(argv)
    assert first[0] in (0, 2, 3, 4), first
    assert KERNEL_CAP_ERROR not in first[2], first
    assert _run_quiet(argv) == first


# fuzzing generated fields: sparse files reach pipeline branches that the
# fixed pool above does not

FUZZ_COEFFS = ["(1/1,0/1)", "(-1/1,0/1)", "(1/2,0/1)", "(-2/3,0/1)", "(3/1,0/1)",
               "(0/1,1/1)", "(0/1,-1/2)", "(1/1,1/1)", "(-1/2,3/2)"]

FUZZ_COMMANDS = [("classify",), ("prenormalize",), ("normalize",), ("majorant",),
                 ("centralizer",), ("centralizer", "--support-check"), ("flow", "--time=1/2")]


@st.composite
def sparse_field_texts(draw):
    """A field file with 0-4 terms per component, exponents up to 4 within a
    cap of 3-9 and coefficients from a small real and complex pool."""
    cap = draw(st.integers(3, 9))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= cap)
    lines = ["vars: z w", f"cap: {cap}"]
    for comp in ("dz", "dw"):
        terms = draw(st.lists(st.tuples(st.sampled_from(FUZZ_COEFFS), exps),
                              max_size=4, unique_by=lambda t: t[1]))
        lines += [f"{comp}:"] + [f"{c} {n} {m}" for c, (n, m) in terms]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=sparse_field_texts(), cmd=st.sampled_from(FUZZ_COMMANDS), order=st.integers(1, 6))
@example(text=FIELD_ALPHA_ZERO_K0, cmd=("normalize",), order=6)
def test_fuzzed_fields(tmp_path_factory, text, cmd, order):
    path = tmp_path_factory.getbasetemp() / f"fuzzed-{abs(hash(text))}.vf"
    path.write_text(text, encoding="utf-8")
    argv = [cmd[0], "--field", str(path), "--order", str(order), *cmd[1:]]
    first = _run_quiet(argv)
    assert first[0] in (0, 2, 3, 4), (text, first)
    assert KERNEL_CAP_ERROR not in first[2], (text, first)
    assert _run_quiet(argv) == first
