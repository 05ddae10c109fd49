import random

import pytest

from holonorm import cli, fileio
from holonorm.algebra import Series
from holonorm.backend import GaussRational

from helpers import gr, nf14_field, nfgen_field, rand_series, vf

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

    def test_hypersurface_reality_enforced(self):
        bad = "vars: z zbar u\ncap: 6\n(1/1,0/1) 2 0 1\n"
        with pytest.raises(Exception):
            fileio.parse_hypersurface_text(bad)

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

    def test_normalize_ord0_via_cli(self, tmp_path, capsys):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_W2DZ)
        code, out, err = run(
            ["normalize", "--field", str(f), "--order", "8"], capsys
        )
        assert code == 0
        assert "result.tag: NF7" in out
        assert "result.param.k: 2" in out

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

    def test_majorant_order_below_one(self, capsys, tmp_path):
        f = tmp_path / "f.vf"
        f.write_text(FIELD_NFGEN)
        code, out, err = run(["majorant", "--field", str(f), "--order", "0"], capsys)
        assert code == 3
        assert err == "precondition violated: order 0: the certificate needs order >= 1\n"

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
