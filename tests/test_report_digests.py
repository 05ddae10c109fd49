"""Byte-identical CLI reports.

Each case runs one CLI invocation at order <= 8 on inputs built here from
fixed seeds, and compares the sha256 of its stdout, with the input
directory masked as <DIR>, against the recorded digest. A refactor that
keeps the algorithms keeps every digest; a change that alters a report on
purpose records the new digests (`python tests/test_report_digests.py`
prints them) and says why.
"""

import contextlib
import hashlib
import io
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest

from holonorm import cli, fileio
from holonorm.algebra import Series
from holonorm.field import pushforward
from holonorm.hypersurface import transport
from holonorm.manifold import default_generic_seed, realize_b_zero, realize_generic

from helpers import circle_surface, gr, nf14_field, nfgen_field, rand_preserves_e_jet, vf

# each moved pair follows the benchmark's surface jobs: the surface is
# realized at O + 1, field and surface are moved at O + 1 and O, and the
# pair is normalized at O - 1
O = 8


def _moved(model, seed, surface=None, cap=O + 1):
    h = rand_preserves_e_jet(random.Random(seed), cap=cap)
    x = pushforward(h, model, cap=cap)
    return x, None if surface is None else transport(h, surface, O)


def _inputs():
    """{name: (field, surface or None)}"""
    mu, eta = gr(-1), gr(Fraction(1, 2))
    nf11 = realize_generic(mu, 1, eta, default_generic_seed(mu, 1, O + 1), O + 1)
    nf12 = realize_generic(mu, 0, 0, default_generic_seed(mu, 0, O + 1), O + 1)
    t_var = Series.variable(("t",), O + 1, "t", exact=True)
    nf14 = realize_b_zero(1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)], t_var, O + 1)
    return {
        "nf11": _moved(nfgen_field(mu, 1, eta, cap=O + 3), 11, nf11),
        "nf12": _moved(nfgen_field(mu, 0, 0, cap=O + 3), 12, nf12),
        "nf13": _moved(vf({(1, 0): gr(0, 1)}, {}, cap=O + 3), 13, circle_surface(O + 1)),
        "nf14": _moved(nf14_field(1, 1, 2, Fraction(1, 3), [Fraction(-1, 2)], cap=O + 3),
                       14, nf14),
        # ORD0 needs the cap O + k, the majorant O + k + 1
        "nf7": _moved(vf({(0, 2): 1}, {}, cap=O + 5), 7, cap=O + 2),
        "nf8": _moved(vf({}, {(0, 2): 1, (0, 3): Fraction(-2, 3)}, cap=O + 3), 8),
        "nf9": _moved(vf({}, {(0, 1): 1}, cap=O + 3), 9),
        "mu-2": _moved(nfgen_field(gr(-2), 1, gr(1), cap=O + 3), 2),
        "majorant": _moved(nfgen_field(gr(Fraction(-1, 2)), 1, gr(-1), cap=O + 5), 5,
                           cap=O + 2),
        "pq": (vf({(1, 1): -1}, {(0, 2): 2, (0, 3): 1}, cap=O + 4), None),
        # the exact model: a moved field's top degree would outrun its cap
        "nf14-model": (nf14_field(1, 1, Fraction(3, 2), Fraction(-1, 3),
                                  [Fraction(1, 2), Fraction(-2, 3)], cap=O + 5), None),
    }


def _normalize(name):
    return ["normalize", "--field", f"{name}.vf", "--hypersurface", f"{name}.hs",
            "--order", str(O - 1)]


CASES = {
    "normalize-nf11": (_normalize("nf11"),
                       "5618ee1dd858a2245138526eafe79dc5482ab1a0f133581e19464c4032c7df0c"),
    "normalize-nf12": (_normalize("nf12"),
                       "85958349169a2d958f87ab98e8a2266c0339b392866925dc6872efe7e789e185"),
    "normalize-nf13": (_normalize("nf13"),
                       "8d60e7ae367cf554dbe793c5731fd4ec6036f3acec96b915d24a6d03b0e155e1"),
    "normalize-nf14": (_normalize("nf14"),
                       "88f42d27dd02dd547d219bf71656dab171ac20dafbd1afaf7cc2708e7aeaf7a6"),
    "normalize-nf7": (["normalize", "--field", "nf7.vf", "--order", str(O)],
                      "74749b8cba5a1e6d9986be1057f9bc2a295401b90372b88c4988f6eae75d7073"),
    "normalize-nf8": (["normalize", "--field", "nf8.vf", "--order", str(O)],
                      "efdbd732dfff8128072a0dc1286c423cbdec4947c7c7aa5199af299fc12f24d1"),
    "normalize-nf9": (["normalize", "--field", "nf9.vf", "--order", str(O)],
                      "7b6ee6c6effb3654d50196e244b20b907fbf1711ef5471f7e7bf00aba876f770"),
    "prenormalize": (["prenormalize", "--field", "mu-2.vf", "--order", str(O)],
                     "06fc8bce72c76feab038593fdd6d46e83463b42220b69c80ceb340963d69e516"),
    "majorant": (["majorant", "--field", "majorant.vf", "--order", str(O)],
                 "739cf4be681b74d205dcbd84a270edaae862b23fd1d76823f14744070a60d695"),
    "realize-generic": (["realize", "--form", "generic", "--mu=-1/2", "--k", "1",
                         "--r=1/3", "--order", str(O)],
                        "607f4a14470419e1d0ed53d525cffa92b8f50e463a8360d043ba375149b38348"),
    "realize-alpha-zero": (["realize", "--form", "alpha-zero", "--k", "1", "--r=-2",
                            "--order", str(O)],
                           "595a3f39dae9fb772eb257ae7ef7ed7ea60b8a867f14dc383cf236ad0d01f3d5"),
    "realize-b-zero": (["realize", "--form", "b-zero", "--k", "1", "--q", "2", "--r=1",
                        "--t=1/2", "--c=-1", "--c=1/3", "--order", str(O)],
                       "be63c29bc6dec2000a7a652d8dc7a5e22d60e6294cd9b3f9efa24a30b13d5d8c"),
    "realize-nf7": (["realize", "--form", "nf7", "--k", "2", "--order", str(O)],
                    "059fd9a7dc019129ab0debb86a0aee6aa923530df1939f759e62b9c76acc6dce"),
    "centralizer": (["centralizer", "--field", "nf14-model.vf", "--order", str(O)],
                    "196957ac6c7d54a39c0d579d5b6a8703bf86fb2c319df3fb98ed516439afc7bb"),
    "centralizer-support-check": (["centralizer", "--support-check", "--field", "pq.vf",
                                   "--order", str(O)],
                                  "3ef8aa2208ba8012590b7244cccff87d808b17045d0bebde07d7b5075d2a9080"),
}


def write_inputs(d):
    for name, (x, m) in _inputs().items():
        (d / f"{name}.vf").write_text(fileio.serialize_field(x), encoding="utf-8")
        if m is not None:
            (d / f"{name}.hs").write_text(fileio.serialize_hypersurface(m),
                                          encoding="utf-8")


def report_digest(argv, d):
    """(exit code, stderr, sha256 of stdout with d masked as <DIR>)"""
    argv = [str(d / a) if a.endswith((".vf", ".hs")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    masked = out.getvalue().replace(str(d), "<DIR>")
    return code, err.getvalue(), hashlib.sha256(masked.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("digests")
    write_inputs(d)
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case, input_dir):
    argv, digest = CASES[case]
    assert report_digest(argv, input_dir) == (0, "", digest)


if __name__ == "__main__":
    # print the current digests, for recording after an intended change
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        write_inputs(d)
        for case in sorted(CASES):
            print(case, *report_digest(CASES[case][0], d))
