"""Property tests for the text formats: every text either parses or
raises ParseError, and parsing is stable under serialize-and-parse."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from holonorm import fileio
from holonorm.algebra import Series
from holonorm.backend import GaussRational
from holonorm.errors import ArityError, InconsistentTangencyError, ParseError
from holonorm.field import VectorField
from holonorm.hypersurface import HS_VARS, RealHypersurface, conjugate_real

from helpers import parse_gauss, reference_parse_series_text

VF = ("z", "w")

# pieces of well-formed files mixed with the characters int() would
# otherwise read: '_' separators and non-ASCII digits
TOKENS = ["vars: z w", "vars: z zbar u", "vars: t", "cap: ", "dz:", "dw:", "#", "\n", " ",
          "(", ")", ",", "/", "-", "+", "0", "1", "2", "7", "1_0", "_", "١", "３",
          "(1/1,0/1)", "(1/2,-3/4) ", " 1 1 1", " 0 2", "1/0"]

text_st = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)),
                   max_size=30).map("".join)


def _parses_or_rejects(parse, text, domain=()):
    try:
        parse(text)
    except ParseError:
        pass
    except domain:
        pass


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    _parses_or_rejects(fileio.parse_series_text, text)
    _parses_or_rejects(fileio.parse_field_text, text)
    # a well-formed series may still be refused as a surface: not real
    # (exit 4) or not through the origin (exit 3)
    _parses_or_rejects(fileio.parse_hypersurface_text, text,
                       (InconsistentTangencyError, ArityError))


@pytest.mark.parametrize("text", [
    "vars: t\ncap: 3\n(1_0/1,0/1) 1\n",
    "vars: t\ncap: 3\n(1/1,0/1_0) 1\n",
    "vars: t\ncap: 3\n(1/1,0/1) 1_0\n",
    "vars: t\ncap: 3\n(١/1,0/1) 1\n",
    "vars: t\ncap: 3\n(1/1,0/1) ١\n",
    "vars: t\ncap: ٣\n",
    "vars: t\ncap: 1_0\n",
])
def test_separators_and_non_ascii_digits_rejected(text):
    with pytest.raises(ParseError, match="ASCII 0-9|cap must be an integer"):
        fileio.parse_series_text(text)


@pytest.mark.parametrize("text", ["(+1/2,0/1)", "(1/-2,0/1)", "(1/+2,0/1)", "( 1 / 2,0/1)",
                                  "( 1/2,0/1)", "(1/2,0/1 )", "(1/2,-0/+1)"])
def test_coefficient_spellings_outside_the_grammar(text):
    with pytest.raises(ParseError, match="bad rational"):
        parse_gauss(text)


def test_rational_option_rejects_separators():
    with pytest.raises(ParseError, match="ASCII 0-9"):
        fileio.parse_rational("1_0/3")


# ----------------------------------------------------------------------
# parse o serialize o parse


part_st = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coeff_st = st.builds(GaussRational, part_st, part_st)


def _terms_st(nvars, cap):
    exps = st.tuples(*[st.integers(0, cap)] * nvars).filter(lambda e: sum(e) <= cap)
    return st.dictionaries(exps, coeff_st, max_size=6)


def _line(e, c, pad):
    """A term line in a non-canonical but valid spelling: unreduced
    fractions and extra spaces."""
    k = 1 + pad % 3
    re, im = c.re, c.im
    return (f"({re.numerator * k}/{re.denominator * k},{im.numerator * k}/{im.denominator * k})"
            + " " * (1 + pad % 2) + " ".join(map(str, e)))


@st.composite
def series_text(draw, vars=None):
    vars = vars or tuple(draw(st.sampled_from([("t",), VF, HS_VARS])))
    cap = draw(st.integers(0, 6))
    terms = draw(_terms_st(len(vars), cap))
    pads = draw(st.lists(st.integers(0, 5), min_size=len(terms), max_size=len(terms)))
    lines = [f"vars: {' '.join(vars)}", "# comment", f"cap: {cap}", ""]
    lines += [_line(e, c, p) for (e, c), p in zip(terms.items(), pads)]
    return "\n".join(lines) + "\n"


@st.composite
def field_text(draw):
    cap = draw(st.integers(0, 6))
    lines = ["vars: z w", f"cap: {cap}"]
    for name in draw(st.permutations(["dz:", "dw:"])):
        lines.append(name)
        lines += [_line(e, c, 0) for e, c in draw(_terms_st(2, cap)).items()]
    return "\n".join(lines) + "\n"


@st.composite
def surface_text(draw):
    cap = draw(st.integers(1, 6))
    raw = Series(HS_VARS, cap, draw(_terms_st(3, cap)))
    psi = raw + conjugate_real(raw)
    psi = Series(HS_VARS, cap, {e: c for e, c in psi.terms.items() if sum(e)})
    return fileio.serialize_hypersurface(RealHypersurface(psi)).replace("\n", "\n\n")


def _same(a, b):
    if isinstance(a, Series):
        return (a.vars, a.cap, a.exact, a.terms) == (b.vars, b.cap, b.exact, b.terms)
    if isinstance(a, VectorField):
        return _same(a.p, b.p) and _same(a.q, b.q)
    return _same(a.psi, b.psi)


@settings(max_examples=80, deadline=None)
@given(series_text())
def test_series_roundtrip(text):
    x = fileio.parse_series_text(text)
    assert _same(fileio.parse_series_text(fileio.serialize_series(x)), x)


@settings(max_examples=80, deadline=None)
@given(field_text())
def test_field_roundtrip(text):
    x = fileio.parse_field_text(text)
    assert _same(fileio.parse_field_text(fileio.serialize_field(x)), x)


@settings(max_examples=80, deadline=None)
@given(surface_text())
def test_hypersurface_roundtrip(text):
    m = fileio.parse_hypersurface_text(text)
    assert _same(fileio.parse_hypersurface_text(fileio.serialize_hypersurface(m)), m)


# ----------------------------------------------------------------------
# the whole-line match against the per-field reference


@pytest.mark.parametrize("text, line, what", [
    ("vars: t\ncap: 3\n(1/1,0/1) -0\n", 3, "exponents"),
    ("vars: z zbar u\ncap: 4\n(1/1,0/1) 1 1 -00\n", 3, "exponents"),
    ("vars: t\ncap: -0\n", 2, "cap"),
    ("vars: t\ncap: -000\n(1/1,0/1) 0\n", 2, "cap"),
])
def test_signed_zero_exponent_or_cap_rejected(text, line, what):
    # an exponent and a cap are [0-9]+; -0 used to read as 0
    with pytest.raises(ParseError) as info:
        fileio.parse_series_text(text)
    assert (str(info.value), info.value.line) == (
        f"line {line}: {what} must be unsigned [0-9]+, not -0", line)


SEPARATORS = [" ", "  ", "\t", " \t", "\u00a0"]

# one-token replacements: spellings inside and outside the grammar
MUTANTS = ["-0", "-00", "0", "00", "007", "-1", "+1", "1_0", "\u0661", "99", "1" * 4301,
           "0" * 4300 + "1", "x",
           "#", ":", "dz:", "(1/1,0/1)", "(0/4,0/1)", "(1,2)", "(-0/3,6/4)", "(1/0,0/1)",
           "(1/1,0/0)", "(+1/2,0/1)", "(1/-2,0/1)", "(1/2,0/1", "(1/2)", "1/2", "(a,b)"]


def _fraction_spelling(x, k, bare):
    """x as p/q scaled by k, or as p alone when x is an integer and bare."""
    if bare and x.denominator == 1 and k == 1:
        return str(x.numerator)
    return f"{x.numerator * k}/{x.denominator * k}"


@st.composite
def term_file(draw):
    """A valid series file in one to three variables: unreduced and bare
    fractions, tabs and runs of spaces, comments and blank lines."""
    n = draw(st.integers(1, 3))
    vars_ = ("z", "zbar", "u")[:n]
    cap = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, cap)] * n).filter(lambda e: sum(e) <= cap)
    part = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = draw(st.dictionaries(exps, st.tuples(part, part), max_size=5))
    sep = st.sampled_from(SEPARATORS)
    lines = [f"vars: {' '.join(vars_)}", f"cap:{draw(sep)}{cap}"]
    for e, (re_, im) in terms.items():
        k, bare = draw(st.integers(1, 3)), draw(st.booleans())
        coeff = f"({_fraction_spelling(re_, k, bare)},{_fraction_spelling(im, k, bare)})"
        body = coeff + "".join(draw(sep) + str(x) for x in e)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " "])))
        lines += draw(st.lists(st.sampled_from(["", "# comment", " \t", "#(1/1,0/1) 0"]),
                               max_size=1))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        s = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return s.vars, s.cap, s.exact, list(s.packed.items())


def _signed_zero(text, got, want):
    """got is the refusal of an exponent or cap spelled -0 on a line whose
    -0 the reference read as 0, the one intended difference: the
    reference then accepts the text or refuses that line or a later one."""
    if not (isinstance(got[0], str) and got[0].endswith("must be unsigned [0-9]+, not -0")):
        return False
    line = text.splitlines()[got[1] - 1]
    return (re.search(r"(^|[\s:])-0+(\s|$)", line) is not None
            and (not isinstance(want[0], str) or want[1] >= got[1]))


@settings(max_examples=150, deadline=None)
@given(term_file(), st.data())
def test_term_lines_match_the_per_field_reference(text, data):
    """Each spelling, and each one-token mutation of it, gives the
    reference's packed terms in its order, or its ParseError message and
    line; the one difference is -0, which the reference reads as 0."""
    pieces = re.split(r"(\s+)", text)
    tokens = [i for i, p in enumerate(pieces) if p and not p.isspace()]
    texts = [text]
    for i in tokens:
        mutant = list(pieces)
        mutant[i] = data.draw(st.sampled_from(MUTANTS + [""]))
        texts.append("".join(mutant))
    for t in texts:
        got = _parse_outcome(fileio.parse_series_text, t)
        want = _parse_outcome(reference_parse_series_text, t)
        assert got == want or _signed_zero(t, got, want), t
    # every drawn spelling is inside the grammar
    assert not isinstance(_parse_outcome(fileio.parse_series_text, text)[0], str)
