"""Property tests for the text formats: every text either parses or
raises ParseError, and parsing is stable under serialize-and-parse."""

import pytest
from hypothesis import given, settings, strategies as st

from holonorm import fileio
from holonorm.algebra import Series
from holonorm.backend import GaussRational
from holonorm.errors import ArityError, InconsistentTangencyError, ParseError
from holonorm.field import VectorField
from holonorm.hypersurface import HS_VARS, RealHypersurface, conjugate_real

from helpers import parse_gauss

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
