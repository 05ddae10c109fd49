"""Text formats for fields, hypersurfaces and series.

Exact rational syntax "p/q" and coefficient "(re,im)" survive
serialization byte-for-byte; serialize(parse(x)) is the canonical form of
x (terms sorted by total degree, then exponents).

Numbers have one grammar: a numerator or an integer is -?[0-9]+, and a
denominator, an exponent and a cap are [0-9]+ (a negative exponent or cap
is named as such, and so is -0). Only ASCII digits count, with no '+',
no '_' and no spaces inside a number; anything else raises ParseError. A
cap above `backend.MAX_DEGREE`, the largest degree a monomial key holds,
raises it too, and no exponent exceeds the cap. One match per term line
reads it straight into a packed key and the canonical (a + b*i)/d, which
the parsers wrap as they are; a line it rejects goes through per-field
checks that read it or name its fault and line.

Field file:        Hypersurface file:      Series file:
  vars: z w          vars: z zbar u          vars: t
  cap: 10            cap: 10                 cap: 6
  dz:                (1/1,0/1) 1 1 1         (1/1,0/1) 1
  (0/1,1/1) 1 1
  dw:
  (1/1,0/1) 0 2
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .algebra import INFINITY, Series
from .backend import MAX_DEGREE, GaussRational, from_ratios, pack, unpack
from .errors import ParseError
from .field import VF_VARS, JetMap, VectorField
from .hypersurface import HS_VARS, RealHypersurface


@contextmanager
def _any_size_digits():
    """CPython's int/str digit limit lifted inside the block, so
    coefficients of any size are read and written. The limit is process
    wide, so it is restored on exit; it is lifted once per file, report or
    public scalar call, never per number. Interpreters without it (before
    3.10.7) run the block as is."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def format_rational(fr: Fraction) -> str:
    with _any_size_digits():
        return f"{fr.numerator}/{fr.denominator}"


def format_gauss(c: GaussRational) -> str:
    with _any_size_digits():
        return str(c)


# int() alone would also read '+', '_' separators, spaces and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# caps and exponents keep CPython's default int/str digit limit
_SMALL_DIGITS = 4300
# a term line: its coefficient, then one _EXPONENT per variable
_TERM = r"\((-?[0-9]+)(?:/([0-9]+))?,(-?[0-9]+)(?:/([0-9]+))?\)"
_EXPONENT = rf"\s+([0-9]{{1,{_SMALL_DIGITS}}})"


def _integer(text):
    """int(text) when text is -?[0-9]+ of at most _SMALL_DIGITS digits,
    else None."""
    if _INTEGER.fullmatch(text) is None or len(text.lstrip("-")) > _SMALL_DIGITS:
        return None
    return int(text)


def _ratio(text, line):
    """(p, q) for p or p/q, p of the form -?[0-9]+ and q a nonzero [0-9]+,
    in any terms."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"bad rational {text!r}: write p or p/q in ASCII 0-9 digits, "
                         "with an optional '-' on p only", line)
    num, den = match.groups()
    num, den = int(num), int(den or 1)
    if not den:
        raise ParseError(f"bad rational {text!r}: Fraction({num}, 0)", line)
    return num, den


def parse_rational(text: str, line=None) -> Fraction:
    """p or p/q, p of the form -?[0-9]+ and q of the form [0-9]+."""
    with _any_size_digits():
        return Fraction(*_ratio(text, line))


def _coefficient(text, line):
    """The canonical coefficient of "(re,im)", built from its ints."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"coefficient must look like (re,im), got {text!r}", line)
    body = text[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError(f"coefficient must have two parts, got {text!r}", line)
    return from_ratios(*_ratio(parts[0], line), *_ratio(parts[1], line))


def _parse_header(lines, expected_vars=None):
    """Returns (vars, cap, index of first body line)."""
    idx = 0
    vars_ = None
    cap = None
    while idx < len(lines) and (vars_ is None or cap is None):
        raw = lines[idx]
        stripped = raw.strip()
        idx += 1
        if not stripped or stripped.startswith("#"):
            continue
        key = stripped.partition(":")[0]
        if (key == "vars" and vars_ is not None) or (key == "cap" and cap is not None):
            raise ParseError(f"duplicate header line {key}:", idx)
        if stripped.startswith("vars:"):
            vars_ = tuple(stripped[len("vars:"):].split())
        elif stripped.startswith("cap:"):
            cap = _integer(text := stripped[len("cap:"):].strip())
            if cap is None:
                raise ParseError("cap must be an integer of ASCII 0-9 digits", idx)
            if cap < 0:
                raise ParseError(f"cap must be nonnegative, got {cap}", idx)
            if text.startswith("-"):  # a signed zero
                raise ParseError("cap must be unsigned [0-9]+, not -0", idx)
            if cap > MAX_DEGREE:
                raise ParseError(f"cap {cap} exceeds {MAX_DEGREE}, the largest supported", idx)
        else:
            raise ParseError(f"expected header line, got {stripped!r}", idx)
    if vars_ is None or cap is None:
        raise ParseError("missing 'vars:' or 'cap:' header")
    if expected_vars is not None and vars_ != tuple(expected_vars):
        raise ParseError(f"expected variables {expected_vars}, got {vars_}")
    return vars_, cap, idx


def _parse_terms(lines, start, vars_, cap, stop_on_section=False):
    """The packed terms of the term lines from start, zeros dropped, and
    the index of the line after them."""
    n = len(vars_)
    match = re.compile(_TERM + _EXPONENT * n).fullmatch
    terms = {}
    idx = start
    while idx < len(lines):
        stripped = lines[idx].strip()
        if stop_on_section and stripped.endswith(":"):
            break
        idx += 1
        if not stripped or stripped.startswith("#"):
            continue
        if found := match(stripped):
            rn, rd, imn, imd, *exps = found.groups()
            rd, imd, exps = int(rd or 1), int(imd or 1), tuple(map(int, exps))
        if found and rd and imd and sum(exps) <= cap:
            coeff = from_ratios(int(rn), rd, int(imn), imd)
        else:
            parts = stripped.split()
            if len(parts) != 1 + n:
                raise ParseError(f"term line needs a coefficient and {n} exponents", idx)
            coeff = _coefficient(parts[0], idx)
            exps = tuple(_integer(p) for p in parts[1:])
            if None in exps:
                raise ParseError("exponents must be integers of ASCII 0-9 digits", idx)
            if any(e < 0 for e in exps):
                raise ParseError("exponents must be nonnegative", idx)
            if any(p.startswith("-") for p in parts[1:]):  # a signed zero
                raise ParseError("exponents must be unsigned [0-9]+, not -0", idx)
            # a tuple beyond the cap is no duplicate, and its key may not fit
            if sum(exps) > cap:
                raise ParseError(f"term {exps} exceeds the cap {cap}", idx)
        key = pack(exps)
        if key in terms:
            raise ParseError(f"duplicate exponent tuple {exps}", idx)
        terms[key] = coeff
    return {key: c for key, c in terms.items() if c}, idx


def parse_series_text(text: str, expected_vars=None) -> Series:
    lines = text.splitlines()
    with _any_size_digits():
        vars_, cap, idx = _parse_header(lines, expected_vars)
        terms, _ = _parse_terms(lines, idx, vars_, cap)
    return Series._make(vars_, cap, terms, False)


def parse_field_text(text: str) -> VectorField:
    lines = text.splitlines()
    sections = {}
    with _any_size_digits():
        vars_, cap, idx = _parse_header(lines, VF_VARS)
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if not stripped or stripped.startswith("#"):
                continue
            if stripped in ("dz:", "dw:"):
                name = stripped[:-1]
                if name in sections:
                    raise ParseError(f"duplicate section {stripped}", idx)
                terms, idx = _parse_terms(lines, idx, vars_, cap, stop_on_section=True)
                sections[name] = terms
            else:
                raise ParseError(f"expected 'dz:' or 'dw:', got {stripped!r}", idx)
    return VectorField(Series._make(vars_, cap, sections.get("dz", {}), False),
                       Series._make(vars_, cap, sections.get("dw", {}), False))


def parse_hypersurface_text(text: str) -> RealHypersurface:
    return RealHypersurface(parse_series_text(text, HS_VARS))


def read_bytes(path) -> bytes:
    """The file's contents; a file that cannot be read raises ParseError
    naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_text(path) -> str:
    """The file's UTF-8 text, without a leading byte-order mark; a file that
    cannot be read or decoded raises ParseError naming the path."""
    try:
        return read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})"
        ) from None


def parse_field(path) -> VectorField:
    return parse_field_text(read_text(path))


def parse_hypersurface(path) -> RealHypersurface:
    return parse_hypersurface_text(read_text(path))


def parse_series(path, expected_vars=None) -> Series:
    return parse_series_text(read_text(path), expected_vars)


def _term_lines(series: Series):
    # key order is the order by total degree, then exponents
    n = len(series.vars)
    return [f"{coeff} {' '.join(map(str, unpack(key, n)))}"
            for key, coeff in sorted(series.packed.items())]


def term_lines(series: Series):
    """One "(re,im) e1 e2 ..." line per term, sorted by total degree, then
    exponents."""
    with _any_size_digits():
        return _term_lines(series)


def serialize_series(series: Series) -> str:
    out = [f"vars: {' '.join(series.vars)}", f"cap: {series.cap}"]
    with _any_size_digits():
        return "\n".join(out + _term_lines(series)) + "\n"


def serialize_field(x: VectorField) -> str:
    """The field through its known order: x.cap(), or the larger component
    cap when both components are exact; terms above it are dropped, so the
    file parses back."""
    cap = x.cap()
    cap = max(x.p.cap, x.q.cap) if cap == INFINITY else int(cap)
    p, q = x.p.truncate(cap), x.q.truncate(cap)
    with _any_size_digits():
        out = [f"vars: {' '.join(x.vars)}", f"cap: {cap}", "dz:", *_term_lines(p), "dw:"]
        return "\n".join(out + _term_lines(q)) + "\n"


def serialize_hypersurface(m: RealHypersurface) -> str:
    return serialize_series(m.psi)


def jetmap_lines(h: JetMap):
    with _any_size_digits():
        return [f"transform.{name}: {line}"
                for name, comp in (("z", h.f), ("w", h.g)) for line in _term_lines(comp)]
