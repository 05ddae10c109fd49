"""Sparse truncated multivariate power series over Gaussian rationals.

A Series is a jet: its stored terms are exact through the total-degree cap
and nothing is known beyond it, unless ``exact`` is set, in which case the
stored terms are the whole object (a polynomial). Exactness is tracked so
that derivatives and substitutions of constructed polynomial data do not
leak truncation orders.

Every series expansion of the engine is one algorithm,
`_compose_near_identity` over a `_TaylorTable`: substitutions
(`substitute_all`), the kill loop's transform fold, the L^-1 step of the
near-identity maps and, through the same table, `field`'s near-identity
solve. An image x_i + eps_i is expanded by binomial sums, any other image
by its powers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import itemgetter, mul

from .backend import (
    GaussRational,
    as_gauss,
    series_add,
    series_mul,
    series_neg,
    series_scale,
)
from .errors import ArityError, OrderGuaranteeError

INFINITY = float("inf")

_alloc = object.__new__


class Series:
    __slots__ = ("vars", "cap", "terms", "exact")

    def __init__(self, vars, cap, terms=None, exact=False):
        self.vars = tuple(vars)
        if cap < 0:
            raise OrderGuaranteeError("negative truncation cap")
        self.cap = int(cap)
        clean = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv:
                    raise ArityError(f"exponent tuple {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = as_gauss(coeff)
                if coeff is None:
                    raise TypeError("coefficients must be Gaussian rationals")
                if sum(exps) > self.cap:
                    if exact:
                        raise OrderGuaranteeError(
                            "exact series has a term beyond its cap"
                        )
                    continue
                if not coeff.is_zero():
                    clean[exps] = coeff
        self.terms = clean
        self.exact = bool(exact)

    @classmethod
    def _make(cls, vars, cap, terms, exact):
        """Wrap a kernel result as is, without the checks of ``__init__``.

        The caller guarantees what the checks would establish: `vars` is a
        tuple, `cap` a nonnegative int, every key a tuple of `len(vars)`
        nonnegative ints of total degree <= cap, and every value a nonzero
        GaussRational. `terms` is not copied, so nothing may change it
        afterwards.
        """
        self = _alloc(cls)
        self.vars = vars
        self.cap = cap
        self.terms = terms
        self.exact = exact
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, vars, cap, exact=True):
        return cls(vars, cap, {}, exact=exact)

    @classmethod
    def constant(cls, vars, cap, value, exact=True):
        vars = tuple(vars)
        return cls(vars, cap, {(0,) * len(vars): as_gauss(value)}, exact=exact)

    @classmethod
    def monomial(cls, vars, cap, exps, coeff=1, exact=True):
        return cls(vars, cap, {tuple(exps): as_gauss(coeff)}, exact=exact)

    @classmethod
    def variable(cls, vars, cap, name, exact=True):
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls(vars, max(cap, 1), {tuple(exps): ONE_}, exact=exact)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Largest stored total degree; -1 for the zero series."""
        return max((sum(e) for e in self.terms), default=-1)

    def order(self):
        """Smallest stored total degree; INFINITY for the zero series."""
        return min((sum(e) for e in self.terms), default=INFINITY)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), ZERO_)

    def coefficient_series(self, var, power):
        """Coefficient of var**power as a Series in the remaining variables."""
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                out[exps[:i] + exps[i + 1 :]] = coeff
        cap = self.cap if self.exact else max(self.cap - power, 0)
        return Series(rest, cap, out, exact=self.exact)

    def items(self):
        return self.terms.items()

    def __iter__(self):
        return iter(sorted(self.terms))

    def __len__(self):
        return len(self.terms)

    # ------------------------------------------------------------------
    # equality is on the stored coefficients; cap and exactness are
    # bookkeeping, not values

    def __eq__(self, other):
        if not isinstance(other, Series):
            other = _coerce_scalar_series(self, other)
            if other is None:
                return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other):
        if self.vars != other.vars:
            raise ArityError(f"variable lists differ: {self.vars} vs {other.vars}")

    def _eff_cap(self):
        return INFINITY if self.exact else self.cap

    def __add__(self, other):
        if not isinstance(other, Series):
            other = _coerce_scalar_series(self, other)
            if other is None:
                return NotImplemented
        self._check_compatible(other)
        scap, ocap = self._eff_cap(), other._eff_cap()
        terms = series_add(self.terms, other.terms)
        if scap == ocap == INFINITY:
            cap = max((sum(e) for e in terms), default=0)
            return Series._make(self.vars, cap, terms, True)
        cap = int(min(scap, ocap))
        if scap != ocap:
            # the summand with the larger cap knows terms the sum does not
            terms = {e: c for e, c in terms.items() if sum(e) <= cap}
        return Series._make(self.vars, cap, terms, False)

    __radd__ = __add__

    def __neg__(self):
        return Series._make(self.vars, self.cap, series_neg(self.terms), self.exact)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = _coerce_scalar_series(self, other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            scalar = as_gauss(other)
            if scalar is None:
                return NotImplemented
            return self.scale(scalar)
        self._check_compatible(other)
        ecap = min(self._eff_cap(), other._eff_cap())
        if ecap == INFINITY:
            cap = max(self.degree() + other.degree(), 0)
            terms = series_mul(self.terms, other.terms, cap)
            return Series._make(self.vars, cap, terms, True)
        cap = int(ecap)
        return Series._make(self.vars, cap, series_mul(self.terms, other.terms, cap), False)

    __rmul__ = __mul__

    def scale(self, scalar):
        scalar = as_gauss(scalar)
        return Series._make(self.vars, self.cap, series_scale(self.terms, scalar), self.exact)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Series.constant(self.vars, self.cap, 1, exact=self.exact)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # truncation

    def truncate(self, cap):
        """Restrict the jet to total degree <= cap."""
        if cap > self.cap and not self.exact:
            raise OrderGuaranteeError(
                f"cannot extend a cap-{self.cap} jet to order {cap}"
            )
        if cap < 0:
            raise OrderGuaranteeError("negative truncation cap")
        kept = {e: c for e, c in self.terms.items() if sum(e) <= cap}
        exact = self.exact and len(kept) == len(self.terms)
        return Series._make(self.vars, int(cap), kept, exact)

    def as_jet(self, cap=None):
        """Forget exactness (view the polynomial as a plain jet)."""
        s = self if cap is None else self.truncate(cap)
        return Series._make(s.vars, s.cap, s.terms, False)

    # ------------------------------------------------------------------
    # calculus

    def derive(self, var):
        if var not in self.vars:
            raise ArityError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[new] = coeff * e
        if self.exact:
            return Series._make(self.vars, self.cap, out, True)
        if self.cap == 0:
            raise OrderGuaranteeError("derivative of an order-0 jet is unknown")
        return Series._make(self.vars, self.cap - 1, out, False)

    def substitute(self, assignments, cap=None):
        """Compose with var -> Series images sharing one target variable list.

        Unassigned variables must exist in the target list and map to
        themselves. Every image must vanish at the origin. The result is
        exact through the guaranteed order derived from the input caps;
        pass ``cap`` to request a lower (never higher) order. This is the
        one-source call of `substitute_all`.
        """
        return substitute_all((self,), assignments, cap)[0]

    def conjugate(self, pairing=None):
        """Conjugate coefficients and swap exponents per an involutive pairing."""
        pairing = dict(pairing or {})
        for v in self.vars:
            pairing.setdefault(v, v)
        for v, w in pairing.items():
            if v not in self.vars or w not in self.vars:
                raise ArityError(f"pairing uses unknown variable {v!r} or {w!r}")
            if pairing.get(w) != v:
                raise ArityError("pairing is not an involution")
        index_of = {v: i for i, v in enumerate(self.vars)}
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(exps)
            for v, e in zip(self.vars, exps):
                new[index_of[pairing[v]]] = e
            out[tuple(new)] = coeff.conjugate()
        # permuting exponents keeps every degree, and conjugates of nonzero
        # coefficients are nonzero
        return Series._make(self.vars, self.cap, out, self.exact)

    # ------------------------------------------------------------------
    # variable-list surgery

    def embed(self, new_vars, rename=None):
        """Inject into a larger variable list, optionally renaming."""
        rename = rename or {}
        new_vars = tuple(new_vars)
        positions = []
        for v in self.vars:
            name = rename.get(v, v)
            if name not in new_vars:
                raise ArityError(f"target variables lack {name!r}")
            positions.append(new_vars.index(name))
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(new_vars)
            for pos, e in zip(positions, exps):
                new[pos] = e
            out[tuple(new)] = coeff
        return Series(new_vars, self.cap, out, exact=self.exact)

    def divide_monomial(self, exps):
        """Exact division by a monomial; every term must be divisible."""
        exps = tuple(exps)
        d = sum(exps)
        out = {}
        for e, coeff in self.terms.items():
            new = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in new):
                raise ValueError(f"term {e} not divisible by {exps}")
            out[new] = coeff
        cap = self.cap if self.exact else max(self.cap - d, 0)
        return Series(self.vars, cap, out, exact=self.exact)

    def mul_monomial(self, exps, coeff=1):
        """Multiply by coeff * prod(var**e); a cap-N jet is known to N + deg."""
        shift = tuple(exps)
        d = sum(shift)
        coeff = as_gauss(coeff)
        out = {
            tuple(a + b for a, b in zip(e, shift)): c * coeff
            for e, c in self.terms.items()
        }
        return Series(self.vars, self.cap + d, out, exact=self.exact)

    def invert_unit(self, cap=None):
        """Multiplicative inverse of a series with nonzero constant term."""
        zero_exp = (0,) * len(self.vars)
        c0 = self.terms.get(zero_exp)
        if c0 is None:
            raise ZeroDivisionError("series has zero constant term")
        if cap is None:
            cap = self.cap
        elif not self.exact and cap > self.cap:
            raise OrderGuaranteeError("cannot invert beyond the jet cap")
        inv = Series.constant(self.vars, cap, GaussRational(1) / c0, exact=False)
        # Newton doubling: x <- x(2 - a x)
        two = Series.constant(self.vars, cap, 2, exact=True)
        a = Series(self.vars, cap,
                   {e: c for e, c in self.terms.items() if sum(e) <= cap},
                   exact=False)
        known = 1
        while known <= cap:
            inv = inv * (two - a * inv)
            known *= 2
        return inv

    # ------------------------------------------------------------------

    def __repr__(self):
        kind = "poly" if self.exact else "jet"
        return f"Series[{','.join(self.vars)}; cap {self.cap}; {kind}: {self.pretty()}]"

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            mono = " ".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e > 0
            )
            parts.append(f"{coeff}{' ' + mono if mono else ''}")
        return " + ".join(parts)


ZERO_ = GaussRational(0)
ONE_ = GaussRational(1)


def _coerce_scalar_series(template, value):
    scalar = as_gauss(value)
    if scalar is None:
        return None
    return Series.constant(template.vars, template.cap, scalar, exact=True)


def substitute_all(sources, assignments, cap=None):
    """Each source composed with the same var -> Series images, as a list.

    The sources share one variable list, and one expansion serves them
    all: each is expanded at the largest cap through one Taylor table
    (`_compose_near_identity`), then truncated to its own cap. Every
    target variable is a slot whose image is its assignment, or itself
    when it has none; a source variable absent from the target is one
    more slot, always full, that no result holds a power of. Each result
    is what ``source.substitute(assignments, cap)`` returns: the rules on
    images and the guaranteed order are those of `Series.substitute`,
    applied to each source on its own.
    """
    vars = sources[0].vars
    for src in sources:
        if src.vars != vars:
            raise ArityError("substitution sources disagree on variables")
    if not assignments:
        target_vars = vars
    else:
        target_vars = None
        for img in assignments.values():
            if target_vars is None:
                target_vars = img.vars
            elif img.vars != target_vars:
                raise ArityError("substitution images disagree on variables")
    images = {}
    for v in vars:
        if v in assignments:
            images[v] = assignments[v]
        else:
            if v not in target_vars:
                raise ArityError(
                    f"variable {v!r} has no image and is absent from the target"
                )
            images[v] = Series.variable(target_vars, 0, v, exact=True)
    for v in assignments:
        if v not in vars:
            raise ArityError(f"substitution for unknown variable {v!r}")

    # guaranteed order bookkeeping
    m_min = INFINITY
    img_limit = INFINITY
    for v, img in images.items():
        ordv = img.order()
        if not img.exact:
            ordv = min(ordv, img.cap + 1)
        if ordv == 0:
            raise OrderGuaranteeError(
                f"image of {v!r} has a nonzero constant term"
            )
        m_min = min(m_min, ordv)
        if not img.exact:
            img_limit = min(img_limit, img.cap + 1)
    plans = []
    for src in sources:
        source_limit = INFINITY if src.exact else (src.cap + 1) * m_min
        guaranteed = min(source_limit, img_limit) - 1
        c = cap
        if guaranteed == INFINITY:
            full_bound = max(0, src.degree()) * max(
                (img.degree() for img in images.values() if not img.is_zero()),
                default=1,
            )
            full_bound = max(full_bound, 0)
            if c is None:
                c = full_bound
            result_exact = c >= full_bound
        else:
            guaranteed = int(guaranteed)
            if guaranteed < 0:
                raise OrderGuaranteeError("no exact order can be guaranteed")
            if c is None:
                c = guaranteed
            elif c > guaranteed:
                raise OrderGuaranteeError(
                    f"requested order {c} exceeds guaranteed order {guaranteed}"
                )
            result_exact = False
        if c < 0:
            raise OrderGuaranteeError("negative truncation cap")
        plans.append((src, c, result_exact))

    top = max(c for _, c, _ in plans)
    # one slot per target variable, then one per source variable it lacks
    slots = target_vars + tuple(v for v in vars if v not in target_vars)
    pad = (0,) * (len(slots) - len(target_vars))
    slot_images = [{e + pad: c for e, c in images[v].terms.items()} if v in images
                   else Series.variable(slots, 1, v).terms for v in slots]
    comps = [src.terms for src in sources]
    if vars != slots:
        at = [vars.index(v) if v in vars else None for v in slots]
        comps = [{tuple(0 if i is None else e[i] for i in at): c for e, c in t.items()}
                 for t in comps]

    results = []
    expanded = _compose_near_identity(slot_images, comps, top)
    for (_, c, result_exact), terms in zip(plans, expanded):
        if pad or c < top:
            terms = {e[:len(target_vars)]: v for e, v in terms.items() if sum(e) <= c}
        results.append(Series._make(target_vars, c, terms, result_exact))
    return results


def _unpack(key, cap, n):
    """The n exponents packed in `key` as sum e_i (cap + 1)^i."""
    e = []
    for _ in range(n):
        key, x = divmod(key, cap + 1)
        e.append(x)
    return tuple(e)


@lru_cache(maxsize=4096)
def _taylor_terms(key, cap, excess, full):
    """Run together in one tuple, (packed a, |a|, C(e, a)) for every
    multi-index a != 0 of the expansion of x^e, e the exponent packed in
    `key` (see `_TaylorTable`), whose term x^(e - a) eps^a reaches a
    degree <= cap, C(e, a) the product of the binomials C(e_i, a_i).
    a_i runs over 0..e_i in a Taylor slot and is e_i alone in a full slot
    (the flags in `full`). eps^a starts at degree sum a_i ord eps_i, which
    exceeds the degree of x^e by sum a_i excess_i, with excess_i =
    ord eps_i - 1 (None for eps_i = 0, which allows a_i = 0 only, and so
    no term at all for a power of a full slot). An entry of order 1
    (excess 0) raises no degree, so only a_i <= e_i bounds it."""
    e = _unpack(key, cap, len(excess))
    room = cap - sum(e)
    out = [((), 1, 0)]
    for x, c, f in zip(e, excess, full):
        if not x or (c is None and not f):
            out = [(a + (0,), n, s) for a, n, s in out]
        elif f:
            out = [] if c is None else [(a + (x,), n, s + x * c) for a, n, s in out
                                        if s + x * c <= room]
        else:
            out = [(a + (b,), n * comb(x, b), s + b * c) for a, n, s in out
                   for b in range(min(x, (room - s) // c if c else x) + 1)]
    place = [(cap + 1) ** i for i in range(len(e))]
    # one flat tuple of ints keeps the cache small
    return tuple(x for a, n, _ in out if any(a)
                 for x in (sum(map(mul, a, place)), sum(a), n))


class _TaylorTable:
    """The terms of x^e o (id + eps) through cap, shared by the
    near-identity solve and every composition (`_compose_near_identity`);
    eps holds one term dict per variable, of order >= 1 or empty. In a
    full slot (`full`) the image is eps itself, not x + eps.

    An exponent e is packed as the int sum e_i (cap + 1)^i: no entry
    exceeds the cap, so adding exponents never carries. The products
    eps^a are built once per table, and each exponent's multi-indices a
    come from `_taylor_terms`, which depends on eps only through the
    orders of its entries and the full flags.
    """

    __slots__ = ("cap", "place", "excess", "full", "eps", "products", "ordered", "plans")

    def __init__(self, eps, cap: int, full=None):
        self.cap = cap
        self.place = [(cap + 1) ** i for i in range(len(eps))]
        self.excess = tuple(min(map(sum, t)) - 1 if t else None for t in eps)
        self.full = full or (False,) * len(eps)
        self.eps = eps
        self.products = {0: {(0,) * len(eps): ONE_}}
        self.ordered = {}
        self.plans = {}

    def pack(self, e):
        return sum(map(mul, e, self.place))

    def unpack(self, key):
        return _unpack(key, self.cap, len(self.place))

    def product(self, a):
        """eps^a, a packed, as (packed exponent, degree, coeff) by degree."""
        out = self.ordered.get(a)
        if out is None:
            cap, place = self.cap, self.place
            i = 0
            while not a // place[i] % (cap + 1):
                i += 1
            key = a - place[i]  # one factor eps_i fewer
            if key not in self.products:
                self.product(key)
            terms = series_mul(self.products[key], self.eps[i], cap)
            self.products[a] = terms
            out = self.ordered[a] = sorted(
                ((sum(map(mul, e, place)), sum(e), v) for e, v in terms.items()),
                key=itemgetter(1))
        return out

    def spread(self, levels, key, d, coeff):
        """Add coeff times every term C(e, a) x^(e - a) eps^a, a != 0, of
        x^e (e packed in key, of degree d) into
        levels[degree][packed exponent], through the cap."""
        cap = self.cap
        # (shift, base, weight, eps^a): the term adds weight * eps^a
        # times x^(e - a), at degree base + deg
        steps = self.plans.get(key)
        if steps is None:
            it = iter(_taylor_terms(key, cap, self.excess, self.full))
            steps = self.plans[key] = [(key - a, d - s, weight, self.product(a))
                                       for a, s, weight in zip(it, it, it)]
        for shift, base, weight, terms in steps:
            k = coeff if weight == 1 else coeff * weight
            for pk, pd, pv in terms:
                if base + pd > cap:
                    break
                target = levels[base + pd]
                at = shift + pk
                cur = target.get(at)
                target[at] = k * pv if cur is None else cur + k * pv


def _compose_near_identity(images, comps, cap: int):
    """The term dicts G o images through cap, one per term dict G in
    comps; images holds one term dict per variable, with no constant term.

    One rule per slot. A Taylor slot's image has coefficient 1 on its own
    variable, x_i + eps_i with ord eps_i >= 1, and x_i^e_i expands as the
    binomial sum of C(e_i, a_i) x_i^(e_i - a_i) eps_i^a_i (Brent and Kung,
    J. ACM 25, 1978). Any other image is a full slot, eps_i the image
    itself, and x_i^e_i becomes eps_i^e_i, the term a_i = e_i alone. Every
    exponent e of G adds those terms that reach a degree <= cap, from one
    `_TaylorTable`; its own monomial x^e (a = 0) stays only when e holds
    no power of a full slot.
    """
    units = [tuple(int(i == j) for i in range(len(images))) for j in range(len(images))]
    full = tuple(img.get(u) != ONE_ for img, u in zip(images, units))
    eps = [img if f else {e: c for e, c in img.items() if e != u}
           for img, u, f in zip(images, units, full)]
    table = _TaylorTable(eps, cap, full)
    fulls = [i for i, f in enumerate(full) if f]
    out = []
    for g in comps:
        levels = [{} for _ in range(cap + 1)]
        for e, v in g.items():
            d = sum(e)
            if d <= cap:
                key = table.pack(e)
                if not fulls or not any(e[i] for i in fulls):
                    cur = levels[d].get(key)
                    levels[d][key] = v if cur is None else cur + v
                table.spread(levels, key, d, v)
        out.append({table.unpack(key): v for level in levels
                    for key, v in level.items() if not v.is_zero()})
    return out


def gauss(re=0, im=0):
    """Convenience constructor accepting ints and Fractions."""
    return GaussRational(re, im)
