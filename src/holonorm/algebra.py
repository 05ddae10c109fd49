"""Sparse truncated multivariate power series over Gaussian rationals.

A Series is a jet: its stored terms are exact through the total-degree cap
and nothing is known beyond it, unless ``exact`` is set, in which case the
stored terms are the whole object (a polynomial). Exactness is tracked so
that derivatives and substitutions of constructed polynomial data do not
leak truncation orders.

A Series stores its terms in `packed`, a dict from `backend` monomial
keys (the total degree in the top field, then the exponents) to nonzero
coefficients, and the engine works on those keys throughout: a product
key is a sum, the cap test one compare, a derivative one subtraction.
Exponent tuples exist only at the boundary: the constructor accepts a
dict of them, and `terms` is a read-only view keyed by them, built once
per series on first read, for the public API, the files, the reports and
the tests. A cap beyond `backend.MAX_DEGREE` is refused with
OrderGuaranteeError.

Every series expansion of the engine is one algorithm,
`_compose_near_identity` over a `_TaylorTable`: substitutions
(`substitute_all`), the kill loop's transform fold, the L^-1 step of the
near-identity maps and, through the same table, `field`'s near-identity
solve. An image x_i + eps_i is expanded by binomial sums, any other image
by its powers; so is a source variable's image x_j + eps in a variable x_j
that no source has (the graph's w -> u + i psi).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import itemgetter
from types import MappingProxyType

from .backend import (MAX_DEGREE, ONE, WIDTH, ZERO, GaussRational, add_over_lcm, add_raw,
                      as_gauss, check_degree, exponent, limit, pack, remap, series_add,
                      series_mul, series_neg, series_scale, settle, unit, unpack)
from .errors import ArityError, OrderGuaranteeError

INFINITY = float("inf")

_alloc = object.__new__


class Series:
    __slots__ = ("vars", "cap", "packed", "exact", "_view")

    def __init__(self, vars, cap, terms=None, exact=False):
        """A series from a dict of exponent tuples to coefficients."""
        self.vars = tuple(vars)
        if cap < 0:
            raise OrderGuaranteeError("negative truncation cap")
        self.cap = check_degree(int(cap))
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = self._exponents(exps)
                coeff = as_gauss(coeff)
                if coeff is None:
                    raise TypeError("coefficients must be Gaussian rationals")
                if coeff.is_zero():
                    continue
                if sum(exps) > self.cap:
                    if exact:
                        raise OrderGuaranteeError(
                            "exact series has a term beyond its cap"
                        )
                    continue
                clean[pack(exps)] = coeff
        self.packed = clean
        self.exact = bool(exact)

    @classmethod
    def _make(cls, vars, cap, packed, exact):
        """Wrap a kernel result as is, without the checks of ``__init__``.

        The caller guarantees what the checks would establish: `vars` is a
        tuple, `cap` a nonnegative int, every key of `packed` the key of
        `len(vars)` exponents of total degree <= cap, and every value a
        nonzero GaussRational. `packed` is not copied, so nothing may
        change it afterwards.
        """
        self = _alloc(cls)
        self.vars = vars
        self.cap = cap
        self.packed = packed
        self.exact = exact
        return self

    def _exponents(self, exps):
        """exps as a tuple of ints, refused unless it holds one nonnegative
        exponent per variable."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.vars):
            raise ArityError(f"exponent tuple {exps} has wrong arity")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    @property
    def terms(self):
        """The terms as a read-only dict from exponent tuples to
        coefficients, in storage order, built on first read."""
        try:
            return self._view
        except AttributeError:
            n = len(self.vars)
            self._view = MappingProxyType({unpack(k, n): c for k, c in self.packed.items()})
            return self._view

    def exponents(self):
        """The exponent tuples of the stored terms, in storage order."""
        n = len(self.vars)
        return [unpack(k, n) for k in self.packed]

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
        return cls(vars, max(cap, 1), {tuple(exps): ONE}, exact=exact)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self):
        return not self.packed

    def degree(self):
        """Largest stored total degree; -1 for the zero series."""
        # int order on keys is degree order first
        return max(self.packed) >> len(self.vars) * WIDTH if self.packed else -1

    def order(self):
        """Smallest stored total degree; INFINITY for the zero series."""
        return min(self.packed) >> len(self.vars) * WIDTH if self.packed else INFINITY

    def coefficient(self, exps):
        exps = tuple(exps)
        return self.packed.get(pack(exps), ZERO) if len(exps) == len(self.vars) else ZERO

    def coefficient_series(self, var, power):
        """Coefficient of var**power as a Series in the remaining variables."""
        i = self.vars.index(var)
        n = len(self.vars)
        kept = {key: c for key, c in self.packed.items() if exponent(key, i, n) == power}
        out = dict(zip(remap(kept, tuple(j for j in range(n) if j != i), n), kept.values()))
        cap = self.cap if self.exact else max(self.cap - power, 0)
        return Series._make(self.vars[:i] + self.vars[i + 1 :], cap, out, self.exact)

    def items(self):
        return self.terms.items()

    def __iter__(self):
        return iter(sorted(self.terms))

    def __len__(self):
        return len(self.packed)

    # ------------------------------------------------------------------
    # equality is on the stored coefficients; cap and exactness are
    # bookkeeping, not values

    def __eq__(self, other):
        if not isinstance(other, Series):
            other = _coerce_scalar_series(self, other)
            if other is None:
                return NotImplemented
        return self.vars == other.vars and self.packed == other.packed

    def __hash__(self):
        return hash((self.vars, frozenset(self.packed.items())))

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
        terms = series_add(self.packed, other.packed)
        if scap == ocap == INFINITY:
            cap = max(terms) >> len(self.vars) * WIDTH if terms else 0
            return Series._make(self.vars, cap, terms, True)
        cap = int(min(scap, ocap))
        if scap != ocap:
            # the summand with the larger cap knows terms the sum does not
            top = limit(cap, len(self.vars))
            terms = {k: c for k, c in terms.items() if k < top}
        return Series._make(self.vars, cap, terms, False)

    __radd__ = __add__

    def __neg__(self):
        return Series._make(self.vars, self.cap, series_neg(self.packed), self.exact)

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
        exact = ecap == INFINITY
        cap = max(self.degree() + other.degree(), 0) if exact else int(ecap)
        terms = series_mul(self.packed, other.packed, limit(cap, len(self.vars)))
        return Series._make(self.vars, cap, terms, exact)

    __rmul__ = __mul__

    def scale(self, scalar):
        scalar = as_gauss(scalar)
        return Series._make(self.vars, self.cap, series_scale(self.packed, scalar), self.exact)

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
        top = limit(cap, len(self.vars))
        kept = {k: c for k, c in self.packed.items() if k < top}
        exact = self.exact and len(kept) == len(self.packed)
        return Series._make(self.vars, int(cap), kept, exact)

    def as_jet(self, cap=None):
        """Forget exactness (view the polynomial as a plain jet)."""
        s = self if cap is None else self.truncate(cap)
        return Series._make(s.vars, s.cap, s.packed, False)

    # ------------------------------------------------------------------
    # calculus

    def derive(self, var):
        if var not in self.vars:
            raise ArityError(f"unknown variable {var!r}")
        out = _derive_terms(self.packed, self.vars.index(var), len(self.vars))
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
        swap = tuple(self.vars.index(pairing[v]) for v in self.vars)
        out = dict(zip(remap(self.packed, swap, len(self.vars)),
                       [c.conjugate() for c in self.packed.values()]))
        # permuting exponents keeps every degree, and conjugates of nonzero
        # coefficients are nonzero
        return Series._make(self.vars, self.cap, out, self.exact)

    # ------------------------------------------------------------------
    # variable-list surgery

    def embed(self, new_vars, rename=None):
        """Inject into a larger variable list, optionally renaming."""
        rename = rename or {}
        new_vars = tuple(new_vars)
        at = [None] * len(new_vars)
        for i, v in enumerate(self.vars):
            name = rename.get(v, v)
            if name not in new_vars:
                raise ArityError(f"target variables lack {name!r}")
            at[new_vars.index(name)] = i
        out = dict(zip(remap(self.packed, tuple(at), len(self.vars)), self.packed.values()))
        return Series._make(new_vars, self.cap, out, self.exact)

    def divide_monomial(self, exps):
        """Exact division by a monomial; every term must be divisible."""
        exps = self._exponents(exps)
        n = len(self.vars)
        shift = pack(exps)
        out = {}
        for key, coeff in self.packed.items():
            e = unpack(key, n)
            if any(a < b for a, b in zip(e, exps)):
                raise ValueError(f"term {e} not divisible by {exps}")
            out[key - shift] = coeff
        cap = self.cap if self.exact else max(self.cap - sum(exps), 0)
        return Series._make(self.vars, cap, out, self.exact)

    def mul_monomial(self, exps, coeff=1):
        """Multiply by coeff * prod(var**e); a cap-N jet is known to N + deg."""
        exps = self._exponents(exps)
        shift = pack(exps)
        cap = check_degree(self.cap + sum(exps))
        coeff = as_gauss(coeff)
        out = {key + shift: c * coeff for key, c in self.packed.items()} if coeff else {}
        return Series._make(self.vars, cap, out, self.exact)

    def invert_unit(self, cap=None):
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.packed.get(0)
        if c0 is None:
            raise ZeroDivisionError("series has zero constant term")
        if cap is None:
            cap = self.cap
        elif not self.exact and cap > self.cap:
            raise OrderGuaranteeError("cannot invert beyond the jet cap")
        inv = Series.constant(self.vars, cap, ONE / c0, exact=False)
        # Newton doubling: x <- x(2 - a x)
        two = Series.constant(self.vars, cap, 2, exact=True)
        a = self.as_jet(cap)
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
        if not self.packed:
            return "0"
        parts = []
        # key order is the order by total degree, then exponents
        for key, coeff in sorted(self.packed.items()):
            exps = unpack(key, len(self.vars))
            mono = " ".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e > 0
            )
            parts.append(f"{coeff}{' ' + mono if mono else ''}")
        return " + ".join(parts)


def _derive_terms(terms, slot, n):
    """The derivative of a term dict in n variables in the variable at
    `slot`."""
    step = unit(slot, n)
    return {key - step: c * e for key, c in terms.items() if (e := exponent(key, slot, n))}


def _derive_raw(terms, slot, n):
    """`_derive_terms` as raw terms (key, re, im, den) for
    `backend.mul_into`: each exponent weighs the numerators, unreduced."""
    step, shift = unit(slot, n), (n - 1 - slot) * WIDTH
    return [(key - step, c.a * e, c.b * e, c.d) for key, c in terms.items()
            if (e := key >> shift & MAX_DEGREE)]


def _coerce_scalar_series(template, value):
    scalar = as_gauss(value)
    if scalar is None:
        return None
    return Series.constant(template.vars, template.cap, scalar, exact=True)


def substitute_all(sources, assignments, cap=None):
    """Each source composed with the same var -> Series images, as a list:
    what ``source.substitute(assignments, cap)`` returns. The planning here
    checks the images and sets each cap and exact flag by the rules of
    `Series.substitute`; `_substitute_packed` expands the sources at once.
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
        plans.append((c, result_exact))

    expanded = _substitute_packed(vars, target_vars, {v: img.packed for v, img in images.items()},
                                  [src.packed for src in sources], [c for c, _ in plans])
    return [Series._make(target_vars, c, t, exact) for (c, exact), t in zip(plans, expanded)]


def _substitute_packed(vars, target_vars, images, comps, caps):
    """The term dicts comps in `vars` composed with the images (a term dict
    in `target_vars` per variable of `vars`, with no constant term), each
    through its own cap: `substitute_all` past its planning, which a
    caller's own guards may replace. One Taylor table at the largest cap
    serves all (`_compose_near_identity`). A target variable is a slot
    whose image is that of the source variable of its name, or itself. A
    source variable the target lacks takes the slot of the first target
    variable that no source has and on which its image has coefficient
    exactly 1: the graph image w -> u + i psi is then a Taylor slot, and
    only the powers of i psi under the cap are built. Otherwise it is one
    more slot, full, that no result holds a power of.
    """
    top = max(caps)
    n = len(target_vars)
    owner = [v if v in vars else None for v in target_vars]
    for v in vars:
        if v not in target_vars:
            img = images[v]
            free = [i for i in range(n) if owner[i] is None and img.get(unit(i, n)) == ONE]
            if free:
                owner[free[0]] = v
            else:
                owner.append(v)
    # a key in n variables is the key of the same exponents padded with
    # zeros for the extra slots, shifted by their fields
    pad = (len(owner) - n) * WIDTH
    slot_images = [({k << pad: c for k, c in images[v].items()} if pad else images[v])
                   if v is not None else {unit(i, n) << pad: ONE} for i, v in enumerate(owner)]
    if tuple(owner) != vars:
        at = tuple(vars.index(v) if v is not None else None for v in owner)
        comps = [dict(zip(remap(t, at, len(vars)), t.values())) for t in comps]
    results = []
    for c, terms in zip(caps, _compose_near_identity(slot_images, comps, top)):
        if pad or c < top:
            keep = limit(c, len(owner))
            terms = {k >> pad: v for k, v in terms.items() if k < keep}
        results.append(terms)
    return results


@lru_cache(maxsize=4096)
def _taylor_terms(key, cap, excess, full):
    """Run together in one tuple, (key of a, |a|, C(e, a)) for every
    multi-index a != 0 of the expansion of x^e, e the exponents of `key`,
    whose term x^(e - a) eps^a reaches a
    degree <= cap, C(e, a) the product of the binomials C(e_i, a_i).
    a_i runs over 0..e_i in a Taylor slot and is e_i alone in a full slot
    (the flags in `full`). eps^a starts at degree sum a_i ord eps_i, which
    exceeds the degree of x^e by sum a_i excess_i, with excess_i =
    ord eps_i - 1 (None for eps_i = 0, which allows a_i = 0 only, and so
    no term at all for a power of a full slot). An entry of order 1
    (excess 0) raises no degree, so only a_i <= e_i bounds it."""
    e = unpack(key, len(excess))
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
    # one flat tuple of ints keeps the cache small
    return tuple(x for a, n, _ in out if any(a) for x in (pack(a), sum(a), n))


class _TaylorTable:
    """The terms of x^e o (id + eps) through cap, shared by the
    near-identity solve and every composition (`_compose_near_identity`);
    eps holds one term dict per variable, of order >= 1 or empty. In a
    full slot (`full`) the image is eps itself, not x + eps.

    A multi-index a is keyed like an exponent, so the key of x^(e - a) is
    the key of e less that of a. The products eps^a are built once per
    table, and each exponent's multi-indices a come from `_taylor_terms`,
    which depends on eps only through the orders of its entries and the
    full flags. An exponent with no power of a moved slot (eps_i != 0), or
    of a degree with no room under the cap for the least excess, has no
    such term, and builds no plan. A caller may spread through any cap at
    or below the table's own.
    """

    __slots__ = ("cap", "top", "excess", "moved", "least", "full", "eps", "products",
                 "ordered", "plans")

    def __init__(self, eps, cap: int, full=None):
        n = len(eps)
        self.cap = cap
        self.top = limit(cap, n)
        self.excess = tuple((min(t) >> n * WIDTH) - 1 if t else None for t in eps)
        # the fields of the moved slots, and their least excess
        self.moved = sum(MAX_DEGREE << (n - 1 - i) * WIDTH for i, t in enumerate(eps) if t)
        self.least = min((c for c in self.excess if c is not None), default=0)
        self.full = full or (False,) * n
        self.eps = eps
        self.products = {0: {0: ONE}}
        self.ordered = {}
        self.plans = {}

    def product(self, a):
        """eps^a, a a key, as raw terms (key, degree, re, im, den),
        coefficient (re + im*i)/den, by degree."""
        out = self.ordered.get(a)
        if out is None:
            n = len(self.eps)
            i = 0
            while not exponent(a, i, n):
                i += 1
            key = a - unit(i, n)  # one factor eps_i fewer
            if key not in self.products:
                self.product(key)
            terms = series_mul(self.products[key], self.eps[i], self.top)
            self.products[a] = terms
            shift = n * WIDTH
            out = self.ordered[a] = sorted(
                ((k, k >> shift, v.a, v.b, v.d) for k, v in terms.items()), key=itemgetter(1))
        return out

    def spread(self, levels, cap, key, d, re, im, f):
        """Add (re + im*i)/f times every term C(e, a) x^(e - a) eps^a, a != 0,
        of x^e (e the exponents of key, of degree d) into the raw
        accumulator levels[degree], by key, through `cap`, at most the
        table's own: a plan and a product, built through the table's cap
        and by degree, serve every cap below it."""
        if not key & self.moved or d + self.least > cap:
            return
        # (shift, base, weight, eps^a): the term adds weight * eps^a
        # times x^(e - a), at degree base + deg
        steps = self.plans.get(key)
        if steps is None:
            it = iter(_taylor_terms(key, self.cap, self.excess, self.full))
            steps = self.plans[key] = [(key - a, d - s, weight, self.product(a))
                                       for a, s, weight in zip(it, it, it)]
        for shift, base, weight, terms in steps:
            x, y = re * weight, im * weight
            for pk, pd, u, v, g in terms:
                if base + pd > cap:
                    break
                target = levels[base + pd]
                at = shift + pk
                den = f * g
                cur = target.get(at)  # backend.add_raw, inlined
                if cur is None:
                    target[at] = [x * u - y * v, x * v + y * u, den]
                elif cur[2] == den:
                    cur[0] += x * u - y * v
                    cur[1] += x * v + y * u
                else:
                    add_over_lcm(cur, x * u - y * v, x * v + y * u, den)


def _compose_near_identity(images, comps, cap: int, table=None):
    """The term dicts G o images through cap, one per term dict G in
    comps; images holds one term dict per variable, with no constant term.

    One rule per slot. A Taylor slot's image has coefficient 1 on its own
    variable, x_i + eps_i with ord eps_i >= 1, and x_i^e_i expands as the
    binomial sum of C(e_i, a_i) x_i^(e_i - a_i) eps_i^a_i (Brent and Kung,
    J. ACM 25, 1978). Any other image is a full slot, eps_i the image
    itself, and x_i^e_i becomes eps_i^e_i, the term a_i = e_i alone. Every
    exponent e of G adds those terms that reach a degree <= cap, from one
    `_TaylorTable`; its own monomial x^e (a = 0) stays only when e holds
    no power of a full slot. A `table` passed in is that table, built
    by a near-identity solve through the same images at this cap or a
    higher one (ORD0's passes solve at order + k, its fold composes at
    order); every term is bounded by `cap`.
    """
    n = len(images)
    units = [unit(i, n) for i in range(n)]
    full = tuple(img.get(u) != ONE for img, u in zip(images, units))
    if table is None:
        eps = [img if f else {k: c for k, c in img.items() if k != u}
               for img, u, f in zip(images, units, full)]
        table = _TaylorTable(eps, cap, full)
    top, shift = limit(cap, n), n * WIDTH
    # the fields of the full slots' exponents
    fulls = sum(MAX_DEGREE << (n - 1 - i) * WIDTH for i, f in enumerate(full) if f)
    out = []
    for g in comps:
        levels = [{} for _ in range(cap + 1)]
        for key, v in g.items():
            if key < top:
                d = key >> shift
                if not key & fulls:
                    add_raw(levels[d], key, v.a, v.b, v.d)
                table.spread(levels, cap, key, d, v.a, v.b, v.d)
        out.append(settle(*levels))
    return out


def gauss(re=0, im=0):
    """Convenience constructor accepting ints and Fractions."""
    return GaussRational(re, im)
