"""Jet-level commutant computation, symmetry-support checks against the
closed-form description of the nfpq centralizer, and the divergence probe.

The commutant of X = P dz + Q dw is the nullspace of the linear map
Y -> [X, Y] on jets Y. Its matrix is written down in closed form: for a
monomial m = z^a w^b,

    [X, m dz] = (P m_z + Q m_w - m P_z) dz - m Q_z dw,
    [X, m dw] = -m P_w dz + (P m_z + Q m_w - m Q_w) dw,

so each term c z^i w^j of P or Q adds c times a small integer, such as
c (a - i) or c b, to one entry. Each entry is a raw accumulator of
unreduced integers (`backend`), and the rows stay raw: `linalg.nullspace`
peels the unknowns a row forces to vanish by reading only which entries
are nonzero, and reduces only the few rows the peel leaves. Equations
extend far enough beyond the jet degree that every unknown monomial is
genuinely constrained; without that margin the top degrees are
unconstrained and the dimension count is a truncation artifact. Every
basis element is re-checked with a full bracket.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from math import gcd

from .algebra import INFINITY, Series
from .backend import I, ONE, ZERO, GaussRational, add_over_lcm, limit, pack, unit, unpack
from .errors import InternalError, OrderGuaranteeError, WrongBranchError
from .field import VF_VARS, VectorField, bracket
from .linalg import nullspace
from .normalform import _eig_w, _eig_z


def _unknown_monomials(order):
    out = []
    for d in range(1, order + 1):
        for a in range(d + 1):
            out.append((a, d - a))
    return out


def _equation_cap(x: VectorField, order: int) -> int:
    """Highest degree of the commutation equations for jets of degree
    `order`, after checking that X can constrain them."""
    if not x.vanishes_at_origin():
        raise WrongBranchError("jet centralizer requires X(0) = 0")
    top = max(x.p.degree(), x.q.degree())
    if top < 0:
        raise OrderGuaranteeError("zero field")
    # equations must reach past possible leading-order cancellations: any
    # term of X can carry the first obstruction of a degree-`order` jet
    eq_cap = order + top - 1
    if x.cap() != INFINITY and x.cap() < eq_cap + 1:
        raise OrderGuaranteeError(
            f"field cap {x.cap()} cannot constrain jets of degree {order}"
        )
    return eq_cap


def commutation_rows(x: VectorField, monos, eq_cap: int):
    """The equations [X, Y] = 0 through total degree eq_cap, for Y a
    combination of the unknown monomials `monos`, given in increasing key
    order as `_unknown_monomials(order)` lists them: raw rows {row:
    {column: [re, im, den]}}, in the format of `backend`'s raw
    accumulators.

    Row 2 * pack(e) holds the dz coefficient of the monomial with
    exponents e, and row 2 * pack(e) + 1 its dw coefficient. Column k is
    z^a w^b dz for the k-th monomial (a, b), and column k + n (n
    monomials) is z^a w^b dw. Each contribution c * mult is added to its
    entry as it is, so nothing is reduced here, and an entry may cancel to
    zero numerators.
    """
    n = len(monos)
    top = 2 * limit(eq_cap, 2)
    dz, dw = 2 * unit(0, 2), 2 * unit(1, 2)
    # each term c z^i w^j of X feeds three entries per column (a, b): row
    # 2 * pack((a, b)) + shift, column col + offset, c times the integer
    # weights[pick] + const of the closed form, weights = (0, a, b)
    feeds = []
    for key, c in x.p.packed.items():
        i, j = unpack(key, 2)
        t = 2 * key
        feeds += [(t - dz, 0, 1, -i, c),  # dz: P m_z - m P_z, weight a - i
                  (t - dw, n, 0, -j, c),  # dz: -m P_w
                  (t - dz + 1, n, 1, 0, c)]  # dw: P m_z, weight a
    for key, c in x.q.packed.items():
        i, j = unpack(key, 2)
        t = 2 * key
        feeds += [(t - dw, 0, 2, 0, c),  # dz: Q m_w, weight b
                  (t - dz + 1, 0, 0, -i, c),  # dw: -m Q_z
                  (t - dw + 1, n, 2, -j, c)]  # dw: Q m_w - m Q_w, weight b - j
    feeds = [(shift, off, pick, const, c.a, c.b, c.d) for shift, off, pick, const, c in feeds
             if pick or const]
    rows = defaultdict(dict)
    cols = [(col, 2 * pack((a, b)), (0, a, b)) for col, (a, b) in enumerate(monos)]
    for shift, off, pick, const, re, im, den in feeds:
        for col, base, weights in cols:
            r = base + shift
            if r >= top:  # columns run by increasing key, so no later one is in the cap
                break
            # a zero weight covers every entry whose exponent would be negative
            mult = weights[pick] + const
            if mult:
                row = rows[r]
                c = col + off
                cur = row.get(c)
                if cur is None:
                    row[c] = [re * mult, im * mult, den]
                elif cur[2] == den:
                    cur[0] += re * mult
                    cur[1] += im * mult
                else:
                    add_over_lcm(cur, re * mult, im * mult, den)
    return rows


def jet_centralizer(x: VectorField, order: int):
    """Basis of jets Y (total degree <= order, Y(0) = 0) with [X, Y] = 0.

    Equations run through degree order + d0 - 1, d0 the highest degree in
    X, so every unknown monomial is constrained; the returned elements
    satisfy bracket(x, y) = 0 exactly through that window.
    """
    eq_cap = _equation_cap(x, order)
    monos = _unknown_monomials(order)
    n = len(monos)
    vectors = nullspace(commutation_rows(x, monos, eq_cap).values(), 2 * n)
    xw = x.as_jet(eq_cap + 1) if x.cap() == INFINITY else x.truncate(eq_cap + 1)
    basis = []
    for vec in vectors:
        pterms = {}
        qterms = {}
        for col, coeff in vec.items():
            if col < n:
                pterms[pack(monos[col])] = coeff
            else:
                qterms[pack(monos[col - n])] = coeff
        # the polynomial truncation is what the equations constrained
        ycheck = VectorField(
            Series._make(VF_VARS, order, pterms, True),
            Series._make(VF_VARS, order, qterms, True),
        )
        check = bracket(xw, ycheck)
        if min(check.p.order(), check.q.order()) <= eq_cap:
            raise InternalError("nullspace vector fails the bracket re-check")
        basis.append(ycheck.as_jet())
    return basis


# ----------------------------------------------------------------------
# symmetry support for the (p, q) model


def _nfpq_parameters(x: VectorField):
    k_candidates = [e[1] for e in x.p.exponents() if e[0] == 1]
    if len(x.p) != 1 or not k_candidates:
        raise WrongBranchError("dz part must be the single monomial -p z w^k")
    k = k_candidates[0]
    minus_p = x.p.coefficient((1, k))
    q = x.q.coefficient((0, k + 1))
    if not (minus_p.is_rational_integer() and q.is_rational_integer()):
        raise WrongBranchError("p and q must be integers")
    p = -int(minus_p.re)
    qv = int(q.re)
    if p <= 0 or qv <= 0 or gcd(p, qv) != 1:
        raise WrongBranchError("expected coprime p, q > 0 in -p z w^k, q w^{k+1}")
    r = x.q.coefficient((0, 2 * k + 1)) if k >= 1 else ZERO
    allowed = {("dz", (1, k)), ("dw", (0, k + 1)), ("dw", (0, 2 * k + 1))}
    if not set(x.support()) <= allowed:
        raise WrongBranchError("field is not in the (p, q, r) model form")
    return p, qv, k, r


@dataclass
class SymmetrySupportReport:
    p: int
    q: int
    k: int
    r: GaussRational
    dimension: int
    ok: bool
    violations: list = dc_field(default_factory=list)
    resonant_map_slots_match: bool = True
    notes: list = dc_field(default_factory=list)


def predicted_symmetry_support(p, q, k, order):
    """Monomial support of the nfpq centralizer per its closed form.

    dz coefficients: z (z^q w^p)^j w^s with s = 0 or s >= k;
    dw coefficients: w (z^q w^p)^j w^{k+s}, s >= 0.
    """
    dz = set()
    dw = set()
    j = 0
    while q * j + 1 <= order:
        for s in range(0, order + 1):
            a, b = 1 + q * j, p * j + s
            if a + b <= order and (s == 0 or s >= k):
                dz.add((a, b))
            a, b = q * j, p * j + k + 1 + s
            if a + b <= order:
                dw.add((a, b))
        j += 1
    return dz, dw


def resonant_map_slots(p, q, k, order):
    """(z-slot, w-slot) monomials of normalizing-map freedom: z A(z^q w^p),
    w^k B(z^q w^p) with A, B vanishing at 0."""
    zslots = set()
    wslots = set()
    j = 1
    while True:
        a, b = 1 + q * j, p * j
        if a + b > order:
            break
        zslots.add((a, b))
        j += 1
    j = 1
    while True:
        a, b = q * j, k + p * j
        if a + b > order:
            break
        wslots.add((a, b))
        j += 1
    return zslots, wslots


def symmetry_support_check(x: VectorField, order: int) -> SymmetrySupportReport:
    """Verify every centralizer basis element lies in the predicted support,
    and that the eigenvalue-zero map slots match the closed-form family."""
    p, q, k, r = _nfpq_parameters(x)
    basis = jet_centralizer(x, order)
    dz_ok, dw_ok = predicted_symmetry_support(p, q, k, order)
    violations = []
    for idx, y in enumerate(basis):
        for e in y.p.exponents():
            if e not in dz_ok:
                violations.append((idx, "dz", e))
        for e in y.q.exponents():
            if e not in dw_ok:
                violations.append((idx, "dw", e))

    # eigenvalue-zero slots of the normalizing-map freedom
    zslots, wslots = resonant_map_slots(p, q, k, order)
    eig_z = set()
    eig_w = set()
    for m in range(1, order + 1):
        for n in range(order - m + 1):
            if _eig_z(-p, q, n, m) == 0:
                eig_z.add((n, m))
            if _eig_w(-p, q, k, n, m) == 0 and (n, m) != (0, k):
                eig_w.add((n, m + 1))
    slots_match = eig_z == zslots and eig_w == {(a, b + 1) for a, b in wslots}
    return SymmetrySupportReport(
        p=p,
        q=q,
        k=k,
        r=r,
        dimension=len(basis),
        ok=not violations,
        violations=violations,
        resonant_map_slots_match=slots_match,
    )


# ----------------------------------------------------------------------
# divergence probe


@dataclass
class DivergenceReport:
    k: int
    order: int
    coefficients: list  # a_l, l = 1..order (w^l coefficients)
    moduli_squared: list
    verdict: str
    ode_verified: bool
    commutation_verified: bool


def growth_verdict(moduli_squared):
    """Classify |a_l|^2 growth by exact ratio tests (no tolerances).

    factorial: successive ratios are (l + s)^2 for a fixed shift s in {0,1};
    geometric: ratios are a positive constant; super-geometric: ratios
    strictly increase over the window; otherwise irregular.
    """
    seq = [m for m in moduli_squared]
    if len(seq) < 3 or any(m == 0 for m in seq):
        return "indeterminate"
    ratios = [seq[i + 1] / seq[i] for i in range(len(seq) - 1)]
    for shift in (0, 1):
        if all(ratios[i] == (i + 1 + shift) ** 2 for i in range(len(ratios))):
            return "factorial"
    if all(r == ratios[0] for r in ratios):
        return "geometric"
    if all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:])):
        return "super-geometric"
    return "irregular"


def divergence_probe(k: int, order: int) -> DivergenceReport:
    """Coefficients of the forced centralizer element of the witness family.

    Solves w^2 f0' - i f0 = -c w with c = 1 and certifies the factorial
    growth law exactly; also validates the ansatz Y = (f0(w) + z) dz
    against the commutation equations by an independent bracket check.
    """
    if k < 1:
        raise WrongBranchError("the witness family requires k >= 1")
    coeffs = [None, -I]  # a_1 = -i c with c = 1
    for ell in range(1, order):
        coeffs.append(-I * ell * coeffs[ell])
    seq = coeffs[1:]

    f0 = Series(("w",), order, {(l,): c for l, c in enumerate(coeffs) if l}, exact=False)
    w1 = Series.variable(("w",), order, "w", exact=False)
    ode = (w1 * w1).truncate(order) * f0.derive("w") - f0.scale(I) + w1
    ode_ok = ode.truncate(order - 1).is_zero()
    if not ode_ok:
        raise InternalError("divergence probe: ODE residual is nonzero")

    cap = order + k + 2
    xk = VectorField(
        Series(VF_VARS, cap, {(0, k + 1): ONE, (1, k): I}, exact=True),
        Series.monomial(VF_VARS, cap, (0, k + 2), 1, exact=True),
    )
    y = VectorField(
        Series.variable(VF_VARS, order, "z", exact=False)
        + f0.embed(VF_VARS, {"w": "w"}),
        Series.zero(VF_VARS, order, exact=False),
    )
    br = bracket(xk, y)
    comm_ok = min(br.p.order(), br.q.order()) > order
    if not comm_ok:
        raise InternalError("divergence probe: bracket residual is nonzero")

    m2 = [c.modulus_squared() for c in seq]
    return DivergenceReport(
        k=k,
        order=order,
        coefficients=seq,
        moduli_squared=m2,
        verdict=growth_verdict(m2),
        ode_verified=ode_ok,
        commutation_verified=comm_ok,
    )
