"""Jet-level commutant computation, symmetry-support checks against the
closed-form description of the nfpq centralizer, and the divergence probe.

The commutant of X = P dz + Q dw is the nullspace of the linear map
Y -> [X, Y] on jets Y. Its matrix is written down in closed form: for a
monomial m = z^a w^b,

    [X, m dz] = (P m_z + Q m_w - m P_z) dz - m Q_z dw,
    [X, m dw] = -m P_w dz + (P m_z + Q m_w - m Q_w) dw,

so each term c z^i w^j of P or Q adds c times a small integer, such as
c (a - i) or c b, to one entry. Equations extend far enough beyond the jet
degree that every unknown monomial is genuinely constrained; without that
margin the top degrees are unconstrained and the dimension count is a
truncation artifact. The system is solved by exact sparse row reduction
over the Gaussian rationals, and every basis element is re-checked with a
full bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .algebra import INFINITY, Series
from .backend import GaussRational
from .errors import InternalError, OrderGuaranteeError, WrongBranchError
from .field import VectorField, bracket
from .normalform import VF_VARS, _eig_w, _eig_z

ONE = GaussRational(1)


def _eliminate(row, factor, pivot_row):
    """row -= factor * pivot_row in place, dropping entries that cancel."""
    for c, v in pivot_row.items():
        cur = row.get(c)
        new = (cur - factor * v) if cur is not None else -(factor * v)
        if new.is_zero():
            row.pop(c, None)
        else:
            row[c] = new


def _nullspace(rows, ncols):
    """Basis of the right nullspace of a sparse rational matrix.

    rows: iterable of {col: GaussRational}. Each row is reduced against the
    pivots found so far and, if anything is left, becomes the pivot of its
    smallest column. Pivot rows are stored without their leading 1. Back-
    substitution then runs from the highest pivot column down: a pivot row
    already reduced holds no other pivot column, so each row eliminates
    only the pivot columns it holds. The column order is fixed, so the
    reduced echelon form, and with it the basis, does not depend on the
    order of the rows; processing short rows first keeps the fill small.

    One vector per free column fc, in increasing order: fc -> 1 and
    pc -> -(entry fc of pivot row pc), pivot columns in increasing order.
    """
    pivots = {}  # col -> reduced row dict without the leading entry
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            factor = row.pop(lead)
            if lead not in pivots:
                inv = ONE / factor
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            _eliminate(row, factor, pivots[lead])
    # back-substitute to reduced echelon form
    pivot_cols = sorted(pivots)
    for col in reversed(pivot_cols):
        row = pivots[col]
        for col2 in [c for c in row if c in pivots]:
            _eliminate(row, row.pop(col2), pivots[col2])
    vectors = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    for pc in pivot_cols:
        for fc, v in pivots[pc].items():
            vectors[fc][pc] = -v
    return list(vectors.values())


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
    degrees = [sum(e) for e in x.p.terms] + [sum(e) for e in x.q.terms]
    if not degrees:
        raise OrderGuaranteeError("zero field")
    # equations must reach past possible leading-order cancellations: any
    # term of X can carry the first obstruction of a degree-`order` jet
    eq_cap = order + max(degrees) - 1
    if x.cap() != INFINITY and x.cap() < eq_cap + 1:
        raise OrderGuaranteeError(
            f"field cap {x.cap()} cannot constrain jets of degree {order}"
        )
    return eq_cap


def commutation_rows(x: VectorField, order: int, eq_cap: int):
    """The equations [X, Y] = 0 through total degree eq_cap, for Y of
    degree 1..order: {(component, exponents): {column: coefficient}}.

    Column k is z^a w^b dz for the k-th monomial (a, b) of
    `_unknown_monomials(order)`, and column k + n (n monomials) is
    z^a w^b dw. Every stored coefficient is nonzero.
    """
    monos = _unknown_monomials(order)
    n = len(monos)
    rows = {}

    def add(comp, a, b, col, c, mult):
        # mult == 0 covers every entry whose exponent would be negative
        if mult and a + b <= eq_cap:
            row = rows.setdefault((comp, (a, b)), {})
            v = c * mult
            row[col] = row[col] + v if col in row else v

    for col, (a, b) in enumerate(monos):
        for (i, j), c in x.p.terms.items():
            add("dz", a + i - 1, b + j, col, c, a - i)  # P m_z - m P_z
            add("dz", a + i, b + j - 1, col + n, c, -j)  # -m P_w
            add("dw", a + i - 1, b + j, col + n, c, a)  # P m_z
        for (i, j), c in x.q.terms.items():
            add("dz", a + i, b + j - 1, col, c, b)  # Q m_w
            add("dw", a + i - 1, b + j, col, c, -i)  # -m Q_z
            add("dw", a + i, b + j - 1, col + n, c, b - j)  # Q m_w - m Q_w
    out = {}
    for key, row in rows.items():
        row = {c: v for c, v in row.items() if v}
        if row:
            out[key] = row
    return out


def jet_centralizer(x: VectorField, order: int):
    """Basis of jets Y (total degree <= order, Y(0) = 0) with [X, Y] = 0.

    Equations run through degree order + d0 - 1, d0 the highest degree in
    X, so every unknown monomial is constrained; the returned elements
    satisfy bracket(x, y) = 0 exactly through that window.
    """
    eq_cap = _equation_cap(x, order)
    rows = commutation_rows(x, order, eq_cap)
    monos = _unknown_monomials(order)
    n = len(monos)
    vectors = _nullspace(sorted(rows.values(), key=len), 2 * n)
    xw = x.as_jet(eq_cap + 1) if x.cap() == INFINITY else x.truncate(eq_cap + 1)
    basis = []
    for vec in vectors:
        pterms = {}
        qterms = {}
        for col, coeff in vec.items():
            if col < n:
                pterms[monos[col]] = coeff
            else:
                qterms[monos[col - n]] = coeff
        # the polynomial truncation is what the equations constrained
        ycheck = VectorField(
            Series(VF_VARS, order, pterms, exact=True),
            Series(VF_VARS, order, qterms, exact=True),
        )
        check = bracket(xw, ycheck)
        if any(sum(e) <= eq_cap for e in check.p.terms) or any(
            sum(e) <= eq_cap for e in check.q.terms
        ):
            raise InternalError("nullspace vector fails the bracket re-check")
        basis.append(
            VectorField(
                Series(VF_VARS, order, pterms, exact=False),
                Series(VF_VARS, order, qterms, exact=False),
            )
        )
    return basis


# ----------------------------------------------------------------------
# symmetry support for the (p, q) model


def _nfpq_parameters(x: VectorField):
    ld_p = x.p.coefficient((1, 0))
    k_candidates = [e[1] for e in x.p.terms if e[0] == 1]
    if len(x.p.terms) != 1 or not k_candidates:
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
    r = x.q.coefficient((0, 2 * k + 1)) if k >= 1 else GaussRational(0)
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
        for e in y.p.terms:
            if e not in dz_ok:
                violations.append((idx, "dz", e))
        for e in y.q.terms:
            if e not in dw_ok:
                violations.append((idx, "dw", e))

    # eigenvalue-zero slots of the normalizing-map freedom
    zslots, wslots = resonant_map_slots(p, q, k, order)
    eig_z = set()
    eig_w = set()
    for n in range(order + 1):
        for m in range(order + 1):
            if n + m > order:
                continue
            if (n, m) == (1, 0) or (m == 0 and n == 0):
                continue
            if _eig_z(-p, q, n, m) == 0 and m >= 1:
                eig_z.add((n, m))
            if _eig_w(-p, q, k, n, m) == 0 and m >= 1 and (n, m) != (0, k):
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
    i_unit = GaussRational(0, 1)
    coeffs = [None, -i_unit]  # a_1 = -i c with c = 1
    for ell in range(1, order):
        coeffs.append(-i_unit * ell * coeffs[ell])
    seq = coeffs[1:]

    f0 = Series(("w",), order, {(l,): c for l, c in enumerate(coeffs) if l}, exact=False)
    w1 = Series.variable(("w",), order, "w", exact=False)
    ode = (w1 * w1).truncate(order) * f0.derive("w") - f0.scale(i_unit) + w1
    ode_ok = ode.truncate(order - 1).is_zero()
    if not ode_ok:
        raise InternalError("divergence probe: ODE residual is nonzero")

    cap = order + k + 2
    xk = VectorField(
        Series(VF_VARS, cap, {(0, k + 1): GaussRational(1), (1, k): i_unit},
               exact=True),
        Series.monomial(VF_VARS, cap, (0, k + 2), 1, exact=True),
    )
    y = VectorField(
        Series.variable(VF_VARS, order, "z", exact=False)
        + f0.embed(VF_VARS, {"w": "w"}),
        Series.zero(VF_VARS, order, exact=False),
    )
    br = bracket(xk, y)
    comm_ok = all(sum(e) > order for e in br.p.terms) and all(
        sum(e) > order for e in br.q.terms
    )
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
