from fractions import Fraction

from hypothesis import given, settings, strategies as st

from holonorm.backend import ONE, ZERO
from holonorm.linalg import inverse

from helpers import gr, reference_det

ENTRIES = st.just(gr(0)) | st.tuples(
    st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 3)).map(
    lambda t: gr(Fraction(t[0], t[2]), Fraction(t[1], t[2])))


@st.composite
def square_matrices(draw):
    """An n x n matrix, n = 1-4, of small Gaussian rationals with zeros;
    half the time one row is replaced by a combination of the others
    (the zero row when n = 1 or every weight is 0), so it is singular."""
    n = draw(st.integers(1, 4))
    m = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        t = draw(st.integers(0, n - 1))
        row = [ZERO] * n
        for s in range(n):
            if s != t:
                c = draw(ENTRIES)
                row = [a + c * b for a, b in zip(row, m[s])]
        m[t] = row
    return m


def _product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class TestInverse:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(square_matrices())
    def test_matches_reference_determinant(self, m):
        inv = inverse(m)
        assert (inv is None) == (reference_det(m) == (0, 0))
        if inv is not None:
            assert _product(m, inv) == _identity(len(m))
            assert _product(inv, m) == _identity(len(m))

    def test_zero_row_is_singular(self):
        # the row {n + 1: -1} of [M | -I] is peeled: x_(n+1) is forced to 0
        assert inverse([[gr(1), gr(2), gr(0, 1)], [gr(0), gr(0), gr(0)],
                        [gr(3), gr(0), gr(1)]]) is None

    def test_dependent_rows_are_singular(self):
        assert inverse([[gr(1), gr(2), gr(3)], [gr(0, 1), gr(0, 2), gr(0, 3)],
                        [gr(0), gr(1), gr(5)]]) is None

    def test_one_by_one(self):
        assert inverse([[gr(2, 1)]]) == ((gr(Fraction(2, 5), Fraction(-1, 5)),),)
        assert inverse([[gr(0)]]) is None

    def test_two_by_two_in_closed_form(self):
        a, b, c, d = gr(1), gr(0, 1), gr(2), gr(3, -1)
        det = a * d - b * c
        assert inverse([[a, b], [c, d]]) == ((d / det, -b / det), (-c / det, a / det))

    def test_identity_and_permutation(self):
        assert inverse(_identity(3)) == tuple(map(tuple, _identity(3)))
        swap = [[ZERO, ONE], [ONE, ZERO]]
        assert inverse(swap) == tuple(map(tuple, swap))
