import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longeq import linalg as la

F = Fraction


def test_mat_mul_against_known_product():
    a = la.to_frac_matrix([[1, 2], [3, 4]])
    b = la.to_frac_matrix([[5, 6], [7, 8]])
    assert la.mat_mul(a, b) == la.to_frac_matrix([[19, 22], [43, 50]])


def test_kron_matches_hand_expansion():
    a = la.to_frac_matrix([[1, 2], [0, 1]])
    b = la.to_frac_matrix([[3, 0], [0, 5]])
    k = la.kron(a, b)
    assert k == la.to_frac_matrix(
        [[3, 0, 6, 0], [0, 5, 0, 10], [0, 0, 3, 0], [0, 0, 0, 5]]
    )


def test_mat_inv_roundtrip():
    a = la.to_frac_matrix([[2, 1], [1, 1]])
    assert la.mat_mul(a, la.mat_inv(a)) == la.identity(2)


def test_mat_inv_singular_raises():
    with pytest.raises(ValueError):
        la.mat_inv(la.to_frac_matrix([[1, 2], [2, 4]]))


def test_rref_reduces_and_orders_pivots():
    rows = la.to_frac_matrix([[0, 1, 1], [1, 1, 0], [1, 2, 1]])
    red, pivots = la.rref(rows)
    assert pivots == [0, 1]
    assert red == la.to_frac_matrix([[1, 0, -1], [0, 1, 1]])


def test_rref_exact_fractions():
    rows = [[F(1, 3), F(1)], [F(1), F(3)]]
    red, pivots = la.rref(rows)
    assert red == [[F(1), F(3)]]
    assert pivots == [0]


def test_solve_affine_particular_and_nullspace():
    rows = la.to_frac_matrix([[1, 1, 0], [0, 0, 1]])
    rhs = [F(3), F(4)]
    particular, basis = la.solve_affine(rows, rhs)
    assert particular[0] + particular[1] == 3 and particular[2] == 4
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_solve_affine_inconsistent():
    rows = la.to_frac_matrix([[1, 1], [2, 2]])
    assert la.solve_affine(rows, [F(1), F(3)]) is None


def test_shape_refusals():
    """A ragged matrix, a product of mismatched shapes and an empty right
    factor are refused; an empty system has the empty solution."""
    with pytest.raises(ValueError, match="^ragged matrix$"):
        la.to_frac_matrix([[1, 2], [3]])
    a = la.to_frac_matrix([[1, 2], [3, 4]])
    for b in (la.to_frac_matrix([[1, 2, 3]]), []):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            la.mat_mul(a, b)
    assert la.solve_affine([], []) == ([], [])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_rref_idempotent(entries):
    rows = la.to_frac_matrix(entries)
    red, pivots = la.rref(rows)
    red2, pivots2 = la.rref([r[:] for r in red])
    assert red == red2 and pivots == pivots2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ),
    st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ),
)
def test_mat_mul_transpose_contravariant(e1, e2):
    """(ab)^T = b^T a^T, with the transpose formed here: the library has no
    transpose of its own."""
    a, b = la.to_frac_matrix(e1), la.to_frac_matrix(e2)

    def t(m):
        return [list(col) for col in zip(*m)]

    assert t(la.mat_mul(a, b)) == la.mat_mul(t(b), t(a))


def _rref_oracle(rows):
    """Gauss-Jordan over Fractions: normalise each pivot row as it is found.

    The slow reference for the integer elimination inside ``la.rref``.
    """
    work = [[F(x) for x in r] for r in rows]
    if not work:
        return [], []
    pivots = []
    row = 0
    for col in range(len(work[0])):
        piv = next((r for r in range(row, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv_p = 1 / work[row][col]
        work[row] = [x * inv_p for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return work[:row], pivots


def _rational_matrix(rng, rows, cols, density=0.7):
    dens = (1, 1, 2, 3, 5, 6, 7)
    return [[F(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < density else F(0)
             for _ in range(cols)] for _ in range(rows)]


def _rref_cases():
    rng = random.Random(1234)
    cases = [[], [[F(0)] * 4 for _ in range(3)], [[F(-3), F(6), F(0)]]]
    for rows, cols in ((3, 3), (4, 4), (2, 7), (7, 2), (5, 9), (9, 5), (6, 6), (1, 5), (5, 1)):
        for density in (0.3, 0.7, 1.0):
            for _ in range(4):
                cases.append(_rational_matrix(rng, rows, cols, density))
    for _ in range(10):
        base = _rational_matrix(rng, 3, 6)
        # duplicate, scaled and zero rows, and a row sum: rank stays 3
        cases.append(base + [base[0][:], [-2 * x for x in base[1]], [F(0)] * 6,
                             [x + y for x, y in zip(base[1], base[2])]])
        # negative pivots in every leading position
        cases.append([[-abs(x) if x else x for x in row] for row in base])
    return cases


def test_rref_matches_fraction_oracle():
    cases = _rref_cases()
    assert len(cases) > 100
    for rows in cases:
        before = [r[:] for r in rows]
        red, pivots = la.rref(rows)
        assert (red, pivots) == _rref_oracle(rows), rows
        assert all(type(x) is F for r in red for x in r)
        assert rows == before  # the input is not modified


def test_rref_int_rows_are_primitive_and_match_oracle():
    """Each integer RREF row is the Fraction RREF row scaled to a primitive
    integer row with a positive pivot entry."""
    for rows in _rref_cases():
        int_rows, pivots = la.rref_int(rows)
        red, want_pivots = _rref_oracle(rows)
        assert pivots == want_pivots
        assert all(type(x) is int for r in int_rows for x in r)
        assert all(math.gcd(*r) == 1 and r[p] > 0 for r, p in zip(int_rows, pivots))
        assert [[F(x, r[p]) for x in r] for r, p in zip(int_rows, pivots)] == red
        assert la.rref_from_int(int_rows, pivots) == red


def test_echelon_grows_the_rref_int_of_its_rows():
    """Rows fed one at a time: ``spans`` holds exactly for a row in the span
    of the rows before it (the pivots do not change), ``add`` makes the
    RREF's new pivot a pivot, and ``int_rows`` is the RREF of every row so
    far, with the least common pivot ``scale``."""
    for rows in _rref_cases()[1:]:  # the first case has no rows
        int_rows = [la.clear_denominators([r])[0][0] for r in rows]
        echelon = la.Echelon(len(rows[0]))
        for t, row in enumerate(int_rows):
            before = la.rref_int(int_rows[:t])[1]
            after, pivots = la.rref_int(int_rows[:t + 1])
            spanned = echelon.spans(row)
            assert spanned == (pivots == before), rows
            if not spanned:
                echelon.add(row)
                assert set(pivots) - set(before) == {echelon.pivots[-1]}, rows
            assert echelon.int_rows() == after, rows
            red = _rref_oracle(rows[:t + 1])[0]
            assert echelon.scale == math.lcm(*(x.denominator for r in red for x in r)), rows


def test_clear_denominators():
    rows = [[F(1, 2), F(-2, 3)], [0, F(5)]]
    assert la.clear_denominators(rows) == ([[3, -4], [0, 30]], 6)
    assert la.clear_denominators([[1, -2]]) == ([[1, -2]], 1)


def test_rref_accepts_integer_rows():
    rows = [[0, 2, 4], [3, 0, -3], [3, 2, 1]]
    assert la.rref(rows) == _rref_oracle(rows)


def test_mat_inv_and_solve_affine_unchanged_under_oracle(monkeypatch):
    rng = random.Random(99)
    squares = [_rational_matrix(rng, k, k, 1.0) for k in (1, 2, 3, 4, 5) for _ in range(3)]
    squares.append(la.to_frac_matrix([[1, 2], [2, 4]]))  # singular
    systems = []
    for rows, cols in ((3, 5), (5, 3), (4, 4), (6, 8)):
        for density in (0.3, 0.8):
            a = _rational_matrix(rng, rows, cols, density)
            systems.append((a, [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in a]))
            # consistent by construction: b = A w
            w = [F(rng.randint(-3, 3)) for _ in range(cols)]
            systems.append((a, [sum((x * y for x, y in zip(row, w)), F(0)) for row in a]))

    def results():
        out = []
        for a in squares:
            try:
                out.append(la.mat_inv(a))
            except ValueError:
                out.append("singular")
        out.extend(la.solve_affine(a, b) for a, b in systems)
        return out

    fast = results()
    monkeypatch.setattr(la, "rref", _rref_oracle)
    slow = results()
    assert fast == slow
    assert "singular" in fast and None in fast
    assert any(r is not None and r != "singular" for r in fast)
