"""``build_singlet_basis`` reduces its echelon rows with one solve, bit for bit the row loop.

The column-determinant products are in echelon form with unit leading
entries, so their pivot columns form a unit upper triangular integer
matrix.  LU then swaps no rows and every intermediate is an integer, so
``np.linalg.solve`` must give exactly what back-substitution, row by
row from the last, gives: the loop is kept here as the reference.
"""

import numpy as np
import pytest

from singletlab import SystemShape, build_singlet_basis

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def back_substitution(triangle, echelon):
    """Reduced rows of ``echelon`` against the unit upper triangular ``triangle``."""
    echelon = echelon.copy()
    for row in range(len(echelon) - 2, -1, -1):
        echelon[row] -= triangle[row, row + 1 :] @ echelon[row + 1 :]
    return echelon


@pytest.mark.parametrize("n,d", LADDER)
def test_solve_equals_back_substitution_bit_for_bit(monkeypatch, n, d):
    solve, calls = np.linalg.solve, []

    def spy(triangle, echelon):
        solved = solve(triangle, echelon)
        calls.append((triangle, echelon, solved))
        return solved

    monkeypatch.setattr(np.linalg, "solve", spy)
    build_singlet_basis(SystemShape(n, d))
    ((triangle, echelon, solved),) = calls
    assert np.array_equal(triangle, np.triu(triangle))
    assert np.all(np.diagonal(triangle) == 1)
    assert np.array_equal(triangle, np.round(triangle))
    assert np.array_equal(solved, np.round(solved))
    assert np.array_equal(solved.view(np.int64), back_substitution(triangle, echelon).view(np.int64))
