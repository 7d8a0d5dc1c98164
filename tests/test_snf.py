"""Smith normal form over the integers."""

import random
from fractions import Fraction

import pytest

from isokit.snf import (
    cokernel_invariants,
    diagonal,
    identity_matrix,
    matmul,
    smith_normal_form,
)


def _det(m):
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _check_snf(a):
    rows = len(a)
    cols = len(a[0]) if a else 0
    s, u, v, u_inv = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == s
    assert matmul(u, u_inv) == identity_matrix(rows)
    assert _det(u) in (1, -1) and _det(v) in (1, -1)
    d = diagonal(s)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    for x, y in zip(d, d[1:]):
        if y != 0:
            assert x != 0 and y % x == 0


def test_known_forms():
    s, _, _, _ = smith_normal_form([[2, 4], [4, 8]])
    assert diagonal(s) == [2, 0]
    s, _, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diagonal(s) == [1, 1]
    s, _, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal(s) == [1, 6]
    s, _, _, _ = smith_normal_form([[0]])
    assert diagonal(s) == [0]


def _random_matrices():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def test_random_matrices():
    for a in _random_matrices():
        _check_snf(a)


def test_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for a in _random_matrices():
        theirs = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        # sympy fixes the diagonal only up to units
        expected = [abs(int(theirs[i, i])) for i in range(min(len(a), len(a[0])))]
        assert diagonal(smith_normal_form(a)[0]) == expected


def test_cokernel_invariants():
    # coker of [[2]] on Z^1 is Z/2
    torsion, free = cokernel_invariants([[2]])
    assert torsion == [2] and free == 0
    # coker of the zero 1x2 map from Z^2 is Z^1... rows are the target
    torsion, free = cokernel_invariants([[0, 0]])
    assert torsion == [] and free == 1
    torsion, free = cokernel_invariants([[2, 0], [0, 3]])
    assert sorted(torsion) == [6] and free == 0
    torsion, free = cokernel_invariants([[1, 0], [0, 1]])
    assert torsion == [] and free == 0
