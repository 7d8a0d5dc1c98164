"""Integer Smith normal form with unimodular transforms.

smith_normal_form returns (S, U, V, U^-1) with U @ A @ V = S, S diagonal
with d_1 | d_2 | ... and nonnegative entries.  Each row operation on U is
undone as a column operation on U^-1, so the inverse needs no division.
Small dense matrices only.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, dst: int, src: int, factor: int) -> None:
    m[dst] = [d + factor * s for d, s in zip(m[dst], m[src])]


def _add_col(m: Matrix, dst: int, src: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (S, U, V, U^-1) with U A V = S."""
    s: Matrix = [list(row) for row in a]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    u_inv = identity_matrix(rows)

    def swap_rows(i: int, j: int) -> None:
        _swap_rows(s, i, j)
        _swap_rows(u, i, j)
        _swap_cols(u_inv, i, j)

    def add_row(dst: int, src: int, factor: int) -> None:
        _add_row(s, dst, src, factor)
        _add_row(u, dst, src, factor)
        _add_col(u_inv, src, dst, -factor)

    def pivot_search(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(best[2])):
                    best = (i, j, s[i][j])
        return best

    t = 0
    while t < min(rows, cols):
        piv = pivot_search(t)
        if piv is None:
            break
        i, j, _ = piv
        if i != t:
            swap_rows(t, i)
        if j != t:
            _swap_cols(s, t, j)
            _swap_cols(v, t, j)
        # chip away at the row and column until the pivot divides everything
        while True:
            done = True
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    _add_col(s, j, t, -q)
                    _add_col(v, j, t, -q)
                    if s[t][j] != 0:
                        _swap_cols(s, t, j)
                        _swap_cols(v, t, j)
                        done = False
            if done:
                break
        # pivot must divide the untouched block; if not, fold a bad row in
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
    return s, u, v, u_inv


def diagonal(s: Sequence[Sequence[int]]) -> List[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def cokernel_invariants(a: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Invariant factors (>1) and free rank of Z^rows / col-span(A)."""
    rows = len(a)
    if rows == 0:
        return [], 0
    if not a[0]:
        return [], rows
    s, _, _, _ = smith_normal_form(a)
    diag = diagonal(s)
    torsion = [d for d in diag if d > 1]
    rank = sum(1 for d in diag if d != 0)
    return torsion, rows - rank
