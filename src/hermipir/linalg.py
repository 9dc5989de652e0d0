"""Dense linear algebra over a GFField.

Matrices are 2-D numpy int64 arrays of element encodings; every routine
takes the field as its first argument.  `rref` is the one elimination
routine: rank, kernels, greedy row selection (pivots of the transpose) and
column-space membership (a left-kernel parity check) are all read off it.
It eliminates wide matrices over odd characteristics by panels of columns:
a per-pivot loop over one panel, then one field matmul update of every
other row per panel (see `rref` for when a matrix runs as one panel).
`row_selection` gets four results from one rref of [M^T | E]: the greedy
row selection, the rank, a decoder D with D @ S = [I | 0] and a parity
check H with H @ S = 0 for the selected rows S.  Prefix solving is H @ b
and D @ b on top of it, so a fixed system is eliminated once and then
solved for any number of right-hand sides by two products.  A right
kernel of M is the parity check of selecting every row of M^T.  Elimination
pivots on the first nonzero entry in scan order, so all results are
deterministic functions of the input.  `span` lists every linear
combination of a few rows, for the searches and brute-force distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hermipir.fields import GFField

# Columns per elimination panel.  Measured on a 2-core host (medians of
# in-process runs, against the per-pivot loop): 32 took the q = 7 build's
# 196 x 321 GF(49) elimination from 0.31 to 0.06 s and the q = 9 build's
# 405 x 692 GF(81) one from 4.2 to 0.58 s, and 16 or 64 were slower there.
# Blocked, the q = 8 GF(64) eliminations ran slower at every width tried
# (220 against 180 ms at 288 x 483), and the q = 5 ones, at most 114 wide,
# were no faster.
_PANEL_COLS = 32


def as_matrix(field: GFField, data) -> np.ndarray:
    arr = field.check_elements(data, "entries")
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr


def rref(field: GFField, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Blocked Gauss-Jordan elimination.  Each panel of `_PANEL_COLS` columns
    is first eliminated by the per-pivot loop, on the panel's columns and
    the rows from the next pivot row down only, which finds its pivot
    columns P and the rows S that carry them.  Every other entry is then
    updated by two field matmuls and one subtraction: with A = R[S, P] the
    pivot block, the new pivot rows are top = A^-1 R[S, c0:], and every
    other row becomes R[o, c0:] - R[o, P] top.  The RREF is unique, so this
    equals the per-pivot loop entry for entry.  The product update replaces
    one digit-wise subtraction over the trailing matrix per pivot by one
    per panel; it pays only when p is odd (in characteristic 2 the loop's
    subtraction is a single XOR, while the product still expands n^2 digit
    pairs) and the matrix is more than four panels wide.  Other matrices
    run as one panel, which is exactly the per-pivot loop.
    """
    r = as_matrix(field, mat).copy()
    n_rows, n_cols = r.shape
    if field.p == 2 or n_cols <= 4 * _PANEL_COLS:
        return r, _eliminate(field, r)[0]
    pivots: list[int] = []
    for c0 in range(0, n_cols, _PANEL_COLS):
        row = len(pivots)
        if row == n_rows:
            break
        found, order = _eliminate(field, r[row:, c0 : c0 + _PANEL_COLS].copy())
        k = len(found)
        if k == 0:
            continue
        cols = [c0 + c for c in found]
        sel = row + order[:k]
        rest = row + order[k:]
        top = field.matmul_arr(_inverse(field, r[np.ix_(sel, cols)]), r[sel, c0:])
        others = np.concatenate([np.arange(row), rest])
        update = field.matmul_arr(r[np.ix_(others, cols)], top)
        r[others, c0:] = field.sub_arr(r[others, c0:], update, out=update)
        # rows from `row` down are zero left of c0
        r[row + k :, c0:] = r[rest, c0:]
        r[row : row + k, c0:] = top
        pivots += cols
    return r, pivots


def _eliminate(field: GFField, r: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The per-pivot Gauss-Jordan loop, in place on `r`: its pivot columns,
    and the original index of each row in the result (pivot rows first)."""
    n_rows, n_cols = r.shape
    order = np.arange(n_rows)
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        lead = row + int(nz[0])
        if lead != row:
            r[[row, lead]] = r[[lead, row]]
            order[[row, lead]] = order[[lead, row]]
        # rows from `row` down are zero left of `col`, so row operations
        # only need to touch columns col and beyond
        r[row, col:] = field.mul_arr(r[row, col:], field.inv(int(r[row, col])))
        others = np.flatnonzero(r[:, col])
        others = others[others != row]
        if others.size:
            factors = r[others, col][:, None]
            r[others, col:] = field.sub_arr(r[others, col:], field.mul_arr(factors, r[row, col:][None, :]))
        pivots.append(col)
        row += 1
    return pivots, order


def _inverse(field: GFField, a: np.ndarray) -> np.ndarray:
    """Inverse of an invertible square matrix, by eliminating [a | I]."""
    k = a.shape[0]
    aug = np.concatenate([a, np.eye(k, dtype=np.int64)], axis=1)
    _eliminate(field, aug)
    return aug[:, k:]


def rank(field: GFField, mat) -> int:
    return len(rref(field, mat)[1])


@dataclass(frozen=True)
class RowSelection:
    """Rows picked from a matrix M, with the maps that decode and check the
    picked submatrix S = M[rows].

    ``decoder`` (prefix_len x len(rows)) satisfies decoder @ S = [I | 0], so
    for b = S @ s it returns the first prefix_len coordinates of s.  It is
    None when S leaves a prefix coordinate free; ``undetermined`` is then
    the first such coordinate.  The rows of ``check`` ((len(rows) - rank) x
    len(rows)) span the left kernel of S, so b lies in the column space of
    S exactly when check @ b = 0.
    """

    rows: list[int]
    rank: int
    decoder: np.ndarray | None
    check: np.ndarray
    undetermined: int | None = None


def row_selection(field: GFField, mat, pad_to: int, prefix_len: int = 0) -> RowSelection:
    """Greedy row selection, rank, decoder and parity check from one rref.

    Eliminates [mat.T | E], where E holds the first `prefix_len` unit
    vectors.  The pivot columns of the mat.T block are the rows that each
    enlarge the span of the rows before them; the selection keeps them and
    pads with the lowest-index unused rows up to `pad_to`, as
    `select_full_rank_rows` does.  Each pivot row's E entries are the
    particular solution of S.T @ d = e_l on the pivot rows, which is row l of
    the decoder, and each padding row's kernel vector of mat.T is a row of
    the check.  A pivot in the E block means e_l is outside the row space,
    so coordinate l is not determined.  Raises ValueError when the rank
    exceeds `pad_to`.
    """
    m = as_matrix(field, mat)
    n_rows, n_cols = m.shape
    if pad_to > n_rows:
        raise ValueError(f"cannot select {pad_to} rows from {n_rows}")
    if not 0 <= prefix_len <= n_cols:
        raise ValueError("prefix length out of range")
    r, pivots = rref(field, np.concatenate([m.T, np.eye(n_cols, prefix_len, dtype=np.int64)], axis=1))
    row_pivots = [c for c in pivots if c < n_rows]
    rank_ = len(row_pivots)
    if rank_ > pad_to:
        raise ValueError(f"rank {rank_} exceeds the {pad_to} rows to select")
    rows = _pad(row_pivots, n_rows, pad_to)
    pivot_pos = np.searchsorted(rows, row_pivots)
    padding = sorted(set(rows) - set(row_pivots))
    check = np.zeros((len(padding), pad_to), dtype=np.int64)
    check[np.arange(len(padding)), np.searchsorted(rows, padding)] = 1
    check[:, pivot_pos] = field.neg_arr(r[:rank_][:, padding]).T
    e_pivots = [c - n_rows for c in pivots if c >= n_rows]
    if e_pivots:
        return RowSelection(rows, rank_, None, check, e_pivots[0])
    decoder = np.zeros((prefix_len, pad_to), dtype=np.int64)
    decoder[:, pivot_pos] = r[:rank_, n_rows:].T
    return RowSelection(rows, rank_, decoder, check)


def _pad(chosen: list[int], n_rows: int, pad_to: int) -> list[int]:
    """`chosen` plus the lowest-index other rows up to `pad_to`, sorted."""
    used = set(chosen)
    pad = [i for i in range(n_rows) if i not in used][: pad_to - len(chosen)]
    return sorted(chosen + pad)


def solve_prefix(field: GFField, mat, rhs, prefix_len: int) -> np.ndarray:
    """First `prefix_len` coordinates of the solutions of mat @ s = rhs.

    The system may be underdetermined in its trailing coordinates; the call
    succeeds exactly when the system is consistent and every one of the
    first `prefix_len` coordinates takes the same value in all solutions.
    Raises ValueError otherwise.
    """
    m = as_matrix(field, mat)
    b = field.check_elements(rhs, "right-hand side").reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length does not match row count")
    sel = row_selection(field, m, m.shape[0], prefix_len)
    if field.matmul_arr(sel.check, b[:, None]).any():
        raise ValueError("inconsistent system: no solution exists")
    if sel.undetermined is not None:
        raise ValueError(f"prefix coordinate {sel.undetermined} is not determined by the system")
    return field.matmul_arr(sel.decoder, b[:, None])[:, 0]


def select_full_rank_rows(field: GFField, mat, target_rank: int, pad_to: int) -> list[int]:
    """Deterministic greedy row selection.

    Keeps the first `target_rank` rows that each enlarge the span of the
    rows before them -- the pivot columns of rref(mat.T) -- then pads the
    selection with the lowest-index unused rows up to `pad_to` total.
    Returns sorted row indices.  Raises ValueError when the matrix cannot
    supply the requested rank or the pad size exceeds the number of rows.
    """
    m = as_matrix(field, mat)
    n_rows = m.shape[0]
    if pad_to > n_rows:
        raise ValueError(f"cannot select {pad_to} rows from {n_rows}")
    if target_rank > pad_to:
        raise ValueError("target rank exceeds requested selection size")
    pivots = rref(field, m.T)[1]
    if len(pivots) < target_rank:
        raise ValueError(f"matrix rank {len(pivots)} is below the requested {target_rank}")
    return _pad(pivots[:target_rank], n_rows, pad_to)


class ColumnSpace:
    """Column space of a matrix, tested through a parity check.

    The rows of the check span the left kernel of the matrix, so a vector
    lies in the column space exactly when the check maps it to zero.
    """

    def __init__(self, field: GFField, mat):
        self._field = field
        self._check = right_kernel_basis(field, as_matrix(field, mat).T)

    def contains(self, vec) -> bool:
        return self.contains_all(np.reshape(vec, (-1, 1)))

    def contains_all(self, cols) -> bool:
        """Whether every column of `cols` lies in the space: one product."""
        return not self._field.matmul_arr(self._check, as_matrix(self._field, cols)).any()


def right_kernel_basis(field: GFField, mat) -> np.ndarray:
    """Rows span {v : mat @ v = 0}; shape (n_cols - rank, n_cols)."""
    m = as_matrix(field, mat)
    return row_selection(field, m.T, m.shape[1]).check


def span(field: GFField, rows) -> np.ndarray:
    """Every linear combination of the k rows of `rows` (k x n), as an
    (order^k x n) array.  Row i takes its coefficients from the base-order
    digits of i, the first row's least significant; no rows give one zero
    row."""
    r = as_matrix(field, rows)
    coeffs = np.arange(field.order, dtype=np.int64)[:, None]
    words = np.zeros((1, r.shape[1]), dtype=np.int64)
    for row in r[::-1]:  # each earlier row is a less significant digit
        words = field.add_arr(words[:, None], field.mul_arr(coeffs, row)).reshape(-1, r.shape[1])
    return words
