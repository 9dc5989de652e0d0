"""Dense linear algebra over a GFField.

Matrices are 2-D numpy int64 arrays of element encodings; every routine
takes the field as its first argument.  `rref` is the one elimination
routine: rank, prefix solving, kernels, greedy row selection (pivots of the
transpose) and column-space membership (a left-kernel parity check) are all
read off it.  Elimination pivots on the first nonzero entry in scan order,
so all results are deterministic functions of the input.
"""

from __future__ import annotations

import numpy as np

from hermipir.fields import GFField


def as_matrix(field: GFField, data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if arr.size and (arr.min() < 0 or arr.max() >= field.order):
        raise ValueError("entries are not valid element encodings")
    return arr


def rref(field: GFField, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    r = as_matrix(field, mat).copy()
    n_rows, n_cols = r.shape
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
    return r, pivots


def rank(field: GFField, mat) -> int:
    return len(rref(field, mat)[1])


def solve_prefix(field: GFField, mat, rhs, prefix_len: int) -> np.ndarray:
    """First `prefix_len` coordinates of the solutions of mat @ s = rhs.

    The system may be underdetermined in its trailing coordinates; the call
    succeeds exactly when the system is consistent and every one of the
    first `prefix_len` coordinates takes the same value in all solutions.
    Raises ValueError otherwise.
    """
    m = as_matrix(field, mat)
    b = np.asarray(rhs, dtype=np.int64).reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length does not match row count")
    if not 0 <= prefix_len <= m.shape[1]:
        raise ValueError("prefix length out of range")
    aug = np.concatenate([m, b[:, None]], axis=1)
    r, pivots = rref(field, aug)
    n_cols = m.shape[1]
    if n_cols in pivots:
        raise ValueError("inconsistent system: no solution exists")
    pivot_rows = {col: i for i, col in enumerate(pivots)}
    free_cols = [c for c in range(n_cols) if c not in pivot_rows]
    out = np.zeros(prefix_len, dtype=np.int64)
    for j in range(prefix_len):
        if j not in pivot_rows:
            raise ValueError(f"prefix coordinate {j} is not determined by the system")
        i = pivot_rows[j]
        if any(r[i, c] != 0 for c in free_cols):
            raise ValueError(f"prefix coordinate {j} is not unique across solutions")
        out[j] = r[i, n_cols]
    return out


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
    chosen = pivots[:target_rank]
    used = set(chosen)
    pad = [i for i in range(n_rows) if i not in used][: pad_to - target_rank]
    return sorted(chosen + pad)


class ColumnSpace:
    """Column space of a matrix, tested through a parity check.

    The rows of the check span the left kernel of the matrix, so a vector
    lies in the column space exactly when the check maps it to zero.
    """

    def __init__(self, field: GFField, mat):
        self._field = field
        self._check = right_kernel_basis(field, as_matrix(field, mat).T)

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64).reshape(-1)
        f = self._field
        return not f.sum_arr(f.mul_arr(self._check, v[None, :]), axis=1).any()


def right_kernel_basis(field: GFField, mat) -> np.ndarray:
    """Rows span {v : mat @ v = 0}; shape (n_cols - rank, n_cols)."""
    m = as_matrix(field, mat)
    r, pivots = rref(field, m)
    n_cols = m.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    out = np.zeros((len(free), n_cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.neg_arr(r[: len(pivots)][:, free]).T
    return out
