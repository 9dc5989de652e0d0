"""Elimination, rank, prefix solving and greedy row selection over GF(q)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermipir import linalg
from hermipir.fields import GFField, field_of_order
from hermipir.linalg import (
    ColumnSpace,
    rank,
    row_selection,
    rref,
    right_kernel_basis,
    select_full_rank_rows,
    solve_prefix,
)

F25 = GFField(5, 2)
F7 = GFField(7, 1)


def test_rank_basics():
    eye = np.eye(4, dtype=np.int64)
    assert rank(F7, eye) == 4
    assert rank(F7, np.zeros((3, 5), dtype=np.int64)) == 0
    # duplicated rows collapse
    m = np.array([[1, 2, 3], [1, 2, 3], [0, 1, 1]], dtype=np.int64)
    assert rank(F7, m) == 2


def test_vandermonde_full_rank():
    # over GF(7): rows x^j at 7 distinct points
    xs = np.arange(7, dtype=np.int64)
    v = np.ones((7, 7), dtype=np.int64)
    for j in range(1, 7):
        v[:, j] = F7.mul_arr(v[:, j - 1], xs)
    assert rank(F7, v) == 7


def test_rank_equals_transpose_rank_random():
    rng = np.random.default_rng(404)
    for _ in range(10):
        m = F25.sample_arr(rng, (20, 30))
        assert rank(F25, m) == rank(F25, m.T)


def test_rref_is_idempotent_and_deterministic():
    rng = np.random.default_rng(7)
    m = F25.sample_arr(rng, (6, 9))
    r1, p1 = rref(F25, m)
    r2, p2 = rref(F25, r1)
    assert (r1 == r2).all() and p1 == p2
    r3, p3 = rref(F25, m)
    assert (r1 == r3).all() and p1 == p3


def test_solve_prefix_round_trip():
    rng = np.random.default_rng(99)
    m = F25.sample_arr(rng, (12, 8))
    while rank(F25, m) < 8:
        m = F25.sample_arr(rng, (12, 8))
    s = F25.sample_arr(rng, 8)
    b = F25.matmul_arr(m, s[:, None])[:, 0]
    got = solve_prefix(F25, m, b, 8)
    assert (got == s).all()
    assert (solve_prefix(F25, m, b, 3) == s[:3]).all()


def test_solve_prefix_with_duplicated_trailing_columns():
    # The trailing block is rank-deficient by construction, so the full
    # solution is not unique, but the leading coordinates still are.
    rng = np.random.default_rng(3)
    lead = F25.sample_arr(rng, (10, 4))
    while rank(F25, lead) < 4:
        lead = F25.sample_arr(rng, (10, 4))
    tail = F25.sample_arr(rng, (10, 2))
    m = np.concatenate([lead, tail, tail], axis=1)  # columns 4,5 repeat as 6,7
    s = F25.sample_arr(rng, 8)
    b = F25.matmul_arr(m, s[:, None])[:, 0]
    got = solve_prefix(F25, m, b, 4)
    expect_tailsum = [
        F25.add(int(s[4]), int(s[6])),
        F25.add(int(s[5]), int(s[7])),
    ]
    # sanity on the construction: recombine to check b
    recon = F25.matmul_arr(
        np.concatenate([lead, tail], axis=1),
        np.concatenate([got, np.array(expect_tailsum, dtype=np.int64)])[:, None],
    )[:, 0]
    assert (recon == b).all()
    assert (got == s[:4]).all()
    with pytest.raises(ValueError, match="not unique|not determined"):
        solve_prefix(F25, m, b, 5)


def test_solve_prefix_inconsistent_raises():
    m = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_prefix(F7, m, b, 1)


def test_solve_prefix_undetermined_coordinate_raises():
    m = np.array([[0, 1]], dtype=np.int64)
    b = np.array([3], dtype=np.int64)
    with pytest.raises(ValueError, match="not determined"):
        solve_prefix(F7, m, b, 1)


def test_select_full_rank_rows_greedy_and_pad():
    m = np.array(
        [
            [1, 2, 3],
            [2, 4, 6],   # multiple of row 0: skipped
            [0, 1, 1],
            [1, 3, 4],   # row0 + row2: skipped
            [0, 0, 1],
        ],
        dtype=np.int64,
    )
    sel = select_full_rank_rows(F7, m, target_rank=3, pad_to=4)
    assert sel == [0, 1, 2, 4]  # greedy picks 0,2,4; pad adds lowest unused 1
    with pytest.raises(ValueError, match="rank"):
        select_full_rank_rows(F7, m, target_rank=4, pad_to=5)
    with pytest.raises(ValueError, match="cannot select"):
        select_full_rank_rows(F7, m, target_rank=3, pad_to=6)


def test_select_full_rank_rows_deterministic():
    rng = np.random.default_rng(12)
    m = F25.sample_arr(rng, (40, 12))
    s1 = select_full_rank_rows(F25, m, 12, 20)
    s2 = select_full_rank_rows(F25, m, 12, 20)
    assert s1 == s2
    assert rank(F25, m[s1]) == 12


def test_column_space_membership():
    rng = np.random.default_rng(8)
    m = F25.sample_arr(rng, (10, 4))
    space = ColumnSpace(F25, m)
    coefs = F25.sample_arr(rng, (4, 3))
    inside = F25.matmul_arr(m, coefs)
    assert all(space.contains(inside[:, j]) for j in range(3))
    if rank(F25, m) < 10:
        outside_found = False
        for trial in range(50):
            v = F25.sample_arr(rng, (10, 1))
            if not space.contains(v):
                outside_found = True
                break
        assert outside_found


def test_right_kernel():
    rng = np.random.default_rng(21)
    m = F25.sample_arr(rng, (4, 9))
    k = right_kernel_basis(F25, m)
    assert k.shape[0] == 9 - rank(F25, m)
    prod = F25.matmul_arr(m, k.T)
    assert (prod == 0).all()
    assert rank(F25, k) == k.shape[0]


# -- reference implementations ------------------------------------------------

def rref_oracle(field: GFField, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination with every row operation on full rows."""
    r = mat.copy()
    pivots: list[int] = []
    for col in range(r.shape[1]):
        row = len(pivots)
        nz = np.flatnonzero(r[row:, col]) if row < r.shape[0] else []
        if len(nz) == 0:
            continue
        r[[row, row + nz[0]]] = r[[row + nz[0], row]]
        r[row] = field.mul_arr(r[row], field.inv(int(r[row, col])))
        for i in range(r.shape[0]):
            if i != row and r[i, col]:
                r[i] = field.sub_arr(r[i], field.mul_arr(r[i, col], r[row]))
        pivots.append(col)
    return r, pivots


def greedy_rows_oracle(field: GFField, mat: np.ndarray, target_rank: int) -> list[int]:
    """Row-by-row scan: keep each row that enlarges the span of the rows
    kept so far, until `target_rank` rows are kept."""
    basis: list[tuple[np.ndarray, int]] = []  # (normalised row, pivot column)
    chosen: list[int] = []
    for i in range(mat.shape[0]):
        if len(chosen) == target_rank:
            break
        v = mat[i].copy()
        for row, col in basis:
            c = int(v[col])
            if c:
                v = field.sub_arr(v, field.mul_arr(np.int64(c), row))
        nz = np.flatnonzero(v)
        if nz.size:
            col = int(nz[0])
            basis.append((field.mul_arr(v, field.inv(int(v[col]))), col))
            chosen.append(i)
    return chosen


def in_span_oracle(field: GFField, mat: np.ndarray, vec: np.ndarray) -> bool:
    """rank([mat | vec]) == rank(mat)."""
    return rank(field, np.concatenate([mat, vec[:, None]], axis=1)) == rank(field, mat)


def solve_prefix_oracle(field: GFField, mat: np.ndarray, rhs: np.ndarray, prefix_len: int) -> np.ndarray:
    """rref of [mat | rhs]: inconsistent when the last column is a pivot;
    coordinate j is unique when it is a pivot column whose row has no
    entry in a free column."""
    n_cols = mat.shape[1]
    r, pivots = rref_oracle(field, np.concatenate([mat, rhs[:, None]], axis=1))
    if n_cols in pivots:
        raise ValueError("inconsistent system: no solution exists")
    free = [c for c in range(n_cols) if c not in pivots]
    out = np.zeros(prefix_len, dtype=np.int64)
    for j in range(prefix_len):
        if j not in pivots or r[pivots.index(j), free].any():
            raise ValueError(f"prefix coordinate {j} is not determined by the system")
        out[j] = r[pivots.index(j), n_cols]
    return out


@st.composite
def low_rank_matrices(draw):
    """A product of random n x k and k x m factors over GF(7), GF(8) or
    GF(25), with some rows overwritten by copies of other rows."""
    field = field_of_order(draw(st.sampled_from([7, 8, 25])))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 7))
    k = draw(st.integers(0, 6))
    entries = st.integers(0, field.order - 1)
    left = np.array(draw(st.lists(entries, min_size=n * k, max_size=n * k)), dtype=np.int64)
    right = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m)), dtype=np.int64)
    if k:
        mat = field.matmul_arr(left.reshape(n, k), right.reshape(k, m))
    else:
        mat = np.zeros((n, m), dtype=np.int64)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        mat[dst] = mat[src]
    return field, mat


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_rref_matches_full_row_oracle(fm):
    field, mat = fm
    r, pivots = rref(field, mat)
    r_ref, pivots_ref = rref_oracle(field, mat)
    assert pivots == pivots_ref
    assert (r == r_ref).all()


PANEL_ORDERS = [2, 8, 64, 7, 13, 25, 27, 49, 81]


@st.composite
def paneled_matrices(draw, panel):
    """Matrices more than four panels of `panel` columns wide, so that odd
    characteristics run blocked: a random rank-k product, with one whole
    panel optionally blanked or filled with copies of earlier columns (a
    panel with no pivot), from fewer rows than a panel to tall and narrow."""
    field = field_of_order(draw(st.sampled_from(PANEL_ORDERS)))
    n_cols = draw(st.integers(4 * panel + 1, 6 * panel + 2))
    n_rows = draw(st.integers(1, n_cols + 2 * panel))
    k = draw(st.integers(0, min(n_rows, n_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = field.sample_arr(rng, (n_rows, k)), field.sample_arr(rng, (k, n_cols))
    mat = field.matmul_arr(left, right) if k else np.zeros((n_rows, n_cols), dtype=np.int64)
    blank = draw(st.sampled_from([None, "zero", "copies"]))
    if blank:
        c0 = panel * draw(st.integers(1, n_cols // panel - 1))
        cols = slice(c0, c0 + panel)
        mat[:, cols] = 0 if blank == "zero" else mat[:, rng.integers(0, c0, size=panel)]
    return field, mat


@pytest.mark.parametrize("panel", [1, 3, 7])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_blocked_rref_matches_oracle_at_panel_boundaries(panel, data):
    field, mat = data.draw(paneled_matrices(panel))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_PANEL_COLS", panel)
        r, pivots = rref(field, mat)
    r_ref, pivots_ref = rref_oracle(field, mat)
    assert pivots == pivots_ref
    assert (r == r_ref).all()


@pytest.mark.parametrize(
    "order, n_cols, blocked",
    [(49, 129, True), (27, 200, True), (49, 128, False), (25, 114, False), (64, 200, False), (2, 150, False)],
)
def test_only_wide_odd_characteristic_eliminations_use_matmul(order, n_cols, blocked, monkeypatch):
    """A matrix more than four panels wide over an odd characteristic is
    updated by field matmuls; any other runs as one panel, the per-pivot
    loop alone.  Both match the oracle."""
    field = field_of_order(order)
    rng = np.random.default_rng(n_cols)
    mat = field.sample_arr(rng, (40, n_cols))
    mat[:, 35:70] = mat[:, :35]  # one panel with no pivot
    calls = []
    real = GFField.matmul_arr

    def spy(self, a, b):
        calls.append(self)
        return real(self, a, b)

    monkeypatch.setattr(GFField, "matmul_arr", spy)
    r, pivots = rref(field, mat)
    assert bool(calls) == blocked
    monkeypatch.undo()
    r_ref, pivots_ref = rref_oracle(field, mat)
    assert pivots == pivots_ref
    assert (r == r_ref).all()


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices(), st.data())
def test_select_full_rank_rows_matches_greedy_oracle(fm, data):
    field, mat = fm
    n_rows = mat.shape[0]
    r = rank(field, mat)
    target = data.draw(st.integers(0, r), label="target_rank")
    pad_to = data.draw(st.integers(target, n_rows), label="pad_to")
    chosen = greedy_rows_oracle(field, mat, target)
    pad = [i for i in range(n_rows) if i not in chosen][: pad_to - target]
    assert select_full_rank_rows(field, mat, target, pad_to) == sorted(chosen + pad)
    if r < n_rows:
        with pytest.raises(ValueError, match="rank"):
            select_full_rank_rows(field, mat, r + 1, n_rows)


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices(), st.data())
def test_column_space_contains_matches_rank_oracle(fm, data):
    field, mat = fm
    space = ColumnSpace(field, mat)
    entries = st.integers(0, field.order - 1)
    height, width = mat.shape
    coefs = np.array(data.draw(st.lists(entries, min_size=width, max_size=width)), dtype=np.int64)
    inside = field.matmul_arr(mat, coefs[:, None])[:, 0]
    assert space.contains(inside)
    vec = np.array(data.draw(st.lists(entries, min_size=height, max_size=height)), dtype=np.int64)
    assert space.contains(vec) == in_span_oracle(field, mat, vec)


@st.composite
def linear_systems(draw):
    """A low-rank matrix or its transpose (duplicated rows become
    duplicated columns), a right-hand side that is either its product with
    a random vector (consistent) or random (often inconsistent), and a
    prefix length."""
    field, mat = draw(low_rank_matrices())
    if draw(st.booleans()):
        mat = mat.T.copy()
    n_rows, n_cols = mat.shape
    entries = st.integers(0, field.order - 1)
    if draw(st.booleans()):
        s = np.array(draw(st.lists(entries, min_size=n_cols, max_size=n_cols)), dtype=np.int64)
        rhs = field.matmul_arr(mat, s[:, None])[:, 0]
    else:
        rhs = np.array(draw(st.lists(entries, min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    return field, mat, rhs, draw(st.integers(0, n_cols))


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_prefix_matches_rref_oracle(system):
    field, mat, rhs, prefix_len = system
    assert _outcome(solve_prefix, field, mat, rhs, prefix_len) == _outcome(
        solve_prefix_oracle, field, mat, rhs, prefix_len
    )


@settings(max_examples=200, deadline=None)
@given(linear_systems(), st.data())
def test_row_selection_decoder_and_check(system, data):
    """One elimination gives the greedy rows, the rank, a decoder with
    D S = [I | 0] and a check whose rows span the left kernel of S; on the
    selected rows, H b = 0 and D b agree with the rref oracle."""
    field, mat, rhs, prefix_len = system
    n_rows, n_cols = mat.shape
    target = rank(field, mat)
    pad_to = data.draw(st.integers(target, n_rows), label="pad_to")
    sel = row_selection(field, mat, pad_to, prefix_len)
    chosen = greedy_rows_oracle(field, mat, target)
    assert sel.rows == sorted(chosen + [i for i in range(n_rows) if i not in chosen][: pad_to - target])
    sub = mat[sel.rows]
    assert sel.rank == rank(field, sub) == target
    assert sel.check.shape == (pad_to - target, pad_to)
    assert not field.matmul_arr(sel.check, sub).any()
    assert rank(field, sel.check) == pad_to - target
    units = np.eye(n_cols, dtype=np.int64)
    free = [j for j in range(prefix_len) if not in_span_oracle(field, sub.T, units[j])]
    assert sel.undetermined == (free[0] if free else None)
    if sel.decoder is not None:
        assert (field.matmul_arr(sel.decoder, sub) == units[:prefix_len]).all()
    b = rhs[sel.rows]
    consistent = not field.matmul_arr(sel.check, b[:, None]).any()
    assert consistent == in_span_oracle(field, sub, b)
    if consistent and sel.decoder is not None:
        assert (field.matmul_arr(sel.decoder, b[:, None])[:, 0] == solve_prefix_oracle(field, sub, b, prefix_len)).all()


def test_row_selection_rejects_bad_sizes():
    m = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="cannot select"):
        row_selection(F7, m, 4)
    with pytest.raises(ValueError, match="prefix length"):
        row_selection(F7, m, 3, 3)


@settings(max_examples=100, deadline=None)
@given(low_rank_matrices(), st.data())
def test_row_selection_rejects_pad_below_rank(fm, data):
    field, mat = fm
    full_rank = rank(field, mat)
    if full_rank == 0:
        return
    pad_to = data.draw(st.integers(0, full_rank - 1), label="pad_to")
    with pytest.raises(ValueError, match="rank"):
        row_selection(field, mat, pad_to)


def kernel_oracle(field: GFField, mat: np.ndarray) -> np.ndarray:
    """One kernel vector per free column of rref(mat): 1 there, minus the
    pivot rows' entries in that column at the pivot columns."""
    r, pivots = rref_oracle(field, mat)
    n_cols = mat.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    out = np.zeros((len(free), n_cols), dtype=np.int64)
    for i, c in enumerate(free):
        out[i, c] = 1
        for row, p in enumerate(pivots):
            out[i, p] = field.neg(int(r[row, c]))
    return out


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices(), st.booleans())
def test_right_kernel_matches_free_column_oracle(fm, transpose):
    field, mat = fm
    if transpose:
        mat = mat.T.copy()
    assert np.array_equal(right_kernel_basis(field, mat), kernel_oracle(field, mat))


def span_oracle(field: GFField, rows: np.ndarray) -> list[list[int]]:
    """Every combination by scalar arithmetic, coefficient vectors in
    itertools.product order read backwards: the first row's varies fastest."""
    out = []
    for digits in itertools.product(range(field.order), repeat=len(rows)):
        word = [0] * rows.shape[1]
        for c, row in zip(reversed(digits), rows):
            word = [field.add(w, field.mul(c, int(x))) for w, x in zip(word, row)]
        out.append(word)
    return out


@pytest.mark.parametrize("order", [4, 9, 25])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_span_matches_product_oracle(order, k):
    """Values and row order: row i's coefficients are the base-order digits
    of i, the first row's least significant; no rows give one zero row."""
    f = field_of_order(order)
    rows = f.sample_arr(np.random.default_rng(10 * order + k), (k, 3))
    got = linalg.span(f, rows)
    assert got.shape == (order**k, 3)
    assert got.tolist() == span_oracle(f, rows)
