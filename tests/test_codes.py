"""Evaluation codes: dimensions, distance bounds, independence checks."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermipir.codes import (
    check_w_wise_independence,
    dual_distance_bound,
    dual_min_distance_bruteforce,
    from_matrix,
    generator_matrix,
    goppa_designed_distance,
    min_distance_bruteforce,
)
from hermipir.curve import CurveFunction, curve_for_q, one_point_basis
from hermipir.fields import GFField
from hermipir.linalg import rank


def _independence_oracle(code, w: int):
    """Reference w-wise independence: test every column subset of size w by
    rank, in lexicographic order.  Same verdict and witness conventions as
    `check_w_wise_independence`, with no limit on w."""
    if w > code.k:
        return False, tuple(range(w))
    zero_cols = np.flatnonzero((code.gen == 0).all(axis=0))
    if zero_cols.size:
        return False, (int(zero_cols[0]),)
    for subset in combinations(range(code.n), w):
        if rank(code.field, code.gen[:, list(subset)]) < w:
            return False, subset
    return True, None


def _one_point_code(q: int, degG: int):
    # one-point functions are regular on the whole affine chart, including
    # the origin, so all q^3 affine points serve as evaluation points
    c = curve_for_q(q)
    pts = c.affine_points()
    fns = one_point_basis(c, degG)
    return generator_matrix(c.field, fns, pts, c.genus, degG)


@pytest.mark.parametrize("degG", [3, 4, 5, 6])
def test_small_hermitian_codes_meet_designed_distances(degG):
    # q=2 over F_4: 8 affine evaluation points, genus 1
    code = _one_point_code(2, degG)
    assert code.n == 8
    assert code.k == degG - code.genus + 1  # Riemann-Roch, as degG > 2g - 2
    assert rank(code.field, code.gen) == code.k
    d_star = goppa_designed_distance(code)
    assert min_distance_bruteforce(code) >= d_star
    dual_star = dual_distance_bound(code)
    assert dual_min_distance_bruteforce(code) >= dual_star


def test_reed_solomon_analogue_over_prime_field():
    # genus 0 sanity: polynomial evaluation code over GF(7)
    f = GFField(7, 1)
    xs = np.arange(7, dtype=np.int64)
    degG = 3
    gen = np.stack([f.pow_arr(xs, e) for e in range(degG + 1)], axis=0)
    code = from_matrix(f, gen, genus=0, degG=degG)
    assert min_distance_bruteforce(code) == 7 - degG
    assert dual_min_distance_bruteforce(code) == degG + 2


def test_rank_matches_dimension_above_threshold():
    for q, degG in [(3, 7), (3, 10), (4, 11)]:
        code = _one_point_code(q, degG)
        genus = q * (q - 1) // 2
        assert code.k == degG - genus + 1
        assert rank(code.field, code.gen) == code.k


def test_w_wise_independence_detects_zero_and_repeat_columns():
    f = GFField(5, 1)
    gen = np.array([[1, 2, 0, 1], [0, 1, 0, 0]], dtype=np.int64)
    code = from_matrix(f, gen, genus=0, degG=1)
    ok, witness = check_w_wise_independence(code, 1)
    assert not ok and witness == (2,)
    gen2 = np.array([[1, 2, 2, 4], [0, 1, 1, 3]], dtype=np.int64)
    code2 = from_matrix(f, gen2, genus=0, degG=1)
    ok1, _ = check_w_wise_independence(code2, 1)
    assert ok1
    ok2, witness2 = check_w_wise_independence(code2, 2)
    assert not ok2 and witness2 == (1, 2)  # identical columns
    # column 3 = 2 * column 2 is also dependent but (1,2) comes first
    gen3 = np.array([[1, 2, 4], [1, 1, 3]], dtype=np.int64)
    code3 = from_matrix(f, gen3, genus=0, degG=1)
    ok3, _ = check_w_wise_independence(code3, 2)
    assert ok3


def test_w_wise_independence_w_exceeding_dimension():
    f = GFField(5, 1)
    gen = np.array([[1, 2, 3]], dtype=np.int64)
    code = from_matrix(f, gen, genus=0, degG=0)
    ok, witness = check_w_wise_independence(code, 2)
    assert not ok


def test_w_wise_independence_matches_dual_bound():
    # dual distance >= degG - 2g + 2 means all (degG - 2g + 1)-subsets of
    # columns are independent; verify on a small Hermitian code, w >= 3 by
    # the rank oracle
    code = _one_point_code(2, 5)
    w_max = dual_distance_bound(code) - 1
    assert w_max == 4
    for w in range(1, w_max + 1):
        check = check_w_wise_independence if w <= 2 else _independence_oracle
        ok, witness = check(code, w)
        assert ok, (w, witness)


_ORACLE_FIELDS = tuple(GFField(p, n) for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_check_matches_rank_oracle(data):
    f = data.draw(st.sampled_from(_ORACLE_FIELDS))
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 9))
    entries = data.draw(st.lists(st.integers(0, f.order - 1), min_size=k * n, max_size=k * n))
    gen = np.array(entries, dtype=np.int64).reshape(k, n)
    for _ in range(data.draw(st.integers(0, 3))):
        # plant a proportional column
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        gen[:, b] = f.mul_arr(gen[:, a], np.int64(data.draw(st.integers(1, f.order - 1))))
    if data.draw(st.booleans()):
        gen[:, data.draw(st.integers(0, n - 1))] = 0
    code = from_matrix(f, gen, genus=0, degG=1)
    assert check_w_wise_independence(code, 2) == _independence_oracle(code, 2)


def test_w_wise_independence_refuses_w_above_two():
    code = _one_point_code(2, 5)
    with pytest.raises(ValueError, match="w must be 1 or 2"):
        check_w_wise_independence(code, 3)


def test_pair_check_finds_planted_pair_among_two_million():
    # 2000 columns (1, a, b) over GF(47) are pairwise independent; one
    # planted multiple makes the only dependent pair of C(2000, 2) = 1,999,000
    f = GFField(47, 1)
    a, b = np.divmod(np.arange(2000, dtype=np.int64), 47)
    gen = np.stack([np.ones(2000, dtype=np.int64), a, b])
    gen[:, 1700] = f.mul_arr(gen[:, 400], np.int64(5))
    code = from_matrix(f, gen, genus=0, degG=1)
    assert check_w_wise_independence(code, 2) == (False, (400, 1700))
    gen[:, 1700] = [1, 46, 0]  # a = 46 lies past the 2000 columns
    assert check_w_wise_independence(from_matrix(f, gen, genus=0, degG=1), 2) == (True, None)


def test_bruteforce_guard():
    f = GFField(5, 2)
    gen = np.eye(12, dtype=np.int64)
    code = from_matrix(f, gen, genus=0, degG=1)
    with pytest.raises(ValueError, match="brute-force limit"):
        min_distance_bruteforce(code)


def test_pole_at_evaluation_point_rejected():
    c = curve_for_q(3)
    h = CurveFunction(c, {(0, 0): 1}, c.linear_factor(1))  # 1 / (x - 1)
    data = [(1, y) for y in c.fiber_of_x(1)]
    with pytest.raises(ValueError, match="pole"):
        generator_matrix(c.field, [h], data, c.genus, 3)
