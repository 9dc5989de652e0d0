"""Evaluation codes: dimensions, distance bounds, independence checks."""

from __future__ import annotations

import numpy as np
import pytest

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
    # columns are independent; verify on a small Hermitian code
    code = _one_point_code(2, 5)
    w_max = dual_distance_bound(code) - 1
    for w in range(1, w_max + 1):
        ok, witness = check_w_wise_independence(code, w)
        assert ok, (w, witness)


def test_exhaustive_guard_refuses_large_subset_spaces():
    f = GFField(5, 1)
    gen = np.ones((3, 300), dtype=np.int64)
    code = from_matrix(f, gen, genus=0, degG=1)
    with pytest.raises(ValueError, match="exceed"):
        check_w_wise_independence(code, 5)


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
