"""Hermitian curve geometry: points, fibers, valuations, function bases."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from hermipir.curve import (
    CurveFunction,
    HermitianCurve,
    curve_for_q,
    info_basis,
    interpolation_basis,
    interpolation_labels,
    one_point_basis,
    one_point_monomials,
    two_point_monomial_set,
    two_point_monomials,
)
from hermipir.fields import GFField, field_of_order
from hermipir.linalg import rank


def on_curve(c, x: int, y: int) -> bool:
    """The curve equation x^(q+1) = y^q + y, checked directly."""
    f = c.field
    return f.pow(x, c.q + 1) == f.add(f.pow(y, c.q), y)


def build_h(c, alphas) -> CurveFunction:
    """1 / prod(x - alpha): poles exactly at the data fibers, a zero of
    order (number of alphas) * q at infinity."""
    den = {(0, 0): 1}
    for a in alphas:
        den = c.poly_mul(den, c.linear_factor(a))
    return CurveFunction(c, {(0, 0): 1}, den)


def poly_sum(c, a: dict, b: dict) -> dict:
    f = c.field
    out = dict(a)
    for key, v in b.items():
        out[key] = f.add(out.get(key, 0), v)
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_count_and_membership(q):
    c = curve_for_q(q)
    pts = c.affine_points()
    assert len(pts) == q**3
    assert len(set(pts)) == q**3
    for x, y in pts:
        assert on_curve(c, x, y)
    assert (0, 0) in pts


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fibers(q):
    c = curve_for_q(q)
    seen = Counter()
    for x in c.field.elements():
        fib = c.fiber_of_x(x)
        assert len(fib) == q
        assert list(fib) == sorted(fib)
        for y in fib:
            assert on_curve(c, x, y)
        seen[len(fib)] += 1
    assert seen == {q: q**2}
    # the origin is on the fiber over 0 and y=0 appears nowhere else
    assert 0 in c.fiber_of_x(0)
    for x in c.field.elements():
        if x != 0:
            assert 0 not in c.fiber_of_x(x)


def scalar_fibers(q: int) -> dict[int, tuple[int, ...]]:
    """The y-values over each relative trace y^q + y, one scalar add and
    one scalar power per element of F_{q^2}."""
    f = field_of_order(q * q)
    fibers: dict[int, list[int]] = {}
    for y in f.elements():
        fibers.setdefault(f.add(y, f.pow(y, q)), []).append(y)
    return {t: tuple(v) for t, v in fibers.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_fibers_match_scalar_oracle(q):
    c, f = curve_for_q(q), field_of_order(q * q)
    oracle = scalar_fibers(q)
    for x in f.elements():
        assert c.fiber_of_x(x) == oracle[f.mul(x, f.pow(x, q))]


def test_curve_build_makes_no_scalar_adds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the curve build called GFField.add")

    monkeypatch.setattr(GFField, "add", refuse)
    for q in (2, 3, 4, 5, 16):
        assert sum(len(HermitianCurve(q).fiber_of_x(x)) for x in range(q * q)) == q**3


def test_enumeration_deterministic():
    a = curve_for_q(3).affine_points()
    b = curve_for_q(3).affine_points()
    assert a == b


def test_evaluate_is_ring_homomorphism():
    c = curve_for_q(3)
    f = c.field
    rng = np.random.default_rng(77)
    pts = [p for p in c.affine_points() if p != (0, 0)][:25]
    for _ in range(100):
        terms1 = {(int(rng.integers(0, 5)), int(rng.integers(0, 2 * c.q))): int(rng.integers(1, f.order)) for _ in range(3)}
        terms2 = {(int(rng.integers(0, 5)), int(rng.integers(0, 2 * c.q))): int(rng.integers(1, f.order)) for _ in range(3)}
        f1, f2 = CurveFunction(c, terms1), CurveFunction(c, terms2)
        prod = CurveFunction(c, c.poly_mul(f1.num, f2.num))
        total = CurveFunction(c, poly_sum(c, f1.num, f2.num))
        v1, v2 = f1.evaluate_many(pts), f2.evaluate_many(pts)
        assert (prod.evaluate_many(pts) == f.mul_arr(v1, v2)).all()
        assert (total.evaluate_many(pts) == f.add_arr(v1, v2)).all()


def test_curve_relation_collapses_under_reduction():
    # y^q + y - x^(q+1) is the zero function on the curve
    c = curve_for_q(4)
    rel = {(0, 4): 1, (0, 1): 1, (5, 0): c.field.neg(1)}
    assert c.reduce_poly(rel) == {}


def test_evaluate_rejects_poles():
    c = curve_for_q(3)
    h = build_h(c, [1, 2])
    data_pt = (1, c.fiber_of_x(1)[0])
    with pytest.raises(ValueError, match="pole"):
        h.evaluate(data_pt)


def test_evaluate_is_evaluate_many_at_one_point():
    c = curve_for_q(3)
    h = build_h(c, [1, 2])
    pts = [p for p in c.affine_points() if p[0] not in (1, 2)]
    values = h.evaluate_many(pts)
    assert [h.evaluate(p) for p in pts] == values.tolist()
    assert all(type(h.evaluate(p)) is int for p in pts[:3])
    # a (k, 2) int array of the same points gives the same values
    assert (h.evaluate_many(np.array(pts, dtype=np.int64)) == values).all()
    assert h.evaluate_many(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_pole_error_names_the_point_as_a_tuple():
    c = curve_for_q(3)
    h = build_h(c, [1, 2])
    pts = [p for p in c.affine_points() if p[0] not in (1, 2)] + [(1, c.fiber_of_x(1)[0])]
    want = f"at {pts[-1]}"
    for given in (pts, np.array(pts, dtype=np.int64)):
        with pytest.raises(ValueError, match="pole") as err:
            h.evaluate_many(given)
        assert str(err.value).endswith(want)


def test_basic_valuations():
    c = curve_for_q(5)
    assert c.monomial_function(1, 0).valuation_at_infinity() == -5
    assert c.monomial_function(0, 1).valuation_at_infinity() == -6
    assert c.monomial_function(0, 1).valuation_at_origin() == 6
    assert c.monomial_function(1, 0).valuation_at_origin() == 1
    assert c.monomial_function(2, 3).valuation_at_infinity() == -(2 * 5 + 3 * 6)
    # x - alpha has the same infinity pole order as x
    assert CurveFunction(c, c.linear_factor(7)).valuation_at_infinity() == -5
    with pytest.raises(ValueError):
        CurveFunction(c, {}).valuation_at_infinity()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_origin_valuation_of_non_monomials(q):
    c = curve_for_q(q)
    f = c.field
    y = {(0, 1): 1}
    # y (x - c) for c != 0: x - c is a unit at the origin
    for const in (1, 2, f.order - 1):
        assert CurveFunction(c, c.poly_mul(y, c.linear_factor(const))).valuation_at_origin() == q + 1
    # x^(q+1) - y = y^q
    assert CurveFunction(c, {(q + 1, 0): 1, (0, 1): f.neg(1)}).valuation_at_origin() == q * (q + 1)
    assert CurveFunction(c, {(0, 1): 1}, {(q + 1, 0): 1, (0, 1): f.neg(1)}).valuation_at_origin() == (q + 1) * (1 - q)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_origin_valuation_is_additive(q):
    c = curve_for_q(q)
    f = c.field
    rng = np.random.default_rng(q)
    polys = []
    while len(polys) < 12:
        terms = {(int(rng.integers(0, 4)), int(rng.integers(0, q))): int(rng.integers(1, f.order)) for _ in range(3)}
        fn = CurveFunction(c, terms)
        if fn.num:
            polys.append(fn.num)
    vals = [c.poly_origin_valuation(p) for p in polys]
    assert any(v > q + 1 for v in vals) and any(v == 0 for v in vals)
    for a, va in zip(polys, vals):
        for b, vb in zip(polys, vals):
            assert c.poly_origin_valuation(c.poly_mul(a, b)) == va + vb


def test_one_point_monomial_counts():
    assert len(one_point_monomials(5, 26)) == 17
    assert one_point_monomials(5, 5) == [(0, 0), (1, 0)]
    assert one_point_monomials(2, 3) == [(0, 0), (1, 0), (0, 1)]
    # ordering is by pole order, and pole orders are pairwise distinct
    for q, m in [(3, 11), (4, 17), (5, 26)]:
        orders = [q * i + (q + 1) * j for i, j in one_point_monomials(q, m)]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)
        genus = q * (q - 1) // 2
        if m > 2 * genus - 2:
            assert len(orders) == m - genus + 1


def test_one_point_basis_evaluates_independently():
    c = curve_for_q(4)
    fns = one_point_basis(c, 9)
    pts = [p for p in c.affine_points() if p != (0, 0)]
    m = np.stack([fn.evaluate_many(pts) for fn in fns], axis=1)
    assert rank(c.field, m) == len(fns)


def test_two_point_monomial_set_against_lattice_count():
    c = curve_for_q(5)
    fns, complete = two_point_monomial_set(c, 45, 24)
    assert complete
    assert len(fns) == 60
    profile = Counter(max(ij for ij in fn.num)[0] if fn.den == {(0, 0): 1} else None for fn in fns)
    mons = two_point_monomials(5, 45, 24)
    by_i = Counter(i for i, _ in mons)
    assert [by_i[i] for i in range(6)] == [12, 11, 10, 10, 9, 8]
    orders = [5 * i + 6 * j for i, j in mons]
    assert orders == sorted(orders) and len(set(orders)) == len(orders)


def test_two_point_trivial_bounds():
    c = curve_for_q(5)
    fns, complete = two_point_monomial_set(c, 0, 0)
    assert len(fns) == 1
    assert fns[0].num == {(0, 0): 1} and fns[0].den == {(0, 0): 1}
    assert not complete  # degree 0 is below the Riemann-Roch threshold 2g-1


def test_two_point_negative_powers_evaluate():
    c = curve_for_q(3)
    fn = c.monomial_function(1, -1)  # x / y
    pts = [p for p in c.affine_points() if p != (0, 0)][:10]
    vals = fn.evaluate_many(pts)
    f = c.field
    for (x, y), v in zip(pts, vals):
        assert int(v) == f.mul(x, f.inv(y))
    assert fn.valuation_at_infinity() == -3 + 4
    assert fn.valuation_at_origin() == 1 - 4


def test_build_h_poles_and_zero_at_infinity():
    c = curve_for_q(5)
    alphas = [1, 2, 3]
    h = build_h(c, alphas)
    assert h.valuation_at_infinity() == 3 * 5
    data = [(a, y) for a in alphas for y in c.fiber_of_x(a)]
    for p in data:
        with pytest.raises(ValueError, match="pole"):
            h.evaluate(p)
    others = [p for p in c.affine_points() if p[0] not in alphas]
    assert (h.evaluate_many(others) != 0).all()


def test_bases_reject_bad_alphas():
    c = curve_for_q(5)
    for basis in (interpolation_basis, info_basis):
        with pytest.raises(ValueError, match="distinct"):
            basis(c, 3, [1, 1, 2])
        with pytest.raises(ValueError, match="avoid 0"):
            basis(c, 3, [0, 1, 2])


def test_interpolation_labels_structure():
    # the truncated z-major listing always ends exactly at a row boundary
    for q, m in [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5), (5, 7)]:
        genus = q * (q - 1) // 2
        labels = interpolation_labels(q, m)
        assert len(labels) == m * q - genus
        assert labels == sorted(labels, key=lambda zi: (zi[0], zi[1]))
        rows = Counter(z for z, _ in labels)
        for z, count in rows.items():
            assert count == m - z + 1
        assert max(rows) == min(2 * m - q + 1, q)


def test_interpolation_basis_valuation_identity():
    c = curve_for_q(5)
    alphas = [1, 2, 3, 4, 5]
    fns = interpolation_basis(c, 5, alphas)
    for (z, _), fn in zip(interpolation_labels(5, 5), fns):
        assert fn.valuation_at_infinity() == -((5 - z) * 5 + (z - 1) * 6)
    # anchor: z = 2 gives pole order 21
    z2 = interpolation_labels(5, 5).index((2, 1))
    assert fns[z2].valuation_at_infinity() == -21


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5), (5, 7)])
def test_interpolation_basis_size_and_rank(q, m):
    c = curve_for_q(q)
    genus = q * (q - 1) // 2
    alphas = list(range(1, m + 1))
    fns = interpolation_basis(c, m, alphas)
    frag_count = m * q - genus
    assert len(fns) == frag_count
    data = [(a, y) for a in alphas for y in c.fiber_of_x(a)]
    assert len(data) == m * q
    mat = np.stack([fn.evaluate_many(data) for fn in fns], axis=1)
    assert rank(c.field, mat) == frag_count


def test_interpolation_basis_requires_enough_alphas():
    c = curve_for_q(5)
    with pytest.raises(ValueError, match="at least"):
        interpolation_basis(c, 2, [1, 2])
    with pytest.raises(ValueError, match="alpha count"):
        interpolation_basis(c, 5, [1, 2, 3])


def test_per_fiber_vandermonde_invertible():
    # powers 1, y, ..., y^(q-1) on a fiber form an invertible q x q matrix
    for q in [3, 4, 5]:
        c = curve_for_q(q)
        for alpha in [1, 2]:
            fib = c.fiber_of_x(alpha)
            v = np.ones((q, q), dtype=np.int64)
            ys = np.array(fib, dtype=np.int64)
            for k in range(1, q):
                v[:, k] = c.field.mul_arr(v[:, k - 1], ys)
            assert rank(c.field, v) == q


@pytest.mark.parametrize("q,m", [(4, 4), (5, 5), (5, 7)])
def test_info_basis_matches_h_times_interpolation(q, m):
    c = curve_for_q(q)
    alphas = list(range(1, m + 1))
    h = build_h(c, alphas)
    interp = interpolation_basis(c, m, alphas)
    info = info_basis(c, m, alphas)
    alpha_set = set(alphas)
    eval_pts = [p for p in c.affine_points() if p[0] not in alpha_set and p != (0, 0)][:40]
    f = c.field
    for fn_i, fn_b in zip(info, interp):
        lhs = fn_i.evaluate_many(eval_pts)
        rhs = f.mul_arr(h.evaluate_many(eval_pts), fn_b.evaluate_many(eval_pts))
        assert (lhs == rhs).all()


def test_info_basis_shape_and_valuations():
    c = curve_for_q(5)
    alphas = [1, 2, 3, 4, 5]
    fns = info_basis(c, 5, alphas)
    labels = interpolation_labels(5, 5)
    for (z, i), fn in zip(labels, fns):
        # denominator carries exactly z linear factors: x-degree z, y-degree 0
        assert max(ij[0] for ij in fn.den) == z
        assert all(ij[1] == 0 for ij in fn.den)
        assert fn.valuation_at_infinity() == 5 - z + 1
        assert fn.valuation_at_origin() == (z - 1) * 6
        # no pole at infinity and none at the origin
        assert fn.valuation_at_infinity() >= 0
        # poles confined to data fibers: evaluates everywhere else
        alpha_set = set(alphas)
        good = [p for p in c.affine_points() if p[0] not in alpha_set]
        fn.evaluate_many(good)
