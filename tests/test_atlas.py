"""Tests for the best-rate calculators and model searches."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermipir import atlas
from hermipir.atlas import (
    ComparisonReport,
    RateRecord,
    achievable_profiles,
    count_points_hyperelliptic,
    curve_search_best_rate,
    elliptic_beats_rational,
    elliptic_best,
    elliptic_best_possible,
    elliptic_rate_upper_bound,
    format_rate,
    genus_one_formulas_agree,
    hermitian_beats_elliptic,
    hermitian_beats_hyperelliptic,
    hermitian_best,
    hermitian_elliptic_gap_poly,
    hermitian_hyperelliptic_gap_poly,
    hermitian_rate_lower_bound,
    hyperelliptic_best,
    hyperelliptic_rate_upper_bound,
    hyperelliptic_upper,
    rate_matches,
    rational_best,
    uncovered_x_count,
)
from hermipir.fields import field_of_order
from hermipir.tables import TABLE1_BUDGETS, TABLE1_FIELD_ORDERS, TABLE1_GENERA


def achievable_profiles_oracle(field_order, genus, reduced=False):
    """Slow reference for `achievable_profiles`: Horner's rule for every
    model at every x, and the first witness of each profile by index."""
    f = field_of_order(field_order)
    degree = 2 * genus + 1
    n_free = degree - 1 if reduced else degree
    index = np.arange(field_order ** n_free, dtype=np.int64)
    digits = [(index // field_order ** k) % field_order for k in range(n_free)]
    elems = np.arange(field_order)
    roots = np.bincount(f.mul_arr(elems, elems), minlength=field_order)
    counts = np.ones(len(index), dtype=np.int64)
    gammas = np.zeros(len(index), dtype=np.int64)
    for x in range(field_order):
        acc = np.ones(len(index), dtype=np.int64)
        for k in range(degree - 1, -1, -1):
            acc = f.mul_arr(acc, x)
            if k < n_free:
                acc = f.add_arr(acc, digits[k])
        counts += roots[acc]
        gammas += acc == 0
    first = {}
    for i, profile in enumerate(zip(counts.tolist(), gammas.tolist())):
        first.setdefault(profile, i)
    return tuple(
        (count, gamma,
         tuple(int(d[i]) for d in digits) + ((0,) if reduced else ()))
        for (count, gamma), i in sorted(first.items()))


ORACLE_CASES = [
    (order, genus, reduced)
    for order, genus in [(5, 1), (7, 1), (9, 1), (11, 1), (25, 1), (27, 1),
                         (5, 2), (7, 2), (9, 2)]
    for reduced in (False, True)
    if not reduced or (2 * genus + 1) % field_of_order(order).p != 0
] + [(49, 1, True), (121, 1, True), (125, 1, True)]  # lifts of 169, 441, 729


def curve_search_best_rate_oracle(field_order, genus, x_sec, t_priv,
                                  full_search=False):
    """Slow reference for `curve_search_best_rate`: one `hyperelliptic_best`
    record per profile, the best by (-J, witness index)."""
    p = field_of_order(field_order).p
    use_reduced = (not full_search and field_order > 19
                   and (2 * genus + 1) % p != 0)
    space = "reduced" if use_reduced else "exhaustive"
    best, best_key = None, None
    for point_count, gamma, coeffs in achievable_profiles(field_order, genus,
                                                          use_reduced):
        rec = hyperelliptic_best(field_order, genus, point_count, gamma,
                                 x_sec, t_priv)
        if not rec.feasible:
            continue
        windex = 0
        for c in reversed(coeffs):
            windex = windex * field_order + c
        if best_key is None or (-rec.j_value, windex) < best_key:
            best_key = (-rec.j_value, windex)
            best = replace(rec, witness=coeffs, convention=f"search-{space}")
    if best is None:
        return RateRecord(
            family="hyperelliptic", field_order=field_order, x_sec=x_sec,
            t_priv=t_priv, genus=genus, feasible=False,
            convention=f"search-{space}",
            note="no model reaches the usable threshold")
    return best


def test_format_rate_significant_digits():
    assert format_rate(Fraction(405, 435)) == "0.93103"
    assert format_rate(Fraction(817, 855)) == "0.95556"
    assert format_rate(Fraction(1, 15)) == "0.066667"
    assert format_rate(Fraction(1, 3)) == "0.33333"
    assert format_rate(Fraction(1, 2)) == "0.50000"
    assert format_rate(Fraction(95, 137)) == "0.69343"
    # exact tie rounds up, not to even
    assert format_rate(Fraction(123455, 1000000)) == "0.12346"
    assert format_rate(0) == "0"
    with pytest.raises(ValueError):
        format_rate(Fraction(-1, 2))


def test_rate_matches_tolerance_and_dashes():
    assert rate_matches(None, "-")
    assert not rate_matches(Fraction(1, 3), "-")
    assert not rate_matches(None, "0.33333")
    assert rate_matches(Fraction(11, 25), "0.44")
    # a last-digit rounding discrepancy of ~5e-6 is tolerated
    assert rate_matches(Fraction(405, 435), "0.93104")
    assert not rate_matches(Fraction(405, 435), "0.93203")


def test_rational_best_anchor_and_infeasible():
    rec = rational_best(841, 15, 15)
    assert (rec.frag_count, rec.server_count) == (405, 435)
    assert rec.rate == Fraction(405, 435)
    assert not rational_best(11, 5, 6).feasible
    assert not rational_best(11, 5, 5).feasible
    assert rational_best(11, 4, 5).feasible
    with pytest.raises(ValueError):
        rational_best(11, 0, 5)


def test_elliptic_best_small_case():
    rec = elliptic_best(13, 21, 0, 1, 1)
    assert rec.j_value == 2
    assert (rec.frag_count, rec.server_count) == (3, 13)
    # too few points for any usable block
    assert not elliptic_best(13, 14, 1, 1, 1).feasible
    with pytest.raises(ValueError):
        elliptic_best(13, 21, 4, 1, 1)


@pytest.mark.parametrize(
    "field_order,genus,count,gamma,x,t,j,frag,servers",
    [
        (841, 1, 900, 3, 15, 15, 409, 817, 855),
        (841, 7, 1248, 15, 210, 210, 297, 587, 1051),
        (121, 1, 144, 0, 5, 5, 56, 111, 129),
        (121, 1, 144, 0, 30, 30, 37, 73, 141),
    ],
)
def test_hyperelliptic_best_anchors(field_order, genus, count, gamma,
                                    x, t, j, frag, servers):
    rec = hyperelliptic_best(field_order, genus, count, gamma, x, t)
    assert rec.feasible
    assert rec.j_value == j
    assert (rec.frag_count, rec.server_count) == (frag, servers)


def test_hyperelliptic_best_regimes_and_infeasible():
    # plenty of points: limited by the supply of x-lines
    assert hyperelliptic_best(841, 1, 900, 3, 15, 15).note == "line-limited"
    # scarce points: limited by the points themselves
    rec = hyperelliptic_best(121, 1, 144, 0, 30, 30)
    assert rec.note == "point-limited"
    # genus-2 model over a small field with a tight budget is unusable
    assert not hyperelliptic_best(13, 2, 22, 1, 2, 2).feasible
    with pytest.raises(ValueError):
        hyperelliptic_best(121, 0, 122, 0, 1, 1)
    with pytest.raises(ValueError):
        hyperelliptic_best(121, 1, 144, 4, 1, 1)


@pytest.mark.parametrize(
    "field_order,genus,x,t,j,frag,servers",
    [
        (121, 2, 5, 5, 54, 106, 130),
        (121, 4, 35, 35, 36, 68, 164),
    ],
)
def test_hyperelliptic_upper_anchors(field_order, genus, x, t, j, frag, servers):
    rec = hyperelliptic_upper(field_order, genus, x, t)
    assert rec.feasible
    assert rec.j_value == j
    assert (rec.frag_count, rec.server_count) == (frag, servers)
    assert rec.convention == "gamma-zero-bound"


def test_upper_bound_dominates_every_profile():
    # over GF(13), genus 1: the gamma-zero bound beats every searched profile
    bound = hyperelliptic_upper(13, 1, 2, 2)
    for count, gamma, _ in achievable_profiles(13, 1):
        rec = hyperelliptic_best(13, 1, count, gamma, 2, 2)
        if rec.feasible:
            assert bound.feasible and bound.rate >= rec.rate


def test_hermitian_best_anchors():
    padded = hermitian_best(11, 5, 5, overhead="padded")
    assert (padded.frag_count, padded.server_count) == (429, 843)
    assert padded.rate_str == "0.50890"
    tight = hermitian_best(11, 5, 5, overhead="tight")
    assert (tight.frag_count, tight.server_count) == (429, 789)
    far = hermitian_best(11, 65, 65, overhead="padded")
    assert (far.frag_count, far.server_count) == (363, 897)
    assert far.rate_str == "0.40468"
    # matches the parameters the running scheme actually builds
    live = hermitian_best(5, 1, 1, overhead="tight")
    assert (live.frag_count, live.server_count) == (15, 85)
    assert not hermitian_best(5, 20, 20).feasible


@pytest.mark.parametrize("q, x, t, overhead", [
    (11, 0, 5, "padded"),
    (11, 5, 0, "tight"),
    (11, 5, 5, "loose"),
    (6, 1, 1, "padded"),   # no Hermitian curve over GF(36)
    (1, 1, 1, "tight"),
])
def test_hermitian_best_rejects_bad_arguments(q, x, t, overhead):
    with pytest.raises(ValueError):
        hermitian_best(q, x, t, overhead=overhead)


def test_count_points_known_models():
    # y^2 = x^3 + 1, maximal over GF(841) since 3 divides 30
    assert count_points_hyperelliptic(841, (1, 0, 0)) == (900, 3)
    # y^2 = x^5 + 1, maximal since 5 divides 30
    assert count_points_hyperelliptic(841, (1, 0, 0, 0, 0)) == (958, 5)
    # y^2 = x^15 + 1, maximal since 15 divides 30
    assert count_points_hyperelliptic(841, (1,) + (0,) * 14) == (1248, 15)
    # cuspidal model y^2 = x^3 has exactly q + 1 points
    assert count_points_hyperelliptic(841, (0, 0, 0)) == (842, 1)
    with pytest.raises(ValueError):
        count_points_hyperelliptic(4, (1, 0, 0))
    with pytest.raises(ValueError):
        count_points_hyperelliptic(841, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        count_points_hyperelliptic(841, (841, 0, 0))


def test_count_points_maximal_family():
    # y^2 = x^(2g+1) + 1 over GF(841) hits the square-root point bound
    # exactly when 2g + 1 divides 30
    for genus in (1, 2, 7):
        coeffs = (1,) + (0,) * (2 * genus)
        count, gamma = count_points_hyperelliptic(841, coeffs)
        assert count == 842 + 2 * genus * 29
        assert gamma == 2 * genus + 1
    count, _ = count_points_hyperelliptic(841, (1,) + (0,) * 6)  # genus 3
    assert count != 842 + 6 * 29


def test_square_weights_are_read_only():
    # the cached weights serve every later search and point count
    weights = atlas._square_weights(7)
    with pytest.raises(ValueError, match="read-only"):
        weights[3] = 2
    assert weights.tolist() == [1, 2, 2, 0, 2, 0, 0]


def test_uncovered_x_count():
    assert uncovered_x_count(121, 232, 1) == 5
    assert uncovered_x_count(121, 243, 0) == 0
    with pytest.raises(ValueError):
        uncovered_x_count(121, 232, 0)  # parity violation
    with pytest.raises(ValueError):
        uncovered_x_count(11, 40, 1)  # more points than the field carries


def test_uncovered_x_count_against_direct_enumeration():
    from hermipir.fields import field_of_order

    f = field_of_order(13)
    coeffs = (1, 0, 0)  # y^2 = x^3 + 1
    count, gamma = count_points_hyperelliptic(13, coeffs)
    squares = {f.mul(a, a) for a in range(13)}
    uncovered = 0
    for x in range(13):
        val = f.add(f.mul(f.mul(x, x), x), 1)
        if val not in squares:
            uncovered += 1
    assert uncovered_x_count(13, count, gamma) == uncovered


def test_achievable_profiles_witnesses_recount():
    profiles = achievable_profiles(5, 1)
    assert profiles == tuple(sorted(profiles, key=lambda e: (e[0], e[1])))
    for count, gamma, coeffs in profiles:
        assert count_points_hyperelliptic(5, coeffs) == (count, gamma)
    # the cuspidal profile (q + 1 points, one axis point) is always present
    assert any(c == 6 and g == 1 for c, g, _ in profiles)


@pytest.mark.parametrize("field_order,genus", [(5, 1), (7, 1), (11, 1),
                                               (13, 1), (7, 2), (17, 2),
                                               (19, 2), (23, 2)])
def test_reduced_space_reaches_every_profile(field_order, genus):
    # exhaustive order visits the models with a_{2g} = 0 first, and when p
    # does not divide 2g + 1 a translation x -> x + c moves every profile
    # there: both spaces find the same profiles with the same first witness
    assert achievable_profiles(field_order, genus) == \
        achievable_profiles(field_order, genus, True)


@pytest.mark.parametrize("field_order,genus,reduced", ORACLE_CASES)
def test_achievable_profiles_match_oracle(field_order, genus, reduced):
    assert achievable_profiles(field_order, genus, reduced) == \
        achievable_profiles_oracle(field_order, genus, reduced)


@pytest.mark.parametrize("chunk_cells", [1, 100])
def test_first_witnesses_merge_across_chunks(monkeypatch, chunk_cells):
    # one prefix per chunk, then a few (q^2 <= 100 cells: q prefixes)
    monkeypatch.setattr(atlas, "_CHUNK_CELLS", chunk_cells)
    for field_order, genus, reduced in [(5, 2, False), (9, 1, False),
                                        (7, 2, True), (25, 1, True)]:
        assert achievable_profiles.__wrapped__(field_order, genus, reduced) \
            == achievable_profiles_oracle(field_order, genus, reduced)


@pytest.mark.parametrize("macs", [1, 1000, 5000])
def test_row_bands_match_oracle(monkeypatch, macs):
    # one prefix per band, then bands that leave a shorter one at the end
    monkeypatch.setattr(atlas, "_BLAS_CALL_MACS", macs)
    for field_order, genus, reduced in [(9, 1, False), (25, 1, True),
                                        (7, 2, True)]:
        assert achievable_profiles.__wrapped__(field_order, genus, reduced) \
            == achievable_profiles_oracle(field_order, genus, reduced)


# every (order, genus, reduced) case of at most 6 * 10^4 models, GF(9)
# genus 2 (59,049) the largest
SMALL_CASES = [
    (order, genus, reduced)
    for order in (3, 5, 7, 9, 11, 25, 27)
    for genus in (1, 2)
    for reduced in (False, True)
    if not reduced or (2 * genus + 1) % field_of_order(order).p != 0
    if order ** (2 * genus + 1 - reduced) <= 60_000
]
_cached_oracle = cache(achievable_profiles_oracle)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_CASES), st.integers(1, 1 << 18),
       st.integers(1, 1 << 19))
def test_search_matches_oracle_at_any_chunk_and_band(case, chunk_cells, macs):
    # small chunks and bands leave a partial last band and merge first
    # witnesses across many chunks; monkeypatch is function-scoped, which
    # hypothesis rejects, so the constants are patched here
    with mock.patch.object(atlas, "_CHUNK_CELLS", chunk_cells), \
            mock.patch.object(atlas, "_BLAS_CALL_MACS", macs):
        assert achievable_profiles.__wrapped__(*case) == _cached_oracle(*case)


@pytest.mark.parametrize("field_order", [3, 5, 9, 25, 27, 29, 49, 125])
def test_lift_add_fold_is_field_addition(field_order):
    f = field_of_order(field_order)
    lift, fold = atlas._lift_fold(f)
    assert len(fold) == (2 * f.p - 1) ** f.n
    elems = np.arange(field_order)
    assert np.array_equal(fold[lift], elems)
    assert np.array_equal(fold[lift[:, None] + lift[None, :]],
                          f.add_arr(elems[:, None], elems[None, :]))


def test_reduced_space_rejected_when_degenerate():
    with pytest.raises(ValueError):
        achievable_profiles(9, 1, True)  # characteristic 3 divides degree 3
    with pytest.raises(ValueError):
        achievable_profiles(5, 2, True)  # characteristic 5 divides degree 5
    with pytest.raises(ValueError):
        achievable_profiles(4, 1)  # even characteristic
    with pytest.raises(ValueError):
        achievable_profiles(311, 2)  # 311^5 models blow the budget


def test_curve_search_small_field_anchors():
    rec = curve_search_best_rate(11, 1, 1, 1, full_search=True)
    assert rec.feasible
    assert (rec.frag_count, rec.server_count) == (5, 15)
    assert (rec.point_count, rec.gamma) == (17, 0)
    assert count_points_hyperelliptic(11, rec.witness) == (17, 0)

    assert not curve_search_best_rate(11, 1, 4, 4, full_search=True).feasible

    rec = curve_search_best_rate(13, 2, 1, 1, full_search=True)
    assert (rec.frag_count, rec.server_count) == (2, 18)

    assert not curve_search_best_rate(11, 2, 1, 1, full_search=True).feasible


def test_curve_search_modes_agree():
    a = curve_search_best_rate(23, 1, 3, 3, full_search=True)
    b = curve_search_best_rate(23, 1, 3, 3)
    assert a.feasible and b.feasible
    assert a.rate == b.rate
    assert a.convention == "search-exhaustive"
    assert b.convention == "search-reduced"
    small = curve_search_best_rate(13, 1, 1, 1)
    assert small.convention == "search-exhaustive"
    # characteristic 3 divides the degree 3: the normalization degenerates,
    # so the default search stays exhaustive, and asking for it raises
    assert curve_search_best_rate(27, 1, 1, 1).convention == "search-exhaustive"
    with pytest.raises(ValueError):
        achievable_profiles(27, 1, True)


@pytest.mark.parametrize("field_order,genus", [
    (order, genus) for order in TABLE1_FIELD_ORDERS for genus in TABLE1_GENERA])
def test_curve_search_matches_per_profile_oracle(field_order, genus):
    modes = (False, True) if field_order <= 23 else (False,)
    for full_search in modes:
        for budget in TABLE1_BUDGETS:
            got = curve_search_best_rate(field_order, genus, budget, budget,
                                         full_search=full_search)
            want = curve_search_best_rate_oracle(field_order, genus, budget,
                                                 budget, full_search)
            # every field, witness, convention and note included
            assert got == want
            assert got.to_dict() == want.to_dict()
            if (field_order, genus) == (11, 2):  # the all-dash row
                assert not got.feasible


def test_curve_search_witness_is_minimal():
    rec = curve_search_best_rate(11, 1, 1, 1, full_search=True)
    best_j = rec.j_value
    windex = 0
    for c in reversed(rec.witness):
        windex = windex * 11 + c
    # no model with a smaller encoded coefficient vector reaches the same J
    for other_count, other_gamma, coeffs in achievable_profiles(11, 1):
        other = hyperelliptic_best(11, 1, other_count, other_gamma, 1, 1)
        if other.feasible and other.j_value == best_j:
            oidx = 0
            for c in reversed(coeffs):
                oidx = oidx * 11 + c
            assert oidx >= windex


def test_elliptic_beats_rational_reports():
    rep = elliptic_beats_rational(841, 900, 3, 15, 15)
    assert isinstance(rep, ComparisonReport)
    assert not rep.condition_holds
    assert rep.agreement
    rep = elliptic_beats_rational(841, 900, 3, 100, 100)
    assert rep.condition_holds
    assert rep.conclusion_holds and rep.agreement


def test_elliptic_beats_rational_sweep():
    for field_order in (29, 841):
        root = int(round(field_order ** 0.5)) if field_order == 841 else 5
        count = field_order + 1 + 2 * root
        for gamma in (0, 1, 3):
            for m in range(1, 21):
                rep = elliptic_beats_rational(field_order, count, gamma, m, m)
                assert rep.agreement


def test_gap_polys_are_half_cross_differences():
    # the quartics equal exactly half the cross-multiplication difference of
    # the floor-free bound fractions, so their signs decide the comparisons
    for q in (5, 7, 9, 11, 13):
        for m_total in range(2, 81, 3):
            h_num = q ** 3 + 1 - (m_total + 4 * q * q)
            h_den = q ** 3 + 2 * q * q + m_total - (2 * q + 3)
            e_num = q * q + 2 * q - m_total - 10
            e_den = q * q + 2 * q + m_total + 6
            poly = hermitian_elliptic_gap_poly(q, m_total)
            assert h_num * e_den - e_num * h_den == 2 * poly
            lower = hermitian_rate_lower_bound(q, m_total)
            upper = elliptic_rate_upper_bound(q * q, m_total)
            assert (poly > 0) == (lower > upper)
    for q in (7, 9, 11):
        for genus in range(1, 6):
            for m_total in range(9, 140, 7):
                h_num = q ** 3 + 1 - (m_total + 4 * q * q)
                h_den = q ** 3 + 2 * q * q + m_total - (2 * q + 3)
                y_num = 2 * q * q - (m_total + 8 * genus + 2)
                y_den = 2 * q * q + m_total + 4 * genus + 2
                poly = hermitian_hyperelliptic_gap_poly(q, genus, m_total)
                assert h_num * y_den - y_num * h_den == 2 * poly
                lower = hermitian_rate_lower_bound(q, m_total)
                upper = hyperelliptic_rate_upper_bound(q * q, genus, m_total)
                assert (poly > 0) == (lower > upper)


def test_gap_poly_threshold_values():
    # at the threshold budget 3q + 6 the quartic collapses to a cubic that
    # turns positive from q = 8 on; at q = 7 the floor-free bounds sit a
    # hair apart in the wrong order even though the record-level comparison
    # already favors the Hermitian side (see the report test below)
    for q in range(3, 30):
        value = hermitian_elliptic_gap_poly(q, 3 * q + 6)
        assert value == 3 * q ** 3 - 19 * q ** 2 - 21 * q - 6
        assert (value > 0) == (q >= 8)
    assert hermitian_hyperelliptic_gap_poly(7, 2, 51) == 824


def test_elliptic_best_possible():
    rec = elliptic_best_possible(49, 13, 14)
    assert (rec.frag_count, rec.server_count) == (11, 46)
    # parity keeps points off the x-axis paired
    assert (rec.point_count - 1 - rec.gamma) % 2 == 0
    assert rec.point_count <= 49 + 2 * 7 + 1


def test_hermitian_beats_elliptic_report():
    rep = hermitian_beats_elliptic(7, 13, 14)
    assert rep.condition_holds and rep.conclusion_holds and rep.agreement
    # at this exact threshold the floor-free bounds are out of order ...
    assert not rep.details["bounds_ordered"]
    assert rep.details["gap_poly"] == -55
    # ... while the actual records decide in favor of the Hermitian side
    assert rep.details["hermitian_record"]["rate_fraction"] == "63/228"
    assert rep.details["elliptic_record"]["rate_fraction"] == "11/46"
    rep = hermitian_beats_elliptic(7, 14, 14)
    assert rep.condition_holds and rep.conclusion_holds
    assert rep.details["bounds_ordered"]
    rep = hermitian_beats_elliptic(5, 11, 10)
    assert not rep.condition_holds
    assert rep.agreement


def test_hermitian_beats_elliptic_sweep():
    for q in (7, 8, 9, 11, 13, 16):
        for m_total in range(2, 7 * q):
            x = m_total // 2
            t = m_total - x
            if x < 1 or t < 1:
                continue
            assert hermitian_beats_elliptic(q, x, t).agreement


def test_hermitian_beats_hyperelliptic_report():
    rep = hermitian_beats_hyperelliptic(7, 2, 25, 26)
    assert rep.condition_holds and rep.conclusion_holds
    assert Fraction(rep.details["hermitian_lower_bound"]) == Fraction(97, 475)
    assert Fraction(rep.details["hyperelliptic_upper_bound"]) == \
        Fraction(29, 159)
    assert rep.details["gap_poly"] == 824
    assert rep.details["bounds_ordered"]
    assert rep.details["hermitian_record"]["rate_fraction"] == "49/238"
    assert rep.details["upper_record"]["rate_fraction"] == "14/79"
    # genus 1 requires a larger base parameter
    rep = hermitian_beats_hyperelliptic(31, 1, 100, 100)
    assert not rep.condition_holds and rep.agreement
    rep = hermitian_beats_hyperelliptic(37, 1, 116, 115)
    assert rep.condition_holds and rep.conclusion_holds


def test_hermitian_beats_hyperelliptic_sweep():
    for q in (7, 9, 11, 13):
        for genus in (1, 2, 3, 5):
            for m_total in range(2, 8 * q, 3):
                x = m_total // 2
                t = m_total - x
                if x < 1 or t < 1:
                    continue
                assert hermitian_beats_hyperelliptic(q, genus, x, t).agreement


def test_genus_one_forms_agree_with_full_coverage(sample_covered_genus_one_inputs):
    for tup in sample_covered_genus_one_inputs(50, seed=20260814):
        result = genus_one_formulas_agree(*tup)
        assert result["uncovered"] == 0
        assert result["agree"]


def test_genus_one_forms_can_disagree_with_uncovered_lines():
    result = genus_one_formulas_agree(29, 30, 1, 1, 1)
    assert result["uncovered"] == 14
    assert not result["agree"]
    assert result["standalone"].j_value == 4
    assert result["unified"].j_value == 9


def test_unified_form_never_loses_to_standalone():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(300):
        q = int(rng.choice((9, 13, 17, 25, 29, 41)))
        gamma = int(rng.integers(0, 4))
        # any profile respecting the pairing parity and the x-line capacity
        pairs = int(rng.integers(0, q - gamma + 1))
        count = 1 + gamma + 2 * pairs
        x = int(rng.integers(1, 7))
        t = int(rng.integers(1, 7))
        standalone = elliptic_best(q, count, gamma, x, t)
        unified = hyperelliptic_best(q, 1, count, gamma, x, t)
        if standalone.feasible:
            assert unified.feasible
            assert unified.rate >= standalone.rate


def test_record_serialization():
    rec = hermitian_best(11, 5, 5)
    data = rec.to_dict()
    assert data["rate"] == "0.50890"
    assert data["rate_fraction"] == "429/843"
    dash = rational_best(11, 5, 6).to_dict()
    assert dash["rate"] == "-"
    assert dash["rate_fraction"] is None


def test_record_to_dict_lists_every_field_in_order():
    """All 16 keys in field order, then the two rate strings; the witness
    becomes a list, and an infeasible record keeps its Nones."""
    searched = {
        "family": "hyperelliptic", "field_order": 17, "x_sec": 1, "t_priv": 1, "genus": 2,
        "feasible": True, "frag_count": 6, "server_count": 22, "j_value": 4, "point_count": 26,
        "gamma": 1, "convention": "search-exhaustive", "witness": [0, 3, 0, 0, 0],
        "note": "line-limited", "rate": "0.27273", "rate_fraction": "6/22",
    }
    infeasible = {
        "family": "hyperelliptic", "field_order": 5, "x_sec": 1, "t_priv": 1, "genus": 1,
        "feasible": False, "frag_count": None, "server_count": None, "j_value": None,
        "point_count": None, "gamma": None, "convention": "search-exhaustive", "witness": None,
        "note": "no model reaches the usable threshold", "rate": "-", "rate_fraction": None,
    }
    for args, want in (((17, 2, 1, 1), searched), ((5, 1, 1, 1), infeasible)):
        data = curve_search_best_rate(*args).to_dict()
        # a tuple witness would compare unequal to the list
        assert list(data.items()) == list(want.items()), args
