"""End-to-end acceptance runs: one test per shipping criterion.

Each test exercises one criterion at its stated tolerance and time budget
and ends by printing a single ``criterion N: PASS`` line (run with ``-v``
or ``-s`` to see them); any failure surfaces as that test's own fail line.
Printed-rate comparisons use 1e-5 absolute tolerance, matching the five
significant digits of the embedded reference grids; statistical checks run
at the 0.999 chi-square level over 10_000 trials.

Known, certified deviations (criterion 2): at a handful of small-field
genus-2 cells the exhaustive model search finds strictly better rates than
the embedded reference grid records.  Those cells are pinned here with
independently verified witness curves (squarefree model, recounted points,
sufficient point supply) instead of being forced to agree.
"""

import time
from fractions import Fraction

import pytest
from scipy.stats import chi2

from hermipir.atlas import (
    count_points_hyperelliptic,
    curve_search_best_rate,
    genus_one_formulas_agree,
)
from hermipir.codes import (
    check_w_wise_independence,
    dual_distance_bound,
    dual_min_distance_bruteforce,
    generator_matrix,
    goppa_designed_distance,
    min_distance_bruteforce,
)
from hermipir.curve import (
    curve_for_q,
    interpolation_basis,
    interpolation_labels,
    one_point_basis,
)
from hermipir.linalg import rank
from hermipir.scheme import (
    build_instance,
    certify_instance,
    chi_square_uniform_stat,
    run_pir_demo,
    validate_params,
)
from hermipir.tables import build_table1, build_table2, build_table3

import numpy as np

TOLERANCE = 1e-5


def _passed(number: int, label: str) -> None:
    print(f"criterion {number}: PASS - {label}")


def _row(structure, label_fragment):
    hits = [r for r in structure["rows"] if label_fragment in r["label"]]
    assert len(hits) == 1, f"ambiguous or missing row {label_fragment!r}"
    return hits[0]


def _cell(row, budget):
    hits = [c for c in row["cells"] if c["budget"] == budget]
    assert len(hits) == 1
    return hits[0]


def _within_tolerance(cell) -> bool:
    num, den = map(int, cell["rate_fraction"].split("/"))
    return abs(num / den - float(cell["reference"])) <= TOLERANCE


# Small-field genus-2 cells where the exhaustive search strictly beats the
# embedded reference, with the verified best rate for each.
CERTIFIED_BETTER = {
    (13, 2, 2): "2/20",
    (17, 2, 2): "6/24",
    (17, 2, 4): "4/26",
    (17, 2, 6): "2/28",
    (19, 2, 2): "8/26",
    (19, 2, 4): "6/28",
    (19, 2, 6): "4/30",
    (19, 2, 8): "2/32",
}


def _squarefree_over_prime_field(order, coeffs):
    """Whether x^d + sum coeffs[k] x^k is squarefree: plain-integer gcd with
    the derivative, kept free of the package's own field arithmetic."""
    f = list(coeffs) + [1]
    fp = [(i * c) % order for i, c in enumerate(f)][1:]

    def degree(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    a, b = f[:], fp[:]
    while degree(b) >= 0:
        da, db = degree(a), degree(b)
        if da < db:
            a, b = b, a
            continue
        fac = a[da] * pow(b[db], order - 2, order) % order
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - fac * b[i]) % order
        if degree(a) < db:
            a, b = b, a
    return degree(a) == 0


def test_criterion_1_big_field_catalog():
    """GF(841): all 4x14 cells match the reference within 1e-5 in < 1 min."""
    start = time.monotonic()
    structure = build_table2()
    assert len(structure["rows"]) == 4
    assert all(len(r["cells"]) == 14 for r in structure["rows"])
    for row in structure["rows"]:
        for cell in row["cells"]:
            assert cell["feasible"], (row["label"], cell["budget"])
            assert _within_tolerance(cell), (row["label"], cell["budget"])
            assert cell["matches_reference"] is True
    # the three concrete models behind the curve rows, recounted here
    assert count_points_hyperelliptic(841, (1, 0, 0)) == (900, 3)
    assert count_points_hyperelliptic(841, (1,) + (0,) * 4) == (958, 5)
    assert count_points_hyperelliptic(841, (1,) + (0,) * 14) == (1248, 15)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _passed(1, f"56/56 GF(841) cells within 1e-5 in {elapsed:.1f}s")


def test_criterion_2_small_field_catalog():
    """Exhaustive search over q in {11,13,17,19}, genera 1 and 2: every cell
    equals the reference (dashes included) except the certified cells where
    the search strictly improves on it; the normalized larger-field search
    agrees with the exhaustive one; all in < 5 min."""
    start = time.monotonic()
    structure = build_table1(field_orders=(11, 13, 17, 19))

    anchor = [c["rate"] for c in _row(structure, "GF(11) genus 1")["cells"]]
    assert anchor == ["0.33333", "0.20000", "0.066667"] + ["-"] * 11

    equal_cells, better_cells = 0, 0
    for row in structure["rows"]:
        order = row["field_order"]
        genus = row["genus"]
        for cell in row["cells"]:
            key = (order, genus, cell["budget"])
            if key in CERTIFIED_BETTER:
                assert cell["reference_relation"] == "exceeds", key
                assert cell["rate_fraction"] == CERTIFIED_BETTER[key], key
                witness = tuple(cell["witness"])
                assert _squarefree_over_prime_field(order, witness), key
                count, gamma = count_points_hyperelliptic(order, witness)
                assert (count, gamma) == (cell["point_count"], cell["gamma"])
                servers = int(cell["rate_fraction"].split("/")[1])
                assert count >= servers + genus + 1 + gamma, key
                better_cells += 1
                continue
            assert cell["matches_reference"] is True, key
            if cell["reference"] == "-":
                assert not cell["feasible"], key
            else:
                assert cell["feasible"] and _within_tolerance(cell), key
            equal_cells += 1
    assert better_cells == len(CERTIFIED_BETTER)
    assert equal_cells + better_cells == 4 * 2 * 14

    # larger fields run the translation-normalized search by default; it
    # must return exactly what exhaustive enumeration returns
    for order in (23, 29):
        for budget in (1, 4, 8, 14):
            fast = curve_search_best_rate(order, 2, budget, budget)
            slow = curve_search_best_rate(order, 2, budget, budget,
                                          full_search=True)
            assert fast.convention == "search-reduced", (order, budget)
            assert slow.convention == "search-exhaustive", (order, budget)
            assert fast.feasible == slow.feasible, (order, budget)
            if fast.feasible:
                assert fast.rate == slow.rate, (order, budget)
                assert fast.j_value == slow.j_value, (order, budget)

    # and the full-search flag wires through to identical cells
    default_23 = build_table1(field_orders=(23,))
    forced_23 = build_table1(field_orders=(23,), full_search=True)
    for row_a, row_b in zip(default_23["rows"], forced_23["rows"]):
        rates_a = [c["rate"] for c in row_a["cells"]]
        rates_b = [c["rate"] for c in row_b["cells"]]
        assert rates_a == rates_b, row_a["label"]

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    _passed(2, f"{equal_cells} cells equal, {better_cells} certified better, "
               f"normalized = exhaustive at 23 and 29, in {elapsed:.1f}s")


def test_criterion_3_tower_catalog():
    """GF(121): padded-overhead row and genus 1-4 rows match exactly; the
    genus-5 row is emitted with a discrepancy flag, never forced; the tight
    overhead variant is reported alongside."""
    structure = build_table3()

    padded = _row(structure, "padded overhead")
    assert padded["reference_matches"] is True
    for budget, printed in ((5, "0.50890"), (25, "0.47271"),
                            (45, "0.43800"), (65, "0.40468")):
        assert _cell(padded, budget)["rate"] == printed
    assert all(c["matches_reference"] for c in padded["cells"])
    assert _cell(padded, 5)["rate_fraction"] == "429/843"

    for genus in (1, 2, 3, 4):
        row = _row(structure, f"genus {genus} ")
        assert row["reference_matches"] is True, row["label"]

    flagged = _row(structure, "genus 5 ")
    assert flagged["reference_matches"] is False
    assert "reference-discrepancy" in flagged["flags"]
    cell = _cell(flagged, 5)
    assert cell["rate"] == "0.69343" and cell["reference"] == "0.70213"

    tight = _row(structure, "tight overhead")
    tight_cell = _cell(tight, 5)
    assert tight_cell["rate_fraction"] == "429/789"
    assert tight_cell["reference"] is None

    _passed(3, "padded row + genus 1-4 exact; genus 5 flagged; "
               "tight variant 429/789 reported")


def test_criterion_4_protocol():
    """q=5, x=t=1 (m=5, L=15, N=85), 3 files: 100 seeded trials all recover
    the requested file, deterministically, in < 30 s."""
    start = time.monotonic()
    first = run_pir_demo(5, 1, 1, 3, seed=7, trials=100)
    p = first["params"]
    assert (p["fiber_count"], p["frag_count"], p["server_count"]) == (5, 15, 85)
    assert p["num_files"] == 3
    assert first["rate"]["fraction"] == "15/85"
    assert first["successes"] == 100
    assert all(r["ok"] for r in first["results"])
    second = run_pir_demo(5, 1, 1, 3, seed=7, trials=100)
    assert first == second
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    _passed(4, f"100/100 retrievals, deterministic transcript, {elapsed:.1f}s")


def test_criterion_5_shadows(slot_storage_code):
    """q=5 instances at x=t=1 and x=t=2: every storage and query code meets
    its dual-distance threshold, passes exhaustive w-wise independence up to
    its masking width (capped at 2), and single-server query marginals are
    uniform at the 0.999 chi-square level over 10_000 trials."""
    order = 25
    threshold = float(chi2.ppf(0.999, order - 1))
    worst = 0.0
    for x_t in (1, 2):
        instance = build_instance(validate_params(5, x_t, x_t, num_files=2))
        p = instance.params
        for l in range(p.frag_count):
            code = slot_storage_code(instance, l)
            assert dual_distance_bound(code) >= x_t + 1
            for w in range(1, min(x_t, 2) + 1):
                ok, _ = check_w_wise_independence(code, w)
                assert ok, (x_t, l, w)
        query = instance.query_code()
        assert dual_distance_bound(query) >= x_t + 1
        for w in range(1, min(x_t, 2) + 1):
            ok, _ = check_w_wise_independence(query, w)
            assert ok, (x_t, w)
        for server, desired in ((7, 0), (40, 1), (84, 1)):
            samples = instance.query_marginal_samples(
                server=server, file_index=1, frag_index=3,
                desired_index=desired, trials=10_000, seed=5,
            )
            stat = chi_square_uniform_stat(samples, order)
            worst = max(worst, stat)
            assert stat < threshold, (x_t, server, desired, stat)
            assert len(set(int(v) for v in samples)) == order
    _passed(5, f"dual bounds, independence, uniform marginals "
               f"(worst chi-square {worst:.1f} < {threshold:.1f})")


def test_criterion_6_bases():
    """Fragment bases: |basis| = L and evaluation rank L at the m*q data
    points for seven (q, m) shapes, plus the infinity-valuation identity
    for every labelled function."""
    for q, m in ((3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5), (5, 7)):
        c = curve_for_q(q)
        genus = q * (q - 1) // 2
        frag_count = m * q - genus
        alphas = list(range(1, m + 1))
        fns = interpolation_basis(c, m, alphas)
        assert len(fns) == frag_count, (q, m)
        data = [(a, y) for a in alphas for y in c.fiber_of_x(a)]
        mat = np.stack([fn.evaluate_many(data) for fn in fns], axis=1)
        assert rank(c.field, mat) == frag_count, (q, m)
        for (z, _), fn in zip(interpolation_labels(q, m), fns):
            assert fn.valuation_at_infinity() == -(m * q - 1) + (q - z), (q, m, z)
    _passed(6, "size, rank, and valuation identity for all seven (q, m) shapes")


def test_criterion_7_noise():
    """q=5 instances: the masking pool has exactly N - g - L functions (60
    at x=t=1), the exact containment certificate holds, and info/noise
    ranks add up to N - g."""
    for x_t, expected_pool in ((1, 60), (2, 62)):
        params = validate_params(5, x_t, x_t)
        instance = build_instance(params)
        noise = instance.manifest()["noise"]
        assert noise["count"] == expected_pool
        assert expected_pool == (params.server_count - params.genus
                                 - params.frag_count)
        assert noise["complete"] is True
        report = certify_instance(instance)
        assert report.noise_containment
        assert report.noise_rank + params.frag_count == report.total_rank
        assert report.total_rank == report.rank_certificate
        assert report.prefix_unique
    _passed(7, "pool sizes 60/62, containment, rank additivity L + pool = N - g")


def test_criterion_8_codes():
    """q=2 one-point codes over GF(4), pole degrees 3..6: brute-forced
    minimum distance meets the designed bound and brute-forced dual distance
    meets degG - 2g + 2."""
    c = curve_for_q(2)
    pts = c.affine_points()
    for degG in range(3, 7):
        code = generator_matrix(c.field, one_point_basis(c, degG), pts,
                                c.genus, degG)
        assert min_distance_bruteforce(code) >= goppa_designed_distance(code)
        assert dual_min_distance_bruteforce(code) >= degG - 2 * c.genus + 2
    _passed(8, "designed and dual distance bounds hold for pole degrees 3..6")


def test_criterion_9_formula_consistency(sample_covered_genus_one_inputs):
    """The standalone genus-1 closed form and the unified genus-g machinery
    agree on 50 sampled full-coverage inputs."""
    inputs = sample_covered_genus_one_inputs(50, seed=20)
    assert len(inputs) == 50
    for tup in inputs:
        outcome = genus_one_formulas_agree(*tup)
        assert outcome["uncovered"] == 0, tup
        assert outcome["agree"], tup
    _passed(9, "standalone and unified genus-1 forms agree on 50 sampled inputs")
