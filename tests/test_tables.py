"""Catalog builders against the embedded reference grids."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from hermipir import tables
from hermipir.cli import main
from hermipir.tables import (
    REFERENCE_TABLE1,
    TABLE1_BUDGETS,
    TABLE2_BUDGETS,
    TABLE3_BUDGETS,
    build_table1,
    build_table2,
    build_table3,
    reference_summary,
    render_csv,
    render_json,
    render_markdown,
)

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def _row(structure, label_fragment):
    hits = [r for r in structure["rows"] if label_fragment in r["label"]]
    assert len(hits) == 1, f"ambiguous or missing row {label_fragment!r}"
    return hits[0]


def _cell(row, budget):
    hits = [c for c in row["cells"] if c["budget"] == budget]
    assert len(hits) == 1
    return hits[0]


# ---------------------------------------------------------------------------
# catalog 2 (fast, fully closed-form + one point count per curve)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table2_structure():
    return build_table2()


@pytest.fixture(scope="module")
def table3_structure():
    return build_table3()


@pytest.fixture(scope="module")
def table1_structure():
    return build_table1()


class TestTable2:
    def test_shape(self, table2_structure):
        assert table2_structure["table"] == 2
        assert table2_structure["columns"] == list(range(15, 211, 15))
        assert [r["genus"] for r in table2_structure["rows"]] == [0, 1, 2, 7]
        for row in table2_structure["rows"]:
            assert len(row["cells"]) == len(TABLE2_BUDGETS)

    def test_counted_models(self, table2_structure):
        expected = {1: (900, 3), 2: (958, 5), 7: (1248, 15)}
        for genus, (count, gamma) in expected.items():
            row = _row(table2_structure, f"genus {genus}:")
            assert row["point_count"] == count
            assert row["gamma"] == gamma
            assert row["witness"] == [1] + [0] * (2 * genus)

    def test_every_row_matches_reference(self, table2_structure):
        for row in table2_structure["rows"]:
            assert row["reference_matches"] is True, row["label"]
            assert row["flags"] == []
        assert reference_summary(table2_structure)["all_match"]

    def test_known_fractions(self, table2_structure):
        assert _cell(_row(table2_structure, "genus 0"), 15)["rate_fraction"] == "405/435"
        assert _cell(_row(table2_structure, "genus 1:"), 15)["rate_fraction"] == "817/855"
        assert _cell(_row(table2_structure, "genus 7:"), 210)["rate_fraction"] == "587/1051"


# ---------------------------------------------------------------------------
# catalog 3
# ---------------------------------------------------------------------------

class TestTable3:
    def test_shape(self, table3_structure):
        assert table3_structure["table"] == 3
        assert table3_structure["columns"] == list(range(5, 66, 5))
        assert len(table3_structure["rows"]) == 7
        assert table3_structure["config"]["base_param"] == 11

    def test_genus_rows_use_hypothetical_profile(self, table3_structure):
        for genus in range(1, 6):
            row = _row(table3_structure, f"genus {genus} ")
            assert row["point_count"] == 122 + 22 * genus
            assert row["gamma"] == 0
            assert "hypothetical-profile" in row["flags"]

    def test_genus_one_to_four_match(self, table3_structure):
        for genus in range(1, 5):
            row = _row(table3_structure, f"genus {genus} ")
            assert row["reference_matches"] is True, row["label"]
            assert row["flags"] == ["hypothetical-profile"]

    def test_genus_five_discrepancy_is_reported_not_forced(self, table3_structure):
        row = _row(table3_structure, "genus 5 ")
        assert row["reference_matches"] is False
        assert "reference-discrepancy" in row["flags"]
        first = _cell(row, 5)
        assert first["rate"] == "0.69343"
        assert first["reference"] == "0.70213"
        assert first["matches_reference"] is False
        summary = reference_summary(table3_structure)
        assert summary["mismatched_rows"] == [row["label"]]
        assert not summary["all_match"]

    def test_hermitian_padded_row_matches(self, table3_structure):
        row = _row(table3_structure, "padded overhead")
        assert row["reference_matches"] is True
        assert _cell(row, 5)["rate_fraction"] == "429/843"
        assert _cell(row, 5)["rate"] == "0.50890"
        assert _cell(row, 65)["rate_fraction"] == "363/897"
        assert _cell(row, 65)["rate"] == "0.40468"

    def test_hermitian_tight_row_is_informational(self, table3_structure):
        row = _row(table3_structure, "tight overhead")
        assert row["reference_matches"] is None
        assert _cell(row, 5)["rate_fraction"] == "429/789"
        assert all(c["reference"] is None for c in row["cells"])
        assert all(c["matches_reference"] is None for c in row["cells"])


# ---------------------------------------------------------------------------
# catalog 1 (search-backed; the searches are cached module-wide)
# ---------------------------------------------------------------------------

# Cells where the per-cell model search provably beats the reference grid:
# the reference evaluated one fixed curve per field (maximal count, which
# forces gamma >= 1 by the pairing parity), while slightly smaller models
# with gamma 0 reach a larger J at even budgets.  Witnesses are recounted
# below and certified nonsingular.
EXCEEDING_CELLS = {
    (13, 2, 2): "2/20",
    (17, 2, 2): "6/24",
    (17, 2, 4): "4/26",
    (17, 2, 6): "2/28",
    (19, 2, 2): "8/26",
    (19, 2, 4): "6/28",
    (19, 2, 6): "4/30",
    (19, 2, 8): "2/32",
}

# Reference cells not attainable by any odd-degree model (the reference
# assumed point-count/gamma profiles the model family does not reach),
# plus reference cells the search strictly improves on, for order > 19.
LARGE_FIELD_CENSUS = {
    (23, 2): {"exceeds": [2, 4, 6, 8], "below": [11]},
    (25, 2): {"exceeds": [2, 4, 6, 8, 10], "below": [13]},
    (27, 2): {"exceeds": [2, 4, 6, 8, 10], "below": [13, 14]},
    (29, 2): {"exceeds": list(range(1, 15)), "below": []},
}


def _poly_squarefree(order, coeffs):
    """gcd(f, f') degree over the prime field — independent of the package."""
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
            a[i + da - db] = (a[i + da - db] - fac * b[i]) % order
        if degree(a) < degree(b):
            a, b = b, a
    return degree(a) == 0


class TestTable1:
    def test_genus_one_rows_all_match(self, table1_structure):
        assert len(table1_structure["rows"]) == 16
        for row in table1_structure["rows"]:
            if row["genus"] == 1:
                assert row["reference_matches"] is True, row["label"]
                assert row["flags"] == []

    def test_small_field_mismatches_are_the_certified_ones(self, table1_structure):
        for row in table1_structure["rows"]:
            if row["field_order"] > 19 or row["genus"] == 1:
                continue
            expected = {b for (q, g, b) in EXCEEDING_CELLS
                        if (q, g) == (row["field_order"], row["genus"])}
            got = {c["budget"] for c in row["cells"]
                   if c["matches_reference"] is False}
            assert got == expected, row["label"]
            for c in row["cells"]:
                if c["budget"] in expected:
                    assert c["reference_relation"] == "exceeds"

    def test_exceeding_cells_certified(self, table1_structure):
        from hermipir.atlas import count_points_hyperelliptic
        for (q, g, budget), fraction in EXCEEDING_CELLS.items():
            row = _row(table1_structure, f"GF({q}) genus {g}")
            cell = _cell(row, budget)
            assert cell["rate_fraction"] == fraction
            witness = tuple(cell["witness"])
            assert _poly_squarefree(q, witness), (q, budget)
            count, gamma = count_points_hyperelliptic(q, witness)
            assert (count, gamma) == (cell["point_count"], cell["gamma"])
            # enough points for the servers: count >= N + g + 1 + gamma
            servers = int(fraction.split("/")[1])
            assert count >= servers + g + 1 + gamma
            assert "exceeds-reference" in row["flags"]

    def test_large_field_census(self, table1_structure):
        for row in table1_structure["rows"]:
            key = (row["field_order"], row["genus"])
            if key not in LARGE_FIELD_CENSUS:
                continue
            expected = LARGE_FIELD_CENSUS[key]
            for relation in ("exceeds", "below"):
                got = [c["budget"] for c in row["cells"]
                       if c["reference_relation"] == relation]
                assert got == expected[relation], (key, relation)

    def test_budget_one_witness_recounts(self, table1_structure):
        from hermipir.atlas import count_points_hyperelliptic
        cell = _cell(_row(table1_structure, "GF(11) genus 1"), 1)
        assert cell["rate_fraction"] == "5/15"
        count, gamma = count_points_hyperelliptic(11, tuple(cell["witness"]))
        assert (count, gamma) == (cell["point_count"], cell["gamma"])
        assert (count, gamma) == (17, 0)

    def test_search_modes_follow_policy(self, table1_structure):
        for row in table1_structure["rows"]:
            order, genus = row["field_order"], row["genus"]
            # the translation normalization degenerates when the
            # characteristic divides 2g+1, forcing the exhaustive path
            degenerate = (order, genus) in ((25, 2), (27, 1))
            if order <= 19 or degenerate:
                assert row["search_mode"] == "search-exhaustive", row["label"]
            else:
                assert row["search_mode"] == "search-reduced", row["label"]

    def test_full_search_flag_and_env(self):
        forced = build_table1(field_orders=(11,), full_search=True)
        assert forced["config"]["full_search"] is True
        assert all(r["search_mode"] == "search-exhaustive"
                   for r in forced["rows"])
        assert build_table1(field_orders=(11,))["config"]["full_search"] is False

    @pytest.mark.parametrize("orders", ["17", "17,19,23,27"])
    def test_benchmark_catalog_digests(self, orders):
        # the catalog-search benchmark's correctness gate, read-only: the
        # JSON bytes and every cell's reference relation must match its record
        recorded = json.loads(DIGESTS.read_text())["catalogs"][orders]
        field_orders = tuple(int(o) for o in orders.split(","))
        text = render_json(build_table1(field_orders=field_orders))
        assert hashlib.sha256(text.encode()).hexdigest() == recorded["sha256"]
        relations = {row["label"]: [c["reference_relation"] for c in row["cells"]]
                     for row in json.loads(text)["rows"]}
        assert relations == recorded["relations"]

    def test_subset_build(self):
        subset = build_table1(field_orders=(13,))
        assert [r["label"] for r in subset["rows"]] == [
            "GF(13) genus 1", "GF(13) genus 2"]
        row = _row(subset, "genus 2")
        assert _cell(row, 1)["rate_fraction"] == "2/18"
        assert _cell(row, 2)["rate_fraction"] == "2/20"
        assert all(not c["feasible"] for c in row["cells"][2:])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class TestRendering:
    def test_dispatch_and_validation(self, capsys):
        # the CLI picks the builder; there is no catalog 4
        assert main(["tables", "--which", "4"]) == 2
        assert "invalid choice: 4" in capsys.readouterr().err

    def test_json_round_trip(self):
        text = render_json(build_table2())
        payload = json.loads(text)
        assert payload["table"] == 2
        assert payload["reference_summary"]["all_match"] is True
        assert len(payload["rows"]) == 4

    def test_csv_shape(self):
        text = render_csv(build_table3())
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        assert rows[0] == list(tables._CSV_COLUMNS)
        assert len(rows) == 1 + 7 * len(TABLE3_BUDGETS)
        rates = {r[9] for r in rows[1:]}
        assert "0.50890" in rates and "0.69343" in rates

    def test_markdown_flags_discrepancies(self):
        text = render_markdown(build_table3())
        assert "| row | T=5 |" in text
        assert "0.69343*" in text
        assert "computed 0.69343 below reference 0.70213" in text
        assert "reference agreement: MISMATCH" in text
        clean = render_markdown(build_table2())
        assert "reference agreement: all rows match" in clean
        assert "*" not in clean.split("\n\n")[-1]

    def test_byte_determinism(self):
        for render in (render_markdown, render_csv, render_json):
            assert render(build_table2()) == render(build_table2())

    def test_table1_emit_subset(self):
        text = render_csv(build_table1(field_orders=(11,)))
        reader = list(csv.reader(io.StringIO(text)))
        assert len(reader) == 1 + 2 * len(TABLE1_BUDGETS)
        assert reader[1][9] == "0.33333"
        # dash cells leave the fraction and witness columns empty
        dash = [r for r in reader[1:] if r[9] == "-"]
        assert dash and all(r[10] == "" and r[18] == "" for r in dash)
