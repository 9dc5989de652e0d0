"""Rate catalogs: three reference grids regenerated from first principles.

Each catalog tabulates best download rates against a per-column masking
budget with ``x_sec = t_priv = budget``:

* catalog 1 — searched hyperelliptic models of genus 1 and 2 over small
  odd fields (orders 11 through 29), budgets 1..14.  Every cell runs the
  model search; a dash marks budgets no model can serve.  The genus-2
  reference values were evidently evaluated on a single assumed curve per
  field, so the honest per-cell maximum disagrees with them in both
  directions: certified models beat the reference at even budgets (the
  assumed curve has gamma 1 while slightly smaller curves with gamma 0
  score higher), and some reference values assume point counts that no
  odd-degree model attains.  Such cells are emitted as computed and
  classified ``exceeds``/``below`` rather than forced to agree.
* catalog 2 — GF(841): the projective line against the counted models
  ``y^2 = x^(2g+1) + 1`` for genus 1, 2 and 7 (each hits the square-root
  point bound because ``2g + 1`` divides 30), budgets 15..210.
* catalog 3 — GF(121): genus 1..5 rows evaluated on the hypothetical
  profile "maximal point count, no x-axis points" (a bound-style
  convention that no actual odd-degree model attains, since it violates
  the pairing parity) against the Hermitian tower rows in both
  server-overhead conventions, budgets 5..65.

Reference values are embedded verbatim; every regenerated cell is compared
against them at a tolerance of 1e-5 and the comparison is reported
per cell, never enforced — genuine discrepancies surface as row flags.
Every row is one ``_row`` over its records, one per budget, and every
table one ``_table``; a CSV line reads each column from its cell, row or
table.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .atlas import (
    RateRecord,
    count_points_hyperelliptic,
    curve_search_best_rate,
    hermitian_best,
    hyperelliptic_best,
    rate_matches,
    rational_best,
)

TABLE1_BUDGETS = tuple(range(1, 15))
TABLE2_BUDGETS = tuple(range(15, 211, 15))
TABLE3_BUDGETS = tuple(range(5, 66, 5))

TABLE1_FIELD_ORDERS = (11, 13, 17, 19, 23, 25, 27, 29)
TABLE1_GENERA = (1, 2)
TABLE2_FIELD_ORDER = 841
TABLE2_GENERA = (1, 2, 7)
TABLE3_FIELD_ORDER = 121
TABLE3_BASE_PARAM = 11
TABLE3_GENERA = (1, 2, 3, 4, 5)

REFERENCE_TABLE1 = {
    (11, 1): ("0.33333", "0.20000", "0.066667") + ("-",) * 11,
    (11, 2): ("-",) * 14,
    (13, 1): ("0.41177", "0.29412", "0.26316", "0.15789", "0.052631")
             + ("-",) * 9,
    (13, 2): ("0.11111",) + ("-",) * 13,
    (17, 1): ("0.52381", "0.42857", "0.39130", "0.30435", "0.21739",
              "0.13043", "0.043478") + ("-",) * 7,
    (17, 2): ("0.27273", "0.18182", "0.16667", "0.083333", "0.076923")
             + ("-",) * 9,
    (19, 1): ("0.56522", "0.47826", "0.44", "0.36", "0.28", "0.2", "0.12",
              "0.04") + ("-",) * 6,
    (19, 2): ("0.33333", "0.25", "0.23077", "0.15385", "0.14286",
              "0.071428", "0.066667") + ("-",) * 7,
    (23, 1): ("0.62963", "0.55556", "0.51724", "0.44828", "0.41935",
              "0.35484", "0.29032", "0.22581", "0.16129", "0.096774",
              "0.032258") + ("-",) * 3,
    (23, 2): ("0.42857", "0.35714", "0.33333", "0.26667", "0.25", "0.1875",
              "0.17647", "0.11765", "0.11111", "0.055555", "0.052631")
             + ("-",) * 3,
    (25, 1): ("0.65517", "0.58621", "0.54839", "0.48387", "0.45454",
              "0.39394", "0.33333", "0.27273", "0.21212", "0.15152",
              "0.090909", "0.030303") + ("-",) * 2,
    (25, 2): ("0.46667", "0.4", "0.375", "0.3125", "0.29412", "0.23529",
              "0.22222", "0.16667", "0.15789", "0.10526", "0.1", "0.05",
              "0.047619", "-"),
    (27, 1): ("0.67742", "0.6129", "0.57576", "0.51515", "0.48571",
              "0.42857", "0.37143", "0.31429", "0.25714", "0.2", "0.14286",
              "0.085714", "0.028571", "-"),
    (27, 2): ("0.5", "0.4375", "0.41176", "0.35294", "0.33333", "0.27778",
              "0.26316", "0.21053", "0.2", "0.15", "0.14286", "0.095238",
              "0.090909", "0.045455"),
    (29, 1): ("0.69697", "0.63636", "0.6", "0.54286", "0.51351", "0.45946",
              "0.40541", "0.35135", "0.2973", "0.24324", "0.18919",
              "0.13514", "0.081081", "0.027027"),
    (29, 2): ("0.5", "0.47059", "0.41176", "0.38889", "0.33333", "0.31579",
              "0.26316", "0.25", "0.2", "0.19048", "0.14286", "0.13636",
              "0.090909", "-"),
}

REFERENCE_TABLE2 = {
    0: ("0.93104", "0.86667", "0.80645", "0.75000", "0.69697", "0.64706",
        "0.60000", "0.55556", "0.51351", "0.47368", "0.43590", "0.40000",
        "0.36585", "0.33333"),
    1: ("0.95556", "0.92193", "0.88927", "0.85699", "0.82346", "0.78995",
        "0.75642", "0.72291", "0.68938", "0.65587", "0.62234", "0.58883",
        "0.55531", "0.52179"),
    2: ("0.94860", "0.91494", "0.88262", "0.85111", "0.82096", "0.79140",
        "0.76321", "0.73263", "0.70105", "0.66947", "0.63789", "0.60632",
        "0.57474", "0.54316"),
    7: ("0.91345", "0.88060", "0.84859", "0.81798", "0.78798", "0.75940",
        "0.73122", "0.70448", "0.67795", "0.65288", "0.62786", "0.60431",
        "0.58067", "0.55852"),
}

REFERENCE_TABLE3 = {
    1: ("0.86047", "0.78947", "0.72662", "0.65958", "0.58865", "0.51773",
        "0.44681", "0.37589", "0.30497", "0.23404", "0.16312", "0.092198",
        "0.021277"),
    2: ("0.81538", "0.75000", "0.68571", "0.63013", "0.57333", "0.52564",
        "0.47500", "0.41975", "0.35802", "0.29630", "0.23457", "0.17284",
        "0.11111"),
    3: ("0.77444", "0.70803", "0.65035", "0.59184", "0.54248", "0.49044",
        "0.44785", "0.40120", "0.36416", "0.32203", "0.28962", "0.23497",
        "0.18033"),
    4: ("0.73135", "0.67142", "0.61111", "0.56000", "0.50649", "0.46250",
        "0.41463", "0.37647", "0.33333", "0.30000", "0.26087", "0.23158",
        "0.19588"),
    5: ("0.70213", "0.64138", "0.58940", "0.53548", "0.49068", "0.44242",
        "0.40351", "0.36000", "0.32597", "0.28649", "0.25655", "0.22051",
        "0.19403"),
    "hermitian": ("0.50890", "0.49644", "0.49061", "0.47826", "0.47271",
                  "0.46046", "0.45517", "0.44304", "0.43800", "0.43307",
                  "0.42117", "0.41648", "0.40468"),
}


def _reference_relation(record: RateRecord, reference: str | None) -> str | None:
    """Order a computed record against a reference string.

    Returns "equal" (within tolerance), "exceeds" (computed rate strictly
    better, counting any feasible rate as better than a dash), "below",
    or None when there is no reference to compare with.
    """
    if reference is None:
        return None
    if rate_matches(record.rate, reference):
        return "equal"
    if reference == "-":
        return "exceeds"
    if record.rate is None:
        return "below"
    return "exceeds" if record.rate > Fraction(reference) else "below"


def _cells(records, reference, extra) -> list[dict]:
    """One cell per record, at budget x_sec = t_priv, compared with the
    reference string in the same position (with none when ``reference`` is
    None); ``extra(record)`` adds keys of the cell's own."""
    cells = []
    for i, record in enumerate(records):
        ref = None if reference is None else reference[i]
        relation = _reference_relation(record, ref)
        cell = {
            "budget": record.x_sec,
            "x_sec": record.x_sec,
            "t_priv": record.t_priv,
            "feasible": record.feasible,
            "rate": record.rate_str,
            "rate_fraction": record.rate_fraction,
            "reference": ref,
            "matches_reference": (None if relation is None
                                  else relation == "equal"),
            "reference_relation": relation,
        }
        if record.j_value is not None:
            cell["j_value"] = record.j_value
        if extra is not None:
            cell.update(extra(record))
        cells.append(cell)
    return cells


def _row(label: str, convention: str, records: list[RateRecord],
         reference: tuple[str, ...] | None, extra=None,
         flags: tuple[str, ...] = (), **fields) -> dict:
    """One catalog row: the cells of ``records`` (one per budget) with their
    reference verdict and flags.  Family, field order and genus are the
    records' own; ``fields`` adds row keys (``search_mode`` is None unless
    given)."""
    cells = _cells(records, reference, extra)
    matches = [c["matches_reference"] for c in cells
               if c["matches_reference"] is not None]
    flags = list(flags)
    if matches and not all(matches):
        flags.append("reference-discrepancy")
        relations = {c["reference_relation"] for c in cells}
        if "exceeds" in relations:
            flags.append("exceeds-reference")
        if "below" in relations:
            flags.append("below-reference")
    return {
        "label": label,
        "family": records[0].family,
        "field_order": records[0].field_order,
        "genus": records[0].genus,
        "convention": convention,
        "search_mode": None,
        **fields,
        "cells": cells,
        "reference_matches": all(matches) if matches else None,
        "flags": flags,
    }


def _table(number: int, budgets: tuple[int, ...], rows: list[dict],
           **config) -> dict:
    return {
        "table": number,
        "columns": list(budgets),
        "config": {**config, "budget_meaning": "x_sec = t_priv = budget"},
        "rows": rows,
    }


def _searched_model(record: RateRecord) -> dict:
    """The profile and first witness of a feasible searched record."""
    if not record.feasible:
        return {}
    return {"point_count": record.point_count, "gamma": record.gamma,
            "witness": list(record.witness)}


def build_table1(field_orders=None, full_search: bool = False) -> dict:
    """Searched best rates for genus 1 and 2 models over small odd fields.

    ``full_search=True`` enumerates every coefficient vector for every
    field; the default enumerates exhaustively up to order 19 and uses the
    translation-normalized space beyond, falling back to exhaustive where
    the normalization degenerates.  The searched profile sets coincide
    either way, so the cells do too.
    """
    if field_orders is None:
        field_orders = TABLE1_FIELD_ORDERS
    rows = []
    for order in field_orders:
        for genus in TABLE1_GENERA:
            records = [curve_search_best_rate(order, genus, b, b,
                                              full_search=full_search)
                       for b in TABLE1_BUDGETS]
            rows.append(_row(
                f"GF({order}) genus {genus}", "searched", records,
                REFERENCE_TABLE1.get((order, genus)), _searched_model,
                # every budget of a row searches the same space
                search_mode=records[-1].convention))
    return _table(1, TABLE1_BUDGETS, rows, field_orders=list(field_orders),
                  genera=list(TABLE1_GENERA), full_search=full_search)


def build_table2() -> dict:
    """GF(841): the projective line against three counted maximal models."""
    q = TABLE2_FIELD_ORDER
    rows = [_row(f"GF({q}) genus 0 (projective line)", "closed-form",
                 [rational_best(q, b, b) for b in TABLE2_BUDGETS],
                 REFERENCE_TABLE2[0])]
    for genus in TABLE2_GENERA:
        coeffs = (1,) + (0,) * (2 * genus)
        count, gamma = count_points_hyperelliptic(q, coeffs)
        rows.append(_row(
            f"GF({q}) genus {genus}: y^2 = x^{2 * genus + 1} + 1",
            "counted-model",
            [hyperelliptic_best(q, genus, count, gamma, b, b)
             for b in TABLE2_BUDGETS],
            REFERENCE_TABLE2[genus],
            point_count=count, gamma=gamma, witness=list(coeffs)))
    return _table(2, TABLE2_BUDGETS, rows, field_order=q,
                  genera=[0, *TABLE2_GENERA])


def build_table3() -> dict:
    """GF(121): hypothetical maximal genus rows against the Hermitian rows."""
    q = TABLE3_FIELD_ORDER
    rows = []
    for genus in TABLE3_GENERA:
        count = q + 1 + 22 * genus
        profile = {"point_count": count, "gamma": 0}
        rows.append(_row(
            f"GF({q}) genus {genus} (gamma-zero maximal profile)",
            "gamma-zero-maximal",
            [hyperelliptic_best(q, genus, count, 0, b, b)
             for b in TABLE3_BUDGETS],
            REFERENCE_TABLE3[genus], lambda record: profile,
            flags=("hypothetical-profile",), **profile))
    for overhead, reference in (("padded", REFERENCE_TABLE3["hermitian"]),
                                ("tight", None)):
        rows.append(_row(
            f"GF({q}) Hermitian tower, {overhead} overhead",
            f"overhead-{overhead}",
            [hermitian_best(TABLE3_BASE_PARAM, b, b, overhead=overhead)
             for b in TABLE3_BUDGETS],
            reference))
    return _table(3, TABLE3_BUDGETS, rows, field_order=q,
                  base_param=TABLE3_BASE_PARAM, genera=list(TABLE3_GENERA))


def reference_summary(structure: dict) -> dict:
    """Aggregate per-row reference comparisons for a built table."""
    mismatched = [row["label"] for row in structure["rows"]
                  if row["reference_matches"] is False]
    checked = [row["label"] for row in structure["rows"]
               if row["reference_matches"] is not None]
    exceeding, below = [], []
    for row in structure["rows"]:
        for cell in row["cells"]:
            if cell["reference_relation"] == "exceeds":
                exceeding.append([row["label"], cell["budget"]])
            elif cell["reference_relation"] == "below":
                below.append([row["label"], cell["budget"]])
    return {
        "all_match": not mismatched,
        "rows_checked": checked,
        "mismatched_rows": mismatched,
        "cells_exceeding_reference": exceeding,
        "cells_below_reference": below,
    }


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_json(structure: dict) -> str:
    payload = dict(structure)
    payload["reference_summary"] = reference_summary(structure)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_CSV_COLUMNS = ("table", "label", "family", "field_order", "genus",
                "convention", "budget", "x_sec", "t_priv", "rate",
                "rate_fraction", "feasible", "reference",
                "matches_reference", "reference_relation", "point_count",
                "gamma", "j_value", "witness")


def render_csv(structure: dict) -> str:
    """One line per cell; each column is read from the cell, else its row,
    else the table.  Missing keys and None are written empty, lists as
    space-separated items."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in structure["rows"]:
        for cell in row["cells"]:
            writer.writerow([_csv_field(key, cell, row, structure)
                             for key in _CSV_COLUMNS])
    return buf.getvalue()


def _csv_field(key: str, *scopes: dict):
    for scope in scopes:
        if key in scope:
            value = scope[key]
            if isinstance(value, list):
                return " ".join(map(str, value))
            return value
    return ""


def render_markdown(structure: dict) -> str:
    lines = [f"# rate catalog {structure['table']}"]
    for key in sorted(structure["config"]):
        lines.append(f"- {key}: {structure['config'][key]}")
    summary = reference_summary(structure)
    lines.append(f"- reference agreement: "
                 f"{'all rows match' if summary['all_match'] else 'MISMATCH'}")
    lines.append("")
    header = ["row"] + [f"T={b}" for b in structure["columns"]]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    footnotes = []
    for row in structure["rows"]:
        rendered = []
        for cell in row["cells"]:
            text = cell["rate"]
            if cell["matches_reference"] is False:
                text += "*"
                footnotes.append(
                    f"* {row['label']}, T={cell['budget']}: computed "
                    f"{cell['rate']} {cell['reference_relation']} reference "
                    f"{cell['reference']}")
            rendered.append(text)
        label = row["label"]
        if row["flags"]:
            label += f" [{', '.join(row['flags'])}]"
        lines.append("| " + " | ".join([label] + rendered) + " |")
    if footnotes:
        lines.append("")
        lines.extend(footnotes)
    return "\n".join(lines) + "\n"
