"""Regenerate perfbench/digests.json, the gate's recorded outputs.

    PYTHONPATH=src python3 perfbench/record_digests.py

Records, for each workload seed in SEEDS and the held-out seed, the sha256
of the first DIGEST_PREFIX transcript entries of session 0's demo (the
socket demo must match the in-process one, so both pir workloads are
recorded from ``run_pir_demo``); and, for each catalog field-order set the
benchmark uses, the sha256 of ``render_json`` and every cell's relation to
REFERENCE_TABLE1.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hermipir import tables
from hermipir.scheme import run_pir_demo
from session import (CATALOG_ORDERS, DIGEST_PREFIX, NUM_FILES, PIR_PARAMS, SECONDARY_ORDERS, T_PRIV,
                     X_SEC, catalog_relations, demo_seed, transcript_digest)

SEEDS = range(64)
HELD_OUT_SEED = 9973


def main() -> None:
    transcripts = {}
    for workload, q in PIR_PARAMS.items():
        transcripts[workload] = {}
        for seed in [*SEEDS, HELD_OUT_SEED]:
            demo = run_pir_demo(q, X_SEC, T_PRIV, NUM_FILES, demo_seed(seed, 0), trials=DIGEST_PREFIX)
            transcripts[workload][str(seed)] = transcript_digest(demo["results"])
            print(workload, seed, flush=True)
    catalogs = {}
    for orders in (CATALOG_ORDERS, SECONDARY_ORDERS):
        structure = tables.build_table1(field_orders=orders)
        catalogs[",".join(map(str, orders))] = {
            "sha256": hashlib.sha256(tables.render_json(structure).encode()).hexdigest(),
            "relations": catalog_relations(structure),
        }
    out = {"held_out_seed": HELD_OUT_SEED, "digest_prefix": DIGEST_PREFIX,
           "transcripts": transcripts, "catalogs": catalogs}
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
