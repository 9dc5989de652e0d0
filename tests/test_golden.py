"""Byte-level goldens: CLI stdout and instance manifests pinned by sha256.

The digests were recorded before the row-selection and column-space code
moved onto `rref`, and the q = 7 demo's before decoding became a
precomputed linear map; a refactor of the linear algebra must leave them as
they are.  The manifests pin the selected server points.  q = 4 is absent: at
x_sec = t_priv = 1 no fiber count satisfies its point supply.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from hermipir.cli import main
from hermipir.scheme import build_instance, validate_params

CLI_GOLDENS = {
    ("certify", "--q", "5", "--format", "json"):
        "30de6fe66e7f43d1b735a2e37dc29bd00466afd7cd3aa50152570b7168bf3564",
    ("certify", "--q", "7", "--format", "json"):
        "8baacdd774b2d3cae9a30649d0c2c9e1ae40a4e90be27b4f85a3a9a055f7b562",
    ("pir-demo", "--q", "5", "--trials", "5", "--format", "json"):
        "db6f4df96cce87cb105df5cc6b6cd3328b2a7cc17f92c59744471cc44f7d2046",
    ("pir-demo", "--q", "7", "--trials", "3", "--format", "json"):
        "1b9ee13475332f71c506e46d3caf74b59b0af95bf0c848dd5b156671edc71846",
    ("pir-demo", "--q", "5", "--trials", "5", "--format", "json",
     "--transport", "socket"):
        "1f011f147231b47728d0a69aa4acd810f5ea5280b8682f2a9ed41e8c38c8dbbe",
}

MANIFEST_GOLDENS = {
    5: "e6b2275ee31f3f061d8d3e62e9c3a1c12984b74681d4a1ba9c0cc8e62533db88",
    7: "fb11d8dd06db98004e7fbe5bc23c5c345bd7eb148d5c327f22914ef533c037b2",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_GOLDENS), ids=" ".join)
def test_cli_stdout_golden(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == CLI_GOLDENS[argv]


@pytest.mark.parametrize("q", list(MANIFEST_GOLDENS))
def test_manifest_golden(q):
    manifest = build_instance(validate_params(q, 1, 1, num_files=3)).manifest()
    assert _sha256(json.dumps(manifest, sort_keys=True)) == MANIFEST_GOLDENS[q]

