"""Byte-level goldens: CLI stdout and instance manifests pinned by sha256.

The digests were recorded before the row-selection and column-space code
moved onto `rref`, and the q = 7 demo's before decoding became a
precomputed linear map; a refactor of the linear algebra must leave them as
they are.  The catalog and point-count digests were recorded before the
curve search moved from per-model Horner evaluation to value histograms;
catalog 1 pins every searched cell and its first witness.  The three
catalog-1 formats share the process-wide search cache, so only the first
one searches.  The md `certify`, the characteristic-2 `certify --q 8` and
the `verify --suite noise` digests were recorded before the sampled
noise-containment check gave way to an exact valuation certificate; the md
report prints the containment line and would print any fallback note.
The other five `verify` suites and `count-points --curve hermitian --q 16`
(md and json) were recorded before the library API that only tests called
was deleted, certify's two rank computations became one elimination and
the Hermitian point count stopped listing the points it counts.
`count-points --curve hermitian --q 256` was recorded before the curve
built its fibers from one array trace pass instead of a field tower.
`certify --q 9` and the q = 9 manifest were recorded before `rref` moved
from one digit-wise update per pivot to blocked panels with a field matmul
per panel.  The q = 7 socket demo was recorded before the transport turned
off Nagle's algorithm on its TCP connections.  `certify` at
x_sec = t_priv = 2 (q = 5 in md and json, q = 7 in json) was recorded
while certify still built and checked each of the L storage codes on its
own, testing w = 2 one column pair at a time.  The forced-exhaustive
catalog 1 at GF(23) and the md `verify --suite privacy` and `noise` were
recorded before the catalog's search-mode dispatch became one boolean and
those suites read their code verdicts from a certify report.  `certify --q
11` (json) was recorded before the field ops on orders up to 256 moved from
digit-wise arithmetic to lookup tables.  The md `verify --suite security`
was recorded while the chi-square threshold of the privacy and security
suites still came from scipy.  The md `pir-demo --q 5 --trials 5` (local
and socket), md `certify --q 7` and md `verify --suite fields`, `bases`
and `codes` were recorded before the CLI's commands shared one output
path, one instance header and one certified build.  The manifests pin the
selected server points.  q = 4 is absent: at x_sec = t_priv = 1 no fiber
count satisfies its point supply.
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
    ("certify", "--q", "9", "--format", "json"):
        "e9cff01561a9b02dd86c83cbc0e328190440cd7df672deea8a73374c471a1b39",
    ("certify", "--q", "11", "--format", "json"):
        "ccad48a0149217a403dcdf867022436a50412223c45581046a3cf32af7383238",
    ("certify", "--q", "5"):
        "209b6d70d3ecd59def7597f0b4ba460a29bb30a89f6bcdd5644f4fe45c5328d6",
    ("certify", "--q", "8", "--format", "json"):
        "dc2c943d2a213d9622f9fecd53c57a825922dd214b5cb9b526c2692b04526760",
    ("certify", "--q", "5", "--x", "2", "--t", "2"):
        "ec9e150881dbacdf47577cd4ad3a307fabe4937cd4749ad0abb99760ad2083fe",
    ("certify", "--q", "5", "--x", "2", "--t", "2", "--format", "json"):
        "7e4c5efefbfd672601959e1d0ff699a49601a05a1198bcd63675db7543eeaf9c",
    ("certify", "--q", "7", "--x", "2", "--t", "2", "--format", "json"):
        "64a7aebbdd772d40615ea868a2339631d898d461595942cd384e69e1c91893ca",
    ("verify", "--suite", "noise", "--format", "json"):
        "e122848dd8cfb5daaa1750b707363926e7f8a5e13b96dcc909a1a0e4613d8d7c",
    ("verify", "--suite", "noise"):
        "a41a3cfaafbb4031c3ff8b7ef0abc6ebcea7af70617b96956eba5f07852a7518",
    ("verify", "--suite", "fields", "--format", "json"):
        "67caf27c2c5a4fc403a5ebd5849b036e9118ae4d3925f40f55d1922a6abb6c06",
    ("verify", "--suite", "bases", "--format", "json"):
        "d5ef91b52499d9f98e92fae9f74f0fc4be11b73236de0cf6f51f1211c22322fb",
    ("verify", "--suite", "privacy", "--format", "json"):
        "4a02a40f4efe6d4b9f14e9175757fa1e0a38af7165be8c2c24239e6e9a1265ea",
    ("verify", "--suite", "privacy"):
        "0c7afc438e369b8a4905e8afc1ef6be6b3b26b5e451bedfdc66a4531e4653ce6",
    ("verify", "--suite", "security"):
        "8bfb8f4db101c9c6bcea51c86776d65c47ff2f3bdf856b35f83e7dd8a54170b6",
    ("verify", "--suite", "security", "--format", "json"):
        "0c058ad1ff5a50f0fc1f9cdd9797346b47c556ce2b2647b58b4ce7a915dc8501",
    ("verify", "--suite", "codes", "--format", "json"):
        "499955298edf7bdbee11d04d082135ceec78d6860844cc0093a0f0249e541642",
    ("verify", "--suite", "fields"):
        "28ff6feeb698f9375c8c7898f72f992b442787771ea1c1829a06df3a608415a5",
    ("verify", "--suite", "bases"):
        "3a075a78a90a74065e2217620e1b94e66dd27cc532109f8fa31c7c63640e2e81",
    ("verify", "--suite", "codes"):
        "b95f3cb3996e3fdf38d21d298f52d7847ef00b124a58cf485487b062a09bf312",
    ("certify", "--q", "7"):
        "0958297c6e2ab966babaf675dc7feefdd24e46c12b8ca4d9661dbca79faa8852",
    ("pir-demo", "--q", "5", "--trials", "5"):
        "5be4f9f11400caba769b5d0c6c1e28c804de9139a0d9bb204ec0dba73106d095",
    ("pir-demo", "--q", "5", "--trials", "5", "--transport", "socket"):
        "2e621d793de4679ef254bacb020b2e4fe13fd80a4beca3c80be8b2619f5164a6",
    ("pir-demo", "--q", "5", "--trials", "5", "--format", "json"):
        "db6f4df96cce87cb105df5cc6b6cd3328b2a7cc17f92c59744471cc44f7d2046",
    ("pir-demo", "--q", "7", "--trials", "3", "--format", "json"):
        "1b9ee13475332f71c506e46d3caf74b59b0af95bf0c848dd5b156671edc71846",
    ("pir-demo", "--q", "5", "--trials", "5", "--format", "json",
     "--transport", "socket"):
        "1f011f147231b47728d0a69aa4acd810f5ea5280b8682f2a9ed41e8c38c8dbbe",
    ("pir-demo", "--q", "7", "--trials", "3", "--format", "json",
     "--transport", "socket"):
        "fdea109349ca37c4080becf10fba2e7037c576de8c9de3c903bc96e32ef3daf6",
    ("tables", "--which", "1", "--format", "md"):
        "22aa8fdc73d8a768938b04e2cded92db5e6ab9be8abd021ad7e19a6d73a07c1d",
    ("tables", "--which", "1", "--format", "csv"):
        "4e8f577d59a3857c98b909d0ac7650d4fad60ef7f65110463f025cdf4e524e85",
    ("tables", "--which", "1", "--format", "json"):
        "6a303596fe48a7ac89905ff395b99c88e2324d49d1387ed70705df6a7499f160",
    ("tables", "--which", "1", "--full-search", "--fields", "23",
     "--format", "json"):
        "9d9ebbe6162c9fd45dd6edefbfbd6e7f7134d9a5c017aee40032f704badeec48",
    ("tables", "--which", "2", "--format", "md"):
        "df501ff391fd6132150e280a8a81fe8e3b552d71decdd57da8669ec6f40fdbeb",
    ("tables", "--which", "2", "--format", "csv"):
        "1672641041e53b213f916d5c13488f4e478be0875c3374656af1fd8ebd918191",
    ("tables", "--which", "2", "--format", "json"):
        "8dacb73709992800182f99134d8a8fc40fe9ba873589e41d5814d4fa0d71acfa",
    ("tables", "--which", "3", "--format", "md"):
        "508e52cd6e13d2a518597e52cb137b003e3f93a1902a5f57faa6b7ae7d3bac74",
    ("tables", "--which", "3", "--format", "csv"):
        "76f47173fff557aacd9b42f10cbbeb604d7e524a357a438a8ade169cbe8b42a7",
    ("tables", "--which", "3", "--format", "json"):
        "c5237b8e7b9e7bde444486658f27272aaec2d90b3a5da2a924e9fe1b2a60411d",
    ("count-points", "--curve", "hermitian", "--q", "5"):
        "9ebbdb0c3dbbad1cf5e2aaad4464684ec52c66e5d27ae61217218f60d95759ed",
    ("count-points", "--curve", "hermitian", "--q", "16"):
        "e2e131e912e3990fbffbfd138c90638a355975cc5bce50ac190649da72b3a67d",
    ("count-points", "--curve", "hermitian", "--q", "16", "--format", "json"):
        "c7977653090afd146dfdfbebb96d5e74af6d5e4729838be422d6913699d30a07",
    ("count-points", "--curve", "hermitian", "--q", "256"):
        "0a98f50d1ca0e7bae45d70418b46dfae8405bac785b811da3c1c0c3835a124e2",
    ("count-points", "--curve", "hyperelliptic",
     "--q", "841", "--coeffs", "1,0,0,0,0"):
        "21bbfe971c4e7571695003ae963a7376e3e75053caf0447259189b9bdba358fd",
    ("count-points", "--curve", "hyperelliptic",
     "--q", "841", "--coeffs", "1,0,0,0,0", "--format", "json"):
        "7cd55b384edd021f4e2d97af3d7f43aa798cbc8b6497e1e5280865bf2b6052bb",
}

MANIFEST_GOLDENS = {
    5: "e6b2275ee31f3f061d8d3e62e9c3a1c12984b74681d4a1ba9c0cc8e62533db88",
    7: "fb11d8dd06db98004e7fbe5bc23c5c345bd7eb148d5c327f22914ef533c037b2",
    9: "4f6d1c4e3df97d3eefb8dd89596f2897d7ab4ef900962fbaf188f3b63364f595",
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

