"""One benchmark session: a fresh interpreter that sets up, runs one
workload's operations and checks their outputs.

``run.py`` starts each session as ``python3 perfbench/session.py '<spec>'``
with ``src`` on ``PYTHONPATH`` and reads the JSON object the session prints
as its last line.  The session's set-up time runs from the moment the
parent spawned it to the start of its first operation, so it covers the
interpreter start, ``import hermipir.cli``, the instance build and, over
sockets, the worker pool.

Operations go through the public entry points users call: ``run_pir_demo``,
``run_demo_over_sockets``, ``certify_instance`` and
``tables.build_table1``/``render_json``.  The demo calls are not modified;
thin hooks on ``SchemeInstance`` record the trial boundaries (the start of
each ``encode_storage``, and the end of the last ``reconstruct``, so that no
trial includes the demo's teardown) and the gate's inputs (the files, the
desired index and the decoded fragments).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import Patches, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
PIR_PARAMS = {"pir-local-q7": 7, "pir-socket-q5": 5}
X_SEC = T_PRIV = 1
NUM_FILES = 3
CATALOG_ORDERS = (17, 19, 23, 27)
SECONDARY_ORDERS = (17,)   # catalog-search's secondary operation: Table 1 for these alone
DIGEST_PREFIX = 2          # transcript trials covered by the recorded digests


class SetupReached(Exception):
    """Raised at the first operation of a set-up-only session."""


def demo_seed(seed: int, session: int) -> int:
    """The demo seed of one session; session 0 uses the recorded digests."""
    return seed * 16 + session


def transcript_digest(results) -> str:
    """sha256 of the (desired, fragment_checksum) pairs of a transcript."""
    pairs = [[r["desired"], r["fragment_checksum"]] for r in results]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def catalog_relations(structure: dict) -> dict:
    return {row["label"]: [c["reference_relation"] for c in row["cells"]] for row in structure["rows"]}


class Probe:
    """Hooks on the scheme's public methods that observe, never alter, a demo."""

    def __init__(self, tracer: Tracer | None = None, setup_only: bool = False):
        self.clock = time.perf_counter
        self.tracer = tracer
        self.setup_only = setup_only   # stop at the first operation
        self.instance = None
        self.build_end: float | None = None
        self.boundaries: list[float] = []
        self.files: list = []
        self.desired: list[int] = []
        self.decoded: list = []
        self.decode_end: float | None = None
        self._patches = Patches()

    def install(self) -> None:
        from hermipir import scheme, transport

        probe = self
        cls = scheme.SchemeInstance
        encode, query, decode = cls.encode_storage, cls.make_queries, cls.reconstruct
        build = scheme.build_instance

        def build_instance(*args, **kwargs):
            instance = build(*args, **kwargs)
            probe.instance = instance
            probe.build_end = probe.clock()
            return instance

        def encode_storage(instance, files, *args, **kwargs):
            probe.boundaries.append(probe.clock())
            if probe.setup_only:
                raise SetupReached
            probe.files.append(files.copy())
            if probe.tracer is not None:
                probe.tracer.op = len(probe.boundaries) - 1
            return encode(instance, files, *args, **kwargs)

        def make_queries(instance, desired_index, *args, **kwargs):
            probe.desired.append(int(desired_index))
            return query(instance, desired_index, *args, **kwargs)

        def reconstruct(instance, answers):
            got = decode(instance, answers)
            probe.decode_end = probe.clock()
            probe.decoded.append(got.copy())
            return got

        for owner, attr, value in (
            (cls, "encode_storage", encode_storage),
            (cls, "make_queries", make_queries),
            (cls, "reconstruct", reconstruct),
            (scheme, "build_instance", build_instance),
            (transport, "build_instance", build_instance),
        ):
            self._patches.set(owner, attr, value)

    def uninstall(self) -> None:
        self._patches.undo()

    def verified_trials(self, results) -> int:
        """Trials whose decoded fragments equal the requested file and whose
        transcript entry (desired index, checksum, ok flag) agrees."""
        good = 0
        for t, entry in enumerate(results):
            if t >= len(self.decoded) or t >= len(self.desired):
                break
            want = self.files[t][self.desired[t]]
            got = self.decoded[t]
            if (
                got.shape == want.shape
                and (got == want).all()
                and entry["desired"] == self.desired[t]
                and entry["ok"]
                and entry["fragment_checksum"] == _checksum(want, self.instance)
            ):
                good += 1
        return good


def _checksum(values, instance) -> int:
    """The field sum of `values`, computed digit-wise without hermipir."""
    p, out = instance.field.p, 0
    for k in range(instance.field.n):
        out += int(((values // p**k) % p).sum() % p) * p**k
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _library_versions() -> dict:
    """numpy and scipy versions and the BLAS thread count (OpenBLAS only)."""
    import ctypes
    from importlib import metadata

    import numpy as np

    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "scipy": metadata.version("scipy"), "blas_threads": threads}


def _search_wrapper(atlas, tracer):
    """Stand-in for ``atlas.achievable_profiles`` that keeps its cache and
    records lookups, hits, models enumerated and distinct profiles."""
    cached = atlas.achievable_profiles
    counts = tracer.counts

    def achievable_profiles(field_order, genus, reduced=False):
        hits = cached.cache_info().hits
        start = time.perf_counter()
        result = cached(field_order, genus, reduced)
        seconds = time.perf_counter() - start
        counts["atlas.search.lookups"] += 1
        if cached.cache_info().hits > hits:
            counts["atlas.search.hits"] += 1
        else:
            models = field_order ** (2 * genus if reduced else 2 * genus + 1)
            counts["atlas.search.models"] += models
            counts["atlas.search.distinct_profiles"] += len(result)
            counts[f"atlas.search.models.{field_order}g{genus}"] += models
            counts[f"atlas.search.seconds.{field_order}g{genus}"] += seconds
        return result

    return achievable_profiles


def run_session(spec: dict, import_s: float = 0.0) -> dict:
    """Run one session in this interpreter and return its raw result.

    `spec` keys: workload, seed, session, trials and certify_repeats (pir),
    ops_seconds (catalog), trace, spans_path, setup_only, checks, orders
    (catalog override), workers (socket).
    """
    from hermipir import atlas, scheme, tables, transport

    workload = spec["workload"]
    out = {"workload": workload, "session": spec["session"], "import_s": import_s,
           "attempted": 0, "failed": 0, "failures": [], "notes": []}
    clear_search_cache = atlas.achievable_profiles.cache_clear
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(_search_wrapper(atlas, tracer))
    try:
        if workload in PIR_PARAMS:
            _run_pir(spec, out, tracer, scheme, transport)
        else:
            _run_catalog(spec, out, tracer, tables, clear_search_cache)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = _peak_rss_mb()
    out["env"] = _library_versions()
    if tracer is not None:
        summary = tracer.summary()
        out["trace"] = {
            "layers": layer_metrics(summary, tracer.counts, out),
            "spans": len(tracer.finished_spans()),
            "stage_s_by_op": summary["stage_s_by_op"],
        }
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    return out


def _fail(out: dict, message: str, count: int = 1) -> None:
    out["failed"] += count
    out["failures"].append(message)


def _run_pir(spec, out, tracer, scheme, transport) -> None:
    workload, q = spec["workload"], PIR_PARAMS[spec["workload"]]
    seed = demo_seed(spec["seed"], spec["session"])
    trials = spec.get("trials", 1)
    probe = Probe(tracer, bool(spec.get("setup_only")))
    probe.install()
    transcript = None
    error = None
    try:
        if workload == "pir-socket-q5":
            out["workers"] = spec["workers"]
            transcript = transport.run_demo_over_sockets(
                q, X_SEC, T_PRIV, NUM_FILES, seed, trials=trials, workers=spec["workers"])
        else:
            transcript = scheme.run_pir_demo(q, X_SEC, T_PRIV, NUM_FILES, seed, trials=trials)
    except SetupReached:
        pass
    except Exception as exc:  # any failure of the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = probe.clock()
        probe.uninstall()
    if probe.boundaries:
        out["first_op_t"] = probe.boundaries[0]
        if probe.build_end is not None:
            out["pool_start_s"] = probe.boundaries[0] - probe.build_end
    if probe.setup_only:
        if not probe.boundaries:
            _fail(out, f"set-up did not reach the first operation: {error}")
            out["attempted"] += 1
        return
    last = probe.decode_end if probe.decode_end is not None else end
    marks = probe.boundaries + [max(last, probe.boundaries[-1])] if probe.boundaries else []
    out["trial_s"] = [b - a for a, b in zip(marks, marks[1:])]
    out["attempted"] += trials
    results = transcript["results"] if transcript else []
    good = probe.verified_trials(results)
    if error or good < trials:
        _fail(out, f"{trials - good} of {trials} trials failed" + (f" ({error})" if error else ""), trials - good)
    if spec.get("checks") and transcript:
        _check_transcript(spec, out, seed, transcript, scheme)
    if probe.instance is None or error is not None:
        return
    if tracer is not None:
        tracer.op = -2
    out["secondary_s"] = []
    for _ in range(spec.get("certify_repeats", 1)):
        start = time.perf_counter()
        try:
            report = scheme.certify_instance(probe.instance)
            ok = report.all_ok
        except Exception as exc:  # a crashing certification is a failed operation
            ok, report = False, exc
        out["secondary_s"].append(time.perf_counter() - start)
        out["attempted"] += 1
        if not ok:
            _fail(out, f"certify_instance failed: {report}")


def _check_transcript(spec, out, seed, transcript, scheme) -> None:
    """Recorded digest of the transcript prefix and, over sockets, equality
    with the in-process demo on the same prefix."""
    workload = spec["workload"]
    prefix = transcript["results"][:DIGEST_PREFIX]
    recorded = load_digests()["transcripts"][workload].get(str(spec["seed"]))
    if spec["session"] == 0 and len(prefix) == DIGEST_PREFIX:
        if recorded is None:
            out["notes"].append(f"no digest recorded for seed {spec['seed']}")
        else:
            out["attempted"] += 1
            if transcript_digest(prefix) != recorded:
                _fail(out, "transcript digest differs from the recorded one")
    if workload == "pir-socket-q5":
        local = scheme.run_pir_demo(PIR_PARAMS[workload], X_SEC, T_PRIV, NUM_FILES, seed, trials=len(prefix))
        out["attempted"] += 1
        if local["results"] != prefix:
            _fail(out, "socket transcript differs from run_pir_demo's")


def _run_catalog(spec, out, tracer, tables, clear_search_cache) -> None:
    """Table 1 regenerations until `ops_seconds` have passed (at least one).
    The secondary operation, Table 1 for SECONDARY_ORDERS alone (a smaller
    search working set), runs before the first and after each, so its
    samples span the session.  The search cache is cleared before each."""
    orders = tuple(spec.get("orders") or CATALOG_ORDERS)
    digests = load_digests()["catalogs"]
    out["first_op_t"] = time.perf_counter()
    if spec.get("setup_only"):
        return
    times, secondary = [], []

    def regenerate(field_orders, samples: list, op: int) -> bool:
        """One timed regeneration plus render, checked against the record;
        False when it raised."""
        if tracer is not None:
            tracer.op = op
        clear_search_cache()
        start = time.perf_counter()
        try:
            text = tables.render_json(tables.build_table1(field_orders=field_orders))
        except Exception as exc:  # a crashing regeneration is a failed operation
            text, error = None, f"{type(exc).__name__}: {exc}"
        samples.append(time.perf_counter() - start)
        out["attempted"] += 1
        if text is None:
            _fail(out, f"catalog regeneration for orders {field_orders} raised {error}")
            return False
        expected = digests[",".join(map(str, field_orders))]
        sha = hashlib.sha256(text.encode()).hexdigest()
        if sha != expected["sha256"] or catalog_relations(json.loads(text)) != expected["relations"]:
            _fail(out, f"catalog JSON or reference relations for orders {field_orders} differ from the record")
        return True

    regenerate(SECONDARY_ORDERS, secondary, -2)
    deadline = out["first_op_t"] + spec.get("ops_seconds", 0.0)
    while not times or time.perf_counter() < deadline:
        if not regenerate(orders, times, len(times)):
            break
        regenerate(SECONDARY_ORDERS, secondary, -2)
    out["trial_s"] = times
    out["secondary_s"] = secondary


def main() -> int:
    start = time.perf_counter()
    import hermipir.cli  # noqa: F401  -- what every CLI command pays

    import_s = time.perf_counter() - start
    spec = json.loads(sys.argv[1])
    result = run_session(spec, import_s)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
