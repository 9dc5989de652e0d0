"""The hermipir benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload pir-local-q7 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, default seed

Workloads (see BENCHMARK.json for the reasons and perfbench/predictions.json
for which layer should move which metric):

* ``pir-local-q7``    q=7, x_sec=t_priv=1, 3 files: seeded ``run_pir_demo``
  trials, then ``certify_instance`` (twice per session) on the demo's own
  instance.
* ``pir-socket-q5``   q=5, x_sec=t_priv=1, 3 files: seeded
  ``run_demo_over_sockets`` trials with ``max(1, nproc - 1)`` workers, then
  ``certify_instance`` (four times per session).
* ``catalog-search``  Table 1 for field orders 17, 19, 23, 27 rendered to
  JSON, each regeneration preceded and followed by one of the order-17 row
  alone; the search cache is cleared before each.  Deterministic: the seed
  changes nothing.

Each operation starts only after the previous one finished.  Every session
is a fresh interpreter (``session.py``); pir runs use three sessions, whose
timed trial counts fill ``--seconds`` between them, each after one untimed
warm-up trial; catalog-search uses one session between four set-up-only
sessions (an import each).  Throughput and the tail latency are medians of
the sessions' own values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced session of identical, fixed work and prints the
per-layer metrics from the traced one, plus the tracing overhead (traced
minus untraced operation time).  Spans are written to
``.perfbench_out/spans-<workload>.json``, the run record to
``.perfbench_out/result-<workload>-seed<seed>-trace<trace>.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (the error rate is failed / attempted) and ``metrics``.  The exit
code is 1 when the correctness gate failed and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0           # a run must end within 180 s

WORKLOADS = {
    # trial_guess_s only sizes the first session and the traced run;
    # set-up-only sessions top the set-up samples up to setup_samples
    # warmup: untimed first trials of each session (lazy set-up, first frames);
    # certify_repeats: certify_instance calls after each session's demo
    "pir-local-q7": {"sessions": 3, "setup_samples": 3, "trial_guess_s": 0.85, "warmup": 1,
                     "certify_repeats": 2},
    "pir-socket-q5": {"sessions": 3, "setup_samples": 3, "trial_guess_s": 0.105, "warmup": 1,
                      "certify_repeats": 4},
    "catalog-search": {"sessions": 1, "setup_samples": 5, "warmup": 0},
}
SMOKE_ORDERS = (17,)
DEFAULT_SEED = 1


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def socket_workers() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


def quantile(values, p: float) -> float:
    """Linear-interpolated quantile of `values` at fraction `p`."""
    data = sorted(values)
    pos = p * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def timed(result: dict) -> list[float]:
    """A session's operation times after its warm-up trials."""
    return result["trial_s"][WORKLOADS[result["workload"]]["warmup"]:]


def tail_fraction(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, never
    below the median."""
    return max(0.5, 1.0 - 10.0 / n)


class Runner:
    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.deadline = time.perf_counter() + DEADLINE_S   # reset per workload

    def spawn(self, spec: dict) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        spec = {"seed": self.seed, "orders": list(SMOKE_ORDERS) if self.smoke else None, **spec}
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the next session")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "session.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"session {spec} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"session {spec} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "first_op_t" in result:
            result["setup_s"] = result["first_op_t"] - start
        return result

    def base_spec(self, workload: str, session: int) -> dict:
        spec = {"workload": workload, "session": session}
        if workload == "pir-socket-q5":
            spec["workers"] = socket_workers()
        if "certify_repeats" in WORKLOADS[workload]:
            spec["certify_repeats"] = 1 if self.smoke else WORKLOADS[workload]["certify_repeats"]
        return spec

    def measure(self, workload: str) -> tuple[list[dict], list[dict]]:
        """Time-filling sessions, with the set-up-only sessions split evenly
        before and after them."""
        cfg = WORKLOADS[workload]
        sessions = 1 if self.smoke else cfg["sessions"]
        extra = 0 if self.smoke else cfg["setup_samples"] - sessions

        def setup_only(k: int) -> dict:
            return self.spawn({**self.base_spec(workload, sessions + k), "setup_only": True})

        setups = [setup_only(k) for k in range(extra // 2)]
        results: list[dict] = []
        for k in range(sessions):
            spec = self.base_spec(workload, k)
            spec["checks"] = k == 0
            if workload == "catalog-search":
                spec["ops_seconds"] = self.seconds
            else:
                done = [t for r in results for t in timed(r)]
                per_trial = sum(done) / len(done) if done else cfg["trial_guess_s"]
                share = (self.seconds - sum(done)) / (sessions - k)
                spec["trials"] = max(2, round(share / per_trial)) + cfg["warmup"]
            results.append(self.spawn(spec))
        setups += [setup_only(k) for k in range(extra // 2, extra)]
        return results, setups

    def traced(self, workload: str) -> tuple[dict, dict]:
        """One untraced and one traced session of the same fixed work."""
        spec = self.base_spec(workload, 0)
        if workload == "catalog-search":
            spec["ops_seconds"] = 0.0
        else:
            cfg = WORKLOADS[workload]
            spec["trials"] = max(2, round(self.seconds / 2 / cfg["trial_guess_s"])) + cfg["warmup"]
        untraced = self.spawn({**spec, "checks": True})
        OUT_DIR.mkdir(exist_ok=True)
        traced = self.spawn({**spec, "trace": True, "spans_path": str(OUT_DIR / f"spans-{workload}.json")})
        return untraced, traced


def end_to_end(results: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and the sample count behind each."""
    op_ms = [t * 1000.0 for r in results for t in timed(r)]
    secondary = [t for r in results for t in r["secondary_s"]]
    setup = [r["setup_s"] for r in results + setups if "setup_s" in r]
    # the tail per session, at the highest percentile that has ten samples
    # beyond it in every session, and its median over the sessions: a shared
    # 2-vCPU host can run slower for seconds at a time, and one such spell
    # should not set a run's tail
    per_session = [[t * 1000.0 for t in timed(r)] for r in results]
    frac = tail_fraction(min(map(len, per_session)))
    values = {
        "setup_s": statistics.median(setup),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": statistics.median(quantile(ms, frac) for ms in per_session),
        "ops_per_s": statistics.median(len(timed(r)) / sum(timed(r)) for r in results),
        # the mean, i.e. secondary time per operation: these operations are
        # few, and where the host's speed flips every second or so the mean
        # integrates over the flips while a median of a few samples jumps
        "secondary_s": statistics.fmean(secondary),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    samples = {
        "setup_s": len(setup),
        "op_ms": len(op_ms),
        "op_ms.tail_percentile": round(100 * frac, 2),
        "op_ms.tail_session_samples": [len(ms) for ms in per_session],
        "ops_per_s_sessions": len(results),
        "secondary_s": len(secondary),
        "peak_rss_mb": len(results),
    }
    return values, samples


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    values = dict(traced["trace"]["layers"])
    values["cli.import_s"] = statistics.median([untraced["import_s"], traced["import_s"]])
    base = statistics.median(timed(untraced)) * 1000.0
    traced_ms = statistics.median(timed(traced)) * 1000.0
    values["trace.untraced_op_ms.p50"] = base
    values["trace.op_ms.p50"] = traced_ms
    values["trace.overhead_ms"] = traced_ms - base
    values["trace.overhead_share"] = (traced_ms - base) / base
    values["trace.spans"] = traced["trace"]["spans"]
    # time of each traced trial outside the scheme stages (sampling, checks)
    stages = traced["trace"]["stage_s_by_op"]
    skip = WORKLOADS[traced["workload"]]["warmup"]
    gaps = [(t - stages[str(i)]) * 1000.0 for i, t in enumerate(traced["trial_s"]) if i >= skip and str(i) in stages]
    values["trace.stage_gap_ms"] = statistics.median(gaps) if gaps else 0.0
    samples = {"op_ms": len(timed(traced)), "untraced_op_ms": len(timed(untraced))}
    return values, samples


def environment(results: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hermipir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = next((r["env"] for r in results if "env" in r), {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **env,
    }


def gate(sessions: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the sessions of one run.  A failed
    operation is a wrong fragment, a digest mismatch or an exception."""
    attempted = sum(r["attempted"] for r in sessions)
    failed = sum(r["failed"] for r in sessions)
    return failed == 0 and attempted > 0, attempted, failed


def run_workload(runner: Runner, workload: str, trace: bool, spec: dict) -> dict:
    runner.deadline = time.perf_counter() + DEADLINE_S
    if trace:
        untraced, traced = runner.traced(workload)
        sessions = [untraced, traced]
        values, samples = per_layer(untraced, traced)
        names = spec["per_layer"]
    else:
        results, setups = runner.measure(workload)
        sessions = results + setups
        values, samples = end_to_end(results, setups)
        names = spec["end_to_end"]
    correct, attempted, failed = gate(sessions)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    record = {
        "workload": workload,
        "seed": runner.seed,
        "seed_used": workload != "catalog-search",
        "seconds": runner.seconds,
        "trace": int(trace),
        "smoke": runner.smoke,
        **environment(sessions),
        "socket_workers": socket_workers() if workload == "pir-socket-q5" else None,
        "samples": samples,
        "error_rate": failed / attempted if attempted else None,
        "failures": [f for r in sessions for f in r["failures"]],
        "notes": sorted({n for r in sessions for n in r["notes"]}),
        "values": values,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{runner.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"== {workload} (seed {runner.seed}, trace {int(trace)})")
    for m in names:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if trace and values["trace.op_ms.p50"]:
        print(f"accounting: a traced operation spends {values['trace.stage_gap_ms']:.3f} ms outside the "
              f"scheme stages; tracing overhead {values['trace.overhead_ms']:.3f} ms")
    print(f"error_rate = {failed}/{attempted} failed/attempted")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "values"}, sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short session per workload, catalog order 17 only")
    args = parser.parse_args(argv)
    if not (SRC / "hermipir" / "__init__.py").is_file():
        print(f"error: no hermipir sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runner = Runner(args.seed, seconds, args.smoke)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = {w: run_workload(runner, w, bool(args.trace), spec) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(outcomes) == 1:
        final = next(iter(outcomes.values()))
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}/{name}": m for w, o in outcomes.items() for name, m in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
