"""Command-line front end: rate catalogs, point counting, retrieval demos,
instance certification, and module verification suites.

Every run echoes its fully resolved configuration -- seeds included -- as a
single ``config: {...}`` line on stderr, keeping stdout a clean payload in
the requested format (markdown, CSV for catalogs, or JSON).  All randomness
flows from seed flags with fixed defaults, so identical invocations are
byte-identical.  Exit status is 0 when the command and every check it
performs succeed, 1 when a retrieval trial, certification, or verification
check fails, and 2 for malformed flags or infeasible parameters (the
violated constraint is named on stderr).

Every command but ``tables`` ends in one output path, ``_finish``, which
prints the JSON payload or the markdown lines and returns the exit status.

The ``--full-search`` flag switches the curve-search catalog to exhaustive
enumeration for every field order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from hermipir import tables
from hermipir.atlas import count_points_hyperelliptic, format_rate
from hermipir.codes import (
    dual_min_distance_bruteforce,
    generator_matrix,
    goppa_designed_distance,
    min_distance_bruteforce,
)
from hermipir.curve import (
    curve_for_q,
    info_basis,
    interpolation_basis,
    interpolation_labels,
    one_point_basis,
)
from hermipir.fields import field_of_order
from hermipir.linalg import rank
from hermipir.scheme import (
    InfeasibleParams,
    build_instance,
    certify_instance,
    chi_square_uniform_stat,
    run_pir_demo,
    validate_params,
)

MARGINAL_TRIALS = 10_000
UNIFORMITY_LEVEL = 0.999
BASIS_PAIRS = ((3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5), (5, 7))


def _echo_config(config: dict) -> None:
    print("config: " + json.dumps(config, sort_keys=True), file=sys.stderr)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _finish(fmt: str, payload: dict, lines: list[str], ok: bool) -> int:
    """Print `payload` as JSON or `lines` as markdown; exit status 0 when
    `ok`, else 1."""
    _emit(json.dumps(payload, indent=2, sort_keys=True) if fmt == "json" else "\n".join(lines))
    return 0 if ok else 1


def _instance_config(args: argparse.Namespace) -> dict:
    """The config entries of the command and its shared instance flags."""
    return {"command": args.subcommand, "format": args.format, "q": args.q,
            "x_sec": args.x, "t_priv": args.t, "fiber_count": args.fibers}


def _instance_lines(params: dict, suffix: str) -> list[str]:
    """The md ``instance:`` line, ending in `suffix`, and ``rate:`` line."""
    frag, servers = params["frag_count"], params["server_count"]
    return [
        f"instance: q={params['q']} x_sec={params['x_sec']} t_priv={params['t_priv']} "
        f"m={params['fiber_count']} L={frag} N={servers}{suffix}",
        f"rate: {frag}/{servers} = {format_rate(Fraction(frag, servers))}",
    ]


def _certified(q: int, x_sec: int, t_priv: int, fiber_count: int | None, num_files: int):
    """The built instance, its certify report, and each check's verdict by
    check name."""
    params = validate_params(q, x_sec, t_priv, fiber_count=fiber_count, num_files=num_files)
    instance = build_instance(params)
    report = certify_instance(instance)
    return instance, report, {check["check"]: bool(check["ok"]) for check in report.checks()}


def _int_list(text: str) -> list[int]:
    # an empty item is an error, not a skipped one: "1,,0,0" must not
    # silently become a three-coefficient model
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _flag_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_RENDERERS = {"md": tables.render_markdown, "csv": tables.render_csv, "json": tables.render_json}


def cmd_tables(args: argparse.Namespace) -> int:
    if args.which != 1 and (args.fields is not None or args.full_search):
        return _flag_error("--fields and --full-search only apply to --which 1")
    if args.fields is not None and len(set(args.fields)) < len(args.fields):
        # catalog rows are keyed by (order, genus): a repeated order would
        # print each of its rows twice
        return _flag_error(f"--fields repeats a field order: {args.fields}")
    if args.which == 1:
        structure = tables.build_table1(field_orders=args.fields,
                                        full_search=args.full_search)
    elif args.which == 2:
        structure = tables.build_table2()
    else:
        structure = tables.build_table3()
    _echo_config({
        "command": "tables",
        "which": args.which,
        "format": args.format,
        **structure["config"],
    })
    _emit(_RENDERERS[args.format](structure))
    return 0


# ---------------------------------------------------------------------------
# count-points
# ---------------------------------------------------------------------------

def cmd_count_points(args: argparse.Namespace) -> int:
    if args.curve == "hermitian" and args.coeffs is not None:
        return _flag_error("--coeffs applies only to --curve hyperelliptic")
    if args.curve == "hyperelliptic" and args.coeffs is None:
        return _flag_error("--curve hyperelliptic requires --coeffs a0,a1,...")
    config = {"command": "count-points", "format": args.format,
              "curve": args.curve, "q": args.q}
    if args.curve == "hermitian":
        c = curve_for_q(args.q)
        # the fiber over x depends only on its norm x^(q+1): count the x of
        # each norm in one pass, then look up one fiber per norm
        norms = c.field.pow_arr(np.arange(c.field.order), args.q + 1)
        _, first, counts = np.unique(norms, return_index=True, return_counts=True)
        affine = sum(int(n) * len(c.fiber_of_x(int(x))) for x, n in zip(first, counts))
        payload = {
            "curve": "hermitian",
            "q": args.q,
            "field_order": args.q ** 2,
            "genus": c.genus,
            "affine_count": affine,
            "point_count": affine + 1,
        }
        lines = [
            f"curve: hermitian, q={args.q}, over GF({args.q ** 2}) (genus {c.genus})",
            f"point count: {affine + 1} ({affine} affine + 1 at infinity)",
        ]
    else:
        coeffs = tuple(args.coeffs)
        config["coeffs"] = list(coeffs)
        degree = len(coeffs)
        count, gamma = count_points_hyperelliptic(args.q, coeffs)
        genus = (degree - 1) // 2
        lower = " + ".join(
            str(c) if k == 0 else f"{c}*x" if k == 1 else f"{c}*x^{k}"
            for k, c in enumerate(coeffs) if c
        ) or "0"
        model = f"y^2 = x^{degree} + {lower}"
        payload = {
            "curve": "hyperelliptic",
            "q": args.q,
            "field_order": args.q,
            "genus": genus,
            "model": model,
            "coeffs": list(coeffs),
            "point_count": count,
            "gamma": gamma,
        }
        lines = [
            f"curve: {model} over GF({args.q}) (genus {genus})",
            f"point count: {count} (including 1 at infinity)",
            f"gamma (points with y = 0): {gamma}",
        ]
    _echo_config(config)
    return _finish(args.format, {"config": config, **payload}, lines, True)


# ---------------------------------------------------------------------------
# pir-demo
# ---------------------------------------------------------------------------

def cmd_pir_demo(args: argparse.Namespace) -> int:
    _echo_config({**_instance_config(args), "num_files": args.files, "seed": args.seed,
                  "trials": args.trials, "transport": args.transport})
    if args.transport == "socket":
        from hermipir.transport import run_demo_over_sockets

        transcript = run_demo_over_sockets(
            args.q, args.x, args.t, args.files, args.seed,
            trials=args.trials, fiber_count=args.fibers,
        )
    else:
        transcript = run_pir_demo(
            args.q, args.x, args.t, args.files, args.seed,
            trials=args.trials, fiber_count=args.fibers,
        )
    transcript["transport"] = args.transport
    params = transcript["params"]
    instance, rate = _instance_lines(params, f" files={params['num_files']}")
    lines = [
        instance,
        f"transport: {args.transport}   seed: {args.seed}",
        *(f"trial {r['trial']:3d}: requested file {r['desired']} -> {'ok' if r['ok'] else 'FAIL'}"
          for r in transcript["results"]),
        f"retrievals: {transcript['successes']}/{transcript['trials']} correct",
        rate,
    ]
    return _finish(args.format, transcript, lines, transcript["successes"] == transcript["trials"])


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _check_lines(checks) -> list[str]:
    """One md line per check: ``ok  `` or ``FAIL``, its name and detail."""
    return [f"{'ok  ' if check['ok'] else 'FAIL'} {check['check']}: {check['detail']}"
            for check in checks]


def cmd_certify(args: argparse.Namespace) -> int:
    config = {**_instance_config(args), "seed": args.seed, "products_per_family": args.products}
    _echo_config(config)
    report = _certified(args.q, args.x, args.t, args.fibers, 1)[1]
    payload = report.to_dict()
    lines = [
        *_instance_lines(payload["params"], ""),
        *_check_lines(report.checks()),
        f"certification: {'PASS' if report.all_ok else 'FAIL'}",
    ]
    return _finish(args.format, {"config": config, "report": payload}, lines, report.all_ok)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _uniformity_threshold(order: int) -> float:
    """The upper ``UNIFORMITY_LEVEL`` quantile of chi-square with order - 1
    degrees of freedom.

    For even df = 2k the upper tail at x is P(Poisson(x/2) < k), the finite
    sum e^(-x/2)·Σ_{i<k} (x/2)^i / i!.  Each term is taken from log space so
    that no power or factorial overflows at large df, and x is bisected until
    the float64 interval stops shrinking.  Odd df (characteristic 2) has no
    such sum, and no suite tests uniformity there, so it raises ValueError.
    """
    df = order - 1
    if df % 2:
        raise ValueError(f"chi-square threshold needs even degrees of freedom, got {df}")

    def tail(x: float) -> float:
        h = x / 2
        log_h = math.log(h)
        return math.fsum(math.exp(i * log_h - h - math.lgamma(i + 1)) for i in range(df // 2))

    target = 1 - UNIFORMITY_LEVEL
    lo, hi = 0.0, float(df)
    while tail(hi) > target:
        lo, hi = hi, 2 * hi
    while True:
        mid = lo + (hi - lo) / 2
        if not lo < mid < hi:
            return hi
        if tail(mid) > target:
            lo = mid
        else:
            hi = mid


def _uniform(sample_sets, order: int, threshold: float) -> tuple[bool, float]:
    """Whether every sample set is below the chi-square `threshold` and hits
    every field element, and the largest statistic."""
    results = [(chi_square_uniform_stat(s, order), len(set(s.tolist())) == order) for s in sample_sets]
    return all(stat < threshold and full for stat, full in results), max(stat for stat, _ in results)


def _suite_fields(seed: int) -> list[dict]:
    orders = (2, 3, 4, 5, 8, 9, 11, 25, 27, 121, 841)
    built = all(field_of_order(o).order == o for o in orders)
    try:
        field_of_order(6)
        rejected = False
    except ValueError:
        rejected = True
    checks = [{
        "check": "construction",
        "ok": built and rejected,
        "detail": f"{len(orders)} prime-power orders built; order 6 rejected",
    }]
    inv_ok = True
    for o in orders:
        f = field_of_order(o)
        inv_ok &= all(f.mul(a, f.inv(a)) == 1 for a in range(1, o))
    checks.append({
        "check": "inverses",
        "ok": bool(inv_ok),
        "detail": "a * a^-1 = 1 for every nonzero element of every order",
    })
    axioms = frob = char = True
    rng = np.random.default_rng(seed)
    for o in orders:
        f = field_of_order(o)
        a, b, c = f.sample_arr(rng, (3, 200))
        axioms &= bool((f.add_arr(f.add_arr(a, b), c)
                        == f.add_arr(a, f.add_arr(b, c))).all())
        axioms &= bool((f.mul_arr(f.mul_arr(a, b), c)
                        == f.mul_arr(a, f.mul_arr(b, c))).all())
        axioms &= bool((f.mul_arr(a, f.add_arr(b, c))
                        == f.add_arr(f.mul_arr(a, b), f.mul_arr(a, c))).all())
        axioms &= bool((f.mul_arr(a, b) == f.mul_arr(b, a)).all())
        frob &= bool((f.pow_arr(f.add_arr(a, b), f.p)
                      == f.add_arr(f.pow_arr(a, f.p), f.pow_arr(b, f.p))).all())
        frob &= all(f.pow(k, f.p) == k for k in range(f.p))
        acc = np.zeros_like(a)
        for _ in range(f.p):
            acc = f.add_arr(acc, a)
        char &= bool((acc == 0).all())
    checks.append({
        "check": "ring-axioms",
        "ok": bool(axioms),
        "detail": "associativity, commutativity, distributivity on 200 "
                  "sampled triples per order",
    })
    checks.append({
        "check": "frobenius",
        "ok": bool(frob),
        "detail": "x -> x^p is additive and fixes the prime subfield",
    })
    checks.append({
        "check": "characteristic",
        "ok": bool(char),
        "detail": "p-fold sums vanish on sampled elements",
    })
    return checks


def _suite_bases(seed: int) -> list[dict]:
    del seed  # fully deterministic
    sizes = ranks = vals = regular = True
    for q, m in BASIS_PAIRS:
        c = curve_for_q(q)
        frag_count = m * q - c.genus
        alphas = list(range(1, m + 1))
        fns = interpolation_basis(c, m, alphas)
        labels = interpolation_labels(q, m)
        sizes &= len(fns) == frag_count
        data = [(a, y) for a in alphas for y in c.fiber_of_x(a)]
        mat = np.stack([fn.evaluate_many(data) for fn in fns], axis=1)
        ranks &= rank(c.field, mat) == frag_count
        for (z, _), fn in zip(labels, fns):
            vals &= fn.valuation_at_infinity() == -(m * q - 1) + (q - z)
        for (z, _), fn in zip(labels, info_basis(c, m, alphas)):
            regular &= fn.valuation_at_infinity() == q - z + 1
    pair_text = ", ".join(f"({q},{m})" for q, m in BASIS_PAIRS)
    return [
        {"check": "interpolation-count", "ok": bool(sizes),
         "detail": f"|basis| = m*q - g for (q,m) in {pair_text}"},
        {"check": "evaluation-rank", "ok": bool(ranks),
         "detail": "rank m*q - g at the m*q data points for every pair"},
        {"check": "infinity-valuations", "ok": bool(vals),
         "detail": "pole order at infinity is (m*q - 1) - (q - z) for "
                   "every labelled function"},
        {"check": "decode-regularity", "ok": bool(regular),
         "detail": "decode-side functions have valuation q - z + 1 >= 0 "
                   "at infinity"},
    ]


def _suite_noise(seed: int) -> list[dict]:
    del seed  # fully deterministic
    counts, complete, contained, additive = [], True, True, True
    for x_t in (1, 2):
        instance, _, verdicts = _certified(5, x_t, x_t, None, 1)
        params, manifest = instance.params, instance.manifest()
        expected = params.server_count - params.genus - params.frag_count
        counts.append((x_t, manifest["noise"]["count"], expected))
        complete &= manifest["noise"]["complete"]
        contained &= verdicts["noise-containment"]
        additive &= verdicts["rank-additivity"]
    count_ok = all(got == want for _, got, want in counts)
    count_text = "; ".join(
        f"x=t={x_t}: {got} (want {want})" for x_t, got, want in counts
    )
    # the details stay byte-identical: the build has no fallback, and
    # containment is now certified exactly rather than sampled
    return [
        {"check": "pool-count", "ok": bool(count_ok),
         "detail": f"two-point pool size equals N - g - L: {count_text}"},
        {"check": "pool-complete", "ok": bool(complete),
         "detail": "noise span reaches full dimension without fallback"},
        {"check": "containment", "ok": bool(contained),
         "detail": "100 sampled products per family lie in the noise span"},
        {"check": "rank-additivity", "ok": bool(additive),
         "detail": "L + rank(noise) = N - g with an invertible info prefix"},
    ]


def _suite_privacy(seed: int) -> list[dict]:
    instance, report, verdicts = _certified(5, 1, 1, None, 3)
    order = instance.field.order
    threshold = _uniformity_threshold(order)
    desired_ok, desired_max = _uniform((instance.query_marginal_samples(
        server=7, file_index=1, frag_index=3, desired_index=d,
        trials=MARGINAL_TRIALS, seed=seed,
    ) for d in range(3)), order, threshold)
    server_ok, server_max = _uniform((instance.query_marginal_samples(
        server=s, file_index=0, frag_index=0, desired_index=0,
        trials=MARGINAL_TRIALS, seed=seed + 1 + s,
    ) for s in (0, 42, 84)), order, threshold)
    return [
        {"check": "query-dual-bound", "ok": verdicts["query-dual-bound"],
         "detail": f"{report.query_dual_bound} >= t_priv + 1 = 2"},
        {"check": "query-independence", "ok": verdicts["query-independence"],
         "detail": "single query entries exhaustively uniform"},
        {"check": "desired-marginals", "ok": desired_ok,
         "detail": f"chi-square max {desired_max:.2f} < "
                   f"{threshold:.2f} across desired files 0..2"},
        {"check": "server-marginals", "ok": server_ok,
         "detail": f"chi-square max {server_max:.2f} < "
                   f"{threshold:.2f} across servers 0, 42, 84"},
    ]


def _suite_security(seed: int) -> list[dict]:
    instance, report, verdicts = _certified(5, 1, 1, None, 3)
    order = instance.field.order
    frag_count = instance.params.frag_count
    threshold = _uniformity_threshold(order)
    share_ok, share_max = _uniform((instance.share_marginal_samples(
        server=3, frag_index=2, fragment_value=value,
        trials=MARGINAL_TRIALS, seed=seed + value,
    ) for value in (0, 17)), order, threshold)
    wide = _certified(5, 2, 2, None, 1)[2]
    return [
        {"check": "storage-dual-bounds", "ok": verdicts["storage-dual-bounds"],
         "detail": f"min {min(report.storage_dual_bounds)} >= x_sec + 1 = 2 "
                   f"over {frag_count} fragment codes"},
        {"check": "storage-independence", "ok": verdicts["storage-independence"],
         "detail": "single share entries exhaustively uniform for every "
                   "fragment"},
        {"check": "share-marginals", "ok": share_ok,
         "detail": f"chi-square max {share_max:.2f} < "
                   f"{threshold:.2f} for fragment values 0 and 17"},
        {"check": "elevated-thresholds",
         "ok": wide["storage-dual-bounds"] and wide["query-dual-bound"],
         "detail": "x_sec = t_priv = 2 instance keeps every dual bound "
                   ">= 3"},
    ]


def _suite_codes(seed: int) -> list[dict]:
    del seed  # fully deterministic
    c = curve_for_q(2)
    pts = c.affine_points()
    dims = designed = duals = True
    records = []
    for degG in range(3, 7):
        fns = one_point_basis(c, degG)
        code = generator_matrix(c.field, fns, pts, c.genus, degG)
        dims &= code.k == degG - c.genus + 1
        dmin = min_distance_bruteforce(code)
        designed &= dmin >= goppa_designed_distance(code)
        ddual = dual_min_distance_bruteforce(code)
        duals &= ddual >= code.degG - 2 * c.genus + 2
        records.append(f"degG={degG}: d={dmin}, d_perp={ddual}")
    return [
        {"check": "dimension", "ok": bool(dims),
         "detail": "k = degG - g + 1 for degG 3..6 on the q=2 curve"},
        {"check": "designed-distance", "ok": bool(designed),
         "detail": "brute-force distance meets the designed bound "
                   f"({'; '.join(records)})"},
        {"check": "dual-distance", "ok": bool(duals),
         "detail": "brute-force dual distance >= degG - 2g + 2"},
    ]


_SUITES = {
    "fields": _suite_fields,
    "bases": _suite_bases,
    "noise": _suite_noise,
    "privacy": _suite_privacy,
    "security": _suite_security,
    "codes": _suite_codes,
}


def cmd_verify(args: argparse.Namespace) -> int:
    config = {
        "command": "verify",
        "format": args.format,
        "suite": args.suite,
        "seed": args.seed,
    }
    _echo_config(config)
    checks = _SUITES[args.suite](args.seed)
    all_ok = all(check["ok"] for check in checks)
    passed = sum(check["ok"] for check in checks)
    lines = [
        f"suite: {args.suite}   seed: {args.seed}",
        *_check_lines(checks),
        f"suite {args.suite}: {'PASS' if all_ok else 'FAIL'} ({passed}/{len(checks)} checks)",
    ]
    payload = {"config": config, "suite": args.suite, "checks": checks, "all_ok": all_ok}
    return _finish(args.format, payload, lines, all_ok)


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermipir",
        description="Curve-coded private information retrieval toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # flags that several commands share, each declared once
    format_flag = argparse.ArgumentParser(add_help=False)
    format_flag.add_argument("--format", choices=("md", "json"), default="md")
    instance_flags = argparse.ArgumentParser(add_help=False)
    instance_flags.add_argument("--q", type=int, default=5)
    instance_flags.add_argument("--x", type=int, default=1)
    instance_flags.add_argument("--t", type=int, default=1)
    instance_flags.add_argument("--fibers", type=int, default=None,
                                help="override the number of data x-values")

    t = sub.add_parser("tables", help="render a rate catalog")
    t.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    t.add_argument("--format", choices=("md", "csv", "json"), default="md")
    t.add_argument("--full-search", action="store_true",
                   help="exhaustive curve search for every field order")
    t.add_argument("--fields", type=_int_list, default=None,
                   help="comma-separated field orders (catalog 1 only)")
    t.set_defaults(handler=cmd_tables)

    cp = sub.add_parser("count-points", help="count rational points", parents=[format_flag])
    cp.add_argument("--curve", choices=("hermitian", "hyperelliptic"),
                    required=True)
    cp.add_argument("--q", type=int, required=True)
    cp.add_argument("--coeffs", type=_int_list, default=None,
                    help="a0,a1,... for y^2 = x^d + sum a_k x^k, d = len")
    cp.set_defaults(handler=cmd_count_points)

    d = sub.add_parser("pir-demo", help="run seeded end-to-end retrievals",
                       parents=[instance_flags, format_flag])
    d.add_argument("--files", type=int, default=3)
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--trials", type=_count, default=100)
    d.add_argument("--transport", choices=("local", "socket"),
                   default="local")
    d.set_defaults(handler=cmd_pir_demo)

    ce = sub.add_parser("certify", help="re-derive instance certificates",
                        parents=[instance_flags, format_flag])
    ce.add_argument("--seed", type=int, default=0,
                    help="accepted for compatibility and echoed in the config "
                         "line; no longer steers anything")
    ce.add_argument("--products", type=int, default=100,
                    help="accepted for compatibility and echoed in the config "
                         "line; no longer steers anything")
    ce.set_defaults(handler=cmd_certify)

    v = sub.add_parser("verify", help="run a module verification suite", parents=[format_flag])
    v.add_argument("--suite", choices=tuple(_SUITES), required=True)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InfeasibleParams as exc:
        print(f"error: infeasible parameters -- {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
