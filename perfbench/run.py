"""teichlen benchmark: end-to-end metrics per workload and a traced per-layer run.

Run one workload (what a harness calls; the last stdout line is the result):

    python3 perfbench/run.py --workload product-sweep --seed 1 --seconds 20 --trace 0

Run every workload in both modes and print a table, or check the benchmark:

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check

``--trace 0`` measures with no instrumentation.  Set-up (importing
teichlen, with numpy already loaded, and building the workload's inputs)
runs in five fresh processes and ``setup_s`` is their median; then operations run in
whole rounds until at least ``--seconds`` have passed and at least
MIN_OPS operations are done.  ``--trace 1`` times set-up plus a fixed
number of operations once without and once with the tracer of
``tracing.py``, and repeats the traced pass in a fresh process to check
that every count repeats exactly.  Both modes check every output.

Timing is stdlib ``time.perf_counter`` in one process and one thread.
On a shared host the CPU speed itself drifts, by up to a third over
minutes, and every timing drifts with it.  So the ``--trace 0`` times
are reported at a reference speed: a fixed calibration loop runs before
every operation, and every time of the run, set-up included, is scaled
by CALIBRATION_REF_S over the run's median calibration time.  The
result file keeps the raw times and the calibration median.  Traced
per-layer times are raw.

Results, with the commit, versions, CPU count and seed, go to
``perfbench/out/``; the spans of a traced run go there as ``.npz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, clear_program_caches
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
MIN_OPS = 100  # a p90 with ten operations beyond it
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
CALIBRATION_REF_S = 1e-3  # calibration loop time that defines the reference speed


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_program():
    for path in (ROOT / "src" / "teichlen" / "__init__.py",
                 ROOT / "demos" / "data" / "genus2.surf"):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a teichlen checkout")
    sys.path.insert(0, str(ROOT / "src"))


def check_program_origin():
    import teichlen

    src = (ROOT / "src").resolve()
    if src not in Path(teichlen.__file__).resolve().parents:
        raise BenchError(f"teichlen was imported from {teichlen.__file__}, not from {src}")


def load_program():
    """Import every teichlen module an operation may reach."""
    import teichlen.cli  # noqa: F401
    import teichlen.files  # noqa: F401
    import teichlen.spaces  # noqa: F401

    check_program_origin()


def run_info(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }


def child(args, workload: str, trace: int, *extra) -> list[str]:
    """Run this script again in a fresh process and return its stdout lines."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[1:])} failed:\n{done.stderr[-2000:]}")
    return lines


def calibration_loop():
    """Fixed pure-Python work that allocates no containers: about 1 ms on a 2-CPU x86_64 host."""
    table = [0] * 256
    acc = 0.0
    for i in range(6000):
        table[i & 255] += i
        acc += math.sqrt(i + 1.0)
    return acc + table[17]


def calibration_sample() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def run_ops(ops, calibration: list | None = None):
    """Run (key, thunk) pairs in a closed loop: (key, output, error, seconds) each.

    With a ``calibration`` list, one calibration sample is taken before
    every operation and one after the last.
    """
    clock = time.perf_counter
    records = []
    for key, op in ops:
        if calibration is not None:
            calibration.append(calibration_sample())
        start = clock()
        try:
            output, error = op(), None
        except Exception as exc:  # an operation that raises counts as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((key, output, error, clock() - start))
    if calibration is not None:
        calibration.append(calibration_sample())
    return records


def timed_ops(workload, seconds: float, min_ops: int):
    """Whole rounds until both ``seconds`` and ``min_ops`` are reached."""
    start, done = time.perf_counter(), 0
    for ops in workload.rounds():
        yield from ops
        done += len(ops)
        if done >= min_ops and time.perf_counter() - start >= seconds:
            return


def first_ops(workload, n: int):
    return itertools.islice(itertools.chain.from_iterable(workload.rounds()), n)


def check_records(workload, records, offset: int = 0) -> dict[int, str]:
    """Failure message by operation index, for the operations that failed."""
    good = [(key, out) for key, out, error, _ in records if error is None]
    verdicts = iter(workload.check(good))
    failures = {}
    for index, (key, _, error, _) in enumerate(records, start=offset):
        if error is not None:
            failures[index] = f"{key!r}: {error}"
        elif not next(verdicts):
            failures[index] = f"{key!r}: output check failed"
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def timings(setup_s: float, times: list[float]) -> dict[str, float]:
    return {"setup_s": setup_s, "wall_s": sum(times[:MIN_OPS]),
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": percentile(times, 0.9) * 1e3}


def measure(args, quick: bool):
    setups = [json.loads(child(args, args.workload, 0, "--setup-only")[-1])["setup_s"]
              for _ in range(1 if quick else SETUP_SAMPLES)]
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    check_program_origin()
    gc.collect()
    ops = first_ops(workload, 2) if quick else timed_ops(workload, args.seconds, MIN_OPS)
    calibration = []
    records = run_ops(ops, calibration)
    raw = [seconds for *_, seconds in records]
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    units = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
    scaled = timings(statistics.median(setups) * speed, [seconds * speed for seconds in raw])
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    extra = {
        "raw": timings(statistics.median(setups), raw),
        "calibration_median_s": statistics.median(calibration),
        "setup_s_raw": setups, "op_s_raw": raw, "calibration_s": calibration,
        "informational": workload.info(
            [(key, out) for key, out, error, _ in records if error is None]),
    }
    return records, workload, metrics, extra


def traced_pass(args, quick: bool):
    """Set-up plus the workload's traced operations, inside the tracer."""
    clear_program_caches()
    tracer = Tracer().install()
    try:
        gc.collect()
        start = time.perf_counter()
        workload = tracer.run("bench.setup", lambda: WORKLOADS[args.workload](ROOT, args.seed))
        n = 2 if quick else workload.trace_ops
        records = run_ops((key, lambda op=op: tracer.run("bench.op", op))
                          for key, op in first_ops(workload, n))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, workload, records, wall


def exact_counts(tracer) -> dict[str, int]:
    counts = {f"{name}.calls": calls for name, (calls, _) in tracer.self_times().items()}
    counts.update(tracer.counts)
    return dict(sorted(counts.items()))


LAYER_SPANS = (
    "distance.kerckhoff_distance_estimate", "distance.default_curve_family",
    "distance.product_region_discrepancy", "collar.collar_decomposition",
    "pants.pants_orthogeodesics", "extremal.lambda_surface_estimate", "files.parse",
    "halfplane.geodesic_point", "halfplane.hyp_distance",
    "instability.instability_lower_bound", "instability.segment_distance",
    "spaces.pi_image_space", "surface.Marking.pinch", "cli.main",
)


def measure_traced(args, quick: bool):
    load_program()
    clear_program_caches()
    gc.collect()
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    n = 2 if quick else workload.trace_ops
    plain = run_ops(first_ops(workload, n))
    untraced_wall = time.perf_counter() - start
    tracer, traced_workload, traced, traced_wall = traced_pass(args, quick)

    spans = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name in LAYER_SPANS:
        calls, own = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (own, "s")
    members = counts.get("distance.kerckhoff_distance_estimate.members", 0)
    own = metrics["distance.kerckhoff_distance_estimate.self_s"][0]
    metrics["distance.kerckhoff_distance_estimate.us_per_member"] = (
        own * 1e6 / (2 * members) if members else 0.0, "us")
    metrics["distance.default_curve_family.members"] = (
        counts.get("distance.default_curve_family.members", 0), "count")
    metrics["extremal.arc_multiplicities.calls"] = (
        counts.get("extremal.arc_multiplicities.calls", 0), "count")
    structured = counts.get("instability.candidates.structured", 0)
    tried = structured + counts.get("instability.candidates.random", 0)
    accepted = metrics["instability.segment_distance.calls"][0]
    metrics["instability.candidates.structured"] = (structured, "count")
    metrics["instability.candidates.random"] = (tried - structured, "count")
    metrics["instability.candidates.accepted"] = (accepted, "count")
    metrics["instability.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    layer_self = sum(own for name, (_, own) in spans.items() if not name.startswith("bench."))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (traced_wall - layer_self, "s")

    repeat = json.loads(child(args, args.workload, 1, "--counts-only",
                              *(["--quick"] if quick else []))[-1])
    mine = exact_counts(tracer)
    problems = [f"count {key} is {mine.get(key)} here and {repeat.get(key)} in a fresh process"
                for key in sorted(set(mine) | set(repeat)) if mine.get(key) != repeat.get(key)]
    failures = {**check_records(workload, plain),
                **check_records(traced_workload, traced, offset=len(plain))}
    # the traced pass must reproduce the untraced pass, output for output
    for index, ((key, a, _, _), (_, b, _, _)) in enumerate(zip(plain, traced), start=len(plain)):
        if a != b:
            failures.setdefault(index, f"{key!r}: traced output differs from untraced output")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    return plain + traced, failures, problems, metrics, {"counts": mine}


def emit(args, records, failures, problems, metrics, extra):
    """Write the result file and print the metrics; the last line is the result."""
    attempted = len(records)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {"run": run_info(args), "ops": attempted, "fail_frac": len(failures) / attempted,
              "failures": [failures[k] for k in sorted(failures)][:50], "problems": problems,
              **extra, "result": result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    print(f"{args.workload}\tfail_frac\t{report['fail_frac']:.6g}\t1")
    print(json.dumps({"run": report["run"], "informational": extra.get("informational")}))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in both modes, each in its own process, as one table."""
    failed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                lines = child(args, name, trace)
            except BenchError as exc:
                print(f"{name}\ttrace {trace}\tERROR {exc}")
                failed = True
                continue
            print("\n".join(lines[:-2]))
            failed |= not json.loads(lines[-1])["correct"]
    return 1 if failed else 0


def self_check(args) -> int:
    """One tiny run per workload and mode; every named metric present with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = json.loads(child(args, name, trace, "--quick")[-1])
            where = f"{name} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny run of every workload, checking metric names and units")
    # internal: used by the benchmark's own child processes
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_program()
        if args.self_check:
            return self_check(args)
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            # numpy's import is the environment's, and its file-system noise
            # would swamp the program's own import and set-up
            import numpy  # noqa: F401

            start = time.perf_counter()
            WORKLOADS[args.workload](ROOT, args.seed)
            elapsed = time.perf_counter() - start
            check_program_origin()
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.counts_only:
            load_program()
            tracer, *_ = traced_pass(args, args.quick)
            print(json.dumps(exact_counts(tracer)))
            return 0
        if args.trace:
            records, failures, problems, metrics, extra = measure_traced(args, args.quick)
        else:
            records, workload, metrics, extra = measure(args, args.quick)
            failures, problems = check_records(workload, records), []
        emit(args, records, failures, problems, metrics, extra)
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
