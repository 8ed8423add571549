"""rewardlab benchmark runner.

    python3 perfbench/run.py --workload {datagen,train,plan,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. It sets the workload up several times (the
median is `setup_s`), then repeats rounds of the workload for S seconds,
checking every round. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of BENCHMARK.json. Before the last line it
prints a readable report (the per-workload metrics, quality numbers and
fingerprints); the last line is one JSON object. A run record goes to
perfbench/records/. The metric definitions are in perfbench/METRICS.md.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RECORDS = os.path.join(HERE, "records")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("datagen", "train", "plan")
# every BLAS/OpenMP pool in the process gets one thread: the benchmark is a
# single closed-loop client and runs no worker threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads(module_name):
    """Thread count of the BLAS that a compiled numpy/scipy module links."""
    import ctypes
    import importlib

    try:
        lib = ctypes.CDLL(importlib.import_module(module_name).__file__)
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def machine_info():
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "numpy_blas_threads": blas_threads("numpy.linalg._umath_linalg"),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "scipy_blas_threads": blas_threads("scipy.linalg._fblas"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def median_parts(outcomes, normalized=True) -> dict:
    """Median seconds of each part over the given rounds. Unless told not
    to, each round is first rescaled to the reference kernel's nominal
    speed, using the median of the kernel runs made during that round."""
    import reference

    def scale(o):
        return reference.NOMINAL_S / statistics.median(o.refs.values()) if normalized else 1.0

    names = {part for o in outcomes for part in o.parts}
    return {part: statistics.median(o.parts[part] * scale(o) for o in outcomes if part in o.parts)
            for part in names}


def rates(outcomes, normalized=True) -> dict:
    """Throughput of the workload and of each named share of a round, each
    taken at the median time of the parts it spans. Parts are short and
    repeated, so one slow stretch of a shared machine moves few of them."""
    part_s = median_parts(outcomes, normalized)
    out = {"work_per_s": statistics.median(o.work for o in outcomes) / sum(part_s.values())}
    for name, (work, parts) in outcomes[0].rates.items():
        out[name] = work / sum(part_s[p] for p in parts)
    return out


def timed_setup(workload):
    """(raw seconds, seconds at the reference kernel's nominal speed)."""
    import reference

    before = reference.seconds()
    start = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - start
    return raw, raw * reference.NOMINAL_S / statistics.mean((before, reference.seconds()))


def run_rounds(workload, seconds, tracer, layers):
    """Repeat rounds for `seconds`; with a tracer, odd rounds are traced.

    Returns [(outcome, span table or None)]. Wrappers are installed only
    for the length of a traced round.
    """
    from tracer import SpanTable

    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            layers.install(tracer)
            try:
                outcome = workload.run_round()
            finally:
                tracer.restore()
            table = SpanTable(tracer)
            tracer.reset()
        else:
            outcome, table = workload.run_round(), None
        rounds.append((outcome, table))
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            return rounds


def per_layer_metrics(rounds, setup_table, spec_names, layers):
    traced = [t for _, t in rounds if t is not None]
    per_round = [layers.round_metrics(t, spec_names) for t in traced]
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics.update(layers.setup_metrics(setup_table))
    metrics.update(layers.planner_metrics({
        span: [d for t in traced for d in t.durations(span).tolist()]
        for span in layers.PLANNER_SPANS
    }))
    busy = {
        flag: sum(median_parts([o for o, t in rounds if (t is not None) == flag]).values())
        for flag in (False, True)
    }
    metrics["trace.overhead_frac"] = busy[True] / busy[False] - 1.0
    return metrics


def run_workload(args):
    import layers
    import reference
    import selftest
    import workloads
    from tracer import SpanTable, Tracer

    spec = load_spec()[args.trace]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    setup_times, setup_table = [], None
    if args.trace:
        selftest.run()
        tracer = Tracer()
        layers.install(tracer)
        try:
            setup_times.append(timed_setup(workload))
        finally:
            tracer.restore()
        setup_table = SpanTable(tracer)
        tracer.reset()
    else:
        setup_times = [timed_setup(workload) for _ in range(SETUP_REPEATS)]

    checked = workload.run_round(checked=True) if isinstance(workload, workloads.Plan) else None
    rounds = run_rounds(workload, args.seconds, tracer, layers)
    outcomes = [o for o, _ in rounds]
    first = checked or outcomes[0]

    attempted = sum(o.attempted for o in outcomes) + (checked.attempted if checked else 0)
    failed = sum(o.failed for o in outcomes) + (checked.failed if checked else 0)
    for o in outcomes:
        # every round repeats the same inputs, so it must reproduce the first
        if any(o.fingerprints.get(k, v) != v for k, v in first.fingerprints.items()):
            failed += o.attempted - o.failed
    left_installed = layers.installed_wrappers()
    failed = min(failed, attempted)
    correct = failed == 0 and not left_installed

    untraced = [o for o, t in rounds if t is None]
    report = rates(untraced)
    work_per_s = report.pop("work_per_s")
    report["raw.work_per_s"] = rates(untraced, normalized=False)["work_per_s"]
    report["raw.setup_s"] = statistics.median(raw for raw, _ in setup_times)
    report["machine_speed"] = reference.NOMINAL_S / statistics.median(
        r for o in outcomes for r in o.refs.values())
    report.update(first.quality)
    if args.trace:
        metrics = per_layer_metrics(rounds, setup_table, list(spec), layers)
    else:
        metrics = {
            "setup_s": statistics.median(norm for _, norm in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": work_per_s,
        }
        report.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"])
    if set(metrics) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(spec))} disagree with BENCHMARK.json")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reason": workload.reason,
        "machine": machine_info(),
        "config": dataclasses.asdict(workload.config),
        "overrides": workload.overrides,
        "setup_s_each": [{"raw": raw, "normalized": norm} for raw, norm in setup_times],
        "rounds": [{"traced": t is not None, "work": o.work, "parts": o.parts, "refs": o.refs}
                   for o, t in rounds],
        "attempted": attempted,
        "failed": failed,
        "errors": [e for o in outcomes + ([checked] if checked else []) for e in o.errors],
        "wrappers_left_installed": left_installed,
        "report": report,
        "fingerprints": {**workload.setup_fingerprints, **first.fingerprints},
        "metrics": metrics,
    }
    if setup_table is not None:
        traced = [t for _, t in rounds if t is not None]
        record["datagen_retries"] = layers.retry_report(traced[0])
        record["setup_layers"] = layers.round_metrics(setup_table, list(spec))
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_report(record, spec, report)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": spec[name]} for name in spec},
    }


def _unit(name):
    if "_per_s" in name:
        return "1/s"
    if name.endswith("setup_s"):
        return "s"
    return "MB" if name == "peak_rss_mb" else "fraction"


def print_report(record, spec, report):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"failed/attempted {record['failed']}/{record['attempted']}")
    for e in record["errors"]:
        print(e, file=sys.stderr)
    for name in sorted(report):
        print(f"  {name:<34} {report[name]:>14.6g} {_unit(name)}")
    for name, digest in sorted(record["fingerprints"].items()):
        print(f"  fingerprint {name:<22} {digest}")
    for key, row in sorted(record.get("datagen_retries", {}).items()):
        print(f"  retries {key:<22} clips {row['clips']:>4} attempts {row['attempts']:>5} "
              f"zero-noise {row['zero_noise_clips']}")
    if record["trace"]:
        for name in sorted(spec):
            print(f"  {name:<50} {record['metrics'][name]:>14.6g} {spec[name]}")


def run_all(args):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    return summary


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rewardlab", "__init__.py")) or not os.path.isfile(SPEC):
        print(f"error: run from a rewardlab checkout: need src/rewardlab and BENCHMARK.json "
              f"under {ROOT}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
