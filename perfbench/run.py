"""Layered benchmark for hrs: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve-verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A closed loop in a single process: each op starts when the previous one ends.
With ``--trace 0`` the run sets its inputs up several times (reporting the
median set-up time), walks the inputs once untimed to warm up, then walks them
in order, wrapping around, until ``--seconds`` have elapsed, and reports the
median ops per second over complete walks. With ``--trace 1`` it runs each op
untraced and traced and derives per-layer metrics from the spans of the traced
ops. The last line of stdout is one JSON object: correct, attempted, failed (output checks) and
metrics. ``--workload all`` runs every workload in a fresh process, one after
the other, and prints a table. A record of each run (metrics, checks, seed,
git SHA, Python version, nproc, and the spans when traced) is written under
``.perfbench_runs/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

# set-up repeats: at least three, more while they add up to under two seconds
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

# the two mixes BENCHMARK.json lists, then their parts at full size
WORKLOAD_NAMES = (
    "solve-verify", "exact-oracles", "pipeline-1m", "market-ml", "ratio-exact", "gadget-chain",
)

# per-layer metrics: "<span>_s" is the self time of the span per op, a count is
# per op; "harness.*" covers one set-up
SPANS = (
    "model.serialize", "model.parse", "model.matching_json",
    "partition.size_desc", "partition.detect", "partition.validate",
    "solver.solve", "solver.kernel", "solver.check_trace",
    "verify.exists", "verify.collect",
    "oracle.max_occ", "oracle.a_perfect", "oracle.auto_interfaces", "oracle.decompose", "oracle.smti",
    "reduce.occ", "reduce.stable", "reduce.lift", "reduce.project",
)
COUNTS = {
    "model.text_bytes": "bytes",
    "partition.classes": "count",
    "solver.rounds": "count",
    "solver.matched_agents": "count",
    "solver.matched_size": "count",
    "verify.pairs_scanned": "count",
    "verify.witnesses": "count",
    "oracle.max_occ_nodes": "count",
    "oracle.a_perfect_nodes": "count",
    "oracle.interfaces": "count",
    "oracle.decompose_nodes": "count",
    "reduce.gadget_edges": "count",
}


def load_hrs():
    """Import the workloads against this checkout's own ``src/hrs``."""
    if not (SRC / "hrs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hrs sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import hrs
    import workloads

    if SRC not in Path(hrs.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported hrs from {hrs.__file__}, not {SRC}")
    return workloads


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(wl, item, tracer, checks) -> None:
    try:
        wl.op(item, tracer, checks)
    except Exception:  # one broken op is a failed check, not a dead run
        checks.expect(False, traceback.format_exc(limit=4))


def timed_op(wl, item, tracer, checks, op_id) -> float:
    tracer.op_id = op_id
    start = time.perf_counter()
    with tracer.span("op"):
        run_op(wl, item, tracer, checks)
    return time.perf_counter() - start


def lap_rates(durations: list[float], n_items: int) -> list[float]:
    """Ops per second of each complete walk over the inputs; the walk cut
    short by the time limit counts only when no walk completed."""
    laps = [durations[i:i + n_items] for i in range(0, len(durations), n_items)]
    full = [lap for lap in laps if len(lap) == n_items]
    return [len(lap) / sum(lap) for lap in (full or laps)]


def measure_end_to_end(wl, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    off = Tracer(False)
    setup_times, fingerprints = [], []
    items = None
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        items = None
        gc.collect()
        start = time.perf_counter()
        items = wl.setup(seed, off)
        setup_times.append(time.perf_counter() - start)
        fingerprints.append(hash(tuple(items)))
    checks.expect(len(set(fingerprints)) == 1, "one seed gave different inputs on repeated set-up")

    # one untimed walk: the first op on a fresh input runs slower than later
    # ones. The peak RSS is read after it; later walks repeat the same work, so
    # how many of them fit in the run must not move the figure
    for item in items:
        run_op(wl, item, off, checks)
    rss = peak_rss_mb()

    gc.collect()
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        item = items[len(durations) % len(items)]
        durations.append(timed_op(wl, item, off, checks, None))
    rates = lap_rates(durations, len(items))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }, {"setup_times": setup_times, "ops": len(durations), "walk_rates": rates}


def measure_layers(wl, seed: int, seconds: float, checks) -> tuple[dict, object]:
    tracer = Tracer(True)
    off = Tracer(False)
    gc.collect()
    items = wl.setup(seed, tracer)

    # each op runs untraced and traced, alternating which goes first, so
    # drift in machine speed does not bias the overhead figure
    gc.collect()
    spent = {False: 0.0, True: 0.0}
    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        item = items[ops % len(items)]
        order = [(off, None), (tracer, ops)]
        if ops % 2:
            order.reverse()
        for t, op_id in order:
            spent[t.enabled] += timed_op(wl, item, t, checks, op_id)
        tracer.run_deferred()  # kernel replays and pair counts, outside both timings
        ops += 1
    tracer.op_id = None

    self_time = tracer.self_times()
    counts = tracer.counts
    metrics = {
        "harness.gen_s": (self_time["harness.gen"], "s"),
        "harness.gen_edges": (counts["harness.gen_edges"], "count"),
    }
    for span in SPANS:
        metrics[span + "_s"] = (self_time[span] / ops, "s")
    for name, unit in COUNTS.items():
        metrics[name] = (counts[name] / ops, unit)
    metrics["solver.assembly_s"] = (
        metrics["solver.solve_s"][0] - metrics["solver.kernel_s"][0], "s",
    )
    scan_s = counts["verify.scan_s"]
    metrics["verify.pairs_per_s"] = (
        counts["verify.pairs_scanned"] / scan_s if scan_s > 0 else 0.0, "1/s",
    )
    search_s = sum(self_time[s] for s in ("oracle.max_occ", "oracle.a_perfect", "oracle.decompose"))
    nodes = sum(counts[c] for c in ("oracle.max_occ_nodes", "oracle.a_perfect_nodes", "oracle.decompose_nodes"))
    metrics["oracle.nodes_per_s"] = (nodes / search_s if search_s > 0 else 0.0, "1/s")
    metrics["trace.overhead"] = (spent[True] / spent[False] - 1.0, "ratio")
    return metrics, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = load_hrs()
    wl = workloads.WORKLOADS[name]()
    checks = workloads.Checks()
    tracer = None
    if trace:
        metrics, tracer = measure_layers(wl, seed, seconds, checks)
        details = {}
    else:
        metrics, details = measure_end_to_end(wl, seed, seconds, checks)

    fail_ratio = checks.failed / checks.attempted  # every run checks something
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "messages": checks.messages},
        "fail_ratio": fail_ratio,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }
    if getattr(wl, "rejected_seeds", None):
        record["rejected_seeds"] = wl.rejected_seeds
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(
        f"{name} seed={seed} sha={record['git_sha'][:12]} python={record['python']} "
        f"nproc={record['nproc']} fail_ratio={fail_ratio:.6g} "
        f"({checks.failed}/{checks.attempted} checks)",
        file=sys.stderr,
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        fields = [f"fail_ratio {result['failed'] / result['attempted']:.6g} ratio"]
        fields += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"{name:13s} " + "  ".join(fields))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
