"""Turn two sets of perfbench run records into one before/after file.

    python3 scripts/bench_pairs.py PARENT_RUNS CHANGE_RUNS --out BENCH_<n>.json \\
        --description "what the change does"

PARENT_RUNS and CHANGE_RUNS are ``.perfbench_runs/`` directories written by
``perfbench/run.py``, one per side, on the same seeds. Untraced records
(``--trace 0``) give the end-to-end metrics that BENCHMARK.json lists; traced
records (``--trace 1``) give its per-layer metrics, those that read zero on
every run left out. For every workload and metric the output holds each side's median, quartiles (inclusive method) and
per-seed values, the number of seeds both sides ran (``pairs``), and in how
many of those the change was better in the metric's direction. Seeds only one
side ran are left out. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """The records under ``directory``, by (workload, trace) and then seed."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def _sig(value: float) -> float:
    return float(f"{value:.6g}")


def summary(by_seed: dict[int, float]) -> dict:
    """Median, quartiles and the per-seed values of one side."""
    values = sorted(by_seed.values())
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {
        "median": _sig(median),
        "q1": _sig(q1),
        "q3": _sig(q3),
        "by_seed": {str(seed): _sig(v) for seed, v in sorted(by_seed.items())},
    }


def compare(parent: dict[int, dict], change: dict[int, dict], better: dict[str, str],
            keep_zero: bool) -> dict:
    """One workload's paired comparison over the seeds both sides ran, for
    each metric of ``better`` (name -> "higher" or "lower") that the records
    hold; with ``keep_zero`` false, a metric zero on every run is left out."""
    seeds = sorted(parent.keys() & change.keys())
    metrics = {}
    for name, direction in better.items():
        if not seeds or not all(name in side[s]["metrics"] for side in (parent, change) for s in seeds):
            continue
        p = {s: parent[s]["metrics"][name]["value"] for s in seeds}
        c = {s: change[s]["metrics"][name]["value"] for s in seeds}
        if not keep_zero and not any(p.values()) and not any(c.values()):
            continue
        won = sum(c[s] > p[s] if direction == "higher" else c[s] < p[s] for s in seeds)
        metrics[name] = {
            "better": direction,
            "parent": summary(p),
            "change": summary(c),
            "pairs": len(seeds),
            "change_better_in": won,
        }
    return {
        "seeds": seeds,
        "metrics": metrics,
        "failed_checks": {
            "parent": sum(parent[s]["checks"]["failed"] for s in seeds),
            "change": sum(change[s]["checks"]["failed"] for s in seeds),
        },
        "attempted_checks": {
            "parent": sum(parent[s]["checks"]["attempted"] for s in seeds),
            "change": sum(change[s]["checks"]["attempted"] for s in seeds),
        },
    }


def build(parent_dir: Path, change_dir: Path, description: str) -> dict:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    records = [r for side in (parent, change) for runs in side.values() for r in runs.values()]
    machines = sorted({f"{r['nproc']} vCPU, Python {r['python']}" for r in records})
    out: dict = {
        "description": description,
        "machine": "; ".join(machines),
        "method": "",
        "workloads": {},
        "traced": {"method": "", "workloads": {}},
    }
    for trace, section, better in ((0, out, end_to_end), (1, out["traced"], per_layer)):
        keys = sorted(k for k in parent.keys() & change.keys() if k[1] == trace)
        seconds = sorted({r["seconds"] for k in keys for r in parent[k].values()})
        section["method"] = (
            f"records of python3 perfbench/run.py --workload W --seed S --seconds "
            f"{'/'.join(f'{s:g}' for s in seconds)} --trace {trace}, one per workload, seed "
            "and side; per metric, each side's median and quartiles over the seeds both "
            "sides ran, and on how many of them the change was better"
        )
        for workload, _ in keys:
            section["workloads"][workload] = compare(
                parent[workload, trace], change[workload, trace], better, keep_zero=trace == 0,
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's .perfbench_runs directory")
    parser.add_argument("change", type=Path, help="the change's .perfbench_runs directory")
    parser.add_argument("--out", type=Path, required=True, help="the file to write")
    parser.add_argument("--description", required=True, help="what the change does")
    args = parser.parse_args(argv)
    bench = build(args.parent, args.change, args.description)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
