import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(directory, workload, seed, trace, metrics, failed=0):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 40, "trace": trace,
        "git_sha": "unknown", "python": "3.11.7", "nproc": 2,
        "checks": {"attempted": 100, "failed": failed, "messages": []},
        "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_bench_pairs_on_synthetic_records(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    ops = {1: (10, 15), 2: (11, 10.5), 3: (12, 13), 4: (13, 20), 5: (14, 14)}
    for seed, (p, c) in ops.items():
        _record(parent, "exact-oracles", seed, 0, {"ops_per_s": p, "setup_s": 0.5, "peak_rss_mb": 37})
        _record(change, "exact-oracles", seed, 0, {"ops_per_s": c, "setup_s": 0.4, "peak_rss_mb": 38},
                failed=seed == 2)
    # a seed only one side ran is left out
    _record(change, "exact-oracles", 6, 0, {"ops_per_s": 1, "setup_s": 1, "peak_rss_mb": 1})
    for seed in (7, 8):
        _record(parent, "exact-oracles", seed, 1, {"oracle.auto_interfaces_s": 2e-4, "solver.solve_s": 0.0})
        _record(change, "exact-oracles", seed, 1, {"oracle.auto_interfaces_s": 7e-5, "solver.solve_s": 0.0})

    assert bench_pairs.main([str(parent), str(change), "--out", str(out), "--description", "d"]) == 0
    bench = json.loads(out.read_text())
    assert bench["description"] == "d" and bench["machine"] == "2 vCPU, Python 3.11.7"
    wl = bench["workloads"]["exact-oracles"]
    assert wl["seeds"] == [1, 2, 3, 4, 5]
    assert wl["failed_checks"] == {"parent": 0, "change": 1}
    assert wl["attempted_checks"] == {"parent": 500, "change": 500}
    ops_per_s = wl["metrics"]["ops_per_s"]
    assert ops_per_s["better"] == "higher"
    assert ops_per_s["parent"] == {
        "median": 12, "q1": 11, "q3": 13,
        "by_seed": {"1": 10, "2": 11, "3": 12, "4": 13, "5": 14},
    }
    assert (ops_per_s["change"]["median"], ops_per_s["change"]["q1"], ops_per_s["change"]["q3"]) == (14, 13, 15)
    # better on seeds 1, 3 and 4; a tie is not a win
    assert ops_per_s["pairs"] == 5 and ops_per_s["change_better_in"] == 3
    setup = wl["metrics"]["setup_s"]
    assert setup["better"] == "lower" and setup["change_better_in"] == 5
    assert wl["metrics"]["peak_rss_mb"]["change_better_in"] == 0

    traced = bench["traced"]["workloads"]["exact-oracles"]
    assert traced["seeds"] == [7, 8]
    # a layer that reads zero on every run is left out
    assert list(traced["metrics"]) == ["oracle.auto_interfaces_s"]
    layer = traced["metrics"]["oracle.auto_interfaces_s"]
    assert layer["parent"]["median"] == 2e-4 and layer["change"]["median"] == 7e-5
    assert layer["change_better_in"] == 2

