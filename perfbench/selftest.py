"""Self-test of the benchmark itself (not of hrs):

    python3 perfbench/selftest.py

1. Every workload's set-up is a pure function of the seed: the same seed gives
   equal inputs, another seed different ones.
2. Planted faults reach the failure count: a solver output with a blocking
   pair, a trace with a tampered round (caught by check_trace and by the
   kernel replay), an op that raises, and an oracle call that runs out of its
   node budget.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run

workloads = run.load_hrs()

from hrs import GenParams, Matching, gen_random  # noqa: E402
from hrs.harness import approx_gap_example  # noqa: E402

RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {what}")


def check_reproducible() -> None:
    off = run.Tracer(False)
    for name, cls in workloads.WORKLOADS.items():
        # one input set alive at a time: the pipeline's is 1M edges
        first, again, other = (hash(tuple(cls().setup(seed, off))) for seed in (7, 7, 8))
        report(first == again, f"{name}: seed 7 reproduces identical inputs")
        report(first != other, f"{name}: seed 8 gives different inputs")


def run_planted(op, item, tamper, traced: bool) -> workloads.Checks:
    """Run one op with ``workloads.solve`` replaced by a tampering wrapper."""
    checks = workloads.Checks()
    tracer = run.Tracer(traced)
    honest = workloads.solve
    workloads.solve = lambda inst, part: tamper(inst, honest(inst, part))
    try:
        run.run_op(op, item, tracer, checks)
        tracer.run_deferred()
    finally:
        workloads.solve = honest
    return checks


def blocking_final(inst, trace):
    return replace(trace, final=Matching.empty(inst))


def tampered_round(inst, trace):
    first = replace(trace.rounds[0], matching=Matching.empty(inst))
    return replace(trace, rounds=(first,) + trace.rounds[1:])


def check_planted_faults() -> None:
    inst = gen_random(GenParams(n_agents=40, n_hospitals=5, seed=3))
    pipeline = workloads.Pipeline()

    clean = run_planted(pipeline, inst, lambda i, tr: tr, traced=True)
    report(clean.attempted > 0 and clean.failed == 0, "untampered op passes every check")

    checks = run_planted(pipeline, inst, blocking_final, traced=False)
    report(checks.failed > 0, f"matching with a blocking pair is counted ({checks.failed}/{checks.attempted})")

    checks = run_planted(pipeline, inst, tampered_round, traced=False)
    report(checks.failed > 0, f"tampered round fails check_trace ({checks.failed}/{checks.attempted})")

    traced = run_planted(pipeline, inst, tampered_round, traced=True)
    report(
        traced.failed > checks.failed,
        f"tampered round also fails the kernel replay ({traced.failed}/{traced.attempted})",
    )

    def crash(inst, trace):
        raise RuntimeError("planted")

    checks = run_planted(pipeline, inst, crash, traced=False)
    report(checks.failed == 1, f"an op that raises is one failed check ({checks.failed}/{checks.attempted})")

    budget = workloads.NODE_BUDGET
    workloads.NODE_BUDGET = 3
    try:
        checks = workloads.Checks()
        run.run_op(workloads.Ratio(), approx_gap_example(), run.Tracer(False), checks)
    finally:
        workloads.NODE_BUDGET = budget
    report(checks.failed > 0, f"budget_exhausted oracle verdict is counted ({checks.failed}/{checks.attempted})")


if __name__ == "__main__":
    check_planted_faults()
    check_reproducible()
    sys.exit(0 if all(RESULTS) else 1)
