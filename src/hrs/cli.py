"""Command-line front end.

Machine output (JSON or CSV) goes to stdout, diagnostics to stderr, and the
exit code is scriptable: 0 success / property holds, 1 property fails,
2 usage error, 3 search budget exhausted, 4 I/O or parse error. No subcommand
writes a file unless an ``--out`` (or ``--index``/``--trace``) path is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import harness, oracle, reduce as reduction
from .model import (
    FormatError,
    HrsError,
    InstanceError,
    matching_from_json,
    matching_to_json,
    parse_instance,
    serialize_instance,
)
from .oracle import SearchBudget
from .partition import (
    detect_generalized_master_list,
    parse_partition,
    size_descending_partition,
)
from .solver import solve, solve_matching, solve_occupancy, trace_to_json
from .verify import find_blocking_pairs, find_occupancy_blocking_pairs

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when none is given."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload) -> None:
    _write(None, _json_line(payload))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _default_max_nodes(args) -> int:
    if args.max_nodes is not None:
        return args.max_nodes
    env = os.environ.get("HRS_MAX_NODES")
    return int(env) if env else 10_000_000


def _resolve_partition(inst, ordering: str):
    """The partition ``ordering`` names; None when ``detect`` finds none."""
    if ordering == "size-desc":
        return size_descending_partition(inst)
    if ordering == "detect":
        return detect_generalized_master_list(inst)
    if ordering.startswith("file:"):
        return parse_partition(inst, _read_text(ordering[5:]))
    raise FormatError(f"unknown ordering {ordering!r}")


def _cmd_solve(args) -> int:
    """Without ``--trace`` no trace is built: the size-descending rounds run
    as ``solve_occupancy``, any other ordering as ``solve_matching``."""
    inst = parse_instance(_read_text(args.file))
    if args.ordering == "size-desc" and not args.trace:
        _emit(matching_to_json(inst, solve_occupancy(inst)))
        return EXIT_OK
    partition = _resolve_partition(inst, args.ordering)
    if partition is None:
        print("hrs solve: no generalized master list ordering exists", file=sys.stderr)
        return EXIT_PROPERTY_FAILS
    if args.trace:
        trace = solve(inst, partition)
        _write(args.trace, _json_line(trace_to_json(inst, trace)))
    _emit(matching_to_json(inst, trace.final if args.trace else solve_matching(inst, partition)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(_read_text(args.file))
    matching = matching_from_json(inst, json.loads(_read_text(args.matching)))
    finder = (
        find_occupancy_blocking_pairs if args.notion == "occupancy" else find_blocking_pairs
    )
    try:
        witnesses = finder(inst, matching)
    except ValueError as exc:  # "infeasible matching: <the first fault>"
        print(f"hrs verify: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILS
    _emit([w.to_json(inst) for w in witnesses])
    return EXIT_OK if not witnesses else EXIT_PROPERTY_FAILS


# CLI query name -> oracle query
_QUERIES = {
    "stable": oracle.stable_matchings,
    "occ-stable": oracle.occupancy_stable_matchings,
    "max-occ": oracle.max_occupancy_stable,
    "a-perfect": oracle.exists_a_perfect_occupancy_stable,
}


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read_text(args.file))
    budget = SearchBudget(max_nodes=_default_max_nodes(args), max_solutions=args.max_solutions)
    result = _QUERIES[args.query](inst, budget)
    payload = result.to_json(inst)
    if args.query == "a-perfect":
        payload["exists"] = bool(result.matchings)
    _emit(payload)
    return EXIT_OK if result.complete else EXIT_BUDGET


def _cmd_reduce(args) -> int:
    smti = reduction.parse_smti(_read_text(args.file))
    builder = reduction.reduce_occ if args.target == "occ" else reduction.reduce_stable
    inst, index = builder(smti)
    _write(args.out, serialize_instance(inst))
    if args.index:
        _write(args.index, _json_line(index.to_json()))
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


# CLI family name -> (generator, serializer of what it returns)
_GENERATORS = {
    "uniform": (harness.gen_random, serialize_instance),
    "gen-ml": (harness.gen_master_list, serialize_instance),
    "csmti": (harness.gen_csmti, reduction.serialize_smti),
}


def _cmd_gen(args) -> int:
    generate, serialize = _GENERATORS[args.family]
    params = harness.GenParams(
        n_agents=args.agents,
        n_hospitals=args.hospitals,
        size_range=_parse_range(args.sizes),
        cap_range=_parse_range(args.caps),
        density=args.density,
        seed=args.seed,
        n_ties=args.ties,
    )
    _write(args.out, serialize(generate(params)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    params = harness.GenParams(
        n_agents=args.agents, n_hospitals=args.hospitals,
        size_range=_parse_range(args.sizes), cap_range=_parse_range(args.caps),
        density=args.density, seed=args.seed,
    )
    budget = SearchBudget(max_nodes=_default_max_nodes(args))
    report = harness.run_ratio_experiment(params, args.trials, budget, jobs=args.jobs)
    _write(args.out, report.to_csv())
    if args.out:
        _write(args.out + ".json", _json_line(report.aggregates))
    if report.aggregates["violations"]:
        print("hrs bench: approximation bound violated", file=sys.stderr)
        return EXIT_PROPERTY_FAILS
    if report.aggregates["budget_exhausted"] == report.aggregates["trials"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_test(args) -> int:
    budget = SearchBudget(max_nodes=_default_max_nodes(args))
    params = replace(harness._SUITES[args.suite][0], seed=args.seed)
    report = harness.run_property_suite(args.suite, args.trials, budget, params)
    _emit(report.to_json())
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrs",
        description="Matching with sized agents: solve, verify, brute force, reduce, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the round-based solver")
    p.add_argument("file")
    p.add_argument("--ordering", default="size-desc",
                   help="size-desc | detect | file:<path> (default size-desc)")
    p.add_argument("--trace", help="write the rounds to this JSON file (hrs-trace 2: partition, "
                   "per round its pairs and listed residual capacities, final matching)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a matching for blocking pairs")
    p.add_argument("file")
    p.add_argument("--matching", required=True, help="matching JSON file")
    p.add_argument("--notion", choices=["classic", "occupancy"], default="classic")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive queries on small instances")
    p.add_argument("file")
    p.add_argument("--query", choices=list(_QUERIES), required=True)
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node budget (default: HRS_MAX_NODES or 10^7)")
    p.add_argument("--max-solutions", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="build a hardness-gadget instance from a marriage instance")
    p.add_argument("file", help=".smti input")
    p.add_argument("--target", choices=["occ", "stable"], required=True)
    p.add_argument("--out", help="write the reduced instance here instead of stdout")
    p.add_argument("--index", help="write the gadget label book to this JSON file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--family", choices=list(_GENERATORS), default="uniform")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--hospitals", type=int, default=0)
    p.add_argument("--sizes", default="1:3", help="LO:HI (default 1:3)")
    p.add_argument("--caps", default="1:6", help="LO:HI (default 1:6)")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--ties", type=int, default=None, help="csmti: number of tied men")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="experiments")
    bench_sub = p.add_subparsers(dest="experiment", required=True)
    b = bench_sub.add_parser("ratio", help="solver size vs. exact optimum")
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--max-nodes", type=int, default=None)
    b.add_argument("--agents", type=int, default=6, help="upper bound per trial")
    b.add_argument("--hospitals", type=int, default=4, help="upper bound per trial")
    b.add_argument("--sizes", default="1:3")
    b.add_argument("--caps", default="1:6")
    b.add_argument("--density", type=float, default=0.7)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--out", help="CSV path; aggregates go to <out>.json")
    b.set_defaults(func=_cmd_bench)

    p = sub.add_parser("test", help="run a named property suite")
    p.add_argument("--suite", choices=list(harness.SUITES), required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, InstanceError, UnicodeDecodeError) as exc:
        print(f"hrs: {exc}", file=sys.stderr)
        return EXIT_IO
    except oracle.BudgetExhausted as exc:
        print(f"hrs: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"hrs: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"hrs: bad JSON input: {exc}", file=sys.stderr)
        return EXIT_IO
    except HrsError as exc:
        print(f"hrs: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILS
    except ValueError as exc:
        print(f"hrs: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
