"""The benchmark's workloads: seeded set-up, one op, and the op's output checks.

Each workload turns a seed into a list of items (its inputs) and defines one
op per item. Every call into ``hrs`` goes through ``Tracer.call`` so the traced
run can attribute time to layers; counters that need a scan of their own
(pairs scanned, kernel replays) are deferred until the traced op is over.

The benchmark's own workloads are two mixes: ``solve-verify`` walks a scaled
pipeline instance and the master-list markets, ``exact-oracles`` walks the
factor-3 trials and the gadget sources. Each part also runs on its own, at the
sizes the parts were first specified with.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hrs import (
    UNMATCHED,
    GenParams,
    SearchBudget,
    check_trace,
    detect_generalized_master_list,
    exists_a_perfect_occupancy_stable,
    find_blocking_pairs,
    gen_csmti,
    gen_master_list,
    gen_random,
    is_complete,
    is_occupancy_stable,
    is_stable,
    is_weakly_stable,
    lift_occ,
    lift_stable,
    matching_from_json,
    matching_size,
    matching_to_json,
    max_occupancy_stable,
    parse_instance,
    project_occ,
    project_stable,
    reduce_occ,
    reduce_stable,
    serialize_instance,
    size_descending_partition,
    smti_complete_stable,
    solve,
    solve_occupancy,
    stable_matchings,
    uniform_gs,
    validate_ordered_partition,
)
from hrs.harness import approx_gap_example
from hrs.oracle import auto_interfaces

# Every oracle call gets this node budget and never a deadline, so a verdict
# never depends on how fast the machine happens to be.
NODE_BUDGET = 20_000_000


class Checks:
    """Output-check accounting: a failed check is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# --- shared checks -------------------------------------------------------------


def pairs_scanned(inst, matching) -> int:
    """Candidate pairs a full verifier scan visits: for each agent, the
    entries listed before its assignment, or its whole list when unmatched."""
    total = 0
    for prefs, h in zip(inst.agent_prefs, matching.assign):
        total += len(prefs) if h == UNMATCHED else prefs.index(h)
    return total


def _count_full_scan(t, inst, matching) -> None:
    t.add("verify.scan_s", t.last_duration())
    t.defer(lambda: t.add("verify.pairs_scanned", pairs_scanned(inst, matching)))


def exists(t, predicate, inst, matching) -> bool:
    """Run an existence verifier; a True answer means every pair was scanned."""
    ok = t.call("verify.exists", predicate, inst, matching)
    if ok:
        _count_full_scan(t, inst, matching)
    return ok


def collect(t, inst, matching) -> list:
    witnesses = t.call("verify.collect", find_blocking_pairs, inst, matching)
    _count_full_scan(t, inst, matching)
    t.add("verify.witnesses", len(witnesses))
    return witnesses


def replay_kernel(t, checks: Checks, inst, trace) -> None:
    """Re-run ``uniform_gs`` on every round's class and residual capacities;
    it must reproduce the round matching the solver recorded."""
    for rnd in trace.rounds:
        replayed = t.call("solver.kernel", uniform_gs, inst, rnd.agents, rnd.residual_caps)
        checks.expect(replayed == rnd.matching, f"kernel replay differs in round {rnd.index}")
    t.add("solver.rounds", len(trace.rounds))
    t.add("solver.matched_agents", len(trace.final.matched_agents()))
    t.add("solver.matched_size", matching_size(inst, trace.final))


def audit_trace(t, checks: Checks, inst, trace) -> None:
    report = t.call("solver.check_trace", check_trace, inst, trace)
    checks.expect(report.ok, f"check_trace: {report.summary()[:300]}")
    t.defer(lambda: replay_kernel(t, checks, inst, trace))


def input_edges(item) -> int:
    if hasattr(item, "n_edges"):
        return item.n_edges
    return sum(len(group) for prefs in item.men_prefs for group in prefs)


def generate(t, fn, *args):
    item = t.call("harness.gen", fn, *args)
    t.add("harness.gen_edges", input_edges(item))
    return item


# --- workloads ------------------------------------------------------------------


class Pipeline:
    """gen | serialize | parse | solve | JSON | verify | audit; 1M edges at
    the default 50k agents x 20 hospitals."""

    def __init__(self, n_agents: int = 50_000):
        self.params = GenParams(
            n_agents=n_agents, n_hospitals=20, size_range=(1, 3), cap_range=(1, 6), density=1.0,
        )

    def setup(self, seed: int, t) -> list:
        return [generate(t, gen_random, replace(self.params, seed=seed))]

    def op(self, inst, t, checks: Checks) -> None:
        text = t.call("model.serialize", serialize_instance, inst)
        t.add("model.text_bytes", len(text.encode()))
        parsed = t.call("model.parse", parse_instance, text)
        checks.expect(parsed == inst, "parse(serialize(instance)) differs from the instance")
        part = t.call("partition.size_desc", size_descending_partition, parsed)
        t.add("partition.classes", len(part.classes))
        trace = t.call("solver.solve", solve, parsed, part)
        data = t.call("model.matching_json", matching_to_json, parsed, trace.final)
        matching = t.call("model.matching_json", matching_from_json, parsed, data)
        checks.expect(matching == trace.final, "matching JSON round trip differs")
        checks.expect(
            exists(t, is_occupancy_stable, parsed, matching),
            "size-descending output is not occupancy-stable",
        )
        witnesses = collect(t, parsed, matching)
        stable = exists(t, is_stable, parsed, matching)
        checks.expect(stable == (not witnesses), "witness count disagrees with is_stable")
        audit_trace(t, checks, parsed, trace)


class Market:
    """Oversubscribed master-list market: gen-ML and size-descending solves."""

    params = GenParams(
        n_agents=6_000, n_hospitals=75, size_range=(1, 3), cap_range=(40, 160),
        density=0.08,
    )

    def __init__(self, markets: int = 4):
        # the generator draws the class order per instance, and op cost
        # depends on it, so each run averages over several markets
        self.markets = markets

    def setup(self, seed: int, t) -> list:
        rng = random.Random(seed)
        return [
            generate(t, gen_master_list, replace(self.params, seed=rng.getrandbits(32)))
            for _ in range(self.markets)
        ]

    def op(self, inst, t, checks: Checks) -> None:
        part = t.call("partition.detect", detect_generalized_master_list, inst)
        if not checks.expect(part is not None, "no generalized master list detected"):
            return
        t.add("partition.classes", len(part.classes))
        report = t.call("partition.validate", validate_ordered_partition, inst, part, require_gen_ml=True)
        checks.expect(report.ok, f"detected partition invalid: {report.summary()[:300]}")
        trace = t.call("solver.solve", solve, inst, part)
        checks.expect(exists(t, is_stable, inst, trace.final), "gen-ML output is not stable")
        audit_trace(t, checks, inst, trace)
        part = t.call("partition.size_desc", size_descending_partition, inst)
        t.add("partition.classes", len(part.classes))
        trace = t.call("solver.solve", solve, inst, part)
        checks.expect(
            exists(t, is_occupancy_stable, inst, trace.final),
            "size-descending output is not occupancy-stable",
        )
        audit_trace(t, checks, inst, trace)


class Ratio:
    """Exact factor-3 trials: solver size against the max-occ oracle."""

    template = GenParams(n_agents=7, n_hospitals=5, size_range=(1, 3), cap_range=(1, 6), density=0.7)

    def __init__(self, trials: int = 16_000):
        self.trials = trials

    def setup(self, seed: int, t) -> list:
        """Trial shapes cycle through every (agents, hospitals) pair up to the
        template's counts, so every run has the same mix of shapes."""
        shapes = [
            (a, h)
            for a in range(1, self.template.n_agents + 1)
            for h in range(1, self.template.n_hospitals + 1)
        ]
        rng = random.Random(seed)
        items = [generate(t, approx_gap_example)]
        for i in range(self.trials):
            n_agents, n_hospitals = shapes[i % len(shapes)]
            params = replace(
                self.template, n_agents=n_agents, n_hospitals=n_hospitals,
                seed=rng.getrandbits(32),
            )
            items.append(generate(t, gen_random, params))
        return items

    def op(self, inst, t, checks: Checks) -> None:
        alg = t.call("solver.solve", solve_occupancy, inst)
        t.defer(lambda: self._replay(t, checks, inst, alg))
        checks.expect(exists(t, is_occupancy_stable, inst, alg), "solver output is not occupancy-stable")
        best = t.call("oracle.max_occ", max_occupancy_stable, inst, SearchBudget(max_nodes=NODE_BUDGET))
        t.add("oracle.max_occ_nodes", best.nodes)
        if not checks.expect(best.complete, f"max-occ oracle: {best.verdict} after {best.nodes} nodes"):
            return
        if not checks.expect(bool(best.matchings), "oracle found no occupancy-stable matching"):
            return
        checks.expect(
            exists(t, is_occupancy_stable, inst, best.matchings[0]),
            "oracle optimum is not occupancy-stable",
        )
        s_alg, s_best = matching_size(inst, alg), best.value
        checks.expect(s_alg <= s_best, f"solver size {s_alg} beats the optimum {s_best}")
        checks.expect(s_best == 0 or 3 * s_alg > s_best, f"factor 3 violated: {s_alg} vs {s_best}")

    @staticmethod
    def _replay(t, checks: Checks, inst, alg) -> None:
        trace = solve(inst, size_descending_partition(inst))
        checks.expect(trace.final == alg, "solve trace differs from solve_occupancy")
        replay_kernel(t, checks, inst, trace)


class Gadget:
    """Both hardness reductions on restricted marriage-with-ties sources."""

    # (men per side, tied men): every combination for 3 to 6 per side
    strata = [(n, k) for n in range(3, 7) for k in range(n + 1)]

    def __init__(self, sources: int = 1056):
        self.sources = sources
        self.rejected_seeds: list[int] = []

    def setup(self, seed: int, t) -> list:
        """Sources cycle through the strata, so every run has the same mix of
        sizes and tie counts; a seed the generator rejects is recorded and
        replaced by the next draw for the same stratum."""
        rng = random.Random(seed)
        items = []
        self.rejected_seeds = []
        while len(items) < self.sources:
            n, ties = self.strata[len(items) % len(self.strata)]
            params = GenParams(
                n_agents=n, n_hospitals=n, n_ties=ties, seed=rng.getrandbits(32),
            )
            try:
                items.append(generate(t, gen_csmti, params))
            except ValueError:
                self.rejected_seeds.append(params.seed)
        return items

    def op(self, smti, t, checks: Checks) -> None:
        budget = SearchBudget(max_nodes=NODE_BUDGET)
        source = t.call("oracle.smti", smti_complete_stable, smti)

        inst, index = t.call("reduce.stable", reduce_stable, smti)
        interfaces = t.call("oracle.auto_interfaces", auto_interfaces, inst)
        t.add("oracle.interfaces", len(interfaces))
        found = t.call(
            "oracle.decompose", stable_matchings, inst, budget,
            strategy="decompose", interfaces=interfaces,
        )
        t.add("oracle.decompose_nodes", found.nodes)
        t.add("reduce.gadget_edges", inst.n_edges)
        if checks.expect(found.complete, f"decompose: {found.verdict} after {found.nodes} nodes"):
            checks.expect(
                bool(found.matchings) == (source is not None),
                "stable-target equivalence broken",
            )
        if source is not None:
            lifted = t.call("reduce.lift", lift_stable, smti, source, index, inst)
            if found.complete:
                checks.expect(lifted in found.matchings, "lifted matching not among the stable matchings")
        if found.matchings:
            back = t.call("reduce.project", project_stable, smti, found.matchings[0], index, inst)
            checks.expect(is_complete(smti, back) and is_weakly_stable(smti, back), "projection not a complete stable matching")

        inst, index = t.call("reduce.occ", reduce_occ, smti)
        perfect = t.call("oracle.a_perfect", exists_a_perfect_occupancy_stable, inst, budget)
        t.add("oracle.a_perfect_nodes", perfect.nodes)
        t.add("reduce.gadget_edges", inst.n_edges)
        if checks.expect(perfect.complete, f"a-perfect: {perfect.verdict} after {perfect.nodes} nodes"):
            checks.expect(
                bool(perfect.matchings) == (source is not None),
                "occ-target equivalence broken",
            )
        if source is not None:
            t.call("reduce.lift", lift_occ, smti, source, index, inst)
        if perfect.matchings:
            back = t.call("reduce.project", project_occ, smti, perfect.matchings[0], index, inst)
            checks.expect(is_complete(smti, back) and is_weakly_stable(smti, back), "projection not a complete stable matching")


class Mix:
    """Several workloads walked as one: an item is (part index, part item) and
    an op is that part's op on it."""

    def __init__(self, *parts):
        self.parts = parts

    @property
    def rejected_seeds(self) -> list[int]:
        return [s for part in self.parts for s in getattr(part, "rejected_seeds", ())]

    def setup(self, seed: int, t) -> list:
        return [(i, item) for i, part in enumerate(self.parts) for item in part.setup(seed, t)]

    def op(self, item, t, checks: Checks) -> None:
        i, inner = item
        self.parts[i].op(inner, t, checks)


WORKLOADS = {
    # the benchmark's workloads (BENCHMARK.json). A walk of the inputs takes
    # 6-8 s, so a run holds a few walks, and each walk holds enough markets,
    # trials and sources that op cost barely depends on the seed
    "solve-verify": lambda: Mix(Pipeline(n_agents=10_000), Market(markets=8)),
    "exact-oracles": lambda: Mix(Ratio(trials=4_200), Gadget(sources=88)),
    # the parts on their own, at full size
    "pipeline-1m": Pipeline,
    "market-ml": Market,
    "ratio-exact": Ratio,
    "gadget-chain": Gadget,
}
