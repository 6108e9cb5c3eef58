"""Acceptance criteria, one test per criterion.

Each test prints a single line `ACCEPTANCE <k> (<name>): PASS/FAIL ...` and
asserts both the property and its stated runtime bound. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they appear.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hrs.model import UNMATCHED, Matching, matching_size
from hrs.harness import (
    GenParams,
    approx_gap_example,
    gen_csmti,
    gen_master_list,
    gen_random,
    master_list_example,
    no_stable_example,
)
from hrs.oracle import (
    SearchBudget,
    exists_a_perfect_occupancy_stable,
    max_occupancy_stable,
    occupancy_stable_matchings,
    smti_complete_stable,
    stable_matchings,
)
from hrs.partition import detect_generalized_master_list, size_descending_partition
from hrs.reduce import (
    check_occ_bounds,
    check_stable_bounds,
    forced_chain_pairs,
    lift_occ,
    lift_stable,
    reduce_occ,
    reduce_stable,
)
from hrs.model import induced_subinstance, HrsInstance
from hrs.solver import check_trace, solve, solve_occupancy, uniform_gs
from hrs.verify import (
    find_blocking_pairs,
    find_occupancy_blocking_pairs,
    is_a_perfect,
    is_occupancy_stable,
    is_stable,
)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({name}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its {limit_seconds}s budget"


@pytest.fixture(scope="module")
def corpus():
    """The 1,000 seeded random instances shared by criteria 4, 5 and 7:
    at most 6 agents and 4 hospitals, sizes up to 3, capacities up to 6."""
    rng = random.Random(20260809)
    instances = []
    for i in range(1000):
        params = GenParams(
            n_agents=rng.randint(1, 6),
            n_hospitals=rng.randint(1, 4),
            size_range=(1, 3),
            cap_range=(1, 6),
            density=rng.choice([0.4, 0.7, 1.0]),
            seed=7_000_000 + i,
        )
        instances.append(gen_random(params))
    return instances


def test_criterion_1_no_stable_instance_regression():
    with criterion(1, "no-stable-instance regression", 1.0):
        inst = no_stable_example()
        stable = stable_matchings(inst)
        assert stable.complete and len(stable.matchings) == 0
        occ = occupancy_stable_matchings(inst)
        n = Matching.from_labeled_pairs(inst, [("a1", "h1"), ("a3", "h2")])
        assert occ.complete and len(occ.matchings) >= 1 and n in occ.matchings
        assert is_occupancy_stable(inst, solve_occupancy(inst))


def test_criterion_2_gap_instance_regression():
    with criterion(2, "approximation-gap regression", 1.0):
        inst = approx_gap_example()
        alg = solve_occupancy(inst)
        assert matching_size(inst, alg) == 3
        best = max_occupancy_stable(inst)
        assert best.complete and best.value == 7
        assert best.matchings[0] == Matching.from_labeled_pairs(
            inst, [("a1", "h2"), ("a2", "h1"), ("a3", "h1")]
        )
        ratio = Fraction(best.value, matching_size(inst, alg))
        assert Fraction(2) < ratio < Fraction(3)
        assert ratio == Fraction(7, 3)


def test_criterion_3_ordering_detection():
    with criterion(3, "ordered-partition detection", 1.0):
        inst = master_list_example()
        assert inst.sizes == (1, 1, 2, 3, 3)
        partition = detect_generalized_master_list(inst)
        assert partition is not None
        owner = partition.class_of(inst.n_agents)
        idx = inst.agent_index
        assert owner[idx["a1"]] == owner[idx["a2"]]
        assert owner[idx["a1"]] < owner[idx["a3"]]
        assert owner[idx["a3"]] < owner[idx["a4"]]
        assert owner[idx["a3"]] < owner[idx["a5"]]
        assert detect_generalized_master_list(no_stable_example()) is None


def test_criterion_4_occupancy_stability_suite(corpus):
    with criterion(4, "solver occupancy-stability over 1000 instances", 120.0):
        existence_budget = SearchBudget(max_solutions=1)
        for inst in corpus:
            matched = solve_occupancy(inst)
            witnesses = find_occupancy_blocking_pairs(inst, matched)
            assert witnesses == [], f"solver left a blocking pair on {inst!r}"
            found = occupancy_stable_matchings(inst, existence_budget)
            assert len(found.matchings) >= 1


def test_criterion_5_approximation_bound(corpus):
    with criterion(5, "strict 3-approximation bound", 300.0):
        for inst in corpus:
            s_alg = matching_size(inst, solve_occupancy(inst))
            best = max_occupancy_stable(inst)
            assert best.complete  # these shapes are well inside the budget
            s_opt = best.value
            if s_alg == 0:
                assert s_opt == 0
            else:
                assert 3 * s_alg > s_opt
        gap = approx_gap_example()
        s_alg = matching_size(gap, solve_occupancy(gap))
        s_opt = max_occupancy_stable(gap).value
        assert Fraction(s_opt, s_alg) > 2


def test_criterion_6_generalized_ordering_stability():
    with criterion(6, "stability under detected orderings", 120.0):
        rng = random.Random(4096)
        for i in range(1000):
            params = GenParams(
                n_agents=rng.randint(1, 6),
                n_hospitals=rng.randint(1, 4),
                size_range=(1, 3),
                cap_range=(1, 6),
                density=rng.choice([0.4, 0.7, 1.0]),
                seed=8_000_000 + i,
            )
            inst = gen_master_list(params)
            partition = detect_generalized_master_list(inst)
            assert partition is not None
            final = solve(inst, partition).final
            assert find_blocking_pairs(inst, final) == []
            if inst.n_agents <= 5:
                for m in stable_matchings(inst).matchings:
                    assert is_occupancy_stable(inst, m)


def test_criterion_7_round_invariants(corpus):
    with criterion(7, "round trace invariants and slot-model equivalence", 120.0):
        for inst in corpus:
            trace = solve(inst, size_descending_partition(inst))
            report = check_trace(inst, trace)
            assert report.ok, report.summary()
        # slot-capacity equivalence on uniform-size instances
        checked = 0
        rng = random.Random(515)
        uniform_pool = [inst for inst in corpus if len(set(inst.sizes)) == 1]
        for i in range(100):
            s = rng.randint(1, 3)
            uniform_pool.append(gen_random(GenParams(
                n_agents=rng.randint(1, 5), n_hospitals=rng.randint(1, 4),
                size_range=(s, s), cap_range=(1, 6),
                density=rng.choice([0.7, 1.0]), seed=9_000_000 + i,
            )))
        for inst in uniform_pool:
            if inst.n_agents > 5:
                continue
            s = inst.sizes[0] if inst.n_agents else 1
            matched = uniform_gs(inst, list(range(inst.n_agents)), list(inst.caps))
            # a hospital without a whole slot holds nobody and blocks no pair,
            # so the unit-size slot instance leaves it out
            slots = [c // s for c in inst.caps]
            kept = {h: i for i, h in enumerate(h for h in range(inst.n_hospitals) if slots[h])}
            slot_inst = HrsInstance(
                inst.agent_labels, (1,) * inst.n_agents,
                [[kept[h] for h in prefs if h in kept] for prefs in inst.agent_prefs],
                [inst.hospital_labels[h] for h in kept], [slots[h] for h in kept],
                [inst.hospital_prefs[h] for h in kept],
            )
            slot_stable = stable_matchings(slot_inst)
            assert slot_stable.complete
            slot_assign = tuple(kept.get(h, UNMATCHED) for h in matched.assign)
            assert slot_assign in {m.assign for m in slot_stable.matchings}
            checked += 1
        assert checked >= 100


def test_criterion_8_occupancy_hardness_reduction():
    with criterion(8, "occupancy-target reduction equivalence", 600.0):
        budget = SearchBudget(max_nodes=10_000_000)
        backward = exhausted = 0
        for i in range(100):
            smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, seed=81_000 + i))
            inst, index = reduce_occ(smti)
            assert check_occ_bounds(inst).ok
            source = smti_complete_stable(smti)
            if source is not None:
                lifted = lift_occ(smti, source, index, inst)  # verifier-checked inside
                assert is_a_perfect(inst, lifted)
                assert is_occupancy_stable(inst, lifted)
            else:
                backward += 1
                result = exists_a_perfect_occupancy_stable(inst, budget)
                if result.complete:
                    assert not result.matchings, f"seed {81_000 + i} broke the equivalence"
                else:
                    exhausted += 1
        assert backward >= 1
        assert exhausted <= 0.2 * backward, f"{exhausted}/{backward} trials ran out of budget"
        print(f"  criterion 8: {backward} backward trials, {exhausted} budget-exhausted")


@pytest.mark.slow
def test_criterion_9_stability_hardness_reduction():
    with criterion(9, "stable-target reduction equivalence", 600.0):
        budget = SearchBudget(max_nodes=50_000_000)
        # forward: 100 instances that do admit a complete stable matching
        done = 0
        seed = 92_000
        while done < 100:
            smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, seed=seed))
            seed += 1
            source = smti_complete_stable(smti)
            if source is None:
                continue
            inst, index = reduce_stable(smti)
            assert check_stable_bounds(inst).ok
            lifted = lift_stable(smti, source, index, inst)  # verifier-checked inside
            assert is_stable(inst, lifted)
            assert set(forced_chain_pairs(smti, index, inst)) <= set(lifted.pairs())
            done += 1

        # backward consistency: all-strict sources always admit a complete
        # stable matching, so their reduced instances must admit stable ones
        for i in range(3):
            smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, n_ties=0, seed=93_000 + i))
            assert smti_complete_stable(smti) is not None
            inst, index = reduce_stable(smti)
            found = stable_matchings(inst, budget)
            assert found.complete and found.matchings

        # backward: single-tied sources with no complete stable matching give
        # reduced instances with no stable matching at all
        negatives = 0
        seed = 91_000
        while negatives < 5 and seed < 91_800:
            smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, n_ties=1, seed=seed))
            seed += 1
            if smti_complete_stable(smti) is not None:
                continue
            inst, index = reduce_stable(smti)
            assert check_stable_bounds(inst).ok
            found = stable_matchings(inst, budget)
            assert found.complete
            assert found.matchings == [], f"seed {seed - 1} broke the equivalence"
            negatives += 1
        assert negatives >= 5, "not enough no-solution sources found"

        # the chase chain minus its first hospital is the no-stable pattern
        smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, n_ties=1, seed=91_003))
        inst, index = reduce_stable(smti)
        strict_label = next(
            lbl for lbl, info in index.men.items() if info["kind"] == "strict"
        )
        info = index.men[strict_label]
        sub = induced_subinstance(
            inst,
            [inst.agent_index[info["agents"][f"q_{t}"]] for t in (1, 2, 3)],
            [inst.hospital_index[info["hospitals"][f"p_{t}"]] for t in (2, 3)],
        )
        sub_result = stable_matchings(sub)
        assert sub_result.complete and sub_result.matchings == []
        print(f"  criterion 9: 100 forward, 3 all-strict, {negatives} negative trials")


def test_criterion_10_linear_time_scaling():
    with criterion(10, "near-linear solve scaling", 60.0):
        shapes = ((500, 20, 100), (5000, 20, 15), (50000, 20, 5))
        runs = []
        for n_agents, n_hospitals, repeats in shapes:
            inst = gen_master_list(GenParams(
                n_agents=n_agents, n_hospitals=n_hospitals,
                size_range=(1, 3), cap_range=(1, 6), density=1.0, seed=42,
            ))
            assert inst.n_edges == n_agents * n_hospitals
            runs.append((inst, size_descending_partition(inst), repeats))
        # round robin: each shape's repeats are spread evenly over the same
        # rounds, so every minimum covers the same stretch of machine time
        rounds = max(repeats for _, _, repeats in runs)
        best = [float("inf")] * len(runs)
        gc.disable()
        try:
            for r in range(rounds):
                for i, (inst, partition, repeats) in enumerate(runs):
                    if r * repeats // rounds != (r + 1) * repeats // rounds:
                        best[i] = min(best[i], _timed_solve(inst, partition))
        finally:
            gc.enable()
        timings = {inst.n_edges: t for (inst, _, _), t in zip(runs, best)}
        sizes = sorted(timings)
        ratios = [timings[sizes[i + 1]] / timings[sizes[i]] for i in range(len(sizes) - 1)]
        print(f"  criterion 10: times {[f'{timings[m] * 1000:.1f}ms' for m in sizes]}, "
              f"decade ratios {[f'{r:.2f}' for r in ratios]}")
        for r in ratios:
            assert r <= 15.0, f"solve time grew by {r:.2f}x over one decade"


def _timed_solve(inst, partition):
    # CPU time of this process: on a shared machine, wall time also counts
    # the stretches in which other work holds the CPU
    start = time.process_time()
    solve(inst, partition)
    return time.process_time() - start
