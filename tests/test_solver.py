import json
import random
import time
from dataclasses import replace

import pytest

from hrs.model import (
    UNMATCHED, HrsInstance, InstanceError, Matching, is_feasible, matching_from_json, matching_size,
)
from hrs.partition import (
    OrderedPartition,
    detect_generalized_master_list,
    size_descending_partition,
)
from hrs.solver import (
    SolveRound, SolveTrace, check_trace, solve, solve_occupancy, trace_to_json, uniform_gs,
)
from hrs.verify import find_blocking_pairs, find_occupancy_blocking_pairs, is_occupancy_stable
from hrs.harness import GenParams, gen_master_list, gen_random, no_stable_example

from conftest import small_random_instances


def test_solver_recovers_known_occupancy_stable(no_stable_inst):
    m = solve_occupancy(no_stable_inst)
    assert m == Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert matching_size(no_stable_inst, m) == 3
    assert is_occupancy_stable(no_stable_inst, m)


def test_solver_gap_instance(gap_inst):
    # the big agent grabs its top choice in round one, starving the round-two
    # pair; total size lands at 3 while the best occupancy-stable hits 7
    m = solve_occupancy(gap_inst)
    assert m == Matching.from_labeled_pairs(gap_inst, [("a1", "h1")])
    assert matching_size(gap_inst, m) == 3
    assert is_occupancy_stable(gap_inst, m)


def test_uniform_gs_single_round(no_stable_inst):
    m = uniform_gs(no_stable_inst, [no_stable_inst.agent_index["a3"]], [1, 2])
    assert m == Matching.from_labeled_pairs(no_stable_inst, [("a3", "h2")])


def test_uniform_gs_no_room(no_stable_inst):
    a3 = no_stable_inst.agent_index["a3"]
    assert uniform_gs(no_stable_inst, [a3], [0, 1]) == Matching.empty(no_stable_inst)


def test_uniform_gs_unit_sizes_is_classic_da():
    inst = HrsInstance.build(
        [
            ("a1", 1, ["h1", "h2"]),
            ("a2", 1, ["h1", "h2"]),
            ("a3", 1, ["h1"]),
        ],
        [("h1", 1, ["a3", "a1", "a2"]), ("h2", 1, ["a1", "a2"])],
    )
    m = uniform_gs(inst, [0, 1, 2], list(inst.caps))
    # a3 wins h1, a1 falls to h2, a2 ends unmatched
    assert m == Matching.from_labeled_pairs(inst, [("a3", "h1"), ("a1", "h2")])


def test_uniform_gs_proposal_order_invariance():
    rng = random.Random(5)
    for inst in small_random_instances(20, seed=17):
        agents = [a for a in range(inst.n_agents) if inst.sizes[a] == 1]
        if not agents:
            continue
        caps = list(inst.caps)
        baseline = uniform_gs(inst, agents, caps)
        for _ in range(4):
            shuffled = agents[:]
            rng.shuffle(shuffled)
            assert uniform_gs(inst, shuffled, caps) == baseline


def test_uniform_gs_rejects_mixed_sizes(no_stable_inst):
    with pytest.raises(ValueError, match=r"^class mixes sizes \[1, 2\]$"):
        uniform_gs(no_stable_inst, [0, 2], [1, 2])
    with pytest.raises(ValueError, match="^negative residual capacity$"):
        uniform_gs(no_stable_inst, [0], [-1, 2])
    with pytest.raises(ValueError, match="^residual capacity vector has wrong length$"):
        uniform_gs(no_stable_inst, [0], [1])
    # a repeated agent once proposed twice and left a1 at h2 with h1 empty; a
    # negative index ran an agent from the end, and one past the end IndexError
    inst = HrsInstance.build(
        [("a1", 1, ["h1", "h2"]), ("a2", 1, ["h1"])],
        [("h1", 1, ["a2", "a1"]), ("h2", 1, ["a1"])],
    )
    with pytest.raises(ValueError, match="^class repeats agent a1$"):
        uniform_gs(inst, [0, 0], [1, 1])
    with pytest.raises(ValueError, match="^class agent index -1 out of range$"):
        uniform_gs(inst, [-1], [1, 1])
    with pytest.raises(ValueError, match="^class agent index 5 out of range$"):
        uniform_gs(inst, [5], [1, 1])
    # a float once passed the range check and raised TypeError on the sizes
    with pytest.raises(ValueError, match=r"^class agent index 0\.0 out of range$"):
        uniform_gs(inst, [0.0], [1, 1])
    with pytest.raises(ValueError, match="^class agent index 'a1' out of range$"):
        uniform_gs(inst, ["a1"], [1, 1])
    # validating a generator once used it up, so no agent ran
    agents = (a for a in [0, 1])
    assert uniform_gs(no_stable_inst, agents, no_stable_inst.caps) == Matching.from_pairs(
        no_stable_inst, [(0, 1), (1, 0)]
    )
    with pytest.raises(ValueError, match=r"^class mixes sizes \[1, 2\]$"):
        uniform_gs(no_stable_inst, iter([0, 2]), [1, 2])


def test_solve_rejects_invalid_partition(no_stable_inst):
    with pytest.raises(
        ValueError, match="^invalid partition: error at partition: agents not covered: a2, a3$"
    ):
        solve(no_stable_inst, OrderedPartition(((0,),)))


def test_solve_empty_instance():
    inst = HrsInstance.build([], [])
    trace = solve(inst, OrderedPartition(()))
    assert trace.final == Matching.empty(inst)
    assert check_trace(inst, trace).ok


def test_trace_structure(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    assert [r.index for r in trace.rounds] == [1, 2]
    # round one: only the size-2 agent, full capacities
    assert trace.rounds[0].residual_caps == (1, 2)
    assert trace.rounds[1].residual_caps == (1, 0)
    assert trace.final == Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert check_trace(no_stable_inst, trace).ok
    # a final given to the constructor is reported as is
    pinned = replace(trace, final=Matching.empty(no_stable_inst))
    assert pinned.final == Matching.empty(no_stable_inst) and pinned.rounds == trace.rounds


def test_check_trace_on_random_instances():
    for inst in small_random_instances(60, seed=23, max_agents=6):
        trace = solve(inst, size_descending_partition(inst))
        report = check_trace(inst, trace)
        assert report.ok, report.summary()
        assert is_occupancy_stable(inst, trace.final)


def test_check_trace_catches_overlapping_round_agents(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    r0, r1 = trace.rounds
    # round two also claims round one's agent, so its subgraph overlaps round one's
    overlapping = SolveRound(r1.index, r1.agents + r0.agents, r1.residual_caps, r1.matching)
    corrupted = SolveTrace(trace.partition, (r0, overlapping))
    assert issues(check_trace(no_stable_inst, corrupted)) == [
        ("error", "round 2", "round agents differ from partition class"),
    ]


def tampered_round(trace, k, pairs, inst):
    """The trace with round k's matching replaced by ``pairs`` (labels)."""
    rounds = list(trace.rounds)
    rounds[k] = replace(rounds[k], matching=Matching.from_labeled_pairs(inst, pairs))
    return replace(trace, rounds=tuple(rounds))


def issues(report):
    return [(i.severity, i.location, i.message) for i in report.issues]


def test_check_trace_catches_round_blocking_pair(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    # round two's residual h1 holds one; a2 takes it though h1 ranks a1 higher
    corrupted = tampered_round(trace, 1, [("a2", "h1")], no_stable_inst)
    assert issues(check_trace(no_stable_inst, corrupted)) == [
        ("error", "round 2", "round blocking pair (a1, h1)"),
    ]


def test_check_trace_catches_agent_outside_round(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    # a1 belongs to round two's class but is matched in round one
    r0, r1 = trace.rounds
    moved = SolveRound(r0.index, r0.agents, r0.residual_caps,
                       Matching.from_labeled_pairs(no_stable_inst, [("a3", "h2"), ("a1", "h1")]))
    corrupted = SolveTrace(trace.partition, (moved, r1))
    assert issues(check_trace(no_stable_inst, corrupted)) == [
        ("error", "round 1", "infeasible matching: agent a1 matched outside the given agents"),
    ]


def test_check_trace_catches_inflated_residual_caps(no_stable_inst):
    inst = no_stable_inst
    trace = solve(inst, size_descending_partition(inst))
    # round two claims h2's full capacity back although round one's a3 holds
    # it, so a1 joins a3 and h2 ends over capacity
    tampered = tampered_round(trace, 1, [("a1", "h2"), ("a2", "h1")], inst)
    r1 = tampered.rounds[1]
    inflated = SolveRound(r1.index, r1.agents, (1, 2), r1.matching)
    corrupted = SolveTrace(tampered.partition, (tampered.rounds[0], inflated))
    assert is_feasible(inst, corrupted.final) == (False, "hospital h2 over capacity: 3 > 2")
    assert issues(check_trace(inst, corrupted)) == [
        ("error", "round 2", "residual capacities differ from capacities minus earlier occupancy"),
    ]


def test_check_trace_reports_a_malformed_round_matching(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    r0, r1 = trace.rounds
    short = replace(r0, matching=Matching(r0.matching.assign[:1]))
    unknown = replace(r1, matching=Matching((7, UNMATCHED, UNMATCHED)))
    assert issues(check_trace(no_stable_inst, SolveTrace(trace.partition, (short, unknown)))) == [
        ("error", "round 1", "infeasible matching: assignment length does not match agent count"),
        ("error", "round 2", "residual capacities differ from capacities minus earlier occupancy"),
        ("error", "round 2", "infeasible matching: agent a1 assigned to unknown hospital index 7"),
    ]


def test_check_trace_catches_round_over_residual(no_stable_inst):
    trace = solve(no_stable_inst, size_descending_partition(no_stable_inst))
    # round two's residual capacity at h1 is 1, but both size-1 agents go there
    corrupted = tampered_round(trace, 1, [("a1", "h1"), ("a2", "h1")], no_stable_inst)
    assert issues(check_trace(no_stable_inst, corrupted)) == [
        ("error", "round 2", "infeasible matching: hospital h1 over capacity: 2 > 1"),
    ]


def test_unreciprocated_edge_is_not_acceptable():
    # a2 lists h1, but h1 does not list a2 back: no instance holds that edge
    with pytest.raises(InstanceError, match="agent a2: lists h1 which does not list it back"):
        HrsInstance.build([("a1", 1, ["h1"]), ("a2", 1, ["h1"])], [("h1", 1, ["a1"])])
    with pytest.raises(InstanceError, match="agent a2: lists h1 which does not list it back"):
        HrsInstance(["a1", "a2"], [1, 1], [[0], [0]], ["h1"], [1], [[0]])
    mutual = HrsInstance.build(
        [("a1", 1, ["h1"]), ("a2", 1, [])], [("h1", 1, ["a1"])]
    )
    want = solve(mutual, size_descending_partition(mutual)).final
    assert want == Matching.from_labeled_pairs(mutual, [("a1", "h1")])
    ok, msg = is_feasible(mutual, Matching.from_labeled_pairs(mutual, [("a2", "h1")]))
    assert not ok and "not on its list" in msg


def test_uniform_gs_rejects_size_zero():
    # a size-0 agent cannot be built, so uniform_gs never divides by one
    with pytest.raises(InstanceError, match="agent a1: non-positive size: 0"):
        HrsInstance.build([("a1", 0, ["h1"])], [("h1", 1, ["a1"])])
    with pytest.raises(InstanceError, match="agent a1: non-positive size: 0"):
        HrsInstance(["a1"], [0], [[0]], ["h1"], [1], [[0]])


def edge_case_instances(count: int, seed: int):
    """Small instances built to reach the solver's corner cases: all-distinct
    sizes, agents with empty lists, agents larger than every capacity on their
    list, and size classes that list only some of the hospitals."""
    rng = random.Random(seed)
    for i in range(count):
        n_agents, n_hospitals = rng.randint(1, 8), rng.randint(1, 5)
        caps = [rng.randint(1, 6) for _ in range(n_hospitals)]
        kind = i % 4
        if kind == 0:
            sizes = rng.sample(range(1, 10), n_agents)
        else:
            sizes = [rng.randint(1, 3) for _ in range(n_agents)]
        agent_prefs = []
        for a in range(n_agents):
            listed = [h for h in range(n_hospitals) if rng.random() < 0.7]
            if kind == 1 and rng.random() < 0.4:
                listed = []
            if kind == 3:  # a class proposes only to hospitals of its parity
                listed = [h for h in listed if h % 2 == sizes[a] % 2]
            rng.shuffle(listed)
            agent_prefs.append(listed)
            if kind == 2 and listed and rng.random() < 0.5:
                sizes[a] = max(caps[h] for h in listed) + rng.randint(1, 3)
        hospital_prefs = [[] for _ in range(n_hospitals)]
        for a, listed in enumerate(agent_prefs):
            for h in listed:
                hospital_prefs[h].append(a)
        for listed in hospital_prefs:
            rng.shuffle(listed)
        yield HrsInstance(
            [f"a{a}" for a in range(n_agents)], sizes, agent_prefs,
            [f"h{h}" for h in range(n_hospitals)], caps, hospital_prefs,
        )


def test_solver_occupancy_stable_sweep():
    instances = list(small_random_instances(150, seed=29, max_agents=6, max_hospitals=4))
    instances += edge_case_instances(200, seed=31)
    for inst in instances:
        m = solve_occupancy(inst)
        assert find_occupancy_blocking_pairs(inst, m) == []
        assert m == solve(inst, size_descending_partition(inst)).final


def distinct_sizes_instance(n: int, seed: int) -> HrsInstance:
    """ROADMAP item 6's shape: one size class per agent, five hospitals per
    agent, as many hospitals as agents. Work sized by the whole instance in
    every round makes a pass over it quadratic."""
    rng = random.Random(seed)
    sizes = list(range(1, n + 1))
    rng.shuffle(sizes)
    agent_prefs = [rng.sample(range(n), 5) for _ in range(n)]
    hospital_prefs = [[] for _ in range(n)]
    for a, listed in enumerate(agent_prefs):
        for h in listed:
            hospital_prefs[h].append(a)
    for listed in hospital_prefs:
        rng.shuffle(listed)
    caps = [rng.randint(1, n) for _ in range(n)]
    return HrsInstance(
        [f"a{a}" for a in range(n)], sizes, agent_prefs,
        [f"h{h}" for h in range(n)], caps, hospital_prefs,
    )


def test_solve_occupancy_is_linear_in_distinct_sizes():
    # quadratic here would be seconds, not milliseconds
    inst = distinct_sizes_instance(4_000, seed=41)
    start = time.process_time()
    m = solve_occupancy(inst)
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"solve_occupancy took {elapsed:.2f} s of CPU"
    assert matching_size(inst, m) > 0


def test_trace_json_is_linear_in_agents_plus_edges():
    # one round per agent: a file that repeated the matching or the hospitals
    # in every round would hold thousands of bytes per agent, not tens
    inst = distinct_sizes_instance(1_000, seed=41)
    trace = solve(inst, size_descending_partition(inst))
    text = json.dumps(trace_to_json(inst, trace), sort_keys=True)
    per_item = len(text.encode()) / (inst.n_agents + inst.n_edges)
    assert per_item <= 64, f"{per_item:.1f} bytes per agent + edge"


def _rebuilt(inst: HrsInstance, data: dict):
    """(partition, [(round matching, {hospital: residual capacity})], final)
    read back from ``trace_to_json``'s output and the instance alone."""
    ai, hi = inst.agent_index, inst.hospital_index
    partition = OrderedPartition(
        tuple(tuple(ai[a] for a in cls) for cls in data["partition"]), data["provenance"]
    )
    rounds = [
        (Matching.from_labeled_pairs(inst, rnd["matched"].items()),
         {hi[h]: cap for h, cap in rnd["residual_caps"].items()})
        for rnd in data["rounds"]
    ]
    return partition, rounds, matching_from_json(inst, data["final"])


def _traces_to_round_trip():
    yield no_stable_example(), None
    for seed in range(20):
        params = GenParams(n_agents=24, n_hospitals=6, size_range=(1, 4), seed=seed)
        yield gen_random(params), None
        ml = gen_master_list(params)
        yield ml, detect_generalized_master_list(ml)
    yield distinct_sizes_instance(1_000, seed=43), None


def test_trace_json_round_trips_every_round():
    for inst, partition in _traces_to_round_trip():
        trace = solve(inst, partition or size_descending_partition(inst))
        data = json.loads(json.dumps(trace_to_json(inst, trace)))
        assert data["format"] == "hrs-trace 2"
        assert set(data) == {"format", "partition", "provenance", "rounds", "final"}
        partition, rounds, final = _rebuilt(inst, data)
        assert partition == trace.partition
        assert len(rounds) == len(trace.rounds)
        for (matching, caps), rnd in zip(rounds, trace.rounds):
            assert matching == rnd.matching
            listed = {h for a in rnd.agents for h in inst.agent_prefs[a]}
            assert caps == {h: rnd.residual_caps[h] for h in listed}
        assert final == trace.final


def test_solver_stable_under_detected_ordering():
    for seed in range(60):
        inst = gen_master_list(GenParams(n_agents=6, n_hospitals=4, density=0.7, seed=seed))
        partition = detect_generalized_master_list(inst)
        assert partition is not None
        trace = solve(inst, partition)
        assert find_blocking_pairs(inst, trace.final) == []


def test_single_agent_fits():
    inst = HrsInstance.build([("a1", 2, ["h1"])], [("h1", 3, ["a1"])])
    assert solve_occupancy(inst) == Matching.from_labeled_pairs(inst, [("a1", "h1")])


def test_trace_json_rejects_a_trace_of_another_instance():
    # a 6-agent trace against the 3-agent example used to raise IndexError
    inst = no_stable_example()
    other = gen_random(GenParams(n_agents=6, n_hospitals=4, seed=3))
    with pytest.raises(ValueError, match="partition entry 5 is not an index in range"):
        trace_to_json(inst, solve(other, size_descending_partition(other)))
    trace = solve(inst, size_descending_partition(inst))
    rnd = trace.rounds[0]
    for bad, message in [
        (replace(rnd, matching=Matching(rnd.matching.assign + (UNMATCHED,))),
         "round 1 matching has 4 entries for 3 agents"),
        (replace(rnd, residual_caps=rnd.residual_caps[:-1]),
         "round 1 has 1 residual capacities for 2 hospitals"),
        (replace(rnd, agents=(-1,)), "round 1 agent -1 is not an index in range"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            trace_to_json(inst, SolveTrace(trace.partition, (bad,) + trace.rounds[1:]))
    with pytest.raises(ValueError, match="^final matching has 2 entries for 3 agents$"):
        trace_to_json(inst, SolveTrace(trace.partition, trace.rounds, Matching((UNMATCHED,) * 2)))
