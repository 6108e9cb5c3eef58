import itertools
import random

import pytest

from hrs import oracle, verify
from hrs.model import UNMATCHED, HrsInstance, InstanceError, Matching, is_feasible, matching_size
from hrs.oracle import (
    COMPLETE,
    EXHAUSTED,
    BudgetExhausted,
    SearchBudget,
    auto_interfaces,
    enumerate_feasible,
    exists_a_perfect_occupancy_stable,
    max_occupancy_stable,
    occupancy_stable_matchings,
    smti_complete_stable,
    stable_matchings,
)
from hrs.reduce import SmtiInstance, is_complete, is_weakly_stable, reduce_occ, reduce_stable
from hrs.solver import solve, solve_occupancy
from hrs.partition import detect_generalized_master_list
from hrs.verify import is_occupancy_stable, is_stable
from hrs.harness import GenParams, gen_csmti, gen_master_list, gen_random, no_stable_example

from conftest import all_feasible_assignments, small_random_instances


def _index_order_stable(inst, kind=verify.CLASSIC):
    """The matchings stable under ``kind`` as the index-order search finds
    them, in canonical order: the reference for ``stable_matchings`` and
    ``occupancy_stable_matchings``."""
    leaves = oracle._stable_leaves(inst, kind, oracle._Ticker(SearchBudget()))
    return [Matching(assign) for assign, _ in leaves]


def test_enumerate_counts():
    inst = HrsInstance.build(
        [("a1", 1, ["h1", "h2"])],
        [("h1", 1, ["a1"]), ("h2", 1, ["a1"])],
    )
    assert sum(1 for _ in enumerate_feasible(inst)) == 3


def test_enumerate_count_frozen(no_stable_inst):
    # independently recomputed by product-and-filter in conftest
    assert sum(1 for _ in all_feasible_assignments(no_stable_inst)) == 11
    assert sum(1 for _ in enumerate_feasible(no_stable_inst)) == 11


def test_enumerate_empty_instance():
    inst = HrsInstance.build([], [])
    assert list(enumerate_feasible(inst)) == [Matching.empty(inst)]


def test_enumerate_matches_product_filter():
    for inst in small_random_instances(40, seed=31):
        ours = {m.assign for m in enumerate_feasible(inst)}
        naive = {m.assign for m in all_feasible_assignments(inst)}
        assert ours == naive


def test_enumerate_budget():
    inst = HrsInstance.build(
        [(f"a{i}", 1, ["h1"]) for i in range(1, 8)],
        [("h1", 7, [f"a{i}" for i in range(1, 8)])],
    )
    with pytest.raises(BudgetExhausted):
        list(enumerate_feasible(inst, SearchBudget(max_nodes=5)))


def test_no_stable_matching_exists(no_stable_inst):
    result = stable_matchings(no_stable_inst)
    assert result.verdict == COMPLETE and result.matchings == []


def test_unit_sizes_always_have_stable():
    for seed in range(30):
        inst = gen_master_list(GenParams(
            n_agents=5, n_hospitals=3, size_range=(1, 1), density=0.7, seed=seed,
        ))
        result = stable_matchings(inst)
        assert result.complete and result.matchings


def test_occupancy_stable_always_exists(no_stable_inst):
    result = occupancy_stable_matchings(no_stable_inst)
    n = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert result.complete and n in result.matchings
    for inst in small_random_instances(60, seed=41):
        res = occupancy_stable_matchings(inst)
        assert res.complete and res.matchings


def test_occ_stable_contains_solver_output_and_gap_extremes(gap_inst):
    res = occupancy_stable_matchings(gap_inst)
    m_alg = solve_occupancy(gap_inst)
    m_best = Matching.from_labeled_pairs(gap_inst, [("a1", "h2"), ("a2", "h1"), ("a3", "h1")])
    assert m_alg in res.matchings and m_best in res.matchings


def test_empty_instance_results():
    inst = HrsInstance.build([], [])
    assert occupancy_stable_matchings(inst).matchings == [Matching.empty(inst)]
    res = exists_a_perfect_occupancy_stable(inst)
    assert res.complete and res.matchings  # vacuously perfect


def test_max_occupancy_stable(no_stable_inst, gap_inst):
    best = max_occupancy_stable(gap_inst)
    assert best.value == 7
    assert best.matchings[0] == Matching.from_labeled_pairs(
        gap_inst, [("a1", "h2"), ("a2", "h1"), ("a3", "h1")]
    )
    assert max_occupancy_stable(no_stable_inst).value == 3


def test_max_on_infeasible_single_edge():
    inst = HrsInstance.build([("a1", 3, ["h1"])], [("h1", 1, ["a1"])])
    res = max_occupancy_stable(inst)
    assert res.value == 0 and res.matchings[0] == Matching.empty(inst)


def test_max_agrees_with_enumeration():
    for inst in small_random_instances(40, seed=43):
        res = max_occupancy_stable(inst)
        stable_sizes = [
            matching_size(inst, m)
            for m in all_feasible_assignments(inst)
            if is_occupancy_stable(inst, m)
        ]
        assert res.value == max(stable_sizes)


def test_max_brackets_solver_size():
    for inst in small_random_instances(60, seed=59, max_agents=6):
        s_alg = matching_size(inst, solve_occupancy(inst))
        s_opt = max_occupancy_stable(inst).value
        assert s_opt >= s_alg
        if s_alg == 0:
            assert s_opt == 0
        else:
            assert 3 * s_alg > s_opt


def _reference_max_occ(inst):
    """First strict maximum by size among the occupancy-stable matchings of
    the unpruned enumeration, and that enumeration's node count (one node
    per feasible assignment of each nonempty agent prefix)."""
    feasible = list(enumerate_feasible(inst))
    best, best_value = None, -1
    for m in feasible:
        if is_occupancy_stable(inst, m):
            value = matching_size(inst, m)
            if value > best_value:
                best, best_value = m, value
    nodes = sum(len({m.assign[:k] for m in feasible}) for k in range(1, inst.n_agents + 1))
    return best, best_value, nodes


def test_max_occ_bound_matches_unpruned_reference():
    rng = random.Random(61)
    for i in range(300):
        inst = gen_random(GenParams(
            n_agents=rng.randint(1, 7), n_hospitals=rng.randint(1, 5),
            size_range=(1, 3), cap_range=(1, 6),
            density=rng.choice([0.4, 0.7, 1.0]), seed=6100 + i,
        ))
        best, best_value, nodes = _reference_max_occ(inst)
        res = max_occupancy_stable(inst)
        assert res.complete
        assert res.value == best_value
        assert res.matchings == [best]
        assert res.nodes <= nodes


def test_max_occ_reference_node_count_is_exact():
    # the prefix count above is exactly the unpruned search's node budget
    for inst in small_random_instances(20, seed=67, max_agents=6):
        _, _, nodes = _reference_max_occ(inst)
        list(enumerate_feasible(inst, SearchBudget(max_nodes=nodes)))
        with pytest.raises(BudgetExhausted):
            list(enumerate_feasible(inst, SearchBudget(max_nodes=nodes - 1)))


@pytest.mark.parametrize("query, value, witnesses", [
    (stable_matchings, None, 1),
    (occupancy_stable_matchings, None, 1),
    (max_occupancy_stable, 0, 1),
    (exists_a_perfect_occupancy_stable, None, 0),
], ids=["stable", "occ-stable", "max-occ", "a-perfect"])
def test_max_occ_many_agents_without_recursion(query, value, witnesses):
    inst = HrsInstance.build([(f"a{i}", 1, []) for i in range(1500)], [("h1", 1, [])])
    res = query(inst)
    assert res.complete and res.value == value
    assert res.matchings == [Matching.empty(inst)] * witnesses


def test_max_occ_budget_keeps_incumbent():
    inst = HrsInstance.build(
        [(f"a{i}", 1, ["h1", "h2"]) for i in range(1, 9)],
        [("h1", 3, [f"a{i}" for i in range(1, 9)]), ("h2", 3, [f"a{i}" for i in range(1, 9)])],
    )
    res = max_occupancy_stable(inst, SearchBudget(max_nodes=20))
    assert res.verdict == EXHAUSTED and res.nodes > 20
    for m in res.matchings:
        assert is_occupancy_stable(inst, m) and res.value == matching_size(inst, m)


# --- one-sided edges: a2 lists h1, which does not list a2 back ---------------------


@pytest.fixture
def one_sided_inst():
    """Construction rejects the one-sided edge; the oracle then sees the
    instance without it."""
    with pytest.raises(InstanceError, match="agent a2: lists h1 which does not list it back"):
        HrsInstance.build([("a1", 1, ["h1"]), ("a2", 1, ["h1"])], [("h1", 1, ["a1"])])
    return HrsInstance.build([("a1", 1, ["h1"]), ("a2", 1, [])], [("h1", 1, ["a1"])])


def test_stable_matchings_skip_unlisted_edge(one_sided_inst):
    res = stable_matchings(one_sided_inst)
    expected = Matching.from_labeled_pairs(one_sided_inst, [("a1", "h1")])
    assert res.complete and res.matchings == [expected]


def test_occupancy_stable_matchings_skip_unlisted_edge(one_sided_inst):
    res = occupancy_stable_matchings(one_sided_inst)
    expected = Matching.from_labeled_pairs(one_sided_inst, [("a1", "h1")])
    assert res.complete and res.matchings == [expected]


def test_max_occ_skips_unlisted_edge(one_sided_inst):
    res = max_occupancy_stable(one_sided_inst)
    expected = Matching.from_labeled_pairs(one_sided_inst, [("a1", "h1")])
    assert res.complete and res.value == 1 and res.matchings == [expected]


def test_oracle_agrees_with_verifiers_on_unlisted_edge(one_sided_inst):
    inst = one_sided_inst
    stable = {m.assign for m in stable_matchings(inst).matchings}
    occ = {m.assign for m in occupancy_stable_matchings(inst).matchings}
    assert {m.assign for m in enumerate_feasible(inst)} == {(0, UNMATCHED), (UNMATCHED, UNMATCHED)}
    choices = [list(inst.agent_prefs[a]) + [UNMATCHED] for a in range(inst.n_agents)]
    for combo in itertools.product(*choices):
        m = Matching(combo)
        if is_feasible(inst, m)[0]:
            assert (m.assign in stable) == is_stable(inst, m)
            assert (m.assign in occ) == is_occupancy_stable(inst, m)
        else:
            assert m.assign not in occ


def test_decompose_skips_unlisted_edge():
    # h1 lists nobody, so a1 -> h1 cannot be built; without it the component
    # search agrees with the index-order reference
    with pytest.raises(InstanceError, match="agent a1: lists h1 which does not list it back"):
        HrsInstance.build(
            [("a1", 1, ["h1", "h2"]), ("a2", 1, ["h2"])],
            [("h1", 1, []), ("h2", 1, ["a2", "a1"])],
        )
    inst = HrsInstance.build(
        [("a1", 1, ["h2"]), ("a2", 1, ["h2"])],
        [("h1", 1, []), ("h2", 1, ["a2", "a1"])],
    )
    res = stable_matchings(inst)
    assert res.complete and [m.assign for m in res.matchings] == [(UNMATCHED, 1)]
    assert res.matchings == _index_order_stable(inst)


def test_decompose_interface_skips_unlisted_edge():
    # interface h1 lists a2, which does not list h1, and a1 lists h1 unlisted:
    # construction rejects both; without them the component search agrees
    # with the index-order reference
    with pytest.raises(InstanceError, match="agent a1: lists h1 which does not list it back"):
        HrsInstance.build(
            [("a1", 1, ["h2", "h1"]), ("a2", 1, ["h2"])],
            [("h1", 1, ["a2"]), ("h2", 1, ["a2", "a1"])],
        )
    inst = HrsInstance.build(
        [("a1", 1, ["h2"]), ("a2", 1, ["h2"])],
        [("h1", 1, []), ("h2", 1, ["a2", "a1"])],
    )
    res = stable_matchings(inst, interfaces=[0])
    assert res.complete and res.matchings == _index_order_stable(inst)


def test_a_perfect_decision(no_stable_inst, gap_inst):
    yes = exists_a_perfect_occupancy_stable(gap_inst)
    assert yes.complete and yes.matchings and yes.value == 7
    no = exists_a_perfect_occupancy_stable(no_stable_inst)
    assert no.complete and not no.matchings  # total size 4 vs capacity 3
    # the decision is the maximum search started one below the total size:
    # an agent that lists nothing keeps every branch below it, so the root
    # settles it without a node
    lonely = HrsInstance.build([("a1", 1, ["h1"]), ("a2", 1, [])], [("h1", 1, ["a1"])])
    no = exists_a_perfect_occupancy_stable(lonely)
    assert no.complete and not no.matchings and no.nodes == 0
    assert max_occupancy_stable(lonely).value == 1


def test_oracle_agrees_with_verifiers():
    """Each plain query's list is the canonical enumeration filtered by its
    verifier, in order, and no query visits more nodes than the unpruned
    search has."""
    instances = itertools.chain(
        small_random_instances(25, seed=47), small_random_instances(30, seed=13)
    )
    for inst in instances:
        feasible = list(enumerate_feasible(inst))
        assert {m.assign for m in feasible} == {m.assign for m in all_feasible_assignments(inst)}
        stable = [m for m in feasible if is_stable(inst, m)]
        occ = [m for m in feasible if is_occupancy_stable(inst, m)]
        assert set(stable) <= set(occ)
        best, _, unpruned = _reference_max_occ(inst)
        perfect = [m for m in occ if UNMATCHED not in m.assign]
        for res, expected in (
            (stable_matchings(inst), stable),
            (occupancy_stable_matchings(inst), occ),
            (max_occupancy_stable(inst), [best]),
            (exists_a_perfect_occupancy_stable(inst), perfect[:1]),
        ):
            assert res.complete and res.matchings == expected
            assert res.nodes <= unpruned


def test_oracle_contains_gen_ml_solver_output():
    for seed in range(10):
        inst = gen_master_list(GenParams(n_agents=4, n_hospitals=3, density=0.8, seed=seed))
        partition = detect_generalized_master_list(inst)
        final = solve(inst, partition).final
        assert final in stable_matchings(inst).matchings


def test_oracle_contains_solver_output_on_known_ordering_instance():
    from hrs.harness import master_list_example

    inst = master_list_example()
    partition = detect_generalized_master_list(inst)
    final = solve(inst, partition).final
    result = stable_matchings(inst)
    assert result.complete and final in result.matchings


def test_budget_exhaustion_verdict():
    inst = HrsInstance.build(
        [(f"a{i}", 1, ["h1", "h2"]) for i in range(1, 9)],
        [("h1", 8, [f"a{i}" for i in range(1, 9)]), ("h2", 8, [f"a{i}" for i in range(1, 9)])],
    )
    # the full search takes 8 nodes; a budget of 4 stops it halfway, before
    # its one component has a solution, so there is no witness
    assert stable_matchings(inst).nodes == 8
    res = stable_matchings(inst, SearchBudget(max_nodes=4))
    assert res.verdict == EXHAUSTED and res.matchings == []
    assert res.nodes > 4


def test_solution_cap_reported_as_exhausted():
    inst = HrsInstance.build(
        [("a1", 1, ["h1", "h2"])],
        [("h1", 1, ["a1"]), ("h2", 1, ["a1"])],
    )
    res = occupancy_stable_matchings(inst, SearchBudget(max_solutions=1))
    assert res.verdict == EXHAUSTED and len(res.matchings) == 1


# --- marriage search ---------------------------------------------------------


def test_smti_single_pair():
    smti = SmtiInstance.build([("m1", [["w1"]])], [("w1", ["m1"])])
    m = smti_complete_stable(smti)
    assert m is not None and m.pairs() == [(0, 0)]


def test_smti_tie_with_strict_rival():
    smti = SmtiInstance.build(
        [("m1", [["w1", "w2"]]), ("m2", [["w1"], ["w2"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m1", "m2"])],
    )
    m = smti_complete_stable(smti)
    assert m is not None
    assert is_complete(smti, m) and is_weakly_stable(smti, m)


def test_smti_no_complete_stable():
    smti = SmtiInstance.build(
        men=[("m1", [["w1", "w2"]]),
             ("m2", [["w1"], ["w2"], ["w3"]]),
             ("m3", [["w1"], ["w3"], ["w2"]])],
        women=[("w1", ["m3", "m2", "m1"]),
               ("w2", ["m2", "m3", "m1"]),
               ("w3", ["m2", "m3"])],
    )
    assert smti_complete_stable(smti) is None


def test_smti_size_guard():
    men = [(f"m{i}", [[f"w{i}"]]) for i in range(1, 9)]
    women = [(f"w{i}", [f"m{i}"]) for i in range(1, 9)]
    smti = SmtiInstance.build(men, women)
    with pytest.raises(ValueError):
        smti_complete_stable(smti)


def test_smti_unequal_sides():
    smti = SmtiInstance.build([("m1", [["w1"]])], [("w1", ["m1"]), ("w2", [])])
    assert smti_complete_stable(smti) is None


# --- components, closing order and ranked checks --------------------------------


def test_decompose_equals_plain_on_random():
    # interfaces are ignored: every choice must give the reference's list;
    # the occupancy query runs the same component search
    rng = random.Random(53)
    for inst in small_random_instances(40, seed=53):
        plain = _index_order_stable(inst)
        narrow = [h for h in range(inst.n_hospitals) if len(inst.hospital_prefs[h]) <= 16]
        pinned = sorted(h for h in narrow if rng.random() < 0.5)
        for interfaces in (None, [], pinned, narrow[::2]):
            dec = stable_matchings(inst, interfaces=interfaces)
            assert dec.complete
            assert dec.matchings == plain
        occ = occupancy_stable_matchings(inst)
        assert occ.complete
        assert occ.matchings == _index_order_stable(inst, verify.OCCUPANCY)


def test_decompose_every_other_interface_on_gadgets():
    # the interfaces are ignored; the closing order alone answers these
    # gadgets within a few thousand nodes
    for ties in range(4):
        for seed in (30 + ties, 130 + ties):
            smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, n_ties=ties, seed=seed))
            inst, _ = reduce_stable(smti)
            interfaces = range(0, inst.n_hospitals, 2)
            budget = SearchBudget(max_nodes=50_000)
            dec = stable_matchings(inst, budget, interfaces=interfaces)
            assert dec.complete
            assert dec.matchings == _index_order_stable(inst)


def _chain(n):
    """Agent i lists h_i, then h_{i+1}; each hospital lists its (at most two)
    agents in index order; every capacity and size is 1."""
    agents = [(f"a{i}", 1, [f"h{i}", f"h{i + 1}"]) for i in range(n)]
    hospitals = [(f"h{j}", 1, [f"a{i}" for i in (j - 1, j) if 0 <= i < n]) for j in range(n + 1)]
    return HrsInstance.build(agents, hospitals)


@pytest.mark.parametrize("interfaces", [range(1501), []], ids=["every-hospital", "none"])
def test_decompose_long_chain_without_recursion(interfaces):
    # one component of 1,500 agents, far past 1,000 levels, whatever the
    # (ignored) interfaces. The closing order places the chain from one end,
    # each agent closing one hospital, so the first stable matching comes
    # within a few nodes per agent.
    inst = _chain(1500)
    budget = SearchBudget(max_solutions=1, max_nodes=20_000)
    res = stable_matchings(inst, budget, interfaces=interfaces)
    assert res.verdict == EXHAUSTED and len(res.matchings) == 1
    assert res.nodes <= 10_000
    assert all(is_stable(inst, m) for m in res.matchings)


def test_decompose_with_explicit_interfaces(no_stable_inst):
    res = stable_matchings(no_stable_inst, interfaces=[1])
    assert res.complete and res.matchings == []


def test_decompose_two_independent_blocks():
    inst = HrsInstance.build(
        [("a1", 1, ["h1"]), ("a2", 1, ["h2"])],
        [("h1", 1, ["a1"]), ("h2", 1, ["a2"])],
    )
    res = stable_matchings(inst)
    assert res.complete and len(res.matchings) == 1
    assert res.matchings[0] == Matching.from_labeled_pairs(inst, [("a1", "h1"), ("a2", "h2")])


def test_auto_interfaces_on_small_instance(no_stable_inst):
    # a shim for callers of the retired interface sweep: always empty
    assert auto_interfaces(no_stable_inst) == []
    smti = gen_csmti(GenParams(n_agents=6, n_hospitals=6, n_ties=2, seed=3))
    assert auto_interfaces(reduce_stable(smti)[0]) == []


def _union(*instances):
    """The disjoint union of instances, labels tagged by their position."""
    agents, hospitals = [], []
    for i, inst in enumerate(instances):
        a_label = [f"{label}_{i}" for label in inst.agent_labels]
        h_label = [f"{label}_{i}" for label in inst.hospital_labels]
        agents += [
            (a_label[a], inst.sizes[a], [h_label[h] for h in inst.agent_prefs[a]])
            for a in range(inst.n_agents)
        ]
        hospitals += [
            (h_label[h], inst.caps[h], [a_label[a] for a in inst.hospital_prefs[h]])
            for h in range(inst.n_hospitals)
        ]
    return HrsInstance.build(agents, hospitals)


def _two_stable_market():
    """A 2 x 2 market whose two perfect matchings are both stable."""
    return HrsInstance.build(
        [("a1", 1, ["h1", "h2"]), ("a2", 1, ["h2", "h1"])],
        [("h1", 1, ["a2", "a1"]), ("h2", 1, ["a1", "a2"])],
    )


def test_decompose_stops_at_a_component_without_stable_matching():
    # the index-order search walks all 2^16 stable combinations of the
    # markets (720,891 nodes) before it meets the last component; the
    # component search settles each component alone and stops at the one
    # with no stable matching
    inst = _union(*[_two_stable_market()] * 16, no_stable_example())
    res = stable_matchings(inst)
    assert res.complete and res.matchings == []
    assert res.nodes <= 200


def test_decompose_solution_cap_on_independent_markets():
    # four markets multiply out to 16 stable matchings; a cap of 5 keeps 5
    inst = _union(*[_two_stable_market()] * 4)
    everything = stable_matchings(inst)
    assert everything.complete and everything.matchings == _index_order_stable(inst)
    assert len(everything.matchings) == 16
    res = stable_matchings(inst, SearchBudget(max_solutions=5))
    assert res.verdict == EXHAUSTED and len(res.matchings) == 5
    assert len({m.assign for m in res.matchings}) == 5
    # the first five found, in canonical order: the full list's order
    assert res.matchings == [m for m in everything.matchings if m in res.matchings]


def test_budget_bounds_the_product_of_components():
    # 25 markets finish their searches in a few hundred nodes and multiply
    # out to 2^25 matchings; each one past the leaves found costs a node
    inst = _union(*[_two_stable_market()] * 25)
    first = Matching([h for market in range(25) for h in (2 * market, 2 * market + 1)])
    for budget in (SearchBudget(max_nodes=1000), SearchBudget(deadline=0.0)):
        res = stable_matchings(inst, budget)
        assert res.verdict == EXHAUSTED and res.nodes <= 2048
        assert 0 < len(res.matchings) < res.nodes and first == res.matchings[0]
        ranks = [list(map(tuple.index, inst.agent_prefs, m.assign)) for m in res.matchings]
        assert ranks == sorted(ranks)
        assert all(is_stable(inst, m) for m in res.matchings[:50])


def test_budget_keeps_a_witness_once_every_component_has_one():
    inst = _union(*[_two_stable_market()] * 4)
    stable = stable_matchings(inst).matchings
    # two nodes find each market's first solution and two more its second
    # (three under occupancy, which has no ranked early tests); the 8 leaves
    # pay for 8 matchings of the product, each further one costs a node
    for query, total, second in [(stable_matchings, 24, 2), (occupancy_stable_matchings, 28, 3)]:
        everything = query(inst)
        assert everything.complete and everything.nodes == total
        assert everything.matchings == stable
        runs = [query(inst, SearchBudget(max_nodes=k)) for k in range(total)]
        assert all(res.verdict == EXHAUSTED and res.nodes == k + 1 for k, res in enumerate(runs))
        assert all(set(res.matchings) <= set(stable) for res in runs)
        lengths = [0] * 8 + [1] * 4 * second + list(range(8, 16))
        assert [len(res.matchings) for res in runs] == lengths


@pytest.mark.parametrize("n", [10, 14, 20])
def test_decompose_larger_gadgets_within_budget(n):
    # the closing order closes the gadget's hospitals early; index order
    # takes up to hundreds of thousands of nodes at 20 per side
    for seed in range(3):
        smti = gen_csmti(GenParams(n_agents=n, n_hospitals=n, n_ties=1, seed=seed))
        inst, _ = reduce_stable(smti)
        res = stable_matchings(inst, SearchBudget(max_nodes=20_000))
        assert res.complete
        assert all(is_stable(inst, m) for m in res.matchings)


def test_decompose_equals_plain_on_every_gadget_stratum():
    # every (men per side, tied men) stratum of the benchmark's gadgets
    for n in range(3, 7):
        for ties in range(n + 1):
            seed = 2000 + 10 * n + ties
            while True:
                try:
                    smti = gen_csmti(GenParams(n_agents=n, n_hospitals=n, n_ties=ties, seed=seed))
                    break
                except ValueError:  # the generator rejects some seeds
                    seed += 100
            for reduction, query, kind in [
                (reduce_stable, stable_matchings, verify.CLASSIC),
                (reduce_occ, occupancy_stable_matchings, verify.OCCUPANCY),
            ]:
                inst, _ = reduction(smti)
                dec = query(inst)
                assert dec.complete
                assert dec.matchings == _index_order_stable(inst, kind)


def _star(n):
    """Agent a<i> lists hub (capacity 3), then its own p<i>; hub lists the
    agents by index."""
    agents = [(f"a{i}", 1, ["hub", f"p{i}"]) for i in range(n)]
    hospitals = [("hub", 3, [f"a{i}" for i in range(n)])]
    hospitals += [(f"p{i}", 1, [f"a{i}"]) for i in range(n)]
    return HrsInstance.build(agents, hospitals)


def test_decompose_wide_hospital():
    # a hospital listing 20 agents once made the component search refuse the
    # instance
    inst = _star(20)
    dec = stable_matchings(inst)
    assert dec.complete and len(dec.matchings) == 1
    assert dec.matchings == _index_order_stable(inst)


@pytest.mark.parametrize("seed, n_hospitals", [(900159, 6), (900170, 6), (900180, 5)])
def test_decompose_dense_instance_ranked_checks(seed, n_hospitals):
    # every agent lists every hospital, so no hospital closes before the last
    # agent; hospital-level checks alone take 0.3M-2.5M nodes to find the one
    # stable matching of each, the ranked pair checks a few thousand
    inst = gen_random(GenParams(
        n_agents=9, n_hospitals=n_hospitals, size_range=(1, 3), cap_range=(1, 6), density=1.0,
        seed=seed,
    ))
    res = stable_matchings(inst, SearchBudget(max_nodes=5_000))
    assert res.complete and len(res.matchings) == 1
    assert is_stable(inst, res.matchings[0])
