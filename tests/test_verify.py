import itertools
import random
import re

import pytest

from hrs.model import Matching, UNMATCHED, _feasibility_fault, occupancies
from hrs.verify import (
    find_blocking_pairs,
    find_blocking_pairs_residual,
    find_occupancy_blocking_pairs,
    is_a_perfect,
    is_occupancy_stable,
    is_stable,
)
from hrs.model import HrsInstance
from hrs.harness import GenParams, gen_random

from conftest import all_feasible_assignments, naive_blocking_pairs, small_random_instances


def pair_labels(inst, witnesses):
    return [(inst.agent_labels[w.agent], inst.hospital_labels[w.hospital]) for w in witnesses]


def test_known_blocking_pairs(no_stable_inst):
    inst = no_stable_inst
    m = Matching.from_labeled_pairs(inst, [("a1", "h2"), ("a2", "h2")])
    assert ("a2", "h1") in pair_labels(inst, find_blocking_pairs(inst, m))
    m2 = Matching.from_labeled_pairs(inst, [("a1", "h2"), ("a2", "h1")])
    assert ("a3", "h2") in pair_labels(inst, find_blocking_pairs(inst, m2))


def test_occupancy_stable_but_not_stable(no_stable_inst):
    inst = no_stable_inst
    n = Matching.from_labeled_pairs(inst, [("a1", "h1"), ("a3", "h2")])
    assert is_occupancy_stable(inst, n)
    assert not is_stable(inst, n)
    # the one classic blocking pair needs to displace the bigger a3, which
    # the occupancy notion forbids
    classic = pair_labels(inst, find_blocking_pairs(inst, n))
    assert classic == [("a2", "h2")]
    assert find_occupancy_blocking_pairs(inst, n) == []


def test_gap_singleton_is_occupancy_stable(gap_inst):
    m = Matching.from_labeled_pairs(gap_inst, [("a1", "h1")])
    assert is_occupancy_stable(gap_inst, m)
    assert find_occupancy_blocking_pairs(gap_inst, m) == []


def test_first_choices_everywhere_is_stable():
    inst = HrsInstance.build(
        [("a1", 1, ["h1"]), ("a2", 2, ["h2"])],
        [("h1", 1, ["a1"]), ("h2", 2, ["a2"])],
    )
    m = Matching.from_labeled_pairs(inst, [("a1", "h1"), ("a2", "h2")])
    assert find_blocking_pairs(inst, m) == []
    assert is_stable(inst, m) and is_occupancy_stable(inst, m)
    assert is_a_perfect(inst, m)


def test_empty_displacement_reported_by_both():
    inst = HrsInstance.build(
        [("a1", 1, ["h1"]), ("a2", 1, ["h1"])],
        [("h1", 3, ["a1", "a2"])],
    )
    m = Matching.from_labeled_pairs(inst, [("a2", "h1")])
    classic = find_blocking_pairs(inst, m)
    occ = find_occupancy_blocking_pairs(inst, m)
    assert pair_labels(inst, classic) == [("a1", "h1")] == pair_labels(inst, occ)
    assert classic[0].displaced == () and occ[0].displaced == ()


def test_witness_arithmetic_sound():
    for inst in small_random_instances(40, seed=11):
        for matching in list(all_feasible_assignments(inst))[:60]:
            occ = occupancies(inst, matching)
            for kind, finder in (
                ("classic", find_blocking_pairs),
                ("occupancy", find_occupancy_blocking_pairs),
            ):
                for w in finder(inst, matching):
                    assert w.kind == kind
                    a, h = w.agent, w.hospital
                    prefs, rank = inst.agent_prefs[a], inst.hospital_prefs[h].index
                    assert h in prefs
                    assert matching.assign[a] != h
                    cur = matching.assign[a]
                    if cur != UNMATCHED:
                        assert prefs.index(h) < prefs.index(cur)
                    removed = 0
                    for b in w.displaced:
                        assert matching.assign[b] == h
                        assert rank(b) > rank(a)
                        removed += inst.sizes[b]
                    assert occ[h] - removed + inst.sizes[a] <= inst.caps[h]
                    if kind == "occupancy":
                        assert inst.sizes[a] >= removed


def brute_force_eviction(inst, matching, caps, a, h, kind):
    """Smallest-total, then lexicographically smallest, eviction set for a
    pair by trying every subset of h's lower-ranked residents."""
    rank = inst.hospital_prefs[h].index
    lower = [b for b, hh in enumerate(matching.assign) if hh == h and rank(b) > rank(a)]
    occ = sum(inst.sizes[b] for b, hh in enumerate(matching.assign) if hh == h)
    need = occ + inst.sizes[a] - caps[h]
    candidates = []
    for r in range(len(lower) + 1):
        for X in itertools.combinations(lower, r):
            total = sum(inst.sizes[b] for b in X)
            if total >= need and (kind == "classic" or total <= inst.sizes[a]):
                candidates.append((total, X))
    return min(candidates)[1]


def test_witness_is_min_total_then_lexicographic():
    checked = 0
    for inst in small_random_instances(50, seed=19, max_agents=6, max_hospitals=3):
        for matching in list(all_feasible_assignments(inst))[:80]:
            for kind, finder in (
                ("classic", find_blocking_pairs),
                ("occupancy", find_occupancy_blocking_pairs),
            ):
                for w in finder(inst, matching):
                    checked += 1
                    assert w.displaced == brute_force_eviction(
                        inst, matching, inst.caps, w.agent, w.hospital, kind
                    )
    assert checked > 1000


def test_residual_vs_naive_enumeration():
    rng = random.Random(31)
    checked = 0
    for inst in small_random_instances(60, seed=37, max_agents=5):
        for _ in range(3):
            agents = [a for a in range(inst.n_agents) if rng.random() < 0.7]
            subgraph = [(a, h) for a in agents for h in inst.agent_prefs[a]]
            caps = [rng.randint(0, c) for c in inst.caps]
            allowed = set(subgraph)
            for matching in all_feasible_assignments(inst, caps):
                if any(h != UNMATCHED and (a, h) not in allowed
                       for a, h in enumerate(matching.assign)):
                    continue
                checked += 1
                got = find_blocking_pairs_residual(inst, matching, caps, agents)
                want = [e for e in naive_blocking_pairs(inst, matching, "classic", caps)
                        if e in allowed]
                assert [(w.agent, w.hospital) for w in got] == want
                for w in got:
                    assert w.displaced == brute_force_eviction(
                        inst, matching, caps, w.agent, w.hospital, "classic"
                    )
    assert checked > 500


def test_completeness_vs_naive_enumeration():
    checked = 0
    for inst in small_random_instances(60, seed=5, max_agents=5):
        for matching in all_feasible_assignments(inst):
            checked += 1
            for kind, finder in (
                ("classic", find_blocking_pairs),
                ("occupancy", find_occupancy_blocking_pairs),
            ):
                got = [(w.agent, w.hospital) for w in finder(inst, matching)]
                want = naive_blocking_pairs(inst, matching, kind)
                assert sorted(got) == sorted(want)
    assert checked > 500


def test_stable_implies_occupancy_stable():
    for inst in small_random_instances(40, seed=7):
        for matching in all_feasible_assignments(inst):
            classic = {(w.agent, w.hospital) for w in find_blocking_pairs(inst, matching)}
            occ = {(w.agent, w.hospital) for w in find_occupancy_blocking_pairs(inst, matching)}
            assert occ <= classic
            if is_stable(inst, matching):
                assert is_occupancy_stable(inst, matching)


def test_deterministic_output(no_stable_inst):
    m = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h2"), ("a2", "h2")])
    runs = [find_blocking_pairs(no_stable_inst, m) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_canonical_order():
    inst = HrsInstance.build(
        [("a1", 1, ["h1", "h2"]), ("a2", 1, ["h2", "h1"])],
        [("h1", 2, ["a1", "a2"]), ("h2", 2, ["a2", "a1"])],
    )
    witnesses = find_blocking_pairs(inst, Matching.empty(inst))
    # agent index major, the agent's own preference order minor
    assert [(w.agent, w.hospital) for w in witnesses] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_nothing_fits_nothing_blocks():
    inst = HrsInstance.build(
        [("a1", 2, ["h1", "h2"]), ("a2", 2, ["h2", "h1"])],
        [("h1", 1, ["a1", "a2"]), ("h2", 1, ["a2", "a1"])],
    )
    m = Matching.empty(inst)
    assert find_blocking_pairs(inst, m) == []  # nothing fits anywhere


def test_infeasible_matching_rejected(no_stable_inst):
    over = Matching((1, 1, 1))
    with pytest.raises(ValueError):
        find_blocking_pairs(no_stable_inst, over)
    with pytest.raises(ValueError):
        is_stable(no_stable_inst, over)


def test_residual_round_two(no_stable_inst):
    inst = no_stable_inst
    # after the size-2 round matched a3 to h2, round two sees h1:1, h2:0
    m2 = Matching.from_labeled_pairs(inst, [("a1", "h1")])
    assert find_blocking_pairs_residual(inst, m2, [1, 0], [0, 1]) == []  # a1 and a2
    # any iterable of capacities, read once
    assert find_blocking_pairs_residual(inst, m2, (c for c in [1, 0]), [0, 1]) == []


def test_residual_degenerate_equals_full(no_stable_inst):
    inst = no_stable_inst
    m = Matching.from_labeled_pairs(inst, [("a1", "h2"), ("a2", "h2")])
    full = find_blocking_pairs(inst, m)
    residual = find_blocking_pairs_residual(inst, m, inst.caps, range(inst.n_agents))
    assert [(w.agent, w.hospital, w.displaced) for w in full] == [
        (w.agent, w.hospital, w.displaced) for w in residual
    ]


def test_residual_empty_subgraph(no_stable_inst):
    empty = Matching.empty(no_stable_inst)
    assert find_blocking_pairs_residual(no_stable_inst, empty, [1, 2], []) == []


def test_residual_rejects_negative_caps(no_stable_inst):
    empty = Matching.empty(no_stable_inst)
    with pytest.raises(ValueError, match="^negative residual capacity$"):
        find_blocking_pairs_residual(no_stable_inst, empty, [-1, 2], [])


def test_residual_rejects_caps_of_wrong_length(no_stable_inst):
    empty = Matching.empty(no_stable_inst)
    with pytest.raises(ValueError, match="^residual capacity vector has wrong length$"):
        find_blocking_pairs_residual(no_stable_inst, empty, [1], [])


def test_residual_rejects_malformed_matching(no_stable_inst):
    # neither may escape as IndexError: check_trace reports what this raises
    with pytest.raises(
        ValueError, match="^infeasible matching: assignment length does not match agent count$"
    ):
        find_blocking_pairs_residual(no_stable_inst, Matching((UNMATCHED,)), [1, 2], [0, 1, 2])
    for h in (5, -3):
        with pytest.raises(
            ValueError,
            match=f"^infeasible matching: agent a1 assigned to unknown hospital index {h}$",
        ):
            find_blocking_pairs_residual(
                no_stable_inst, Matching((h, UNMATCHED, UNMATCHED)), [1, 2], [0, 1, 2]
            )


def test_residual_rejects_a_non_int_agent(no_stable_inst):
    # a float agent passes the range filter, and a string one fails its
    # comparisons; placing the matching names either
    empty = Matching.empty(no_stable_inst)
    for agents, name in (([0.5], "0.5"), (["a1"], "'a1'"), ([7, "a1", 0], "'a1'")):
        with pytest.raises(ValueError) as exc:
            find_blocking_pairs_residual(no_stable_inst, empty, [1, 2], agents)
        assert str(exc.value) == f"infeasible matching: agent {name} is not an index in range"


def test_verifiers_reject_a_non_int_hospital(no_stable_inst):
    # a float equal to a listed index passes the list lookup, and a label
    # fails it; both are faults of the matching, not TypeErrors
    for h in (1.0, "h1"):
        matching = Matching((h, UNMATCHED, UNMATCHED))
        message = f"agent a1 assigned to unknown hospital index {h!r}"
        assert _feasibility_fault(no_stable_inst, matching) == message
        for verifier in (is_stable, is_occupancy_stable):
            with pytest.raises(ValueError) as exc:
                verifier(no_stable_inst, matching)
            assert str(exc.value) == "infeasible matching: " + message


def _with_fault(rng, inst, allowed, kind):
    """A random assignment of the ``allowed`` agents along their lists, with
    one fault of ``kind`` planted when the instance has room for it."""
    assign = [rng.choice(inst.agent_prefs[a] + (UNMATCHED,)) if a in allowed else UNMATCHED
              for a in range(inst.n_agents)]
    a = rng.randrange(inst.n_agents)
    if kind == "length":
        assign = assign[:-1] if rng.random() < 0.5 else assign + [UNMATCHED]
    elif kind == "unknown":
        assign[a] = rng.choice([-2, inst.n_hospitals, inst.n_hospitals + 3])
    elif kind == "unlisted":
        unlisted = [h for h in range(inst.n_hospitals) if h not in inst.agent_prefs[a]]
        if unlisted:
            assign[a] = rng.choice(unlisted)
    elif kind == "outside":
        outside = [b for b in range(inst.n_agents) if b not in allowed and inst.agent_prefs[b]]
        if outside:
            b = rng.choice(outside)
            assign[b] = rng.choice(inst.agent_prefs[b])
    elif kind == "over" and inst.agent_prefs[a]:
        h = inst.agent_prefs[a][0]  # everyone allowed who lists h goes there
        assign = [h if b in allowed and h in inst.agent_prefs[b] else assign[b]
                  for b in range(inst.n_agents)]
    return Matching(tuple(assign))


_FAULTS = {  # each fault kind's message, as the model words it
    "length": r"^assignment length does not match agent count$",
    "unknown": r"^agent \S+ assigned to unknown hospital index -?\d+$",
    "unlisted": r"^agent \S+ assigned to \S+ which is not on its list$",
    "outside": r"^agent \S+ matched outside the given agents$",
    "over": r"^hospital \S+ over capacity: \d+ > \d+$",
}


def test_fault_messages_come_from_the_model():
    # the residual finder, and the full one at the full capacities, raise
    # exactly on the model's faults, with its message
    rng = random.Random(43)
    reported = set()
    for inst in small_random_instances(150, seed=41, max_agents=6):
        for kind in (*_FAULTS, None):
            caps = [rng.randint(0, c) for c in inst.caps]
            allowed = {a for a in range(inst.n_agents) if rng.random() < 0.7}
            matching = _with_fault(rng, inst, allowed, kind)
            for finder, args in (
                (find_blocking_pairs_residual, (inst, matching, caps, allowed)),
                (find_blocking_pairs, (inst, matching)),
            ):
                fault = _feasibility_fault(*args)
                if fault is None:
                    finder(*args)
                    continue
                reported.update(k for k, pattern in _FAULTS.items() if re.search(pattern, fault))
                with pytest.raises(ValueError) as exc:
                    finder(*args)
                assert str(exc.value) == "infeasible matching: " + fault
    assert reported == set(_FAULTS)


def test_witness_json(no_stable_inst):
    m = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    (w,) = find_blocking_pairs(no_stable_inst, m)
    data = w.to_json(no_stable_inst)
    assert data == {"agent": "a2", "hospital": "h2", "displaced": ["a3"], "kind": "classic"}


def test_empty_instance_all_stable():
    inst = HrsInstance.build([], [])
    m = Matching.empty(inst)
    assert is_stable(inst, m) and is_occupancy_stable(inst, m) and is_a_perfect(inst, m)


def _check_against_naive(inst, matching, caps, agents):
    """All five entry points agree with the definition on one matching; the
    residual finder runs under ``caps`` over ``agents``."""
    for kind, finder, predicate in (
        ("classic", find_blocking_pairs, is_stable),
        ("occupancy", find_occupancy_blocking_pairs, is_occupancy_stable),
    ):
        got = finder(inst, matching)
        want = naive_blocking_pairs(inst, matching, kind)
        assert [(w.agent, w.hospital) for w in got] == want
        assert predicate(inst, matching) == (not want)
        for w in got:
            assert w.displaced == brute_force_eviction(
                inst, matching, inst.caps, w.agent, w.hospital, kind
            )
    allowed = {(a, h) for a in agents for h in inst.agent_prefs[a]}
    got = find_blocking_pairs_residual(inst, matching, caps, agents)
    want = [e for e in naive_blocking_pairs(inst, matching, "classic", caps) if e in allowed]
    assert [(w.agent, w.hospital) for w in got] == want
    for w in got:
        assert w.displaced == brute_force_eviction(
            inst, matching, caps, w.agent, w.hospital, "classic"
        )
    return got


def test_limits_kept_per_agent_size():
    # h has one free position: it fits the size-1 agents outright, while a
    # size-2 agent blocks only by evicting residents ranked below it, and for
    # occupancy only residents of total size at most 2
    order = ["x2a", "x1", "r1", "x2b", "r2", "x2c", "x1b"]
    sizes = {"x2a": 2, "x1": 1, "r1": 1, "x2b": 2, "r2": 3, "x2c": 2, "x1b": 1}
    inst = HrsInstance.build([(a, sizes[a], ["h"]) for a in order], [("h", 5, order)])
    m = Matching.from_labeled_pairs(inst, [("r1", "h"), ("r2", "h")])
    agents = range(inst.n_agents)
    _check_against_naive(inst, m, inst.caps, agents)

    def labelled(witnesses):
        return [
            (inst.agent_labels[w.agent], tuple(inst.agent_labels[b] for b in w.displaced))
            for w in witnesses
        ]

    assert labelled(find_blocking_pairs(inst, m)) == [
        ("x2a", ("r1",)), ("x1", ()), ("x2b", ("r2",)), ("x1b", ()),
    ]
    assert labelled(find_occupancy_blocking_pairs(inst, m)) == [
        ("x2a", ("r1",)), ("x1", ()), ("x1b", ()),
    ]
    assert not is_stable(inst, m) and not is_occupancy_stable(inst, m)
    # with capacity 4 nothing is free: size 1 needs one position, size 2 two
    residual = _check_against_naive(inst, m, [4], agents)
    assert labelled(residual) == [("x2a", ("r2",)), ("x1", ("r1",)), ("x2b", ("r2",))]


def test_verifiers_vs_naive_sizes_up_to_four():
    rng = random.Random(41)
    checked = 0
    for i in range(80):
        inst = gen_random(GenParams(
            n_agents=rng.randint(1, 6), n_hospitals=rng.randint(1, 3), size_range=(1, 4),
            cap_range=(1, 8), density=rng.choice([0.5, 0.8, 1.0]), seed=4_100 + i,
        ))
        matchings = list(all_feasible_assignments(inst))
        rng.shuffle(matchings)
        for matching in matchings[:12]:
            occ = occupancies(inst, matching)
            caps = [rng.randint(o, c) for o, c in zip(occ, inst.caps)]
            matched = [a for a, h in enumerate(matching.assign) if h != UNMATCHED]
            agents = sorted(set(matched) | {a for a in range(inst.n_agents) if rng.random() < 0.6})
            _check_against_naive(inst, matching, caps, agents)
            checked += 1
    assert checked > 500
