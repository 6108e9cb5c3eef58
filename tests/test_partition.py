import random

import pytest

from hrs.model import FormatError, HrsInstance
from hrs.partition import (
    OrderedPartition,
    detect_generalized_master_list,
    master_list_partition,
    parse_partition,
    serialize_partition,
    size_descending_partition,
    validate_ordered_partition,
)
from hrs.harness import GenParams, gen_master_list, gen_random

from conftest import has_gen_master_list_naive, small_random_instances


def classes_by_label(inst, partition):
    return [tuple(inst.agent_labels[a] for a in cls) for cls in partition.classes]


def test_size_descending(no_stable_inst, gap_inst):
    assert classes_by_label(no_stable_inst, size_descending_partition(no_stable_inst)) == [
        ("a3",), ("a1", "a2"),
    ]
    assert classes_by_label(gap_inst, size_descending_partition(gap_inst)) == [
        ("a1",), ("a2", "a3"),
    ]


def test_size_descending_uniform_sizes():
    inst = HrsInstance.build(
        [("a1", 2, []), ("a2", 2, []), ("a3", 2, [])], [("h1", 1, [])]
    )
    p = size_descending_partition(inst)
    assert classes_by_label(inst, p) == [("a1", "a2", "a3")]
    assert validate_ordered_partition(inst, p).ok


def test_detect_on_master_list_example(gen_ml_inst):
    p = detect_generalized_master_list(gen_ml_inst)
    assert p is not None
    assert validate_ordered_partition(gen_ml_inst, p, require_gen_ml=True).ok
    owner = p.class_of(gen_ml_inst.n_agents)
    idx = gen_ml_inst.agent_index
    assert owner[idx["a1"]] == owner[idx["a2"]]
    assert owner[idx["a1"]] < owner[idx["a3"]]
    assert owner[idx["a3"]] < owner[idx["a4"]]
    assert owner[idx["a3"]] < owner[idx["a5"]]


def test_detect_none_when_impossible(no_stable_inst):
    assert detect_generalized_master_list(no_stable_inst) is None


def test_detect_single_agent():
    inst = HrsInstance.build([("a1", 1, ["h1"])], [("h1", 1, ["a1"])])
    p = detect_generalized_master_list(inst)
    assert p is not None and classes_by_label(inst, p) == [("a1",)]


def reference_classes(inst):
    """Detection by definition: classes of mutually reachable agents in the
    digraph of consecutive hospital-list entries, ordered by Kahn's algorithm
    taking the smallest agent index first; None when a class mixes sizes."""
    n = inst.n_agents
    succ = [set() for _ in range(n)]
    for prefs in inst.hospital_prefs:
        for x, y in zip(prefs, prefs[1:]):
            succ[x].add(y)
    reach = []
    for a in range(n):
        seen, todo = {a}, [a]
        while todo:
            for y in succ[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        reach.append(seen)
    classes = {tuple(b for b in sorted(reach[a]) if a in reach[b]) for a in range(n)}
    if any(len({inst.sizes[a] for a in cls}) > 1 for cls in classes):
        return None
    preds = [{x for x in range(n) if y in succ[x]} for y in range(n)]
    order, placed = [], set()
    while classes:
        ready = [c for c in classes if all(preds[y] <= placed | set(c) for y in c)]
        first = min(ready)  # disjoint sorted tuples: the smallest first agent
        order.append(first)
        placed.update(first)
        classes.remove(first)
    return tuple(order)


def test_detect_matches_brute_force():
    agree = 0
    for inst in small_random_instances(150, seed=21, max_agents=5):
        detected = detect_generalized_master_list(inst)
        exists = has_gen_master_list_naive(inst)
        assert (detected is not None) == exists
        assert (None if detected is None else detected.classes) == reference_classes(inst)
        if detected is not None:
            assert validate_ordered_partition(inst, detected, require_gen_ml=True).ok
            agree += 1
    assert agree > 10  # a healthy share must be detectable


def test_detect_classes_and_order_match_reference():
    rng = random.Random(23)
    outcomes = {True: 0, False: 0}
    for i in range(200):
        params = GenParams(
            n_agents=rng.randint(1, 12), n_hospitals=rng.randint(1, 5),
            size_range=(1, rng.choice([1, 2, 3])), density=rng.choice([0.3, 0.6, 1.0]),
            seed=23_000 + i,
        )
        inst = (gen_master_list if i % 2 else gen_random)(params)
        detected = detect_generalized_master_list(inst)
        assert (None if detected is None else detected.classes) == reference_classes(inst)
        outcomes[detected is None] += 1
    assert min(outcomes.values()) > 20


def _listed_by(orders, sizes):
    """Agents a0.. with the given sizes, each listing every hospital that
    lists it; hospital k lists the agents in ``orders[k]``."""
    n = len(sizes)
    agent_prefs = [[] for _ in range(n)]
    for h, order in enumerate(orders):
        for a in order:
            agent_prefs[a].append(h)
    return HrsInstance(
        [f"a{a}" for a in range(n)], sizes, agent_prefs,
        [f"h{h}" for h in range(len(orders))], [1] * len(orders), orders,
    )


def test_detect_deep_chains():
    n = 100_000
    rng = random.Random(29)
    order = list(range(n))
    rng.shuffle(order)
    sizes = [rng.randint(1, 3) for _ in range(n)]
    # one strict list: a chain of n singleton classes in list order
    chain = detect_generalized_master_list(_listed_by([order], sizes))
    assert chain.classes == tuple((a,) for a in order)
    # the same agents listed both ways round: one class
    both = [order, order[::-1]]
    assert detect_generalized_master_list(_listed_by(both, [2] * n)).classes == (tuple(range(n)),)
    # ... which cannot hold an agent of another size
    mixed = [2] * n
    mixed[order[n // 2]] = 1
    assert detect_generalized_master_list(_listed_by(both, mixed)) is None


def test_detect_on_generated_master_lists():
    for seed in range(30):
        inst = gen_master_list(GenParams(n_agents=6, n_hospitals=4, density=0.8, seed=seed))
        p = detect_generalized_master_list(inst)
        assert p is not None
        assert validate_ordered_partition(inst, p, require_gen_ml=True).ok


def test_validate_gen_ml_violation(gap_inst):
    p = size_descending_partition(gap_inst)
    assert validate_ordered_partition(gap_inst, p).ok
    report = validate_ordered_partition(gap_inst, p, require_gen_ml=True)
    assert not report.ok
    assert any("h1" in issue.location for issue in report.issues)


def test_validate_cover_and_homogeneity(no_stable_inst):
    missing = OrderedPartition(((0, 1),))
    report = validate_ordered_partition(no_stable_inst, missing)
    assert any("not covered" in i.message for i in report.issues)
    mixed = OrderedPartition(((0, 2), (1,)))
    report = validate_ordered_partition(no_stable_inst, mixed)
    assert any("mixed sizes" in i.message for i in report.issues)
    doubled = OrderedPartition(((0, 1), (1, 2)))
    report = validate_ordered_partition(no_stable_inst, doubled)
    assert any("two classes" in i.message for i in report.issues)
    empty_class = OrderedPartition(((0, 1, 2), ()))
    report = validate_ordered_partition(no_stable_inst, empty_class)
    assert any("empty class" in i.message for i in report.issues)


def test_validate_reports_a_non_int_class_entry(no_stable_inst):
    # an entry that is no int is an issue, not a TypeError from a comparison
    # or an index, and the rest of its class is still checked
    partition = OrderedPartition(((0, "x", 1, 0.5), (2, None)))
    assert [str(i) for i in validate_ordered_partition(no_stable_inst, partition).issues] == [
        "error at class #0: unknown agent index 'x'",
        "error at class #0: unknown agent index 0.5",
        "error at class #1: unknown agent index None",
    ]
    partition = OrderedPartition(((0, 1.0), (2,)))
    assert [str(i) for i in validate_ordered_partition(no_stable_inst, partition).issues] == [
        "error at class #0: unknown agent index 1.0",
        "error at partition: agents not covered: a2",
    ]


def test_master_list_partition(no_stable_inst):
    p = master_list_partition(no_stable_inst, [0, 1, 2])
    assert classes_by_label(no_stable_inst, p) == [("a1",), ("a2",), ("a3",)]
    with pytest.raises(ValueError):
        master_list_partition(no_stable_inst, [0, 0, 2])


def test_master_list_partition_empty():
    inst = HrsInstance.build([], [])
    assert master_list_partition(inst, []).classes == ()


def test_partition_text_round_trip(gen_ml_inst):
    p = detect_generalized_master_list(gen_ml_inst)
    text = serialize_partition(gen_ml_inst, p)
    again = parse_partition(gen_ml_inst, text)
    assert again.classes == p.classes
    with pytest.raises(FormatError):
        parse_partition(gen_ml_inst, "a1 nope\n")


def test_partition_parse_skips_comments_and_blank_lines_but_counts_them(no_stable_inst):
    text = "# big agents first\n\na3  # size 2\n   # indented\na1 a2#tail\n"
    assert parse_partition(no_stable_inst, text).classes == ((2,), (0, 1))
    with pytest.raises(FormatError, match="unknown agent 'nope'") as err:
        parse_partition(no_stable_inst, text + "\n# one more\na2 nope\n")
    assert err.value.line == 8
