import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hrs.model import (
    UNMATCHED,
    FormatError,
    check_instance_data,
    HrsInstance,
    InstanceError,
    Matching,
    induced_subinstance,
    is_feasible,
    matching_from_json,
    matching_size,
    matching_to_json,
    occupancies,
    occupancy,
    parse_instance,
    serialize_instance,
)
from hrs.harness import GenParams, gen_master_list, gen_random

from conftest import small_random_instances

DOC = """\
hrs v1
# three agents, two hospitals
agents:
a a1 1 : h2 h1
a a2 1 : h1 h2
a a3 2 : h2
hospitals:
h h1 1 : a1 a2
h h2 2 : a2 a3 a1
"""


def test_parse_basic():
    inst = parse_instance(DOC)
    assert inst.agent_labels == ("a1", "a2", "a3")
    assert inst.sizes == (1, 1, 2)
    assert inst.caps == (1, 2)
    # preference order preserved exactly as written
    assert [inst.hospital_labels[h] for h in inst.agent_prefs[0]] == ["h2", "h1"]
    assert [inst.agent_labels[a] for a in inst.hospital_prefs[1]] == ["a2", "a3", "a1"]
    assert inst.validate().ok


def test_parse_empty_sections():
    inst = parse_instance("hrs v1\nagents:\nhospitals:\n")
    assert inst.n_agents == 0 and inst.n_hospitals == 0


PARSE_FAULTS = [
    ("agents:\nhospitals:\n", "header"),
    ("hrs v1\nagents:\na a1 0 : h1\nhospitals:\nh h1 1 : a1\n", "non-positive size"),
    ("hrs v1\nagents:\na a1 1 :\na a1 2 :\nhospitals:\n", "duplicate agent id"),
    ("hrs v1\nagents:\na a1 1 : hx\nhospitals:\n", "unknown hospital"),
    ("hrs v1\nagents:\na a1 1 :\nhospitals:\nh h1 1 : a1\n", "does not list it back"),
    ("hrs v1\nagents:\na a1 1 : h1 h1\nhospitals:\nh h1 2 : a1\n", "not strict"),
    ("hrs v1\nagents:\nh h1 1 :\nhospitals:\n", "expected an 'a' line"),
    ("hrs v1\nagents:\na a1 1\nhospitals:\n", "':'"),
    ("hrs v1\nstray\nagents:\nhospitals:\n", "before the 'agents:'"),
    ("hrs v1\nagents:\na a1 one : h1\nhospitals:\nh h1 1 : a1\n", "bad number"),
    ("hrs v1\nagents:\n", "missing"),
]


@pytest.mark.parametrize("text,fragment", PARSE_FAULTS)
def test_parse_errors(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_parse_error_lines_are_pinned():
    # the error path reads the rows again: each fault keeps its line, also
    # where a hospital lists at least a quarter of the agents
    texts = [text for text, _ in PARSE_FAULTS] + [
        "hrs v1\nagents:\na a1 1 : h1\na a2 1 : h1\nhospitals:\n\nh h1 2 : a1\nh h2 1 : a1\n",
        "hrs v1\nagents:\na a1 1 : h1\na a2 1 :\nhospitals:\nh h1 2 : a1 a2\n",
        "hrs v1\nagents:\na a1 1 : h1 h1\na a2 1 : h1\nhospitals:\nh h1 2 : a1 a2\n",
        "hrs v1\nagents:\na a1 1 : h1\na a2 1 : h1\n# comment\nhospitals:\nh h1 2 : a2 a1 a2\n",
    ]
    lines = []
    for text in texts:
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        lines.append(err.value.line)
    assert lines == [1, 3, 4, 3, 5, 3, 3, 3, 2, 3, None, 4, 6, 3, 7]


def test_parse_error_has_line_number():
    with pytest.raises(FormatError) as err:
        parse_instance("hrs v1\nagents:\na a1 0 : h1\nhospitals:\nh h1 1 : a1\n")
    assert err.value.line == 3


def test_round_trip_identity():
    inst = parse_instance(DOC)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text  # canonical after one pass


def test_round_trip_random_instances():
    for inst in small_random_instances(40, seed=3):
        assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_preserves_hospital_order(gap_inst):
    again = parse_instance(serialize_instance(gap_inst))
    h1 = again.hospital_index["h1"]
    assert [again.agent_labels[a] for a in again.hospital_prefs[h1]] == ["a2", "a3", "a1"]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_generated(seed):
    inst = gen_random(GenParams(n_agents=5, n_hospitals=3, density=0.6, seed=seed))
    assert parse_instance(serialize_instance(inst)) == inst


def test_occupancy_and_size(no_stable_inst, gap_inst):
    n = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert occupancy(no_stable_inst, n, no_stable_inst.hospital_index["h2"]) == 2
    assert matching_size(no_stable_inst, n) == 3
    m_prime = Matching.from_labeled_pairs(gap_inst, [("a1", "h2"), ("a2", "h1"), ("a3", "h1")])
    assert occupancy(gap_inst, m_prime, gap_inst.hospital_index["h1"]) == 4
    assert matching_size(gap_inst, m_prime) == 7
    empty = Matching.empty(no_stable_inst)
    assert occupancies(no_stable_inst, empty) == [0, 0]
    assert matching_size(no_stable_inst, empty) == 0
    with pytest.raises(InstanceError):
        occupancy(no_stable_inst, n, 99)


def test_occupancy_sums_to_matching_size():
    for inst in small_random_instances(25, seed=9):
        matched = [
            (a, inst.agent_prefs[a][0]) for a in range(inst.n_agents)
            if inst.agent_prefs[a] and inst.sizes[a] <= inst.caps[inst.agent_prefs[a][0]]
        ]
        # greedily keep a feasible prefix
        occ = [0] * inst.n_hospitals
        pairs = []
        for a, h in matched:
            if occ[h] + inst.sizes[a] <= inst.caps[h]:
                occ[h] += inst.sizes[a]
                pairs.append((a, h))
        m = Matching.from_pairs(inst, pairs)
        assert sum(occupancies(inst, m)) == matching_size(inst, m)


@pytest.mark.parametrize("pairs", [[(9, 0)], [(-1, 0)], [(0, 2)], [(0, -1)], [(0.0, 0)], [(True, 0)]])
def test_from_pairs_rejects_an_index_out_of_range(no_stable_inst, pairs):
    # -1 used to place the last agent through negative indexing, 9 raised IndexError
    with pytest.raises(ValueError, match="is not two indices in range"):
        Matching.from_pairs(no_stable_inst, pairs)


def test_from_pairs_rejects_an_agent_matched_twice(no_stable_inst):
    with pytest.raises(InstanceError, match="^agent a1 matched twice$"):
        Matching.from_pairs(no_stable_inst, [(0, 0), (0, 1)])
    assert Matching.from_pairs(no_stable_inst, [(2, 1), (0, 0)]) == Matching((0, UNMATCHED, 1))


def test_is_feasible(no_stable_inst):
    good = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert is_feasible(no_stable_inst, good) == (True, None)
    # a3 has size 2 > cap(h1) = 1, and h1 is not even on a3's list
    bad = Matching((UNMATCHED, UNMATCHED, 0))
    ok, msg = is_feasible(no_stable_inst, bad)
    assert not ok and msg
    over = Matching((1, 1, 1))  # a1, a2, a3 all at h2: 1+1+2 > 2
    ok, msg = is_feasible(no_stable_inst, over)
    assert not ok and "capacity" in msg


def test_matching_json_round_trip(no_stable_inst):
    m = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    data = matching_to_json(no_stable_inst, m)
    assert data["size"] == 3
    assert data["unmatched"] == ["a2"]
    assert data["occupancy"] == {"h1": 1, "h2": 2}
    assert matching_from_json(no_stable_inst, data) == m


def test_labeled_pairs_name_a_bad_label(no_stable_inst):
    # labelled pairs take one path: the constructor and matching_from_json
    # raise InstanceError naming the first bad label, never KeyError or
    # TypeError
    for pairs, message in [
        ([("a1", "h1"), ("zz", "h1")], "unknown agent 'zz' in matching"),
        ([(["a1"], "h1")], "unknown agent ['a1'] in matching"),
        ([("a1", "h9")], "unknown hospital 'h9' in matching"),
        ([("a1", ["h1"])], "hospital of agent 'a1' is not a label: ['h1']"),
        ([("a1", 0)], "hospital of agent 'a1' is not a label: 0"),
    ]:
        with pytest.raises(InstanceError) as err:
            Matching.from_labeled_pairs(no_stable_inst, pairs)
        assert str(err.value) == message
        if all(isinstance(a, str) for a, _ in pairs):
            with pytest.raises(InstanceError) as err:
                matching_from_json(no_stable_inst, {"matched": dict(pairs)})
            assert str(err.value) == message
    # an entry that is no pair is named; a two-item list is a pair
    for bad in (5, ("a1",), ("a1", "h1", "h2")):
        with pytest.raises(InstanceError) as err:
            Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), bad])
        assert str(err.value) == f"matching entry {bad!r} is not an (agent, hospital) pair"
    assert Matching.from_labeled_pairs(no_stable_inst, [["a1", "h1"]]).assign == (0, UNMATCHED, UNMATCHED)
    with pytest.raises(InstanceError, match="^agent a1 matched twice$"):
        Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a1", "h2")])
    with pytest.raises(InstanceError, match="^matching JSON must be an object with a 'matched' map$"):
        matching_from_json(no_stable_inst, {"matched": [["a1", "h1"]]})


def test_matching_equality_is_pair_set(no_stable_inst):
    m1 = Matching.from_labeled_pairs(no_stable_inst, [("a3", "h2"), ("a1", "h1")])
    m2 = Matching.from_labeled_pairs(no_stable_inst, [("a1", "h1"), ("a3", "h2")])
    assert m1 == m2 and hash(m1) == hash(m2)


def test_build_rejects_bad_labels():
    with pytest.raises(InstanceError):
        HrsInstance.build([("a1", 1, []), ("a1", 1, [])], [])
    with pytest.raises(InstanceError):
        HrsInstance.build([("a1", 1, ["nope"])], [("h1", 1, [])])


def test_validate_reports_all():
    agents, hospitals = [("a1", 0, ["h1", "h1"])], [("h1", 1, [])]
    report = check_instance_data(agents, hospitals)
    messages = report.summary()
    assert "non-positive size" in messages
    assert "not strict" in messages
    assert "does not list it back" in messages
    with pytest.raises(InstanceError, match="^agent a1: non-positive size: 0$"):
        HrsInstance.build(agents, hospitals)


def test_index_constructor_rejects_bad_indices():
    with pytest.raises(InstanceError, match="agent a1: lists unknown hospital -1"):
        HrsInstance(["a1"], [1], [[-1]], ["h1"], [1], [[0]])
    with pytest.raises(InstanceError, match="hospital h1: lists unknown agent 1"):
        HrsInstance(["a1"], [1], [[0]], ["h1"], [1], [[0, 1]])
    with pytest.raises(InstanceError, match="agent a1: lists unknown hospital 0.0"):
        HrsInstance(["a1"], [1], [[0.0]], ["h1"], [1], [[0]])
    with pytest.raises(InstanceError, match="agent field lengths disagree"):
        HrsInstance(["a1"], [1, 1], [[]], [], [], [])
    with pytest.raises(InstanceError, match="hospital h1: lists a1 which does not list it back"):
        HrsInstance(["a1"], [1], [[]], ["h1"], [1], [[0]])
    with pytest.raises(InstanceError, match="^hospital h1: lists unknown agent 'a1'$"):
        HrsInstance(["a1"], [1], [[0]], ["h1"], [5], [["a1"]])
    # a repeated agent entry, also where the hospital lists balance the
    # totals, and entries out of range, negative, float or bool on either side
    for agent_prefs, hospital_prefs, message in [
        ([[0, 0], []], [[0], []], "agent a1: preference list not strict (duplicate entry)"),
        ([[0, 0], []], [[0], [0]], "agent a1: preference list not strict (duplicate entry)"),
        ([[2], []], [[0], []], "agent a1: lists unknown hospital 2"),
        ([[0], []], [[0, 2], []], "hospital h1: lists unknown agent 2"),
        ([[0], []], [[0, -1], []], "hospital h1: lists unknown agent -1"),
        ([[0], []], [[0.0], []], "hospital h1: lists unknown agent 0.0"),
        ([[1.0], []], [[], [0]], "agent a1: lists unknown hospital 1.0"),
        ([[True], []], [[], [1]], "agent a1: lists h2 which does not list it back"),
        # a label where an index belongs is an unknown entry, even one that
        # names a vertex of the other side
        ([[0], []], [["a1"], []], "hospital h1: lists unknown agent 'a1'"),
        ([["h1"], []], [[0], []], "agent a1: lists unknown hospital 'h1'"),
    ]:
        with pytest.raises(InstanceError) as err:
            HrsInstance(["a1", "a2"], [1, 1], agent_prefs, ["h1", "h2"], [1, 1], hospital_prefs)
        assert str(err.value) == message


def test_index_constructor_takes_a_bool_as_the_int_it_equals():
    as_bool = HrsInstance(["a1", "a2"], [1, 1], [[True], []], ["h1", "h2"], [1, 1], [[], [False]])
    as_int = HrsInstance(["a1", "a2"], [1, 1], [[1], []], ["h1", "h2"], [1, 1], [[], [0]])
    assert as_bool == as_int and as_bool.agent_pref_hranks_neg == ((0,), ())


def test_instance_keeps_each_preference_once():
    # each list entry is stored in the two lists and the per-edge ranks, a
    # word each; with labels and label indexes a 200k-edge instance holds
    # about 38 bytes an edge, and a per-vertex rank table would add 50 more
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = gen_random(GenParams(n_agents=10_000, n_hospitals=20, seed=1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert inst.n_edges == 200_000
    assert held / inst.n_edges < 50


def test_parse_peaks_near_the_instance_it_keeps():
    # the rows' list strings go before the constructor runs, and a hospital
    # that lists a quarter of the agents or more gets a list table of 8 bytes
    # an agent, not a dict: a 200k-edge parse peaks about 46 bytes an edge
    # above its text, where one dict per hospital beside the rows took 87
    text = serialize_instance(gen_random(GenParams(n_agents=10_000, n_hospitals=20, seed=1)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert inst.n_edges == 200_000
    assert peak / inst.n_edges <= 60


@pytest.mark.parametrize("h1,h2", [
    ([0, 1, 2, -1], []),   # -1 would read as a4, who lists h1
    ([0, 1, 2, 4], []),    # out of range
    ([0, 1, 2, 3.0], []),  # no index
    ([0, 1, 2], [3]),      # h1 does not list a4 back, and h2 lists a4: the totals agree
], ids=["negative", "out-of-range", "float", "unlisted"])
def test_list_tables_reject_what_the_data_check_reports(h1, h2):
    # h1 lists at least a quarter of the agents, so its ranks come from a list
    # table, which raises no KeyError on an agent it does not list
    named = ["a1", "a2", "a3", "a4"]
    rows = [[named[x] if type(x) is int and 0 <= x < 4 else x for x in p] for p in (h1, h2)]
    first = check_instance_data(
        [(label, 1, ["h1"]) for label in named], [("h1", 4, rows[0]), ("h2", 1, rows[1])]
    ).issues[0]
    with pytest.raises(InstanceError) as err:
        HrsInstance(named, [1] * 4, [[0]] * 4, ["h1", "h2"], [4, 1], [h1, h2])
    assert str(err.value) == f"{first.location}: {first.message}"


def test_zero_agents_with_an_empty_hospital_list():
    inst = HrsInstance([], [], [], ["h1"], [1], [[]])
    assert inst.n_agents == 0 and inst.hospital_prefs == ((),) and inst.agent_pref_hranks_neg == ()
    assert parse_instance(serialize_instance(inst)) == inst


def test_generator_output_is_pinned():
    # sha256 of gen_random then gen_master_list text, 40 x 8 at density 0.3,
    # seeds 0-19: the constructor's rank tables must not change what the
    # generators make
    digest = hashlib.sha256()
    for seed in range(20):
        params = GenParams(n_agents=40, n_hospitals=8, density=0.3, seed=seed)
        for gen in (gen_random, gen_master_list):
            digest.update(serialize_instance(gen(params)).encode())
    assert digest.hexdigest() == "1feff456a6b64985769e1c72ba3381dd715599f1e26bd955b14deaee1557bfe5"


@pytest.mark.parametrize("agents,hospitals", [([0, 99], [0]), ([-1], [0]), ([0], [2]), ([0.0], [0])])
def test_induced_subinstance_rejects_an_index_out_of_range(no_stable_inst, agents, hospitals):
    # 99 used to raise IndexError, and -1 to keep the last agent
    with pytest.raises(ValueError, match="is not an index in range"):
        induced_subinstance(no_stable_inst, agents, hospitals)


@pytest.mark.parametrize("label", ["", "h 1", "h#1", ":"])
def test_build_rejects_labels_the_text_format_cannot_carry(label):
    with pytest.raises(InstanceError, match="hospital #0: bad label"):
        HrsInstance.build([("a1", 1, [label])], [(label, 1, ["a1"])])


def test_parse_reports_duplicate_id_at_its_line():
    with pytest.raises(FormatError) as err:
        parse_instance("hrs v1\nagents:\na a1 1 :\n\na a1 2 :\nhospitals:\n")
    assert err.value.line == 5 and "duplicate agent id 'a1'" in str(err.value)


def test_induced_subinstance(gap_inst):
    sub = induced_subinstance(
        gap_inst,
        [gap_inst.agent_index["a2"], gap_inst.agent_index["a3"]],
        [gap_inst.hospital_index["h1"]],
    )
    assert sub.agent_labels == ("a2", "a3")
    assert sub.hospital_labels == ("h1",)
    assert sub.validate().ok
    assert [sub.agent_labels[a] for a in sub.hospital_prefs[0]] == ["a2", "a3"]


# --- fuzzing the construction paths --------------------------------------------

_TOKENS = ["a", "h", ":", "#", "0", "1", "2", "-1", "x", "a1", "a2", "h1", "h2",
           "agents:", "hospitals:", "hrs", "v1"]


@st.composite
def mutated_texts(draw):
    """The text of a small random instance with tokens and lines added,
    replaced or dropped."""
    inst = gen_random(GenParams(
        n_agents=draw(st.integers(0, 4)), n_hospitals=draw(st.integers(0, 3)),
        density=draw(st.sampled_from([0.5, 1.0])), seed=draw(st.integers(0, 2**16)),
    ))
    lines = [line.split(" ") for line in serialize_instance(inst).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["add", "replace", "drop", "add line", "drop line"]))
        i = draw(st.integers(0, len(lines)))
        if op == "add line":
            lines.insert(i, draw(st.lists(st.sampled_from(_TOKENS), max_size=5)))
            continue
        if i == len(lines):
            continue
        if op == "drop line":
            del lines[i]
            continue
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        if op == "add":
            line.insert(j, draw(st.sampled_from(_TOKENS)))
        elif j < len(line):
            if op == "replace":
                line[j] = draw(st.sampled_from(_TOKENS))
            else:
                del line[j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@given(mutated_texts())
@settings(max_examples=300, deadline=None)
def test_parse_mutated_text_round_trips_or_raises_format_error(text):
    try:
        inst = parse_instance(text)
    except FormatError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


_BAD_LABELS = ["", "a 1", "a#1", ":", "a1", "h1", "zz"]
_VALUES = [0, -1, 1, 2, True, 1.5, "1"]


@st.composite
def labelled_data(draw):
    """Labelled rows of a small random instance, sometimes made malformed: a
    bad size or capacity, a relabelled vertex, an entry dropped or added."""
    inst = gen_random(GenParams(
        n_agents=draw(st.integers(0, 4)), n_hospitals=draw(st.integers(0, 3)),
        density=draw(st.sampled_from([0.5, 1.0])), seed=draw(st.integers(0, 2**16)),
    ))
    agents, hospitals = inst._rows()
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([agents, hospitals]))
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        label, value, plist = rows[i]
        op = draw(st.sampled_from(["value", "label", "drop", "add"]))
        if op == "value":
            value = draw(st.sampled_from(_VALUES))
        elif op == "label":
            label = draw(st.sampled_from(_BAD_LABELS))
        elif op == "drop" and plist:
            plist = plist[:-1]
        elif op == "add":
            plist = plist + [draw(st.sampled_from(_BAD_LABELS + ["a2", "h2"]))]
        rows[i] = (label, value, plist)
    return agents, hospitals


@given(labelled_data())
@settings(max_examples=300, deadline=None)
def test_build_raises_exactly_when_the_data_check_reports(data):
    agents, hospitals = data
    report = check_instance_data(agents, hospitals)
    try:
        inst = HrsInstance.build(agents, hospitals)
    except InstanceError as exc:
        first = report.issues[0]
        assert str(exc) == f"{first.location}: {first.message}"
    else:
        assert report.ok
        assert inst._rows() == (agents, hospitals)
