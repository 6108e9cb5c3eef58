import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hrs.model import (
    UNMATCHED, FormatError, HrsInstance, InstanceError, Matching, induced_subinstance,
)
from hrs.oracle import (
    SearchBudget,
    exists_a_perfect_occupancy_stable,
    occupancy_stable_matchings,
    smti_complete_stable,
    stable_matchings,
)
from hrs.reduce import (
    GadgetIndex,
    ReductionError,
    SmtiInstance,
    SmtiMatching,
    check_occ_bounds,
    check_stable_bounds,
    forced_chain_pairs,
    is_complete,
    is_weakly_stable,
    lift_occ,
    lift_stable,
    parse_smti,
    project_occ,
    project_stable,
    reduce_occ,
    reduce_stable,
    serialize_smti,
    smti_blocking_pairs,
    tied_t_sets,
    validate_csmti,
)
from hrs.verify import is_a_perfect, is_occupancy_stable, is_stable
from hrs.harness import GenParams, gen_csmti


def two_tied() -> SmtiInstance:
    return SmtiInstance.build(
        [("m1", [["w1", "w2"]]), ("m2", [["w1", "w2"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m2", "m1"])],
    )


def all_strict_3() -> SmtiInstance:
    return SmtiInstance.build(
        [
            ("m1", [["w1"], ["w2"], ["w3"]]),
            ("m2", [["w2"], ["w1"], ["w3"]]),
            ("m3", [["w3"], ["w1"], ["w2"]]),
        ],
        [
            ("w1", ["m1", "m2", "m3"]),
            ("w2", ["m2", "m1", "m3"]),
            ("w3", ["m3", "m1", "m2"]),
        ],
    )


def no_csm() -> SmtiInstance:
    """One tied man, no complete weakly stable matching."""
    return SmtiInstance.build(
        [("m1", [["w1", "w2"]]),
         ("m2", [["w1"], ["w2"], ["w3"]]),
         ("m3", [["w1"], ["w3"], ["w2"]])],
        [("w1", ["m3", "m2", "m1"]),
         ("w2", ["m2", "m3", "m1"]),
         ("w3", ["m2", "m3"])],
    )


# --- marriage model ------------------------------------------------------------


def test_smti_text_round_trip():
    smti = no_csm()
    text = serialize_smti(smti)
    assert "( w1 w2 )" in text
    assert parse_smti(text) == smti


def test_smti_parse_errors():
    with pytest.raises(FormatError):
        parse_smti("m m1 : ( w1\nw w1 : m1\n")
    with pytest.raises(FormatError):
        parse_smti("m m1 ( w1 )\n")
    with pytest.raises(FormatError):
        parse_smti("w w1 : ( m1 m2 )\n")
    with pytest.raises(FormatError):
        parse_smti("m m1 : w1\n")  # w1 never declared


def test_smti_parse_skips_comments_and_blank_lines_but_counts_them():
    text = "# two men\n\nm m1 : w1  # strict\n   # indented\nm m2 : ( w1 w2\nw w1 : m1 m2\n"
    with pytest.raises(FormatError, match="unclosed") as err:
        parse_smti(text)
    assert err.value.line == 5
    fixed = text.replace("( w1 w2", "( w1 w2 )") + "w w2 : m2#x\n"
    assert parse_smti(fixed) == SmtiInstance.build(
        [("m1", [["w1"]]), ("m2", [["w1", "w2"]])], [("w1", ["m1", "m2"]), ("w2", ["m2"])]
    )


def test_smti_matching_from_pairs_checks_indices_first():
    smti = SmtiInstance.build(
        [("m1", [["w1"]]), ("m2", [["w2"]])], [("w1", ["m1"]), ("w2", ["m2"])]
    )
    # 5 used to raise IndexError, and -1 to name m2 as matched twice
    for pairs in ([(5, 0)], [(-1, 0), (1, 1)], [(0, 2)]):
        with pytest.raises(ValueError, match="is not two indices in range"):
            SmtiMatching.from_pairs(smti, pairs)
    with pytest.raises(InstanceError, match="^man m1 matched twice$"):
        SmtiMatching.from_pairs(smti, [(0, 0), (0, 1)])
    with pytest.raises(InstanceError, match="^two men matched to one woman$"):
        SmtiMatching.from_pairs(smti, [(0, 0), (1, 0)])
    matching = SmtiMatching.from_pairs(smti, [(1, 1), (0, 0)])
    assert matching == SmtiMatching.from_pairs(smti, [(0, 0), (1, 1)])
    assert matching != Matching(matching.assign)  # equality needs the same model
    assert repr(matching) == "SmtiMatching([(0, 0), (1, 1)])"
    assert SmtiMatching.empty(smti).assign == (UNMATCHED, UNMATCHED)


def test_smti_mutuality_enforced():
    with pytest.raises(InstanceError):
        SmtiInstance.build([("m1", [["w1"]])], [("w1", [])])


def test_validate_csmti_good():
    assert validate_csmti(all_strict_3()).ok
    assert validate_csmti(two_tied()).ok
    assert validate_csmti(no_csm()).ok


def test_validate_csmti_violations():
    tie3 = SmtiInstance.build(
        [("m1", [["w1", "w2", "w3"]]),
         ("m2", [["w1"], ["w2"], ["w3"]]),
         ("m3", [["w1"], ["w2"], ["w3"]])],
        [("w1", ["m1", "m2", "m3"]), ("w2", ["m1", "m2", "m3"]), ("w3", ["m1", "m2", "m3"])],
    )
    assert not validate_csmti(tie3).ok

    unequal = SmtiInstance.build(
        [("m1", [["w1", "w2"]])], [("w1", ["m1"]), ("w2", ["m1"])]
    )
    assert any("men but" in i.message for i in validate_csmti(unequal).issues)

    short_strict = SmtiInstance.build(
        [("m1", [["w1"], ["w2"]]), ("m2", [["w1", "w2"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m1", "m2"])],
    )
    assert not validate_csmti(short_strict).ok


def test_blocking_pairs_with_ties():
    smti = no_csm()
    # m1-w1, m2-w2, m3-w3 is complete but (m3, w1) blocks: m3 ranks w1 first
    # and w1 ranks m3 first
    m = SmtiMatching.from_pairs(smti, [(0, 0), (1, 1), (2, 2)])
    assert (2, 0) in smti_blocking_pairs(smti, m)
    # a tied man never strictly prefers the other tied woman
    m2 = SmtiMatching.from_pairs(smti, [(0, 1), (1, 0), (2, 2)])
    assert all(pair[0] != 0 for pair in smti_blocking_pairs(smti, m2))


# two men, two women: m1 ties w1 and w2, m2 is strict; every pair acceptable
_MEN, _WOMEN = ["m1", "m2"], ["w1", "w2"]
_MEN_PREFS, _WOMEN_PREFS = [[[0, 1]], [[0], [1]]], [[0, 1], [1, 0]]


@pytest.mark.parametrize("men, men_prefs, women, women_prefs, message", [
    (["m1", "m2", "m3"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "man field lengths disagree"),
    (_MEN, _MEN_PREFS, ["w1"], _WOMEN_PREFS, "woman field lengths disagree"),
    (["m1", "m1"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "duplicate man label 'm1'"),
    # a duplicate is reported before a bad label
    (_MEN, _MEN_PREFS, ["(", "("], _WOMEN_PREFS, "duplicate woman label '('"),
    (["(", "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label '('"),
    (_MEN, _MEN_PREFS, ["w1", ")"], _WOMEN_PREFS, "bad woman label ')'"),
    (["m#1", "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label 'm#1'"),
    (["a b", "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label 'a b'"),
    (["", "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label ''"),
    ([1, "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label 1"),
    (_MEN, [[[0, 1]], [[0], []]], _WOMEN, _WOMEN_PREFS, "man m2 has an empty group"),
    (_MEN, [[[0, 1]], [[]]], _WOMEN, _WOMEN_PREFS, "man m2 has an empty group"),
    (_MEN, [[[0, 1.0]], [[0], [1]]], _WOMEN, _WOMEN_PREFS,
     "man m1 lists 1.0, not a woman index in range"),
    (_MEN, [[[0, "1"]], [[0], [1]]], _WOMEN, _WOMEN_PREFS,
     "man m1 lists '1', not a woman index in range"),
    (_MEN, [[[0, 2]], [[0], [1]]], _WOMEN, _WOMEN_PREFS,
     "man m1 lists 2, not a woman index in range"),
    (_MEN, _MEN_PREFS, _WOMEN, [[0, -1], [1, 0]], "woman w1 lists -1, not a man index in range"),
    (_MEN, _MEN_PREFS, _WOMEN, [[0, True], [1, 0]], "woman w1 lists True, not a man index in range"),
    (_MEN, [[[0, 1]], [[0], [0]]], _WOMEN, _WOMEN_PREFS, "man m2 lists w1 twice"),
    (_MEN, _MEN_PREFS, _WOMEN, [[0, 1, 0], [1, 0]], "woman w1 lists m1 twice"),
    (_MEN, [[[0, 1]], [[0]]], _WOMEN, _WOMEN_PREFS, "woman w2 lists m2 which does not list her back"),
    (_MEN, _MEN_PREFS, _WOMEN, [[0], [1, 0]], "man m2 lists w1 which does not list him back"),
    # a label that is a list: build used to raise TypeError (unhashable)
    ([["m1"], "m2"], _MEN_PREFS, _WOMEN, _WOMEN_PREFS, "bad man label ['m1']"),
    (_MEN, _MEN_PREFS, [["w1"], "w2"], _WOMEN_PREFS, "bad woman label ['w1']"),
])
def test_smti_constructor_rejects_malformed_input(men, men_prefs, women, women_prefs, message):
    SmtiInstance(_MEN, _MEN_PREFS, _WOMEN, _WOMEN_PREFS)  # the unmutated input is valid
    with pytest.raises(InstanceError) as err:
        SmtiInstance(men, men_prefs, women, women_prefs)
    assert str(err.value) == message
    if message.startswith(("duplicate", "bad")):  # the lists are valid: build them as labels
        with pytest.raises(InstanceError) as err:
            SmtiInstance.build(
                [(m, [[women[w] for w in g] for g in groups]) for m, groups in zip(men, men_prefs)],
                [(w, [men[m] for m in p]) for w, p in zip(women, women_prefs)],
            )
        assert str(err.value) == message


def test_smti_build_and_parse_report_constructor_faults():
    with pytest.raises(InstanceError, match="^duplicate man label 'm1'$"):
        SmtiInstance.build([("m1", [["w1"]]), ("m1", [["w1"]])], [("w1", ["m1"])])
    with pytest.raises(InstanceError, match="^man m1 lists unknown woman 'w9'$"):
        SmtiInstance.build([("m1", [["w9"]])], [("w1", [])])
    # an unhashable entry is an unknown label too
    with pytest.raises(InstanceError, match=r"^man m1 lists unknown woman \['w1'\]$"):
        SmtiInstance.build([("m1", [[["w1"]]])], [("w1", ["m1"])])
    # a man '(' with an empty list: written out, it would read back as a tie
    for text in ("m ( :\n", "m m1 : w1\nw w1 : m1\nm m1 : w1\n"):
        with pytest.raises(FormatError):
            parse_smti(text)


def test_smti_text_round_trip_generated():
    for seed in range(30):
        smti = gen_csmti(GenParams(n_agents=3 + seed % 5, n_hospitals=0, seed=seed))
        assert parse_smti(serialize_smti(smti)) == smti


_smti_labels = st.one_of(
    st.just(":"),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
).filter(lambda s: s.split() == [s] and "#" not in s and s not in ("(", ")"))


@given(st.lists(_smti_labels, min_size=1, max_size=4, unique=True),
       st.lists(_smti_labels, min_size=1, max_size=4, unique=True),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_smti_text_round_trips_any_legal_label(men, women, rng):
    smti = _random_smti(rng, len(men), len(women), men, women)
    assert parse_smti(serialize_smti(smti)) == smti


def _random_smti(rng, n_men, n_women, men=None, women=None) -> SmtiInstance:
    """Random acceptable pairs; each man's list cut into random tie groups,
    each woman's list shuffled."""
    men = men or [f"m{i + 1}" for i in range(n_men)]
    women = women or [f"w{j + 1}" for j in range(n_women)]
    lists = [[w for w in range(n_women) if rng.random() < 0.7] for _ in range(n_men)]
    men_prefs = []
    for ws in lists:
        rng.shuffle(ws)
        groups: list[list[int]] = []
        for w in ws:
            if groups and rng.random() < 0.4:
                groups[-1].append(w)
            else:
                groups.append([w])
        men_prefs.append(groups)
    suitors = [[m for m, ws in enumerate(lists) if w in ws] for w in range(n_women)]
    for s in suitors:
        rng.shuffle(s)
    return SmtiInstance(men, men_prefs, women, suitors)


def _reference_blocking_pairs(smti, matching):
    """The rank-dict scan the marriage model once kept: per person a dict from
    each listed partner to its rank (a man's rank is his group's index)."""
    men_rank = [{w: g for g, group in enumerate(groups) for w in group} for groups in smti.men_prefs]
    women_rank = [{m: r for r, m in enumerate(p)} for p in smti.women_prefs]
    woman_of = matching.assign
    man_of = [UNMATCHED] * smti.n_women
    for m, w in enumerate(woman_of):
        if w != UNMATCHED:
            if w not in men_rank[m]:
                raise ValueError("matching uses an unacceptable pair")
            man_of[w] = m
    out = []
    big = 1 << 30
    for m in range(smti.n_men):
        cur = woman_of[m]
        cur_rank = men_rank[m][cur] if cur != UNMATCHED else big
        for w, rank in men_rank[m].items():
            if w == cur or rank >= cur_rank:
                continue
            partner = man_of[w]
            partner_rank = women_rank[w][partner] if partner != UNMATCHED else big
            if women_rank[w][m] < partner_rank:
                out.append((m, w))
    out.sort()
    return out


def test_blocking_pairs_match_the_rank_dict_reference():
    rng = random.Random(3)
    checked = 0
    for _ in range(150):
        smti = _random_smti(rng, rng.randint(1, 4), rng.randint(1, 4))
        choices = [[UNMATCHED] + [w for g in groups for w in g] for groups in smti.men_prefs]
        for assign in itertools.product(*choices):
            matched = [w for w in assign if w != UNMATCHED]
            if len(set(matched)) != len(matched):
                continue
            matching = SmtiMatching(assign)
            expected = _reference_blocking_pairs(smti, matching)
            assert smti_blocking_pairs(smti, matching) == expected
            assert is_weakly_stable(smti, matching) == (not expected)
            checked += 1
    assert checked > 1000
    # an unacceptable pair is refused even after a man who blocks: m1, at w2,
    # blocks with w1, and m2 does not list w3
    smti = SmtiInstance.build([("m1", [["w1"], ["w2"]]), ("m2", [["w1"]])],
                              [("w1", ["m1", "m2"]), ("w2", ["m1"]), ("w3", [])])
    assert smti_blocking_pairs(smti, SmtiMatching([1, UNMATCHED])) == [(0, 0), (1, 0)]
    for w in (2, 3, 7, -2, 0.0, "0"):
        for check in (smti_blocking_pairs, is_weakly_stable):
            with pytest.raises(ValueError, match="^matching uses an unacceptable pair$"):
                check(smti, SmtiMatching([1, w]))


def test_blocking_pairs_reject_a_matching_of_the_wrong_length():
    smti = two_tied()
    for assign in ([0], [0, 1, UNMATCHED]):
        with pytest.raises(ValueError, match="^matching length does not match the number of men$"):
            smti_blocking_pairs(smti, SmtiMatching(assign))
        with pytest.raises(ValueError, match="^matching length does not match the number of men$"):
            is_weakly_stable(smti, SmtiMatching(assign))


# --- occ-target construction ----------------------------------------------------


def test_reduce_occ_counts():
    inst, _ = reduce_occ(two_tied())
    assert inst.n_agents == 12
    assert inst.n_hospitals == 10  # 2 woman-hospitals + 2 gadgets x 4
    inst3, _ = reduce_occ(all_strict_3())
    assert inst3.n_agents == 6  # 3 men x 2 agents
    assert inst3.n_hospitals == 6  # 3 woman-hospitals + 3 fallbacks


def test_reduce_occ_empty():
    inst, index = reduce_occ(SmtiInstance.build([], []))
    assert inst.n_agents == 0 and inst.n_hospitals == 0
    assert index.women == {} and index.men == {}


def test_reduce_occ_wiring():
    smti = no_csm()
    inst, index = reduce_occ(smti)
    assert inst.validate().ok
    info = index.men["m1"]
    ag, hs = info["agents"], info["hospitals"]

    def prefs_of(label):
        return [inst.hospital_labels[h] for h in inst.agent_prefs[inst.agent_index[label]]]

    def hlist(label):
        return [inst.agent_labels[a] for a in inst.hospital_prefs[inst.hospital_index[label]]]

    # tie over (w1, w2): branch agents route through the woman-hospitals
    assert prefs_of(ag["a1"]) == [hs["h1"], index.women["w1"], hs["x1"]]
    assert prefs_of(ag["a2"]) == [hs["h2"], index.women["w2"], hs["x2"]]
    assert prefs_of(ag["a3"]) == [hs["h1"], hs["h2"]]
    assert prefs_of(ag["a4"]) == [hs["h2"], hs["h1"]]
    assert hlist(hs["h1"]) == [ag["a4"], ag["a1"], ag["a3"]]
    assert hlist(hs["h2"]) == [ag["a3"], ag["a2"], ag["a4"]]
    assert hlist(hs["x1"]) == [ag["x1"], ag["a1"]]
    # sizes: branch agents 2, the rest 1
    assert inst.sizes[inst.agent_index[ag["a1"]]] == 2
    assert inst.sizes[inst.agent_index[ag["a3"]]] == 1
    # woman-hospital substitution is entry-wise: w1's list m3, m2, m1 becomes
    # the strict agents of m3/m2 then m1's first branch agent
    w1 = index.women["w1"]
    assert hlist(w1) == [
        index.men["m3"]["agents"]["a"],
        index.men["m2"]["agents"]["a"],
        ag["a1"],
    ]
    # strict man keeps his list order, fallback hospital last
    m2a = index.men["m2"]["agents"]["a"]
    assert prefs_of(m2a) == [
        index.women["w1"], index.women["w2"], index.women["w3"],
        index.men["m2"]["hospitals"]["beta"],
    ]


def test_reduce_occ_structural_bounds():
    for seed in range(25):
        smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, seed=seed))
        inst, _ = reduce_occ(smti)
        assert check_occ_bounds(inst).ok
        assert inst.validate().ok


def test_reduce_occ_rejects_invalid():
    bad = SmtiInstance.build(
        [("m1", [["w1"], ["w2"]]), ("m2", [["w1", "w2"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m1", "m2"])],
    )
    with pytest.raises(ReductionError):
        reduce_occ(bad)


def test_gadget_index_json_round_trip():
    _, index = reduce_occ(no_csm())
    again = GadgetIndex.from_json(index.to_json())
    assert again.target == index.target
    assert again.women == index.women
    assert again.men == index.men


# --- occ-target witness maps ------------------------------------------------------


def test_lift_occ_known_matching():
    smti = all_strict_3()
    m = smti_complete_stable(smti)
    assert m is not None
    inst, index = reduce_occ(smti)
    lifted = lift_occ(smti, m, index, inst)
    assert is_a_perfect(inst, lifted) and is_occupancy_stable(inst, lifted)
    assert project_occ(smti, lifted, index, inst) == m


def test_lift_occ_places_t_set():
    smti = SmtiInstance.build(
        [("m1", [["w1", "w2"]]), ("m2", [["w2", "w1"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m2", "m1"])],
    )
    m = smti_complete_stable(smti)
    assert m is not None
    inst, index = reduce_occ(smti)
    lifted = lift_occ(smti, m, index, inst)
    pair_set = set(lifted.pairs())
    for j in range(2):
        t_a, t_b = tied_t_sets(smti, index, inst, j)
        assert set(t_a) <= pair_set or set(t_b) <= pair_set
    # matched to the lower-indexed woman means the first alternative
    j0_w = m.assign[0]
    t_a, t_b = tied_t_sets(smti, index, inst, 0)
    expected = t_a if j0_w == 0 else t_b
    assert set(expected) <= pair_set


def test_lift_occ_requires_complete():
    smti = all_strict_3()
    inst, index = reduce_occ(smti)
    with pytest.raises(ReductionError):
        lift_occ(smti, SmtiMatching.empty(smti), index, inst)


def test_project_occ_requires_good_matching():
    smti = all_strict_3()
    inst, index = reduce_occ(smti)
    with pytest.raises(ReductionError):
        project_occ(smti, Matching.empty(inst), index, inst)


def test_occ_gadget_forced_structure():
    """On every all-agents-matched occupancy-stable matching of a reduced
    instance: the two chasers share one hospital; exactly one branch agent sits
    at its first choice; no branch or strict agent sits at its last choice."""
    smti = no_csm()
    inst, index = reduce_occ(smti)
    res = occupancy_stable_matchings(inst, SearchBudget(max_nodes=2_000_000))
    assert res.complete
    perfect = [m for m in res.matchings if is_a_perfect(inst, m)]
    # this source instance has no complete stable matching, so none here either
    assert perfect == []

    smti2 = SmtiInstance.build(
        [("m1", [["w1", "w2"]]),
         ("m2", [["w1"], ["w2"], ["w3"]]),
         ("m3", [["w1"], ["w3"], ["w2"]])],
        [("w1", ["m1", "m2", "m3"]),
         ("w2", ["m2", "m3", "m1"]),
         ("w3", ["m2", "m3"])],
    )
    inst2, index2 = reduce_occ(smti2)
    res2 = occupancy_stable_matchings(inst2, SearchBudget(max_nodes=2_000_000))
    assert res2.complete
    perfect2 = [m for m in res2.matchings if is_a_perfect(inst2, m)]
    assert perfect2
    info = index2.men["m1"]
    ag = info["agents"]
    a1 = inst2.agent_index[ag["a1"]]
    a2 = inst2.agent_index[ag["a2"]]
    a3 = inst2.agent_index[ag["a3"]]
    a4 = inst2.agent_index[ag["a4"]]
    strict_agents = [
        inst2.agent_index[index2.men[lbl]["agents"]["a"]]
        for lbl in ("m2", "m3")
    ]
    for m in perfect2:
        assert m.assign[a3] == m.assign[a4]
        firsts = sum(
            1 for a in (a1, a2) if m.assign[a] == inst2.agent_prefs[a][0]
        )
        assert firsts == 1
        for a in (a1, a2, *strict_agents):
            assert m.assign[a] != inst2.agent_prefs[a][-1]


def test_occ_equivalence_sampled():
    hits = {True: 0, False: 0}
    for seed in range(30):
        smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, seed=seed))
        source = smti_complete_stable(smti)
        inst, index = reduce_occ(smti)
        res = exists_a_perfect_occupancy_stable(inst, SearchBudget(max_nodes=5_000_000))
        assert res.complete
        assert bool(res.matchings) == (source is not None)
        hits[source is not None] += 1
        if source is not None:
            lifted = lift_occ(smti, source, index, inst)
            assert project_occ(smti, lifted, index, inst) == source
        if res.matchings:
            back = project_occ(smti, res.matchings[0], index, inst)
            assert is_complete(smti, back) and is_weakly_stable(smti, back)
    assert hits[True] >= 3  # both directions must actually occur
    assert hits[False] >= 1


# --- stable-target construction ----------------------------------------------------


def test_reduce_stable_counts():
    inst, _ = reduce_stable(all_strict_3())
    # per strict man: one agent plus a three-agent chain; hospitals: three
    # chain hospitals; plus one hospital per woman
    assert inst.n_agents == 12
    assert inst.n_hospitals == 12
    tied, _ = reduce_stable(no_csm())
    assert tied.n_agents == 12 + 2 * 4
    assert tied.n_hospitals == 3 + 8 + 2 * 3


def test_reduce_stable_wiring():
    smti = no_csm()
    inst, index = reduce_stable(smti)
    assert inst.validate().ok
    info = index.men["m1"]
    ag, hs = info["agents"], info["hospitals"]

    def prefs_of(label):
        return [inst.hospital_labels[h] for h in inst.agent_prefs[inst.agent_index[label]]]

    def hlist(label):
        return [inst.agent_labels[a] for a in inst.hospital_prefs[inst.hospital_index[label]]]

    assert prefs_of(ag["a1"]) == [hs["h1"], index.women["w1"], hs["p_1_1"]]
    assert prefs_of(ag["a2"]) == [hs["h2"], index.women["w2"], hs["p_2_1"]]
    assert prefs_of(ag["a3"]) == [hs["h2"], hs["h1"]]
    assert prefs_of(ag["a4"]) == [hs["h1"], hs["h2"]]
    assert prefs_of(ag["a5"]) == [hs["h1"]]
    assert prefs_of(ag["a6"]) == [hs["h2"]]
    assert hlist(hs["h1"]) == [ag["a3"], ag["a5"], ag["a1"], ag["a4"]]
    assert hlist(hs["h2"]) == [ag["a4"], ag["a6"], ag["a2"], ag["a3"]]
    for k in (1, 2):
        assert prefs_of(ag[f"q_{k}_1"]) == [hs[f"p_{k}_1"], hs[f"p_{k}_2"], hs[f"p_{k}_3"]]
        assert prefs_of(ag[f"q_{k}_2"]) == [hs[f"p_{k}_3"], hs[f"p_{k}_2"]]
        assert prefs_of(ag[f"q_{k}_3"]) == [hs[f"p_{k}_3"]]
        branch = ag["a1"] if k == 1 else ag["a2"]
        assert hlist(hs[f"p_{k}_1"]) == [branch, ag[f"q_{k}_1"]]
        assert hlist(hs[f"p_{k}_2"]) == [ag[f"q_{k}_2"], ag[f"q_{k}_1"]]
        assert hlist(hs[f"p_{k}_3"]) == [ag[f"q_{k}_1"], ag[f"q_{k}_3"], ag[f"q_{k}_2"]]
    # woman-hospitals have capacity 1; chain thirds capacity 3
    assert inst.caps[inst.hospital_index[index.women["w1"]]] == 1
    assert inst.caps[inst.hospital_index[hs["p_1_3"]]] == 3
    # strict man: list order preserved, chain first hospital last
    m2 = index.men["m2"]
    assert prefs_of(m2["agents"]["a"]) == [
        index.women["w1"], index.women["w2"], index.women["w3"], m2["hospitals"]["p_1"],
    ]


def test_reduce_stable_structural_bounds():
    for seed in range(25):
        smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, seed=seed))
        inst, _ = reduce_stable(smti)
        assert check_stable_bounds(inst).ok
        for a in range(inst.n_agents):
            if inst.sizes[a] > 1:
                assert inst.sizes[a] == 3 and len(inst.agent_prefs[a]) == 1


def test_reduce_stable_rejects_small_strict():
    # a strict man needs three women; two women cannot support one
    with pytest.raises(ReductionError):
        reduce_stable(SmtiInstance.build(
            [("m1", [["w1", "w2"]]), ("m2", [["w1"], ["w2"]])],
            [("w1", ["m1", "m2"]), ("w2", ["m1", "m2"])],
        ))


def test_chain_sub_gadget_has_no_stable_matching():
    """Dropping the chain's first hospital leaves a three-agent pattern that
    admits no stable matching (the no-stable example scaled to size 3)."""
    smti = no_csm()
    inst, index = reduce_stable(smti)
    info = index.men["m2"]
    ag, hs = info["agents"], info["hospitals"]
    sub = induced_subinstance(
        inst,
        [inst.agent_index[ag[f"q_{t}"]] for t in (1, 2, 3)],
        [inst.hospital_index[hs[f"p_{t}"]] for t in (2, 3)],
    )
    assert sub.validate().ok
    res = stable_matchings(sub)
    assert res.complete and res.matchings == []


def test_lift_stable_contains_forced_chains():
    smti = all_strict_3()
    m = smti_complete_stable(smti)
    inst, index = reduce_stable(smti)
    lifted = lift_stable(smti, m, index, inst)
    assert is_stable(inst, lifted)
    assert set(forced_chain_pairs(smti, index, inst)) <= set(lifted.pairs())
    assert project_stable(smti, lifted, index, inst) == m


def test_lift_stable_tied():
    smti = SmtiInstance.build(
        [("m1", [["w1", "w2"]]), ("m2", [["w2", "w1"]])],
        [("w1", ["m1", "m2"]), ("w2", ["m2", "m1"])],
    )
    m = smti_complete_stable(smti)
    assert m is not None
    inst, index = reduce_stable(smti)
    lifted = lift_stable(smti, m, index, inst)
    assert is_stable(inst, lifted)
    pair_set = set(lifted.pairs())
    for j in range(2):
        t_a, t_b = tied_t_sets(smti, index, inst, j)
        assert set(t_a) <= pair_set or set(t_b) <= pair_set
    assert project_stable(smti, lifted, index, inst) == m


def test_stable_equivalence_sampled():
    yes = no = 0
    for seed in range(16):
        smti = gen_csmti(GenParams(n_agents=3, n_hospitals=3, n_ties=1, seed=seed))
        source = smti_complete_stable(smti)
        inst, index = reduce_stable(smti)
        res = stable_matchings(inst, SearchBudget(max_nodes=20_000_000))
        assert res.complete
        assert bool(res.matchings) == (source is not None)
        if source is not None:
            yes += 1
            assert lift_stable(smti, source, index, inst) in res.matchings
        else:
            no += 1
        if res.matchings:
            back = project_stable(smti, res.matchings[0], index, inst)
            assert is_complete(smti, back) and is_weakly_stable(smti, back)
    assert yes >= 2
    # no-instances are rare at this size; the pinned one below always runs


def test_stable_equivalence_pinned_negative():
    smti = no_csm()
    assert smti_complete_stable(smti) is None
    inst, _ = reduce_stable(smti)
    res = stable_matchings(inst, SearchBudget(max_nodes=20_000_000))
    assert res.complete and res.matchings == []


# --- both targets: exact error messages ----------------------------------------------

TARGETS = {
    "occ": (reduce_occ, lift_occ, project_occ),
    "stable": (reduce_stable, lift_stable, project_stable),
}


def _with_unmatched_agent(inst, hospital_label):
    """The instance plus one unit agent ``Z`` that lists only the given
    hospital and that the hospital ranks first."""
    agents = [
        (inst.agent_labels[a], inst.sizes[a],
         [inst.hospital_labels[h] for h in inst.agent_prefs[a]])
        for a in range(inst.n_agents)
    ] + [("Z", 1, [hospital_label])]
    hospitals = []
    for h in range(inst.n_hospitals):
        lst = [inst.agent_labels[a] for a in inst.hospital_prefs[h]]
        if inst.hospital_labels[h] == hospital_label:
            lst.insert(0, "Z")
        hospitals.append((inst.hospital_labels[h], inst.caps[h], lst))
    return HrsInstance.build(agents, hospitals)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_reduction_error_messages(target):
    reduce_, lift, project = TARGETS[target]
    other = "stable" if target == "occ" else "occ"
    smti = two_tied()
    source = smti_complete_stable(smti)
    inst, index = reduce_(smti)
    _, other_index = TARGETS[other][0](smti)
    lifted = lift(smti, source, index, inst)

    wrong = f"index is not from the {target} reduction"
    with pytest.raises(ReductionError, match=wrong):
        lift(smti, source, other_index, inst)
    with pytest.raises(ReductionError, match=wrong):
        project(smti, lifted, other_index, inst)
    with pytest.raises(ReductionError, match="^not a valid restricted instance: "):
        reduce_(SmtiInstance.build(
            [("m1", [["w1"], ["w2"]]), ("m2", [["w1", "w2"]])],
            [("w1", ["m1", "m2"]), ("w2", ["m1", "m2"])],
        ))
    with pytest.raises(ReductionError, match="^source matching is not complete$"):
        lift(smti, SmtiMatching.empty(smti), index, inst)

    csm = no_csm()
    csm_inst, csm_index = reduce_(csm)
    outside = SmtiMatching.from_pairs(csm, [(0, 2), (1, 0), (2, 1)])
    with pytest.raises(ReductionError, match="^tied man matched outside his tie$"):
        lift(csm, outside, csm_index, csm_inst)
    with pytest.raises(ReductionError, match="^man m2 is not tied$"):
        tied_t_sets(csm, csm_index, csm_inst, 1)

    empty = {
        "occ": "^reduced matching is not all-agents-matched$",
        "stable": "^reduced matching is not stable$",
    }[target]
    with pytest.raises(ReductionError, match=empty):
        project(smti, Matching.empty(inst), index, inst)

    # a lift checked against an instance with one more agent, who stays
    # unmatched (and, at capacity 1, blocks with the hospital ranking it first)
    padded = _with_unmatched_agent(inst, index.women["w1"])
    unmatched = {
        "occ": "^lifted matching leaves an agent unmatched$",
        "stable": "^lifted matching is not stable$",
    }[target]
    with pytest.raises(ReductionError, match=unmatched):
        lift(smti, source, index, padded)

    # label books tampered so that a good matching projects badly
    swapped = GadgetIndex(
        target, {"w1": index.women["w2"], "w2": index.women["w1"]}, index.men
    )
    selects = {
        "occ": "^gadget of m1 selects no woman-hospital$",
        "stable": "^gadget of m1 matches neither alternative$",
    }[target]
    with pytest.raises(ReductionError, match=selects):
        project(smti, lifted, swapped, inst)

    strict = all_strict_3()
    s_source = smti_complete_stable(strict)
    s_inst, s_index = reduce_(strict)
    s_lifted = lift(strict, s_source, s_index, s_inst)
    s_women = dict(s_index.women)
    s_women["w1"], s_women["w2"] = s_women["w2"], s_women["w1"]
    with pytest.raises(ReductionError, match="^projected matching is not weakly stable$"):
        project(strict, s_lifted, GadgetIndex(target, s_women, s_index.men), s_inst)
    m1 = s_index.men["m1"]
    elsewhere = next(v for k, v in m1["agents"].items() if k != "a")
    moved = dict(s_index.men, m1={**m1, "agents": {**m1["agents"], "a": elsewhere}})
    with pytest.raises(ReductionError, match="^agent of m1 not at a woman-hospital$"):
        project(strict, s_lifted, GadgetIndex(target, s_index.women, moved), s_inst)

    if target == "occ":
        with pytest.raises(
            ReductionError, match="^forced chains exist only in the stable target$"
        ):
            forced_chain_pairs(smti, index, inst)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_lift_and_project_build_the_instance_when_not_given(target):
    reduce_, lift, project = TARGETS[target]
    for smti in (two_tied(), all_strict_3()):
        source = smti_complete_stable(smti)
        inst, index = reduce_(smti)
        lifted = lift(smti, source, index, inst)
        assert lift(smti, source, index) == lifted
        assert project(smti, lifted, index) == project(smti, lifted, index, inst) == source
