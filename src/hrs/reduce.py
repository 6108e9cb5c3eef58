"""Marriage instances with ties and the two gadget constructions over them.

The source model is a restricted stable-marriage-with-ties form: equally many
men and women, every woman with a strict list of at most three men, and every
man either with a strict list of exactly three women or with a single tie over
exactly two women. Deciding whether such an instance admits a complete weakly
stable matching is hard, which makes it the seed of two reductions into sized
hospital-residents instances:

* target ``occ``: the reduced instance admits an all-agents-matched
  occupancy-stable matching exactly when the source admits a complete stable
  matching. Every woman becomes a capacity-2 hospital; a tied man becomes a
  six-agent/four-hospital gadget, a strict man a two-agent/one-hospital one.
  All sizes and capacities stay at most 2 and all lists at most 4 entries.

* target ``stable``: the reduced instance admits a (classic) stable matching
  exactly when the source admits a complete stable matching. Every woman
  becomes a capacity-1 hospital; a tied man becomes a twelve-agent gadget with
  two chained sub-gadgets, a strict man a four-agent gadget with one chain.
  Every agent of size 3 lists exactly one hospital.

Both directions of each equivalence are realized as explicit matching maps
(lift: source matching to reduced matching, project: reduced matching back to
the source); the lifts run the corresponding verifier before returning and
fail loudly if the construction is broken.

Both targets run on one skeleton: ``_reduce`` builds, ``_lift`` lifts and
``_project`` projects. Everything in which the targets differ is one
``_Target`` record each in ``_TARGETS``: woman capacity, gadget builder,
bounds check, forced pairs, verifier checks with their messages, and the role
tables of the witness maps. The stable target's forced chain pairs are read
off the label book, where its chain helper records them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .model import (
    UNMATCHED,
    FormatError,
    HrsError,
    HrsInstance,
    InstanceError,
    Matching,
    ValidationReport,
    _all_labels,
    _Assignment,
    _lines,
)
from . import verify


class ReductionError(HrsError):
    """A lift/project precondition failed or a construction check tripped."""


# --- SMTI model --------------------------------------------------------------

_BRACKETS = frozenset("()")  # the .smti tokens that open and close a tie, so no label


class SmtiInstance:
    """Immutable, valid marriage instance with ties: men rank women in tied
    groups (singleton groups are strict entries), women rank men strictly.
    Acceptability is mutual. Each preference is stored once, in the lists;
    ``women_index`` maps each woman's label to her index."""

    __slots__ = ("men_labels", "women_labels", "men_prefs", "women_prefs", "women_index")

    def __init__(
        self,
        men_labels: Sequence[str],
        men_prefs: Sequence[Sequence[Sequence[int]]],
        women_labels: Sequence[str],
        women_prefs: Sequence[Sequence[int]],
    ):
        """The one constructor, on dense indices; raises InstanceError naming
        the first fault of ``_first_fault``."""
        self.men_labels = tuple(men_labels)
        self.women_labels = tuple(women_labels)
        self.men_prefs = tuple(tuple(map(tuple, p)) for p in men_prefs)
        self.women_prefs = tuple(map(tuple, women_prefs))
        fault = self._first_fault()
        if fault is not None:
            raise InstanceError(fault)
        self.women_index = {w: i for i, w in enumerate(self.women_labels)}

    def _first_fault(self) -> str | None:
        """The first fault, checked in this order: field lengths, duplicate
        labels, labels the ``.smti`` format cannot carry (empty, holding
        whitespace or '#', or a tie bracket), empty groups, entries that are
        not an int index in range, a list that names someone twice, and
        one-sided pairs; each check runs over the men, then the women."""
        men_lists = [[w for g in p for w in g] for p in self.men_prefs]
        sides = [("man", "him", self.men_labels, men_lists),
                 ("woman", "her", self.women_labels, self.women_prefs)]
        pairs = list(zip(sides, sides[::-1]))
        faults = chain(
            (f"{kind} field lengths disagree"
             for kind, _, labels, lists in sides if len(labels) != len(lists)),
            (f"duplicate {kind} label {label!r}"
             for (kind, _, labels, _), first in zip(sides, ({}, {})) for i, label in enumerate(labels)
             if isinstance(label, str) and first.setdefault(label, i) != i),
            (f"bad {kind} label {label!r}"
             for kind, _, labels, _ in sides if not _all_labels(labels, _BRACKETS)
             for label in labels if not _all_labels((label,), _BRACKETS)),
            (f"man {label} has an empty group"
             for label, groups in zip(self.men_labels, self.men_prefs) if not all(groups)),
            (f"{kind} {label} lists {x!r}, not a {other} index in range"
             for (kind, _, labels, lists), (other, _, others, _) in pairs
             for label, p in zip(labels, lists) for x in p
             if type(x) is not int or not 0 <= x < len(others)),
            (f"{kind} {label} lists {others[x]} twice"
             for (kind, _, labels, lists), (_, _, others, _) in pairs
             for label, p in zip(labels, lists) if len(set(p)) != len(p)
             for i, x in enumerate(p) if x in p[:i]),
            (f"{kind} {labels[i]} lists {others[j]} which does not list {pronoun} back"
             for (kind, pronoun, labels, lists), (_, _, others, back) in pairs
             for listed in [list(map(set, back))]  # built once every entry is an index
             for i, p in enumerate(lists) for j in p if i not in listed[j]),
        )
        return next(faults, None)

    @property
    def n_men(self) -> int:
        return len(self.men_labels)

    @property
    def n_women(self) -> int:
        return len(self.women_labels)

    def has_tie(self, m: int) -> bool:
        return any(len(g) > 1 for g in self.men_prefs[m])

    @classmethod
    def build(
        cls,
        men: Iterable[tuple[str, Sequence[Sequence[str]]]],
        women: Iterable[tuple[str, Sequence[str]]],
    ) -> "SmtiInstance":
        """Construct from labels; men's preferences are given as groups of
        woman labels (singleton group = strict entry). An unknown label raises
        InstanceError, and so does every fault the constructor reports."""
        men, women = list(men), list(women)
        men_labels, women_labels = [m[0] for m in men], [w[0] for w in women]
        try:
            w_index = {lbl: i for i, lbl in enumerate(women_labels)}
            m_index = {lbl: i for i, lbl in enumerate(men_labels)}
        except TypeError:  # an unhashable label: the constructor raises, naming it as bad
            return cls(men_labels, [[]] * len(men), women_labels, [[]] * len(women))

        def index(lbl, known, kind, who):
            try:
                return known[lbl]
            except (KeyError, TypeError):  # TypeError: an unhashable entry
                raise InstanceError(f"{who} lists unknown {kind} {lbl!r}") from None

        men_prefs = [
            [[index(x, w_index, "woman", f"man {lbl}") for x in group] for group in groups]
            for lbl, groups in men
        ]
        women_prefs = [[index(x, m_index, "man", f"woman {lbl}") for x in p] for lbl, p in women]
        return cls(men_labels, men_prefs, women_labels, women_prefs)

    def _key(self):
        return (self.men_labels, self.men_prefs, self.women_labels, self.women_prefs)

    def __eq__(self, other) -> bool:
        return isinstance(other, SmtiInstance) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SmtiInstance({self.n_men} men, {self.n_women} women)"


class SmtiMatching(_Assignment):
    """Injective partial map man -> woman over acceptable pairs."""

    __slots__ = ()

    def __init__(self, assign: Sequence[int]):
        self.assign = tuple(assign)
        matched = [w for w in self.assign if w != UNMATCHED]
        if len(set(matched)) != len(matched):
            raise InstanceError("two men matched to one woman")

    @staticmethod
    def _sides(smti: SmtiInstance) -> tuple[str, Sequence[str], int]:
        return "man", smti.men_labels, smti.n_women


def is_complete(smti: SmtiInstance, matching: SmtiMatching) -> bool:
    return UNMATCHED not in matching.assign and len(matching.assign) == smti.n_women


def _blocking_pairs(smti: SmtiInstance, matching: SmtiMatching) -> Iterator[tuple[int, int]]:
    """Blocking pairs, man by man, once the whole matching is checked."""
    woman_of = matching.assign
    if len(woman_of) != smti.n_men:
        raise ValueError("matching length does not match the number of men")
    women_prefs = smti.women_prefs
    n_women = len(women_prefs)
    man_of = [UNMATCHED] * n_women
    for m, w in enumerate(woman_of):
        if w != UNMATCHED:
            # acceptability is mutual: her list names him exactly when his names her
            if not (type(w) is int and 0 <= w < n_women and m in women_prefs[w]):
                raise ValueError("matching uses an unacceptable pair")
            man_of[w] = m
    for m, (cur, groups) in enumerate(zip(woman_of, smti.men_prefs)):
        for group in groups:
            if cur in group:
                break  # he prefers exactly the women of the groups before hers
            for w in group:
                p = women_prefs[w]
                if man_of[w] == UNMATCHED or p.index(m) < p.index(man_of[w]):
                    yield (m, w)


def smti_blocking_pairs(smti: SmtiInstance, matching: SmtiMatching) -> list[tuple[int, int]]:
    """Pairs where both sides strictly prefer each other to their partners
    (being unmatched ranks below anyone acceptable), sorted. ValueError on a
    matching of the wrong length or with an unacceptable pair."""
    return sorted(_blocking_pairs(smti, matching))


def is_weakly_stable(smti: SmtiInstance, matching: SmtiMatching) -> bool:
    return next(_blocking_pairs(smti, matching), None) is None


def validate_csmti(smti: SmtiInstance) -> ValidationReport:
    """Report violations of the restricted form: equal sides; women strict with
    at most three entries; men either strict with exactly three entries or a
    single tie over exactly two."""
    report = ValidationReport()
    if smti.n_men != smti.n_women:
        report.add("error", "instance", f"{smti.n_men} men but {smti.n_women} women")
    for m, groups in enumerate(smti.men_prefs):
        loc = f"man {smti.men_labels[m]}"
        if all(len(g) == 1 for g in groups):
            if len(groups) != 3:
                report.add("error", loc, f"strict list has {len(groups)} entries, need exactly 3")
        elif len(groups) == 1 and len(groups[0]) == 2:
            pass  # single tie of two
        else:
            report.add("error", loc, "must be strict of length 3 or a single tie of two")
    for w, prefs in enumerate(smti.women_prefs):
        if len(prefs) > 3:
            report.add(
                "error", f"woman {smti.women_labels[w]}",
                f"list has {len(prefs)} entries, at most 3 allowed",
            )
    return report


# --- SMTI text format --------------------------------------------------------
#
#   m <id> : w1 w2 w3        strict list
#   m <id> : ( w1 w2 )       tie
#   w <id> : m1 m2 m3


def parse_smti(text: str) -> SmtiInstance:
    men: list[tuple[str, list[list[str]]]] = []
    women: list[tuple[str, list[str]]] = []
    for lineno, tokens in _lines(text, -1):
        if len(tokens) < 3 or tokens[0] not in ("m", "w") or tokens[2] != ":":
            raise FormatError("expected 'm <id> : ...' or 'w <id> : ...'", lineno)
        label = tokens[1]
        rest = tokens[3:]
        if tokens[0] == "w":
            if "(" in rest or ")" in rest:
                raise FormatError("women's lists are strict; no ties allowed", lineno)
            women.append((label, rest))
            continue
        groups: list[list[str]] = []
        tie: list[str] | None = None  # the open tie's entries
        for tok in rest:
            if tie is None and tok == "(":
                tie = []
            elif tie is None and tok == ")":
                raise FormatError("')' without '('", lineno)
            elif tie is None:
                groups.append([tok])
            elif tok != ")":
                tie.append(tok)
            elif len(tie) < 2:
                raise FormatError("tie must contain at least two entries", lineno)
            else:
                groups.append(tie)
                tie = None
        if tie is not None:
            raise FormatError("unclosed '(' in tie", lineno)
        men.append((label, groups))
    try:
        return SmtiInstance.build(men, women)
    except InstanceError as exc:
        raise FormatError(str(exc)) from exc


def serialize_smti(smti: SmtiInstance) -> str:
    lines = []
    for label, groups in zip(smti.men_labels, smti.men_prefs):
        names = [" ".join(smti.women_labels[w] for w in group) for group in groups]
        parts = [n if len(g) == 1 else f"( {n} )" for n, g in zip(names, groups)]
        lines.append(f"m {label} : {' '.join(parts)}".rstrip())
    for w in range(smti.n_women):
        labels = " ".join(smti.men_labels[m] for m in smti.women_prefs[w])
        lines.append(f"w {smti.women_labels[w]} : {labels}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


# --- gadget constructions ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class GadgetIndex:
    """Label book for one reduction: woman -> hospital plus, per man, the
    labels of its gadget agents and hospitals keyed by role. Projection reads
    matched pairs back purely through these labels."""

    target: str
    women: dict[str, str]
    men: dict[str, dict]

    def to_json(self) -> dict:
        return {"target": self.target, "women": dict(self.women), "men": dict(self.men)}

    @classmethod
    def from_json(cls, data: dict) -> "GadgetIndex":
        return cls(data["target"], data["women"], data["men"])


def _normalized_tie(smti: SmtiInstance, m: int) -> tuple[int, int]:
    a, b = smti.men_prefs[m][0]
    return (a, b) if a < b else (b, a)


def _reduce(smti: SmtiInstance, target: str) -> tuple[HrsInstance, GadgetIndex]:
    """The construction both targets share: one gadget per man from the
    target's builder, then every woman as a hospital whose list names, in her
    order, the gadget agent that stands for each of her men (``a1``/``a2`` for
    a tied man, by the side of his tie she is on, ``a`` for a strict one)."""
    spec = _TARGETS[target]
    report = validate_csmti(smti)
    if not report.ok:
        raise ReductionError(f"not a valid restricted instance: {report.summary()}")
    women_h = [f"W{i + 1}" for i in range(smti.n_women)]
    agents: list[tuple[str, int, list[str]]] = []
    gadget_hospitals: list[tuple[str, int, list[str]]] = []
    men_info: dict[str, dict] = {}
    stand_in: dict[tuple[int, int], str] = {}  # (man, woman) -> agent her list names
    for j in range(smti.n_men):
        tied = smti.has_tie(j)
        ws = _normalized_tie(smti, j) if tied else [g[0] for g in smti.men_prefs[j]]
        info = spec.gadget(j + 1, tied, [women_h[w] for w in ws], agents, gadget_hospitals)
        for w, role in zip(ws, ("a1", "a2") if tied else ("a",) * len(ws)):
            stand_in[j, w] = info["agents"][role]
        men_info[smti.men_labels[j]] = info
    # entry-wise substitution into the woman-hospital lists
    woman_hospitals = [
        (women_h[i], spec.woman_cap, [stand_in[m, i] for m in smti.women_prefs[i]])
        for i in range(smti.n_women)
    ]
    inst = HrsInstance.build(agents, woman_hospitals + gadget_hospitals)
    index = GadgetIndex(target, dict(zip(smti.women_labels, women_h)), men_info)
    report = spec.bounds(inst)
    if not report.ok:
        raise ReductionError(f"construction broke its bounds: {report.summary()}")
    return inst, index


def reduce_occ(smti: SmtiInstance) -> tuple[HrsInstance, GadgetIndex]:
    """Reduction targeting all-agents-matched occupancy-stable matchings.

    Women become capacity-2 hospitals. A tied man over (w_a, w_b) (index order)
    becomes two size-2 agents wired to the two woman-hospitals through a
    four-hospital core that can absorb exactly one of them, plus two unit
    anchors; a strict man becomes one size-2 agent listing his three
    woman-hospitals and a private fallback hospital guarded by a unit anchor.
    """
    return _reduce(smti, "occ")


def _occ_gadget(tag: int, tied: bool, women: list[str], agents: list, hospitals: list) -> dict:
    if tied:
        a1, a2, a3, a4 = (f"A{tag}_1", f"A{tag}_2", f"A{tag}_3", f"A{tag}_4")
        x1, x2 = f"A{tag}_x1", f"A{tag}_x2"
        h1, h2 = f"H{tag}_1", f"H{tag}_2"
        g1, g2 = f"H{tag}_x1", f"H{tag}_x2"
        agents += [
            (a1, 2, [h1, women[0], g1]),
            (a2, 2, [h2, women[1], g2]),
            (a3, 1, [h1, h2]),
            (a4, 1, [h2, h1]),
            (x1, 1, [g1]),
            (x2, 1, [g2]),
        ]
        hospitals += [
            (h1, 2, [a4, a1, a3]),
            (h2, 2, [a3, a2, a4]),
            (g1, 2, [x1, a1]),
            (g2, 2, [x2, a2]),
        ]
        return {
            "kind": "tie",
            "agents": {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "x1": x1, "x2": x2},
            "hospitals": {"h1": h1, "h2": h2, "x1": g1, "x2": g2},
        }
    a_s, beta = f"A{tag}", f"B{tag}"
    hb = f"H{tag}_b"
    agents += [
        (a_s, 2, women + [hb]),
        (beta, 1, [hb]),
    ]
    hospitals.append((hb, 2, [beta, a_s]))
    return {
        "kind": "strict",
        "agents": {"a": a_s, "beta": beta},
        "hospitals": {"beta": hb},
    }


def check_occ_bounds(inst: HrsInstance) -> ValidationReport:
    """Structural bounds of the occ target: sizes and capacities at most 2,
    all preference lists at most 4 entries."""
    report = ValidationReport()
    for a in range(inst.n_agents):
        if inst.sizes[a] > 2:
            report.add("error", f"agent {inst.agent_labels[a]}", f"size {inst.sizes[a]} > 2")
        if len(inst.agent_prefs[a]) > 4:
            report.add("error", f"agent {inst.agent_labels[a]}", "list longer than 4")
    for h in range(inst.n_hospitals):
        if inst.caps[h] > 2:
            report.add("error", f"hospital {inst.hospital_labels[h]}", f"capacity {inst.caps[h]} > 2")
        if len(inst.hospital_prefs[h]) > 4:
            report.add("error", f"hospital {inst.hospital_labels[h]}", "list longer than 4")
    return report


def reduce_stable(smti: SmtiInstance) -> tuple[HrsInstance, GadgetIndex]:
    """Reduction targeting classic stable matchings, with every size-3 agent
    listing exactly one hospital.

    Women become capacity-1 hospitals. A tied man becomes a twelve-agent
    gadget: a four-agent core wired to the two woman-hospitals, two blocking
    size-3 agents, and two three-agent chase chains whose first hospital
    prefers a core agent; a strict man gets one unit agent plus one chase
    chain. Each chase chain minus its first hospital is a pattern with no
    stable matching, which is what forces the chain edges.
    """
    return _reduce(smti, "stable")


def _chain(tag: int, key: str, guard_agent: str, info: dict) -> tuple[list, list]:
    """Chase chain q1/q2/q3 over p1/p2/p3 of man ``tag``; p1 prefers
    guard_agent. Records the roles ``q_<key><t>``/``p_<key><t>`` in his
    label-book entry ``info`` and returns the chain's agent and hospital rows."""
    q1, q2, q3 = f"Q{tag}_{key}1", f"Q{tag}_{key}2", f"Q{tag}_{key}3"
    p1, p2, p3 = f"P{tag}_{key}1", f"P{tag}_{key}2", f"P{tag}_{key}3"
    for t, (q, p) in enumerate(((q1, p1), (q2, p2), (q3, p3)), 1):
        info["agents"][f"q_{key}{t}"] = q
        info["hospitals"][f"p_{key}{t}"] = p
    agent_rows = [
        (q1, 1, [p1, p2, p3]),
        (q2, 1, [p3, p2]),
        (q3, 3, [p3]),
    ]
    hospital_rows = [
        (p1, 1, [guard_agent, q1]),
        (p2, 1, [q2, q1]),
        (p3, 3, [q1, q3, q2]),
    ]
    return agent_rows, hospital_rows


def _stable_gadget(tag: int, tied: bool, women: list[str], agents: list, hospitals: list) -> dict:
    if tied:
        a1, a2, a3 = f"A{tag}_1", f"A{tag}_2", f"A{tag}_3"
        a4, a5, a6 = f"A{tag}_4", f"A{tag}_5", f"A{tag}_6"
        h1, h2 = f"H{tag}_1", f"H{tag}_2"
        info = {
            "kind": "tie",
            "agents": {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5, "a6": a6},
            "hospitals": {"h1": h1, "h2": h2},
        }
        c1_agents, c1_hospitals = _chain(tag, "1_", a1, info)
        c2_agents, c2_hospitals = _chain(tag, "2_", a2, info)
        hs = info["hospitals"]
        agents += [
            (a1, 1, [h1, women[0], hs["p_1_1"]]),
            (a2, 1, [h2, women[1], hs["p_2_1"]]),
            (a3, 1, [h2, h1]),
            (a4, 1, [h1, h2]),
            (a5, 3, [h1]),
            (a6, 3, [h2]),
        ] + c1_agents + c2_agents
        hospitals += [
            (h1, 3, [a3, a5, a1, a4]),
            (h2, 3, [a4, a6, a2, a3]),
        ] + c1_hospitals + c2_hospitals
        return info
    a_s = f"A{tag}"
    info = {"kind": "strict", "agents": {"a": a_s}, "hospitals": {}}
    c_agents, c_hospitals = _chain(tag, "", a_s, info)
    agents += [(a_s, 1, women + [info["hospitals"]["p_1"]])] + c_agents
    hospitals += c_hospitals
    return info


def check_stable_bounds(inst: HrsInstance) -> ValidationReport:
    """Structural bound of the stable target: every non-unit agent lists
    exactly one hospital."""
    report = ValidationReport()
    for a in range(inst.n_agents):
        if inst.sizes[a] > 1 and len(inst.agent_prefs[a]) != 1:
            report.add(
                "error", f"agent {inst.agent_labels[a]}",
                f"size {inst.sizes[a]} agent with {len(inst.agent_prefs[a])} hospitals",
            )
    return report


# --- witness maps -------------------------------------------------------------


def _role_pairs(inst: HrsInstance, info: dict, woman: str, roles: RolePairs) -> list[tuple]:
    """One gadget's index pairs for a role table; ``_WOMAN`` is the
    woman-hospital labelled ``woman``."""
    agent, hospital = inst.agent_index, inst.hospital_index
    ag, hs = info["agents"], info["hospitals"]
    return [(agent[ag[a]], hospital[woman if h == _WOMAN else hs[h]]) for a, h in roles]


def tied_t_sets(
    smti: SmtiInstance, index: GadgetIndex, inst: HrsInstance, m: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The two alternative pair sets of a tied man's gadget: the first is used
    when he marries the lower-indexed woman, the second otherwise."""
    info = index.men[smti.men_labels[m]]
    if info["kind"] != "tie":
        raise ReductionError(f"man {smti.men_labels[m]} is not tied")
    return tuple(
        _role_pairs(inst, info, index.women[smti.women_labels[w]], roles)
        for w, roles in zip(_normalized_tie(smti, m), _TARGETS[index.target].t_sets)
    )


def forced_chain_pairs(
    smti: SmtiInstance, index: GadgetIndex, inst: HrsInstance
) -> list[tuple[int, int]]:
    """All chase-chain pairs the stable target forces into every stable
    matching (one chain per strict man, two per tied man)."""
    if index.target != "stable":
        raise ReductionError("forced chains exist only in the stable target")
    # the chain helper records each chain hospital p_<key> next to its agent q_<key>
    out: list[tuple[int, int]] = []
    for m in range(smti.n_men):
        info = index.men[smti.men_labels[m]]
        for role, label in info["hospitals"].items():
            if role[0] == "p":
                q = info["agents"]["q" + role[1:]]
                out.append((inst.agent_index[q], inst.hospital_index[label]))
    return out


# --- per-target records, and the lift and project that read them --------------

_WOMAN = "w"  # hospital role: the woman-hospital of the woman a role table is read for

RolePairs = tuple[tuple[str, str], ...]  # (agent role, hospital role) pairs


@dataclass(frozen=True)
class _Target:
    """Everything in which one target differs from the other; the shared
    bodies ``_reduce``, ``_lift`` and ``_project`` read nothing else of it."""

    woman_cap: int
    # (tag, tied, his woman-hospitals, agent rows, hospital rows) -> label-book
    # entry, appending man ``tag``'s gadget rows; a tie's women in index order
    gadget: Callable[[int, bool, list[str], list, list], dict]
    bounds: Callable[[HrsInstance], ValidationReport]
    forced: Callable[[SmtiInstance, GadgetIndex, HrsInstance], list] | None  # in every lift
    # (verifier, message for a lifted matching, message for a matching to
    # project), checked in order
    checks: tuple[tuple[Callable[[HrsInstance, Matching], bool], str, str], ...]
    strict: RolePairs  # a strict man's pairs
    t_sets: tuple[RolePairs, RolePairs]  # a tied man's, at his lower / higher woman
    select: tuple[RolePairs, RolePairs] | None  # what projection reads of each (None: all)
    unselected: str  # how a tied gadget that selects neither woman is reported


_TARGETS = {
    "occ": _Target(
        woman_cap=2,
        gadget=_occ_gadget,
        bounds=check_occ_bounds,
        forced=None,
        checks=(
            (verify.is_a_perfect, "lifted matching leaves an agent unmatched",
             "reduced matching is not all-agents-matched"),
            (verify.is_occupancy_stable, "lifted matching is not occupancy-stable",
             "reduced matching is not occupancy-stable"),
        ),
        strict=(("a", _WOMAN), ("beta", "beta")),
        t_sets=(
            (("a1", _WOMAN), ("a2", "h2"), ("a3", "h1"), ("a4", "h1"), ("x1", "x1"), ("x2", "x2")),
            (("a1", "h1"), ("a2", _WOMAN), ("a3", "h2"), ("a4", "h2"), ("x1", "x1"), ("x2", "x2")),
        ),
        select=((("a1", _WOMAN),), (("a2", _WOMAN),)),
        unselected="selects no woman-hospital",
    ),
    "stable": _Target(
        woman_cap=1,
        gadget=_stable_gadget,
        bounds=check_stable_bounds,
        forced=forced_chain_pairs,
        checks=(
            (verify.is_stable, "lifted matching is not stable", "reduced matching is not stable"),
        ),
        strict=(("a", _WOMAN),),
        t_sets=(
            (("a1", _WOMAN), ("a2", "h2"), ("a3", "h2"), ("a4", "h2"), ("a5", "h1")),
            (("a1", "h1"), ("a2", _WOMAN), ("a3", "h1"), ("a4", "h1"), ("a6", "h2")),
        ),
        select=None,
        unselected="matches neither alternative",
    ),
}


def _target_of(index: GadgetIndex, target: str) -> _Target:
    if index.target != target:
        raise ReductionError(f"index is not from the {target} reduction")
    return _TARGETS[target]


def _lift(
    target: str, smti: SmtiInstance, matching: SmtiMatching, index: GadgetIndex,
    inst: HrsInstance | None,
) -> Matching:
    spec = _target_of(index, target)
    if not is_complete(smti, matching):
        raise ReductionError("source matching is not complete")
    if inst is None:
        inst, _ = _reduce(smti, target)
    pairs = spec.forced(smti, index, inst) if spec.forced else []
    for m, w in enumerate(matching.assign):
        if smti.has_tie(m):
            alternatives = dict(zip(_normalized_tie(smti, m), tied_t_sets(smti, index, inst, m)))
            if w not in alternatives:
                raise ReductionError("tied man matched outside his tie")
            pairs += alternatives[w]
        else:
            info = index.men[smti.men_labels[m]]
            pairs += _role_pairs(inst, info, index.women[smti.women_labels[w]], spec.strict)
    lifted = Matching.from_pairs(inst, pairs)
    for check, lifted_message, _ in spec.checks:
        if not check(inst, lifted):
            raise ReductionError(lifted_message)
    return lifted


def _project(
    target: str, smti: SmtiInstance, matching: Matching, index: GadgetIndex,
    inst: HrsInstance | None,
) -> SmtiMatching:
    spec = _target_of(index, target)
    if inst is None:
        inst, _ = _reduce(smti, target)
    for check, _, reduced_message in spec.checks:
        if not check(inst, matching):
            raise ReductionError(reduced_message)
    pairs = matching.pairs()
    pair_set, matched = set(pairs), dict(pairs)
    woman_at = {inst.hospital_index[h]: smti.women_index[w] for w, h in index.women.items()}
    out: list[tuple[int, int]] = []
    for m in range(smti.n_men):
        info = index.men[smti.men_labels[m]]
        if info["kind"] == "tie":
            for w, roles in zip(_normalized_tie(smti, m), spec.select or spec.t_sets):
                woman = index.women[smti.women_labels[w]]
                if pair_set.issuperset(_role_pairs(inst, info, woman, roles)):
                    out.append((m, w))
                    break
            else:
                raise ReductionError(f"gadget of {smti.men_labels[m]} {spec.unselected}")
        else:
            w = woman_at.get(matched.get(inst.agent_index[info["agents"]["a"]]))
            if w is None:
                raise ReductionError(f"agent of {smti.men_labels[m]} not at a woman-hospital")
            out.append((m, w))
    projected = SmtiMatching.from_pairs(smti, out)
    if not is_complete(smti, projected):
        raise ReductionError("projected matching is not complete")
    if not is_weakly_stable(smti, projected):
        raise ReductionError("projected matching is not weakly stable")
    return projected


def lift_occ(
    smti: SmtiInstance,
    matching: SmtiMatching,
    index: GadgetIndex,
    inst: HrsInstance | None = None,
) -> Matching:
    """Map a complete weakly stable source matching to an all-agents-matched
    occupancy-stable matching of the occ-target instance. Verifier-checked."""
    return _lift("occ", smti, matching, index, inst)


def project_occ(
    smti: SmtiInstance,
    matching: Matching,
    index: GadgetIndex,
    inst: HrsInstance | None = None,
) -> SmtiMatching:
    """Read a complete weakly stable source matching off an all-agents-matched
    occupancy-stable matching of the occ-target instance."""
    return _project("occ", smti, matching, index, inst)


def lift_stable(
    smti: SmtiInstance,
    matching: SmtiMatching,
    index: GadgetIndex,
    inst: HrsInstance | None = None,
) -> Matching:
    """Map a complete weakly stable source matching to a stable matching of
    the stable-target instance. Verifier-checked."""
    return _lift("stable", smti, matching, index, inst)


def project_stable(
    smti: SmtiInstance,
    matching: Matching,
    index: GadgetIndex,
    inst: HrsInstance | None = None,
) -> SmtiMatching:
    """Read a complete weakly stable source matching off a stable matching of
    the stable-target instance."""
    return _project("stable", smti, matching, index, inst)
