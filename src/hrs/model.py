"""Instance and matching data model for hospital-residents matching with sizes.

An instance is a bipartite graph between agents and hospitals. Each agent has
a positive integral size and a strict preference list over acceptable
hospitals; each hospital has a positive integral capacity and a strict
preference list over acceptable agents. Acceptability is mutual: ``h`` appears
in ``a``'s list exactly when ``a`` appears in ``h``'s list.

Instances are valid by construction. Every builder (``HrsInstance.build``,
``parse_instance``, the generators, ``induced_subinstance``) goes through the
one index-level constructor, which raises InstanceError on a one-sided edge, a
non-strict list, a size or capacity that is not a positive integer, a label
the text format cannot carry (empty, holding whitespace or '#', or ':'), and
a duplicate or unknown label.

A matching assigns each agent to at most one listed hospital; a hospital may
hold any set of agents whose summed sizes fit its capacity. Being unmatched is
represented explicitly (``UNMATCHED``) and ranks below every listed hospital.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import getitem
from typing import Iterable, Iterator, Sequence, TypeVar

UNMATCHED = -1
_A = TypeVar("_A", bound="_Assignment")  # either model's matching


class HrsError(Exception):
    """Base class for errors raised by this package."""


class FormatError(HrsError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InstanceError(HrsError):
    """Instance data that violates the model (see the module docstring)."""


@dataclass(frozen=True)
class Issue:
    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} at {self.location}: {self.message}"


@dataclass
class ValidationReport:
    """List of violated invariants; empty exactly when the object is valid."""

    issues: list[Issue] = field(default_factory=list)

    def add(self, severity: str, location: str, message: str) -> None:
        self.issues.append(Issue(severity, location, message))

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        return "; ".join(str(i) for i in self.issues) or "ok"


def _all_labels(labels: tuple, reserved: frozenset[str] = frozenset({":"})) -> bool:
    """Each a non-empty string without whitespace or '#', and none of the
    text format's ``reserved`` tokens (the ``.hrs`` format's by default), so
    the format carries it; joined and split, such labels come back."""
    try:
        joined = " ".join(labels)
    except TypeError:
        return False
    return joined.split() == list(labels) and "#" not in joined and reserved.isdisjoint(labels)


def _all_positive_ints(values: tuple) -> bool:
    return all(type(v) is int and v >= 1 for v in values)


Row = tuple[str, int, Sequence[str]]


def check_instance_data(agents: Iterable[Row], hospitals: Iterable[Row]) -> ValidationReport:
    """Every violated invariant of labelled rows, (label, size, pref labels)
    per agent and (label, capacity, pref labels) per hospital, in this order:
    duplicate ids, unknown labels, bad labels, a size or capacity that is not
    a positive integer and a non-strict list, one-sided edges. ``build``
    raises InstanceError naming the first issue exactly when there is one."""
    sides = [("agent", list(agents), "size"), ("hospital", list(hospitals), "capacity")]
    report = ValidationReport()
    index: list[dict[str, int]] = [{}, {}]
    for (kind, rows, _), first in zip(sides, index):
        for i, (label, _, _) in enumerate(rows):
            if isinstance(label, str) and first.setdefault(label, i) != i:
                report.add("error", f"{kind} #{i}", f"duplicate {kind} id {label!r}")
    lists: list[list[list[int]]] = [[], []]
    for (kind, rows, _), (other, _, _), known, resolved in zip(sides, sides[::-1], index[::-1], lists):
        for label, _, plist in rows:
            resolved.append([known[x] for x in plist if isinstance(x, str) and x in known])
            for x in plist:
                if not (isinstance(x, str) and x in known):
                    report.add("error", f"{kind} {label}", f"lists unknown {other} {x!r}")
    for kind, rows, _ in sides:
        for i, (label, _, _) in enumerate(rows):
            if not _all_labels((label,)):
                report.add("error", f"{kind} #{i}", f"bad label {label!r}")
    for (kind, rows, what), own in zip(sides, lists):
        for (label, value, _), prefs in zip(rows, own):
            if not _all_positive_ints((value,)):
                report.add("error", f"{kind} {label}", f"non-positive {what}: {value!r}")
            if len(set(prefs)) != len(prefs):
                report.add("error", f"{kind} {label}", "preference list not strict (duplicate entry)")
    for (kind, rows, _), (_, other_rows, _), own, back in zip(sides, sides[::-1], lists, lists[::-1]):
        listed = [set(prefs) for prefs in back]
        for i, (label, _, _) in enumerate(rows):
            for j in own[i]:
                if i not in listed[j]:
                    report.add(
                        "error", f"{kind} {label}",
                        f"lists {other_rows[j][0]} which does not list it back",
                    )
    return report


def _issue_text(issue: Issue) -> str:
    return f"{issue.location}: {issue.message}"


def _edge_ranks(agent_prefs: tuple, hospital_prefs: tuple, n_agents: int) -> tuple[tuple[int, ...], ...]:
    """The negated hospital-side rank of each edge, parallel to
    ``agent_prefs``, for hot loops and min-heaps (less negative = better).

    They are read from one table per hospital, the smaller of two: a list
    over the agents (8 bytes an agent) for a hospital that lists at least a
    quarter of them, else a dict over the agents it lists (30-40 bytes an
    entry). The tables die on return. A lookup raises KeyError on an agent's
    entry that is no hospital index and, in a dict table, on an edge the
    hospital does not list; a list table gives such an edge the rank None,
    which the constructor rejects, and raises IndexError on an entry out of
    range or negative (which it would read from its end)."""
    negated = tuple(range(0, -max(map(len, hospital_prefs), default=0), -1))
    rank_of = {}
    for h, p in enumerate(hospital_prefs):
        if 4 * len(p) < n_agents:
            rank_of[h] = dict(zip(p, negated))
        else:
            rank_of[h] = table = [None] * n_agents
            any(map(table.__setitem__, p, negated))  # each call returns None
            if p and min(p) < 0:
                raise IndexError("a list table reads a negative index from its end")
    lookup = rank_of.__getitem__
    return tuple([tuple(map(getitem, map(lookup, p), repeat(a))) for a, p in enumerate(agent_prefs)])


class _Unresolved:
    """A list entry that is no index, in labelled rows: shown as the entry,
    and equal to no label, even as a string that names a vertex."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __repr__(self) -> str:
        return repr(self.entry)


class HrsInstance:
    """Immutable, valid instance; agents and hospitals are dense indices
    internally.

    Labels are kept for I/O. Each preference is stored once, in the lists and
    each agent-list entry's negated hospital-side rank: a ranks h at
    ``i = agent_prefs[a].index(h)`` and h ranks a at
    ``-agent_pref_hranks_neg[a][i]``, so a rank lookup costs O(list length).
    The constructor reads these ranks from one table per hospital
    (``_edge_ranks``) and keeps no table.
    """

    __slots__ = (
        "agent_labels", "hospital_labels", "sizes", "caps",
        "agent_prefs", "hospital_prefs", "agent_pref_hranks_neg",
        "agent_index", "hospital_index",
    )

    def __init__(
        self,
        agent_labels: Sequence[str],
        sizes: Sequence[int],
        agent_prefs: Sequence[Sequence[int]],
        hospital_labels: Sequence[str],
        caps: Sequence[int],
        hospital_prefs: Sequence[Sequence[int]],
        _indexes: tuple[dict[str, int], dict[str, int]] | None = None,
    ):
        """The one constructor, on dense indices: one pass builds the label
        indexes (unless ``_indexes`` brings both) and edge ranks and checks
        every model invariant, raising InstanceError with
        ``check_instance_data``'s first issue."""
        self.agent_labels = agent_labels = tuple(agent_labels)
        self.sizes = sizes = tuple(sizes)
        self.agent_prefs = agent_prefs = tuple(map(tuple, agent_prefs))
        self.hospital_labels = hospital_labels = tuple(hospital_labels)
        self.caps = caps = tuple(caps)
        self.hospital_prefs = hospital_prefs = tuple(map(tuple, hospital_prefs))
        n_a, n_h = len(agent_labels), len(hospital_labels)
        try:
            self.agent_index, self.hospital_index = _indexes or (
                {label: a for a, label in enumerate(agent_labels)},
                {label: h for h, label in enumerate(hospital_labels)},
            )
            self.agent_pref_hranks_neg = ranks = _edge_ranks(agent_prefs, hospital_prefs, n_a)
            # with agent lists strict and their edges listed back, hospital
            # lists as long in total must be strict and list nothing else
            n_edges = sum(map(len, agent_prefs))
            valid = (
                len(sizes) == len(agent_prefs) == n_a == len(self.agent_index)
                and len(caps) == len(hospital_prefs) == n_h == len(self.hospital_index)
                and sum(map(len, map(set, agent_prefs))) == n_edges == sum(map(len, hospital_prefs))
                and _all_labels(agent_labels + hospital_labels)
                and _all_positive_ints(sizes + caps)
                # every entry and rank an int: the lookups take a float as the
                # equal int index, and a sum with a float, a None or any other
                # type in it is no int or raises TypeError
                and type(sum(chain.from_iterable(agent_prefs + hospital_prefs + ranks))) is int
            )
        except (IndexError, KeyError, TypeError):
            valid = False
        if not valid:
            raise InstanceError(self._first_violation())

    def _first_violation(self) -> str:
        if not len(self.agent_labels) == len(self.sizes) == len(self.agent_prefs):
            return "agent field lengths disagree"
        if not len(self.hospital_labels) == len(self.caps) == len(self.hospital_prefs):
            return "hospital field lengths disagree"
        return _issue_text(check_instance_data(*self._rows()).issues[0])

    def _rows(self) -> tuple[list[Row], list[Row]]:
        """Labelled rows; an entry that is no index in range is carried as
        ``_Unresolved``, which no label equals."""
        def named(p, labels):
            n = len(labels)
            return [labels[x] if isinstance(x, int) and 0 <= x < n else _Unresolved(x) for x in p]
        al, hl = self.agent_labels, self.hospital_labels
        return (
            [(al[a], self.sizes[a], named(p, hl)) for a, p in enumerate(self.agent_prefs)],
            [(hl[h], self.caps[h], named(p, al)) for h, p in enumerate(self.hospital_prefs)],
        )

    @property
    def n_agents(self) -> int:
        return len(self.agent_labels)

    @property
    def n_hospitals(self) -> int:
        return len(self.hospital_labels)

    @property
    def n_edges(self) -> int:
        return sum(len(p) for p in self.agent_prefs)

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, prefs in enumerate(self.agent_prefs):
            for h in prefs:
                yield (a, h)

    @classmethod
    def build(cls, agents: Iterable[Row], hospitals: Iterable[Row]) -> "HrsInstance":
        """Construct from labelled data: (label, size, pref labels) per agent,
        (label, capacity, pref labels) per hospital.

        Raises InstanceError naming the first issue ``check_instance_data``
        reports.
        """
        agents, hospitals = list(agents), list(hospitals)
        try:
            return _from_rows(agents.copy(), hospitals.copy())
        except (KeyError, TypeError, InstanceError):
            pass
        raise InstanceError(_issue_text(check_instance_data(agents, hospitals).issues[0]))

    def validate(self) -> ValidationReport:
        """Every violated model invariant: none, as construction checks them."""
        return check_instance_data(*self._rows())

    def _key(self):
        return (
            self.agent_labels, self.sizes, self.agent_prefs,
            self.hospital_labels, self.caps, self.hospital_prefs,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, HrsInstance) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"HrsInstance({self.n_agents} agents, {self.n_hospitals} hospitals, {self.n_edges} edges)"


def _from_rows(agents: list[Row], hospitals: list, split: bool = False) -> HrsInstance:
    """The index constructor on labelled rows, which it empties. Each row's
    list field (a string to ``split`` when asked) is resolved in one ``map``
    over the label index, and each side's list fields are dropped once
    resolved, before the constructor runs."""
    a_labels, sizes, a_lists = zip(*agents) if agents else ((), (), ())
    h_labels, caps, h_lists = zip(*hospitals) if hospitals else ((), (), ())
    agents.clear()
    hospitals.clear()
    if split:
        a_lists, h_lists = map(str.split, a_lists), map(str.split, h_lists)
    a_index = {label: a for a, label in enumerate(a_labels)}
    h_index = {label: h for h, label in enumerate(h_labels)}
    a_prefs = [tuple(map(h_index.__getitem__, x)) for x in a_lists]
    del a_lists
    h_prefs = [tuple(map(a_index.__getitem__, x)) for x in h_lists]
    del h_lists
    return HrsInstance(a_labels, sizes, a_prefs, h_labels, caps, h_prefs, _indexes=(a_index, h_index))


class _Assignment:
    """A partial map from one side of an instance to the other, the body of
    both models' matchings: ``assign[i]`` is the index matched to member i,
    or UNMATCHED. Equality is equality of type and pairs. Each model gives
    ``_sides(inst)``: the kind and labels of the side matched from, and the
    size of the side matched to."""

    __slots__ = ("assign",)

    def __init__(self, assign: Sequence[int]):
        self.assign = tuple(assign)

    @classmethod
    def empty(cls: type[_A], inst) -> _A:
        return cls((UNMATCHED,) * len(cls._sides(inst)[1]))

    @classmethod
    def from_pairs(cls: type[_A], inst, pairs: Iterable[tuple[int, int]]) -> _A:
        """Raises ValueError on a pair that is not two int indices in range,
        and InstanceError on a member matched twice."""
        kind, labels, n_to = cls._sides(inst)
        n_from = len(labels)
        assign = [UNMATCHED] * n_from
        for i, j in pairs:
            if not (type(i) is int and 0 <= i < n_from and type(j) is int and 0 <= j < n_to):
                raise ValueError(f"pair {(i, j)!r} is not two indices in range")
            if assign[i] != UNMATCHED:
                raise InstanceError(f"{kind} {labels[i]} matched twice")
            assign[i] = j
        return cls(assign)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.assign) if j != UNMATCHED]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.assign == other.assign

    def __hash__(self):
        return hash(self.assign)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pairs()!r})"


class Matching(_Assignment):
    """Assignment of agents to hospitals; ``assign[a]`` is a hospital index or
    UNMATCHED."""

    __slots__ = ()

    @staticmethod
    def _sides(inst: HrsInstance) -> tuple[str, Sequence[str], int]:
        return "agent", inst.agent_labels, inst.n_hospitals

    @classmethod
    def from_labeled_pairs(cls, inst: HrsInstance, pairs: Iterable[tuple[str, str]]) -> "Matching":
        """Raises InstanceError on the first entry that is no pair or has a
        label the instance does not have, and on an agent matched twice."""
        pairs = list(pairs)
        a_index, h_index = inst.agent_index, inst.hospital_index
        try:
            indexed = [(a_index[a], h_index[h]) for a, h in pairs]
        except (KeyError, TypeError, ValueError):  # an unknown or unhashable label, or no pair
            for pair in pairs:
                try:
                    a, h = pair
                except (TypeError, ValueError):
                    message = f"matching entry {pair!r} is not an (agent, hospital) pair"
                    raise InstanceError(message) from None
                if not (isinstance(a, str) and a in a_index):
                    raise InstanceError(f"unknown agent {a!r} in matching") from None
                if not isinstance(h, str):
                    raise InstanceError(f"hospital of agent {a!r} is not a label: {h!r}") from None
                if h not in h_index:
                    raise InstanceError(f"unknown hospital {h!r} in matching") from None
            raise
        return cls.from_pairs(inst, indexed)

    def matched_agents(self) -> list[int]:
        return [a for a, h in enumerate(self.assign) if h != UNMATCHED]


def occupancy(inst: HrsInstance, matching: Matching, h: int) -> int:
    """Total size of agents assigned to hospital ``h``."""
    if not 0 <= h < inst.n_hospitals:
        raise InstanceError(f"unknown hospital index {h}")
    return sum(inst.sizes[a] for a, hh in enumerate(matching.assign) if hh == h)


def occupancies(inst: HrsInstance, matching: Matching) -> list[int]:
    occ = [0] * inst.n_hospitals
    for a, h in enumerate(matching.assign):
        if h != UNMATCHED:
            occ[h] += inst.sizes[a]
    return occ


def matching_size(inst: HrsInstance, matching: Matching) -> int:
    """Total size of all matched agents (the optimization objective)."""
    return sum(inst.sizes[a] for a, h in enumerate(matching.assign) if h != UNMATCHED)


def is_feasible(inst: HrsInstance, matching: Matching) -> tuple[bool, str | None]:
    """Whether the matching respects lists and capacities; returns the first
    violation message otherwise."""
    msg = _feasibility_fault(inst, matching)
    return msg is None, msg


def _feasibility_fault(inst: HrsInstance, matching: Matching, caps: Sequence[int] | None = None,
                       agents: Iterable[int] | None = None) -> str | None:
    """The first break of the feasibility rule, listed pairs of the given
    ``agents`` (all when None) within ``caps`` (the instance's when None), in
    agent order and then hospital order; None when there is none."""
    if len(matching.assign) != inst.n_agents:
        return "assignment length does not match agent count"
    caps = inst.caps if caps is None else caps
    allowed = None if agents is None else set(agents)
    for a in allowed or ():
        if not isinstance(a, int):
            return f"agent {a!r} is not an index in range"
    n_hospitals = inst.n_hospitals
    occ = [0] * n_hospitals
    for a, h in enumerate(matching.assign):
        if h == UNMATCHED:
            continue
        if not (isinstance(h, int) and 0 <= h < n_hospitals):
            return f"agent {inst.agent_labels[a]} assigned to unknown hospital index {h!r}"
        if allowed is not None and a not in allowed:
            return f"agent {inst.agent_labels[a]} matched outside the given agents"
        if h not in inst.agent_prefs[a]:
            return (
                f"agent {inst.agent_labels[a]} assigned to "
                f"{inst.hospital_labels[h]} which is not on its list"
            )
        occ[h] += inst.sizes[a]
    for h, o in enumerate(occ):
        if o > caps[h]:
            return f"hospital {inst.hospital_labels[h]} over capacity: {o} > {caps[h]}"
    return None


# --- text format -----------------------------------------------------------
#
# Line-oriented UTF-8, '#' starts a comment, blank lines ignored:
#
#   hrs v1
#   agents:
#   a <label> <size> : <hospital labels in preference order>
#   hospitals:
#   h <label> <capacity> : <agent labels in preference order>

_HEADER = "hrs v1"


def _lines(text: str, maxsplit: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line that holds any; past
    ``maxsplit`` tokens the rest of the line stays one string."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split(None, maxsplit)
        if tokens:
            yield lineno, tokens


def _vertex_row(lineno: int, tokens: list[str], kind: str) -> tuple[str, int, str]:
    """(label, number, preference list still unsplit) of one vertex line: a
    parse then never holds every list's tokens at once."""
    if len(tokens) < 3:
        raise FormatError(f"expected '{kind} <label> <number> : <list>'", lineno)
    try:
        value = int(tokens[2])
    except ValueError:
        raise FormatError(f"bad number {tokens[2]!r}", lineno) from None
    if len(tokens) < 4 or tokens[3] != ":":
        raise FormatError("expected ':' before the preference list", lineno)
    plist = tokens[4] if len(tokens) == 5 else ""
    if ":" in plist and ":" in plist.split():
        raise FormatError("unexpected ':' inside preference list", lineno)
    return tokens[1], value, plist


def _vertex_rows(text: str) -> tuple[list[tuple[str, int, str]], list[tuple[str, int, str]]]:
    """The agent rows and the hospital rows of the text format, each (label,
    number, preference list still unsplit); raises FormatError with a line
    number on a syntax problem."""
    lines = _lines(text, 4)
    lineno, tokens = next(lines, (1, None))
    if tokens != _HEADER.split():
        raise FormatError(f"missing {_HEADER!r} header", lineno)
    agents: list[tuple[str, int, str]] = []
    hospitals: list[tuple[str, int, str]] = []
    section = None
    seen_sections = set()
    for lineno, tokens in lines:
        if tokens == ["agents:"] or tokens == ["hospitals:"]:
            name = tokens[0][:-1]
            if name in seen_sections:
                raise FormatError(f"duplicate section {name!r}", lineno)
            seen_sections.add(name)
            section = name
            continue
        if section is None:
            raise FormatError("content before the 'agents:' section", lineno)
        kind = section[0]
        if tokens[0] != kind:
            raise FormatError(f"expected an '{kind}' line in the {section} section", lineno)
        (agents if kind == "a" else hospitals).append(_vertex_row(lineno, tokens, kind))
    if "agents" not in seen_sections or "hospitals" not in seen_sections:
        raise FormatError("missing 'agents:' or 'hospitals:' section")
    return agents, hospitals


def parse_instance(text: str) -> HrsInstance:
    """Parse the text format above into an instance.

    Raises FormatError with a line number for syntax problems, duplicate ids,
    dangling references and any violated model invariant.
    """
    try:
        return _from_rows(*_vertex_rows(text), split=True)
    except (KeyError, InstanceError):
        pass
    # the error path: the rows went while building, so read them again, and
    # report the first issue at the line of the vertex it names
    agents, hospitals = _vertex_rows(text)
    first = check_instance_data(
        [(label, value, plist.split()) for label, value, plist in agents],
        [(label, value, plist.split()) for label, value, plist in hospitals],
    ).issues[0]
    kind, _, key = first.location.partition(" ")
    rows = [(lineno, tokens[1]) for lineno, tokens in _lines(text, 2) if tokens[0] == kind[0]]
    if key.startswith("#"):
        lineno = rows[int(key[1:])][0]
    else:
        lineno = next(ln for ln, label in rows if label == key)
    raise FormatError(_issue_text(first), lineno)


def serialize_instance(inst: HrsInstance) -> str:
    """Canonical text form; parse_instance round-trips it to an equal instance."""
    out = [_HEADER, "agents:"]
    for a in range(inst.n_agents):
        hs = " ".join(inst.hospital_labels[h] for h in inst.agent_prefs[a])
        out.append(f"a {inst.agent_labels[a]} {inst.sizes[a]} :{' ' + hs if hs else ''}")
    out.append("hospitals:")
    for h in range(inst.n_hospitals):
        ags = " ".join(inst.agent_labels[a] for a in inst.hospital_prefs[h])
        out.append(f"h {inst.hospital_labels[h]} {inst.caps[h]} :{' ' + ags if ags else ''}")
    return "\n".join(out) + "\n"


def matching_to_json(inst: HrsInstance, matching: Matching) -> dict:
    """JSON-ready view: matched map, unmatched list, occupancies and total size."""
    matched = {
        inst.agent_labels[a]: inst.hospital_labels[h]
        for a, h in enumerate(matching.assign)
        if h != UNMATCHED
    }
    unmatched = [
        inst.agent_labels[a] for a, h in enumerate(matching.assign) if h == UNMATCHED
    ]
    occ = occupancies(inst, matching)
    return {
        "matched": matched,
        "unmatched": unmatched,
        "occupancy": {inst.hospital_labels[h]: occ[h] for h in range(inst.n_hospitals)},
        "size": matching_size(inst, matching),
    }


def matching_from_json(inst: HrsInstance, data: dict) -> Matching:
    """The matching of ``matching_to_json``'s ``matched`` map; raises
    InstanceError on another shape and as ``Matching.from_labeled_pairs``."""
    if not isinstance(data, dict) or not isinstance(data.get("matched", {}), dict):
        raise InstanceError("matching JSON must be an object with a 'matched' map")
    return Matching.from_labeled_pairs(inst, data.get("matched", {}).items())


def _require_indices(values: Iterable, n: int, what: str) -> None:
    """Raises ValueError naming the first of ``values`` that is no int index
    in ``range(n)``."""
    for x in values:
        if not (type(x) is int and 0 <= x < n):
            raise ValueError(f"{what} {x!r} is not an index in range")


def induced_subinstance(
    inst: HrsInstance, agents: Iterable[int], hospitals: Iterable[int]
) -> HrsInstance:
    """Sub-instance induced by the given vertex subsets, with preference lists
    filtered to surviving partners. Labels are preserved. Raises ValueError on
    an entry that is no index in range."""
    keep_a, keep_h = set(agents), set(hospitals)
    _require_indices(keep_a, inst.n_agents, "agent")
    _require_indices(keep_h, inst.n_hospitals, "hospital")
    keep_a, keep_h = sorted(keep_a), sorted(keep_h)
    new_a = dict(zip(keep_a, range(len(keep_a))))
    new_h = dict(zip(keep_h, range(len(keep_h))))
    return HrsInstance(
        [inst.agent_labels[a] for a in keep_a],
        [inst.sizes[a] for a in keep_a],
        [[new_h[h] for h in inst.agent_prefs[a] if h in new_h] for a in keep_a],
        [inst.hospital_labels[h] for h in keep_h],
        [inst.caps[h] for h in keep_h],
        [[new_a[a] for a in inst.hospital_prefs[h] if a in new_a] for h in keep_h],
    )
