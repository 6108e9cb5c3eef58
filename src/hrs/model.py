"""Instance and matching data model for hospital-residents matching with sizes.

An instance is a bipartite graph between agents and hospitals. Each agent has
a positive integral size and a strict preference list over acceptable
hospitals; each hospital has a positive integral capacity and a strict
preference list over acceptable agents. Acceptability is mutual: ``h`` appears
in ``a``'s list exactly when ``a`` appears in ``h``'s list.

A matching assigns each agent to at most one listed hospital; a hospital may
hold any set of agents whose summed sizes fit its capacity. Being unmatched is
represented explicitly (``UNMATCHED``) and ranks below every listed hospital.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

UNMATCHED = -1


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
    """Instance data that cannot be represented (unknown or duplicate ids)."""


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


def _check_positive_int(value, what: str, location: str, report: ValidationReport):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        report.add("error", location, f"non-positive {what}: {value!r}")


class HrsInstance:
    """Immutable instance; agents and hospitals are dense indices internally.

    Labels are kept for I/O. Per-vertex rank tables (partner index -> position
    in the preference list) are precomputed so preference comparisons are O(1).
    """

    __slots__ = (
        "agent_labels", "hospital_labels", "sizes", "caps",
        "agent_prefs", "hospital_prefs", "agent_rank", "hospital_rank",
        "agent_pref_hranks_neg", "agent_index", "hospital_index",
    )

    def __init__(
        self,
        agent_labels: Sequence[str],
        sizes: Sequence[int],
        agent_prefs: Sequence[Sequence[int]],
        hospital_labels: Sequence[str],
        caps: Sequence[int],
        hospital_prefs: Sequence[Sequence[int]],
    ):
        self.agent_labels = tuple(agent_labels)
        self.sizes = tuple(sizes)
        self.agent_prefs = tuple(tuple(p) for p in agent_prefs)
        self.hospital_labels = tuple(hospital_labels)
        self.caps = tuple(caps)
        self.hospital_prefs = tuple(tuple(p) for p in hospital_prefs)
        if not (len(self.agent_labels) == len(self.sizes) == len(self.agent_prefs)):
            raise InstanceError("agent field lengths disagree")
        if not (len(self.hospital_labels) == len(self.caps) == len(self.hospital_prefs)):
            raise InstanceError("hospital field lengths disagree")
        n_a, n_h = len(self.agent_labels), len(self.hospital_labels)
        for prefs in self.agent_prefs:
            for h in prefs:
                if not 0 <= h < n_h:
                    raise InstanceError(f"hospital index {h} out of range")
        for prefs in self.hospital_prefs:
            for a in prefs:
                if not 0 <= a < n_a:
                    raise InstanceError(f"agent index {a} out of range")
        self.agent_index = {lbl: i for i, lbl in enumerate(self.agent_labels)}
        self.hospital_index = {lbl: i for i, lbl in enumerate(self.hospital_labels)}
        if len(self.agent_index) != n_a:
            raise InstanceError("duplicate agent label")
        if len(self.hospital_index) != n_h:
            raise InstanceError("duplicate hospital label")
        # last occurrence wins on duplicates; validate() reports those anyway
        self.agent_rank = tuple({h: r for r, h in enumerate(p)} for p in self.agent_prefs)
        self.hospital_rank = tuple({a: r for r, a in enumerate(p)} for p in self.hospital_prefs)
        # negated hospital-side rank of each edge, parallel to agent_prefs:
        # hot loops read ranks sequentially instead of hashing, and min-heaps
        # can use the values directly (less negative = better). +1 marks an
        # edge the hospital does not reciprocate (validate() reports those);
        # the solver and the verifiers treat such an edge as unacceptable
        self.agent_pref_hranks_neg = tuple(
            tuple(-self.hospital_rank[h].get(a, -1) for h in prefs)
            for a, prefs in enumerate(self.agent_prefs)
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
    def build(
        cls,
        agents: Iterable[tuple[str, int, Sequence[str]]],
        hospitals: Iterable[tuple[str, int, Sequence[str]]],
    ) -> "HrsInstance":
        """Construct from labelled data: (label, size, pref labels) per agent,
        (label, capacity, pref labels) per hospital.

        Raises InstanceError for duplicate or unknown labels; all other
        invariants are left to validate().
        """
        agents = list(agents)
        hospitals = list(hospitals)
        a_index: dict[str, int] = {}
        for lbl, _, _ in agents:
            if lbl in a_index:
                raise InstanceError(f"duplicate agent id {lbl!r}")
            a_index[lbl] = len(a_index)
        h_index: dict[str, int] = {}
        for lbl, _, _ in hospitals:
            if lbl in h_index:
                raise InstanceError(f"duplicate hospital id {lbl!r}")
            h_index[lbl] = len(h_index)

        def resolve(labels, index, what, owner):
            out = []
            for x in labels:
                if x not in index:
                    raise InstanceError(f"{owner} lists unknown {what} {x!r}")
                out.append(index[x])
            return out

        agent_prefs = [resolve(p, h_index, "hospital", f"agent {lbl}") for lbl, _, p in agents]
        hospital_prefs = [resolve(p, a_index, "agent", f"hospital {lbl}") for lbl, _, p in hospitals]
        return cls(
            [a[0] for a in agents], [a[1] for a in agents], agent_prefs,
            [h[0] for h in hospitals], [h[1] for h in hospitals], hospital_prefs,
        )

    def validate(self) -> ValidationReport:
        """Report every violated model invariant (strictness, mutuality,
        positive sizes and capacities, well-formed labels)."""
        report = ValidationReport()
        for i, lbl in enumerate(self.agent_labels):
            if not lbl or any(c.isspace() for c in lbl):
                report.add("error", f"agent #{i}", f"bad label {lbl!r}")
        for i, lbl in enumerate(self.hospital_labels):
            if not lbl or any(c.isspace() for c in lbl):
                report.add("error", f"hospital #{i}", f"bad label {lbl!r}")
        for a, lbl in enumerate(self.agent_labels):
            _check_positive_int(self.sizes[a], "size", f"agent {lbl}", report)
            if len(set(self.agent_prefs[a])) != len(self.agent_prefs[a]):
                report.add("error", f"agent {lbl}", "preference list not strict (duplicate entry)")
        for h, lbl in enumerate(self.hospital_labels):
            _check_positive_int(self.caps[h], "capacity", f"hospital {lbl}", report)
            if len(set(self.hospital_prefs[h])) != len(self.hospital_prefs[h]):
                report.add("error", f"hospital {lbl}", "preference list not strict (duplicate entry)")
        for a in range(self.n_agents):
            for h in self.agent_prefs[a]:
                if a not in self.hospital_rank[h]:
                    report.add(
                        "error", f"agent {self.agent_labels[a]}",
                        f"lists {self.hospital_labels[h]} which does not list it back",
                    )
        for h in range(self.n_hospitals):
            for a in self.hospital_prefs[h]:
                if h not in self.agent_rank[a]:
                    report.add(
                        "error", f"hospital {self.hospital_labels[h]}",
                        f"lists {self.agent_labels[a]} which does not list it back",
                    )
        return report

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


class Matching:
    """Assignment of agents to hospitals; ``assign[a]`` is a hospital index or
    UNMATCHED. Equality is equality of the matched pair set."""

    __slots__ = ("assign",)

    def __init__(self, assign: Sequence[int]):
        self.assign = tuple(assign)

    @classmethod
    def empty(cls, inst: HrsInstance) -> "Matching":
        return cls((UNMATCHED,) * inst.n_agents)

    @classmethod
    def from_pairs(cls, inst: HrsInstance, pairs: Iterable[tuple[int, int]]) -> "Matching":
        assign = [UNMATCHED] * inst.n_agents
        for a, h in pairs:
            if assign[a] != UNMATCHED:
                raise InstanceError(f"agent {inst.agent_labels[a]} matched twice")
            assign[a] = h
        return cls(assign)

    @classmethod
    def from_labeled_pairs(cls, inst: HrsInstance, pairs: Iterable[tuple[str, str]]) -> "Matching":
        return cls.from_pairs(
            inst, ((inst.agent_index[a], inst.hospital_index[h]) for a, h in pairs)
        )

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, h) for a, h in enumerate(self.assign) if h != UNMATCHED]

    def matched_agents(self) -> list[int]:
        return [a for a, h in enumerate(self.assign) if h != UNMATCHED]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.assign == other.assign

    def __hash__(self):
        return hash(self.assign)

    def __repr__(self) -> str:
        return f"Matching({self.pairs()!r})"


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
    if len(matching.assign) != inst.n_agents:
        return False, "assignment length does not match agent count"
    n_hospitals = inst.n_hospitals
    occ = [0] * n_hospitals
    for a, h in enumerate(matching.assign):
        if h == UNMATCHED:
            continue
        if not 0 <= h < n_hospitals:
            return False, f"agent {inst.agent_labels[a]} assigned to unknown hospital index {h}"
        if h not in inst.agent_rank[a]:
            return False, (
                f"agent {inst.agent_labels[a]} assigned to "
                f"{inst.hospital_labels[h]} which is not on its list"
            )
        if a not in inst.hospital_rank[h]:
            return False, (
                f"agent {inst.agent_labels[a]} assigned to "
                f"{inst.hospital_labels[h]} which does not list it"
            )
        occ[h] += inst.sizes[a]
    for h, o in enumerate(occ):
        if o > inst.caps[h]:
            return False, (
                f"hospital {inst.hospital_labels[h]} over capacity: {o} > {inst.caps[h]}"
            )
    return True, None


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


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _parse_vertex_line(lineno: int, tokens: list[str], kind: str):
    if len(tokens) < 3:
        raise FormatError(f"expected '{kind} <label> <number> : <list>'", lineno)
    label = tokens[1]
    try:
        value = int(tokens[2])
    except ValueError:
        raise FormatError(f"bad number {tokens[2]!r}", lineno) from None
    if len(tokens) < 4 or tokens[3] != ":":
        raise FormatError("expected ':' before the preference list", lineno)
    plist = tokens[4:]
    if ":" in plist:
        raise FormatError("unexpected ':' inside preference list", lineno)
    return label, value, plist, lineno


def parse_instance(text: str) -> HrsInstance:
    """Parse the text format above into a validated instance.

    Raises FormatError with a line number for syntax problems, duplicate ids,
    dangling references and any violated model invariant.
    """
    lines = _tokenize(text)
    if not lines or lines[0][1] != _HEADER.split():
        raise FormatError(f"missing {_HEADER!r} header", lines[0][0] if lines else 1)
    agents: list[tuple[str, int, list[str]]] = []
    hospitals: list[tuple[str, int, list[str]]] = []
    locations: dict[tuple[str, str], int] = {}
    section = None
    seen_sections = set()
    for lineno, tokens in lines[1:]:
        if tokens == ["agents:"] or tokens == ["hospitals:"]:
            name = tokens[0][:-1]
            if name in seen_sections:
                raise FormatError(f"duplicate section {name!r}", lineno)
            seen_sections.add(name)
            section = name
            continue
        if section == "agents":
            if tokens[0] != "a":
                raise FormatError("expected an 'a' line in the agents section", lineno)
            label, size, plist, ln = _parse_vertex_line(lineno, tokens, "a")
            agents.append((label, size, plist))
            locations[("a", label)] = ln
        elif section == "hospitals":
            if tokens[0] != "h":
                raise FormatError("expected an 'h' line in the hospitals section", lineno)
            label, cap, plist, ln = _parse_vertex_line(lineno, tokens, "h")
            hospitals.append((label, cap, plist))
            locations[("h", label)] = ln
        else:
            raise FormatError("content before the 'agents:' section", lineno)
    if "agents" not in seen_sections or "hospitals" not in seen_sections:
        raise FormatError("missing 'agents:' or 'hospitals:' section")
    try:
        inst = HrsInstance.build(agents, hospitals)
    except InstanceError as exc:
        raise FormatError(str(exc)) from exc
    report = inst.validate()
    if not report.ok:
        first = report.issues[0]
        kind = "a" if first.location.startswith("agent") else "h"
        lineno = locations.get((kind, first.location.split(" ", 1)[1]))
        raise FormatError(f"{first.location}: {first.message}", lineno)
    return inst


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
    if not isinstance(data, dict) or not isinstance(data.get("matched", {}), dict):
        raise InstanceError("matching JSON must be an object with a 'matched' map")
    matched = data.get("matched", {})
    pairs = []
    for a_label, h_label in matched.items():
        if a_label not in inst.agent_index:
            raise InstanceError(f"unknown agent {a_label!r} in matching")
        if h_label not in inst.hospital_index:
            raise InstanceError(f"unknown hospital {h_label!r} in matching")
        pairs.append((inst.agent_index[a_label], inst.hospital_index[h_label]))
    return Matching.from_pairs(inst, pairs)


def induced_subinstance(
    inst: HrsInstance, agents: Iterable[int], hospitals: Iterable[int]
) -> HrsInstance:
    """Sub-instance induced by the given vertex subsets, with preference lists
    filtered to surviving partners. Labels are preserved."""
    keep_a = sorted(set(agents))
    keep_h = sorted(set(hospitals))
    a_set, h_set = set(keep_a), set(keep_h)
    agents_data = [
        (
            inst.agent_labels[a],
            inst.sizes[a],
            [inst.hospital_labels[h] for h in inst.agent_prefs[a] if h in h_set],
        )
        for a in keep_a
    ]
    hospitals_data = [
        (
            inst.hospital_labels[h],
            inst.caps[h],
            [inst.agent_labels[a] for a in inst.hospital_prefs[h] if a in a_set],
        )
        for h in keep_h
    ]
    return HrsInstance.build(agents_data, hospitals_data)
