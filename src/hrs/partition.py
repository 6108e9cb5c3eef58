"""Ordered partitions of the agent set into size-homogeneous classes.

The solver consumes an ordered partition: a sequence of disjoint agent classes
covering all agents, every class holding agents of one common size. Hospital
preference lists *follow* such a partition when, scanning any hospital's list,
the class index never decreases; an ordering with that property acts as a
generalized master list and guarantees a stable outcome for the round-based
solver. Detection builds the constraint digraph "a must not be classed after
b" as adjacency lists, one edge per consecutive pair of a hospital's list.
One iterative Tarjan pass finds its strongly connected components, which are
forced into one class, and returns None at the first one that mixes sizes.
The condensation, built from the same lists, is emitted in topological order
by Kahn's algorithm, smallest agent first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .model import FormatError, HrsInstance, ValidationReport, _lines

SIZE_DESCENDING = "size_descending"
DETECTED_GEN_ML = "detected_gen_ml"
USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered disjoint classes of agent indices; each class sorted ascending."""

    classes: tuple[tuple[int, ...], ...]
    provenance: str = USER_SUPPLIED

    def class_of(self, n_agents: int) -> list[int]:
        """agent index -> class position, -1 for agents not covered."""
        owner = [-1] * n_agents
        for i, cls in enumerate(self.classes):
            for a in cls:
                if 0 <= a < n_agents:
                    owner[a] = i
        return owner

    def __len__(self) -> int:
        return len(self.classes)


def _size_classes(inst: HrsInstance) -> list[list[int]]:
    """The agents grouped by size, largest size first, each group ascending."""
    by_size: dict[int, list[int]] = {}
    for a, s in enumerate(inst.sizes):
        by_size.setdefault(s, []).append(a)
    return [by_size[s] for s in sorted(by_size, reverse=True)]


def size_descending_partition(inst: HrsInstance) -> OrderedPartition:
    """Group agents by size, largest size first."""
    return OrderedPartition(tuple(map(tuple, _size_classes(inst))), SIZE_DESCENDING)


def master_list_partition(inst: HrsInstance, order: Sequence[int]) -> OrderedPartition:
    """Singleton classes in the given order; ``order`` must be a permutation of
    the agent indices."""
    order = list(order)
    if sorted(order) != list(range(inst.n_agents)):
        raise ValueError("master list order is not a permutation of the agents")
    return OrderedPartition(tuple((a,) for a in order), USER_SUPPLIED)


def validate_ordered_partition(
    inst: HrsInstance, partition: OrderedPartition, require_gen_ml: bool = False
) -> ValidationReport:
    """Check disjoint cover and per-class size homogeneity; with
    ``require_gen_ml``, also that every hospital's list is non-decreasing in
    class index."""
    report = ValidationReport()
    n_agents, sizes = inst.n_agents, inst.sizes
    seen = bytearray(n_agents)
    for i, cls in enumerate(partition.classes):
        if not cls:
            report.add("error", f"class #{i}", "empty class")
            continue
        bad = False
        for a in cls:
            if not (isinstance(a, int) and 0 <= a < n_agents):
                report.add("error", f"class #{i}", f"unknown agent index {a!r}")
                bad = True
            elif seen[a]:
                report.add("error", f"class #{i}", f"agent {inst.agent_labels[a]} in two classes")
            else:
                seen[a] = 1
        known = [a for a in cls if isinstance(a, int) and 0 <= a < n_agents] if bad else cls
        if known and not all(map(sizes[known[0]].__eq__, map(sizes.__getitem__, known))):
            report.add("error", f"class #{i}", f"mixed sizes {sorted({sizes[a] for a in known})}")
    if 0 in seen:
        missing = [a for a in range(n_agents) if not seen[a]]
        labels = ", ".join(inst.agent_labels[a] for a in missing)
        report.add("error", "partition", f"agents not covered: {labels}")
    if require_gen_ml and report.ok:
        owner = partition.class_of(n_agents)
        for h in range(inst.n_hospitals):
            prefs = inst.hospital_prefs[h]
            for x, y in zip(prefs, prefs[1:]):
                if owner[x] > owner[y]:
                    report.add(
                        "error", f"hospital {inst.hospital_labels[h]}",
                        f"{inst.agent_labels[x]} (class {owner[x]}) listed before "
                        f"{inst.agent_labels[y]} (class {owner[y]})",
                    )
    return report


def _constraint_sccs(
    adj: list[list[int]], sizes: Sequence[int]
) -> tuple[list[list[int]], list[int]] | None:
    """Tarjan SCCs of the digraph ``adj``, each sorted, and agent ->
    component index; None as soon as a component mixes agent sizes.
    Iterative, each frame an agent and the iterator over its successors, so
    long preference chains need no recursion. A visited agent is on Tarjan's
    stack exactly while its component is unknown."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path, succ = [root], [iter(adj[root])]
        while path:
            v = path[-1]
            lv = low[v]
            for w in succ[-1]:
                iw = index[w]
                if iw < 0:  # descend; v resumes at its next successor
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    succ.append(iter(adj[w]))
                    break
                if iw < lv and comp[w] < 0:
                    lv = iw
            else:
                path.pop()
                succ.pop()
                if lv == index[v]:
                    c, size = len(sccs), sizes[v]
                    members = []
                    while True:
                        w = stack.pop()
                        if sizes[w] != size:
                            return None
                        comp[w] = c
                        members.append(w)
                        if w == v:
                            break
                    members.sort()
                    sccs.append(members)
                elif lv < low[path[-1]]:
                    low[path[-1]] = lv
    return sccs, comp


def detect_generalized_master_list(inst: HrsInstance) -> OrderedPartition | None:
    """An ordered size-homogeneous partition that every hospital list follows,
    or None when no such partition exists.

    Components of mutually-ordering-constrained agents must share one class;
    if any component mixes sizes, no valid partition exists. Otherwise the
    components in topological order (ties broken by smallest agent index) form
    one. The result always passes validate_ordered_partition with gen-ML
    checking on.
    """
    # a -> b for every consecutive pair (a before b) of some hospital's list;
    # an edge two hospitals list appears twice, here and in the condensation
    adj: list[list[int]] = [[] for _ in range(inst.n_agents)]
    for prefs in inst.hospital_prefs:
        for x, y in zip(prefs, prefs[1:]):
            adj[x].append(y)
    found = _constraint_sccs(adj, inst.sizes)
    if found is None:
        return None
    sccs, comp = found
    succ: list[list[int]] = [[] for _ in sccs]
    indeg = [0] * len(sccs)
    for x, targets in enumerate(adj):
        cx = comp[x]
        for y in targets:
            cy = comp[y]
            if cx != cy:
                succ[cx].append(cy)
                indeg[cy] += 1
    # Kahn's algorithm, smallest agent first; a component is keyed by its
    # smallest agent, which comp maps back to it
    ready = [members[0] for c, members in enumerate(sccs) if indeg[c] == 0]
    heapq.heapify(ready)
    classes = []
    while ready:
        c = comp[heapq.heappop(ready)]
        classes.append(tuple(sccs[c]))
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, sccs[d][0])
    return OrderedPartition(tuple(classes), DETECTED_GEN_ML)


def parse_partition(inst: HrsInstance, text: str) -> OrderedPartition:
    """One class per non-comment line, agent labels separated by spaces."""
    classes = []
    for lineno, labels in _lines(text, -1):
        members = []
        for label in labels:
            if label not in inst.agent_index:
                raise FormatError(f"unknown agent {label!r}", lineno)
            members.append(inst.agent_index[label])
        classes.append(tuple(sorted(members)))
    return OrderedPartition(tuple(classes), USER_SUPPLIED)


def serialize_partition(inst: HrsInstance, partition: OrderedPartition) -> str:
    lines = [
        " ".join(inst.agent_labels[a] for a in cls) for cls in partition.classes
    ]
    return "\n".join(lines) + ("\n" if lines else "")
