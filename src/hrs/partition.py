"""Ordered partitions of the agent set into size-homogeneous classes.

The solver consumes an ordered partition: a sequence of disjoint agent classes
covering all agents, every class holding agents of one common size. Hospital
preference lists *follow* such a partition when, scanning any hospital's list,
the class index never decreases; an ordering with that property acts as a
generalized master list and guarantees a stable outcome for the round-based
solver. Detection builds the constraint digraph "a must not be classed after
b" from consecutive entries of hospital lists, contracts strongly connected
components (which are forced into one class and must therefore be
size-homogeneous) and emits the condensation in topological order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .model import FormatError, HrsInstance, ValidationReport

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


def size_descending_partition(inst: HrsInstance) -> OrderedPartition:
    """Group agents by size, largest size first."""
    by_size: dict[int, list[int]] = {}
    for a, s in enumerate(inst.sizes):
        by_size.setdefault(s, []).append(a)
    classes = tuple(tuple(by_size[s]) for s in sorted(by_size, reverse=True))
    return OrderedPartition(classes, SIZE_DESCENDING)


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
        for a in cls:
            if not 0 <= a < n_agents:
                report.add("error", f"class #{i}", f"unknown agent index {a}")
            elif seen[a]:
                report.add("error", f"class #{i}", f"agent {inst.agent_labels[a]} in two classes")
            else:
                seen[a] = 1
        known = cls if 0 <= min(cls) and max(cls) < n_agents else [a for a in cls if 0 <= a < n_agents]
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


def _constraint_sccs(inst: HrsInstance) -> tuple[list[list[int]], list[int]]:
    """Tarjan SCCs of the digraph with an edge a -> b for every consecutive
    pair (a before b) in some hospital's list. Iterative to cope with long
    preference chains."""
    n = inst.n_agents
    adj: list[set[int]] = [set() for _ in range(n)]
    for prefs in inst.hospital_prefs:
        for x, y in zip(prefs, prefs[1:]):
            if x != y:
                adj[x].add(y)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    comp = [-1] * n
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    comp[w] = len(sccs)
                    if w == v:
                        break
                sccs.append(sorted(component))
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
    sccs, comp = _constraint_sccs(inst)
    for component in sccs:
        if len({inst.sizes[a] for a in component}) > 1:
            return None
    k = len(sccs)
    succ: list[set[int]] = [set() for _ in range(k)]
    indeg = [0] * k
    for prefs in inst.hospital_prefs:
        for x, y in zip(prefs, prefs[1:]):
            cx, cy = comp[x], comp[y]
            if cx != cy and cy not in succ[cx]:
                succ[cx].add(cy)
                indeg[cy] += 1
    ready = [(sccs[c][0], c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, (sccs[d][0], d))
    if len(order) != k:  # cycle between components cannot happen by construction
        return None
    classes = tuple(tuple(sccs[c]) for c in order)
    return OrderedPartition(classes, DETECTED_GEN_ML)


def parse_partition(inst: HrsInstance, text: str) -> OrderedPartition:
    """One class per non-comment line, agent labels separated by spaces."""
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        members = []
        for label in line.split():
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
