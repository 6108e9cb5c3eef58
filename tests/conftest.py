"""Shared fixtures and independent reference checkers.

The reference implementations here are deliberately naive (enumerate every
eviction subset, every ordered partition, every assignment via itertools) so
they stay independent of the package's own search and DP paths.
"""

from __future__ import annotations

import itertools
import random

import pytest

from hrs.model import UNMATCHED, HrsInstance, Matching
from hrs.harness import (
    GenParams,
    approx_gap_example,
    gen_random,
    master_list_example,
    no_stable_example,
)


@pytest.fixture
def no_stable_inst() -> HrsInstance:
    return no_stable_example()


@pytest.fixture
def gap_inst() -> HrsInstance:
    return approx_gap_example()


@pytest.fixture
def gen_ml_inst() -> HrsInstance:
    return master_list_example()


def small_random_instances(count: int, seed: int = 0, max_agents: int = 5,
                           max_hospitals: int = 4):
    """Stream of small random instances with varying shapes."""
    rng = random.Random(seed)
    for i in range(count):
        params = GenParams(
            n_agents=rng.randint(1, max_agents),
            n_hospitals=rng.randint(1, max_hospitals),
            size_range=(1, 3),
            cap_range=(1, 6),
            density=rng.choice([0.4, 0.7, 1.0]),
            seed=seed * 100_003 + i,
        )
        yield gen_random(params)


def all_feasible_assignments(inst: HrsInstance, caps=None):
    """Every feasible matching via plain product-and-filter (independent of
    the package's backtracking search); ``caps`` replaces the capacities."""
    caps = inst.caps if caps is None else caps
    choice_sets = [list(inst.agent_prefs[a]) + [UNMATCHED] for a in range(inst.n_agents)]
    for combo in itertools.product(*choice_sets):
        occ = [0] * inst.n_hospitals
        ok = True
        for a, h in enumerate(combo):
            if h != UNMATCHED:
                occ[h] += inst.sizes[a]
        for h in range(inst.n_hospitals):
            if occ[h] > caps[h]:
                ok = False
                break
        if ok:
            yield Matching(combo)


def naive_blocking_pairs(inst: HrsInstance, matching: Matching, kind: str, caps=None):
    """Blocking pairs by checking every eviction subset X of M(h) verbatim
    against the definition; kind is 'classic' or 'occupancy'; ``caps``
    replaces the capacities."""
    caps = inst.caps if caps is None else caps
    assign = matching.assign
    occ = [0] * inst.n_hospitals
    matched_at = [[] for _ in range(inst.n_hospitals)]
    for a, h in enumerate(assign):
        if h != UNMATCHED:
            occ[h] += inst.sizes[a]
            matched_at[h].append(a)
    pairs = []
    for a in range(inst.n_agents):
        cur = assign[a]
        prefs = inst.agent_prefs[a]
        cur_rank = prefs.index(cur) if cur != UNMATCHED else len(prefs)
        for h in prefs[:cur_rank]:
            rank = inst.hospital_prefs[h].index
            blocked = False
            members = matched_at[h]
            for r in range(len(members) + 1):
                for X in itertools.combinations(members, r):
                    if any(rank(b) <= rank(a) for b in X):
                        continue  # X must be strictly lower-preferred than a
                    removed = sum(inst.sizes[b] for b in X)
                    if occ[h] - removed + inst.sizes[a] > caps[h]:
                        continue
                    if kind == "occupancy" and inst.sizes[a] < removed:
                        continue
                    blocked = True
                    break
                if blocked:
                    break
            if blocked:
                pairs.append((a, h))
    return pairs


def ordered_partitions(items):
    """All ordered set partitions of the given list."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in ordered_partitions(rest):
        for i, cls in enumerate(sub):
            yield sub[:i] + [cls | {first}] + sub[i + 1:]
        for i in range(len(sub) + 1):
            yield sub[:i] + [{first}] + sub[i:]


def has_gen_master_list_naive(inst: HrsInstance) -> bool:
    """Brute-force existence of an ordered size-homogeneous partition that
    every hospital list follows."""
    for partition in ordered_partitions(range(inst.n_agents)):
        if any(len({inst.sizes[a] for a in cls}) > 1 for cls in partition):
            continue
        owner = {}
        for i, cls in enumerate(partition):
            for a in cls:
                owner[a] = i
        ok = True
        for prefs in inst.hospital_prefs:
            for x, y in zip(prefs, prefs[1:]):
                if owner[x] > owner[y]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
