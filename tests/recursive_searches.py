"""The recursive searches that diraclab's search loops replaced, verbatim.

Each search below called itself through a nested closure. The library now
runs them as loops (``bipartite_matching`` through a module-level helper);
``test_search_loops.py`` requires both to return the same results, node
counts and witnesses on seeded inputs.

``_density_enumerate`` has no loop twin in the library any more: it is the
exhaustive k-density oracle that ``test_hypercore.py`` holds
``hypercore.k_density`` to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from diraclab.errors import SizeError
from diraclab.hypercore import DensityResult, Hypergraph, mask_of

# the walk doubles its time per edge (a few seconds at 20 edges)
_ENUM_BUDGET = 20


def _max_matching(
    edges: Sequence[Sequence[int]],
    nv: int,
    target: int | None = None,
    budget: int | None = None,
) -> tuple[list[int], bool, int]:
    """Branch-and-bound maximum matching over edge tuples on ``nv`` vertices.

    Branches on the lowest coverable vertex: either one of its available
    edges is used, or the vertex is banned (left uncovered for good). Returns
    (best edge-index list, optimal flag, nodes). With ``target`` set, stops as
    soon as a matching of that size appears (the flag then only means the
    search was not cut short by ``budget``).
    """
    if not edges:
        return [], True, 0
    k = len(edges[0])
    masks = [mask_of(e) for e in edges]
    incident: list[list[int]] = [[] for _ in range(nv)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    idle = mask_of(v for v in range(nv) if not incident[v])

    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    hit = False

    def rec(covered: int, banned: int) -> bool:
        nonlocal nodes, hit
        nodes += 1
        if budget is not None and nodes > budget:
            hit = True
            return True
        if len(chosen) > len(best):
            best[:] = chosen
            if target is not None and len(best) >= target:
                return True
        blocked = covered | banned
        active = nv - blocked.bit_count()
        want = len(best) + 1 if target is None else min(target, len(best) + 1)
        if len(chosen) + active // k < want:
            return False
        free = ~blocked & ((1 << nv) - 1)
        if not free:
            return False
        v = (free & -free).bit_length() - 1
        for i in incident[v]:
            if not masks[i] & blocked:
                chosen.append(i)
                if rec(covered | masks[i], banned):
                    return True
                chosen.pop()
        return rec(covered, banned | (1 << v))

    rec(0, idle)
    return best, not hit, nodes


def bipartite_matching(
    adj: Sequence[Sequence[int]], order: Iterable[int], banned: frozenset[int]
) -> dict[int, int] | None:
    """Match every left vertex in ``order`` to a right neighbour outside
    ``banned`` by augmenting paths (Kuhn). Neighbours are tried in ``adj``
    order. Returns the partner map, right vertex to left vertex, or None as
    soon as some left vertex cannot be matched."""
    partner: dict[int, int] = {}
    return partner if _augment_all(adj, order, banned, partner) else None


def _augment_all(
    adj: Sequence[Sequence[int]],
    order: Iterable[int],
    banned: frozenset[int],
    partner: dict[int, int],
) -> bool:
    """Grow the matching ``partner`` (right to left, no right vertex in
    ``banned``) by one augmenting path per left vertex in ``order``, which
    must be the unmatched ones. False as soon as one has no augmenting path:
    then no matching avoiding ``banned`` saturates the left vertices, from
    whichever matching the search started."""

    def augment(a: int, seen: set[int]) -> bool:
        for b in adj[a]:
            if b in banned or b in seen:
                continue
            seen.add(b)
            if b not in partner or augment(partner[b], seen):
                partner[b] = a
                return True
        return False

    for a in order:
        if not augment(a, set()):
            return False
    return True


def find_independent_set(H: Hypergraph, t: int) -> tuple[int, ...] | None:
    """Exact search for t vertices spanning no edge of H; None if there is
    no such set. Straight include/exclude branching with a count prune."""
    masks = H.edge_masks

    def rec(v: int, chosen: list[int], cmask: int) -> tuple[int, ...] | None:
        if len(chosen) == t:
            return tuple(chosen)
        if len(chosen) + (H.n - v) < t:
            return None
        if v == H.n:
            return None
        take = cmask | (1 << v)
        if all(m & take != m for m in masks):
            chosen.append(v)
            got = rec(v + 1, chosen, take)
            if got is not None:
                return got
            chosen.pop()
        return rec(v + 1, chosen, cmask)

    return rec(0, [], 0)


def _density_enumerate(H: Hypergraph) -> DensityResult:
    """The k-density over every edge subset of at least two edges, with the
    first best subset in include-first preorder as witness; more than
    ``_ENUM_BUDGET`` edges is a SizeError."""
    masks = H.edge_masks
    m = len(masks)
    if m > _ENUM_BUDGET:
        raise SizeError(
            f"exhaustive k-density enumeration limited to {_ENUM_BUDGET} edges, got {m}"
        )
    k = H.k
    best = Fraction(0)
    best_edges: tuple[int, ...] = ()

    chosen: list[int] = []

    def rec(i: int, cnt: int, um: int) -> None:
        nonlocal best, best_edges
        if cnt >= 2:
            val = Fraction(cnt - 1, um.bit_count() - k)
            if val > best:
                best = val
                best_edges = tuple(chosen)
        if i == m:
            return
        chosen.append(i)
        rec(i + 1, cnt + 1, um | masks[i])
        chosen.pop()
        rec(i + 1, cnt, um)

    rec(0, 0, 0)
    witness = tuple(H.edges[i] for i in best_edges) if best_edges else None
    return DensityResult(best, witness)


def _perfect_matching_masks(n: int, k: int, edge_index: dict) -> list[int]:
    """Edge-index bitmasks of every perfect matching of the complete k-graph."""
    out: list[int] = []

    def rec(remaining: tuple[int, ...], acc: int) -> None:
        if not remaining:
            out.append(acc)
            return
        v = remaining[0]
        rest = remaining[1:]
        for tail in combinations(rest, k - 1):
            e = (v,) + tail
            left = tuple(u for u in rest if u not in tail)
            rec(left, acc | (1 << edge_index[e]))

    rec(tuple(range(n)), 0)
    return out
