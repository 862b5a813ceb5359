"""The exact-cover kernel as it was before twin columns were collapsed,
verbatim.

That kernel kept every uncovered primary column in ``live`` and counted
column sizes through a chain of bound-method ``map`` calls. The library's
``_pm_searcher`` now leaves twins above the lowest of their class out of
``live`` and picks its column in one loop over it; ``test_kernel_twins.py``
requires both to return the same status, edge indices and nodes, and to
leave the same dead memo.
"""

from __future__ import annotations

from typing import Callable, Sequence

from diraclab.hypercore import mask_of


def _pm_searcher(
    edges: Sequence[Sequence[int]], n: int
) -> Callable[[int, set[int], int | None], tuple[str, list[int], int]]:
    """The exact-cover search behind :func:`find_perfect_matching`,
    :func:`_pm_within`, :func:`find_disjoint_representatives` and the
    template checks, set up once for one edge list. Returns
    ``search(start, dead, budget)``, which covers the columns outside the
    ``start`` mask with disjoint edges avoiding it.

    Each edge is an ascending tuple of column ids. Columns below ``n`` are
    primary and must be covered exactly once; any higher column is
    secondary and may be covered at most once (Knuth's secondary columns).
    A perfect matching of a k-graph on n vertices is the case with no
    secondary column.

    ``search`` returns ``(status, edge indices, nodes)``: the indices form
    the exact cover, or the longest partial one seen. It is one loop over an
    explicit stack, one frame ``(covered, avail, live, untried candidates)``
    per open node of the current path, and returns from inside the loop.

    ``dead`` is the memo of covered masks shown to fail. A mask enters it
    only when its frame runs out of candidates and is popped: never on a
    zero count (which opens no frame), a memo hit or a budget stop. It holds
    the covered secondary columns too, so a dead mask means the primary
    columns outside it have no cover by edges avoiding it, whatever the
    start, and a caller may share the memo between searches on the same
    edges. The status stays exact; only the partial matching kept after a
    failure may be shorter than a fresh search's.

    A frame looks each candidate's child mask up in ``dead`` before it
    descends. A dead child only adds a node, becomes ``best`` if longer and
    ends the search if that spends the budget. Its visit would do no more:
    a memo hit opens no frame, and no frame opens on a cover, so no dead
    mask is one. The nodes, ``best`` and budget stops are a visit's.

    ``avail`` holds the edges that avoid every covered column, and ``live``
    lists the uncovered primary columns in ascending order; an empty
    ``live`` is a cover. The counts ``popcount(avail & inc[v])`` for v in
    ``live`` (the column sizes of Dancing Links) are the lengths of the
    available-edge lists of a scan over all vertices, and the set bits of
    ``avail & inc[v]``, low to high, are v's available edges in incidence
    order; so the column picked (fewest available edges, lowest id on
    ties), the edge order and every node count are those of that scan.
    """
    E = len(edges)
    cols = max(n, max((e[-1] + 1 for e in edges), default=0))
    # set bits in a bytearray: growing an int bit by bit copies it each time
    rows = [bytearray((E + 7) // 8) for _ in range(cols)]
    emask = []
    for i, e in enumerate(edges):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in e:
            rows[v][byte] |= bit
        emask.append(mask_of(e))
    inc = [int.from_bytes(row, "little") for row in rows]
    ninc = [~b for b in inc]

    def search(
        start: int, dead: set[int], budget: int | None = None
    ) -> tuple[str, list[int], int]:
        chosen: list[int] = []
        best: list[int] = []
        covered, avail, nodes = start, (1 << E) - 1, 0
        for v in range(cols):
            if start >> v & 1:
                avail &= ninc[v]
        live = [v for v in range(n) if not start >> v & 1]
        stack: list[tuple[int, int, list[int], int]] = []
        while True:
            nodes += 1
            if budget is not None and nodes > budget:
                return "partial", best, nodes
            if not live:
                return "perfect", chosen, nodes
            # a child was looked up in the memo before the descent; only the
            # start is visited with an empty stack
            if stack or covered not in dead:
                cnts = list(map(int.bit_count, map(avail.__and__, map(inc.__getitem__, live))))
                c = min(cnts)
                if c:
                    stack.append((covered, avail, live, avail & inc[live[cnts.index(c)]]))
            # back up to the deepest frame with a candidate whose child is not
            # dead; its last edge is on the path while len(chosen) == len(stack)
            while stack:
                covered, avail, live, cand = stack[-1]
                if len(chosen) == len(stack):
                    chosen.pop()
                while cand:
                    low = cand & -cand
                    cand ^= low
                    i = low.bit_length() - 1
                    if covered | emask[i] not in dead:
                        break
                    nodes += 1
                    if len(chosen) >= len(best):
                        best = chosen + [i]
                    if budget is not None and nodes > budget:
                        return "partial", best, nodes
                else:
                    stack.pop()
                    dead.add(covered)
                    continue
                stack[-1] = covered, avail, live, cand
                break
            else:
                return "none", best, nodes
            chosen.append(i)
            if len(chosen) > len(best):
                best[:] = chosen
            covered |= emask[i]
            live = live[:]
            for u in edges[i]:
                avail &= ninc[u]
                if u < n:
                    live.remove(u)

    return search
