"""Exact Dirac-threshold computation at enumeration scale, the conjectured
limiting density, and the two extremal barrier constructions.

The threshold m_d(k,n) is the least m such that every n-vertex k-graph with
minimum d-degree at least m has a perfect matching. At enumeration scale it
equals 1 + max over perfect-matching-free graphs of their minimum d-degree,
which is what the sweep computes, in two independently coded routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DiracLabError, SizeError
from .hypercore import Hypergraph, min_d_degree
from .matchpower import find_perfect_matching

__all__ = [
    "ThresholdRecord",
    "SandwichReport",
    "conjectured_density",
    "exact_dirac_threshold",
    "space_barrier",
    "space_barrier_set",
    "parity_barrier",
    "parity_barrier_set",
    "verify_threshold_sandwich",
]

_SWEEP_CAP = 24
# low edge bits per lane int of the unpruned scan: 2^16 masks per block
_LANE_BITS = 16


def _frac(x) -> Fraction:
    """Floats come in through configs and CLIs; going through their decimal
    literal keeps 0.2 meaning 1/5. Everything else converts directly.
    inf and nan have no fraction, so they are a SizeError."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SizeError(f"need a finite number, got {x}")
        return Fraction(str(x))
    return Fraction(x)


def conjectured_density(d: int, k: int) -> Fraction:
    """The conjectured limiting threshold density max{1/2, 1-(1-1/k)^(k-d)}."""
    if not 1 <= d < k:
        raise SizeError(f"need 1 <= d < k, got d={d}, k={k}")
    alt = 1 - Fraction(k - 1, k) ** (k - d)
    return max(Fraction(1, 2), alt)


@dataclass(frozen=True)
class ThresholdRecord:
    n: int
    k: int
    d: int
    m_value: int
    extremal_witness: Hypergraph
    graphs_enumerated: int
    route: str
    nodes_explored: int


def _perfect_matching_masks(n: int, k: int, edge_index: dict) -> list[int]:
    """Edge-index bitmasks of every perfect matching of the complete k-graph,
    grown one edge per round by every edge at each matching's lowest uncovered
    vertex. Every leaf sits at depth n/k, so the list comes out in the
    depth-first order of a search that branches the same way."""
    partial = [(tuple(range(n)), 0)]
    for _ in range(n // k):
        partial = [
            (tuple(u for u in left[1:] if u not in tail), acc | 1 << edge_index[left[:1] + tail])
            for left, acc in partial
            for tail in combinations(left[1:], k - 1)
        ]
    return [acc for left, acc in partial if not left]


def _incidence_masks(all_edges: list, n: int, d: int) -> list[int]:
    """For each d-set (lex order), the edge-index bitmask of edges containing it."""
    out = []
    for S in combinations(range(n), d):
        s = set(S)
        m = 0
        for i, e in enumerate(all_edges):
            if s.issubset(e):
                m |= 1 << i
        out.append(m)
    return out


def _sweep_pruned(total: int, pm_masks: list[int], inc: list[int]) -> tuple[int, int, int]:
    """Depth-first branch and bound over the edge bits of the masks below
    ``total``: the best minimum degree among perfect-matching-free graphs.
    Returns (best, witness, nodes).

    A node fixes the edge bits from the highest down to some ``free``; bits
    below ``free`` are undecided. Children try the bit at 0 before 1, so the
    leaves come in increasing mask order. Two cuts drop a branch:

    - a perfect matching closes: setting bit i to 1 decides every matching
      whose lowest edge is i, so only that group of ``pm_masks`` is checked
      there, and every matching has been checked by the time a leaf is
      reached;
    - the degree bound: a graph below the node has minimum degree at most
      ``min(((mask | undecided) & s).bit_count() for s in inc)``, so the node
      is cut when that is <= best. Setting a bit to 1 leaves the bound as it
      was, so it is recomputed for the 0-child only. At a leaf the bound is
      the exact minimum degree.

    ``best`` is replaced only on a strict ``>`` and leaves arrive in
    increasing order, so the witness is the least mask attaining the
    maximum: the same (best, witness) as a scan of every mask in order.
    Every mask is either visited or excluded by a cut. ``nodes`` counts the
    nodes that pass the degree bound, leaves included. ``pm_masks`` must be
    nonzero.
    """
    e_total = total.bit_length() - 1
    closing: list[list[int]] = [[] for _ in range(e_total)]
    for pm in pm_masks:
        closing[(pm & -pm).bit_length() - 1].append(pm)
    best, witness, nodes = -1, 0, 0
    # (undecided low bits, decided bits, degree bound of the node)
    stack = [(e_total, 0, min((total - 1 & s).bit_count() for s in inc))]
    while stack:
        free, mask, bound = stack.pop()
        if bound <= best:
            continue
        nodes += 1
        if not free:
            best, witness = bound, mask
            continue
        free -= 1
        one = mask | 1 << free
        if not any(one & pm == pm for pm in closing[free]):
            stack.append((free, one, bound))
        upper = mask | (1 << free) - 1
        stack.append((free, mask, min((upper & s).bit_count() for s in inc)))
    return best, witness, nodes


def _sweep_unpruned(total: int, pm_masks: list[int], inc: list[int]) -> tuple[int, int]:
    """Bit-sliced full scan: every mask's minimum degree is tested, 2^16
    masks per Python int, with no branch cut. Independent of the pruned walk
    by construction order. Returns (best, witness).

    The low ``_LANE_BITS`` edge bits of a mask pick its lane, one bit of a
    lane int, and the edge bits above them its block. Edge column i is the
    lane int of the lanes whose low edge bit i is set. For each d-set, an
    at-least table over its low edges holds ``at[u]``, the lanes whose low
    edges give it degree >= u; in block b its high edges add
    ``(b & high).bit_count()``. The lanes of a perfect matching's low edges
    are the AND of their columns, and they count against block b only when
    the matching's high edges all lie in b.

    t runs down from the size of the smallest degree mask, the largest
    minimum degree any mask can reach. For each t the blocks run in
    ascending order, and each block's matching-free lanes are ANDed with
    every d-set's ``at[t - high degree]``. The first lane hit
    gives the largest t, then the lowest block, then the lowest lane: the
    least mask attaining the maximum, which is the witness a scan of every
    mask in order keeps. (-1, 0) means every mask holds a matching.

    Blocks are what make it pay. At (6,3,1) and (6,3,2), lanes of 2^14 and
    2^16 bits took 0.4-0.6 ms a sweep, against 8-19 ms for a numpy scan of
    2^16-mask chunks; the whole 2^20-mask space as one int took 12.6 ms. The
    columns are built by doubling a run of ones (``x |= x << p``): at 16 bits
    that took 0.07 ms, against 6.3 ms for dividing by a repunit.
    """
    e_total = total.bit_length() - 1
    low = min(e_total, _LANE_BITS)
    lanes = 1 << low
    full = (1 << lanes) - 1
    columns = []
    for i in range(low):
        run = 1 << i
        x = ((1 << run) - 1) << run
        period = run << 1
        while period < lanes:
            x |= x << period
            period <<= 1
        columns.append(x)
    # per d-set: (its edge bits above the lanes, its at-least table)
    tables = []
    for s in inc:
        at = [full]
        for i in range(low):
            if s >> i & 1:
                col = columns[i]
                at = [full] + [at[u] | at[u - 1] & col for u in range(1, len(at))] + [at[-1] & col]
        tables.append((s >> low, at))
    # per matching: (its edge bits above the lanes, the lanes holding its low edges)
    holding = []
    for pm in pm_masks:
        held = full
        for i in range(low):
            if pm >> i & 1:
                held &= columns[i]
        holding.append((pm >> low, held))
    free = []
    for block in range(total >> low):
        blocked = 0
        for high, held in holding:
            if block & high == high:
                blocked |= held
        free.append(full ^ blocked)
    for t in range(min(s.bit_count() for s in inc), -1, -1):
        for block, hit in enumerate(free):
            for high, at in tables:
                if not hit:
                    break
                u = t - (block & high).bit_count()
                if u > 0:
                    hit &= at[u] if u < len(at) else 0
            if hit:
                return t, block << low | (hit & -hit).bit_length() - 1
    return -1, 0


def exact_dirac_threshold(n: int, k: int, d: int, route: str = "pruned") -> ThresholdRecord:
    """Exhaustive labeled-graph sweep for the exact threshold.

    ``route`` selects one of two independently written sweeps over the
    2^C(n,k) edge masks of the complete k-graph, both returning the least
    mask that attains the largest minimum d-degree among graphs with no
    perfect matching:

    - "pruned" walks the masks depth first, highest edge bit first and 0
      before 1, so the leaves come in increasing mask order. It cuts a
      branch once a perfect matching closes (checking, when bit i is set,
      only the matchings whose lowest edge is i) and once the degree bound
      of every graph below it is no better than the best so far. The best
      is replaced only on a strict improvement, so the witness is the
      first maximal mask, as in a full scan;
    - "unpruned" tests every mask, bit-sliced: one Python int holds a lane
      per setting of the low 16 edge bits, and the edge bits above them are
      walked block by block. For t from the largest possible degree down,
      it ANDs each block's matching-free lanes with the lanes where every
      d-set has degree >= t, and stops at the first lane hit: the largest
      t, the lowest block and the lowest lane, so the least maximal mask.

    Both produce identical values and witnesses, which the acceptance suite
    asserts. ``graphs_enumerated`` is 2^C(n,k) on both routes: every graph
    is either visited or excluded by a cut. ``nodes_explored`` is the
    pruned walk's node count; the unpruned route cuts no branch, so it
    reports 2^C(n,k) there too. The witness is re-verified afterwards by a
    d-degree recount and an exact perfect-matching search.
    """
    if not 1 <= d < k:
        raise SizeError(f"need 1 <= d < k, got d={d}, k={k}")
    if n % k != 0:
        raise SizeError(f"k={k} must divide n={n}")
    if n < k:
        raise SizeError(f"need n >= k, got n={n}, k={k}")
    if route not in ("pruned", "unpruned"):
        raise SizeError(f"unknown route {route!r}")
    e_total = math.comb(n, k)
    if e_total > _SWEEP_CAP:
        raise SizeError(f"sweep needs 2^{e_total} graphs; cap is 2^{_SWEEP_CAP}")
    all_edges = list(combinations(range(n), k))
    edge_index = {e: i for i, e in enumerate(all_edges)}
    pm_masks = _perfect_matching_masks(n, k, edge_index)
    inc = _incidence_masks(all_edges, n, d)
    total = 1 << e_total

    if route == "pruned":
        best, witness_mask, nodes = _sweep_pruned(total, pm_masks, inc)
    else:
        best, witness_mask = _sweep_unpruned(total, pm_masks, inc)
        nodes = total

    witness = Hypergraph(
        n, k, tuple(all_edges[i] for i in range(e_total) if witness_mask >> i & 1)
    )
    # post-hoc re-verification through the independent search and recount
    val, _ = min_d_degree(witness, d)
    if val != best:
        raise DiracLabError(f"witness degree recount {val} disagrees with sweep {best}")
    if find_perfect_matching(witness).status != "none":
        raise DiracLabError("witness has a perfect matching")
    return ThresholdRecord(
        n=n,
        k=k,
        d=d,
        m_value=best + 1,
        extremal_witness=witness,
        graphs_enumerated=total,
        route=route,
        nodes_explored=nodes,
    )


# ---------------------------------------------------------------------------
# Barrier constructions
# ---------------------------------------------------------------------------

def space_barrier_set(n: int, k: int) -> tuple[int, ...]:
    """The deficient set S of the space construction: the n/k - 1 lowest ids."""
    if n % k != 0:
        raise SizeError(f"k={k} must divide n={n}")
    if n < 2 * k:
        raise SizeError(f"need n >= 2k, got n={n}, k={k}")
    return tuple(range(n // k - 1))


def _space_degree(n: int, k: int, d: int) -> int:
    """The space barrier's minimum d-degree by formula: every k-set through
    a d-set outside S except those that miss S."""
    return math.comb(n - d, k - d) - math.comb(n - d - (n // k - 1), k - d)


def space_barrier(n: int, k: int, d: int) -> Hypergraph:
    """All k-sets meeting a set S of size n/k - 1.

    Any matching has at most |S| edges (each must use a vertex of S), which
    is less than n/k, so no perfect matching exists; that counting argument
    is checked directly here, and the stated minimum-degree value is
    re-verified before returning.
    """
    if not 1 <= d < k:
        raise SizeError(f"need 1 <= d < k, got d={d}, k={k}")
    S = set(space_barrier_set(n, k))
    edges = [e for e in combinations(range(n), k) if S.intersection(e)]
    H = Hypergraph(n, k, tuple(edges))
    if not all(S.intersection(e) for e in H.edges):
        raise DiracLabError("space barrier has an edge missing S")
    expected = _space_degree(n, k, d)
    val, _ = min_d_degree(H, d)
    if val != expected:
        raise DiracLabError(f"space barrier degree {val} != formula {expected}")
    return H


def _parity_graph(n: int, k: int, a: int) -> Hypergraph:
    """Every k-set meeting {0, ..., a-1} in an even number of vertices."""
    A = set(range(a))
    edges = [e for e in combinations(range(n), k) if len(A.intersection(e)) % 2 == 0]
    return Hypergraph(n, k, tuple(edges))


def _parity_choice(n: int, k: int, d: int) -> tuple[int, Hypergraph, int | None]:
    """The size of parity_barrier_set's A, the graph it gives, and that
    graph's minimum d-degree when comparing two sizes computed it. The
    oddness of |A| and the evenness of every edge are checked here."""
    if n % k != 0:
        raise SizeError(f"k={k} must divide n={n}")
    if not 1 <= d < k:
        raise SizeError(f"need 1 <= d < k, got d={d}, k={k}")
    if n < k:
        raise SizeError(f"need n >= k, got n={n}, k={k}")
    half = n // 2
    if half % 2 == 1:
        a, H, deg = half, _parity_graph(n, k, half), None
    else:
        # half >= 2 here, so both neighbours lie in 1..n
        graphs = {a: _parity_graph(n, k, a) for a in (half - 1, half + 1)}
        degs = {a: min_d_degree(H, d)[0] for a, H in graphs.items()}
        a = max(degs, key=lambda a: (degs[a], -a))
        H, deg = graphs[a], degs[a]
    if a % 2 != 1:
        raise DiracLabError(f"parity barrier set has even size {a}")
    A = set(range(a))
    if not all(len(A.intersection(e)) % 2 == 0 for e in H.edges):
        raise DiracLabError("parity barrier has an edge meeting A oddly")
    return a, H, deg


def parity_barrier_set(n: int, k: int, d: int) -> tuple[int, ...]:
    """The odd set A of the parity construction, sized to maximize the
    minimum d-degree: nearest odd count to n/2, lowest ids; when n/2 is even
    the two neighbors are compared exactly and ties go to the smaller."""
    return tuple(range(_parity_choice(n, k, d)[0]))


def parity_barrier(n: int, k: int, d: int) -> Hypergraph:
    """All k-sets with even intersection with an odd-size set A.

    A perfect matching would split |A| into even parts, impossible for odd
    |A|; the evenness of every edge and the oddness of |A| are checked
    directly at construction.
    """
    return _parity_choice(n, k, d)[1]


@dataclass(frozen=True)
class SandwichReport:
    n: int
    k: int
    d: int
    lower_bound: int
    upper_bound: int | None
    ratio: Fraction | None
    lower_ratio: Fraction
    exact_available: bool


def verify_threshold_sandwich(n: int, k: int, d: int) -> SandwichReport:
    """Bracket the threshold: barriers from below, the sweep from above.

    The lower bound is 1 + the best barrier's minimum d-degree (a PM-free
    graph with degree m-1 shows the threshold exceeds m-1). The upper bound
    is the exact sweep when it fits the enumeration cap, otherwise absent.
    Each barrier's degree is counted once, by its constructor if it can.
    """
    # the parity barrier checks every precondition but the space barrier's
    # n >= 2k, so it goes first and any SizeError is its own
    _, H, deg = _parity_choice(n, k, d)
    degrees = [min_d_degree(H, d)[0] if deg is None else deg]
    if n >= 2 * k:
        space_barrier(n, k, d)  # raises if its own checks fail
        degrees.append(_space_degree(n, k, d))
    lower = 1 + max(degrees)
    denom = math.comb(n - d, k - d)
    upper = exact_dirac_threshold(n, k, d).m_value if math.comb(n, k) <= _SWEEP_CAP else None
    return SandwichReport(
        n=n,
        k=k,
        d=d,
        lower_bound=lower,
        upper_bound=upper,
        ratio=Fraction(upper, denom) if upper is not None else None,
        lower_ratio=Fraction(lower, denom),
        exact_available=upper is not None,
    )
