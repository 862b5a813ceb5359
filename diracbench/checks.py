"""Output checks for the benchmark, written apart from diraclab.

Nothing here imports diraclab. Graphs are plain ``(n, k, edges)`` data with
edges as vertex tuples; each check returns ``None`` when the output is right
and a one-line reason when it is not. The algorithms differ on purpose from
the program's: the perfect-matching decider is an exact-cover search with a
memo of dead covered-vertex masks, degrees are counted per edge instead of
per vertex set, and barriers are checked against their definitions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

DECIDER_MAX_N = 21
BRUTE_DENSITY_MAX_EDGES = 24


def _canon(edges):
    return [tuple(sorted(e)) for e in edges]


def check_matching(n, host_edges, matching, perfect=False):
    """Plain-set check: host edges only, pairwise disjoint, optionally
    covering every vertex 0..n-1."""
    host = set(_canon(host_edges))
    seen = set()
    for e in _canon(matching):
        if e not in host:
            return f"matching edge {e} is not a host edge"
        for v in e:
            if v in seen:
                return f"vertex {v} is covered twice"
            seen.add(v)
    if perfect and seen != set(range(n)):
        return f"{n - len(seen)} vertices left uncovered"
    return None


def decide_perfect_matching(n, k, edges):
    """Exact-cover decider: a perfect matching as a list of edges, or None.

    Branches on the lowest uncovered vertex, which can only be covered by an
    edge whose least vertex it is, and remembers every covered mask already
    shown to lead nowhere.
    """
    if n > DECIDER_MAX_N:
        raise ValueError(f"decider is limited to n <= {DECIDER_MAX_N}, got {n}")
    if n % k:
        return None
    by_low = [[] for _ in range(n)]
    for e in set(_canon(edges)):
        mask = 0
        for v in e:
            mask |= 1 << v
        by_low[e[0]].append((mask, e))
    full = (1 << n) - 1
    dead = set()
    chosen = []

    def solve(covered):
        if covered == full:
            return True
        if covered in dead:
            return False
        low = (~covered & (covered + 1)).bit_length() - 1
        for mask, e in by_low[low]:
            if not mask & covered:
                chosen.append(e)
                if solve(covered | mask):
                    return True
                chosen.pop()
        dead.add(covered)
        return False

    return list(chosen) if solve(0) else None


def degree_counts(edges, d):
    """Degree of every d-set that lies in at least one edge."""
    counts = Counter()
    for e in _canon(edges):
        counts.update(combinations(e, d))
    return counts


def min_degree(n, edges, d):
    """Minimum d-degree over all d-subsets of 0..n-1."""
    counts = degree_counts(edges, d)
    return min(counts.get(S, 0) for S in combinations(range(n), d))


# ---------------------------------------------------------------------------
# Barriers, from their definitions
# ---------------------------------------------------------------------------

def space_barrier_edges(n, k):
    """Every k-set meeting S = {0, .., n/k - 2}."""
    S = set(range(n // k - 1))
    return [e for e in combinations(range(n), k) if S.intersection(e)]


def parity_barrier_edges(n, k, a):
    """Every k-set meeting A = {0, .., a-1} in an even number of vertices."""
    A = set(range(a))
    return [e for e in combinations(range(n), k) if len(A.intersection(e)) % 2 == 0]


def parity_sizes(n):
    """Odd sizes of A next to n/2 that the parity construction may use."""
    half = n // 2
    return [half] if half % 2 else [half - 1, half + 1]


def check_space_certificate(n, k, edges):
    """Every edge meets S with |S| = n/k - 1, and the edge count is
    C(n,k) - C(n-|S|,k); then any matching has at most |S| < n/k edges."""
    if n % k:
        return f"k={k} does not divide n={n}"
    s = n // k - 1
    S = set(range(s))
    canon = set(_canon(edges))
    if len(canon) != len(edges):
        return "repeated edge"
    for e in canon:
        if len(e) != k or not all(0 <= v < n for v in e):
            return f"edge {e} is not a {k}-set of 0..{n - 1}"
        if not S.intersection(e):
            return f"edge {e} misses S"
    want = comb(n, k) - comb(n - s, k)
    if len(canon) != want:
        return f"{len(canon)} edges, closed form gives {want}"
    return None


def check_parity_certificate(n, k, edges):
    """Some odd A of the allowed sizes meets every edge evenly, and the edge
    count is the sum over even j of C(|A|,j) C(n-|A|,k-j); then a perfect
    matching would split the odd |A| into even parts."""
    canon = set(_canon(edges))
    if len(canon) != len(edges):
        return "repeated edge"
    for e in canon:
        if len(e) != k or not all(0 <= v < n for v in e):
            return f"edge {e} is not a {k}-set of 0..{n - 1}"
    for a in parity_sizes(n):
        A = set(range(a))
        if any(len(A.intersection(e)) % 2 for e in canon):
            continue
        want = sum(comb(a, j) * comb(n - a, k - j) for j in range(0, k + 1, 2))
        if len(canon) == want:
            return None
    return "no odd set of the allowed sizes meets every edge evenly with the closed-form count"


def best_barrier_degree(n, k, d):
    """Largest minimum d-degree among the space and parity barriers."""
    options = [min_degree(n, parity_barrier_edges(n, k, a), d) for a in parity_sizes(n)]
    if n % k == 0 and n >= 2 * k:
        options.append(min_degree(n, space_barrier_edges(n, k), d))
    return max(options)


# ---------------------------------------------------------------------------
# k-density
# ---------------------------------------------------------------------------

def density_of(edges, k):
    """(e'-1)/(v'-k) for one edge subset with more than k vertices."""
    v = len({u for e in edges for u in e})
    if len(edges) < 2 or v <= k:
        return None
    return Fraction(len(edges) - 1, v - k)


def brute_density(edges, k):
    """Maximum of (e'-1)/(v'-k) over every edge subset, for at most 24 edges."""
    edges = _canon(edges)
    m = len(edges)
    if m > BRUTE_DENSITY_MAX_EDGES:
        raise ValueError(f"brute force is limited to {BRUTE_DENSITY_MAX_EDGES} edges, got {m}")
    best = Fraction(0)
    vsets = [set(e) for e in edges]

    def walk(i, count, verts):
        nonlocal best
        if count >= 2:
            val = Fraction(count - 1, len(verts) - k)
            if val > best:
                best = val
        for j in range(i, m):
            walk(j + 1, count + 1, verts | vsets[j])

    walk(0, 0, frozenset())
    return best


def density_ceiling(k, K):
    """Criterion-5 ceiling on the k-density of a contracted K-sparse absorber."""
    return (Fraction(k * (k + 1), K * (k - 1) - k) + 2) / k


def check_density(edges, k, K, value, witness):
    """Witness lies in the graph and recounts to the value, the value stays
    under the ceiling, and matches brute force when the graph is small."""
    value = Fraction(value)
    graph = set(_canon(edges))
    if witness is None:
        if len(graph) >= 2:
            return "no witness for a graph with two or more edges"
        recount = Fraction(0)
    else:
        wit = _canon(witness)
        if len(set(wit)) != len(wit) or not set(wit) <= graph:
            return "witness is not a set of graph edges"
        recount = density_of(wit, k)
        if recount is None:
            return "witness spans at most k vertices"
    if recount != value:
        return f"witness recounts to {recount}, reported {value}"
    if value > density_ceiling(k, K):
        return f"density {value} exceeds the ceiling {density_ceiling(k, K)}"
    if len(graph) <= BRUTE_DENSITY_MAX_EDGES:
        brute = brute_density(graph, k)
        if brute != value:
            return f"brute force gives {brute}, reported {value}"
    return None


def check_linear(edges):
    """No two edges share two vertices (Berge girth at least 3)."""
    sets = [set(e) for e in edges]
    for a, b in combinations(range(len(sets)), 2):
        if len(sets[a] & sets[b]) >= 2:
            return f"edges {sorted(sets[a])} and {sorted(sets[b])} share two vertices"
    return None


# ---------------------------------------------------------------------------
# Absorbers and degradation
# ---------------------------------------------------------------------------

def check_absorber(roots, covering, noncovering, is_edge):
    """Two edge-disjoint matchings of host edges: the covering one spans a
    vertex set V containing the roots, the other spans exactly V - roots."""
    covering, noncovering = _canon(covering), _canon(noncovering)
    if not covering:
        return "covering matching is empty"
    if len(set(roots)) != len(roots):
        return "repeated root"
    for e in covering + noncovering:
        if not is_edge(e):
            return f"absorber edge {e} is not a host edge"
    if set(covering) & set(noncovering):
        return "an edge lies in both matchings"
    spans = []
    for part in (covering, noncovering):
        verts = [v for e in part for v in e]
        if len(verts) != len(set(verts)):
            return "a matching repeats a vertex"
        spans.append(set(verts))
    V, rest = spans
    if not set(roots) <= V:
        return "a root is not covered"
    if rest != V - set(roots):
        return "noncovering matching does not span exactly the non-roots"
    return None


def check_degradation(n, host_edges, survivor_edges, d, target):
    """The survivor is a subgraph of the host that keeps every d-degree at
    or above the target and is maximal: each surviving edge has a d-subset
    of degree exactly the target, so no further deletion is allowed."""
    host = set(_canon(host_edges))
    survivor = _canon(survivor_edges)
    if len(set(survivor)) != len(survivor) or not set(survivor) <= host:
        return "survivor is not a subgraph of the host"
    counts = degree_counts(survivor, d)
    low = min(counts.get(S, 0) for S in combinations(range(n), d))
    if low < target:
        return f"minimum {d}-degree {low} is below the floor {target}"
    for e in survivor:
        if all(counts[S] > target for S in combinations(e, d)):
            return f"edge {e} could still be deleted"
    return None
