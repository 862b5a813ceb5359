"""The exact-cover kernel agrees with the kernel it replaced.

``untwinned_kernel`` holds a verbatim copy of ``_pm_searcher`` from before
twin columns (primary columns on the same edges) were collapsed. On seeded
inputs the two must return the same status, edge indices and nodes, and
leave the same dead memo, with the memo shared across starts as the
template checks share it.
"""

import random
from itertools import combinations

import untwinned_kernel as old

from diraclab.hypercore import mask_of
from diraclab.lab import sample_hk
from diraclab.matchpower import _pm_searcher
from diraclab.templates import build_resilient_template


def twin_class_sizes(edges, n):
    """Sizes of the classes of two or more primary columns on the same edges."""
    through = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            if v < n:
                through[v].append(i)
    classes = {}
    for v in range(n):
        classes.setdefault(tuple(through[v]), []).append(v)
    return sorted(len(c) for c in classes.values() if len(c) > 1)


def assert_agree(edges, n, starts, budget=None):
    """Both kernels from each start in turn, each with one memo shared
    across the starts; returns the statuses seen."""
    new_search, old_search = _pm_searcher(edges, n), old._pm_searcher(edges, n)
    new_dead, old_dead = set(), set()
    statuses = set()
    for start in starts:
        got = new_search(start, new_dead, budget)
        assert got == old_search(start, old_dead, budget)
        statuses.add(got[0])
    assert new_dead == old_dead
    return statuses


def test_twin_kernel_matches_on_sampled_hosts():
    # sparse hosts leave vertices isolated, and all isolated vertices are
    # twins, on no edge at all
    rng = random.Random(26)
    statuses, isolated = set(), 0
    for n in (9, 12, 15, 18):
        for p in (0.02, 0.05, 0.3, 0.6):
            for seed in range(4):
                H = sample_hk(n, 3, p, seed=seed)
                isolated += sum(not inc for inc in H.incident) >= 2
                starts = [0] + [mask_of(rng.sample(range(n), rng.randint(1, n // 2))) for _ in range(6)]
                for budget in (None, 5, 50):
                    statuses |= assert_agree(H.edges, n, starts, budget)
    assert isolated >= 10
    assert statuses == {"perfect", "none", "partial"}


def test_twin_kernel_matches_on_layered_templates():
    # the lift's fresh-part copies of a vertex are on exactly its edges:
    # classes of k - 1 twins. Every start covering at most 3 vertices leaves
    # some classes partly covered, including a lowest twin
    for r, k in ((6, 3), (7, 4)):
        G = build_resilient_template(r, k, seed=0).T
        assert max(twin_class_sizes(G.edges, G.n)) == k - 1
        starts = [mask_of(W) for j in range(4) for W in combinations(range(G.n), j)]
        assert assert_agree(G.edges, G.n, starts) == {"perfect", "none"}


START_KINDS = ("empty", "vertices", "families", "both", "above")


def test_twin_kernel_matches_on_representative_rows():
    # rows as find_disjoint_representatives builds them: family f is primary
    # column f, so two empty families are twins. Besides the empty start,
    # starts cover vertices (secondary columns t + v), families (primary
    # columns, empty ones included), both, and a bit above the last column,
    # which the search ignores
    rng = random.Random(2026)
    statuses, empty_twins, seen = set(), 0, set()
    for _ in range(300):
        t, nv = rng.randint(1, 6), rng.randint(2, 8)
        pairs = list(combinations(range(nv), 2))
        families = [
            [] if rng.random() < 0.3 else sorted(rng.sample(pairs, rng.randint(1, min(5, len(pairs)))))
            for _ in range(t)
        ]
        rows = [(f,) + tuple(t + v for v in e) for f, fam in enumerate(families) for e in fam]
        empty_twins += sum(not fam for fam in families) >= 2
        vertices = mask_of(t + v for v in rng.sample(range(nv), rng.randint(1, nv)))
        fams = mask_of(rng.sample(range(t), rng.randint(1, t)))
        above = 1 << (t + nv + rng.randint(0, 3))
        starts = [0, vertices, fams, vertices | fams, above | vertices]
        for name, start in zip(START_KINDS, starts):
            seen |= {(name, status) for status in assert_agree(rows, t, [start])}
        statuses |= assert_agree(rows, t, starts)
    assert empty_twins >= 20
    assert statuses == {"perfect", "none"}
    assert seen == {(name, status) for name in START_KINDS for status in ("perfect", "none")}
