"""Each output check accepts a right answer and rejects a corrupted one.

    python3 -m pytest diracbench/test_checks.py -q
"""

from fractions import Fraction
from itertools import combinations

import checks

K6 = list(combinations(range(6), 3))


def test_matching_checker():
    pm = [(0, 1, 2), (3, 4, 5)]
    assert checks.check_matching(6, K6, pm, perfect=True) is None
    assert checks.check_matching(6, K6, [(0, 1, 2)], perfect=True)  # not perfect
    assert checks.check_matching(6, K6, [(0, 1, 2), (2, 3, 4)])  # overlap
    assert checks.check_matching(6, [(0, 1, 2)], pm)  # not a host edge


def test_decider():
    found = checks.decide_perfect_matching(6, 3, K6)
    assert checks.check_matching(6, K6, found, perfect=True) is None
    # two edges through vertex 0 and nothing else: no perfect matching
    assert checks.decide_perfect_matching(6, 3, [(0, 1, 2), (0, 3, 4)]) is None
    assert checks.decide_perfect_matching(7, 3, K6) is None  # 3 does not divide 7
    for n, k in ((9, 3), (12, 3), (8, 4)):
        assert checks.decide_perfect_matching(n, k, checks.space_barrier_edges(n, k)) is None
        for a in checks.parity_sizes(n):
            assert checks.decide_perfect_matching(n, k, checks.parity_barrier_edges(n, k, a)) is None


def test_min_degree():
    assert checks.min_degree(6, K6, 1) == 10
    assert checks.min_degree(6, K6, 2) == 4
    assert checks.min_degree(6, K6[1:], 2) == 3
    assert checks.min_degree(7, K6, 1) == 0  # vertex 6 is isolated


def test_space_certificate():
    edges = checks.space_barrier_edges(9, 3)
    assert checks.check_space_certificate(9, 3, edges) is None
    assert checks.check_space_certificate(9, 3, edges[1:])  # count off
    assert checks.check_space_certificate(9, 3, edges + [(6, 7, 8)])  # misses S
    assert checks.check_space_certificate(9, 3, edges + [edges[0]])  # repeated


def test_parity_certificate():
    edges = checks.parity_barrier_edges(12, 3, 5)
    assert checks.check_parity_certificate(12, 3, edges) is None
    assert checks.check_parity_certificate(12, 3, edges[1:])  # count off
    assert checks.check_parity_certificate(12, 3, edges + [(0, 5, 6)])  # odd meeting
    assert checks.check_parity_certificate(12, 3, checks.parity_barrier_edges(12, 3, 4))


def test_density_checks():
    # two triples sharing a vertex: (2-1)/(5-3) = 1/2
    graph = [(0, 1, 2), (2, 3, 4)]
    assert checks.brute_density(graph, 3) == Fraction(1, 2)
    assert checks.check_density(graph, 3, 4, Fraction(1, 2), graph) is None
    assert checks.check_density(graph, 3, 4, Fraction(2, 3), graph)  # recount differs
    assert checks.check_density(graph, 3, 4, Fraction(1, 2), [(0, 1, 5), (2, 3, 4)])
    # K4^3 has density (4-1)/(4-3) = 3, above the K=4 ceiling of 22/15
    k4 = list(combinations(range(4), 3))
    assert checks.brute_density(k4, 3) == 3
    assert checks.check_density(k4, 3, 4, 3, k4)
    assert checks.density_ceiling(3, 4) == Fraction(22, 15)


def test_linear_check():
    assert checks.check_linear([(0, 1, 2), (2, 3, 4)]) is None
    assert checks.check_linear([(0, 1, 2), (1, 2, 3)])


def test_absorber_check():
    is_edge = set(K6).__contains__
    roots = (0, 1, 2)
    cov, non = [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]
    assert checks.check_absorber(roots, cov, non, is_edge) is None
    assert checks.check_absorber(roots, [(0, 1, 2)], [], is_edge) is None  # trivial
    assert checks.check_absorber(roots, cov, [], is_edge)  # non-roots uncovered
    assert checks.check_absorber(roots, cov, [(3, 4, 5), (0, 1, 2)], is_edge)  # roots covered
    assert checks.check_absorber(roots, cov, non, lambda e: e != (3, 4, 5))  # not in host
    assert checks.check_absorber((0, 1, 2), [(0, 1, 3)], [], is_edge)  # root 2 missing


def test_degradation_check():
    host = K6
    # every pair of K6^3 has degree 4; dropping one edge leaves three pairs at 3
    survivor = K6[1:]
    assert checks.check_degradation(6, host, K6, 2, 4) is None  # nothing deletable
    assert checks.check_degradation(6, host, K6, 2, 3)  # K6 is not maximal at floor 3
    assert checks.check_degradation(6, host, survivor, 2, 4)  # below the floor
    assert checks.check_degradation(6, host[1:], K6, 2, 4)  # not a subgraph
