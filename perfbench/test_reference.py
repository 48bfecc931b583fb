"""Tests of the independent reference checker.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
Expected values come from hand counts or closed forms, never from cycleint.
"""

import itertools
import math

import reference


def stabilizers(n, t):
    """The C(n,t) point stabilizers, each as a list of one-line images."""
    everything = list(itertools.permutations(range(1, n + 1)))
    return [[p for p in everything if all(p[x - 1] == x for x in points)]
            for points in itertools.combinations(range(1, n + 1), t)]


def test_canonical_cycles_start_at_their_smallest_point():
    assert reference.canonical_cycles((2, 3, 1, 5, 4)) == ((1, 2, 3), (4, 5))
    assert reference.canonical_cycles((3, 1, 2)) == ((1, 3, 2),)
    assert reference.canonical_cycles((1, 2)) == ((1,), (2,))


def test_shared_cycles_count_fixed_points_and_longer_cycles():
    # (1 2)(3)(4) and (1 2)(3 4) share only the 2-cycle
    assert reference.shares_t_cycles((2, 1, 3, 4), (2, 1, 4, 3), 1)
    assert not reference.shares_t_cycles((2, 1, 3, 4), (2, 1, 4, 3), 2)
    # the identity shares its fixed points with any transposition
    assert reference.shares_t_cycles((1, 2, 3, 4), (2, 1, 3, 4), 2)


def test_window_counts_match_hand_counts_and_closed_form():
    assert reference.window_family_count(7, 3, 0) == math.factorial(4)
    # fix all of 1..5 (2 ways) or exactly four of them (5 * 4 ways)
    assert reference.window_family_count(7, 3, 1) == 22
    for t in (3, 4):   # |F_1| = (t-2)! (t^2 - 3) at n = 2t
        assert reference.window_family_count(2 * t, t, 1) == \
            math.factorial(t - 2) * (t * t - 3)


def test_edge_count_matches_hand_count():
    # S_3, t = 1: the identity meets the three transpositions, and two
    # transpositions never share a cycle
    assert len(reference.intersection_edges(3, 1)) == 3


def test_accepts_the_stabilizers():
    for n, t in ((4, 1), (5, 2)):
        assert reference.check_stabilizer_witnesses(stabilizers(n, t), n, t) == []


def test_rejects_a_missing_family():
    witnesses = stabilizers(5, 2)[1:]
    problems = reference.check_stabilizer_witnesses(witnesses, 5, 2)
    assert any("expected C(5,2) = 10" in p for p in problems)


def test_rejects_a_non_stabilizer_witness():
    witnesses = stabilizers(5, 2)
    # swap one member of the stabilizer of {1, 2} for a permutation that
    # moves 2; the family keeps its size but is no longer a stabilizer
    witnesses[0] = witnesses[0][:-1] + [(1, 3, 2, 4, 5)]
    problems = reference.check_stabilizer_witnesses(witnesses, 5, 2)
    assert problems and "witness 0" in problems[0]


def test_rejects_a_repeated_stabilizer():
    witnesses = stabilizers(4, 1)
    witnesses[1] = witnesses[0]
    problems = reference.check_stabilizer_witnesses(witnesses, 4, 1)
    assert any("repeats" in p for p in problems)


def edge_list(n, t):
    edges = sorted(reference.intersection_edges(n, t))
    return [f"p edge {math.factorial(n)} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]


def test_accepts_the_edge_list():
    assert reference.check_edge_list(edge_list(4, 1), 4, 1) == []


def test_rejects_a_wrong_edge_count():
    lines = edge_list(4, 1)
    edges = len(lines) - 1
    lines[0] = f"p edge 24 {edges + 1}"
    assert any("header" in p for p in reference.check_edge_list(lines, 4, 1))
    problems = reference.check_edge_list(edge_list(4, 1)[:-1], 4, 1)
    assert any(f"{edges - 1} edge lines, expected {edges}" in p for p in problems)


def test_rejects_a_non_edge():
    lines = edge_list(4, 2)
    lines[-1] = "e 0 23"   # the identity and (1 4)(2 3) share no cycle
    problems = reference.check_edge_list(lines, 4, 2)
    assert any("not edges" in p for p in problems)


def test_intersecting_family_check():
    stab = stabilizers(5, 1)[0]
    assert reference.check_intersecting_family(stab, 5, 1) == []
    # (1 2)(3) and (1 2 3) share no cycle
    assert reference.check_intersecting_family([(2, 1, 3), (2, 3, 1)], 3, 1)
    # 24 members is more than (5-2)! = 6
    assert any("more than" in p for p in reference.check_intersecting_family(stab, 5, 2))
