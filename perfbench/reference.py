"""Independent reference for checking cycleint's outputs.

Everything here is written from the definitions with ``itertools`` and
``math`` alone and imports nothing from cycleint, so a fault shared by the
program and its own self-checks cannot hide behind it. Permutations are
one-line image tuples of 1..n; vertex ``k`` of an intersection graph is the
``k``-th permutation of ``itertools.permutations(range(1, n + 1))``, which is
lexicographic order.

The ``check_*`` functions return a list of problems, empty when the output
is right, so that a caller can report every problem it found.
"""

from __future__ import annotations

import itertools
import math


def canonical_cycles(image) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation, 1-cycles included.

    Each cycle starts at its smallest point and the cycles are ordered by
    that point, so equal permutations give equal tuples.
    """
    n = len(image)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        # every point below ``start`` is already placed, so ``start`` is the
        # smallest point of its cycle
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = image[x - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def shares_t_cycles(a, b, t: int) -> bool:
    """Whether two permutations have at least ``t`` cycles in common."""
    return len(set(canonical_cycles(a)) & set(canonical_cycles(b))) >= t


def fixed_points(image) -> frozenset[int]:
    return frozenset(x for x in range(1, len(image) + 1) if image[x - 1] == x)


def stabilizer(points, n: int) -> frozenset[tuple[int, ...]]:
    """Every permutation of [n] that fixes each of ``points``."""
    points = frozenset(points)
    return frozenset(p for p in itertools.permutations(range(1, n + 1))
                     if all(p[x - 1] == x for x in points))


def window_family_count(n: int, t: int, i: int) -> int:
    """|F_i|: permutations of [n] fixing at least t+i of the points 1..t+2i."""
    window = range(1, t + 2 * i + 1)
    return sum(1 for p in itertools.permutations(range(1, n + 1))
               if sum(p[x - 1] == x for x in window) >= t + i)


def intersection_edges(n: int, t: int) -> frozenset[tuple[int, int]]:
    """Edges (u, v), u < v, of the t-cycle-intersection graph on S_n."""
    cycle_sets = [frozenset(canonical_cycles(p))
                  for p in itertools.permutations(range(1, n + 1))]
    return frozenset((u, v) for u, v in itertools.combinations(range(len(cycle_sets)), 2)
                     if len(cycle_sets[u] & cycle_sets[v]) >= t)


def check_intersecting_family(family, n: int, t: int) -> list[str]:
    """A family is valid when its members are distinct permutations of [n],
    every two of them share at least t cycles, and it holds at most (n-t)!
    members, the proven maximum for n >= 2t+1."""
    members = [tuple(p) for p in family]
    problems = []
    if len(set(members)) != len(members):
        problems.append("family repeats a member")
    limit = math.factorial(n - t)
    if len(members) > limit:
        problems.append(f"family has {len(members)} members, more than (n-t)! = {limit}")
    identity = tuple(range(1, n + 1))
    for p in members:
        if tuple(sorted(p)) != identity:
            problems.append(f"{list(p)} is not a permutation of [{n}]")
            return problems
    cycle_sets = [frozenset(canonical_cycles(p)) for p in members]
    for u, v in itertools.combinations(range(len(members)), 2):
        if len(cycle_sets[u] & cycle_sets[v]) < t:
            problems.append(f"{list(members[u])} and {list(members[v])} "
                            f"share fewer than {t} cycles")
            break
    return problems


def check_stabilizer_witnesses(witnesses, n: int, t: int) -> list[str]:
    """The maximum families at n >= 2t+1 are exactly the C(n,t) stabilizers of
    t points: each witness must equal the stabilizer of the points all its
    members fix, those points must number t, and no two witnesses may
    stabilize the same points."""
    problems = []
    expected = math.comb(n, t)
    if len(witnesses) != expected:
        problems.append(f"{len(witnesses)} witnesses, expected C({n},{t}) = {expected}")
    seen = set()
    for k, family in enumerate(witnesses):
        members = frozenset(tuple(p) for p in family)
        if not members:
            problems.append(f"witness {k} is empty")
            continue
        common = frozenset.intersection(*(fixed_points(p) for p in members))
        if len(common) != t:
            problems.append(f"witness {k}: its members share fixed points "
                            f"{sorted(common)}, not exactly {t}")
            continue
        if members != stabilizer(common, n):
            problems.append(f"witness {k} is not the stabilizer of {sorted(common)}")
        if common in seen:
            problems.append(f"witness {k} repeats the stabilizer of {sorted(common)}")
        seen.add(common)
    return problems


def check_edge_list(lines, n: int, t: int,
                    edges: frozenset[tuple[int, int]] | None = None) -> list[str]:
    """A DIMACS-like edge list ``p edge V E`` followed by ``e u v`` lines must
    give the reference's vertex count, edge count and edge set."""
    if edges is None:
        edges = intersection_edges(n, t)
    lines = [line.split() for line in lines if line.strip()]
    problems = []
    want_header = ["p", "edge", str(math.factorial(n)), str(len(edges))]
    if not lines or lines[0] != want_header:
        problems.append(f"header {' '.join(lines[0]) if lines else '(none)'!r}, "
                        f"expected {' '.join(want_header)!r}")
    body = lines[1:]
    if len(body) != len(edges):
        problems.append(f"{len(body)} edge lines, expected {len(edges)}")
    try:
        listed = {(int(u), int(v)) for tag, u, v in body if tag == "e"}
    except ValueError:
        return problems + ["malformed edge line"]
    if len(listed) != len(body):
        problems.append("edge lines are repeated or not of the form 'e u v'")
    if listed != edges:
        problems.append(f"{len(listed - edges)} listed pairs are not edges and "
                        f"{len(edges - listed)} edges are missing")
    return problems
