"""Exhaustive maximum-family search and the verification harnesses.

The search is exact branch-and-bound maximum clique on the intersection
graph: candidates live in big-int bitsets, branching follows a static
degeneracy order, and a greedy coloring of each candidate set supplies the
upper bound. In enumerate-all mode pruning keeps branches that can still tie
the incumbent, so the returned witness list is complete and duplicate-free.

The naive oracle enumerates every t-cycle-intersecting family by direct
recursion over lexicographically ordered permutations with no graph, bitsets,
bounds, or ordering heuristics; it shares nothing with the solver but the
pair predicate.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass

from . import config
from .extremal import (f_family, f_family_size, quad_inequality_check,
                       stabilizer_family)
from .gensets import (derive_star_generating_set, fix_system, is_disjoint_union,
                      is_generating_set, is_t_intersecting_system)
from .intersect import (IntersectionGraph, PermFamily, _sn_table,
                        build_intersection_graph,
                        is_family_t_cycle_intersecting, is_maximal,
                        is_stabilizer_of_points, is_t_cycle_intersecting_pair,
                        maximalize, stabilized_points)
from .perm import all_permutations, unrank
from .report import HYPOTHESIS_NOT_MET, PASS, VerificationReport
from .transform import (compress_closure, fix_closure, is_compressed_family,
                        is_fixed_family, stabilizer_pullback_check)

SIZE_ONLY = "size-only"
ENUMERATE_ALL = "enumerate-all"


@dataclass
class CliqueSearchResult:
    """Exact maximum-family answer with witnesses and search statistics."""

    n: int
    t: int
    mode: str
    max_size: int
    witnesses: tuple[PermFamily, ...]
    complete: bool
    nodes: int = 0
    cutoffs: int = 0
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "t": self.t, "mode": self.mode,
            "max_size": self.max_size, "complete": self.complete,
            "witnesses": [w.to_json_dict()["perms"] for w in self.witnesses],
            "stats": {"nodes": self.nodes, "cutoffs": self.cutoffs,
                      "elapsed_seconds": round(self.elapsed, 6)},
        }


class BudgetExceeded(Exception):
    pass


def _degeneracy_order(adj: tuple[int, ...]) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties broken by rank."""
    m = len(adj)
    degree = [adj[v].bit_count() for v in range(m)]
    removed = [False] * m
    heap = [(degree[v], v) for v in range(m)]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue
        removed[v] = True
        order.append(v)
        row = adj[v]
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return order


class _CliqueSearch:
    def __init__(self, graph: IntersectionGraph, enumerate_all: bool,
                 deadline: float | None):
        self.adj = graph.adj
        self.enumerate_all = enumerate_all
        self.deadline = deadline
        self.best = 0
        self.cliques: list[tuple[int, ...]] = []
        self.nodes = 0
        self.cutoffs = 0
        self.scan_order = _degeneracy_order(graph.adj)

    def run(self) -> None:
        full = (1 << len(self.adj)) - 1
        if full:
            self._expand([], full)

    def _color_sort(self, cand: int) -> tuple[list[int], list[int]]:
        """Greedy coloring in static order; vertices returned by ascending
        color class, so suffix positions carry the largest bounds."""
        class_bits: list[int] = []
        class_members: list[list[int]] = []
        for v in self.scan_order:
            if not (cand >> v) & 1:
                continue
            row = self.adj[v]
            for k in range(len(class_bits)):
                if not class_bits[k] & row:
                    class_bits[k] |= 1 << v
                    class_members[k].append(v)
                    break
            else:
                class_bits.append(1 << v)
                class_members.append([v])
        order: list[int] = []
        colors: list[int] = []
        # reversed within each class so the suffix-first branching below
        # visits equal-bound candidates in scan order (lowest rank first)
        for number, members in enumerate(class_members, start=1):
            for v in reversed(members):
                order.append(v)
                colors.append(number)
        return order, colors

    def _record(self, clique: list[int]) -> None:
        size = len(clique)
        if size > self.best:
            self.best = size
            self.cliques = [tuple(clique)]
        elif size == self.best and self.enumerate_all:
            self.cliques.append(tuple(clique))

    def _expand(self, chosen: list[int], cand: int) -> None:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded
        order, colors = self._color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            bound = len(chosen) + colors[idx]
            if bound < self.best or (bound == self.best and not self.enumerate_all):
                self.cutoffs += 1
                return
            v = order[idx]
            newcand = cand & self.adj[v]
            chosen.append(v)
            if newcand:
                self._expand(chosen, newcand)
            else:
                self._record(chosen)
            chosen.pop()
            cand &= ~(1 << v)


def max_family_search(n: int, t: int, mode: str = SIZE_ONLY,
                      time_budget: float | None = None,
                      cap: int | None = None,
                      graph: IntersectionGraph | None = None) -> CliqueSearchResult:
    """Exact maximum t-cycle-intersecting family size over S_n.

    Degrees up to the search cap run unconditionally; one degree above the
    cap is admitted only with a time budget. A budget expiry returns the best
    clique found so far with ``complete=False``, never a silent truncation.
    """
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValueError(f"unknown mode {mode!r}")
    limit = config.search_cap(cap)
    if n > limit + 1:
        raise ValueError(f"degree {n} exceeds search cap {limit}")
    if n == limit + 1 and time_budget is None:
        raise ValueError(
            f"degree {n} is above the search cap {limit}; supply a time budget")
    start = time.monotonic()
    if graph is None:
        # the search cap already authorized this degree, so let the graph build
        graph = build_intersection_graph(n, t, cap=n)
    elif (graph.n, graph.t) != (n, t):
        raise ValueError("supplied graph does not match (n, t)")
    deadline = None if time_budget is None else start + time_budget
    search = _CliqueSearch(graph, mode == ENUMERATE_ALL, deadline)
    complete = True
    try:
        search.run()
    except BudgetExceeded:
        complete = False
    witnesses = sorted(
        {PermFamily(n, (graph.perms[v] for v in clique)) for clique in search.cliques},
        key=lambda fam: tuple(p.image for p in fam))
    return CliqueSearchResult(
        n=n, t=t, mode=mode, max_size=search.best, witnesses=tuple(witnesses),
        complete=complete, nodes=search.nodes, cutoffs=search.cutoffs,
        elapsed=time.monotonic() - start)


def naive_max_family_size(n: int, t: int) -> int:
    """Independent brute-force oracle: recursion over the family lattice."""
    perms = list(all_permutations(n))
    best = 0

    def extend(size: int, candidates: list[int]) -> None:
        nonlocal best
        if size > best:
            best = size
        for pos, v in enumerate(candidates):
            compatible = [u for u in candidates[pos + 1:]
                          if is_t_cycle_intersecting_pair(perms[v], perms[u], t)]
            extend(size + 1, compatible)

    extend(0, list(range(len(perms))))
    return best


def conjugacy_representatives(witnesses, n: int) -> list[PermFamily]:
    """Canonical representative of each conjugacy class of witness families;
    refuses degrees beyond the enumeration cap."""
    # g . sigma . g^-1 maps y to g(sigma(g^-1(y))); each g is paired with
    # the 0-based positions of g^-1(1), ..., g^-1(n)
    group = [(g.image, sorted(range(n), key=g.image.__getitem__))
             for g in _sn_table(n).perms]

    def canonical_key(family: PermFamily):
        return min(tuple(sorted(tuple(g[p.image[x] - 1] for x in g_inv) for p in family))
                   for g, g_inv in group)

    seen: dict = {}
    for family in witnesses:
        seen.setdefault(canonical_key(family), family)
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def verify_max_bound(n: int, t: int, time_budget: float | None = None,
                     cap: int | None = None) -> VerificationReport:
    """For n >= 2t+1: the maximum family size is (n-t)! and the maximum
    families are exactly the stabilizers of t points."""
    rep = VerificationReport("theorem14")
    params = {"n": n, "t": t}
    if n < 2 * t + 1:
        rep.add("hypothesis-n-at-least-2t-plus-1", params, HYPOTHESIS_NOT_MET,
                detail=f"n={n} < 2t+1={2 * t + 1}; informational search still runnable")
        return rep
    rep.add("hypothesis-n-at-least-2t-plus-1", params, PASS)
    result = max_family_search(n, t, mode=ENUMERATE_ALL,
                               time_budget=time_budget, cap=cap)
    rep.stats["search"] = {"nodes": result.nodes, "elapsed": result.elapsed,
                           "complete": result.complete}
    expected = math.factorial(n - t)
    sizes = {"expected": expected, "got": result.max_size}
    if result.complete or result.max_size > expected:
        rep.add_bool("max-size-equals-(n-t)!", params, result.max_size == expected,
                     witness=sizes)
    else:  # an expired search proves only a lower bound
        rep.add("max-size-equals-(n-t)!", params, HYPOTHESIS_NOT_MET, witness=sizes,
                detail="budget expired; not assessed")
    if not result.complete:
        rep.add("witness-enumeration-complete", params, HYPOTHESIS_NOT_MET,
                detail="budget expired; structural claims not assessed")
        return rep
    offenders = [w for w in result.witnesses if not is_stabilizer_of_points(w, t)]
    rep.add_bool("every-maximum-family-is-a-t-point-stabilizer", params,
                 not offenders,
                 witness=offenders[0].to_json_dict() if offenders else None)
    expected_count = math.comb(n, t)
    rep.add_bool("maximum-family-count-is-C(n,t)", params,
                 len(result.witnesses) == expected_count,
                 witness={"expected": expected_count, "got": len(result.witnesses)})
    mismatched = [w for w in result.witnesses
                  if w != stabilizer_family(stabilized_points(w)[:t], n)]
    rep.add_bool("witnesses-equal-their-point-stabilizers", params,
                 not mismatched,
                 witness=mismatched[0].to_json_dict() if mismatched else None)
    return rep


def verify_counterexample_regime(n: int, t: int) -> VerificationReport:
    """For t+3 <= n < 2t+1 the window family F_1 matches or beats the
    stabilizer, strictly except at the documented t = 3 boundary."""
    if not t + 3 <= n < 2 * t + 1:
        raise ValueError(f"need t+3 <= n < 2t+1, got (n={n}, t={t})")
    rep = VerificationReport("counterexample")
    params = {"n": n, "t": t}
    f0 = math.factorial(n - t)
    f1 = f_family_size(n, t, 1)
    rep.stats["sizes"] = {"F0": f0, "F1": f1}
    if n <= config.enumeration_cap():
        enumerated = len(f_family(n, t, 1))
        rep.add_bool("counting-mode-matches-enumeration", params, enumerated == f1,
                     witness={"enumerated": enumerated, "counted": f1})
    if t == 3:
        rep.add_bool("F1-equals-F0-at-the-t-3-boundary", params, f1 == f0,
                     witness={"F0": f0, "F1": f1},
                     detail="documented boundary equality")
    else:
        rep.add_bool("F1-strictly-larger-than-F0", params, f1 > f0,
                     witness={"F0": f0, "F1": f1})
    return rep


def pipeline_roundtrip(n: int, t: int, trials: int, seed: int,
                       cap: int | None = None) -> VerificationReport:
    """Seeded maximalize -> fix-closure -> compress-closure trials.

    Each trial checks size preservation, t-cycle-intersection, fixedness,
    compressedness, that Fix(output) and its left-shift-minimal refinement
    generate the output and are pairwise t-intersecting set systems, that the
    prefix-fix classes of the refinement partition the output, and the
    stabilizer pullback. Failures are recorded with replayable witnesses.
    """
    rep = VerificationReport("pipeline")
    rng = random.Random(seed)
    order = math.factorial(n)
    checks = [
        "size-preserved-by-closures",
        "output-t-cycle-intersecting",
        "output-fixed",
        "output-compressed",
        "fix-system-is-generating-set",
        "generating-systems-pairwise-t-intersecting",
        "disjoint-union-decomposition",
        "stabilizer-pullback",
    ]
    failures: dict[str, dict] = {}
    maximality_preserved = 0
    stabilizer_outputs = 0
    for trial in range(trials):
        seed_perm = unrank(n, rng.randrange(order))
        start = maximalize(PermFamily(n, [seed_perm]), t, cap)
        fixed, _ = fix_closure(start)
        compressed, _ = compress_closure(fixed)
        fixsys = fix_system(compressed)
        star = derive_star_generating_set(compressed)
        outcome = {
            "size-preserved-by-closures":
                len(start) == len(fixed) == len(compressed),
            "output-t-cycle-intersecting":
                is_family_t_cycle_intersecting(compressed, t),
            "output-fixed": is_fixed_family(compressed),
            "output-compressed": is_compressed_family(compressed),
            "fix-system-is-generating-set":
                is_generating_set(fixsys, compressed),
            "generating-systems-pairwise-t-intersecting":
                is_t_intersecting_system(fixsys, t)
                and is_t_intersecting_system(star, t),
            "disjoint-union-decomposition":
                is_generating_set(star, compressed)
                and bool(is_disjoint_union(compressed, star, cap)),
            "stabilizer-pullback":
                stabilizer_pullback_check(start, compressed, t),
        }
        if is_stabilizer_of_points(compressed, t):
            stabilizer_outputs += 1
        if is_maximal(compressed, t, cap):
            maximality_preserved += 1
        for name, ok in outcome.items():
            if not ok and name not in failures:
                failures[name] = {"trial": trial,
                                  "seed_perm": list(seed_perm.image),
                                  "output": compressed.to_json_dict()}
    params = {"n": n, "t": t, "trials": trials, "seed": seed}
    for name in checks:
        rep.add_bool(name, params, name not in failures, witness=failures.get(name))
    rep.stats["maximality_preserved"] = maximality_preserved
    rep.stats["stabilizer_outputs"] = stabilizer_outputs
    return rep


def verify_surgery_instances(cap: int | None = None) -> VerificationReport:
    """The documented surgery demonstration: on the system of all 4-subsets
    of [5] with t = 3 the rebuilt family is strictly larger at n = 7 and only
    ties at n = 6."""
    import itertools

    from .gensets import SetSystem, generating_set_surgery

    rep = VerificationReport("surgery")
    for n, expect_gain in ((7, True), (6, False)):
        system = SetSystem(n, itertools.combinations(range(1, 6), 4))
        result = generating_set_surgery(system, 3, 4, cap)
        params = {"n": n, "t": 3, "size_class": 4}
        rep.add_bool("surgery-candidate-t-intersecting", params,
                     all(result.candidate_t_intersecting.values()),
                     witness=result.candidate_t_intersecting)
        rep.add_bool("surgery-pigeonhole-bound", params,
                     bool(result.pigeonhole_ok))
        rep.add_bool("surgery-strict-gain" if expect_gain else "surgery-no-gain",
                     params, result.strict_gain == expect_gain,
                     witness={"base": result.base_size, "best": result.best_size})
    return rep


def run_suite_all(n_max: int, seed: int,
                  cap: int | None = None) -> VerificationReport:
    """Every lemma check at tiny scale; the repository's acceptance gate."""
    import itertools

    from .gensets import (fix_prefix_family, fix_prefix_count,
                          reduced_fix_prefix_family)

    rep = VerificationReport("all")
    for t in range(1, n_max + 1):
        for n in range(2 * t + 1, n_max + 1):
            rep.extend(verify_max_bound(n, t, cap=cap))
    for n in range(3, min(n_max, 4) + 1):
        for t in range(1, n + 1):
            bb = max_family_search(n, t, cap=cap)
            rep.add_bool("branch-and-bound-matches-naive-oracle",
                         {"n": n, "t": t},
                         bb.max_size == naive_max_family_size(n, t),
                         witness={"branch_and_bound": bb.max_size})
    for t in range(1, 13):
        check = quad_inequality_check(2 * t + 1, t)
        rep.add_bool("quadratic-holds-at-2t-plus-1", {"t": t}, check.ok,
                     witness=check.to_json_dict() if not check.ok else None)
    formula_n = min(n_max, 5)
    bad_counts = []
    bad_bounds = []
    for r in range(1, formula_n + 1):
        for pattern in itertools.combinations(range(1, formula_n + 1), r):
            enumerated = len(fix_prefix_family(pattern, formula_n, cap))
            if enumerated != fix_prefix_count(formula_n, len(pattern), max(pattern)):
                bad_counts.append(list(pattern))
            reduced = len(reduced_fix_prefix_family(pattern, formula_n, cap))
            if reduced < (formula_n - len(pattern) + 1) * enumerated:
                bad_bounds.append(list(pattern))
    rep.add_bool("prefix-fix-counts-match-formula", {"n": formula_n},
                 not bad_counts, witness=bad_counts or None)
    rep.add_bool("reduced-class-lower-bound", {"n": formula_n},
                 not bad_bounds, witness=bad_bounds or None)
    t_pipeline = 2 if n_max >= 5 else 1
    rep.extend(pipeline_roundtrip(min(n_max, 5), t_pipeline, trials=25,
                                  seed=seed, cap=cap))
    return rep
