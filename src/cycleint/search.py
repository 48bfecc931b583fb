"""Exhaustive maximum-family search and the verification harnesses.

The search is exact branch-and-bound maximum clique on the intersection
graph, with candidates in big-int bitsets: one depth-first loop over an
explicit stack, with the bound chosen at the root. For t = 1 the left cosets
of the sharply 1-transitive group C_n are checked to be independent in the
graph; they then bound every clique by their number, and each node branches
on the coset with the fewest live candidates. Those per-coset counts travel
down the tree: each child copies its parent's and subtracts the candidates
its step removes, so no node recounts a coset. Elsewhere vertices are
renumbered in a degeneracy order reversed, so the dense core, removed last,
is numbered lowest and candidate sets below the root are narrow ints; a
greedy coloring of each candidate set, one class at a time on bitsets from
the highest vertex down (BBMC), gives the bound. Enumerate-all
pruning keeps branches that can tie the incumbent: the witness list is
complete and duplicate-free.

The naive oracle enumerates every t-cycle-intersecting family by direct
recursion over lexicographically ordered permutations with no graph, bitsets,
bounds, or ordering heuristics; it shares nothing with the solver but the
pair predicate.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

from . import config
from .extremal import (f_family, f_family_size, quad_inequality_check,
                       stabilizer_family)
from .gensets import (SetSystem, fix_prefix_count, fix_prefix_family,
                      fix_system, generating_set_surgery, is_disjoint_union,
                      is_generating_set, is_t_intersecting_system,
                      left_shift_minimals, reduced_fix_prefix_family)
from .intersect import (IntersectionGraph, PermFamily, _maximalize,
                        _neighbourhoods, _sn_table, build_intersection_graph,
                        is_stabilizer_of_points, is_t_cycle_intersecting_pair,
                        stabilized_points)
from .perm import all_permutations, parse_degree
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
    certificate: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "t": self.t, "mode": self.mode,
            "max_size": self.max_size, "complete": self.complete,
            "witnesses": [w.to_json_dict()["perms"] for w in self.witnesses],
            "stats": {"nodes": self.nodes, "cutoffs": self.cutoffs,
                      "elapsed_seconds": round(self.elapsed, 6),
                      "certificate": self.certificate},
        }


class BudgetExceeded(Exception):
    pass


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded


def _degeneracy_order(adj: tuple[int, ...], deadline: float | None) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties broken by rank.

    This is Matula and Beck's smallest-last order with a bucket queue: one
    bitset of vertices per degree and a minimum-degree pointer, which can fall
    by at most one per removal, so the lowest set bit of the lowest nonempty
    bucket is the next vertex. The deadline is read once per vertex.
    """
    degree = [row.bit_count() for row in adj]
    buckets = [0] * (max(degree, default=0) + 1)
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    remaining = (1 << len(adj)) - 1
    order = []
    low = 0
    while remaining:
        _check_deadline(deadline)
        while not buckets[low]:
            low += 1
        v = (buckets[low] & -buckets[low]).bit_length() - 1
        buckets[low] ^= 1 << v
        remaining ^= 1 << v
        order.append(v)
        row = adj[v] & remaining
        while row:  # from the top bit, as in _renumber
            u = row.bit_length() - 1
            bit = 1 << u
            row ^= bit
            d = degree[u]
            buckets[d] ^= bit
            buckets[d - 1] |= bit
            degree[u] = d - 1
        low = max(low - 1, 0)
    return order


def _renumber(adj: tuple[int, ...], order: list[int],
              deadline: float | None) -> list[int]:
    """The rows of ``adj`` with vertex ``order[i]`` renamed ``i``; the
    deadline is read once per vertex. Each row is walked from its top bit,
    so every step works on a shorter int."""
    position = sorted(range(len(order)), key=order.__getitem__)
    rows = []
    for v in order:
        _check_deadline(deadline)
        row, new = adj[v], 0
        while row:
            u = row.bit_length() - 1
            row ^= 1 << u
            new |= 1 << position[u]
        rows.append(new)
    return rows


def _coset_group(n: int, t: int) -> tuple[str, list[tuple[int, ...]]] | None:
    """Name and generators (image tuples) of a sharply t-transitive group on
    [n], where one is known here: C_n, generated by the n-cycle, for t = 1."""
    if t == 1:
        return f"C_{n}", [tuple(range(2, n + 1)) + (1,)]
    return None


def _coset_classes(graph: IntersectionGraph):
    """The left cosets of ``_coset_group(n, t)`` as (mask, members) classes of
    the graph's vertices, with the certificate that they are a proper colouring,
    so ``omega <= len(classes)``; None where there is no group or the checks
    fail. Two permutations sharing t cycles agree on at least t points, and two
    members of a coset of a sharply t-transitive group on fewer."""
    found = _coset_group(graph.n, graph.t)
    if found is None:
        return None
    name, generators = found
    group = [tuple(range(1, graph.n + 1))]
    seen = set(group)
    for h in group:  # breadth-first closure under composition h . g
        for g in generators:
            hg = tuple(h[y - 1] for y in g)
            if hg not in seen:
                seen.add(hg)
                group.append(hg)
    m = graph.size
    vertex = {sigma.image: v for v, sigma in enumerate(graph.perms)}
    classes = []
    covered = 0
    for v, sigma in enumerate(graph.perms):
        if (covered >> v) & 1:
            continue
        members = sorted({vertex[tuple(sigma.image[y - 1] for y in h)] for h in group})
        mask = sum(1 << u for u in members)
        if covered & mask or any(graph.adj[u] & mask for u in members):
            return None
        covered |= mask
        classes.append((mask, members))
    if covered != (1 << m) - 1 or len(classes) * len(group) != m:
        return None
    certificate = {"group": name, "generators": [list(g) for g in generators],
                   "order": len(group), "classes": len(classes)}
    return certificate, classes


class _CliqueSearch:
    """Exact maximum clique search: one depth-first loop over an explicit
    stack, with the bound chosen at the root: ``_coset_node`` where
    ``_coset_classes`` certifies a colouring, else ``_color_node`` over the
    vertices renumbered in degeneracy order."""

    def __init__(self, graph: IntersectionGraph, enumerate_all: bool,
                 deadline: float | None):
        self.graph = graph
        self.adj = graph.adj
        self.enumerate_all = enumerate_all
        self.deadline = deadline
        self.best = 0
        self.cliques: list[tuple[int, ...]] = []
        self.nodes = 0
        self.cutoffs = 0
        self.certificate: dict | None = None

    def run(self) -> None:
        # the root is node 1, and it reads the clock before any coset or
        # ordering work
        self._tick()
        full = (1 << len(self.adj)) - 1
        found = _coset_classes(self.graph)
        if found is not None:
            self.certificate, classes = found
            self.class_of = [0] * len(self.adj)
            for k, (_, members) in enumerate(classes):
                for v in members:
                    self.class_of[v] = k
            counts = bytearray(len(members) for _, members in classes)
            self._search(self._coset_node(classes, counts, full, full, 0))
            return
        # new vertex i is old vertex order[i], the degeneracy order reversed:
        # the dense core, removed last, gets the low numbers, so candidate
        # sets below the root are narrow ints, and a top-down scan visits
        # vertices in degeneracy order
        order = _degeneracy_order(self.adj, self.deadline)[::-1]
        self.adj = _renumber(self.adj, order, self.deadline)
        try:
            self._search(self._color_node(full, 0))
        finally:  # an expired search still returns its incumbents
            self.cliques = [tuple(order[v] for v in c) for c in self.cliques]

    def _tick(self) -> None:
        self.nodes += 1
        _check_deadline(self.deadline)

    def _cut(self, bound: int) -> bool:
        """Whether a node with this bound can neither beat nor, in
        enumerate-all mode, tie the incumbent; counts the cutoff."""
        cut = bound < self.best or (bound == self.best and not self.enumerate_all)
        self.cutoffs += cut
        return cut

    def _record(self, clique: list[int]) -> None:
        size = len(clique)
        if size > self.best:
            self.best = size
            self.cliques = [tuple(clique)]
        elif size == self.best and self.enumerate_all:
            self.cliques.append(tuple(clique))

    def _search(self, root) -> None:
        """An open node is its clique size and an iterator over its branches
        ``(bound, v, cand, child)``: v joins the clique unless it is -1, then a
        nonempty ``cand`` opens ``child(cand, size)`` and an empty one records.
        Nodes yield by non-increasing bound, so the first cut closes a node."""
        chosen: list[int] = []
        stack = [(0, root)]
        while stack:
            size, branches = stack[-1]
            del chosen[size:]
            branch = next(branches, None)
            if branch is None or self._cut(branch[0]):
                stack.pop()
                continue
            _, v, cand, child = branch
            if v >= 0:
                chosen.append(v)
            if cand:
                self._tick()
                stack.append((len(chosen), child(cand, len(chosen))))
            else:
                self._record(chosen)

    def _coset_node(self, classes: list[tuple[int, list[int]]], counts: bytearray,
                    parent_cand: int, cand: int, size: int):
        """A clique meets each covering class at most once, so the bound is
        the clique so far plus the classes with a candidate. Branch on the one
        with the fewest (lowest index on ties), as in Knuth's Algorithm X: each
        candidate in rank order, then a skip branch, so the search stays exact
        when omega is below the class count.

        ``counts`` holds each class's candidates at the parent; the node takes
        its own copy less one per bit of ``parent_cand`` that ``cand`` drops,
        so no node recounts its classes. A chosen member's row misses its own
        class and the skip branch drops all of it, so the branched class is
        zero in every child and the live classes are the nonzero counts."""
        counts = self._drop_counts(counts, parent_cand & ~cand)
        bound = size + len(counts) - counts.count(0)
        if self._cut(bound):
            return
        smallest = 1
        while (k := counts.find(smallest)) < 0:
            smallest += 1
        mask, members = classes[k]
        child = functools.partial(self._coset_node, classes, counts, cand)
        for v in members:
            if (cand >> v) & 1:
                yield bound, v, cand & self.adj[v], child
        yield bound - 1, -1, cand & ~mask, child

    def _drop_counts(self, counts: bytearray, dropped: int) -> bytearray:
        """A copy of ``counts`` less one for each vertex in ``dropped``, found
        by searching its binary string: walking ``q & -q`` would do big-int
        work on every bit. A function of its own, so that the string, up to
        n! characters, does not stay in the frame of an open node."""
        counts = bytearray(counts)
        class_of = self.class_of
        bits = bin(dropped)
        top = len(bits) - 1
        i = bits.find("1", 2)
        while i >= 0:
            counts[class_of[top - i]] -= 1
            i = bits.find("1", i + 1)
        return counts

    def _color_node(self, cand: int, size: int):
        """Branches on the classes of ``_color_sort(cand)`` from the last
        back, each member bounded by the clique so far plus its colour, and
        within a class in degeneracy order; a vertex leaves the candidates
        once its branch is done."""
        adj = self.adj
        order, ends = self._color_sort(cand)
        for color in range(len(ends) - 1, 0, -1):
            bound = size + color
            for v in order[ends[color - 1]:ends[color]]:
                yield bound, v, cand & adj[v], self._color_node
                cand ^= 1 << v

    def _color_sort(self, cand: int) -> tuple[list[int], list[int]]:
        """Greedy coloring in degeneracy order, from the highest vertex down,
        one class at a time: first-fit puts in each class the greedy
        independent set, in that order, of the vertices not yet colored.
        Returns the vertices class by class, in the order they were colored,
        and ``ends``, where colour k is ``order[ends[k-1]:ends[k]]``. One flat
        list, not a list per class: an open node keeps its coloring, and a
        list per class raised the peak memory of a budgeted (7,2) search by
        about 0.6 MB."""
        adj = self.adj
        order, ends = [], [0]
        while cand:
            q = cand
            while q:
                v = q.bit_length() - 1
                order.append(v)
                bit = 1 << v
                cand ^= bit
                q ^= bit
                q ^= q & adj[v]
            ends.append(len(order))
        return order, ends


def _check_budget(time_budget: float | None) -> None:
    if time_budget is not None and not 0 <= time_budget < math.inf:
        raise ValueError(f"time budget must be finite and >= 0, got {time_budget!r}")


def _check_t(t: int) -> None:
    if t < 0:
        raise ValueError(f"t must be at least 0, got {t}")


def max_family_search(n: int, t: int, mode: str = SIZE_ONLY,
                      time_budget: float | None = None,
                      cap: int | None = None,
                      graph: IntersectionGraph | None = None) -> CliqueSearchResult:
    """Exact maximum t-cycle-intersecting family size over S_n.

    Degrees up to the search cap run unconditionally; one degree above the
    cap is admitted only with a time budget. A budget expiry returns the best
    clique found so far with ``complete=False``, never a silent truncation.
    """
    return _search_with_graph(n, t, mode, time_budget, cap, graph)[0]


def _search_with_graph(n: int, t: int, mode: str, time_budget: float | None,
                       cap: int | None = None, graph: IntersectionGraph | None = None
                       ) -> tuple[CliqueSearchResult, IntersectionGraph]:
    """:func:`max_family_search` and the graph it searched, built behind its
    cap check unless supplied."""
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValueError(f"unknown mode {mode!r}")
    _check_budget(time_budget)
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
        elapsed=time.monotonic() - start, certificate=search.certificate), graph


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

    class_key: dict = {}  # each conjugate of a walked witness -> its orbit's minimum
    seen: dict = {}
    for family in witnesses:
        own = tuple(sorted(p.image for p in family))
        if own not in class_key:
            orbit = {tuple(sorted(tuple(g[p.image[x] - 1] for x in g_inv) for p in family))
                     for g, g_inv in group}
            class_key.update(dict.fromkeys(orbit, min(orbit)))
        seen.setdefault(class_key[own], family)
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def verify_max_bound(n: int, t: int, time_budget: float | None = None,
                     cap: int | None = None) -> VerificationReport:
    """For n >= 2t+1: the maximum family size is (n-t)! and the maximum
    families are exactly the stabilizers of t points."""
    _check_budget(time_budget)
    parse_degree(n)
    _check_t(t)
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
                           "complete": result.complete,
                           "certificate": result.certificate}
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
                  if w != stabilizer_family(stabilized_points(w)[:t], n, cap=n)]
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


def pipeline_roundtrip(n: int, t: int, trials: int, seed: int) -> VerificationReport:
    """Seeded maximalize -> fix-closure -> compress-closure trials.

    Each trial checks size preservation, t-cycle-intersection, fixedness,
    compressedness, that Fix(output) and its left-shift-minimal refinement
    generate the output and are pairwise t-intersecting set systems, that the
    prefix-fix classes of the refinement partition the output, and the
    stabilizer pullback. The maximality test also decides t-cycle-intersection.
    A None outcome is not assessed, for the reason in ``why_unassessed``: the
    star system holds the empty set (as at t = 0, where every output is S_n),
    or n < 2t+1. A check records the first failing trial's replayable
    witness, else not assessed, else pass. At least one trial must run, so
    that a pass means something was checked.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_t(t)
    rep = VerificationReport("pipeline")
    rng = random.Random(seed)
    table = _sn_table(n)  # rank order, so a draw is unrank(n, randrange(n!))
    neighbours = _neighbourhoods(table, t)  # one index for every trial
    why_unassessed = {
        "disjoint-union-decomposition": "star generating set contains the empty set",
        "stabilizer-pullback": f"n={n} < 2t+1={2 * t + 1}",
    }
    failures: dict[str, dict] = {}
    unassessed: set[str] = set()
    maximality_preserved = 0
    stabilizer_outputs = 0
    for trial in range(trials):
        seed_perm = table.perms[rng.randrange(len(table.perms))]
        start = _maximalize(PermFamily(n, [seed_perm]), t, neighbours)
        fixed, _ = fix_closure(start)
        compressed, _ = compress_closure(fixed)
        fixsys = fix_system(compressed)
        star = left_shift_minimals(fixsys)
        try:  # _maximalize refuses a family that is not t-cycle-intersecting
            maximal = len(_maximalize(compressed, t, neighbours)) == len(compressed)
            intersecting = True
        except ValueError:
            maximal = intersecting = False
        outcome = {
            "size-preserved-by-closures":
                len(start) == len(fixed) == len(compressed),
            "output-t-cycle-intersecting": intersecting,
            "output-fixed": is_fixed_family(compressed),
            "output-compressed": is_compressed_family(compressed),
            "fix-system-is-generating-set":
                is_generating_set(fixsys, compressed),
            "generating-systems-pairwise-t-intersecting":
                is_t_intersecting_system(fixsys, t)
                and is_t_intersecting_system(star, t),
            "disjoint-union-decomposition":
                None if any(not s for s in star)
                else is_generating_set(star, compressed)
                and bool(is_disjoint_union(compressed, star)),
            "stabilizer-pullback":
                None if n < 2 * t + 1
                else stabilizer_pullback_check(start, compressed, t),
        }
        if is_stabilizer_of_points(compressed, t):
            stabilizer_outputs += 1
        maximality_preserved += maximal
        for name, ok in outcome.items():
            if ok is None:
                unassessed.add(name)
            elif not ok and name not in failures:
                failures[name] = {"trial": trial,
                                  "seed_perm": list(seed_perm.image),
                                  "output": compressed.to_json_dict()}
    params = {"n": n, "t": t, "trials": trials, "seed": seed}
    for name in outcome:  # every trial checks the same names in this order
        if name in unassessed and name not in failures:
            rep.add(name, params, HYPOTHESIS_NOT_MET, detail=why_unassessed[name])
        else:
            rep.add_bool(name, params, name not in failures, witness=failures.get(name))
    rep.stats["maximality_preserved"] = maximality_preserved
    rep.stats["stabilizer_outputs"] = stabilizer_outputs
    return rep


def verify_surgery_instances() -> VerificationReport:
    """The documented surgery demonstration: on the system of all 4-subsets
    of [5] with t = 3 the rebuilt family is strictly larger at n = 7 and only
    ties at n = 6."""
    rep = VerificationReport("surgery")
    for n, expect_gain in ((7, True), (6, False)):
        system = SetSystem(n, itertools.combinations(range(1, 6), 4))
        result = generating_set_surgery(system, 3, 4)
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


def run_suite_all(n_max: int, seed: int) -> VerificationReport:
    """Every lemma check at tiny scale; the repository's acceptance gate."""
    rep = VerificationReport("all")
    for t in range(1, n_max + 1):
        for n in range(2 * t + 1, n_max + 1):
            rep.extend(verify_max_bound(n, t))
    for n in range(3, min(n_max, 4) + 1):
        for t in range(1, n + 1):
            bb = max_family_search(n, t)
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
            enumerated = len(fix_prefix_family(pattern, formula_n))
            if enumerated != fix_prefix_count(formula_n, len(pattern), max(pattern)):
                bad_counts.append(list(pattern))
            reduced = len(reduced_fix_prefix_family(pattern, formula_n))
            if reduced < (formula_n - len(pattern) + 1) * enumerated:
                bad_bounds.append(list(pattern))
    rep.add_bool("prefix-fix-counts-match-formula", {"n": formula_n},
                 not bad_counts, witness=bad_counts or None)
    rep.add_bool("reduced-class-lower-bound", {"n": formula_n},
                 not bad_bounds, witness=bad_bounds or None)
    t_pipeline = 2 if n_max >= 5 else 1
    rep.extend(pipeline_roundtrip(min(n_max, 5), t_pipeline, trials=25, seed=seed))
    return rep
