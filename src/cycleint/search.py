"""Exhaustive maximum-family search and the verification harnesses.

The search is exact branch-and-bound maximum clique on the intersection
graph, with candidates in big-int bitsets: one depth-first loop over an
explicit stack, whose nodes all branch on a colouring held as class bitsets.
At t = 1 ``max_family_search`` checks that the left cosets of C_n, each read
off as the n rotations of a permutation's image tuple, are independent sets
covering the graph; they then bound every clique by their number, (n-1)!,
and colour the root of the core, ``_CliqueSearch``, which knows only the
rows, and each child inherits the classes below the one it branched on.
Every other t, t = 0 included, colours each node's candidates afresh: a
greedy colouring, one class at a time on bitsets from the highest rank
down (BBMC), on the graph's rows in rank order, as built. A node closes
once it has branched on a candidate adjacent to every other candidate: a
clique of a later branch extends by that vertex to a larger clique of the
finished branch, so the incumbent is already above it in either mode (the
one-branch case of Tomita, Tanaka and Takahashi's pivoting, Theor. Comput.
Sci. 363, 2006). A child whose candidate set is a clique opens no node: the
clique shortcut records it whole, so a stabilizer of t points, with its
(n-t)! members, costs one test instead of a node per member, and at t = 0,
where the graph is complete, all of S_n is recorded below the root.
Enumerate-all pruning keeps branches that can tie the incumbent: the witness
list is complete and duplicate-free.

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

from .extremal import (_refuse_unprintable_sizes, f_family, f_family_size,
                       quad_inequality_check, stabilizer_family)
from .gensets import (SetSystem, fix_prefix_count, fix_prefix_family,
                      fix_system, generating_set_surgery, is_disjoint_union,
                      is_generating_set, is_t_intersecting_system,
                      left_shift_minimals, reduced_fix_prefix_family)
from .intersect import (IntersectionGraph, PermFamily, _check_t, _check_walk,
                        _joinable, _sn_table, _within_cap, build_intersection_graph,
                        is_stabilizer_of_points, is_t_cycle_intersecting_pair,
                        maximalize, stabilized_points)
from .perm import _check_int, all_permutations, parse_degree
from .report import HYPOTHESIS_NOT_MET, PASS, VerificationReport, _Record
from .transform import (compress_closure, fix_closure, is_compressed_family,
                        is_fixed_family, stabilizer_pullback_check)

SIZE_ONLY = "size-only"
ENUMERATE_ALL = "enumerate-all"


class CliqueSearchResult(_Record):
    """Exact maximum-family answer with witnesses and search statistics."""

    __slots__ = ("n", "t", "mode", "max_size", "witnesses", "complete", "nodes",
                 "cutoffs", "elapsed", "certificate")
    _defaults = {"nodes": 0, "cutoffs": 0, "elapsed": 0.0, "certificate": None}

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


def _coset_classes(graph: IntersectionGraph):
    """At t = 1, the left cosets of C_n, generated by the n-cycle c, with the
    certificate that names the group, each coset as its vertices in rank
    order and the cosets in the order of their lowest vertex; None at any
    other t. The coset of sigma holds sigma . c^k for k < n, which sends x to
    sigma(x+k): sigma's image tuple rotated left by k. Its lowest vertex is
    the rotation that starts with 1. Two permutations sharing a cycle agree on
    a point, and two members of one coset on none."""
    if graph.t != 1:
        return None
    n = graph.n
    vertex = {sigma.image: v for v, sigma in enumerate(graph.perms)}
    classes = [sorted(vertex[p.image[k:] + p.image[:k]] for k in range(n))
               for p in graph.perms if p.image[0] == 1]
    certificate = {"group": f"C_{n}", "generators": [[*range(2, n + 1), 1]],
                   "order": n, "classes": len(classes)}
    return certificate, classes


def _colouring(adj, classes: list[list[int]]) -> list[int] | None:
    """``classes`` as bitsets if they are a proper colouring of the
    graph with rows ``adj``: disjoint, each independent, and together
    covering every vertex, so ``omega <= len(classes)``; else None."""
    coloured = []
    covered = 0
    for members in classes:
        mask = sum(1 << u for u in members)
        if covered & mask or any(adj[u] & mask for u in members):
            return None
        covered |= mask
        coloured.append(mask)
    return coloured if covered == (1 << len(adj)) - 1 else None


class _CliqueSearch:
    """Exact maximum clique search on the adjacency rows ``adj``: one
    depth-first loop over an explicit stack, and one node generator,
    ``_node``, over a colouring held as class bitsets. The caller chooses the
    root colouring: classes handed to ``run`` colour the root and each child
    inherits the classes below the one it branched on; without them every
    node colours its candidates afresh with ``_color_sort``."""

    def __init__(self, adj, enumerate_all: bool, deadline: float | None):
        self.adj = adj
        self.enumerate_all = enumerate_all
        self.deadline = deadline
        self.best = 0
        self.cliques: list[tuple[int, ...]] = []
        self.nodes = 0
        self.cutoffs = 0

    def run(self, classes: list[int] | None = None) -> None:
        """Searches from the root, node 1, which reads the clock first;
        ``classes``, a proper colouring as ``_colouring`` gives, colour it."""
        self._tick()
        full = (1 << len(self.adj)) - 1
        self._search(self._node(full, 0, classes, len(classes or ())))

    def _tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded

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
        ``(bound, v, cand, child)``: v joins the clique, then a ``cand`` that
        is a clique joins it whole and records, as an empty one does, and any
        other opens ``child(cand, size)``. Nodes yield by non-increasing
        bound, so the first cut closes a node."""
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
            chosen.append(v)
            if cand and not self._take_clique(cand, chosen):
                self._tick()
                stack.append((len(chosen), child(cand, len(chosen))))
            else:
                self._record(chosen)

    def _take_clique(self, cand: int, chosen: list[int]) -> bool:
        """Whether ``cand`` is a clique; if so its members, from the highest
        down, join ``chosen``. Each vertex is tested against the candidates
        below it, so a set that is not a clique usually costs one AND."""
        adj = self.adj
        members = []
        rest = cand
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            if rest & adj[v] != rest:
                return False
            members.append(v)
        chosen += members
        return True

    def _node(self, cand: int, size: int, classes: list[int] | None = None,
              top: int = 0):
        """Branches on ``classes[:top]``, inherited classes whose union holds
        ``cand``, or else on the classes of ``_color_sort(cand)``, from the
        last back: each member still a candidate is bounded by the clique so
        far plus its class's position and leaves the candidates once its
        branch is done. A member's classmates are not its neighbours, so on
        inherited classes its child's candidates lie in the classes below,
        which the child inherits; on greedy classes it colours afresh.

        A greedy class is taken highest vertex first, the order it was
        coloured in. A coset is taken lowest first, the rotation that fixes
        1: successive branches then share the 1-cycle and reach a point
        stabilizer, which the clique shortcut records whole; highest first,
        (7,1) opens 4881 nodes, not 60.

        A branch on v whose child is every other candidate closes the node:
        each clique of a later branch lies in v's neighbours, so it extends
        by v to a clique of v's finished branch, which has left ``best``
        above it. A later branch could record nothing, in either mode."""
        adj = self.adj
        inherited = classes is not None
        if not inherited:
            classes = self._color_sort(cand)
            top = len(classes)
        child = self._node
        for k in range(top, 0, -1):
            if inherited:
                child = functools.partial(self._node, classes=classes, top=k - 1)
            live = cand & classes[k - 1]
            while live:
                v = (live & -live if inherited else live).bit_length() - 1
                bit = 1 << v
                live ^= bit
                cand ^= bit
                below = cand & adj[v]
                yield size + k, v, below, child
                if below == cand:
                    return

    def _color_sort(self, cand: int) -> list[int]:
        """Greedy coloring from the highest vertex down, one class at a time:
        first-fit puts in each class the greedy independent set, in that
        order, of the vertices not yet colored. Returns the classes as
        bitsets, in the order they were colored. An open node keeps them,
        each an int as wide as its top member: the tracemalloc peak of an
        enumerate-all (7,2) search is 1.4 MB, against 0.7 MB for one flat
        list of members with class ends."""
        adj = self.adj
        classes = []
        while cand:
            rest = q = cand
            while q:
                v = q.bit_length() - 1
                bit = 1 << v
                rest ^= bit
                q ^= bit
                q ^= q & adj[v]
            classes.append(cand ^ rest)
            cand = rest
        return classes


def _check_budget(time_budget: float | None) -> None:
    """The one check of a caller's time budget: None, or an ``int`` or
    ``float`` (a ``bool`` is not) that is finite and at least 0."""
    if time_budget is None:
        return
    if not isinstance(time_budget, (int, float)) or isinstance(time_budget, bool):
        raise ValueError(f"time budget must be a number, got {time_budget!r}")
    if not 0 <= time_budget < math.inf:
        raise ValueError(f"time budget must be finite and >= 0, got {time_budget!r}")


def max_family_search(n: int, t: int, mode: str = SIZE_ONLY,
                      time_budget: float | None = None,
                      cap: int | None = None,
                      graph: IntersectionGraph | None = None) -> CliqueSearchResult:
    """Exact maximum t-cycle-intersecting family size over S_n.

    The graph is built, inside the budget, with ``cap`` as the enumeration
    cap override, unless it is supplied as ``graph``; then ``cap`` is unused.
    A degree beyond the cap is refused before S_n is walked. The root's
    colouring is chosen here: the cosets of ``_coset_classes``, checked in
    the budget but before the root reads the clock, colour it where they are
    a ``_colouring``, and their certificate is then reported, budget or
    not. A budget expiry returns the best clique found so far with
    ``complete=False``, never a silent truncation.
    """
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValueError(f"unknown mode {mode!r}")
    _check_budget(time_budget)
    _check_t(t)
    start = time.monotonic()
    if graph is None:
        graph = build_intersection_graph(n, t, cap)
    elif (graph.n, graph.t) != (parse_degree(n), t):
        raise ValueError("supplied graph does not match (n, t)")
    certificate, classes = _coset_classes(graph) or (None, None)
    classes = classes and _colouring(graph.adj, classes)  # drops the coset lists
    certificate = certificate if classes else None
    deadline = None if time_budget is None else start + time_budget
    search = _CliqueSearch(graph.adj, mode == ENUMERATE_ALL, deadline)
    complete = True
    try:
        search.run(classes)
    except BudgetExceeded:
        complete = False
    del classes  # about 0.5 MB at n = 7, not kept while the witnesses are built
    witnesses = sorted(
        {PermFamily(n, (graph.perms[v] for v in clique)) for clique in search.cliques},
        key=lambda fam: tuple(p.image for p in fam))
    return CliqueSearchResult(
        n=n, t=t, mode=mode, max_size=search.best, witnesses=tuple(witnesses),
        complete=complete, nodes=search.nodes, cutoffs=search.cutoffs,
        elapsed=time.monotonic() - start, certificate=certificate)


def naive_max_family_size(n: int, t: int) -> int:
    """Independent brute-force oracle: recursion over the family lattice.
    Before S_n is walked it is refused wherever a maximality question at t
    would be, although it holds no bitsets itself."""
    _check_walk(n, t)
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
    """Canonical representative of each conjugacy class of witness families,
    the one whose sorted images are least; refuses degrees beyond the
    enumeration cap and witnesses of another degree."""
    _check_walk(n)
    # (1 2) and the n-cycle generate S_n (S_1 needs none), so closing under
    # conjugation by them reaches each witness's whole orbit. g . sigma . g^-1
    # maps y to g(sigma(g^-1(y))); each g is paired with the 0-based positions
    # of g^-1(1), ..., g^-1(n)
    generators = [] if n == 1 else [
        (g, sorted(range(n), key=g.__getitem__))
        for g in ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1))]

    class_key: dict = {}  # each conjugate of a closed witness -> its orbit's minimum
    seen: dict = {}
    for family in witnesses:
        if family.n != n:
            raise ValueError(f"witness of degree {family.n}, expected degree {n}")
        own = tuple(sorted(p.image for p in family))
        if own not in class_key:
            orbit = {own}
            frontier = [own]
            while frontier:
                images = frontier.pop()
                for g, g_inv in generators:
                    relabelled = tuple(sorted(tuple(g[image[x] - 1] for x in g_inv)
                                              for image in images))
                    if relabelled not in orbit:
                        orbit.add(relabelled)
                        frontier.append(relabelled)
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
                  if w != stabilizer_family(stabilized_points(w)[:t], n, cap)]
    rep.add_bool("witnesses-equal-their-point-stabilizers", params,
                 not mismatched,
                 witness=mismatched[0].to_json_dict() if mismatched else None)
    return rep


def verify_counterexample_regime(n: int, t: int) -> VerificationReport:
    """For t+3 <= n < 2t+1 the window family F_1 matches or beats the
    stabilizer, strictly except at the documented t = 3 boundary."""
    if not _check_t(t) + 3 <= parse_degree(n) < 2 * t + 1:
        raise ValueError(f"need t+3 <= n < 2t+1, got (n={n}, t={t})")
    _refuse_unprintable_sizes(n, t, (0, 1))
    rep = VerificationReport("counterexample")
    params = {"n": n, "t": t}
    f0 = math.factorial(n - t)
    f1 = f_family_size(n, t, 1)
    rep.stats["sizes"] = {"F0": f0, "F1": f1}
    if _within_cap(n):
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


def _check_output(compressed: PermFamily, t: int) -> tuple[dict, int | None, bool]:
    """The pipeline checks that read only the closure output, by name in
    report order; its ``_joinable`` count; whether it is a stabilizer of t
    points. Trials that reach one output share one call."""
    fixsys = fix_system(compressed)
    star = left_shift_minimals(fixsys)
    joinable = _joinable(compressed, t)
    outcome = {
        "output-t-cycle-intersecting": joinable is not None,
        "output-fixed": is_fixed_family(compressed),
        "output-compressed": is_compressed_family(compressed),
        "fix-system-is-generating-set": is_generating_set(fixsys, compressed),
        "generating-systems-pairwise-t-intersecting":
            is_t_intersecting_system(fixsys, t) and is_t_intersecting_system(star, t),
        "disjoint-union-decomposition":
            None if any(not s for s in star)
            else is_generating_set(star, compressed)
            and bool(is_disjoint_union(compressed, star)),
    }
    return outcome, joinable, is_stabilizer_of_points(compressed, t)


def pipeline_roundtrip(n: int, t: int, trials: int, seed: int) -> VerificationReport:
    """Seeded maximalize -> fix-closure -> compress-closure trials.

    Each trial checks size preservation, t-cycle-intersection, fixedness,
    compressedness, that Fix(output) and its left-shift-minimal refinement
    generate the output and are pairwise t-intersecting set systems, that the
    prefix-fix classes of the refinement partition the output, and the
    stabilizer pullback. The maximality test also decides t-cycle-intersection.
    Every check but size preservation and the pullback reads only the output,
    so it runs once per distinct output, however many trials reach it.
    A None outcome is not assessed, for the reason in ``why_unassessed``: the
    star system holds the empty set (as at t = 0, where every output is S_n),
    or n < 2t+1. A check records the first failing trial's replayable
    witness, else not assessed, else pass. At least one trial must run, so
    that a pass means something was checked.
    """
    if _check_int("trials", trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_int("seed", seed)  # a seed of None would draw from the OS
    table = _sn_table(n, t=t)  # rank order, so a draw is unrank(n, randrange(n!))
    rep = VerificationReport("pipeline")
    rng = random.Random(seed)
    why_unassessed = {
        "disjoint-union-decomposition": "star generating set contains the empty set",
        "stabilizer-pullback": f"n={n} < 2t+1={2 * t + 1}",
    }
    failures: dict[str, dict] = {}
    unassessed: set[str] = set()
    maximality_preserved = 0
    stabilizer_outputs = 0
    checked: dict[PermFamily, tuple[dict, int | None, bool]] = {}  # by output
    for trial in range(trials):
        seed_perm = table.perms[rng.randrange(len(table.perms))]
        start = maximalize(PermFamily(n, [seed_perm]), t)
        fixed, _ = fix_closure(start)
        compressed, _ = compress_closure(fixed)
        output = checked.get(compressed)
        if output is None:
            output = checked[compressed] = _check_output(compressed, t)
        output_outcome, joinable, stabilizer = output
        outcome = {
            "size-preserved-by-closures":
                len(start) == len(fixed) == len(compressed),
            **output_outcome,
            "stabilizer-pullback":
                None if n < 2 * t + 1
                else stabilizer_pullback_check(start, compressed, t),
        }
        stabilizer_outputs += stabilizer
        maximality_preserved += joinable == 0
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
    if _check_int("n_max", n_max) < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    _check_int("seed", seed)
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
