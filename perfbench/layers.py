"""Per-layer probes: fixed calls into one layer each, timed from outside.

The probes are the same for every workload, so a per-layer figure means the
same thing whichever workload's traced run printed it. Each returns values
the reference or the layer's own invariants can check; a failed check is
returned as a problem.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import statistics
import time

import reference

# shorter than building the n = 7 graph, so an overshoot shows how long the
# search runs past its budget before it first looks at the clock
OVERSHOOT_BUDGET_S = 1.0
MAXIMAL_FAMILIES = 4
REPEATS = 3
CLI_REPEATS = 15


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def median_time(fn, repeats: int = REPEATS) -> float:
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def probe(cycleint, seed: int, workdir) -> tuple[dict, list[str]]:
    perm, intersect, search = cycleint.perm, cycleint.intersect, cycleint.search
    transform, gensets, extremal = cycleint.transform, cycleint.gensets, cycleint.extremal
    cli = cycleint.cli
    m: dict[str, dict] = {}
    problems: list[str] = []

    def put(name, value, unit="s"):
        m[name] = {"value": value, "unit": unit}

    def expect(ok, what):
        if not ok:
            problems.append(f"layer probe: {what}")

    # perm: materialise S_7 and decompose every member
    put("perm.enumerate_s", median_time(
        lambda: [p.cycles() for p in perm.all_permutations(7)]))

    # intersect and search: the dense (7,2) graph, built once
    build_s, graph = timed(lambda: intersect.build_intersection_graph(7, 2, cap=7))
    put("intersect.graph_build_s", build_s)
    put("intersect.graph_edges", graph.edge_count(), "count")
    # a budget this small stops the search at its first node, so the time is
    # the vertex ordering
    order_s, first = timed(lambda: search.max_family_search(
        7, 2, search.ENUMERATE_ALL, time_budget=1e-9, cap=7, graph=graph))
    expect(first.nodes == 1 and not first.complete, "ordering probe ran past node 1")
    put("search.order_s", order_s)
    del graph, first

    # a complete enumerate-all search on the pre-built, dense (6,1) graph
    graph = intersect.build_intersection_graph(6, 1)
    solve_s, solved = timed(lambda: search.max_family_search(
        6, 1, search.ENUMERATE_ALL, graph=graph))
    del graph
    problems += [f"layer probe (6,1): {p}" for p in reference.check_stabilizer_witnesses(
        [[p.image for p in w] for w in solved.witnesses], 6, 1)]
    put("search.solve_s", solve_s)
    put("search.nodes", solved.nodes, "count")
    put("search.cutoffs", solved.cutoffs, "count")
    put("search.cutoff_ratio", solved.cutoffs / solved.nodes, "ratio")
    put("search.ms_per_node", 1000 * solve_s / solved.nodes, "ms")

    # a budgeted search at (7,2) that has to build its own graph
    wall_s, partial = timed(lambda: search.max_family_search(
        7, 2, search.ENUMERATE_ALL, time_budget=OVERSHOOT_BUDGET_S))
    expect(not partial.complete, "(7,2) finished inside the overshoot budget")
    for family in partial.witnesses:
        problems += [f"layer probe (7,2): {p}" for p in
                     reference.check_intersecting_family([p.image for p in family], 7, 2)]
    put("search.overshoot_s", wall_s - OVERSHOOT_BUDGET_S)
    put("search.incumbent", partial.max_size, "count")

    witnesses = search.max_family_search(5, 1, search.ENUMERATE_ALL).witnesses
    put("search.conjugacy_s", median_time(
        lambda: search.conjugacy_representatives(witnesses, 5)))
    put("search.naive_oracle_s", median_time(
        lambda: [search.naive_max_family_size(4, t) for t in (1, 2)]))

    # intersect maximality, then the transform and gensets layers on the
    # seeded maximal families, as the pipeline suite chains them
    rng = random.Random(seed)
    starts = [intersect.PermFamily(7, [perm.unrank(7, rng.randrange(5040))])
              for _ in range(MAXIMAL_FAMILIES)]
    t_s, maximal = timed(lambda: [intersect.maximalize(f, 2) for f in starts])
    put("intersect.maximalize_s", t_s)
    t_s, flags = timed(lambda: [intersect.is_maximal(f, 2) for f in maximal])
    expect(all(flags), "maximalize gave a family that is_maximal rejects")
    put("intersect.is_maximal_s", t_s)
    t_s, fixed = timed(lambda: [transform.fix_closure(f) for f in maximal])
    put("transform.fix_closure_s", t_s)
    t_s, compressed = timed(lambda: [transform.compress_closure(f) for f, _ in fixed])
    put("transform.compress_closure_s", t_s)
    put("transform.applications",
        sum(trace.applications for _, trace in fixed + compressed), "count")
    outputs = [f for f, _ in compressed]
    t_s, flags = timed(lambda: [transform.is_fixed_family(f)
                                and transform.is_compressed_family(f) for f in outputs])
    expect(all(flags), "a closure output is not fixed and compressed")
    put("transform.invariant_check_s", t_s)
    for before, after in zip(maximal, outputs):
        expect(len(before) == len(after), "a closure changed the family size")
        problems += [f"layer probe closure: {p}" for p in
                     reference.check_intersecting_family([p.image for p in after], 7, 2)]
    t_s, stars = timed(lambda: [gensets.derive_star_generating_set(f) for f in outputs])
    put("gensets.derive_s", t_s)
    t_s, flags = timed(lambda: [gensets.is_generating_set(s, f)
                                for s, f in zip(stars, outputs)])
    expect(all(flags), "a derived system does not generate its family")
    put("gensets.generating_check_s", t_s)
    t_s, flags = timed(lambda: [bool(gensets.is_disjoint_union(f, s))
                                for s, f in zip(stars, outputs)])
    expect(all(flags), "prefix-fix classes do not partition a family")
    put("gensets.disjoint_union_s", t_s)
    patterns = [e for r in range(1, 6) for e in itertools.combinations(range(1, 6), r)]
    put("gensets.prefix_family_s", median_time(
        lambda: [gensets.fix_prefix_family(e, 6) for e in patterns]))

    # extremal: enumeration at n = 7 against the reference, counting on a grid
    t_s, families = timed(lambda: [extremal.f_family(7, 3, i) for i in (0, 1, 2)])
    put("extremal.f_family_s", t_s)
    for i, family in enumerate(families):
        want = reference.window_family_count(7, 3, i)
        expect(len(family) == want, f"|F{i}| at (7,3) is {len(family)}, reference {want}")
    grid = [(n, t, i) for t in range(1, 21) for i in range(4)
            for n in range(t + 2 * i, t + 2 * i + 10)]
    put("extremal.count_s", median_time(
        lambda: [extremal.f_family_size(n, t, i) for n, t, i in grid]))

    # cli: cli.main against the library call it makes, in turn; the call is
    # short so that argument parsing and JSON output are not lost in noise
    out = workdir / "probe-search.json"
    argv = ["search", "--n", "5", "--t", "2", "--enumerate-all", "--out", str(out)]
    via_cli, direct = [], []
    for _ in range(CLI_REPEATS):
        t_s, code = timed(lambda: _quiet(cli.main, argv))
        expect(code == 0, "search --n 5 --t 2 exited non-zero")
        via_cli.append(t_s)
        direct.append(timed(lambda: search.max_family_search(
            5, 2, search.ENUMERATE_ALL))[0])
    put("cli.overhead_s", statistics.median(via_cli) - statistics.median(direct))
    put("cli.json_bytes", out.stat().st_size, "bytes")
    out.unlink()
    return m, problems


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)
