"""Differential tests of the clique core on random graphs.

The S_n graphs are highly symmetric, so a child that inherits the wrong
classes or a bound that is off by one could go unseen on them alone. Here the core runs on random
graphs of at most 12 vertices, on both of its paths: the colouring search
(at t = 2 no classes are built) and the class search, fed a random
independent partition in place of the cosets. A walk over every vertex
subset that is a clique gives the answers to compare.
"""

import itertools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cycleint import search
from cycleint.intersect import IntersectionGraph

# far above the nodes any search here needs (under 50 in 3000 runs), so a
# search that loops fails
NODE_LIMIT = 10_000

graphs = st.tuples(st.integers(1, 12), st.floats(0.2, 0.9), st.randoms(use_true_random=False))
# many candidate sets of these are cliques, which the core records whole
near_complete_graphs = st.tuples(st.integers(1, 12), st.floats(0.9, 1.0),
                                 st.randoms(use_true_random=False))
# random graphs with k >= 1 vertices adjacent to every other vertex: such a
# vertex is adjacent to every other candidate at each node that holds it,
# so on either path that node closes after branching on it
universal_graphs = st.tuples(st.integers(0, 10), st.floats(0.2, 0.9),
                             st.randoms(use_true_random=False), st.integers(1, 3))


def _random_rows(m, density, rng):
    rows = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _join_universal(m, density, rng, k):
    """A random graph on m + k vertices in which k of them, chosen at
    random, are joined to every other vertex."""
    size = m + k
    rows = _random_rows(size, density, rng)
    for u in rng.sample(range(size), k):
        rows[u] = ((1 << size) - 1) & ~(1 << u)
        for v in range(size):
            if v != u:
                rows[v] |= 1 << u
    return rows


def _is_clique(rows, clique):
    mask = sum(1 << v for v in clique)
    return (len(set(clique)) == len(clique)
            and all(not mask & ~(rows[v] | 1 << v) for v in clique))


def _maximum_cliques(rows):
    """The clique number and every maximum clique as a sorted tuple, by a
    walk over all vertex subsets that are cliques, each grown in increasing
    vertex order."""
    cliques = [()]
    for clique in cliques:  # grows while it is walked
        low = clique[-1] + 1 if clique else 0
        cliques += [clique + (v,) for v in range(low, len(rows))
                    if all(rows[v] >> u & 1 for u in clique)]
    best = len(cliques[-1])
    return best, {c for c in cliques if len(c) == best}


def _first_fit_classes(rows, rng):
    """The independent classes of a first-fit colouring in a random vertex
    order, each as its members."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    classes = []
    for v in order:
        for members in classes:
            if not any(rows[v] >> u & 1 for u in members):
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


class _Probe(search._CliqueSearch):
    """The core, recording the incumbent size at each node it opens and
    expiring after ``limit`` nodes."""

    def __init__(self, rows, enumerate_all, limit):
        super().__init__(IntersectionGraph(len(rows), 2, (), tuple(rows)),
                         enumerate_all, None)
        self.limit = limit
        self.opened_at = []

    def _tick(self):
        self.opened_at.append(self.best)
        super()._tick()
        if self.nodes >= self.limit:
            raise search.BudgetExceeded


def _run(rows, enumerate_all, classes=None, limit=NODE_LIMIT):
    """The probe after its run, and whether the run completed; with
    ``classes``, the class search over them."""
    probe = _Probe(rows, enumerate_all, limit)
    found = None if classes is None else ({"group": "random"}, classes)
    with mock.patch.object(search, "_coset_classes", return_value=found):
        try:
            probe.run()
        except search.BudgetExceeded:
            return probe, False
    return probe, True


def _assert_exact(rows, classes):
    best, maximum = _maximum_cliques(rows)
    for enumerate_all in (False, True):
        probe, complete = _run(rows, enumerate_all, classes)
        assert complete and probe.best == best
        cliques = [tuple(sorted(c)) for c in probe.cliques]
        if enumerate_all:
            assert len(set(cliques)) == len(cliques) and set(cliques) == maximum
        else:
            assert len(cliques) == 1 and cliques[0] in maximum
            if classes is not None:
                # no clique beats the class count, so none opens once it is reached
                assert all(size < len(classes) for size in probe.opened_at)


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs, near_complete_graphs))
def test_coloring_search_matches_brute_force(graph):
    m, density, rng = graph
    _assert_exact(_random_rows(m, density, rng), None)


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs, near_complete_graphs))
def test_class_search_matches_brute_force(graph):
    m, density, rng = graph
    rows = _random_rows(m, density, rng)
    _assert_exact(rows, _first_fit_classes(rows, rng))


@settings(max_examples=120, deadline=None)
@given(universal_graphs, st.booleans())
def test_searches_match_brute_force_with_universal_vertices(graph, with_classes):
    m, density, rng, k = graph
    rows = _join_universal(m, density, rng, k)
    _assert_exact(rows, _first_fit_classes(rows, rng) if with_classes else None)


def test_a_set_missing_one_edge_is_not_taken_whole():
    # singleton classes each hold exactly one candidate, so a class count
    # would call the set a clique; the maximum cliques drop a or b
    for m in range(2, 9):
        for a, b in itertools.combinations(range(m), 2):
            rows = [((1 << m) - 1) & ~(1 << v) for v in range(m)]
            rows[a] &= ~(1 << b)
            rows[b] &= ~(1 << a)
            singletons = [[v] for v in range(m)]
            for classes in (None, singletons):
                _assert_exact(rows, classes)


@settings(max_examples=60, deadline=None)
@given(graphs, st.booleans(), st.booleans(), st.integers(1, 40))
def test_incumbents_at_a_forced_expiry_are_cliques(graph, with_classes, enumerate_all,
                                                  limit):
    m, density, rng = graph
    rows = _random_rows(m, density, rng)
    classes = _first_fit_classes(rows, rng) if with_classes else None
    probe, _ = _run(rows, enumerate_all, classes, limit)
    assert probe.nodes <= limit
    assert all(len(c) == probe.best and _is_clique(rows, c) for c in probe.cliques)
    assert probe.best <= _maximum_cliques(rows)[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_coloring_bound_is_tight_on_complete_multipartite_graphs(parts, rng):
    # each greedy colour class is one whole part, so the bound is the clique
    # number at every node and none opens once a clique meets every part
    labels = list(range(sum(parts)))
    rng.shuffle(labels)
    part_of = [k for k, size in enumerate(parts) for _ in range(size)]
    rows = [0] * len(labels)
    for a in range(len(labels)):
        for b in range(len(labels)):
            if part_of[a] != part_of[b]:
                rows[labels[a]] |= 1 << labels[b]
    probe, complete = _run(rows, False)
    assert complete and probe.best == len(parts)
    assert all(size < len(parts) for size in probe.opened_at)
