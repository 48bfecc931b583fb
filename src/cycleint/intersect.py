"""t-cycle-intersection predicates, permutation families, and the graph over S_n.

Two permutations t-cycle-intersect when their canonical cycle decompositions
share at least t cycles; a family is t-cycle-intersecting when every unordered
pair does (vacuously for at most one member). The intersection graph makes
that pair relation explicit so maximum families become maximum cliques.

Every walk over S_n reads one cached table per degree, which holds the
permutations in rank order with their fixed-point bitmasks and cycle ids,
and, from the first walk at t > 0 on, the per-cycle row bitsets that every
graph row and maximality question at that degree is built from.
One guard, ``_check_walk``, refuses before any walk what the walk cannot
do: a bad degree, a negative t, a degree beyond the enumeration cap,
bitsets beyond memory. The table lookup runs it; a walk that reads no table
runs it itself. The guard alone reads the cap, ``enumeration_cap``, whose
default the environment variable ``CYCLEINT_ENUMERATION_CAP`` overrides,
and the memory limit; a cross-check asks ``_within_cap`` whether it may
enumerate.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterable, Iterator

from .perm import (Permutation, _check_int, all_permutations, parse_cycles,
                   parse_degree, rank)


class PermFamily:
    """A deduplicated set of degree-n permutations in lexicographic image order."""

    __slots__ = ("n", "members", "_images")

    def __init__(self, n: int, perms: Iterable[Permutation] = ()):
        parse_degree(n)
        by_image = {p.image: p for p in perms}  # image tuples hash in C
        members = tuple(by_image[image] for image in sorted(by_image))
        for p in members:
            if p.n != n:
                raise ValueError(f"member degree {p.n} does not match family degree {n}")
        self.n = n
        self.members = members
        self._images = frozenset(by_image)

    @classmethod
    def from_images(cls, n: int, rows: Iterable) -> "PermFamily":
        """Build from raw image rows; cycle-notation strings are also accepted."""
        parse_degree(n)
        perms = []
        for idx, row in enumerate(rows):
            try:
                if isinstance(row, str):
                    perms.append(parse_cycles(row, n))
                else:
                    perms.append(Permutation(row))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"perms[{idx}]: {exc}") from None
        return cls(n, perms)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PermFamily":
        if (not isinstance(data, dict) or "n" not in data
                or not isinstance(data.get("perms"), (list, tuple))):
            raise ValueError('family JSON must be an object with "n" and a "perms" list')
        return cls.from_images(data["n"], data["perms"])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "perms": [list(p.image) for p in self.members]}

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.members)

    def __contains__(self, perm: Permutation) -> bool:
        return perm.image in self._images

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PermFamily)
                and self.n == other.n and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"PermFamily(n={self.n}, size={len(self.members)})"


def is_t_cycle_intersecting_pair(sigma: Permutation, pi: Permutation, t: int) -> bool:
    if sigma.n != pi.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {pi.n}")
    if _check_t(t) == 0:
        return True
    return len(sigma.cycle_set() & pi.cycle_set()) >= t


def is_family_t_cycle_intersecting(family: PermFamily, t: int) -> bool:
    _check_t(t)
    members = family.members
    for i in range(len(members)):
        ci = members[i].cycle_set()
        for j in range(i + 1, len(members)):
            if len(ci & members[j].cycle_set()) < t:
                return False
    return True


def pointwise_agreements(sigma: Permutation, pi: Permutation) -> int:
    """Number of points on which the two permutations agree."""
    if sigma.n != pi.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {pi.n}")
    return sum(1 for a, b in zip(sigma.image, pi.image) if a == b)


def stabilized_points(family: PermFamily) -> tuple[int, ...]:
    """Points fixed by every member; empty tuple for the empty family."""
    if not family.members:
        return ()
    common = frozenset(family.members[0].fixed_points())
    for p in family.members[1:]:
        common &= frozenset(p.fixed_points())
        if not common:
            break
    return tuple(sorted(common))


def is_stabilizer_of_points(family: PermFamily, t: int) -> bool:
    """Whether the family is exactly the set of all permutations fixing some t points.

    A family of size (n-t)! whose members share >= t fixed points is contained
    in, hence equal to, the stabilizer of any t of those points.
    """
    if _check_t(t) > family.n:
        return False
    if len(family) != math.factorial(family.n - t):
        return False
    return len(stabilized_points(family)) >= t


class IntersectionGraph:
    """The t-cycle-intersection relation over all of S_n.

    Vertices are the n! permutations in lexicographic (Lehmer-rank) order;
    adjacency rows are packed bitsets so clique search can intersect candidate
    sets with single big-int AND operations. Self-loops are excluded.
    """

    __slots__ = ("n", "t", "perms", "adj")

    def __init__(self, n: int, t: int, perms: tuple[Permutation, ...], adj: tuple[int, ...]):
        self.n = n
        self.t = t
        self.perms = perms
        self.adj = adj

    @property
    def size(self) -> int:
        return len(self.perms)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.size)) // 2

    def dimacs_lines(self) -> Iterator[str]:
        """DIMACS-like edge list, vertices keyed by permutation rank."""
        yield f"p edge {self.size} {self.edge_count()}"
        for u in range(self.size):
            row = self.adj[u] >> (u + 1) << (u + 1)  # only v > u
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                yield f"e {u} {v}"


class _SnTable:
    """S_n in rank order with its rows grouped by fixed-point bitmask (bit x-1
    for point x), at most 2^n groups, each row's interned cycle ids and, once
    a walk at t > 0 has asked for them, the per-cycle row bitsets."""

    __slots__ = ("perms", "rows_by_fixed", "cycle_ids", "rows_by_cycle")

    def __init__(self, n: int):
        self.perms = tuple(all_permutations(n))
        groups: dict[int, list[int]] = {}
        for r, p in enumerate(self.perms):
            groups.setdefault(p.fixed_mask(), []).append(r)
        self.rows_by_fixed = {mask: tuple(rows) for mask, rows in groups.items()}
        interned: dict[tuple[int, ...], int] = {}
        self.cycle_ids = tuple(
            tuple(interned.setdefault(c, len(interned)) for c in p.cycles())
            for p in self.perms)
        self.rows_by_cycle: list[int] | None = None

    def neighbours(self, t: int):
        """A function from a row to the bitset of the other rows sharing at
        least t cycles with it: the OR, over t-subsets of the row's cycle ids,
        of the AND of the per-cycle row bitsets, built at the first t > 0 and
        kept. At t = 0 every other row qualifies, and no cycle id is read."""
        full = (1 << len(self.perms)) - 1
        if t == 0:
            return lambda r: full ^ 1 << r
        cycle_ids, rows_by_cycle = self.cycle_ids, self.rows_by_cycle
        if rows_by_cycle is None:  # cycle ids are interned from 0 up
            rows_by_cycle = self.rows_by_cycle = [0] * (1 + max(map(max, cycle_ids)))
            for r, ids in enumerate(cycle_ids):
                for c in ids:
                    rows_by_cycle[c] |= 1 << r

        def neighbours(r: int) -> int:
            row = 0
            for subset in itertools.combinations(cycle_ids[r], t):
                common = full
                for c in subset:
                    common &= rows_by_cycle[c]
                row |= common
            return row & ~(1 << r)

        return neighbours


_build_sn_table = functools.cache(_SnTable)


def _sn_table(n: int, cap: int | None = None, t: int = 0,
              rows: bool = False) -> _SnTable:
    """The table of S_n, built on first use, behind ``_check_walk``. A walk
    at t = 0 on a table that kept the per-cycle bitsets of a walk at t > 0
    is checked again with them, as a walk at t > 0 is: they are held too."""
    _check_walk(n, t, cap, rows)
    table = _build_sn_table(n)
    if t == 0 and table.rows_by_cycle is not None:
        _check_walk(n, 1, cap, rows)
    return table


def _fixed_point_family(n: int, keep, cap: int | None = None) -> PermFamily:
    """The permutations of S_n whose fixed-point bitmask satisfies ``keep``,
    which is called once per bitmask that some permutation has."""
    table = _sn_table(n, cap)
    perms = table.perms
    return PermFamily(n, (perms[r] for mask, rows in table.rows_by_fixed.items()
                          if keep(mask) for r in rows))


# cgroup v2, then v1; a container sees its own cgroup's files at the mount
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max",
                  "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@functools.cache
def _memory_limit() -> int:
    """Bytes this process may use: the smaller of physical memory and the
    cgroup memory limit, where one of ``_CGROUP_LIMITS`` can be read. Read
    once per process: the guard of every walk of S_n checks it."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as file:
                value = file.read().strip()
        except OSError:
            continue
        if value.isdigit():  # v2 writes "max" where there is no limit
            limit = min(limit, int(value))
    return limit


def _cycle_count(n: int) -> int:
    """The number of distinct cycles, fixed points included, on [n]."""
    return sum(math.comb(n, k) * math.factorial(k - 1) for k in range(1, n + 1))


DEFAULT_ENUMERATION_CAP = 7

ENUMERATION_CAP_ENV = "CYCLEINT_ENUMERATION_CAP"


def enumeration_cap(override: int | None = None) -> int:
    """Largest degree for which S_n may be fully materialized: the override
    if given, which must be an ``int`` (a ``bool`` is not), else the
    environment variable, else the default."""
    if override is not None:
        if not isinstance(override, int) or isinstance(override, bool):
            raise ValueError(f"enumeration cap must be an integer, got {override!r}")
        if override < 1:
            raise ValueError("enumeration cap must be positive")
        return override
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be positive, got {value}")
    return value


def _within_cap(n: int) -> bool:
    """Whether ``_check_walk`` admits degree n past the enumeration cap: what
    a cross-check asks before it enumerates."""
    return n <= enumeration_cap()


def _check_walk(n: int, t: int = 0, cap: int | None = None,
                rows: bool = False) -> None:
    """Refuse, before S_n is walked, in this order: a bad degree; a bad t;
    a degree beyond the enumeration cap; the bitsets of n! bits the walk
    holds beyond ``_memory_limit()``, which are n! adjacency rows with
    ``rows`` and, at t > 0, one per distinct cycle (about 5.7 GB at n = 9).
    So a bad degree is never reported as a cap error, nor a degree above the
    cap as a memory error."""
    parse_degree(n)
    _check_t(t)
    limit = enumeration_cap(cap)
    if n > limit:
        raise ValueError(f"degree {n} exceeds enumeration cap {limit}")
    held = {}
    if rows:
        held["the adjacency rows"] = math.factorial(n)
    if t > 0:
        held["the per-cycle bitsets"] = _cycle_count(n)
    need = sum(held.values()) * math.factorial(n) // 8
    have = _memory_limit()
    if need > have:
        raise ValueError(f"degree {n}: {' and '.join(held)} need {need} bytes, "
                         f"more than the {have} bytes this process may use")


def _check_t(t: int) -> int:
    """t, which must be an ``int`` (a ``bool`` is not) and at least 0. The
    one check of a caller's t."""
    if _check_int("t", t) < 0:
        raise ValueError(f"t must be at least 0, got {t}")
    return t


def build_intersection_graph(n: int, t: int,
                             cap: int | None = None) -> IntersectionGraph:
    """Materialize the graph; refuses degrees beyond the enumeration cap and,
    before S_n is walked, degrees whose n! rows of n! bits, with the
    per-cycle bitsets they are built from at t > 0, would not fit in memory."""
    table = _sn_table(n, cap, t, rows=True)
    adj = tuple(map(table.neighbours(t), range(len(table.perms))))
    return IntersectionGraph(n, t, table.perms, adj)


def is_maximal(family: PermFamily, t: int) -> bool:
    """No outside permutation t-cycle-intersects every member."""
    joinable = _joinable(family, t)
    if joinable is None:
        raise ValueError(f"family is not {t}-cycle-intersecting")
    return not joinable


def maximalize(family: PermFamily, t: int) -> PermFamily:
    """Extend to a maximal family, adding candidates in lexicographic order.

    Taking the lowest-ranked compatible permutation each time is a single
    lexicographic pass: the kept family only grows, so a permutation passed
    over stays incompatible.
    """
    cand = _joinable(family, t)
    if cand is None:
        raise ValueError(f"family is not {t}-cycle-intersecting")
    table = _sn_table(family.n)  # checked by _joinable
    neighbours = table.neighbours(t)
    members = list(family.members)
    while cand:
        v = (cand & -cand).bit_length() - 1
        members.append(table.perms[v])
        cand &= neighbours(v)
    return PermFamily(family.n, members)


def _joinable(family: PermFamily, t: int) -> int | None:
    """The outside rows sharing t cycles with every member, as a bitset, or
    None when the family is not t-cycle-intersecting."""
    table = _sn_table(family.n, t=t)
    neighbours = table.neighbours(t)
    ranks = [rank(p) for p in family]
    family_mask = sum(1 << r for r in ranks)
    cand = (1 << len(table.perms)) - 1
    for r in ranks:
        row = neighbours(r)
        # the family is t-cycle-intersecting iff each member's row, with the
        # member itself, holds every member
        if family_mask & ~(row | 1 << r):
            return None
        cand &= row
    return cand
