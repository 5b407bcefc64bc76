"""Twisted conjugacy classes, cyclic shifts and minimal-length machinery.

A twist enters everywhere as a bare index permutation ``pi`` on the
nodes of the group in hand: the class of ``w`` is the orbit of the
cyclic shifts ``w -> s_i w s_{pi(i)}``, which generate conjugation by
all of W composed with the diagram automorphism ``i -> pi(i)``.  Passing
the inverse permutation switches between the two twist directions.

Elements move here only as keys, by ``bytes.translate`` through the
group's reflection table (see ``weyl``); a class stores the keys of its
members and the minimal-length members themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .rootdata import Twist
from .weyl import EnumerationBudgetError, WeylElt, WeylGroup

__all__ = [
    "DeltaClass",
    "ClosureBudgetError",
    "FalsificationError",
    "pi_of",
    "restrict_pi",
    "inverse_pi",
    "shift_closure",
    "enumerate_delta_classes",
    "partition_memo",
    "class_of",
    "supp_delta",
    "compute_I_J_x",
    "ad_pi_on",
    "closure_min_check",
]

PiMap = dict[int, int]


class ClosureBudgetError(RuntimeError):
    """A cyclic-shift closure outgrew its configured element budget."""


class FalsificationError(RuntimeError):
    """A guaranteed-by-theory search failed; never swallowed."""


def pi_of(twist: Twist, direction: str = "delta") -> PiMap:
    """Index map for the requested twist direction on all nodes."""
    if direction == "delta":
        perm = twist.perm
    elif direction == "delta_inv":
        perm = twist.inverse_perm
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return {i: perm[i - 1] for i in range(1, len(twist.perm) + 1)}


def restrict_pi(pi: PiMap, nodes: Iterable[int]) -> PiMap:
    s = set(nodes)
    out = {i: pi[i] for i in s}
    if set(out.values()) != s:
        raise ValueError(f"twist does not stabilize node set {sorted(s)}")
    return out


def inverse_pi(pi: PiMap) -> PiMap:
    return {v: k for k, v in pi.items()}


def _shift_moves(W: WeylGroup, pi: PiMap) -> list[tuple[int, int, int, bytes, bytes]]:
    """Per letter j: (j, j - 1, pi(j) - 1, table of s_j, table of s_pi(j)).

    s_j w s_pi(j) = s_j s_beta w with beta = w(alpha_pi(j)): two translates of
    the key.  Its inverse is s_gamma s_pi(j) w^-1 with gamma = (s_pi(j) w^-1)
    (alpha_j), and the length changes by the signs of beta and gamma.
    """
    tables = W.reflection_table()
    simple = [tables[b] for b in W.identity.key]
    return [(j, j - 1, pi[j] - 1, simple[j - 1], simple[pi[j] - 1]) for j in sorted(pi)]


def _shift_walk(
    W: WeylGroup, pi: PiMap, w: WeylElt, budget: int
) -> Iterator[tuple[bytes, int, bytes, int]]:
    """Breadth-first walk of the non-length-increasing shifts from w.

    Yields (u, j, v, change) for every such shift v = s_j u s_pi(j) of every
    element u reached, as keys, with l(v) = l(u) + change (0 or -2).  Walks
    the keys of w and of w^-1 together (see ``_shift_moves``).  Raises
    ClosureBudgetError when the walk reaches more than ``budget`` elements.
    """
    tables, n = W.reflection_table(), W.nroots
    moves = _shift_moves(W, pi)
    seen = {w.key}
    frontier = [(w.key, W.invert(w).key)]
    while frontier:
        nxt = []
        for img, inv in frontier:
            for j, jj, pj, s_j, s_pj in moves:
                change = (1 if img[pj] > n else -1) + (1 if s_pj[inv[jj]] > n else -1)
                if change > 0:
                    continue
                new = img.translate(tables[img[pj]]).translate(s_j)
                yield img, j, new, change
                if new not in seen:
                    if len(seen) >= budget:
                        raise ClosureBudgetError(
                            f"shift closure exceeded budget {budget} elements"
                        )
                    seen.add(new)
                    mid = inv.translate(s_pj)
                    nxt.append((new, mid.translate(tables[mid[jj]])))
        frontier = nxt


def shift_closure(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    budget: int = 10 ** 6,
) -> dict[WeylElt, list[tuple[int, WeylElt]]]:
    """The elements reachable from w by non-length-increasing cyclic shifts.

    Returned as a graph: each element maps to its (j, s_j u s_pi(j)) for
    every letter j whose shift does not increase length, self-loops
    included.  Raises ClosureBudgetError beyond ``budget`` elements.
    """
    lengths = {w.key: w.length}
    edges: dict[bytes, list[tuple[int, bytes]]] = {w.key: []}
    for u, j, v, change in _shift_walk(W, pi, w, budget):
        edges[u].append((j, v))
        if v not in lengths:
            lengths[v] = lengths[u] + change
            edges[v] = []
    elts = {key: WeylElt(W, key, length) for key, length in lengths.items()}
    return {elts[key]: [(j, elts[v]) for j, v in out] for key, out in edges.items()}


@dataclass(frozen=True)
class DeltaClass:
    """One twisted conjugacy class with its minimal-length data."""

    group_key: tuple[str, int]
    direction: str
    pi: tuple[tuple[int, int], ...]
    minimal: tuple[WeylElt, ...]  # the minimal-length members, by canonical word
    cuspidal: bool
    keys: tuple[bytes, ...]  # every member's key, in enumeration order

    @property
    def representative(self) -> WeylElt:
        return self.minimal[0]

    @property
    def min_length(self) -> int:
        return self.minimal[0].length

    @property
    def size(self) -> int:
        return len(self.keys)

    def min_elements(self) -> list[WeylElt]:
        return list(self.minimal)

    @cached_property
    def members(self) -> frozenset[bytes]:
        """The member keys as a set, built on first use."""
        return frozenset(self.keys)

    def contains(self, w: WeylElt) -> bool:
        return w.group.system.key == self.group_key and w.key in self.members


def supp_delta(W: WeylGroup, pi: PiMap, w: WeylElt) -> frozenset[int]:
    """Smallest pi-stable node set supporting a reduced word of w."""
    s = set(W.support(w))
    while not {pi[i] for i in s} <= s:
        s |= {pi[i] for i in s}
    return frozenset(s)


def enumerate_delta_classes(
    W: WeylGroup,
    pi: PiMap,
    direction: str = "delta",
    budget: int = 10 ** 6,
) -> list[DeltaClass]:
    """Partition of the whole group W into pi-twisted classes.

    Classes come back sorted by (min_length, canonical word of the
    representative); the representative is the smallest minimal-length
    element in that order.  Member keys keep the enumeration order.

    Classes are the orbits of the shifts over the element keys, two
    translates per shift (see ``_shift_moves``).  A parabolic W_S is
    partitioned as its standalone group (``subsystems.sub_context``).
    """
    node_set = frozenset(W.system.nodes)
    pi = restrict_pi(pi, node_set)
    lengths = W.elements(budget=budget)
    tables = W.reflection_table()
    moves = [(s_j, pj) for _, _, pj, s_j, _ in _shift_moves(W, pi)]
    label: dict[bytes, int] = {}
    count = 0
    for start in lengths:
        if start in label:
            continue
        label[start] = count
        stack = [start]
        while stack:
            img = stack.pop()
            for s_j, pj in moves:
                new = img.translate(tables[img[pj]]).translate(s_j)
                if new not in label:
                    label[new] = count
                    stack.append(new)
        count += 1
    buckets: list[list[bytes]] = [[] for _ in range(count)]
    for key in lengths:
        buckets[label[key]].append(key)

    classes = []
    for keys in buckets:
        low = min(lengths[key] for key in keys)
        minimal = sorted(
            (WeylElt(W, key, low) for key in keys if lengths[key] == low),
            key=lambda w: w.word,
        )
        classes.append(
            DeltaClass(
                group_key=W.system.key,
                direction=direction,
                pi=tuple(sorted(pi.items())),
                minimal=tuple(minimal),
                cuspidal=(supp_delta(W, pi, minimal[0]) == node_set),
                keys=tuple(keys),
            )
        )
    classes.sort(key=lambda c: (c.min_length, c.representative.word))
    return classes


_PARTITION_MEMO: dict[tuple, list[DeltaClass]] = {}


def partition_memo(
    W: WeylGroup,
    pi: PiMap,
    direction: str = "delta",
    budget: int = 10 ** 6,
) -> list[DeltaClass]:
    """Memoized class partition, keyed on the group's system key.

    Equal keys mean equal Cartan matrices, hence equal root orderings and
    element encodings, so the entry is safe across group instances.  A
    standalone parabolic (``subsystems.sub_context``) is labelled by its
    Cartan submatrix alone, so node sets of different ambient groups with
    equal submatrices share one group and one partition.  A hit holding
    more than ``budget`` elements raises EnumerationBudgetError, as the
    enumeration itself would.
    """
    key = (W.system.key, tuple(sorted(restrict_pi(pi, W.system.nodes).items())), direction)
    classes = _PARTITION_MEMO.get(key)
    if classes is None:
        classes = _PARTITION_MEMO[key] = enumerate_delta_classes(W, pi, direction, budget)
    elif sum(c.size for c in classes) > budget:
        raise EnumerationBudgetError(f"parabolic enumeration exceeded budget {budget}")
    return classes


def class_of(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    direction: str = "delta",
    budget: int = 10 ** 6,
) -> DeltaClass:
    """The enumerated class of W containing ``w``."""
    for cls in partition_memo(W, pi, direction, budget):
        if cls.contains(w):
            return cls
    raise FalsificationError("element not found in any class (corrupt enumeration)")


def compute_I_J_x(
    W: WeylGroup,
    pi: PiMap,
    J: Iterable[int],
    x: WeylElt,
) -> frozenset[int]:
    """Greatest K inside J with Ad(x) pi (K) = K, by fixed-point descent.

    ``pi`` is the index map of the twist direction in force (the inverse
    twist for the tabulated reductions).  Well defined because the
    stable subsets are closed under union.
    """
    J = frozenset(J)
    pj = {pi[j] for j in J}
    if not W.is_min_coset_rep(x, pj):
        raise ValueError("x is not a minimal coset representative for the twisted J")
    K = set(J)
    while True:
        keep = {k for k in K if W.simple_image(x, pi[k]) in K}
        if keep == K:
            return frozenset(K)
        K = keep


def ad_pi_on(W: WeylGroup, pi: PiMap, x: WeylElt, K: Iterable[int]) -> PiMap:
    """The index map k -> index of x(alpha_{pi(k)}) on a stable K."""
    out = {}
    for k in K:
        out[k] = W.simple_image(x, pi[k])
        if out[k] is None:
            raise ValueError(f"Ad(x) pi does not stabilize node {k}")
    if set(out.values()) != set(out):
        raise ValueError("Ad(x) pi is not a permutation of K")
    return out


# -- minimality by shift closure ---------------------------------------------


def closure_min_check(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    budget: int = 10 ** 7,
) -> str:
    """Decide minimality of w in its twisted class via its shift closure.

    Returns "minimal" if the non-increasing closure holds no shorter
    element, "not_minimal" on the first strict descent, "budget" if the
    closure outgrew ``budget``.  Complete by the descent theorem for
    twisted classes: non-increasing cyclic shifts from any element reach
    a minimal one.

    The closure is the walk of ``shift_closure``, stopped at its first
    strict descent.

    Fast path: an element whose length equals the number of pi-orbits
    of its support is minimal outright, since every element of the
    class needs at least one letter per orbit.
    """
    orbits = set()
    for i in supp_delta(W, pi, w):
        orbit, j = {i}, pi[i]
        while j != i:
            orbit.add(j)
            j = pi[j]
        orbits.add(frozenset(orbit))
    if w.length == len(orbits):
        return "minimal"

    try:
        for _, _, _, change in _shift_walk(W, pi, w, budget):
            if change:
                return "not_minimal"
    except ClosureBudgetError:
        return "budget"
    return "minimal"
