"""Standalone contexts for parabolic sub-root-systems, and type identification.

A node subset S of an ambient system spans a root subsystem whose
simple roots are the alpha_s, s in S.  Re-rooting it as a standalone
RootSystem (Cartan submatrix, nodes renumbered 1..|S| in sorted order)
keeps the cost of its keys, tables and shift walks proportional to the
subsystem, not the ambient group.  It is the one representation of a
parabolic W_S: a class list's seeds of each proper W_S, the catalog's
inner classes (a placed row's map sigma is stated on its nodes) and
every smaller step of the constructive route live in it, and elements
cross between it and the ambient group only through ``SubContext``.
The renumbering keeps the order of the nodes, so canonical words, the
root order and class representatives correspond.

The standalone group is ``weyl.group_of`` the Cartan submatrix: equal
submatrices, and a named type of that matrix, are one group, with one
element encoding and one set of reflection tables.
``component_orbits`` groups the irreducible components into the orbits
of a twist, and ``identify_standard`` finds the Bourbaki name of an
irreducible subsystem together with a labelling isomorphism that carries
a given index permutation to the standard twist.  Its one caller,
``standard_type``, is the one answer to "which standard type is (W, pi),
and in which labels?", kept on the group per map: the minimality oracle
and the cuspidal tables (``conjugacy.closure_min_check``,
``cuspidal_representatives``), the fold of each orbit of components
(``conjugacy._folds``, which the minimality oracle, the seeds of
``conjugacy._cuspidal_seeds`` and the cyclic step of ``lifting`` read)
and the catalog rows of the constructive route (``lifting``) read it.  So a relabelled submatrix,
such as the D4 of E6 on nodes 2..5, is decided as its type is.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .rootdata import build_twist, candidate_types, cartan_matrix
from .weyl import WeylElt, WeylGroup, group_of

__all__ = [
    "SubContext",
    "sub_context",
    "components",
    "component_orbits",
    "identify_standard",
    "standard_type",
    "cartan_isos",
]


class SubContext:
    """Standalone Weyl group for a node subset of an ambient group.

    The group is ``group_of`` the Cartan submatrix: one group for every
    node subset, of any ambient group, with that submatrix.
    """

    def __init__(self, ambient: WeylGroup, nodes: frozenset[int]):
        self.ambient = ambient
        self.nodes = tuple(sorted(nodes))
        self.to_sub = {s: k + 1 for k, s in enumerate(self.nodes)}
        self.to_ambient = {k + 1: s for k, s in enumerate(self.nodes)}
        self.group = group_of(tuple(
            tuple(ambient.system.cartan[i - 1][j - 1] for j in self.nodes)
            for i in self.nodes
        ))
        self.system = self.group.system

    def word_to_sub(self, word: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.to_sub[i] for i in word)

    def word_to_ambient(self, word: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.to_ambient[i] for i in word)

    def pi_to_sub(self, pi: dict[int, int]) -> dict[int, int]:
        return {self.to_sub[i]: self.to_sub[pi[i]] for i in self.nodes}

    def element_to_sub(self, x: WeylElt) -> WeylElt:
        """An element of the ambient W_S as an element of the standalone group."""
        return self.group.from_word(self.word_to_sub(self.ambient.reduced_word(x)))

    def element_to_ambient(self, y: WeylElt) -> WeylElt:
        """An element of the standalone group as an element of the ambient W_S."""
        return self.ambient.from_word(self.word_to_ambient(self.group.reduced_word(y)))


_SUB_MEMO: dict[tuple, SubContext] = {}


def sub_context(ambient: WeylGroup, nodes: Iterable[int]) -> SubContext:
    key = (ambient.system.key, frozenset(nodes))
    if key not in _SUB_MEMO:
        _SUB_MEMO[key] = SubContext(ambient, frozenset(nodes))
    return _SUB_MEMO[key]


def components(W: WeylGroup) -> list[frozenset[int]]:
    """The node sets of the irreducible components of W, by smallest node."""
    nodes = W.system.nodes
    comps = []
    left = set(nodes)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in comp and W.system.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    stack.append(j)
        comps.append(frozenset(comp))
        left -= comp
    return sorted(comps, key=min)


def component_orbits(W: WeylGroup, pi: dict[int, int]) -> list[list[frozenset[int]]]:
    """The pi-orbits of the components of W, by smallest node.

    Each orbit lists its components C, pi(C), pi^2(C), ..., starting with
    the one that holds the orbit's smallest node.
    """
    orbits, done = [], set()
    for comp in components(W):
        if comp <= done:
            continue
        orbit = [comp]
        while (img := frozenset(pi[i] for i in orbit[-1])) != comp:
            orbit.append(img)
        done.update(*orbit)
        orbits.append(orbit)
    return orbits


def cartan_isos(
    source: Sequence[Sequence[int]],
    target: Sequence[Sequence[int]],
):
    """All bijections phi (as 1-based tuples) with target[phi(i)][phi(j)] = source[i][j]."""
    n = len(source)
    if len(target) != n:
        return
    assignment = [0] * n  # 0-based target index per source node, -1-free

    def backtrack(i: int, used: set[int]):
        if i == n:
            yield tuple(a + 1 for a in assignment)
            return
        for t in range(n):
            if t in used:
                continue
            ok = True
            for j in range(i):
                tj = assignment[j]
                if target[t][tj] != source[i][j] or target[tj][t] != source[j][i]:
                    ok = False
                    break
            if ok and target[t][t] == source[i][i]:
                assignment[i] = t
                used.add(t)
                yield from backtrack(i + 1, used)
                used.discard(t)

    yield from backtrack(0, set())


def _arm_lengths(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The sorted lengths of the arms of the diagram's first branch node, () without one.

    D_n and E_n share their sorted Cartan rows, and differ here: (1, 1, n - 3)
    against (1, 2, n - 4).  Equal for isomorphic Dynkin diagrams, which have at
    most one branch node.
    """
    n = len(cartan)
    links = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    branch = next((i for i in range(n) if len(links[i]) > 2), None)
    if branch is None:
        return ()
    arms = []
    for start in links[branch]:
        prev, node, length = branch, start, 1
        while len(links[node]) == 2:
            prev, node = node, next(j for j in links[node] if j != prev)
            length += 1
        arms.append(length)
    return tuple(sorted(arms))


def identify_standard(
    cartan: Sequence[Sequence[int]],
    sigma: dict[int, int],
) -> Optional[tuple[str, int, int, tuple[int, ...]]]:
    """Match an irreducible Cartan matrix plus index permutation to a name.

    Returns (family, rank, twist_order, phi) where phi, a ``cartan_isos``
    tuple, holds the Bourbaki node of each source node so that
    phi . sigma . phi^{-1} is the standard twist of that order, or None
    when nothing matches.  The first type in family order that matches
    wins: B2 over the transposed C2 labelling, so Suzuki twists land on the
    standard ('B', 2, 2) name and the named C2 is B2 through its swap, and
    A3 over D3.  A type is searched for a labelling only when its sorted
    Cartan rows and columns (F4 has C4's rows and B4's columns) and its
    arm lengths (``_arm_lengths``) are those of the matrix.
    """
    n = len(cartan)
    order = 1
    cur = dict(sigma)
    ident = {i: i for i in sigma}
    while cur != ident:
        cur = {i: sigma[cur[i]] for i in cur}
        order += 1
    rows, cols = sorted(map(sorted, cartan)), sorted(map(sorted, zip(*cartan)))  # kept by isomorphisms
    arms = None
    for family, rank in candidate_types(n):
        target = cartan_matrix(family, rank)
        if sorted(map(sorted, target)) != rows or sorted(map(sorted, zip(*target))) != cols:
            continue
        if arms is None:
            arms = _arm_lengths(cartan)
        if _arm_lengths(target) != arms:
            continue
        try:
            std = build_twist(family, rank, order)
        except ValueError:
            continue
        if target == cartan and all(sigma[i] == std(i) for i in sigma):
            # The identity, the least labelling, which the search yields first.
            return family, rank, order, tuple(range(1, n + 1))
        for phi in cartan_isos(cartan, target):
            if all(phi[sigma[i] - 1] == std(phi[i - 1]) for i in sigma):
                return family, rank, order, phi
    return None


def standard_type(W: WeylGroup, pi: dict[int, int]) -> Optional[tuple[str, int, int, Optional[tuple[int, ...]]]]:
    """(family, rank, order, phi) of ``identify_standard`` for W under pi, or None.

    phi holds the standard node of each of W's nodes 1..rank, and is None
    for the identity labelling, so that a word is read without mapping.
    Resolved once per group and map, and kept on W as a tuple that no
    caller can change.  None for a reducible group, and for a twist of no
    standard order.
    """
    images = tuple(map(pi.__getitem__, W.system.nodes))
    if images not in W._types:
        named = identify_standard(W.system.cartan, pi)
        if named is not None and named[3] == W.system.nodes:
            named = (*named[:3], None)
        W._types[images] = named
    return W._types[images]
