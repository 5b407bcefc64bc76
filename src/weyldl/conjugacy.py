"""Twisted conjugacy classes, cyclic shifts and minimal-length machinery.

A twist enters everywhere as a bare index permutation ``pi`` on the
nodes of the group in hand: the class of ``w`` is the orbit of the
cyclic shifts ``w -> s_i w s_{pi(i)}``, which generate conjugation by
all of W composed with the diagram automorphism ``i -> pi(i)``.  Passing
the inverse permutation switches between the two twist directions.  A
class is keyed on pi alone: ``DeltaClass.pi`` is its only statement of
the twist, and ``direction_of`` names it on a certificate's wire.

Elements move here only as keys, by ``bytes.translate`` through the
group's reflection table (see ``weyl``); a class is its minimal-length
members.

Nothing here enumerates a group: classes come from minimal elements and
their levels (``cuspidal_representatives``, ``minimal_set``, ``class_of``,
``class_list``); the partition of the whole group is the tests' oracle.
A parabolic W_J's seeds and inner classes live in its standalone group
(``subsystems.sub_context``), and cuspidal classes, of W or of a W_J,
come from the levels of the cuspidal seeds alone (``_cuspidal_levels``,
read by ``cuspidal_representatives`` and ``class_list``).  This module answers class
questions only: a catalog row's reduction step is ``casetables.place_row``.

Minimality (``closure_min_check``), the cuspidal tables and the seeds
read the group's type from ``subsystems.standard_type``: the one answer
to "which standard type is (W, pi), and in which labels?", resolved once
per group and map.  A Coxeter-system isomorphism keeps length and
twisted classes, so the type decides in any labels.  An element is
minimal exactly when its length is the least length of its class, which
``_closed_form`` reads off a reduced word with no walk and nothing kept:
off the signed cycle type (``_least_length``) when the resolver names A,
B, C or D under the identity, or A or D under the standard twist of
order 2; and for a type of ``_SEED_TABLE`` (G2, 2G2, 2B2, 3D4, F4, 2F4,
E6, 2E6, E7 or E8) off the characteristic polynomial P of w sigma
(``_charpoly``, which no labelling changes).  An elliptic w, P(1) != 0
(``_elliptic``), has the length of the seed with P (``_seed_length``);
any other w has the length that the seeds of the proper sigma-stable
parabolics give P and m, the number of positive roots that w sigma
negates (``_parabolic_lengths``, one table per type and process).  The
seed words are the one table of these types.  Where the twist swaps long
and short roots (2B2, 2G2, 2F4), sigma rescales them by powers of sqrt d
(``_sigma``), and P is read in exact ints off sqrt(d) w sigma.  A group
that the resolver does not name, reducible or under a twist of no
standard order, is read one fold per pi-orbit of components
(``_folds``).  Shift walks list classes, not minimality: every minimal
level, and every step down of ``class_of``, is walked once per process
by ``_verdict`` and kept in ``_MINIMALITY_MEMO``, keyed on the system
key (the Cartan matrix) and pi, never on a group object, so groups built
apart share it.  It keeps one of two values for an element: its minimal
level, a ``_Level`` record held under the key of each member, once a
walk has ended without a descent; or the key of the first shorter
element a walk from it met.  ``minimal_level`` spells a level's record
in place when asked.
A cuspidal class is named by a word of ``_CLASSICAL_TABLE`` (no walk) or
``_SEED_TABLE`` (its level left unspelled), when the resolver names the
group in its own labels, or else by the first member of its spelled
level (``cuspidal_representatives``).  The memo
holds 649 entries and 213 levels once the 180 classes of rank <= 4 are
listed, and 670 and 221 once both routes have certified them.
Every shift walk has the one budget ``WALK_BUDGET``; a walk past it
raises ``ClosureBudgetError`` and keeps nothing.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Container, Iterable, Iterator, Optional, Sequence

from .rootdata import Frozen, Twist, build_twist
from .subsystems import SubContext, component_orbits, standard_type, sub_context
from .weyl import WeylElt, WeylGroup, weyl_group

__all__ = [
    "DeltaClass",
    "ClosureBudgetError",
    "WALK_BUDGET",
    "FalsificationError",
    "pi_of",
    "direction_of",
    "restrict_pi",
    "inverse_pi",
    "power_pi",
    "shift_closure",
    "minimal_set",
    "class_of",
    "class_list",
    "partition_memo",
    "pi_closure",
    "supp_delta",
    "closure_min_check",
    "minimal_level",
    "cuspidal_representatives",
]

PiMap = dict[int, int]

# Most elements any cyclic-shift walk may reach before it raises
# ClosureBudgetError.  The catalog replay's largest walk, a seed level of E6,
# reaches 180 elements; the tests' walks of the E8 levels reach 16,374.
WALK_BUDGET = 10 ** 6


class ClosureBudgetError(RuntimeError):
    """A cyclic-shift walk reached more than ``WALK_BUDGET`` elements."""


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


def direction_of(twist: Twist, pi: PiMap) -> str:
    """The direction whose ``pi_of`` map is pi: the inverse of ``pi_of``.

    "delta" whenever pi is the twist's own map, so for both maps of a twist
    of order 1 or 2; "delta_inv" for the inverse map alone (3D4).  Raises
    ValueError for a map of neither direction.
    """
    for direction in ("delta", "delta_inv"):
        if pi == pi_of(twist, direction):
            return direction
    raise ValueError(f"index map {sorted(pi.items())} is not a map of the twist {twist.perm}")


def restrict_pi(pi: PiMap, nodes: Iterable[int]) -> PiMap:
    s = set(nodes)
    out = {i: pi[i] for i in s}
    if set(out.values()) != s:
        raise ValueError(f"twist does not stabilize node set {sorted(s)}")
    return out


def inverse_pi(pi: PiMap) -> PiMap:
    return {v: k for k, v in pi.items()}


def power_pi(pi: PiMap, r: int) -> PiMap:
    """The r-th power of pi, r >= 0."""
    out = {i: i for i in pi}
    for _ in range(r):
        out = {i: pi[j] for i, j in out.items()}
    return out


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
    W: WeylGroup, pi: PiMap, w: WeylElt
) -> Iterator[tuple[bytes, bytes, int, bytes, int]]:
    """Breadth-first walk of the non-length-increasing shifts from w.

    Yields (u, u_inv, j, v, change) for every such shift v = s_j u s_pi(j)
    of every element u reached, as keys, with u_inv the key of u^-1 and
    l(v) = l(u) + change (0 or -2).  Walks the keys of w and of w^-1
    together (see ``_shift_moves``).  Raises ClosureBudgetError when the
    walk reaches more than ``WALK_BUDGET`` elements, read once per walk.
    w^-1 is ``WeylGroup.invert``'s, which reads the reduced word that w
    keeps and peels its key only when it keeps none.
    """
    tables, n, budget = W.reflection_table(), W.nroots, WALK_BUDGET
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
                yield img, inv, j, new, change
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
) -> dict[WeylElt, list[tuple[int, WeylElt]]]:
    """The elements reachable from w by non-length-increasing cyclic shifts.

    Returned as a graph: each element maps to its (j, s_j u s_pi(j)) for
    every letter j whose shift does not increase length, self-loops
    included.  Raises ClosureBudgetError beyond ``WALK_BUDGET`` elements.
    """
    lengths = {w.key: w.length}
    edges: dict[bytes, list[tuple[int, bytes]]] = {w.key: []}
    for u, _, j, v, change in _shift_walk(W, pi, w):
        edges[u].append((j, v))
        if v not in lengths:
            lengths[v] = lengths[u] + change
            edges[v] = []
    elts = {key: WeylElt(W, key, length) for key, length in lengths.items()}
    return {elts[key]: [(j, elts[v]) for j, v in out] for key, out in edges.items()}


_setattr = object.__setattr__


class DeltaClass(Frozen):
    """One twisted conjugacy class, given by its minimal-length members."""

    __slots__ = ("group_key", "pi", "minimal", "cuspidal")

    def __init__(
        self,
        group_key: tuple[tuple[int, ...], ...],  # the system key: the Cartan matrix
        pi: tuple[tuple[int, int], ...],  # the twist's index map, as sorted items
        minimal: tuple[WeylElt, ...],  # the minimal-length members, by canonical word
        cuspidal: bool,
    ):
        _setattr(self, "group_key", group_key)
        _setattr(self, "pi", pi)
        _setattr(self, "minimal", minimal)
        _setattr(self, "cuspidal", cuspidal)

    @property
    def representative(self) -> WeylElt:
        return self.minimal[0]

    @property
    def min_length(self) -> int:
        return self.minimal[0].length


def _pi_orbits(pi: PiMap, nodes: Iterable[int]) -> list[frozenset[int]]:
    """The pi-orbits of a pi-stable node set, by smallest node."""
    orbits, done = [], set()
    for i in sorted(nodes):
        if i not in done:
            orbit, j = {i}, pi[i]
            while j != i:
                orbit.add(j)
                j = pi[j]
            done |= orbit
            orbits.append(frozenset(orbit))
    return orbits


def pi_closure(pi: PiMap, letters: Iterable[int]) -> frozenset[int]:
    """Smallest pi-stable node set holding ``letters``."""
    s = set(letters)
    while not {pi[i] for i in s} <= s:
        s |= {pi[i] for i in s}
    return frozenset(s)


def supp_delta(W: WeylGroup, pi: PiMap, w: WeylElt) -> frozenset[int]:
    """Smallest pi-stable node set supporting a reduced word of w."""
    return pi_closure(pi, W.support(w))


# -- minimal levels by shift walks, minimality in closed form ---------------


class _Level:
    """A minimal level as ``_MINIMALITY_MEMO`` keeps it: one record under the key of each member.

    ``inverse`` maps each member's key to the key of its inverse, as the
    walk yields them.  ``spelled`` is None until ``minimal_level`` spells
    the level, and then holds the members by canonical word.
    """

    __slots__ = ("inverse", "spelled")

    def __init__(self, inverse: dict[bytes, bytes]):
        self.inverse = inverse
        self.spelled: Optional[tuple[WeylElt, ...]] = None


# Keyed like ``_CUSPIDAL_MEMO`` on the system key and pi: element key -> its
# minimal level, one ``_Level`` shared by every member, or the key of the
# first shorter element a walk from it met, which is 2 shorter.  Read by the
# level listing (``minimal_level``, ``_cuspidal_levels``, ``class_of``), never
# by ``closure_min_check``.
_MINIMALITY_MEMO: dict[tuple, dict[bytes, _Level | bytes]] = {}


def _verdicts(W: WeylGroup, pi: PiMap) -> dict[bytes, _Level | bytes]:
    """The minimality verdicts known for the pi-classes of W."""
    return _MINIMALITY_MEMO.setdefault((W.system.key, tuple(sorted(pi.items()))), {})


def _verdict(W: WeylGroup, pi: PiMap, w: WeylElt) -> _Level | WeylElt:
    """The minimal level of w, or the first element shorter than w on the walk from w.

    One walk of ``shift_closure`` from w, stopped at its first strict
    descent, answers, and the answer is kept in ``_MINIMALITY_MEMO``.  A
    walk that ends without a descent proves every element it reached
    minimal, and the walk from any of them reaches the same level, so the
    level goes in under the key of each member; a descent goes in under the
    key of w alone.  A later call answers from the memo, with no walk.
    Raises ClosureBudgetError beyond ``WALK_BUDGET`` elements, and keeps
    nothing then.
    """
    verdicts = _verdicts(W, pi)
    held = verdicts.get(w.key)
    if held is None:
        # Every member but the identity has a left descent, hence a shift that
        # does not lengthen it, so a walk without a descent yields each member
        # as u, with the key of u^-1.
        inverse = {}
        for u, u_inv, _, v, change in _shift_walk(W, pi, w):
            if change:
                held = verdicts[w.key] = v
                break
            inverse[u] = u_inv
        else:
            # An empty walk: w is the identity and every shift lengthens it.
            held = _Level(inverse or {w.key: w.key})
            verdicts.update(dict.fromkeys(held.inverse, held))
    return held if type(held) is _Level else WeylElt(W, held, w.length - 2)


def closure_min_check(W: WeylGroup, pi: PiMap, w: WeylElt) -> str:
    """Decide minimality of w in its twisted class: "minimal" or "not_minimal".

    w is minimal exactly when l(w) is the least length of its class, which
    is read off a reduced word of w (``WeylGroup.reduced_word``) with no
    walk and nothing kept.  When ``standard_type`` names (W, pi), in any
    labels, ``_closed_form`` reads it in that type.  Any other group,
    reducible or under a twist of no standard order, sums the least
    lengths of the folds of w, one per pi-orbit of components (``_folds``;
    Geck-Pfeiffer 2000, 3.2; He-Nie 2012, Thm 1.1), each read by
    ``_closed_form`` in its own type.
    """
    named = standard_type(W, pi)
    word = W.reduced_word(w)
    if named is not None:
        least = _closed_form(W, pi, named, word)
    else:
        least = sum(fold.least(fold.word(word)) for fold in _folds(W, pi))
    return "minimal" if w.length == least else "not_minimal"


def _closed_form(W: WeylGroup, pi: PiMap, named: tuple, word: Sequence[int]) -> int:
    """The least length in the pi-class of the product of ``word``, read off its type.

    ``named`` is ``standard_type(W, pi)``.  The signed cycle type for A, B,
    C or D with pi of order 1, or A or D with pi of order 2
    (``_least_length``, on ``word`` mapped through the labelling).  Every
    other named type has a ``_SEED_TABLE`` row, and reads the
    characteristic polynomial P of w sigma (``_charpoly``): when w is
    elliptic, P(1) != 0 (``_elliptic``), the length of the seed with P
    (``_seed_length``); otherwise the length that the seeds of the proper
    sigma-stable parabolics give P and m, the number of positive roots
    that w sigma negates (``_negated``, ``_parabolic_length``).  ``word``
    need not be reduced.
    """
    family, rank, order, phi = named
    if order == 1 and family in "ABCD" or order == 2 and family in "AD":
        if phi is not None:
            word = [phi[i - 1] for i in word]
        return _least_length(family, rank, order, word)
    sigma = _sigma(W, pi)
    P = _charpoly(W, word, sigma)
    if _elliptic(P, sigma[1]):
        return _seed_length(family, rank, order, P, len(word))
    return _parabolic_length(family, rank, order, P, _negated(W, word, sigma))


class _Fold:
    """One pi-orbit of components C, pi(C), ..., pi^(r-1)(C) of W, folded onto C.

    ``sub`` is C's standalone group, ``pi`` the map pi^r on its nodes and
    ``named`` their ``standard_type``.  ``letters`` maps each node i of the
    orbit on pi^j(C) to (k, b): its segment k = (r - j) mod r of the fold,
    and b, the node pi^k(i) of C in ``sub``'s labels.
    """

    __slots__ = ("sub", "pi", "named", "letters")

    def __init__(self, sub: SubContext, pi: PiMap, letters: dict[int, tuple[int, int]]):
        self.sub, self.pi, self.letters = sub, pi, letters
        self.named = standard_type(sub.group, pi)
        if self.named is None:
            raise FalsificationError(
                f"cannot identify the component {list(sub.nodes)} of {sub.ambient.system.family}")

    def word(self, word: Iterable[int]) -> list[int]:
        """The fold f = w_1 sigma(w_r) sigma^2(w_(r-1)) ... sigma^(r-1)(w_2) of the product of ``word``.

        w_j is the part of the product on pi^(j-1)(C), spelled by the
        letters of ``word`` there, in order.  f is a word of ``sub``, reduced
        or not, and (w sigma)^r is f sigma^r on C, so the twisted class of w
        is read off the pi^r-class of f.
        """
        picked = [self.letters[i] for i in word if i in self.letters]
        picked.sort(key=itemgetter(0))  # stable: each segment keeps its order
        return [b for _, b in picked]

    def least(self, word: Sequence[int]) -> int:
        """``_closed_form``'s least length in the pi^r-class of the product of ``word``, a word of ``sub``."""
        return _closed_form(self.sub.group, self.pi, self.named, word)


_FOLDS: dict[tuple, tuple[_Fold, ...]] = {}


def _folds(W: WeylGroup, pi: PiMap) -> tuple[_Fold, ...]:
    """The pi-orbits of components of W (``component_orbits``), each folded onto its first.

    Every class of W meets the elements that are 1 off the first component
    of each orbit, and its least length is the sum over the orbits of the
    least length of the pi^r-class of each fold.  Kept per system key (the
    Cartan matrix) and pi, with each orbit's standalone group, pi^r and
    their ``standard_type``.
    """
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _FOLDS:
        folds = []
        for orbit in component_orbits(W, pi):
            r = len(orbit)
            sub = sub_context(W, orbit[0])
            letters = {}
            for j, comp in enumerate(orbit):
                k = (r - j) % r
                back = power_pi(pi, k)
                letters.update((i, (k, sub.to_sub[back[i]])) for i in comp)
            folds.append(_Fold(sub, sub.pi_to_sub(power_pi(pi, r)), letters))
        _FOLDS[key] = tuple(folds)
    return _FOLDS[key]


_SIGMAS: dict[tuple, tuple[bytes, int, tuple[int, ...]]] = {}


def _sigma(W: WeylGroup, pi: PiMap) -> tuple[bytes, int, tuple[int, ...]]:
    """sigma(alpha_j) = lambda_j alpha_pi(j), lambda_j = |alpha_j| / |alpha_pi(j)|, on the root bytes of W.

    sigma is orthogonal, and sigma s_j sigma^-1 = s_pi(j).  Returns a
    translate table, d and each simple root's scale: d when alpha_j is long
    and pi swaps root lengths, else 1.  When pi keeps the Cartan matrix,
    every lambda_j is 1 and sigma permutes the roots: the table maps the
    byte of beta to that of sigma(beta), d is 1 and every scale is 1.
    Otherwise W must be irreducible and pi must swap its long and short
    roots (2B2, 2G2, 2F4): d is the ratio of their squared lengths (2, 3,
    2), sigma(beta) is sqrt(d) beta' for a long root beta and beta' /
    sqrt(d) for a short one, beta' a root of the other length, and the
    table maps the byte of beta to that of beta'.  Lengths are read in
    ints off the Cartan matrix: alpha_j is long when its column holds -d,
    or when a simple bond joins it to a long one.  sqrt(d) sigma
    multiplies alpha_j by its scale, so it maps a short root to a root and
    a long one to d times a root.  Memoized on the system key and pi; the
    identity map reads no root.
    """
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _SIGMAS:
        cartan, n, nodes = W.system.cartan, W.nroots, W.system.nodes
        table, d, scale = bytearray(range(256)), 1, dict.fromkeys(nodes, 1)
        if any(cartan[pi[i] - 1][pi[j] - 1] != cartan[i - 1][j - 1] for i in nodes for j in nodes):
            d = -min(map(min, cartan))
            long = {j for j in nodes if any(row[j - 1] == -d for row in cartan)}
            while grown := {j for i in long for j in nodes
                            if j not in long and cartan[i - 1][j - 1] == cartan[j - 1][i - 1] == -1}:
                long |= grown
            scale.update(dict.fromkeys(long, d))
        if d > 1 or any(i != j for i, j in pi.items()):
            index = {root: q for q, root in enumerate(W.roots)}
            for p, root in enumerate(W.roots):
                image = [0] * W.rank
                for j, c in enumerate(root, 1):
                    image[pi[j] - 1] = c * scale[j]
                image = tuple(image)
                if image not in index:  # d beta' for a long beta
                    image = tuple(c // d for c in image)
                q = index[image]
                table[n + p + 1], table[n - p - 1] = n + q + 1, n - q - 1
        _SIGMAS[key] = bytes(table), d, tuple(scale.values())
    return _SIGMAS[key]


def _root_table(W: WeylGroup, word: Sequence[int], sigma: tuple[bytes, int, tuple[int, ...]]) -> bytes:
    """w sigma as a translate table of root bytes, up to powers of sqrt d, for w the product of ``word``.

    ``_sigma``'s table and one more translate per letter; ``word`` need not
    be reduced.
    """
    tables, simple, perm = W.reflection_table(), W.identity.key, sigma[0]
    for i in reversed(word):  # the last letter acts first, after sigma
        perm = perm.translate(tables[simple[i - 1]])
    return perm


def _charpoly(
    W: WeylGroup, word: Sequence[int], sigma: tuple[bytes, int, tuple[int, ...]]
) -> tuple[int, ...]:
    """b_1, ..., b_n of det(t - M) = t^n + b_1 t^(n-1) + ... + b_n, for M = sqrt(d) w sigma.

    w is the product of ``word``, reduced or not, and ``sigma`` is
    ``_sigma(W, pi)``: its table, d and scales.  M maps alpha_j to its
    scale times w(alpha_pi(j)), so it is an integer matrix on the root
    lattice, and P of w sigma, det(t - w sigma), has coefficients b_k /
    sqrt(d)^k; when pi keeps the Cartan matrix, d is 1 and M is w sigma.
    P is a class invariant: x w sigma(x)^-1 sigma = x (w sigma) x^-1, and a
    Cartan isomorphism, such as ``standard_type``'s labelling, does not
    change it.  With w sigma as a translate table of root bytes
    (``_root_table``), the key of (w sigma)^k, its images of the simple
    roots up to powers of sqrt d, is one translate of the key of (w
    sigma)^(k-1).  Where sigma swaps root
    lengths, so does each step, as w keeps them, and the powers of sqrt d
    along the walk of alpha_i cancel in pairs: M^k (alpha_i) is sqrt(d)^k
    times the root at byte i of the key, times sqrt d for a long alpha_i
    and over it for a short one when k is odd.  So tr(M^k) is d^(k // 2)
    times the sum over i of coordinate i of that root, times alpha_i's
    scale when k is odd.  Newton's identities, k b_k = -(b_(k-1) tr(M) +
    ... + b_0 tr(M^k)), give exact ints.
    """
    n, roots, (_, d, scale) = W.nroots, W.roots, sigma
    perm = _root_table(W, word, sigma)
    key, traces, c, even = W.identity.key.translate(perm), [], [1], (1,) * W.rank
    for k in range(1, W.rank + 1):
        f = scale if k % 2 else even
        # Byte b is the root +-roots[|b - n| - 1], + when b > n.
        traces.append(d ** (k // 2) * sum([(roots[b - n - 1][i] if b > n else -roots[n - b - 1][i]) * f[i]
                                           for i, b in enumerate(key)]))
        c.append(-sum(c[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
        key = key.translate(perm)
    return tuple(c[1:])


def _negated(W: WeylGroup, word: Sequence[int], sigma: tuple[bytes, int, tuple[int, ...]]) -> int:
    """m, the number of positive roots beta with w sigma(beta) = -beta, for w the product of ``word``.

    A class invariant, like P: x w sigma x^-1 negates the images under x
    of the roots that w sigma negates.  Read off ``_root_table``, where
    the byte of -beta is 2n minus that of beta.  0 where sigma swaps root
    lengths, as w sigma then maps each root to a multiple of one of the
    other length.
    """
    n, perm = W.nroots, _root_table(W, word, sigma)
    return sum(perm[n + 1 + p] == n - 1 - p for p in range(n))


def _elliptic(P: tuple[int, ...], d: int) -> bool:
    """Whether w sigma fixes no nonzero vector, P(1) != 0, for P = ``_charpoly`` of w and d = ``_sigma``'s.

    P(1) is the sum of b_k d^(-k/2), and d^n P(1) = A + B sqrt(d) with A
    and B the ints summed below, over the even and the odd k; when d is not
    1 it is not a square, so P(1) is 0 exactly when A and B both are.
    """
    if d == 1:
        return 1 + sum(P) != 0
    halves, n = [0, 0], len(P)
    for k, b in enumerate((1, *P)):
        halves[k % 2] += b * d ** (n - (k + 1) // 2)
    return any(halves)


@cache
def _seed_charpoly(family: str, rank: int, order: int, seed: tuple[int, ...]) -> tuple[int, ...]:
    """``_charpoly`` of a seed of ``_standard_seeds``, in its named group under its standard twist."""
    W = weyl_group(family, rank)
    return _charpoly(W, seed, _sigma(W, pi_of(build_twist(family, rank, order))))


def _name(family: str, rank: int, order: int) -> str:
    return f"{'' if order == 1 else order}{family}{rank}"


def _seed_length(family: str, rank: int, order: int, P: tuple[int, ...], most: int) -> int:
    """The length of the seeds of a seeded type with polynomial P: the least length of their class.

    The twisted classes of (family, rank, order) with P(1) != 0 are its
    cuspidal classes, one seed each, and a seed is a minimal word of its
    class (``_SEED_TABLE``).  Over every seeded type, each P that a seed
    has goes with one length (the tests check this).  Only seeds of at
    most ``most`` letters, the length of a word of the element asked about,
    are read, those of ``most`` letters first, and each seed's P is
    computed once per process, on first need (``_seed_charpoly``).  Raises
    FalsificationError when none of them has P.
    """
    seeds = _standard_seeds(family, rank, order)
    for seed in [s for s in seeds if len(s) == most] + [s for s in seeds if len(s) < most]:
        if _seed_charpoly(family, rank, order, seed) == P:
            return len(seed)
    raise FalsificationError(
        f"no cuspidal seed of {_name(family, rank, order)} with at most {most} letters has polynomial {P}")


def _parabolic_length(family: str, rank: int, order: int, P: tuple[int, ...], m: int) -> int:
    """The least length of the non-elliptic classes of a seeded type with polynomial P and m negated roots.

    Read off ``_parabolic_lengths``.  Raises FalsificationError when no
    parabolic seed has the key (P, m).
    """
    least = _parabolic_lengths(family, rank, order).get((P, m))
    if least is None:
        raise FalsificationError(
            f"no parabolic seed of {_name(family, rank, order)} has polynomial {P} and {m} negated roots")
    return least


@cache
def _parabolic_lengths(family: str, rank: int, order: int) -> dict[tuple[tuple[int, ...], int], int]:
    """(P, m) -> length, over the seeds of the proper sigma-stable parabolics of a seeded type.

    Built once per process, in the named group under its standard twist,
    from each word of ``_parabolic_seeds``: the key of its product w is P
    of w sigma (``_charpoly``) and m, the number of positive roots that w
    sigma negates (``_negated``), both class invariants.  A class with
    P(1) = 0 is not cuspidal, so it meets some proper W_J in a cuspidal
    class of W_J, whose seed is minimal in W (Geck-Pfeiffer 2000, 3.2;
    He-Nie 2012): every such class holds a seed of its least length, and
    when each key has one length over the seeds, the key decides.  P alone
    does not: F4 has a P with seeds of lengths 2 and 4.  Raises
    FalsificationError when a key has two lengths.
    """
    W = weyl_group(family, rank)
    pi = pi_of(build_twist(family, rank, order))
    sigma = _sigma(W, pi)
    lengths: dict[tuple[tuple[int, ...], int], int] = {}
    for word in _parabolic_seeds(W, pi):
        key = (_charpoly(W, word, sigma), _negated(W, word, sigma))
        if lengths.setdefault(key, len(word)) != len(word):
            raise FalsificationError(f"parabolic seeds of {_name(family, rank, order)} of lengths "
                                     f"{lengths[key]} and {len(word)} share the key {key}")
    return lengths


def minimal_level(W: WeylGroup, pi: PiMap, w: WeylElt) -> tuple[WeylElt, ...]:
    """The elements reached from w by length-preserving cyclic shifts, by canonical word.

    For a minimal w of a cuspidal class this is the whole minimal level of
    the class (Geck-Pfeiffer 2000, Thm 3.2.7).  The tests check it against
    enumeration, walking from the last minimal element of each class, on
    every cuspidal class, in both twist directions, of the twisted groups
    of rank <= 6 and of five reducible twisted groups whose twist permutes
    components (304 classes).  Raises FalsificationError when a shift
    descends, so w was not minimal (He-Nie, Duke Math. J. 161 (2012), Thm
    1.1), and ClosureBudgetError beyond ``WALK_BUDGET`` elements.

    The level is ``_verdict``'s record, walked once per process.  The
    first call that asks for it spells each member's canonical word once,
    off the key of its inverse, and keeps the spelled tuple on the record:
    a later call from any member, from any group of the same Cartan
    matrix, returns the same tuple without a walk.
    """
    level = _verdict(W, pi, w)
    if type(level) is not _Level:
        raise FalsificationError(
            f"{w.word} is not minimal in its twisted class: a cyclic shift shortens it"
        )
    if level.spelled is None:
        members = [WeylElt(W, key, w.length) for key in level.inverse]
        for u in members:
            u._word = tuple(W._peel(level.inverse[u.key]))
        level.spelled = tuple(sorted(members, key=lambda u: u._word))
    return level.spelled


# -- cuspidal classes without enumeration ------------------------------------


# One minimal word per cuspidal class of G2, 2G2, 2B2, 3D4, F4, 2F4, E6, 2E6, E7
# and E8, in Bourbaki labels under the standard twist (delta direction): the
# canonical representatives, in (length, word) order.  Those through rank 6 were
# generated once by enumeration; those of E7 and E8 are the first members of the
# spelled levels of the catalog's products v w1, one product per characteristic
# polynomial.  They seed the walks of ``_cuspidal_levels``, are
# ``cuspidal_representatives``' words for these types, and give the least length
# of an elliptic element's class (``_seed_length``), in the Suzuki and Ree types
# 2B2, 2G2 and 2F4 too, and, as the seeds of parabolics, that of every other
# class (``_parabolic_lengths``); the classical types' seeds are built from the signed
# cycle type (``_standard_seeds``), and their canonical representatives through
# rank 7 are ``_CLASSICAL_TABLE``.
_SEED_TABLE: dict[tuple[str, int, int], tuple[str, ...]] = {
    ("G", 2, 1): ("12", "1212", "121212"),
    ("G", 2, 2): ("1", "121", "12121"),
    ("B", 2, 2): ("1", "121"),
    ("D", 4, 3): ("12", "1213", "121321", "12134213"),
    ("F", 4, 1): (
        "1234", "123234", "12132343", "1213213234", "1232343234", "121321343234",
        "12132132343234", "1213213432132343", "121321323432132343213234",
    ),
    ("F", 4, 2): (
        "12", "1232", "121321", "12132132", "1213214321", "121321324321",
        "121321324321324321",
    ),
    ("E", 6, 1): (
        "123456", "12342546", "123142345465", "12342345423456",
        "123142314542314565423456",
    ),
    ("E", 6, 2): (
        "1234", "123143", "12343543", "123142315431", "12314231435431",
        "1231423145423143", "1231431543165431", "123142315423165431",
        "123142314354231435426542314354265431",
    ),
    ("E", 7, 1): (
        "1234567", "123425467", "12342546547", "1231423454657", "123423454234567",
        "12342345423456576", "123142314354234654765", "12314231435423143546576",
        "1231423145423145654234567", "1234234542345654234567654234567",
        "123142345423145654234567654234567",
        "123142314354231435426542314354265431765423143542654317654234567",
    ),
    ("E", 8, 1): (
        "12345678", "1234254678", "123425465478", "12314234546578", "1231423454657658",
        "1234234542345678", "123423454234565768", "12314234542365476548", "1231423143542346547658",
        "1234234542345654765876", "123142314354231435465768", "123142314542345654765876",
        "12314231454231435654765876", "12314231454231456542345678", "1231423145423145654234567687",
        "123142314354231465423476548765", "12342345423456542345676542345678",
        "1231423454231456542345676542345678", "1231423143542314565423145676542345678765",
        "123142314354231435426542314567654234567876",
        "12314231435423143546542345676543187654234567",
        "12314231435423456542314567654231435465768765",
        "1231423143542314565423143567654231435465768765",
        "1231423145423145654234567654234567876542345678",
        "123142314542314565423145676542314567876542345678",
        "123142314354231435426542345765423143548765423143542654765876",
        "1231423143542314354265423143542654317654231435426543176542345678",
        "123142314354231435426542314354265431765423143542654317876542345678",
        "12314231435423143565423143542676542314354265431787654231435426543176542345678765",
        ("12314231435423143542654231435426543176542314354265431765423456787654231435426543"
         "1765423456787654231435426543176542345678"),
    ),
}


# The canonical representative of each cuspidal class of A_n, 2A_n, B_n, C_n,
# D_n and 2D_n through rank 7, the rank of the catalog's largest inner node
# set, in Bourbaki labels under the identity or the standard twist (order 1 or
# 2), in (length, word) order.  Keyed on the letters that ``_least_length``
# reads, so C_n reads B_n's row: the two have the same words.  Generated once as the
# first members of the spelled levels of the seeds of ``_cuspidal_levels``;
# ``cuspidal_representatives`` reads them with no walk.  The tests compare them
# with enumeration through rank 6, and (slow) with the spelled levels.
_CLASSICAL_TABLE: dict[tuple[str, int, int], tuple[str, ...]] = {
    ("A", 1, 1): ("1",),
    ("A", 2, 1): ("12",),
    ("A", 3, 1): ("123",),
    ("A", 4, 1): ("1234",),
    ("A", 5, 1): ("12345",),
    ("A", 6, 1): ("123456",),
    ("A", 7, 1): ("1234567",),
    ("A", 2, 2): ("1", "121"),
    ("A", 3, 2): ("12", "121321"),
    ("A", 4, 2): ("12", "1232", "1213214321"),
    ("A", 5, 2): ("123", "12132", "1232432", "121321432154321"),
    ("A", 6, 2): ("123", "12343", "1213243", "12324325432", "121321432154321654321"),
    ("A", 7, 2): (
        "1234", "123243", "12343543", "1213243543", "1232432543265432",
        "1213214321543216543217654321",
    ),
    ("B", 2, 1): ("12", "1212"),
    ("B", 3, 1): ("123", "12323", "121321323"),
    ("B", 4, 1): ("1234", "123434", "12132434", "1232432434", "1213214321432434"),
    ("B", 5, 1): (
        "12345", "1234545", "123243545", "12343543545", "1213243543545",
        "12324325432543545", "1213214321543215432543545",
    ),
    ("B", 6, 1): (
        "123456", "12345656", "1234354656", "121324354656", "123454654656",
        "12324354654656", "121321432543654656", "123435436543654656",
        "12132435436543654656", "12324325432654326543654656",
        "121321432154321654321654326543654656",
    ),
    ("B", 7, 1): (
        "1234567", "123456767", "12345465767", "1232435465767", "1234565765767",
        "123435465765767", "12132435465765767", "1232432543654765767",
        "1234546547654765767", "123243546547654765767", "1213214325436547654765767",
        "123435436543765437654765767", "12132435436543765437654765767",
        "1232432543265432765432765437654765767",
        "1213214321543216543217654321765432765437654765767",
    ),
    ("D", 4, 1): ("1234", "121324", "121321421324"),
    ("D", 5, 1): ("12345", "1232435", "1232432532435"),
    ("D", 6, 1): (
        "123456", "12343546", "1213243546", "12343543643546", "1213243543643546",
        "121321432154321643215432643546",
    ),
    ("D", 7, 1): (
        "1234567", "123454657", "12324354657", "123454654754657", "12324354654754657",
        "121321432543654754657", "1232432543265432754326543754657",
    ),
    ("D", 4, 2): ("123", "1232423"),
    ("D", 5, 2): ("1234", "12343534", "1213243534", "12132143215321432534"),
    ("D", 6, 2): ("12345", "123454645", "12324354645", "121321432543645", "123243254326432543645"),
    ("D", 7, 2): (
        "123456", "1234565756", "123435465756", "12132435465756", "1232432543654756",
        "1234354365437543654756", "121324354365437543654756",
        "121321432154321654321754321654327543654756",
    ),
}


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The partitions of n, parts in decreasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _negative_blocks(n: int, parts: Sequence[int]) -> list[int]:
    """A signed permutation with one negative cycle per part, as images of e_1..e_n.

    Each cycle e_p -> e_(p+1) -> ... -> e_c -> -e_p runs over consecutive
    coordinates, the smallest part last: a minimal element of its class in
    B_n (Geck-Pfeiffer 2000, 3.4), and, with an even number of parts, in D_n.
    """
    img, c = [0] * n, n
    for k in sorted(parts):
        p = c - k + 1
        img[p - 1:c - 1] = range(p + 1, c + 1)
        img[c - 1] = -p
        c = p - 1
    return img


def _zigzag(n: int, parts: Sequence[int]) -> list[int]:
    """w in S_n, as images of 1..n, with w w0 of cycle type ``parts`` and w shortest.

    The cycles of w w0 run along 1, n, 2, n - 1, ..., one stretch per part,
    the largest first.  When every part is odd, as in every cuspidal
    class, that makes w w0 longest in its class, and so w shortest in its
    twisted class; with an even part it need not (parts (3, 2) give length
    3, against a least length of 1).
    """
    order = [j for pair in zip(range(1, n + 1), range(n, 0, -1)) for j in pair][:n]
    u, pos = [0] * (n + 1), 0
    for k in parts:
        stretch = order[pos:pos + k]
        pos += k
        for a, b in zip(stretch, stretch[1:] + stretch[:1]):
            u[a] = b
    return [u[n + 1 - j] for j in range(1, n + 1)]


def _negative_root(a: int, b: int) -> bool:
    """Whether e(a) + e(b) is a negative root, for e(t) = sign(t) e_|t| and |a| != |b|."""
    return (a if abs(a) < abs(b) else b) < 0


def _signed_word(img: Sequence[int], family: str) -> tuple[int, ...]:
    """A reduced word, in Bourbaki labels, of the signed permutation e_j -> img[j - 1].

    s_i swaps e_i and e_(i+1) (i < n); s_n negates e_n in B_n and C_n, and
    sends e_(n-1), e_n to -e_n, -e_(n-1) in D_n.  For "A", img permutes n
    coordinates and the letters are 1..n-1.  Peels the smallest right
    descent, w(alpha_i) < 0, until none is left.
    """
    img, n = list(img), len(img)
    peeled = []
    while True:
        for i in range(1, n if family == "A" else n + 1):
            if i < n:
                if _negative_root(img[i - 1], -img[i]):
                    img[i - 1], img[i] = img[i], img[i - 1]
                    break
            elif family == "D":
                if _negative_root(img[n - 2], img[n - 1]):
                    img[n - 2], img[n - 1] = -img[n - 1], -img[n - 2]
                    break
            elif img[n - 1] < 0:
                img[n - 1] = -img[n - 1]
                break
        else:
            return tuple(reversed(peeled))
        peeled.append(i)


def _least_length(family: str, rank: int, order: int, word: Iterable[int]) -> int:
    """The least length in the twisted class of the product of ``word``, from its cycle type.

    ``family`` is A, B, C or D, ``order`` 1, or 2 for A and D, as
    ``standard_type`` names them.  ``word`` is any word, reduced or
    not, in the Bourbaki labels of that type, read as a signed permutation
    of e_1..e_n as ``_signed_word`` reads it, n = rank + 1 for A_rank and
    n = rank otherwise; C_n reads as B_n, whose letters act alike.  One
    pass over the letters builds the images.  A twisted class of
    2A_(n-1) is the class of w w0 in S_n, and one of 2D_n the class of
    w t_n in B_n (``_standard_seeds``).  With positive cycles lambda and
    negative cycles b_1 <= ... <= b_k the least length is:

    - A_(n-1): n minus the number of cycles;
    - B_n = C_n: sum (lambda_i - 1) + sum over j of (b_j + 2 (b_1 + ... +
      b_(j-1)));
    - D_n: the B_n value minus k;
    - 2D_n: the D_n value on the cycles of w t_n;
    - 2A_(n-1), on the cycles of w w0: (c - 1) // 2 for each cycle c, plus
      the smaller of the two for each pair of odd cycles.

    These are the lengths of the minimal elements that Geck-Pfeiffer 2000,
    ch. 3, build from the signed cycle type, and Geck-Kim-Pfeiffer, J.
    Algebra 229 (2000), for the twisted classes: ``_negative_blocks`` on
    the negative cycles, and ``_zigzag`` when every cycle of w w0 is odd.

    ``closure_min_check`` decides minimality by it.  The tests check it
    against the shift walk on every product v w1 of the classical catalog
    rows, against enumeration on every element of every classical twisted
    group through rank 5, and (slow) against every minimal element of every
    class that ``class_list`` gives, for every classical twisted group
    through ``MAX_RANK`` = 8.
    """
    n = rank + 1 if family == "A" else rank
    img = list(range(1, n + 1))
    for i in word:
        if i < n:
            img[i - 1], img[i] = img[i], img[i - 1]
        elif family == "D":
            img[n - 2], img[n - 1] = -img[n - 1], -img[n - 2]
        else:
            img[n - 1] = -img[n - 1]
    if order == 2 and family == "A":
        img.reverse()  # (w w0)(e_j) = w(e_(n+1-j))
    elif order == 2:
        img[-1] = -img[-1]  # (w t_n)(e_n) = -w(e_n)
    positive, negative = [], []
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        j, size, sign = start, 0, False
        while not seen[j]:
            seen[j] = True
            j = img[j - 1]
            if j < 0:
                sign, j = not sign, -j
            size += 1
        (negative if sign else positive).append(size)
    if family == "A":
        if order == 1:
            return n - len(positive)
        # With the cycles in decreasing order, the r-th odd one (from 0) is
        # the smaller of r pairs.
        least, r = 0, 0
        for c in sorted(positive, reverse=True):
            least += (c - 1) // 2
            if c % 2:
                least, r = least + r * c, r + 1
        return least
    # The B_n value, summed over the negative cycles in decreasing order.
    least = n - len(positive)
    for r, b in enumerate(sorted(negative, reverse=True)):
        least += 2 * r * b
    return least - len(negative) if family == "D" else least


@cache
def _standard_seeds(family: str, rank: int, order: int) -> tuple[tuple[int, ...], ...]:
    """One minimal word per cuspidal class of a named type under its standard twist.

    Classical types by signed cycle type (Geck-Pfeiffer 2000, ch. 3), the
    rest from ``_SEED_TABLE``.  A twisted class of 2A_(n-1) is the class of
    w w0 in S_n, and one of 2D_n the class of w t_n in B_n, with t_n the
    sign change of e_n; the cuspidal ones have odd parts, respectively all
    cycles negative and an odd number of them.  Kept per type.
    """
    if (family, rank, order) in _SEED_TABLE:
        return tuple(tuple(map(int, word)) for word in _SEED_TABLE[family, rank, order])
    if (family, order) == ("A", 1):
        return (tuple(range(1, rank + 1)),)
    if (family, order) == ("A", 2):
        n = rank + 1
        return tuple(_signed_word(_zigzag(n, p), "A")
                     for p in _partitions(n) if all(k % 2 for k in p))
    if family in "BC" and order == 1:
        return tuple(_signed_word(_negative_blocks(rank, p), "B") for p in _partitions(rank))
    seeds = []  # D_n under order 1 or 2, the one type left
    for p in _partitions(rank):
        if len(p) % 2 == order - 1:
            img = _negative_blocks(rank, p)
            if order == 2:
                img[-1] = -img[-1]  # w = y t_n
            seeds.append(_signed_word(img, "D"))
    return tuple(seeds)


def _cuspidal_seeds(W: WeylGroup, pi: PiMap) -> list[tuple[int, ...]]:
    """One minimal word per cuspidal pi-class of W.

    From the folds of ``_folds``: an orbit of r components contributes the
    pi^r-seeds of its first component, with the identity on the others;
    the seeds are the products over the orbits.  A component's seeds are
    its type's, read through ``standard_type``.
    """
    seeds: list[tuple[int, ...]] = [()]
    for fold in _folds(W, pi):
        sub = fold.sub
        family, rank, order, phi = fold.named
        back = {b: k for k, b in enumerate(phi or sub.system.nodes, 1)}  # standard node -> node of sub
        words = [sub.word_to_ambient([back[b] for b in word])
                 for word in _standard_seeds(family, rank, order)]
        seeds = [s + word for s in seeds for word in words]
    return seeds


def _parabolic_seeds(
    W: WeylGroup, pi: PiMap, skip: Container[frozenset[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """One minimal word, in W's labels, per cuspidal class of each proper pi-stable W_J.

    J runs over the unions of pi-orbits but the whole, by size, J empty
    giving the identity; the seeds of W_J are ``_cuspidal_seeds`` of its
    standalone group (``sub_context``).  A J in ``skip`` gives none;
    ``skip`` is read as each J is reached, so a caller may grow it
    between words.  Every class of W that is not cuspidal holds one of
    these words among its minimal elements (Geck-Pfeiffer 2000, 3.2).
    """
    orbits = _pi_orbits(pi, W.system.nodes)
    for r in range(len(orbits)):
        for chosen in combinations(orbits, r):
            J = frozenset().union(*chosen)
            if J in skip:
                continue
            if not J:
                yield ()
                continue
            sub = sub_context(W, J)
            yield from map(sub.word_to_ambient, _cuspidal_seeds(sub.group, sub.pi_to_sub(pi)))


def _cuspidal_levels(W: WeylGroup, pi: PiMap) -> list[tuple[WeylElt, _Level]]:
    """Each seed of ``_cuspidal_seeds`` with its minimal level, as ``_verdict`` gives it.

    Raises FalsificationError when a seed is not minimal, when its twisted
    support is not all of W's nodes, or when two seeds share a level (the
    memo gives both one object).
    """
    nodes = frozenset(W.system.nodes)
    levels = []
    for word in _cuspidal_seeds(W, pi):
        seed = W.from_word(word)
        if pi_closure(pi, W.support(seed)) != nodes:
            raise FalsificationError(f"seed {word} of {W.system.family} is not cuspidal")
        level = _verdict(W, pi, seed)
        if type(level) is not _Level:
            raise FalsificationError(
                f"{seed.word} is not minimal in its twisted class: a cyclic shift shortens it"
            )
        levels.append((seed, level))
    if len({id(level) for _, level in levels}) < len(levels):
        raise FalsificationError(f"two seeds of {W.system.family} share a class")
    return levels


_CUSPIDAL_MEMO: dict[tuple, tuple[WeylElt, ...]] = {}


def _tabled_representatives(
    W: WeylGroup, pi: PiMap, named: Optional[tuple[str, int, int]]
) -> Optional[list[WeylElt]]:
    """The ``_CLASSICAL_TABLE`` words of W under pi as spelled elements, or None.

    ``named`` is the (family, rank, order) of ``standard_type(W, pi)``
    when its labelling is the identity, else None.  None unless that names
    a classical type through rank 7 under the identity or its standard
    twist.  A relabelled group is None, since a canonical word depends on
    the labels: so is the named C2, which the resolver names B2 through
    the swap of its nodes.  Each word is checked reduced,
    by the length of its product, cuspidal, by its letters, and minimal,
    by ``closure_min_check``, which reads the signed cycle type: no walk
    starts and no word is spelled.  Raises FalsificationError when a word
    fails a check.
    """
    words = named and _CLASSICAL_TABLE.get(("B" if named[0] == "C" else named[0], *named[1:]))
    if words is None:
        return None
    nodes = frozenset(W.system.nodes)
    reps = []
    for text in words:
        word = tuple(map(int, text))
        x = W.from_word(word)
        if x.length != len(word):
            raise FalsificationError(f"tabled word {text} of {W.system.family} is not reduced")
        if pi_closure(pi, word) != nodes:
            raise FalsificationError(f"tabled word {text} of {W.system.family} is not cuspidal")
        if closure_min_check(W, pi, x) != "minimal":
            raise FalsificationError(f"tabled word {text} of {W.system.family} is not minimal")
        x._word = word
        reps.append(x)
    return reps


def cuspidal_representatives(W: WeylGroup, pi: PiMap) -> tuple[WeylElt, ...]:
    """The canonical minimal representatives of the cuspidal pi-classes of W.

    In (length, canonical word) order, as ``class_list`` lists the
    cuspidal classes.  A class is named by a table word, or else by the
    first member of its spelled level.  The tables are read only when
    ``standard_type`` names W under the identity labelling, so that W's
    words are the table's.  A classical type through rank 7 under the
    identity or its standard twist reads them off ``_CLASSICAL_TABLE``,
    each checked cuspidal and minimal with no walk
    (``_tabled_representatives``).  Any other group walks each seed to its
    minimal level (``_cuspidal_levels``, which checks that the seeds are
    cuspidal, minimal and in classes of their own).  A type with a
    ``_SEED_TABLE`` row takes its seeds as they are, and leaves their
    levels unspelled; every other group, 3D4 under delta_inv, reducible
    or in other labels (the named C2 too), takes the first member of each
    level that ``minimal_level`` spells.  The tests, not this function, check that
    the table words are canonical.  Raises FalsificationError when a
    tabled word or a seed fails its checks.  Memoized on the group's
    system key (its Cartan matrix, so every group of that matrix shares
    the entry) and pi.
    """
    pi = restrict_pi(pi, W.system.nodes)
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _CUSPIDAL_MEMO:
        named = standard_type(W, pi)
        named = named[:3] if named is not None and named[3] is None else None
        reps = _tabled_representatives(W, pi, named)
        if reps is None:
            seeded = named in _SEED_TABLE
            reps = [seed if seeded else minimal_level(W, pi, seed)[0]
                    for seed, _ in _cuspidal_levels(W, pi)]
        _CUSPIDAL_MEMO[key] = tuple(sorted(reps, key=WeylElt.sort_key))
    return _CUSPIDAL_MEMO[key]


# -- classes without enumeration ---------------------------------------------


_OPPOSITIONS: dict[tuple, dict[int, int]] = {}


def _opposition(W: WeylGroup, X: frozenset[int]) -> dict[int, int]:
    """j -> m with w_0^X(alpha_j) = -alpha_m, on X; memoized on the system key and X."""
    key = (W.system.key, X)
    if key not in _OPPOSITIONS:
        w0, n2 = W.longest_element(X), 2 * W.nroots
        _OPPOSITIONS[key] = {j: W.identity.key.find(n2 - w0.key[j - 1]) + 1 for j in X}
    return _OPPOSITIONS[key]


def _join_letters(W: WeylGroup, J: frozenset[int], orbit: frozenset[int]) -> Optional[dict[int, int]]:
    """j -> m with d(alpha_j) = alpha_m on J, for d = w_0^K w_0^J and K = J plus orbit.

    None when d commutes with W_J: no node of the orbit touches J (then
    d = w_0^orbit), or d fixes every alpha_j.
    """
    if not any(W.system.cartan[i - 1][j - 1] for i in orbit for j in J):
        return None
    inner, outer = _opposition(W, J), _opposition(W, J | orbit)
    letters = {j: outer[inner[j]] for j in J}
    return None if all(j == m for j, m in letters.items()) else letters


def minimal_set(W: WeylGroup, pi: PiMap, x: WeylElt) -> list[WeylElt]:
    """The minimal-length members of the pi-class of the minimal element x, by canonical word.

    Any two are joined by length-preserving cyclic shifts and by
    conjugation with d = w_0^K w_0^J, for a member u with J = supp_pi(u)
    not all of S and K = J plus one pi-orbit of S - J (Geck-Pfeiffer 2000,
    Thm 3.2.7; Geck-Kim-Pfeiffer 2000; He-Nie 2012).  d is fixed by the
    twist and sends the simple roots of J to simple roots of K, so d u d^-1
    is u spelled in other letters (``_join_letters``).  Raises
    FalsificationError when x is not minimal.

    One member per level is conjugated: d carries the length-preserving
    shift by s_j to the shift by s_d(j), so it maps the whole level of u
    onto the level of d u d^-1, one to one.  The image's length is
    checked, and so is the size of its level: a wrong letter map shows as
    a longer image, a descent in the image's walk, or a level of another
    size.
    """
    return _minimal_levels(W, pi, x)[0]


def _minimal_levels(
    W: WeylGroup, pi: PiMap, x: WeylElt
) -> tuple[list[WeylElt], set[frozenset[int]]]:
    """``minimal_set`` of x, and the twisted supports of its levels."""
    orbits = _pi_orbits(pi, W.system.nodes)
    joins: dict[frozenset[int], list[dict[int, int]]] = {}  # J -> its _join_letters
    found: dict[bytes, WeylElt] = {}
    todo = [minimal_level(W, pi, x)]
    while todo:
        level = todo.pop()
        u = level[0]
        if u.key in found:
            continue
        found.update((y.key, y) for y in level)
        # supp_pi is the same on the whole level: a length-preserving shift
        # by a letter outside it fixes the element.
        J = supp_delta(W, pi, u)
        if J not in joins:
            joins[J] = [letters for orbit in orbits if not orbit & J
                        if (letters := _join_letters(W, J, orbit))]
        for letters in joins[J]:
            v = W.from_word([letters[j] for j in u.word])
            if v.length != u.length:
                raise FalsificationError(f"conjugating {u.word} by w_0^K w_0^J changes its length")
            image = minimal_level(W, pi, v)
            if len(image) != len(level):
                raise FalsificationError(f"conjugating the level of {u.word} by w_0^K w_0^J changes its size")
            todo.append(image)
    return sorted(found.values(), key=lambda u: u.word), set(joins)


def _delta_class(W: WeylGroup, pi: PiMap, minimal: Sequence[WeylElt]) -> DeltaClass:
    return DeltaClass(
        group_key=W.system.key,
        pi=tuple(sorted(pi.items())),
        minimal=tuple(minimal),
        cuspidal=supp_delta(W, pi, minimal[0]) == frozenset(W.system.nodes),
    )


def class_of(W: WeylGroup, pi: PiMap, w: WeylElt) -> DeltaClass:
    """The pi-class of any w: non-increasing shifts down to a minimal element
    (Geck-Pfeiffer 2000, Thm 3.2.9; He-Nie 2012, Thm 1.1), then ``minimal_set``.

    Each step down is ``_verdict``'s, kept in ``_MINIMALITY_MEMO``, and so is
    the minimal level it ends on, which ``minimal_set`` reads: a second call
    from w, or from an element a first call passed, starts no walk.
    """
    pi = restrict_pi(pi, W.system.nodes)
    while type(found := _verdict(W, pi, w)) is not _Level:
        w = found
    return _delta_class(W, pi, minimal_set(W, pi, w))


_CLASS_MEMO: dict[tuple, list[DeltaClass]] = {}


def class_list(W: WeylGroup, pi: PiMap) -> list[DeltaClass]:
    """Every pi-class of W, by (length, canonical word) of its representative.

    A class meets some pi-stable W_J in a cuspidal class of W_J, whose
    minimal elements are minimal in W (Geck-Pfeiffer 2000, 3.2).  J = S
    gives the levels of the cuspidal seeds (``_cuspidal_levels``), each
    spelled once by ``minimal_level``, since a class lists every member by
    word; a proper J gives the ``minimal_set`` of each seed of its
    standalone group (``_parabolic_seeds``, the identity for J empty).  A
    seed already found is skipped, and so is a J that is the
    support of a level walked: the joins to it conjugate an earlier W_J'
    onto W_J, twist included.  Memoized on the system key (the Cartan
    matrix) and pi, like ``cuspidal_representatives``, so the two equal
    maps of a twist of order 1 or 2 share one entry.
    """
    pi = restrict_pi(pi, W.system.nodes)
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _CLASS_MEMO:
        found: set[bytes] = set()
        supports: set[frozenset[int]] = set()  # of the levels walked
        classes = [_delta_class(W, pi, minimal_level(W, pi, seed))
                   for seed, _ in _cuspidal_levels(W, pi)]
        for word in _parabolic_seeds(W, pi, supports):
            x = W.from_word(word)
            if x.key in found:
                continue
            minimal, walked = _minimal_levels(W, pi, x)
            found.update(u.key for u in minimal)
            supports |= walked
            classes.append(_delta_class(W, pi, minimal))
        classes.sort(key=lambda c: c.representative.sort_key())
        _CLASS_MEMO[key] = classes
    return _CLASS_MEMO[key]


# The name the benchmark's certify worker reads.
partition_memo = class_list
