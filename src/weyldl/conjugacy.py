"""Twisted conjugacy classes, cyclic shifts and minimal-length machinery.

A twist enters everywhere as a bare index permutation ``pi`` on the
active nodes: the class of ``w`` is the orbit of the moves
``w -> s_i w s_{pi(i)}``, which generate conjugation by all of W
composed with the diagram automorphism ``i -> pi(i)``.  Passing the
inverse permutation switches between the two twist directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .rootdata import Twist
from .weyl import EnumerationBudgetError, WeylElt, WeylGroup

__all__ = [
    "DeltaClass",
    "ClosureBudgetError",
    "FalsificationError",
    "pi_of",
    "cyclic_shift_step",
    "shift_closure",
    "shift_descend_to_min",
    "enumerate_delta_classes",
    "supp_delta",
    "is_cuspidal",
    "elementarily_strongly_conjugate",
    "compute_I_J_x",
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


def twist_element(W: WeylGroup, pi: PiMap, x: WeylElt) -> WeylElt:
    """Image of x under the group automorphism sending s_i to s_{pi(i)}."""
    return W.from_word([pi[i] for i in x.word])


def cyclic_shift_step(W: WeylGroup, pi: PiMap, w: WeylElt, j: int) -> Optional[WeylElt]:
    """s_j w s_{pi(j)} when that does not increase length, else None."""
    u = W.multiply(W.multiply(W.simple(j), w), W.simple(pi[j]))
    return u if u.length <= w.length else None


def shift_closure(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    budget: int = 10 ** 6,
) -> set[WeylElt]:
    """All elements reachable by non-length-increasing cyclic shifts."""
    seen = {w}
    frontier = [w]
    letters = sorted(pi)
    while frontier:
        nxt = []
        for u in frontier:
            for j in letters:
                v = cyclic_shift_step(W, pi, u, j)
                if v is not None and v not in seen:
                    if len(seen) >= budget:
                        raise ClosureBudgetError(
                            f"shift closure exceeded budget {budget} elements"
                        )
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def shift_descend_to_min(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    stop_length: Optional[int] = None,
    budget: int = 10 ** 6,
) -> WeylElt:
    """Follow non-increasing shifts, eagerly taking strict descents.

    Returns an element from which no shift sequence descends further;
    by the descent theorem for twisted classes that element is minimal.
    ``stop_length`` short-circuits as soon as that length is reached.
    """
    letters = sorted(pi)
    cur = w
    while True:
        if stop_length is not None and cur.length <= stop_length:
            return cur
        descended = False
        seen = {cur}
        frontier = [cur]
        while frontier and not descended:
            nxt = []
            for u in frontier:
                for j in letters:
                    v = cyclic_shift_step(W, pi, u, j)
                    if v is None:
                        continue
                    if v.length < cur.length:
                        cur = v
                        descended = True
                        break
                    if v not in seen:
                        if len(seen) >= budget:
                            raise ClosureBudgetError(
                                f"descent search exceeded budget {budget}"
                            )
                        seen.add(v)
                        nxt.append(v)
                if descended:
                    break
            frontier = nxt
        if not descended:
            return cur


@dataclass(frozen=True)
class DeltaClass:
    """One twisted conjugacy class with its minimal-length data."""

    group_key: tuple[str, int]
    direction: str
    pi: tuple[tuple[int, int], ...]
    representative: WeylElt
    min_length: int
    cuspidal: bool
    supp_of_min: frozenset[int]
    size: int
    elements: Optional[tuple[WeylElt, ...]] = None

    @property
    def pi_map(self) -> PiMap:
        return dict(self.pi)

    def min_elements(self) -> list[WeylElt]:
        if self.elements is None:
            raise ValueError("class was enumerated without elements")
        mins = [w for w in self.elements if w.length == self.min_length]
        return sorted(mins, key=lambda w: w.sort_key())

    @cached_property
    def members(self) -> frozenset[WeylElt]:
        """The elements as a set, built on first use."""
        if self.elements is None:
            raise ValueError("class was enumerated without elements")
        return frozenset(self.elements)

    def contains(self, w: WeylElt) -> bool:
        return w in self.members


def supp_delta(W: WeylGroup, pi: PiMap, w: WeylElt) -> frozenset[int]:
    """Smallest pi-stable node set supporting a reduced word of w."""
    s = set(W.support(w))
    changed = True
    while changed:
        changed = False
        for i in list(s):
            if pi[i] not in s:
                s.add(pi[i])
                changed = True
    return frozenset(s)


def enumerate_delta_classes(
    W: WeylGroup,
    pi: PiMap,
    nodes: Optional[Iterable[int]] = None,
    direction: str = "delta",
    budget: int = 10 ** 6,
    keep_elements: bool = True,
) -> list[DeltaClass]:
    """Partition of the parabolic on ``nodes`` into pi-twisted classes.

    Classes come back sorted by (min_length, canonical word of the
    representative); the representative is the smallest minimal-length
    element in that order.  Members keep the enumeration order.

    Classes are the orbits of the shifts over element ids, each element
    keyed by its images of the simple roots (signed root indices).  The
    shift s_j w s_{pi(j)} equals s_j s_beta w with beta = w(alpha_{pi(j)}),
    so its key is two lookups per simple root in the reflection table.
    """
    node_set = frozenset(nodes) if nodes is not None else frozenset(range(1, W.rank + 1))
    pi = restrict_pi(pi, node_set)
    elements = W.elements(node_set, budget=budget)
    elts = list(elements.values())
    keys = list(elements)
    refl = W.reflection_table()
    index = {img: k for k, img in enumerate(keys)}
    moves = [(refl[W.simple_pos[j - 1] + 1], pi[j] - 1) for j in sorted(node_set)]
    label = [-1] * len(elts)
    buckets: list[list[WeylElt]] = []
    for start in range(len(elts)):
        if label[start] >= 0:
            continue
        label[start] = len(buckets)
        stack = [start]
        while stack:
            img = keys[stack.pop()]
            for s_j, pj in moves:
                r = refl[abs(img[pj])]
                k = index[tuple([s_j[r[t]] for t in img])]
                if label[k] < 0:
                    label[k] = len(buckets)
                    stack.append(k)
        buckets.append([])
    for k, w in enumerate(elts):
        buckets[label[k]].append(w)

    classes = []
    for members in buckets:
        min_len = min(w.length for w in members)
        mins = sorted((w for w in members if w.length == min_len), key=lambda w: w.word)
        rep = mins[0]
        supp = supp_delta(W, pi, rep)
        classes.append(
            DeltaClass(
                group_key=W.system.key,
                direction=direction,
                pi=tuple(sorted(pi.items())),
                representative=rep,
                min_length=min_len,
                cuspidal=(supp == node_set),
                supp_of_min=supp,
                size=len(members),
                elements=tuple(members) if keep_elements else None,
            )
        )
    classes.sort(key=lambda c: (c.min_length, c.representative.word))
    return classes


_PARTITION_MEMO: dict[tuple, list[DeltaClass]] = {}


def partition_memo(
    W: WeylGroup,
    pi: PiMap,
    nodes: Optional[Iterable[int]] = None,
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
    node_set = frozenset(nodes) if nodes is not None else frozenset(range(1, W.rank + 1))
    key = (W.system.key, node_set, tuple(sorted(restrict_pi(pi, node_set).items())), direction)
    classes = _PARTITION_MEMO.get(key)
    if classes is None:
        classes = _PARTITION_MEMO[key] = enumerate_delta_classes(
            W, pi, node_set, direction, budget
        )
    elif sum(c.size for c in classes) > budget:
        raise EnumerationBudgetError(f"parabolic enumeration exceeded budget {budget}")
    return classes


def class_of(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    nodes: Optional[Iterable[int]] = None,
    direction: str = "delta",
    budget: int = 10 ** 6,
) -> DeltaClass:
    """The enumerated class containing ``w``."""
    for cls in partition_memo(W, pi, nodes, direction, budget):
        if cls.contains(w):
            return cls
    raise FalsificationError("element not found in any class (corrupt enumeration)")


def is_cuspidal(
    W: WeylGroup,
    pi: PiMap,
    cls: DeltaClass,
    definitional: bool = False,
    nodes: Optional[Iterable[int]] = None,
) -> bool:
    """Cuspidality of a class.

    Default: full support of the minimal representative (sound for
    minimal representatives).  With ``definitional=True`` the class must
    carry its elements and the check intersects every proper pi-stable
    standard parabolic instead.
    """
    node_set = frozenset(nodes) if nodes is not None else frozenset(range(1, W.rank + 1))
    if not definitional:
        return cls.supp_of_min == node_set
    if cls.elements is None:
        raise ValueError("definitional check needs enumerated elements")
    pi_r = restrict_pi(pi, node_set)
    supports = {frozenset(W.support(w)) for w in cls.elements}
    for supp in supports:
        # w lies in W_J for every pi-stable J containing supp(w); the class
        # meets a proper pi-stable parabolic iff some supp_pi(w) is proper.
        closed = set(supp)
        while True:
            grown = {pi_r[i] for i in closed} | closed
            if grown == closed:
                break
            closed = grown
        if frozenset(closed) != node_set:
            return False
    return True


def elementarily_strongly_conjugate(
    W: WeylGroup,
    pi: PiMap,
    w: WeylElt,
    wp: WeylElt,
    budget: int = 10 ** 6,
) -> Optional[WeylElt]:
    """A witness x with wp = x w pi(x)^{-1} and a length-additivity side.

    Requires l(w) = l(wp); searches x in canonical order, so the witness
    is deterministic.  Returns None when no witness exists.
    """
    if w.length != wp.length:
        return None
    elements = W.elements(budget=budget)
    candidates = sorted(elements.values(), key=lambda x: x.sort_key())
    for x in candidates:
        tx = twist_element(W, pi, x)
        if W.multiply(W.multiply(x, w), W.invert(tx)) == wp:
            if W.multiply(x, w).length == x.length + w.length:
                return x
            if W.multiply(w, W.invert(tx)).length == x.length + w.length:
                return x
    return None


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
    simple_index = {W.root_index[W.system.simple_root(i)] + 1: i for i in range(1, W.rank + 1)}
    K = set(J)
    while True:
        keep = set()
        for k in K:
            t = W.act_on_simple(x, pi[k])
            if t > 0 and t in simple_index and simple_index[t] in K:
                keep.add(k)
        if keep == K:
            return frozenset(K)
        K = keep


def ad_pi_on(W: WeylGroup, pi: PiMap, x: WeylElt, K: Iterable[int]) -> PiMap:
    """The index map k -> index of x(alpha_{pi(k)}) on a stable K."""
    simple_index = {W.root_index[W.system.simple_root(i)] + 1: i for i in range(1, W.rank + 1)}
    out = {}
    for k in K:
        t = W.act_on_simple(x, pi[k])
        if t <= 0 or t not in simple_index:
            raise ValueError(f"Ad(x) pi does not stabilize node {k}")
        out[k] = simple_index[t]
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

    An element is encoded by the images of the simple roots under w and
    under w^{-1} (signed root indices); w is determined by the first half
    alone, which keys the visited set.  Each shift is two lookups per
    simple root in the group's reflection table.

    Fast path: an element whose length equals the number of pi-orbits
    of its support is minimal outright, since every element of the
    class needs at least one letter per orbit.
    """
    supp = supp_delta(W, pi, w)
    orbits = 0
    seen: set[int] = set()
    for i in sorted(supp):
        if i in seen:
            continue
        orbits += 1
        j = i
        while j not in seen:
            seen.add(j)
            j = pi[j]
    if w.length == orbits:
        return "minimal"

    refl = W.reflection_table()
    srefl = [refl[p + 1] for p in W.simple_pos]
    start = tuple(w.perm[p] for p in W.simple_pos)
    seen_imgs = {start}
    frontier = [(start, tuple(W.invert(w).perm[p] for p in W.simple_pos))]
    moves = [(j - 1, pi[j] - 1) for j in sorted(pi)]
    while frontier:
        nxt = []
        for img, inv in frontier:
            for j, pj in moves:
                # l(s_j w s_pj) - l(w) is the sum of the signs of w(alpha_pj)
                # and of (s_pj w^-1)(alpha_j).
                s_pj = srefl[pj]
                up = img[pj] > 0
                if up == (s_pj[inv[j]] > 0):
                    if up:
                        continue
                    return "not_minimal"
                s_j, r = srefl[j], refl[abs(img[pj])]
                new_img = tuple([s_j[r[t]] for t in img])
                if new_img not in seen_imgs:
                    if len(seen_imgs) >= budget:
                        return "budget"
                    seen_imgs.add(new_img)
                    mid = [s_pj[t] for t in inv]
                    r = refl[abs(mid[j])]
                    nxt.append((new_img, tuple([r[t] for t in mid])))
        frontier = nxt
    return "minimal"
