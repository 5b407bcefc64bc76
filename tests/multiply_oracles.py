"""Reference oracles: whole-group enumeration, and element moves by whole products.

``weyldl`` enumerates no group and moves elements by translating their
keys (the images of the simple roots) through reflection tables.  The
functions here reach the same answers the slow, obvious way: the whole
group breadth-first and its partition into twisted classes as orbits of
the shifts (``group_elements``, ``enumerate_delta_classes``), cyclic
shifts as two full products ``W.multiply(W.multiply(s_j, w), s_pi(j))``,
strong conjugacy by trying every x in W, cuspidality by intersecting every
proper pi-stable parabolic, and permutations of the positive roots
composed from ``reflect``, the simple reflection as a coordinate sum.
They exist only so that tests can compare the package against them.

The last section holds the root data only the tests build: ``weyl_order``
(the closed forms for |W| that the enumeration is checked against),
``build_composite_system`` (reducible systems as block Cartan matrices)
and ``make_twist`` (a twist from an explicit image tuple).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from weyldl.conjugacy import ClosureBudgetError, DeltaClass, PiMap, restrict_pi, supp_delta
from weyldl.rootdata import (
    InvalidCartanTypeError,
    RootSystem,
    Twist,
    _build_from_cartan,
    cartan_matrix,
)
from weyldl.weyl import WeylElt, WeylGroup


class EnumerationBudgetError(RuntimeError):
    """Raised when an enumeration would exceed its element budget."""


# Key -> length of every element, per system key: equal keys mean equal Cartan
# matrices, hence equal element encodings.
_ELEMENTS: dict[object, dict[bytes, int]] = {}


def group_elements(W: WeylGroup, budget: int = 10 ** 6) -> dict[bytes, int]:
    """Key -> length of every element of W.

    Breadth-first from the identity by left multiplication with the simple
    reflections, (s w)(alpha_k) = s(w(alpha_k)): one translate per
    product, and each length is its BFS depth.  Cached per system key.
    Raises EnumerationBudgetError beyond ``budget`` elements, on a cache
    hit as on the first call.
    """
    lengths = _ELEMENTS.get(W.system.key)
    if lengths is None:
        tables = W.reflection_table()
        gens = [tables[b] for b in W.identity.key]
        lengths = {W.identity.key: 0}
        frontier = [W.identity.key]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for w in frontier:
                for s in gens:
                    u = w.translate(s)
                    if u in lengths:
                        continue
                    if len(lengths) >= budget:
                        raise EnumerationBudgetError(f"enumeration exceeded budget {budget}")
                    lengths[u] = depth
                    nxt.append(u)
            frontier = nxt
        _ELEMENTS[W.system.key] = lengths
    if len(lengths) > budget:
        raise EnumerationBudgetError(f"enumeration exceeded budget {budget}")
    return lengths


def elements_of(W: WeylGroup) -> list[WeylElt]:
    """Every element of W, in enumeration order."""
    return [WeylElt(W, key, length) for key, length in group_elements(W).items()]


# (system key, pi) -> (classes, member keys per class, class index per key).
_PARTITIONS: dict[tuple, tuple[list[DeltaClass], list[tuple[bytes, ...]], dict[bytes, int]]] = {}


def _partition(W: WeylGroup, pi: PiMap):
    pi = restrict_pi(pi, W.system.nodes)
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _PARTITIONS:
        lengths = group_elements(W)
        tables = W.reflection_table()
        simple = [tables[b] for b in W.identity.key]
        moves = [(simple[j - 1], pi[j] - 1) for j in sorted(pi)]
        label: dict[bytes, int] = {}
        count = 0
        for start in lengths:  # orbits of s_j w s_pi(j) = s_j s_{w(alpha_pi(j))} w
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
        for k in lengths:  # members in enumeration order
            buckets[label[k]].append(k)
        classes = []
        for members in buckets:
            low = min(lengths[k] for k in members)
            minimal = sorted((WeylElt(W, k, low) for k in members if lengths[k] == low),
                             key=lambda w: w.word)
            classes.append(DeltaClass(
                group_key=W.system.key, pi=tuple(sorted(pi.items())),
                minimal=tuple(minimal),
                cuspidal=supp_delta(W, pi, minimal[0]) == frozenset(W.system.nodes),
            ))
        order = sorted(range(count), key=lambda c: classes[c].representative.sort_key())
        position = {c: r for r, c in enumerate(order)}
        _PARTITIONS[key] = (
            [classes[c] for c in order],
            [tuple(buckets[c]) for c in order],
            {k: position[c] for k, c in label.items()},
        )
    return _PARTITIONS[key]


def enumerate_delta_classes(W: WeylGroup, pi: PiMap) -> list[DeltaClass]:
    """The partition of the whole group W into pi-twisted classes.

    Classes come back sorted by (min_length, canonical word of the
    representative), the representative being the smallest minimal-length
    element in that order: the order of ``class_list``.  Classes are the
    orbits of the shifts over the element keys.  Memoized on the system
    key and pi.
    """
    return _partition(W, pi)[0]


def oracle_class_of(W: WeylGroup, pi: PiMap, w: WeylElt) -> DeltaClass:
    """The enumerated class of W containing ``w``."""
    classes, _, owner = _partition(W, pi)
    return classes[owner[w.key]]


def class_keys(W: WeylGroup, cls: DeltaClass) -> tuple[bytes, ...]:
    """The member keys of a class of W, in enumeration order, read off the enumeration."""
    classes, keys, owner = _partition(W, dict(cls.pi))
    k = owner[cls.representative.key]
    if classes[k] != cls:
        raise AssertionError(f"{cls!r} is not a class of the enumeration")
    return keys[k]


def class_elements(W: WeylGroup, cls: DeltaClass) -> list[WeylElt]:
    """The members of a class as elements, in enumeration order."""
    lengths = group_elements(W)
    return [WeylElt(W, key, lengths[key]) for key in class_keys(W, cls)]


def reflect(cartan: Sequence[Sequence[int]], i: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection s_i (1-based i) to root coordinates:
    s_i(alpha) = alpha - (sum_j C[i][j] c_j) alpha_i."""
    row = cartan[i - 1]
    t = sum(row[j] * coords[j] for j in range(len(coords)))
    if t == 0:
        return tuple(coords)
    out = list(coords)
    out[i - 1] -= t
    return tuple(out)


# The simple reflections' permutations of each Cartan matrix.
_SIMPLE_PERMS: dict[tuple[tuple[int, ...], ...], dict[int, list[int]]] = {}


def perm_of_word(W: WeylGroup, word: Iterable[int]) -> tuple[int, ...]:
    """Signed permutation of the positive roots for a word, by composing the
    simple reflections' permutations computed with ``reflect`` (once per
    Cartan matrix)."""
    cartan = W.system.cartan
    simple = _SIMPLE_PERMS.get(cartan)
    if simple is None:
        index = {r: p + 1 for p, r in enumerate(W.roots)}
        index.update({tuple(-c for c in r): -(p + 1) for p, r in enumerate(W.roots)})
        simple = _SIMPLE_PERMS[cartan] = {
            i: [index[reflect(cartan, i, r)] for r in W.roots] for i in range(1, W.rank + 1)
        }
    perm = tuple(range(1, W.nroots + 1))
    for i in word:
        perm = tuple(perm[t - 1] if t > 0 else -perm[-t - 1] for t in simple[i])
    return perm


def inversions_of_inverse(W: WeylGroup, u: WeylElt) -> list[int]:
    """Indices of the positive roots sent negative by u^{-1}, in root order.

    A walker of its own, which ``WeylGroup.invert_with_inversions`` does not
    share: stripping a right descent j off the current element u' meets
    u'(alpha_j) = -gamma, and the l(u) roots gamma met on the way down to
    the identity are the inversions of u^{-1}.
    """
    tables, n = W.reflection_table(), W.nroots
    key, found = u.key, []
    while (j := next((k for k, b in enumerate(key) if b < n), -1)) >= 0:
        found.append(n - 1 - key[j])  # the byte of -beta_p is N - (p + 1)
        key = key.translate(tables[key[j]])
    return sorted(found)


def twist_element(W: WeylGroup, pi: PiMap, x: WeylElt) -> WeylElt:
    """Image of x under the group automorphism sending s_i to s_{pi(i)}."""
    return W.from_word([pi[i] for i in x.word])


def cyclic_shift_step(W: WeylGroup, pi: PiMap, w: WeylElt, j: int) -> Optional[WeylElt]:
    """s_j w s_{pi(j)} when that does not increase length, else None."""
    u = W.multiply(W.multiply(W.simple(j), w), W.simple(pi[j]))
    return u if u.length <= w.length else None


def multiply_shift_closure(
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
    elements = group_elements(W, budget=budget)
    candidates = sorted(
        (WeylElt(W, key, length) for key, length in elements.items()),
        key=lambda x: x.sort_key(),
    )
    for x in candidates:
        tx = twist_element(W, pi, x)
        if W.multiply(W.multiply(x, w), W.invert(tx)) == wp:
            if W.multiply(x, w).length == x.length + w.length:
                return x
            if W.multiply(w, W.invert(tx)).length == x.length + w.length:
                return x
    return None


def is_cuspidal_by_definition(
    W: WeylGroup,
    pi: PiMap,
    cls: DeltaClass,
) -> bool:
    """True iff the class meets no proper pi-stable standard parabolic.

    Intersects every proper pi-stable parabolic with the enumerated class,
    rather than reading the support of the minimal representative.
    """
    node_set = frozenset(W.system.nodes)
    supports = {frozenset(W.support(w)) for w in class_elements(W, cls)}
    for supp in supports:
        # w lies in W_J for every pi-stable J containing supp(w); the class
        # meets a proper pi-stable parabolic iff some supp_pi(w) is proper.
        closed = set(supp)
        while True:
            grown = {pi[i] for i in closed} | closed
            if grown == closed:
                break
            closed = grown
        if frozenset(closed) != node_set:
            return False
    return True


# -- root data only the tests build --------------------------------------------


def weyl_order(family: str, rank: int) -> int:
    """|W| closed forms; raises where ``cartan_matrix`` does."""
    cartan_matrix(family, rank)
    n = rank
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C"):
        return (2 ** n) * math.factorial(n)
    if family == "D":
        return (2 ** (n - 1)) * math.factorial(n)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if family == "F":
        return 1152
    return 12


def build_composite_system(parts: Sequence[tuple[str, int]]) -> RootSystem:
    """Orthogonal direct sum of irreducible systems (block Cartan matrix)."""
    if not parts:
        raise InvalidCartanTypeError("empty composite")
    blocks = [cartan_matrix(f, r) for f, r in parts]
    n = sum(len(b) for b in blocks)
    cartan = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        m = len(b)
        for i in range(m):
            for j in range(m):
                cartan[off + i][off + j] = b[i][j]
        off += m
    family = "+".join(f"{f}{r}" for f, r in parts)
    return _build_from_cartan(family, n, tuple(tuple(row) for row in cartan))


def _perm_order(perm: tuple[int, ...]) -> int:
    order = 1
    cur = perm
    ident = tuple(range(1, len(perm) + 1))
    while cur != ident:
        cur = tuple(perm[i - 1] for i in cur)
        order += 1
    return order


def make_twist(system: RootSystem, perm: Sequence[int]) -> Twist:
    """Build a twist from an explicit image tuple, checking compatibility.

    A nontrivial twist must either preserve the Cartan matrix
    (C[d(i)][d(j)] = C[i][j], the simply-laced diagram case) or reverse
    it (C[d(i)][d(j)] = C[j][i], the B2/G2/F4 foldings behind the
    Suzuki and Ree groups).
    """
    perm = tuple(perm)
    n = system.rank
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    c = system.cartan
    preserves = all(
        c[perm[i] - 1][perm[j] - 1] == c[i][j] for i in range(n) for j in range(n)
    )
    reverses = all(
        c[perm[i] - 1][perm[j] - 1] == c[j][i] for i in range(n) for j in range(n)
    )
    if not (preserves or reverses):
        raise ValueError(f"{perm} is not a diagram automorphism or folding")
    return Twist(perm=perm, order=_perm_order(perm))
