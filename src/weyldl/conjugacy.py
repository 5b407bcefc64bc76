"""Twisted conjugacy classes, cyclic shifts and minimal-length machinery.

A twist enters everywhere as a bare index permutation ``pi`` on the
nodes of the group in hand: the class of ``w`` is the orbit of the
cyclic shifts ``w -> s_i w s_{pi(i)}``, which generate conjugation by
all of W composed with the diagram automorphism ``i -> pi(i)``.  Passing
the inverse permutation switches between the two twist directions.

Elements move here only as keys, by ``bytes.translate`` through the
group's reflection table (see ``weyl``); a class is its minimal-length
members.

Nothing here enumerates a group: classes come from minimal elements and
their levels (``cuspidal_representatives``, ``minimal_set``, ``class_of``,
``class_list``); the partition of the whole group is the tests' oracle.

Minimality is decided once per process: every level that ``minimal_level``
walks, and every verdict that ``closure_min_check`` walks to, is kept per
system key and pi, and ``closure_min_check`` answers from it first.  Every
shift walk has the one budget ``WALK_BUDGET``; a walk past it raises
``ClosureBudgetError`` and keeps no verdict.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .rootdata import Frozen, Twist
from .subsystems import component_orbits, identify_standard
from .weyl import WeylElt, WeylGroup

__all__ = [
    "DeltaClass",
    "ClosureBudgetError",
    "WALK_BUDGET",
    "FalsificationError",
    "pi_of",
    "restrict_pi",
    "inverse_pi",
    "power_pi",
    "shift_closure",
    "minimal_set",
    "class_of",
    "class_list",
    "partition_memo",
    "supp_delta",
    "compute_I_J_x",
    "ad_pi_on",
    "closure_min_check",
    "minimal_level",
    "cuspidal_representatives",
]

PiMap = dict[int, int]

# Most elements any cyclic-shift walk may reach before it raises
# ClosureBudgetError.  The largest walk the catalog and the class lists
# through rank 8 make reaches 16,374 (E8, under ``verify_all(slow=True)``).
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

    __slots__ = ("group_key", "direction", "pi", "minimal", "cuspidal")

    def __init__(
        self,
        group_key: tuple[tuple[int, ...], ...],  # the system key: the Cartan matrix
        direction: str,
        pi: tuple[tuple[int, int], ...],
        minimal: tuple[WeylElt, ...],  # the minimal-length members, by canonical word
        cuspidal: bool,
    ):
        _setattr(self, "group_key", group_key)
        _setattr(self, "direction", direction)
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


def supp_delta(W: WeylGroup, pi: PiMap, w: WeylElt) -> frozenset[int]:
    """Smallest pi-stable node set supporting a reduced word of w."""
    s = set(W.support(w))
    while not {pi[i] for i in s} <= s:
        s |= {pi[i] for i in s}
    return frozenset(s)


def compute_I_J_x(
    W: WeylGroup,
    pi: PiMap,
    J: Iterable[int],
    x: WeylElt,
) -> frozenset[int]:
    """Greatest K inside J with Ad(x) pi (K) = K, by fixed-point descent.

    ``pi`` is the index map of the twist direction in force (the inverse
    twist for the tabulated reductions).  Well defined because the
    stable subsets are closed under union, and greatest because a pass
    drops no node of any stable subset of K, so none is ever lost.
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


# Keyed like ``_CUSPIDAL_MEMO`` on the system key and pi: element key ->
# whether a finished shift walk proved the element minimal in its pi-class.
_MINIMALITY_MEMO: dict[tuple, dict[bytes, bool]] = {}


def _verdicts(W: WeylGroup, pi: PiMap) -> dict[bytes, bool]:
    """The minimality verdicts known for the pi-classes of W."""
    return _MINIMALITY_MEMO.setdefault((W.system.key, tuple(sorted(pi.items()))), {})


def closure_min_check(W: WeylGroup, pi: PiMap, w: WeylElt) -> str:
    """Decide minimality of w in its twisted class via its shift closure.

    Returns "minimal" if the non-increasing closure holds no shorter
    element and "not_minimal" on the first strict descent.  Complete by
    the descent theorem for twisted classes: non-increasing cyclic shifts
    from any element reach a minimal one.  Raises ClosureBudgetError when
    the walk reaches more than ``WALK_BUDGET`` elements, and keeps no
    verdict then.

    The closure is the walk of ``shift_closure``, stopped at its first
    strict descent.  Each walk's verdict is kept in ``_MINIMALITY_MEMO``,
    which also holds every level ``minimal_level`` has walked, and an
    element found there is answered without a walk.

    Fast path: an element whose length equals the number of pi-orbits
    of its support is minimal outright, since every element of the
    class needs at least one letter per orbit.
    """
    verdicts = _verdicts(W, pi)
    if w.key in verdicts:
        return "minimal" if verdicts[w.key] else "not_minimal"
    if w.length == len(_pi_orbits(pi, supp_delta(W, pi, w))):
        return "minimal"

    verdicts[w.key] = minimal = _shorter(W, pi, w) is None
    return "minimal" if minimal else "not_minimal"


def _shorter(W: WeylGroup, pi: PiMap, w: WeylElt) -> Optional[WeylElt]:
    """The first element shorter than w on the walk of ``shift_closure`` from w, or None."""
    for *_, v, change in _shift_walk(W, pi, w):
        if change:
            return WeylElt(W, v, w.length - 2)
    return None


# -- cuspidal classes without enumeration ------------------------------------


def minimal_level(W: WeylGroup, pi: PiMap, w: WeylElt) -> list[WeylElt]:
    """The elements reached from w by length-preserving cyclic shifts, by canonical word.

    For a minimal w of a cuspidal class this is the whole minimal level of
    the class (Geck-Pfeiffer 2000, Thm 3.2.7).  The tests check it against
    enumeration, walking from the last minimal element of each class, on
    every cuspidal class, in both twist directions, of the twisted groups
    of rank <= 6 and of five reducible twisted groups whose twist permutes
    components (304 classes).  Raises FalsificationError when a shift
    descends, so w was not minimal (He-Nie, Duke Math. J. 161 (2012), Thm
    1.1), and ClosureBudgetError beyond ``WALK_BUDGET`` elements.

    A walk that ends without a descent proves every element of the level
    minimal, so their keys go into ``_MINIMALITY_MEMO`` for
    ``closure_min_check``.
    """
    # Every member but the identity has a left descent, hence a shift that
    # does not lengthen it, so the walk yields each member as u, with the
    # key of u^-1 from which its canonical word is spelled once.
    inverse = {}
    for u, u_inv, _, _, change in _shift_walk(W, pi, w):
        if change:
            raise FalsificationError(
                f"{w.word} is not minimal in its twisted class: a cyclic shift shortens it"
            )
        inverse[u] = u_inv
    _verdicts(W, pi).update(dict.fromkeys(inverse or (w.key,), True))
    if not inverse:  # w is the identity and every shift lengthens it
        return [w]
    level = [WeylElt(W, key, w.length) for key in inverse]
    for u in level:
        u._word = tuple(W._peel(inverse[u.key]))
    return sorted(level, key=lambda u: u._word)


# One minimal word per cuspidal class of G2, 2G2, 2B2, 3D4, F4, 2F4, E6 and 2E6,
# in Bourbaki labels under the standard twist (delta direction): the canonical
# representatives, generated once by enumeration.
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

    w w0 is longest in its class: its cycles run along 1, n, 2, n - 1, ...,
    one stretch per part, the largest first.
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


def _standard_seeds(family: str, rank: int, order: int) -> list[tuple[int, ...]]:
    """One minimal word per cuspidal class of a named type under its standard twist.

    Classical types by signed cycle type (Geck-Pfeiffer 2000, ch. 3), the
    rest from ``_SEED_TABLE``.  A twisted class of 2A_(n-1) is the class of
    w w0 in S_n, and one of 2D_n the class of w t_n in B_n, with t_n the
    sign change of e_n; the cuspidal ones have odd parts, respectively all
    cycles negative and an odd number of them.
    """
    if (family, rank, order) in _SEED_TABLE:
        return [tuple(map(int, word)) for word in _SEED_TABLE[family, rank, order]]
    if (family, order) == ("A", 1):
        return [tuple(range(1, rank + 1))]
    if (family, order) == ("A", 2):
        n = rank + 1
        return [_signed_word(_zigzag(n, p), "A")
                for p in _partitions(n) if all(k % 2 for k in p)]
    if family in "BC" and order == 1:
        return [_signed_word(_negative_blocks(rank, p), "B") for p in _partitions(rank)]
    if family == "D" and order in (1, 2):
        seeds = []
        for p in _partitions(rank):
            if len(p) % 2 == order - 1:
                img = _negative_blocks(rank, p)
                if order == 2:
                    img[-1] = -img[-1]  # w = y t_n
                seeds.append(_signed_word(img, "D"))
        return seeds
    raise ValueError(f"no cuspidal seeds for type {'' if order == 1 else order}{family}{rank}")


# Each irreducible component's seeds in its labels 1..m, by Cartan matrix and twist.
_COMPONENT_SEEDS: dict[tuple, list[tuple[int, ...]]] = {}


def _cuspidal_seeds(
    W: WeylGroup, pi: PiMap, nodes: Optional[Iterable[int]] = None
) -> list[tuple[int, ...]]:
    """One minimal word per cuspidal pi-class of W, or of W_nodes for pi-stable nodes.

    From the pi-orbits of components: an orbit of r components
    contributes the pi^r-seeds of its first component, with the identity
    on the others; the seeds are the products over the orbits.
    """
    seeds: list[tuple[int, ...]] = [()]
    for orbit in component_orbits(W, pi, nodes):
        comp, power = sorted(orbit[0]), power_pi(pi, len(orbit))
        cartan = tuple(tuple(W.system.cartan[i - 1][j - 1] for j in comp) for i in comp)
        sigma = tuple(comp.index(power[i]) + 1 for i in comp)
        if (cartan, sigma) not in _COMPONENT_SEEDS:
            ident = identify_standard(cartan, dict(enumerate(sigma, 1)))
            if ident is None:
                raise FalsificationError(f"cannot identify the component {comp} of {W.system.family}")
            family, rank, order, phi = ident
            back = {b: k for k, b in phi.items()}  # standard node -> component node
            _COMPONENT_SEEDS[cartan, sigma] = [
                tuple(back[b] for b in word) for word in _standard_seeds(family, rank, order)
            ]
        words = [tuple(comp[k - 1] for k in word) for word in _COMPONENT_SEEDS[cartan, sigma]]
        seeds = [s + word for s in seeds for word in words]
    return seeds


_CUSPIDAL_MEMO: dict[tuple, tuple[WeylElt, ...]] = {}


def cuspidal_representatives(W: WeylGroup, pi: PiMap) -> tuple[WeylElt, ...]:
    """The canonical minimal representatives of the cuspidal pi-classes of W.

    In (length, canonical word) order, as ``class_list`` lists the
    cuspidal classes: each seed of ``_cuspidal_seeds`` is walked to its
    minimal level (``minimal_level``) and the level's smallest canonical
    word represents the class.  Raises FalsificationError when a seed is
    not minimal, when its twisted support is not all of W's nodes, or when
    two seeds share a level.  Memoized on the group's system key (its
    Cartan matrix, so every group of that matrix shares the entry) and pi.
    """
    pi = restrict_pi(pi, W.system.nodes)
    key = (W.system.key, tuple(sorted(pi.items())))
    if key not in _CUSPIDAL_MEMO:
        nodes = frozenset(W.system.nodes)
        owner: dict[bytes, tuple[int, ...]] = {}
        reps = []
        for word in _cuspidal_seeds(W, pi):
            seed = W.from_word(word)
            if supp_delta(W, pi, seed) != nodes:
                raise FalsificationError(f"seed {word} of {W.system.family} is not cuspidal")
            level = minimal_level(W, pi, seed)
            for u in level:
                if u.key in owner:
                    raise FalsificationError(
                        f"seeds {owner[u.key]} and {word} of {W.system.family} share a class"
                    )
                owner[u.key] = word
            reps.append(level[0])
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
    is u spelled in other letters (``_join_letters``); its length is
    checked.  Raises FalsificationError when x is not minimal.
    """
    return _minimal_levels(W, pi, x)[0]


def _minimal_levels(W: WeylGroup, pi: PiMap, x: WeylElt) -> tuple[list[WeylElt], set[frozenset[int]]]:
    """``minimal_set`` of x, and the twisted supports of its levels."""
    orbits = _pi_orbits(pi, W.system.nodes)
    joins: dict[frozenset[int], list[dict[int, int]]] = {}  # J -> its _join_letters
    found: dict[bytes, WeylElt] = {}
    todo = [x]
    while todo:
        y = todo.pop()
        if y.key in found:
            continue
        level = minimal_level(W, pi, y)
        found.update((u.key, u) for u in level)
        # supp_pi is the same on the whole level: a length-preserving shift
        # by a letter outside it fixes the element.
        J = supp_delta(W, pi, level[0])
        if J not in joins:
            joins[J] = [letters for orbit in orbits if not orbit & J
                        if (letters := _join_letters(W, J, orbit))]
        for letters in joins[J]:
            for u in level:
                v = W._extend(W.identity, [letters[j] for j in u.word])
                if v.length != u.length:
                    raise FalsificationError(f"conjugating {u.word} by w_0^K w_0^J changes its length")
                if v.key not in found:
                    todo.append(v)
    return sorted(found.values(), key=lambda u: u.word), set(joins)


def _delta_class(W: WeylGroup, pi: PiMap, direction: str, minimal: list[WeylElt]) -> DeltaClass:
    return DeltaClass(
        group_key=W.system.key,
        direction=direction,
        pi=tuple(sorted(pi.items())),
        minimal=tuple(minimal),
        cuspidal=supp_delta(W, pi, minimal[0]) == frozenset(W.system.nodes),
    )


def class_of(W: WeylGroup, pi: PiMap, w: WeylElt, direction: str = "delta") -> DeltaClass:
    """The pi-class of any w: non-increasing shifts down to a minimal element
    (Geck-Pfeiffer 2000, Thm 3.2.9; He-Nie 2012, Thm 1.1), then ``minimal_set``."""
    pi = restrict_pi(pi, W.system.nodes)
    while (shorter := _shorter(W, pi, w)) is not None:
        w = shorter
    return _delta_class(W, pi, direction, minimal_set(W, pi, w))


_CLASS_MEMO: dict[tuple, list[DeltaClass]] = {}


def class_list(W: WeylGroup, pi: PiMap, direction: str = "delta") -> list[DeltaClass]:
    """Every pi-class of W, by (length, canonical word) of its representative.

    A class meets some pi-stable W_J in a cuspidal class of W_J, whose
    minimal elements are minimal in W (Geck-Pfeiffer 2000, 3.2): it is the
    ``minimal_set`` of a seed of W_J.  A seed already found is skipped (for
    J = S it raises FalsificationError), and so is a J that is the support
    of a level walked: the joins to it conjugate an earlier W_J' onto W_J,
    twist included.  Memoized on the system key (the Cartan matrix), pi
    and direction, like ``cuspidal_representatives``.  Raises
    ValueError when some W_J has no cuspidal seeds (E7 and E8 for now).
    """
    pi = restrict_pi(pi, W.system.nodes)
    key = (W.system.key, tuple(sorted(pi.items())), direction)
    if key not in _CLASS_MEMO:
        orbits = _pi_orbits(pi, W.system.nodes)
        found: set[bytes] = set()
        supports: set[frozenset[int]] = set()  # of the levels walked
        classes = []
        for r in range(len(orbits) + 1):
            for chosen in combinations(orbits, r):
                J = frozenset().union(*chosen)
                if J in supports:
                    continue
                for word in _cuspidal_seeds(W, pi, J):
                    x = W.from_word(word)
                    if x.key in found:
                        if r == len(orbits):  # every proper W_J came before
                            raise FalsificationError(f"seed {word} of {W.system.family} is "
                                                     "not cuspidal, or two seeds share a class")
                        continue
                    minimal, walked = _minimal_levels(W, pi, x)
                    found.update(u.key for u in minimal)
                    supports |= walked
                    classes.append(_delta_class(W, pi, direction, minimal))
        classes.sort(key=lambda c: c.representative.sort_key())
        _CLASS_MEMO[key] = classes
    return _CLASS_MEMO[key]


# The name the benchmark's certify worker reads.
partition_memo = class_list
