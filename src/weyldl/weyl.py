"""Weyl-group elements as the images of the simple roots.

An element w is determined by w(alpha_1), ..., w(alpha_rank) (Casselman,
Invent. Math. 116 (1994)).  Its key is those images as ``bytes``: byte k
is ``t + N`` for the signed index t (``+-(q + 1)`` for +-beta_q) of
w(alpha_k) among the N <= 127 positive roots (``MAX_ROOTS``, the most a
byte holds).  Elements move only by ``bytes.translate`` through the table
of a reflection s_beta: the key of s_beta w is the translated key, and
w s_i = s_beta w for beta = w(alpha_i), with l(w s_i) = l(w) + 1 exactly
when beta is positive.  Products, inverses, the canonical
(lexicographically smallest) reduced words and inversion sets are all read
off these moves; no element carries a second encoding.  An element built
from a reduced word (``WeylGroup.from_word``) keeps that word, which
``reduced_word`` returns, so inverses, products, supports and the shift
walks of ``conjugacy`` start from it without peeling the key.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .rootdata import RootSystem, cartan_matrix, system_of

__all__ = ["WeylGroup", "WeylElt", "group_of", "weyl_group"]


class WeylElt:
    """Immutable group element: a key plus its length; compared and hashed by key.

    ``_word`` is the canonical word once spelled.  ``_reduced`` is the
    reduced word the element was built from (``WeylGroup.from_word``), or
    None: an element built from a reduced word keeps that word.
    """

    __slots__ = ("group", "key", "length", "_word", "_reduced")

    def __init__(self, group: "WeylGroup", key: bytes, length: int):
        self.group = group
        self.key = key
        self.length = length
        self._word: Optional[tuple[int, ...]] = None
        self._reduced: Optional[tuple[int, ...]] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElt):
            return NotImplemented
        return self.key == other.key and self.group.system.key == other.group.system.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"WeylElt({'.'.join(map(str, self.word)) or 'e'})"

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            self._word = self.group.canonical_word(self)
        return self._word

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.length, self.word)


def _build_tables(system: RootSystem) -> list[bytes]:
    """The reflection tables of ``system``.

    Built by height: the table of a simple root is its column of
    ``system.simple_reflections``, and s_beta = s_j s_beta' s_j when
    s_j beta = beta' is lower, which is two translates of tables already
    built.
    """
    roots, columns = system.positive_roots, system.simple_reflections
    n = len(roots)
    identity = bytes(range(256))
    simple = [bytes([n - t for t in reversed(col)]) + bytes([n])
              + bytes([n + t for t in col]) + identity[2 * n + 1:] for col in columns]
    height = [sum(r) for r in roots]
    tables = [identity] * (2 * n + 1)
    for p in range(n):  # the roots are in height order
        if height[p] == 1:
            table = simple[roots[p].index(1)]
        else:
            j = next(j for j, col in enumerate(columns)
                     if 0 < col[p] and height[col[p] - 1] < height[p])
            lower = columns[j][p] - 1
            table = simple[j].translate(tables[n + lower + 1]).translate(simple[j])
        tables[n + p + 1] = tables[n - p - 1] = table
    return tables


# The byte of +-beta_q is N +- (q + 1), so 2N + 1 bytes must fit in 0..255.
MAX_ROOTS = 127


class WeylGroup:
    """Group context: a root system, its identity and simple reflections."""

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        self.roots = system.positive_roots
        self.nroots = n = len(self.roots)
        if n > MAX_ROOTS:
            raise ValueError(f"{system.family}{system.rank} has {n} positive roots, "
                             f"above the limit of {MAX_ROOTS} that element keys hold")
        # Position in ``roots`` of each simple root alpha_1..alpha_rank.
        self.simple_pos = tuple(self.roots.index(system.simple_root(i)) for i in system.nodes)
        self.identity = WeylElt(self, bytes(p + 1 + n for p in self.simple_pos), 0)
        # Key byte -> 0 for a negative root, 1 otherwise: finds right descents.
        self._negative = bytes(n) + b"\x01" * (256 - n)
        self._tables: Optional[list[bytes]] = None
        self._coords: dict[int, tuple[int, ...]] = {}
        # Index map, as the images of nodes 1..rank -> its standard type
        # (``subsystems.standard_type``), resolved on first use.
        self._types: dict[tuple[int, ...], Optional[tuple]] = {}

    # -- the move kernel ------------------------------------------------------

    def reflection_table(self) -> list[bytes]:
        """Entry b: the reflection in the root of key byte b as a translate table.

        ``tables[b][c]`` is the key byte of s_beta(gamma), for beta the root
        of byte b and gamma that of byte c; bytes b and 2N - b (a root and
        its negative) share a table, and byte N maps to the identity.  Built
        on first use (``_build_tables``), so once per Cartan matrix for the
        groups of ``group_of``, named types and parabolics alike.
        """
        if self._tables is None:
            self._tables = _build_tables(self.system)
        return self._tables

    def _extend(self, w: WeylElt, word: Iterable[int]) -> WeylElt:
        """w s_{word[0]} s_{word[1]} ..., one translate per letter."""
        tables, n = self.reflection_table(), self.nroots
        key, length = w.key, w.length
        for i in word:
            b = key[i - 1]
            length += 1 if b > n else -1
            key = key.translate(tables[b])
        return WeylElt(self, key, length)

    def _peel(self, key: bytes) -> list[int]:
        """Right descents stripped off, the smallest first, down to the identity.

        Returns j_1, ..., j_m with w s_{j_1} ... s_{j_m} = e: a reduced word
        of w^{-1}, and of w when reversed.
        """
        tables, negative = self.reflection_table(), self._negative
        word = []
        while (j := key.translate(negative).find(0)) >= 0:
            word.append(j + 1)
            key = key.translate(tables[key[j]])
        return word

    # -- basic elements ------------------------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self.from_word((i,))

    def from_word(self, word: Sequence[int]) -> WeylElt:
        """The product of ``word``, which it keeps when the word is reduced.

        The one place a word is judged reduced: exactly when its length is
        the product's length.
        """
        word = tuple(word)
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"word letter {i} out of range 1..{self.rank}")
        w = self._extend(self.identity, word)
        if w.length == len(word):
            w._reduced = word
        return w

    # -- group operations ------------------------------------------------------

    def multiply(self, w: WeylElt, u: WeylElt) -> WeylElt:
        """w u, as w times a reduced word of u (``reduced_word``)."""
        return self._extend(w, self.reduced_word(u))

    def invert(self, w: WeylElt) -> WeylElt:
        """w^-1, as the reversed ``reduced_word`` of w."""
        return self._extend(self.identity, reversed(self.reduced_word(w)))

    def invert_with_inversions(self, w: WeylElt) -> tuple[WeylElt, list[int]]:
        """w^{-1}, and the indices of the inversions of w in root order, from one walk.

        ``invert`` extends the identity by the reduced word j_1 ... j_m of
        w^{-1} that ``_peel`` gives; step k meets the positive root
        s_{j_1} ... s_{j_(k-1)}(alpha_(j_k)), and the m roots met are the
        inversions of (w^{-1})^{-1} = w.
        """
        tables, n = self.reflection_table(), self.nroots
        key, met = self.identity.key, []
        for j in self._peel(w.key):
            b = key[j - 1]
            met.append(b - n - 1)  # the byte of +beta_p is N + p + 1
            key = key.translate(tables[b])
        met.sort()
        return WeylElt(self, key, len(met)), met

    # -- root actions ------------------------------------------------------------

    def act_on_simple(self, w: WeylElt, i: int) -> int:
        """Signed root index of w(alpha_i)."""
        return w.key[i - 1] - self.nroots

    def simple_image(self, w: WeylElt, i: int) -> Optional[int]:
        """m when w(alpha_i) is the simple root alpha_m, else None."""
        m = self.identity.key.find(w.key[i - 1])
        return m + 1 if m >= 0 else None

    def signed_to_coords(self, signed: int) -> tuple[int, ...]:
        """Simple-root coordinates of the root of signed index ``signed``, as ints.

        Built when the row is first asked for and kept, so the strict
        systems of ``weyldl.criterion`` share these tuples as their
        coefficient rows; a system reads at most 2 * rank of the 2N rows.
        """
        row = self._coords.get(signed)
        if row is None:
            root = self.roots[abs(signed) - 1]
            row = self._coords[signed] = root if signed > 0 else tuple(-c for c in root)
        return row

    # -- words ----------------------------------------------------------------

    def canonical_word(self, w: WeylElt) -> tuple[int, ...]:
        """Lexicographically smallest reduced word, by greedy left descents.

        The left descents of w are the right descents of w^{-1}, so peeling
        the smallest right descent of w^{-1} first spells the word.
        """
        return tuple(self._peel(self.invert(w).key))

    def reduced_word(self, w: WeylElt) -> tuple[int, ...]:
        """Some reduced word of w: the canonical one when already spelled.

        Otherwise the reduced word w was built from, if it keeps one
        (``from_word``), else one ``_peel`` of the key, reversed, which
        has the same letters as every reduced word of w but needs no
        ``invert``.
        """
        if w._word is not None:
            return w._word
        if w._reduced is not None:
            return w._reduced
        return tuple(reversed(self._peel(w.key)))

    # -- parabolic structure -------------------------------------------------------

    def longest_element(self, nodes: Iterable[int]) -> WeylElt:
        """Longest element of the standard parabolic W_J, by greedy ascent."""
        J = sorted(set(nodes))
        for j in J:
            if not 1 <= j <= self.rank:
                raise ValueError(f"node {j} out of range")
        tables, n = self.reflection_table(), self.nroots
        key, length = self.identity.key, 0
        while ascent := next((j for j in J if key[j - 1] > n), 0):
            key = key.translate(tables[key[ascent - 1]])
            length += 1
        return WeylElt(self, key, length)

    def is_min_coset_rep(self, w: WeylElt, nodes: Iterable[int]) -> bool:
        """True iff w alpha_j > 0 for all j in J (minimal in w W_J)."""
        return all(self.act_on_simple(w, j) > 0 for j in nodes)

    def support(self, w: WeylElt) -> frozenset[int]:
        """The letters of every reduced word of w, read off ``reduced_word``."""
        return frozenset(self.reduced_word(w))


# The one group of each Cartan matrix, named type or standalone parabolic, and
# an index of the named types, which saves ``weyl_group`` a matrix build.
_BY_CARTAN: dict[tuple[tuple[int, ...], ...], WeylGroup] = {}
_GROUPS: dict[tuple[str, int], WeylGroup] = {}


def group_of(cartan: tuple[tuple[int, ...], ...]) -> WeylGroup:
    """The one group of a Cartan matrix, named by ``system_of``, built on first use."""
    if cartan not in _BY_CARTAN:
        _BY_CARTAN[cartan] = WeylGroup(system_of(cartan))
    return _BY_CARTAN[cartan]


def weyl_group(family: str, rank: int) -> WeylGroup:
    """``group_of`` the matrix of ``family`` ``rank``; raises where ``cartan_matrix`` does."""
    key = (family, rank)
    if key not in _GROUPS:
        _GROUPS[key] = group_of(cartan_matrix(family, rank))
    return _GROUPS[key]
