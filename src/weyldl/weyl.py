"""Weyl-group elements as signed permutations of the positive roots.

An element stores, for every positive root index p, the signed index of
its image: ``perm[p] = +(q+1)`` if ``w(beta_p) = beta_q`` and
``-(q+1)`` if ``w(beta_p) = -beta_q``.  Length, inversion sets and
equality are then O(|Phi^+|); reduced words are derived views, with the
lexicographically smallest reduced word as the canonical form.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .rootdata import Root, RootSystem, reflect

__all__ = ["WeylGroup", "WeylElt", "EnumerationBudgetError"]


class EnumerationBudgetError(RuntimeError):
    """Raised when a requested enumeration would exceed its element budget."""


class WeylElt:
    """Immutable group element; compared and hashed by its root action."""

    __slots__ = ("group", "perm", "length", "_word")

    def __init__(self, group: "WeylGroup", perm: tuple[int, ...], length: Optional[int] = None):
        self.group = group
        self.perm = perm
        self.length = sum(1 for t in perm if t < 0) if length is None else length
        self._word: Optional[tuple[int, ...]] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElt):
            return NotImplemented
        return self.perm == other.perm and self.group.system.key == other.group.system.key

    def __hash__(self) -> int:
        return hash(self.perm)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.group.multiply(self, other)

    def __repr__(self) -> str:
        return f"WeylElt({'.'.join(map(str, self.word)) or 'e'})"

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            self._word = self.group.canonical_word(self)
        return self._word

    def inverse(self) -> "WeylElt":
        return self.group.invert(self)

    def is_identity(self) -> bool:
        return self.length == 0

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.length, self.word)


class WeylGroup:
    """Group context: caches the root action tables of a RootSystem."""

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        self.roots = system.positive_roots
        self.nroots = len(self.roots)
        self.root_index = system.root_index
        # Position in ``roots`` of each simple root alpha_1..alpha_rank.
        self.simple_pos = tuple(self.root_index[system.simple_root(i)] for i in system.nodes)
        self._srefl: list[tuple[int, ...]] = []
        for i in range(1, self.rank + 1):
            col = []
            for p, r in enumerate(self.roots):
                img = reflect(system.cartan, i, r)
                if img in self.root_index:
                    col.append(self.root_index[img] + 1)
                else:
                    neg = tuple(-c for c in img)
                    col.append(-(self.root_index[neg] + 1))
            self._srefl.append(tuple(col))
        self.identity = WeylElt(self, tuple(range(1, self.nroots + 1)))
        self._simples = [WeylElt(self, self._srefl[i]) for i in range(self.rank)]
        self._elements_cache: dict[frozenset[int], dict[tuple[int, ...], WeylElt]] = {}
        self._reflections: Optional[list[list[int]]] = None

    # -- basic elements ------------------------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self._simples[i - 1]

    def from_word(self, word: Sequence[int]) -> WeylElt:
        w = self.identity
        for i in word:
            w = self.multiply(w, self.simple(i))
        return w

    # -- group operations ------------------------------------------------------

    def multiply(self, w: WeylElt, u: WeylElt) -> WeylElt:
        """(w u)(beta) = w(u(beta)), by table composition."""
        wp, up = w.perm, u.perm
        out = []
        for t in up:
            if t > 0:
                out.append(wp[t - 1])
            else:
                out.append(-wp[-t - 1])
        return WeylElt(self, tuple(out))

    def invert(self, w: WeylElt) -> WeylElt:
        out = [0] * self.nroots
        for p, t in enumerate(w.perm):
            if t > 0:
                out[t - 1] = p + 1
            else:
                out[-t - 1] = -(p + 1)
        return WeylElt(self, tuple(out))

    # -- root actions ------------------------------------------------------------

    def act_signed(self, w: WeylElt, signed: int) -> int:
        return w.perm[signed - 1] if signed > 0 else -w.perm[-signed - 1]

    def act_on_root(self, w: WeylElt, alpha: Root) -> Root:
        """Image of a root given by coordinates; may come back negative."""
        if alpha in self.root_index:
            t = w.perm[self.root_index[alpha]]
        else:
            neg = tuple(-c for c in alpha)
            if neg not in self.root_index:
                raise ValueError(f"{alpha} is not a root")
            t = -w.perm[self.root_index[neg]]
        coords = self.roots[abs(t) - 1]
        return coords if t > 0 else tuple(-c for c in coords)

    def act_on_simple(self, w: WeylElt, i: int) -> int:
        """Signed root index of w(alpha_i)."""
        return w.perm[self.simple_pos[i - 1]]

    def reflection_table(self) -> list[list[int]]:
        """Row p: signed action of the reflection in beta_p on signed root indices.

        ``row[t]`` is the signed index of s_beta(beta_t) for t = +-1..+-N
        (negative t by Python's negative indexing); row 0 is unused.  Built
        once, by height: s_beta = s_j s_beta' s_j when s_j beta = beta' is lower.
        """
        if self._reflections is None:
            n = self.nroots

            def signed(images: Sequence[int]) -> list[int]:
                row = [0] * (2 * n + 1)
                for t, img in enumerate(images, 1):
                    row[t], row[-t] = img, -img
                return row

            height = [0] + [sum(r) for r in self.roots]
            simple_rows = [signed(col) for col in self._srefl]
            rows: list = [None] * (n + 1)
            for p in sorted(range(1, n + 1), key=height.__getitem__):
                if height[p] == 1:
                    rows[p] = simple_rows[self.roots[p - 1].index(1)]
                    continue
                j = next(j for j in range(self.rank) if 0 < self._srefl[j][p - 1]
                         and height[self._srefl[j][p - 1]] < height[p])
                s, lower = simple_rows[j], rows[self._srefl[j][p - 1]]
                rows[p] = signed([s[lower[s[t]]] for t in range(1, n + 1)])
            self._reflections = rows
        return self._reflections

    def signed_to_coords(self, signed: int) -> Root:
        coords = self.roots[abs(signed) - 1]
        return coords if signed > 0 else tuple(-c for c in coords)

    def inversions(self, w: WeylElt) -> tuple[int, ...]:
        """Indices of the positive roots sent negative by w."""
        return tuple(p for p, t in enumerate(w.perm) if t < 0)

    # -- words ----------------------------------------------------------------

    def canonical_word(self, w: WeylElt) -> tuple[int, ...]:
        """Lexicographically smallest reduced word, by greedy left descents.

        Tracks the images of the simple roots under cur^{-1}: a left descent
        i of cur is a negative image, and cur^{-1} s_i = s_beta cur^{-1} with
        beta = cur^{-1}(alpha_i), one reflection-table row per letter.
        """
        refl = self.reflection_table()
        inv = self.invert(w).perm
        img = [inv[p] for p in self.simple_pos]
        word: list[int] = []
        for _ in range(w.length):
            i = next(i for i, t in enumerate(img) if t < 0)
            word.append(i + 1)
            r = refl[-img[i]]
            img = [r[t] for t in img]
        return tuple(word)

    def word_from_bracket(self, a: int, b: int, inverse: bool = False) -> tuple[int, ...]:
        """The descending run s_a s_{a-1} ... s_b; empty when a < b.

        The empty-word reading of the a < b branch is deliberate: the
        sources write it as a formal zero, which is not a group element.
        """
        for x in (a, b):
            if not 1 <= x <= self.rank:
                raise ValueError(f"index {x} out of range 1..{self.rank}")
        if a < b:
            return ()
        word = tuple(range(a, b - 1, -1))
        return tuple(reversed(word)) if inverse else word

    # -- parabolic structure -------------------------------------------------------

    def longest_element(self, nodes: Iterable[int]) -> WeylElt:
        """Longest element of the standard parabolic W_J, by greedy ascent."""
        J = sorted(set(nodes))
        for j in J:
            if not 1 <= j <= self.rank:
                raise ValueError(f"node {j} out of range")
        w = self.identity
        while True:
            for j in J:
                if self.act_on_simple(w, j) > 0:
                    w = self.multiply(w, self.simple(j))
                    break
            else:
                return w

    def is_min_coset_rep(self, w: WeylElt, nodes: Iterable[int]) -> bool:
        """True iff w alpha_j > 0 for all j in J (minimal in w W_J)."""
        return all(self.act_on_simple(w, j) > 0 for j in nodes)

    def support(self, w: WeylElt) -> frozenset[int]:
        """Letters occurring in any reduced word of w."""
        return frozenset(w.word)

    # -- enumeration ------------------------------------------------------------

    def elements(
        self,
        nodes: Optional[Iterable[int]] = None,
        budget: int = 10 ** 6,
    ) -> dict[tuple[int, ...], WeylElt]:
        """All elements of the standard parabolic on ``nodes`` (default: W).

        Keyed by the images of the simple roots (signed root indices),
        which determine an element.  Breadth-first from the identity by
        right multiplication with the simple reflections in ``nodes``:
        (w s)(alpha_k) = w(s(alpha_k)) gives a product's key by lookup, the
        product is built only when the key is new, and its length is its
        depth.  Cached per node set.  Raises EnumerationBudgetError beyond
        ``budget`` elements, on a cache hit as on the first call.
        """
        key = frozenset(nodes) if nodes is not None else frozenset(range(1, self.rank + 1))
        cached = self._elements_cache.get(key)
        if cached is not None:
            if len(cached) > budget:
                raise EnumerationBudgetError(
                    f"parabolic enumeration exceeded budget {budget}"
                )
            return cached
        gens = [self._srefl[i - 1] for i in sorted(key)]
        gens = [(s, [s[p] for p in self.simple_pos]) for s in gens]
        seen = {tuple(p + 1 for p in self.simple_pos): self.identity}
        frontier = [self.identity.perm]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for wp in frontier:
                # Signed images: row[t] = w(beta_t), row[-t] = -w(beta_t).
                row = (0,) + wp + tuple([-t for t in reversed(wp)])
                for s, s_simple in gens:
                    img = tuple([row[t] for t in s_simple])
                    if img in seen:
                        continue
                    if len(seen) >= budget:
                        raise EnumerationBudgetError(
                            f"parabolic enumeration exceeded budget {budget}"
                        )
                    up = tuple([row[t] for t in s])
                    seen[img] = WeylElt(self, up, depth)
                    nxt.append(up)
            frontier = nxt
        self._elements_cache[key] = seen
        return seen

    def order(self, nodes: Optional[Iterable[int]] = None) -> int:
        return len(self.elements(nodes))
