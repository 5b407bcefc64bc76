import ast
import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multiply_oracles
from weyldl import conjugacy, subsystems
from weyldl.casetables import _resolve_v_options, place_row, verify_case
from weyldl.catalog import case_records, type_group
from weyldl.conjugacy import (
    ClosureBudgetError,
    DeltaClass,
    FalsificationError,
    class_list,
    class_of,
    closure_min_check,
    cuspidal_representatives,
    direction_of,
    inverse_pi,
    minimal_level,
    minimal_set,
    pi_of,
    shift_closure,
    supp_delta,
)
from weyldl.exactnum import QuadExt
from weyldl.rootdata import build_twist, cartan_matrix, positive_root_count
from weyldl.subsystems import identify_standard, sub_context
from weyldl.weyl import WeylElt, WeylGroup, group_of

from conftest import RANK_5_6, RANK_LE_4, group, twist_of
from multiply_oracles import (
    class_elements,
    class_keys,
    cyclic_shift_step,
    elementarily_strongly_conjugate,
    elements_of,
    enumerate_delta_classes,
    group_elements,
    is_cuspidal_by_definition,
    multiply_shift_closure,
    oracle_class_of,
    shift_descend_to_min,
)


def identity_pi(W):
    return {i: i for i in range(1, W.rank + 1)}


# The types of ``_SEED_TABLE``: their elliptic elements are decided by the
# seeds (``_seed_length``).  In 2B2, 2G2 and 2F4 the twist swaps long and short
# roots.
SEEDED = list(conjugacy._SEED_TABLE)
SUZUKI_REE = [("B", 2, 2), ("G", 2, 2), ("F", 4, 2)]


def charpoly(W, word, pi):
    """``_charpoly`` of the product of ``word`` under pi."""
    return conjugacy._charpoly(W, word, conjugacy._sigma(W, pi))


def elliptic(W, pi, w):
    """Whether w sigma fixes no nonzero vector: P(1) != 0."""
    return conjugacy._elliptic(charpoly(W, W.reduced_word(w), pi), conjugacy._sigma(W, pi)[1])


def type_id(name):
    return "".join(map(str, name))


class TestCyclicShift:
    def test_identity_fixed_nodes(self, A2):
        pi = identity_pi(A2)
        assert cyclic_shift_step(A2, pi, A2.identity, 1) == A2.identity

    def test_identity_swapped_nodes(self, A2):
        t = build_twist("A", 2, 2)
        pi = pi_of(t)
        # s_1 e s_2 has length 2 > 0: no non-increasing shift.
        assert cyclic_shift_step(A2, pi, A2.identity, 1) is None

    def test_length_preserving(self, A2):
        pi = identity_pi(A2)
        w = A2.from_word([1, 2])
        assert cyclic_shift_step(A2, pi, w, 1) == A2.from_word([2, 1])

    def test_length_decreasing(self, A2):
        pi = identity_pi(A2)
        w = A2.from_word([1, 2, 1])
        out = cyclic_shift_step(A2, pi, w, 1)
        assert out == A2.simple(2)


class TestClosure:
    def test_coxeter_closure_a2(self, A2):
        pi = identity_pi(A2)
        closure = shift_closure(A2, pi, A2.from_word([1, 2]))
        assert set(closure) == {A2.from_word([1, 2]), A2.from_word([2, 1])}

    def test_closure_reaches_minimum(self, A2):
        pi = identity_pi(A2)
        closure = shift_closure(A2, pi, A2.from_word([1, 2, 1]))
        assert A2.simple(1) in closure or A2.simple(2) in closure

    @pytest.mark.parametrize("family,rank,order", [("B", 3, 1), ("D", 4, 3), ("F", 4, 2)])
    def test_walk_from_a_held_word(self, family, rank, order, monkeypatch):
        """A walk from an element built from a reduced word reads w^-1 off the
        word the element keeps, with no ``_peel`` of its start, and yields
        what a walk from the bare key yields; an element built from a word of
        another length keeps none, and its walk peels its key once.  From
        each minimal element u of every class, and from each s_j u s_pi(j)."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order))
        starts = []
        for cls in class_list(W, pi):
            for u in cls.minimal:
                starts.append(u.word)
                starts += [(j, *u.word, pi[j]) for j in sorted(pi)]
        real_peel, peeled = WeylGroup._peel, []
        monkeypatch.setattr(WeylGroup, "_peel",
                            lambda self, key: peeled.append(key) or real_peel(self, key))
        reduced = 0
        for word in starts:
            w = W.from_word(word)
            alone = list(conjugacy._shift_walk(W, pi, WeylElt(W, w.key, w.length)))
            peeled.clear()
            assert list(conjugacy._shift_walk(W, pi, w)) == alone
            reduced += len(word) == w.length
            assert peeled == ([] if len(word) == w.length else [w.key])
        assert 0 < reduced < len(starts)

    def test_descend(self, G2):
        pi = identity_pi(G2)
        w0 = G2.longest_element([1, 2])
        cls = class_of(G2, pi, w0)
        down = shift_descend_to_min(G2, pi, G2.multiply(w0, G2.identity))
        assert down.length == cls.min_length


def _partitions(n, largest=None):
    """Number of partitions of n into parts of size at most ``largest``."""
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(_partitions(n - k, k) for k in range(1, min(n, largest) + 1))


class TestClassCounts:
    """Untwisted class counts against the classical cycle-type formulas."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_type_a_counts_partitions(self, n):
        # Classes of S_n = W(A_{n-1}) are cycle types: partitions of n.
        W = group("A", n - 1)
        assert len(class_list(W, identity_pi(W))) == _partitions(n)

    @pytest.mark.parametrize("family", ["B", "C"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_types_b_c_count_partition_pairs(self, family, n):
        # Classes of the hyperoctahedral group: signed cycle types, one per
        # pair of partitions (positive cycles, negative cycles) of total size n.
        W = group(family, n)
        pairs = sum(_partitions(k) * _partitions(n - k) for k in range(n + 1))
        assert pairs == {2: 5, 3: 10, 4: 20, 5: 36, 6: 65}[n]
        assert len(class_list(W, identity_pi(W))) == pairs


class TestShiftClosureOracle:
    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + [("E", 6, 2), ("B", 5, 1)])
    def test_graph_matches_multiply_shifts(self, family, rank, order):
        """Nodes equal the closure under W.multiply shifts; each node lists
        exactly its non-increasing shifts, letter by letter."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order))
        rng = random.Random(31 * rank + order)
        for _ in range(6):
            w = W.from_word([rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))])
            graph = shift_closure(W, pi, w)
            assert set(graph) == multiply_shift_closure(W, pi, w)
            for u, edges in graph.items():
                expected = [(j, cyclic_shift_step(W, pi, u, j)) for j in sorted(pi)]
                assert edges == [(j, v) for j, v in expected if v is not None]
                assert all(v.length == len(v.word) for _, v in edges)


class TestEnumeration:
    def test_a2_untwisted(self, A2):
        classes = enumerate_delta_classes(A2, identity_pi(A2))
        assert len(classes) == 3
        assert [c.min_length for c in classes] == [0, 1, 2]
        assert [len(class_keys(A2, c)) for c in classes] == [1, 3, 2]

    def test_g2_untwisted(self, G2):
        classes = enumerate_delta_classes(G2, identity_pi(G2))
        assert len(classes) == 6
        assert sum(1 for c in classes if c.cuspidal) == 3

    def test_f4_untwisted(self, F4):
        classes = class_list(F4, identity_pi(F4))
        assert len(classes) == 25
        assert sum(1 for c in classes if c.cuspidal) == 9

    def test_partition_is_exhaustive(self, B2):
        classes = enumerate_delta_classes(B2, identity_pi(B2))
        assert sum(len(class_keys(B2, c)) for c in classes) == len(group_elements(B2))
        assert sorted(k for c in classes for k in class_keys(B2, c)) == sorted(group_elements(B2))

    def test_length_parity_constant_on_classes(self, F4, D4):
        for W, order in ((F4, 1), (F4, 2), (D4, 3)):
            pi = pi_of(twist_of(W, order))
            for cls in enumerate_delta_classes(W, pi):
                assert all(w.length % 2 == cls.min_length % 2 for w in class_elements(W, cls))

    def test_identity_closure_is_identity(self, A2):
        assert shift_closure(A2, identity_pi(A2), A2.identity) == {
            A2.identity: [(1, A2.identity), (2, A2.identity)]
        }

    def test_union_find_matches_brute_conjugation_rank2(self, A2, B2, G2):
        # Independent oracle: orbits of w -> x w pi(x)^{-1} over all x.
        for W, order in ((A2, 1), (A2, 2), (B2, 1), (G2, 1)):
            t = twist_of(W, order)
            pi = pi_of(t)
            elements = elements_of(W)
            def orbit(w):
                out = set()
                for x in elements:
                    tx = W.from_word([pi[i] for i in x.word])
                    out.add(W.multiply(W.multiply(x, w), W.invert(tx)))
                return out
            classes = enumerate_delta_classes(W, pi)
            for cls in classes:
                assert set(class_elements(W, cls)) == orbit(cls.representative)

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4)
    def test_classes_are_multiply_shift_orbits_rank_le_4(self, family, rank, order):
        """Classes equal the orbits of w -> s_j w s_pi(j) under W.multiply, both
        directions; members keep enumeration order; the representative is the
        minimal-length member with the smallest canonical word."""
        W = group(family, rank)
        elements = elements_of(W)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            orbits, done = set(), set()
            for w in elements:
                if w in done:
                    continue
                orbit, frontier = {w}, [w]
                while frontier:
                    u = frontier.pop()
                    for j in pi:
                        v = W.multiply(W.multiply(W.simple(j), u), W.simple(pi[j]))
                        if v not in orbit:
                            orbit.add(v)
                            frontier.append(v)
                done |= orbit
                orbits.add(frozenset(orbit))
            classes = enumerate_delta_classes(W, pi)
            assert {frozenset(class_elements(W, c)) for c in classes} == orbits
            for cls in classes:
                members = class_elements(W, cls)
                assert class_keys(W, cls) == tuple(w.key for w in elements if w in members)
                assert cls.min_length == min(w.length for w in members)
                mins = [w for w in members if w.length == cls.min_length]
                assert cls.representative == min(mins, key=lambda w: w.word)
                assert list(cls.minimal) == sorted(mins, key=lambda w: w.sort_key())


class TestDeltaClassRecord:
    """DeltaClass keeps the semantics of the frozen dataclass it replaces, slotted."""

    def test_equality_hash_and_frozen(self):
        W, pi = group("B", 3), pi_of(build_twist("B", 3, 1))
        again = class_list(W, pi)
        fresh = [class_of(W, pi, c.minimal[-1]) for c in again]
        assert fresh[0] is not again[0]
        assert fresh == again and [hash(c) for c in fresh] == [hash(c) for c in again]
        assert fresh[0] != fresh[1]
        cls = fresh[-1]
        with pytest.raises(AttributeError):
            cls.cuspidal = not cls.cuspidal
        with pytest.raises(AttributeError):
            del cls.minimal
        assert not hasattr(cls, "__dict__")
        assert DeltaClass.__slots__ == ("group_key", "pi", "minimal", "cuspidal")
        assert cls == again[-1]


def twists_through_rank_8():
    """(family, rank, twist) for every type of rank <= 8 and each of its twists."""
    out = []
    for family in "ABCDEFG":
        for rank in range(1, 9):
            try:
                positive_root_count(family, rank)
            except ValueError:
                continue
            for order in (1, 2, 3):
                try:
                    out.append((family, rank, build_twist(family, rank, order)))
                except ValueError:
                    pass
    return out


class TestDirectionOf:
    """``direction_of`` is the inverse of ``pi_of``, with "delta" for an involution."""

    def test_round_trips_pi_of(self):
        """Both maps of every twist through rank 8: "delta" for order 1 and 2, the
        direction itself for 3D4."""
        twists = twists_through_rank_8()
        assert len(twists) == 50
        assert [(f, r) for f, r, t in twists if t.order == 3] == [("D", 4)]
        for family, rank, twist in twists:
            for direction in ("delta", "delta_inv"):
                pi = pi_of(twist, direction)
                expected = direction if twist.order == 3 else "delta"
                assert direction_of(twist, pi) == expected, (family, rank, twist.order)

    def test_rejects_other_maps(self):
        """A map that is neither of the twist's: two images swapped, a node
        missing, or a node too many."""
        for family, rank, twist in twists_through_rank_8():
            pi = pi_of(twist)
            others = [{i: i for i in range(1, rank + 2)}, dict(list(pi.items())[:-1])]
            if rank > 1:
                others.append({**pi, 1: pi[2], 2: pi[1]})
            for other in others:
                with pytest.raises(ValueError, match="is not a map of the twist"):
                    direction_of(twist, other)

    @pytest.mark.parametrize("family,rank,order", [("A", 3, 1), ("A", 3, 2), ("E", 6, 2)])
    def test_involution_maps_share_one_class_list(self, family, rank, order):
        """The two equal maps of a twist of order 1 or 2 read one memo entry."""
        W, twist = group(family, rank), build_twist(family, rank, order)
        assert class_list(W, pi_of(twist, "delta")) is class_list(W, pi_of(twist, "delta_inv"))


class TestSharedSubGroups:
    """Node sets with equal Cartan submatrices share one standalone group."""

    def test_c7_and_c8_tails_share_group_and_partition(self):
        low = sub_context(group("C", 7), range(3, 8))
        high = sub_context(group("C", 8), range(4, 9))
        assert low.group is high.group
        assert low.nodes != high.nodes
        pi_low = low.pi_to_sub({i: i for i in low.nodes})
        pi_high = high.pi_to_sub({i: i for i in high.nodes})
        assert class_list(low.group, pi_low) is class_list(high.group, pi_high)

    def test_same_word_gives_equal_elements(self):
        low = sub_context(group("C", 7), range(3, 8))
        high = sub_context(group("C", 8), range(4, 9))
        word = (3, 4, 7, 6, 5, 7, 6, 3)
        x = low.group.from_word(low.word_to_sub(word))
        y = high.group.from_word(high.word_to_sub(tuple(i + 1 for i in word)))
        assert x == y and hash(x) == hash(y)
        assert tuple(i - 1 for i in high.word_to_ambient(y.word)) == low.word_to_ambient(x.word)

    def test_different_submatrices_do_not_share(self):
        c_tail = sub_context(group("C", 7), range(3, 8))
        b_tail = sub_context(group("B", 7), range(3, 8))
        assert c_tail.group is not b_tail.group
        assert c_tail.system.key != b_tail.system.key


class TestSupport:
    def test_identity(self, A2):
        assert supp_delta(A2, identity_pi(A2), A2.identity) == frozenset()

    def test_twisted_a3(self):
        W = group("A", 3)
        pi = pi_of(build_twist("A", 3, 2))
        assert supp_delta(W, pi, W.simple(1)) == frozenset({1, 3})

    def test_triality(self, D4):
        pi = pi_of(build_twist("D", 4, 3))
        assert supp_delta(D4, pi, D4.from_word([2, 1])) == frozenset({1, 2, 3, 4})


class TestCuspidality:
    def test_identity_class_not_cuspidal(self, A2):
        pi = identity_pi(A2)
        classes = enumerate_delta_classes(A2, pi)
        assert classes[0].representative == A2.identity
        assert not classes[0].cuspidal
        assert not is_cuspidal_by_definition(A2, pi, classes[0])

    def test_coxeter_class_cuspidal(self, A2):
        pi = identity_pi(A2)
        cls = class_of(A2, pi, A2.from_word([2, 1]))
        assert cls.cuspidal
        assert is_cuspidal_by_definition(A2, pi, cls)

    def test_g2_longest_cuspidal(self, G2):
        pi = identity_pi(G2)
        cls = class_of(G2, pi, G2.longest_element([1, 2]))
        assert cls.cuspidal

    def test_flag_matches_definition_rank_le_4(self):
        for family, rank, order in [
            ("A", 3, 1), ("A", 3, 2), ("B", 3, 1), ("D", 4, 1), ("D", 4, 2),
            ("D", 4, 3), ("F", 4, 1), ("F", 4, 2), ("G", 2, 2), ("B", 2, 2),
        ]:
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            for cls in class_list(W, pi):
                assert cls.cuspidal == is_cuspidal_by_definition(W, pi, cls), (
                    family, rank, order, cls.representative.word,
                )


class TestStrongConjugacy:
    def test_reflexive(self, A2):
        pi = identity_pi(A2)
        w = A2.from_word([1, 2])
        assert elementarily_strongly_conjugate(A2, pi, w, w) == A2.identity

    def test_a2_coxeter_pair(self, A2):
        pi = identity_pi(A2)
        x = elementarily_strongly_conjugate(
            A2, pi, A2.from_word([1, 2]), A2.from_word([2, 1])
        )
        assert x is not None

    def test_length_mismatch(self, A2):
        pi = identity_pi(A2)
        assert (
            elementarily_strongly_conjugate(A2, pi, A2.simple(1), A2.from_word([1, 2]))
            is None
        )


class TestFixedNodeSet:
    """K = I(J, w1, tau), as ``place_row`` places the step (J, w1)."""

    def test_triality_case(self, D4):
        pi = pi_of(build_twist("D", 4, 3), "delta_inv")
        placed = place_row(D4, pi, frozenset({1, 2, 3}), (3, 2, 1))
        assert (placed.K, placed.sigma) == (frozenset({1, 2}), {1: 2, 2: 1})

    def test_identity_fixes_everything(self, A2):
        pi = identity_pi(A2)
        placed = place_row(A2, pi, frozenset({1}), ())
        assert (placed.K, placed.sigma) == (frozenset({1}), {1: 1})

    def test_twisted_a4(self):
        W = group("A", 4)
        pi = pi_of(build_twist("A", 4, 2), "delta_inv")
        placed = place_row(W, pi, frozenset({1, 2, 3}), (3, 2, 1))
        assert (placed.K, placed.sigma) == (frozenset({2}), {1: 1})

    def test_precondition(self, A2):
        """s_1 is not minimal in its coset of W_{1}: no placement."""
        pi = identity_pi(A2)
        assert place_row(A2, pi, frozenset({1}), (1,)) is None


class TestInverseMap:
    def test_min_lengths_match_rank_le_3(self):
        for family, rank, order in [("A", 3, 1), ("A", 3, 2), ("B", 3, 1), ("G", 2, 2)]:
            W = group(family, rank)
            t = build_twist(family, rank, order)
            fwd = class_list(W, pi_of(t, "delta"))
            bwd = class_list(W, pi_of(t, "delta_inv"))
            for cls in fwd:
                winv = W.invert(cls.representative)
                other = class_of(W, pi_of(t, "delta_inv"), winv)
                assert other in bwd
                assert other.min_length == cls.min_length
                assert len(class_keys(W, other)) == len(class_keys(W, cls))


def e6_d4():
    """E6's D4 on nodes 2..5, in its standalone labels: node 3 central, not 2."""
    return sub_context(group("E", 6), frozenset({2, 3, 4, 5})).group


# Groups that ``identify_standard`` names A, B, C or D in labels other than
# their own, or under a map that is not their standard twist: name -> (the
# group, pi, the resolved (family, rank, order), the group's order).
RELABELLED = {
    "D4 of E6": (e6_d4, {1: 1, 2: 2, 3: 3, 4: 4}, ("D", 4, 1), 192),
    "D4 of E6, leaf swap": (e6_d4, {1: 2, 2: 1, 3: 3, 4: 4}, ("D", 4, 2), 192),
    "D3, swap": (lambda: group("D", 3), {1: 1, 2: 3, 3: 2}, ("A", 3, 2), 24),
    "D4, (1 3)": (lambda: group("D", 4), {1: 3, 2: 2, 3: 1, 4: 4}, ("D", 4, 2), 192),
    "C2": (lambda: group("C", 2), {1: 1, 2: 2}, ("B", 2, 1), 8),
    "F4 nodes 2..4": (lambda: sub_context(group("F", 4), frozenset({2, 3, 4})).group,
                      {1: 1, 2: 2, 3: 3}, ("C", 3, 1), 48),
}


def no_walk(*args):
    raise AssertionError("a shift walk started")


class TestClosureMinCheck:
    def test_coxeter_element_is_minimal(self, G2):
        pi = identity_pi(G2)
        assert closure_min_check(G2, pi, G2.from_word([1, 2])) == "minimal"

    def test_walked_verdict_is_kept(self, F4, monkeypatch):
        """From an empty memo, s1 s2 in F4, one letter per pi-orbit of its
        support and not elliptic, is "minimal" with nothing kept; then
        ``minimal_level`` walks from it and keeps the level under every
        member, s1 s2 and s2 s1: one record, which maps each member to its
        inverse and holds the spelled members."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        pi = identity_pi(F4)
        w, w_inv = F4.from_word([1, 2]), F4.from_word([2, 1])
        assert not elliptic(F4, pi, w)
        assert closure_min_check(F4, pi, w) == "minimal"
        assert conjugacy._MINIMALITY_MEMO == {}
        spelled = minimal_level(F4, pi, w)
        assert [u.word for u in spelled] == [(1, 2), (2, 1)]
        held = conjugacy._verdicts(F4, pi)
        level = held[w.key]
        assert type(level) is conjugacy._Level and level.spelled is spelled
        assert level.inverse == {w.key: w_inv.key, w_inv.key: w.key}
        assert held == {w.key: level, w_inv.key: level}

    def test_agrees_with_enumeration_f4(self, F4):
        pi = identity_pi(F4)
        classes = enumerate_delta_classes(F4, pi)
        for cls in classes[:12]:
            for w in cls.minimal[:2]:
                assert closure_min_check(F4, pi, w) == "minimal"
        # A non-minimal element must be detected: s_1 w0 has length 23,
        # its class minimal length 9.
        big = F4.multiply(F4.simple(1), F4.longest_element(range(1, 5)))
        assert big.length > oracle_class_of(F4, pi, big).min_length
        assert closure_min_check(F4, pi, big) == "not_minimal"

    def test_budget(self, F4, monkeypatch):
        # An empty memo, so that the walk answers and not an earlier F4 level.
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        pi = identity_pi(F4)
        # Minimal, not elliptic, and longer than one letter per pi-orbit of its
        # support: ``minimal_level`` walks from it.
        picked = F4.from_word([1, 2, 3, 2, 3])
        assert picked.length == oracle_class_of(F4, pi, picked).min_length
        assert not elliptic(F4, pi, picked)
        assert picked.length > supp_len(F4, pi, picked)
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 1)
        with pytest.raises(ClosureBudgetError):
            minimal_level(F4, pi, picked)
        assert picked.key not in conjugacy._verdicts(F4, pi)
        # The oracle starts no walk, so the budget does not bind it.
        assert closure_min_check(F4, pi, picked) == "minimal"

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4)
    def test_decides_minimality_rank_le_4(self, family, rank, order, monkeypatch):
        """Closure says "minimal" exactly on the minimal level of each enumerated
        class, from an empty memo and from one warmed by ``class_list``.  From the
        empty memo every element is read in closed form, the signed cycle type
        or the seeds of G2, 2G2, 2B2, F4, 2F4 and 3D4, with the walk patched to
        raise, and the memo stays empty."""
        W = group(family, rank)
        real_verdict = conjugacy._verdict
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            expected = {
                w: "minimal" if w.length == oracle_class_of(W, pi, w).min_length
                else "not_minimal"
                for w in elements_of(W)
            }
            monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
            monkeypatch.setattr(conjugacy, "_verdict", no_walk)
            assert {w: closure_min_check(W, pi, w) for w in expected} == expected
            assert conjugacy._MINIMALITY_MEMO == {}
            monkeypatch.setattr(conjugacy, "_verdict", real_verdict)
            for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
                monkeypatch.setattr(conjugacy, memo, {})
            warmed = conjugacy._verdicts(W, pi)
            for cls in class_list(W, pi):
                assert all(type(warmed[u.key]) is conjugacy._Level for u in cls.minimal)
            assert {w: closure_min_check(W, pi, w) for w in expected} == expected

    def test_budget_answer_is_not_kept(self, F4, monkeypatch):
        """A walk of ``class_of`` past the budget raises and keeps nothing; the
        next full walk answers, and keeps under the key of w alone the key of
        the shorter element it met: a member of w's class, 2 shorter.  The
        oracle starts no walk, so the budget does not bind it."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        pi = identity_pi(F4)
        w = F4.from_word([1, 2, 3, 2])  # not elliptic, class minimum 2
        assert not elliptic(F4, pi, w)
        budget = conjugacy.WALK_BUDGET
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 1)
        with pytest.raises(ClosureBudgetError):
            class_of(F4, pi, w)
        assert conjugacy._verdicts(F4, pi) == {}
        assert closure_min_check(F4, pi, w) == "not_minimal"
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", budget)
        assert class_of(F4, pi, w).min_length == w.length - 2
        shorter = conjugacy._verdicts(F4, pi)[w.key]
        assert type(shorter) is bytes
        assert shorter in class_keys(F4, oracle_class_of(F4, pi, w))
        assert {u.key: u.length for u in elements_of(F4)}[shorter] == w.length - 2

    def test_inner_representatives_need_no_walk(self, monkeypatch):
        """Once ``cuspidal_representatives`` has walked the levels of a standalone
        W_K, the oracle answers for its representatives without a walk."""
        for memo in ("_MINIMALITY_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        D4 = sub_context(group("E", 6), frozenset({2, 3, 4, 5})).group  # node 3 central
        pis = [{1: 1, 2: 2, 3: 3, 4: 4}, {1: 2, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 4, 3: 3, 4: 1}]
        reps = [(pi, v) for pi in pis for v in cuspidal_representatives(D4, pi)]
        assert any(v.length > supp_len(D4, pi, v) for pi, v in reps)  # not one letter per orbit
        walks = []
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk",
                            lambda *args: walks.append(args) or real_walk(*args))
        assert all(closure_min_check(D4, pi, v) == "minimal" for pi, v in reps)
        assert walks == []

    def test_minimal_verdict_keeps_its_level(self, monkeypatch):
        """From an empty memo, ``closure_min_check`` says "minimal" and one walk
        in all keeps the element's level: ``minimal_level`` from any member of
        it gives the level a walk gives, and starts no second walk.  Every
        class of the twisted groups of rank <= 4, from its last minimal
        element.  The check walks nothing, and the one walk is the first
        ``minimal_level``'s."""
        real_walk = conjugacy._shift_walk
        walks, checked = [], 0
        for family, rank, order in RANK_LE_4:
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            for cls in class_list(W, pi):
                x = cls.minimal[-1]
                level = minimal_level(W, pi, x)
                monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
                monkeypatch.setattr(conjugacy, "_shift_walk",
                                    lambda *args: walks.append(args) or real_walk(*args))
                assert closure_min_check(W, pi, x) == "minimal"
                for u in level:
                    assert [(v.key, v.word) for v in minimal_level(W, pi, u)] == [
                        (v.key, v.word) for v in level]
                assert len(walks) == 1
                walks.clear()
                monkeypatch.setattr(conjugacy, "_shift_walk", real_walk)
                checked += 1
        assert checked == 180


    @pytest.mark.parametrize("family,rank,order", [("B", 3, 1), ("A", 3, 2), ("D", 4, 1), ("D", 4, 2)])
    def test_a_named_classical_group_has_one_oracle(self, family, rank, order, monkeypatch):
        """After ``class_list`` has kept levels of a named classical group,
        ``closure_min_check`` still answers by the signed cycle type alone:
        with ``_verdict`` patched to raise, it reads ``_least_length`` once
        per element, kept levels included, answers every element as
        enumeration does, and agrees with every verdict the memo keeps."""
        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order))
        class_list(W, pi)
        kept = conjugacy._verdicts(W, pi)
        assert any(type(held) is conjugacy._Level for held in kept.values())

        def no_walk(*args):
            raise AssertionError("closure_min_check asked the walk")

        monkeypatch.setattr(conjugacy, "_verdict", no_walk)
        real_least, reads = conjugacy._least_length, []
        monkeypatch.setattr(conjugacy, "_least_length",
                            lambda *args: reads.append(args) or real_least(*args))
        for w in elements_of(W):
            reads.clear()
            answer = closure_min_check(W, pi, w)
            assert len(reads) == 1
            least = oracle_class_of(W, pi, w).min_length
            assert answer == ("minimal" if w.length == least else "not_minimal")
            if w.key in kept:
                assert answer == ("minimal" if type(kept[w.key]) is conjugacy._Level
                                  else "not_minimal")

    @pytest.mark.parametrize("name", sorted(RELABELLED))
    def test_a_relabelled_group_walks_nothing(self, name, monkeypatch):
        """A group that the resolver names A, B, C or D in labels other than
        Bourbaki's, or under a map other than its standard twist, is read
        off the signed cycle type through the resolver's labelling: E6's D4
        on nodes 2..5 under the identity and the leaf swap, D3 under its
        swap, D4 under (1 3), the named C2 (B2 through the swap) and F4's
        nodes 2..4 (C3 reversed).  From an empty memo every element is
        asked, no walk starts, nothing is kept, and every answer is
        enumeration's."""
        build, pi, named, size = RELABELLED[name]
        W = build()
        family, rank, order, phi = subsystems.standard_type(W, pi)
        assert (family, rank, order) == named and phi is not None
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
        elements = elements_of(W)
        assert len(elements) == size
        for w in elements:
            least = oracle_class_of(W, pi, w).min_length
            assert closure_min_check(W, pi, w) == ("minimal" if w.length == least
                                                   else "not_minimal")
        assert conjugacy._MINIMALITY_MEMO == {}

    def test_a_word_read_without_its_labelling_fails(self):
        """Negative control: E6's D4 read off its words as they are, as if its
        labels were Bourbaki's, disagrees with enumeration on some element;
        mapped through the resolver's labelling it agrees on all 192."""
        build, pi, _, _ = RELABELLED["D4 of E6"]
        W = build()
        family, rank, order, phi = subsystems.standard_type(W, pi)
        unmapped = mapped = 0
        for w in elements_of(W):
            least, word = oracle_class_of(W, pi, w).min_length, W.reduced_word(w)
            unmapped += conjugacy._least_length(family, rank, order, word) != least
            mapped += conjugacy._least_length(
                family, rank, order, [phi[i - 1] for i in word]) != least
        assert unmapped > 0 and mapped == 0

def classical_groups(ranks):
    """The classical twisted groups of the given ranks: (family, rank, order)."""
    out = []
    for rank in ranks:
        out += [("A", rank, 1)] + [("A", rank, 2), ("B", rank, 1), ("C", rank, 1)] * (rank > 1)
        out += [("D", rank, 1), ("D", rank, 2)] * (rank > 3)
    return out


def least_length(W, pi, word, oracle=conjugacy._least_length):
    """The least length in the pi-class of the product of ``word``, as
    ``closure_min_check`` reads it off the signed cycle type: in the
    resolver's type, through its labelling."""
    family, rank, order, phi = subsystems.standard_type(W, pi)
    return oracle(family, rank, order, word if phi is None else [phi[i - 1] for i in word])


def cycle_type_mismatches(groups, oracle=conjugacy._least_length):
    """(group, direction, word) of each element whose class's least length, by
    enumeration, is not the oracle's value on a reduced word of it, or on that
    word with one letter doubled on each side (a word of the same element)."""
    for family, rank, order in groups:
        W = group(family, rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            for w in elements_of(W):
                least = oracle_class_of(W, pi, w).min_length
                padded = (rank, rank) + w.word + (1, 1)
                if least_length(W, pi, w.word, oracle) != least or least_length(
                        W, pi, padded, oracle) != least:
                    yield family, rank, order, direction, w.word


def mutant(old, new):
    """A copy of ``conjugacy._least_length`` with one term of its source replaced."""
    source = inspect.getsource(conjugacy._least_length)
    assert source.count(old) == 1, old
    namespace = dict(vars(conjugacy))
    exec(source.replace(old, new), namespace)
    return namespace["_least_length"]


class TestLeastLength:
    """The least length of a classical twisted class, read off its signed cycle type."""

    def test_groups(self):
        """Through rank 6 the helper lists the classical groups that conftest lists."""
        listed = [(f, r, o) for f, r, o in RANK_LE_4 + RANK_5_6
                  if f in "ABCD" and (f, o) not in {("B", 2), ("D", 3)}]
        assert sorted(classical_groups(range(1, 7))) == sorted(listed)
        assert len(classical_groups(range(1, 6))) == 21

    @pytest.mark.parametrize("family,rank,order", classical_groups(range(1, 6)))
    def test_agrees_with_enumeration_through_rank_5(self, family, rank, order):
        """Every element of every classical twisted group through rank 5, in
        both twist directions, on a reduced word and on a longer word of it."""
        assert list(cycle_type_mismatches([(family, rank, order)])) == []

    @pytest.mark.parametrize("old,new", [
        ("return n - len(positive)", "return n + 1 - len(positive)"),
        ("least += (c - 1) // 2", "least += c // 2"),
        ("least + r * c", "least + (r + 1) * c"),
        ("least += 2 * r * b", "least += r * b"),
        ("least = n - len(positive)", "least = n - len(negative)"),
        ("least - len(negative) if", "least - 1 if"),
        ("sign, j = not sign, -j", "j = -j"),
        ('img[-1] = -img[-1]', 'img[0] = -img[0]'),
    ])
    def test_a_changed_term_fails(self, old, new):
        """Negative control: a copy of the oracle with one term changed
        disagrees with enumeration on some element through rank 5."""
        assert next(cycle_type_mismatches(classical_groups(range(1, 6)), mutant(old, new)), None)

    def test_readings(self, monkeypatch):
        """``closure_min_check`` reads ``_least_length`` exactly when the
        resolver names A, B, C or D under a map of order 1, or A or D under
        one of order 2, in any labels; the seeds decide the elliptic elements
        of the seeded types, and the parabolic table the others; it never
        walks.  On the product of the nodes: D5 under its standard twist, D4
        under (1 3), E6's D4 and the named C2 and D3 are read; 3D4, G2 and
        E6 go to the seeds; in 2B2 it is not elliptic (it is conjugate to
        the identity) and goes to the parabolic table; A1 x A1 is read one
        fold, an A1, per component."""
        real_least, reads, seeded, parabolic = conjugacy._least_length, [], [], []
        monkeypatch.setattr(conjugacy, "_least_length",
                            lambda *args: reads.append(args[:3]) or real_least(*args))
        monkeypatch.setattr(conjugacy, "_verdict", no_walk)
        monkeypatch.setattr(conjugacy, "_seed_length",
                            lambda *args: seeded.append(args[:3]) or args[4])
        monkeypatch.setattr(conjugacy, "_parabolic_length",
                            lambda *args: parabolic.append(args[:3]) or 0)
        cases = [
            (group("B", 2), {1: 2, 2: 1}, "parabolic"),
            (group("D", 4), pi_of(build_twist("D", 4, 3)), ("D", 4, 3)),
            (group("G", 2), {1: 1, 2: 2}, ("G", 2, 1)),
            (group("E", 6), {i: i for i in range(1, 7)}, ("E", 6, 1)),
            (group_of(block_cartan(A1, A1)), {1: 1, 2: 2}, [("A", 1, 1)] * 2),
            (group("D", 5), pi_of(build_twist("D", 5, 2)), ("D", 5, 2)),
        ] + [(build(), pi, named) for build, pi, named, _ in RELABELLED.values()]
        for W, pi, named in cases:
            reads.clear()
            seeded.clear()
            parabolic.clear()
            closure_min_check(W, pi, W.from_word(W.system.nodes))
            if named == "parabolic":
                expected = [], [], [("B", 2, 2)]
            elif type(named) is list:
                expected = named, [], []
            elif named[0] in "ABCD" and named[2] < 3:
                expected = [named], [], []
            else:
                expected = [], [named], []
            assert (reads, seeded, parabolic) == expected, (W.system, pi)

    def test_d3_under_a_twist_of_order_2(self, monkeypatch):
        """The named D3 is A3 in other labels: under the identity it is read as
        A3, and under the swap of its nodes 2 and 3 as 2A3, through the
        labelling (2, 1, 3).  In both, every one of its 24 elements gets the
        walk's verdict, and ``closure_min_check`` keeps none."""
        D3 = group("D", 3)
        assert (D3.system.family, D3.rank) == ("D", 3)
        for pi, order in (({1: 1, 2: 2, 3: 3}, 1), ({1: 1, 2: 3, 3: 2}, 2)):
            assert subsystems.standard_type(D3, pi) == ("A", 3, order, (2, 1, 3))
            elements = elements_of(D3)
            assert len(elements) == 24
            monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
            verdicts = [closure_min_check(D3, pi, w) for w in elements]
            assert conjugacy._MINIMALITY_MEMO == {}
            walked = ["minimal" if type(conjugacy._verdict(D3, pi, w)) is conjugacy._Level
                      else "not_minimal" for w in elements]
            assert verdicts == walked and "not_minimal" in verdicts

    @pytest.mark.slow
    def test_agrees_with_class_lists_through_rank_8(self):
        """Every minimal element of every class that ``class_list`` gives, for
        every classical twisted group through ``MAX_RANK`` = 8: its length is
        the oracle's value on its canonical word."""
        checked = 0
        for family, rank, order in classical_groups(range(1, 9)):
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            for cls in class_list(W, pi):
                for u in cls.minimal:
                    assert least_length(W, pi, u.word) == u.length, (family, rank, order, u.word)
                checked += len(cls.minimal)
        assert checked == 68623


def e_catalog_products(rank, perm=None):
    """E{rank}, its catalog map, and (label, v w1) for each inner option of each
    of its catalog rows, as ``verify_case`` forms the products.  With a
    permutation ``perm`` of the nodes, the group is instead E{rank}'s Cartan
    matrix relabelled so that its node i is Bourbaki's node perm[i - 1], and
    each product is spelled in those labels."""
    W, pi = type_group("E", rank, 1)
    products = []
    for rec in case_records("E", rank, 1):
        placed = place_row(W, pi, rec.J, rec.w1)
        words, problem = _resolve_v_options(rec, placed)
        assert problem is None, (rec.label, problem)
        products += [(rec.label, W.from_word(vw + rec.w1)) for vw in words]
    if perm is not None:
        back = {p: i for i, p in enumerate(perm, 1)}
        W = group_of(tuple(tuple(W.system.cartan[p - 1][q - 1] for q in perm) for p in perm))
        products = [(label, W.from_word([back[i] for i in w.word])) for label, w in products]
    return W, pi, products


def longer_conjugate(W, level):
    """s_i u s_i of length l(u) + 2, for the first member u of a minimal level,
    in walk order, and the first letter i that give one, read off the keys of
    u and u^-1 as ``_shift_walk`` reads them (pi the identity).  None when no
    member and letter do: then every s_i u s_i of a member is in the level, so
    the level is the whole class, and no element of the class is longer."""
    tables, n = W.reflection_table(), W.nroots
    simple = [tables[b] for b in W.identity.key]
    for key, inv in level.inverse.items():
        for i in W.system.nodes:
            # l(u s_i) = l(u) + 1 and l(s_i u s_i) = l(u s_i) + 1
            if key[i - 1] > n and simple[i - 1][inv[i - 1]] > n:
                x = key.translate(tables[key[i - 1]]).translate(simple[i - 1])
                return WeylElt(W, x, len(W._peel(x)))
    return None


def elliptic_mismatches(rank, perm=None):
    """(label, length, oracle, walk) wherever ``closure_min_check`` and
    ``_verdict``'s walk disagree, over every product of an E{rank} catalog row
    and the ``longer_conjugate`` of its level; and the lengths of the products
    without one, whose class is their level.  ``perm`` relabels the group as
    ``e_catalog_products`` does."""
    W, pi, products = e_catalog_products(rank, perm)
    mismatches, flat = [], []
    for label, w in products:
        level = conjugacy._verdict(W, pi, w)
        x = longer_conjugate(W, level) if type(level) is conjugacy._Level else None
        if x is None:
            flat.append(w.length)
        for u in (w,) if x is None else (w, x):
            walk = "minimal" if type(conjugacy._verdict(W, pi, u)) is conjugacy._Level else "not_minimal"
            oracle = closure_min_check(W, pi, u)
            if oracle != walk:
                mismatches.append((label, u.length, oracle, walk))
    return mismatches, flat


def faddeev_leverrier(M):
    """c_1, ..., c_n of det(t - M) = t^n + c_1 t^(n-1) + ... + c_n for a square
    integer matrix, by the Faddeev-LeVerrier recursion in exact ints."""
    n = len(M)
    Mk, c, coeffs = [[0] * n for _ in range(n)], 1, []
    for k in range(1, n + 1):
        Mk = [[sum(M[i][l] * Mk[l][j] for l in range(n)) + c * (i == j) for j in range(n)]
              for i in range(n)]
        c = -sum(M[i][l] * Mk[l][i] for i in range(n) for l in range(n)) // k
        coeffs.append(c)
    return tuple(coeffs)


def word_matrix(W, word):
    """The matrix of the product of ``word`` on simple-root coordinates, from
    the reflection s_i(alpha_j) = alpha_j - a_ij alpha_i of each letter, with
    a_ij = <alpha_j, alpha_i^vee> entry (i, j) of the Cartan matrix, read off
    no key."""
    n, cartan = W.rank, W.system.cartan
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in word:  # M <- M s_i: column j of s_i is alpha_j - a_ij alpha_i
        col = [M[r][i - 1] for r in range(n)]
        for j in range(n):
            for r in range(n):
                M[r][j] -= cartan[i - 1][j] * col[r]
    return M


# Node i of the relabelled E7 is Bourbaki's node RELABEL_E7[i - 1].
RELABEL_E7 = (7, 1, 6, 2, 5, 3, 4)


def seed_row(family, rank, order):
    """The group, the standard twist's map and the seed words of a ``_SEED_TABLE`` row."""
    W = group(family, rank)
    return W, pi_of(build_twist(family, rank, order)), words_of(conjugacy._SEED_TABLE[family, rank, order])


def seed_problems(W, pi, words, least):
    """What is wrong with a row of E7 or E8 seeds: each word must be reduced,
    cuspidal, elliptic, minimal by walk and the first member of its spelled
    level, so canonical; their polynomials distinct; and their lengths,
    sorted, ``least``, the least lengths of the cuspidal classes
    (Geck-Pfeiffer 2000, App. B)."""
    problems, polys = [], set()
    for word in words:
        x = W.from_word(word)
        P = charpoly(W, word, pi)
        if x.length != len(word):
            problems.append((word, "not reduced"))
        elif conjugacy.pi_closure(pi, word) != frozenset(W.system.nodes):
            problems.append((word, "not cuspidal"))
        elif 1 + sum(P) == 0:
            problems.append((word, "not elliptic"))
        elif type(conjugacy._verdict(W, pi, x)) is not conjugacy._Level:
            problems.append((word, "not minimal"))
        elif minimal_level(W, pi, x)[0].word != word:
            problems.append((word, "not canonical"))
        polys.add(P)
    if len(polys) != len(words):
        problems.append("a polynomial repeats")
    if sorted(map(len, words)) != least:
        problems.append("lengths")
    return problems


def polynomial_lengths(rows):
    """P -> the lengths of the seeds with polynomial P, per type, over
    ``rows``: {(family, rank, order): seed words}, each read in its named
    group under its standard twist."""
    out = {}
    for (family, rank, order), words in rows.items():
        W, pi, _ = seed_row(family, rank, order)
        polys = out[family, rank, order] = {}
        for word in words:
            polys.setdefault(charpoly(W, word, pi), []).append(len(word))
    return out


def length_ratios(W, pi):
    """j -> |alpha_j|^2 / |alpha_pi(j)|^2, the squared lengths of the simple
    roots read off a_ij |alpha_i|^2 = a_ji |alpha_j|^2, in Fractions, over
    each component from its smallest node."""
    cartan, lengths = W.system.cartan, {}
    for j in W.system.nodes:
        if j not in lengths:
            lengths[j], todo = Fraction(1), [j]
            while todo:
                i = todo.pop()
                for k in W.system.nodes:
                    if k not in lengths and cartan[i - 1][k - 1]:
                        lengths[k] = lengths[i] * Fraction(cartan[i - 1][k - 1], cartan[k - 1][i - 1])
                        todo.append(k)
    return {j: lengths[j] / lengths[pi[j]] for j in W.system.nodes}


def twisted_matrix(W, pi, word, mu):
    """The integer matrix of sqrt(d) w sigma, column j that of w(alpha_pi(j))
    times mu_j = sqrt(d) lambda_j, for w the product of ``word`` and
    sigma(alpha_j) = lambda_j alpha_pi(j)."""
    M = word_matrix(W, word)
    return [[int(row[pi[j] - 1] * mu[j]) for j in W.system.nodes] for row in M]


def one_letter_off(word, position, letter):
    return word[:position] + (letter,) + word[position + 1:]


# Elliptic elements of E6 and 2E6: 30,115 with G2's 5, F4's 385 and 3D4's 80.
ELLIPTIC_E6, ELLIPTIC_2E6 = 12320, 17325

E7_LEAST = [7, 9, 11, 13, 15, 17, 21, 23, 25, 31, 33, 63]
E8_LEAST = [8, 10, 12, 14, 16, 16, 18, 20, 22, 22, 24, 24, 26, 26, 28, 30, 32, 34, 40, 42,
            44, 44, 46, 46, 48, 60, 64, 66, 80, 120]


class TestEllipticLeast:
    """The seeded types decide the minimality of an elliptic element from its
    characteristic polynomial P and the seeds of ``_SEED_TABLE``
    (``_seed_length``)."""

    def test_table(self):
        """The E7 and E8 rows: 12 and 30 words, of 268 and 1082 letters, each
        reduced, cuspidal, elliptic, minimal by walk and canonical, with
        distinct polynomials, and the least lengths of the 12 and 30 cuspidal
        classes."""
        for rank, least, size in ((7, E7_LEAST, (12, 268)), (8, E8_LEAST, (30, 1082))):
            W, pi, words = seed_row("E", rank, 1)
            assert (len(words), sum(map(len, words))) == size
            assert seed_problems(W, pi, words, least) == []

    @pytest.mark.parametrize("rank", [7, pytest.param(8, marks=pytest.mark.slow)])
    def test_rows_regenerate_from_the_catalog(self, rank):
        """Each E7 and E8 row is the first member of the spelled level of one
        catalog product v w1 per characteristic polynomial, in (length, word)
        order: the canonical representatives of the cuspidal classes."""
        W, pi, products = e_catalog_products(rank)
        by_poly = {charpoly(W, w.word, pi): w for _, w in products}
        firsts = sorted((minimal_level(W, pi, w)[0] for w in by_poly.values()),
                        key=lambda u: u.sort_key())
        assert [u.word for u in firsts] == seed_row("E", rank, 1)[2]

    def test_a_seed_one_letter_off_fails(self):
        """Negative control: every E7 row with one letter of its seed of length 9
        or 13 changed to another letter fails ``seed_problems``."""
        W, pi, words = seed_row("E", 7, 1)
        mutants = 0
        for k in (1, 3):
            for position, old in enumerate(words[k]):
                for letter in W.system.nodes:
                    if letter != old:
                        row = words[:k] + [one_letter_off(words[k], position, letter)] + words[k + 1:]
                        assert seed_problems(W, pi, row, E7_LEAST), row[k]
                        mutants += 1
        assert mutants == 6 * (9 + 13)

    def test_each_polynomial_has_one_length(self):
        """Over every seeded type, the seeds with one P have one length, so P
        and a length decide.  The polynomials number 3, 3, 2, 4, 8, 7, 5, 9, 12
        and 30; F4's 9 seeds have 8, since two of its classes share P, and
        their length, 10."""
        lengths = polynomial_lengths({name: seed_row(*name)[2] for name in SEEDED})
        assert {name: len(polys) for name, polys in lengths.items()} == {
            ("G", 2, 1): 3, ("G", 2, 2): 3, ("B", 2, 2): 2, ("D", 4, 3): 4, ("F", 4, 1): 8,
            ("F", 4, 2): 7, ("E", 6, 1): 5, ("E", 6, 2): 9, ("E", 7, 1): 12, ("E", 8, 1): 30}
        assert all(len(set(seen)) == 1 for polys in lengths.values() for seen in polys.values())
        assert [seen for polys in lengths.values() for seen in polys.values()
                if len(seen) > 1] == [[10, 10]]

    def test_a_colliding_row_fails(self):
        """Negative control: an F4 row with a conjugate 2 longer of one seed
        added, which has that seed's P, gives the P two lengths."""
        W, pi, words = seed_row("F", 4, 1)
        longer = longer_conjugate(W, conjugacy._verdict(W, pi, W.from_word(words[0])))
        lengths = polynomial_lengths({("F", 4, 1): words + [longer.word]})["F", 4, 1]
        assert [seen for seen in lengths.values() if len(set(seen)) > 1] == [[4, 6]]

    @pytest.mark.parametrize("family,rank", [("E", 6), ("E", 7), ("E", 8)])
    def test_charpoly_is_faddeev_leverrier(self, family, rank):
        """On random words, reduced or not, ``_charpoly`` equals Faddeev-LeVerrier
        on the word's integer matrix."""
        W, rng = group(family, rank), random.Random(rank)
        for _ in range(25):
            word = [rng.randint(1, rank) for _ in range(rng.randint(0, 60))]
            assert charpoly(W, word, identity_pi(W)) == faddeev_leverrier(
                word_matrix(W, word)), word

    @pytest.mark.parametrize("family,rank,order", [("D", 4, 3), ("E", 6, 2)] + SUZUKI_REE)
    def test_twisted_charpoly_is_faddeev_leverrier(self, family, rank, order):
        """Under a twist, in both directions, ``_charpoly`` on random words is
        Faddeev-LeVerrier on the matrix of sqrt(d) w sigma: column j of w's
        matrix is w(alpha_j), so column j of sqrt(d) w sigma's is column pi(j)
        of w's times mu_j = sqrt(d) lambda_j, with lambda_j = |alpha_j| /
        |alpha_pi(j)|: 1 where pi keeps the Cartan matrix, and in 2B2, 2G2
        and 2F4 d when alpha_j is the longer, else 1."""
        W, rng = group(family, rank), random.Random(rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            mu = {j: max(1, ratio) for j, ratio in length_ratios(W, pi).items()}
            assert set(mu.values()) == ({1} if (family, rank, order) not in SUZUKI_REE
                                        else {1, 3 if family == "G" else 2})
            for _ in range(25):
                word = [rng.randint(1, rank) for _ in range(rng.randint(0, 40))]
                assert charpoly(W, word, pi) == faddeev_leverrier(
                    twisted_matrix(W, pi, word, mu)), word

    @pytest.mark.parametrize("rank,flat", [(7, [63]), (8, [40, 60, 80, 120])], ids=["E7", "E8"])
    def test_agrees_with_the_walk(self, rank, flat, monkeypatch):
        """On each of the 12 products of the E7 rows and the 30 of the E8 rows,
        and on a conjugate 2 longer, the oracle answers as the walk does.  The
        classes of the products of lengths ``flat`` are their levels, so they
        have no longer element: w0 = -1, and in E8 three classes more."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        assert elliptic_mismatches(rank) == ([], flat)

    def test_a_relabelled_e7_agrees_with_the_walk(self, monkeypatch):
        """E7's Cartan matrix with its nodes permuted is named E7 through that
        permutation, and its elliptic elements are decided with no walk: from
        an empty memo the 12 products of the E7 rows, spelled in the new
        labels, are "minimal" with no walk started, and on them and their
        longer conjugates the oracle answers as the walk does."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        W, pi, products = e_catalog_products(7, RELABEL_E7)
        assert W.system.family.startswith("cartan:")
        assert subsystems.standard_type(W, pi) == ("E", 7, 1, RELABEL_E7)
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
        assert [closure_min_check(W, pi, w) for _, w in products] == ["minimal"] * 12
        monkeypatch.setattr(conjugacy, "_shift_walk", real_walk)
        assert elliptic_mismatches(7, RELABEL_E7) == ([], [63])

    def test_an_entry_off_by_2_fails(self, monkeypatch):
        """Negative control: with the seed of the class of E7 case 2's product
        replaced by a conjugate 2 longer, which has the same P, the oracle calls
        that conjugate "minimal", against the walk, and raises on the product,
        since no seed of its length or shorter has its P; so does the row."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        W, pi, products = e_catalog_products(7)
        ((_, w),) = [(label, w) for label, w in products if label == "E7 case 2"]
        words = seed_row("E", 7, 1)[2]
        (k,) = [k for k, word in enumerate(words) if len(word) == w.length]
        longer = longer_conjugate(W, conjugacy._verdict(W, pi, w))
        table = dict(conjugacy._SEED_TABLE)
        table["E", 7, 1] = tuple("".join(map(str, word)) for word in
                                 words[:k] + [longer.word] + words[k + 1:])
        for name, value in (("_SEED_TABLE", table), ("_CUSPIDAL_MEMO", {}),
                            ("_standard_seeds", conjugacy._standard_seeds.__wrapped__),
                            ("_seed_charpoly", conjugacy._seed_charpoly.__wrapped__)):
            monkeypatch.setattr(conjugacy, name, value)
        assert closure_min_check(W, pi, longer) == "minimal"
        assert type(conjugacy._verdict(W, pi, longer)) is not conjugacy._Level
        with pytest.raises(FalsificationError, match="no cuspidal seed of E7 with at most 9 letters"):
            closure_min_check(W, pi, w)
        with pytest.raises(FalsificationError, match="no cuspidal seed of E7"):
            verify_case(next(r for r in case_records("E", 7, 1) if r.label == "E7 case 2"))

    def test_a_missing_key_raises(self, monkeypatch):
        """A polynomial that no seed has raises FalsificationError, since the
        seeds name every elliptic class: E8's row without the seed of its
        first product's class."""
        W, pi, products = e_catalog_products(8)
        w = products[0][1]
        P = charpoly(W, w.word, pi)
        table = dict(conjugacy._SEED_TABLE)
        table["E", 8, 1] = tuple(word for word in table["E", 8, 1]
                                 if charpoly(W, tuple(map(int, word)), pi) != P)
        assert len(table["E", 8, 1]) == 29
        monkeypatch.setattr(conjugacy, "_SEED_TABLE", table)
        monkeypatch.setattr(conjugacy, "_standard_seeds", conjugacy._standard_seeds.__wrapped__)
        with pytest.raises(FalsificationError, match="no cuspidal seed of E8"):
            closure_min_check(W, pi, w)

    @pytest.mark.parametrize("name", SEEDED, ids=type_id)
    def test_every_seed_skips_the_walk(self, name, monkeypatch):
        """From an empty memo, with the walk patched to raise, every seed of
        each seeded type is "minimal": the cuspidal seeds, which are
        elliptic, and the seeds of the proper parabolics, which are not,
        the identity included (w sigma is sigma, which fixes the sum of each
        pi-orbit of simple roots, rescaled in 2B2, 2G2 and 2F4); nothing is
        kept."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        monkeypatch.setattr(conjugacy, "_verdict", no_walk)
        monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
        W, pi, words = seed_row(*name)
        parabolic = list(conjugacy._parabolic_seeds(W, pi))
        assert () in parabolic and not elliptic(W, pi, W.identity)
        assert all(elliptic(W, pi, W.from_word(word)) for word in words)
        assert not any(elliptic(W, pi, W.from_word(word)) for word in parabolic)
        for word in words + parabolic:
            assert closure_min_check(W, pi, W.from_word(word)) == "minimal", word
        assert conjugacy._MINIMALITY_MEMO == {}

    @pytest.mark.parametrize("name", SUZUKI_REE, ids=type_id)
    def test_suzuki_and_ree_types_agree_with_enumeration(self, name, monkeypatch):
        """Every element of 2B2, 2G2 and 2F4 (8, 12 and 1152), from an empty
        memo: the oracle answers as enumeration does, and the elliptic ones
        with no walk and nothing kept.  P(1) != 0 exactly on the cuspidal
        classes, and their polynomials number 2, 3 and 7, one per class,
        each with one least length."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        W, pi, _ = seed_row(*name)
        mismatches, polys, classes, walked = [], {}, set(), set()
        for w in elements_of(W):
            cls = oracle_class_of(W, pi, w)
            expected = "minimal" if w.length == cls.min_length else "not_minimal"
            if closure_min_check(W, pi, w) != expected:
                mismatches.append(w.word)
            if elliptic(W, pi, w):
                polys.setdefault(charpoly(W, W.reduced_word(w), pi), set()).add(cls.min_length)
                classes.add(cls.representative.key)
                walked |= {w.key} & set(conjugacy._verdicts(W, pi))
        cuspidal = {cls.representative.key for cls in enumerate_delta_classes(W, pi) if cls.cuspidal}
        assert mismatches == [] and walked == set()
        assert classes == cuspidal
        assert len(polys) == len(cuspidal) == {"B": 2, "G": 3, "F": 7}[name[0]]
        assert all(len(lengths) == 1 for lengths in polys.values())

    @pytest.mark.parametrize("name", [name for name in SEEDED if name[1] <= 4], ids=type_id)
    def test_elliptic_is_p_at_1_over_q_sqrt_d(self, name):
        """``_elliptic`` on every tuple b of entries -2..2 is P(1) != 0 for P
        with coefficients b_k / sqrt(d)^k, evaluated in ``QuadExt``: d is 1
        where the twist keeps the Cartan matrix, 2 in 2B2 and 2F4 and 3 in
        2G2, where a tuple with A = -B != 0 in d^n P(1) = A + B sqrt d, such as
        (-1, -1) in 2B2, is elliptic."""
        W, pi, _ = seed_row(*name)
        d = conjugacy._sigma(W, pi)[1]
        assert d == ({"B": 2, "G": 3, "F": 2}[name[0]] if name in SUZUKI_REE else 1)
        step = QuadExt(0, 1, d).inverse() if d > 1 else QuadExt(1)
        for P in itertools.product(range(-2, 3), repeat=W.rank):
            at_1 = sum((b * step ** k for k, b in enumerate((1, *P))), QuadExt(0))
            assert conjugacy._elliptic(P, d) == bool(at_1), P
        if name == ("B", 2, 2):
            assert conjugacy._elliptic((-1, -1), d)

    @pytest.mark.slow
    @pytest.mark.parametrize("order", [1, 2])
    def test_agrees_with_enumeration_on_e6(self, order, monkeypatch):
        """Every element of E6 and 2E6, from an empty memo, with the walk
        patched to raise: the oracle answers as enumeration does, the
        elliptic ones off the seeds, the rest off the parabolic table."""
        W = group("E", 6)
        pi = pi_of(build_twist("E", 6, order))
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        monkeypatch.setattr(conjugacy, "_verdict", no_walk)
        monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
        count = 0
        for w in elements_of(W):
            least = oracle_class_of(W, pi, w).min_length
            assert closure_min_check(W, pi, w) == ("minimal" if w.length == least
                                                   else "not_minimal"), w.word
            count += elliptic(W, pi, w)
        assert count == {1: ELLIPTIC_E6, 2: ELLIPTIC_2E6}[order]
        assert conjugacy._MINIMALITY_MEMO == {}


def parabolic_keys(name, key):
    """key -> the lengths of the seeds of the proper sigma-stable parabolics
    (``_parabolic_seeds``) of a seeded type with that key, read in its named
    group under its standard twist by ``key(W, word, sigma)``."""
    W, pi, _ = seed_row(*name)
    sigma = conjugacy._sigma(W, pi)
    out = {}
    for word in conjugacy._parabolic_seeds(W, pi):
        out.setdefault(key(W, word, sigma), set()).add(len(word))
    return out


def p_and_m(W, word, sigma):
    return conjugacy._charpoly(W, word, sigma), conjugacy._negated(W, word, sigma)


def colliding(lengths):
    return [sorted(seen) for seen in lengths.values() if len(seen) > 1]


class TestParabolicLengths:
    """The non-elliptic elements of the seeded types read their least length
    off P and m, the number of positive roots that w sigma negates, over the
    seeds of the proper sigma-stable parabolics (``_parabolic_lengths``)."""

    def test_each_key_has_one_length(self):
        """Over all ten seeded types, E8 included, each (P, m) has one length
        over the parabolic seeds, and the table holds it: 2, 1, 1, 3, 10, 4,
        20, 16, 45 and 82 keys.  m is 0 in 2B2, 2G2 and 2F4, where sigma
        swaps root lengths."""
        sizes = {}
        for name in SEEDED:
            lengths = parabolic_keys(name, p_and_m)
            assert colliding(lengths) == [], name
            assert conjugacy._parabolic_lengths(*name) == {key: min(seen) for key, seen in lengths.items()}
            if name in SUZUKI_REE:
                assert {m for _, m in lengths} == {0}
            sizes[name] = len(lengths)
        assert sizes == {
            ("G", 2, 1): 2, ("G", 2, 2): 1, ("B", 2, 2): 1, ("D", 4, 3): 3, ("F", 4, 1): 10,
            ("F", 4, 2): 4, ("E", 6, 1): 20, ("E", 6, 2): 16, ("E", 7, 1): 45, ("E", 8, 1): 82}

    def test_p_alone_collides(self):
        """Negative control: keyed on P alone, F4 has a key with lengths 2 and
        4, E7 three keys of two lengths and E8 five."""
        def P(W, word, sigma):
            return conjugacy._charpoly(W, word, sigma)

        assert colliding(parabolic_keys(("F", 4, 1), P)) == [[2, 4]]
        assert len(colliding(parabolic_keys(("E", 7, 1), P))) == 3
        assert len(colliding(parabolic_keys(("E", 8, 1), P))) == 5

    def test_fixed_roots_collide(self):
        """Negative control: an m that counts the positive roots that w sigma
        fixes, not those it negates, gives E7 three keys of two lengths."""
        def fixed(W, word, sigma):
            n, perm = W.nroots, conjugacy._root_table(W, word, sigma)
            return conjugacy._charpoly(W, word, sigma), sum(perm[n + 1 + p] == n + 1 + p for p in range(n))

        assert len(colliding(parabolic_keys(("E", 7, 1), fixed))) == 3

    def test_an_injected_collision_raises(self, monkeypatch):
        """Negative control: the F4 seeds with s3 s1 s2 s3 added, a conjugate
        2 longer of the seed s1 s2 with its key, raise FalsificationError."""
        W, pi, _ = seed_row("F", 4, 1)
        longer = (3, 1, 2, 3)
        assert W.from_word(longer).length == 4 and (1, 2) in conjugacy._parabolic_seeds(W, pi)
        real = conjugacy._parabolic_seeds
        monkeypatch.setattr(conjugacy, "_parabolic_seeds", lambda W, pi: [*real(W, pi), longer])
        with pytest.raises(FalsificationError, match="parabolic seeds of F4 of lengths 2 and 4 share the key"):
            conjugacy._parabolic_lengths.__wrapped__("F", 4, 1)

    def test_a_missing_key_raises(self, monkeypatch):
        """A key that no parabolic seed has raises FalsificationError: F4's
        table without the key of s1 s2."""
        W, pi, _ = seed_row("F", 4, 1)
        key = p_and_m(W, (1, 2), conjugacy._sigma(W, pi))
        table = dict(conjugacy._parabolic_lengths("F", 4, 1))
        del table[key]
        monkeypatch.setattr(conjugacy, "_parabolic_lengths", lambda *name: table)
        with pytest.raises(FalsificationError, match="no parabolic seed of F4"):
            closure_min_check(W, pi, W.from_word([1, 2]))

    @pytest.mark.slow
    @pytest.mark.parametrize("rank", [7, 8])
    def test_agrees_with_the_class_lists_of_e7_and_e8(self, rank, monkeypatch):
        """Every minimal element of every ``class_list`` class of E7 and E8
        reads "minimal", and one conjugate s_i u s_i 2 longer per class
        "not_minimal", with the walk patched to raise once the classes are
        listed.  The classes with no such conjugate, the identity's and a
        few whose minimal elements are the whole class, are counted."""
        W = group("E", rank)
        pi = identity_pi(W)
        classes = class_list(W, pi)
        monkeypatch.setattr(conjugacy, "_verdict", no_walk)
        monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
        checked, none_longer = 0, []
        for cls in classes:
            for u in cls.minimal:
                assert closure_min_check(W, pi, u) == "minimal", u.word
            checked += len(cls.minimal)
            x = next((y for u in cls.minimal for i in W.system.nodes
                      if (y := W.from_word((i, *u.word, i))).length == u.length + 2), None)
            if x is None:
                none_longer.append(cls.min_length)
            else:
                assert closure_min_check(W, pi, x) == "not_minimal", x.word
        assert (len(classes), checked, none_longer) == {
            7: (60, 4924, [0, 63]), 8: (112, 126948, [0, 40, 60, 80, 120])}[rank]


class TestStandardType:
    """``subsystems.standard_type``: ``identify_standard``'s answer to "which
    standard type is (W, pi), and in which labels?", kept on W per map."""

    def test_every_named_type_and_twist(self):
        """Every named type through rank 8, under its identity and each of its
        twists, is its own type in its own labels (phi None), but the named C2,
        which is B2 through the swap of its nodes, and the named D3, which is
        A3 through (2, 1, 3).  The answer is a tuple: no caller can change
        the kept labelling."""
        twists = twists_through_rank_8()
        assert len(twists) == 50  # 33 types, 17 twists of order 2 or 3
        other = {("C", 2): ("B", 2, 1, (2, 1)), ("D", 3): ("A", 3, 1, (2, 1, 3))}
        for family, rank, twist in twists:
            W = group(family, rank)
            for pi, order in ((identity_pi(W), 1), (pi_of(twist), twist.order)):
                named = subsystems.standard_type(W, pi)
                assert named == other.get((family, rank), (family, rank, order, None))
        named = subsystems.standard_type(group("C", 2), {1: 1, 2: 2})
        with pytest.raises(TypeError):
            named[3][0] = 1

    def test_other_maps_and_groups(self):
        """3D4 under delta_inv, the D4 swaps (1 3) and (1 4), D3 under the swap of
        nodes 2 and 3, and E6's D4 on nodes 2..5 under each twist are named in
        other labels; a reducible group is None."""
        D4 = group("D", 4)
        expected = [
            (D4, pi_of(build_twist("D", 4, 3), "delta_inv"), ("D", 4, 3)),
            (D4, {1: 3, 2: 2, 3: 1, 4: 4}, ("D", 4, 2)),
            (D4, {1: 4, 2: 2, 3: 3, 4: 1}, ("D", 4, 2)),
            (group("D", 3), {1: 1, 2: 3, 3: 2}, ("A", 3, 2)),
        ] + [(e6_d4(), pi, ("D", 4, k)) for k, pi in enumerate(D4_OF_E6.values(), 1)]
        for W, pi, named in expected:
            family, rank, order, phi = subsystems.standard_type(W, pi)
            assert (family, rank, order) == named and phi is not None
        assert subsystems.standard_type(group_of(block_cartan(A1, A1)), {1: 1, 2: 2}) is None
        for cartan, pi in SWAPPED.values():
            assert subsystems.standard_type(group_of(cartan), pi) is None

    def test_resolved_once_per_group_and_map(self, monkeypatch):
        """With every group's kept answers cleared, however many questions
        ``closure_min_check`` and ``cuspidal_representatives`` ask of every
        classical group through rank 8, under its identity and its standard
        twist, ``identify_standard`` runs once per (group, map).  The seeds
        (``_cuspidal_seeds``) read the same kept answer, through the group of
        each component, so they need no warming first."""
        groups = classical_groups(range(1, 9))
        maps = [(group(family, rank), pi) for family, rank, order in groups
                for pi in (identity_pi(group(family, rank)), pi_of(build_twist(family, rank, order)))]
        real, asked = subsystems.identify_standard, []
        monkeypatch.setattr(subsystems, "identify_standard",
                            lambda cartan, pi: asked.append((cartan, tuple(pi.values())))
                            or real(cartan, pi))
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        for W, _ in maps:
            monkeypatch.setattr(W, "_types", {})
        pairs, calls = set(), 0
        for W, pi in maps:
            pairs.add((W.system.cartan, tuple(pi.values())))
            for k in range(W.rank + 1):
                for _ in range(3):
                    closure_min_check(W, pi, W.from_word(range(1, k + 1)))
                    calls += 1
            if W.rank < 8:
                cuspidal_representatives(W, pi)
        assert calls == 6 * sum(rank + 1 for _, rank, _ in groups)
        assert sorted(asked) == sorted(pairs) and len(asked) == 39

    def test_early_return_keeps_the_search_answer(self, monkeypatch):
        """``identify_standard`` returns the identity labelling without a search
        when the matrix is its type's own and sigma that type's standard map,
        so of the 50 types and twists through rank 8, under their identity
        and twist maps, only C2 and D3, named B2 and A3, search a labelling:
        F4, whose sorted Cartan rows are C4's and whose sorted columns are
        B4's, searches neither.
        With the early return disabled every answer is the same: on those
        100 maps, and on 3D4 under delta_inv, D4 under (1 3) and (1 4), D3
        under its swap and E6's D4 under each twist."""
        named = []
        for family, rank, twist in twists_through_rank_8():
            cartan = cartan_matrix(family, rank)
            named += [(cartan, {i: i for i in range(1, rank + 1)}), (cartan, pi_of(twist))]
        D4 = cartan_matrix("D", 4)
        other = [(D4, pi_of(build_twist("D", 4, 3), "delta_inv")),
                 (D4, {1: 3, 2: 2, 3: 1, 4: 4}), (D4, {1: 4, 2: 2, 3: 3, 4: 1}),
                 (cartan_matrix("D", 3), {1: 1, 2: 3, 3: 2})]
        other += [(e6_d4().system.cartan, pi) for pi in D4_OF_E6.values()]
        real_isos, searched = subsystems.cartan_isos, []
        monkeypatch.setattr(subsystems, "cartan_isos",
                            lambda source, target: searched.append(source) or real_isos(source, target))
        fast = [identify_standard(cartan, pi) for cartan, pi in named]
        assert set(searched) == {cartan_matrix(*t) for t in (("C", 2), ("D", 3))}
        fast += [identify_standard(cartan, pi) for cartan, pi in other]
        assert None not in fast
        # A target given as lists never equals a matrix given as tuples, so
        # the early return never fires and every answer comes from the search.
        monkeypatch.setattr(subsystems, "cartan_matrix",
                            lambda family, rank: [list(row) for row in cartan_matrix(family, rank)])
        assert [identify_standard(cartan, pi) for cartan, pi in named + other] == fast

    def test_only_subsystems_names_the_search(self):
        """In the package, only ``subsystems`` names ``identify_standard``: every
        other module reads ``standard_type``.  Negative control: lifting's own
        source, calling the search as it once did, names it."""
        package = Path(conjugacy.__file__).parent
        sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
        assert modules_naming(sources, "identify_standard") == {"subsystems"}
        call = "standard_type(W, pi)"
        assert call in sources["lifting"]
        sources["lifting"] = sources["lifting"].replace(call, "identify_standard(W.system.cartan, pi)")
        assert modules_naming(sources, "identify_standard") == {"lifting", "subsystems"}

    @pytest.mark.parametrize("run,pairs", [("verify_all", 60), ("certify_small_rank", 26)])
    def test_a_cold_run_searches_each_pair_once(self, run, pairs):
        """In a fresh interpreter, a catalog replay (``verify_all()``) and W3
        (``scripts/certify_small_rank.py``) call ``identify_standard`` once
        per distinct (Cartan matrix, map): the cuspidal seeds, the minimality
        oracle, the cuspidal tables and the catalog rows all read the answer
        ``standard_type`` keeps on each group."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", _COUNT_SEARCHES, run, str(SCRIPTS)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-2:] == [str(pairs), str(pairs)]

    def test_seeds_read_without_their_labelling_fail(self, monkeypatch):
        """Negative control: with ``standard_type`` giving the identity
        labelling (phi None) for E6's D4 on nodes 2..5 or for F4's nodes 2..4,
        their seeds are read in the wrong labels.  The D4's cuspidal
        representatives under triality then raise, since a seed is not
        cuspidal, and F4's class list, which seeds its W_J on nodes 2..4
        through that group, misses one of enumeration's 25 classes."""
        D4, C3, F4 = e6_d4(), RELABELLED["F4 nodes 2..4"][0](), group("F", 4)
        triality, identity = D4_OF_E6["D4 of E6, triality"], identity_pi(F4)
        expected = [c.representative.word for c in enumerate_delta_classes(F4, identity)]
        assert [c.representative.word for c in class_list(F4, identity)] == expected
        assert cuspidal_representatives(D4, triality)
        real = subsystems.standard_type

        def unlabelled(W, pi):
            named = real(W, pi)
            return (*named[:3], None) if W in (D4, C3) and named is not None else named

        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO", "_FOLDS"):
            monkeypatch.setattr(conjugacy, memo, {})
        monkeypatch.setattr(conjugacy, "standard_type", unlabelled)
        with pytest.raises(FalsificationError, match="is not cuspidal"):
            cuspidal_representatives(D4, triality)
        got = [c.representative.word for c in class_list(F4, identity)]
        assert len(got) == len(expected) - 1 == 24


# Counts the calls of ``identify_standard`` in a cold run and the distinct
# (Cartan matrix, map) pairs they ask about: argv is the run and the scripts'
# directory.
_COUNT_SEARCHES = """
import importlib.util, sys
from pathlib import Path
from weyldl import subsystems
real, asked = subsystems.identify_standard, []
def counted(cartan, pi):
    asked.append((cartan, tuple(sorted(pi.items()))))
    return real(cartan, pi)
subsystems.identify_standard = counted
run, scripts = sys.argv[1:]
if run == "verify_all":
    from weyldl.casetables import verify_all
    assert verify_all().all_passed
else:
    spec = importlib.util.spec_from_file_location(run, Path(scripts) / f"{run}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    sys.argv = [run]
    assert script.main() == 0
print(len(asked), len(set(asked)))
"""

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def modules_naming(sources, name):
    """The modules whose code, not their text, names ``name``: a definition,
    an import, a name read or an attribute read."""
    named = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)
                    or isinstance(node, ast.FunctionDef) and node.name == name):
                named.add(module)
    return named


def supp_len(W, pi, w):
    supp = supp_delta(W, pi, w)
    seen, orbits = set(), 0
    for i in sorted(supp):
        if i not in seen:
            orbits += 1
            j = i
            while j not in seen:
                seen.add(j)
                j = pi[j]
    return orbits


class TestShiftsStayInClass:
    def test_exhaustive_rank_le_4(self):
        for family, rank, order in [
            ("A", 3, 2), ("B", 3, 1), ("D", 4, 3), ("F", 4, 2), ("G", 2, 1),
        ]:
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            classes = enumerate_delta_classes(W, pi)
            owner = {}
            for k, cls in enumerate(classes):
                for w in class_elements(W, cls):
                    owner[w] = k
            for w, k in owner.items():
                for j in range(1, rank + 1):
                    u = cyclic_shift_step(W, pi, w, j)
                    if u is not None:
                        assert owner[u] == k


class TestBudgets:
    def test_closure_budget_reported(self, F4, monkeypatch):
        pi = identity_pi(F4)
        w0 = F4.longest_element(range(1, 5))
        big = F4.multiply(F4.simple(1), w0)
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 2)
        with pytest.raises(ClosureBudgetError) as err:
            shift_closure(F4, pi, big)
        assert "budget" in str(err.value)


def cuspidal_words_by_enumeration(W, pi):
    return [c.representative.word for c in enumerate_delta_classes(W, pi) if c.cuspidal]


def block_cartan(*blocks):
    """The Cartan matrix of the orthogonal sum of the given Cartan matrices."""
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append((0,) * at + tuple(row) + (0,) * (n - at - len(b)))
        at += len(b)
    return tuple(rows)


A1 = ((2,),)
A2_CARTAN = ((2, -1), (-1, 2))
D4_CARTAN = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))

# Reducible groups whose twist permutes components: (Cartan matrix, pi).
SWAPPED = {
    "A1xA1 swapped": (block_cartan(A1, A1), {1: 2, 2: 1}),
    "A2xA2 swapped": (block_cartan(A2_CARTAN, A2_CARTAN), {1: 3, 2: 4, 3: 1, 4: 2}),
    "A2xA2 swapped, flipped back": (
        block_cartan(A2_CARTAN, A2_CARTAN), {1: 4, 2: 3, 3: 2, 4: 1}),
    "A2xA2 of order 4": (block_cartan(A2_CARTAN, A2_CARTAN), {1: 3, 2: 4, 3: 2, 4: 1}),
    "3D4xA1": (block_cartan(D4_CARTAN, A1), {1: 4, 2: 2, 3: 1, 4: 3, 5: 5}),
}

# E6's D4 on nodes 2..5, in its standalone labels (node 3 central): twists of
# order 1, 2 and 3.
D4_OF_E6 = {
    "D4 of E6": {1: 1, 2: 2, 3: 3, 4: 4},
    "D4 of E6, leaf swap": {1: 2, 2: 1, 3: 3, 4: 4},
    "D4 of E6, triality": {1: 2, 2: 4, 3: 3, 4: 1},
}


B2_CARTAN, A3_CARTAN, G2_CARTAN = (cartan_matrix(f, r) for f, r in (("B", 2), ("A", 3), ("G", 2)))

# Reducible groups read one fold per pi-orbit of components, with the SWAPPED
# groups: (Cartan matrix, pi), 14 groups.  Every fold of the first eleven is
# classical, or 3D4 (in 3D4 x A1); the last three have a fold of G2 or 2B2.
FOLDED = {
    "A1^3 under a 3-cycle": (block_cartan(A1, A1, A1), {1: 2, 2: 3, 3: 1}),
    "B2xB2 swapped": (block_cartan(B2_CARTAN, B2_CARTAN), {1: 3, 2: 4, 3: 1, 4: 2}),
    "A3xA3 swapped and flipped": (
        block_cartan(A3_CARTAN, A3_CARTAN), {1: 4, 2: 5, 3: 6, 4: 3, 5: 2, 6: 1}),
    "A2xA1": (block_cartan(A2_CARTAN, A1), {1: 1, 2: 2, 3: 3}),
    "A2xA1, A2 flipped": (block_cartan(A2_CARTAN, A1), {1: 2, 2: 1, 3: 3}),
    "A2xA2xA1, mixed": (block_cartan(A2_CARTAN, A2_CARTAN, A1), {1: 4, 2: 3, 3: 1, 4: 2, 5: 5}),
    **SWAPPED,
    "G2xG2 swapped": (block_cartan(G2_CARTAN, G2_CARTAN), {1: 3, 2: 4, 3: 1, 4: 2}),
    "G2xA1": (block_cartan(G2_CARTAN, A1), {1: 1, 2: 2, 3: 3}),
    "2B2xA1": (block_cartan(B2_CARTAN, A1), {1: 2, 2: 1, 3: 3}),
}


def fold_mismatches(monkeypatch, letters=None):
    """(group, map, word, oracle, enumeration) for every element of every FOLDED
    group, under pi and its inverse, where ``closure_min_check`` and enumeration
    disagree, and the number of elements checked.  The walk is patched to
    raise.  ``letters``, if given, rebuilds each fold's letter map from
    (fold, pi): a mutant fold."""
    monkeypatch.setattr(conjugacy, "_verdict", no_walk)
    monkeypatch.setattr(conjugacy, "_shift_walk", no_walk)
    mismatches, checked = [], 0
    for name, (cartan, pi) in FOLDED.items():
        W = group_of(cartan)
        for p in (pi, inverse_pi(pi)):
            for memo in ("_MINIMALITY_MEMO", "_FOLDS"):
                monkeypatch.setattr(conjugacy, memo, {})
            assert subsystems.standard_type(W, p) is None
            folds = conjugacy._folds(W, p)
            if letters is not None:
                conjugacy._FOLDS[W.system.key, tuple(sorted(p.items()))] = tuple(
                    conjugacy._Fold(fold.sub, fold.pi, letters(fold, p)) for fold in folds)
            for w in elements_of(W):
                answer = closure_min_check(W, p, w)
                expected = "minimal" if w.length == oracle_class_of(W, p, w).min_length else "not_minimal"
                if answer != expected:
                    mismatches.append((name, p, W.reduced_word(w), answer, expected))
                checked += 1
            assert conjugacy._MINIMALITY_MEMO == {}
    return mismatches, checked


def sigma_dropped(fold, pi):
    """The mutant letter map: a letter on pi^j(C) goes back to C by pi^-j,
    not on by pi^(r-j), so the fold drops sigma^r."""
    r = len({k for k, _ in fold.letters.values()})
    back = inverse_pi(pi)
    return {i: (k, fold.sub.to_sub[conjugacy.power_pi(back, -k % r)[i]])
            for i, (k, _) in fold.letters.items()}


class TestFolds:
    """``closure_min_check`` on reducible groups: one fold per orbit of components."""

    def test_agrees_with_enumeration(self, monkeypatch):
        """Every element of the FOLDED groups, under both maps, against the
        enumerated classes, with no walk: each fold is classical, or read
        off the seeds of G2, 2B2 and 3D4, elliptic or not."""
        assert fold_mismatches(monkeypatch) == ([], 2848)

    def test_a_fold_that_drops_sigma_fails(self, monkeypatch):
        """Negative control: a fold that maps pi^j(C) back by pi^-j, dropping
        sigma^r, disagrees with enumeration on 112 elements, all in the three
        groups where pi^r is not 1 on C."""
        mismatches, _ = fold_mismatches(monkeypatch, sigma_dropped)
        assert len(mismatches) == 112
        assert {name for name, *_ in mismatches} == {
            "A2xA2 of order 4", "A3xA3 swapped and flipped", "A2xA2xA1, mixed"}

    def test_folds_are_kept_per_matrix_and_map(self, monkeypatch):
        """``_folds`` resolves each orbit's standalone group, pi^r and type once
        per (Cartan matrix, map): a second group of the same matrix reads the
        same folds, and the two orbits of A2xA2xA1 under its mixed map fold
        to 2A2 and A1."""
        monkeypatch.setattr(conjugacy, "_FOLDS", {})
        cartan, pi = FOLDED["A2xA2xA1, mixed"]
        folds = conjugacy._folds(group_of(cartan), pi)
        assert conjugacy._folds(WeylGroup(group_of(cartan).system), pi) is folds
        assert [fold.named for fold in folds] == [("A", 2, 2, None), ("A", 1, 1, None)]
        assert [fold.sub.nodes for fold in folds] == [(1, 2), (5,)]
        # w_1 = s1 s2 on the first A2 and w_2 = s3 on the second: f = s1 s2 pi(s3) = s1 s2 s1.
        assert folds[0].word([3, 1, 2, 5]) == [1, 2, 1] and folds[1].word([3, 1, 2, 5]) == [1]


def tabled_groups():
    """(family, rank, order) of each group that ``conjugacy._CLASSICAL_TABLE``
    covers, C_n beside B_n, whose words it shares."""
    return [(family, rank, order) for letters, rank, order in conjugacy._CLASSICAL_TABLE
            for family in ("BC" if letters == "B" else letters)]


def table_row(family, rank, order):
    return conjugacy._CLASSICAL_TABLE["B" if family == "C" else family, rank, order]


def level_firsts(W, pi):
    """The first member of the spelled level of each cuspidal seed
    (``_cuspidal_levels``, then ``minimal_level``), in (length, word) order."""
    levels = conjugacy._cuspidal_levels(W, pi)
    return sorted((minimal_level(W, pi, seed)[0] for seed, _ in levels),
                  key=lambda u: u.sort_key())


def words_of(row):
    return [tuple(map(int, word)) for word in row]


def naming_rule(family, rank, order, direction):
    """Which rule names the cuspidal classes of a named type under a twist map:
    "classical" for a ``_CLASSICAL_TABLE`` group, "seeds" for a named type
    under its identity or the delta map of its standard twist with a
    ``_SEED_TABLE`` row, else "levels".  The named C2 is "levels": the
    resolver names it B2 through the swap of its nodes, and a table word
    holds only in the labels it names."""
    standard = (direction == "delta" or order < 3) and (family, rank) != ("C", 2)
    if standard and (family, rank, order) in tabled_groups():
        return "classical"
    if standard and (family, rank, order) in conjugacy._SEED_TABLE:
        return "seeds"
    return "levels"


def assert_named_by(W, pi, rule, row, monkeypatch):
    """From cold memos, ``cuspidal_representatives`` of W under pi names each
    class by ``rule``: "classical" takes ``row``'s words with no walk and
    keeps nothing; "seeds" takes ``row``'s words, walks each seed's level
    once and leaves it unspelled; "levels" walks each seed's level once and
    takes its first member, spelled.  A second call, with the representatives'
    memo cleared and the levels held, walks nothing and gives the same words.
    Returns the representatives' words."""
    for memo in ("_MINIMALITY_MEMO", "_CUSPIDAL_MEMO"):
        monkeypatch.setattr(conjugacy, memo, {})
    walks = []
    real_walk = conjugacy._shift_walk
    monkeypatch.setattr(conjugacy, "_shift_walk",
                        lambda *args: walks.append(args) or real_walk(*args))
    reps = cuspidal_representatives(W, pi)
    held = conjugacy._verdicts(W, pi)
    if rule == "classical":
        assert walks == [] and held == {}
    else:
        assert len(walks) == len(reps) == len({id(held[u.key]) for u in reps})
        assert all(type(held[u.key]) is conjugacy._Level for u in reps)
    if rule == "levels":
        assert all(held[u.key].spelled[0] is u for u in reps)
    else:
        assert [u.word for u in reps] == words_of(row)
    if rule == "seeds":
        assert all(held[u.key].spelled is None for u in reps)
    walks.clear()
    monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
    assert [u.word for u in cuspidal_representatives(W, pi)] == [u.word for u in reps]
    assert walks == []
    monkeypatch.setattr(conjugacy, "_shift_walk", real_walk)
    return [u.word for u in reps]


class TestCuspidalRepresentatives:
    """``cuspidal_representatives`` against the enumerated partition, word for word."""

    def test_tabled_groups_walk_nothing(self, monkeypatch):
        """From cold memos, every group that the classical table covers, through
        rank 7, reads its representatives off the table: no shift walk starts,
        no level is kept, and each representative is spelled as its row's
        word.  The table covers the classical twisted groups through rank 7,
        but for the named C2, which the resolver names B2 through the swap of
        its nodes: it walks its two levels instead, and names its classes by
        the same words."""
        assert sorted(tabled_groups()) == sorted(classical_groups(range(1, 8)))
        for memo in ("_MINIMALITY_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        C2, walks = group("C", 2), []
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk",
                            lambda *args: walks.append(args[0]) or real_walk(*args))
        reps = cuspidal_representatives(C2, identity_pi(C2))
        assert [u.word for u in reps] == words_of(table_row("C", 2, 1))
        assert walks == [C2, C2]
        walks.clear()
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        words = 0
        for family, rank, order in tabled_groups():
            if (family, rank) == ("C", 2):
                continue
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            reps = cuspidal_representatives(W, pi)
            row = table_row(family, rank, order)
            assert [u._word for u in reps] == [tuple(map(int, word)) for word in row]
            words += len(reps)
        assert walks == [] and conjugacy._MINIMALITY_MEMO == {}
        assert words == 151

    @pytest.mark.parametrize("words,message", [
        (("12", "1"), "not cuspidal"),
        (("12", "1211"), "not reduced"),
        (("12", "123"), "not minimal"),
    ])
    def test_bad_tabled_word_raises(self, words, message, monkeypatch):
        """In 2A3, a tabled word that is not cuspidal, not reduced or not
        minimal raises; it never becomes a representative."""
        table = dict(conjugacy._CLASSICAL_TABLE)
        table["A", 3, 2] = words
        monkeypatch.setattr(conjugacy, "_CLASSICAL_TABLE", table)
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        with pytest.raises(FalsificationError, match=message):
            cuspidal_representatives(group("A", 3), pi_of(build_twist("A", 3, 2)))

    @pytest.mark.slow
    def test_table_regenerates_from_walks(self):
        """Each row of the classical table, rank 7 included, is the first
        members of the spelled levels that the walks of the cuspidal seeds
        (``_cuspidal_levels``) reach, in (length, word) order."""
        for family, rank, order in tabled_groups():
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            reps = level_firsts(W, pi)
            assert ["".join(map(str, u.word)) for u in reps] == list(table_row(family, rank, order))

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5_6)
    def test_irreducible_types(self, family, rank, order, direction):
        """Every irreducible type and twist of rank <= 6, in both directions."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), direction)
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got == cuspidal_words_by_enumeration(W, pi)

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5_6)
    def test_named_by_table_word_or_spelled_level(self, family, rank, order, monkeypatch):
        """From cold memos, in both directions, each cuspidal class is named by
        its table word or by the first member of its spelled level, and the
        words are enumeration's (``assert_named_by``): the classical groups
        by ``_CLASSICAL_TABLE``, a named type under its identity or the delta
        map of its standard twist by its ``_SEED_TABLE`` row, and 3D4 under
        delta_inv and the named C2, which the resolver names B2 through the
        swap of its nodes, by their spelled levels."""
        W = group(family, rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            rule = naming_rule(family, rank, order, direction)
            row = (table_row(family, rank, order) if rule == "classical"
                   else conjugacy._SEED_TABLE.get((family, rank, order)))
            words = assert_named_by(W, pi, rule, row, monkeypatch)
            assert words == cuspidal_words_by_enumeration(W, pi)

    @pytest.mark.parametrize("name", sorted(SWAPPED) + sorted(D4_OF_E6))
    def test_other_groups_named_by_spelled_levels(self, name, monkeypatch):
        """A reducible group whose twist permutes components, and E6's D4 on
        nodes 2..5, in labels that are not Bourbaki's, under a twist of order
        1, 2 and 3: from cold memos, in both directions, each cuspidal class
        is named by the first member of its spelled level, as enumeration
        names it."""
        if name in SWAPPED:
            cartan, pi = SWAPPED[name]
            W = group_of(cartan)
        else:
            W, pi = sub_context(group("E", 6), frozenset({2, 3, 4, 5})).group, D4_OF_E6[name]
        for p in (pi, inverse_pi(pi)):
            named = subsystems.standard_type(W, p)
            assert named is None or named[3] is not None
            words = assert_named_by(W, p, "levels", None, monkeypatch)
            assert words and words == cuspidal_words_by_enumeration(W, p)

    def test_seeds_are_the_table_rows(self, monkeypatch):
        """For each type that ``_SEED_TABLE`` lists, under the delta map of its
        standard twist, ``_cuspidal_seeds`` returns the row's words as they
        are, in order: the words that name its cuspidal classes."""
        monkeypatch.setattr(conjugacy, "_standard_seeds", conjugacy._standard_seeds.__wrapped__)
        for (family, rank, order), row in conjugacy._SEED_TABLE.items():
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            assert subsystems.standard_type(W, pi) == (family, rank, order, None)
            assert conjugacy._cuspidal_seeds(W, pi) == words_of(row)
        assert len(conjugacy._SEED_TABLE) == 10

    def test_a_seed_off_its_canonical_word_shows(self, G2, monkeypatch):
        """Negative control: with G2's seed "12" replaced by "21", which is
        minimal, cuspidal and in the same level, every runtime check passes,
        and the representatives differ from enumeration's."""
        table = dict(conjugacy._SEED_TABLE)
        table["G", 2, 1] = ("21",) + table["G", 2, 1][1:]
        for name, value in (("_SEED_TABLE", table), ("_CUSPIDAL_MEMO", {}),
                            ("_standard_seeds", conjugacy._standard_seeds.__wrapped__),
                            ("_MINIMALITY_MEMO", {})):
            monkeypatch.setattr(conjugacy, name, value)
        pi = identity_pi(G2)
        assert G2.from_word((1, 2)) in minimal_level(G2, pi, G2.from_word((2, 1)))
        got = [u.word for u in cuspidal_representatives(G2, pi)]
        assert got == words_of(table["G", 2, 1])
        assert got != cuspidal_words_by_enumeration(G2, pi)

    @pytest.mark.parametrize("family,rank,order,direction,levels,reps_walks", [
        pytest.param("B", 4, 1, "delta", 24, 0, id="B-4-1-24"),
        pytest.param("A", 5, 2, "delta", 12, 0, id="A-5-2-12"),
        pytest.param("F", 4, 1, "delta", 29, 9, id="F-4-1-29"),
        pytest.param("D", 4, 3, "delta_inv", 7, 4, id="D-4-3-delta_inv-7"),
    ])
    @pytest.mark.parametrize("reps_first", [False, True])
    def test_class_list_walks_each_level_once(self, family, rank, order, direction, levels,
                                              reps_walks, reps_first, monkeypatch):
        """A cold ``class_list`` starts one shift walk per level, and spells
        every level it keeps, also after ``cuspidal_representatives`` has
        made its ``reps_walks`` walks: ``minimal_level`` spells a level's
        record without walking it again.  B4 and 2A5 read their
        representatives off the classical table with no walk; F4 walks its
        seeds' levels and leaves them unspelled; 3D4 under delta_inv walks
        them and spells them."""
        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        walks = []
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk",
                            lambda *args: walks.append(args) or real_walk(*args))
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), direction)
        if reps_first:
            assert cuspidal_representatives(W, pi)
            assert len(walks) == reps_walks
        assert class_list(W, pi)
        held = list(conjugacy._verdicts(W, pi).values())
        assert all(type(level) is conjugacy._Level for level in held)
        assert all({u.key for u in level.spelled} == set(level.inverse) for level in held)
        assert len(walks) == len({id(level) for level in held}) == levels

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("name", sorted(SWAPPED))
    def test_swapped_components(self, name, direction):
        """Orbits of several components: seeds of the first under pi^r."""
        cartan, pi = SWAPPED[name]
        W = group_of(cartan)
        if direction == "delta_inv":
            pi = {v: k for k, v in pi.items()}
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got and got == cuspidal_words_by_enumeration(W, pi)

    def test_minimal_level_is_the_class_minimum(self, monkeypatch):
        """The walk from the last minimal element of each cuspidal class lists the
        class's minimal elements, by canonical word: every twisted group of rank
        <= 6 and every SWAPPED group, in both directions.  From an empty
        minimality memo, so that each level is walked and not read back."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        groups = []
        for family, rank, order in RANK_LE_4 + RANK_5_6:
            for direction in ("delta", "delta_inv"):
                pi = pi_of(build_twist(family, rank, order), direction)
                groups.append((group(family, rank), pi))
        for cartan, pi in SWAPPED.values():
            for p in (pi, {v: k for k, v in pi.items()}):
                groups.append((group_of(cartan), p))
        checked = 0
        for W, pi in groups:
            for cls in enumerate_delta_classes(W, pi):
                if cls.cuspidal:
                    assert minimal_level(W, pi, cls.minimal[-1]) == cls.minimal
                    checked += 1
        assert checked == 304

    def test_level_from_the_memo_equals_a_fresh_walk(self, monkeypatch):
        """Once ``class_list`` has walked the groups of rank <= 6 from cold memos,
        ``minimal_level`` from any member of a cuspidal class, through a group
        of the same Cartan matrix that is not the one that listed it, starts no
        walk, and returns what a walk from that member with an empty memo
        returns: the same elements, lengths and words, in the same order."""
        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        members = []
        for family, rank, order in RANK_LE_4 + RANK_5_6:
            W = group(family, rank)
            pi = pi_of(build_twist(family, rank, order))
            other = WeylGroup(W.system)
            members += [(other, pi, u) for cls in class_list(W, pi) if cls.cuspidal
                        for u in cls.minimal]
        walks = []
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk",
                            lambda *args: walks.append(args) or real_walk(*args))
        served = [minimal_level(W, pi, u) for W, pi, u in members]
        assert walks == []
        for (W, pi, u), level in zip(members, served):
            monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
            fresh = minimal_level(W, pi, u)
            assert [(v.key, v.length, v.word) for v in level] == [
                (v.key, v.length, v.word) for v in fresh]
        assert len(walks) == len(members) == 3687

    def test_enumerates_nothing(self, monkeypatch):
        """With cold memos, E6 and 2E6 come out without listing any element:
        the package has no enumeration to call (``test_no_enumeration_in_the_package``)."""
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        monkeypatch.setattr(conjugacy, "_standard_seeds", conjugacy._standard_seeds.__wrapped__)
        monkeypatch.setattr(multiply_oracles, "_ELEMENTS", {})
        E6 = group("E", 6)
        for order in (1, 2):
            assert cuspidal_representatives(E6, pi_of(build_twist("E", 6, order)))
        assert multiply_oracles._ELEMENTS == {}

    @pytest.mark.parametrize("seeds,message", [
        (("12", "1212", "121"), "not minimal"),
        (("12", "1212", "1"), "not cuspidal"),
        (("12", "1212", "2121"), "share a class"),
    ])
    def test_bad_seed_raises(self, G2, monkeypatch, seeds, message):
        """A non-minimal, non-cuspidal or repeated seed raises, in the cuspidal
        representatives and in the class list; it never passes."""
        table = dict(conjugacy._SEED_TABLE)
        table[("G", 2, 1)] = seeds
        monkeypatch.setattr(conjugacy, "_SEED_TABLE", table)
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        monkeypatch.setattr(conjugacy, "_standard_seeds", conjugacy._standard_seeds.__wrapped__)
        monkeypatch.setattr(conjugacy, "_CLASS_MEMO", {})
        for oracle in (cuspidal_representatives, class_list):
            with pytest.raises(FalsificationError, match=message):
                oracle(G2, identity_pi(G2))

    @pytest.mark.slow
    @pytest.mark.parametrize("family,order", [
        ("A", 1), ("A", 2), ("B", 1), ("C", 1), ("D", 1), ("D", 2),
    ])
    def test_classical_rank_7(self, family, order, monkeypatch):
        """A7, 2A7, B7, C7, D7 and 2D7: signed cycle types, and the class list
        class by class and minimal list by minimal list, against enumeration.

        Fresh oracle and class memos, so the enumeration is freed after the test."""
        monkeypatch.setattr(multiply_oracles, "_ELEMENTS", {})
        monkeypatch.setattr(multiply_oracles, "_PARTITIONS", {})
        monkeypatch.setattr(conjugacy, "_CLASS_MEMO", {})
        W = group(family, 7)
        pi = pi_of(build_twist(family, 7, order))
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got == cuspidal_words_by_enumeration(W, pi)
        assert class_list(W, pi) == enumerate_delta_classes(W, pi)


# Groups past rank 4 whose class lists join many levels.
JOINED_BEYOND_RANK_4 = [("A", 5, 2), ("B", 5, 1), ("D", 5, 1), ("D", 5, 2), ("E", 6, 1), ("E", 6, 2)]


class TestClassOracle:
    """``class_list``, ``class_of`` and ``minimal_set`` against the enumerated partition."""

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5_6)
    def test_class_list_matches_enumeration(self, family, rank, order, direction):
        """Every twisted group of rank <= 6, both directions: the same classes in
        the same order, each with the same minimal list and cuspidal flag."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), direction)
        assert class_list(W, pi) == enumerate_delta_classes(W, pi)

    @pytest.mark.parametrize("name", sorted(SWAPPED))
    def test_class_list_swapped_components(self, name):
        """Reducible groups whose twist permutes components, both directions."""
        cartan, pi = SWAPPED[name]
        W = group_of(cartan)
        for p in (pi, {v: k for k, v in pi.items()}):
            assert class_list(W, p) == enumerate_delta_classes(W, p)

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4)
    def test_class_of_every_element_rank_le_4(self, family, rank, order):
        """The class of every element, from the element alone, both directions."""
        W = group(family, rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            for w in elements_of(W):
                assert class_of(W, pi, w) == oracle_class_of(W, pi, w), (
                    family, rank, order, direction, w.word)

    def test_minimal_set_joins_levels(self):
        """A class whose minimal elements lie in several cyclic-shift levels: the
        long reflections of B3, whose minimal elements s1 and s2 are each a
        level of their own, joined by conjugation with w_0^K w_0^J."""
        W = group("B", 3)
        pi = identity_pi(W)
        cls = oracle_class_of(W, pi, W.simple(1))
        assert len(minimal_level(W, pi, W.simple(1))) < len(cls.minimal)
        assert minimal_set(W, pi, W.simple(1)) == list(cls.minimal)

    def test_twisted_support_constant_on_levels(self):
        """``minimal_set`` reads supp_pi off one member per level: every minimal
        element of every class of rank <= 4 and of the SWAPPED groups, both
        directions, has the twisted support of its whole level."""
        groups = [(group(f, r), pi_of(build_twist(f, r, o), d))
                  for f, r, o in RANK_LE_4 for d in ("delta", "delta_inv")]
        groups += [(group_of(cartan), p) for cartan, pi in SWAPPED.values()
                   for p in (pi, {v: k for k, v in pi.items()})]
        for W, pi in groups:
            for cls in enumerate_delta_classes(W, pi):
                for u in cls.minimal:
                    J = supp_delta(W, pi, u)
                    assert all(supp_delta(W, pi, v) == J for v in minimal_level(W, pi, u))

    def test_a_join_carries_a_level_onto_a_level(self):
        """``minimal_set`` conjugates one member per level: for every level of every
        class of rank <= 4 and of 2A5, B5, D5, 2D5, E6 and 2E6, both directions,
        and every ``_join_letters`` map of its support, the images of all its
        members make up one ``minimal_level``, of the level's size."""
        joins = 0
        for family, rank, order in RANK_LE_4 + JOINED_BEYOND_RANK_4:
            W = group(family, rank)
            for direction in ("delta", "delta_inv"):
                pi = pi_of(build_twist(family, rank, order), direction)
                orbits = conjugacy._pi_orbits(pi, W.system.nodes)
                for cls in class_list(W, pi):
                    levels = {id(level): level for level in
                              (minimal_level(W, pi, u) for u in cls.minimal)}
                    for level in levels.values():
                        J = supp_delta(W, pi, level[0])
                        for orbit in orbits:
                            letters = None if orbit & J else conjugacy._join_letters(W, J, orbit)
                            if letters is None:
                                continue
                            images = [W.from_word([letters[j] for j in u.word]) for u in level]
                            target = minimal_level(W, pi, images[0])
                            assert len(target) == len(level)
                            assert {v.key for v in images} == {u.key for u in target}
                            joins += 1
        assert joins == 710

    @pytest.mark.parametrize("letters,match", [
        ({1: 1, 2: 1}, "changes its length"),  # s1 s2 -> s1 s1 = 1
        ({1: 1, 2: 3}, "changes its size"),  # level {s1 s2, s2 s1} -> level {s1 s3}
    ])
    def test_wrong_join_letters_are_caught(self, monkeypatch, letters, match):
        """A letter map that is not d's, for the class of s1 s2 in A3, is caught on
        the one member ``minimal_set`` conjugates."""
        W = group("A", 3)
        monkeypatch.setattr(conjugacy, "_join_letters",
                            lambda W, J, orbit: letters if J == {1, 2} else None)
        with pytest.raises(FalsificationError, match=match):
            minimal_set(W, identity_pi(W), W.from_word([1, 2]))

    def test_minimal_set_rejects_non_minimal(self, A2):
        with pytest.raises(FalsificationError, match="not minimal"):
            minimal_set(A2, identity_pi(A2), A2.from_word([1, 2, 1]))

    def test_class_of_keeps_its_descent(self, monkeypatch):
        """``class_of`` keeps each step down in the minimality memo: from cold
        memos, a second call from 2 1 2 3 2 in B3 (length 5, class minimum 3)
        starts no walk; and once ``class_list`` has listed B3, the descent is
        one walk, from the word itself, since the level it reaches is kept."""
        W = group("B", 3)
        pi = identity_pi(W)
        w = W.from_word([2, 1, 2, 3, 2])
        assert w.length == 5
        real_walk = conjugacy._shift_walk
        walks = []
        monkeypatch.setattr(conjugacy, "_shift_walk", lambda W, pi, u, *word: walks.append(u.key)
                            or real_walk(W, pi, u, *word))
        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        cls = class_of(W, pi, w)
        assert cls.representative.word == (1, 2, 3) and walks
        walks.clear()
        assert class_of(W, pi, w) == cls
        assert walks == []
        for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        assert cls in class_list(W, pi)
        walks.clear()
        assert class_of(W, pi, w) == cls
        assert walks == [w.key]

    @pytest.mark.parametrize("rank", [7, 8])
    def test_e7_e8_classes_from_one_element(self, rank):
        """Without enumeration: the Coxeter class (one element per orientation of
        the Dynkin tree, 2^(rank - 1)), the class of w0 = -1 (central), and a
        non-minimal word descending to the class of s1 s2 s3."""
        W = group("E", rank)
        pi = identity_pi(W)
        coxeter = class_of(W, pi, W.from_word(range(1, rank + 1)))
        assert coxeter.cuspidal and coxeter.min_length == rank
        assert len(coxeter.minimal) == 2 ** (rank - 1)
        w0 = W.longest_element(range(1, rank + 1))
        assert class_of(W, pi, w0).minimal == (w0,)
        word = W.from_word([4, 1, 2, 3, 4])
        assert word.length == 5
        cls = class_of(W, pi, word)
        assert cls.representative.word == (1, 2, 3) and not cls.cuspidal
        assert cls == class_of(W, pi, cls.minimal[-1])

    def test_e7_class_list(self):
        """E7's class list, from its seeds: 60 classes, 12 of them cuspidal, the
        counts of Geck-Pfeiffer 2000, App. B, and Carter, Compositio Math. 25
        (1972); its cuspidal classes are named by the seed words."""
        W = group("E", 7)
        classes = class_list(W, identity_pi(W))
        assert len(classes) == 60
        cuspidal = [c.representative.word for c in classes if c.cuspidal]
        assert cuspidal == words_of(conjugacy._SEED_TABLE["E", 7, 1])


def test_no_enumeration_in_the_package():
    """No module of weyldl enumerates a group: the enumeration, its budget error
    and the per-group element cache live only in the tests' oracle."""
    import importlib
    import pkgutil

    import weyldl

    for info in pkgutil.iter_modules(weyldl.__path__, "weyldl."):
        if info.name == "weyldl.__main__":
            continue
        module = importlib.import_module(info.name)
        for name in ("enumerate_delta_classes", "EnumerationBudgetError", "_PARTITION_MEMO"):
            assert not hasattr(module, name), (info.name, name)
    assert not hasattr(WeylGroup, "elements") and not hasattr(WeylGroup(group("A", 1).system), "_elements")
