import pytest

import random

from weyldl import conjugacy
from weyldl.conjugacy import (
    FalsificationError,
    class_of,
    closure_min_check,
    compute_I_J_x,
    cuspidal_representatives,
    enumerate_delta_classes,
    minimal_level,
    partition_memo,
    pi_of,
    shift_closure,
    supp_delta,
)
from weyldl.rootdata import build_twist
from weyldl.subsystems import _cartan_group, sub_context
from weyldl.weyl import WeylGroup

from conftest import RANK_5_6, RANK_LE_4, group, twist_of
from multiply_oracles import (
    class_elements,
    cyclic_shift_step,
    elementarily_strongly_conjugate,
    elements_of,
    is_cuspidal_by_definition,
    multiply_shift_closure,
    shift_descend_to_min,
)


def identity_pi(W):
    return {i: i for i in range(1, W.rank + 1)}


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
        assert len(partition_memo(W, identity_pi(W))) == _partitions(n)

    @pytest.mark.parametrize("family", ["B", "C"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_types_b_c_count_partition_pairs(self, family, n):
        # Classes of the hyperoctahedral group: signed cycle types, one per
        # pair of partitions (positive cycles, negative cycles) of total size n.
        W = group(family, n)
        pairs = sum(_partitions(k) * _partitions(n - k) for k in range(n + 1))
        assert pairs == {2: 5, 3: 10, 4: 20, 5: 36, 6: 65}[n]
        assert len(partition_memo(W, identity_pi(W))) == pairs


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
        assert [c.size for c in classes] == [1, 3, 2]

    def test_g2_untwisted(self, G2):
        classes = enumerate_delta_classes(G2, identity_pi(G2))
        assert len(classes) == 6
        assert sum(1 for c in classes if c.cuspidal) == 3

    def test_f4_untwisted(self, F4):
        classes = partition_memo(F4, identity_pi(F4))
        assert len(classes) == 25
        assert sum(1 for c in classes if c.cuspidal) == 9

    def test_partition_is_exhaustive(self, B2):
        classes = enumerate_delta_classes(B2, identity_pi(B2))
        assert sum(c.size for c in classes) == len(B2.elements())
        assert sorted(k for c in classes for k in c.keys) == sorted(B2.elements())

    def test_length_parity_constant_on_classes(self, F4, D4):
        for W, order in ((F4, 1), (F4, 2), (D4, 3)):
            pi = pi_of(twist_of(W, order))
            for cls in partition_memo(W, pi):
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
            classes = enumerate_delta_classes(W, pi, direction=direction)
            assert {frozenset(class_elements(W, c)) for c in classes} == orbits
            for cls in classes:
                members = class_elements(W, cls)
                assert cls.keys == tuple(w.key for w in elements if w.key in cls.members)
                assert cls.size == len(members)
                assert cls.min_length == min(w.length for w in members)
                mins = [w for w in members if w.length == cls.min_length]
                assert cls.representative == min(mins, key=lambda w: w.word)
                assert cls.min_elements() == sorted(mins, key=lambda w: w.sort_key())


class TestDeltaClassRecord:
    """DeltaClass keeps the semantics of the frozen dataclass it replaces."""

    def test_equality_hash_and_frozen(self):
        W, pi = group("B", 3), pi_of(build_twist("B", 3, 1))
        fresh, again = enumerate_delta_classes(W, pi), enumerate_delta_classes(W, pi)
        assert fresh[0] is not again[0]
        assert fresh == again and [hash(c) for c in fresh] == [hash(c) for c in again]
        assert fresh[0] != fresh[1]
        cls = fresh[-1]
        with pytest.raises(AttributeError):
            cls.cuspidal = not cls.cuspidal
        with pytest.raises(AttributeError):
            del cls.keys
        # The member set is still cached on the instance, outside the compared fields.
        assert cls.members is cls.members and cls.contains(cls.representative)
        assert cls == again[-1]


class TestSharedSubGroups:
    """Node sets with equal Cartan submatrices share one standalone group."""

    def test_c7_and_c8_tails_share_group_and_partition(self):
        low = sub_context(group("C", 7), range(3, 8))
        high = sub_context(group("C", 8), range(4, 9))
        assert low.group is high.group
        assert low.nodes != high.nodes
        pi_low = low.pi_to_sub({i: i for i in low.nodes})
        pi_high = high.pi_to_sub({i: i for i in high.nodes})
        assert partition_memo(low.group, pi_low) is partition_memo(high.group, pi_high)

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
        cls = class_of(A2, pi, A2.from_word([1, 2]))
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
            for cls in partition_memo(W, pi):
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
    def test_triality_case(self, D4):
        pi = pi_of(build_twist("D", 4, 3), "delta_inv")
        w1 = D4.from_word([3, 2, 1])
        assert compute_I_J_x(D4, pi, {1, 2, 3}, w1) == frozenset({1, 2})

    def test_identity_fixes_everything(self, A2):
        pi = identity_pi(A2)
        assert compute_I_J_x(A2, pi, {1}, A2.identity) == frozenset({1})

    def test_twisted_a4(self):
        W = group("A", 4)
        pi = pi_of(build_twist("A", 4, 2), "delta_inv")
        w1 = W.from_word([3, 2, 1])
        assert compute_I_J_x(W, pi, {1, 2, 3}, w1) == frozenset({2})

    def test_precondition(self, A2):
        pi = identity_pi(A2)
        with pytest.raises(ValueError):
            compute_I_J_x(A2, pi, {1}, A2.simple(1))


class TestInverseMap:
    def test_min_lengths_match_rank_le_3(self):
        for family, rank, order in [("A", 3, 1), ("A", 3, 2), ("B", 3, 1), ("G", 2, 2)]:
            W = group(family, rank)
            t = build_twist(family, rank, order)
            fwd = partition_memo(W, pi_of(t, "delta"))
            bwd = partition_memo(W, pi_of(t, "delta_inv"), direction="delta_inv")
            for cls in fwd:
                winv = W.invert(cls.representative)
                other = next(c for c in bwd if c.contains(winv))
                assert other.min_length == cls.min_length
                assert other.size == cls.size


class TestClosureMinCheck:
    def test_support_fast_path(self, G2):
        pi = identity_pi(G2)
        assert closure_min_check(G2, pi, G2.from_word([1, 2])) == "minimal"

    def test_agrees_with_enumeration_f4(self, F4):
        pi = identity_pi(F4)
        classes = partition_memo(F4, pi)
        for cls in classes[:12]:
            for w in cls.min_elements()[:2]:
                assert closure_min_check(F4, pi, w) == "minimal"
        # A non-minimal element must be detected: s_1 w0 has length 23,
        # its class minimal length 9.
        big = F4.multiply(F4.simple(1), F4.longest_element(range(1, 5)))
        assert big.length > class_of(F4, pi, big).min_length
        assert closure_min_check(F4, pi, big) == "not_minimal"

    def test_budget(self, F4):
        pi = identity_pi(F4)
        w = F4.from_word([2, 3, 2, 4, 3, 2, 1, 2])
        cls = class_of(F4, pi, w)
        picked = [x for x in class_elements(F4, cls) if x.length == cls.min_length][0]
        # Longer than its support needs, so the fast path does not answer.
        assert picked.length > supp_len(F4, pi, picked)
        assert closure_min_check(F4, pi, picked, budget=1) == "budget"

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4)
    def test_decides_minimality_rank_le_4(self, family, rank, order):
        """Closure says "minimal" exactly on the minimal level of each enumerated class."""
        W = group(family, rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            for w in elements_of(W):
                minimal = w.length == class_of(W, pi, w, direction=direction).min_length
                assert closure_min_check(W, pi, w) == ("minimal" if minimal else "not_minimal"), (
                    family, rank, order, direction, w.word,
                )


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
            classes = partition_memo(W, pi)
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
    def test_closure_budget_reported(self, F4):
        pi = identity_pi(F4)
        w0 = F4.longest_element(range(1, 5))
        big = F4.multiply(F4.simple(1), w0)
        with pytest.raises(Exception) as err:
            shift_closure(F4, pi, big, budget=2)
        assert "budget" in str(err.value)

    def test_enumeration_budget(self):
        from weyldl.rootdata import build_root_system
        from weyldl.weyl import EnumerationBudgetError

        fresh = WeylGroup(build_root_system("F", 4))
        with pytest.raises(EnumerationBudgetError):
            enumerate_delta_classes(fresh, identity_pi(fresh), budget=10)

    def test_budget_binds_on_cache_hits(self, F4):
        from weyldl.weyl import EnumerationBudgetError

        pi = identity_pi(F4)
        assert len(F4.elements()) == 1152
        assert sum(c.size for c in partition_memo(F4, pi)) == 1152
        with pytest.raises(EnumerationBudgetError):
            F4.elements(budget=10)
        with pytest.raises(EnumerationBudgetError):
            partition_memo(F4, pi, budget=10)
        # A budget the cached set fits in, to the element, still hits.
        assert len(F4.elements(budget=1152)) == 1152
        assert sum(c.size for c in partition_memo(F4, pi, budget=1152)) == 1152
        with pytest.raises(EnumerationBudgetError):
            F4.elements(budget=1151)


def cuspidal_words_by_enumeration(W, pi, direction="delta"):
    return [c.representative.word for c in partition_memo(W, pi, direction) if c.cuspidal]


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


class TestCuspidalRepresentatives:
    """``cuspidal_representatives`` against the enumerated partition, word for word."""

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5_6)
    def test_irreducible_types(self, family, rank, order, direction):
        """Every irreducible type and twist of rank <= 6, in both directions."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), direction)
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got == cuspidal_words_by_enumeration(W, pi, direction)

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("name", sorted(SWAPPED))
    def test_swapped_components(self, name, direction):
        """Orbits of several components: seeds of the first under pi^r."""
        cartan, pi = SWAPPED[name]
        W = _cartan_group(cartan)
        if direction == "delta_inv":
            pi = {v: k for k, v in pi.items()}
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got and got == cuspidal_words_by_enumeration(W, pi)

    def test_minimal_level_is_the_class_minimum(self):
        """The walk from the last minimal element of each cuspidal class lists the
        class's minimal elements, by canonical word: every twisted group of rank
        <= 6 and every SWAPPED group, in both directions."""
        groups = []
        for family, rank, order in RANK_LE_4 + RANK_5_6:
            for direction in ("delta", "delta_inv"):
                pi = pi_of(build_twist(family, rank, order), direction)
                groups.append((group(family, rank), pi, direction))
        for cartan, pi in SWAPPED.values():
            for p in (pi, {v: k for k, v in pi.items()}):
                groups.append((_cartan_group(cartan), p, "delta"))
        checked = 0
        for W, pi, direction in groups:
            for cls in partition_memo(W, pi, direction):
                if cls.cuspidal:
                    assert minimal_level(W, pi, cls.minimal[-1]) == cls.min_elements()
                    checked += 1
        assert checked == 304

    def test_enumerates_nothing(self, monkeypatch):
        """With a cold memo, E6 and 2E6 come out without listing any element."""
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration called")

        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        monkeypatch.setattr(WeylGroup, "elements", refuse)
        monkeypatch.setattr(conjugacy, "enumerate_delta_classes", refuse)
        E6 = group("E", 6)
        for order in (1, 2):
            assert cuspidal_representatives(E6, pi_of(build_twist("E", 6, order)))

    @pytest.mark.parametrize("seeds,message", [
        (("12", "1212", "121"), "not minimal"),
        (("12", "1212", "1"), "not cuspidal"),
        (("12", "1212", "2121"), "share a class"),
    ])
    def test_bad_seed_raises(self, G2, monkeypatch, seeds, message):
        """A non-minimal, non-cuspidal or repeated seed raises; it never passes."""
        table = dict(conjugacy._SEED_TABLE)
        table[("G", 2, 1)] = seeds
        monkeypatch.setattr(conjugacy, "_SEED_TABLE", table)
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        with pytest.raises(FalsificationError, match=message):
            cuspidal_representatives(G2, identity_pi(G2))

    @pytest.mark.slow
    @pytest.mark.parametrize("family,order", [
        ("A", 1), ("A", 2), ("B", 1), ("C", 1), ("D", 1), ("D", 2),
    ])
    def test_classical_rank_7(self, family, order, monkeypatch):
        """A7, 2A7, B7, C7, D7 and 2D7: signed cycle types against enumeration.

        A fresh group and partition memo, so the enumeration is freed after the test."""
        from weyldl.rootdata import build_root_system

        monkeypatch.setattr(conjugacy, "_PARTITION_MEMO", {})
        W = WeylGroup(build_root_system(family, 7))
        pi = pi_of(build_twist(family, 7, order))
        got = [w.word for w in cuspidal_representatives(W, pi)]
        assert got == cuspidal_words_by_enumeration(W, pi)
