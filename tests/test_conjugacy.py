import pytest

import random

import multiply_oracles
from weyldl import conjugacy
from weyldl.conjugacy import (
    ClosureBudgetError,
    DeltaClass,
    FalsificationError,
    class_list,
    class_of,
    closure_min_check,
    compute_I_J_x,
    cuspidal_representatives,
    minimal_level,
    minimal_set,
    pi_of,
    shift_closure,
    supp_delta,
)
from weyldl.rootdata import build_twist
from weyldl.subsystems import sub_context
from weyldl.weyl import WeylGroup, group_of

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
            classes = enumerate_delta_classes(W, pi, direction=direction)
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
        assert DeltaClass.__slots__ == ("group_key", "direction", "pi", "minimal", "cuspidal")
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
            fwd = class_list(W, pi_of(t, "delta"))
            bwd = class_list(W, pi_of(t, "delta_inv"), direction="delta_inv")
            for cls in fwd:
                winv = W.invert(cls.representative)
                other = class_of(W, pi_of(t, "delta_inv"), winv, direction="delta_inv")
                assert other in bwd
                assert other.min_length == cls.min_length
                assert len(class_keys(W, other)) == len(class_keys(W, cls))


class TestClosureMinCheck:
    def test_support_fast_path(self, G2):
        pi = identity_pi(G2)
        assert closure_min_check(G2, pi, G2.from_word([1, 2])) == "minimal"

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
        w = F4.from_word([2, 3, 2, 4, 3, 2, 1, 2])
        cls = oracle_class_of(F4, pi, w)
        picked = [x for x in class_elements(F4, cls) if x.length == cls.min_length][0]
        # Longer than its support needs, so the fast path does not answer.
        assert picked.length > supp_len(F4, pi, picked)
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 1)
        with pytest.raises(ClosureBudgetError):
            closure_min_check(F4, pi, picked)
        assert picked.key not in conjugacy._verdicts(F4, pi)

    @pytest.mark.parametrize("family,rank,order", RANK_LE_4)
    def test_decides_minimality_rank_le_4(self, family, rank, order, monkeypatch):
        """Closure says "minimal" exactly on the minimal level of each enumerated class,
        from an empty memo (every answer walked) and from one warmed by ``class_list``."""
        W = group(family, rank)
        for direction in ("delta", "delta_inv"):
            pi = pi_of(build_twist(family, rank, order), direction)
            expected = {
                w: "minimal" if w.length == oracle_class_of(W, pi, w, direction).min_length
                else "not_minimal"
                for w in elements_of(W)
            }
            monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
            assert {w: closure_min_check(W, pi, w) for w in expected} == expected
            for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
                monkeypatch.setattr(conjugacy, memo, {})
            warmed = conjugacy._verdicts(W, pi)
            for cls in class_list(W, pi, direction):
                assert all(warmed[u.key] for u in cls.minimal)
            assert {w: closure_min_check(W, pi, w) for w in expected} == expected

    def test_budget_answer_is_not_kept(self, F4, monkeypatch):
        """A walk past the budget raises and keeps nothing; the next full walk answers."""
        monkeypatch.setattr(conjugacy, "_MINIMALITY_MEMO", {})
        pi = identity_pi(F4)
        w = F4.from_word([2, 3, 2, 4, 3, 2, 1, 2])
        budget = conjugacy.WALK_BUDGET
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 1)
        with pytest.raises(ClosureBudgetError):
            closure_min_check(F4, pi, w)
        assert conjugacy._verdicts(F4, pi) == {}
        monkeypatch.setattr(conjugacy, "WALK_BUDGET", budget)
        verdict = closure_min_check(F4, pi, w)
        assert verdict in ("minimal", "not_minimal")
        assert conjugacy._verdicts(F4, pi) == {w.key: verdict == "minimal"}

    def test_inner_representatives_need_no_walk(self, monkeypatch):
        """Once ``cuspidal_representatives`` has walked the levels of a standalone
        W_K, the oracle answers for its representatives without a walk."""
        for memo in ("_MINIMALITY_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        D4 = sub_context(group("E", 6), frozenset({2, 3, 4, 5})).group  # node 3 central
        pis = [{1: 1, 2: 2, 3: 3, 4: 4}, {1: 2, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 4, 3: 3, 4: 1}]
        reps = [(pi, v) for pi in pis for v in cuspidal_representatives(D4, pi)]
        assert any(v.length > supp_len(D4, pi, v) for pi, v in reps)  # no fast path
        walks = []
        real_walk = conjugacy._shift_walk
        monkeypatch.setattr(conjugacy, "_shift_walk",
                            lambda *args: walks.append(args) or real_walk(*args))
        assert all(closure_min_check(D4, pi, v) == "minimal" for pi, v in reps)
        assert walks == []


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
        with pytest.raises(Exception) as err:
            shift_closure(F4, pi, big)
        assert "budget" in str(err.value)


def cuspidal_words_by_enumeration(W, pi, direction="delta"):
    return [c.representative.word for c in enumerate_delta_classes(W, pi, direction) if c.cuspidal]


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
        W = group_of(cartan)
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
                groups.append((group_of(cartan), p, "delta"))
        checked = 0
        for W, pi, direction in groups:
            for cls in enumerate_delta_classes(W, pi, direction):
                if cls.cuspidal:
                    assert minimal_level(W, pi, cls.minimal[-1]) == list(cls.minimal)
                    checked += 1
        assert checked == 304

    def test_enumerates_nothing(self, monkeypatch):
        """With cold memos, E6 and 2E6 come out without listing any element:
        the package has no enumeration to call (``test_no_enumeration_in_the_package``)."""
        monkeypatch.setattr(conjugacy, "_CUSPIDAL_MEMO", {})
        monkeypatch.setattr(conjugacy, "_COMPONENT_SEEDS", {})
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
        monkeypatch.setattr(conjugacy, "_COMPONENT_SEEDS", {})
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


class TestClassOracle:
    """``class_list``, ``class_of`` and ``minimal_set`` against the enumerated partition."""

    @pytest.mark.parametrize("direction", ["delta", "delta_inv"])
    @pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5_6)
    def test_class_list_matches_enumeration(self, family, rank, order, direction):
        """Every twisted group of rank <= 6, both directions: the same classes in
        the same order, each with the same minimal list and cuspidal flag."""
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), direction)
        assert class_list(W, pi, direction) == enumerate_delta_classes(W, pi, direction)

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
                assert class_of(W, pi, w, direction) == oracle_class_of(W, pi, w, direction), (
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

    def test_minimal_set_rejects_non_minimal(self, A2):
        with pytest.raises(FalsificationError, match="not minimal"):
            minimal_set(A2, identity_pi(A2), A2.from_word([1, 2, 1]))

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

    def test_class_list_needs_seeds(self):
        """E7 has no cuspidal seeds yet, so its class list raises rather than guess."""
        with pytest.raises(ValueError, match="no cuspidal seeds for type E7"):
            class_list(group("E", 7), identity_pi(group("E", 7)))


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
