import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl import conjugacy
from weyldl.rootdata import build_root_system, candidate_types
from weyldl.subsystems import sub_context
from weyldl.weyl import WeylElt, WeylGroup, _build_tables, group_of, weyl_group

from conftest import RANK_LE_4, group
from multiply_oracles import (
    EnumerationBudgetError,
    elements_of,
    group_elements,
    inversions_of_inverse,
    perm_of_word,
    weyl_order,
)


def act(perm, signed):
    """Signed index of w(beta), for w of signed permutation ``perm`` and beta
    the root of signed index ``signed``."""
    return perm[signed - 1] if signed > 0 else -perm[-signed - 1]


def negative_entries(perm):
    """Root indices p with beta_p sent negative, in root order."""
    return [p for p, t in enumerate(perm) if t < 0]


class TestAction:
    def test_simple_reflection_negates_own_root(self, A2):
        s1 = A2.simple(1)
        assert A2.signed_to_coords(A2.act_on_simple(s1, 1)) == (-1, 0)

    def test_two_step_action(self, A2):
        w = A2.from_word([1, 2])
        assert A2.signed_to_coords(A2.act_on_simple(w, 2)) == (-1, -1)

    def test_f4_cartan_entry(self, F4):
        s2 = F4.simple(2)
        assert F4.signed_to_coords(F4.act_on_simple(s2, 3)) == (0, 1, 1, 0)

    def test_negative_root_input(self, A2):
        w = A2.from_word([1])
        assert A2.signed_to_coords(-A2.act_on_simple(w, 1)) == (1, 0)

    @pytest.mark.parametrize("family,rank", [t for r in range(1, 9) for t in candidate_types(r)])
    def test_coords_are_the_signed_root(self, family, rank):
        W = weyl_group(family, rank)
        for p, root in enumerate(W.roots, 1):
            assert W.signed_to_coords(p) == root
            assert W.signed_to_coords(-p) == tuple(-c for c in root)

    def test_coordinate_rows_are_built_on_demand(self):
        """A fresh E8 holds no coordinate row until one is asked for, then that one."""
        E8 = WeylGroup(build_root_system("E", 8))
        assert E8._coords == {}
        row = E8.signed_to_coords(-120)
        assert row == tuple(-c for c in E8.system.highest_root)
        assert E8._coords == {-120: row}


class TestInversions:
    """``invert_with_inversions`` against the reference walker of ``multiply_oracles``."""

    def test_identity(self, A2):
        assert A2.invert_with_inversions(A2.identity)[1] == []
        assert inversions_of_inverse(A2, A2.identity) == []

    def test_longest(self, A2):
        w0 = A2.longest_element([1, 2])
        inversions = A2.invert_with_inversions(w0)[1]
        assert len(inversions) == 3
        assert inversions == inversions_of_inverse(A2, w0)

    def test_a2_example(self, A2):
        w = A2.from_word([1, 2])
        inversions = A2.invert_with_inversions(w)[1]
        assert {A2.roots[p] for p in inversions} == {(0, 1), (1, 1)}
        assert inversions == inversions_of_inverse(A2, A2.invert(w))

    def test_length_equals_inversion_count(self, G2):
        for word_len in range(5):
            rng = random.Random(word_len)
            w = G2.from_word([rng.randint(1, 2) for _ in range(word_len)])
            inversions = G2.invert_with_inversions(G2.invert(w))[1]
            assert w.length == len(inversions)
            assert inversions == inversions_of_inverse(G2, w)


class TestWords:
    def test_canonical_word_round_trip_small(self, G2):
        for w in elements_of(G2):
            assert G2.from_word(w.word) == w

    @given(st.lists(st.integers(1, 4), max_size=14))
    @settings(max_examples=120, deadline=None)
    def test_canonical_round_trip_f4(self, word):
        W = group("F", 4)
        w = W.from_word(word)
        assert W.from_word(w.word) == w
        assert len(w.word) == w.length

    def test_lex_smallest(self, A2):
        # s1 s2 s1 = s2 s1 s2; canonical form must be the lex-smaller word.
        w = A2.from_word([2, 1, 2])
        assert w.word == (1, 2, 1)

    def test_support_reads_a_reduced_word_and_peels_any_other(self, A2, monkeypatch):
        # (1, 1, 2) spells s2 but is not reduced, so its letter 1 is not in the
        # support: the element keeps no word, and its key is peeled.
        peeled, real_peel = [], WeylGroup._peel
        monkeypatch.setattr(WeylGroup, "_peel",
                            lambda self, key: peeled.append(key) or real_peel(self, key))
        assert A2.support(A2.identity) == frozenset()
        peeled.clear()
        assert A2.support(A2.from_word((1, 1, 2))) == {2}
        assert A2.support(A2.from_word((2, 1))) == {1, 2}
        assert len(peeled) == 1

    @pytest.mark.parametrize("letter", [0, -1, 3, 7])
    def test_from_word_rejects_letters_out_of_range(self, A2, letter):
        with pytest.raises(ValueError, match="out of range"):
            A2.from_word([1, letter])


class TestGroupOps:
    def test_inverse_round_trip(self, B2):
        for w in elements_of(B2):
            assert B2.multiply(w, B2.invert(w)) == B2.identity
            assert B2.invert(w).length == w.length

    def test_inverse_word(self, A2):
        w = A2.from_word([1, 2])
        assert A2.invert(w).word == (2, 1)

    def test_action_homomorphism(self, G2):
        rng = random.Random(999)
        elems = elements_of(G2)
        for _ in range(50):
            a, b = rng.choice(elems), rng.choice(elems)
            ab = perm_of_word(G2, G2.multiply(a, b).word)
            pa, pb = perm_of_word(G2, a.word), perm_of_word(G2, b.word)
            for p in range(G2.nroots):
                assert ab[p] == act(pa, pb[p])


class TestLongestAndCosets:
    def test_longest_empty(self, A2):
        assert A2.longest_element([]) == A2.identity

    def test_longest_full_a2(self, A2):
        assert A2.longest_element([1, 2]).length == 3

    def test_longest_parabolic_e6(self):
        W = group("E", 6)
        w = W.longest_element({2, 3, 4, 5})
        assert w.length == 12  # D4 subdiagram
        inversions = W.invert_with_inversions(w)[1]
        assert inversions == inversions_of_inverse(W, W.invert(w))
        inv = {W.roots[p] for p in inversions}
        sub = {
            r
            for r in W.system.positive_roots
            if all(c == 0 for k, c in enumerate(r) if k + 1 not in {2, 3, 4, 5})
        }
        assert inv == sub

    def test_min_coset_rep(self, A2):
        assert A2.is_min_coset_rep(A2.identity, [1, 2])
        assert not A2.is_min_coset_rep(A2.simple(1), [1])

    def test_a_n_bracket_rep(self):
        # s_{[n,1]} is a minimal coset representative for J = I - {1},
        # which is the twisted image of I - {n} under the reversal.
        W = group("A", 4)
        w1 = W.from_word((4, 3, 2, 1))
        assert W.is_min_coset_rep(w1, {2, 3, 4})


class TestOrders:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4)],
    )
    def test_group_orders(self, family, rank):
        W = group(family, rank)
        assert len(group_elements(W)) == weyl_order(family, rank)


# Every irreducible type of rank <= 4.
TYPES_RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]


class TestGroupMemo:
    def test_one_group_per_type(self):
        assert weyl_group("F", 4) is weyl_group("F", 4)
        assert weyl_group("B", 3) is not weyl_group("C", 3)

    def test_parabolic_of_a_bourbaki_matrix_is_the_named_group(self):
        """A standard parabolic whose submatrix is a type's Bourbaki matrix is
        that type's group, with its name and its one reflection table."""
        assert sub_context(weyl_group("B", 3), {1, 2}).group is weyl_group("A", 2)
        B2 = sub_context(weyl_group("F", 4), {2, 3}).group
        assert B2 is weyl_group("B", 2)
        assert (B2.system.family, B2.system.rank) == ("B", 2)
        assert B2.reflection_table() is weyl_group("B", 2).reflection_table()

    def test_other_matrices_keep_a_cartan_label(self):
        """A reducible parabolic (A1 x A1) is labelled by its matrix and is one
        group for every ambient group that has it."""
        A1A1 = sub_context(weyl_group("A", 3), {1, 3}).group
        assert A1A1 is sub_context(weyl_group("C", 3), {1, 3}).group
        assert A1A1 is group_of(((2, 0), (0, 2)))
        assert A1A1.system.family == "cartan:2,0/0,2"

    @pytest.mark.parametrize("family,rank", TYPES_RANK_LE_4)
    def test_memo_group_equals_fresh_group(self, family, rank):
        """The memo's group has the root data and reflection tables of a fresh
        build, and of the tables built here directly from the fresh system."""
        W, fresh = weyl_group(family, rank), WeylGroup(build_root_system(family, rank))
        assert (W.system.family, W.system.rank) == (family, rank)
        assert W.system.cartan == fresh.system.cartan
        assert W.roots == fresh.roots
        tables = b"".join(W.reflection_table())
        assert tables == b"".join(fresh.reflection_table())
        assert tables == b"".join(_build_tables(fresh.system))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_reflection_table_matches_conjugated_simple_reflections(family, rank):
    """The table of key byte w(alpha_i), either sign, is the action of w s_i w^-1
    on signed root indices (shifted by N), for every w and i."""
    W = group(family, rank)
    table, n = W.reflection_table(), W.nroots
    for w in elements_of(W):
        for i in range(1, rank + 1):
            t = W.act_on_simple(w, i)
            reflection = W.multiply(W.multiply(w, W.simple(i)), W.invert(w))
            perm = perm_of_word(W, reflection.word)
            assert perm == perm_of_word(W, w.word + (i,) + w.word[::-1])
            for row in (table[n + t], table[n - t]):
                assert [row[n + p] - n for p in range(1, n + 1)] == list(perm)
                assert [row[n - p] - n for p in range(1, n + 1)] == [-x for x in perm]
                assert row[n] == n and row[2 * n + 1:] == bytes(range(2 * n + 1, 256))


@given(st.lists(st.integers(1, 3), max_size=10), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_length_changes_by_one_b3(word, i):
    W = group("B", 3)
    w = W.from_word(word)
    ws = W.multiply(w, W.simple(i))
    assert abs(ws.length - w.length) == 1


def test_length_changes_by_one_random_e8():
    W = group("E", 8)
    rng = random.Random(4242)
    for _ in range(40):
        w = W.from_word([rng.randint(1, 8) for _ in range(rng.randint(0, 30))])
        i = rng.randint(1, 8)
        assert abs(W.multiply(w, W.simple(i)).length - w.length) == 1


@pytest.mark.parametrize("family,rank", [("E", 8), ("B", 7), ("F", 4)])
def test_inversions_equal_negative_entries_of_composed_permutation(family, rank):
    """The inversions of w (of w^{-1}) that ``invert_with_inversions`` walks from w
    (from w^{-1}), and those of the reference walker, are the negative entries of
    the product of the simple reflections' permutations along the word (the
    reversed word), on random words; the length counts them."""
    W = group(family, rank)
    rng = random.Random(2024 + rank)
    for _ in range(60):
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 40))]
        w = W.from_word(word)
        winv, inversions = W.invert_with_inversions(w)
        assert inversions == negative_entries(perm_of_word(W, word)), (family, rank, word)
        assert inversions_of_inverse(W, winv) == inversions
        assert w.length == len(inversions)
        inverse_inversions = negative_entries(perm_of_word(W, word[::-1]))
        assert W.invert_with_inversions(winv)[1] == inverse_inversions
        assert inversions_of_inverse(W, w) == inverse_inversions


def test_inversions_of_inverse_exhaustive_rank2(A2, B2, G2):
    # inv(w^{-1}) = { -w(beta) : beta in inv(w) }, as the walk from w^{-1} reads it
    # and as the reference walker reads it off w.
    for W in (A2, B2, G2):
        for w in elements_of(W):
            perm = perm_of_word(W, w.word)
            inversions = W.invert_with_inversions(W.invert(w))[1]
            assert inversions == inversions_of_inverse(W, w)
            lhs = {W.roots[p] for p in inversions}
            rhs = {W.signed_to_coords(-perm[p]) for p in negative_entries(perm)}
            assert lhs == rhs


def _catalog_parabolics():
    """(row label, standalone group) for each distinct group of the inner node
    sets that the catalog's "lengths"/"all" rows partition."""
    from weyldl.casetables import place_row
    from weyldl.catalog import load_case_records, type_group
    from weyldl.subsystems import sub_context

    out = {}
    for rec in load_case_records():
        if rec.v_mode not in ("lengths", "all"):
            continue
        W, pi_inv = type_group(rec.family, rec.rank, rec.twist)
        placed = place_row(W, pi_inv, rec.J, rec.w1)
        if placed.K:
            sub = sub_context(W, placed.K)
            out[sub.system.key] = (rec.label, sub.group)
    return list(out.values())


def _negative_entries(W, w):
    return len(negative_entries(perm_of_word(W, w.word)))


def test_enumerated_lengths_count_negative_entries():
    """Every enumerated element's length (its BFS depth) is its count of negative
    entries: the 13 groups of rank <= 4 and the catalog's inner parabolics of at
    most 10^4 elements."""
    groups = [(f"{f}{r}", group(f, r)) for f, r in sorted({(f, r) for f, r, _ in RANK_LE_4})]
    parabolics = _catalog_parabolics()
    assert len(parabolics) >= 20
    checked = 0
    for label, W in groups + parabolics:
        try:
            group_elements(W, budget=10 ** 4)
        except EnumerationBudgetError:
            continue
        checked += 1
        for w in elements_of(W):
            assert w.length == _negative_entries(W, w), (label, w.word)
    assert checked >= len(groups) + 10


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_canonical_word_is_greedy_left_descent_word(family, rank):
    """The table-driven canonical word equals the greedy left-descent word
    computed with full products, and is reduced."""
    W = group(family, rank)
    for w in elements_of(W):
        word, cur = [], w
        while cur.length:
            i = next(i for i in range(1, rank + 1) if W.act_on_simple(W.invert(cur), i) < 0)
            word.append(i)
            cur = W.multiply(W.simple(i), cur)
        assert w.word == tuple(word)
        assert len(w.word) == w.length and W.from_word(w.word) == w


# The groups of the held-word tests: named types, and the standalone D4 of
# E6's nodes 2..5, whose labels put the branch node at 3.
HELD_WORD_GROUPS = ["A3", "B4", "D4", "F4", "G2", "E6", "E6 on 2..5"]


def _held_word_group(name):
    if name == "E6 on 2..5":
        return sub_context(group("E", 6), {2, 3, 4, 5}).group
    return group(name[0], int(name[1:]))


def _minimality_in_every_order(W, elements):
    """``closure_min_check`` of each element under the identity twist, from an
    empty minimality memo, once for each order of the elements."""
    pi = {i: i for i in W.system.nodes}
    saved, answers = conjugacy._MINIMALITY_MEMO, set()
    try:
        for order in permutations(elements):
            conjugacy._MINIMALITY_MEMO = {}
            answers |= {(x.key, conjugacy.closure_min_check(W, pi, x)) for x in order}
    finally:
        conjugacy._MINIMALITY_MEMO = saved
    return answers


def _check_held_word(W, word, other):
    """An element keeps the word it was built from exactly when the word is
    reduced, and reads the same as the bare element of its key everywhere."""
    word = tuple(word)
    w, u = W.from_word(word), W.from_word(other)
    # Reduced, by the oracle: the word's length counts the roots it sends negative.
    reduced = len(negative_entries(perm_of_word(W, word))) == len(word)
    assert w._reduced == (word if reduced else None)
    spelled = W.reduced_word(w)
    assert len(spelled) == w.length == len(negative_entries(perm_of_word(W, spelled)))
    assert perm_of_word(W, spelled) == perm_of_word(W, word)
    bare = WeylElt(W, w.key, w.length)
    for got, expected in [
        (W.invert(w), W.invert(bare)),
        (W.multiply(w, u), W.multiply(bare, u)),
        (W.multiply(u, w), W.multiply(u, bare)),
    ]:
        assert (got.key, got.length) == (expected.key, expected.length)
    assert W.support(w) == W.support(bare)
    # The same element from a reduced word, from a word that is not, and bare.
    held, unreduced = W.from_word(spelled), W.from_word((1, 1) + spelled)
    assert held._reduced == spelled and unreduced._reduced is None
    answers = _minimality_in_every_order(W, [held, unreduced, bare])
    assert len(answers) == 1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_an_element_keeps_the_reduced_word_it_was_built_from(data):
    W = _held_word_group(data.draw(st.sampled_from(HELD_WORD_GROUPS)))
    letters = st.integers(1, W.rank)
    _check_held_word(W, data.draw(st.lists(letters, max_size=16)),
                     data.draw(st.lists(letters, max_size=16)))


@pytest.mark.parametrize("family,rank,word", [("F", 4, (1, 2, 3, 4)), ("B", 3, (1, 2, 3))])
def test_a_coxeter_element_is_minimal_however_it_is_built(family, rank, word):
    """The Coxeter elements s1 s2 ... s_n of F4 and B3 are minimal in their
    classes, from a walk (F4) and from the signed cycle type (B3), whichever
    of their encodings is asked first."""
    W = group(family, rank)
    _check_held_word(W, word, (2, 1))
    x = W.from_word(word)
    assert _minimality_in_every_order(
        W, [x, W.from_word((1, 2, 2, 1) + word), WeylElt(W, x.key, x.length)]
    ) == {(x.key, "minimal")}
