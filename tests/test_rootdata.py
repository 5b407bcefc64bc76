import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multiply_oracles import (
    build_composite_system,
    group_elements,
    make_twist,
    reflect,
    weyl_order,
)
from weyldl.rootdata import (
    InvalidCartanTypeError,
    RootSystem,
    build_root_system,
    build_twist,
    cartan_matrix,
    identity_twist,
    positive_root_count,
)
from weyldl import subsystems
from weyldl.subsystems import identify_standard, sub_context
from weyldl.weyl import WeylGroup, weyl_group

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_counts(family, rank):
    system = build_root_system(family, rank)
    assert len(system.positive_roots) == positive_root_count(family, rank)


def test_specific_systems():
    a2 = build_root_system("A", 2)
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert a2.n0 == 2

    g2 = build_root_system("G", 2)
    assert g2.highest_root == (3, 2)
    assert g2.n0 == 5

    e8 = build_root_system("E", 8)
    assert len(e8.positive_roots) == 120
    assert e8.n0 == 29

    f4 = build_root_system("F", 4)
    assert f4.highest_root == (2, 3, 4, 2)
    assert f4.n0 == 11

    b2 = build_root_system("B", 2)
    assert b2.highest_root == (1, 2)


def test_invalid_types():
    with pytest.raises(InvalidCartanTypeError):
        build_root_system("E", 5)
    with pytest.raises(InvalidCartanTypeError):
        build_root_system("G", 3)
    with pytest.raises(InvalidCartanTypeError):
        build_root_system("B", 1)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_simple_reflection_permutes_other_positives(family, rank):
    system = build_root_system(family, rank)
    roots = set(system.positive_roots)
    for i in range(1, rank + 1):
        alpha_i = system.simple_root(i)
        images = set()
        for r in system.positive_roots:
            img = reflect(system.cartan, i, r)
            if r == alpha_i:
                assert img == tuple(-c for c in alpha_i)
            else:
                assert img in roots
                images.add(img)
        assert images == roots - {alpha_i}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_highest_root_dominates(family, rank):
    system = build_root_system(family, rank)
    hi = system.highest_root
    for r in system.positive_roots:
        assert all(h >= c for h, c in zip(hi, r))


class TestTwists:
    def test_triality(self):
        t = build_twist("D", 4, 3)
        assert (t(1), t(2), t(3), t(4)) == (4, 2, 1, 3)
        # delta^{-1}(1) = 3, delta^{-1}(3) = 4, delta^{-1}(4) = 1
        assert t.inverse_perm == (3, 2, 4, 1)
        assert t.order == 3

    def test_e6(self):
        t = build_twist("E", 6, 2)
        assert t(1) == 6 and t(6) == 1 and t(3) == 5 and t(5) == 3
        assert t(2) == 2 and t(4) == 4

    def test_f4_folding(self):
        t = build_twist("F", 4, 2)
        assert t.perm == (4, 3, 2, 1)

    def test_a_n_reversal(self):
        t = build_twist("A", 5, 2)
        assert t.perm == (5, 4, 3, 2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_twist("A", 1, 2)
        with pytest.raises(ValueError):
            build_twist("B", 3, 2)
        with pytest.raises(ValueError):
            build_twist("D", 5, 3)

    @pytest.mark.parametrize(
        "family,rank,order",
        [("A", n, 2) for n in range(2, 9)]
        + [("D", n, 2) for n in range(4, 9)]
        + [("D", 4, 3), ("E", 6, 2), ("B", 2, 2), ("G", 2, 2), ("F", 4, 2)],
    )
    def test_cartan_compatibility(self, family, rank, order):
        system = build_root_system(family, rank)
        t = build_twist(family, rank, order)
        c = system.cartan
        # Nontrivial twists satisfy the reversed compatibility; the
        # simply-laced ones satisfy the direct one as well.
        assert all(
            c[t(i) - 1][t(j) - 1] == c[j - 1][i - 1]
            for i in range(1, rank + 1)
            for j in range(1, rank + 1)
        )
        assert t.order == order

    def test_order_minimality(self):
        for family, rank, order in [("A", 4, 2), ("D", 4, 3), ("E", 6, 2)]:
            t = build_twist(family, rank, order)
            perm = t.perm
            cur = perm
            for _ in range(order - 1):
                assert cur != tuple(range(1, rank + 1))
                cur = tuple(perm[i - 1] for i in cur)
            assert cur == tuple(range(1, rank + 1))


COMPOSITES = ([("A", 1), ("A", 1)], [("B", 2), ("A", 2)])


def test_composite_system():
    comp = build_composite_system(COMPOSITES[0])
    assert len(comp.positive_roots) == 2
    assert comp.rank == 2
    mixed = build_composite_system(COMPOSITES[1])
    assert len(mixed.positive_roots) == 4 + 3
    assert mixed.cartan[0][2] == 0


def test_b_vs_c_cartan_orientation():
    b = cartan_matrix("B", 3)
    c = cartan_matrix("C", 3)
    assert b[2][1] == -2 and b[1][2] == -1
    assert c[2][1] == -1 and c[1][2] == -2


@pytest.mark.parametrize("family", "ABCDEFG")
def test_closed_forms_raise_exactly_where_cartan_matrix_does(family):
    """Over ranks 0..9, the closed forms reject a type iff ``cartan_matrix`` does,
    with its message, and otherwise match the built system (and, for groups of at
    most 10^4 elements, the enumerated order)."""
    for rank in range(10):
        try:
            cartan_matrix(family, rank)
        except InvalidCartanTypeError as exc:
            for closed_form in (positive_root_count, weyl_order):
                with pytest.raises(InvalidCartanTypeError) as caught:
                    closed_form(family, rank)
                assert str(caught.value) == str(exc)
            continue
        system = build_root_system(family, rank)
        assert positive_root_count(family, rank) == len(system.positive_roots)
        if weyl_order(family, rank) <= 10 ** 4:
            assert weyl_order(family, rank) == len(group_elements(WeylGroup(system)))


def _reference_closure(cartan):
    """The positive roots by closing the simple roots under ``reflect``, in
    (height, coordinates) order, and the signed 1-based index of s_i beta for
    every node i and root beta, each image found by its coordinates."""
    n = len(cartan)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(1, n + 1):
                img = reflect(cartan, i, r)
                if img not in roots and all(c >= 0 for c in img):
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = sorted(roots, key=lambda r: (sum(r), r))
    index = {r: q for q, r in enumerate(roots, 1)}
    index.update({tuple(-c for c in r): -q for r, q in list(index.items())})
    columns = tuple(
        tuple(index[reflect(cartan, i, r)] for r in roots) for i in range(1, n + 1)
    )
    return tuple(roots), columns


def _assert_closure_matches_reference(system):
    roots, columns = _reference_closure(system.cartan)
    assert system.positive_roots == roots
    assert system.simple_reflections == columns
    assert system.highest_root == roots[-1]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_closure_matches_reflect_reference(family, rank):
    """The closure by pairings lists the roots of ``reflect``'s closure in the
    same order, and its simple reflections are ``reflect``'s, root by root."""
    _assert_closure_matches_reference(build_root_system(family, rank))


@pytest.mark.parametrize("parts", COMPOSITES, ids=str)
def test_composite_closure_matches_reflect_reference(parts):
    _assert_closure_matches_reference(build_composite_system(parts))


@pytest.mark.parametrize("family,rank", [("E", 8), ("F", 4)])
def test_parabolic_closures_match_reflect_reference(family, rank):
    """Every node subset of E8 and F4, as the standalone system of its Cartan
    submatrix: the reducible ones included."""
    W = weyl_group(family, rank)
    for k in range(1, rank + 1):
        for nodes in itertools.combinations(range(1, rank + 1), k):
            _assert_closure_matches_reference(sub_context(W, nodes).system)


# Replays the default catalog, counting the closures by Cartan matrix, then
# prints the number of matrices closed and the most closures of one matrix.
_CATALOG_PROGRAM = """
from collections import Counter
from weyldl import rootdata
from weyldl.casetables import verify_all

closed = Counter()
close = rootdata._close_positive_roots

def counting(cartan):
    closed[cartan] += 1
    return close(cartan)

rootdata._close_positive_roots = counting
assert verify_all().cases
print(len(closed), max(closed.values()))
"""


def test_catalog_replay_closes_each_cartan_matrix_once():
    """A catalog replay from cold memos closes each Cartan matrix once: the
    named groups and the standalone parabolics with the same matrix share one
    closure.  Run in a fresh interpreter: the memos are process-global."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CATALOG_PROGRAM], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    matrices, most = map(int, out.stdout.split())
    assert matrices > 1
    assert most == 1


class TestRecords:
    """The hand-written record classes keep the semantics of the frozen dataclasses they replace."""

    def test_root_system_equality_ignores_reflections(self):
        b3 = build_root_system("B", 3)
        bare = RootSystem(b3.family, b3.rank, b3.cartan, b3.positive_roots, b3.highest_root,
                          b3.n0, simple_reflections=())
        assert bare == b3 and hash(bare) == hash(b3)
        assert b3 != build_root_system("C", 3)
        assert b3 != RootSystem(b3.family, b3.rank, b3.cartan, b3.positive_roots,
                                b3.highest_root, b3.n0 + 1, b3.simple_reflections)
        assert b3 != (b3.family, b3.rank)

    def test_root_system_nodes_are_stored_once(self):
        """``nodes`` is 1..rank, one tuple read back on every read, and out of
        equality, hashing and repr, which the leading six fields make."""
        b3 = build_root_system("B", 3)
        assert b3.nodes == (1, 2, 3) and b3.nodes is b3.nodes
        assert "nodes" not in repr(b3) and "simple_reflections" not in repr(b3)
        assert hash(b3) == hash(b3._fields()) and len(b3._fields()) == 6

    def test_twist_equality_and_hash(self):
        reversal = build_twist("A", 3, 2)
        same = make_twist(build_root_system("A", 3), (3, 2, 1))
        assert reversal == same and hash(reversal) == hash(same)
        assert reversal != identity_twist(3)

    @pytest.mark.parametrize("make, field", [
        (lambda: build_root_system("A", 2), "rank"),
        (lambda: build_twist("D", 4, 3), "perm"),
    ])
    def test_frozen(self, make, field):
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == before


def relabelled(cartan):
    """The Cartan matrix with its nodes in reverse order."""
    return tuple(row[::-1] for row in cartan[::-1])


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_identify_e_searches_no_d_labelling(rank, monkeypatch):
    """E_n and D_n share their sorted Cartan rows, but not the arm lengths of
    their branch node, so naming a relabelled E_n (its nodes reversed, so
    that the identity labelling does not answer at once) searches no
    labelling of D_n (``cartan_isos``); a relabelled D_n is still named D_n."""
    targets = []
    real_isos = subsystems.cartan_isos
    monkeypatch.setattr(subsystems, "cartan_isos",
                        lambda source, target: targets.append(target) or real_isos(source, target))
    identity = {i: i for i in range(1, rank + 1)}
    assert identify_standard(relabelled(cartan_matrix("E", rank)), identity)[:3] == ("E", rank, 1)
    assert targets == [cartan_matrix("E", rank)]
    assert identify_standard(relabelled(cartan_matrix("D", rank)), identity)[:3] == ("D", rank, 1)
