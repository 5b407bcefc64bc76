import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weyldl import conjugacy, lifting
from weyldl.casetables import CaseRecord, RowPlacement, case_records
from weyldl.conjugacy import class_list, class_of, cuspidal_representatives, pi_of
from weyldl.criterion import (
    FORM_FORWARD,
    Certificate,
    build_forward_system,
    certify_min_element,
    check_certificate,
    feasible,
    minimal_q,
)
from weyldl.exactnum import QuadExt, SQRT2, qext
from weyldl.lifting import (
    ConstructionError,
    EngineCert,
    combine_cyclic_factors,
    combine_orthogonal_factors,
    constructive_certificate,
    extend_via_parabolic_step,
    lift_to_full,
    spade_witness,
)
from weyldl.rootdata import Coweight, build_twist
from weyldl.subsystems import sub_context
from weyldl.weyl import WeylGroup

from conftest import RANK_5_6, RANK_LE_4, group
from multiply_oracles import build_composite_system, enumerate_delta_classes, make_twist


def idpi(W):
    return {i: i for i in range(1, W.rank + 1)}


def cuspidal_inner(W, pi_K, K, q):
    """Witness of the first cuspidal pi_K-class of W_K, found in the
    standalone group of K and embedded on K in W."""
    from weyldl.lifting import _engine

    sub = sub_context(W, K)
    pi_sub = sub.pi_to_sub(pi_K)
    cert = _engine(sub.group, pi_sub, q, cuspidal_representatives(sub.group, pi_sub)[0])
    mu = {sub.to_ambient[i]: m for i, m in cert.mu.items()}
    return EngineCert(sub.element_to_ambient(cert.w), mu, frozenset(K), q)


class TestLift:
    def test_a2_worked_example(self, A2):
        # Inner witness on the parabolic {1}: w = s1, mu = omega_1 at q = 2;
        # the lifted scale is 2*1/1 + 1 = 3 and every row stays strict.
        pi = idpi(A2)
        inner = EngineCert(A2.simple(1), {1: qext(1)}, frozenset({1}), qext(2))
        lifted = lift_to_full(A2, pi, inner)
        assert lifted.mu[1] == 1 and lifted.mu[2] == 3
        assert lifted.w == A2.simple(1)

    def test_identity_lift(self, A2):
        pi = idpi(A2)
        inner = EngineCert(
            A2.from_word([1, 2]), {1: qext(1), 2: qext(1)}, frozenset({1, 2}), qext(2)
        )
        assert lift_to_full(A2, pi, inner) == inner

    def test_quadratic_scale(self, B2):
        # Rank-1 inner at q = sqrt2: the lift scale lands in Q(sqrt2).
        pi = idpi(B2)
        inner = EngineCert(B2.simple(1), {1: qext(1)}, frozenset({1}), SQRT2)
        lifted = lift_to_full(B2, pi, inner)
        # m = n0 / (sqrt2 - 1) + 1 = 3 (sqrt2 + 1) + 1
        assert lifted.mu[2] == QuadExt(4, 3, 2)

    def test_lift_from_empty_support(self, B2):
        twist = build_twist("B", 2, 2)
        pi = pi_of(twist)
        inner = EngineCert(B2.identity, {}, frozenset(), SQRT2)
        lifted = lift_to_full(B2, pi, inner)
        assert lifted.mu[1] == 1 and lifted.mu[2] == 1

    def test_preserves_inner_coordinates(self, F4):
        pi = idpi(F4)
        inner_nodes = frozenset({1, 2})
        w = F4.from_word([1, 2])  # a Coxeter element of W_{1,2}
        inner = EngineCert(w, {1: qext(5), 2: qext(3)}, inner_nodes, qext(2))
        lifted = lift_to_full(F4, pi, inner)
        assert lifted.mu[1] == 5 and lifted.mu[2] == 3
        assert lifted.w == w


class TestOrthogonal:
    def test_two_a1_factors(self):
        comp = WeylGroup(build_composite_system([("A", 1), ("A", 1)]))
        pi = idpi(comp)
        q = qext(2)
        a = EngineCert(comp.simple(1), {1: qext(1)}, frozenset({1}), q)
        b = EngineCert(comp.simple(2), {2: qext(1)}, frozenset({2}), q)
        combined = combine_orthogonal_factors(comp, pi, [a, b])
        assert combined.w == comp.from_word([1, 2])
        assert combined.mu == {1: qext(1), 2: qext(1)}

    def test_mixed_types(self):
        comp = WeylGroup(build_composite_system([("B", 2), ("A", 2)]))
        pi = idpi(comp)
        q = qext(2)
        # Longest elements of both factors are elliptic there; each factor's
        # witness comes from its standalone group.
        def factor(nodes):
            sub = sub_context(comp, nodes)
            w = comp.longest_element(nodes)
            G = sub.group
            mu = feasible(build_forward_system(G, sub.element_to_sub(w), idpi(G), q))
            return EngineCert(w, {sub.to_ambient[i]: mu[i] for i in G.system.nodes},
                              frozenset(nodes), q)

        a, b = factor({1, 2}), factor({3, 4})
        combined = combine_orthogonal_factors(comp, pi, [a, b])
        assert combined.nodes == frozenset({1, 2, 3, 4})

    def test_overlap_rejected(self, A2):
        pi = idpi(A2)
        a = EngineCert(A2.simple(1), {1: qext(1)}, frozenset({1}), qext(2))
        with pytest.raises(ValueError):
            combine_orthogonal_factors(A2, pi, [a, a])

    def test_partial_cover_rejected(self, A2):
        # A node no factor covers reads zero, and its q-row fails validation.
        pi = idpi(A2)
        a = EngineCert(A2.simple(1), {1: qext(1)}, frozenset({1}), qext(2))
        with pytest.raises(ConstructionError):
            combine_orthogonal_factors(A2, pi, [a])


class TestCyclic:
    def test_swapped_a1_pair(self):
        comp = WeylGroup(build_composite_system([("A", 1), ("A", 1)]))
        twist = make_twist(comp.system, (2, 1))
        pi = pi_of(twist)
        q = qext(2)
        # Inner: the nontrivial class of the first A1 under the squared
        # twist (plain conjugacy) at q^2 = 4.
        inner = EngineCert(comp.simple(1), {1: qext(1)}, frozenset({1}), qext(4))
        out = combine_cyclic_factors(comp, pi, inner, q)
        assert out.w == comp.simple(1)
        assert out.nodes == frozenset({1, 2})

    def test_three_cycle_identity_class(self):
        comp = WeylGroup(build_composite_system([("A", 1), ("A", 1), ("A", 1)]))
        twist = make_twist(comp.system, (2, 3, 1))
        pi = pi_of(twist)
        inner = EngineCert(comp.identity, {1: qext(1)}, frozenset({1}), qext(8))
        out = combine_cyclic_factors(comp, pi, inner, qext(2))
        assert all(out.mu[i].sign() > 0 for i in (1, 2, 3))

    def test_wrong_inner_q_rejected(self):
        comp = WeylGroup(build_composite_system([("A", 1), ("A", 1)]))
        twist = make_twist(comp.system, (2, 1))
        inner = EngineCert(comp.simple(1), {1: qext(1)}, frozenset({1}), qext(2))
        with pytest.raises(ValueError):
            combine_cyclic_factors(comp, pi_of(twist), inner, qext(2))

    def test_zero_inner_coordinate_rejected(self):
        # The damping needs the sign of every inner coordinate, so a zero one
        # is refused, not repaired.
        comp = WeylGroup(build_composite_system([("A", 1), ("A", 1)]))
        twist = make_twist(comp.system, (2, 1))
        inner = EngineCert(comp.simple(1), {1: qext(0)}, frozenset({1}), qext(4))
        with pytest.raises(ValueError):
            combine_cyclic_factors(comp, pi_of(twist), inner, qext(2))


class TestExtension:
    def test_3d4_middle_case(self, D4):
        # K = {1,2}; inner twisted pair on K; the free scales (2, 1).
        twist = build_twist("D", 4, 3)
        tau = pi_of(twist, "delta_inv")
        w1 = D4.from_word([3, 2, 1])
        from weyldl.conjugacy import ad_pi_on, compute_I_J_x, inverse_pi

        K = compute_I_J_x(D4, tau, {1, 2, 3}, w1)
        sigma = ad_pi_on(D4, tau, w1, K)
        pi_K = inverse_pi(sigma)
        inner = cuspidal_inner(D4, pi_K, K, qext(2))
        out = extend_via_parabolic_step(
            D4, tau, frozenset({1, 2, 3}), w1,
            {3: qext(2), 4: qext(1)}, inner, qext(2),
        )
        assert out.nodes == frozenset({1, 2, 3, 4})

    def test_empty_k(self, G2):
        # K empty: the witness is the scaled star point alone.
        tau = idpi(G2)
        w1 = G2.from_word([1, 2, 1, 2])
        out = extend_via_parabolic_step(
            G2, tau, frozenset({1}), w1, {1: qext(2), 2: qext(1)}, None, qext(2),
        )
        assert out.w == G2.invert(w1)
        assert out.dominant()

    def test_star_witness_must_be_positive(self, G2):
        tau = idpi(G2)
        w1 = G2.from_word([1, 2, 1, 2])
        with pytest.raises(ValueError):
            extend_via_parabolic_step(
                G2, tau, frozenset({1}), w1, {1: qext(2), 2: qext(-1)}, None, qext(2),
            )

    def test_2a4_middle(self):
        W = group("A", 4)
        twist = build_twist("A", 4, 2)
        tau = pi_of(twist, "delta_inv")
        w1 = W.from_word([3, 2, 1])
        from weyldl.conjugacy import ad_pi_on, compute_I_J_x, inverse_pi

        K = compute_I_J_x(W, tau, {1, 2, 3}, w1)
        assert K == frozenset({2})
        inner = cuspidal_inner(W, inverse_pi(ad_pi_on(W, tau, w1, K)), K, qext(2))
        out = extend_via_parabolic_step(
            W, tau, frozenset({1, 2, 3}), w1,
            {1: qext(2), 3: qext(2), 4: qext(1)}, inner, qext(2),
        )
        assert out.nodes == frozenset(range(1, 5))


class TestSpadeRecipe:
    def test_f4_case3_composition(self, F4):
        twist = build_twist("F", 4, 1)
        tau = pi_of(twist, "delta_inv")
        w1 = F4.from_word((2, 3, 2, 4, 3, 2, 1))
        from weyldl.conjugacy import ad_pi_on, compute_I_J_x, inverse_pi

        K = compute_I_J_x(F4, tau, {2, 3, 4}, w1)
        assert K == frozenset({3, 4})
        inner = cuspidal_inner(F4, inverse_pi(ad_pi_on(F4, tau, w1, K)), K, qext(2))
        out = spade_witness(F4, tau, w1, ((1, -1, 1), (2, 1, 2)), inner, qext(2))
        # The pattern m2 >> -m1 >> max(m3, m4) with m1 negative.
        assert out.mu[1].sign() < 0
        assert out.mu[2] > -out.mu[1] > max(out.mu[3], out.mu[4])


class TestDualPathAgreement:
    @pytest.mark.parametrize(
        "family,rank,order",
        [("A", 2, 2), ("B", 2, 2), ("G", 2, 2), ("D", 4, 3), ("A", 3, 1)],
    )
    def test_both_paths_accepted(self, family, rank, order):
        from weyldl.criterion import certify_min_element

        W = group(family, rank)
        twist = build_twist(family, rank, order)
        q = minimal_q(family, order)
        for cls in class_list(W, pi_of(twist)):
            lp_cert = certify_min_element(W, twist, cls, q)
            red_cert = constructive_certificate(W, twist, cls, q)
            assert check_certificate(lp_cert)
            assert check_certificate(red_cert)
            # Both certify an element of the same minimal length.
            assert len(red_cert.w) == cls.min_length



def test_inner_cuspidal_matches_enumeration(monkeypatch):
    """Every (K, sigma) that the constructive route places, over every class
    of every twisted group of rank <= 6, gets the cuspidal representatives of
    the enumerated partition of the standalone W_K, word for word."""
    placed = {}
    inner_cuspidal = RowPlacement.inner_cuspidal

    def recording(self):
        if self.K:
            sub = sub_context(self.W, self.K)
            pi = sub.pi_to_sub(self.sigma)
            placed[(sub.system.key, tuple(sorted(pi.items())))] = (sub.group, pi)
        return inner_cuspidal(self)

    monkeypatch.setattr(RowPlacement, "inner_cuspidal", recording)
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    for family, rank, order in RANK_LE_4 + RANK_5_6:
        W = group(family, rank)
        twist = build_twist(family, rank, order)
        for cls in class_list(W, pi_of(twist)):
            constructive_certificate(W, twist, cls, minimal_q(family, order))
    assert placed
    for G, pi in placed.values():
        expected = [c.representative.word for c in enumerate_delta_classes(G, pi) if c.cuspidal]
        assert [v.word for v in cuspidal_representatives(G, pi)] == expected

def refuse_enumeration(monkeypatch):
    """Cold engine and class-list memos; the package has no enumeration to refuse
    (``test_no_enumeration_in_the_package``)."""
    monkeypatch.setattr(conjugacy, "_CLASS_MEMO", {})
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})


def test_constructive_route_enumerates_nothing(monkeypatch):
    """With the classes of every twisted group of rank <= 6 in hand, the
    constructive route certifies each of them without listing the classes of
    any group: not even of the parabolics it certifies on the way."""
    todo = []
    for family, rank, order in RANK_LE_4 + RANK_5_6:
        W, twist = group(family, rank), build_twist(family, rank, order)
        todo += [(W, twist, cls, minimal_q(family, order))
                 for cls in class_list(W, pi_of(twist))]
    refuse_enumeration(monkeypatch)
    for W, twist, cls, q in todo:
        assert check_certificate(constructive_certificate(W, twist, cls, q))
    assert len(todo) == 588
    assert conjugacy._CLASS_MEMO == {}


@pytest.mark.parametrize("rank", [7, 8])
def test_coxeter_class_without_partition(monkeypatch, rank):
    """The engine certifies the Coxeter class of E7 and of E8 from the Coxeter
    element alone, and the checker accepts the certificate."""
    from weyldl.lifting import _engine

    refuse_enumeration(monkeypatch)
    W, q = group("E", rank), minimal_q("E", 1)
    cert = _engine(W, pi_of(build_twist("E", rank, 1)), q, W.from_word(range(1, rank + 1)))
    assert len(cert.w.word) == rank
    assert check_certificate(Certificate(
        family="E", rank=rank, twist=1, direction="delta", q=q, w=cert.w.word,
        form=FORM_FORWARD, mu=Coweight(tuple(cert.mu[i] for i in range(1, rank + 1))),
    ))


def classes_of(groups):
    """(W, twist, class, q) for every class of each twisted group."""
    for family, rank, order in groups:
        W, twist = group(family, rank), build_twist(family, rank, order)
        q = minimal_q(family, order)
        for cls in class_list(W, pi_of(twist)):
            yield W, twist, cls, q


def count_constructions(monkeypatch):
    """Empty the engine memo and record every construction from now on."""
    runs = []
    cold = lifting._engine_cold

    def counting(W, pi, q, x):
        runs.append((W.system.key, tuple(sorted(pi.items())), qext(q), x.key))
        return cold(W, pi, q, x)

    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    monkeypatch.setattr(lifting, "_engine_cold", counting)
    return runs


def test_memo_hits_match_cold_runs(monkeypatch):
    """Certifying every class of rank <= 6 from one shared memo gives, byte for
    byte, the certificates of runs that each start from an empty memo; the
    shared memo builds fewer sub-problems than those runs together."""
    todo = list(classes_of(RANK_LE_4 + RANK_5_6))
    runs = count_constructions(monkeypatch)
    warm = [constructive_certificate(*item).to_json() for item in todo]
    shared = len(runs)
    cold = []
    for item in todo:
        lifting._ENGINE_MEMO.clear()
        cold.append(constructive_certificate(*item).to_json())
    assert len(todo) == 588
    assert cold == warm
    assert len(runs) - shared > shared


def test_cold_certify_pass_builds_each_entry_once(monkeypatch):
    """From an empty memo, certifying the 180 classes of rank <= 4 constructs
    each memo entry exactly once, and the route looks up more sub-problems than
    it constructs."""
    todo = list(classes_of(RANK_LE_4))
    runs = count_constructions(monkeypatch)
    lookups = []
    engine = lifting._engine

    def looking_up(W, pi, q, x):
        lookups.append(x)
        return engine(W, pi, q, x)

    monkeypatch.setattr(lifting, "_engine", looking_up)
    for item in todo:
        assert check_certificate(constructive_certificate(*item))
    assert len(todo) == 180
    assert sorted(runs) == sorted(lifting._ENGINE_MEMO)
    assert len(set(runs)) == len(runs)
    assert len(lookups) > len(runs)


def test_memo_key_separates_q_powers_and_directions(monkeypatch):
    """A2xA2 under a twist of order 4: the cyclic branch certifies the first
    A2 under the squared twist at q^2, which the memo keeps apart from the same
    class at q; and the two twist directions, which share their class
    representatives but not their witnesses, get separate entries."""
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    W = WeylGroup(build_composite_system([("A", 2), ("A", 2)]))
    pi, q = {1: 3, 2: 4, 3: 2, 4: 1}, qext(2)
    certs = {}
    for p in (pi, {v: k for k, v in pi.items()}):
        for x in cuspidal_representatives(W, p):
            cert = lifting._engine(W, p, q, x)
            assert not build_forward_system(W, cert.w, p, q).violated(cert.mu)
            certs.setdefault(x.key, []).append(cert)
    assert all(len(pair) == 2 and pair[0].mu != pair[1].mu for pair in certs.values())

    sub = sub_context(W, {1, 2})
    pi_sub = sub.pi_to_sub(conjugacy.power_pi(pi, 2))
    for x in cuspidal_representatives(sub.group, pi_sub):
        key = (sub.system.key, tuple(sorted(pi_sub.items())), q ** 2, x.key)
        assert lifting._ENGINE_MEMO[key].q == q ** 2
        cert = lifting._engine(sub.group, pi_sub, q, x)
        assert cert.q == q and key[:2] + (q,) + key[3:] in lifting._ENGINE_MEMO
        assert not build_forward_system(sub.group, cert.w, pi_sub, q).violated(cert.mu)
        assert lifting._ENGINE_MEMO[key].q == q ** 2


def test_failed_construction_is_not_stored(monkeypatch):
    """A construction that raises stores nothing, raises again on the next
    call, and succeeds once its input is restored."""
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    W = group("A", 2)
    pi, q, x = idpi(W), qext(2), W.from_word((1, 2))
    monkeypatch.setattr(lifting, "case_records", lambda *args: [])
    for _ in range(2):
        with pytest.raises(conjugacy.FalsificationError, match="no catalog rows"):
            lifting._engine(W, pi, q, x)
        assert lifting._ENGINE_MEMO == {}
    monkeypatch.undo()
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    cert = lifting._engine(W, pi, q, x)
    assert not build_forward_system(W, cert.w, pi, q).violated(cert.mu)
    assert len(lifting._ENGINE_MEMO) == 1


def test_failing_stated_witness_is_an_error(monkeypatch):
    """The leaf extends through the row's stated witness and solves nothing in
    its place: with G2 case 2 stating m = (1, 1), its row q m_1 - m_1 - m_2 has
    slack 0 at q = 2, and the class of (2, 1, 2, 1) fails to construct."""
    rows = case_records("G", 2, 1)
    case2 = rows[1]
    assert case2.label == "G2 case 2"
    fields = {name: getattr(case2, name) for name in CaseRecord.__slots__}
    bad = CaseRecord(**{**fields, "m_values": {1: Fraction(1), 2: Fraction(1)}})
    monkeypatch.setattr(lifting, "case_records", lambda *key: [rows[0], bad, *rows[2:]])
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    W, twist = group("G", 2), build_twist("G", 2, 1)
    cls = class_of(W, pi_of(twist), W.from_word((2, 1, 2, 1)))
    with pytest.raises(ConstructionError, match="star witness fails"):
        constructive_certificate(W, twist, cls, qext(2))


def test_witness_coordinates_are_read_only():
    """A witness keeps its own copy of the coordinates and refuses writes, so
    one the memo shares cannot be changed by a caller."""
    W = group("A", 2)
    mu = {1: qext(1), 2: qext(2)}
    cert = EngineCert(W.identity, mu, frozenset({1, 2}), qext(2))
    mu[1] = qext(5)
    assert cert.mu == {1: qext(1), 2: qext(2)}
    with pytest.raises(TypeError):
        cert.mu[1] = qext(0)


def test_witness_equality_and_frozen():
    """Witnesses compare by their fields and refuse assignment, as the frozen dataclass did."""
    W = group("A", 2)
    cert = EngineCert(W.identity, {1: qext(1), 2: qext(2)}, frozenset({1, 2}), qext(2))
    assert cert == EngineCert(W.identity, {2: qext(2), 1: qext(1)}, frozenset({1, 2}), qext(2))
    assert cert != EngineCert(W.identity, {1: qext(1), 2: qext(3)}, frozenset({1, 2}), qext(2))
    assert cert != EngineCert(W.simple(1), cert.mu, cert.nodes, cert.q)
    with pytest.raises(AttributeError):
        cert.mu = {}
    with pytest.raises(AttributeError):
        cert.q = qext(3)
    assert cert.mu == {1: qext(1), 2: qext(2)} and cert.q == 2
    with pytest.raises(TypeError):  # its coordinates are a mapping
        hash(cert)


SRC = str(Path(__file__).resolve().parent.parent / "src")

# Certifies every class of A3 by the constructive route, then prints the
# types of the named groups built in the process.
_A3_PROGRAM = """
from weyldl import weyl
from weyldl.conjugacy import class_list, pi_of
from weyldl.criterion import check_certificate, minimal_q
from weyldl.lifting import constructive_certificate
from weyldl.rootdata import build_twist

W = weyl.weyl_group("A", 3)
twist = build_twist("A", 3, 1)
for cls in class_list(W, pi_of(twist)):
    assert check_certificate(constructive_certificate(W, twist, cls, minimal_q("A", 1)))
print(" ".join(f"{f}{n}" for f, n in sorted(weyl._GROUPS)))
"""


def test_both_routes_refuse_out_of_range_input():
    """Input outside the theorem's range raises ValueError in both routes before
    any work, never a falsification: the A9 Coxeter class (beyond the catalog
    and the checker), and every class of G2 at q = 1, where the constructive
    route divided by q - 1 or found no witness."""
    A9 = group("A", 9)
    twist = build_twist("A", 9, 1)
    coxeter = class_of(A9, pi_of(twist), A9.from_word(range(1, 10)))
    with pytest.raises(ValueError, match=r"^rank must be in 1\.\.8$"):
        constructive_certificate(A9, twist, coxeter, qext(2))
    G2 = group("G", 2)
    twist = build_twist("G", 2, 1)
    classes = class_list(G2, pi_of(twist))
    assert len(classes) == 6
    for cls in classes:
        for route in (constructive_certificate, certify_min_element):
            with pytest.raises(ValueError, match="^q below the minimal value for G2 twist 1$"):
                route(G2, twist, cls, qext(1))


def test_constructive_route_builds_only_its_own_type():
    """Certifying A3 by the constructive route reads only the catalog rows of
    the types it meets, so it builds no group of another family (the catalog's
    E6, E7, E8, F4 and G2 rows each build their group).  Run in a fresh
    interpreter: the group memo is process-global."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _A3_PROGRAM], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    built = out.stdout.split()
    assert "A3" in built
    assert all(name.startswith("A") for name in built), built
