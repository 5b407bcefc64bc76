import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl.casetables import place_row
from weyldl.conjugacy import class_list, class_of, pi_of
from weyldl.criterion import (
    FORM_FORWARD,
    FORM_INVERSE,
    Certificate,
    CertificateError,
    CheckResult,
    admissible_q,
    build_forward_system,
    build_inverse_system,
    build_star_system,
    certify_min_element,
    check_certificate,
    feasible,
    minimal_q,
    parse_q_literal,
)
from weyldl.exactnum import SQRT2, SQRT3, ZERO, IncompatibleRadicandError, QuadExt, qext
from weyldl.rootdata import build_root_system, build_twist
from weyldl import checker, criterion, lifting, weyl

from conftest import RANK_LE_4, group
from fraction_quadext import FractionQuadExt, certificate_json
from lp_oracle import labels_of, rows_of
from multiply_oracles import elements_of, inversions_of_inverse, perm_of_word, weyl_order


def idpi(W):
    return {i: i for i in range(1, W.rank + 1)}


def step_star(W, J, w1, pi, q):
    """The star system of the step (J, w1): built on its K = I(J, w1, pi)."""
    return build_star_system(W, place_row(W, pi, J, w1.word).K, w1, pi, q)


class TestForwardSystem:
    def test_identity_element(self, A2):
        system = build_forward_system(A2, A2.identity, idpi(A2), qext(2))
        point = {1: qext(1), 2: qext(1)}
        assert system.violated(point) == []
        assert labels_of(system) == ("q-row i=1", "q-row i=2")
        assert rows_of(system) == ((qext(1), qext(0)), (qext(0), qext(1)))

    def test_g2_fourth_power_row(self, G2):
        # One q-row of (s2 s1)^2 collapses to q m1 - m1 - m2 at any q.
        w = G2.from_word([2, 1, 2, 1])
        system = build_forward_system(G2, w, idpi(G2), qext(2))
        assert rows_of(system)[0] == (qext(1), qext(-1))  # q=2: 2m1 - m1 - m2
        assert labels_of(system)[0] == "q-row i=1"
        assert system.violated({1: qext(2), 2: qext(1)}) == []
        assert system.violated({1: qext(1), 2: qext(1)}) == [("q-row i=1", 0)]
        assert system.violated({1: qext(1), 2: qext(2)}) == [("q-row i=1", -1)]

    def test_a2_longest(self, A2):
        w0 = A2.longest_element([1, 2])
        system = build_forward_system(A2, w0, idpi(A2), qext(2))
        assert [lbl.split()[0] for lbl in labels_of(system)] == ["q-row"] * 2 + ["inversion"] * 3
        mu = feasible(system)
        assert mu is not None


def _recording_builds(monkeypatch) -> list:
    """Cold forward-system and engine memos, and every ``build_forward_system`` call of
    both routes recorded as (element key, returned system)."""
    monkeypatch.setattr(criterion, "_FORWARD_MEMO", {})
    monkeypatch.setattr(lifting, "_ENGINE_MEMO", {})
    monkeypatch.setattr(lifting, "_ROW_MEMO", {})
    calls = []

    def recording(W, w, pi, q):
        system = build_forward_system(W, w, pi, q)
        calls.append((w.key, system))
        return system

    monkeypatch.setattr(criterion, "build_forward_system", recording)
    monkeypatch.setattr(lifting, "build_forward_system", recording)
    return calls


class TestForwardMemo:
    def test_routes_read_one_system(self, monkeypatch):
        """On B3's Coxeter class both routes certify w = s1 s2 s3, and every build of
        its forward system, the simplex's and the constructive ``_validate``'s, returns
        the one object, which is what the memo holds for (W, w, pi, q)."""
        calls = _recording_builds(monkeypatch)
        W, twist = group("B", 3), build_twist("B", 3, 1)
        pi, q = pi_of(twist), minimal_q("B", 1)
        w = W.from_word((1, 2, 3))
        cls = class_of(W, pi, w)
        solver = certify_min_element(W, twist, cls, q)
        by_solver = sum(key == w.key for key, _ in calls)
        constructive = lifting.constructive_certificate(W, twist, cls, q)
        assert solver.w == constructive.w == w.word
        systems = [system for key, system in calls if key == w.key]
        assert 0 < by_solver < len(systems) and all(system is systems[0] for system in systems)
        assert build_forward_system(W, w, pi, q) is systems[0]
        assert len(criterion._FORWARD_MEMO) == len({id(system) for _, system in calls})

    def test_groups_of_one_cartan_matrix_share_entries(self, monkeypatch):
        """A second ``WeylGroup`` of the same Cartan matrix hits the memo."""
        monkeypatch.setattr(criterion, "_FORWARD_MEMO", {})
        W = group("F", 4)
        other = weyl.WeylGroup(build_root_system("F", 4))
        assert other is not W
        pi, w = idpi(W), W.from_word((1, 2, 3, 4, 3, 2))
        system = build_forward_system(W, w, pi, SQRT2)
        assert build_forward_system(other, other.from_word(w.word), pi, SQRT2) is system
        assert len(criterion._FORWARD_MEMO) == 1

    def test_pi_off_the_nodes_stores_nothing(self, monkeypatch):
        """A pi that does not stabilize the nodes raises ValueError and stores nothing."""
        monkeypatch.setattr(criterion, "_FORWARD_MEMO", {})
        W = group("B", 3)
        with pytest.raises(ValueError, match="does not stabilize"):
            build_forward_system(W, W.from_word((1, 2, 3)), {1: 1, 2: 1, 3: 3}, qext(2))
        assert criterion._FORWARD_MEMO == {}

    def test_w3_builds_220_systems_in_387_calls(self, monkeypatch):
        """Both routes over the 180 classes of rank <= 4, from cold memos, call
        ``build_forward_system`` 387 times and keep 220 systems."""
        calls = _recording_builds(monkeypatch)
        for family, rank, order in RANK_LE_4:
            W, twist = group(family, rank), build_twist(family, rank, order)
            q = minimal_q(family, order)
            for cls in class_list(W, pi_of(twist)):
                certify_min_element(W, twist, cls, q)
                lifting.constructive_certificate(W, twist, cls, q)
        assert len(calls) == 387
        assert len(criterion._FORWARD_MEMO) == len({id(system) for _, system in calls}) == 220


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4), ("F", 4)])
def test_forward_rows_from_one_walk(family, rank, monkeypatch):
    """For every element w, the forward system's rows are those built from ``W.invert(w)``
    and the inversions of w that the reference walker reads off it: one walk gives both.
    The inverse system, whose walk starts from w^{-1}, reads the inversions of w^{-1}."""
    monkeypatch.setattr(criterion, "_FORWARD_MEMO", {})
    W = group(family, rank)
    pi, nodes, q = idpi(W), W.system.nodes, qext(2)
    for w in elements_of(W):
        winv = W.invert(w)
        oracle = criterion._system(
            W, nodes, q, [(i, pi[i], W.act_on_simple(winv, i)) for i in nodes],
            [(W.roots[p], p + 1) for p in inversions_of_inverse(W, winv)])
        system = build_forward_system(W, w, pi, q)
        assert (system.coeffs, system.qcols, system.subjects) == \
            (oracle.coeffs, oracle.qcols, oracle.subjects), w.word
        inverse = build_inverse_system(W, w, pi, q)
        assert list(inverse.subjects[len(nodes):]) == \
            [W.roots[p] for p in inversions_of_inverse(W, w)], w.word
    assert len(criterion._FORWARD_MEMO) == weyl_order(family, rank)


RANK_LE_3 = [("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("B", 2, 1), ("B", 2, 2), ("G", 2, 1),
             ("G", 2, 2), ("A", 3, 1), ("A", 3, 2), ("B", 3, 1), ("C", 3, 1)]


class TestTransferIdentity:
    @pytest.mark.parametrize("family,rank,order", RANK_LE_3)
    def test_exhaustive_small_rank(self, family, rank, order):
        W = group(family, rank)
        twist = build_twist(family, rank, order)
        q = minimal_q(family, order)
        fwd_pi = pi_of(twist, "delta")
        inv_pi = pi_of(twist, "delta_inv")
        for w in elements_of(W):
            a = build_inverse_system(W, w, inv_pi, q)
            b = build_forward_system(W, W.invert(w), fwd_pi, q)
            # The same rows, in another order: q-rows re-index by i -> delta(i).
            assert sorted(rows_of(a)) == sorted(rows_of(b))


def _expected(q, varset, q_rows, pure_rows):
    """Rows and labels from scratch: (i, u, root coords) is q*m_u - <root, m>."""
    rows, labels = [], []
    for i, u, root in q_rows:
        rows.append(tuple(qext(q) * (1 if j == u else 0) - root[j - 1] for j in varset))
        labels.append(f"q-row i={i}")
    for label, root in pure_rows:
        rows.append(tuple(qext(root[j - 1]) for j in varset))
        labels.append(label)
    return tuple(rows), tuple(labels)


def _image(W, word, i):
    """Coordinates of w(alpha_i), w given by a word, from the composed permutation."""
    simple = tuple(int(j == i) for j in range(1, W.rank + 1))
    return W.signed_to_coords(perm_of_word(W, word)[W.roots.index(simple)])


def _inversion_rows(W, word):
    perm = perm_of_word(W, word)
    return [(f"inversion {W.roots[p]}", W.roots[p]) for p, t in enumerate(perm) if t < 0]


class TestBuilderRows:
    """Each builder's rows, in order, against a construction from permutations."""

    @pytest.mark.parametrize("family,rank,order", RANK_LE_3)
    def test_forward_and_inverse(self, family, rank, order):
        W = group(family, rank)
        twist = build_twist(family, rank, order)
        q = minimal_q(family, order)
        nodes = tuple(range(1, rank + 1))
        for direction in ("delta", "delta_inv"):
            pi = pi_of(twist, direction)
            for w in elements_of(W):
                word, inv_word = w.word, tuple(reversed(w.word))
                fwd = build_forward_system(W, w, pi, q)
                assert fwd.varset == nodes
                assert (rows_of(fwd), labels_of(fwd)) == _expected(
                    q, nodes,
                    [(i, pi[i], _image(W, inv_word, i)) for i in nodes],
                    _inversion_rows(W, word),
                )
                inv = build_inverse_system(W, w, pi, q)
                assert (rows_of(inv), labels_of(inv)) == _expected(
                    q, nodes,
                    [(i, i, _image(W, word, pi[i])) for i in nodes],
                    _inversion_rows(W, inv_word),
                )

    @pytest.mark.parametrize("family,rank,order", RANK_LE_3)
    def test_star(self, family, rank, order):
        W = group(family, rank)
        pi = pi_of(build_twist(family, rank, order), "delta_inv")
        q = minimal_q(family, order)
        nodes = tuple(range(1, rank + 1))
        J = frozenset(nodes[1:])
        checked = 0
        for w1 in elements_of(W):
            placed = place_row(W, pi, J, w1.word)
            if placed is None:
                continue
            K = placed.K
            star = build_star_system(W, K, w1, pi, q)
            free = tuple(i for i in nodes if i not in K)
            unit = {i: tuple(int(j == i) for j in nodes) for i in nodes}
            assert star.varset == free
            assert (rows_of(star), labels_of(star)) == _expected(
                q, free,
                [(i, i, _image(W, w1.word, pi[i])) for i in free],
                [(f"positivity m_{i}", unit[i]) for i in free],
            )
            checked += 1
        assert checked > 1


class TestStarSystem:
    def test_a_n_chain(self):
        # Type A reduction: rows reduce to q m_i - m_{i-1} for i != 1.
        W = group("A", 4)
        pi = idpi(W)
        w1 = W.from_word((4, 3, 2, 1))
        system = step_star(W, frozenset({2, 3, 4}), w1, pi, qext(2))
        ones = {i: qext(1) for i in range(1, 5)}
        assert system.violated(ones) == []

    def test_3d4_case(self, D4):
        pi = pi_of(build_twist("D", 4, 3), "delta_inv")
        w1 = D4.from_word([2, 1])
        system = step_star(D4, frozenset({1, 2, 3}), w1, pi, qext(2))
        assert system.violated({1: qext(3), 2: qext(2), 3: qext(2), 4: qext(1)}) == []

    def test_f4_case3_infeasible_at_two(self, F4):
        pi = idpi(F4)
        w1 = F4.from_word((2, 3, 2, 4, 3, 2, 1))
        system = step_star(F4, frozenset({2, 3, 4}), w1, pi, qext(2))
        assert feasible(system) is None
        # ... but feasible at q = 4.
        system4 = step_star(F4, frozenset({2, 3, 4}), w1, pi, qext(4))
        assert feasible(system4) is not None

    def test_empty_system(self, A2):
        # J = {} on the identity: no K, positivity rows only.
        system = step_star(A2, frozenset(), A2.identity, idpi(A2), qext(2))
        mu = feasible(system)
        assert mu is not None


class TestRecords:
    """IneqSystem and CheckResult keep the semantics of the frozen dataclasses they replace."""

    def test_ineq_system_equality_hash_and_frozen(self, A2):
        w = A2.from_word((1, 2))
        system = build_forward_system(A2, w, idpi(A2), qext(2))
        again = build_forward_system(A2, w, idpi(A2), qext(2))
        assert system == again and hash(system) == hash(again)
        assert system != build_forward_system(A2, w, idpi(A2), qext(3))
        assert system != build_inverse_system(A2, w, idpi(A2), qext(2))
        with pytest.raises(AttributeError):
            system.coeffs = ()
        assert system == again

    def test_check_result_defaults_equality_hash_and_frozen(self):
        result = CheckResult(False)
        assert (result.accepted, result.reason, result.rows_checked) == (False, "", 0)
        assert result == CheckResult(accepted=False, reason="", rows_checked=0)
        assert hash(result) == hash(CheckResult(False, "", 0))
        assert result != CheckResult(False, "q must be positive")
        assert CheckResult(True, "", 3) != CheckResult(True, "", 4)
        assert result != False  # noqa: E712 -- a record, not a bool
        assert not result and CheckResult(True)
        with pytest.raises(AttributeError):
            result.accepted = True
        assert not result


def oracle_evaluate(system, point):
    """The slacks as left folds of exact products over the folded rows: the
    evaluation the one-pass integer slacks replaced."""
    vec = [point.get(i, ZERO) for i in system.varset]
    return [sum((x * y for x, y in zip(row, vec)), ZERO) for row in rows_of(system)]


def oracle_violated(system, point):
    return [(label, s.sign()) for label, s in zip(labels_of(system), oracle_evaluate(system, point))
            if s.sign() <= 0]


def _outcome(fn):
    try:
        return ("value", fn())
    except IncompatibleRadicandError:
        return ("raise", IncompatibleRadicandError)


def _random_coordinate(rng, kind):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if kind == "zero":
        return qext(0)
    if kind == "rational":
        return qext(a)
    return QuadExt(a, Fraction(rng.randint(-4, 4), rng.randint(1, 4)), int(kind[-1]))


class TestEvaluationOracle:
    """``evaluate`` and ``violated`` against left folds over the folded ``rows``."""

    QS = ["2", "5/3", "sqrt2", "3/2*sqrt2", "sqrt3"]
    KINDS = ("rational", "sqrt2", "sqrt3", "zero")

    def systems(self, q):
        out = []
        for family, rank, order in (("B", 3, 1), ("G", 2, 2), ("A", 4, 2), ("F", 4, 1)):
            W = group(family, rank)
            twist = build_twist(family, rank, order)
            for direction in ("delta", "delta_inv"):
                pi = pi_of(twist, direction)
                for cls in class_list(W, pi)[:6]:
                    w = cls.minimal[-1]
                    out.append(build_forward_system(W, w, pi, q))
                    out.append(build_inverse_system(W, w, pi, q))
                    K = frozenset(range(2, rank + 1)) if cls.cuspidal else frozenset()
                    out.append(build_star_system(W, K, w, pi, q))
        return out

    @pytest.mark.parametrize("q", QS)
    def test_matches_dot_over_rows(self, q):
        """Equal slacks and violations on random points of rational, sqrt 2,
        sqrt 3 and zero coordinates; where the oracle raises, the same error.
        A point that mixes sqrt 2 and sqrt 3 with each other or with q always
        raises, also in the rare systems where no row of the oracle met both."""
        q = parse_q_literal(q)
        # Seeded from the wire form of format 1, so the points stay those of before.
        wire = FractionQuadExt(q.a, q.b, q.d).to_json_v1()
        rng = random.Random(wire["b"] + wire["a"])
        compared = raised = 0
        for system in self.systems(q):
            for _ in range(6):
                kinds = rng.choice([self.KINDS, ("rational", "zero"), ("sqrt2", "zero"),
                                    ("sqrt3", "rational", "zero")])
                point = {i: _random_coordinate(rng, rng.choice(kinds)) for i in system.varset}
                expected = _outcome(lambda: oracle_evaluate(system, point))
                got = _outcome(lambda: system.evaluate(point))
                one_field = len({x.d for x in (q, *point.values())} - {1}) <= 1
                if expected[0] == "raise" or not one_field:
                    assert got == ("raise", IncompatibleRadicandError), (system, point)
                    assert _outcome(lambda: system.violated(point)) == got
                    raised += 1
                    continue
                assert got == expected, (system, point)
                assert system.violated(point) == oracle_violated(system, point)
                compared += 1
        assert compared > 100 and raised > 10

    def test_point_off_the_variables_reads_zero(self, B2):
        system = build_star_system(B2, frozenset({1}), B2.simple(1), idpi(B2), qext(2))
        assert system.evaluate({}) == oracle_evaluate(system, {}) == [qext(0)] * 2
        assert system.violated({}) == [("q-row i=2", 0), ("positivity m_2", 0)]


class TestFeasibleOracle:
    def test_suzuki_point_accepted(self, B2):
        pi = pi_of(build_twist("B", 2, 2), "delta_inv")
        w1 = B2.simple(1)
        system = step_star(B2, frozenset({1}), w1, pi, SQRT2)
        assert system.violated({1: qext(3), 2: qext(1)}) == []
        assert feasible(system) is not None

    def test_homogeneity(self, G2):
        w = G2.from_word([2, 1, 2, 1])
        system = build_forward_system(G2, w, idpi(G2), qext(2))
        mu = feasible(system)
        point = dict(zip(system.varset, mu))
        scaled = {i: m * Fraction(7, 3) for i, m in zip(system.varset, mu)}
        assert system.violated(point) == [] and system.violated(scaled) == []


class TestCertificates:
    def cert(self, W, word, mu, q=2, family="G", rank=2, twist=1):
        return Certificate(
            family=family, rank=rank, twist=twist, direction="delta",
            q=qext(q), w=word, form=FORM_FORWARD, mu=tuple(map(qext, mu)),
        )

    def test_round_trip_bit_exact(self, G2):
        cert = self.cert(G2, (2, 1, 2, 1), [2, 1])
        text = cert.to_json()
        again = Certificate.from_json(text)
        assert again == cert
        assert again.to_json() == text

    def test_round_trip_over_quadratic_fields(self, G2):
        for q, mu in ((SQRT2, [SQRT2 + 1, qext(Fraction(-3, 4))]),
                      (qext(Fraction(7, 3)), [SQRT3 * Fraction(2, 9), qext(0)])):
            cert = self.cert(G2, (1, 2), mu, q=q)
            assert Certificate.from_json(cert.to_json()) == cert

    def test_equality_hash_and_frozen(self, G2):
        cert = self.cert(G2, (2, 1, 2, 1), [2, 1])
        same = self.cert(G2, (2, 1, 2, 1), [2, 1])
        assert cert == same and hash(cert) == hash(same)
        assert cert != self.cert(G2, (2, 1, 2, 1), [2, 1], q=3)
        assert cert != self.cert(G2, (2, 1, 2, 1), [1, 2])
        assert cert != cert.to_json_dict()
        with pytest.raises(AttributeError):
            cert.q = qext(3)
        with pytest.raises(AttributeError):
            del cert.mu
        assert cert == same

    def test_accept(self, G2):
        assert check_certificate(self.cert(G2, (2, 1, 2, 1), [2, 1]))

    def test_reject_bad_point(self, G2):
        result = check_certificate(self.cert(G2, (2, 1, 2, 1), [1, 2]))
        assert not result and result.reason == "violated: q-row i=1 (slack negative)"
        assert result.rows_checked == 6

    @pytest.mark.parametrize("mu", [[0, 0], [1, 1]])
    def test_reject_zero_slack(self, G2, mu):
        # The first q-row is q m1 - m1 - m2 at q = 2: zero at both points.
        result = check_certificate(self.cert(G2, (2, 1, 2, 1), mu))
        assert not result and result.reason == "violated: q-row i=1 (slack zero)"
        assert result.rows_checked == 6

    def test_reject_malformed(self):
        with pytest.raises(CertificateError):
            Certificate.from_json("not json at all")
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps({"format_version": 1}))

    def test_reject_wrong_rank(self, G2):
        cert = self.cert(G2, (1, 2), [1, 2, 3])
        assert not check_certificate(cert)

    def test_reject_bad_word(self, G2):
        cert = self.cert(G2, (1, 5), [1, 1])
        assert not check_certificate(cert)

    def test_reject_mixed_radicands(self, G2):
        cert = Certificate(
            family="G", rank=2, twist=1, direction="delta", q=SQRT2,
            w=(1, 2), form=FORM_FORWARD,
            mu=(SQRT3, qext(1)),
        )
        assert not check_certificate(cert)

    def test_inverse_form_paper_point(self, F4):
        # The pinned exact witness for the deepest twisted F4 spade row.
        cert = Certificate(
            family="F", rank=4, twist=2, direction="delta_inv", q=SQRT2,
            w=tuple(F4.from_word((3, 2, 1, 2, 3, 2, 4, 3, 2, 1)).word),
            form=FORM_INVERSE,
            mu=tuple(map(qext, [3, 1, 3, -3])),
        )
        assert check_certificate(cert)
        flipped = Certificate(
            family="F", rank=4, twist=2, direction="delta_inv", q=SQRT2,
            w=cert.w, form=FORM_INVERSE, mu=tuple(map(qext, [3, 1, 3, 3])),
        )
        assert not check_certificate(flipped)


def _set_coord(index, value):
    def mutate(obj):
        obj["mu"][index] = value
    return mutate


def _set_group(**fields):
    def mutate(obj):
        obj["group"].update(fields)
    return mutate


def _set_word(word):
    def mutate(obj):
        obj["w"] = word
    return mutate


def _set_mu(mu):
    def mutate(obj):
        obj["mu"] = mu
    return mutate


def _set_version(value):
    def mutate(obj):
        obj["format_version"] = value
    return mutate


def _unprintable_slack(obj):
    # m1 - m2 = (1 - 10^4000 * 3^3000) / 3^3000: each coordinate parses,
    # but the violated first row's slack has more digits than str() allows.
    obj["mu"] = [f"1/{3 ** 3000}", f"1{'0' * 4000}"]


def _mixed_radicands(obj):
    # q = 2 is rational and each coordinate alone adds to it; together they
    # put sqrt(2) and sqrt(3) into one slack.
    obj["mu"] = [["2", "1", 2], ["1", "1", 3]]


# (id, mutation of a valid certificate, expected reject-reason prefix;
# None means Certificate.from_json must raise CertificateError).
HOSTILE = [
    # Equal to the version 1 in Python, but not the int 1.
    ("bool_format_version", _set_version(True), None),
    ("float_format_version", _set_version(1.0), None),
    ("scientific_notation", _set_coord(0, "-1e5000"), None),
    ("zero_denominator", _set_coord(0, "1/0"), None),
    ("bool_radicand", _set_coord(0, ["2", "1", True]), None),
    ("float_radicand", _set_coord(0, ["2", "1", 2.0]), None),
    ("unicode_digits", _set_coord(0, "\u0662"), None),
    ("too_many_digits", _set_coord(0, f"-{'9' * 5000}"), None),
    ("unprintable_slack", _unprintable_slack, "violated: q-row i=1"),
    ("rank_zero", _set_group(rank=0), "rank must be in 1..8"),
    ("huge_rank", _set_group(rank=10 ** 9), "rank must be in 1..8"),
    ("string_rank", _set_group(rank="2"), None),
    ("bool_rank", _set_group(rank=True), None),
    ("float_twist", _set_group(twist=1.5), None),
    ("infinite_rank", _set_group(rank=float("inf")), None),
    ("float_letters", _set_word([1.9, 2.5]), None),
    ("string_letter", _set_word([2, "1"]), None),
    ("bool_letter", _set_word([2, True]), None),
    ("word_too_long", _set_word([2, 1] * 10 ** 5), "word longer than the longest element"),
    # Iterable, but no JSON array: read as sequences, "" and {} would be empty.
    ("string_word", _set_word(""), None),
    ("object_word", _set_word({}), None),
    ("string_mu", _set_mu(""), None),
    ("object_mu", _set_mu({}), None),
    ("unknown_family", _set_group(family="Z"), "bad group descriptor"),
    ("mixed_radicands", _mixed_radicands,
     "incompatible exact numbers: cannot combine sqrt(2) with sqrt(3)"),
    ("mixed_radicands_sqrt3_first", lambda obj: (_mixed_radicands(obj), obj["mu"].reverse()),
     "incompatible exact numbers: cannot combine sqrt(2) with sqrt(3)"),
]


@pytest.mark.parametrize("mutate, reason", [h[1:] for h in HOSTILE], ids=[h[0] for h in HOSTILE])
def test_hostile_certificate_rejected_without_crash(mutate, reason):
    """Hostile input ends as a CertificateError or a reject, never another exception."""
    obj = TestCertificates().cert(None, (2, 1, 2, 1), [2, 1]).to_json_dict()
    mutate(obj)
    text = json.dumps(obj)
    if reason is None:
        with pytest.raises(CertificateError):
            Certificate.from_json(text)
    else:
        result = check_certificate(Certificate.from_json(text))
        assert not result and result.reason.startswith(reason)


# Arbitrary JSON values, and the places in a valid certificate they may replace.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.sampled_from(["1/2", "-3/1", "0/1", "5", "G", "E", "delta_inv", FORM_INVERSE])
    | st.builds(list, st.sampled_from([("1/2", "-1", 2), ("0", "3", 3)])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_PATHS = [
    ("format_version",), ("group",), ("group", "family"), ("group", "rank"),
    ("group", "twist"), ("direction",), ("q",), ("q", 0), ("q", 2), ("w",),
    ("w", 0), ("form",), ("mu",), ("mu", 0), ("mu", 0, 1), ("mu", 0, 2),
    ("mu", 1, 0), ("mu", 1, 2),
]


def _memo_keys():
    """The keys of the group memos and of the checker's descriptor memo."""
    return set(weyl._GROUPS), set(weyl._BY_CARTAN), set(checker._DESCRIPTORS)


@pytest.mark.parametrize("hostile_id", ["unknown_family", "rank_zero", "huge_rank"])
def test_bad_group_descriptor_leaves_group_memo_unchanged(hostile_id):
    """A rejected group descriptor builds no group and adds no memo key."""
    mutate, reason = next(h[1:] for h in HOSTILE if h[0] == hostile_id)
    obj = TestCertificates().cert(None, (2, 1, 2, 1), [2, 1]).to_json_dict()
    mutate(obj)
    before = _memo_keys()
    result = check_certificate(Certificate.from_json(json.dumps(obj)))
    assert not result and result.reason.startswith(reason)
    assert _memo_keys() == before


@pytest.mark.parametrize("family, rank", [("G", 2.0), ("A", True)])
def test_rank_that_is_not_an_int_is_rejected(family, rank):
    """A rank equal to a valid int but of another type is rejected before
    any memo, whose key (family, 2.0) would be the key of (family, 2)."""
    cert = TestCertificates().cert(None, (1,), [1] * int(rank), family=family, rank=rank)
    before = _memo_keys()
    result = check_certificate(cert)
    assert not result and result.reason == "rank must be in 1..8"
    assert _memo_keys() == before


@pytest.mark.parametrize("field, value, reason", [
    ("w", (1.0, 2), "word letter is not an int in 1..2"),
    ("w", (2, True), "word letter is not an int in 1..2"),
    ("mu", (qext(2), "1"), "q and mu must be exact numbers: expected int or Fraction, got str"),
    ("q", 2.0, "q and mu must be exact numbers: expected int or Fraction, got float"),
    ("q", True, "q and mu must be exact numbers: expected int or Fraction, got bool"),
    ("mu", (qext(2), True), "q and mu must be exact numbers: expected int or Fraction, got bool"),
    ("mu", (True, True), "q and mu must be exact numbers: expected int or Fraction, got bool"),
], ids=["float_letter", "bool_letter", "string_coordinate", "float_q", "bool_q",
        "bool_coordinate", "bool_mu"])
def test_hand_built_field_of_the_wrong_type_is_rejected(field, value, reason):
    """A hand-built certificate, which no parser has seen, with a letter that is
    not an int or a number that is not exact, is rejected with a reason.  A bool
    is an int to Python, but q = True is no exact number."""
    values = {name: getattr(TestCertificates().cert(None, (2, 1, 2, 1), [2, 1]), name)
              for name in Certificate.__slots__}
    result = check_certificate(Certificate(**{**values, field: value}))
    assert not result and result.reason == reason


def _assert_accepts_or_rejects(text):
    """An accept, a reject or a CertificateError; a parsed certificate gets the result of
    the same fields built in process, and both write ``json.dumps``'s text of the wire
    object that ``certificate_json`` writes out."""
    try:
        cert = Certificate.from_json(text)
    except CertificateError:
        return
    result = check_certificate(cert)
    assert isinstance(result, CheckResult)
    twin = Certificate(*(getattr(cert, name) for name in Certificate.__slots__))
    assert check_certificate(twin) == result
    assert cert.to_json() == twin.to_json() == json.dumps(certificate_json(cert),
                                                          separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PATHS), _JSON), min_size=1, max_size=3))
def test_fuzzed_certificate_fields(edits):
    """A valid certificate with fields replaced by arbitrary JSON never crashes the checker
    or the writer, and reads as the same fields built in process."""
    obj = TestCertificates().cert(None, (2, 1, 2, 1), [2, 1]).to_json_dict()
    for path, value in edits:
        holder = obj
        try:
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed this place
    _assert_accepts_or_rejects(json.dumps(obj))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40) | _JSON.map(json.dumps))
def test_fuzzed_certificate_text(text):
    """Arbitrary text or JSON ends as an accept, a reject or a CertificateError."""
    _assert_accepts_or_rejects(text)


class TestCertify:
    def test_identity_class(self, A2):
        pi = pi_of(build_twist("A", 2, 1))
        classes = class_list(A2, pi)
        cert = certify_min_element(A2, build_twist("A", 2, 1), classes[0], qext(2))
        assert cert.w == ()
        assert check_certificate(cert)

    def test_suzuki_class(self, B2):
        twist = build_twist("B", 2, 2)
        pi = pi_of(twist)
        classes = class_list(B2, pi)
        target = next(c for c in classes if c.representative == B2.simple(1))
        cert = certify_min_element(B2, twist, target, SQRT2)
        assert check_certificate(cert)
        # The printed witness must satisfy the same rebuilt system.
        manual = Certificate(
            family="B", rank=2, twist=2, direction="delta", q=SQRT2,
            w=(1,), form=FORM_FORWARD, mu=(qext(3), qext(1)),
        )
        assert check_certificate(manual)

    def test_below_minimal_q(self, G2):
        twist = build_twist("G", 2, 2)
        classes = class_list(G2, pi_of(twist))
        with pytest.raises(ValueError):
            certify_min_element(G2, twist, classes[0], qext(1))

    def test_q_over_another_square_root(self, B2, G2):
        """The minimum is compared through squares, so a q over another square
        root is refused only below it: sqrt 3 certifies 2B2 (minimum sqrt 2),
        and sqrt 2 is below the minimum sqrt 3 of 2G2."""
        twist = build_twist("B", 2, 2)
        target = class_of(B2, pi_of(twist), B2.simple(1))
        assert check_certificate(certify_min_element(B2, twist, target, SQRT3))
        twist = build_twist("G", 2, 2)
        target = class_of(G2, pi_of(twist), G2.simple(1))
        with pytest.raises(ValueError, match="^q below the minimal value for G2 twist 2$"):
            certify_min_element(G2, twist, target, SQRT2)

    @pytest.mark.parametrize("family, twist", [("A", 1), ("B", 2), ("G", 2)])
    def test_admissible_q_is_the_exact_square_comparison(self, family, twist):
        """``admissible_q`` accepts exactly the q > 0 with q^2 >= minimal_q^2, as
        ``QuadExt`` arithmetic decides it, over rational and quadratic q on both
        sides of each minimum (2, sqrt 2, sqrt 3)."""
        low = minimal_q(family, twist)
        values = [qext(x) for x in (2, 1, 0, -2, 3, Fraction(3, 2), Fraction(7, 4),
                                     Fraction(17, 12), Fraction(-9, 4))]
        for d in (2, 3):
            root = QuadExt(0, 1, d)
            values += [root, -root, root * Fraction(3, 2), root * Fraction(7, 10), root + 1,
                       1 - root, root - Fraction(1, 4), 2 - root * Fraction(1, 8)]
        for q in values:
            expected = q.sign() > 0 and q * q >= low * low
            try:
                accepted = admissible_q(family, 3, twist, q) == q
            except ValueError:
                accepted = False
            assert accepted == expected, (family, twist, q)

    def test_rank_beyond_the_checker(self):
        """A rank the checker cannot read is refused before solving, not reported
        as a checker rejection of the solver's point."""
        A9 = group("A", 9)
        twist = build_twist("A", 9, 1)
        target = class_of(A9, pi_of(twist), A9.from_word(range(1, 10)))
        with pytest.raises(ValueError, match=r"^rank must be in 1\.\.8$"):
            certify_min_element(A9, twist, target, qext(2))

    def test_monotone_in_q(self, G2):
        # The q-row of node i reads q*m_pi(i) - ...: certificates with no
        # negative coordinate stay valid at larger q.  Five of G2's six
        # certificates have none; the sixth is left to the open question of
        # a certificate with a negative coordinate.
        twist = build_twist("G", 2, 1)
        classes = class_list(G2, pi_of(twist))
        assert len(classes) == 6
        rechecked = 0
        for cls in classes:
            cert = certify_min_element(G2, twist, cls, qext(2))
            if all(x.sign() >= 0 for x in cert.mu):
                bigger = Certificate(
                    family="G", rank=2, twist=1, direction="delta", q=qext(5),
                    w=cert.w, form=FORM_FORWARD, mu=cert.mu,
                )
                assert check_certificate(bigger)
                rechecked += 1
        assert rechecked == 5


class TestSolverCheckerAgreement:
    def test_randomized(self):
        rng = random.Random(777)
        W = group("B", 3)
        twist = build_twist("B", 3, 1)
        pi = pi_of(twist)
        elements = elements_of(W)
        accepted = 0
        for _ in range(60):
            w = rng.choice(elements)
            system = build_forward_system(W, w, pi, qext(2))
            mu = feasible(system)
            if mu is None:
                continue
            cert = Certificate(
                family="B", rank=3, twist=1, direction="delta", q=qext(2),
                w=w.word, form=FORM_FORWARD, mu=mu,
            )
            assert check_certificate(cert)
            accepted += 1
        assert accepted > 10


class TestQLiterals:
    def test_parse(self):
        assert parse_q_literal("2") == qext(2)
        assert parse_q_literal("3/2") == qext(Fraction(3, 2))
        assert parse_q_literal("sqrt2") == SQRT2
        assert parse_q_literal("2*sqrt2") == SQRT2 * 2
        assert parse_q_literal("3/2*sqrt3") == SQRT3 * Fraction(3, 2)

    def test_bad(self):
        with pytest.raises(ValueError):
            parse_q_literal("sqrt5")
        with pytest.raises(ValueError):
            parse_q_literal("two")
        # Exponents, decimals, underscores, a '+' sign, non-ASCII digits and
        # numbers beyond int's digit limit are outside the grammar too.
        for literal in ("1/0", "1/0*sqrt3", "2*", "1e5000", "1e3", "1.5", "1_000", "+2",
                        "\u0663", "9" * 5000):
            with pytest.raises(ValueError, match="bad q literal"):
                parse_q_literal(literal)

    def test_minimal_values(self):
        assert minimal_q("A", 1) == 2
        assert minimal_q("B", 2) == SQRT2
        assert minimal_q("F", 2) == SQRT2
        assert minimal_q("G", 2) == SQRT3
        assert minimal_q("E", 2) == 2
