import random
from fractions import Fraction
from itertools import product

import pytest

from weyldl import lp
from weyldl.casetables import place_row
from weyldl.catalog import load_case_records, type_group
from weyldl.conjugacy import class_list, pi_of
from weyldl.criterion import (
    IneqSystem,
    build_forward_system,
    build_star_system,
    feasible,
    minimal_q,
    parse_q_literal,
)
from weyldl.exactnum import SQRT2, SQRT3, IncompatibleRadicandError, QuadExt, qext
from weyldl.rootdata import build_twist

from checker_oracle import inverse_system
from conftest import RANK_LE_4, group
from lp_oracle import dense_solve_dual, gordan_witness, is_gordan_witness, rows_of, solve_strict


def system_of(nvars, coeffs, q=2, qcols=None):
    """An ``IneqSystem`` of integer rows on variables 1..nvars; row r is a
    q-row with q in column ``qcols[r]`` when that is >= 0 (default: none)."""
    qcols = (-1,) * len(coeffs) if qcols is None else tuple(qcols)
    return IneqSystem(tuple(range(1, nvars + 1)), qext(q), tuple(map(tuple, coeffs)), qcols,
                      tuple(f"row {r}" for r in range(len(coeffs))))


def brute_feasible(rows, nvars, grid=range(-6, 7)):
    """Independent oracle: scan a small integer grid for a strict point."""
    for point in product(grid, repeat=nvars):
        ok = True
        for r in rows:
            s = qext(0)
            for c, x in zip(r, point):
                s = s + qext(c) * x
            if s.sign() <= 0:
                ok = False
                break
        if ok:
            return point
    return None


def test_empty_system():
    assert solve_strict([], 3) == (0, 0, 0)


def test_single_positive_row():
    pt = solve_strict([(qext(1), qext(0))], 2)
    assert pt is not None and pt[0].sign() > 0


def test_obviously_infeasible():
    rows = [(qext(1),), (qext(-1),)]
    assert solve_strict(rows, 1) is None
    system = system_of(1, [(1,), (-1,)])
    assert feasible(system) is None
    assert lp.verify_gordan(system, lp.gordan_witness(system))


def test_marginally_infeasible():
    # x > 0, y > 0, -x - y > 0 has no solution.
    rows = [(qext(1), qext(0)), (qext(0), qext(1)), (qext(-1), qext(-1))]
    assert solve_strict(rows, 2) is None
    system = system_of(2, [(1, 0), (0, 1), (-1, -1)])
    assert feasible(system) is None
    assert lp.verify_gordan(system, lp.gordan_witness(system))


def test_sqrt2_system():
    # sqrt2 * x - y > 0 and y - x > 0: feasible (1 < y/x < sqrt2).
    rows = [(SQRT2, qext(-1)), (qext(-1), qext(1))]
    pt = solve_strict(rows, 2)
    assert pt is not None
    # x > 0 with x/2 < y < (sqrt2 - 1) x is infeasible: sqrt2 - 1 < 1/2.
    rows2 = [(qext(1), qext(0)), (SQRT2 - 1, qext(-1)), (Fraction(-1, 2), qext(1))]
    assert solve_strict(rows2, 2) is None
    assert is_gordan_witness(rows2, gordan_witness(rows2, 2))
    # The same system as integer rows, with q = sqrt2 in column x of the second
    # and the third doubled.
    system = system_of(2, [(1, 0), (-1, -1), (-1, 2)], q=SQRT2, qcols=(-1, 0, -1))
    assert feasible(system) is None
    assert lp.verify_gordan(system, lp.gordan_witness(system))


def test_suzuki_slack():
    # The Suzuki-type row family: (q-1) m1 - m2 > 0, m1 > 0, m2 > 0 at q=sqrt2.
    rows = [(SQRT2 - 1, qext(-1)), (qext(1), qext(0)), (qext(0), qext(1))]
    pt = solve_strict(rows, 2)
    assert pt is not None
    assert ((SQRT2 - 1) * pt[0] - pt[1]).sign() > 0


def test_agrees_with_brute_force_oracle():
    rng = random.Random(1980)
    agree = 0
    for trial in range(300):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 5)
        coeffs = [tuple(rng.randint(-3, 3) for _ in range(nvars)) for _ in range(nrows)]
        rows = [tuple(map(qext, r)) for r in coeffs]
        system = system_of(nvars, coeffs)
        got = solve_strict(rows, nvars)
        mu = feasible(system)
        assert mu == got, (trial, rows)
        expected = brute_feasible(rows, nvars)
        if expected is not None:
            # Homogeneous strictness: a grid point certifies feasibility.
            assert got is not None, (trial, rows)
        if got is None:
            assert expected is None, (trial, rows)
        # Gordan's alternative: a witness exactly when there is no point.
        witness = lp.gordan_witness(system)
        assert (got is None) == (witness is not None), (trial, rows)
        if witness is not None:
            assert lp.verify_gordan(system, witness), (trial, rows)
        # The sparse pivots follow the dense tableau's path exactly.
        assert (got, witness) == dense_solve_dual(rows, nvars), (trial, rows)
        agree += 1
    assert agree == 300


def _random_cell(rng, d):
    """A rational with a small denominator, or over sqrt(d) half the time when d > 1."""
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if d == 1 or rng.random() < 0.5:
        return qext(a)
    return QuadExt(a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matches_dense_simplex_on_random_exact_rows(d):
    """Rows of non-integer rationals, and over Q(sqrt 2) or Q(sqrt 3): point and
    witness equal the dense simplex's tuple for tuple, and Gordan's alternative holds."""
    rng = random.Random(2024 + d)
    feasible_count = infeasible_count = 0
    for trial in range(400):
        nvars = rng.randint(0, 4)
        rows = [tuple(_random_cell(rng, d) for _ in range(nvars))
                for _ in range(rng.randint(0, 6))]
        got = (solve_strict(rows, nvars), gordan_witness(rows, nvars))
        assert got == dense_solve_dual(rows, nvars), (trial, rows)
        point, witness = got
        assert (point is None) != (witness is None)
        if witness is not None:
            assert is_gordan_witness(rows, witness), (trial, rows)
            infeasible_count += 1
        else:
            feasible_count += 1
    assert feasible_count > 50 and infeasible_count > 50


@pytest.mark.parametrize("q", ["3/2*sqrt2", "5/3", "2/3*sqrt3", "7/2"])
@pytest.mark.parametrize("family,rank,order", [("B", 3, 1), ("G", 2, 1), ("A", 3, 2)])
def test_feasible_matches_dense_simplex_at_q_with_a_denominator(family, rank, order, q):
    """``feasible`` feeds the integer rows, scaled by q's denominator, to the
    simplex; its point is the dense simplex's on the folded rows."""
    q = parse_q_literal(q)
    W = group(family, rank)
    pi = pi_of(build_twist(family, rank, order))
    for cls in class_list(W, pi):
        for w in cls.minimal:
            for system in (build_forward_system(W, w, pi, q), inverse_system(W, w, pi, q)):
                rows, n = rows_of(system), len(system.varset)
                point, witness = dense_solve_dual(rows, n)
                mu = feasible(system)
                assert mu == point, w.word
                assert lp.gordan_witness(system) == witness, w.word
                assert (solve_strict(rows, n), gordan_witness(rows, n)) == (point, witness)


def test_mixed_radicand_rows_raise():
    """Rows over sqrt 2 and sqrt 3 at once have no field to solve in; the dense
    simplex raises on them too."""
    rows = [(SQRT2,), (SQRT3,)]
    for solve in (solve_strict, gordan_witness, dense_solve_dual):
        with pytest.raises(IncompatibleRadicandError):
            solve(rows, 1)


def test_witness_edge_cases():
    assert gordan_witness([], 2) is None
    assert solve_strict([(), ()], 0) is None
    assert is_gordan_witness([(), ()], gordan_witness([(), ()], 0))
    # The same on systems: no rows is feasible, and two rows on no variables are not.
    assert lp.gordan_witness(system_of(2, [])) is None
    empty = system_of(0, [(), ()])
    assert feasible(empty) is None
    assert lp.verify_gordan(empty, lp.gordan_witness(empty))


def test_verify_gordan_rejects_mismatched_witness():
    # x > 0 is feasible; an extra positive entry must not pass for "some y > 0".
    assert not lp.verify_gordan(system_of(1, [(1,)]), (qext(0), qext(1)))
    # A short witness leaves a row unweighted.
    assert not lp.verify_gordan(system_of(1, [(1,), (-1,)]), (qext(1),))
    # Ragged rows: the unchecked column of the longer row sums to 5, and a
    # short row, also one whose q column is missing, must not raise.
    ragged = [((1,), ((-1,), (1, 5)), (-1, -1)),
              ((1, 2), ((1, 0), (-1,)), (-1, -1)),
              ((1, 2), ((1, 0), (-1,)), (-1, 1)),
              ((1,), ((1,), (-1,)), (-1, 3))]
    for varset, coeffs, qcols in ragged:
        system = IneqSystem(varset, qext(2), coeffs, qcols, ("a", "b"))
        assert lp.verify_gordan(system, (qext(1), qext(1))) is False, coeffs
    # An empty system has no witness at all.
    assert not lp.verify_gordan(system_of(1, []), (qext(1),))
    assert not lp.verify_gordan(system_of(1, []), ())


def test_verify_gordan_rejects_mixed_radicands():
    # (sqrt2 - 1) m1 > 0 and -m1 > 0 over Q(sqrt 2): y = (1, sqrt2 - 1).
    system = system_of(1, [(-1,), (-1,)], q=SQRT2, qcols=(0, -1))
    assert lp.verify_gordan(system, [qext(1), SQRT2 - 1]) is True
    # y = (1, 2 sqrt2 - 1) leaves -sqrt2: the rational half cancels, the sqrt 2 half does not.
    assert lp.verify_gordan(system, [qext(1), 2 * SQRT2 - 1]) is False
    # The same witness over sqrt 3: a bool, never an exception.
    assert lp.verify_gordan(system, [qext(1), SQRT3 - 1]) is False
    # A system over Q(sqrt 3) with a witness in Q(sqrt 2).
    system3 = system_of(1, [(-1,), (-1,)], q=SQRT3, qcols=(0, -1))
    assert lp.verify_gordan(system3, [qext(1), SQRT2 - 1]) is False
    # A witness that mixes sqrt 2 and sqrt 3 itself.
    rational = system_of(1, [(1,), (-1,)])
    assert lp.verify_gordan(rational, [SQRT2, SQRT3]) is False
    # A rational system takes a witness in either field, and checks both halves.
    assert lp.verify_gordan(rational, [SQRT2, SQRT2]) is True
    assert lp.verify_gordan(rational, [SQRT2 + 1, qext(1)]) is False


def _spade_star_systems():
    out = []
    for record in load_case_records():
        if record.spade:
            W, pi_inv = type_group(record.family, record.rank, record.twist)
            placed = place_row(W, pi_inv, record.J, record.w1)
            q = minimal_q(record.family, record.twist)
            out.append((record.label, build_star_system(W, placed.K, placed.w1, pi_inv, q)))
    return out


def test_verify_gordan_on_spade_star_systems():
    """On each spade row's star system, ``verify_gordan`` accepts the solver's
    witness and rejects it with one entry raised by 1, negated, all zero,
    short, or with a positive entry replaced by a square root q does not use."""
    systems = _spade_star_systems()
    assert len(systems) == 5
    for label, star in systems:
        y = lp.gordan_witness(star)
        assert lp.verify_gordan(star, y), label
        other = SQRT3 if star.q.d == 2 else SQRT2
        first = next(k for k, v in enumerate(y) if v.sign() > 0)
        hostile = [y[:k] + (v + 1,) + y[k + 1:] for k, v in enumerate(y)]
        hostile += [tuple(-v for v in y), (qext(0),) * len(y), y[:-1],
                    y[:first] + (other,) + y[first + 1:]]
        for bad in hostile:
            assert lp.verify_gordan(star, bad) is False, (label, bad)


def _same_as_dense(system):
    """``feasible`` and ``gordan_witness`` on the system, and the exact-row
    solver on its folded rows, give the dense simplex's point and witness."""
    rows, n = rows_of(system), len(system.varset)
    got = (feasible(system), lp.gordan_witness(system))
    return got == dense_solve_dual(rows, n) == (solve_strict(rows, n), gordan_witness(rows, n))


@pytest.mark.parametrize("family,rank,order", RANK_LE_4)
def test_matches_dense_simplex_on_minimal_elements(family, rank, order):
    """Point and witness equal the dense simplex's on the forward and inverse
    systems of every minimal element of every class, at minimal q."""
    W = group(family, rank)
    pi = pi_of(build_twist(family, rank, order))
    q = minimal_q(family, order)
    for cls in class_list(W, pi):
        for w in cls.minimal:
            assert _same_as_dense(build_forward_system(W, w, pi, q)), w.word
            assert _same_as_dense(inverse_system(W, w, pi, q)), w.word


def test_matches_dense_simplex_on_catalog_star_systems():
    """The same on the star system of every placed catalog row."""
    count = 0
    for record in load_case_records():
        W, pi_inv = type_group(record.family, record.rank, record.twist)
        q = minimal_q(record.family, record.twist)
        placed = place_row(W, pi_inv, record.J, record.w1)
        star = build_star_system(W, placed.K, placed.w1, pi_inv, q)
        assert _same_as_dense(star), record.label
        count += 1
    assert count == 213


def test_determinism():
    rows = [
        (qext(2), qext(-1), qext(0)),
        (qext(0), qext(2), qext(-1)),
        (qext(-1), qext(0), qext(2)),
    ]
    a = solve_strict(rows, 3)
    b = solve_strict(rows, 3)
    assert a == b


def test_solver_checker_agreement_large_sample():
    # For feasible random systems the returned point re-checks strictly
    # (solve_strict asserts this internally; re-assert here); adding the
    # negation of a satisfied row must flip the verdict to infeasible.
    rng = random.Random(63)
    found = 0
    for _ in range(1000):
        nvars = rng.randint(1, 4)
        rows = [
            tuple(qext(rng.randint(-3, 3)) for _ in range(nvars))
            for _ in range(rng.randint(1, 5))
        ]
        pt = solve_strict(rows, nvars)
        if pt is None:
            continue
        found += 1
        for r in rows:
            s = qext(0)
            for c, x in zip(r, pt):
                s = s + c * x
            assert s.sign() > 0
        poisoned = rows + [tuple(-c for c in rows[0])]
        assert solve_strict(poisoned, nvars) is None
    assert found > 400
