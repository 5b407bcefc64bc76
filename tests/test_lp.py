import random
from fractions import Fraction
from itertools import product

import pytest

from weyldl.casetables import load_case_records, place_row, type_group
from weyldl.conjugacy import class_list, pi_of
from weyldl.criterion import (
    build_forward_system,
    build_inverse_system,
    build_star_system,
    minimal_q,
)
from weyldl.exactnum import SQRT2, SQRT3, qext
from weyldl.lp import gordan_witness, solve_strict, verify_gordan
from weyldl.rootdata import build_twist

from conftest import RANK_LE_4, group
from lp_oracle import dense_solve_dual


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
    y = gordan_witness(rows, 1)
    assert verify_gordan(rows, y)


def test_marginally_infeasible():
    # x > 0, y > 0, -x - y > 0 has no solution.
    rows = [(qext(1), qext(0)), (qext(0), qext(1)), (qext(-1), qext(-1))]
    assert solve_strict(rows, 2) is None
    assert verify_gordan(rows, gordan_witness(rows, 2))


def test_sqrt2_system():
    # sqrt2 * x - y > 0 and y - x > 0: feasible (1 < y/x < sqrt2).
    rows = [(SQRT2, qext(-1)), (qext(-1), qext(1))]
    pt = solve_strict(rows, 2)
    assert pt is not None
    # x > 0 with x/2 < y < (sqrt2 - 1) x is infeasible: sqrt2 - 1 < 1/2.
    rows2 = [(qext(1), qext(0)), (SQRT2 - 1, qext(-1)), (Fraction(-1, 2), qext(1))]
    assert solve_strict(rows2, 2) is None
    assert verify_gordan(rows2, gordan_witness(rows2, 2))


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
        rows = [
            tuple(qext(rng.randint(-3, 3)) for _ in range(nvars)) for _ in range(nrows)
        ]
        got = solve_strict(rows, nvars)
        expected = brute_feasible(rows, nvars)
        if expected is not None:
            # Homogeneous strictness: a grid point certifies feasibility.
            assert got is not None, (trial, rows)
        if got is None:
            assert expected is None, (trial, rows)
        # Gordan's alternative: a witness exactly when there is no point.
        witness = gordan_witness(rows, nvars)
        assert (got is None) == (witness is not None), (trial, rows)
        if witness is not None:
            assert verify_gordan(rows, witness), (trial, rows)
        # The sparse pivots follow the dense tableau's path exactly.
        assert (got, witness) == dense_solve_dual(rows, nvars), (trial, rows)
        agree += 1
    assert agree == 300


def test_witness_edge_cases():
    assert gordan_witness([], 2) is None
    assert solve_strict([(), ()], 0) is None
    assert verify_gordan([(), ()], gordan_witness([(), ()], 0))


def test_verify_gordan_rejects_mismatched_witness():
    # x > 0 is feasible; an extra positive entry must not pass for "some y > 0".
    assert not verify_gordan([(qext(1),)], (qext(0), qext(1)))
    # A short witness leaves a row unweighted.
    assert not verify_gordan([(qext(1),), (qext(-1),)], (qext(1),))
    # Ragged rows: the unchecked column of the longer row sums to 5, and a
    # short row must not raise.
    assert not verify_gordan([(qext(-1),), (qext(1), qext(5))], (qext(1), qext(1)))
    assert not verify_gordan([(qext(1), qext(0)), (qext(-1),)], (qext(1), qext(1)))
    # An empty system has no witness at all.
    assert not verify_gordan([], (qext(1),))
    assert not verify_gordan([], ())


def test_verify_gordan_rejects_mixed_radicands():
    # sqrt(2) and sqrt(3) share no field here: a bool, never an exception.
    assert verify_gordan([(SQRT2,), (SQRT3,)], [1, 1]) is False
    # Rows in Q(sqrt 2) with a witness in Q(sqrt 3), and the reverse.
    assert verify_gordan([(SQRT2,), (-SQRT2,)], [SQRT3, SQRT3]) is False
    assert verify_gordan([(SQRT3,), (qext(-1),)], [SQRT2, 1]) is False
    # One radicand in all entries still verifies.
    assert verify_gordan([(SQRT2,), (-SQRT2,)], [SQRT2, SQRT2]) is True


def _same_as_dense(system):
    rows, n = system.rows, len(system.varset)
    return (solve_strict(rows, n), gordan_witness(rows, n)) == dense_solve_dual(rows, n)


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
            assert _same_as_dense(build_inverse_system(W, w, pi, q)), w.word


def test_matches_dense_simplex_on_catalog_star_systems():
    """The same on the star system of every placed catalog row of rank <= 6."""
    count = 0
    for record in load_case_records():
        if record.rank > 6:
            continue
        W, pi_inv = type_group(record.family, record.rank, record.twist)
        q = minimal_q(record.family, record.twist)
        placed = place_row(W, pi_inv, record.J, record.w1)
        star = build_star_system(W, placed.K, placed.w1, pi_inv, q)
        assert _same_as_dense(star), record.label
        count += 1
    assert count == 120


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
