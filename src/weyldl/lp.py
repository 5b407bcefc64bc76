"""Exact strict-inequality feasibility over Q(sqrt d), with both answers from one LP.

A homogeneous system  < c_r, m > > 0  (all r) either has a solution or,
by Gordan's alternative, a witness  y >= 0, y != 0  with
sum_r y_r c_r = 0.  Both come out of the one LP

    min u   s.t.   sum_r y_r c_r = 0,   sum_r y_r + u = 1,   y, u >= 0,

solved by the simplex method under Bland's rule in exact QuadExt
arithmetic (Schrijver, *Theory of Linear and Integer Programming*, 1986).
A pivot touches only the nonzero cells of the pivot row: it scales them
and updates those columns of every other row through the fused
``x - f*y`` kernel, so the many zero cells of the artificial block cost
nothing and the pivot path is that of the dense tableau.  If the
optimum u* is zero, the basic y values are a witness.  If u* > 0, the
simplex multipliers give a point: m_j, the final reduced cost of the
artificial column of equality row j, satisfies < c_r, m > >= u* for
every r.  ``verify_gordan`` checks a witness independently of the solver.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactnum import QuadExt, dot, qext, sub_mul

__all__ = ["solve_strict", "gordan_witness", "verify_gordan"]

Row = Sequence[QuadExt]


def _pivot(tableau: list[list[QuadExt]], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col) in place; zero cells of the pivot row change nothing."""
    rr = tableau[row]
    inv = rr[col].inverse()
    support = [k for k, x in enumerate(rr) if not x.is_zero()]
    for k in support:
        rr[k] = rr[k] * inv
    for i, ri in enumerate(tableau):
        f = ri[col]
        if i != row and not f.is_zero():
            for k in support:
                ri[k] = sub_mul(ri[k], f, rr[k])
    basis[row] = col


def _solve_dual(rows: Sequence[Row], nvars: int):
    """``(point, None)`` if the strict system is feasible, else ``(None, witness)``.

    Columns are y_0..y_{R-1}, u, then one artificial per equality row;
    the last tableau row holds the reduced costs and minus the objective.
    """
    rows = [tuple(qext(c) for c in r) for r in rows]
    if any(len(r) != nvars for r in rows):
        raise ValueError("row width does not match variable count")
    nrows = len(rows)
    ucol = nrows
    zero, one = qext(0), qext(1)
    tableau = []
    for j in range(nvars):
        line = [r[j] for r in rows] + [zero] * (nvars + 2)
        line[ucol + 1 + j] = one
        tableau.append(line)
    tableau.append([one] * (nrows + 1) + [zero] * nvars + [one])
    # Cost 1 on u, in reduced form against the starting basis (u basic).
    tableau.append([-one] * nrows + [zero] * (nvars + 1) + [-one])
    basis = [ucol + 1 + j for j in range(nvars)] + [ucol]

    # Drive every artificial out at zero level where its row allows.
    for j in range(nvars):
        col = next((k for k in range(nrows) if tableau[j][k].sign() != 0), None)
        if col is not None:
            _pivot(tableau, basis, j, col)

    # Minimize u over the y and u columns, Bland's rule.
    obj = tableau[-1]
    while True:
        col = next((k for k in range(ucol + 1) if obj[k].sign() < 0), None)
        if col is None:
            break
        row, best = -1, None
        for i in range(nvars + 1):
            a = tableau[i][col]
            if a.sign() > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            raise ArithmeticError("unbounded LP; u >= 0 bounds it below")
        _pivot(tableau, basis, row, col)
        obj = tableau[-1]

    if obj[-1].sign() == 0:
        witness = [zero] * nrows
        for i, b in enumerate(basis):
            if b < nrows:
                witness[b] = tableau[i][-1]
        return None, tuple(witness)
    return tuple(obj[ucol + 1 + j] for j in range(nvars)), None


def solve_strict(rows: Sequence[Row], nvars: int) -> Optional[tuple[QuadExt, ...]]:
    """A point with every < c_r, m > > 0, or None if there is none.

    Deterministic for a fixed row order.  The returned coordinates are
    exact and generally mix rationals with sqrt(d) terms when any
    coefficient does.
    """
    point, _ = _solve_dual(rows, nvars)
    if point is None:
        return None
    if any(dot(r, point).sign() <= 0 for r in rows):
        raise AssertionError("simplex returned a non-strict point")
    return point


def gordan_witness(rows: Sequence[Row], nvars: int) -> Optional[tuple[QuadExt, ...]]:
    """Nonnegative y != 0 with sum_r y_r c_r = 0, or None when the system is feasible."""
    return _solve_dual(rows, nvars)[1]


def verify_gordan(rows: Sequence[Row], witness) -> bool:
    """Check sum_r y_r c_r = 0 with y >= 0 and some y_r > 0, exactly.

    The witness must have one entry per row and the rows one width; an
    empty system has no witness.  Rows and witness together live in one
    field, Q(sqrt 2) or Q(sqrt 3): entries that mix the two are rejected.
    """
    if witness is None or not rows or len(witness) != len(rows):
        return False
    rows = [tuple(qext(c) for c in r) for r in rows]
    ys = [qext(y) for y in witness]
    if len(({y.d for y in ys} | {c.d for r in rows for c in r}) - {1}) > 1:
        return False
    if any(y.sign() < 0 for y in ys) or all(y.sign() == 0 for y in ys):
        return False
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        return False
    return all(dot(ys, [r[j] for r in rows]).sign() == 0 for j in range(width))
