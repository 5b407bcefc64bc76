"""Exact strict-inequality feasibility over Q(sqrt d), with both answers from one LP.

A homogeneous system  < c_r, m > > 0  (all r) either has a solution or,
by Gordan's alternative, a witness  y >= 0, y != 0  with
sum_r y_r c_r = 0.  Both come out of the one LP

    min u   s.t.   sum_r y_r c_r = 0,   sum_r y_r + u = 1,   y, u >= 0,

solved by the simplex method under Bland's rule (Schrijver, *Theory of
Linear and Integer Programming*, 1986).  If the optimum u* is zero, the
basic y values are a witness.  If u* > 0, the simplex multipliers give a
point: m_j, the final reduced cost of the artificial column of equality
row j, satisfies < c_r, m > >= u* for every r.  ``verify_gordan`` checks
a witness independently of the solver.

The simplex is integer-preserving (Edmonds, J. Res. NBS 71B (1967);
Bareiss, Math. Comp. 22 (1968)).  The rows are put over one common
denominator L (``exactnum.integer_parts``), so every cell of the tableau
is an element a + b sqrt(d) of Z[sqrt d], kept as two plain ints; the
sqrt(d) half is absent when d = 1.  The stored tableau is delta times the
true one, delta > 0 the last pivot.  A pivot on (r, c) with p = T[r][c]
leaves row r as it is and sets

    T'[i][k] = (p T[i][k] - T[i][c] T[r][k]) / delta

in every other row.  The division is exact, since every stored cell is a
minor of the starting tableau (Cramer's rule); over Z[sqrt d] it is a
product with conj(delta) and an exact division by the norm N(delta).  A
negative pivot negates its row first, so delta stays positive and every
stored cell has the sign of the true one; ratio tests compare cross
products.  Scaling the equality rows by L changes no sign or ratio the
pivot rules read, so the pivots, and hence the point and the witness,
are those of the dense rational tableau (``tests/lp_oracle.py``); only
the multipliers shrink by 1/L, which the returned point undoes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactnum import QuadExt, _make, _sign, dot, integer_parts, qext

__all__ = ["solve_strict", "gordan_witness", "verify_gordan"]

Row = Sequence[QuadExt]


def _mul(a: int, b: int, x: int, y: int, d: int) -> tuple[int, int]:
    """(a + b sqrt d)(x + y sqrt d) as its two integer halves."""
    return a * x + d * b * y, a * y + b * x


def _pivot(A, B, d: int, r: int, c: int, delta: tuple[int, int]) -> tuple[int, int]:
    """Pivot the tableau (A + B sqrt d) on (r, c) in place; returns the new scale.

    Rows are replaced, never changed in place.  ``B`` is None when d = 1.
    """
    da, db = delta
    Ar = A[r]
    if B is None:
        p = Ar[c]
        if p < 0:
            A[r] = Ar = [-x for x in Ar]
            p = -p
        for i, Ai in enumerate(A):
            if i == r:
                continue
            f = Ai[c]
            if f:
                A[i] = [(p * x - f * y) // da for x, y in zip(Ai, Ar)]
            elif p != da:
                A[i] = [p * x // da for x in Ai]
        return p, 0
    Br = B[r]
    pa, pb = Ar[c], Br[c]
    if _sign(pa, pb, d) < 0:
        A[r] = Ar = [-x for x in Ar]
        B[r] = Br = [-x for x in Br]
        pa, pb = -pa, -pb
    norm, ddb, dpb = da * da - d * db * db, d * db, d * pb
    for i in range(len(A)):
        if i == r:
            continue
        Ai, Bi = A[i], B[i]
        fa, fb = Ai[c], Bi[c]
        if not (fa or fb) and pa == da and pb == db:
            continue
        dfb = d * fb
        cells = zip(Ai, Bi, Ar, Br)
        us = [pa * x + dpb * xb - fa * y - dfb * yb for x, xb, y, yb in cells]
        cells = zip(Ai, Bi, Ar, Br)
        vs = [pa * xb + pb * x - fa * yb - fb * y for x, xb, y, yb in cells]
        if db:
            A[i] = [(u * da - ddb * v) // norm for u, v in zip(us, vs)]
            B[i] = [(v * da - u * db) // norm for u, v in zip(us, vs)]
        else:
            A[i] = [u // da for u in us]
            B[i] = [v // da for v in vs]
    return pa, pb


def _solve_dual(ra: Sequence[Sequence[int]], rb, d: int, scale: int, nvars: int):
    """``(point, None)`` if the strict system is feasible, else ``(None, witness)``.

    The system's rows are (ra[r] + rb[r] sqrt d) / scale, in plain ints;
    ``rb`` is None when d = 1.  Columns are y_0..y_{R-1}, u, then one
    artificial per equality row; the last tableau row holds the reduced
    costs and minus the objective.
    """
    nrows = len(ra)
    ucol = nrows
    A = []
    for j in range(nvars):
        line = [r[j] for r in ra] + [0] * (nvars + 2)
        line[ucol + 1 + j] = 1
        A.append(line)
    A.append([1] * (nrows + 1) + [0] * nvars + [1])
    # Cost 1 on u, in reduced form against the starting basis (u basic).
    A.append([-1] * nrows + [0] * (nvars + 1) + [-1])
    B = None
    if rb is not None:
        zeros = [0] * (nrows + nvars + 2)
        B = [[r[j] for r in rb] + [0] * (nvars + 2) for j in range(nvars)] + [zeros, zeros]
    basis = [ucol + 1 + j for j in range(nvars)] + [ucol]
    delta = (1, 0)

    def sign(i: int, k: int) -> int:
        x = A[i][k]
        return (x > 0) - (x < 0) if B is None else _sign(x, B[i][k], d)

    def cross(i: int, b: int, col: int) -> int:
        """Sign of ratio i minus ratio b: T[i][-1] T[b][col] - T[b][-1] T[i][col]."""
        if B is None:
            t = A[i][-1] * A[b][col] - A[b][-1] * A[i][col]
            return (t > 0) - (t < 0)
        x, xb = _mul(A[i][-1], B[i][-1], A[b][col], B[b][col], d)
        y, yb = _mul(A[b][-1], B[b][-1], A[i][col], B[i][col], d)
        return _sign(x - y, xb - yb, d)

    # Drive every artificial out at zero level where its row allows.
    for j in range(nvars):
        col = next((k for k in range(nrows) if sign(j, k) != 0), None)
        if col is not None:
            delta = _pivot(A, B, d, j, col, delta)
            basis[j] = col

    # Minimize u over the y and u columns, Bland's rule.
    obj = nvars + 1
    while True:
        col = next((k for k in range(ucol + 1) if sign(obj, k) < 0), None)
        if col is None:
            break
        row = -1
        for i in range(nvars + 1):
            if sign(i, col) > 0:
                if row < 0:
                    row = i
                    continue
                s = cross(i, row, col)
                if s < 0 or (s == 0 and basis[i] < basis[row]):
                    row = i
        if row < 0:
            raise ArithmeticError("unbounded LP; u >= 0 bounds it below")
        delta = _pivot(A, B, d, row, col, delta)
        basis[row] = col

    da, db = delta
    norm = da * da - d * db * db

    def value(i: int, k: int, factor: int) -> QuadExt:
        """factor * T[i][k] / delta, as a QuadExt."""
        x, xb = A[i][k] * factor, 0 if B is None else B[i][k] * factor
        if not db:
            return _make(x, xb, da, d)
        p, q = x * da - d * xb * db, xb * da - x * db
        return _make(p, q, norm, d) if norm > 0 else _make(-p, -q, -norm, d)

    if sign(obj, -1) == 0:
        witness = [_make(0, 0, 1, 1)] * nrows
        for i, b in enumerate(basis):
            if b < nrows:
                witness[b] = value(i, -1, 1)
        return None, tuple(witness)
    return tuple(value(obj, ucol + 1 + j, scale) for j in range(nvars)), None


def _exact_rows(rows: Sequence[Row], nvars: int):
    """Rows of exact numbers as ``_solve_dual``'s arguments before ``nvars``."""
    cells = [c for r in rows for c in r]
    ps, qs, scale, d = integer_parts(cells)
    if any(len(r) != nvars for r in rows):
        raise ValueError("row width does not match variable count")
    ra = [ps[k * nvars:(k + 1) * nvars] for k in range(len(rows))]
    rb = [qs[k * nvars:(k + 1) * nvars] for k in range(len(rows))] if d != 1 else None
    return ra, rb, d, scale


def solve_strict(rows: Sequence[Row], nvars: int) -> Optional[tuple[QuadExt, ...]]:
    """A point with every < c_r, m > > 0, or None if there is none.

    Deterministic for a fixed row order.  The returned coordinates are
    exact and generally mix rationals with sqrt(d) terms when any
    coefficient does.  Rows over both sqrt 2 and sqrt 3 raise
    ``IncompatibleRadicandError``.
    """
    point, _ = _solve_dual(*_exact_rows(rows, nvars), nvars)
    if point is None:
        return None
    if any(dot(r, point).sign() <= 0 for r in rows):
        raise AssertionError("simplex returned a non-strict point")
    return point


def gordan_witness(rows: Sequence[Row], nvars: int) -> Optional[tuple[QuadExt, ...]]:
    """Nonnegative y != 0 with sum_r y_r c_r = 0, or None when the system is feasible."""
    return _solve_dual(*_exact_rows(rows, nvars), nvars)[1]


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
