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

``integer_rows`` is the one encoding of a system's rows for the simplex,
the witness and its check: the integer root rows over the denominator L
of q, with q folded into each q-row.  The simplex is integer-preserving
(Edmonds, J. Res. NBS 71B (1967); Bareiss, Math. Comp. 22 (1968)), so
every cell of the tableau is an element a + b sqrt(d) of Z[sqrt d], kept
as two plain ints; the sqrt(d) half is absent when d = 1.  The stored tableau is delta times the
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

from .exactnum import IncompatibleRadicandError, QuadExt, _make, _sign, integer_parts

__all__ = ["integer_rows", "gordan_witness", "verify_gordan"]


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


def integer_rows(system):
    """``(ra, rb, d, scale)``: row r of ``system`` is (ra[r] + rb[r] sqrt d) / scale.

    The one integer encoding of a strict system (a
    :class:`weyldl.criterion.IneqSystem`, read by its ``coeffs``,
    ``qcols``, ``q`` and ``varset``) for the simplex, the Gordan witness
    and its check: the integer rows scaled by the denominator of q, with
    q's numerator added in column ``qcols[r]`` of each q-row.  ``rb`` is
    None when d = 1.
    """
    n = len(system.varset)
    (qp,), (qq,), scale, d = integer_parts([system.q])
    ra = [[c * scale for c in row] for row in system.coeffs]
    rb = None if d == 1 else [[0] * n for _ in ra]
    for k, u in enumerate(system.qcols):
        if u >= 0:
            ra[k][u] += qp
            if rb is not None:
                rb[k][u] = qq
    return ra, rb, d, scale


def gordan_witness(system) -> Optional[tuple[QuadExt, ...]]:
    """Nonnegative y != 0 with sum_r y_r c_r = 0 over the rows c_r of ``system``,
    or None when the system is feasible."""
    return _solve_dual(*integer_rows(system), len(system.varset))[1]


def verify_gordan(system, witness) -> bool:
    """Check sum_r y_r c_r = 0 with y >= 0 and some y_r > 0, exactly.

    Independent of the simplex: the witness goes over one denominator, and
    each column of ``integer_rows(system)`` is summed against it in plain
    ints.  The witness must have one entry per row and every row the width
    of the variable set; a system without rows has no witness.  System and
    witness together live in one field, Q(sqrt 2) or Q(sqrt 3): entries
    that mix the two are rejected.
    """
    coeffs, qcols, n = system.coeffs, system.qcols, len(system.varset)
    if witness is None or not coeffs or len(witness) != len(coeffs):
        return False
    if len(qcols) != len(coeffs) or any(len(row) != n for row in coeffs) or max(qcols) >= n:
        return False
    try:
        ys, zs, _, e = integer_parts(witness)
    except IncompatibleRadicandError:
        return False
    ra, rb, d, _ = integer_rows(system)
    if d != 1 and e != 1 and d != e:
        return False
    signs = [_sign(y, z, e) for y, z in zip(ys, zs)]
    if min(signs) < 0 or max(signs) == 0:
        return False
    # Over positive denominators, column j sums to a + b sqrt(d) (or sqrt(e) when d = 1).
    for j in range(n):
        a = sum(y * row[j] for y, row in zip(ys, ra))
        b = sum(z * row[j] for z, row in zip(zs, ra))
        if rb is not None:
            a += d * sum(z * row[j] for z, row in zip(zs, rb))
            b += sum(y * row[j] for y, row in zip(ys, rb))
        if a or b:
            return False
    return True
