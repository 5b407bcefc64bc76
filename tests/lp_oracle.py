"""Reference oracle: the dense Bland simplex that the sparse pivot replaced.

``dense_solve_dual`` builds the same tableau as ``weyldl.lp`` and pivots it
the slow, obvious way: every cell of the pivot row is scaled and every
cell of every other row is updated as ``x - f*y`` in two ``QuadExt``
operations, zero cells included.  It exists only so that tests can
compare ``solve_strict`` and ``gordan_witness`` against it tuple for tuple.
"""

from __future__ import annotations

from weyldl.exactnum import qext


def _pivot(tableau, basis, row, col):
    inv = tableau[row][col].inverse()
    rr = tableau[row] = [x * inv for x in tableau[row]]
    for i, ri in enumerate(tableau):
        f = ri[col]
        if i != row and f.sign() != 0:
            tableau[i] = [x - f * y for x, y in zip(ri, rr)]
    basis[row] = col


def dense_solve_dual(rows, nvars):
    """``(point, None)`` if the strict system is feasible, else ``(None, witness)``."""
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
    tableau.append([-one] * nrows + [zero] * (nvars + 1) + [-one])
    basis = [ucol + 1 + j for j in range(nvars)] + [ucol]

    for j in range(nvars):
        col = next((k for k in range(nrows) if tableau[j][k].sign() != 0), None)
        if col is not None:
            _pivot(tableau, basis, j, col)

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
            raise ArithmeticError("unbounded LP")
        _pivot(tableau, basis, row, col)
        obj = tableau[-1]

    if obj[-1].sign() == 0:
        witness = [zero] * nrows
        for i, b in enumerate(basis):
            if b < nrows:
                witness[b] = tableau[i][-1]
        return None, tuple(witness)
    return tuple(obj[ucol + 1 + j] for j in range(nvars)), None

