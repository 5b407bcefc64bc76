"""Reference oracle: the dense Bland simplex that the sparse pivot replaced.

``dense_solve_dual`` builds the same tableau as ``weyldl.lp`` and pivots it
the slow, obvious way: every cell of the pivot row is scaled and every
cell of every other row is updated as ``x - f*y`` in two ``QuadExt``
operations, zero cells included.  It exists only so that tests can
compare the fraction-free simplex against it tuple for tuple.

The dense-row forms the tests drive it with live here too:

* ``rows_of(system)`` and ``labels_of(system)``, an ``IneqSystem``'s rows
  as exact numbers with q folded into the q-rows, and their labels;
* ``solve_strict`` and ``gordan_witness``, ``weyldl.lp``'s simplex on
  rows of arbitrary exact numbers (rationals with denominators, sqrt 2 or
  sqrt 3 cells anywhere), which no ``IneqSystem`` can hold;
* ``is_gordan_witness``, Gordan's alternative checked on such rows with
  ``QuadExt`` arithmetic.
"""

from __future__ import annotations

from weyldl.exactnum import ZERO, integer_parts, qext
from weyldl.lp import _solve_dual


def fold_dot(xs, ys):
    """sum of x*y over the pairs of ``xs`` and ``ys``, as the left fold
    ``s = s + x*y`` from zero in ``QuadExt``."""
    return sum((x * y for x, y in zip(xs, ys)), ZERO)


def rows_of(system):
    """Every row of ``system`` as exact numbers, q folded into the q-rows."""
    out = []
    for row, u in zip(system.coeffs, system.qcols):
        cells = [qext(c) for c in row]
        if u >= 0:
            cells[u] = system.q + row[u]
        out.append(tuple(cells))
    return tuple(out)


def labels_of(system):
    """The label of every row of ``system``, as its violations name it."""
    return tuple(map(system._label, range(len(system.coeffs))))


def _exact_rows(rows, nvars):
    """Rows of exact numbers as ``_solve_dual``'s arguments before ``nvars``."""
    ps, qs, scale, d = integer_parts([c for r in rows for c in r])
    if any(len(r) != nvars for r in rows):
        raise ValueError("row width does not match variable count")
    ra = [ps[k * nvars:(k + 1) * nvars] for k in range(len(rows))]
    rb = [qs[k * nvars:(k + 1) * nvars] for k in range(len(rows))] if d != 1 else None
    return ra, rb, d, scale


def solve_strict(rows, nvars):
    """A point with every < c_r, m > > 0, re-checked, or None if there is none."""
    point, _ = _solve_dual(*_exact_rows(rows, nvars), nvars)
    if point is not None and any(fold_dot(r, point).sign() <= 0 for r in rows):
        raise AssertionError("simplex returned a non-strict point")
    return point


def gordan_witness(rows, nvars):
    """Nonnegative y != 0 with sum_r y_r c_r = 0, or None when the rows are feasible."""
    return _solve_dual(*_exact_rows(rows, nvars), nvars)[1]


def is_gordan_witness(rows, witness):
    """y >= 0, some y_r > 0 and sum_r y_r c_r = 0 column by column, in ``QuadExt``."""
    if witness is None or len(witness) != len(rows):
        return False
    ys = [qext(y) for y in witness]
    if any(y.sign() < 0 for y in ys) or all(y.sign() == 0 for y in ys):
        return False
    return all(fold_dot(ys, column).sign() == 0 for column in zip(*rows))


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

