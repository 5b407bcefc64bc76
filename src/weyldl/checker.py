"""The independent certificate checker, on integer root coordinates.

A certificate (family, rank, twist, direction, q, w, form, mu) claims that
mu satisfies the strict system of the element w of its word, in one of
two forms, with pi the index map of the twist in the certificate's
direction:

* forward form, wire tag ``"lemma-1.11"``: the q-rows
  q * mu[pi(i)] - (w^{-1} alpha_i)(mu) > 0 for every node i, then
  alpha(mu) > 0 on the inversions of w;

* inverse form, wire tag ``"stmt-1.13a"``: the q-rows
  q * mu[i] - (w alpha_{pi(i)})(mu) > 0, then the inversions of w^{-1}.

The checker re-derives those rows from the Cartan matrix alone: it
builds no group, root closure or reflection table, and shares no state
with the routes that make certificates.  It walks the word once, keeping
the columns y(alpha_i) of the running product y as int tuples of
simple-root coordinates.  Letter a turns them into those of y s_a,

    y s_a(alpha_i) = y(alpha_i) - C[a][i] * y(alpha_a),

which moves column a and its neighbours in the Dynkin diagram only, and
meets the root y(alpha_a).  When it is positive it is the one inversion
of (y s_a)^{-1} that y^{-1} lacks; when it is negative its negation is
the one inversion of y^{-1} that (y s_a)^{-1} lacks, since s_a
permutes the positive roots other than alpha_a.  So after a word x the
columns are x(alpha_i) and the roots met are the inversions of x^{-1},
for a word that is not reduced as well.  The forward form walks the
reversed word (x = w^{-1}), the inverse form the word (x = w).
Inversion rows are sorted by (height, coordinates), the root order of
:mod:`weyldl.rootdata`, so each row, its label and the row count agree
with the systems that :mod:`weyldl.criterion` builds.

The trusted base is this module, the exact numbers of
:mod:`weyldl.exactnum`, and from :mod:`weyldl.rootdata` the Cartan
matrices, the twists, the closed forms for the number of positive roots
and the record base.  A certificate is hostile input: every field is
checked before it is used, and only a descriptor found valid is
memoized.
"""

from __future__ import annotations

from operator import mul, neg

from .exactnum import _join_d, _sign, integer_parts, qext
from .rootdata import Frozen, build_twist, cartan_matrix, positive_root_count

__all__ = [
    "FORM_FORWARD",
    "FORM_INVERSE",
    "MAX_RANK",
    "CheckResult",
    "check_certificate",
    "slacks",
]

FORM_FORWARD = "lemma-1.11"
FORM_INVERSE = "stmt-1.13a"
MAX_RANK = 8

_setattr = object.__setattr__


class CheckResult(Frozen):
    """A checker verdict: accepted, or the reason for the rejection."""

    __slots__ = ("accepted", "reason", "rows_checked")

    def __init__(self, accepted: bool, reason: str = "", rows_checked: int = 0):
        _setattr(self, "accepted", accepted)
        _setattr(self, "reason", reason)
        _setattr(self, "rows_checked", rows_checked)

    def __bool__(self) -> bool:
        return self.accepted


def slacks(coeffs, qcols, values, q):
    """``(A, B, r, d)``: row k's slack at ``values`` is (A[k] + B[k] sqrt d) / r.

    Row k is the integer tuple ``coeffs[k]`` over the variables, plus q
    times variable u when ``qcols[k] = u >= 0``; -1 there, or a k past
    the end of ``qcols``, marks a pure row.  The values go over one
    common denominator once, so a row is one integer dot product, plus
    its q term in a q-row; d is 1, and B all zero, when the values and q
    are rational.  Values and q that mix sqrt 2 with sqrt 3 raise
    ``IncompatibleRadicandError``.
    """
    ps, qs, r, dp = integer_parts(values)
    (qp,), (qq,), qr, dq = integer_parts([q])
    d = _join_d(dp, dq)
    A = [sum(map(mul, row, ps)) for row in coeffs]
    B = [sum(map(mul, row, qs)) for row in coeffs] if dp != 1 else [0] * len(A)
    if qr != 1:
        A = [qr * a for a in A]
        B = [qr * b for b in B]
    for k, u in enumerate(qcols):
        if u >= 0:
            A[k] += qp * ps[u] + d * qq * qs[u]
            B[k] += qp * qs[u] + qq * ps[u]
    return A, B, r * qr, d


# (family, rank, twist) -> (unit columns, zero, links, index maps by direction),
# stored once the descriptor is known valid and the twist is an int.
_DESCRIPTORS: dict[tuple[str, int, int], tuple] = {}


def _descriptor(family: str, rank: int, twist) -> tuple:
    """The walk's data for a valid (family, rank); raises for an invalid twist.

    Entry a of the links lists (i, C[a][i]) for each neighbour i of node a
    (0-based).  The index maps are the twist's image tuple for direction
    ``"delta"`` and its inverse for ``"delta_inv"``.
    """
    key = (family, rank, twist)
    data = _DESCRIPTORS.get(key) if type(twist) is int else None
    if data is None:
        cartan = cartan_matrix(family, rank)
        delta = build_twist(family, rank, twist)
        units = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
        links = tuple(tuple((i, c) for i, c in enumerate(row) if c and i != a)
                      for a, row in enumerate(cartan))
        maps = {"delta": delta.perm, "delta_inv": delta.inverse_perm}
        data = (units, (0,) * rank, links, maps)
        if type(twist) is int:
            _DESCRIPTORS[key] = data
    return data


def _walk(word, units, zero, links) -> tuple[list, set]:
    """The columns x(alpha_i) and the inversions of x^{-1}, x the product of ``word``."""
    cols, met = list(units), set()
    for a in word:
        a -= 1
        y = cols[a]
        minus_y = tuple(map(neg, y))
        if y > zero:  # a root is positive exactly when its first nonzero coordinate is
            met.add(y)
        else:
            met.remove(minus_y)
        cols[a] = minus_y
        for i, c in links[a]:
            cols[i] = tuple(x - c * z for x, z in zip(cols[i], y))
    return cols, met


def _rows(descriptor: tuple, word, form: str, direction: str) -> tuple[list, list]:
    """The coefficient rows of the certificate's system, and the column of q
    in each q-row; the rows after the q-rows are the inversion roots."""
    units, zero, links, maps = descriptor
    pi = maps[direction]
    if form == FORM_FORWARD:
        cols, met = _walk(reversed(word), units, zero, links)
        images, qcols = cols, [p - 1 for p in pi]
    else:
        cols, met = _walk(word, units, zero, links)
        images, qcols = [cols[p - 1] for p in pi], list(range(len(pi)))
    inversions = sorted(met, key=lambda root: (sum(root), root))
    return [tuple(map(neg, col)) for col in images] + inversions, qcols


def check_certificate(cert) -> CheckResult:
    """Re-derive the certificate's rows from its Cartan matrix and evaluate them exactly."""
    family, rank, word = cert.family, cert.rank, cert.w
    # Only a validated descriptor reaches the memo: an int rank in range (2.0
    # would share the key of 2), a (family, rank) with a root count, a twist.
    if type(rank) is not int or not 1 <= rank <= MAX_RANK:
        return CheckResult(False, f"rank must be in 1..{MAX_RANK}")
    try:
        max_length = positive_root_count(family, rank)
    except ValueError as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if len(word) > max_length:
        return CheckResult(False, "word longer than the longest element")
    try:
        descriptor = _descriptor(family, rank, cert.twist)
    except Exception as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if cert.direction not in ("delta", "delta_inv"):
        return CheckResult(False, f"unknown direction {cert.direction!r}")
    if cert.form not in (FORM_FORWARD, FORM_INVERSE):
        return CheckResult(False, f"unknown form {cert.form!r}")
    if len(cert.mu) != rank:
        return CheckResult(False, "mu has wrong rank")
    if any(i < 1 or i > rank for i in word):
        return CheckResult(False, "word letter out of range")
    # Each coordinate is compatible with q alone; the system sums them all.
    radicands = sorted({qext(x).d for x in (cert.q, *cert.mu.coords)} - {1})
    if len(radicands) > 1:
        return CheckResult(False, "incompatible exact numbers: cannot combine "
                           + " with ".join(f"sqrt({d})" for d in radicands))
    if cert.q.sign() <= 0:
        return CheckResult(False, "q must be positive")

    coeffs, qcols = _rows(descriptor, word, cert.form, cert.direction)
    A, B, _, d = slacks(coeffs, qcols, cert.mu.coords, cert.q)
    for k, (a, b) in enumerate(zip(A, B)):
        sign = _sign(a, b, d)
        if sign <= 0:
            # Only the sign is reported: a hostile mu can make a slack too long to print.
            label = f"q-row i={k + 1}" if k < rank else f"inversion {coeffs[k]}"
            reason = f"violated: {label} (slack {'zero' if sign == 0 else 'negative'})"
            return CheckResult(False, reason, len(coeffs))
    return CheckResult(True, "", len(coeffs))
