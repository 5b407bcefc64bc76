"""Strict-inequality systems behind the affineness criterion, and certification.

Every verdict here is about one kind of object, an :class:`IneqSystem`:
a homogeneous strict system  <c_r, m> > 0  over coweight coordinates,
stored as q, the integer root-coordinate rows and the column of q in
each q-row; labels are formatted only for the rows a report names.
Three builders make its rows from signed root indices, all through one
private row builder:

* forward form, wire tag ``"lemma-1.11"``: for an element w of a twisted
  class with index map pi, the rows  q * mu[pi(i)] - (w^{-1} alpha_i)(mu)
  > 0 for every node i, then  alpha(mu) > 0 on the inversions of w;

* inverse form, wire tag ``"stmt-1.13a"``: the rows
  q * mu[i] - (w alpha_{pi(i)})(mu) > 0, where pi is the index map of the
  class direction (the inverse twist for the tabulated data), then the
  inversions of w^{-1}, read off the forward form's walk made for w^{-1};

* the reduction ("star") system of a tabulated (J, w1) row.

The two certificate forms are exchanged by w -> w^{-1} together with
re-indexing of the q-rows, which the test suite verifies exhaustively at
small rank.  A system either has a strict solution, found by the
fraction-free simplex in :mod:`weyldl.lp`, or a Gordan witness; both
read the system through :func:`weyldl.lp.integer_rows`, the one integer
encoding of its rows with q folded in.  At a given point its one
query, :meth:`IneqSystem.violated`, names the rows that fail: the point
goes over one common denominator once, and each row is one integer dot
product plus its q term, signed exactly.

Forward systems are kept once per process in ``_FORWARD_MEMO``, keyed
like ``lifting._ENGINE_MEMO`` on (Cartan matrix, pi, q, element key), so
every group of one matrix shares them.  A system is immutable, so the
simplex of ``certify_min_element`` and the ``_validate`` of the
constructive route read one object when both reach the same element:
both routes over the 180 classes of rank <= 4 call the builder 387
times and keep 220 systems.  A miss walks once, for w^{-1} and the
inversions of w together (``WeylGroup.invert_with_inversions``).  That is
the one walker of inversion sets: the inverse form, built only for the
catalog's spade rows (5 systems in ``verify_all()``), makes the same walk
for w^{-1}.

The certificate (``Certificate``, ``CertificateError`` and
``FORMAT_VERSION``: the record, its JSON wire format and its parser), the
checker, ``check_certificate``, and its verdict ``CheckResult`` live in
:mod:`weyldl.checker` and are re-exported here.  The checker shares no group
with this module: it walks the certificate's word over its own Dynkin
links, carrying each root's packed coordinates and value at mu, and it
never reads solver state.  Its rows are the rows of the two forms
above, in the same order, and the signs of its slacks are those of
:meth:`IneqSystem.violated`, which takes one dot product per row.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Mapping, Optional

from .checker import (
    FORM_FORWARD,
    FORM_INVERSE,
    FORMAT_VERSION,
    MAX_RANK,
    Certificate,
    CertificateError,
    CheckResult,
    _rational,
    check_certificate,
)
from .conjugacy import DeltaClass, FalsificationError, PiMap, direction_of, restrict_pi
from .exactnum import SQRT2, SQRT3, QuadExt, _join_d, _make, _sign, integer_parts, qext
from .lp import _solve_dual, integer_rows
from .rootdata import Frozen, Twist
from .weyl import WeylElt, WeylGroup

__all__ = [
    "FORM_FORWARD",
    "FORM_INVERSE",
    "IneqSystem",
    "Certificate",
    "CheckResult",
    "CertificateError",
    "build_forward_system",
    "build_inverse_system",
    "build_star_system",
    "feasible",
    "check_certificate",
    "certify_min_element",
    "minimal_q",
    "admissible_q",
    "class_map",
    "parse_q_literal",
    "FORMAT_VERSION",
]

_setattr = object.__setattr__


class IneqSystem(Frozen):
    """A homogeneous strict system  <c_r, m> > 0  over coweight coordinates.

    The variables are ``varset`` (1-based node indices, sorted).  Row r is
    the integer tuple ``coeffs[r]`` on them, plus q*m_u when
    ``qcols[r] = u >= 0`` (a q-row; -1 marks a pure row).  ``subjects[r]``
    is what the row stands for, from which its label is formatted on
    demand: the node i of a q-row, the root of an inversion row, or the
    label itself.  Row order is fixed by the builders, and the solver's
    pivots depend on it.
    """

    __slots__ = ("varset", "q", "coeffs", "qcols", "subjects")

    def __init__(
        self,
        varset: tuple[int, ...],
        q: QuadExt,
        coeffs: tuple[tuple[int, ...], ...],
        qcols: tuple[int, ...],
        subjects: tuple,
    ):
        _setattr(self, "varset", varset)
        _setattr(self, "q", q)
        _setattr(self, "coeffs", coeffs)
        _setattr(self, "qcols", qcols)
        _setattr(self, "subjects", subjects)

    def _label(self, r: int) -> str:
        subject = self.subjects[r]
        if self.qcols[r] >= 0:
            return f"q-row i={subject}"
        return f"inversion {subject}" if type(subject) is tuple else subject

    def _slacks(self, point: Mapping[int, QuadExt | int]):
        """``(A, B, r, d)``: row k's slack at ``point`` is (A[k] + B[k] sqrt d) / r.

        The values go over one common denominator once, so a row is one
        integer dot product, plus its q term in a q-row; d is 1, and B all
        zero, when the values and q are rational.  Values and q that mix
        sqrt 2 with sqrt 3 raise ``IncompatibleRadicandError``.
        """
        ps, qs, r, dp = integer_parts([point.get(i, 0) for i in self.varset])
        q = self.q  # in lowest terms, as every QuadExt is
        qp, qq, qr = q._p, q._q, q._r
        d = _join_d(dp, q._d)
        A = [sum(map(mul, row, ps)) for row in self.coeffs]
        B = [sum(map(mul, row, qs)) for row in self.coeffs] if dp != 1 else [0] * len(A)
        if qr != 1:
            A = [qr * a for a in A]
            B = [qr * b for b in B]
        for k, u in enumerate(self.qcols):
            if u >= 0:
                A[k] += qp * ps[u] + d * qq * qs[u]
                B[k] += qp * qs[u] + qq * ps[u]
        return A, B, r * qr, d

    def evaluate(self, point: Mapping[int, QuadExt]) -> list[QuadExt]:
        """Slack of every row at a point given on the variable set."""
        A, B, r, d = self._slacks(point)
        return [_make(a, b, r, d) for a, b in zip(A, B)]

    def violated(self, point: Mapping[int, QuadExt | int]) -> list[tuple[str, int]]:
        """(label, sign) of each row whose slack at ``point`` is zero or negative.

        ``point`` maps variables to exact numbers (int, Fraction or QuadExt);
        a variable it leaves out reads 0.
        """
        A, B, _, d = self._slacks(point)
        if d == 1:
            return [(self._label(k), (a > 0) - (a < 0)) for k, a in enumerate(A) if a <= 0]
        return [(self._label(k), sign) for k, (a, b) in enumerate(zip(A, B))
                if (sign := _sign(a, b, d)) <= 0]


def _system(
    W: WeylGroup,
    varset: tuple[int, ...],
    q: QuadExt,
    q_rows: Iterable[tuple[int, int, int]],
    pure_rows: Iterable[tuple[object, int]],
) -> IneqSystem:
    """Rows from signed root indices t, with beta_t the root of index t.

    Each (i, u, t) in ``q_rows`` is the row  q*m_u - beta_t(m) > 0 about
    node i; each (subject, t) in ``pure_rows`` is beta_t(m) > 0.  The
    coefficients are the group's integer tuples of root coordinates
    (``signed_to_coords``), restricted to the variables: -beta_t for a
    q-row, whose q sits in the column of m_u, and beta_t for a pure row.
    """
    if varset == W.system.nodes:
        coords = W.signed_to_coords
    else:
        cols = [j - 1 for j in varset]
        # itemgetter of one index returns the item, not a tuple.
        pick = itemgetter(*cols) if len(cols) > 1 else lambda c: tuple(c[k] for k in cols)

        def coords(t: int) -> tuple[int, ...]:
            return pick(W.signed_to_coords(t))

    coeffs, qcols, subjects = [], [], []
    for i, u, t in q_rows:
        coeffs.append(coords(-t))
        qcols.append(varset.index(u))
        subjects.append(i)
    for subject, t in pure_rows:
        coeffs.append(coords(t))
        qcols.append(-1)
        subjects.append(subject)
    return IneqSystem(varset, qext(q), tuple(coeffs), tuple(qcols), tuple(subjects))


_FORWARD_MEMO: dict[tuple, IneqSystem] = {}


def build_forward_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
) -> IneqSystem:
    """Forward-form system for w in a pi-twisted class of W.

    Memoized per process in ``_FORWARD_MEMO`` on (system key, pi, q, key
    of w), as ``lifting._ENGINE_MEMO`` is: every group of one Cartan
    matrix shares the entries, and a pi that does not stabilize the nodes
    raises ValueError before the memo is read.  A system is immutable, so
    every caller may hold the one object.  On a miss, one walk
    (``invert_with_inversions``) gives w^{-1} for the q-rows and the
    inversions of w for the pure rows.
    """
    varset = W.system.nodes
    pi = restrict_pi(pi, varset)
    q = qext(q)
    key = (W.system.key, tuple(sorted(pi.items())), q, w.key)
    system = _FORWARD_MEMO.get(key)
    if system is None:
        winv, inversions = W.invert_with_inversions(w)
        system = _FORWARD_MEMO[key] = _system(
            W, varset, q,
            [(i, pi[i], W.act_on_simple(winv, i)) for i in varset],
            [(W.roots[p], p + 1) for p in inversions],
        )
    return system


def build_inverse_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
) -> IneqSystem:
    """Inverse-form system for w; pi is the class-direction index map.

    Its pure rows are the inversions of w^{-1}, read off the walk that
    ``build_forward_system`` makes, ``invert_with_inversions``, here of
    w^{-1}.  Only the catalog's spade rows build this form.
    """
    varset = W.system.nodes
    pi = restrict_pi(pi, varset)
    return _system(
        W, varset, q,
        [(i, i, W.act_on_simple(w, pi[i])) for i in varset],
        [(W.roots[p], p + 1) for p in W.invert_with_inversions(W.invert(w))[1]],
    )


def build_star_system(
    W: WeylGroup,
    K: frozenset[int],
    w1: WeylElt,
    pi: PiMap,
    q: QuadExt,
) -> IneqSystem:
    """The reduction condition's system on the variables outside K.

    K = I(J, w1, pi) is the fixed node set of the step (J, w1), as
    ``place_row`` gives it; the system reads J only through K.  Variables
    are the nodes of W not in K; rows are q*m_i - (w1 alpha_{pi(i)})(m
    restricted) > 0 for i outside K, then positivity m_i > 0 (the row of
    the simple root alpha_i) of every variable.
    """
    pi = restrict_pi(pi, W.system.nodes)
    varset = tuple(i for i in W.system.nodes if i not in K)
    return _system(
        W, varset, q,
        [(i, i, W.act_on_simple(w1, pi[i])) for i in varset],
        [(f"positivity m_{i}", W.simple_pos[i - 1] + 1) for i in varset],
    )


def feasible(system: IneqSystem) -> Optional[tuple[QuadExt, ...]]:
    """A strict solution, one exact number per variable in ``varset`` order, or None.

    The simplex reads the system's rows as :func:`weyldl.lp.integer_rows`
    encodes them; the point is re-checked against the system before it
    is returned.  On a system over all the nodes, as the forward and
    inverse forms are, it is mu itself; read a star system's point with
    ``dict(zip(system.varset, point))``.
    """
    point, _ = _solve_dual(*integer_rows(system), len(system.varset))
    if point is None:
        return None
    if system.violated(dict(zip(system.varset, point))):
        raise AssertionError("simplex returned a non-strict point")
    return point


def _minimal_square(family: str, twist: int) -> int:
    """The square of the smallest admissible q for the type: 2, 3 or 4."""
    if twist == 2 and family in ("B", "F"):
        return 2
    if twist == 2 and family == "G":
        return 3
    return 4


_MINIMAL_Q = {2: SQRT2, 3: SQRT3, 4: qext(2)}


def minimal_q(family: str, twist: int) -> QuadExt:
    """Smallest admissible q for the type: 2, sqrt 2, or sqrt 3."""
    return _MINIMAL_Q[_minimal_square(family, twist)]


def admissible_q(family: str, rank: int, twist: int, q) -> QuadExt:
    """``q`` as an exact number, once the type and q are in the range of the theorem.

    Raises ValueError for a rank outside 1..MAX_RANK, the checker's range,
    and for a q below the type's minimum, so that input out of range never
    reaches a search whose failure would read as a falsification.  The
    minimum is 2, sqrt 2 or sqrt 3, so q is compared through its square,
    which is exact also for a q over another square root: for q = (p + s
    sqrt d) / r and the minimum's square m, q^2 - m is (p^2 + d s^2 - m r^2
    + 2 p s sqrt d) / r^2, whose sign is decided in ints.
    """
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}")
    q, m = qext(q), _minimal_square(family, twist)
    p, s, r, d = q._p, q._q, q._r, q._d
    if _sign(p, s, d) <= 0 or _sign(p * p + d * s * s - m * r * r, 2 * p * s, d) < 0:
        raise ValueError(f"q below the minimal value for {family}{rank} twist {twist}")
    return q


def parse_q_literal(text: str) -> QuadExt:
    """Parse CLI q literals: p, p/q, sqrt2, sqrt3, or p or p/q times sqrt2 or sqrt3.

    As in '2', '3/2', 'sqrt2', '2*sqrt2', '3/2*sqrt3', with ASCII digits
    and spaces ignored; the rational is read by the certificate's reader
    of "p" and "p/q".  Anything else, a zero denominator, or a number too
    long for ``int`` raises ValueError before any work.
    """
    head, star, tail = text.strip().replace(" ", "").rpartition("*")
    if tail in ("sqrt2", "sqrt3"):
        rational, d = head if star else "1", int(tail[-1])
    else:
        rational, d = "" if star else tail, 1
    try:
        value = Fraction(*_rational(rational))
    except ValueError:
        raise ValueError(f"bad q literal {text!r}") from None
    return QuadExt(value) if d == 1 else QuadExt(0, value, d)


def class_map(W: WeylGroup, twist: Twist, dclass: DeltaClass) -> tuple[PiMap, str]:
    """The index map of ``dclass`` and the direction it goes on the wire as.

    Raises ValueError for a class of another group than W, or of another
    twist than ``twist`` (``direction_of``).
    """
    if dclass.group_key != W.system.key:
        raise ValueError(f"the class is not a class of {W.system.family}{W.system.rank}")
    pi = dict(dclass.pi)
    return pi, direction_of(twist, pi)


def certify_min_element(
    W: WeylGroup,
    twist: Twist,
    dclass: DeltaClass,
    q: QuadExt,
) -> Certificate:
    """Certificate for one twisted class via the forward-form search.

    Walks the minimal-length elements of the class in canonical
    (length, word) order, solving the forward system for each, and
    returns the first feasible witness re-validated by the independent
    checker.  Exhaustion contradicts the existence theorem and raises
    FalsificationError.  A rank outside the checker's range, a q below
    the type's minimum, and a class of another group or twist raise
    ValueError before any solving.  The system and the certificate's
    direction come from the class's own index map (``class_map``).
    """
    family, rank = W.system.family, W.system.rank
    q = admissible_q(family, rank, twist.order, q)
    pi, direction = class_map(W, twist, dclass)
    for w in dclass.minimal:
        system = build_forward_system(W, w, pi, q)
        mu = feasible(system)
        if mu is None:
            continue
        cert = Certificate(
            family=family,
            rank=rank,
            twist=twist.order,
            direction=direction,
            q=q,
            w=w.word,
            form=FORM_FORWARD,
            mu=mu,
        )
        result = check_certificate(cert)
        if not result:
            raise FalsificationError(
                f"solver point rejected by the checker: {result.reason}"
            )
        return cert
    raise FalsificationError(
        f"no minimal element of class rep {dclass.representative.word} admits a witness "
        f"at q={q}; this contradicts the existence theorem"
    )
