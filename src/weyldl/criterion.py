"""Strict-inequality systems behind the affineness criterion, and certificates.

Every verdict here is about one kind of object, an :class:`IneqSystem`:
a homogeneous strict system  <c_r, m> > 0  over coweight coordinates,
stored as exact ``QuadExt`` rows with a label each.  Three builders make
its rows from signed root indices, all through one private row builder:

* forward form, wire tag ``"lemma-1.11"``: for an element w of a twisted
  class with index map pi, the rows  q * mu[pi(i)] - (w^{-1} alpha_i)(mu)
  > 0 for every node i, then  alpha(mu) > 0 on the inversions of w;

* inverse form, wire tag ``"stmt-1.13a"``: the rows
  q * mu[i] - (w alpha_{pi(i)})(mu) > 0, where pi is the index map of the
  class direction (the inverse twist for the tabulated data), then the
  inversions of w^{-1};

* the reduction ("star") system of a tabulated (J, w1) row.

The two certificate forms are exchanged by w -> w^{-1} together with
re-indexing of the q-rows, which the test suite verifies exhaustively at
small rank.  A system either has a strict solution, found by the exact
simplex in :mod:`weyldl.lp`, or a Gordan witness; at a given point its
one query, :meth:`IneqSystem.violated`, names the rows that fail.

The checker shares only root data with the rest of the process: the group
of each (family, rank) from :func:`weyldl.weyl.weyl_group`, with its
reflection tables, built once per Cartan matrix.  For every certificate
it rebuilds the twist, the element, the system and its evaluation, and
it never reads solver state.

``IneqSystem``, ``Certificate`` and ``CheckResult`` are plain slotted
classes with written-out constructors, and their equality, hashing and
repr come from :class:`weyldl.rootdata.Record`, not ``dataclasses``:
that module alone cost about 25 ms of each cold start (it imports
``inspect``, and each decorated class compiles its methods at import),
against about 0.07 s for all 544 verdicts of the benchmark's ``check``
pass.  See :mod:`weyldl.rootdata`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Optional

from .conjugacy import DeltaClass, FalsificationError, PiMap, pi_of, restrict_pi
from .exactnum import QuadExt, SQRT2, SQRT3, ZERO, dot, qext
from .lp import solve_strict
from .rootdata import Coweight, Frozen, Twist, build_twist, positive_root_count
from .weyl import WeylElt, WeylGroup, weyl_group

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
    "parse_q_literal",
    "FORMAT_VERSION",
]

FORM_FORWARD = "lemma-1.11"
FORM_INVERSE = "stmt-1.13a"
FORMAT_VERSION = 1
MAX_RANK = 8


_setattr = object.__setattr__


class CertificateError(ValueError):
    """Structurally malformed certificate data."""


class IneqSystem(Frozen):
    """A homogeneous strict system  <c_r, m> > 0  over coweight coordinates.

    ``rows`` holds one exact coefficient tuple per row on the variable set
    ``varset`` (1-based node indices, sorted), with q already folded into
    the q-rows; ``labels`` names each row for reporting.  Row order is
    fixed by the builders, and the solver's pivots depend on it.
    """

    __slots__ = ("varset", "rows", "labels")

    def __init__(
        self,
        varset: tuple[int, ...],
        rows: tuple[tuple[QuadExt, ...], ...],
        labels: tuple[str, ...],
    ):
        _setattr(self, "varset", varset)
        _setattr(self, "rows", rows)
        _setattr(self, "labels", labels)

    def evaluate(self, point: dict[int, QuadExt]) -> list[QuadExt]:
        """Slack of every row at a point given on the variable set."""
        vec = [point.get(i, ZERO) for i in self.varset]
        return [dot(row, vec) for row in self.rows]

    def violated(self, point: dict[int, QuadExt]) -> list[tuple[str, int]]:
        """(label, sign) of each row whose slack at ``point`` is zero or negative."""
        return [
            (label, sign)
            for label, s in zip(self.labels, self.evaluate(point))
            if (sign := s.sign()) <= 0
        ]


def _system(
    W: WeylGroup,
    varset: tuple[int, ...],
    q: QuadExt,
    q_rows: Iterable[tuple[int, int, int]],
    pure_rows: Iterable[tuple[str, int]],
) -> IneqSystem:
    """Rows from signed root indices t, with beta_t the root of index t.

    Each (i, u, t) in ``q_rows`` is the row  q*m_u - beta_t(m) > 0,
    labelled by node i; each (label, t) in ``pure_rows`` is beta_t(m) > 0.
    The coefficients come from the group's table of exact root
    coordinates: on all nodes a pure row is the table's tuple itself, and
    a q-row is the tuple of -beta_t with the one cell of m_u changed.
    """
    q = qext(q)
    cols = None if varset == W.system.nodes else [j - 1 for j in varset]

    def coords(t: int) -> tuple[QuadExt, ...]:
        c = W.signed_to_coords(t)
        return c if cols is None else tuple(c[k] for k in cols)

    rows, labels = [], []
    for i, u, t in q_rows:
        row = list(coords(-t))
        k = varset.index(u)
        row[k] = q + row[k]
        rows.append(tuple(row))
        labels.append(f"q-row i={i}")
    for label, t in pure_rows:
        rows.append(coords(t))
        labels.append(label)
    return IneqSystem(varset, tuple(rows), tuple(labels))


def _inversion_rows(W: WeylGroup, u: WeylElt) -> list[tuple[str, int]]:
    """The pure rows of the inversions of u^{-1}, in root order."""
    return [(f"inversion {W.roots[p]}", p + 1) for p in W.inversions_of_inverse(u)]


def build_forward_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
) -> IneqSystem:
    """Forward-form system for w in a pi-twisted class of W."""
    varset = W.system.nodes
    pi = restrict_pi(pi, varset)
    winv = W.invert(w)
    return _system(
        W, varset, q,
        [(i, pi[i], W.act_on_simple(winv, i)) for i in varset],
        _inversion_rows(W, winv),
    )


def build_inverse_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
) -> IneqSystem:
    """Inverse-form system for w; pi is the class-direction index map."""
    varset = W.system.nodes
    pi = restrict_pi(pi, varset)
    return _system(
        W, varset, q,
        [(i, i, W.act_on_simple(w, pi[i])) for i in varset],
        _inversion_rows(W, w),
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
    ``place_row`` or ``compute_I_J_x`` gives it; the system reads J only
    through K.  Variables are the nodes of W not in K; rows are
    q*m_i - (w1 alpha_{pi(i)})(m restricted) > 0 for i outside K, then
    positivity m_i > 0 (the row of the simple root alpha_i) of every variable.
    """
    pi = restrict_pi(pi, W.system.nodes)
    varset = tuple(i for i in W.system.nodes if i not in K)
    return _system(
        W, varset, q,
        [(i, i, W.act_on_simple(w1, pi[i])) for i in varset],
        [(f"positivity m_{i}", W.simple_pos[i - 1] + 1) for i in varset],
    )


def feasible(system: IneqSystem) -> Optional[Coweight]:
    """A strict solution as a coweight on the ambient rank, or None.

    Coordinates off the variable set come back zero.  The rank is taken
    as max node appearing; callers embed as needed.
    """
    point = solve_strict(system.rows, len(system.varset))
    if point is None:
        return None
    rank = max(system.varset) if system.varset else 0
    coords = [qext(0)] * rank
    for i, x in zip(system.varset, point):
        coords[i - 1] = x
    return Coweight(tuple(coords))


# -- certificates -------------------------------------------------------------


class Certificate(Frozen):
    """Checkable witness (group, direction, q, w, form, mu)."""

    __slots__ = ("family", "rank", "twist", "direction", "q", "w", "form", "mu")

    def __init__(
        self,
        family: str,
        rank: int,
        twist: int,
        direction: str,
        q: QuadExt,
        w: tuple[int, ...],
        form: str,
        mu: Coweight,
    ):
        _setattr(self, "family", family)
        _setattr(self, "rank", rank)
        _setattr(self, "twist", twist)
        _setattr(self, "direction", direction)
        _setattr(self, "q", q)
        _setattr(self, "w", w)
        _setattr(self, "form", form)
        _setattr(self, "mu", mu)

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "group": {"family": self.family, "rank": self.rank, "twist": self.twist},
            "direction": self.direction,
            "q": self.q.to_json(),
            "w": list(self.w),
            "form": self.form,
            "mu": self.mu.to_json(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Certificate":
        try:
            if obj["format_version"] != FORMAT_VERSION:
                raise CertificateError(f"unsupported format_version {obj['format_version']!r}")
            grp = obj["group"]
            cert = cls(
                family=grp["family"],
                rank=_strict_int(grp["rank"]),
                twist=_strict_int(grp["twist"]),
                direction=obj["direction"],
                q=QuadExt.from_json(obj["q"]),
                w=tuple(_strict_int(x) for x in obj["w"]),
                form=obj["form"],
                mu=Coweight.from_json(obj["mu"]),
            )
        except CertificateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc
        return cert

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # ValueError: also Python's digit limit
            raise CertificateError(f"not JSON: {exc}") from exc
        return cls.from_json_dict(obj)


def _strict_int(value) -> int:
    """``value`` itself when it is exactly an int: no bool, float or numeric string."""
    if type(value) is not int:
        raise CertificateError(f"expected an integer, got {type(value).__name__}")
    return value


class CheckResult(Frozen):
    """A checker verdict: accepted, or the reason for the rejection."""

    __slots__ = ("accepted", "reason", "rows_checked")

    def __init__(self, accepted: bool, reason: str = "", rows_checked: int = 0):
        _setattr(self, "accepted", accepted)
        _setattr(self, "reason", reason)
        _setattr(self, "rows_checked", rows_checked)

    def __bool__(self) -> bool:
        return self.accepted


def check_certificate(cert: Certificate) -> CheckResult:
    """Re-derive the certificate's system from the group data and evaluate it."""
    # Only a validated type reaches the group memo: an int rank in range
    # (2.0 would share the key of 2), then a (family, rank) with a root count.
    if type(cert.rank) is not int or not 1 <= cert.rank <= MAX_RANK:
        return CheckResult(False, f"rank must be in 1..{MAX_RANK}")
    try:
        max_length = positive_root_count(cert.family, cert.rank)
    except ValueError as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if len(cert.w) > max_length:
        return CheckResult(False, "word longer than the longest element")
    try:
        W = weyl_group(cert.family, cert.rank)
        twist = build_twist(cert.family, cert.rank, cert.twist)
    except Exception as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if cert.direction not in ("delta", "delta_inv"):
        return CheckResult(False, f"unknown direction {cert.direction!r}")
    if cert.form not in (FORM_FORWARD, FORM_INVERSE):
        return CheckResult(False, f"unknown form {cert.form!r}")
    if len(cert.mu) != cert.rank:
        return CheckResult(False, "mu has wrong rank")
    if any(i < 1 or i > cert.rank for i in cert.w):
        return CheckResult(False, "word letter out of range")
    # Each coordinate is compatible with q alone; the system sums them all.
    radicands = sorted({qext(x).d for x in (cert.q, *cert.mu.coords)} - {1})
    if len(radicands) > 1:
        return CheckResult(False, "incompatible exact numbers: cannot combine "
                           + " with ".join(f"sqrt({d})" for d in radicands))
    if cert.q.sign() <= 0:
        return CheckResult(False, "q must be positive")

    pi = pi_of(twist, cert.direction)
    w = W.from_word(cert.w)
    if cert.form == FORM_FORWARD:
        system = build_forward_system(W, w, pi, cert.q)
    else:
        system = build_inverse_system(W, w, pi, cert.q)
    violated = system.violated({i: cert.mu[i] for i in system.varset})
    if violated:
        # Only the sign is reported: a hostile mu can make a slack too long to print.
        label, sign = violated[0]
        reason = f"violated: {label} (slack {'zero' if sign == 0 else 'negative'})"
        return CheckResult(False, reason, len(system.rows))
    return CheckResult(True, "", len(system.rows))


def minimal_q(family: str, twist: int) -> QuadExt:
    """Smallest admissible q for the type: 2, sqrt 2, or sqrt 3."""
    if twist == 2 and family in ("B", "F"):
        return SQRT2
    if twist == 2 and family == "G":
        return SQRT3
    return qext(2)


def admissible_q(family: str, rank: int, twist: int, q) -> QuadExt:
    """``q`` as an exact number, once the type and q are in the range of the theorem.

    Raises ValueError for a rank outside 1..MAX_RANK, the checker's range,
    and for a q below the type's minimum, so that input out of range never
    reaches a search whose failure would read as a falsification.  The
    minimum is 2, sqrt 2 or sqrt 3, so q is compared through its square,
    which is exact also for a q over another square root.
    """
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}")
    q, low = qext(q), minimal_q(family, twist)
    if q.sign() <= 0 or q * q < low * low:
        raise ValueError(f"q below the minimal value for {family}{rank} twist {twist}")
    return q


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_q_literal(text: str) -> QuadExt:
    """Parse CLI q literals: p, p/q, sqrt2, sqrt3, or p or p/q times sqrt2 or sqrt3.

    As in '2', '3/2', 'sqrt2', '2*sqrt2', '3/2*sqrt3', with ASCII digits
    and spaces ignored.  Anything else, a zero denominator, or a number
    too long for ``int`` raises ValueError before any work.
    """
    head, star, tail = text.strip().replace(" ", "").rpartition("*")
    if tail in ("sqrt2", "sqrt3"):
        rational, d = head if star else "1", int(tail[-1])
    else:
        rational, d = "" if star else tail, 1
    match = _RATIONAL.fullmatch(rational)
    try:
        value = Fraction(int(match.group(1)), int(match.group(2) or 1))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ValueError(f"bad q literal {text!r}") from None
    return QuadExt(value) if d == 1 else QuadExt(0, value, d)


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
    FalsificationError.  A rank outside the checker's range and a q below
    the type's minimum raise ValueError before any solving.
    """
    family, rank = W.system.family, W.system.rank
    q = admissible_q(family, rank, twist.order, q)
    pi = pi_of(twist, dclass.direction)
    for w in dclass.minimal:
        system = build_forward_system(W, w, pi, q)
        mu = feasible(system)
        if mu is None:
            continue
        cert = Certificate(
            family=family,
            rank=rank,
            twist=twist.order,
            direction=dclass.direction,
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
