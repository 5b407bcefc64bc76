"""Strict-inequality systems behind the affineness criterion, and certificates.

Two certificate forms exist, distinguished by a wire tag:

* ``"lemma-1.11"`` (forward form): for an element w of a twisted class
  with index map pi, the system demands  alpha(mu) > 0 on the
  inversions of w, plus  q * mu[pi(i)] - (w^{-1} alpha_i)(mu) > 0 for
  every node i.

* ``"stmt-1.13a"`` (inverse form): pure constraints over the inversions
  of w^{-1}, plus  q * mu[i] - (w alpha_{pi(i)})(mu) > 0, where pi is
  the index map of the class direction (the inverse twist for the
  tabulated data).

The two are exchanged by w -> w^{-1} together with re-indexing of the
q-rows, which the test suite verifies exhaustively at small rank.

Feasibility is decided by the exact simplex in :mod:`weyldl.lp`; the
checker rebuilds systems from scratch and never reuses solver state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .conjugacy import DeltaClass, FalsificationError, PiMap, pi_of, restrict_pi
from .exactnum import QuadExt, SQRT2, SQRT3, qext
from .lp import solve_strict
from .rootdata import (
    Coweight,
    Twist,
    build_root_system,
    build_twist,
    positive_root_count,
)
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
    "parse_q_literal",
    "FORMAT_VERSION",
]

FORM_FORWARD = "lemma-1.11"
FORM_INVERSE = "stmt-1.13a"
FORMAT_VERSION = 1
MAX_RANK = 8


class CertificateError(ValueError):
    """Structurally malformed certificate data."""


@dataclass(frozen=True)
class IneqSystem:
    """Rows of a strict system over coweight coordinates.

    ``q_rows`` are pairs (u, v) meaning  q*<u, m> - <v, m> > 0; pure
    rows are single tuples c meaning <c, m> > 0.  All tuples live on
    the variable set ``varset`` (1-based node indices, sorted); labels
    parallel the rows for reporting.
    """

    varset: tuple[int, ...]
    q: QuadExt
    q_rows: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    pure_rows: tuple[tuple[Fraction, ...], ...]
    q_labels: tuple[str, ...] = ()
    pure_labels: tuple[str, ...] = ()

    def combined_rows(self) -> list[tuple[QuadExt, ...]]:
        """Collapse q-rows at the fixed q; pure rows pass through."""
        out: list[tuple[QuadExt, ...]] = []
        for u, v in self.q_rows:
            out.append(tuple(self.q * a - b for a, b in zip(u, v)))
        for c in self.pure_rows:
            out.append(tuple(qext(x) for x in c))
        return out

    def labels(self) -> list[str]:
        return list(self.q_labels) + list(self.pure_labels)

    def evaluate(self, point: dict[int, QuadExt]) -> list[QuadExt]:
        """Slack of every row at a point given on the variable set."""
        vec = [qext(point.get(i, 0)) for i in self.varset]
        out = []
        for row in self.combined_rows():
            s = qext(0)
            for c, x in zip(row, vec):
                s = s + c * x
            out.append(s)
        return out

    def satisfied_by(self, point: dict[int, QuadExt]) -> bool:
        return all(s.sign() > 0 for s in self.evaluate(point))


def _restrict(coords: Sequence[int], varset: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(coords[i - 1]) for i in varset)


def _unit(i: int, varset: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in varset)


def build_forward_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
    nodes: Optional[Iterable[int]] = None,
) -> IneqSystem:
    """Forward-form system for w in a pi-twisted class on ``nodes``."""
    varset = tuple(sorted(nodes)) if nodes is not None else tuple(range(1, W.rank + 1))
    pi = restrict_pi(pi, varset)
    winv = W.invert(w)
    q_rows = []
    q_labels = []
    for i in varset:
        u = _unit(pi[i], varset)
        v = _restrict(W.signed_to_coords(W.act_on_simple(winv, i)), varset)
        q_rows.append((u, v))
        q_labels.append(f"q-row i={i}")
    pure_rows = []
    pure_labels = []
    for p in W.inversions(w):
        pure_rows.append(_restrict(W.roots[p], varset))
        pure_labels.append(f"inversion {W.roots[p]}")
    return IneqSystem(
        varset=varset,
        q=qext(q),
        q_rows=tuple(q_rows),
        pure_rows=tuple(pure_rows),
        q_labels=tuple(q_labels),
        pure_labels=tuple(pure_labels),
    )


def build_inverse_system(
    W: WeylGroup,
    w: WeylElt,
    pi: PiMap,
    q: QuadExt,
    nodes: Optional[Iterable[int]] = None,
) -> IneqSystem:
    """Inverse-form system for w; pi is the class-direction index map."""
    varset = tuple(sorted(nodes)) if nodes is not None else tuple(range(1, W.rank + 1))
    pi = restrict_pi(pi, varset)
    q_rows = []
    q_labels = []
    for i in varset:
        u = _unit(i, varset)
        v = _restrict(W.signed_to_coords(W.act_on_simple(w, pi[i])), varset)
        q_rows.append((u, v))
        q_labels.append(f"q-row i={i}")
    pure_rows = []
    pure_labels = []
    winv = W.invert(w)
    for p in W.inversions(winv):
        pure_rows.append(_restrict(W.roots[p], varset))
        pure_labels.append(f"inversion {W.roots[p]}")
    return IneqSystem(
        varset=varset,
        q=qext(q),
        q_rows=tuple(q_rows),
        pure_rows=tuple(pure_rows),
        q_labels=tuple(q_labels),
        pure_labels=tuple(pure_labels),
    )


def build_star_system(
    W: WeylGroup,
    J: Iterable[int],
    w1: WeylElt,
    pi: PiMap,
    q: QuadExt,
    K: Optional[frozenset[int]] = None,
    nodes: Optional[Iterable[int]] = None,
) -> IneqSystem:
    """The reduction condition's system on the variables outside K.

    Variables are the active nodes not in K = I(J, w1, pi); rows are
    q*m_i - (w1 alpha_{pi(i)})(m restricted) > 0 for i outside K, plus
    positivity of every variable.
    """
    from .conjugacy import compute_I_J_x

    active = tuple(sorted(nodes)) if nodes is not None else tuple(range(1, W.rank + 1))
    pi = restrict_pi(pi, active)
    if K is None:
        K = compute_I_J_x(W, pi, J, w1)
    varset = tuple(i for i in active if i not in K)
    q_rows = []
    q_labels = []
    for i in varset:
        u = _unit(i, varset)
        v = _restrict(W.signed_to_coords(W.act_on_simple(w1, pi[i])), varset)
        q_rows.append((u, v))
        q_labels.append(f"q-row i={i}")
    pure_rows = tuple(_unit(i, varset) for i in varset)
    pure_labels = tuple(f"positivity m_{i}" for i in varset)
    return IneqSystem(
        varset=varset,
        q=qext(q),
        q_rows=tuple(q_rows),
        pure_rows=pure_rows,
        q_labels=tuple(q_labels),
        pure_labels=pure_labels,
    )


def feasible(system: IneqSystem) -> Optional[Coweight]:
    """A strict solution as a coweight on the ambient rank, or None.

    Coordinates off the variable set come back zero.  The rank is taken
    as max node appearing; callers embed as needed.
    """
    rows = system.combined_rows()
    point = solve_strict(rows, len(system.varset))
    if point is None:
        return None
    rank = max(system.varset) if system.varset else 0
    coords = [qext(0)] * rank
    for i, x in zip(system.varset, point):
        coords[i - 1] = x
    return Coweight(tuple(coords))


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Checkable witness (group, direction, q, w, form, mu)."""

    family: str
    rank: int
    twist: int
    direction: str
    q: QuadExt
    w: tuple[int, ...]
    form: str
    mu: Coweight

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


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str = ""
    rows_checked: int = 0

    def __bool__(self) -> bool:
        return self.accepted


def _group_context(family: str, rank: int, twist: int) -> tuple[WeylGroup, Twist]:
    system = build_root_system(family, rank)
    return WeylGroup(system), build_twist(family, rank, twist)


def check_certificate(cert: Certificate) -> CheckResult:
    """Re-derive the certificate's system from scratch and evaluate it."""
    if not 1 <= cert.rank <= MAX_RANK:
        return CheckResult(False, f"rank must be in 1..{MAX_RANK}")
    try:
        max_length = positive_root_count(cert.family, cert.rank)
    except ValueError as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if len(cert.w) > max_length:
        return CheckResult(False, "word longer than the longest element")
    try:
        W, twist = _group_context(cert.family, cert.rank, cert.twist)
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
    try:
        for x in cert.mu.coords:
            _ = (x + cert.q)  # surfaces incompatible radicands
    except Exception as exc:
        return CheckResult(False, f"incompatible exact numbers: {exc}")
    if cert.q.sign() <= 0:
        return CheckResult(False, "q must be positive")

    pi = pi_of(twist, cert.direction)
    w = W.from_word(cert.w)
    if cert.form == FORM_FORWARD:
        system = build_forward_system(W, w, pi, cert.q)
    else:
        system = build_inverse_system(W, w, pi, cert.q)
    point = {i: cert.mu[i] for i in system.varset}
    slacks = system.evaluate(point)
    for label, s in zip(system.labels(), slacks):
        if s.sign() <= 0:
            # Never format the slack: a hostile mu can make it too long to print.
            sign = "zero" if s.sign() == 0 else "negative"
            return CheckResult(False, f"violated: {label} (slack {sign})", len(slacks))
    return CheckResult(True, "", len(slacks))


def minimal_q(family: str, twist: int) -> QuadExt:
    """Smallest admissible q for the type: 2, sqrt 2, or sqrt 3."""
    if twist == 2 and family in ("B", "F"):
        return SQRT2
    if twist == 2 and family == "G":
        return SQRT3
    return qext(2)


def parse_q_literal(text: str) -> QuadExt:
    """Parse CLI q literals: '2', '3/2', 'sqrt2', '2*sqrt2', '3/2*sqrt3'."""
    s = text.strip().replace(" ", "")
    try:
        mult = Fraction(1)
        if "*" in s:
            head, _, tail = s.partition("*")
            mult = Fraction(head)
            s = tail
        if s in ("sqrt2", "sqrt3"):
            return QuadExt(0, mult, int(s[-1]))
        if mult == 1:
            return QuadExt(Fraction(s))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"bad q literal {text!r}")


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
    FalsificationError.
    """
    family, rank = W.system.key
    q = qext(q)
    if q < minimal_q(family, twist.order):
        raise ValueError(f"q below the minimal value for {family}{rank} twist {twist.order}")
    pi = pi_of(twist, dclass.direction)
    for w in dclass.min_elements():
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
