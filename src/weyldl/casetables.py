"""The verifier of the bundled catalog: row placement and subchecks (i)-(vi).

The rows themselves live in ``catalog``.  ``place_row`` places a row's
reduction step (J, w1) in its group, and ``verify_case`` runs the row's
subchecks, each derived from (J, w1, twist) by group action: the
inequality systems, the inner-class options, the minimality of each
product v w1 and its cuspidality.  The printed inequality strings of a
row are never consulted.  Spade rows, whose reduction system is
infeasible at the minimal q, carry a certificate obligation instead,
which ``_spade_certificate`` meets in the forward form and the checker
re-validates; the checker also reads the inverse form, which no route
writes.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .catalog import (
    _BUILDERS,
    CaseRecord,
    _type_name,
    case_records,
    type_group,
)
from .conjugacy import (
    FalsificationError,
    PiMap,
    closure_min_check,
    cuspidal_representatives,
    inverse_pi,
    minimal_level,
    pi_closure,
)
from .criterion import (
    FORM_FORWARD,
    Certificate,
    IneqSystem,
    admissible_q,
    build_star_system,
    check_certificate,
    feasible,
    first_feasible,
    minimal_q,
)
from .exactnum import QuadExt, _sign, qext
from .lp import gordan_witness, integer_rows, verify_gordan
from .rootdata import Frozen, Record
from .subsystems import sub_context
from .weyl import WeylElt, WeylGroup

__all__ = [
    "CaseReport",
    "AggregateReport",
    "RowPlacement",
    "place_row",
    "verify_case",
    "verify_all",
]


_setattr = object.__setattr__


class CaseReport(Record):
    """The outcome of one catalog row, filled in subcheck by subcheck (mutable, unhashable).

    A report starts with no subchecks, no details and no certificate.
    """

    __slots__ = ("label", "subchecks", "details", "certificate", "notes")

    def __init__(self, label: str, notes: tuple[str, ...] = ()):
        self.label = label
        self.subchecks: dict[str, str] = {}
        self.details: dict[str, object] = {}
        self.certificate: Optional[Certificate] = None
        self.notes = notes

    __hash__ = None  # mutable

    @property
    def passed(self) -> bool:
        return all(v == "pass" or v.startswith("skipped") for v in self.subchecks.values())

    def to_json_dict(self) -> dict:
        out: dict = {"label": self.label, "subchecks": dict(self.subchecks)}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        if self.notes:
            out["notes"] = list(self.notes)
        if self.details:
            out["details"] = dict(sorted(self.details.items()))
        return out


class AggregateReport(Record):
    """The reports of a catalog replay, in row order (mutable, unhashable)."""

    __slots__ = ("cases",)

    def __init__(self, cases: list[CaseReport]):
        self.cases = cases

    __hash__ = None  # mutable

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            skipped = sorted(k for k, v in c.subchecks.items() if v.startswith("skipped"))
            extra = f" (skipped: {', '.join(skipped)})" if skipped else ""
            lines.append(f"{status}  {c.label}{extra}")
        n_pass = sum(1 for c in self.cases if c.passed)
        statuses = [v for c in self.cases for v in c.subchecks.values()]
        n_sub_pass = statuses.count("pass")
        n_skip = sum(1 for v in statuses if v.startswith("skipped"))
        lines.append(
            f"total: {n_pass}/{len(self.cases)} cases pass; subchecks: "
            f"{n_sub_pass} pass, {n_skip} skipped, {len(statuses) - n_sub_pass - n_skip} fail"
        )
        return lines

    def to_json(self) -> str:
        return json.dumps(
            {"cases": [c.to_json_dict() for c in self.cases]},
            separators=(",", ":"),
        )


class RowPlacement(Frozen):
    """A reduction step (J, w1) placed in a group.

    K = I(J, w1, tau) is the greatest node set of J that Ad(w1) tau keeps:
    w1(alpha_tau(k)) is a simple root alpha_m with m in K for each k in K.
    sigma is the map k -> m, in the labels of the standalone W_K: the inner
    classes of the step live there, as the sigma-classes of W_K, the
    cuspidal ones from ``cuspidal_representatives``.
    """

    __slots__ = ("W", "w1", "K", "sigma")

    def __init__(self, W: WeylGroup, w1: WeylElt, K: frozenset[int], sigma: PiMap):
        _setattr(self, "W", W)
        _setattr(self, "w1", w1)
        _setattr(self, "K", K)
        _setattr(self, "sigma", sigma)

    __hash__ = None  # ``sigma`` is a dict

    def inner(self, v: WeylElt) -> tuple[WeylGroup, PiMap, WeylElt]:
        """v (an element of W_K) in the standalone W_K, with sigma: the
        arguments of a shift walk (``closure_min_check``).

        Built from the labels in W_K of a reduced word of v
        (``SubContext.element_to_sub``), so the element keeps that word.
        """
        sub = sub_context(self.W, self.K)
        return sub.group, self.sigma, sub.element_to_sub(v)

    def inner_cuspidal(self) -> list[tuple[int, ...]]:
        """Ambient words of the minimal representatives of the cuspidal sigma-classes of W_K.

        Each word is reduced, so its length is its class's minimal length.
        They come from ``cuspidal_representatives``, which enumerates nothing.
        """
        if not self.K:
            return [()]  # the trivial group's one class is cuspidal
        sub = sub_context(self.W, self.K)
        reps = cuspidal_representatives(sub.group, self.sigma)
        return [sub.word_to_ambient(v.word) for v in reps]


def place_row(
    W: WeylGroup, tau: PiMap, J: frozenset[int], w1: Sequence[int]
) -> Optional[RowPlacement]:
    """Place the step (J, w1) in W under the class-direction map ``tau``.

    None when w1 is not the minimal representative of its coset in
    W / W_{tau(J)}.  Otherwise K shrinks from J, keeping each k whose image
    w1(alpha_tau(k)) is a simple root of K, until a pass drops nothing.  The
    kept sets are closed under union, so I(J, w1, tau) is well defined, and
    no pass drops a node of a kept set inside K, so the fixed point is the
    greatest.  On it k -> m is injective, so sigma permutes K.
    """
    x = W.from_word(w1)
    if not W.is_min_coset_rep(x, {tau[j] for j in J}):
        return None
    image = {j: W.simple_image(x, tau[j]) for j in J}
    K = frozenset(J)
    while (keep := frozenset(k for k in K if image[k] in K)) != K:
        K = keep
    sigma = sub_context(W, K).pi_to_sub(image) if K else {}
    return RowPlacement(W, x, K, sigma)


def _resolve_v_options(
    record: CaseRecord, placed: RowPlacement
) -> tuple[list[tuple[int, ...]], Optional[str]]:
    """Ambient-label words for the inner-class options of a record.

    "lengths" and "all" rows take the cuspidal inner classes of the
    placement: a classical K, the only kind above 6 nodes in the catalog,
    reads them off a table with no walk
    (``cuspidal_representatives``).  Returns (words, problem) where problem
    is a fail message when resolution is impossible.
    """
    K = placed.K
    if not K or record.v_mode == "identity":
        return [()], None
    if record.v_mode == "words":
        return [tuple(w) for w in record.v_words], None
    words = placed.inner_cuspidal()
    if record.v_mode == "lengths":
        words = [w for w in words if len(w) in record.v_lengths]
        missing = set(record.v_lengths) - {len(w) for w in words}
        if missing:
            return [], f"no cuspidal inner class of stated length(s) {sorted(missing)}"
    if not words:
        return [], "no cuspidal inner class found"
    return words, None


def _spade_certificate(
    W: WeylGroup,
    pi: PiMap,
    record: CaseRecord,
    q: QuadExt,
    candidates: Sequence[WeylElt],
) -> tuple[Optional[Certificate], str]:
    """Certificate for a spade row, via the exact LP.

    ``candidates`` are tried in order, and none is formed here: the
    products v w1 of the row's inner options when K is non-empty, else the
    minimal level of the (cuspidal) inverse-twisted class of w1.  Each
    candidate w is tried as w^{-1} under pi^{-1}, whose forward system is
    the inverse form of (w, pi) row for row; the first feasible one gives
    the certificate, which the checker re-validates.
    """
    found = first_feasible(W, map(W.invert, candidates), inverse_pi(pi), q)
    if found is None:
        return None, "no witness found for any candidate"
    cert = _spade_form(record, q, *found)
    res = check_certificate(cert)
    if not res:
        return None, f"solver point rejected: {res.reason}"
    return cert, "pass"


def _spade_form(record: CaseRecord, q: QuadExt, x: WeylElt, mu) -> Certificate:
    """The forward-form certificate of x under "delta", the catalog map's inverse."""
    return Certificate(
        family=record.family, rank=record.rank, twist=record.twist,
        direction="delta", q=q, w=x.word, form=FORM_FORWARD, mu=mu,
    )


def _always_satisfied(system: IneqSystem) -> bool:
    """True when every positive point satisfies every row of ``system``.

    A row holds at every positive point exactly when it is coordinate-wise
    >= 0 and nonzero; the signs are read off ``integer_rows``.
    """
    ra, rb, d, _ = integer_rows(system)
    if rb is not None:
        ra = [[_sign(a, b, d) for a, b in zip(row, brow)] for row, brow in zip(ra, rb)]
    return all(min(row) >= 0 and max(row) > 0 for row in ra)


def verify_case(
    record: CaseRecord,
    q: Optional[QuadExt] = None,
) -> CaseReport:
    """Run subchecks (i)-(vi) of one record; a failed (i) or (ii) ends the report.

    ``q`` defaults to the type's minimum; a q below it raises ValueError
    (``admissible_q``), since no row need hold there.
    """
    family, twist = record.family, record.twist
    min_q = minimal_q(family, twist)
    q = min_q if q is None else admissible_q(family, record.rank, twist, q)
    W, pi = type_group(family, record.rank, twist)
    at_min_q = (q == min_q)
    report = CaseReport(label=record.label, notes=record.notes)

    # (i) coset representative precondition
    placed = place_row(W, pi, record.J, record.w1)
    report.subchecks["coset_rep"] = "pass" if placed is not None else "fail"
    if placed is None:
        return report

    # (ii) fixed node set K
    w1, K = placed.w1, placed.K
    report.details["K_computed"] = sorted(K)
    report.subchecks["K_match"] = "pass" if K == record.K_expected else "fail"
    if K != record.K_expected:
        return report

    v_words, v_problem = _resolve_v_options(record, placed)
    # (vw, v, v w1) for each inner option, read by the spade search and (iv)-(vi).
    options = [(vw, W.from_word(vw), W.from_word(vw + record.w1)) for vw in v_words]

    # (iii) the reduction system
    star = build_star_system(W, K, w1, pi, q)
    if not record.spade:
        if record.m_values is not None:
            missing = [i for i in star.varset if i not in record.m_values]
            bad = [label for label, _ in star.violated(record.m_values)]
            if missing:
                report.subchecks["star"] = "fail"
                report.details["star_missing_vars"] = missing
            elif bad:
                report.subchecks["star"] = "fail"
                report.details["star_violated"] = bad
            else:
                report.subchecks["star"] = "pass"
        else:
            always = _always_satisfied(star)
            report.subchecks["star"] = "pass" if always else "fail"
            report.details["star_note"] = (
                "holds for every positive point" if always
                else "some row fails at a positive point"
            )
    elif at_min_q:
        # One dual-simplex run: a Gordan witness proves infeasibility, and
        # its absence means the system is feasible after all.
        witness = gordan_witness(star)
        if witness is None:
            report.subchecks["star"] = "fail"
            report.details["star_note"] = "expected infeasible at minimal q"
        else:
            ok_w = verify_gordan(star, witness)
            report.details["infeasibility_witness"] = [str(y) for y in witness]
            try:
                candidates = ([w for _, _, w in options] if K
                              else minimal_level(W, pi, w1))
            except FalsificationError as exc:
                cert, msg = None, str(exc)
            else:
                cert, msg = _spade_certificate(W, pi, record, q, candidates)
            report.certificate = cert
            pinned_ok = True
            if cert is not None and record.pinned_mu is not None:
                pinned = _spade_form(record, q, W.invert(w1),
                                     tuple(map(qext, record.pinned_mu)))
                pinned_ok = bool(check_certificate(pinned))
                report.details["pinned_mu_check"] = "pass" if pinned_ok else "fail"
            good = ok_w and cert is not None and pinned_ok
            report.subchecks["star"] = "pass" if good else "fail"
            if not good:
                report.details["star_note"] = msg if cert is None else "witness verification failed"
    else:
        # Above the minimal q the system may well be feasible.
        mu = feasible(star)
        report.subchecks["star"] = "pass" if mu is not None else "fail"
        report.details["star_note"] = "feasible above minimal q" if mu is not None else "infeasible"

    # (iv)-(vi) inner options and the full-group class of v w1
    if v_problem is not None:
        report.subchecks["v_min_inner"] = "fail"
        report.subchecks["vw1_min_full"] = "fail"
        report.subchecks["cuspidal"] = "fail"
        report.details["v_problem"] = v_problem
        return report

    def closure_verdict(group: WeylGroup, pi_map: PiMap, x: WeylElt) -> str:
        return "pass" if closure_min_check(group, pi_map, x) == "minimal" else "fail"

    iv_results, v_results, vi_results = [], [], []
    for vw, v, w in options:
        # (iv): v minimal in its inner twisted class
        if not K:
            iv_results.append("pass")
        elif not W.support(v) <= K:
            iv_results.append("fail")
            report.details.setdefault("v_outside_WK", []).append(list(vw))
        elif record.v_mode == "words":
            iv_results.append(closure_verdict(*placed.inner(v)))
        else:
            # A cuspidal representative, which ``cuspidal_representatives``
            # has decided minimal in W_K under sigma or raised.
            iv_results.append("pass")
        # (v): v w1 minimal in its full twisted class; classical types read
        # their signed cycle type and E7 and E8 their characteristic
        # polynomial, with no walk.
        v_results.append(closure_verdict(W, pi, w))
        # (vi): cuspidal, read off the full pi-support of v w1
        supp = W.support(w)
        vi_results.append("pass" if len(pi_closure(pi, supp)) == W.rank else "fail")

    def fold(results: list[str]) -> str:
        return "fail" if "fail" in results else "pass"

    def fold_any(results: list[str]) -> str:
        # Rows that print no inner element leave the pairing of inner
        # classes to the cited classification; such a row stands as long
        # as some enumerated inner class gives a minimal product.  A row
        # whose products are all non-minimal pairs with no class at this
        # rank (full coverage is checked separately, per type).
        if "pass" in results:
            return "pass"
        return "skipped(row pairs with no inner class at this rank)"

    report.details["v_count"] = len(v_words)
    report.details["v_minimal_products"] = sum(1 for r in v_results if r == "pass")
    report.subchecks["v_min_inner"] = fold(iv_results)
    report.subchecks["vw1_min_full"] = (
        fold_any(v_results) if record.v_mode == "all" else fold(v_results)
    )
    report.subchecks["cuspidal"] = fold(vi_results)
    return report


def verify_all(
    type_filter: Optional[str] = None,
    q: Optional[QuadExt] = None,
) -> AggregateReport:
    """Verify every record whose label starts with ``type_filter``, in catalog order.

    Every label starts with its type's name and " case ", so only the
    types whose names can begin such a label are read, and built.
    """
    f = type_filter or ""
    records = [
        r
        for key in _BUILDERS
        if (t := _type_name(*key)).startswith(f) or f.startswith(t + " ")
        for r in case_records(*key)
        if r.label.startswith(f)
    ]
    reports = [verify_case(r, q=q) for r in records]
    return AggregateReport(cases=reports)
