"""The certificate check through the Weyl group: the oracle for ``weyldl.checker``.

``oracle_check`` evaluates a certificate the way the checker did before it
moved to integer root coordinates: the element from ``WeylGroup.from_word``
in the group of ``weyl_group``, its system from ``build_forward_system`` or
``inverse_system`` (reflection tables, ``invert`` and
``invert_with_inversions``), and the rows that fail from
``IneqSystem.violated``.  The prelude checks are the checker's, in its
order, so the two must return equal ``CheckResult``s on every input.

``inverse_system`` is the reference builder of the inverse form, which
the checker reads and no route of the package writes, and
``transfer_mismatches`` ties it to the forward form row for row.
"""

from __future__ import annotations

from functools import cache

from weyldl import criterion
from weyldl.checker import FORM_FORWARD, FORM_INVERSE, MAX_RANK, CheckResult
from weyldl.conjugacy import pi_of, restrict_pi
from weyldl.criterion import build_forward_system, minimal_q
from weyldl.exactnum import qext
from weyldl.rootdata import build_twist, positive_root_count
from weyldl.weyl import weyl_group

from lp_oracle import rows_of
from multiply_oracles import elements_of


def inverse_system(W, w, pi, q):
    """Inverse-form system of w, pi the class-direction index map.

    The rows q*mu[i] - (w alpha_{pi(i)})(mu) > 0 for every node i, then
    alpha(mu) > 0 on the inversions of w^{-1}, read off the walk that
    ``build_forward_system`` makes (``invert_with_inversions``), here of w^{-1}.
    """
    nodes = W.system.nodes
    pi = restrict_pi(pi, nodes)
    return criterion._system(
        W, nodes, q,
        [(i, i, W.act_on_simple(w, pi[i])) for i in nodes],
        [(W.roots[p], p + 1) for p in W.invert_with_inversions(W.invert(w))[1]],
    )


# The twisted groups of rank <= 3, in which the transfer identity is checked
# on every element.
TRANSFER_GROUPS = [
    ("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2), ("B", 2, 1),
    ("B", 2, 2), ("B", 3, 1), ("C", 2, 1), ("C", 3, 1), ("G", 2, 1), ("G", 2, 2),
]


@cache
def transfer_mismatches(family: str, rank: int, order: int) -> tuple[tuple[int, ...], ...]:
    """The words of the elements w of the group where the inverse form of w
    under delta_inv and the forward form of w^-1 under delta differ: forward
    q-row i must be inverse q-row delta(i), and the inversion rows must agree
    in order.  Kept per group, so a test run compares each group once."""
    W = weyl_group(family, rank)
    twist = build_twist(family, rank, order)
    q = minimal_q(family, order)
    fwd_pi, inv_pi = pi_of(twist, "delta"), pi_of(twist, "delta_inv")
    nodes = W.system.nodes
    bad = []
    for w in elements_of(W):
        a = rows_of(inverse_system(W, w, inv_pi, q))
        b = rows_of(build_forward_system(W, W.invert(w), fwd_pi, q))
        if ([b[i - 1] for i in nodes] != [a[fwd_pi[i] - 1] for i in nodes]
                or a[len(nodes):] != b[len(nodes):]):
            bad.append(w.word)
    return tuple(bad)


def oracle_check(cert) -> CheckResult:
    """Re-derive the certificate's system from the group data and evaluate it."""
    if type(cert.rank) is not int or not 1 <= cert.rank <= MAX_RANK:
        return CheckResult(False, f"rank must be in 1..{MAX_RANK}")
    try:
        max_length = positive_root_count(cert.family, cert.rank)
    except ValueError as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if len(cert.w) > max_length:
        return CheckResult(False, "word longer than the longest element")
    try:
        if type(cert.twist) is not int:
            raise ValueError(f"twist must be an int, got {type(cert.twist).__name__}")
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
    if any(type(i) is not int or not 1 <= i <= cert.rank for i in cert.w):
        return CheckResult(False, f"word letter is not an int in 1..{cert.rank}")
    try:
        radicands = sorted({qext(x).d for x in (cert.q, *cert.mu)} - {1})
    except TypeError as exc:
        return CheckResult(False, f"q and mu must be exact numbers: {exc}")
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
        system = inverse_system(W, w, pi, cert.q)
    violated = system.violated(dict(zip(system.varset, cert.mu)))
    if violated:
        label, sign = violated[0]
        reason = f"violated: {label} (slack {'zero' if sign == 0 else 'negative'})"
        return CheckResult(False, reason, len(system.coeffs))
    return CheckResult(True, "", len(system.coeffs))
