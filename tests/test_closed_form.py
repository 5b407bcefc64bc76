"""Deligne-Lusztig's bound as a closed-form certificate: mu = (1, ..., 1) at q >= h.

With mu = rho^vee, all coordinates 1, alpha(mu) is the height of alpha.
So every inversion row reads ht(alpha) > 0, and every q-row reads q -
ht(x alpha_v) >= q - (h - 1), since the highest root theta has height
h - 1, h the Coxeter number (Deligne-Lusztig, Ann. of Math. 103 (1976),
section 9).  At q = h the checker must accept every element's
certificate, in both forms and both twist directions.  At q = h - 1 a
q-row has slack zero exactly when x alpha_v = theta, so the forward form
(x = w^-1) is rejected exactly when w(theta) is a simple root, and the
inverse form (x = w) exactly when w^-1(theta) is.

The test reads theta and w(theta) with its own reflections on root
coordinates (``multiply_oracles.reflect``), so the checker is compared
with a predicate it does not share.  Every element of each of the 21
twisted groups of rank <= 4 (W3) and of the six of rank 5 gets both forms
in both directions: 16,376 and 51,840 certificates at each q.  The two
predicates differ on some element of every group but A1 and A2, so a
checker that confused w with w^-1 would fail here: the negative control
runs the comparison with the checker's walk reversed, on the groups of
rank <= 4, and sees it fail on those groups.
"""

import pytest

from weyldl import checker
from weyldl.checker import FORM_FORWARD, FORM_INVERSE, Certificate, check_certificate
from weyldl.conjugacy import pi_of
from weyldl.exactnum import qext
from weyldl.rootdata import build_twist

from conftest import RANK_5_6, RANK_LE_4, group
from multiply_oracles import elements_of, reflect

# The six twisted groups of rank 5, whose certificates the q = h and q = h - 1
# tests check too.
RANK_5 = [(family, rank, order) for family, rank, order in RANK_5_6 if rank == 5]

# Forward-form rejections at q = h - 1 of the untwisted groups: the elements w
# with w(theta) simple.
FORWARD_REJECTIONS = {
    ("A", 3, 1): 6, ("B", 3, 1): 8, ("C", 3, 1): 8, ("B", 4, 1): 48,
    ("D", 4, 1): 32, ("G", 2, 1): 2, ("F", 4, 1): 96,
    ("A", 5, 1): 120, ("B", 5, 1): 384, ("C", 5, 1): 384, ("D", 5, 1): 240,
}


def highest_root(cartan):
    """theta, as simple-root coordinates: the positive roots are reached from
    the simple ones by simple reflections that keep them positive."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots, todo = set(simple), list(simple)
    while todo:
        root = todo.pop()
        for i in range(1, rank + 1):
            image = reflect(cartan, i, root)
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    return max(roots, key=sum)


def simple_image(cartan, word, root):
    """k when the product of ``word`` sends ``root`` to alpha_k, else None."""
    for i in reversed(word):
        root = reflect(cartan, i, root)
    return root.index(1) + 1 if sum(root) == 1 and min(root) >= 0 else None


def verdicts(family, rank, order, q):
    """(word, direction, form, CheckResult) of mu = (1, ..., 1) at q, for
    every element of the group, both directions and both forms."""
    W = group(family, rank)
    ones = (qext(1),) * rank
    for u in elements_of(W):
        for direction in ("delta", "delta_inv"):
            for form in (FORM_FORWARD, FORM_INVERSE):
                cert = Certificate(family, rank, order, direction, qext(q), u.word, form, ones)
                yield u.word, direction, form, check_certificate(cert)


@pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5)
def test_every_certificate_is_accepted_at_h(family, rank, order):
    """At q = h every certificate is accepted, with rank + l(w) rows."""
    h = sum(highest_root(group(family, rank).system.cartan)) + 1
    for word, _, _, result in verdicts(family, rank, order, h):
        assert result.accepted and result.rows_checked == rank + len(word), word


def theta_disagreements(family, rank, order):
    """Compare every verdict at q = h - 1 with the theta predicate.

    Returns the (word, direction, form) whose verdict or reason disagrees,
    the number of forward-form rejections in direction "delta", and
    whether the forward and inverse predicates differ on some element."""
    cartan = group(family, rank).system.cartan
    theta = highest_root(cartan)
    twist = build_twist(family, rank, order)
    bad, forward_rejected, differ = [], 0, False
    for word, direction, form, result in verdicts(family, rank, order, sum(theta)):
        forward = simple_image(cartan, word, theta)
        inverse = simple_image(cartan, word[::-1], theta)
        differ |= (forward is None) != (inverse is None)
        k = forward if form == FORM_FORWARD else inverse
        if k is None:
            ok = result.accepted
        else:
            pi = pi_of(twist, direction)
            row = k if form == FORM_FORWARD else next(i for i in pi if pi[i] == k)
            ok = (not result.accepted
                  and result.reason == f"violated: q-row i={row} (slack zero)")
            forward_rejected += form == FORM_FORWARD and direction == "delta"
        if not ok:
            bad.append((word, direction, form))
    return bad, forward_rejected, differ


@pytest.mark.parametrize("family,rank,order", RANK_LE_4 + RANK_5)
def test_verdicts_at_h_minus_1_follow_theta(family, rank, order):
    """At q = h - 1 the forward form is rejected exactly when w(theta) is a
    simple root alpha_k, and the inverse form exactly when w^-1(theta) is.
    The reason names the q-row with slack zero: row k in the forward form,
    and in the inverse form the row i with pi(i) = k."""
    bad, forward_rejected, differ = theta_disagreements(family, rank, order)
    assert not bad, bad[:5]
    if (family, rank, order) in FORWARD_REJECTIONS:
        assert forward_rejected == FORWARD_REJECTIONS[family, rank, order]
    assert differ == ((family, rank) not in {("A", 1), ("A", 2)})


@pytest.mark.parametrize("family,rank,order", RANK_LE_4)
def test_a_checker_that_walks_w_for_w_inverse_is_caught(family, rank, order, monkeypatch):
    """Negative control: with ``checker._sweep`` walking each word reversed, so
    that the forward form walks w where it needs w^-1 (and the inverse form
    w^-1), the theta comparison disagrees on some element of every group but
    A1 and A2, in which no element's two predicates differ."""
    sweep = checker._sweep
    monkeypatch.setattr(checker, "_sweep", lambda word, *rest: sweep(word[::-1], *rest))
    bad, _, _ = theta_disagreements(family, rank, order)
    assert bool(bad) == ((family, rank) not in {("A", 1), ("A", 2)})


def test_certificate_count():
    """The q = h and q = h - 1 tests each check 16,376 certificates of the 21
    twisted groups of rank <= 4 and 51,840 of the six of rank 5: both forms
    and both directions of every element.  The negative control runs on the
    groups of rank <= 4."""
    assert len(RANK_LE_4) == 21 and len(RANK_5) == 6
    assert sum(4 * len(elements_of(group(f, r))) for f, r, _ in RANK_LE_4) == 16376
    assert sum(4 * len(elements_of(group(f, r))) for f, r, _ in RANK_5) == 51840
