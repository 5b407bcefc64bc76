"""Constructive certificate building: lift, combine, and extend.

This is the second, LP-light route to a certificate for every twisted
class: lift a witness from the support parabolic, combine witnesses
across orthogonal or cyclically permuted components, and extend through
a tabulated (J, w1) reduction step.  Every constructed witness is
re-checked against the independently rebuilt inequality system before
being returned; no bound is trusted numerically.

Every step works on all nodes of the group it is handed, with an index
map pi on them (the forward twist direction).  A smaller parabolic W_S
(the support, an orthogonal or cyclic factor, the K of a tabulated step)
is certified in its standalone group (``subsystems.sub_context``) and
its witness embedded back; an ``EngineCert`` on S then feeds the step
that lifts or combines it.  Tabulated data is consulted through a
labelling isomorphism onto the standard types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .casetables import case_records, place_row
from .conjugacy import (
    DeltaClass,
    FalsificationError,
    PiMap,
    class_of,
    compute_I_J_x,
    inverse_pi,
    pi_of,
    supp_delta,
)
from .criterion import (
    FORM_FORWARD,
    Certificate,
    build_forward_system,
    build_star_system,
    check_certificate,
    feasible,
)
from .exactnum import QuadExt, dot, qext
from .rootdata import Coweight, Twist
from .subsystems import SubContext, components, identify_standard, sub_context
from .weyl import WeylElt, WeylGroup

__all__ = [
    "EngineCert",
    "ConstructionError",
    "lift_to_full",
    "combine_orthogonal_factors",
    "combine_cyclic_factors",
    "extend_via_parabolic_step",
    "spade_witness",
    "constructive_certificate",
]

# Dyadic damping steps tried by the cyclic combination, and scale
# doublings tried by a spade composition, before either gives up.
MAX_EPS_STEPS = 64
MAX_DOUBLINGS = 8


class ConstructionError(RuntimeError):
    """A constructive step failed its own re-validation."""


@dataclass(frozen=True)
class EngineCert:
    """Forward-form witness of a group: its coordinates on ``nodes``.

    A step returns one on all nodes of its group; a witness on a proper
    ``nodes`` is the embedded witness of the parabolic on those nodes.
    """

    w: WeylElt
    mu: dict[int, QuadExt]
    nodes: frozenset[int]
    q: QuadExt

    def dominant(self) -> bool:
        return all(self.mu[i].sign() > 0 for i in self.nodes)


def _validate(W: WeylGroup, pi: PiMap, cert: EngineCert, context: str) -> EngineCert:
    violated = build_forward_system(W, cert.w, pi, cert.q).violated(cert.mu)
    if violated:
        raise ConstructionError(f"{context}: constructed witness violates {violated[0][0]}")
    return cert


def _max_abs(values: Iterable[QuadExt]) -> QuadExt:
    best = qext(0)
    for v in values:
        a = abs(qext(v))
        if a > best:
            best = a
    return best


def _nudge_nonzero(W: WeylGroup, pi: PiMap, cert: EngineCert) -> EngineCert:
    """Push zero coordinates off zero without losing any strict slack.

    The witness set is open; the bump is sized from the smallest slack
    against the total coefficient mass, all exactly.
    """
    zeros = [i for i in sorted(cert.nodes) if cert.mu[i].sign() == 0]
    if not zeros:
        return cert
    system = build_forward_system(W, cert.w, pi, cert.q)
    min_slack = min(system.evaluate(cert.mu), default=qext(1))
    mass = max([qext(1)] + [sum((abs(c) for c in row), qext(0)) for row in system.rows])
    eps = min_slack / (mass * 2 * len(zeros))
    mu = dict(cert.mu)
    for i in zeros:
        mu[i] = eps
    return _validate(W, pi, EngineCert(cert.w, mu, cert.nodes, cert.q), "nonzero nudge")


# ---------------------------------------------------------------------------
# constructive steps
# ---------------------------------------------------------------------------


def lift_to_full(W: WeylGroup, pi: PiMap, inner: EngineCert) -> EngineCert:
    """Lift a witness from a pi-stable parabolic to all nodes of W.

    Coordinates off the inner support take the one explicit scale
    m = n0 * max |inner mu| / (q - 1) + 1, with n0 the largest
    coordinate sum of a root of W.
    """
    J = inner.nodes
    nodes = frozenset(W.system.nodes)
    if not J <= nodes:
        raise ValueError("inner support must sit inside the group's nodes")
    if J == nodes:
        return _validate(W, pi, inner, "identity lift")
    q = inner.q
    m = qext(W.system.n0) * _max_abs(inner.mu.values()) / (q - 1) + 1
    mu = {i: (inner.mu[i] if i in J else m) for i in sorted(nodes)}
    return _validate(W, pi, EngineCert(inner.w, mu, nodes, q), "parabolic lift")


def combine_orthogonal_factors(
    W: WeylGroup,
    pi: PiMap,
    parts: Sequence[EngineCert],
) -> EngineCert:
    """Concatenate witnesses of orthogonal pi-stable factors covering W."""
    if not parts:
        raise ValueError("nothing to combine")
    nodes = frozenset().union(*(p.nodes for p in parts))
    if sum(len(p.nodes) for p in parts) != len(nodes):
        raise ValueError("factors overlap")
    w = W.identity
    mu: dict[int, QuadExt] = {}
    for p in sorted(parts, key=lambda p: min(p.nodes)):
        w = W.multiply(w, p.w)
        mu.update(p.mu)
    return _validate(W, pi, EngineCert(w, mu, nodes, parts[0].q), "orthogonal combination")


def _power_pi(pi: PiMap, r: int) -> PiMap:
    out = {i: i for i in pi}
    for _ in range(r):
        out = {i: pi[out[i]] for i in out}
    return out


def combine_cyclic_factors(
    W: WeylGroup,
    pi: PiMap,
    inner: EngineCert,
    q: QuadExt,
) -> EngineCert:
    """Spread a witness of one component over a cycle of components.

    ``inner`` certifies the component I1 for the r-th power of the twist
    at q**r, with no zero coordinate (``_nudge_nonzero`` makes one so in
    the component's own group), since the damping direction needs a
    sign.  The combined coweight places epsilon-damped, q-scaled copies
    of each coordinate around the cycle, the dyadic epsilon per
    coordinate chosen closest to 1 that keeps the anchor rows strict.
    """
    I1 = inner.nodes
    r = 1
    img = {pi[i] for i in I1}
    while img != set(I1):
        img = {pi[i] for i in img}
        r += 1
    if r == 1:
        return lift_to_full(W, pi, inner)
    if inner.q != qext(q) ** r:
        raise ValueError("inner witness must be stated at q^r")
    if any(inner.mu[i].sign() == 0 for i in I1):
        raise ValueError("inner witness has a zero coordinate")
    q = qext(q)

    winv = W.invert(inner.w)
    support = sorted(I1)
    values = [inner.mu[j] for j in support]
    anchors: dict[int, QuadExt] = {}
    for i in support:
        coords = W.signed_to_coords(W.act_on_simple(winv, i))
        anchors[i] = dot(values, [coords[j - 1] for j in support])  # (w^{-1} alpha_i)(mu)

    qr = q ** r
    eps: Optional[dict[int, QuadExt]] = None
    for k in range(1, MAX_EPS_STEPS + 1):
        step = Fraction(1, 2 ** k)
        trial = {
            i: qext(1 - step) if inner.mu[i].sign() > 0 else qext(1 + step)
            for i in I1
        }
        if all(
            (qr * (trial[i] ** (r - 1)) * inner.mu[i] - anchors[i]).sign() > 0
            for i in I1
        ):
            eps = trial
            break
    if eps is None:
        raise ConstructionError(
            f"no dyadic damping factor within {MAX_EPS_STEPS} steps; this points "
            "at corrupted inner data, not a mathematical failure"
        )

    inv = inverse_pi(pi)
    mu: dict[int, QuadExt] = {}
    for i in sorted(I1):
        node = i
        for k in range(r):
            mu[node] = (eps[i] ** k) * (q ** k) * inner.mu[i]
            node = inv[node]
    return _validate(W, pi, EngineCert(inner.w, mu, frozenset(mu), q), "cyclic combination")


def _inner_scale(
    W: WeylGroup, inner: Optional[EngineCert]
) -> tuple[WeylElt, dict[int, QuadExt], QuadExt]:
    """(v, mu on K, max |mu|) of a dominant inner witness, v = inner.w^{-1}."""
    if inner is None:
        return W.identity, {}, qext(0)
    if not inner.dominant():
        raise ConstructionError("inner witness must be dominant")
    return W.invert(inner.w), dict(inner.mu), _max_abs(inner.mu.values())


def extend_via_parabolic_step(
    W: WeylGroup,
    tau: PiMap,
    J: frozenset[int],
    w1: WeylElt,
    star_m: dict[int, QuadExt],
    inner: Optional[EngineCert],
    q: QuadExt,
) -> EngineCert:
    """Extend an inner dominant witness through a (J, w1) reduction step.

    ``tau`` is the class-direction (inverse-twist) map on the nodes of W
    with w1 in W^{tau(J)}; ``inner`` is a forward-form witness on K for
    the inverse of the inner twisted class, and must be dominant.  The
    result is a forward-form witness whose element is (v w1)^{-1} with
    v = inner.w^{-1}.  All inequalities are re-derived and checked.
    """
    q = qext(q)
    K = compute_I_J_x(W, tau, J, w1)
    V = [i for i in W.system.nodes if i not in K]
    if set(star_m) != set(V):
        raise ValueError("star witness must cover exactly the free nodes")
    if any(qext(star_m[i]).sign() <= 0 for i in V):
        raise ValueError("star witness must be positive")
    star = build_star_system(W, J, w1, tau, q, K=K)
    point = {i: qext(star_m[i]) for i in star.varset}
    if star.violated(point):
        raise ConstructionError("star witness fails the derived reduction system")

    if K:
        if inner is None:
            raise ValueError("inner witness required when K is nonempty")
        if inner.nodes != K:
            raise ValueError("inner witness is not on K")
    v, mu, max_k = _inner_scale(W, inner if K else None)
    # The star system lists its q-rows first, one per free node.
    q_slacks = star.evaluate(point)[: len(V)]
    m = qext(W.system.n0) * max_k / min(q_slacks) + 1 if q_slacks else qext(1)
    for i in V:
        mu[i] = m * qext(star_m[i])
    w = W.multiply(v, w1)
    out = EngineCert(W.invert(w), mu, frozenset(W.system.nodes), q)
    return _validate(W, inverse_pi(tau), out, "parabolic extension")


# ---------------------------------------------------------------------------
# spade rows: composed witnesses with explicit scale separations
# ---------------------------------------------------------------------------


def spade_witness(
    W: WeylGroup,
    tau: PiMap,
    w1: WeylElt,
    recipe: Sequence[tuple[int, int, int]],
    inner: Optional[EngineCert],
    q: QuadExt,
) -> EngineCert:
    """Composed witness for a row whose reduction system is infeasible.

    ``recipe`` lists (node, sign, level) for the free nodes: level-k
    magnitudes are successive factors of (n0 + 1) * previous / (q - 1)
    above the inner witness.  The construction is validated by the
    rebuilt system; scales double up to MAX_DOUBLINGS times before
    giving up.
    """
    q = qext(q)
    v, mu_K, base = _inner_scale(W, inner)
    if base < 1:
        base = qext(1)
    factor = qext(W.system.n0 + 1) / (q - 1)
    w = W.multiply(v, w1)
    last_error: Optional[ConstructionError] = None
    for _ in range(MAX_DOUBLINGS + 1):
        mags = {0: base}
        level = 1
        while level <= max(lvl for _, _, lvl in recipe):
            mags[level] = factor * mags[level - 1]
            level += 1
        mu = dict(mu_K)
        for node, sign, lvl in recipe:
            mu[node] = mags[lvl] if sign > 0 else -mags[lvl]
        try:
            out = EngineCert(W.invert(w), mu, frozenset(W.system.nodes), q)
            return _validate(W, inverse_pi(tau), out, "spade composition")
        except ConstructionError as exc:
            last_error = exc
            factor = factor * 2
    raise last_error if last_error is not None else ConstructionError("spade recipe failed")


# ---------------------------------------------------------------------------
# the recursive engine
# ---------------------------------------------------------------------------


def _factor_element(W: WeylGroup, w: WeylElt, groups: Sequence[frozenset[int]]):
    """Split an element of a product of commuting parabolics by letters."""
    parts = []
    for g in groups:
        parts.append(W.from_word([i for i in w.word if i in g]))
    return parts


def _standalone(
    W: WeylGroup, pi: PiMap, S: frozenset[int], q: QuadExt, x: WeylElt
) -> tuple[SubContext, PiMap, EngineCert]:
    """Certify the class of x in W_S in the standalone group of S.

    ``pi`` need only be given on S.  Returns the context, the index map
    there and the witness on all nodes of the standalone group.
    """
    sub = sub_context(W, S)
    pi_sub = sub.pi_to_sub(pi)
    cls = class_of(sub.group, pi_sub, sub.element_to_sub(x))
    return sub, pi_sub, _engine(sub.group, pi_sub, q, cls)


def _embed(sub: SubContext, cert: EngineCert) -> EngineCert:
    """A standalone witness as a witness on the node set S of the ambient group."""
    mu = {sub.to_ambient[i]: m for i, m in cert.mu.items()}
    return EngineCert(sub.element_to_ambient(cert.w), mu, frozenset(sub.nodes), cert.q)


def _leaf_certificate(W: WeylGroup, pi: PiMap, q: QuadExt, cls: DeltaClass) -> EngineCert:
    """Irreducible cuspidal leaf: match a catalog row and extend through it."""
    tau = inverse_pi(pi)
    ident = identify_standard(W.system.cartan, pi)
    if ident is None:
        raise FalsificationError(f"cannot identify the type of {W.system.key[0]}")
    family, rank, order, phi = ident  # node of W -> standard node
    phi_inv = {v: k for k, v in phi.items()}

    rows = case_records(family, rank, order)
    if not rows:
        raise FalsificationError(f"no catalog rows for type {family}{rank} twist {order}")

    matches = []  # (minimality_rank, row_idx, v_idx, row, v_elt, placement, J)
    for row_idx, row in enumerate(rows):
        J_W = frozenset(phi_inv[j] for j in row.J)
        placed = place_row(W, tau, J_W, [phi_inv[i] for i in row.w1])
        if placed is None:
            continue
        for v_idx, vw in enumerate(placed.inner_cuspidal()):
            v = W.from_word(vw)
            u = W.multiply(v, placed.w1)
            if not cls.contains(W.invert(u)):
                continue
            minimal = 0 if u.length == cls.min_length else 1
            matches.append((minimal, row_idx, v_idx, row, v, placed, J_W))
    if not matches:
        raise FalsificationError(
            f"no catalog row matches the class of {cls.representative.word} "
            f"in type {family}{rank} twist {order}"
        )
    matches.sort(key=lambda t: t[:3])
    minimal, row_idx, v_idx, row, v, placed, J_W = matches[0]
    w1, K = placed.w1, placed.K
    if minimal != 0:
        raise FalsificationError(
            f"catalog coverage gap: class of {cls.representative.word} has no "
            f"minimal-length tabulated representative"
        )

    # Inner witness on K (forward side of the inner twisted class).
    inner: Optional[EngineCert] = None
    if K:
        sub, _, inner_sub = _standalone(W, inverse_pi(placed.sigma), K, q, W.invert(v))
        inner = _embed(sub, inner_sub)

    star = build_star_system(W, J_W, w1, tau, q, K=K)
    star_point = None
    if row.m_values is not None:
        candidate = {phi_inv[i]: qext(val) for i, val in row.m_values.items()}
        if set(candidate) == set(star.varset) and not star.violated(candidate):
            star_point = candidate
    if star_point is None:
        mu_star = feasible(star)
        if mu_star is not None:
            star_point = {i: mu_star[i] for i in star.varset}

    if star_point is not None:
        return extend_via_parabolic_step(W, tau, J_W, w1, star_point, inner, q)

    # The reduction system is infeasible: spade territory.
    if not row.spade:
        raise FalsificationError(
            f"reduction system of non-spade row {row.label} is infeasible at q={q}"
        )
    if row.spade_recipe:
        recipe = tuple((phi_inv[n], s, lvl) for n, s, lvl in row.spade_recipe)
        return spade_witness(W, tau, w1, recipe, inner, q)
    # No composition recipe: search the class minima with the exact solver.
    for w in cls.min_elements():
        mu = feasible(build_forward_system(W, w, pi, q))
        if mu is not None:
            point = {i: mu[i] for i in W.system.nodes}
            return _validate(
                W, pi, EngineCert(w, point, frozenset(W.system.nodes), q),
                "spade solver witness",
            )
    raise FalsificationError(
        f"spade row {row.label}: no witness over the class minima at q={q}"
    )


def _engine(W: WeylGroup, pi: PiMap, q: QuadExt, cls: DeltaClass) -> EngineCert:
    """Witness for a pi-class of W on all its nodes, recursing on smaller parabolics."""
    nodes = frozenset(W.system.nodes)
    w_min = cls.representative
    supp = supp_delta(W, pi, w_min)

    if supp != nodes:
        if not supp:  # the identity class: no rank-0 standalone group
            return lift_to_full(W, pi, EngineCert(W.identity, {}, frozenset(), qext(q)))
        sub, _, inner = _standalone(W, pi, supp, q, w_min)
        return lift_to_full(W, pi, _embed(sub, inner))

    comps = components(W)
    if len(comps) > 1:
        # Group components into pi-orbits.
        orbits: list[frozenset[int]] = []
        remaining = list(comps)
        while remaining:
            seed = remaining.pop(0)
            orbit = set(seed)
            changed = True
            while changed:
                changed = False
                img = frozenset(pi[i] for i in orbit)
                for c in list(remaining):
                    if c & img:
                        orbit |= c
                        remaining.remove(c)
                        changed = True
            orbits.append(frozenset(orbit))
        if len(orbits) > 1:
            parts = []
            for orbit, felt in zip(orbits, _factor_element(W, w_min, orbits)):
                sub, _, part = _standalone(W, pi, orbit, q, felt)
                parts.append(_embed(sub, part))
            return combine_orthogonal_factors(W, pi, parts)
        # One orbit of several components: reduce to the first component.
        I1 = comps[0]
        r = len(comps)
        inside = {k: n for k, n in W.elements(I1).items() if k in cls.members}
        if not inside:
            raise FalsificationError("cyclic class misses its first component")
        low = min(inside.values())
        v1 = min((WeylElt(W, k, low) for k, n in inside.items() if n == low),
                 key=lambda w: w.word)
        sub, pi_sub, inner = _standalone(W, _power_pi(pi, r), I1, qext(q) ** r, v1)
        inner = _nudge_nonzero(sub.group, pi_sub, inner)
        return combine_cyclic_factors(W, pi, _embed(sub, inner), q)

    return _leaf_certificate(W, pi, q, cls)


def constructive_certificate(
    W: WeylGroup,
    twist: Twist,
    dclass: DeltaClass,
    q,
) -> Certificate:
    """Certificate for a twisted class via the constructive route.

    The element and coweight generally differ from the solver route's;
    both must be accepted by the same independent checker.
    """
    q = qext(q)
    pi = pi_of(twist, dclass.direction)
    cert = _engine(W, pi, q, dclass)
    coords = [cert.mu.get(i, qext(0)) for i in range(1, W.rank + 1)]
    family, rank = W.system.key
    out = Certificate(
        family=family,
        rank=rank,
        twist=twist.order,
        direction=dclass.direction,
        q=q,
        w=cert.w.word,
        form=FORM_FORWARD,
        mu=Coweight(tuple(coords)),
    )
    result = check_certificate(out)
    if not result:
        raise ConstructionError(f"constructive certificate rejected: {result.reason}")
    return out
