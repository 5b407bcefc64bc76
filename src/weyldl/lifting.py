"""Constructive certificate building: lift, combine, and extend.

This is the second, LP-light route to a certificate for every twisted
class: lift a witness from the support parabolic, combine witnesses
across orthogonal or cyclically permuted components, and extend through
a tabulated (J, w1) reduction step.  Every constructed witness is
re-checked against the independently rebuilt inequality system before
being returned; no bound is trusted numerically.

All functions work on an ambient group with an active node set and an
index map pi on it (the forward twist direction); tabulated data is
consulted through a labelling isomorphism onto the standard types.
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
    restrict_pi,
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
from .exactnum import QuadExt, qext
from .rootdata import Coweight, Twist
from .subsystems import identify_standard, sub_context
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


class ConstructionError(RuntimeError):
    """A constructive step failed its own re-validation."""


@dataclass(frozen=True)
class EngineCert:
    """Forward-form witness on an active node set of an ambient group."""

    w: WeylElt
    mu: dict[int, QuadExt]  # coordinates on the active nodes
    nodes: frozenset[int]
    q: QuadExt

    def dominant(self) -> bool:
        return all(self.mu[i].sign() > 0 for i in self.nodes)


def _validate(W: WeylGroup, pi: PiMap, cert: EngineCert, context: str) -> EngineCert:
    system = build_forward_system(W, cert.w, pi, cert.q, nodes=cert.nodes)
    violated = system.violated({i: cert.mu.get(i, qext(0)) for i in system.varset})
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
    system = build_forward_system(W, cert.w, pi, cert.q, nodes=cert.nodes)
    min_slack = min(system.evaluate({i: cert.mu[i] for i in system.varset}), default=qext(1))
    mass = max([qext(1)] + [sum((abs(c) for c in row), qext(0)) for row in system.rows])
    eps = min_slack / (mass * 2 * len(zeros))
    mu = dict(cert.mu)
    for i in zeros:
        mu[i] = eps
    return _validate(W, pi, EngineCert(cert.w, mu, cert.nodes, cert.q), "nonzero nudge")


# ---------------------------------------------------------------------------
# constructive steps
# ---------------------------------------------------------------------------


def lift_to_full(
    W: WeylGroup,
    pi: PiMap,
    inner: EngineCert,
    nodes: frozenset[int],
) -> EngineCert:
    """Lift a witness from a pi-stable parabolic to a larger node set.

    Coordinates off the inner support take the one explicit scale
    m = n0 * max |inner mu| / (q - 1) + 1, with n0 the largest
    coordinate sum of a root supported on ``nodes``.
    """
    J = inner.nodes
    nodes = frozenset(nodes)
    if not J <= nodes:
        raise ValueError("inner support must sit inside the target node set")
    if J == nodes:
        return _validate(W, pi, inner, "identity lift")
    n0 = W.system.sub_n0(nodes)
    q = inner.q
    m = qext(n0) * _max_abs(inner.mu.values()) / (q - 1) + 1
    mu = {i: (inner.mu[i] if i in J else m) for i in sorted(nodes)}
    return _validate(W, pi, EngineCert(inner.w, mu, nodes, q), "parabolic lift")


def combine_orthogonal_factors(
    W: WeylGroup,
    pi: PiMap,
    parts: Sequence[EngineCert],
) -> EngineCert:
    """Concatenate witnesses of orthogonal pi-stable factors."""
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
    nodes: frozenset[int],
    q: QuadExt,
    max_eps_steps: int = 64,
) -> EngineCert:
    """Spread a witness of one component over a cycle of components.

    ``inner`` certifies the component I1 for the r-th power of the twist
    at q**r; the combined coweight places epsilon-damped, q-scaled
    copies of each coordinate around the cycle, the dyadic epsilon per
    coordinate chosen closest to 1 that keeps the anchor rows strict.
    Zero inner coordinates are nudged first, since the damping direction
    needs a sign.
    """
    nodes = frozenset(nodes)
    I1 = inner.nodes
    pi_full = restrict_pi(pi, nodes)
    r = 1
    img = {pi_full[i] for i in I1}
    while img != set(I1):
        img = {pi_full[i] for i in img}
        r += 1
    if r == 1:
        if I1 == nodes:
            return _validate(W, pi, inner, "trivial cycle")
        return lift_to_full(W, pi, inner, nodes)
    if inner.q != qext(q) ** r:
        raise ValueError("inner witness must be stated at q^r")
    q = qext(q)
    pi_r = restrict_pi(_power_pi(pi_full, r), I1)
    inner = _nudge_nonzero(W, pi_r, inner)

    winv = W.invert(inner.w)
    anchors: dict[int, QuadExt] = {}
    for i in sorted(I1):
        coords = W.signed_to_coords(W.act_on_simple(winv, i))
        total = qext(0)
        for j in sorted(I1):
            if coords[j - 1]:
                total = total + inner.mu[j] * coords[j - 1]
        anchors[i] = total  # (w^{-1} alpha_i)(mu)

    qr = q ** r
    eps: Optional[dict[int, QuadExt]] = None
    for k in range(1, max_eps_steps + 1):
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
            f"no dyadic damping factor within {max_eps_steps} steps; this points "
            "at corrupted inner data, not a mathematical failure"
        )

    inv = {v: k for k, v in pi_full.items()}
    mu: dict[int, QuadExt] = {}
    for i in sorted(I1):
        node = i
        for k in range(r):
            mu[node] = (eps[i] ** k) * (q ** k) * inner.mu[i]
            node = inv[node]
    return _validate(W, pi, EngineCert(inner.w, mu, nodes, q), "cyclic combination")


def extend_via_parabolic_step(
    W: WeylGroup,
    tau: PiMap,
    nodes: frozenset[int],
    J: frozenset[int],
    w1: WeylElt,
    star_m: dict[int, QuadExt],
    inner: Optional[EngineCert],
    q: QuadExt,
) -> EngineCert:
    """Extend an inner dominant witness through a (J, w1) reduction step.

    ``tau`` is the class-direction (inverse-twist) map on ``nodes`` with
    w1 in W^{tau(J)}; ``inner`` is a forward-form witness on K for the
    inverse of the inner twisted class, and must be dominant.  The
    result is a forward-form witness whose element is (v w1)^{-1} with
    v = inner.w^{-1}.  All inequalities are re-derived and checked.
    """
    nodes = frozenset(nodes)
    tau = restrict_pi(tau, nodes)
    q = qext(q)
    K = compute_I_J_x(W, tau, J, w1)
    V = sorted(set(nodes) - K)
    if set(star_m) != set(V):
        raise ValueError("star witness must cover exactly the free nodes")
    if any(qext(star_m[i]).sign() <= 0 for i in V):
        raise ValueError("star witness must be positive")
    star = build_star_system(W, J, w1, tau, q, K=K, nodes=nodes)
    point = {i: qext(star_m[i]) for i in star.varset}
    if star.violated(point):
        raise ConstructionError("star witness fails the derived reduction system")

    if K:
        if inner is None:
            raise ValueError("inner witness required when K is nonempty")
        if inner.nodes != K:
            raise ValueError("inner witness is not on K")
        if not inner.dominant():
            raise ConstructionError("inner witness must be dominant for the extension")
        v = W.invert(inner.w)
        mu_K = dict(inner.mu)
        max_k = _max_abs(mu_K.values())
    else:
        v = W.identity
        mu_K = {}
        max_k = qext(0)
    # The star system lists its q-rows first, one per free node.
    q_slacks = star.evaluate(point)[: len(V)]
    n0 = W.system.sub_n0(nodes)
    m = qext(n0) * max_k / min(q_slacks) + 1 if q_slacks else qext(1)
    mu = dict(mu_K)
    for i in V:
        mu[i] = m * qext(star_m[i])
    w = W.multiply(v, w1)
    out = EngineCert(W.invert(w), mu, nodes, q)
    return _validate(W, inverse_pi(tau), out, "parabolic extension")


# ---------------------------------------------------------------------------
# spade rows: composed witnesses with explicit scale separations
# ---------------------------------------------------------------------------


def spade_witness(
    W: WeylGroup,
    tau: PiMap,
    nodes: frozenset[int],
    w1: WeylElt,
    recipe: Sequence[tuple[int, int, int]],
    inner: Optional[EngineCert],
    q: QuadExt,
    max_doublings: int = 8,
) -> EngineCert:
    """Composed witness for a row whose reduction system is infeasible.

    ``recipe`` lists (node, sign, level) for the free nodes: level-k
    magnitudes are successive factors of (n0 + 1) * previous / (q - 1)
    above the inner witness.  The construction is validated by the
    rebuilt system; scales double a few times before giving up.
    """
    nodes = frozenset(nodes)
    q = qext(q)
    if inner is not None:
        if not inner.dominant():
            raise ConstructionError("inner witness must be dominant")
        v = W.invert(inner.w)
        mu_K = dict(inner.mu)
        base = _max_abs(mu_K.values())
    else:
        v = W.identity
        mu_K = {}
        base = qext(0)
    if base < 1:
        base = qext(1)
    n0 = W.system.sub_n0(nodes)
    factor = qext(n0 + 1) / (q - 1)
    w = W.multiply(v, w1)
    last_error: Optional[ConstructionError] = None
    for _ in range(max_doublings + 1):
        mags = {0: base}
        level = 1
        while level <= max(lvl for _, _, lvl in recipe):
            mags[level] = factor * mags[level - 1]
            level += 1
        mu = dict(mu_K)
        for node, sign, lvl in recipe:
            mu[node] = mags[lvl] if sign > 0 else -mags[lvl]
        try:
            out = EngineCert(W.invert(w), mu, nodes, q)
            return _validate(W, inverse_pi(restrict_pi(tau, nodes)), out, "spade composition")
        except ConstructionError as exc:
            last_error = exc
            factor = factor * 2
    raise last_error if last_error is not None else ConstructionError("spade recipe failed")


# ---------------------------------------------------------------------------
# the recursive engine
# ---------------------------------------------------------------------------


def _components(W: WeylGroup, nodes: frozenset[int]) -> list[frozenset[int]]:
    comps = []
    left = set(nodes)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in comp and W.system.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    stack.append(j)
        comps.append(frozenset(comp))
        left -= comp
    return sorted(comps, key=min)


def _factor_element(W: WeylGroup, w: WeylElt, groups: Sequence[frozenset[int]]):
    """Split an element of a product of commuting parabolics by letters."""
    parts = []
    for g in groups:
        parts.append(W.from_word([i for i in w.word if i in g]))
    return parts


def _leaf_certificate(
    W: WeylGroup,
    pi: PiMap,
    nodes: frozenset[int],
    q: QuadExt,
    cls: DeltaClass,
) -> EngineCert:
    """Irreducible cuspidal leaf: match a catalog row and extend through it."""
    tau = inverse_pi(restrict_pi(pi, nodes))
    sub = sub_context(W, frozenset(nodes))
    sigma_sub = {sub.to_sub[i]: sub.to_sub[restrict_pi(pi, nodes)[i]] for i in nodes}
    ident = identify_standard(sub.system.cartan, sigma_sub)
    if ident is None:
        raise FalsificationError(f"cannot identify the type of node set {sorted(nodes)}")
    family, rank, order, phi_sub = ident
    # ambient node -> standard node, and back
    phi = {i: phi_sub[sub.to_sub[i]] for i in nodes}
    phi_inv = {v: k for k, v in phi.items()}

    rows = case_records(family, rank, order)
    if not rows:
        raise FalsificationError(f"no catalog rows for type {family}{rank} twist {order}")

    matches = []  # (minimality_rank, row_idx, v_idx, row, v_elt, placement, J)
    for row_idx, row in enumerate(rows):
        J_amb = frozenset(phi_inv[j] for j in row.J)
        placed = place_row(W, tau, J_amb, [phi_inv[i] for i in row.w1])
        if placed is None:
            continue
        for v_idx, vw in enumerate(placed.inner_cuspidal()):
            v = W.from_word(vw)
            u = W.multiply(v, placed.w1)
            if not cls.contains(W.invert(u)):
                continue
            minimal = 0 if u.length == cls.min_length else 1
            matches.append((minimal, row_idx, v_idx, row, v, placed, J_amb))
    if not matches:
        raise FalsificationError(
            f"no catalog row matches the class of {cls.representative.word} "
            f"in type {family}{rank} twist {order}"
        )
    matches.sort(key=lambda t: t[:3])
    minimal, row_idx, v_idx, row, v, placed, J_amb = matches[0]
    w1, K = placed.w1, placed.K
    if minimal != 0:
        raise FalsificationError(
            f"catalog coverage gap: class of {cls.representative.word} has no "
            f"minimal-length tabulated representative"
        )

    # Inner witness on K (forward side of the inner twisted class).
    inner: Optional[EngineCert] = None
    if K:
        pi_K = inverse_pi(placed.sigma)
        inner_cls = class_of(W, pi_K, W.invert(v), nodes=K)
        inner = _engine(W, pi_K, K, q, inner_cls)
        v = W.invert(inner.w)  # any minimal inner element serves

    star = build_star_system(W, J_amb, w1, tau, q, K=K, nodes=nodes)
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
        return extend_via_parabolic_step(
            W, tau, nodes, J_amb, w1, star_point, inner, q
        )

    # The reduction system is infeasible: spade territory.
    if not row.spade:
        raise FalsificationError(
            f"reduction system of non-spade row {row.label} is infeasible at q={q}"
        )
    if row.spade_recipe:
        recipe = tuple((phi_inv[n], s, lvl) for n, s, lvl in row.spade_recipe)
        inner_for_spade = inner
        if K and inner_for_spade is None:
            raise FalsificationError("spade recipe needs an inner witness")
        return spade_witness(W, tau, nodes, w1, recipe, inner_for_spade, q)
    # No composition recipe: search the class minima with the exact solver.
    for w in cls.min_elements():
        system = build_forward_system(W, w, restrict_pi(pi, nodes), q, nodes=nodes)
        mu = feasible(system)
        if mu is not None:
            point = {i: mu[i] for i in sorted(nodes)}
            return _validate(
                W, restrict_pi(pi, nodes), EngineCert(w, point, frozenset(nodes), q),
                "spade solver witness",
            )
    raise FalsificationError(
        f"spade row {row.label}: no witness over the class minima at q={q}"
    )


def _engine(
    W: WeylGroup,
    pi: PiMap,
    nodes: frozenset[int],
    q: QuadExt,
    cls: DeltaClass,
) -> EngineCert:
    nodes = frozenset(nodes)
    if not nodes:
        return EngineCert(W.identity, {}, nodes, qext(q))
    pi_r = restrict_pi(pi, nodes)
    w_min = cls.representative
    supp = supp_delta(W, pi_r, w_min)

    if supp != nodes:
        inner = _engine(W, pi_r, supp, q, class_of(W, pi_r, w_min, nodes=supp))
        return lift_to_full(W, pi_r, inner, nodes)

    comps = _components(W, nodes)
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
                img = frozenset(pi_r[i] for i in orbit)
                for c in list(remaining):
                    if c & img:
                        orbit |= c
                        remaining.remove(c)
                        changed = True
            orbits.append(frozenset(orbit))
        if len(orbits) > 1:
            factors = _factor_element(W, w_min, orbits)
            parts = []
            for orbit, felt in zip(orbits, factors):
                parts.append(_engine(W, pi_r, orbit, q, class_of(W, pi_r, felt, nodes=orbit)))
            return combine_orthogonal_factors(W, pi_r, parts)
        # One orbit of several components: reduce to the first component.
        I1 = comps[0]
        r = len(comps)
        inside = {k: n for k, n in W.elements(I1).items() if k in cls.members}
        if not inside:
            raise FalsificationError("cyclic class misses its first component")
        low = min(inside.values())
        v1 = min((WeylElt(W, k, low) for k, n in inside.items() if n == low),
                 key=lambda w: w.word)
        pi_pow = restrict_pi(_power_pi(pi_r, r), I1)
        inner = _engine(W, pi_pow, I1, qext(q) ** r, class_of(W, pi_pow, v1, nodes=I1))
        return combine_cyclic_factors(W, pi_r, inner, nodes, q)

    return _leaf_certificate(W, pi_r, nodes, q, cls)


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
    nodes = frozenset(range(1, W.rank + 1))
    cert = _engine(W, pi, nodes, q, dclass)
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
