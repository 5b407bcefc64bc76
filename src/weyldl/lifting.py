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

The route enumerates no group: each step starts from one minimal element
of its class, and a cuspidal class is read off its minimal level, which
the length-preserving cyclic shifts connect (Geck-Pfeiffer 2000, Thm
3.2.7; He-Nie, Duke Math. J. 161 (2012), Thm 1.1).

The recursion meets the same small classes again and again (A1, A2, B2,
the K of a catalog row), so ``_engine`` keeps one process-wide memo,
``_ENGINE_MEMO``, keyed on (Cartan matrix, pi, q, element key): each
distinct sub-problem is built and validated once per process.  A stored
witness was validated when it was built and cannot be changed in place;
every step around it still validates its own result, and
``constructive_certificate`` still passes every certificate it returns
through ``check_certificate``.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .casetables import case_records, place_row
from .conjugacy import (
    DeltaClass,
    FalsificationError,
    PiMap,
    compute_I_J_x,
    inverse_pi,
    minimal_level,
    pi_of,
    power_pi,
    supp_delta,
)
from .criterion import (
    FORM_FORWARD,
    Certificate,
    admissible_q,
    build_forward_system,
    build_star_system,
    check_certificate,
    feasible,
)
from .exactnum import QuadExt, dot, qext
from .rootdata import Coweight, Frozen, Twist
from .subsystems import SubContext, component_orbits, identify_standard, sub_context
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

# Dyadic damping steps tried by the cyclic combination before it gives up.
MAX_EPS_STEPS = 64


_setattr = object.__setattr__


class ConstructionError(RuntimeError):
    """A constructive step failed its own re-validation."""


class EngineCert(Frozen):
    """Forward-form witness of a group: its coordinates on ``nodes``.

    A step returns one on all nodes of its group; a witness on a proper
    ``nodes`` is the embedded witness of the parabolic on those nodes.
    ``mu`` is a read-only copy of the mapping it is given: ``_engine``
    shares stored witnesses between callers, so a step that needs other
    coordinates builds a new witness.
    """

    __slots__ = ("w", "mu", "nodes", "q")

    def __init__(self, w: WeylElt, mu: Mapping[int, QuadExt], nodes: frozenset[int], q: QuadExt):
        _setattr(self, "w", w)
        _setattr(self, "mu", MappingProxyType(dict(mu)))
        _setattr(self, "nodes", nodes)
        _setattr(self, "q", q)

    __hash__ = None  # ``mu`` is a mapping

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


def combine_cyclic_factors(
    W: WeylGroup,
    pi: PiMap,
    inner: EngineCert,
    q: QuadExt,
) -> EngineCert:
    """Spread a witness of one component over a cycle of components.

    ``inner`` certifies the component I1 for the r-th power of the twist
    at q**r, with no zero coordinate, since the damping direction needs a
    sign; a zero raises ValueError.  The combined coweight places
    epsilon-damped, q-scaled copies of each coordinate around the cycle.
    The damping is 1 - 2^-k on positive coordinates and 1 + 2^-k on
    negative ones, for the first k = 1, 2, ... that keeps every anchor row
    strict: the factor farthest from 1 that holds.
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
    star = build_star_system(W, K, w1, tau, q)
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

    ``recipe`` lists (node, sign, level) for the free nodes: the level-k
    magnitude is (n0 + 1) / (q - 1) times that of level k - 1, and level 0
    is the largest inner coordinate (at least 1).  The magnitudes are built
    once, as stated, and the rebuilt system validates the result.
    """
    q = qext(q)
    v, mu, base = _inner_scale(W, inner)
    mags = [base if base >= 1 else qext(1)]
    factor = qext(W.system.n0 + 1) / (q - 1)
    for _ in range(max(lvl for _, _, lvl in recipe)):
        mags.append(factor * mags[-1])
    for node, sign, lvl in recipe:
        mu[node] = mags[lvl] if sign > 0 else -mags[lvl]
    out = EngineCert(W.invert(W.multiply(v, w1)), mu, frozenset(W.system.nodes), q)
    return _validate(W, inverse_pi(tau), out, "spade composition")


# ---------------------------------------------------------------------------
# the recursive engine
# ---------------------------------------------------------------------------


def _standalone(
    W: WeylGroup, pi: PiMap, S: frozenset[int], q: QuadExt, x: WeylElt
) -> EngineCert:
    """Certify the class of the minimal element x of W_S in the standalone group of S.

    ``pi`` need only be given on S.  Returns the witness embedded on S.
    """
    sub = sub_context(W, S)
    pi_sub = sub.pi_to_sub(pi)
    return _embed(sub, _engine(sub.group, pi_sub, q, sub.element_to_sub(x)))


def _embed(sub: SubContext, cert: EngineCert) -> EngineCert:
    """A standalone witness as a witness on the node set S of the ambient group."""
    mu = {sub.to_ambient[i]: m for i, m in cert.mu.items()}
    return EngineCert(sub.element_to_ambient(cert.w), mu, frozenset(sub.nodes), cert.q)


def _leaf_certificate(
    W: WeylGroup, pi: PiMap, q: QuadExt, level: Sequence[WeylElt]
) -> EngineCert:
    """Irreducible cuspidal leaf: match a catalog row and extend through it.

    ``level`` is the minimal level of the class, by canonical word.  The
    first (row, v) in catalog order whose (v w1)^-1 lies in it is used.
    A row that states its witness ``m_values`` is extended through that
    witness, which ``extend_via_parabolic_step`` re-validates (a failing
    one raises ConstructionError); only a row without one, always
    satisfied or spade, solves its reduction system.
    """
    tau = inverse_pi(pi)
    ident = identify_standard(W.system.cartan, pi)
    if ident is None:
        raise FalsificationError(f"cannot identify the type of {W.system.family}")
    family, rank, order, phi = ident  # node of W -> standard node
    phi_inv = {v: k for k, v in phi.items()}

    rows = case_records(family, rank, order)
    if not rows:
        raise FalsificationError(f"no catalog rows for type {family}{rank} twist {order}")

    keys = {u.key for u in level}
    for row in rows:
        J_W = frozenset(phi_inv[j] for j in row.J)
        placed = place_row(W, tau, J_W, [phi_inv[i] for i in row.w1])
        if placed is None:
            continue
        v = next((v for v in map(W.from_word, placed.inner_cuspidal())
                  if W.invert(W.multiply(v, placed.w1)).key in keys), None)
        if v is not None:
            break
    else:
        raise FalsificationError(
            f"no catalog row matches the class of {level[0].word} "
            f"in type {family}{rank} twist {order}"
        )
    w1, K = placed.w1, placed.K

    # Inner witness on K (forward side of the inner twisted class).
    inner = _standalone(W, inverse_pi(placed.sigma), K, q, W.invert(v)) if K else None

    if row.m_values is not None:
        star_point = {phi_inv[i]: m for i, m in row.m_values.items()}
        return extend_via_parabolic_step(W, tau, J_W, w1, star_point, inner, q)
    # No stated witness: an always-satisfied row, or a spade row, whose
    # reduction system may still be feasible above the minimal q.
    star = build_star_system(W, K, w1, tau, q)
    mu_star = feasible(star)
    if mu_star is not None:
        star_point = {i: mu_star[i] for i in star.varset}
        return extend_via_parabolic_step(W, tau, J_W, w1, star_point, inner, q)

    # The reduction system is infeasible: spade territory.
    if not row.spade:
        raise FalsificationError(
            f"reduction system of non-spade row {row.label} is infeasible at q={q}"
        )
    if row.spade_recipe:
        recipe = tuple((phi_inv[n], s, lvl) for n, s, lvl in row.spade_recipe)
        return spade_witness(W, tau, w1, recipe, inner, q)
    # No composition recipe: search the minimal level with the exact solver.
    for w in level:
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


_ENGINE_MEMO: dict[tuple, EngineCert] = {}


def _engine(W: WeylGroup, pi: PiMap, q: QuadExt, x: WeylElt) -> EngineCert:
    """Witness for the pi-class of the minimal element x of W, on all its nodes.

    Memoized per process on (system key, pi, q, key of x), so each
    sub-problem that recurs under many classes is built and validated
    once (``_engine_cold`` on a miss).  The system key is the Cartan
    matrix, which fixes the root order and the element encoding, so every
    group of one matrix (``weyl.group_of``'s, or a fresh ``WeylGroup`` of
    an equal system) shares the entries, as for ``class_list``.  A hit is
    safe: the stored witness passed every ``_validate`` of its
    construction, its ``mu`` is read-only, and each enclosing step
    re-validates what it builds from it.  A failed construction stores
    nothing.
    """
    key = (W.system.key, tuple(sorted(pi.items())), qext(q), x.key)
    cert = _ENGINE_MEMO.get(key)
    if cert is None:
        cert = _ENGINE_MEMO[key] = _engine_cold(W, pi, q, x)
    return cert


def _engine_cold(W: WeylGroup, pi: PiMap, q: QuadExt, x: WeylElt) -> EngineCert:
    """``_engine`` without the memo: one construction, every step validated.

    Below full twisted support, x is certified in its support parabolic
    and lifted; over several pi-orbits of components, its factors are
    certified one per orbit and combined.  Otherwise the class is
    cuspidal, and one walk of length-preserving cyclic shifts from x
    (``minimal_level``) lists its minimal elements by canonical word: a
    cyclic orbit reduces to the first of them inside its first
    component, and a leaf reads its membership test and spade candidates
    from them.  Nothing is enumerated.
    """
    nodes = frozenset(W.system.nodes)
    supp = supp_delta(W, pi, x)
    if supp != nodes:
        if not supp:  # the identity class: no rank-0 standalone group
            return lift_to_full(W, pi, EngineCert(W.identity, {}, frozenset(), qext(q)))
        return lift_to_full(W, pi, _standalone(W, pi, supp, q, x))

    orbits = component_orbits(W, pi)
    if len(orbits) > 1:
        factors = [frozenset().union(*orbit) for orbit in orbits]
        return combine_orthogonal_factors(W, pi, [
            _standalone(W, pi, S, q, W.from_word([i for i in W.reduced_word(x) if i in S]))
            for S in factors
        ])
    level = minimal_level(W, pi, x)
    comps = orbits[0]
    if len(comps) > 1:
        # One orbit of several components: reduce to the first component.
        v1 = next((u for u in level if set(u.word) <= comps[0]), None)
        if v1 is None:
            raise FalsificationError("cyclic class misses its first component")
        r = len(comps)
        sub = sub_context(W, comps[0])
        pi_sub = sub.pi_to_sub(power_pi(pi, r))
        inner = _engine(sub.group, pi_sub, qext(q) ** r, sub.element_to_sub(v1))
        return combine_cyclic_factors(W, pi, _embed(sub, inner), q)

    return _leaf_certificate(W, pi, q, level)


def constructive_certificate(
    W: WeylGroup,
    twist: Twist,
    dclass: DeltaClass,
    q,
) -> Certificate:
    """Certificate for a twisted class via the constructive route.

    The element and coweight generally differ from the solver route's;
    both must be accepted by the same independent checker.  A rank outside
    the checker's range and a q below the type's minimum raise ValueError
    before any construction (``admissible_q``).
    """
    family, rank = W.system.family, W.system.rank
    q = admissible_q(family, rank, twist.order, q)
    pi = pi_of(twist, dclass.direction)
    cert = _engine(W, pi, q, dclass.representative)
    coords = [cert.mu.get(i, qext(0)) for i in range(1, W.rank + 1)]
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
