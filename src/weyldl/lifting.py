"""Constructive certificate building: lift, combine, and extend.

This is the second, LP-light route to a certificate for every twisted
class: lift a witness from the support parabolic, combine witnesses
across orthogonal or cyclically permuted components, and extend through
a tabulated (J, w1) reduction step.  Every constructed witness is
re-checked against its rebuilt inequality system before being returned,
and every returned certificate against the independent checker
(:mod:`weyldl.checker`), which re-derives the rows from the Cartan
matrix alone and shares no group, root closure or reflection table with
this route; no bound is trusted numerically.

Every step works on all nodes of the group it is handed, with an index
map pi on them; at the top, pi is the class's own map (``DeltaClass.pi``),
not one read off a direction label.  A smaller parabolic W_S (the
support, an orthogonal or cyclic factor, the K of a tabulated step) is
certified in its standalone group (``subsystems.sub_context``) and its
witness embedded back; an ``EngineCert`` on S then feeds the step that
lifts or combines it.  Tabulated data is consulted through a
labelling isomorphism onto the standard types.

The route enumerates no group: each step starts from one minimal element
of its class.  A class on one pi-orbit of several components is read off
the fold of that element onto the orbit's first component
(``conjugacy._folds``), a minimal element there under the orbit's power
of pi, and an irreducible cuspidal class off its minimal level, which
the length-preserving cyclic shifts connect (Geck-Pfeiffer 2000, Thm
3.2.7; He-Nie, Duke Math. J. 161 (2012), Thm 1.1).

The recursion meets the same small classes again and again (A1, A2, B2,
the K of a catalog row), so ``_engine`` keeps one process-wide memo,
``_ENGINE_MEMO``, keyed on (Cartan matrix, pi, q, element key): each
distinct sub-problem is built and validated once per process.  A stored
witness was validated when it was built and cannot be changed in place;
every step around it still validates its own result, and
``constructive_certificate`` still passes every certificate it returns
through ``check_certificate``, which reads no memo of this module.

Two per-group facts on the way are also computed once per process, keyed
on the Cartan matrix and pi and never on a group object.  A cuspidal
class's minimal level is walked once: ``conjugacy``'s minimality memo
keeps it as one record under the key of each member, where
``class_list`` has usually left it already, and ``minimal_level`` spells
the record once and returns the same tuple from then on.  A leaf reads
the catalog through ``_ROW_MEMO``: per irreducible (Cartan matrix, pi),
its type's rows, read through the labelling that
``subsystems.standard_type`` keeps on the group, and for each row the
scans have reached, in catalog order, its placement and the keys of
(v w1)^-1 for its inner options v.  That is one placement and a few keys
per row reached: 24 types, 65 rows and 85 options for the 180 classes of
rank <= 4.  Only the inputs of the row scan are kept, so a leaf still
takes the first matching (row, v) in catalog order, and builds and
validates its witness afresh.  Each step validates against
``criterion``'s forward systems, one per (Cartan matrix, pi, q, element
key) in its ``_FORWARD_MEMO``: 220 from 387 builds at rank <= 4.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .casetables import RowPlacement, place_row
from .catalog import case_records
from .conjugacy import (
    DeltaClass,
    FalsificationError,
    PiMap,
    _folds,
    inverse_pi,
    minimal_level,
    supp_delta,
)
from .criterion import (
    FORM_FORWARD,
    Certificate,
    IneqSystem,
    admissible_q,
    build_forward_system,
    build_star_system,
    check_certificate,
    class_map,
    feasible,
    first_feasible,
)
from .exactnum import ZERO, QuadExt, qext
from .rootdata import Frozen, Twist
from .subsystems import SubContext, component_orbits, standard_type, sub_context
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
    """Forward-form witness of a group: its coordinates ``mu``, keyed by node.

    Its ``nodes`` are the keys of ``mu``.  A step returns one on all nodes
    of its group; a witness on a proper node set is the embedded witness
    of the parabolic on those nodes.  ``mu`` is a read-only copy of the
    mapping it is given: ``_engine`` shares stored witnesses between
    callers, so a step that needs other coordinates builds a new witness.
    """

    __slots__ = ("w", "mu", "q")

    def __init__(self, w: WeylElt, mu: Mapping[int, QuadExt], q: QuadExt):
        _setattr(self, "w", w)
        _setattr(self, "mu", MappingProxyType(dict(mu)))
        _setattr(self, "q", q)

    __hash__ = None  # ``mu`` is a mapping

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.mu)

    def dominant(self) -> bool:
        return all(m.sign() > 0 for m in self.mu.values())


def _validate(W: WeylGroup, pi: PiMap, cert: EngineCert, context: str) -> EngineCert:
    violated = build_forward_system(W, cert.w, pi, cert.q).violated(cert.mu)
    if violated:
        raise ConstructionError(f"{context}: constructed witness violates {violated[0][0]}")
    return cert


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
    m = qext(W.system.n0) * max(map(abs, inner.mu.values()), default=ZERO) / (q - 1) + 1
    mu = {i: (inner.mu[i] if i in J else m) for i in sorted(nodes)}
    return _validate(W, pi, EngineCert(inner.w, mu, q), "parabolic lift")


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
    return _validate(W, pi, EngineCert(w, mu, parts[0].q), "orthogonal combination")


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
        # (w^{-1} alpha_i)(mu)
        anchors[i] = sum((x * coords[j - 1] for x, j in zip(values, support)), ZERO)

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
    return _validate(W, pi, EngineCert(inner.w, mu, q), "cyclic combination")


def _inner_scale(
    W: WeylGroup, inner: Optional[EngineCert]
) -> tuple[WeylElt, dict[int, QuadExt], QuadExt]:
    """(v, mu on K, max |mu|) of a dominant inner witness, v = inner.w^{-1}."""
    if inner is None:
        return W.identity, {}, ZERO
    if not inner.dominant():
        raise ConstructionError("inner witness must be dominant")
    return W.invert(inner.w), dict(inner.mu), max(map(abs, inner.mu.values()), default=ZERO)


def extend_via_parabolic_step(
    W: WeylGroup,
    pi: PiMap,
    w1: WeylElt,
    star: IneqSystem,
    star_m: dict[int, QuadExt],
    inner: Optional[EngineCert],
) -> EngineCert:
    """Extend an inner dominant witness through a (J, w1) reduction step.

    ``pi`` is the class map on the nodes of W; ``star`` is the step's
    reduction system ``build_star_system(W, K, w1, tau, q)`` for tau the
    inverse of pi, with w1 in W^{tau(J)}, whose variables are the nodes
    outside K = I(J, w1, tau) and whose q is the step's.  ``inner`` is a
    forward-form witness on K for the inverse of the inner twisted class,
    and must be dominant.  The result is a forward-form witness whose
    element is (v w1)^{-1} with v = inner.w^{-1}.  The star point and the
    result are both checked against their systems.
    """
    q = star.q
    V = star.varset
    K = frozenset(W.system.nodes).difference(V)
    if set(star_m) != set(V):
        raise ValueError("star witness must cover exactly the free nodes")
    if any(qext(star_m[i]).sign() <= 0 for i in V):
        raise ValueError("star witness must be positive")
    point = {i: qext(star_m[i]) for i in V}
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
        mu[i] = m * point[i]
    w = W.multiply(v, w1)
    return _validate(W, pi, EngineCert(W.invert(w), mu, q), "parabolic extension")


# ---------------------------------------------------------------------------
# spade rows: composed witnesses with explicit scale separations
# ---------------------------------------------------------------------------


def spade_witness(
    W: WeylGroup,
    pi: PiMap,
    w1: WeylElt,
    recipe: Sequence[tuple[int, int, int]],
    inner: Optional[EngineCert],
    q: QuadExt,
) -> EngineCert:
    """Composed witness for a row whose reduction system is infeasible.

    ``recipe`` lists (node, sign, level) for the free nodes: the level-k
    magnitude is (n0 + 1) / (q - 1) times that of level k - 1, and level 0
    is the largest inner coordinate (at least 1).  The magnitudes are built
    once, as stated, and the forward system of the class map ``pi``
    validates the result.
    """
    q = qext(q)
    v, mu, base = _inner_scale(W, inner)
    mags = [base if base >= 1 else qext(1)]
    factor = qext(W.system.n0 + 1) / (q - 1)
    for _ in range(max(lvl for _, _, lvl in recipe)):
        mags.append(factor * mags[-1])
    for node, sign, lvl in recipe:
        mu[node] = mags[lvl] if sign > 0 else -mags[lvl]
    return _validate(W, pi, EngineCert(W.invert(W.multiply(v, w1)), mu, q), "spade composition")


# ---------------------------------------------------------------------------
# the recursive engine
# ---------------------------------------------------------------------------


def _standalone(
    W: WeylGroup, pi: PiMap, S: frozenset[int], q: QuadExt, x: WeylElt
) -> EngineCert:
    """Certify the class of the minimal element x of W_S in the standalone group of S.

    A parabolic's classes live in its standalone group, so each parabolic
    step is certified there.  ``pi`` is W's map, with S pi-stable; returns
    the witness embedded on S.
    """
    sub = sub_context(W, S)
    return _embed(sub, _engine(sub.group, sub.pi_to_sub(pi), q, sub.element_to_sub(x)))


def _embed(sub: SubContext, cert: EngineCert) -> EngineCert:
    """A standalone witness as a witness on the node set S of the ambient group."""
    mu = {sub.to_ambient[i]: m for i, m in cert.mu.items()}
    return EngineCert(sub.element_to_ambient(cert.w), mu, cert.q)


class _CatalogRows:
    """The catalog rows of one irreducible (Cartan matrix, pi), placed on first use.

    ``placed`` holds, for the rows scanned so far in catalog order, each
    row's ``place_row`` (None when w1 is not a minimal coset
    representative) and its inner options: (vw, key of (v w1)^-1) for each
    ambient word vw of ``inner_cuspidal``, v its element.  A scan places a
    row only when it first reaches it, so the table grows row by row, in
    catalog order.
    """

    __slots__ = ("label", "phi_inv", "rows", "placed")

    def __init__(self, W: WeylGroup, pi: PiMap):
        named = standard_type(W, pi)
        if named is None:
            raise FalsificationError(f"cannot identify the type of {W.system.family}")
        family, rank, order, phi = named  # phi: the standard node of each node of W
        self.label = f"type {family}{rank} twist {order}"
        self.phi_inv = {b: k for k, b in enumerate(phi or W.system.nodes, 1)}
        self.rows = case_records(family, rank, order)
        if not self.rows:
            raise FalsificationError(f"no catalog rows for {self.label}")
        self.placed: list[tuple[Optional[RowPlacement], list[tuple[tuple[int, ...], bytes]]]] = []

    def _place(self, W: WeylGroup, tau: PiMap, row) -> tuple:
        phi_inv = self.phi_inv
        w1_word = [phi_inv[i] for i in row.w1]
        placed = place_row(W, tau, frozenset(phi_inv[j] for j in row.J), w1_word)
        if placed is None:
            return None, []
        # (v w1)^-1 is spelled by the reversed words of w1 and then of v.
        return placed, [(vw, W._extend(W.identity, [*reversed(w1_word), *reversed(vw)]).key)
                        for vw in placed.inner_cuspidal()]

    def match(self, W: WeylGroup, tau: PiMap, keys: set[bytes]):
        """The first (row, placement, vw) in catalog order with (v w1)^-1 in ``keys``,
        or None."""
        for i, row in enumerate(self.rows):
            if i == len(self.placed):
                self.placed.append(self._place(W, tau, row))
            placed, options = self.placed[i]
            for vw, key in options:
                if key in keys:
                    return row, placed, vw
        return None


# (system key, pi) -> the catalog rows of that irreducible cuspidal type.
_ROW_MEMO: dict[tuple, _CatalogRows] = {}


def _leaf_certificate(
    W: WeylGroup, pi: PiMap, q: QuadExt, level: Sequence[WeylElt]
) -> EngineCert:
    """Irreducible cuspidal leaf: match a catalog row and extend through it.

    ``level`` is the minimal level of the class, by canonical word.  The
    first (row, v) in catalog order whose (v w1)^-1 lies in it is used;
    the identification of (W, pi), the rows' placements and the keys of
    their (v w1)^-1 come from ``_ROW_MEMO``, filled as the scans reach
    them.  The row's reduction system is built once, on the K that placing
    the row gives.  A row that states its witness ``m_values`` is extended
    through that witness, which ``extend_via_parabolic_step`` re-validates
    against the system (a failing one raises ConstructionError); only a
    row without one, always satisfied or spade, solves the system.
    """
    tau = inverse_pi(pi)
    memo_key = (W.system.key, tuple(sorted(pi.items())))
    table = _ROW_MEMO.get(memo_key)
    if table is None:
        table = _ROW_MEMO[memo_key] = _CatalogRows(W, pi)
    phi_inv = table.phi_inv

    found = table.match(W, tau, {u.key for u in level})
    if found is None:
        raise FalsificationError(
            f"no catalog row matches the class of {level[0].word} in {table.label}"
        )
    row, placed, vw = found
    w1, K = placed.w1, placed.K

    # Inner witness on K (forward side of the inner twisted class), in W_K,
    # at v^-1, whose word is vw reversed.
    inner = None
    if K:
        G, sigma, y = placed.inner(W.from_word(vw[::-1]))
        inner = _embed(sub_context(W, K), _engine(G, inverse_pi(sigma), q, y))

    star = build_star_system(W, K, w1, tau, q)
    if row.m_values is not None:
        star_point = {phi_inv[i]: m for i, m in row.m_values.items()}
        return extend_via_parabolic_step(W, pi, w1, star, star_point, inner)
    # No stated witness: an always-satisfied row, or a spade row, whose
    # reduction system may still be feasible above the minimal q.
    mu_star = feasible(star)
    if mu_star is not None:
        star_point = dict(zip(star.varset, mu_star))
        return extend_via_parabolic_step(W, pi, w1, star, star_point, inner)

    # The reduction system is infeasible: spade territory.
    if not row.spade:
        raise FalsificationError(
            f"reduction system of non-spade row {row.label} is infeasible at q={q}"
        )
    if row.spade_recipe:
        recipe = tuple((phi_inv[n], s, lvl) for n, s, lvl in row.spade_recipe)
        return spade_witness(W, pi, w1, recipe, inner, q)
    # No composition recipe: search the minimal level with the exact solver.
    found = first_feasible(W, level, pi, q)
    if found is None:
        raise FalsificationError(
            f"spade row {row.label}: no witness over the class minima at q={q}"
        )
    w, mu = found
    point = dict(zip(W.system.nodes, mu))
    return _validate(W, pi, EngineCert(w, point, q), "spade solver witness")


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
    cuspidal.  On one orbit of r components, x folds onto the first
    component C (``conjugacy._folds``): the fold f is minimal in C's
    standalone group under pi^r, since l(f) <= l(x) and the two classes
    have one least length, so f is certified there at q^r and spread
    over the orbit, with no walk.  A leaf, one irreducible component,
    reads its membership test and spade candidates from the minimal
    elements that one walk of length-preserving cyclic shifts from x
    lists by canonical word (``minimal_level``, which returns a level
    walked before without a walk).  Nothing is enumerated.
    """
    nodes = frozenset(W.system.nodes)
    supp = supp_delta(W, pi, x)
    if supp != nodes:
        if not supp:  # the identity class: no rank-0 standalone group
            return lift_to_full(W, pi, EngineCert(W.identity, {}, qext(q)))
        return lift_to_full(W, pi, _standalone(W, pi, supp, q, x))

    orbits = component_orbits(W, pi)
    if len(orbits) > 1:
        factors = [frozenset().union(*orbit) for orbit in orbits]
        return combine_orthogonal_factors(W, pi, [
            _standalone(W, pi, S, q, W.from_word([i for i in W.reduced_word(x) if i in S]))
            for S in factors
        ])
    if len(orbits[0]) > 1:
        # One orbit of r components: x folds onto the first, a minimal element
        # of its standalone group under pi^r, certified there at q^r.
        (fold,) = _folds(W, pi)
        G = fold.sub.group
        f = G.from_word(fold.word(W.reduced_word(x)))
        inner = _embed(fold.sub, _engine(G, fold.pi, qext(q) ** len(orbits[0]), f))
        return combine_cyclic_factors(W, pi, inner, q)

    return _leaf_certificate(W, pi, q, minimal_level(W, pi, x))


def constructive_certificate(
    W: WeylGroup,
    twist: Twist,
    dclass: DeltaClass,
    q,
) -> Certificate:
    """Certificate for a twisted class via the constructive route.

    The element and coweight generally differ from the solver route's;
    both must be accepted by the same independent checker.  A rank outside
    the checker's range and a q below the type's minimum (``admissible_q``),
    and a class of another group or twist (``class_map``), raise ValueError
    before any construction.  The construction and the certificate's
    direction come from the class's own index map.
    """
    family, rank = W.system.family, W.system.rank
    q = admissible_q(family, rank, twist.order, q)
    pi, direction = class_map(W, twist, dclass)
    cert = _engine(W, pi, q, dclass.representative)
    # The witness's element is a minimal member of the class, which the class
    # holds spelled already: the same key has the same canonical word.
    w = next((u for u in dclass.minimal if u.key == cert.w.key), cert.w)
    out = Certificate(
        family=family,
        rank=rank,
        twist=twist.order,
        direction=direction,
        q=q,
        w=w.word,
        form=FORM_FORWARD,
        mu=tuple(cert.mu.get(i, ZERO) for i in W.system.nodes),
    )
    result = check_certificate(out)
    if not result:
        raise ConstructionError(f"constructive certificate rejected: {result.reason}")
    return out
