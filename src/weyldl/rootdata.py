"""Root systems and diagram twists in Bourbaki labelling.

Roots are kept in simple-root coordinates: a root is a tuple of
integers ``c`` with ``alpha = sum_i c[i] alpha_{i+1}``.  The Cartan
matrix convention is ``C[i][j] = <alpha_j, alpha_i^vee>`` (1-based in
all interfaces, 0-based in storage), so the simple reflection acts by

    s_i(alpha) = alpha - (sum_j C[i][j] c_j) alpha_i.

The positive roots of a Cartan matrix are found by going up in height
through their pairings with the simple coroots, which also give the
image of every positive root under every simple reflection
(``RootSystem.simple_reflections``); ``weyl`` builds its reflection
tables from those images, once per matrix (``weyl.group_of``).

The record classes of the package (here, in ``criterion``, ``checker``,
``conjugacy``, ``lifting``, ``catalog`` and ``casetables``) are plain
slotted classes with written-out constructors.  Their equality, hashing
and repr come from :class:`Record`, which reads the fields off
``__slots__``, and the immutable ones derive from :class:`Frozen`.  They
are not ``dataclasses``, for start-up cost: importing that module pulls
in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated
class compiles its methods with ``exec`` at import, together about 25 ms
of every cold process (one ``weyldl check``, one benchmark pass).  Without
it ``import weyldl`` takes 56-78 ms instead of 81-94 ms when sources are
compiled on each start, and 8-12 ms instead of 30-40 ms from cached
bytecode (ten runs each, Python 3.11.7, shared 2-core x86-64 host).
"""

from __future__ import annotations

from functools import cache

__all__ = [
    "RootSystem",
    "Twist",
    "build_root_system",
    "build_twist",
    "candidate_types",
    "identity_twist",
    "positive_root_count",
    "system_of",
]

Root = tuple[int, ...]

_setattr = object.__setattr__


class Record:
    """Base of the record classes: equality, hashing and repr from the fields.

    The fields are the names in the subclass's ``__slots__``, in order;
    ``_fields()`` returns their values.  A subclass may override it to
    return the values of a leading part of ``__slots__`` only, and repr
    then prints that part.  Two records are equal when they are of the
    same class with equal fields.  A record class with a mutable field
    sets ``__hash__ = None``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{self.__class__.__name__}({fields})"


class Frozen(Record):
    """Base of the immutable record classes: assigning or deleting any attribute raises.

    A subclass's ``__init__`` sets its fields with ``object.__setattr__``,
    or, a quarter faster, with the ``__set__`` of each slot's member
    descriptor, as the records of ``checker`` do.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InvalidCartanTypeError(ValueError):
    """Raised for (family, rank) pairs that do not name a root system."""


def _chain_cartan(n: int) -> list[list[int]]:
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def _is_type(family: str, n: int) -> bool:
    """True when (family, n) names an irreducible type: the one rule of types."""
    return (
        (family == "A" and n >= 1)
        or (family in ("B", "C") and n >= 2)
        or (family == "D" and n >= 3)
        or (family == "E" and n in (6, 7, 8))
        or (family == "F" and n == 4)
        or (family == "G" and n == 2)
    )


def _check_type(family: str, rank: int) -> None:
    """Raise InvalidCartanTypeError unless (family, rank) names an irreducible type."""
    if not _is_type(family, rank):
        raise InvalidCartanTypeError(f"no root system of type {family}{rank}")


def candidate_types(rank: int) -> list[tuple[str, int]]:
    """The irreducible types of the given rank, in family order."""
    return [(family, rank) for family in "ABCDEFG" if _is_type(family, rank)]


@cache
def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of an irreducible type, Bourbaki node order; built once per type."""
    _check_type(family, rank)
    n = rank
    if family == "A":
        c = _chain_cartan(n)
    elif family == "B":
        # alpha_n is the short root.
        c = _chain_cartan(n)
        c[n - 1][n - 2] = -2
    elif family == "C":
        # alpha_n is the long root.
        c = _chain_cartan(n)
        c[n - 2][n - 1] = -2
    elif family == "D":
        c = _chain_cartan(n)
        c[n - 1][n - 2] = 0
        c[n - 2][n - 1] = 0
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
    elif family == "E":
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            c[i][i] = 2
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)]
        for i, j in edges:
            c[i - 1][j - 1] = -1
            c[j - 1][i - 1] = -1
    elif family == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short.
        c = _chain_cartan(4)
        c[2][1] = -2
    else:
        # G2: alpha_1 short, alpha_2 long; highest root 3a1 + 2a2.
        c = [[2, -3], [-1, 2]]
    return tuple(tuple(row) for row in c)


# Classical closed forms for |Phi^+| by family, as functions of the rank.
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def positive_root_count(family: str, rank: int) -> int:
    """Classical closed forms for |Phi^+|; raises where ``cartan_matrix`` does."""
    _check_type(family, rank)
    return _ROOT_COUNTS[family](rank)


class RootSystem(Frozen):
    """Positive roots of a (possibly reducible) crystallographic system.

    Equality, hashing and repr leave out ``simple_reflections`` and
    ``nodes`` (1..rank), which the other fields determine.
    """

    __slots__ = (
        "family", "rank", "cartan", "positive_roots", "highest_root", "n0",
        "simple_reflections", "nodes",
    )

    def __init__(
        self,
        family: str,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Root, ...],
        highest_root: Root,
        n0: int,
        # Entry q of row i - 1: the signed 1-based index of s_i(beta_{q+1}).
        simple_reflections: tuple[tuple[int, ...], ...],
    ):
        _setattr(self, "family", family)
        _setattr(self, "rank", rank)
        _setattr(self, "cartan", cartan)
        _setattr(self, "positive_roots", positive_roots)
        _setattr(self, "highest_root", highest_root)
        _setattr(self, "n0", n0)
        _setattr(self, "simple_reflections", simple_reflections)
        _setattr(self, "nodes", tuple(range(1, rank + 1)))

    def _fields(self) -> tuple:
        return (self.family, self.rank, self.cartan, self.positive_roots,
                self.highest_root, self.n0)

    @property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The group identity: the Cartan matrix, which fixes the root order,
        the element encoding and the reflection tables."""
        return self.cartan

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def _close_positive_roots(cartan) -> tuple[list[Root], list[list[int]]]:
    """The positive roots in (height, coordinates) order, and their simple reflections.

    Goes up by height, keeping each root's pairings p(beta) =
    (<beta, alpha_i^vee>)_i.  When p_i < 0, s_i beta = beta - p_i alpha_i
    (Bourbaki, Lie VI 1.3) is a higher root, whose pairings are
    p - p_i (column i of the Cartan matrix), so no root is found by a
    coordinate sum.  Every positive root is reached: a non-simple beta
    has some p_i > 0, and s_i beta is a lower positive root that goes up
    to beta by s_i.  Entry q of the second result's list i is the signed
    1-based index of s_i beta_q: the root that link reaches, beta_q
    itself when p_i = 0, and -q for alpha_i.
    """
    n = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(n)]
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    pending = {1: dict(zip(simples, columns))}
    roots, links = [], []
    height = 1
    while pending:
        level = pending.pop(height)
        for beta in sorted(level):
            p = level[beta]
            roots.append(beta)
            for i, p_i in enumerate(p):
                if p_i < 0:
                    gamma = beta[:i] + (beta[i] - p_i,) + beta[i + 1:]
                    higher = pending.setdefault(height - p_i, {})
                    if gamma not in higher:
                        higher[gamma] = tuple(a - p_i * c for a, c in zip(p, columns[i]))
                    links.append((beta, i, gamma))
        height += 1
    index = {r: q for q, r in enumerate(roots, 1)}
    reflections = [list(range(1, len(roots) + 1)) for _ in range(n)]
    for i, alpha in enumerate(simples):
        reflections[i][index[alpha] - 1] = -index[alpha]
    for beta, i, gamma in links:
        reflections[i][index[beta] - 1] = index[gamma]
        reflections[i][index[gamma] - 1] = index[beta]
    return roots, reflections


def _build_from_cartan(family: str, rank: int, cartan) -> RootSystem:
    roots, reflections = _close_positive_roots(cartan)
    return RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(roots),
        highest_root=roots[-1],
        n0=sum(roots[-1]),
        simple_reflections=tuple(map(tuple, reflections)),
    )


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct an irreducible root system by closing its simple roots
    upwards through their pairings (``_close_positive_roots``)."""
    cartan = cartan_matrix(family, rank)
    system = _build_from_cartan(family, rank, cartan)
    expected = positive_root_count(family, rank)
    if len(system.positive_roots) != expected:
        raise AssertionError(
            f"{family}{rank}: found {len(system.positive_roots)} positive roots, "
            f"expected {expected}"
        )
    return system


def system_of(cartan: tuple[tuple[int, ...], ...]) -> RootSystem:
    """The root system of a Cartan matrix: a type's Bourbaki matrix is built as
    that type, also when met as a parabolic, and any other is labelled by its rows."""
    for family, rank in candidate_types(len(cartan)):
        if cartan_matrix(family, rank) == cartan:
            return build_root_system(family, rank)
    label = "cartan:" + "/".join(",".join(map(str, row)) for row in cartan)
    return _build_from_cartan(label, len(cartan), cartan)


class Twist(Frozen):
    """A diagram automorphism delta, stored as the 1-based image tuple."""

    __slots__ = ("perm", "order")

    def __init__(self, perm: tuple[int, ...], order: int):
        _setattr(self, "perm", perm)
        _setattr(self, "order", order)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    @property
    def inverse_perm(self) -> tuple[int, ...]:
        n = len(self.perm)
        out = [0] * n
        for i, img in enumerate(self.perm, start=1):
            out[img - 1] = i
        return tuple(out)


def identity_twist(rank: int) -> Twist:
    return Twist(perm=tuple(range(1, rank + 1)), order=1)


def build_twist(family: str, rank: int, twist_order: int) -> Twist:
    """The standard twist of the given order (identity when order is 1)."""
    n = rank
    if twist_order == 1:
        return identity_twist(n)
    if twist_order == 2:
        if family == "A" and n >= 2:
            perm = tuple(n + 1 - i for i in range(1, n + 1))
        elif family == "D" and n >= 4:
            perm = tuple(range(1, n - 1)) + (n, n - 1)
        elif family == "E" and n == 6:
            perm = (6, 2, 5, 4, 3, 1)
        elif family == "B" and n == 2:
            perm = (2, 1)
        elif family == "G" and n == 2:
            perm = (2, 1)
        elif family == "F" and n == 4:
            perm = (4, 3, 2, 1)
        else:
            raise ValueError(f"type {family}{rank} has no twist of order 2")
    elif twist_order == 3:
        if family == "D" and n == 4:
            # delta: 1 -> 4, 3 -> 1, 4 -> 3 (so delta^{-1}(1) = 3).
            perm = (4, 2, 1, 3)
        else:
            raise ValueError(f"type {family}{rank} has no twist of order 3")
    else:
        raise ValueError(f"unsupported twist order {twist_order}")
    return Twist(perm=perm, order=twist_order)

