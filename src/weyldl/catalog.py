"""The bundled catalog of twisted-class reduction cases: the rows alone.

Each record holds, for one cuspidal inverse-twisted class family of one
group type: the node set J, the coset representative w1, the expected
fixed node set K, the inner-class options v, and (for non-spade rows) a
positive witness for the reduction system.  Spade rows are the ones
whose reduction system is infeasible at the minimal q; they carry a
certificate obligation instead.  A row's label and the
mode of its inner options are derived from these fields, never written.

The printed inequality strings are stored as documentation only: the
verifier, ``casetables``, derives every system from (J, w1, twist) by
group action and never reads them.  Each row carries one reading of its
step; where the printed text fails a structural precondition, the row
holds the amended reading and its ``notes`` say what was printed.  The
tests compare each printed list of rows with the derived system, and the
``notes`` name each difference (E6 case 3).

The rows are a module of their own, apart from their verifier, for
start-up memory: a process that starts without cached bytecode compiles
every module it imports, and the parser's transient memory for the
largest one sets the peak RSS of its start.  The rows import neither
``casetables`` nor ``lifting``, so ``import weyldl.catalog`` compiles
neither.  A bare ``import weyldl`` does not load the rows: they come
with the rest of the prover on its first name, and checking a
certificate never reads them.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Optional

from .conjugacy import PiMap, pi_of
from .criterion import MAX_RANK
from .rootdata import Frozen, build_twist
from .weyl import WeylGroup, weyl_group

__all__ = [
    "CATALOG_DIRECTION",
    "CaseRecord",
    "case_records",
    "load_case_records",
    "type_group",
]


_setattr = object.__setattr__

# The twist direction of every tabulated class (``type_group``).  Spade rows
# certify in the forward form under "delta"; the checker also reads the
# inverse form, which no route writes.
CATALOG_DIRECTION = "delta_inv"


def br(a: int, b: int) -> tuple[int, ...]:
    """Descending run (a, a-1, ..., b); empty when a < b."""
    return tuple(range(a, b - 1, -1)) if a >= b else ()


def bri(a: int, b: int) -> tuple[int, ...]:
    """Inverse of the descending run: (b, b+1, ..., a); empty when a < b."""
    return tuple(range(b, a + 1)) if a >= b else ()


class CaseRecord(Frozen):
    """One catalog row: its type, reduction step (J, w1), expected K and inner options.

    ``label`` and ``v_mode`` are derived from the other fields, never stored.
    Unhashable, whether or not a row states ``m_values``, a dict.
    """

    __slots__ = (
        "family", "rank", "twist", "case", "spade", "J", "w1", "K_expected", "v_words",
        "v_lengths", "m_values", "pinned_mu", "spade_recipe", "prose", "notes", "param_a",
    )

    def __init__(
        self,
        family: str,
        rank: int,
        twist: int,
        case: int,
        J: frozenset[int],
        w1: tuple[int, ...],
        K_expected: frozenset[int],
        spade: bool = False,
        v_words: tuple[tuple[int, ...], ...] = (),
        v_lengths: tuple[int, ...] = (),
        m_values: Optional[dict[int, int]] = None,
        pinned_mu: Optional[tuple[int, ...]] = None,
        spade_recipe: tuple[tuple[int, int, int], ...] = (),
        prose: str = "",
        notes: tuple[str, ...] = (),
        param_a: Optional[int] = None,
    ):
        _setattr(self, "family", family)
        _setattr(self, "rank", rank)
        _setattr(self, "twist", twist)
        _setattr(self, "case", case)
        _setattr(self, "spade", spade)
        _setattr(self, "J", J)
        _setattr(self, "w1", w1)
        _setattr(self, "K_expected", K_expected)
        _setattr(self, "v_words", v_words)
        _setattr(self, "v_lengths", v_lengths)
        _setattr(self, "m_values", m_values)
        _setattr(self, "pinned_mu", pinned_mu)
        _setattr(self, "spade_recipe", spade_recipe)
        _setattr(self, "prose", prose)
        _setattr(self, "notes", notes)
        _setattr(self, "param_a", param_a)

    __hash__ = None  # ``m_values`` is a dict

    @property
    def type_name(self) -> str:
        return _type_name(self.family, self.rank, self.twist)

    @property
    def label(self) -> str:
        tail = "" if self.param_a is None else f" a={self.param_a}"
        return f"{self.type_name} case {self.case}{tail}"

    @property
    def v_mode(self) -> str:
        """The listed inner options ("words", "lengths"), else "all" cuspidal
        inner classes, or "identity" when K is empty."""
        if self.v_words:
            return "words"
        if self.v_lengths:
            return "lengths"
        return "all" if self.K_expected else "identity"


def _type_name(family: str, rank: int, twist: int) -> str:
    """The type's name as its row labels begin: "E6", "2E6", "3D4"."""
    return f"{'' if twist == 1 else twist}{family}{rank}"


@cache
def type_group(family: str, rank: int, twist: int, /) -> tuple[WeylGroup, PiMap]:
    """The group of a catalog type and the index map of its inverse twist.

    Built once per type and shared by every row of it: no caller may
    change the map.
    """
    return weyl_group(family, rank), pi_of(build_twist(family, rank, twist), CATALOG_DIRECTION)


# ---------------------------------------------------------------------------
# record builders, one per type family
# ---------------------------------------------------------------------------


def _records_A(n: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    return [
        CaseRecord(
            family="A", rank=n, twist=1, case=1,
            J=I - {1}, w1=br(n, 1), K_expected=frozenset(),
            m_values={i: 1 for i in range(1, n + 1)},
            prose="q m_i - m_{i-1} > 0 for i != 1; take m_i = 1",
        )
    ]


def _records_2A(n: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    out = []
    for a in range(1, n // 2 + 2):
        K = frozenset(range(a, n - a + 1))
        V = sorted(I - K)
        m = {i: 2 if i in (a - 1, n + 1 - a) else 1 for i in V}
        out.append(
            CaseRecord(
                family="A", rank=n, twist=2, case=1,
                J=I - {n}, w1=br(n + 1 - a, 1), K_expected=K,
                m_values=m, param_a=a,
                prose="q m_i - m_{n+1-i} (i < a-1); q m_{a-1} - m_{n+1-a} - m_{n+2-a}; "
                      "q m_i - m_{n-i} (n-a < i < n)",
                notes=("index rule for the stated m pattern reads only indices "
                       "that exist outside K",) if a == 1 else (),
            )
        )
    return out


def _records_BC(family: str, n: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    out = []
    for a in range(1, n):
        K = frozenset(range(a + 1, n + 1))
        m = {i: 1 for i in range(1, a)}
        m[a] = 2
        out.append(
            CaseRecord(
                family=family, rank=n, twist=1, case=1,
                J=I - {1}, w1=bri(n - 1, a) + br(n, 1), K_expected=K,
                m_values=m, param_a=a,
                prose="q m_i - m_{i-1} (1 < i < a); q m_a - m_{a-1} - m_a",
            )
        )
    m2 = {i: 1 for i in range(1, n)}
    m2[n] = 3
    eps = 1 if family == "B" else 2
    out.append(
        CaseRecord(
            family=family, rank=n, twist=1, case=2,
            J=I - {1}, w1=br(n, 1), K_expected=frozenset(),
            m_values=m2,
            prose=f"q m_i - m_{{i-1}} (1 < i < n); q m_n - m_n - {eps} m_{{n-1}}",
        )
    )
    return out


def _records_D(n: int, twist: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    tw = build_twist("D", n, twist)
    out = []
    for a in range(1, n - 1):
        K = frozenset(range(a + 1, n + 1))
        m = {i: 1 for i in range(1, a)}
        m[a] = 2
        out.append(
            CaseRecord(
                family="D", rank=n, twist=twist, case=1,
                J=I - {1}, w1=bri(n - 2, a) + br(n, 1), K_expected=K,
                m_values=m, param_a=a,
                prose="q m_i - m_{i-1} (1 < i < a); q m_a - m_{a-1} - m_a",
                notes=("printed witness 'm_a=1 for i<a' read as m_i = 1 for i < a",),
            )
        )
    # The shared section's remaining two rows split by twist: the class of
    # s_{[n,1]} is cuspidal only untwisted, that of s_{[n-1,1]} only twisted.
    if twist == 1:
        m2 = {i: 1 for i in range(1, n - 1)}
        m2[n - 1] = 2
        m2[n] = 2
        out.append(
            CaseRecord(
                family="D", rank=n, twist=twist, case=2,
                J=I - {1}, w1=br(n, 1), K_expected=frozenset(),
                m_values=m2,
                prose="q m_i - m_{i-1} (1 < i <= n-2); q m_{d(n-1)} - m_{n-2} - m_n; "
                      "q m_{d(n)} - m_{n-2} - m_{n-1}",
                notes=("row applies to the untwisted type only: the twisted class "
                       "of s_{[n,1]} is not cuspidal",),
            )
        )
    else:
        m3 = {i: 1 for i in range(1, n + 1)}
        m3[tw(n)] = 3
        out.append(
            CaseRecord(
                family="D", rank=n, twist=twist, case=3,
                J=I - {1}, w1=br(n - 1, 1), K_expected=frozenset(),
                m_values=m3,
                prose="q m_i - m_{i-1} (1 < i <= n-2); q m_{d(n-1)} - m_{n-2}; "
                      "q m_{d(n)} - m_{n-2} - m_{n-1} - m_n",
                notes=("row applies to the twisted type only: the untwisted class "
                       "of s_{[n-1,1]} is not cuspidal",),
            )
        )
    return out


def _records_3D4() -> list[CaseRecord]:
    I = frozenset({1, 2, 3, 4})
    J = I - {4}
    return [
        CaseRecord(
            family="D", rank=4, twist=3, case=1,
            J=J, w1=(2, 1), K_expected=frozenset(),
            m_values={1: 3, 2: 2, 3: 2, 4: 1},
            prose="q m_1 - m_2 - m_3; q m_2 - m_1; q m_3 - m_2 - m_4",
        ),
        CaseRecord(
            family="D", rank=4, twist=3, case=2,
            J=J, w1=(3, 2, 1), K_expected=frozenset({1, 2}),
            m_values={3: 2, 4: 1},
            prose="q m_3 - m_3 - m_4",
        ),
        CaseRecord(
            family="D", rank=4, twist=3, case=3,
            J=J, w1=(1, 2, 4, 3, 2, 1), K_expected=frozenset({2, 3}),
            m_values={1: 1, 4: 1},
            prose="q m_1 - m_4",
        ),
    ]


def _records_E6() -> list[CaseRecord]:
    W = weyl_group("E", 6)
    I = frozenset(range(1, 7))
    J = I - {6}
    w0 = W.longest_element(I)
    w0J = W.longest_element(J)
    c4w1 = W.multiply(w0, w0J).word
    return [
        CaseRecord(
            family="E", rank=6, twist=1, case=1,
            J=J, w1=bri(6, 1), K_expected=frozenset(),
            m_values={1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1},
            prose="q m_1 - m_3; q m_2 - m_1 - m_3 - m_4; q m_3 - m_2 - m_4; "
                  "q m_4 - m_5; q m_5 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=2,
            J=J, w1=(3, 4) + bri(6, 1), K_expected=frozenset(),
            m_values={1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1},
            prose="q m_1 - m_4; q m_2 - m_1; q m_3 - m_2; q m_4 - m_3 - m_4 - m_5; q m_5 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=3,
            J=J, w1=(2, 4, 5, 3, 4) + bri(6, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values={1: 3, 2: 2, 5: 5, 6: 1},
            prose="q m_1 - m_5; q m_2 - m_1; q m_5 - m_1 - m_5 - m_6",
            notes=("printed row q m_5 - m_1 - m_5 - m_6; the derived row is "
                   "q m_5 - m_2 - m_5 - m_6, and the witness (m_1, m_2, m_5, m_6) = "
                   "(3, 2, 5, 1) meets both, with slack 1 and 2 at q = 2",),
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=4,
            J=J, w1=c4w1, K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(8,),
            m_values={1: 1, 6: 1},
            prose="q m_1 - m_6",
        ),
    ]


def _records_2E6() -> list[CaseRecord]:
    W = weyl_group("E", 6)
    I = frozenset(range(1, 7))
    J = I - {1}
    Jp = I - {6}  # delta^{-1}(J)
    w0 = W.longest_element(I)
    w0Jp = W.longest_element(Jp)
    base = W.multiply(w0, w0Jp)  # w0 w0^{d^{-1}(J)}
    c6w1 = W.multiply(W.simple(3), W.multiply(W.simple(1), base)).word
    c7w1 = W.multiply(W.simple(1), base).word
    c8w1 = base.word
    w0K_c8 = W.longest_element(J).word
    note_w0 = "printed w0^J read as w0^{delta^{-1}(J)}; forced by the coset precondition"
    return [
        CaseRecord(
            family="E", rank=6, twist=2, case=1,
            J=J, w1=(2,) + bri(6, 4), K_expected=frozenset(),
            m_values={1: 1, 2: 2, 3: 1, 4: 3, 5: 5, 6: 1},
            prose="q m_2 - m_4; q m_3 - m_6; q m_4 - m_5; q m_5 - m_2 - m_3 - m_4; q m_6 - m_1",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=2,
            J=J, w1=(4,) + bri(6, 2), K_expected=frozenset(),
            m_values={1: 1, 2: 3, 3: 5, 4: 3, 5: 2, 6: 9},
            prose="q m_2 - m_3; q m_3 - m_6; q m_4 - m_4 - m_5; q m_5 - m_2; q m_6 - m_1 - m_3 - m_4",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=3,
            J=J, w1=(5, 4) + bri(6, 2), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values={1: 1, 2: 3, 3: 5, 5: 2, 6: 7},
            prose="q m_2 - m_3; q m_3 - m_5 - m_6; q m_5 - m_2; q m_6 - m_1 - m_3 - m_5",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=4,
            J=J, w1=br(6, 4) + bri(6, 2), K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(4, 6),
            m_values={1: 1, 6: 2},
            prose="q m_6 - m_1 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=5,
            J=J, w1=br(5, 3) + br(6, 4) + bri(6, 1), K_expected=frozenset({3, 4, 6}),
            v_words=((3, 4, 3, 6),),
            m_values={1: 1, 2: 1, 5: 2},
            prose="printed: q m_2 - m_1 only, with (1,1,1)",
            notes=("the derived row q m_5 - m_2 - m_5 is not automatic and the "
                   "printed point meets it with slack zero at q = 2; the witness "
                   "is corrected to (m_1, m_2, m_5) = (1, 1, 2)",),
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=6,
            J=J, w1=c6w1, K_expected=frozenset({5, 6}),
            v_words=((5, 6),),
            m_values={1: 1, 2: 1, 3: 1, 4: 2},
            prose="q m_2 - m_1; q m_3 - m_2; q m_4 - m_3 - m_4",
            notes=(note_w0,),
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=7,
            J=J, w1=c7w1, K_expected=frozenset({4, 5, 6}),
            v_words=((6, 5, 4),),
            m_values={1: 1, 2: 2, 3: 2},
            prose="q m_2 - m_1 - m_3; q m_3 - m_2",
            notes=(note_w0,),
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=8,
            J=J, w1=c8w1, K_expected=frozenset({2, 3, 4, 5, 6}),
            v_words=(w0K_c8,),
            prose="always satisfied",
            notes=("printed v = w0^{delta^{-1}(J)} lies outside W_K; realized as its "
                   "Ad(w1)-transport w0^K, giving the same product v w1 = w0",),
        ),
    ]


def _records_E7() -> list[CaseRecord]:
    W = weyl_group("E", 7)
    I = frozenset(range(1, 8))
    J = I - {7}
    w0 = W.longest_element(I)
    w0J = W.longest_element(J)
    c9w1 = W.multiply(w0, w0J).word
    w0K_c7 = W.longest_element({3, 4, 5, 6}).word
    return [
        CaseRecord(
            family="E", rank=7, twist=1, case=1,
            J=J, w1=bri(7, 1), K_expected=frozenset(),
            m_values={1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=2,
            J=J, w1=(3, 4) + bri(7, 1), K_expected=frozenset(),
            m_values={1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1, 7: 1},
            prose="printed row 'q m_4 - m_3 - - m_4 - m_5' carries a doubled minus",
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=3,
            J=J, w1=(4, 3, 5, 4) + bri(7, 1), K_expected=frozenset(),
            m_values={1: 5, 2: 3, 3: 3, 4: 2, 5: 4, 6: 1, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=4,
            J=J, w1=(2, 4, 3, 5, 4) + bri(7, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values={1: 3, 2: 2, 5: 5, 6: 1, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=5,
            J=J, w1=(3, 4, 2) + br(5, 3) + br(6, 4) + bri(7, 1), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values={1: 7, 2: 5, 3: 2, 5: 3, 6: 7, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=6,
            J=J, w1=(1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(7, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(4, 6, 8),
            m_values={1: 3, 6: 5, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=7,
            J=J, w1=(2, 4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1),
            K_expected=frozenset({3, 4, 5, 6}),
            v_words=(w0K_c7,),
            m_values={1: 1, 2: 2, 7: 1},
            notes=("the amended tail s_{[7,1]}^{-1} is used; the printed tail "
                   "s_{[1,7]}^{-1}, the empty word under the bracket convention, "
                   "fails the coset precondition",),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=8,
            J=J, w1=br(6, 4) + bri(5, 2) + (1, 3, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_words=((3, 5, 4, 3, 5, 4, 2),),
            m_values={1: 2, 6: 2, 7: 1},
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=9,
            J=J, w1=c9w1, K_expected=frozenset(J),
            v_words=(w0J.word,),
            prose="always satisfied",
        ),
    ]


def _records_E8() -> list[CaseRecord]:
    W = weyl_group("E", 8)
    I = frozenset(range(1, 9))
    J = I - {8}
    w0 = W.longest_element(I)
    w0J = W.longest_element(J)
    c17w1 = W.multiply(w0, w0J).word
    w0K_c9 = W.longest_element({3, 4, 5, 6}).word
    return [
        CaseRecord(
            family="E", rank=8, twist=1, case=1,
            J=J, w1=bri(8, 1), K_expected=frozenset(),
            m_values={1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1},
            notes=("printed witness (2,3,4,1,...) violates its own printed rows at "
                   "q = 2; corrected to (2,4,3,1,...) matching the E6/E7 analogues",),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=2,
            J=J, w1=(3, 4) + bri(8, 1), K_expected=frozenset(),
            m_values={1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1, 7: 1, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=3,
            J=J, w1=(4, 5, 3, 4) + bri(8, 1), K_expected=frozenset(),
            m_values={1: 5, 2: 3, 3: 3, 4: 2, 5: 4, 6: 1, 7: 1, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=4,
            J=J, w1=(2, 4, 3, 5, 4) + bri(8, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values={1: 3, 2: 2, 5: 5, 6: 1, 7: 1, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=5,
            J=J, w1=(4, 2) + br(5, 3) + br(6, 4) + bri(8, 1), K_expected=frozenset(),
            m_values={1: 9, 2: 5, 3: 2, 4: 3, 5: 3, 6: 17, 7: 1, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=6,
            J=J, w1=(3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values={1: 7, 2: 5, 3: 2, 5: 3, 6: 13, 7: 1, 8: 1},
            notes=("printed 'I(J, w_1, d^{-1}) = s_4' read as the node set {4}",),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=7,
            J=J, w1=(1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(2, 4, 6, 8),
            m_values={1: 3, 6: 5, 7: 1, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=8,
            J=J, w1=(4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({3, 6}),
            v_words=((3,),),
            m_values={1: 8, 2: 6, 4: 3, 5: 5, 7: 15, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=9,
            J=J, w1=(2, 4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({3, 4, 5, 6}),
            v_words=((3, 4), (4, 5, 4, 3), w0K_c9),
            m_values={1: 4, 2: 5, 7: 7, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=10,
            J=J, w1=(5, 4) + bri(7, 2) + (1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1),
            K_expected=frozenset({2, 4}),
            v_words=((2, 4),),
            m_values={1: 17, 3: 7, 5: 4, 6: 9, 7: 33, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=11,
            J=J, w1=br(6, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_words=((2, 4, 5), (4, 5, 3, 4, 2, 5, 3)),
            m_values={1: 9, 6: 5, 7: 12, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=12, spade=True,
            J=J, w1=br(7, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset(range(1, 7)),
            v_lengths=(12, 14, 16, 18, 36),
            spade_recipe=((8, -1, 1), (7, 1, 2)),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=13,
            J=J,
            w1=br(6, 4) + bri(6, 2) + br(7, 4) + bri(6, 2) + (1, 3, 4, 2)
            + br(5, 3) + br(8, 4) + bri(8, 1),
            K_expected=frozenset({2, 3, 4, 5, 7}),
            v_lengths=(9,),
            m_values={1: 3, 6: 4, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=14,
            J=J,
            w1=(3, 4, 2) + bri(7, 5) + bri(6, 4) + bri(5, 3) + bri(3, 1)
            + br(4, 1) + br(5, 3) + br(6, 4) + (2,) + br(7, 3) + br(8, 4) + bri(8, 1),
            K_expected=frozenset({4, 5, 6, 7}),
            v_words=(br(7, 4),),
            m_values={1: 3, 2: 3, 3: 2, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=15,
            J=J,
            w1=(1, 3, 4, 2) + bri(7, 5) + bri(6, 4) + (3, 4) + bri(4, 1)
            + br(5, 1) + (4, 3) + br(6, 4) + (2,) + br(7, 3) + br(8, 4) + bri(8, 1),
            K_expected=frozenset(range(2, 8)),
            v_words=(
                (3, 4) + bri(5, 2) + br(6, 4) + bri(7, 2),
                bri(4, 2) + bri(5, 2) + (4,) + bri(5, 2) + br(6, 4) + bri(7, 2),
            ),
            m_values={1: 2, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=16,
            J=J,
            w1=br(7, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1)
            + br(8, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset(range(1, 7)),
            v_lengths=(24,),
            m_values={7: 2, 8: 1},
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=17,
            J=J, w1=c17w1, K_expected=frozenset(J),
            v_words=(w0J.word,),
            prose="always satisfied",
        ),
    ]


def _records_F4() -> list[CaseRecord]:
    W = weyl_group("F", 4)
    I = frozenset(range(1, 5))
    # The printed type-level J = I - {4} fails the coset precondition for
    # every listed w1 and contradicts the printed inequality rows; J = I - {1}
    # satisfies both (the twisted form of this type reaches the same node set
    # through its twist, which is why the printed J works there).
    J = I - {1}
    w0 = W.longest_element(I)
    c7w1 = W.multiply(w0, W.longest_element(J)).word
    J6 = frozenset({2, 3, 4})
    c6w1 = W.multiply(W.simple(1), W.multiply(w0, W.longest_element(J6))).word
    return [
        CaseRecord(
            family="F", rank=4, twist=1, case=1,
            J=J, w1=br(4, 1), K_expected=frozenset(),
            m_values={1: 1, 2: 1, 3: 5, 4: 3},
            prose="q m_2 - m_1; q m_3 - m_2 - m_3 - m_4; q m_4 - m_3",
            notes=("printed type-level J = I-{4} fails the coset precondition; "
                   "J = I-{1} reproduces the printed rows exactly",),
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=2,
            J=J, w1=(3, 2) + br(4, 1), K_expected=frozenset(),
            m_values={1: 1, 2: 12, 3: 5, 4: 9},
            prose="q m_2 - m_1 - m_2 - 2 m_3; q m_3 - m_4; q m_4 - m_2 - m_3",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=3, spade=True,
            J=J, w1=(2, 3, 2) + br(4, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            spade_recipe=((1, -1, 1), (2, 1, 2)),
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=4,
            J=J, w1=br(3, 1) + (3, 2) + br(4, 1), K_expected=frozenset({2}),
            v_words=((2,),),
            m_values={1: 1, 3: 4, 4: 3},
            prose="q m_3 - m_3 - m_4; q m_4 - m_1 - m_3",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=5,
            J=J, w1=br(4, 1) + (3, 2) + br(4, 1), K_expected=frozenset({2, 3}),
            v_words=((2, 3), (2, 3, 2, 3)),
            m_values={1: 1, 4: 2},
            prose="q m_4 - m_1 - m_4",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=6,
            J=J6, w1=c6w1, K_expected=frozenset({3, 4}),
            v_words=((3, 4),),
            m_values={1: 1, 2: 2},
            prose="q m_2 - m_1 - m_2",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=7,
            J=J, w1=c7w1, K_expected=frozenset(J),
            v_words=(W.longest_element(J).word,),
            prose="always satisfied",
        ),
    ]


def _records_G2() -> list[CaseRecord]:
    W = weyl_group("G", 2)
    return [
        CaseRecord(
            family="G", rank=2, twist=1, case=1, spade=True,
            J=frozenset({1}), w1=(1, 2), K_expected=frozenset(),
        ),
        CaseRecord(
            family="G", rank=2, twist=1, case=2,
            J=frozenset({1}), w1=(1, 2, 1, 2), K_expected=frozenset(),
            m_values={1: 2, 2: 1},
            prose="q m_1 - m_1 - m_2",
        ),
        CaseRecord(
            family="G", rank=2, twist=1, case=3,
            J=frozenset(), w1=W.longest_element({1, 2}).word, K_expected=frozenset(),
            prose="always satisfied",
            notes=("w1 = w0 forces J = {} here; the type-level J = {1} fails the "
                   "coset precondition for w0",),
        ),
    ]


def _records_2B2() -> list[CaseRecord]:
    return [
        CaseRecord(
            family="B", rank=2, twist=2, case=1,
            J=frozenset({1}), w1=(1,), K_expected=frozenset(),
            m_values={1: 3, 2: 1},
            prose="q m_1 - m_1 - m_2",
        ),
        CaseRecord(
            family="B", rank=2, twist=2, case=2,
            J=frozenset({1}), w1=(1, 2, 1), K_expected=frozenset(),
            m_values={1: 1, 2: 1},
            prose="q m_1 - m_2",
        ),
    ]


def _records_2G2() -> list[CaseRecord]:
    return [
        CaseRecord(
            family="G", rank=2, twist=2, case=1,
            J=frozenset({2}), w1=(2,), K_expected=frozenset(),
            m_values={1: 1, 2: 2},
            prose="q m_2 - m_1 - m_2",
        ),
        CaseRecord(
            family="G", rank=2, twist=2, case=2,
            J=frozenset({2}), w1=(2, 1, 2), K_expected=frozenset(),
            m_values={1: 1, 2: 3},
            prose="q m_2 - 2 m_1 - m_2",
        ),
        CaseRecord(
            family="G", rank=2, twist=2, case=3,
            J=frozenset({2}), w1=(2, 1, 2, 1, 2), K_expected=frozenset(),
            m_values={1: 1, 2: 1},
            prose="q m_2 - m_1",
        ),
    ]


def _records_2F4() -> list[CaseRecord]:
    W = weyl_group("F", 4)
    I = frozenset(range(1, 5))
    J = I - {4}
    Jp = frozenset({2, 3, 4})  # delta^{-1}(J)
    c6w1 = W.multiply(W.longest_element(I), W.longest_element(Jp)).word
    return [
        CaseRecord(
            family="F", rank=4, twist=2, case=1,
            J=J, w1=(2, 1), K_expected=frozenset(),
            m_values={1: 1, 2: 3, 3: 1, 4: 1},
            prose="q m_1 - m_4; q m_2 - m_2 - m_3; q m_3 - m_1",
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=2, spade=True,
            J=J, w1=(2, 3, 2, 1), K_expected=frozenset(),
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=3,
            J=J, w1=(1, 2, 3, 2, 1), K_expected=frozenset({2, 3}),
            v_words=((2,), (2, 3, 2)),
            m_values={1: 3, 4: 1},
            prose="q m_1 - m_1 - m_4",
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=4, spade=True,
            J=J, w1=(3, 2, 1, 2, 3, 2) + br(4, 1), K_expected=frozenset(),
            pinned_mu=(3, 1, 3, -3),
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=5,
            J=J, w1=(2, 3, 2, 1, 2, 3, 2) + br(4, 1), K_expected=frozenset({1, 3}),
            m_values={2: 3, 4: 1},
            prose="q m_2 - m_2 - m_4",
            notes=("printed v = s_2 lies outside W_K = W_{1,3}; inner classes are "
                   "enumerated instead",),
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=6,
            J=J, w1=c6w1, K_expected=frozenset({2, 3}),
            v_words=((2, 3, 2),),
            m_values={1: 1, 4: 1},
            prose="q m_1 - m_4",
        ),
    ]


# Every catalog type's row builder, in catalog order (the report's order).
_BUILDERS: dict[tuple[str, int, int], Callable[[], list[CaseRecord]]] = {
    **{("A", n, 1): partial(_records_A, n) for n in range(1, MAX_RANK + 1)},
    **{("A", n, 2): partial(_records_2A, n) for n in range(2, MAX_RANK + 1)},
    **{(f, n, 1): partial(_records_BC, f, n) for f in "BC" for n in range(2, MAX_RANK + 1)},
    **{("D", n, t): partial(_records_D, n, t) for t in (1, 2) for n in range(4, MAX_RANK + 1)},
    ("D", 4, 3): _records_3D4,
    ("E", 6, 1): _records_E6,
    ("E", 6, 2): _records_2E6,
    ("E", 7, 1): _records_E7,
    ("E", 8, 1): _records_E8,
    ("F", 4, 1): _records_F4,
    ("F", 4, 2): _records_2F4,
    ("G", 2, 1): _records_G2,
    ("G", 2, 2): _records_2G2,
    ("B", 2, 2): _records_2B2,
}

@cache
def case_records(family: str, rank: int, twist: int, /) -> list[CaseRecord]:
    """The catalog rows of one type, built on first use by that type's builder alone.

    Empty for a type the catalog has no rows for.
    """
    builder = _BUILDERS.get((family, rank, twist))
    return [] if builder is None else builder()


def load_case_records() -> list[CaseRecord]:
    """All catalog records, parametric families instantiated up to the checker's MAX_RANK."""
    return [r for key in _BUILDERS for r in case_records(*key)]
