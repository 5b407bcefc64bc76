"""The bundled catalog of twisted-class reduction cases, and its verifier.

Each record holds, for one cuspidal inverse-twisted class family of one
group type: the node set J, the coset representative w1, the expected
fixed node set K, the inner-class options v, and (for non-spade rows) a
positive witness for the reduction system.  Spade rows are the ones
whose reduction system is infeasible at the minimal q; they carry an
inverse-form certificate obligation instead.  A row's label and the
mode of its inner options are derived from these fields, never written.

All inequality systems are derived from (J, w1, twist) by group action;
the printed inequality strings are stored as documentation only and are
never consulted by the verifier.  Each row carries one reading of its
step; where the printed text fails a structural precondition, the row
holds the amended reading and its ``notes`` say what was printed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional, Sequence

from .conjugacy import (
    FalsificationError,
    PiMap,
    ad_pi_on,
    closure_min_check,
    compute_I_J_x,
    cuspidal_representatives,
    minimal_level,
    pi_of,
    supp_delta,
)
from .criterion import (
    FORM_INVERSE,
    MAX_RANK,
    Certificate,
    admissible_q,
    build_inverse_system,
    build_star_system,
    check_certificate,
    feasible,
    minimal_q,
)
from .exactnum import QuadExt, qext
from .lp import gordan_witness, verify_gordan
from .rootdata import Coweight, Frozen, Record, build_twist
from .subsystems import sub_context
from .weyl import WeylElt, WeylGroup, weyl_group

__all__ = [
    "CaseRecord",
    "CaseReport",
    "AggregateReport",
    "RowPlacement",
    "place_row",
    "case_records",
    "load_case_records",
    "verify_case",
    "verify_all",
    "type_group",
]


_setattr = object.__setattr__


def br(a: int, b: int) -> tuple[int, ...]:
    """Descending run (a, a-1, ..., b); empty when a < b."""
    return tuple(range(a, b - 1, -1)) if a >= b else ()


def bri(a: int, b: int) -> tuple[int, ...]:
    """Inverse of the descending run: (b, b+1, ..., a); empty when a < b."""
    return tuple(range(b, a + 1)) if a >= b else ()


class CaseRecord(Frozen):
    """One catalog row: its type, reduction step (J, w1), expected K and inner options.

    ``label`` and ``v_mode`` are derived from the other fields, never stored.
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
        m_values: Optional[dict[int, Fraction]] = None,
        pinned_mu: Optional[tuple[Fraction, ...]] = None,
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
def type_group(family: str, rank: int, twist: int) -> tuple[WeylGroup, PiMap]:
    """The group of a catalog type and the index map of its inverse twist.

    Built once per type and shared by every row of it: no caller may
    change the map.
    """
    return weyl_group(family, rank), pi_of(build_twist(family, rank, twist), "delta_inv")


def _mfrac(d: dict[int, int]) -> dict[int, Fraction]:
    return {k: Fraction(v) for k, v in d.items()}


# ---------------------------------------------------------------------------
# record builders, one per type family
# ---------------------------------------------------------------------------


def _records_A(n: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    return [
        CaseRecord(
            family="A", rank=n, twist=1, case=1,
            J=I - {1}, w1=br(n, 1), K_expected=frozenset(),
            m_values=_mfrac({i: 1 for i in range(1, n + 1)}),
            prose="q m_i - m_{i-1} > 0 for i != 1; take m_i = 1",
        )
    ]


def _records_2A(n: int) -> list[CaseRecord]:
    I = frozenset(range(1, n + 1))
    out = []
    for a in range(1, n // 2 + 2):
        K = frozenset(range(a, n - a + 1))
        V = sorted(I - K)
        m = {i: Fraction(2 if i in (a - 1, n + 1 - a) else 1) for i in V}
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
        m = {i: Fraction(1) for i in range(1, a)}
        m[a] = Fraction(2)
        out.append(
            CaseRecord(
                family=family, rank=n, twist=1, case=1,
                J=I - {1}, w1=bri(n - 1, a) + br(n, 1), K_expected=K,
                m_values=m, param_a=a,
                prose="q m_i - m_{i-1} (1 < i < a); q m_a - m_{a-1} - m_a",
            )
        )
    m2 = {i: Fraction(1) for i in range(1, n)}
    m2[n] = Fraction(3)
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
        m = {i: Fraction(1) for i in range(1, a)}
        m[a] = Fraction(2)
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
        m2 = {i: Fraction(1) for i in range(1, n - 1)}
        m2[n - 1] = Fraction(2)
        m2[n] = Fraction(2)
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
        m3 = {i: Fraction(1) for i in range(1, n + 1)}
        m3[tw(n)] = Fraction(3)
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
            m_values=_mfrac({1: 3, 2: 2, 3: 2, 4: 1}),
            prose="q m_1 - m_2 - m_3; q m_2 - m_1; q m_3 - m_2 - m_4",
        ),
        CaseRecord(
            family="D", rank=4, twist=3, case=2,
            J=J, w1=(3, 2, 1), K_expected=frozenset({1, 2}),
            m_values=_mfrac({3: 2, 4: 1}),
            prose="q m_3 - m_3 - m_4",
        ),
        CaseRecord(
            family="D", rank=4, twist=3, case=3,
            J=J, w1=(1, 2, 4, 3, 2, 1), K_expected=frozenset({2, 3}),
            m_values=_mfrac({1: 1, 4: 1}),
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
            m_values=_mfrac({1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1}),
            prose="q m_1 - m_3; q m_2 - m_1 - m_3 - m_4; q m_3 - m_2 - m_4; "
                  "q m_4 - m_5; q m_5 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=2,
            J=J, w1=(3, 4) + bri(6, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1}),
            prose="q m_1 - m_4; q m_2 - m_1; q m_3 - m_2; q m_4 - m_3 - m_4 - m_5; q m_5 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=3,
            J=J, w1=(2, 4, 5, 3, 4) + bri(6, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values=_mfrac({1: 3, 2: 2, 5: 5, 6: 1}),
            prose="q m_1 - m_5; q m_2 - m_1; q m_5 - m_1 - m_5 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=1, case=4,
            J=J, w1=c4w1, K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(8,),
            m_values=_mfrac({1: 1, 6: 1}),
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
            m_values=_mfrac({1: 1, 2: 2, 3: 1, 4: 3, 5: 5, 6: 1}),
            prose="q m_2 - m_4; q m_3 - m_6; q m_4 - m_5; q m_5 - m_2 - m_3 - m_4; q m_6 - m_1",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=2,
            J=J, w1=(4,) + bri(6, 2), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 3, 3: 5, 4: 3, 5: 2, 6: 9}),
            prose="q m_2 - m_3; q m_3 - m_6; q m_4 - m_4 - m_5; q m_5 - m_2; q m_6 - m_1 - m_3 - m_4",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=3,
            J=J, w1=(5, 4) + bri(6, 2), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values=_mfrac({1: 1, 2: 3, 3: 5, 5: 2, 6: 7}),
            prose="q m_2 - m_3; q m_3 - m_5 - m_6; q m_5 - m_2; q m_6 - m_1 - m_3 - m_5",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=4,
            J=J, w1=br(6, 4) + bri(6, 2), K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(4, 6),
            m_values=_mfrac({1: 1, 6: 2}),
            prose="q m_6 - m_1 - m_6",
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=5,
            J=J, w1=br(5, 3) + br(6, 4) + bri(6, 1), K_expected=frozenset({3, 4, 6}),
            v_words=((3, 4, 3, 6),),
            m_values=_mfrac({1: 1, 2: 1, 5: 2}),
            prose="printed: q m_2 - m_1 only, with (1,1,1)",
            notes=("the derived row q m_5 - m_2 - m_5 is not automatic and the "
                   "printed point meets it with slack zero at q = 2; the witness "
                   "is corrected to (m_1, m_2, m_5) = (1, 1, 2)",),
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=6,
            J=J, w1=c6w1, K_expected=frozenset({5, 6}),
            v_words=((5, 6),),
            m_values=_mfrac({1: 1, 2: 1, 3: 1, 4: 2}),
            prose="q m_2 - m_1; q m_3 - m_2; q m_4 - m_3 - m_4",
            notes=(note_w0,),
        ),
        CaseRecord(
            family="E", rank=6, twist=2, case=7,
            J=J, w1=c7w1, K_expected=frozenset({4, 5, 6}),
            v_words=((6, 5, 4),),
            m_values=_mfrac({1: 1, 2: 2, 3: 2}),
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
            m_values=_mfrac({1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1}),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=2,
            J=J, w1=(3, 4) + bri(7, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1, 7: 1}),
            prose="printed row 'q m_4 - m_3 - - m_4 - m_5' carries a doubled minus",
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=3,
            J=J, w1=(4, 3, 5, 4) + bri(7, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 5, 2: 3, 3: 3, 4: 2, 5: 4, 6: 1, 7: 1}),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=4,
            J=J, w1=(2, 4, 3, 5, 4) + bri(7, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values=_mfrac({1: 3, 2: 2, 5: 5, 6: 1, 7: 1}),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=5,
            J=J, w1=(3, 4, 2) + br(5, 3) + br(6, 4) + bri(7, 1), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values=_mfrac({1: 7, 2: 5, 3: 2, 5: 3, 6: 7, 7: 1}),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=6,
            J=J, w1=(1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(7, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(4, 6, 8),
            m_values=_mfrac({1: 3, 6: 5, 7: 1}),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=7,
            J=J, w1=(2, 4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1),
            K_expected=frozenset({3, 4, 5, 6}),
            v_words=(w0K_c7,),
            m_values=_mfrac({1: 1, 2: 2, 7: 1}),
            notes=("the amended tail s_{[7,1]}^{-1} is used; the printed tail "
                   "s_{[1,7]}^{-1}, the empty word under the bracket convention, "
                   "fails the coset precondition",),
        ),
        CaseRecord(
            family="E", rank=7, twist=1, case=8,
            J=J, w1=br(6, 4) + bri(5, 2) + (1, 3, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_words=((3, 5, 4, 3, 5, 4, 2),),
            m_values=_mfrac({1: 2, 6: 2, 7: 1}),
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
            m_values=_mfrac({1: 2, 2: 4, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}),
            notes=("printed witness (2,3,4,1,...) violates its own printed rows at "
                   "q = 2; corrected to (2,4,3,1,...) matching the E6/E7 analogues",),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=2,
            J=J, w1=(3, 4) + bri(8, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 5, 2: 3, 3: 2, 4: 9, 5: 1, 6: 1, 7: 1, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=3,
            J=J, w1=(4, 5, 3, 4) + bri(8, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 5, 2: 3, 3: 3, 4: 2, 5: 4, 6: 1, 7: 1, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=4,
            J=J, w1=(2, 4, 3, 5, 4) + bri(8, 1), K_expected=frozenset({3, 4}),
            v_words=((3,), (3, 4, 3)),
            m_values=_mfrac({1: 3, 2: 2, 5: 5, 6: 1, 7: 1, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=5,
            J=J, w1=(4, 2) + br(5, 3) + br(6, 4) + bri(8, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 9, 2: 5, 3: 2, 4: 3, 5: 3, 6: 17, 7: 1, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=6,
            J=J, w1=(3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1), K_expected=frozenset({4}),
            v_words=((4,),),
            m_values=_mfrac({1: 7, 2: 5, 3: 2, 5: 3, 6: 13, 7: 1, 8: 1}),
            notes=("printed 'I(J, w_1, d^{-1}) = s_4' read as the node set {4}",),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=7,
            J=J, w1=(1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_lengths=(2, 4, 6, 8),
            m_values=_mfrac({1: 3, 6: 5, 7: 1, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=8,
            J=J, w1=(4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({3, 6}),
            v_words=((3,),),
            m_values=_mfrac({1: 8, 2: 6, 4: 3, 5: 5, 7: 15, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=9,
            J=J, w1=(2, 4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({3, 4, 5, 6}),
            v_words=((3, 4), (4, 5, 4, 3), w0K_c9),
            m_values=_mfrac({1: 4, 2: 5, 7: 7, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=10,
            J=J, w1=(5, 4) + bri(7, 2) + (1, 3, 4, 2) + br(5, 3) + br(6, 4) + bri(8, 1),
            K_expected=frozenset({2, 4}),
            v_words=((2, 4),),
            m_values=_mfrac({1: 17, 3: 7, 5: 4, 6: 9, 7: 33, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=11,
            J=J, w1=br(6, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset({2, 3, 4, 5}),
            v_words=((2, 4, 5), (4, 5, 3, 4, 2, 5, 3)),
            m_values=_mfrac({1: 9, 6: 5, 7: 12, 8: 1}),
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
            m_values=_mfrac({1: 3, 6: 4, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=14,
            J=J,
            w1=(3, 4, 2) + bri(7, 5) + bri(6, 4) + bri(5, 3) + bri(3, 1)
            + br(4, 1) + br(5, 3) + br(6, 4) + (2,) + br(7, 3) + br(8, 4) + bri(8, 1),
            K_expected=frozenset({4, 5, 6, 7}),
            v_words=(br(7, 4),),
            m_values=_mfrac({1: 3, 2: 3, 3: 2, 8: 1}),
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
            m_values=_mfrac({1: 2, 8: 1}),
        ),
        CaseRecord(
            family="E", rank=8, twist=1, case=16,
            J=J,
            w1=br(7, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(7, 1)
            + br(8, 1) + (4, 3, 5, 4, 2) + br(6, 3) + br(7, 4) + bri(8, 1),
            K_expected=frozenset(range(1, 7)),
            v_lengths=(24,),
            m_values=_mfrac({7: 2, 8: 1}),
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
            m_values=_mfrac({1: 1, 2: 1, 3: 5, 4: 3}),
            prose="q m_2 - m_1; q m_3 - m_2 - m_3 - m_4; q m_4 - m_3",
            notes=("printed type-level J = I-{4} fails the coset precondition; "
                   "J = I-{1} reproduces the printed rows exactly",),
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=2,
            J=J, w1=(3, 2) + br(4, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 12, 3: 5, 4: 9}),
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
            m_values=_mfrac({1: 1, 3: 4, 4: 3}),
            prose="q m_3 - m_3 - m_4; q m_4 - m_1 - m_3",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=5,
            J=J, w1=br(4, 1) + (3, 2) + br(4, 1), K_expected=frozenset({2, 3}),
            v_words=((2, 3), (2, 3, 2, 3)),
            m_values=_mfrac({1: 1, 4: 2}),
            prose="q m_4 - m_1 - m_4",
        ),
        CaseRecord(
            family="F", rank=4, twist=1, case=6,
            J=J6, w1=c6w1, K_expected=frozenset({3, 4}),
            v_words=((3, 4),),
            m_values=_mfrac({1: 1, 2: 2}),
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
            m_values=_mfrac({1: 2, 2: 1}),
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
            m_values=_mfrac({1: 3, 2: 1}),
            prose="q m_1 - m_1 - m_2",
        ),
        CaseRecord(
            family="B", rank=2, twist=2, case=2,
            J=frozenset({1}), w1=(1, 2, 1), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 1}),
            prose="q m_1 - m_2",
        ),
    ]


def _records_2G2() -> list[CaseRecord]:
    return [
        CaseRecord(
            family="G", rank=2, twist=2, case=1,
            J=frozenset({2}), w1=(2,), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 2}),
            prose="q m_2 - m_1 - m_2",
        ),
        CaseRecord(
            family="G", rank=2, twist=2, case=2,
            J=frozenset({2}), w1=(2, 1, 2), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 3}),
            prose="q m_2 - 2 m_1 - m_2",
        ),
        CaseRecord(
            family="G", rank=2, twist=2, case=3,
            J=frozenset({2}), w1=(2, 1, 2, 1, 2), K_expected=frozenset(),
            m_values=_mfrac({1: 1, 2: 1}),
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
            m_values=_mfrac({1: 1, 2: 3, 3: 1, 4: 1}),
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
            m_values=_mfrac({1: 3, 4: 1}),
            prose="q m_1 - m_1 - m_4",
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=4, spade=True,
            J=J, w1=(3, 2, 1, 2, 3, 2) + br(4, 1), K_expected=frozenset(),
            pinned_mu=(Fraction(3), Fraction(1), Fraction(3), Fraction(-3)),
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=5,
            J=J, w1=(2, 3, 2, 1, 2, 3, 2) + br(4, 1), K_expected=frozenset({1, 3}),
            m_values=_mfrac({2: 3, 4: 1}),
            prose="q m_2 - m_2 - m_4",
            notes=("printed v = s_2 lies outside W_K = W_{1,3}; inner classes are "
                   "enumerated instead",),
        ),
        CaseRecord(
            family="F", rank=4, twist=2, case=6,
            J=J, w1=c6w1, K_expected=frozenset({2, 3}),
            v_words=((2, 3, 2),),
            m_values=_mfrac({1: 1, 4: 1}),
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

_RECORD_MEMO: dict[tuple[str, int, int], list[CaseRecord]] = {}


def case_records(family: str, rank: int, twist: int) -> list[CaseRecord]:
    """The catalog rows of one type, built on first use by that type's builder alone.

    Empty for a type the catalog has no rows for.
    """
    key = (family, rank, twist)
    if key not in _RECORD_MEMO and key in _BUILDERS:
        _RECORD_MEMO[key] = _BUILDERS[key]()
    return _RECORD_MEMO.get(key, [])


def load_case_records() -> list[CaseRecord]:
    """All catalog records, parametric families instantiated up to the checker's MAX_RANK."""
    return [r for key in _BUILDERS for r in case_records(*key)]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class CaseReport(Record):
    """The outcome of one catalog row, filled in subcheck by subcheck (mutable, unhashable).

    ``subchecks`` and ``details`` default to a new dict per report.
    """

    __slots__ = ("label", "subchecks", "details", "certificate", "notes")

    def __init__(
        self,
        label: str,
        subchecks: Optional[dict[str, str]] = None,
        details: Optional[dict[str, object]] = None,
        certificate: Optional[Certificate] = None,
        notes: tuple[str, ...] = (),
    ):
        self.label = label
        self.subchecks = {} if subchecks is None else subchecks
        self.details = {} if details is None else details
        self.certificate = certificate
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
            out["details"] = {
                k: v for k, v in sorted(self.details.items()) if isinstance(v, (str, int, list))
            }
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

    K = I(J, w1, tau) is the greatest node set of J that Ad(w1) tau keeps,
    and sigma = Ad(w1) tau is the index map it induces on K; the inner
    classes of the step are the sigma-classes of W_K.
    """

    __slots__ = ("W", "w1", "K", "sigma")

    def __init__(self, W: WeylGroup, w1: WeylElt, K: frozenset[int], sigma: PiMap):
        _setattr(self, "W", W)
        _setattr(self, "w1", w1)
        _setattr(self, "K", K)
        _setattr(self, "sigma", sigma)

    __hash__ = None  # ``sigma`` is a dict

    def inner(self, v: WeylElt) -> tuple[WeylGroup, PiMap, WeylElt]:
        """v (an element of W_K) in the standalone W_K, with sigma there."""
        sub = sub_context(self.W, self.K)
        return sub.group, sub.pi_to_sub(self.sigma), sub.element_to_sub(v)

    def inner_cuspidal(self) -> list[tuple[int, ...]]:
        """Ambient words of the minimal representatives of the cuspidal sigma-classes of W_K.

        Each word is reduced, so its length is its class's minimal length.
        They come from ``cuspidal_representatives``, which enumerates nothing.
        """
        if not self.K:
            return [()]  # the trivial group's one class is cuspidal
        sub = sub_context(self.W, self.K)
        reps = cuspidal_representatives(sub.group, sub.pi_to_sub(self.sigma))
        return [sub.word_to_ambient(v.word) for v in reps]


def place_row(
    W: WeylGroup, tau: PiMap, J: frozenset[int], w1: Sequence[int]
) -> Optional[RowPlacement]:
    """Place the step (J, w1) in W under the class-direction map ``tau``.

    None when w1 is not the minimal representative of its coset in
    W / W_{tau(J)}.
    """
    x = W.from_word(w1)
    if not W.is_min_coset_rep(x, {tau[j] for j in J}):
        return None
    K = compute_I_J_x(W, tau, J, x)
    return RowPlacement(W, x, K, ad_pi_on(W, tau, x, K))


def _resolve_v_options(
    record: CaseRecord, placed: RowPlacement, slow: bool = False
) -> tuple[list[tuple[int, ...]], Optional[str]]:
    """Ambient-label words for the inner-class options of a record.

    "lengths" and "all" rows take the cuspidal inner classes of the
    placement; the default tier skips an inner node set of size 7, which
    the slow tier decides.  Returns (words, problem) where problem is a
    skip/fail message when resolution is impossible.
    """
    K = placed.K
    if not K or record.v_mode == "identity":
        return [()], None
    if record.v_mode == "words":
        return [tuple(w) for w in record.v_words], None
    if len(K) > 6 and not slow:
        return [], "skipped(requires slow tier)"
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
    w1: WeylElt,
    K: frozenset[int],
    q: QuadExt,
    v_words: list[tuple[int, ...]],
) -> tuple[Optional[Certificate], str]:
    """Inverse-form certificate for a spade row, via the exact LP."""
    if K:
        candidates = [W.multiply(W.from_word(vw), w1) for vw in v_words]
    else:
        # The whole minimal level of the (cuspidal) inverse-twisted class of w1.
        try:
            candidates = minimal_level(W, pi, w1)
        except FalsificationError as exc:
            return None, str(exc)
    for w in candidates:
        system = build_inverse_system(W, w, pi, q)
        mu = feasible(system)
        if mu is None:
            continue
        cert = Certificate(
            family=record.family, rank=record.rank, twist=record.twist,
            direction="delta_inv", q=q, w=w.word, form=FORM_INVERSE, mu=mu,
        )
        res = check_certificate(cert)
        if not res:
            return None, f"solver point rejected: {res.reason}"
        return cert, "pass"
    return None, "no inverse-form witness found for any candidate"


def verify_case(
    record: CaseRecord,
    q: Optional[QuadExt] = None,
    slow: bool = False,
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

    v_words, v_problem = _resolve_v_options(record, placed, slow)

    # (iii) the reduction system
    star = build_star_system(W, K, w1, pi, q)
    if not record.spade:
        if record.m_values is not None:
            point = {i: qext(record.m_values.get(i, 0)) for i in star.varset}
            missing = [i for i in star.varset if i not in record.m_values]
            bad = [label for label, _ in star.violated(point)]
            if missing:
                report.subchecks["star"] = "fail"
                report.details["star_missing_vars"] = missing
            elif bad:
                report.subchecks["star"] = "fail"
                report.details["star_violated"] = bad
            else:
                report.subchecks["star"] = "pass"
        else:
            # "always satisfied": every positive point satisfies a row
            # exactly when the row is coordinate-wise >= 0 and nonzero.
            always = all(
                all(c.sign() >= 0 for c in row) and any(c.sign() > 0 for c in row)
                for row in star.rows
            )
            report.subchecks["star"] = "pass" if always else "fail"
            report.details["star_note"] = (
                "holds for every positive point" if always
                else "some row fails at a positive point"
            )
    elif at_min_q:
        # One dual-simplex run: a Gordan witness proves infeasibility, and
        # its absence means the system is feasible after all.
        witness = gordan_witness(star.rows, len(star.varset))
        if witness is None:
            report.subchecks["star"] = "fail"
            report.details["star_note"] = "expected infeasible at minimal q"
        else:
            ok_w = verify_gordan(star.rows, witness)
            report.details["infeasibility_witness"] = [str(y) for y in witness]
            cert, msg = _spade_certificate(W, pi, record, w1, K, q, v_words)
            report.certificate = cert
            pinned_ok = True
            if cert is not None and record.pinned_mu is not None:
                pinned = Certificate(
                    family=record.family, rank=record.rank, twist=record.twist,
                    direction="delta_inv", q=q, w=w1.word, form=FORM_INVERSE,
                    mu=Coweight.of(record.pinned_mu),
                )
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
        report.details["star_note"] = "feasible above minimal q" if mu else "infeasible"

    # (iv)-(vi) inner options and the full-group class of v w1
    if v_problem is not None:
        tag = v_problem if v_problem.startswith("skipped") else "fail"
        report.subchecks["v_min_inner"] = tag
        report.subchecks["vw1_min_full"] = tag
        report.subchecks["cuspidal"] = tag
        if tag == "fail":
            report.details["v_problem"] = v_problem
        return report

    def closure_verdict(group: WeylGroup, pi_map: PiMap, x: WeylElt) -> str:
        return "pass" if closure_min_check(group, pi_map, x) == "minimal" else "fail"

    iv_results, v_results, vi_results = [], [], []
    for vw in v_words:
        v = W.from_word(vw)
        w = W.multiply(v, w1)
        # (iv): v minimal in its inner twisted class
        if not K:
            iv_results.append("pass")
        elif any(i not in K for i in W.support(v)):
            iv_results.append("fail")
            report.details.setdefault("v_outside_WK", []).append(list(vw))
        else:
            iv_results.append(closure_verdict(*placed.inner(v)))
        # (v): v w1 minimal in its full twisted class
        if record.rank <= 6 or slow:
            v_results.append(closure_verdict(W, pi, w))
        else:
            v_results.append("skipped(requires slow tier)")
        # (vi): cuspidal, read off the full pi-support of v w1
        vi_results.append("pass" if len(supp_delta(W, pi, w)) == W.rank else "fail")

    def fold(results: list[str]) -> str:
        if any(r == "fail" for r in results):
            return "fail"
        skips = [r for r in results if r.startswith("skipped")]
        if skips:
            return skips[0]
        return "pass"

    def fold_any(results: list[str]) -> str:
        # Rows that print no inner element leave the pairing of inner
        # classes to the cited classification; such a row stands as long
        # as some enumerated inner class gives a minimal product.  A row
        # whose products are all non-minimal pairs with no class at this
        # rank (full coverage is checked separately, per type).
        if any(r == "pass" for r in results):
            return "pass"
        skips = [r for r in results if r.startswith("skipped")]
        if skips:
            return skips[0]
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
    slow: bool = False,
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
    reports = [verify_case(r, q=q, slow=slow) for r in records]
    return AggregateReport(cases=reports)
