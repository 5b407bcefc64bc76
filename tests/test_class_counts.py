"""Class lists proven complete by counting, for the classical twisted groups.

Each representative of a class list is read as a signed permutation of
e_1..e_n in the Bourbaki realisation, and its class's size is taken from
its signed cycle type (Geck-Pfeiffer 2000, ch. 3; Carter, Compositio
Math. 25 (1972)):

- S_n = W(A_(n-1)): n! / prod over i of i^m_i m_i!, for m_i i-cycles;
- B_n = C_n: 2^n n! / prod over i of (2i)^a_i a_i! (2i)^b_i b_i!, for a_i
  positive and b_i negative i-cycles;
- D_n: the B_n size, halved for a type whose cycles are all even and
  positive, since its B_n class splits into two D_n classes.

A twisted class of 2A_(n-1) is read as the class of w w0 in S_n, and one
of 2D_n as the class of w t_n in B_n, t_n the sign change of e_n, as the
docstring of ``conjugacy._standard_seeds`` says; twisted conjugation by x
is then conjugation by x.  Listed classes are disjoint, so if their types
are pairwise distinct (a split D_n type twice, its two classes with
disjoint minimal sets) and their sizes sum to |W|, the list holds every
class once.
"""

import math
from collections import Counter

import pytest

from weyldl.conjugacy import class_list, pi_of
from weyldl.rootdata import build_twist

from conftest import group

# Each type's reading: (letters act as in B_n, D_n or S_n, twist read as w0 or t_n).
READINGS = {
    ("A", 1): ("A", None), ("A", 2): ("A", "w0"),
    ("B", 1): ("B", None), ("C", 1): ("B", None),
    ("D", 1): ("D", None), ("D", 2): ("D", "t_n"),
}

# Every classical twisted group through rank 6, with its number of classes:
# partitions of n for A_(n-1) and 2A_(n-1), pairs of partitions for B_n and
# C_n, and for 2D_n the pairs whose second partition has an odd number of parts.
THROUGH_RANK_6 = [
    ("A", 1, 1, 2), ("A", 2, 1, 3), ("A", 3, 1, 5), ("A", 4, 1, 7), ("A", 5, 1, 11),
    ("A", 6, 1, 15), ("A", 2, 2, 3), ("A", 3, 2, 5), ("A", 4, 2, 7), ("A", 5, 2, 11),
    ("A", 6, 2, 15), ("B", 2, 1, 5), ("B", 3, 1, 10), ("B", 4, 1, 20), ("B", 5, 1, 36),
    ("B", 6, 1, 65), ("C", 2, 1, 5), ("C", 3, 1, 10), ("C", 4, 1, 20), ("C", 5, 1, 36),
    ("C", 6, 1, 65), ("D", 4, 1, 13), ("D", 5, 1, 18), ("D", 6, 1, 37), ("D", 4, 2, 9),
    ("D", 5, 2, 18), ("D", 6, 2, 31),
]

# Ranks 7 and 8, and A and 2A on to rank 13 (A13 is S_14: 135 classes).
BEYOND_RANK_6 = [
    ("A", 7, 1, 22), ("A", 8, 1, 30), ("A", 7, 2, 22), ("A", 8, 2, 30),
    ("B", 7, 1, 110), ("B", 8, 1, 185), ("C", 7, 1, 110), ("C", 8, 1, 185),
    ("D", 7, 1, 55), ("D", 8, 1, 100), ("D", 7, 2, 55), ("D", 8, 2, 90),
    ("A", 9, 1, 42), ("A", 10, 1, 56), ("A", 11, 1, 77), ("A", 12, 1, 101), ("A", 13, 1, 135),
    ("A", 9, 2, 42), ("A", 10, 2, 56), ("A", 11, 2, 77), ("A", 12, 2, 101), ("A", 13, 2, 135),
]


def _reflect(t: int, i: int, letters: str, n: int) -> int:
    """s_i(e_t), where e_(-t) = -e_t: the Bourbaki simple reflections."""
    sign, a = (1 if t > 0 else -1), abs(t)
    if i < n:  # alpha_i = e_i - e_(i+1)
        a = {i: i + 1, i + 1: i}.get(a, a)
    elif letters == "D":  # alpha_n = e_(n-1) + e_n
        if a >= n - 1:
            sign, a = -sign, 2 * n - 1 - a
    elif a == n:  # alpha_n = e_n or 2 e_n
        sign = -sign
    return sign * a


def signed_permutation(word, letters: str, n: int) -> list[int]:
    """w(e_j) = e_(img[j - 1]) for w the product of ``word``, in n coordinates."""
    img = list(range(1, n + 1))
    for i in reversed(word):
        img = [_reflect(t, i, letters, n) for t in img]
    return img


def signed_cycle_type(img) -> tuple[tuple[int, bool], ...]:
    """The (length, negative) pairs of the cycles of a signed permutation, sorted."""
    seen, cycles = set(), []
    for start in range(1, len(img) + 1):
        j, length, negative = start, 0, False
        while j not in seen:
            seen.add(j)
            negative ^= img[j - 1] < 0
            j, length = abs(img[j - 1]), length + 1
        if length:
            cycles.append((length, negative))
    return tuple(sorted(cycles))


def class_size(cycles, signed: bool) -> int:
    """The size of the class of this type in S_n, or in B_n when ``signed``."""
    n = sum(length for length, _ in cycles)
    centralizer = 1
    for (length, _), m in Counter(cycles).items():
        centralizer *= ((2 * length if signed else length) ** m) * math.factorial(m)
    size, rest = divmod(math.factorial(n) * (2 ** n if signed else 1), centralizer)
    assert rest == 0
    return size


def count_problems(family: str, rank: int, order: int, classes, twist_read: bool = True) -> list[str]:
    """Why the counting check fails for this class list of the twisted group, or [].

    ``twist_read=False`` reads a twisted list without w0 or t_n: the
    negative control of a wrong reading.
    """
    letters, twist = READINGS[family, order]
    n = rank + 1 if letters == "A" else rank
    signed = letters != "A"
    order_of_w = math.factorial(n) * (2 ** n if signed else 1) // (2 if letters == "D" else 1)
    by_type: dict[tuple, tuple[bool, list]] = {}  # type -> (split, its classes)
    total = 0
    for cls in classes:
        img = signed_permutation(cls.representative.word, letters, n)
        if twist_read and twist == "w0":
            img = img[::-1]  # (w w0)(e_j) = w(e_(n+1-j))
        elif twist_read and twist == "t_n":
            img[-1] = -img[-1]  # (w t_n)(e_n) = -w(e_n)
        cycles = signed_cycle_type(img)
        split = (letters, twist) == ("D", None) and all(
            length % 2 == 0 and not negative for length, negative in cycles)
        total += class_size(cycles, signed) // (2 if split else 1)
        by_type.setdefault(cycles, (split, []))[1].append(cls)
    problems = []
    if total != order_of_w:
        problems.append(f"the class sizes sum to {total}, not |W| = {order_of_w}")
    for cycles, (split, same) in by_type.items():
        if len(same) != (2 if split else 1):
            problems.append(f"type {cycles} is listed {len(same)} times")
        elif split and {u.key for u in same[0].minimal} & {u.key for u in same[1].minimal}:
            problems.append(f"the two classes of the split type {cycles} share a minimal element")
    return problems


def listed(family: str, rank: int, order: int):
    W = group(family, rank)
    return class_list(W, pi_of(build_twist(family, rank, order)))


@pytest.mark.parametrize("family,rank,order,count", THROUGH_RANK_6)
def test_class_lists_complete_through_rank_6(family, rank, order, count):
    """Every classical twisted group through rank 6: the list passes the
    counting check, and dropping any one class makes it fail."""
    classes = listed(family, rank, order)
    assert len(classes) == count
    assert count_problems(family, rank, order, classes) == []
    for k in range(len(classes)):
        assert count_problems(family, rank, order, classes[:k] + classes[k + 1:])


@pytest.mark.slow
@pytest.mark.parametrize("family,rank,order,count", BEYOND_RANK_6)
def test_class_lists_complete_beyond_rank_6(family, rank, order, count):
    """Ranks 7 and 8 of every classical twisted group, and A and 2A through
    rank 13: the list passes the counting check."""
    classes = listed(family, rank, order)
    assert len(classes) == count
    assert count_problems(family, rank, order, classes) == []
    assert count_problems(family, rank, order, classes[1:])


def test_split_types_of_d6():
    """D6 lists each of the all-even positive types (2,2,2), (2,4) and (6)
    twice, and the two classes of each have disjoint minimal sets.  A list
    that holds one half of a split type twice, in place of the other half,
    has the right sizes and counts, and fails on the minimal sets alone."""
    classes = listed("D", 6, 1)
    types = [signed_cycle_type(signed_permutation(c.representative.word, "D", 6))
             for c in classes]
    twice = sorted(cycles for cycles, m in Counter(types).items() if m == 2)
    assert twice == [((2, False),) * 3, ((2, False), (4, False)), ((6, False),)]
    assert count_problems("D", 6, 1, classes) == []
    first, second = [k for k, cycles in enumerate(types) if cycles == ((6, False),)]
    doubled = list(classes)
    doubled[second] = classes[first]
    assert count_problems("D", 6, 1, doubled) == [
        "the two classes of the split type ((6, False),) share a minimal element"]


def test_2a5_read_without_w0_fails():
    """Reading the classes of 2A5 as classes of S_6 without w0 fails the check."""
    classes = listed("A", 5, 2)
    assert count_problems("A", 5, 2, classes) == []
    assert count_problems("A", 5, 2, classes, twist_read=False)


def test_reading_matches_the_letters():
    """The reading is the Bourbaki one: s_n negates e_n in B_n, sends e_(n-1)
    and e_n to -e_n and -e_(n-1) in D_n, and w0 of A_(n-1) reverses 1..n."""
    assert signed_permutation((3,), "B", 3) == [1, 2, -3]
    assert signed_permutation((3,), "D", 3) == [1, -3, -2]
    assert signed_permutation((1, 2), "A", 3) == [2, 3, 1]  # s1 s2: e1 -> e2 -> e3 -> e1
    w0 = group("A", 3).longest_element(range(1, 4))
    assert signed_permutation(w0.word, "A", 4) == [4, 3, 2, 1]
