import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from weyldl.rootdata import build_twist  # noqa: E402
from weyldl.weyl import WeylGroup, weyl_group  # noqa: E402

# The 21 twisted groups of rank <= 4: (family, rank, twist order).
RANK_LE_4 = [
    ("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2),
    ("A", 4, 1), ("A", 4, 2), ("B", 2, 1), ("B", 2, 2), ("B", 3, 1),
    ("B", 4, 1), ("C", 2, 1), ("C", 3, 1), ("C", 4, 1), ("D", 4, 1),
    ("D", 4, 2), ("D", 4, 3), ("F", 4, 1), ("F", 4, 2), ("G", 2, 1),
    ("G", 2, 2),
]

# The 14 twisted groups of rank 5 and 6: (family, rank, twist order).
RANK_5_6 = [
    ("A", 5, 1), ("A", 5, 2), ("B", 5, 1), ("C", 5, 1), ("D", 5, 1), ("D", 5, 2),
    ("A", 6, 1), ("A", 6, 2), ("B", 6, 1), ("C", 6, 1), ("D", 6, 1), ("D", 6, 2),
    ("E", 6, 1), ("E", 6, 2),
]

# Tests take their named groups from the production memo.
group = weyl_group


@pytest.fixture(scope="session")
def A2():
    return group("A", 2)


@pytest.fixture(scope="session")
def B2():
    return group("B", 2)


@pytest.fixture(scope="session")
def G2():
    return group("G", 2)


@pytest.fixture(scope="session")
def F4():
    return group("F", 4)


@pytest.fixture(scope="session")
def D4():
    return group("D", 4)


def twist_of(W: WeylGroup, order: int):
    family, rank = W.system.family, W.system.rank
    return build_twist(family, rank, order)
