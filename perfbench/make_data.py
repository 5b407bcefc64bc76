#!/usr/bin/env python3
"""Regenerate the frozen inputs of the benchmark under perfbench/data/.

    python3 perfbench/make_data.py

Writes three files, all derived from the package in ``src/``:

* ``certify_groups.json``: the 21 groups of rank <= 4 with their twist and
  the sorted minimal lengths of their twisted classes (180 classes).  The
  ``certify`` workload checks every class it certifies against this table.
* ``check_corpus.jsonl``: one valid certificate per line, from three
  sources: both certification routes over the 180 classes of rank <= 4,
  a twisted Coxeter element (one letter per twist orbit) of every family
  and twist through rank 8 with a witness found by ``feasible``, and the
  inverse-form certificates of the spade rows of the catalog.  The
  ``check`` workload derives its tampered and hostile variants from these
  at run time, from its seed.
* ``catalog_rows.json``: the catalog rows replayed by the ``catalog``
  workload: every row whose class partitions (enumerated or served from
  the memo) each have at most ``CATALOG_MAX_PARTITION`` elements.  This
  needs one full catalog replay, about two minutes on one core.

Certificate generation is deterministic, so rerunning this script on an
unchanged package rewrites the same files.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(ROOT / "src"))

import weyldl.casetables as casetables  # noqa: E402
import weyldl.conjugacy as conjugacy  # noqa: E402
import weyldl.lifting as lifting  # noqa: E402
from weyldl import (  # noqa: E402
    Certificate,
    WeylGroup,
    build_forward_system,
    build_root_system,
    build_twist,
    certify_min_element,
    check_certificate,
    constructive_certificate,
    feasible,
    load_case_records,
    minimal_q,
    verify_case,
)
from weyldl.conjugacy import partition_memo, pi_of  # noqa: E402

# The groups of ROADMAP workload W3 (scripts/certify_small_rank.py).
SMALL_GROUPS = [
    ("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2),
    ("A", 4, 1), ("A", 4, 2), ("B", 2, 1), ("B", 2, 2), ("B", 3, 1),
    ("B", 4, 1), ("C", 2, 1), ("C", 3, 1), ("C", 4, 1), ("D", 4, 1),
    ("D", 4, 2), ("D", 4, 3), ("F", 4, 1), ("F", 4, 2), ("G", 2, 1),
    ("G", 2, 2),
]

# Every family and diagram twist through rank 8.
ALL_TYPES = (
    [("A", n, 1) for n in range(1, 9)]
    + [("A", n, 2) for n in range(2, 9)]
    + [("B", n, 1) for n in range(2, 9)]
    + [("B", 2, 2)]
    + [("C", n, 1) for n in range(2, 9)]
    + [("D", n, 1) for n in range(4, 9)]
    + [("D", n, 2) for n in range(4, 9)]
    + [("D", 4, 3)]
    + [("E", 6, 1), ("E", 6, 2), ("E", 7, 1), ("E", 8, 1)]
    + [("F", 4, 1), ("F", 4, 2), ("G", 2, 1), ("G", 2, 2)]
)

CATALOG_MAX_PARTITION = 10_000


def type_name(family: str, rank: int, twist: int) -> str:
    return f"{twist if twist > 1 else ''}{family}{rank}"


def small_rank_certificates() -> tuple[list[dict], list[dict]]:
    groups, corpus = [], []
    for family, rank, order in SMALL_GROUPS:
        W = WeylGroup(build_root_system(family, rank))
        twist = build_twist(family, rank, order)
        q = minimal_q(family, order)
        classes = partition_memo(W, pi_of(twist))
        groups.append({
            "group": [family, rank, order],
            "min_lengths": [c.min_length for c in classes],
        })
        for k, cls in enumerate(classes):
            for route, make in (("solver", certify_min_element),
                                ("constructive", constructive_certificate)):
                cert = make(W, twist, cls, q)
                corpus.append({
                    "id": f"{type_name(family, rank, order)}-class{k:02d}-{route}",
                    "source": f"w3-{route}",
                    "cert": cert.to_json(),
                })
    return groups, corpus


def coxeter_certificates() -> list[dict]:
    corpus = []
    for family, rank, order in ALL_TYPES:
        W = WeylGroup(build_root_system(family, rank))
        twist = build_twist(family, rank, order)
        pi = pi_of(twist)
        q = minimal_q(family, order)
        orbits = sorted({tuple(sorted(_orbit(pi, i))) for i in pi})
        for word in _coxeter_words(orbits):
            mu = feasible(build_forward_system(W, W.from_word(word), pi, q))
            if mu is not None:
                break
        else:
            raise SystemExit(f"no twisted Coxeter witness for {type_name(family, rank, order)}")
        cert = Certificate(
            family=family, rank=rank, twist=order, direction="delta",
            q=q, w=tuple(word), form="lemma-1.11", mu=mu,
        )
        corpus.append({
            "id": f"{type_name(family, rank, order)}-coxeter",
            "source": "coxeter",
            "cert": cert.to_json(),
        })
    return corpus


def _coxeter_words(orbits):
    """Words with one letter from each twist orbit, in a fixed order."""
    for letters in itertools.product(*orbits):
        yield from itertools.permutations(letters)


def _orbit(pi: dict[int, int], i: int) -> set[int]:
    out, j = {i}, pi[i]
    while j != i:
        out.add(j)
        j = pi[j]
    return out


def catalog_replay() -> tuple[list[str], list[dict]]:
    """Replay the catalog once; return the selected labels and the spade certificates."""
    largest: dict[str, int] = {}
    current = [""]
    original = conjugacy.partition_memo

    def sized_memo(*args, **kwargs):
        classes = original(*args, **kwargs)
        size = sum(c.size for c in classes)
        largest[current[0]] = max(largest.get(current[0], 0), size)
        return classes

    for module in (conjugacy, casetables, lifting):
        module.partition_memo = sized_memo
    selected, spade = [], []
    try:
        for record in load_case_records():
            current[0] = record.label
            report = verify_case(record)
            if largest.get(record.label, 0) <= CATALOG_MAX_PARTITION:
                selected.append(record.label)
            if record.spade and report.certificate is not None:
                spade.append({
                    "id": f"{record.label}-spade",
                    "source": "spade",
                    "cert": report.certificate.to_json(),
                })
    finally:
        for module in (conjugacy, casetables, lifting):
            module.partition_memo = original
    return selected, spade


def main() -> int:
    groups, corpus = small_rank_certificates()
    corpus += coxeter_certificates()
    selected, spade = catalog_replay()
    corpus += spade
    for entry in corpus:
        if not check_certificate(Certificate.from_json(entry["cert"])):
            raise SystemExit(f"generated certificate {entry['id']} is rejected")
    DATA.mkdir(exist_ok=True)
    (DATA / "certify_groups.json").write_text(json.dumps(groups, indent=1) + "\n")
    with open(DATA / "check_corpus.jsonl", "w", encoding="utf-8") as fh:
        for entry in corpus:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    (DATA / "catalog_rows.json").write_text(json.dumps({
        "rule": f"every row whose class partitions have at most {CATALOG_MAX_PARTITION} elements",
        "labels": selected,
    }, indent=1) + "\n")
    print(f"{sum(len(g['min_lengths']) for g in groups)} classes, {len(corpus)} certificates, "
          f"{len(selected)} catalog rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
