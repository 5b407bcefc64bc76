#!/usr/bin/env python3
"""Certify every twisted class of every group of rank <= 4, both routes.

Writes one certificate JSON per (group, class, route) under --out-dir and
prints a summary line per group.  The two routes must both be accepted
by the independent checker for every class: each rejection is printed
with its group, class and route, and the script then exits 1.  The total
line ends with the SHA-256 of the certificates in class-list order, each
``to_json()`` and a newline, solver before constructive: the bytes of the
files that --out-dir gets, in that order.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weyldl.conjugacy import class_list, pi_of
from weyldl.criterion import certify_min_element, check_certificate, minimal_q
from weyldl.lifting import constructive_certificate
from weyldl.rootdata import build_twist
from weyldl.weyl import weyl_group

GROUPS = [
    ("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2),
    ("A", 4, 1), ("A", 4, 2), ("B", 2, 1), ("B", 2, 2), ("B", 3, 1),
    ("B", 4, 1), ("C", 2, 1), ("C", 3, 1), ("C", 4, 1), ("D", 4, 1),
    ("D", 4, 2), ("D", 4, 3), ("F", 4, 1), ("F", 4, 2), ("G", 2, 1),
    ("G", 2, 2),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    digest = hashlib.sha256()
    total = 0
    failed = 0
    for family, rank, order in GROUPS:
        W = weyl_group(family, rank)
        twist = build_twist(family, rank, order)
        q = minimal_q(family, order)
        classes = class_list(W, pi_of(twist))
        name = f"{order if order > 1 else ''}{family}{rank}"
        failed_before = failed
        for k, cls in enumerate(classes):
            solver = certify_min_element(W, twist, cls, q)
            constructive = constructive_certificate(W, twist, cls, q)
            for route, cert in (("solver", solver), ("constructive", constructive)):
                result = check_certificate(cert)
                if not result:
                    failed += 1
                    print(f"{name} class {k:02d} ({cls.representative.word}): "
                          f"{route} certificate rejected: {result.reason}")
                text = (cert.to_json() + "\n").encode("utf-8")
                digest.update(text)
                if out_dir:
                    (out_dir / f"{name}-class{k:02d}-{route}.json").write_bytes(text)
        total += len(classes)
        if failed == failed_before:
            print(f"{name}: {len(classes)} classes certified by both routes")
        else:
            print(f"{name}: {len(classes)} classes, {failed - failed_before} certificates rejected")
    print(f"{total} classes total in {time.time() - t0:.1f}s, sha256 {digest.hexdigest()}")
    if failed:
        print(f"{failed} certificates rejected by the checker")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
