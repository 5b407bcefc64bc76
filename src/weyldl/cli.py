"""Command-line interface: enumerate, certify, check, verify-paper, shift-graph.

Exit codes: 0 on full pass, 1 on any failure or falsification, 2 on
usage errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .casetables import verify_all
from .conjugacy import (
    ClosureBudgetError,
    FalsificationError,
    class_list,
    class_of,
    pi_of,
    shift_closure,
)
from .criterion import (
    Certificate,
    CertificateError,
    certify_min_element,
    check_certificate,
    minimal_q,
    parse_q_literal,
)
from .exactnum import QuadExt
from .rootdata import build_twist
from .weyl import WeylGroup, weyl_group


def _group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--twist", type=int, default=1, choices=(1, 2, 3))


def _build(args) -> tuple[WeylGroup, "object"]:
    return weyl_group(args.family, args.rank), build_twist(args.family, args.rank, args.twist)


def _q_of(args, family: str, twist: int) -> QuadExt:
    if getattr(args, "q", None):
        return parse_q_literal(args.q)
    return minimal_q(family, twist)


def _parse_rep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ValueError(f"bad word {text!r}") from None


def cmd_enumerate(args) -> int:
    W, twist = _build(args)
    pi = pi_of(twist, "delta")
    classes = class_list(W, pi, direction="delta")
    for cls in classes:
        word = ",".join(map(str, cls.representative.word)) or "e"
        print(f"rep=[{word}] min_length={cls.min_length} cuspidal={str(cls.cuspidal).lower()}")
    print(f"# {len(classes)} classes", file=sys.stderr)
    return 0


def cmd_certify(args) -> int:
    W, twist = _build(args)
    q = _q_of(args, args.family, args.twist)
    pi = pi_of(twist, "delta")
    rep = W.from_word(_parse_rep(args.class_rep))
    target = class_of(W, pi, rep)
    cert = certify_min_element(W, twist, target, q)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# Longest certificate file ``check`` reads.  ``to_json`` writes far less: at
# most 9 exact numbers (q and 8 coordinates), each of at most 4 ints of at
# most 4300 digits, Python's int-string limit.
MAX_CERT_CHARS = 1 << 20


def cmd_check(args) -> int:
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            text = fh.read(MAX_CERT_CHARS + 1)
        if len(text) > MAX_CERT_CHARS:
            raise CertificateError(f"certificate longer than {MAX_CERT_CHARS} characters")
        cert = Certificate.from_json(text)
    except (OSError, CertificateError) as exc:
        print(f"reject: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError:
        print("reject: certificate is not UTF-8 text", file=sys.stderr)
        return 1
    result = check_certificate(cert)
    if result:
        print(f"accept ({result.rows_checked} rows)")
        return 0
    print(f"reject: {result.reason}", file=sys.stderr)
    return 1


def cmd_verify_paper(args) -> int:
    q: Optional[QuadExt] = parse_q_literal(args.q) if args.q else None
    report = verify_all(type_filter=args.filter, q=q, slow=args.slow)
    for line in report.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def cmd_shift_graph(args) -> int:
    W, twist = _build(args)
    pi = pi_of(twist, "delta")
    start = W.from_word(_parse_rep(args.class_rep))
    graph = shift_closure(W, pi, start)
    nodes = sorted(graph, key=lambda w: w.sort_key())
    name = {w: ",".join(map(str, w.word)) or "e" for w in nodes}
    edges: dict[tuple[str, str], list[int]] = {}
    for w in nodes:
        for j, u in graph[w]:
            if u != w:
                edges.setdefault((name[w], name[u]), []).append(j)
    lines = ["digraph shifts {"]
    for w in nodes:
        lines.append(f'  "{name[w]}" [label="{name[w]} ({w.length})"];')
    for (src, dst), js in sorted(edges.items()):
        lab = ",".join(map(str, sorted(set(js))))
        lines.append(f'  "{src}" -> "{dst}" [label="{lab}"];')
    lines.append("}")
    text = "\n".join(lines)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"# {len(nodes)} nodes, {len(edges)} edges", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weyldl",
        description=(
            "Exact affineness certificates for twisted Weyl-group conjugacy classes"
        ),
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list the twisted classes of a group (not E7, E8 yet)")
    _group_args(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", help="produce a certificate for one class")
    _group_args(p)
    p.add_argument("--class-rep", required=True, help="comma-separated word, e.g. 1,2")
    p.add_argument("--q", help="exact literal: 2, 3/2, sqrt2, 2*sqrt2")
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="re-validate a certificate file")
    p.add_argument("certificate", help="path to certificate JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-paper", help="replay the bundled case catalog")
    p.add_argument("--filter", help="label prefix, e.g. F4 or 2B2")
    p.add_argument("--q", help="override the per-type minimal q")
    p.add_argument("--slow", action="store_true", help="also decide minimality of v w1 on the rank-7 and rank-8 rows (criterion v), and the inner subchecks of a 7-node K")
    p.add_argument("--out", help="write the aggregate JSON report here")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("shift-graph", help="emit the cyclic-shift closure as DOT")
    _group_args(p)
    p.add_argument("--class-rep", required=True)
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_shift_graph)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClosureBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except FalsificationError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
