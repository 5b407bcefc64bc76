"""Command-line interface: enumerate, certify, check, verify-paper, shift-graph.

Exit codes: 0 on full pass, 1 on any failure or falsification, 2 on
usage errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .casetables import verify_all
from .checker import MAX_CERT_CHARS
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
    classes = class_list(W, pi_of(twist))
    for cls in classes:
        word = ",".join(map(str, cls.representative.word)) or "e"
        print(f"rep=[{word}] min_length={cls.min_length} cuspidal={str(cls.cuspidal).lower()}")
    print(f"# {len(classes)} classes", file=sys.stderr)
    return 0


def cmd_certify(args) -> int:
    W, twist = _build(args)
    q = _q_of(args, args.family, args.twist)
    rep = W.from_word(_parse_rep(args.class_rep))
    target = class_of(W, pi_of(twist), rep)
    cert = certify_min_element(W, twist, target, q)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_check(args) -> int:
    """One verdict line per file, accepts on stdout and rejections on stderr; with more
    than one file, each line starts with the file's name.  Exit 1 if any is rejected."""
    named = len(args.certificate) > 1
    status = 0
    for path in args.certificate:
        accepted, line = _check_file(path)
        print(f"{path}: {line}" if named else line, file=sys.stdout if accepted else sys.stderr)
        status |= not accepted
    return status


def _check_file(path: str) -> tuple[bool, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            # One character past the limit is enough for the parser to refuse it.
            text = fh.read(MAX_CERT_CHARS + 1)
        cert = Certificate.from_json(text)
    except (OSError, CertificateError) as exc:
        return False, f"reject: {exc}"
    except UnicodeDecodeError:
        return False, "reject: certificate is not UTF-8 text"
    result = check_certificate(cert)
    if result:
        return True, f"accept ({result.rows_checked} rows)"
    return False, f"reject: {result.reason}"


def cmd_verify_paper(args) -> int:
    q: Optional[QuadExt] = parse_q_literal(args.q) if args.q else None
    report = verify_all(type_filter=args.filter, q=q, slow=args.slow)
    if not report.cases:  # an empty replay would print an all-pass total
        raise ValueError(f"no catalog row matches filter {args.filter!r}")
    for line in report.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def cmd_shift_graph(args) -> int:
    W, twist = _build(args)
    start = W.from_word(_parse_rep(args.class_rep))
    graph = shift_closure(W, pi_of(twist), start)
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

    p = sub.add_parser("check", help="re-validate certificate files")
    p.add_argument("certificate", nargs="+", help="paths to certificate JSON")
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
