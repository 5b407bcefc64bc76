"""One cold pass of a benchmark workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload catalog --seed 1 --spawned T [--trace-out F] [--setup-only]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so that ``setup_s`` runs from interpreter start to the first
timed verdict.  Output is JSON lines on stdout: ``{"setup_s": ...}``, then
one line per verdict as it completes, then ``{"rss_mb": ...}`` (with the
per-layer metrics when traced).  Only the call into weyldl is timed; the
correctness gate of each verdict runs outside the timed region, and
outside the trace.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(ROOT / "src"))

# Every call goes through the weyldl modules at call time, so that the
# tracer's wrappers see the benchmark's own calls too.
import weyldl  # noqa: E402
import weyldl.conjugacy  # noqa: E402
import weyldl.criterion  # noqa: E402

HOSTILE_COORD = "-1e5000"
HOSTILE_SEED = 0  # the hostile variants are the same under every --seed
REFERENCE_SAMPLES = 3  # after setup and after the last verdict
REFERENCE_EVERY_S = 0.05  # and once per this much timed verdict work


def shuffled_blocks(items: list, key, rng: random.Random) -> list:
    """The items with their blocks of equal ``key`` in seed order, each block kept in order.

    Users replay the catalog and certify groups type by type, as
    ``weyldl verify-paper --filter`` and scripts/certify_small_rank.py do.
    Within a type, weyldl's memos make the first inputs pay for the later
    ones, so keeping each type's inputs in order keeps the cost of every
    verdict independent of the seed.
    """
    blocks: dict = {}
    for item in items:
        blocks.setdefault(key(item), []).append(item)
    order = list(blocks)
    rng.shuffle(order)
    return [item for k in order for item in blocks[k]]


class Catalog:
    """Default-tier replay of the selected catalog rows, one verdict per row, type by type."""

    def __init__(self, rng: random.Random):
        wanted = json.loads((DATA / "catalog_rows.json").read_text())["labels"]
        records = {r.label: r for r in weyldl.load_case_records()}
        missing = [label for label in wanted if label not in records]
        if missing:
            raise SystemExit(f"catalog rows missing from the package: {missing}")
        self.items = shuffled_blocks([records[label] for label in wanted],
                                     lambda r: (r.family, r.rank, r.twist), rng)

    @staticmethod
    def item_id(record) -> str:
        return record.label

    @staticmethod
    def run(record):
        return weyldl.verify_case(record)

    @staticmethod
    def gate(record, report) -> dict:
        counts = {"pass": 0, "skip": 0, "fail": 0}
        for status in report.subchecks.values():
            if status == "pass":
                counts["pass"] += 1
            elif status.startswith("skipped"):
                counts["skip"] += 1
            else:
                counts["fail"] += 1
        certs = [len(report.certificate.to_json())] if report.certificate is not None else []
        wrong = counts["fail"] > 0 or not report.subchecks
        return {"wrong": wrong, "subchecks": counts, "cert_bytes": certs}


class Certify:
    """Both certification routes over every class of the groups of rank <= 4.

    Building each group and its class partition is input preparation, as in
    scripts/certify_small_rank.py, so it is part of set-up; a verdict is the
    certification of one class by both routes.
    """

    def __init__(self, rng: random.Random):
        groups = json.loads((DATA / "certify_groups.json").read_text())
        self.class_counts = {tuple(g["group"]): len(g["min_lengths"]) for g in groups}
        self.contexts = {}
        for g in groups:
            family, rank, order = group = tuple(g["group"])
            W = weyldl.WeylGroup(weyldl.build_root_system(family, rank))
            twist = weyldl.build_twist(family, rank, order)
            classes = weyldl.conjugacy.partition_memo(W, weyldl.conjugacy.pi_of(twist))
            self.contexts[group] = (W, twist, weyldl.minimal_q(family, order), classes)
        self.items = shuffled_blocks([(tuple(g["group"]), k, length)
                                      for g in groups for k, length in enumerate(g["min_lengths"])],
                                     lambda item: item[0], rng)

    @staticmethod
    def item_id(item) -> str:
        (family, rank, twist), k, _ = item
        return f"{twist if twist > 1 else ''}{family}{rank}-class{k:02d}"

    def run(self, item):
        group, k, _ = item
        W, twist, q, classes = self.contexts[group]
        cls = classes[k]
        solver = weyldl.certify_min_element(W, twist, cls, q)
        constructive = weyldl.constructive_certificate(W, twist, cls, q)
        return cls, len(classes), solver.to_json(), constructive.to_json()

    def gate(self, item, result) -> dict:
        group, k, expected_length = item
        cls, n_classes, *texts = result
        checks = [n_classes == self.class_counts[group] and cls.min_length == expected_length]
        for text in texts:
            cert = weyldl.Certificate.from_json(text)
            checks.append(bool(weyldl.check_certificate(cert)) and len(cert.w) == cls.min_length)
        passed = sum(checks)
        return {"wrong": passed < len(checks),
                "subchecks": {"pass": passed, "skip": 0, "fail": len(checks) - passed},
                "cert_bytes": [len(t) for t in texts]}


def _neg(text: str) -> str:
    x = -Fraction(text)
    return f"{x.numerator}/{x.denominator}"


def _negated_mu(obj: dict) -> list:
    return [{"a": _neg(c["a"]), "b": _neg(c["b"]), "d": c["d"]} for c in obj["mu"]]


def _tamper(kind: str, text: str, rng: random.Random) -> str:
    """A variant of a valid certificate whose rejection is structurally certain."""
    if kind == "malformed_json":
        return text[: rng.randrange(1, len(text))]
    obj = json.loads(text)
    rank = obj["group"]["rank"]
    if kind == "mu_negated":
        # Every row is linear in mu with no constant term, so all slacks flip sign.
        obj["mu"] = _negated_mu(obj)
    elif kind == "mu_zero":
        obj["mu"] = [{"a": "0/1", "b": "0/1", "d": 1}] * rank
    elif kind == "letter_out_of_range":
        obj["w"] = obj["w"] + [rank + 1]
    elif kind == "mu_wrong_length":
        obj["mu"] = obj["mu"] + [{"a": "1/1", "b": "0/1", "d": 1}]
    elif kind == "q_nonpositive":
        obj["q"] = rng.choice([{"a": "0/1", "b": "0/1", "d": 1},
                               {"a": _neg(obj["q"]["a"]), "b": _neg(obj["q"]["b"]), "d": obj["q"]["d"]}])
    elif kind == "hostile_huge_coord":
        mu = _negated_mu(obj)
        mu[rng.randrange(rank)] = {"a": HOSTILE_COORD, "b": "0/1", "d": 1}
        obj["mu"] = mu
    else:
        raise ValueError(kind)
    return json.dumps(obj, separators=(",", ":"))


class Check:
    """Parse and check the frozen corpus plus tampered and hostile variants.

    The seed chooses the tampered variants and the order.  The hostile
    variants come from ``HOSTILE_SEED`` instead: whether one crashes the
    checker depends on which certificate and coordinate it hits, so drawing
    them from the run's seed would make the number of failed verdicts per
    pass differ from seed to seed.
    """

    TAMPER_COUNTS = {
        "mu_negated": 20, "mu_zero": 20, "letter_out_of_range": 20,
        "mu_wrong_length": 20, "q_nonpositive": 20, "malformed_json": 20,
    }
    HOSTILE_COUNTS = {"hostile_huge_coord": 10}

    def __init__(self, rng: random.Random):
        corpus = [json.loads(line) for line in (DATA / "check_corpus.jsonl").read_text().splitlines()]
        self.items = [(e["id"], e["cert"], True) for e in corpus]
        for counts, source in ((self.TAMPER_COUNTS, rng), (self.HOSTILE_COUNTS, random.Random(HOSTILE_SEED))):
            for kind, count in counts.items():
                for entry in source.sample(corpus, count):
                    self.items.append((f"{entry['id']}~{kind}", _tamper(kind, entry["cert"], source), False))
        rng.shuffle(self.items)

    @staticmethod
    def item_id(item) -> str:
        return item[0]

    @staticmethod
    def run(item):
        try:
            cert = weyldl.Certificate.from_json(item[1])
        except weyldl.criterion.CertificateError:
            return False
        return bool(weyldl.check_certificate(cert))

    @staticmethod
    def gate(item, accepted) -> dict:
        ok = accepted == item[2]
        return {"wrong": not ok, "subchecks": {"pass": int(ok), "skip": 0, "fail": int(not ok)},
                "cert_bytes": [len(item[1])]}


WORKLOADS = {"catalog": Catalog, "certify": Certify, "check": Check}


def reference_work() -> int:
    """A fixed slice of pure-Python work like weyldl's: tuple permutations, dicts, Fractions.

    run.py scales each verdict's time by how long this took just before and
    just after it, so that the host's speed, which drifts by up to 40 % on
    a shared machine within a minute, cancels out of the reported times.
    """
    perm, sig, acc, seen = tuple(range(1, 25)), tuple(range(24, 0, -1)), Fraction(0), {}
    for i in range(300):
        perm = tuple(perm[t - 1] for t in sig)
        seen[perm] = i
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    return len(seen) + acc.denominator


def sample_reference(n: int = 1) -> None:
    for _ in range(n):
        start = time.perf_counter()
        reference_work()
        emit({"ref_s": time.perf_counter() - start})


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    ru_maxrss would also count the parent's resident set at spawn time,
    which Linux carries across exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](random.Random(args.seed))
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    emit({"setup_s": time.monotonic() - args.spawned, "verdicts": len(workload.items)})
    sample_reference(REFERENCE_SAMPLES)
    if args.setup_only:
        return 0

    clock = time.perf_counter
    since_reference = 0.0
    for item in workload.items:
        if since_reference >= REFERENCE_EVERY_S:
            sample_reference()
            since_reference = 0.0
        if tracer is not None:
            tracer.verdict = workload.item_id(item)
        start = clock()
        try:
            result, error = workload.run(item), None
        except Exception as exc:  # a crashed verdict is counted, not fatal
            result, error = None, repr(exc)[:200]
        elapsed = clock() - start
        since_reference += elapsed
        if error is not None:
            emit({"id": workload.item_id(item), "s": elapsed, "error": error})
            continue
        with tracer.paused() if tracer is not None else nullcontext():
            line = workload.gate(item, result)
        emit({"id": workload.item_id(item), "s": elapsed, **line})

    sample_reference(REFERENCE_SAMPLES)
    end = {"rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        end["layers"], end["absent"] = tracer.layer_metrics()
        tracer.dump(args.trace_out)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
