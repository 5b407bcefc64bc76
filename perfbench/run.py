#!/usr/bin/env python3
"""The weyldl benchmark: cold, checked runs of the catalog, certify and check workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

A run makes a fixed number of cold passes of one workload, about
``--seconds`` divided by the pass time PASS_S.  Each pass is a fresh
interpreter (perfbench/worker.py) with ``WEYL_DL_CACHE`` pointed at an empty
directory, so no process-global memo of weyldl survives from one pass to
the next.  The seed fixes the inputs: the order of the verdicts and, on
``check``, the tampered variants.  Every verdict is checked against its
expected outcome.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
from untraced passes; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of stdout is the JSON result; the lines
before it are a human-readable table.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("catalog", "certify", "check")
HARD_LIMIT_S = 165.0  # a run must exit within 180 s
SETUP_SAMPLES = 7
REFERENCE_S = 0.0025  # worker.reference_work() on a quiet host (Python 3.11, x86-64)
# Wall seconds of one cold work pass at seed, interpreter start included,
# on a shared 2-core x86-64 host whose reference_work() takes 3 to 4 ms.
PASS_S = {"catalog": 7.5, "certify": 14.0, "check": 1.65}
SLOW_HOST_FACTOR = 1.5


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_pass(workload: str, seed: int, deadline: float, trace_out: Path | None = None,
             setup_only: bool = False) -> dict:
    """One cold pass in a fresh interpreter; returns its parsed report."""
    with tempfile.TemporaryDirectory(dir=OUT) as cache:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=dict(os.environ, WEYL_DL_CACHE=cache),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout,
            )
            out, timed_out = proc.stdout, False
            if proc.returncode != 0:
                raise BenchError(f"{workload} pass exited with {proc.returncode}:\n"
                                 + proc.stderr.decode(errors="replace")[-2000:])
        except subprocess.TimeoutExpired as exc:
            out, timed_out = exc.stdout or b"", True
    lines = [json.loads(line) for line in out.decode().splitlines() if line.strip()]
    if not lines or "setup_s" not in lines[0]:
        raise BenchError(f"{workload} pass produced no setup line")
    end = lines[-1] if "rss_mb" in lines[-1] else None
    at = [i for i, line in enumerate(lines) if "ref_s" in line]
    reference = [lines[i]["ref_s"] for i in at]
    verdicts = []
    for i, line in enumerate(lines):
        if "id" in line:
            # Scale to a host on which reference_work() takes REFERENCE_S,
            # using the reference samples just before and just after.
            k = bisect.bisect(at, i)
            near = reference[max(k - 1, 0):k + 1]
            verdicts.append({**line, "t": line["s"] * REFERENCE_S / statistics.mean(near)})
    return {
        "setup_s": lines[0]["setup_s"] * REFERENCE_S / statistics.mean(reference[:3]),
        "planned": lines[0]["verdicts"],
        "verdicts": verdicts,
        "scale": REFERENCE_S / statistics.mean(reference),
        "rss_mb": end["rss_mb"] if end else None,
        "layers": end.get("layers") if end else None,
        "absent": end.get("absent", []) if end else [],
        "timed_out": timed_out,
        "traced": trace_out is not None,
        "setup_only": setup_only,
    }


def pass_count(workload: str, seconds: int, trace: bool) -> int:
    """How many work passes fill ``seconds`` when a pass takes PASS_S.

    The count depends on the arguments only, not on the clock, so every run
    of a workload with the same ``--seconds`` attempts the same verdicts.
    """
    return max(2 if trace else 1, round(seconds / PASS_S[workload]))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """``pass_count`` cold passes; with ``trace``, untraced and traced alternate."""
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[dict] = []
    for k in range(pass_count(workload, seconds, trace)):
        traced = trace and k % 2 == 1
        trace_out = OUT / f"spans-{workload}-seed{seed}-pass{k}.json" if traced else None
        passes.append(run_pass(workload, seed, deadline, trace_out))
        elapsed = time.monotonic() - start
        if passes[-1]["timed_out"]:
            break
        # Only on a host far slower than PASS_S assumes: end early rather than overrun.
        if elapsed + elapsed / len(passes) > SLOW_HOST_FACTOR * seconds and (not trace or len(passes) >= 2):
            break
    if not trace:
        while len(passes) < SETUP_SAMPLES and time.monotonic() < deadline:
            passes.append(run_pass(workload, seed, deadline, setup_only=True))
    return passes


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def item_seconds(passes: list[dict]) -> dict[str, float]:
    """Each verdict's scaled seconds, averaged over the passes that reached it."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for v in p["verdicts"]:
            samples.setdefault(v["id"], []).append(v["t"])
    return {key: statistics.mean(vals) for key, vals in samples.items()}


def summarize(workload: str, passes: list[dict], trace: bool) -> tuple[dict, dict[str, float], list[str]]:
    """Top-level counts, metric values and notes for the table."""
    work = [p for p in passes if not p["setup_only"]]
    attempted = failed = wrong = 0
    subchecks = {"pass": 0, "skip": 0, "fail": 0}
    cert_bytes = []
    for p in work:
        attempted += p["planned"]
        failed += p["planned"] - len(p["verdicts"])  # cut by the time limit
        for v in p["verdicts"]:
            if "error" in v:
                failed += 1
                subchecks["fail"] += 1
                continue
            failed += v["wrong"]
            wrong += v["wrong"]
            for key in subchecks:
                subchecks[key] += v["subchecks"][key]
            cert_bytes += v["cert_bytes"]
    if attempted == 0:
        raise BenchError(f"{workload}: no verdict was attempted")
    counts = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    untraced = [p for p in work if not p["traced"] and p["verdicts"]]
    if not untraced:
        raise BenchError(f"{workload}: no untraced pass finished a verdict")
    times = item_seconds(untraced)
    notes = [f"{len(passes)} cold interpreters; raw timed seconds (x host scale) per untraced pass: "
             + ", ".join(f"{sum(v['s'] for v in p['verdicts']):.3f} (x{p['scale']:.3f})" for p in untraced),
             f"{len(times)} verdicts, each timed as its scaled mean over those passes"]
    if trace:
        traced = [p for p in work if p["traced"] and p["layers"] is not None]
        if not traced:
            raise BenchError(f"{workload}: no traced pass completed")
        metrics = {name: statistics.median(p["layers"][name] * (p["scale"] if name.endswith("_s") else 1)
                                           for p in traced)
                   for name in traced[0]["layers"]}
        traced_times = item_seconds(traced)
        metrics["trace.overhead_ratio"] = (
            sum(traced_times.values()) / sum(times[k] for k in traced_times))
        notes.append("raw timed seconds (x host scale) per traced pass: "
                     + ", ".join(f"{sum(v['s'] for v in p['verdicts']):.3f} (x{p['scale']:.3f})" for p in traced))
        absent = sorted({name for p in traced for name in p["absent"]})
        if absent:
            notes.append("absent layers (reported as 0): " + ", ".join(absent))
        return counts, metrics, notes
    run_subchecks = sum(subchecks.values())
    latencies = list(times.values())
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_p50_ms": 1000 * statistics.median(latencies),
        "verdict_p90_ms": 1000 * _quantile(latencies, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced if p["rss_mb"] is not None),
        "verdict_ok_ratio": 1 - failed / attempted,
        "subcheck_pass_ratio": subchecks["pass"] / run_subchecks if run_subchecks else 0.0,
        "cert_bytes_mean": statistics.mean(cert_bytes) if cert_bytes else 0.0,
    }
    notes.append(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted} verdicts failed, "
                 f"{wrong} of them wrong)")
    notes.append(f"skipped_ratio {subchecks['skip'] / run_subchecks if run_subchecks else 0.0:.6f} "
                 f"(subchecks: {subchecks['pass']} pass, {subchecks['skip']} skipped, "
                 f"{subchecks['fail']} fail)")
    return counts, metrics, notes


def report(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    passes = run_workload(workload, seed, seconds, trace)
    counts, values, notes = summarize(workload, passes, trace)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in table]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    print(f"== {workload} (seed {seed}, trace {int(trace)}) ==")
    for m in table:
        print(f"  {m['name']:<38} {values[m['name']]:>16.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    return {**counts, "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "weyldl" / "__init__.py").is_file():
            raise BenchError(f"no weyldl sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [report(w, args.seed, seconds, bool(args.trace), spec) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
