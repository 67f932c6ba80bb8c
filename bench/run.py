"""The blfsig benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; blfsig is imported from ./src.
A pass runs every item of the seeded workload (see workloads.py), in
order, in a fresh worker process (bench/worker.py); passes run one after
the other.  So the caches in ``meyer`` start empty as they do for a
``blfsig`` command and fill across the items as they do for a batch
caller.

--trace 0 repeats the pass until the next one would end after S seconds
(at least once).  An item's latency is the mean of its repetitions: each
repetition does the same work from the same cold start, so the spread
between them is the machine's, not the program's.  Items per second, p50
and p90 are taken over those per-item latencies; items per second is then
the number of items run over the time spent in them.
--trace 1 runs four passes: untraced, traced, untraced, traced.
The traced passes give the per-layer metrics; their counts must agree
exactly, and their per-item best time against the untraced passes' is the
tracing overhead.

Every output is checked (workloads.problems); for the default seed it is
also compared with bench/reference/<workload>.json.  The second-to-last
line of stdout is run metadata, the last line the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MAX_PASSES = 64
RUN_LIMIT_S = 170        # a run must end within 180 s

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}
COUNT_LAYERS = ("meyer.phi", "meyer.tau", "ratlin.kernel", "ratlin.signature",
                "fibration.validate", "surface.word_to_matrix", "words.concat",
                "locsig.h", "words.parse", "locsig.s")
SELF_TIME_LAYERS = ("fibration.meyer_path", "meyer.phi", "meyer.tau", "ratlin.kernel",
                    "ratlin.signature", "fibration.validate", "surface.word_to_matrix",
                    "fibration.hurwitz_word", "words.concat", "locsig.h",
                    "locsig.validate_word", "words.parse", "locsig.s",
                    "locsig.push_forward", "fibration.localized")
MISS_GENERA = range(1, 7)


class RunError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def run_pass(workload: str, items: list, trace: bool, deadline: float,
             spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), "1" if trace else "0"]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, input=json.dumps(items), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} pass did not finish within the run limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def load_reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)


def check(seed: int, items: list, result: dict, reference: dict | None) -> list[str]:
    """One message per failed item of a pass."""
    expected = None
    if seed == workloads.DEFAULT_SEED and reference is not None:
        expected = reference["outputs"]
    failures = []
    for k, item in enumerate(items):
        ref = expected[k] if expected is not None else None
        bad = workloads.problems(item, result["outputs"][k], result["errors"][k], ref)
        if bad:
            failures.append(f"item {k}: " + "; ".join(bad))
    return failures


def best_latencies(passes: list[dict]) -> list[int]:
    """Per item, the least latency over the passes."""
    return [min(times) for times in zip(*(p["latencies_ns"] for p in passes))]


def mean_latencies(passes: list[dict]) -> list[float]:
    """Per item, the mean latency over the passes.  The machine's speed
    switches between a fast and a slow state that can each last a minute;
    a mean moves smoothly with the share of time spent in each, where the
    best or the median jumps from one state to the other."""
    return [statistics.fmean(times) for times in zip(*(p["latencies_ns"] for p in passes))]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    mean_ms = [ns / 1e6 for ns in mean_latencies(passes)]
    items = len(mean_ms)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "items_per_s": items / (sum(mean_ms) / 1e3),
        "item_p50_ms": statistics.median(mean_ms),
        "item_p90_ms": p90(mean_ms) if items > 1 else mean_ms[0],
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
    }
    samples = {"items": items, "repetitions": len(passes),
               "setup_s": len(passes), "peak_rss_mb": len(passes)}
    return metrics, samples


def _counts(summary: dict) -> dict:
    layers = summary["layers"]
    out = {f"{name}.calls": layers[name]["calls"] for name in COUNT_LAYERS}
    out["meyer.tau.misses"] = sum(m[0] for m in summary["tau_misses"].values())
    out["ratlin.kernel.max_dim"] = summary["kernel_max_dim"]
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and their units.  Counts come from the first traced
    pass (the caller checks the second agrees), times are the mean of both."""
    first = traced[0]["trace"]
    values = dict(_counts(first))
    units = {name: "count" for name in values}

    def mean(fn):
        return statistics.fmean(fn(t["trace"]) for t in traced)

    for name in SELF_TIME_LAYERS:
        values[f"{name}.s"] = mean(lambda s: s["layers"][name]["self_ns"] / 1e9)
        units[f"{name}.s"] = "s"
    calls = values["meyer.tau.calls"]
    values["meyer.tau.hit_ratio"] = 1 - values["meyer.tau.misses"] / calls if calls else 0.0
    units["meyer.tau.hit_ratio"] = "ratio"
    values["meyer.tau.miss_s"] = mean(
        lambda s: sum(m[1] for m in s["tau_misses"].values()) / 1e9)
    units["meyer.tau.miss_s"] = "s"
    for g in MISS_GENERA:
        def per_miss(s, g=str(g)):
            count, ns = s["tau_misses"].get(g, (0, 0))
            return ns / count / 1e3 if count else 0.0
        values[f"meyer.tau.miss_us.g{g}"] = mean(per_miss)
        units[f"meyer.tau.miss_us.g{g}"] = "us"
    values["trace.overhead_frac"] = (sum(best_latencies(traced))
                                     / sum(best_latencies(untraced)) - 1)
    units["trace.overhead_frac"] = "ratio"
    return values, units


def metadata(workload: str, seed: int, seconds: int, trace: bool, passes: list) -> dict:
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": None, "src_sha256": None,
            "python": platform.python_version(), "numpy": passes[0]["numpy"],
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            meta["git_sha"] = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # no git here: the src digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    meta["src_sha256"] = digest.hexdigest()
    return meta


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            limit: int | None = None, reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run: (result, metadata).  ``limit`` keeps only the
    first items; ``reference`` replaces the committed one."""
    if not (ROOT / "src" / "blfsig" / "__init__.py").is_file():
        raise RunError(f"no blfsig sources under {ROOT / 'src'}; run from a checkout")
    if reference is None and seed == workloads.DEFAULT_SEED:
        reference = load_reference(workload)
    deadline = time.monotonic() + RUN_LIMIT_S
    items = workloads.make_items(workload, seed)
    if limit is not None:
        items = items[:limit]
    failures = []      # one message per failed item run
    errors = []        # problems of the run itself

    def run_checked(traced=False, spans_path=None):
        result = run_pass(workload, items, traced, deadline, spans_path)
        failures.extend(check(seed, items, result, reference))
        return result

    if not trace:
        passes = []
        started = time.monotonic()
        longest = 0.0
        while len(passes) < MAX_PASSES:
            elapsed = time.monotonic() - started
            if passes and elapsed + longest > seconds:
                break
            passes.append(run_checked())
            longest = max(longest, time.monotonic() - started - elapsed)
        values, samples = end_to_end(passes)
        units = END_TO_END
    else:
        OUT.mkdir(exist_ok=True)
        untraced, traced = [], []
        for i in (1, 2):
            untraced.append(run_checked())
            traced.append(run_checked(True, OUT / f"spans-{workload}-{i}.json"))
        counts = [_counts(t["trace"]) for t in traced]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            errors.append(f"counts differ between two traced passes: {diff}")
        values, units = per_layer(untraced, traced)
        passes = untraced + traced
        samples = {"items": len(items), "untraced_passes": 2, "traced_passes": 2}
    attempted = sum(len(p["latencies_ns"]) for p in passes)
    failed = len(failures)
    meta = metadata(workload, seed, seconds, trace, passes)
    meta.update({"passes": len(passes),
                 "samples": samples, "fail_frac": failed / attempted,
                 "failures": errors + failures[:20]})
    if trace:
        meta["wrapped"] = traced[0]["wrapped"]
        meta["spans"] = [t["trace"]["spans"] for t in traced]
    result = {"correct": not (failures or errors), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in sorted(values)}}
    return result, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    for failure in meta["failures"]:
        print(f"bench: FAIL {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
