"""tracecat's benchmark: time to a correct verdict, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree.  Each pass runs the workload's jobs
in a fresh interpreter (`perfbench.child`), one child at a time, with
numpy's BLAS on one thread; passes repeat while `--seconds` allows, and
every output is checked against an answer computed here without
tracecat.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics for `--trace 0` and the per-module metrics for `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS, make_jobs  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# untraced passes per run; medians of two already halve the spread of one
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
# query_p50_ms and query_p95_ms are meant for `queries`.  The result must
# carry every end-to-end metric on every workload, so on the others they are
# the percentiles of that workload's few long jobs.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # glibc raises its mmap threshold each time a large block is freed,
        # which makes peak RSS depend on the order of the jobs; pin it at
        # its initial value
        MALLOC_MMAP_THRESHOLD_="131072",
    )
    return env


def child(mode: str, payload: dict | None = None) -> dict:
    """Start `perfbench.child`, wait for it, and add its set-up time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", mode],
        cwd=ROOT,
        env=child_env(),
        input=json.dumps(payload) if payload else "",
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["ready"] - started
    if "job_s" in out:
        out["wall_s"] = sum(out["job_s"])
    return out


def run_pass(jobs, trace_path: Path | None = None) -> dict:
    payload = {
        "jobs": [job.spec for job in jobs],
        "trace_path": str(trace_path) if trace_path else None,
    }
    return child("pass", payload)


def repeat(seconds: float, once, at_least: int) -> list:
    """Call `once` `at_least` times, then again while the next call should end in time."""
    start = time.monotonic()
    results = [once(i) for i in range(at_least)]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(once(len(results)))


def verify(jobs, passes) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, unexpected failures, failures of known defects)."""
    attempted = failed = 0
    unexpected, known = [], []
    for p in passes:
        for job, got in zip(jobs, p["results"]):
            attempted += 1
            reason = job.check(got)
            if reason is None:
                continue
            failed += 1
            words = job.spec[-1] if job.spec[0] == "cli" else job.spec
            line = f"{' '.join(map(str, words))}: {reason}"
            is_known = job.known_failure is not None and got.get("exc") == job.known_failure
            (known if is_known else unexpected).append(line)
    return attempted, failed, unexpected, known


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def time_by_kind(jobs, passes) -> list[tuple[str, float]]:
    """Median over passes of each query kind's share of the pass's wall_s."""
    kinds = sorted({job.kind for job in jobs if job.kind})
    shares = []
    for kind in kinds:
        per_pass = [
            sum(t for job, t in zip(jobs, p["job_s"]) if job.kind == kind) / p["wall_s"]
            for p in passes
        ]
        shares.append((kind, statistics.median(per_pass)))
    return sorted(shares, key=lambda item: -item[1])


def end_to_end(jobs, seconds: float) -> tuple[dict, list]:
    child("setup")  # warm-up: bytecode and file cache, not measured
    setups = [child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = repeat(seconds, lambda i: run_pass(jobs), MIN_PASSES)
    setups += [p["setup_s"] for p in passes]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        # per pass, then the median over passes
        "query_p50_ms": statistics.median(
            statistics.median(p["job_s"]) * 1000 for p in passes
        ),
        "query_p95_ms": statistics.median(
            percentile(p["job_s"], 0.95) * 1000 for p in passes
        ),
    }
    print(
        f"# {len(passes)} passes of {len(jobs)} jobs (latency samples per pass), "
        f"{len(setups)} set-ups"
    )
    shares = time_by_kind(jobs, passes)
    if shares:
        print("# share of wall_s by kind: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, passes


def per_layer(workload: str, jobs, seconds: float) -> tuple[dict, list, list[str]]:
    """Alternate untraced and traced passes; per-layer values are medians over
    the traced passes, tracing.overhead_s the difference of the median walls."""
    child("setup")
    pairs = repeat(
        seconds,
        lambda i: (run_pass(jobs), run_pass(jobs, WORK / f"spans-{workload}-{i}.jsonl")),
        1,
    )
    per_pass, lanes = [], []
    for i in range(len(pairs)):
        stats = spans.layer_stats(*spans.read(WORK / f"spans-{workload}-{i}.jsonl"))
        per_pass.append(stats)
        lanes += spans.lane_violations(workload, stats)
    values = spans.median_metrics(per_pass)
    untraced = statistics.median(u["wall_s"] for u, _ in pairs)
    traced = statistics.median(t["wall_s"] for _, t in pairs)
    values["tracing.overhead_s"] = traced - untraced
    print(
        f"# {len(pairs)} untraced/traced pass pairs; wall_s untraced {untraced:.3f} s, "
        f"traced {traced:.3f} s, overhead {traced - untraced:+.3f} s "
        f"({(traced - untraced) / untraced:+.1%})"
    )
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER
    }
    return metrics, [p for pair in pairs for p in pair], sorted(set(lanes))


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def describe_machine() -> str:
    import numpy

    src = ROOT / "src" / "tracecat"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    return (
        f"# machine: nproc {os.cpu_count()}, CPU {cpu_model()}, "
        f"Python {sys.version.split()[0]}, numpy {numpy.__version__}; "
        f"sha {git_sha()}; src_lines {src_lines}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tracecat" / "__init__.py").is_file():
        print(f"error: no tracecat source tree under {ROOT}/src", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    print(describe_machine())
    jobs = make_jobs(args.workload, args.seed, ROOT, WORK)
    if args.trace:
        metrics, passes, lanes = per_layer(args.workload, jobs, args.seconds)
    else:
        (metrics, passes), lanes = end_to_end(jobs, args.seconds), []
    attempted, failed, unexpected, known = verify(jobs, passes)
    print(f"# fail_ratio {failed}/{attempted} jobs = {failed / attempted:.4f}")
    for line in sorted(set(known)):
        print(f"# known defect: {line}")
    for line in unexpected[:20]:
        print(f"# WRONG: {line}", file=sys.stderr)
    for line in lanes:
        print(f"# LANE: {line}", file=sys.stderr)
    correct = not unexpected and not lanes
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
