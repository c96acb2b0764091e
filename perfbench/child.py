"""One benchmark pass in a fresh interpreter.

    python3 -m perfbench.child setup     import tracecat, print the time it was ready
    python3 -m perfbench.child pass      also run the jobs read as JSON from stdin

Every job starts with tracecat's module-level caches empty, as a separate
CLI call would.  The raw outputs go back as one JSON object on stdout;
the parent compares them with the known answers, outside the timed region.
"""

import sys
import time

import tracecat  # noqa: F401  (interpreter start plus this import is the set-up)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def cache_clearers() -> list:
    """`cache_clear` of every lru_cache in tracecat, and `clear` of every
    private module-level dict (such as tl._GLUE_CACHE).  Collected before
    the tracing wrappers replace the cached functions."""
    out = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("tracecat."):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):
                out.append(obj.cache_clear)
            elif attr.startswith("_") and not attr.startswith("__") and type(obj) is dict:
                out.append(obj.clear)
            elif isinstance(obj, type) and obj.__module__ == name:
                for member in vars(obj).values():
                    inner = getattr(member, "__func__", None)
                    if hasattr(inner, "cache_clear"):
                        out.append(inner.cache_clear)
    return out


def run_suite(k: int) -> dict:
    from tracecat.cyclo import CycloField
    from tracecat.tl import identity_suite

    report = identity_suite(k, exact=True)
    field = CycloField.for_level(k)
    return {
        "checks": [[c.name, c.passed, c.detail] for c in report.checks],
        "qk2_zero": field.quantum_integer(k + 2).is_zero(),
        "qk1_zero": field.quantum_integer(k + 1).is_zero(),
    }


def run_derive(graph: str, k: int, path: str) -> dict:
    """Derive the tensor, write its package file and `tracecat verify` it."""
    from tracecat.modules import derive_module_fusion
    from tracecat.packages import ade_action, package_text

    result = derive_module_fusion(ade_action(graph, k))
    text = package_text(result.data)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return {
        "text": text,
        "symmetries": [list(p) for p in result.symmetries],
        "verify": run_cli(["verify", "--package", path]),
    }


def run_cli(argv: list) -> dict:
    from tracecat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


RUNNERS = {"suite": run_suite, "derive": run_derive, "cli": run_cli}


def run_job(job: list) -> dict:
    try:
        return RUNNERS[job[0]](*job[1:])
    except Exception as exc:  # a job that raises is a failed job, not a failed pass
        return {"exc": type(exc).__name__, "msg": str(exc)[:300]}


def main() -> None:
    if sys.argv[1] == "setup":
        print(json.dumps({"ready": READY}))
        return
    spec = json.load(sys.stdin)
    clearers = cache_clearers()
    tracer = None
    if spec["trace_path"]:
        from perfbench import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    results, job_s = [], []
    for i, job in enumerate(spec["jobs"]):
        for clear in clearers:
            clear()
        t = time.perf_counter()
        out = tracer.job(i, run_job, job) if tracer else run_job(job)
        job_s.append(time.perf_counter() - t)
        results.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.dump(spec["trace_path"])
    json.dump(
        {"ready": READY, "job_s": job_s, "peak_rss_mb": peak_rss_mb, "results": results},
        sys.stdout,
    )


if __name__ == "__main__":
    main()
