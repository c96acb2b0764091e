"""Write a bench file: end-to-end and layer timings of this tree and of a base.

    python3 tools/bench_file.py --base <git-rev> --out BENCH_<n>.json [--runs 3]

Both sides run from fresh temporary directories, each a `git archive`
export: the base revision, and the working tree this script sits in as the
commit `git stash create` makes of it (HEAD when the tree is clean), so
untracked files are measured only once staged.  Both directory names have
one length, since the length of a tree's path alone moves `peak_rss_mb` on
the TL workloads by up to 0.7 MB.

* End-to-end rows: `perfbench/run.py --workload <w> --seed <i> --seconds <s>`
  run `--runs` times per tree on every workload, base and change alternating
  (run i uses seed i on both).  The workloads and the run length <s> are
  those of each tree's `BENCHMARK.json`, which must agree.  `median_s` is
  the median `wall_s`; the row also keeps every run's end-to-end metrics
  and whether it was correct.
* The `tier-1` row: the tier-1 test command, `python -m pytest -q
  --continue-on-collection-errors -p no:cacheprovider` with `PYTHONPATH` at
  the tree's `src`, run TIER1_RUNS times per tree in the first runs,
  alternating as above, whatever `--runs` is.  Each run keeps `wall_s` and
  the passed, failed and error counts (an error is a test module that did
  not import, or a fixture that failed).  Each tree runs its own tests, so
  the row's `wall_s` compares the code of the two trees only when both run
  the same tests; otherwise it compares two suites.
* Layer rows: timed in a fresh interpreter per tree and run, with
  tracecat's caches emptied before each row, as `perfbench` empties them
  before each job: the unprojected curl `_wrap_right(field, n, n, True)`
  for n <= 5, one unprojected traciator `_wrap_right(field, p + q, q, True)`,
  and on the simples x, y of labels 3 and 4 `traciator_self_action(x, y,
  "+")` and `twist_morphism(x (x) y)` (their unprojected wraps built
  untimed first, through the tree's own cache, so these rows time the
  projection); `jones_wenzl(5)`; `_glue` uncached (`tl._glue.__wrapped__`)
  over the distinct pairs that `identity_suite(4)` glues, recorded untimed
  first, so the diagram table holds the results (row `tl.glue.k4`); one
  `compose` of the two '+' traciators that the `traciator_composition`
  check composes at the labels TRIPLE (strand total 5, the widest), both
  built untimed; all at k = 4;
  `identity_suite(k)` for k in {2, 4, 10, 16, 28}, and `identity_suite(16,
  strand_cap=6)` (row `tl.identity_suite.k16.cap6`, above the default cap
  4 at that level); all exact.  At k in {4, 16, 28}, `Cyc` `*` over
  every ordered pair and `inverse` of each of CYC_BATCH seeded elements
  [a]_q zeta^p + c, built untimed.  Then `derive_module_fusion` of the D12/k=20
  and D22/k=40 actions (each built untimed first), `check_forgetful` on
  the derived D12/k=20 package, and `check_splitting_iso` and
  `check_forgetful` on the derived D22/k=40 package (each package derived
  untimed first).  Last, the internal-End catalog of `a17_su2_16` at bound
  3 and `action_automorphisms` of `a61_su2_60`, each package loaded untimed
  first.  `median_s` is the median over the runs.

The output holds the machine, Python and numpy, the command with the base
resolved to its sha, and for each tree its git sha, `src_lines` and rows
`{name, kind, median_s, runs}`.  The closing summary prints each row's two
medians, and for an end-to-end row also in how many of its pairs of runs
the change had the lower `wall_s` and the distance between the quartiles
of the parent's `wall_s` (numpy's default, linear interpolation).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACIATOR = (2, 3)  # p, q of a '+' traciator at k = 4: the widest pair of the k = 4 suite
PAIR = (3, 4)  # the labels of that pair's simples
TRIPLE = (2, 2, 4)  # labels a, b, c of the slowest composition-law compose at k = 4
CYC_BATCH = 100  # one exact product takes only microseconds, an inverse milliseconds
TIER1_RUNS = 3  # the whole test suite takes tens of seconds


def layer_child() -> None:
    """Time every layer row once, caches emptied first; print JSON."""
    sys.path.append(os.getcwd())  # perfbench of the tree under test
    from perfbench.child import cache_clearers

    from tracecat import tl
    from tracecat.algebra import enumerate_internal_ends
    from tracecat.cyclo import scalar_field
    from tracecat.modules import action_automorphisms, derive_module_fusion
    from tracecat.packages import ade_action, load_builtin
    from tracecat.trace import check_forgetful, check_splitting_iso

    clearers = cache_clearers()

    def timed(fn, *args, setup=lambda field: ()) -> float:
        for clear in clearers:
            clear()
        field = scalar_field(4)  # built outside the timed call, as is setup(field)
        args = (*setup(field), *args)
        start = time.perf_counter()
        fn(field, *args)
        return time.perf_counter() - start

    def pair(field):
        """The simples of PAIR and their product, with the unprojected wraps
        of the projected rows below already built."""
        x, y = (tl.simple_object(a, field) for a in PAIR)
        p, q = x.strands, y.strands
        tl._wrap_right(field, p + q, q, True)
        tl._wrap_right(field, p + q, p + q, True)
        return x, y, x.tensor(y)

    def composition_pair(field):
        """tau(c (x) a, b) and tau(a (x) b, c), composed by the composition law."""
        a, b, c = (tl.simple_object(label, field) for label in TRIPLE)
        return (
            tl.traciator_self_action(c.tensor(a), b, "+"),
            tl.traciator_self_action(a.tensor(b), c, "+"),
        )

    def glue_pairs(field):
        """The distinct (top, bottom) pairs that identity_suite(4) glues."""
        pairs, glue = {}, tl._glue

        def record(top, bottom):
            pairs[top, bottom] = None
            return glue(top, bottom)

        tl._glue = record
        try:
            tl.identity_suite(4)
        finally:
            tl._glue = glue
        return (list(pairs),)

    rows = {}
    for n in range(1, 6):
        rows[f"tl._wrap_right.p{n}q{n}"] = timed(tl._wrap_right, n, n, True)
    p, q = TRACIATOR
    rows[f"tl._wrap_right.p{p + q}q{q}"] = timed(tl._wrap_right, p + q, q, True)
    a, b = PAIR
    rows[f"tl.traciator_self_action.x{a}y{b}+"] = timed(
        lambda field, x, y, xy: tl.traciator_self_action(x, y, "+"), setup=pair
    )
    rows[f"tl.twist_morphism.x{a}y{b}"] = timed(
        lambda field, x, y, xy: tl.twist_morphism(xy), setup=pair
    )
    rows["tl.jones_wenzl.n5"] = timed(lambda field: tl.jones_wenzl(5, field))
    rows["tl.glue.k4"] = timed(
        lambda field, pairs: [tl._glue.__wrapped__(top, bottom) for top, bottom in pairs],
        setup=glue_pairs,
    )
    a, b, c = TRIPLE
    rows[f"tl.compose.traciator_composition.a{a}b{b}c{c}"] = timed(
        lambda field, outer, inner: tl.compose(outer, inner), setup=composition_pair
    )
    for k in (2, 4, 10, 16, 28):
        # the suite builds its own field, as a perfbench job does
        rows[f"tl.identity_suite.k{k}"] = timed(lambda field, k: tl.identity_suite(k), k)
    rows["tl.identity_suite.k16.cap6"] = timed(lambda field: tl.identity_suite(16, strand_cap=6))

    for k in (4, 16, 28):
        field = scalar_field(k)
        rng = random.Random(k)
        xs = [
            field.quantum_integer(rng.randint(1, k + 1)) * field.zeta(rng.randrange(field.conductor))
            + field.from_int(rng.randint(-9, 9))
            for _ in range(CYC_BATCH)
        ]
        start = time.perf_counter()
        for a in xs:
            for b in xs:
                a * b
        rows[f"cyclo.mul.k{k}"] = time.perf_counter() - start
        start = time.perf_counter()
        for a in xs:
            a.inverse()
        rows[f"cyclo.inverse.k{k}"] = time.perf_counter() - start
    for kind, k in (("d12", 20), ("d22", 40)):
        rows[f"modules.derive_module_fusion.{kind}_su2_{k}"] = timed(
            lambda field, action: derive_module_fusion(action),
            setup=lambda field: (ade_action(kind, k, unit="1"),),
        )
    rows["trace.check_forgetful.d12_su2_20"] = timed(
        lambda field, data: check_forgetful(data),
        setup=lambda field: (derive_module_fusion(ade_action("d12", 20, unit="1")).data,),
    )
    d22 = derive_module_fusion(ade_action("d22", 40, unit="1")).data
    for check in (check_splitting_iso, check_forgetful):
        rows[f"trace.{check.__name__}.d22_su2_40"] = timed(lambda field: check(d22))
    rows["algebra.enumerate_internal_ends.a17_su2_16.b3"] = timed(
        lambda field, action: enumerate_internal_ends(action, 3),
        setup=lambda field: (load_builtin("a17_su2_16"),),
    )
    rows["modules.action_automorphisms.a61_su2_60"] = timed(
        lambda field, action: action_automorphisms(action),
        setup=lambda field: (load_builtin("a61_su2_60"),),
    )
    json.dump({"tracecat": tl.__file__, "rows": rows}, sys.stdout)


def run(cmd: list[str], tree: Path, env: dict | None = None, ok=(0,)) -> str:
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in ok:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def benchmark_config(tree: Path) -> tuple[float, list[str]]:
    """Run length and workload names from the tree's BENCHMARK.json."""
    config = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return config["run_seconds"], [w["name"] for w in config["workloads"]]


def e2e_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # perfbench exits 1 on a wrong verdict; the row records it as not correct
    result = json.loads(run(cmd, tree, ok=(0, 1)).splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def tier1_run(tree: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    cmd += ["-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    # pytest exits 1 when a test fails or errs; the run records how many did
    summary = run(cmd, tree, env, ok=(0, 1)).splitlines()[-1]
    wall = time.perf_counter() - start
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        counts["errors" if word.startswith("error") else word] = int(n)
    return {"wall_s": wall, **counts}


def layer_run(tree: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    out = json.loads(run([sys.executable, __file__, "--layer-child"], tree, env))
    if not out["tracecat"].startswith(str(tree)):
        raise RuntimeError(f"measured {out['tracecat']}, not the tree {tree}")
    return out["rows"]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, tmp: str) -> Path:
    """The tree of `rev`, extracted into the directory tmp."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
    return Path(tmp)


def describe(tree: Path, sha: str) -> dict:
    """Git sha and src_lines of an exported tree."""
    src = tree / "src" / "tracecat"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    return {"git_sha": sha, "src_lines": lines, "rows": []}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", help="bench file to write")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--layer-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layer_child:
        layer_child()
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")
    if args.runs < 3:
        parser.error("--runs must be at least 3: rows are medians of three or more")
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    import numpy

    # the working tree's sha is HEAD's, marked when src/ differs from it
    change_sha = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain", "src") else "")
    change_rev = git("stash", "create") or "HEAD"
    with (
        tempfile.TemporaryDirectory(prefix="bench-parent-") as base_tmp,
        tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp,
    ):
        trees = {"parent": export(base_sha, base_tmp), "change": export(change_rev, change_tmp)}
        seconds, workloads = benchmark_config(trees["change"])
        if benchmark_config(trees["parent"]) != (seconds, workloads):
            raise RuntimeError("the two trees' BENCHMARK.json differ in run_seconds or workloads")
        report = {
            "machine": f"nproc {os.cpu_count()}, CPU {cpu_model()}",
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "command": f"python3 tools/bench_file.py --base {base_sha} --out {args.out}"
            f" --runs {args.runs}",
            "parent": describe(trees["parent"], base_sha),
            "change": describe(trees["change"], change_sha),
        }
        e2e = {(tag, w): [] for tag in trees for w in workloads + ["tier-1"]}
        layers = {tag: [] for tag in trees}
        for i in range(args.runs):
            # alternate which tree goes first, so drift hits both alike
            order = list(trees.items())[:: 1 if i % 2 == 0 else -1]
            for workload in workloads:
                for tag, tree in order:
                    e2e[tag, workload].append(e2e_run(tree, workload, i, seconds))
                    print(f"# run {i} {tag} {workload}: {e2e[tag, workload][-1]}", flush=True)
            if i < TIER1_RUNS:
                for tag, tree in order:
                    e2e[tag, "tier-1"].append(tier1_run(tree))
                    print(f"# run {i} {tag} tier-1: {e2e[tag, 'tier-1'][-1]}", flush=True)
            for tag, tree in order:
                layers[tag].append(layer_run(tree))
                print(f"# run {i} {tag} layers: {layers[tag][-1]}", flush=True)
    for tag in trees:
        rows = report[tag]["rows"]
        for workload in workloads + ["tier-1"]:
            runs = e2e[tag, workload]
            rows.append(
                {
                    "name": workload,
                    "kind": "e2e",
                    "median_s": statistics.median(r["wall_s"] for r in runs),
                    "runs": runs,
                }
            )
        for name in layers[tag][0]:
            runs = [r[name] for r in layers[tag]]
            rows.append(
                {"name": name, "kind": "layer", "median_s": statistics.median(runs), "runs": runs}
            )
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for row_p, row_c in zip(report["parent"]["rows"], report["change"]["rows"]):
        line = f"{row_c['name']:32} {row_p['median_s']:9.3f} -> {row_c['median_s']:9.3f} s"
        if row_c["kind"] == "e2e":  # run i of each side used seed i
            pairs = list(zip(row_p["runs"], row_c["runs"]))
            won = sum(c["wall_s"] < p["wall_s"] for p, c in pairs)
            # the spread a claimed gain's medians must exceed
            q1, _, q3 = statistics.quantiles(
                [p["wall_s"] for p in row_p["runs"]], n=4, method="inclusive"
            )
            line += (
                f"  (change faster in {won} of {len(pairs)} pairs;"
                f" parent quartile distance {q3 - q1:.3f} s)"
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
