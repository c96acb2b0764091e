"""The four workloads: their jobs, and the known answer each job is checked against.

A job is a JSON list sent to `perfbench.child` (`["suite", k]`,
`["derive", graph, k, path]` or `["cli", argv]`).  Its check returns None
when the raw output is right, otherwise the reason.  Only `queries` uses
the seed; the other inputs are fixed by the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import reference as ref


@dataclass
class Job:
    spec: list
    check: Callable[[dict], str | None]
    # the exception a known defect of tracecat raises on this job; any other
    # failure of the job is unexpected
    known_failure: str | None = None
    kind: str = ""


# -- tl-diagram, tl-scalar -----------------------------------------------------------


def _check_suite(k: int, got: dict) -> str | None:
    if "exc" in got:
        return f"identity_suite({k}) raised {got['exc']}"
    names = sorted(c[0] for c in got["checks"])
    if names != sorted(ref.TL_CHECK_NAMES):
        return f"identity_suite({k}) ran checks {names}"
    failed = [c[0] for c in got["checks"] if not c[1]]
    if failed:
        return f"identity_suite({k}) FAIL {failed}"
    if not got["qk2_zero"]:
        return f"[{k + 2}]_q != 0 at level {k}"
    if got["qk1_zero"]:
        return f"[{k + 1}]_q == 0 at level {k}"
    return None


def suites(levels) -> list[Job]:
    return [Job(["suite", k], lambda got, k=k: _check_suite(k, got)) for k in levels]


# -- derive ----------------------------------------------------------------------------

DERIVE_GRAPHS = (("d8", 12), ("d10", 16), ("d12", 20))
TENSOR_BUILTINS = ("d4_su2_4", "e6_su2_10", "e8_su2_28", "d10_su2_16", "a5_su2_4")
# `tracecat verify` must report at least these checks, all PASS
PACKAGE_CHECKS_TENSOR = 7  # ring, action, tensor data, splitting, rotation, adjunction, forgetful
PACKAGE_CHECKS_MODULE = 2  # ring, action


def _check_verify(got: dict, at_least: int) -> str | None:
    if "exc" in got:
        return f"raised {got['exc']}: {got['msg']}"
    lines = got["out"].splitlines()
    bad = [line for line in lines if not line.startswith("PASS  ")]
    if got["rc"] != 0 or bad:
        return f"verify exit {got['rc']}: {bad[:3]}"
    if len(lines) < at_least:
        return f"{len(lines)} package checks, expected at least {at_least}"
    return None


def _check_derive(graph: str, k: int, committed: bytes | None, got: dict) -> str | None:
    if "exc" in got:
        return f"derive {graph}: raised {got['exc']}: {got['msg']}"
    reason = _check_verify(got["verify"], PACKAGE_CHECKS_TENSOR)
    if reason:
        return f"derive {graph}: {reason}"
    text = got["text"]
    if committed is not None and text.encode("utf-8") != committed:
        return f"derive {graph}: package_text differs from the committed file"
    pkg = ref.parse_package(text)
    labels, adj = ref.dynkin(graph)
    if pkg.msimples != labels or not np.array_equal(pkg.mats, ref.chebyshev(adj, k)):
        return f"derive {graph}: action is not the {graph.upper()} Chebyshev action"
    problems = ref.fusion_problems(pkg)
    if problems:
        return f"derive {graph}: module fusion fails {problems}"
    m = pkg.rank
    if sorted(map(tuple, got["symmetries"])) != [tuple(range(m)), ref.fork_swap(m)]:
        return f"derive {graph}: symmetries are not the fork-leg swap"
    # Kirillov-Ostrik: the algebra of the D_even module is A = 1 + (k+1)
    expected = np.zeros(k + 1, dtype=np.int64)
    expected[[0, k]] = 1
    if not np.array_equal(ref.trace_matrix(pkg)[:, pkg.unit], expected):
        return f"derive {graph}: Tr(1) is not 1 + {k + 1}"
    return None


def derive_jobs(data_dir: Path, work_dir: Path) -> list[Job]:
    """Each derived tensor is written to `work_dir` and run through
    `tracecat verify --package`; then `verify --builtin` on every builtin."""
    jobs = []
    for graph, k in DERIVE_GRAPHS:
        path = data_dir / f"{graph}_su2_{k}.pkg"
        committed = path.read_bytes() if path.exists() else None
        jobs.append(
            Job(
                ["derive", graph, k, str(work_dir / f"derived_{graph}_su2_{k}.pkg")],
                lambda got, g=graph, k=k, c=committed: _check_derive(g, k, c, got),
            )
        )
    for name in ref.BUILTIN_PACKAGES + ("a5_su2_4",):
        n = PACKAGE_CHECKS_TENSOR if name in TENSOR_BUILTINS else PACKAGE_CHECKS_MODULE
        jobs.append(
            _cli(
                ["verify", "--builtin", name],
                lambda got, n=n, name=name: _prefix(name, _check_verify(got, n)),
            )
        )
    return jobs


def _prefix(name: str, reason: str | None) -> str | None:
    return None if reason is None else f"{name}: {reason}"


# -- queries ---------------------------------------------------------------------------

IDENTIFY = ("a17_su2_16", "d10_su2_16", "e7_su2_16")
# The session gives every kind of query the same share: the 12 kinds are the
# verbs and forms the benchmark is asked to cover (trace table/--object/--word,
# end --identify/--bound, fuse --builtin/--k, dims --builtin/--k, malformed
# expressions, unknown packages, corrupted packages), 20 queries each, 240 in
# all.  No kind is weighted by how often users issue it; nothing records that.
PER_KIND = 20
DIMS_BROKEN_FROM = 35  # fp_dimensions raises ArithmeticError for every k >= 35
MALFORMED = ("1+", "+1", "1**2", "(1", "zz", "2*", "1 1", "1&1", "1+(2)", "()", "*1", "2*zz")
# golden queries of acceptance criteria 1-6
GOLDEN_TABLES = ("d4_su2_4", "e6_su2_10", "e8_su2_28")
GOLDEN_WORDS = (("1+9",), ("1+9", "1+9"), ("1+9", "1+9'"))
GOLDEN_ENDS = (("e7_su2_16", "1"), ("d10_su2_16", "1+9"), ("e7_su2_16", "2"))


def _expect_out(out: str, got: dict) -> str | None:
    if "exc" in got:
        return f"raised {got['exc']}: {got['msg']}"
    if got["rc"] != 0:
        return f"exit {got['rc']}: {got['err'].strip()[:120]}"
    if got["out"] != out:
        return "stdout differs from the reference"
    return None


def _expect_error(code: int, got: dict) -> str | None:
    if "exc" in got:
        return f"raised {got['exc']}: {got['msg']}"
    if got["rc"] != code:
        return f"exit {got['rc']}, expected {code}"
    if got["out"] or not got["err"].startswith("error: ") or got["err"].count("\n") != 1:
        return "error is not a one-line message on stderr"
    return None


def _expect_dims(labels, values, got: dict) -> str | None:
    if "exc" in got:
        return f"raised {got['exc']}: {got['msg']}"
    if got["rc"] != 0:
        return f"exit {got['rc']}"
    rows = [line.split("\t") for line in got["out"].splitlines()]
    if [r[0] for r in rows] != list(labels):
        return "dims labels differ"
    worst = max(abs(float(r[1]) - v) for r, v in zip(rows, values))
    return None if worst <= 1e-9 else f"dims off by {worst:.3g}"


def ladder(n: int, hi: int = 60) -> list[int]:
    """n levels spread over 1..hi, the top of each of n equal strata.

    Levels of the base category are drawn from such ladders, not uniformly:
    the cost and memory of a query grow steeply with its level (validate_ring
    holds two (k+1)^4 arrays, 221 MB at k = 60), so uniform draws would make
    `wall_s`, `peak_rss_mb` and the share of `dims --k` failures depend on the
    seed.  The seed still decides which query gets which level.
    """
    return [round(hi * (i + 1) / n) for i in range(n)]


class Session:
    """Seeded CLI queries with their reference answers."""

    def __init__(self, seed: int, data_dir: Path, work_dir: Path):
        self.rng = random.Random(seed)
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.packages: dict[str, ref.Package] = {}
        self.catalogs = None

    def pkg(self, name: str) -> ref.Package:
        if name not in self.packages:
            self.packages[name] = ref.load(name, self.data_dir)
        return self.packages[name]

    def draw_packages(self, pool, n: int, hi: int = 60) -> list[str]:
        """n packages: n - n//2 drawn from `pool`, and regular modules
        a<k+1>_su2_<k> at the levels of ladder(n // 2, hi), each moved down
        to a level no shipped file shadows (a17_su2_16 is a module-only
        package).  The session is shuffled later."""
        names = [self.rng.choice(pool) for _ in range(n - n // 2)]
        for k in ladder(n // 2, hi):
            while (self.data_dir / f"a{k + 1}_su2_{k}.pkg").exists():
                k -= 1
            names.append(f"a{k + 1}_su2_{k}")
        return names

    def obj(self, labels) -> tuple[str, np.ndarray]:
        terms = self.rng.sample(range(len(labels)), self.rng.randint(1, min(3, len(labels))))
        vec = np.zeros(len(labels), dtype=np.int64)
        parts = []
        for j in terms:
            mult = self.rng.randint(1, 2)
            vec[j] += mult
            parts.append(labels[j] if mult == 1 else f"{mult}*{labels[j]}")
        return "+".join(parts), vec

    def word(self, labels) -> tuple[str, list[np.ndarray]]:
        factors, vecs = [], []
        for _ in range(self.rng.randint(1, 3)):
            expr, vec = self.obj(labels)
            if "+" in expr or "*" in expr or self.rng.random() < 0.3:
                expr = f"({expr})"
            factors.append(expr)
            vecs.append(vec)
        return "*".join(factors), vecs

    def fmt(self) -> str:
        return self.rng.choice(("text", "tsv"))

    # one method per kind of query, each making one Job

    def trace_table(self, name, fmt=None):
        fmt = fmt or self.fmt()
        out = ref.trace_table(self.pkg(name), fmt)
        return _cli(["trace", "--builtin", name, "--format", fmt], lambda g: _expect_out(out, g))

    def trace_object(self, name, expr=None):
        p = self.pkg(name)
        if expr is None:
            expr, vec = self.obj(p.msimples)
        else:
            vec = np.eye(p.rank, dtype=np.int64)[p.msimples.index(expr)]
        fmt = self.fmt()
        out = ref.emit(ref.trace_matrix(p) @ vec, p.base_labels, fmt) + "\n"
        argv = ["trace", "--builtin", name, "--object", expr, "--format", fmt]
        return _cli(argv, lambda g: _expect_out(out, g))

    def trace_word(self, name, factors=None):
        p = self.pkg(name)
        if factors is None:
            expr, vecs = self.word(p.msimples)
        else:
            expr = "*".join(f"({f})" for f in factors)
            vecs = [_parse_sum(f, p.msimples) for f in factors]
        fmt = self.fmt()
        out = ref.emit(ref.trace_matrix(p) @ ref.fold(p.mN, vecs), p.base_labels, fmt) + "\n"
        argv = ["trace", "--builtin", name, "--word", expr, "--format", fmt]
        return _cli(argv, lambda g: _expect_out(out, g))

    def end_identify(self, name=None, expr=None):
        if self.catalogs is None:
            self.catalogs = [(self.pkg(n), ref.catalog(self.pkg(n), 3)) for n in IDENTIFY]
        name = name or self.rng.choice(IDENTIFY)
        p = self.pkg(name)
        if expr is None:
            expr, vec = self.obj(p.msimples)
        else:
            vec = _parse_sum(expr, p.msimples)
        order = self.rng.sample(range(len(IDENTIFY)), len(IDENTIFY))
        catalogs = [self.catalogs[i] for i in order]
        end = ref.internal_end(p, vec)
        matches = ref.identify(end, catalogs)
        obj = ref.machine(end, p.base_labels)
        if matches:
            pkg_name, x = matches[0]
            line = (
                f"object = {obj}  witness = {pkg_name}:"
                f"{ref.machine(x, self.pkg(pkg_name).msimples)}  "
                f"unique = {'yes' if len(matches) == 1 else 'no'}"
            )
        else:
            line = f"object = {obj}  witness = none"
        out = f"{ref.text(end, p.base_labels)}\n{line}\n"
        identify = ",".join(IDENTIFY[i] for i in order)
        argv = ["end", "--builtin", name, "--object", expr, "--identify", identify]
        return _cli(argv, lambda g: _expect_out(out, g))

    def end_bound(self, name):
        bound = self.rng.randint(1, 3 if name in ref.BUILTIN_PACKAGES else 2)
        p = self.pkg(name)
        fmt = self.fmt()
        sep = "\t" if fmt == "tsv" else " : "
        out = "".join(
            f"{ref.machine(x, p.msimples)}{sep}{ref.emit(end, p.base_labels, fmt)}\n"
            for x, end in ref.catalog(p, bound)
        )
        argv = ["end", "--builtin", name, "--bound", str(bound), "--format", fmt]
        return _cli(argv, lambda g: _expect_out(out, g))

    def fuse_module(self, name):
        p = self.pkg(name)
        expr, vecs = self.word(p.msimples)
        fmt = self.fmt()
        out = ref.emit(ref.fold(p.mN, vecs), p.msimples, fmt) + "\n"
        argv = ["fuse", "--builtin", name, "--word", expr, "--format", fmt]
        return _cli(argv, lambda g: _expect_out(out, g))

    def fuse_base(self, k):
        labels = tuple(str(a) for a in range(1, k + 2))
        expr, vecs = self.word(labels)
        fmt = self.fmt()
        out = ref.emit(ref.fold(ref.su2_fusion(k), vecs), labels, fmt) + "\n"
        argv = ["fuse", "--k", str(k), "--word", expr, "--format", fmt]
        return _cli(argv, lambda g: _expect_out(out, g))

    def dims_package(self, name):
        p = self.pkg(name)
        values = ref.perron_dims(p)
        return _cli(["dims", "--builtin", name], lambda g: _expect_dims(p.msimples, values, g))

    def dims_level(self, k):
        labels = tuple(str(a) for a in range(1, k + 2))
        values = ref.su2_dims(k)
        failure = "ArithmeticError" if k >= DIMS_BROKEN_FROM else None
        return _cli(["dims", "--k", str(k)], lambda g: _expect_dims(labels, values, g), failure)

    def malformed(self, n):
        """n malformed expressions, given in turn to trace --object,
        trace --word and fuse --k."""
        verbs = [("object", "word", "fuse")[i % 3] for i in range(n)]
        names = iter(self.draw_packages(TENSOR_BUILTINS, n - verbs.count("fuse")))
        levels = iter(ladder(verbs.count("fuse")))
        jobs = []
        for i, verb in enumerate(verbs):
            expr = MALFORMED[i % len(MALFORMED)]
            if verb == "fuse":
                argv = ["fuse", "--k", str(next(levels)), "--word", expr]
            else:
                argv = ["trace", "--builtin", next(names), f"--{verb}", expr]
            jobs.append(_cli(argv, lambda g: _expect_error(2, g)))
        return jobs

    def unknown_package(self):
        while True:
            k = self.rng.randint(1, 60)
            name = self.rng.choice(
                (
                    f"e{self.rng.choice((5, 9, 10))}_su2_{k}",
                    f"a{k + 2}_su2_{k}",
                    f"d{self.rng.randint(4, 30)}_su2_{k}",
                )
            )
            if ref.load(name, self.data_dir) is None:
                break
        argv = self.rng.choice(
            (
                ["trace", "--builtin", name],
                ["dims", "--builtin", name],
                ["end", "--builtin", name, "--object", "1"],
                ["fuse", "--builtin", name, "--word", "1*1"],
            )
        )
        return _cli(argv, lambda g: _expect_error(1, g))

    def corrupted_package(self, index: int):
        """A shipped package with one non-unit action entry raised by one."""
        name = self.rng.choice(ref.BUILTIN_PACKAGES)
        p = self.pkg(name)
        mats = p.mats.copy()
        block = self.rng.randint(1, p.level)
        mats[block, self.rng.randrange(p.rank), self.rng.randrange(p.rank)] += 1
        bad = ref.Package(p.name, p.level, p.msimples, p.unit, mats, p.mN)
        path = self.work_dir / f"corrupt_{index}_{name}.pkg"
        path.write_text(ref.package_text(bad), encoding="utf-8")
        verb = self.rng.choice(("trace", "dims"))
        return _cli([verb, "--package", str(path)], lambda g: _expect_error(1, g))

    def jobs(self) -> list[Job]:
        n = PER_KIND

        def tensors(m):
            return self.draw_packages(TENSOR_BUILTINS, m)

        kinds = {
            "trace_table": [self.trace_table(g, "text") for g in GOLDEN_TABLES]
            + [self.trace_table(p) for p in tensors(n - 3)],
            "trace_object": [self.trace_object(g, "1") for g in GOLDEN_TABLES]
            + [self.trace_object(p) for p in tensors(n - 3)],
            "trace_word": [self.trace_word("d10_su2_16", w) for w in GOLDEN_WORDS]
            + [self.trace_word(p) for p in tensors(n - 3)],
            "end_identify": [self.end_identify(pk, x) for pk, x in GOLDEN_ENDS]
            + [self.end_identify() for _ in range(n - 3)],
            "end_bound": [
                self.end_bound(p) for p in self.draw_packages(ref.BUILTIN_PACKAGES, n, hi=20)
            ],
            "fuse_module": [self.fuse_module(p) for p in tensors(n)],
            "fuse_base": [self.fuse_base(k) for k in ladder(n)],
            "dims_package": [
                self.dims_package(p) for p in self.draw_packages(ref.BUILTIN_PACKAGES, n)
            ],
            "dims_level": [self.dims_level(k) for k in ladder(n)],
            "malformed": self.malformed(n),
            "unknown_package": [self.unknown_package() for _ in range(n)],
            "corrupted_package": [self.corrupted_package(i) for i in range(n)],
        }
        session = []
        for kind, jobs in kinds.items():
            assert len(jobs) == n, kind
            for job in jobs:
                job.kind = kind
            session += jobs
        self.rng.shuffle(session)
        return session

def _cli(argv: list, check, known_failure: str | None = None) -> Job:
    return Job(["cli", argv], check, known_failure)


def _parse_sum(expr: str, labels) -> np.ndarray:
    vec = np.zeros(len(labels), dtype=np.int64)
    for term in expr.split("+"):
        vec[labels.index(term)] += 1
    return vec


def make_jobs(workload: str, seed: int, root: Path, work_dir: Path) -> list[Job]:
    data_dir = root / "src" / "tracecat" / "data"
    if workload == "tl-diagram":
        return suites((2, 4))
    if workload == "tl-scalar":
        return suites((10, 16, 28))
    if workload == "derive":
        return derive_jobs(data_dir, work_dir)
    if workload == "queries":
        return Session(seed, data_dir, work_dir).jobs()
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("tl-diagram", "tl-scalar", "derive", "queries")
