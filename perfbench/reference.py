"""Known answers for the benchmark, computed without importing tracecat.

Everything here is built from the mathematics or from the committed data
files, never from the code under test:

* SU(2)_k fusion from the truncated Clebsch-Gordan rule and quantum
  dimensions from sin(a pi/(k+2)) / sin(pi/(k+2));
* package files read and written by a parser of this module's own;
* ADE actions from hand-written Dynkin adjacencies and the Chebyshev
  recursion M(n+1) = M(2) M(n) - M(n-1);
* traces T[i][j] = M(c_i)[j][unit], tensor words folded through the
  module fusion tensor and internal Ends x^T M(c_i) x, all in plain numpy;
* the CLI's text layouts (`1 ⊕ 5`, `1^1 + 5^1`, aligned tables).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The 14 named checks of `identity_suite` (acceptance criterion 9).
TL_CHECK_NAMES = (
    "tl_relations",
    "braid_inverse_reidemeister_2_3",
    "reidemeister_1_fails_by_twist",
    "jw_idempotent_killed_trace",
    "jw_unique_by_annihilation",
    "quantum_dims_nonzero",
    "traciator_unit_laws",
    "traciator_inverse",
    "traciator_composition",
    "traciator_zigzag",
    "double_traciator_is_twist",
    "traciator_braiding_twist",
    "two_twists_ribbon_pivotal",
    "spherical_trace",
)

BUILTIN_PACKAGES = (
    "d4_su2_4",
    "e6_su2_10",
    "e8_su2_28",
    "d10_su2_16",
    "e7_su2_16",
    "a17_su2_16",
)

_REGULAR = re.compile(r"a(\d+)_su2_(\d+)")


def su2_fusion(k: int) -> np.ndarray:
    """N[a-1][b-1][c-1] = 1 iff c = |a-b|+1, |a-b|+3, ..., min(a+b-1, 2k+3-a-b)."""
    r = k + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            for c in range(abs(a - b) + 1, min(a + b - 1, 2 * k + 3 - a - b) + 1, 2):
                N[a - 1, b - 1, c - 1] = 1
    return N


def su2_dims(k: int) -> list[float]:
    """Quantum dimensions [a]_q at q = exp(i pi/(k+2)), a = 1..k+1."""
    s = math.sin(math.pi / (k + 2))
    return [math.sin(a * math.pi / (k + 2)) / s for a in range(1, k + 2)]


# -- packages --------------------------------------------------------------------


@dataclass(frozen=True)
class Package:
    name: str
    level: int
    msimples: tuple[str, ...]
    unit: int | None
    mats: np.ndarray  # (k+1, m, m): mats[i][j][l] = mult of m_j in c_i . m_l
    mN: np.ndarray | None  # (m, m, m) module fusion tensor, when present

    @property
    def base_labels(self) -> tuple[str, ...]:
        return tuple(str(a) for a in range(1, self.level + 2))

    @property
    def rank(self) -> int:
        return len(self.msimples)


def parse_package(text: str) -> Package:
    """Read a well-formed package file whose base is `su2 <k>`."""
    name = level = msimples = unit = None
    blocks: dict[tuple[str, ...], list[list[int]]] = {}
    current: list[list[int]] | None = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "package":
            name = tokens[1]
        elif key == "base":
            if tokens[1] != "su2":
                raise ValueError("reference parser handles `base su2 <k>` only")
            level = int(tokens[2])
        elif key == "msimples":
            msimples = tuple(tokens[1:])
        elif key == "unit":
            unit = tokens[1]
        elif key in ("action", "mfusion"):
            current = blocks.setdefault((key, *tokens[1:]), [])
        else:
            current.append([int(t) for t in tokens])
    mats = np.array(
        [blocks[("action", str(a))] for a in range(1, level + 2)], dtype=np.int64
    )
    mN = None
    if any(key[0] == "mfusion" for key in blocks):
        mN = np.array(
            [[blocks[("mfusion", x, y)][0] for y in msimples] for x in msimples],
            dtype=np.int64,
        )
    return Package(
        name, level, msimples, None if unit is None else msimples.index(unit), mats, mN
    )


def package_text(pkg: Package) -> str:
    """The committed layout: right-aligned integers, one width for the file."""
    lines = [f"package {pkg.name}", f"base su2 {pkg.level}"]
    lines.append("msimples " + " ".join(pkg.msimples))
    if pkg.unit is not None:
        lines.append(f"unit {pkg.msimples[pkg.unit]}")
    values = [pkg.mats.ravel()] + ([pkg.mN.ravel()] if pkg.mN is not None else [])
    width = max(len(str(int(v))) for v in np.concatenate(values))

    def row(vals) -> str:
        return " ".join(str(int(v)).rjust(width) for v in vals)

    for a, mat in zip(pkg.base_labels, pkg.mats):
        lines.append(f"action {a}")
        lines.extend(row(r) for r in mat)
    if pkg.mN is not None:
        for x, xl in enumerate(pkg.msimples):
            for y, yl in enumerate(pkg.msimples):
                lines.append(f"mfusion {xl} {yl}")
                lines.append(row(pkg.mN[x, y]))
    return "\n".join(lines) + "\n"


def regular_package(k: int) -> Package:
    """SU(2)_k acting on itself: M(c_i)[j][l] = N[i][l][j], module fusion N."""
    N = su2_fusion(k)
    labels = tuple(str(a) for a in range(1, k + 2))
    return Package(f"a{k + 1}_su2_{k}", k, labels, 0, N.transpose(0, 2, 1).copy(), N)


def load(name: str, data_dir: Path) -> Package | None:
    """A shipped package file, a regular module a<k+1>_su2_<k>, or None."""
    path = Path(data_dir) / f"{name}.pkg"
    if path.exists():
        return parse_package(path.read_text(encoding="utf-8"))
    m = _REGULAR.fullmatch(name)
    if m and int(m.group(1)) == int(m.group(2)) + 1:
        return regular_package(int(m.group(2)))
    return None


# -- ADE actions -----------------------------------------------------------------


def dynkin(kind: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and adjacency in the trace-table order (fork legs n-1, (n-1)')."""
    family, n = kind[0], int(kind[1:])
    if family == "a":
        labels = tuple(str(i) for i in range(1, n + 1))
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "d":
        labels = tuple(str(i) for i in range(1, n)) + (f"{n - 1}'",)
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        labels = tuple(str(i) for i in range(1, n + 1))
        edges = {
            6: [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)],
            7: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
            8: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)],
        }[n]
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return labels, adj


def chebyshev(adj: np.ndarray, k: int) -> np.ndarray:
    mats = [np.eye(len(adj), dtype=np.int64), adj]
    while len(mats) < k + 1:
        mats.append(adj @ mats[-1] - mats[-2])
    return np.stack(mats)


def fusion_problems(pkg: Package) -> list[str]:
    """Ways in which pkg.mN fails to be a module fusion tensor for pkg.mats."""
    mN, unit, m = pkg.mN, pkg.unit, pkg.rank
    out = []
    eye = np.eye(m, dtype=np.int64)
    if not (np.array_equal(mN[unit], eye) and np.array_equal(mN[:, unit], eye)):
        out.append("unit")
    if np.min(mN) < 0:
        out.append("negative")
    if not np.array_equal(
        np.einsum("xym,mzw->xyzw", mN, mN), np.einsum("yzm,xmw->xyzw", mN, mN)
    ):
        out.append("associativity")
    # c . x = Phi(c) (x) x with Phi(c) = c . unit
    phi = pkg.mats[:, :, unit]
    if not np.array_equal(np.einsum("iz,zxw->iwx", phi, mN), pkg.mats):
        out.append("free-module compatibility")
    return out


def fork_swap(m: int) -> tuple[int, ...]:
    return tuple(range(m - 2)) + (m - 1, m - 2)


# -- traces, words, Ends -----------------------------------------------------------


def trace_matrix(pkg: Package) -> np.ndarray:
    return pkg.mats[:, :, pkg.unit]


def fold(mN: np.ndarray, word: list[np.ndarray]) -> np.ndarray:
    acc = word[0]
    for factor in word[1:]:
        acc = np.einsum("i,j,ijk->k", acc, factor, mN)
    return acc


def internal_end(pkg: Package, x: np.ndarray) -> np.ndarray:
    return np.einsum("j,ijl,l->i", x, pkg.mats, x)


def automorphisms(pkg: Package) -> list[tuple[int, ...]]:
    """Unit-fixing label symmetries of the action.

    Every package the benchmark queries is an A, D or E graph, whose only
    candidates are the identity, the fork-leg swap and the path reversal.
    """
    m = pkg.rank
    candidates = {tuple(range(m)), fork_swap(m), tuple(reversed(range(m)))}
    out = []
    for p in sorted(candidates):
        if pkg.unit is not None and p[pkg.unit] != pkg.unit:
            continue
        pi = list(p)
        if np.array_equal(pkg.mats[:, pi][:, :, pi], pkg.mats):
            out.append(p)
    return out


def catalog(pkg: Package, bound: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x, End(x)) for each object of total multiplicity <= bound, one per
    symmetry orbit, represented by its lexicographically greatest image."""
    perms = automorphisms(pkg)
    m = pkg.rank
    seen = set()
    entries = []
    for total in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            mult = [0] * m
            for j in combo:
                mult[j] += 1
            rep = max(tuple(mult[p.index(i)] for i in range(m)) for p in perms)
            if rep not in seen:
                seen.add(rep)
                x = np.array(rep, dtype=np.int64)
                entries.append((x, internal_end(pkg, x)))
    entries.sort(key=lambda e: (int(e[0].sum()), tuple(int(v) for v in e[0])))
    return entries


def identify(end: np.ndarray, catalogs: list[tuple[Package, list]]) -> list[tuple[str, np.ndarray]]:
    """(package, x) for every catalog object whose internal End equals `end`."""
    return [
        (pkg.name, x)
        for pkg, entries in catalogs
        for x, e in entries
        if np.array_equal(e, end)
    ]


# -- the CLI's layouts -------------------------------------------------------------


def text(vec, labels) -> str:
    parts = [lab for lab, mult in zip(labels, vec) for _ in range(int(mult))]
    return " ⊕ ".join(parts) if parts else "0"


def machine(vec, labels) -> str:
    parts = [f"{lab}^{int(mult)}" for lab, mult in zip(labels, vec) if mult]
    return " + ".join(parts) if parts else "0"


def emit(vec, labels, fmt: str) -> str:
    return machine(vec, labels) if fmt == "tsv" else text(vec, labels)


def trace_table(pkg: Package, fmt: str) -> str:
    T = trace_matrix(pkg)
    if fmt == "tsv":
        rows = [
            f"{lab}\t{machine(T[:, j], pkg.base_labels)}" for j, lab in enumerate(pkg.msimples)
        ]
    else:
        left = max(len(lab) for lab in pkg.msimples)
        rows = [
            f"{lab.ljust(left)} : {text(T[:, j], pkg.base_labels)}"
            for j, lab in enumerate(pkg.msimples)
        ]
    return "\n".join(rows) + "\n"


def perron_dims(pkg: Package) -> list[float]:
    """Perron-Frobenius eigenvector of the graph, normalised at the unit
    (at the first vertex when there is none)."""
    values, vectors = np.linalg.eigh(pkg.mats[1].astype(float))
    v = np.abs(vectors[:, int(np.argmax(values))])
    return list(v / v[pkg.unit if pkg.unit is not None else 0])
