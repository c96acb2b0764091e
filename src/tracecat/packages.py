"""Category package files: a line-oriented text format plus shipped builtins.

Format (UTF-8, `#` comments, whitespace-separated decimal integers):

    package <name>
    base su2 <k>              or: base file <ring-name>
    msimples <label> <label> ...
    unit <label>              (only for module tensor categories)
    action <base-label>
    <one row per module simple; row j, column l = mult of m_j in c . m_l>
    ...
    mfusion <x-label> <y-label>
    <one row: multiplicities of x (x) y over the module simples>

Each of the header lines `package`, `base`, `msimples` and `unit` appears
at most once.  A package with a unit and all mfusion blocks loads as
ModuleTensorData; one without mfusion blocks loads as a ModuleAction.
Every invariant is revalidated on load and violations carry the offending
line number.  Committed packages round-trip byte for byte through
save_package.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .fusion import FusionError, FusionRing, verlinde_su2
from .modules import (
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    chebyshev_action,
    regular_module,
    validate_action,
    validate_tensor_data,
)


class PackageError(ValueError):
    """Raised when a package file cannot be parsed or fails validation."""


# -- Dynkin graphs --------------------------------------------------------------


def dynkin_graph(kind: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and adjacency for the graphs used by the shipped packages.

    Labelling follows the trace-table column order: the long arm is
    numbered from the end carrying the unit vertex, fork legs of D-type
    graphs are n-1 and (n-1)', the short leg of E6/E7/E8 comes right
    after its branch vertex, and tadpole graphs T_n carry a loop at the
    far end.
    """
    kind = kind.lower()
    m = re.fullmatch(r"([adet])(\d+)", kind)
    if not m:
        raise PackageError(f"unknown graph {kind!r}")
    family, n = m.group(1), int(m.group(2))

    def adj(count: int, edges: list[tuple[int, int]], loops: tuple[int, ...] = ()):
        a = np.zeros((count, count), dtype=np.int64)
        for u, v in edges:
            a[u, v] = a[v, u] = 1
        for u in loops:
            a[u, u] = 1
        return a

    if family == "a":
        labels = tuple(str(i) for i in range(1, n + 1))
        return labels, adj(n, [(i, i + 1) for i in range(n - 1)])
    if family == "t":
        labels = tuple(str(i) for i in range(1, n + 1))
        return labels, adj(n, [(i, i + 1) for i in range(n - 1)], loops=(n - 1,))
    if family == "d":
        if n < 4:
            raise PackageError("D-type graphs need at least 4 vertices")
        labels = tuple(str(i) for i in range(1, n)) + (f"{n - 1}'",)
        # path 1..n-2 with fork legs n-1 and (n-1)' both attached to n-2
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        return labels, adj(n, edges)
    if family == "e" and n == 6:
        labels = ("1", "2", "3", "4", "5", "6")
        return labels, adj(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    if family == "e" and n == 7:
        labels = ("1", "2", "3", "4", "5", "6", "7")
        return labels, adj(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    if family == "e" and n == 8:
        labels = ("1", "2", "3", "4", "5", "6", "7", "8")
        return labels, adj(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)])
    raise PackageError(f"unknown graph {kind!r}")


def ade_action(kind: str, level: int, unit: str | None = "1") -> ModuleAction:
    labels, adjacency = dynkin_graph(kind)
    return chebyshev_action(
        verlinde_su2(level),
        adjacency,
        labels,
        name=f"{kind.lower()}_su2_{level}",
        unit_module=unit,
    )


# -- serialization --------------------------------------------------------------


def save_package(data: ModuleAction, path: str | Path) -> None:
    Path(path).write_text(package_text(data), encoding="utf-8")


def package_text(data: ModuleAction) -> str:
    lines = [f"package {data.name}", f"base {data.base_spec}"]
    lines.append("msimples " + " ".join(data.msimples))
    if data.unit_module is not None:
        lines.append(f"unit {data.msimples[data.unit_module]}")
    entries = [data.mats, data.mN] if isinstance(data, ModuleTensorData) else [data.mats]
    width = max(len(str(int(v))) for a in entries for v in a.ravel())
    for i, label in enumerate(data.base.labels):
        lines.append(f"action {label}")
        for row in data.mats[i]:
            lines.append(" ".join(str(int(v)).rjust(width) for v in row))
    if isinstance(data, ModuleTensorData):
        for x, xl in enumerate(data.msimples):
            for y, yl in enumerate(data.msimples):
                lines.append(f"mfusion {xl} {yl}")
                lines.append(
                    " ".join(str(int(v)).rjust(width) for v in data.mN[x, y])
                )
    return "\n".join(lines) + "\n"


def load_package(path: str | Path, *, _loading: frozenset = frozenset()):
    """Parse and validate a package file; every error, an unreadable or
    non-UTF-8 file included, is a PackageError.

    Returns ModuleTensorData when the file carries a unit and a complete
    set of mfusion blocks, otherwise a ModuleAction.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PackageError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except OSError as exc:
        raise PackageError(f"{path}: cannot read: {exc.strerror or exc}") from None
    return parse_package(
        text,
        source=str(path),
        base_dir=path.parent,
        _loading=_loading | {path.resolve()},
    )


def parse_package(
    text: str, source: str = "<string>", base_dir=None, *, _loading: frozenset = frozenset()
):
    """Parse and validate package text; every error is a PackageError.

    `_loading` holds the resolved paths of the package files whose loading
    is under way, so a `base file` chain that returns to one of them fails
    instead of recursing.
    """
    lines = text.splitlines()
    numbered = enumerate((raw.split("#", 1)[0].split() for raw in lines), start=1)
    items = [(lineno, tokens) for lineno, tokens in numbered if tokens]

    def fail(lineno: int, msg: str):
        raise PackageError(f"{source}: line {lineno}: {msg}")

    name = None
    base: FusionRing | None = None
    base_spec = None
    msimples: tuple[str, ...] | None = None
    unit_label = None
    actions: dict[str, np.ndarray] = {}
    mfusion: dict[tuple[str, str], np.ndarray] = {}
    seen: set[str] = set()  # the directive keys met so far
    rest = iter(items)  # the directive loop and read_row both advance it

    def read_row() -> np.ndarray:
        """The next line as one row of a matrix block, of len(msimples) entries."""
        lineno, tokens = next(rest, (len(lines) + 1, None))
        if tokens is None:
            fail(lineno, "unexpected end of file inside a matrix block")
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            fail(lineno, f"expected integers, got {' '.join(tokens)!r}")
        if len(row) != len(msimples):
            fail(lineno, f"expected {len(msimples)} integers, got {len(row)}")
        for v in row:
            if v < 0:
                fail(lineno, f"negative multiplicity {v}")
            if v >= 2**63:
                fail(lineno, f"multiplicity {v} does not fit in 64 bits")
        return np.array(row, dtype=np.int64)

    for lineno, tokens in rest:
        key = tokens[0]
        if key in seen and key in ("package", "base", "msimples", "unit"):
            fail(lineno, f"duplicate {key} line")
        seen.add(key)
        if key == "package":
            if len(tokens) != 2:
                fail(lineno, "usage: package <name>")
            name = tokens[1]
        elif key == "base":
            if len(tokens) != 3 or tokens[1] not in ("su2", "file"):
                fail(lineno, "usage: base su2 <k> | base file <ring-name>")
            if tokens[1] == "su2":
                try:
                    k = int(tokens[2])
                except ValueError:
                    fail(lineno, f"bad level {tokens[2]!r}")
                try:
                    base = verlinde_su2(k)
                except FusionError as exc:
                    fail(lineno, str(exc))
            else:
                if base_dir is None:
                    fail(lineno, "base file references need a base directory")
                path = _package_path(tokens[2], base_dir)
                if path is not None and path.resolve() in _loading:
                    fail(lineno, f"base file {tokens[2]!r} is still loading: the base chain loops")
                try:
                    ref = load_builtin(tokens[2], base_dir, _loading=_loading)
                except FusionError as exc:
                    fail(lineno, str(exc))
                if not isinstance(ref, ModuleTensorData):
                    fail(lineno, f"base ring {tokens[2]!r} is not a module tensor package")
                base = ref.module_ring()
            base_spec = f"{tokens[1]} {tokens[2]}"
        elif key == "msimples":
            msimples = tuple(tokens[1:])
            if len(set(msimples)) != len(msimples) or not msimples:
                fail(lineno, "module simple labels must be nonempty and distinct")
        elif key == "unit":
            if len(tokens) != 2:
                fail(lineno, "usage: unit <label>")
            unit_label = tokens[1]
        elif key == "action":
            if base is None or msimples is None:
                fail(lineno, "action block before base/msimples")
            if len(tokens) != 2:
                fail(lineno, "usage: action <base-label>")
            label = tokens[1]
            if label not in base.labels:
                fail(lineno, f"unknown base label {label!r}")
            if label in actions:
                fail(lineno, f"duplicate action block for {label!r}")
            actions[label] = np.stack([read_row() for _ in msimples])
        elif key == "mfusion":
            if msimples is None:
                fail(lineno, "mfusion block before msimples")
            if len(tokens) != 3:
                fail(lineno, "usage: mfusion <x-label> <y-label>")
            xl, yl = tokens[1], tokens[2]
            for lab in (xl, yl):
                if lab not in msimples:
                    fail(lineno, f"unknown module label {lab!r}")
            if (xl, yl) in mfusion:
                fail(lineno, f"duplicate mfusion block for {xl} {yl}")
            mfusion[(xl, yl)] = read_row()
        else:
            fail(lineno, f"unknown directive {key!r}")

    first_line = items[0][0] if items else 1
    if name is None:
        fail(first_line, "missing package name")
    if base is None:
        fail(first_line, "missing base declaration")
    if msimples is None:
        fail(first_line, "missing msimples declaration")
    missing = [lab for lab in base.labels if lab not in actions]
    if missing:
        fail(len(lines), f"missing action block for base label {missing[0]!r}")

    if unit_label is not None and unit_label not in msimples:
        fail(first_line, f"unit label {unit_label!r} is not a module simple")
    unit_index = None if unit_label is None else msimples.index(unit_label)

    fields = dict(
        name=name,
        base=base,
        base_spec=base_spec,
        msimples=msimples,
        mats=np.stack([actions[lab] for lab in base.labels]),
        unit_module=unit_index,
    )
    action = ModuleAction(**fields)
    report = validate_action(action)
    if not report.ok:
        fail(first_line, "; ".join(report.failures))

    if not mfusion:
        return action
    if unit_index is None:
        fail(first_line, "mfusion blocks require a unit declaration")
    m = len(msimples)
    pairs = [(xl, yl) for xl in msimples for yl in msimples]
    for xl, yl in pairs:
        if (xl, yl) not in mfusion:
            fail(len(lines), f"missing mfusion block for {xl} {yl}")
    mN = np.stack([mfusion[pair] for pair in pairs]).reshape(m, m, m)
    try:
        data = ModuleTensorData(**fields, mN=mN)
        report = validate_tensor_data(data)
    except (ModuleError, FusionError) as exc:
        fail(first_line, str(exc))
    if not report.ok:
        fail(first_line, "; ".join(report.failures))
    return data


# -- builtins -------------------------------------------------------------------

BUILTIN_FILES = (
    "d4_su2_4",
    "e6_su2_10",
    "e8_su2_28",
    "d10_su2_16",
    "e7_su2_16",
    "a17_su2_16",
)

REGULAR_PATTERN = re.compile(r"a(\d+)_su2_(\d+)")


def data_dir() -> Path:
    override = os.environ.get("TRACECAT_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _package_path(name: str, base_dir=None) -> Path | None:
    """The package file `name` refers to, or None."""
    candidates = []
    if base_dir is not None:
        candidates.append(Path(base_dir) / f"{name}.pkg")
    candidates.append(data_dir() / f"{name}.pkg")
    return next((c for c in candidates if c.exists()), None)


def load_builtin(name: str, base_dir=None, *, _loading: frozenset = frozenset()):
    """The package file `name` in base_dir or the data directory, else the
    regular module a<k+1>_su2_<k>."""
    path = _package_path(name, base_dir)
    if path is not None:
        return load_package(path, _loading=_loading)
    m = REGULAR_PATTERN.fullmatch(name)
    if m and int(m.group(1)) == int(m.group(2)) + 1:
        return regular_module(verlinde_su2(int(m.group(2))), name=name)
    raise PackageError(f"no builtin or package file named {name!r}")
