"""Command-line interface.

Verbs, each with the only options it accepts (`a | b`: at most one of them):
    trace   -- trace tables, traces of objects and of tensor words
               --builtin | --package, --object | --word, --format
    end     -- internal End of a module object, or a catalog of them
               --builtin | --package, --object, --bound, --format, --identify
    fuse    -- products in the base ring or in a package's module ring
               --builtin | --package | --k, --word, --format
    dims    -- Frobenius-Perron dimensions
               --builtin | --package | --k
    verify  -- validation and identity suites (nonzero exit on failure)
               --builtin | --package, --k, --bound, --all, --suite
    derive  -- regenerate a module fusion tensor and diff against the data
               --builtin | --package, --unit, --out

Any other option, a second option of one group, `verify --k/--bound`
without `--suite tl` or `--all`, and `end --object --bound` without
`--identify` are usage errors; an empty option value is never ignored.

Object expressions are sums `term (+ term)*` with `term = [mult*]label`
(as in `1+2*9`); word expressions are products `factor (* factor)*`
where each factor is a label or a parenthesised object expression, so
`(1+9)*(1+9')` is the tensor square root of the usual example;
parentheses do not nest.  The environment variable TRACECAT_DATA
overrides the builtin package directory.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error, each error being one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import re
import sys

from .algebra import candidate_from_end, enumerate_internal_ends, semisimplicity_witness
from .fusion import (
    FusionRing,
    ObjectVec,
    fuse,
    su2_dimensions,
    validate_ring,
    verlinde_su2,
)
from .modules import (
    AmbiguousFusion,
    ModuleAction,
    ModuleTensorData,
    NoConsistentFusion,
    derive_module_fusion,
    validate_action,
    validate_tensor_data,
)
from .packages import (
    BUILTIN_FILES,
    data_dir,
    load_builtin,
    load_package,
    package_text,
)
from .tl import DEFAULT_STRAND_CAPS, identity_suite
from .trace import (
    check_adjunction,
    check_forgetful,
    check_splitting_iso,
    check_traciator_iso,
    decomposition,
    trace_object,
    trace_of_word,
    trace_table,
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- expression parsing ----------------------------------------------------------

_TOKEN = re.compile(r"\s*([0-9A-Za-z_']+|[()*+])\s*")


def _tokenize(expr: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise CliError(f"cannot tokenize expression at {expr[pos:]!r}", 2)
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_object(expr: str, labels: tuple[str, ...], space: str) -> ObjectVec:
    """`term (+ term)*` with `term = [mult*]label`."""
    return _object_from_tokens(_tokenize(expr), labels, space)


def _object_from_tokens(tokens: list[str], labels, space) -> ObjectVec:
    mult = [0] * len(labels)
    terms: list[list[str]] = [[]]
    for tok in tokens:
        if tok == "+":
            terms.append([])
        else:
            terms[-1].append(tok)
    for term in terms:
        if not term:
            raise CliError("empty term in object expression", 2)
        if len(term) == 1:
            count, label = 1, term[0]
        elif len(term) == 3 and term[1] == "*":
            try:
                count = int(term[0])
            except ValueError:
                raise CliError(f"multiplicity {term[0]!r} is not an integer", 2)
            label = term[2]
        else:
            raise CliError(f"cannot parse term {' '.join(term)!r}", 2)
        if label not in labels:
            raise CliError(f"unknown label {label!r}", 2)
        j = labels.index(label)
        mult[j] += count
        if mult[j] >= 2**63:
            raise CliError(f"multiplicity {mult[j]} of {label!r} does not fit in 64 bits", 2)
    return ObjectVec(space, tuple(mult))


def parse_word(expr: str, labels, space) -> list[ObjectVec]:
    """`factor (* factor)*`, a factor being a label or the tokens from `(`
    to the first `)`: parentheses do not nest."""
    tokens = iter(_tokenize(expr))
    factors: list[ObjectVec] = []
    for tok in tokens:
        factor = [tok]
        if tok == "(":
            factor = []
            while (tok := next(tokens, None)) not in ("(", ")", None):
                factor.append(tok)
            if tok != ")":
                raise CliError("unbalanced parentheses in word expression", 2)
        factors.append(_object_from_tokens(factor, labels, space))
        if (sep := next(tokens, None)) is None:
            return factors
        if sep != "*":
            raise CliError(f"expected '*' between factors, got {sep!r}", 2)
    raise CliError("word expression ends unexpectedly", 2)


# -- shared helpers ---------------------------------------------------------------


def _load(args) -> ModuleAction:
    if args.package is not None:
        return load_package(args.package)
    if args.builtin is not None:
        return load_builtin(args.builtin)
    raise CliError("select a category with --builtin <name> or --package <path>", 2)


# The text format repeats each label by its multiplicity; past this many
# summands only the machine format is printed.
_TEXT_SUMMANDS = 2**20


def _emit(mult, labels, fmt: str) -> str:
    """Multiplicities over labels in the text or tsv format."""
    if fmt != "tsv" and sum(mult) > _TEXT_SUMMANDS:
        raise CliError(f"{sum(mult)} summands are too many to print as text; use --format tsv", 2)
    return decomposition(mult, labels, "machine" if fmt == "tsv" else "text")


# -- verbs ------------------------------------------------------------------------


def cmd_trace(args) -> int:
    data = _load(args)
    if args.word is not None:
        if not isinstance(data, ModuleTensorData):
            raise CliError(f"{data.name} has no module fusion data for words", 2)
        result = trace_of_word(data, parse_word(args.word, data.msimples, data.space))
    elif args.object is not None:
        result = trace_object(data, parse_object(args.object, data.msimples, data.space))
    else:
        sys.stdout.write(trace_table(data, fmt=args.format))
        return 0
    print(_emit(result.mult, data.base.labels, args.format))
    return 0


def cmd_end(args) -> int:
    if args.identify is not None and args.object is None:
        raise CliError("--identify needs --object", 2)
    if args.object is not None and args.bound is not None and args.identify is None:
        raise CliError("--bound with --object needs --identify", 2)
    data = _load(args)
    if args.object is not None:
        obj = parse_object(args.object, data.msimples, data.space)
        candidate = candidate_from_end(data, obj, args.object)
        lines = [_emit(candidate.object.mult, data.base.labels, args.format)]
        if args.identify is not None:  # built before printing: an error leaves stdout empty
            # each name once, in first-seen order, every one loaded before
            # `semisimplicity_witness` checks the rings and enumerates; the
            # --builtin package is reused, not parsed again
            refs = [
                data if name == args.builtin else load_builtin(name)
                for name in dict.fromkeys(args.identify.split(","))
            ]
            lines.append(semisimplicity_witness(candidate, refs, args.bound or 3).line())
        print("\n".join(lines))
        return 0
    catalog = enumerate_internal_ends(data, args.bound or 1)
    sep = "\t" if args.format == "tsv" else " : "
    for x, end in zip(catalog.xs.tolist(), catalog.ends.tolist()):
        lhs = decomposition(x, data.msimples, "machine")
        print(f"{lhs}{sep}{_emit(end, data.base.labels, args.format)}")
    return 0


def _select_ring(args) -> FusionRing:
    if args.k is not None:
        return verlinde_su2(args.k)
    data = _load(args)
    if isinstance(data, ModuleTensorData):
        return data.module_ring()
    raise CliError("fuse needs --k or a module tensor package", 2)


def cmd_fuse(args) -> int:
    ring = _select_ring(args)
    if args.word is None:
        raise CliError("fuse needs --word <expr>", 2)
    factors = parse_word(args.word, ring.labels, ring.name)
    acc = factors[0]
    for factor in factors[1:]:
        acc = fuse(ring, acc, factor)
    print(_emit(acc.mult, ring.labels, args.format))
    return 0


def cmd_dims(args) -> int:
    if args.k is not None:
        dims = su2_dimensions(args.k)
        labels = [str(a) for a in range(1, len(dims) + 1)]
    else:
        data = _load(args)
        dims = data.module_dims()
        labels = data.msimples
    for label, value in zip(labels, dims):
        print(f"{label}\t{value:.12f}")
    return 0


def cmd_verify(args) -> int:
    if not (args.all or args.suite == "tl") and (args.k is not None or args.bound is not None):
        raise CliError("--k and --bound need --suite tl or --all", 2)
    failures = 0
    lines: list[str] = []

    def record(report) -> None:
        nonlocal failures
        lines.extend(report.lines())
        if not report.ok:
            failures += 1

    selected = args.builtin is not None or args.package is not None
    if selected or args.all or args.suite in (None, "packages"):
        every = map(load_builtin, [*BUILTIN_FILES, "a5_su2_4"])
        for data in [_load(args)] if selected else every:
            record(validate_ring(data.base))
            record(validate_action(data))
            if isinstance(data, ModuleTensorData):
                record(validate_tensor_data(data))
                record(check_splitting_iso(data))
                record(check_traciator_iso(data))
            if data.unit_module is not None:
                record(check_adjunction(data))
                record(check_forgetful(data))

    if args.all or args.suite == "tl":
        for k in [args.k] if args.k is not None else DEFAULT_STRAND_CAPS:
            lines.append(f"-- identity suite, level {k} --")
            record(identity_suite(k, strand_cap=args.bound))

    print("\n".join(lines))
    return 1 if failures else 0


def cmd_derive(args) -> int:
    data = _load(args)
    try:
        result = derive_module_fusion(data, unit_module=args.unit)
    except AmbiguousFusion as exc:
        print(f"error: {exc}")
        labels = data.msimples
        for idx, sol in enumerate(exc.solutions, start=1):
            print(f"-- solution {idx} --")
            for x, xl in enumerate(labels):
                for y, yl in enumerate(labels):
                    vec = data.object_vec(sol[x, y])
                    print(f"{xl} * {yl} = {decomposition(vec, labels, 'machine')}")
        return 1
    except NoConsistentFusion as exc:
        print(f"error: {exc}")
        return 1
    regenerated = package_text(result.data)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(regenerated)
        except OSError as exc:
            raise CliError(f"{args.out}: cannot write: {exc.strerror or exc}", 1) from None
        print(f"wrote {args.out}")
    symmetry = len(result.symmetries)
    print(
        f"derived module fusion for {data.name}: unique up to symmetry "
        f"(raw solutions: {result.n_solutions}, graph symmetries: {symmetry})"
    )
    if args.builtin is not None:
        committed = (data_dir() / f"{args.builtin}.pkg")
        if committed.exists():
            if committed.read_text(encoding="utf-8") == regenerated:
                print(f"regenerated package is byte-identical to {committed.name}")
            else:
                print(f"regenerated package DIFFERS from {committed.name}")
                return 1
    return 0


# The keywords of each option's `add_argument`, by option name.
OPTIONS = {
    "builtin": {"help": "shipped package name (e.g. d10_su2_16)"},
    "package": {"help": "path to a package file"},
    "object": {"help": "object expression, e.g. '1+2*9'"},
    "word": {"help": "word expression, e.g. \"(1+9)*(1+9')\""},
    "k": {"type": int, "help": "SU(2) level"},
    "bound": {"type": int, "help": "search/enumeration bound"},
    "format": {"choices": ("text", "tsv"), "default": "text"},
    "identify": {"help": "comma-separated builtin names whose catalogs identify the End"},
    "all": {"action": "store_true", "help": "run every suite"},
    "suite": {"choices": ("packages", "tl")},
    "unit": {"help": "unit module label override"},
    "out": {"help": "write the regenerated package here"},
}

# (verb, function, help, the options it reads); `a|b` allows at most one of a, b.
VERBS = (
    ("trace", cmd_trace, "trace tables and traces of words", "builtin|package object|word format"),
    (
        "end",
        cmd_end,
        "internal End objects and catalogs",
        "builtin|package object bound format identify",
    ),
    ("fuse", cmd_fuse, "fusion products", "builtin|package|k word format"),
    ("dims", cmd_dims, "Frobenius-Perron dimensions", "builtin|package|k"),
    (
        "verify",
        cmd_verify,
        "validation and identity suites",
        "builtin|package k bound all suite",
    ),
    ("derive", cmd_derive, "regenerate module fusion tensors", "builtin|package unit out"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tracecat",
        description="exact categorified traces over ADE module categories",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn, help_text, options in VERBS:
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(fn=fn)
        for group in options.split():
            names = group.split("|")
            target = p.add_mutually_exclusive_group() if len(names) > 1 else p
            for name in names:
                target.add_argument(f"--{name}", **OPTIONS[name])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "bound", None) is not None and args.bound < 1:
            raise CliError("bound must be at least 1", 2)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # PackageError, ModuleError and FusionError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
