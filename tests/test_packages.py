import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecat.modules import ModuleAction, ModuleTensorData, derive_module_fusion, regular_module
from tracecat.packages import (
    BUILTIN_FILES,
    PackageError,
    ade_action,
    data_dir,
    dynkin_graph,
    load_builtin,
    load_package,
    package_text,
    parse_package,
    save_package,
)


@pytest.mark.parametrize("name", BUILTIN_FILES)
def test_committed_packages_round_trip(name):
    path = data_dir() / f"{name}.pkg"
    data = load_package(path)
    assert package_text(data) == path.read_text(encoding="utf-8")


def test_builtin_kinds():
    assert isinstance(load_builtin("d10_su2_16"), ModuleTensorData)
    # spec: the E7 package carries no unit and loads as a plain action
    e7 = load_builtin("e7_su2_16")
    assert isinstance(e7, ModuleAction) and not isinstance(e7, ModuleTensorData)
    assert e7.unit_module is None
    a17 = load_builtin("a17_su2_16")
    assert type(a17) is ModuleAction


def test_generated_regular_builtins():
    a5 = load_builtin("a5_su2_4")
    assert isinstance(a5, ModuleTensorData)
    assert a5.msimples == ("1", "2", "3", "4", "5")
    with pytest.raises(PackageError):
        load_builtin("a6_su2_4")  # rank does not match the level
    with pytest.raises(PackageError):
        load_builtin("nonsense")


def test_save_load_round_trip(tmp_path):
    result = derive_module_fusion(ade_action("d4", 4, unit="1"))
    path = tmp_path / "d4.pkg"
    save_package(result.data, path)
    again = load_package(path)
    assert again == result.data


def test_action_only_round_trip(tmp_path):
    action = ade_action("e7", 16, unit=None)
    path = tmp_path / "e7.pkg"
    save_package(action, path)
    again = load_package(path)
    assert type(again) is ModuleAction
    assert np.array_equal(again.mats, action.mats)


def test_negative_entry_rejected_with_line_number(tmp_path):
    path = data_dir() / "d4_su2_4.pkg"
    lines = path.read_text().splitlines()
    # first matrix row of the first action block
    row_index = next(
        i for i, line in enumerate(lines) if line.startswith("action")
    ) + 1
    fields = lines[row_index].split()
    fields[0] = "-1"
    lines[row_index] = " ".join(fields)
    bad = tmp_path / "bad.pkg"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(PackageError, match=rf"line {row_index + 1}: negative"):
        load_package(bad)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PackageError, match="line 1"):
        parse_package("base su2 not-a-number\n")
    with pytest.raises(PackageError, match="line 2"):
        parse_package("package p\naction 1\n")
    with pytest.raises(PackageError, match="unknown directive"):
        parse_package("package p\nbase su2 2\nmsimples 1 2 3\nwhatever\n")


def test_invariant_violation_rejected(tmp_path):
    # doctor the d4 package so module associativity fails
    path = data_dir() / "d4_su2_4.pkg"
    text = path.read_text()
    lines = text.splitlines()
    start = lines.index("action 3") + 1
    fields = lines[start].split()
    fields[0] = "7"
    lines[start] = " ".join(fields)
    bad = tmp_path / "assoc.pkg"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(PackageError, match="associativity|compatibility"):
        load_package(bad)


def test_comments_and_whitespace_tolerated(tmp_path):
    path = data_dir() / "d4_su2_4.pkg"
    text = "# a comment\n\n" + path.read_text().replace(
        "action 2", "action 2   # tensoring by the generator"
    )
    doctored = tmp_path / "doc.pkg"
    doctored.write_text(text)
    assert load_package(doctored) == load_package(path)


def test_partial_mfusion_rejected(tmp_path):
    path = data_dir() / "d4_su2_4.pkg"
    lines = path.read_text().splitlines()
    cut = next(i for i, l in enumerate(lines) if l.startswith("mfusion 3"))
    bad = tmp_path / "partial.pkg"
    bad.write_text("\n".join(lines[:cut]) + "\n")
    with pytest.raises(PackageError, match="missing mfusion"):
        load_package(bad)


FIB_REGULAR = """\
package fib_reg
base file t2_su2_3
msimples u t
unit u
action 1
1 0
0 1
action 2
0 1
1 1
mfusion u u
1 0
mfusion u t
0 1
mfusion t u
0 1
mfusion t t
1 1
"""


def load_fib_regular(tmp_path):
    """The regular module of the golden-ratio ring, a `base file` package
    whose base is the module ring of the level-3 tadpole package."""
    t2 = derive_module_fusion(ade_action("t2", 3, unit="1")).data
    save_package(t2, tmp_path / "t2_su2_3.pkg")
    p = tmp_path / "fib_reg.pkg"
    p.write_text(FIB_REGULAR)
    return load_package(p)


def test_base_file_reference(tmp_path):
    data = load_fib_regular(tmp_path)
    assert isinstance(data, ModuleTensorData)
    assert data.base.labels == ("1", "2")
    assert data.base.N[1, 1, 1] == 1  # the golden-ratio relation survives


def test_regular_module_over_a_package_ring_round_trips(tmp_path):
    t2 = derive_module_fusion(ade_action("t2", 3, unit="1")).data
    save_package(t2, tmp_path / "t2_su2_3.pkg")
    regular = regular_module(t2.module_ring())
    path = tmp_path / "regular.pkg"
    save_package(regular, path)
    assert "\nbase file t2_su2_3\n" in path.read_text(encoding="utf-8")
    again = load_package(path)
    assert isinstance(again, ModuleTensorData)
    assert again == regular


def test_data_dir_override(tmp_path, monkeypatch):
    save_package(ade_action("d4", 4, unit="1"), tmp_path / "custom.pkg")
    monkeypatch.setenv("TRACECAT_DATA", str(tmp_path))
    action = load_builtin("custom")
    assert type(action) is ModuleAction  # a unit but no mfusion blocks
    with pytest.raises(PackageError):
        load_builtin("d10_su2_16")  # not present in the override directory


def test_dynkin_graph_errors():
    with pytest.raises(PackageError):
        dynkin_graph("f4")
    with pytest.raises(PackageError):
        dynkin_graph("d3")
    labels, adjacency = dynkin_graph("e8")
    assert len(labels) == 8
    assert adjacency.sum() == 14  # seven edges


D4_LINES = (data_dir() / "d4_su2_4.pkg").read_text().splitlines()
BIG = 2**63


def replace_line(index: int, line: str) -> str:
    lines = list(D4_LINES)
    lines[index] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text,lineno,match",
    [
        (replace_line(D4_LINES.index("action 1") + 1, f"{BIG} 0 0 0"),
         D4_LINES.index("action 1") + 2, "64 bits"),
        ("package p\nbase su2 101\n", 2, "exceeds the maximum level"),
        ("package p\nbase su2 -1\n", 2, "nonnegative"),
        ("package p\nbase file a102_su2_101\n", 2, "exceeds the maximum level"),
    ],
    ids=["overflow", "level-101", "level-minus-1", "regular-level-101"],
)
def test_shown_errors_name_their_line(text, lineno, match):
    with pytest.raises(PackageError, match=rf"line {lineno}: .*{match}"):
        parse_package(text, base_dir=".")


def test_duplicate_duals_are_a_package_error():
    text = "\n".join(
        ["package p", "base su2 1", "msimples a b", "unit a"]
        + ["action 1", "1 0", "0 1", "action 2", "0 1", "1 0"]
        + ["mfusion a a", "1 0", "mfusion a b", "0 1", "mfusion b a", "1 0"]
        + ["mfusion b b", "0 1"]
    )
    with pytest.raises(PackageError, match="line 1: dual is not a permutation"):
        parse_package(text)


@pytest.mark.parametrize(
    "line",
    ["package other", "base su2 4", "msimples 1 2 3 3'", "unit 1", "base file nowhere"],
)
def test_repeated_header_line_is_a_package_error(line):
    # a second header line fails before it is acted on: `base file nowhere` is never loaded
    index = D4_LINES.index("action 1")
    lines = D4_LINES[:index] + [line] + D4_LINES[index:]
    key = line.split()[0]
    with pytest.raises(PackageError, match=rf"line {index + 1}: duplicate {key} line$"):
        parse_package("\n".join(lines) + "\n", base_dir=".")


def d4_edit(line: str, *replacements: str) -> str:
    """d4_su2_4.pkg's text with `line` replaced by the given lines (none
    deletes it)."""
    index = D4_LINES.index(line)
    return "\n".join(D4_LINES[:index] + list(replacements) + D4_LINES[index + 1 :]) + "\n"


ACTION_5 = D4_LINES.index("action 5")
TENSOR_FAILURES = (
    "associativity fails at (2,2,3) -> 1; duality compatibility fails at N[2][2][3]; "
    "free-module compatibility fails: Phi(2) (x) 2; "
    "free-module map is not a ring homomorphism at (2, 2)"
)


@pytest.mark.parametrize(
    "text,base_dir,lineno,message",
    [
        (d4_edit("package d4_su2_4", "package"), ".", 1, "usage: package <name>"),
        (d4_edit("base su2 4", "base su2"), ".", 2, "usage: base su2 <k> | base file <ring-name>"),
        (d4_edit("unit 1", "unit"), ".", 4, "usage: unit <label>"),
        (d4_edit("action 1", "action 1 2"), ".", 5, "usage: action <base-label>"),
        (d4_edit("mfusion 1 1", "mfusion 1"), ".", 30, "usage: mfusion <x-label> <y-label>"),
        (d4_edit("base su2 4", "base file a5_su2_4"), None, 2,
         "base file references need a base directory"),
        (d4_edit("base su2 4", "base file e7_su2_16"), ".", 2,
         "base ring 'e7_su2_16' is not a module tensor package"),
        (d4_edit("msimples 1 2 3 3'", "msimples 1 2 3 3"), ".", 3,
         "module simple labels must be nonempty and distinct"),
        (d4_edit("action 1", "action 7"), ".", 5, "unknown base label '7'"),
        (d4_edit("mfusion 1 1", "mfusion 1 9"), ".", 30, "unknown module label '9'"),
        (d4_edit("action 2", "action 1"), ".", 10, "duplicate action block for '1'"),
        (d4_edit("mfusion 1 2", "mfusion 1 1"), ".", 32, "duplicate mfusion block for 1 1"),
        ("\n".join([D4_LINES[0]] + D4_LINES[2:4]) + "\n", ".", 1, "missing base declaration"),
        ("\n".join(D4_LINES[:2]) + "\n", ".", 1, "missing msimples declaration"),
        ("\n".join(D4_LINES[:ACTION_5] + D4_LINES[ACTION_5 + 5 :]) + "\n", ".", 56,
         "missing action block for base label '5'"),
        (d4_edit("unit 1", "unit 9"), ".", 1, "unit label '9' is not a module simple"),
        (replace_line(D4_LINES.index("mfusion 2 2") + 1, "1 0 1 0"), ".", 1, TENSOR_FAILURES),
    ],
    ids=[
        "usage-package", "usage-base", "usage-unit", "usage-action", "usage-mfusion",
        "base-file-without-directory", "base-file-action-only", "msimples-repeated",
        "unknown-base-label", "unknown-module-label", "duplicate-action", "duplicate-mfusion",
        "missing-base", "missing-msimples", "missing-action", "unit-not-a-simple",
        "tensor-data-invalid",
    ],
)
def test_each_package_refusal_names_its_line(text, base_dir, lineno, message):
    with pytest.raises(PackageError) as excinfo:
        parse_package(text, base_dir=base_dir)
    assert str(excinfo.value) == f"<string>: line {lineno}: {message}"


def test_msimples_after_an_action_block_is_a_package_error():
    text = "package p\nbase su2 0\nmsimples a\naction 1\n1\nmsimples a b\n"
    with pytest.raises(PackageError, match="line 6: duplicate msimples line"):
        parse_package(text)


@pytest.mark.parametrize("length", [1, 2])
def test_base_file_cycle_is_a_package_error(tmp_path, length):
    names = [f"loop{i}" for i in range(length)]
    for i, name in enumerate(names):
        target = names[(i + 1) % length]
        (tmp_path / f"{name}.pkg").write_text(f"package {name}\nbase file {target}\n")
    with pytest.raises(PackageError, match=r"line 2: base file 'loop0' is still loading"):
        load_package(tmp_path / "loop0.pkg")


TOKENS = st.sampled_from(
    ["package", "base", "su2", "file", "msimples", "unit", "action", "mfusion",
     "1", "2", "3", "3'", "4", "5", "#", "-1", "x"]
)
NUMBERS = st.one_of(
    st.integers(-3, 5), st.integers(BIG - 2, BIG + 2), st.integers(-(2**70), 2**70)
)
LINES = st.one_of(
    st.lists(st.one_of(TOKENS, NUMBERS.map(str)), max_size=6).map(" ".join),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, len(D4_LINES)), st.sampled_from(["set", "insert", "delete"]), LINES),
        max_size=4,
    )
)
def test_fuzz_only_package_errors_leave_parse_package(edits):
    lines = list(D4_LINES)
    for index, op, line in edits:
        index = min(index, len(lines))
        if op == "insert":
            lines.insert(index, line)
        elif index < len(lines):
            if op == "set":
                lines[index] = line
            else:
                del lines[index]
    try:
        parse_package("\n".join(lines) + "\n")
    except PackageError:
        pass


def _unreadable(tmp_path, kind):
    """A package path that cannot be read as text: missing, a directory, or
    a file of bytes that are not UTF-8."""
    if kind == "missing":
        return tmp_path / "missing.pkg", "cannot read: No such file or directory"
    if kind == "directory":
        return tmp_path, "cannot read: Is a directory"
    path = tmp_path / "latin1.pkg"
    path.write_bytes("package caf\xe9\n".encode("latin-1"))
    return path, "not UTF-8 text at byte 11"


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_package_file_is_a_package_error(tmp_path, kind):
    path, match = _unreadable(tmp_path, kind)
    with pytest.raises(PackageError, match=match):
        load_package(path)


def test_unreadable_base_file_is_a_package_error(tmp_path):
    (tmp_path / "ring.pkg").write_bytes(b"\xff\xfe")
    (tmp_path / "top.pkg").write_text("package p\nbase file ring\n")
    with pytest.raises(PackageError, match="ring.pkg: not UTF-8 text at byte 0"):
        load_package(tmp_path / "top.pkg")
