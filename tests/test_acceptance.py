"""Acceptance criteria, one test per criterion.

Every check runs in exact integer or cyclotomic arithmetic with zero
tolerance; each test prints a single PASS line on success (run with
`pytest -v -s tests/test_acceptance.py` to see them).  Criteria touching
the trace tables and algebra identifications are frozen against the
published ADE values.
"""

import pytest

from tracecat.algebra import (
    candidate_from_trace_unit,
    candidate_from_word,
    enumerate_internal_ends,
    identify_algebra,
)
from tracecat.modules import derive_module_fusion
from tracecat.packages import (
    ade_action,
    data_dir,
    load_builtin,
    package_text,
)
from tracecat.tl import identity_suite
from tracecat.trace import (
    check_adjunction,
    check_splitting_iso,
    check_traciator_iso,
    trace_matrix,
    trace_object,
    trace_of_word,
)

TENSOR_PACKAGES = ["d4_su2_4", "e6_su2_10", "e8_su2_28", "d10_su2_16", "a5_su2_4"]
ALL_PACKAGES = TENSOR_PACKAGES + ["e7_su2_16", "a17_su2_16"]


def column_labels(data, j):
    tm = trace_matrix(data)
    out = []
    for i, lab in enumerate(data.base.labels):
        out.extend([lab] * int(tm[i][j]))
    return out


def object_labels(vec, labels):
    out = []
    for lab, mult in zip(labels, vec.mult):
        out.extend([lab] * mult)
    return out


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_1_d4_trace_table():
    data = load_builtin("d4_su2_4")
    table = [column_labels(data, j) for j in range(4)]
    assert table == [["1", "5"], ["2", "4"], ["3"], ["3"]]
    report(1, "D4/SU(2)_4 trace table matches (1+5, 2+4, 3, 3)")


def test_criterion_2_e6_trace_table():
    data = load_builtin("e6_su2_10")
    table = [column_labels(data, j) for j in range(6)]
    assert table == [
        ["1", "7"],
        ["2", "6", "8"],
        ["3", "5", "7", "9"],
        ["4", "8"],
        ["4", "6", "10"],
        ["5", "11"],
    ]
    report(2, "E6/SU(2)_10 trace table matches all six columns")


def test_criterion_3_e8_trace_table():
    data = load_builtin("e8_su2_28")
    table = [column_labels(data, j) for j in range(8)]
    assert table == [
        ["1", "11", "19", "29"],
        ["2", "10", "12", "18", "20", "28"],
        ["3", "9", "11", "13", "17", "19", "21", "27"],
        ["4", "8", "10", "12", "14", "16", "18", "20", "22", "26"],
        ["5", "7", "9", "11", "13", "15", "15", "17", "19", "21", "23", "25"],
        ["6", "10", "14", "16", "20", "24"],
        ["6", "8", "12", "14", "16", "18", "22", "24"],
        ["7", "13", "17", "23"],
    ]
    assert table[4].count("15") == 2
    report(3, "E8/SU(2)_28 trace table matches, incl. multiplicity-2 at 15")


def test_criterion_4_unit_traces_are_the_algebras():
    expected = {
        "d4_su2_4": ["1", "5"],
        "e6_su2_10": ["1", "7"],
        "e8_su2_28": ["1", "11", "19", "29"],
    }
    for name, labels in expected.items():
        data = load_builtin(name)
        tr = trace_object(data, data.basis(data.unit_module))
        assert object_labels(tr, data.base.labels) == labels
        assert candidate_from_trace_unit(data).connected
    report(4, "Tr(1) recovers the defining algebra (connected) for D4/E6/E8")


def test_criterion_5_su2_16_example_traces():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    labels = d10.base.labels
    assert object_labels(trace_of_word(d10, [A]), labels) == ["1", "9", "17"]
    assert object_labels(trace_of_word(d10, [A, A]), labels) == [
        "1", "1", "5", "9", "9", "9", "13", "17", "17",
    ]
    assert object_labels(trace_of_word(d10, [A, B]), labels) == [
        "1", "3", "7", "9", "9", "11", "15", "17",
    ]
    report(5, "Tr(A), Tr(A A), Tr(A B) over SU(2)_16 match exactly")


def test_criterion_6_identifications():
    catalogs = [
        enumerate_internal_ends(load_builtin(n), 3)
        for n in ("a17_su2_16", "d10_su2_16", "e7_su2_16")
    ]
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    cases = [
        ([A], "e7_su2_16", (1, 0, 0, 0, 0, 0, 0), "E7"),
        ([A, A], "d10_su2_16", (1, 0, 0, 0, 0, 0, 0, 0, 1, 0), "D10"),
        ([A, B], "e7_su2_16", (0, 1, 0, 0, 0, 0, 0), "E7"),
    ]
    for word, package, xmult, morita in cases:
        candidate = candidate_from_word(d10, word, "w")
        matches = identify_algebra(candidate, catalogs)
        assert len(matches) == 1, (word, matches)
        assert matches[0].package == package
        assert matches[0].x.mult == xmult
        assert matches[0].morita_label == morita
    report(6, "unique identifications: E7 vertex 1, D10 object 1+9, E7 vertex 2")


def test_criterion_7_adjunction_everywhere():
    count = 0
    for name in ALL_PACKAGES:
        data = load_builtin(name)
        if data.unit_module is None:
            continue  # module-only packages carry no adjoint
        assert check_adjunction(data).ok, name
        count += 1
    assert count == len(TENSOR_PACKAGES)
    report(7, f"adjunction dims agree exhaustively on {count} packages")


def test_criterion_8_splitting_and_rotation():
    for name in TENSOR_PACKAGES:
        data = load_builtin(name)
        assert check_splitting_iso(data).ok, name
        assert check_traciator_iso(data).ok, name
    report(8, "splitting and trace-rotation isomorphisms hold in K-theory")


@pytest.mark.parametrize("k", [2, 4, 10, 16])
def test_criterion_9_identity_suite(k):
    suite = identity_suite(k, exact=True)
    failed = [c.name for c in suite.checks if not c.passed]
    assert not failed, failed
    report(9, f"exact TL identity suite passes at level {k}")


def test_criterion_10_d10_regeneration():
    action = ade_action("d10", 16, unit="1")
    result = derive_module_fusion(action)
    assert result.n_solutions == 1
    swap = [p for p in result.symmetries if p != tuple(range(10))]
    assert len(swap) == 1 and swap[0][8] == 9 and swap[0][9] == 8
    committed = (data_dir() / "d10_su2_16.pkg").read_text(encoding="utf-8")
    assert package_text(result.data) == committed
    report(10, "D10 fusion regenerates byte-identically, unique up to 9<->9'")
