"""The benchmark's independent answers reproduce the acceptance goldens 1-6
and the committed package bytes, without importing tracecat."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference as ref

DATA = Path(__file__).resolve().parents[2] / "src" / "tracecat" / "data"


def columns(name):
    pkg = ref.load(name, DATA)
    T = ref.trace_matrix(pkg)
    return [ref.text(T[:, j], pkg.base_labels).split(" ⊕ ") for j in range(pkg.rank)]


def labels_of(vec, labels):
    return [lab for lab, mult in zip(labels, vec) for _ in range(int(mult))]


def test_golden_1_to_3_trace_tables():
    assert columns("d4_su2_4") == [["1", "5"], ["2", "4"], ["3"], ["3"]]
    assert columns("e6_su2_10") == [
        ["1", "7"], ["2", "6", "8"], ["3", "5", "7", "9"],
        ["4", "8"], ["4", "6", "10"], ["5", "11"],
    ]
    assert columns("e8_su2_28") == [
        ["1", "11", "19", "29"],
        ["2", "10", "12", "18", "20", "28"],
        ["3", "9", "11", "13", "17", "19", "21", "27"],
        ["4", "8", "10", "12", "14", "16", "18", "20", "22", "26"],
        ["5", "7", "9", "11", "13", "15", "15", "17", "19", "21", "23", "25"],
        ["6", "10", "14", "16", "20", "24"],
        ["6", "8", "12", "14", "16", "18", "22", "24"],
        ["7", "13", "17", "23"],
    ]
    assert ref.trace_table(ref.load("d4_su2_4", DATA), "text") == (
        "1  : 1 ⊕ 5\n2  : 2 ⊕ 4\n3  : 3\n3' : 3\n"
    )


def test_golden_4_unit_traces():
    expected = {
        "d4_su2_4": ["1", "5"],
        "e6_su2_10": ["1", "7"],
        "e8_su2_28": ["1", "11", "19", "29"],
    }
    for name, labels in expected.items():
        pkg = ref.load(name, DATA)
        assert labels_of(ref.trace_matrix(pkg)[:, pkg.unit], pkg.base_labels) == labels


def d10_words():
    d10 = ref.load("d10_su2_16", DATA)
    eye = np.eye(10, dtype=np.int64)
    one, nine, nine_p = (eye[d10.msimples.index(x)] for x in ("1", "9", "9'"))
    return d10, one + nine, one + nine_p


def test_golden_5_su2_16_words():
    d10, A, B = d10_words()
    T, labels = ref.trace_matrix(d10), d10.base_labels
    assert labels_of(T @ ref.fold(d10.mN, [A]), labels) == ["1", "9", "17"]
    assert labels_of(T @ ref.fold(d10.mN, [A, A]), labels) == [
        "1", "1", "5", "9", "9", "9", "13", "17", "17",
    ]
    assert labels_of(T @ ref.fold(d10.mN, [A, B]), labels) == [
        "1", "3", "7", "9", "9", "11", "15", "17",
    ]


def test_golden_6_identifications():
    catalogs = [
        (ref.load(n, DATA), ref.catalog(ref.load(n, DATA), 3))
        for n in ("a17_su2_16", "d10_su2_16", "e7_su2_16")
    ]
    d10, A, B = d10_words()
    T = ref.trace_matrix(d10)
    cases = [
        ([A], "e7_su2_16", (1, 0, 0, 0, 0, 0, 0)),
        ([A, A], "d10_su2_16", (1, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
        ([A, B], "e7_su2_16", (0, 1, 0, 0, 0, 0, 0)),
    ]
    for word, package, x in cases:
        matches = ref.identify(T @ ref.fold(d10.mN, word), catalogs)
        assert [(name, tuple(int(v) for v in vec)) for name, vec in matches] == [(package, x)]


@pytest.mark.parametrize("name", ref.BUILTIN_PACKAGES)
def test_committed_packages_round_trip(name):
    text = (DATA / f"{name}.pkg").read_text(encoding="utf-8")
    pkg = ref.parse_package(text)
    assert ref.package_text(pkg) == text
    labels, adj = ref.dynkin(name.split("_")[0])
    assert pkg.msimples == labels
    assert np.array_equal(pkg.mats, ref.chebyshev(adj, pkg.level))
    if pkg.mN is not None:
        assert ref.fusion_problems(pkg) == []


def test_d10_bytes_from_independent_pieces():
    """The D10 action comes from the Dynkin graph, Tr(1) = 1 + 17, and the
    reference writer reproduces the committed file byte for byte."""
    committed = (DATA / "d10_su2_16.pkg").read_bytes()
    pkg = ref.parse_package(committed.decode("utf-8"))
    labels, adj = ref.dynkin("d10")
    rebuilt = ref.Package("d10_su2_16", 16, labels, 0, ref.chebyshev(adj, 16), pkg.mN)
    assert ref.package_text(rebuilt).encode("utf-8") == committed
    assert labels_of(ref.trace_matrix(rebuilt)[:, 0], rebuilt.base_labels) == ["1", "17"]
    assert ref.automorphisms(rebuilt) == [tuple(range(10)), ref.fork_swap(10)]


@pytest.mark.parametrize("k", [1, 10, 34, 60])
def test_su2_reference_is_a_fusion_ring_with_quantum_dims(k):
    N = ref.su2_fusion(k)
    assert np.array_equal(np.einsum("abm,mcd->abcd", N, N), np.einsum("bcm,amd->abcd", N, N))
    d = np.array(ref.su2_dims(k))
    assert np.max(np.abs(np.einsum("abc,c->ab", N, d) - np.outer(d, d))) < 1e-9 * d.max() ** 2
    assert ref.perron_dims(ref.regular_package(k)) == pytest.approx(d, abs=1e-9)


def test_reference_never_imports_tracecat():
    code = (
        "import sys, perfbench.reference, perfbench.workloads;"
        "sys.exit(any(m.split('.')[0] == 'tracecat' for m in sys.modules))"
    )
    root = Path(__file__).resolve().parents[2]
    assert subprocess.run([sys.executable, "-c", code], cwd=root).returncode == 0
