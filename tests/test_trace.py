import dataclasses
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fusion import perturb
from test_packages import load_fib_regular

from tracecat import trace
from tracecat.fusion import FusionError, ObjectVec, fuse, verlinde_su2
from tracecat.modules import (
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    derive_module_fusion,
    regular_module,
)
from tracecat.packages import BUILTIN_FILES, ade_action, load_builtin
from tracecat.trace import (
    check_adjunction,
    check_forgetful,
    check_splitting_iso,
    check_traciator_iso,
    decomposition,
    internal_end,
    trace_matrix,
    trace_object,
    trace_of_word,
    trace_table,
)

D4_TABLE = [["1", "5"], ["2", "4"], ["3"], ["3"]]
E6_TABLE = [
    ["1", "7"],
    ["2", "6", "8"],
    ["3", "5", "7", "9"],
    ["4", "8"],
    ["4", "6", "10"],
    ["5", "11"],
]
E8_TABLE = [
    ["1", "11", "19", "29"],
    ["2", "10", "12", "18", "20", "28"],
    ["3", "9", "11", "13", "17", "19", "21", "27"],
    ["4", "8", "10", "12", "14", "16", "18", "20", "22", "26"],
    ["5", "7", "9", "11", "13", "15", "15", "17", "19", "21", "23", "25"],
    ["6", "10", "14", "16", "20", "24"],
    ["6", "8", "12", "14", "16", "18", "22", "24"],
    ["7", "13", "17", "23"],
]


def column_labels(data, j):
    tm = trace_matrix(data)
    out = []
    for i, lab in enumerate(data.base.labels):
        out.extend([lab] * int(tm[i][j]))
    return out


def object_labels(vec: ObjectVec, labels) -> list[str]:
    out = []
    for lab, mult in zip(labels, vec.mult):
        out.extend([lab] * mult)
    return out


@pytest.mark.parametrize(
    "name,table",
    [("d4_su2_4", D4_TABLE), ("e6_su2_10", E6_TABLE), ("e8_su2_28", E8_TABLE)],
)
def test_ade_trace_tables(name, table):
    data = load_builtin(name)
    got = [column_labels(data, j) for j in range(len(data.msimples))]
    assert got == table


def test_trace_of_unit_is_the_defining_algebra():
    for name, expected in [
        ("d4_su2_4", ["1", "5"]),
        ("e6_su2_10", ["1", "7"]),
        ("e8_su2_28", ["1", "11", "19", "29"]),
    ]:
        data = load_builtin(name)
        tr = trace_object(data, data.basis(data.unit_module))
        assert object_labels(tr, data.base.labels) == expected


def test_trace_object_zero_and_additive():
    d4 = load_builtin("d4_su2_4")
    zero = d4.object_vec([0, 0, 0, 0])
    assert trace_object(d4, zero).is_zero()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
)
def test_trace_additivity(xs, ys):
    d4 = load_builtin("d4_su2_4")
    x, y = d4.object_vec(xs), d4.object_vec(ys)
    assert trace_object(d4, x + y) == trace_object(d4, x) + trace_object(d4, y)


def test_trace_label_mismatch():
    d4 = load_builtin("d4_su2_4")
    with pytest.raises(FusionError):
        trace_object(d4, ObjectVec("other", (1, 0, 0, 0)))


def test_trace_of_word_golden():
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


def test_trace_of_word_fold_order_immaterial():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("2") + d10.basis("9")
    B = d10.basis("3")
    C = d10.basis("9'") + d10.basis("5")
    left = trace_object(d10, d10.mfuse(d10.mfuse(A, B), C))
    right = trace_object(d10, d10.mfuse(A, d10.mfuse(B, C)))
    assert left == right == trace_of_word(d10, [A, B, C])


def test_trace_of_singleton_word_is_trace_object():
    d4 = load_builtin("d4_su2_4")
    unit = d4.basis(d4.unit_module)
    assert trace_of_word(d4, [unit]) == trace_object(d4, unit)
    assert trace_of_word(d4, []) == trace_object(d4, unit)


def test_internal_end_examples():
    e7 = load_builtin("e7_su2_16")
    tail = e7.basis("1")
    second = e7.basis("2")
    labels = e7.base.labels
    assert object_labels(internal_end(e7, tail), labels) == ["1", "9", "17"]
    assert object_labels(internal_end(e7, second), labels) == [
        "1", "3", "7", "9", "9", "11", "15", "17",
    ]
    # End(1) = 1 in a regular module
    a5 = load_builtin("a5_su2_4")
    unit = a5.basis(a5.unit_module)
    assert internal_end(a5, unit).mult == (1, 0, 0, 0, 0)
    with pytest.raises(ModuleError):
        internal_end(e7, e7.object_vec([0] * 7))


@pytest.mark.parametrize(
    "name", ["d4_su2_4", "e6_su2_10", "e8_su2_28", "d10_su2_16", "a5_su2_4"]
)
def test_checks_pass_on_shipped_packages(name):
    data = load_builtin(name)
    assert check_adjunction(data).ok
    assert check_splitting_iso(data).ok
    assert check_traciator_iso(data).ok
    assert check_forgetful(data).ok


def test_check_adjunction_takes_each_trace_column_once(monkeypatch):
    from tracecat import trace

    data = load_builtin("d10_su2_16")
    calls = []
    original = trace.trace_matrix
    monkeypatch.setattr(trace, "trace_matrix", lambda d: calls.append(1) or original(d))
    assert check_adjunction(data).ok
    assert len(calls) == 1


def test_trace_matrix_is_a_read_only_int64_view_of_the_unit_column():
    data = load_builtin("d10_su2_16")
    T = trace_matrix(data)
    assert isinstance(T, np.ndarray) and T.dtype == np.int64
    assert not T.flags.writeable and np.shares_memory(T, data.mats)
    assert np.array_equal(T, data.mats[:, :, data.unit_module])


def test_regular_trace_matrix_is_identity():
    a5 = load_builtin("a5_su2_4")
    assert np.array_equal(trace_matrix(a5), np.eye(5, dtype=np.int64))


def test_trace_commutes_with_duality():
    # every SU(2)_k simple is self-dual, so this is an involution check
    d10 = load_builtin("d10_su2_16")
    mdual = d10.mdual
    for j in range(10):
        tr = trace_object(d10, d10.basis(j))
        tr_dual = trace_object(d10, d10.basis(mdual[j]))
        dualised = ObjectVec(tr.space, tuple(tr.mult[i] for i in d10.base.dual))
        assert tr_dual == dualised


def test_corrupted_action_detected():
    d4 = load_builtin("d4_su2_4")
    mats = np.array(d4.mats)
    mats[4][0][0] += 1
    bad = ModuleAction(
        name="bad",
        base=d4.base,
        base_spec="su2 4",
        msimples=d4.msimples,
        mats=mats,
        unit_module=0,
    )
    assert not check_forgetful(bad).ok


def test_adjunction_needs_unit():
    e7 = load_builtin("e7_su2_16")
    with pytest.raises(ModuleError, match="unit"):
        trace_matrix(e7)


def test_table_formats():
    d4 = load_builtin("d4_su2_4")
    text = trace_table(d4)
    assert text == "1  : 1 ⊕ 5\n2  : 2 ⊕ 4\n3  : 3\n3' : 3\n"
    tsv = trace_table(d4, fmt="tsv")
    assert tsv == "1\t1^1 + 5^1\n2\t2^1 + 4^1\n3\t3^1\n3'\t3^1\n"
    for fmt in ("machine", "json"):
        with pytest.raises(ValueError):
            trace_table(d4, fmt=fmt)


def test_decomposition_styles():
    vec = ObjectVec("su2_28", tuple(1 if i in (4, 14) else 2 if i == 6 else 0 for i in range(29)))
    labels = load_builtin("e8_su2_28").base.labels
    assert decomposition(vec, labels, "text") == "5 ⊕ 7 ⊕ 7 ⊕ 15"
    assert decomposition(vec, labels, "machine") == "5^1 + 7^2 + 15^1"
    zero = ObjectVec("su2_28", (0,) * 29)
    assert decomposition(zero, labels, "text") == "0"


def test_bumped_trace_matrix_detected():
    # a trace matrix with one entry bumped no longer matches the adjunction data
    d4 = load_builtin("d4_su2_4")
    good = trace_matrix(d4)
    bumped = np.array(good)
    bumped[0, 1] += 1
    phi = d4.mats[:, :, d4.unit_module]  # the free-module map, read off the action
    assert np.array_equal(good, phi)
    assert not np.array_equal(bumped, phi)
    witness = np.argwhere(bumped != phi)
    assert witness.tolist() == [[0, 1]]


@pytest.mark.parametrize("check", [check_splitting_iso, check_traciator_iso])
def test_trace_checks_take_the_trace_matrix_once(monkeypatch, check):
    from tracecat import trace

    data = load_builtin("d10_su2_16")
    calls = []
    original = trace.trace_matrix
    monkeypatch.setattr(trace, "trace_matrix", lambda d: calls.append(1) or original(d))
    assert check(data).ok
    assert len(calls) == 1


def loop_traciator_failures(data: ModuleTensorData) -> list[str]:
    """The failures of check_traciator_iso, one mfuse call per product."""
    failures: list[str] = []
    m = data.rank
    for j in range(m):
        x = data.basis(j)
        for l in range(m):
            y = data.basis(l)
            if trace_object(data, data.mfuse(x, y)) != trace_object(data, data.mfuse(y, x)):
                failures.append(
                    f"trace symmetry fails at ({data.msimples[j]}, "
                    f"{data.msimples[l]})"
                )
    for j in range(m):
        for l in range(m):
            for s in range(m):
                x, y, z = data.basis(j), data.basis(l), data.basis(s)
                lhs = trace_object(data, data.mfuse(x, data.mfuse(y, z)))
                rhs = trace_object(data, data.mfuse(data.mfuse(z, x), y))
                if lhs != rhs:
                    failures.append(
                        "rotated three-factor trace fails at "
                        f"({data.msimples[j]}, {data.msimples[l]}, "
                        f"{data.msimples[s]})"
                    )
    return failures


TENSOR_BUILTINS = [
    name
    for name in BUILTIN_FILES + ("a5_su2_4",)
    if isinstance(load_builtin(name), ModuleTensorData)
]


@pytest.mark.parametrize("name", TENSOR_BUILTINS)
def test_traciator_iso_matches_loop_reference_on_builtins(name):
    data = load_builtin(name)
    assert check_traciator_iso(data).failures == loop_traciator_failures(data) == []


@pytest.mark.parametrize("seed", range(6))
def test_traciator_iso_matches_loop_reference_on_perturbations(seed):
    rng = np.random.default_rng(seed)
    data = load_builtin(TENSOR_BUILTINS[seed % len(TENSOR_BUILTINS)])
    # |.| keeps every multiplicity nonnegative, as mfuse requires
    mN = np.abs(perturb(data.mN, rng, 1 + seed % 3))
    bad = dataclasses.replace(data, mN=mN)
    failures = check_traciator_iso(bad).failures
    assert failures == loop_traciator_failures(bad)
    assert failures


def test_traciator_iso_makes_no_mfuse_calls(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("mfuse called")

    monkeypatch.setattr(ModuleTensorData, "mfuse", refuse)
    assert check_traciator_iso(load_builtin("a31_su2_30")).ok


def test_traciator_iso_object_branch_agrees():
    # scaling mN by c scales both sides of each identity alike (by c or c**2),
    # so the failures stay the same while the sums pass 2**53 (Python ints)
    rng = np.random.default_rng(7)
    data = load_builtin("d4_su2_4")
    mN = np.abs(perturb(data.mN, rng, 2))
    small = dataclasses.replace(data, mN=mN)
    large = dataclasses.replace(data, mN=mN * 2**40)
    assert check_traciator_iso(large).failures == check_traciator_iso(small).failures
    assert check_traciator_iso(small).failures


def loop_splitting_failures(data: ModuleTensorData) -> list[str]:
    """The failures of check_splitting_iso, one fuse and one mfuse call per
    pair (x, c)."""
    failures: list[str] = []
    base = data.base
    phi = data.mats[:, :, data.unit_module]
    for j in range(data.rank):
        x = data.basis(j)
        tx = trace_object(data, x)
        for i in range(base.rank):
            lhs = trace_object(data, data.mfuse(x, data.object_vec(phi[i])))
            rhs = fuse(base, tx, base.basis(i))
            if lhs != rhs:
                failures.append(
                    f"splitting fails at (m={data.msimples[j]}, "
                    f"c={base.labels[i]}): {lhs.mult} vs {rhs.mult}"
                )
    return failures


@pytest.mark.parametrize("name", TENSOR_BUILTINS + ["d4_module_ring"])
def test_splitting_iso_matches_loop_reference_on_builtins(name):
    if name == "d4_module_ring":
        # 3 and 3' are dual to each other, so N[a][c] != N[c][a] in this base
        data = regular_module(load_builtin("d4_su2_4").module_ring())
    else:
        data = load_builtin(name)
    assert check_splitting_iso(data).failures == loop_splitting_failures(data) == []


@pytest.mark.parametrize("seed", range(10))
def test_splitting_iso_matches_loop_reference_on_perturbations(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    data = load_builtin(TENSOR_BUILTINS[seed % len(TENSOR_BUILTINS)])
    # |.| keeps every multiplicity nonnegative, as mfuse requires
    mN = np.abs(perturb(data.mN, rng, 1 + seed % 3))
    # at 2**40 only the left side scales, so the witnesses are new ones
    copies = [dataclasses.replace(data, mN=mN * scale) for scale in (1, 2**40)]
    expected = [loop_splitting_failures(bad) for bad in copies]
    assert all(expected)
    assert [check_splitting_iso(bad).failures for bad in copies] == expected
    # one mN factor keeps these sums below 2**53, so Python ints are forced
    monkeypatch.setattr(trace, "_exact_dtype", lambda *sums: object)
    assert [check_splitting_iso(bad).failures for bad in copies] == expected


def test_splitting_iso_makes_no_mfuse_calls(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("mfuse called")

    monkeypatch.setattr(ModuleTensorData, "mfuse", refuse)
    assert check_splitting_iso(load_builtin("a31_su2_30")).ok


@functools.cache
def derived(kind: str, level: int) -> ModuleTensorData:
    return derive_module_fusion(ade_action(kind, level, unit="1")).data


def all_labels_residual(action: ModuleAction, T: np.ndarray, known: list[bool]):
    """The residual columns solved from the relations of every base label.

    Column-major, vec(T M(c_i) - N(c_i) T) = (M(c_i)^T (x) I - I (x) N(c_i))
    vec(T), so each label contributes the rows of that operator that touch
    an unknown column, the known columns moved to the right-hand side.
    This is the row set before the generator-only rows; constant rows are
    left to the caller's re-check, as they were then.
    """
    base = action.base
    r, m = base.rank, action.rank
    unknown = [l for l in range(m) if not known[l]]
    mask = np.repeat(~np.array(known), r)  # vec index l r + a is T[a, l]
    vec = T.T.reshape(-1)
    rows, rhs = [], []
    for i in range(r):
        L = np.kron(action.mats[i].T, np.eye(r, dtype=np.int64))
        L -= np.kron(np.eye(m, dtype=np.int64), base.action_matrix(i))
        A, b = L[:, mask], -(L[:, ~mask] @ vec[~mask])
        touches = A.any(axis=1)
        rows += [[Fraction(int(v)) for v in row] for row in A[touches]]
        rhs += [Fraction(int(v)) for v in b[touches]]
    solution = trace._solve_affine_nonneg(rows, rhs, len(unknown) * r)
    if solution is None:
        return None
    out = T.copy()
    out[:, unknown] = np.array(solution).reshape(len(unknown), r).T
    return out


def rebuild_case(case: str, tmp_path) -> ModuleTensorData:
    if case == "fib_reg":
        return load_fib_regular(tmp_path)
    if case == "d4_module_ring":
        # label 1 does not generate this base ring: every label's rows are used
        return regular_module(load_builtin("d4_su2_4").module_ring())
    if case in TENSOR_BUILTINS:
        return load_builtin(case)
    kind, level = case.split("_")
    return derived(kind, int(level))


@pytest.mark.parametrize(
    "case", TENSOR_BUILTINS + ["d8_12", "d12_20", "d18_32", "fib_reg", "d4_module_ring"]
)
def test_generator_rebuild_matches_all_label_reference(case, monkeypatch, tmp_path):
    data = rebuild_case(case, tmp_path)
    solved = []
    original = trace._solve_residual_columns

    def both(action, T, known):
        got = original(action, T, known)
        solved.append((got, all_labels_residual(action, T, known)))
        return got

    monkeypatch.setattr(trace, "_solve_residual_columns", both)
    rebuilt = trace._rebuild_trace_matrix(data)
    assert np.array_equal(rebuilt, trace_matrix(data))
    # regular modules propagate along a path; every other case has a fork
    assert len(solved) == (case not in ("a5_su2_4", "fib_reg"))
    for got, reference in solved:
        assert np.array_equal(got, reference) and np.array_equal(got, rebuilt)


@pytest.mark.parametrize("case", ["d12_20", "d4_module_ring"])
def test_residual_solve_in_python_ints_matches(case, monkeypatch, tmp_path):
    data = rebuild_case(case, tmp_path)
    monkeypatch.setattr(trace, "_exact_dtype", lambda *sums: object)
    assert np.array_equal(trace._rebuild_trace_matrix(data), trace_matrix(data))


def test_d12_rebuild_stacks_the_generator_rows_only(monkeypatch):
    counts = []
    original = trace._solve_affine_nonneg

    def count(rows, rhs, nvars):
        counts.append(len(rows))
        return original(rows, rhs, nvars)

    monkeypatch.setattr(trace, "_solve_affine_nonneg", count)
    assert check_forgetful(derived("d12", 20)).ok
    assert len(counts) == 1 and counts[0] < 200  # every label's rows were 1,993


@pytest.mark.parametrize(
    "rows, rhs, want",
    [
        # x0 = (t - 7)/2, x1 = (7 - t)/3, x2 = t: only t = 7 is nonnegative,
        # far from the particular solution's one integral entry (x2 = 0)
        ([[2, 0, -1], [0, 3, 1]], [-7, 7], [0, 0, 7]),
        # x0 = t/7, x1 = (7 - t)/7, x2 = t: integral at t = 0 and t = 7
        ([[7, 0, -1], [0, 7, 1]], [0, 7], None),
        ([[1, -1]], [0], None),  # x0 = x1 = t for every t >= 0: unbounded
        ([[1, 1, 1]], [0], None),  # a two-dimensional kernel
        ([[1, 0], [0, 1]], [3, 4], [3, 4]),  # no kernel
        ([[2, 0], [0, 1]], [3, 4], None),  # no integral solution
        ([[1, 0], [0, 1]], [-3, 4], None),  # no nonnegative solution
    ],
)
def test_solve_affine_nonneg_decides_exactly(rows, rhs, want):
    assert trace._solve_affine_nonneg(rows, rhs, len(rows[0])) == want


def test_solve_affine_nonneg_tries_at_most_2l_plus_1_values(monkeypatch):
    # x0 = t/3, x1 = N - t, x2 = t with 0 <= t <= N: integral at t = 0, 3, 6, ...
    spans = []

    def recording_range(*args):
        spans.append(range(*args))
        return spans[-1]

    monkeypatch.setattr(trace, "range", recording_range, raising=False)
    assert trace._solve_affine_nonneg([[3, 0, -1], [0, 1, 1]], [0, 10**30], 3) is None
    assert max(map(len, spans)) <= 2 * 3 + 1


def test_label_one_generates():
    assert all(trace._label_one_generates(verlinde_su2(k)) for k in range(101))
    golden = derive_module_fusion(ade_action("t2", 3, unit="1")).data.module_ring()
    assert trace._label_one_generates(golden)
    assert not trace._label_one_generates(load_builtin("d4_su2_4").module_ring())


def test_corrupted_d12_action_detected_by_the_rebuild():
    # the generator's relations still solve, but the re-check of label 19 fails
    action = derived("d12", 20)
    mats = np.array(action.mats)
    mats[18][7][6] += 1
    bad = ModuleAction("bad", action.base, action.base_spec, action.msimples, mats, 0)
    assert check_forgetful(bad).failures == [
        "trace does not intertwine the action of 19",
        "could not rebuild the trace matrix along the module graph",
    ]


def test_check_forgetful_memory_stays_below_one_kronecker_operator():
    data = derived("d22", 40)
    tracemalloc.start()
    try:
        assert check_forgetful(data).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (m r)**2 int64 Kronecker operator of the relations alone is 6.5 MB
    assert peak < 4 * 2**20


def test_traces_and_ends_are_exact_past_64_bits():
    data = load_builtin("d4_su2_4")
    n = 2**63 - 1
    one = data.basis("1")
    x = ObjectVec(one.space, tuple(n * m for m in one.mult))
    # End(n 1) = n^2 End(1) = n^2 (1 + 5); Tr(n 1) = n Tr(1) = n (1 + 5)
    assert internal_end(data, x).mult == (n * n, 0, 0, 0, n * n)
    assert trace_object(data, x).mult == (n, 0, 0, 0, n)
    twice = data.mfuse(x, x)  # 1 is the module unit
    assert twice.mult == (n * n, 0, 0, 0) and trace_object(data, twice).mult[0] == n * n


def test_internal_ends_of_many_objects_equal_each_one():
    data = load_builtin("e6_su2_10")
    m = data.rank
    xs = [data.basis(j) for j in range(m)]
    xs.append(ObjectVec(xs[0].space, tuple(range(1, m + 1))))
    xs.append(ObjectVec(xs[0].space, (2**70,) + (1,) * (m - 1)))  # past int64: Python ints
    mats = data.mats
    for x in xs:
        # End(x) = sum_jl v_j v_l M(c_i)[j][l], term by term in Python ints
        want = [
            sum(x.mult[j] * x.mult[l] * int(mats[i, j, l]) for j in range(m) for l in range(m))
            for i in range(mats.shape[0])
        ]
        assert internal_end(data, x).mult == tuple(want)
