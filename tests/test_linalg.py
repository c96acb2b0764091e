from fractions import Fraction

import pytest

from tracecat import modules
from tracecat.cyclo import CycloField
from tracecat.linalg import reduce_row
from tracecat.modules import ModuleTensorData, _FusionSolver, regular_module
from tracecat.packages import BUILTIN_FILES, ade_action, load_builtin

ONE = Fraction(1)


def reduce_all(rows, ncols, zero=0, one=ONE):
    basis = {}
    residues = [reduce_row(basis, row, ncols, zero, one) for row in rows]
    return basis, [r for r in residues if r is not None]


def fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_unique_solution():
    # x + 2y = 5, 3x - y = 1  ->  x = 1, y = 2
    basis, residues = reduce_all(fractions([[1, 2, 5], [3, -1, 1]]), 2)
    assert residues == []
    assert basis == {0: [1, 0, 1], 1: [0, 1, 2]}


def test_inconsistent_system_leaves_a_nonzero_residue():
    # x + y = 1, 2x + 2y = 3
    basis, residues = reduce_all(fractions([[1, 1, 1], [2, 2, 3]]), 2)
    assert sorted(basis) == [0]
    assert len(residues) == 1
    assert residues[0][:2] == [0, 0] and residues[0][2] != 0


def test_rank_deficient_system_reports_free_columns():
    # x + y + z = 3, x + 2y + 3z = 6, 2x + 3y + 4z = 9 (third row is the sum)
    rows = fractions([[1, 1, 1, 3], [1, 2, 3, 6], [2, 3, 4, 9]])
    basis, residues = reduce_all(rows, 3)
    assert residues == [[0, 0, 0, 0]]
    assert [c for c in range(3) if c not in basis] == [2]
    # reduced row echelon form: pivot columns are unit vectors
    assert basis[0] == [1, 0, -1, 0]
    assert basis[1] == [0, 1, 2, 3]


def test_pivots_only_in_the_first_ncols_entries():
    basis, residues = reduce_all(fractions([[0, 0, 7]]), 2)
    assert basis == {} and residues == [[0, 0, 7]]


def test_cyclotomic_solve_at_level_four():
    F = CycloField.for_level(4)
    A = [
        [F.q(), F.one, F.zero],
        [F.one, F.loop_value(), F.imag_unit()],
        [F.zeta(3), F.zero, F.one],
    ]
    b = [F.one, F.from_int(2), F.q_half()]
    basis, residues = reduce_all([row + [rhs] for row, rhs in zip(A, b)], 3, F.zero, F.one)
    assert residues == [] and sorted(basis) == [0, 1, 2]
    x = [basis[c][3] for c in range(3)]
    for row, rhs in zip(A, b):
        acc = F.zero
        for a, v in zip(row, x):
            acc = acc + a * v
        assert acc == rhs


TENSOR_BUILTINS = [
    name
    for name in list(BUILTIN_FILES) + ["a5_su2_4"]
    if isinstance(load_builtin(name), ModuleTensorData)
]


@pytest.mark.parametrize("name", TENSOR_BUILTINS)
def test_fusion_solver_transform_and_left_kernel(name):
    action = load_builtin(name).action
    phi = action.phi_matrix()
    solver = _FusionSolver(action, phi, action.unit_module)
    nb, m = phi.shape

    def times_phi(vec):
        return [sum(vec[i] * int(phi[i][c]) for i in range(nb)) for c in range(m)]

    assert [times_phi(e) for e in solver.transform] == solver.reduced
    assert all(times_phi(k) == [0] * m for k in solver.left_kernel)
    rank = len(solver.pivots)
    assert rank + len(solver.left_kernel) == nb
    for t, z in enumerate(solver.pivots):
        assert [row[z] for row in solver.reduced] == [int(s == t) for s in range(rank)]


def per_pair_equations(solver: _FusionSolver) -> list:
    """The solver's equations, each right-hand side the Fraction sum
    sum(e[i] * b[i]) over one transform row e and one pair's b."""
    m, nb = solver.m, solver.phi.shape[0]
    out = []
    for x in range(m):
        for w in range(m):
            b = [int(solver.mats[i][w][x]) for i in range(nb)]
            for row, e in zip(solver.reduced, solver.transform):
                terms = [((c, x, w), row[c]) for c in range(m) if row[c] != 0]
                out.append((terms, sum((e[i] * b[i] for i in range(nb)), Fraction(0))))
    return out


def solved(case: str) -> _FusionSolver:
    if case in TENSOR_BUILTINS:
        action = load_builtin(case).action
    elif case == "d4_module_ring":
        # 3 and 3' are dual to each other, so this action is not symmetric
        action = regular_module(load_builtin("d4_su2_4").module_ring()).action
    else:
        kind, level, unit = case.split("_")
        action = ade_action(kind, int(level), unit=unit)
    solver = _FusionSolver(action, action.phi_matrix(), action.unit_module)
    solver.solve()
    return solver


# d10 with unit 3 has no fusion tensor, but its transform has denominators 2
BATCH_CASES = TENSOR_BUILTINS + ["d8_12_1", "d10_16_1", "d12_20_1", "d10_16_3", "d4_module_ring"]


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_rhs_matches_per_pair_reference(case):
    solver = solved(case)
    assert solver.equations == per_pair_equations(solver)
    assert all(type(rhs) is Fraction for _, rhs in solver.equations)
    if case == "d10_16_3":
        assert any(rhs.denominator != 1 for _, rhs in solver.equations)


@pytest.mark.parametrize("case", ["e8_su2_28", "d12_20_1", "d10_16_3", "d4_module_ring"])
def test_batched_rhs_in_python_ints_matches_per_pair_reference(case, monkeypatch):
    picked = []

    def python_ints(*sums):
        picked.append(sums)
        return object

    monkeypatch.setattr(modules, "_exact_dtype", python_ints)
    solver = solved(case)
    assert picked  # E B and K B were taken in the object branch
    assert solver.equations == per_pair_equations(solver)
