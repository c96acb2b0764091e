import math
from fractions import Fraction

import numpy as np
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


def fraction_reduction(phi) -> tuple[list[int], list[list[Fraction]], list[list[Fraction]]]:
    """Pivots, pivot rows [R | E] and left kernel rows K of [phi | I], reduced
    over the rationals: the solver's integer rows before scaling."""
    nb, m = phi.shape
    rows = [
        [Fraction(int(v)) for v in phi[i]] + [Fraction(int(t == i)) for t in range(nb)]
        for i in range(nb)
    ]
    basis, residues = reduce_all(rows, m)
    pivots = sorted(basis)
    return pivots, [basis[c] for c in pivots], [row[m:] for row in residues]


def fusion_solver(action) -> _FusionSolver:
    return _FusionSolver(action)


@pytest.mark.parametrize("name", TENSOR_BUILTINS)
def test_fusion_solver_transform_and_left_kernel(name):
    solver = fusion_solver(load_builtin(name))
    phi = solver.phi.astype(object)
    R, E, K = solver.reduced, solver.rhs_rows, solver.left_kernel
    assert all(type(v) is int for v in [*R.flat, *E.flat, *K.flat])
    assert np.array_equal(E @ phi, R) and not (K @ phi).any()
    pivots, rows, kernel = fraction_reduction(solver.phi)
    assert solver.pivots == pivots and len(pivots) + len(K) == phi.shape[0]
    # each integer row is the rational one times its pivot coefficient d_t,
    # the lcm of its denominators, so the row's entries have no common factor
    for t, (z, row) in enumerate(zip(pivots, rows)):
        d = R[t, z]
        assert [Fraction(v, d) for v in (*R[t], *E[t])] == row
        assert [R[s, z] for s in range(len(pivots))] == [d * (s == t) for s in range(len(pivots))]
        assert math.gcd(*R[t], *E[t]) == 1
    for k_int, k_frac in zip(K, kernel):
        scale = next(Fraction(a) / b for a, b in zip(k_int, k_frac) if b)
        assert [scale * b for b in k_frac] == list(k_int)


def per_pair_equations(solver: _FusionSolver) -> list:
    """The solver's equations over the rationals, each pivot coefficient 1:
    one Fraction sum sum(e[i] * b[i]) per reduced row [R | E] and pair's b."""
    m, nb = solver.m, solver.phi.shape[0]
    _, rows, _ = fraction_reduction(solver.phi)
    out = []
    for x in range(m):
        for w in range(m):
            b = [int(solver.mats[i][w][x]) for i in range(nb)]
            for row in rows:
                terms = [((c, x, w), row[c]) for c in range(m) if row[c] != 0]
                rhs = sum((row[m + i] * b[i] for i in range(nb)), Fraction(0))
                out.append((terms, rhs))
    return out


def rational_equations(solver: _FusionSolver) -> list:
    """The solver's integer equations, each divided by its pivot coefficient."""
    out = []
    for e, (terms, rhs) in enumerate(solver.equations):
        t = e % len(solver.pivots)
        d = solver.reduced[t, solver.pivots[t]]
        assert type(rhs) is int and all(type(coef) is int for _, coef in terms)
        out.append(([(cell, Fraction(coef, d)) for cell, coef in terms], Fraction(rhs, d)))
    return out


def solved(case: str) -> _FusionSolver:
    if case in TENSOR_BUILTINS:
        action = load_builtin(case)
    elif case == "d4_module_ring":
        # 3 and 3' are dual to each other, so this action is not symmetric
        action = regular_module(load_builtin("d4_su2_4").module_ring())
    else:
        kind, level, unit = case.split("_")
        action = ade_action(kind, int(level), unit=unit)
    solver = fusion_solver(action)
    solver.solve()
    return solver


# d10 with unit 3 has no fusion tensor, but its reduced rows have denominators 2
BATCH_CASES = TENSOR_BUILTINS + ["d8_12_1", "d10_16_1", "d12_20_1", "d10_16_3", "d4_module_ring"]


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_rhs_matches_per_pair_reference(case):
    solver = solved(case)
    assert rational_equations(solver) == per_pair_equations(solver)
    pivot_coefficients = [solver.reduced[t, z] for t, z in enumerate(solver.pivots)]
    assert all(d > 0 for d in pivot_coefficients)
    if case == "d10_16_3":
        assert any(d != 1 for d in pivot_coefficients)


@pytest.mark.parametrize("case", ["e8_su2_28", "d12_20_1", "d10_16_3", "d4_module_ring"])
def test_batched_rhs_in_python_ints_matches_per_pair_reference(case, monkeypatch):
    picked = []

    def python_ints(*sums):
        picked.append(sums)
        return object

    monkeypatch.setattr(modules, "_exact_dtype", python_ints)
    solver = solved(case)
    assert picked  # E B and K B were taken in the object branch
    assert rational_equations(solver) == per_pair_equations(solver)
