"""The categorified trace at the level of multiplicity vectors.

For a module tensor category given by action matrices M(c_i) with
distinguished unit column, the right adjoint of the free-module map sends
the module simple m_j to the base object with multiplicities

    T[i][j] = M(c_i)[j][unit],

the adjunction being dim Hom(c_i, Tr m_j) = dim Hom(Phi(c_i), m_j).  All
checks in this module are exhaustive and exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .fusion import FusionError, FusionRing, ObjectVec, ValidationReport, _exact_dtype
from .linalg import reduce_row
from .modules import ModuleAction, ModuleError, ModuleTensorData


def trace_matrix(action: ModuleAction) -> np.ndarray:
    """T[i, j]: the multiplicity of the base simple c_i in the trace of the
    module simple m_j, as a read-only int64 view of the action matrices."""
    if action.unit_module is None:
        raise ModuleError(f"{action.name} has no unit module; cannot take traces")
    return action.mats[:, :, action.unit_module]


def trace_object(action: ModuleAction, x: ObjectVec) -> ObjectVec:
    """Linear extension of the trace to arbitrary module objects."""
    if x.space != action.space or len(x.mult) != action.rank:
        raise FusionError(f"object over {x.space} does not match module {action.name}")
    T, v = trace_matrix(action), x.as_array()
    dtype = _exact_dtype((len(v), T, v))
    return ObjectVec(action.base.name, tuple(int(c) for c in T.astype(dtype) @ v.astype(dtype)))


def trace_of_word(data: ModuleTensorData, word) -> ObjectVec:
    """Trace of a tensor word of module objects, folded left to right."""
    if not isinstance(data, ModuleTensorData):
        raise ModuleError("tensor words need module fusion data")
    factors = list(word)
    if not factors:
        acc = data.basis(data.unit_module)
    else:
        acc = factors[0]
        for factor in factors[1:]:
            acc = data.mfuse(acc, factor)
    return trace_object(data, acc)


def internal_end(action: ModuleAction, x: ObjectVec) -> ObjectVec:
    """The base object representing endomorphisms of the module object x."""
    if x.space != action.space or len(x.mult) != action.rank:
        raise FusionError(f"object over {x.space} does not match module {action.name}")
    if x.is_zero():
        raise ModuleError("internal End of the zero object is undefined")
    (row,) = _end_rows(action, x.as_array()[None]).tolist()
    return ObjectVec(action.base.name, tuple(row))


def _end_rows(action: ModuleAction, V: np.ndarray) -> np.ndarray:
    """[object, i]: sum_jl V[object, j] mats[i, j, l] V[object, l], the
    internal End of each row of V.  One base label i at a time, so that
    memory holds one objects-by-simples product, in the dtype
    `fusion._exact_dtype` picks; returned as int64, or as Python ints when
    a partial sum could pass 2**53."""
    dtype = _exact_dtype((action.rank**2, V, action.mats, V))
    V = V.astype(dtype)
    out = np.empty((len(V), action.base.rank), dtype=dtype)
    for i, M in enumerate(action.mats.astype(dtype)):
        out[:, i] = ((V @ M) * V).sum(axis=1)
    return out if dtype == object else out.astype(np.int64)


# -- verification ---------------------------------------------------------------


def check_adjunction(action: ModuleAction) -> ValidationReport:
    """dim Hom(c_i, Tr m_j) = dim Hom(Phi(c_i), m_j), exhaustively.

    The right side is T[i, j] = mats[i, j, unit], the multiplicity of m_j in
    c_i . 1.  The left side is read through duality as dim Hom(1, c_i* . m_j)
    = mats[dual(i), unit, j], so an action whose matrices do not respect the
    duality fails.  Failures are listed in (c, m) index order.
    """
    T = trace_matrix(action)
    hom = action.mats[list(action.base.dual), action.unit_module, :]
    failures = [
        f"adjunction fails at (c={action.base.labels[i]}, "
        f"m={action.msimples[j]}): {hom[i, j]} vs {T[i, j]}"
        for i, j in np.argwhere(hom != T)
    ]
    return ValidationReport(f"adjunction {action.name}", failures)


def check_splitting_iso(data: ModuleTensorData) -> ValidationReport:
    """Tr(x (x) Phi(c)) = Tr(x) (x) c for all simple x, c.

    Both sides, for every pair at once, are two matrix products in the dtype
    `fusion._exact_dtype` picks.  Failures are listed in (x, c) index order.
    """
    failures: list[str] = []
    base = data.base
    # T is also the free-module map: row i of it is Phi(c_i)
    T, N = trace_matrix(data), base.N
    r, m = T.shape
    dtype = _exact_dtype((m * m, T, data.mN, T), (r, T, N))
    mN, T, N = (a.astype(dtype) for a in (data.mN, T, N))
    # [x, c, i]: multiplicity of c_i in Tr(x (x) Phi(c)) and in Tr(x) (x) c
    lhs = (T @ mN) @ T.T
    rhs = (T.T @ N.reshape(r, r * r)).reshape(m, r, r)
    for j, i in np.argwhere((lhs != rhs).any(axis=2)):
        failures.append(
            f"splitting fails at (m={data.msimples[j]}, c={base.labels[i]}): "
            f"{tuple(int(v) for v in lhs[j, i])} vs {tuple(int(v) for v in rhs[j, i])}"
        )
    return ValidationReport(f"splitting {data.name}", failures)


def check_traciator_iso(data: ModuleTensorData) -> ValidationReport:
    """Tr(x (x) y) = Tr(y (x) x), plus the rotated three-factor identity
    Tr(x (x) (y (x) z)) = Tr((z (x) x) (x) y), for all simple x, y, z.

    The trace matrix is contracted with mN once, in the dtype
    `fusion._exact_dtype` picks; the three-factor identity is then compared
    one x at a time, so no m**3 r array is built.  Failures are listed in
    index order.
    """
    failures: list[str] = []
    labels = data.msimples
    m = len(labels)
    T = trace_matrix(data)
    dtype = _exact_dtype((m * m, data.mN, data.mN, T))
    mN, T = data.mN.astype(dtype), T.astype(dtype)
    pair = mN @ T.T  # [x, y, i]: multiplicity of c_i in Tr(x (x) y)
    for j, l in np.argwhere((pair != pair.transpose(1, 0, 2)).any(axis=2)):
        failures.append(f"trace symmetry fails at ({labels[j]}, {labels[l]})")
    for j in range(m):
        # [y, z, i] entries of Tr(x (x) (y (x) z)) and of Tr((z (x) x) (x) y)
        lhs = (mN.reshape(m * m, m) @ pair[j]).reshape(m, m, -1)
        rhs = (mN[:, j, :] @ pair.reshape(m, -1)).reshape(m, m, -1).transpose(1, 0, 2)
        for l, s in np.argwhere((lhs != rhs).any(axis=2)):
            failures.append(
                "rotated three-factor trace fails at "
                f"({labels[j]}, {labels[l]}, {labels[s]})"
            )
    return ValidationReport(f"trace rotation {data.name}", failures)


def check_forgetful(action: ModuleAction) -> ValidationReport:
    """The trace agrees with the underlying-object map, two ways.

    First the intertwining law Tr(c . x) = c (x) Tr(x) as matrices, then an
    independent reconstruction of the whole trace matrix from the internal
    End of the unit by propagation along the module graph.  When the base
    label "2" generates the base ring (every SU(2)_k ring does), M(c_i) and
    N(c_i) are one polynomial in M(2) and N(2), so the reconstruction solves
    T M(2) = N(2) T alone; the law for every other label follows, and is
    checked once more on the result.
    """
    failures: list[str] = []
    tm = trace_matrix(action)
    base = action.base
    i = _first_unintertwined(action, tm)
    if i is not None:
        failures.append(f"trace does not intertwine the action of {base.labels[i]}")
    rebuilt = _rebuild_trace_matrix(action)
    if rebuilt is None:
        failures.append("could not rebuild the trace matrix along the module graph")
    elif not np.array_equal(rebuilt, tm):
        i, j = np.argwhere(rebuilt != tm)[0]
        failures.append(
            "rebuilt trace disagrees at "
            f"(c={base.labels[i]}, m={action.msimples[j]})"
        )
    return ValidationReport(f"underlying object {action.name}", failures)


def _first_unintertwined(action: ModuleAction, T: np.ndarray) -> int | None:
    """The first base label i with T M(c_i) != N(c_i) T, or None."""
    lhs = T @ action.mats
    rhs = action.base.N.transpose(0, 2, 1) @ T  # N(c_i) = N[i].T
    bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
    return int(bad[0]) if bad.size else None


def _rebuild_trace_matrix(action: ModuleAction) -> np.ndarray | None:
    """Independent route to the trace matrix.

    Seeds the unit column with the internal End of the unit object and
    pushes values along the module graph using Tr(gen . m) = gen (x) Tr(m),
    where gen is the base generator whose action matrix is the graph.  The
    columns left over are solved exactly (from the generator's relations
    alone when it generates the base ring), and the result must intertwine
    the action of every base label i.
    """
    base = action.base
    unit = action.unit_module
    if base.rank < 2:
        return action.mats[:, unit, unit].reshape(base.rank, 1)
    m = action.rank
    gen = 1  # the base label "2"
    A = action.mats[gen]
    N2 = base.action_matrix(gen)
    T = np.zeros((base.rank, m), dtype=np.int64)
    known = [False] * m
    T[:, unit] = action.mats[:, unit, unit]
    known[unit] = True
    progress = True
    while progress and not all(known):
        progress = False
        for j in range(m):
            if not known[j]:
                continue
            neighbors = [l for l in range(m) if A[l][j] != 0]
            unknown = [l for l in neighbors if not known[l]]
            if len(unknown) != 1:
                continue
            l = unknown[0]
            rest = N2 @ T[:, j] - sum(
                int(A[o][j]) * T[:, o] for o in neighbors if known[o]
            )
            coef = int(A[l][j])
            if np.any(rest % coef != 0) or np.any(rest < 0):
                return None
            T[:, l] = rest // coef
            known[l] = True
            progress = True
    if not all(known):
        # fork vertices leave siblings that only a joint exact solve separates
        T = _solve_residual_columns(action, T, known)
        if T is None:
            return None
    return T if _first_unintertwined(action, T) is None else None


def _solve_residual_columns(
    action: ModuleAction, T: np.ndarray, known: list[bool]
) -> np.ndarray | None:
    """Exact solve for columns the tree propagation could not separate.

    Stacks the intertwining relations T M(c_i) = N(c_i) T and solves for the
    unknown columns u_t over the rationals.  With T0 the known columns (the
    unknown ones zero) and U[b, t] = T[b, u_t], row (j, a) of label i reads

        sum_(t, b) (M(c_i)[u_t][j] [a = b] - [j = u_t] N(c_i)[a][b]) U[b, t]
            = -(T0 M(c_i) - N(c_i) T0)[a, j],

    an m r x (unknowns) r operator, never the full (m r)**2 one.  When label
    1 ("2") generates the base ring, every M(c_i) and N(c_i) of a module
    action is the same rational polynomial in M(c_1) and N(c_1), so the
    relations for i = 1 alone have the same rational solutions as all of
    them, and only those are stacked; otherwise every label's are.  Rows
    without an unknown are left to the caller's re-check.
    """
    base = action.base
    r, m = base.rank, action.rank
    labels = [1] if _label_one_generates(base) else range(r)
    unknown = [l for l in range(m) if not known[l]]
    select = np.eye(m, dtype=np.int64)[unknown]  # [t, j] = [j = u_t]
    eye = np.eye(r, dtype=np.int64)
    T0 = np.where(known, T, 0)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in labels:
        Mi, Ni = action.mats[i], base.action_matrix(i)
        A = np.einsum("stj,sab->jatb", np.stack([Mi[unknown], -select]), np.stack([eye, Ni]))
        A = A.reshape(m * r, len(unknown) * r)
        # doubled lengths keep the difference of the two products below 2**53
        dtype = _exact_dtype((2 * m, T0, Mi), (2 * r, Ni, T0))
        T0i, Mi, Ni = T0.astype(dtype), Mi.astype(dtype), Ni.astype(dtype)
        b = -(T0i @ Mi - Ni @ T0i).T.reshape(-1)
        keep = A.any(axis=1)
        rows += A[keep].tolist()
        rhs += [int(v) for v in b[keep]]
    solution = _solve_affine_nonneg(rows, rhs, len(unknown) * r)
    if solution is None:
        return None
    out = T.copy()
    out[:, unknown] = np.array(solution).reshape(len(unknown), r).T
    return out


def _label_one_generates(ring: FusionRing) -> bool:
    """Whether every basis element of `ring` is a polynomial in e_1.

    Exact and O(r**2): e_0 must be the unit, and for every n in 1..r-2 the
    product e_1 e_n = sum_j N[1][n][j] e_j must hold e_{n+1} with a nonzero
    coefficient and nothing past it; then induction on n writes each
    e_{n+1} through e_1 e_n and lower elements.  True for every SU(2)_k
    ring, where e_1 = "2".
    """
    N = ring.N
    return ring.unit == 0 and all(
        N[1, n, n + 1] != 0 and not N[1, n, n + 2 :].any() for n in range(1, ring.rank - 1)
    )


def _solve_affine_nonneg(rows, rhs, nvars):
    """The unique nonnegative integer solution of a rational linear system,
    or None.

    A fork of the module graph leaves a kernel of dimension one: the
    solutions are p + t v, with v the kernel direction that is 1 at the free
    column, so t is an integer.  Nonnegativity puts t in an exact interval,
    and integrality of p + t v repeats in t with period L, the lcm of the
    denominators of v; so when the first 2L + 1 integers of the interval
    hold exactly one integral point, the whole interval does.  A larger or
    unbounded kernel has no unique solution.
    """
    # early stop at full rank: the caller re-verifies every relation
    basis: dict[int, list[Fraction]] = {}  # pivot column -> normalized row + rhs
    for row, b in zip(rows, rhs):
        residue = reduce_row(basis, row + [b], nvars, 0, Fraction(1))
        if residue is not None and residue[nvars] != 0:
            return None
        if len(basis) == nvars:
            break
    free = [c for c in range(nvars) if c not in basis]
    if len(free) > 1:
        return None
    p = [basis[c][nvars] if c in basis else Fraction(0) for c in range(nvars)]
    v = [Fraction(0)] * nvars  # t = 0 when the kernel is trivial
    if free:
        v = [-basis[c][free[0]] if c in basis else Fraction(1) for c in range(nvars)]
    highs = [math.floor(pc / -vc) for pc, vc in zip(p, v) if vc < 0]
    if free and not highs:
        return None  # t is unbounded above
    lo = max((math.ceil(-pc / vc) for pc, vc in zip(p, v) if vc > 0), default=0)
    hi = min(highs, default=0)
    period = math.lcm(*(vc.denominator for vc in v))
    found = []
    for t in range(lo, min(hi, lo + 2 * period) + 1):
        point = [pc + t * vc for pc, vc in zip(p, v)]
        if all(x.denominator == 1 and x >= 0 for x in point):
            found.append(point)
    return [int(x) for x in found[0]] if len(found) == 1 else None


# -- table formatting -----------------------------------------------------------


def decomposition(
    vec: ObjectVec | Sequence[int], labels: tuple[str, ...], style: str = "text"
) -> str:
    """Render an object, or its multiplicities, as a sum of simples.

    text:    1 ⊕ 5     (repeating each simple by its multiplicity)
    machine: 1^1 + 5^1
    """
    mults = vec.mult if isinstance(vec, ObjectVec) else vec
    if not any(mults):
        return "0"
    if style == "text":
        parts = []
        for lab, mult in zip(labels, mults):
            parts.extend([lab] * mult)
        return " ⊕ ".join(parts)
    if style == "machine":
        return " + ".join(
            f"{lab}^{mult}" for lab, mult in zip(labels, mults) if mult
        )
    raise ValueError(f"unknown style {style!r}")


def trace_table(action: ModuleAction, fmt: str = "text") -> str:
    """The trace of every module simple.

    text: aligned `label : 1 ⊕ 5` rows
    tsv:  `label<TAB>1^1 + 5^1` rows
    """
    if fmt not in ("text", "tsv"):
        raise ValueError(f"unknown table format {fmt!r}")
    T, labels = trace_matrix(action), action.base.labels
    left = max(len(mlabel) for mlabel in action.msimples)
    out = []
    for j, mlabel in enumerate(action.msimples):
        vec = ObjectVec(action.base.name, tuple(int(v) for v in T[:, j]))
        if fmt == "tsv":
            out.append(f"{mlabel}\t{decomposition(vec, labels, 'machine')}")
        else:
            out.append(f"{mlabel.ljust(left)} : {decomposition(vec, labels)}")
    return "\n".join(out) + "\n"
