"""Module categories over fusion rings as integer matrix data.

A ModuleAction packages the base ring together with one nonnegative square
matrix per base simple, M(c)[j][l] = multiplicity of m_j inside c . m_l.
ADE actions are produced from Dynkin-diagram adjacency matrices by the
Chebyshev recursion M(n+1) = M(2) M(n) - M(n-1).

A ModuleTensorData adds the module fusion tensor mN (making the module
simples a based ring in their own right) and the induced ring map of the
free-module functor.  derive_module_fusion reconstructs mN from the action
alone.  Compatibility with the free-module functor is one linear system per
pair of module simples, reduced once to integer equations that each force a
cell when only that cell is unknown.  A worklist of newly assigned cells
carries these forcings, the unit and, once the unit column has fixed the
duality, the based-ring symmetries; an exhaustive search over the cells left
free, with every candidate validated as module tensor data, finds all
solutions, which are quotiented by the unit-fixing symmetries of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .fusion import (
    FusionRing,
    ObjectVec,
    ValidationReport,
    _exact_dtype,
    _exact_product,
    is_transitive,
    perron_vector,
    validate_ring,
    verlinde_su2,
)
from .linalg import reduce_row


class ModuleError(ValueError):
    """Raised for invalid module-category data."""


@dataclass(frozen=True)
class ModuleAction:
    """A module category at the level of multiplicity matrices."""

    name: str
    base: FusionRing
    base_spec: str
    msimples: tuple[str, ...]
    mats: np.ndarray = field(compare=False, repr=False)  # (rank_base, m, m) int64
    unit_module: int | None = None

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=np.int64)
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        m = len(self.msimples)
        if mats.shape != (self.base.rank, m, m):
            raise ModuleError("action matrix stack has wrong shape")
        if self.unit_module is not None and not 0 <= self.unit_module < m:
            raise ModuleError("unit module index out of range")

    def __eq__(self, other: object) -> bool:
        # a ModuleTensorData never equals a plain action with the same matrices
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @property
    def rank(self) -> int:
        return len(self.msimples)

    @property
    def space(self) -> str:
        """The label space of the module objects."""
        return f"{self.name}.module"

    def index(self, label: str) -> int:
        try:
            return self.msimples.index(label)
        except ValueError:
            raise ModuleError(
                f"unknown module label {label!r} in {self.name}"
            ) from None

    def basis(self, j: int | str) -> ObjectVec:
        if isinstance(j, str):
            j = self.index(j)
        mult = [0] * self.rank
        mult[j] = 1
        return ObjectVec(self.space, tuple(mult))

    def object_vec(self, mult) -> ObjectVec:
        return ObjectVec(self.space, tuple(int(v) for v in mult))

    def module_dims(self) -> np.ndarray:
        """Perron-Frobenius dimensions of the module simples (floating point)."""
        anchor = self.unit_module if self.unit_module is not None else 0
        return perron_vector(self.mats, anchor)


def validate_action(action: ModuleAction) -> ValidationReport:
    """Check nonnegativity, the unit, module associativity and connectivity.

    M(i) M(j) = sum_k N[i][j][k] M(k) is compared one i at a time, as matrix
    products in the dtype `fusion._exact_dtype` picks (float64 while every
    partial sum stays below 2**53, Python ints past it), so no r**2 m**2
    array is built.  The first failure is the first (i, j, a, c).
    """
    failures: list[str] = []
    base, mats = action.base, action.mats
    r, m = base.rank, action.rank
    if np.min(mats) < 0:
        i, j, l = np.argwhere(mats < 0)[0]
        failures.append(f"negative multiplicity in action of {base.labels[i]}")
    if not np.array_equal(mats[base.unit], np.eye(m, dtype=np.int64)):
        failures.append("unit of the base does not act as the identity")
    dtype = _exact_dtype((m, mats, mats), (r, base.N, mats))
    exact, N = mats.astype(dtype), base.N.astype(dtype)
    for i in range(r):
        # [j, a, c] entries of M(i) M(j) and of sum_k N[i][j][k] M(k)
        lhs = exact[i] @ exact
        rhs = (N[i] @ exact.reshape(r, m * m)).reshape(r, m, m)
        if not np.array_equal(lhs, rhs):
            j, a, c = np.argwhere(lhs != rhs)[0]
            failures.append(
                "module associativity fails at "
                f"M({base.labels[i]}) M({base.labels[j]}) on column {action.msimples[c]}"
            )
            break
    if not is_transitive(mats):
        failures.append("action graph is not connected")
    return ValidationReport(f"action {action.name}", failures)


def chebyshev_action(
    base: FusionRing,
    adjacency,
    msimples: tuple[str, ...] | list[str],
    name: str,
    unit_module: str | None = None,
) -> ModuleAction:
    """Module action generated from a graph by the Chebyshev recursion.

    The adjacency matrix encodes tensoring by the base label "2"; tadpole
    graphs (nonzero diagonal) are accepted.  Validity is decided post hoc:
    every matrix in the recursion must stay nonnegative and the recursion
    must close up at the top of the fusion alcove.
    """
    k = base.rank - 1
    if base != verlinde_su2(k):
        raise ModuleError("chebyshev_action requires an SU(2) level-k base ring")
    A = np.asarray(adjacency, dtype=np.int64)
    m = len(msimples)
    if A.shape != (m, m) or not np.array_equal(A, A.T):
        raise ModuleError("adjacency must be a symmetric square matrix")
    if np.min(A) < 0:
        raise ModuleError("adjacency entries must be nonnegative")
    if k == 0:
        if m != 1 or A[0, 0] != 0:
            raise ModuleError("level 0 admits only the one-vertex graph")
        mats = [np.eye(1, dtype=np.int64)]
    else:
        mats = [np.eye(m, dtype=np.int64), A]
        for n in range(2, k + 2):
            nxt = A @ mats[-1] - mats[-2]
            if n == k + 1:
                if np.any(nxt != 0):
                    raise ModuleError(
                        f"graph is not a level-{k} module graph "
                        f"(consistency failure at level {n + 1})"
                    )
                break
            if np.min(nxt) < 0:
                raise ModuleError(
                    f"graph is not a level-{k} module graph (first failure at {n + 1})"
                )
            mats.append(nxt)
    action = ModuleAction(
        name=name,
        base=base,
        base_spec=f"su2 {k}",
        msimples=tuple(msimples),
        mats=np.stack(mats),
        unit_module=None if unit_module is None else list(msimples).index(unit_module),
    )
    report = validate_action(action)
    if not report.ok:
        raise ModuleError("; ".join(report.failures))
    return action


def regular_module(ring: FusionRing, name: str | None = None) -> "ModuleTensorData":
    """The ring acting on itself; the module fusion tensor is the ring's own."""
    return ModuleTensorData(
        name=name or f"regular_{ring.name}",
        base=ring,
        base_spec=_base_spec_for(ring),
        msimples=ring.labels,
        mats=np.stack([ring.action_matrix(i) for i in range(ring.rank)]),
        unit_module=ring.unit,
        mN=ring.N.copy(),
        mdual=ring.dual,
    )


def _base_spec_for(ring: FusionRing) -> str:
    """The `base` line of a package over `ring`; the module ring of the
    package `<pkg>` is named `<pkg>.module` (`ModuleAction.space`)."""
    if ring.name.startswith("su2_"):
        return f"su2 {ring.name.split('_')[1]}"
    return f"file {ring.name.removesuffix('.module')}"


@dataclass(frozen=True, eq=False)
class ModuleTensorData(ModuleAction):
    """A module category with compatible tensor structure (at the K-level):
    the action plus the module fusion tensor mN and the duality of the
    module simples."""

    mN: np.ndarray = field(kw_only=True, compare=False, repr=False)
    mdual: tuple[int, ...] = field(kw_only=True, default=())

    def __post_init__(self):
        super().__post_init__()
        if self.unit_module is None:
            raise ModuleError("module tensor data requires a unit module")
        mN = np.asarray(self.mN, dtype=np.int64)
        mN.setflags(write=False)
        object.__setattr__(self, "mN", mN)
        m = self.rank
        if mN.shape != (m, m, m):
            raise ModuleError("module fusion tensor has wrong shape")
        if not self.mdual:
            object.__setattr__(self, "mdual", _dual_from_tensor(mN, self.unit_module))

    def module_ring(self) -> FusionRing:
        return FusionRing(
            name=self.space,
            labels=self.msimples,
            unit=self.unit_module,
            dual=self.mdual,
            N=self.mN,
        )

    def mfuse(self, x: ObjectVec, y: ObjectVec) -> ObjectVec:
        if x.space != self.space or y.space != self.space:
            raise ModuleError(f"objects do not live over {self.space}")
        return ObjectVec(self.space, _exact_product(x, y, self.mN))


def _dual_from_tensor(mN: np.ndarray, unit: int) -> tuple[int, ...]:
    m = mN.shape[0]
    dual = []
    for x in range(m):
        mates = np.nonzero(mN[x, :, unit])[0]
        if len(mates) != 1 or mN[x, mates[0], unit] != 1:
            raise ModuleError(f"module simple {x} has no unique dual")
        dual.append(int(mates[0]))
    return tuple(dual)


def validate_tensor_data(data: ModuleTensorData) -> ValidationReport:
    failures = list(validate_action(data).failures)
    ring_report = validate_ring(data.module_ring())
    failures += ring_report.failures
    mats, mN, N = data.mats, data.mN, data.base.N
    phi = mats[:, :, data.unit_module]  # row i: Phi(c_i), the free-module image
    r, m = phi.shape
    dtype = _exact_dtype((m * m, phi, phi, mN), (r, N, phi))
    phi, mN, N = phi.astype(dtype), mN.astype(dtype), N.astype(dtype)
    # [i, x, w] entries of Phi(c_i) (x) x; one more product with phi gives
    # Phi(c_i) (x) Phi(c_j) without a loop over x and y together
    free = (phi @ mN.reshape(m, m * m)).reshape(r, m, m)
    compat = free.transpose(0, 2, 1)
    if not np.array_equal(compat, mats):
        i, w, x = np.argwhere(compat != mats)[0]
        failures.append(
            "free-module compatibility fails: "
            f"Phi({data.base.labels[i]}) (x) {data.msimples[x]}"
        )
    hom_lhs = phi @ free
    hom_rhs = (N.reshape(r * r, r) @ phi).reshape(r, r, m)
    if not np.array_equal(hom_lhs, hom_rhs):
        i, j, w = np.argwhere(hom_lhs != hom_rhs)[0]
        failures.append(
            "free-module map is not a ring homomorphism at "
            f"({data.base.labels[i]}, {data.base.labels[j]})"
        )
    return ValidationReport(f"module tensor data {data.name}", failures)


# -- graph automorphisms -------------------------------------------------------


def action_automorphisms(action: ModuleAction) -> list[tuple[int, ...]]:
    """Permutations of module simples commuting with every action matrix,
    in lexicographic order.

    When a unit module is distinguished it must be fixed: these are the
    label symmetries by which fusion-tensor solutions are quotiented.
    """
    m = action.rank
    mats = action.mats
    # v may go to w only if their keys agree: the diagonal entry, the sorted
    # row and the sorted column of v in every matrix
    keys = np.concatenate(
        [
            mats[:, range(m), range(m)].T,
            np.sort(mats, axis=2).transpose(1, 0, 2).reshape(m, -1),
            np.sort(mats, axis=1).transpose(2, 0, 1).reshape(m, -1),
        ],
        axis=1,
    )
    first: dict[bytes, int] = {}
    kind = np.array([first.setdefault(key.tobytes(), v) for v, key in enumerate(keys)])
    allowed = kind[:, None] == kind[None, :]
    if action.unit_module is not None:
        allowed[action.unit_module, :] = False
        allowed[action.unit_module, action.unit_module] = True
    perms: list[tuple[int, ...]] = []

    def extend(pi: list[int], used: set[int]) -> None:
        v = len(pi)
        if v == m:
            perms.append(tuple(pi))
            return
        for w in np.flatnonzero(allowed[v]).tolist():
            if w in used:
                continue
            # the entries between v and the vertices placed so far, both ways
            if np.array_equal(mats[:, v, :v], mats[:, w, pi]) and np.array_equal(
                mats[:, :v, v], mats[:, pi, w]
            ):
                extend(pi + [w], used | {w})

    extend([], set())
    return perms


# -- deriving the module fusion tensor -----------------------------------------


class NoConsistentFusion(ModuleError):
    pass


class AmbiguousFusion(ModuleError):
    def __init__(self, message: str, solutions: list[np.ndarray]):
        super().__init__(message)
        self.solutions = solutions


@dataclass
class DeriveResult:
    data: ModuleTensorData
    n_solutions: int
    symmetries: list[tuple[int, ...]]


def derive_module_fusion(
    action: ModuleAction, unit_module: int | str | None = None
) -> DeriveResult:
    """Reconstruct the module fusion tensor from the action matrices.

    Raises NoConsistentFusion when the constraint system has no solution
    and AmbiguousFusion when several survive beyond the unit-fixing graph
    symmetries.  The returned representative is the lexicographically
    smallest solution, so regeneration is reproducible bit for bit.
    """
    if unit_module is None:
        unit = action.unit_module
        if unit is None:
            raise ModuleError("no unit module specified")
    else:
        unit = action.index(unit_module) if isinstance(unit_module, str) else unit_module
    # the result takes the action's fields and the solved mN, never an mN
    # the caller's data carried
    action = ModuleAction(**{**_action_fields(action), "unit_module": unit})
    report = validate_action(action)
    if not report.ok:
        raise ModuleError("; ".join(report.failures))

    solutions = _FusionSolver(action).solve()
    if not solutions:
        raise NoConsistentFusion(
            f"no consistent fusion tensor for {action.name} with unit "
            f"{action.msimples[unit]}"
        )
    perms = action_automorphisms(action)
    reps = _quotient_by_symmetry(solutions, perms)
    if len(reps) > 1:
        raise AmbiguousFusion(
            f"{len(reps)} fusion tensors for {action.name} remain after "
            "quotienting by graph symmetry",
            reps,
        )
    # a validated candidate permuted by a unit-fixing symmetry: valid as well
    data = ModuleTensorData(**_action_fields(action), mN=reps[0])
    return DeriveResult(data=data, n_solutions=len(solutions), symmetries=perms)


def _action_fields(action: ModuleAction) -> dict:
    """The ModuleAction fields of `action`, without any fusion data it carries."""
    return {f.name: getattr(action, f.name) for f in fields(ModuleAction)}


def _quotient_by_symmetry(
    solutions: list[np.ndarray], perms: list[tuple[int, ...]]
) -> list[np.ndarray]:
    """One representative per orbit, its byte-least image under `perms`
    (which hold the identity); the representatives in byte order."""
    reps: dict[bytes, np.ndarray] = {}
    for sol in solutions:
        rep = min((sol[np.ix_(p, p, p)] for p in perms), key=np.ndarray.tobytes)
        reps[rep.tobytes()] = rep
    return [reps[key] for key in sorted(reps)]


def _integer_rows(rows: list[list[Fraction]], ncols: int) -> np.ndarray:
    """Rows of Fractions as an object array of Python ints, each row scaled
    by the lcm of its denominators."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    ints = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, dens)]
    return np.array(ints, dtype=object).reshape(len(rows), ncols)


class _FusionSolver:
    """Exhaustive search for mN, with propagation driven by a worklist.

    For each pair (x, w), the values u[z] = mN[z][x][w] satisfy the linear
    system  sum_z phi[i][z] u[z] = mats[i][w][x].  Row reduction of phi turns
    it into one integer equation per pivot row t,

        d_t u[z_t] + sum_f R[t][f] u[f] = (E b)[t]      (f over the free columns),

    built once by `solve`, and every cell keeps a watch list of the
    equations it appears in.  The right-hand sides of all m**2 pairs are
    reduced together, as one integer product of E with the stacked b.  One
    forcing rule closes the values: an equation with a single unknown cell
    fixes it (its coefficient must divide the rest exactly, and the quotient
    be a nonnegative integer within the cell's bound), and an equation with
    none must hold.  Every term of the system is nonnegative, so

        mN[z][x][w] <= mats[i][w][x] // phi[i][z]     for each i with phi[i][z] > 0,

    and `bound[z][x][w]` is the least of these; transitivity gives every
    column z of phi a positive entry.  Once the unit column fixes the dual
    involution, values also propagate through the based-ring symmetries

        mN[a][b][c] = mN[b*][a*][c*]      (duality compatibility)
        mN[a][b][c] = mN[b][c*][a*]       (cyclic Frobenius relation)

    The cyclic relation is a consequence of associativity together with the
    duality axioms, so using it for propagation loses no solutions.
    Propagation revisits only the equations and images of the cells
    assigned since its last call.  The search first tries 0 and 1 on the
    free cells of the unit column, which fixes the duality, then every value
    up to the bound on the remaining free cells; a branch copies the values.
    """

    def __init__(self, action: ModuleAction):
        self.action = action
        self.mats = action.mats
        self.m = action.rank
        self.unit = action.unit_module
        # row i: Phi(c_i), the image of the base simple c_i under the free-module map
        self.phi = phi = action.mats[:, :, self.unit]
        self.bound = np.empty((self.m,) * 3, dtype=np.int64)
        for z in range(self.m):
            rows = np.nonzero(phi[:, z])[0]
            if not len(rows):
                raise ModuleError(f"{action.msimples[z]} is not in any c (x) unit")
            # [w][x] least quotient over the rows, stored as [x][w]
            self.bound[z] = (self.mats[rows] // phi[rows, z, None, None]).min(axis=0).T
        self.bound = self.bound.tolist()
        self._prepare_linear_system()

    def _prepare_linear_system(self) -> None:
        """Reduce [phi | I] once, then scale every row to integers.

        A pivot row is [R | E] with R = E phi in reduced row echelon form, so
        phi u = b implies R u = E b; scaled by the lcm d_t of its
        denominators, its pivot coefficient is d_t.  The rows that add no
        pivot give [0 | K] with K phi = 0, so phi u = b is solvable iff K b = 0.
        """
        nb, m = self.phi.shape
        basis: dict[int, list[Fraction]] = {}
        kernel: list[list[Fraction]] = []
        for i in range(nb):
            row = [Fraction(int(v)) for v in self.phi[i]]
            row += [Fraction(int(t == i)) for t in range(nb)]
            residue = reduce_row(basis, row, m, 0, Fraction(1))
            if residue is not None:
                kernel.append(residue[m:])
        self.pivots = sorted(basis)
        self.free_cols = [c for c in range(m) if c not in basis]
        rows = _integer_rows([basis[c] for c in self.pivots], m + nb)
        self.reduced, self.rhs_rows = rows[:, :m], rows[:, m:]
        self.left_kernel = _integer_rows(kernel, nb)

    def _reduce_rhs(self) -> list[list[int]] | None:
        """E b for every pair (x, w), at index x m + w, or None when K b != 0
        for one of them.

        The right-hand sides are the columns of one nb x m**2 integer matrix,
        B[i, x m + w] = mats[i][w][x], so K B and E B are two exact integer
        products, in the dtype `fusion._exact_dtype` picks.
        """
        nb, m = self.phi.shape[0], self.m
        B = self.mats.transpose(0, 2, 1).reshape(nb, m * m)
        E, K = self.rhs_rows, self.left_kernel
        dtype = _exact_dtype((nb, E, B), (nb, K, B))
        B = B.astype(dtype)
        if (K.astype(dtype) @ B).any():
            return None
        return [[int(v) for v in col] for col in (E.astype(dtype) @ B).T]

    def solve(self) -> list[np.ndarray]:
        m = self.m
        self.equations: list[tuple[list, int]] = []
        self.watch: dict[tuple[int, int, int], list[int]] = {}
        red = self._reduce_rhs()
        if red is None:
            return []
        rows = [[(c, int(v)) for c, v in enumerate(row) if v] for row in self.reduced]
        for x in range(m):
            for w in range(m):
                for row, rhs in zip(rows, red[x * m + w]):
                    terms = [((c, x, w), coef) for c, coef in row]
                    for cell, _ in terms:
                        self.watch.setdefault(cell, []).append(len(self.equations))
                    self.equations.append((terms, rhs))

        vals: dict[tuple[int, int, int], int] = {}
        for x in range(m):
            for w in range(m):
                for cell in ((self.unit, x, w), (x, self.unit, w)):
                    if not self._put(vals, cell, int(x == w)):
                        return []
        if not self._propagate(vals, None, None):
            return []
        self.unit_cells = sorted((f, x, self.unit) for f in self.free_cols for x in range(m))
        self.free_cells = sorted(
            (f, x, w) for f in self.free_cols for x in range(m) for w in range(m)
        )
        solutions: list[np.ndarray] = []
        self._search(vals, None, solutions)
        return solutions

    def _put(self, vals, cell, value) -> bool:
        """Assign `cell`, checking its bound."""
        old = vals.get(cell)
        if old is not None:
            return old == value
        z, x, w = cell
        if value < 0 or value > self.bound[z][x][w]:
            return False
        vals[cell] = value
        return True

    def _propagate(self, vals, dual, todo) -> bool:
        """Close `vals` under the forcing rule and, if `dual` is known, the
        symmetries.  `todo` lists the cells assigned since the last closure;
        None stands for every equation."""
        eqs = range(len(self.equations)) if todo is None else ()
        todo = list(todo or ())
        while True:
            for e in eqs:
                terms, rem = self.equations[e]
                unknown = None
                for cell, coef in terms:
                    v = vals.get(cell)
                    if v is not None:
                        rem -= coef * v
                    elif unknown is None:
                        unknown = (cell, coef)
                    else:
                        break
                else:
                    if unknown is None:
                        if rem != 0:
                            return False
                        continue
                    cell, coef = unknown
                    val, rest = divmod(rem, coef)
                    if rest or not self._put(vals, cell, val):
                        return False
                    todo.append(cell)
            if not todo:
                return True
            cell = todo.pop()
            eqs = self.watch.get(cell, ())
            if dual is not None:
                a, b, c = cell
                v = vals[cell]
                for img in ((dual[b], dual[a], dual[c]), (b, dual[c], dual[a]), (dual[c], a, dual[b])):
                    new = img not in vals
                    if not self._put(vals, img, v):
                        return False
                    if new:
                        todo.append(img)

    def _search(self, vals, dual, solutions) -> None:
        cells = self.unit_cells if dual is None else self.free_cells
        cell = next((c for c in cells if c not in vals), None)
        if cell is None and dual is None:
            dual = self._derive_dual(vals)
            if dual is not None and self._propagate(vals, dual, list(vals)):
                self._search(vals, dual, solutions)
            return
        if cell is None:
            # each pivot cell shares an equation with its pair's free cells,
            # so propagation has forced every pivot cell by now
            mN = np.zeros((self.m,) * 3, dtype=np.int64)
            mN[tuple(np.array(list(vals)).T)] = list(vals.values())
            candidate = ModuleTensorData(**_action_fields(self.action), mN=mN, mdual=dual)
            if validate_tensor_data(candidate).ok:
                solutions.append(mN)
            return
        z, x, w = cell
        values = (0, 1) if dual is None else range(self.bound[z][x][w] + 1)
        for value in values:
            state = dict(vals)
            if self._put(state, cell, value) and self._propagate(state, dual, [cell]):
                self._search(state, dual, solutions)

    def _derive_dual(self, vals) -> tuple[int, ...] | None:
        """The involution z -> z* read off the unit column, if it is one."""
        dual = []
        for z in range(self.m):
            row = [vals.get((z, x, self.unit)) for x in range(self.m)]
            if not set(row) <= {0, 1} or row.count(1) != 1:
                return None
            dual.append(row.index(1))
        if any(dual[d] != z for z, d in enumerate(dual)):
            return None
        return tuple(dual)
