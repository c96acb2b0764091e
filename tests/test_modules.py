import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from test_fusion import einsum_validate_ring, perturb

from tracecat.fusion import is_transitive, verlinde_su2
from tracecat.modules import (
    AmbiguousFusion,
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    NoConsistentFusion,
    _FusionSolver,
    action_automorphisms,
    chebyshev_action,
    derive_module_fusion,
    regular_module,
    validate_action,
    validate_tensor_data,
)
from tracecat.packages import (
    BUILTIN_FILES,
    ade_action,
    dynkin_graph,
    load_builtin,
    package_text,
    parse_package,
)
from tracecat.trace import (
    check_adjunction,
    check_forgetful,
    check_splitting_iso,
    check_traciator_iso,
    trace_object,
)


def einsum_validate_action(action: ModuleAction) -> list[str]:
    """The failures of validate_action, built from two dense r**2 m**2 arrays."""
    failures: list[str] = []
    base, mats = action.base, action.mats
    m = action.rank
    if np.min(mats) < 0:
        i, j, l = np.argwhere(mats < 0)[0]
        failures.append(f"negative multiplicity in action of {base.labels[i]}")
    if not np.array_equal(mats[base.unit], np.eye(m, dtype=np.int64)):
        failures.append("unit of the base does not act as the identity")
    lhs = np.einsum("iab,jbc->ijac", mats, mats)
    rhs = np.einsum("ijk,kac->ijac", base.N, mats)
    if not np.array_equal(lhs, rhs):
        i, j, a, c = np.argwhere(lhs != rhs)[0]
        failures.append(
            "module associativity fails at "
            f"M({base.labels[i]}) M({base.labels[j]}) on column {action.msimples[c]}"
        )
    if not is_transitive(mats):
        failures.append("action graph is not connected")
    return failures


def einsum_validate_tensor_data(data: ModuleTensorData) -> list[str]:
    """The failures of validate_tensor_data, with the three-operand einsum."""
    failures = einsum_validate_action(data)
    failures += einsum_validate_ring(data.module_ring())
    phi = data.mats[:, :, data.unit_module]
    mats = data.mats
    compat = np.einsum("iz,zxw->iwx", phi, data.mN)
    if not np.array_equal(compat, mats):
        i, w, x = np.argwhere(compat != mats)[0]
        failures.append(
            "free-module compatibility fails: "
            f"Phi({data.base.labels[i]}) (x) {data.msimples[x]}"
        )
    hom_lhs = np.einsum("ix,jy,xyw->ijw", phi, phi, data.mN)
    hom_rhs = np.einsum("ijk,kw->ijw", data.base.N, phi)
    if not np.array_equal(hom_lhs, hom_rhs):
        i, j, w = np.argwhere(hom_lhs != hom_rhs)[0]
        failures.append(
            "free-module map is not a ring homomorphism at "
            f"({data.base.labels[i]}, {data.base.labels[j]})"
        )
    return failures


def test_chebyshev_d4_level3_matrix():
    # the spec's worked example: M(3) over the D4 star
    action = ade_action("d4", 4)
    M3 = action.mats[2]
    assert list(np.diag(M3)) == [0, 2, 0, 0]
    # multiplicity one between distinct legs
    legs = [0, 2, 3]
    for a in legs:
        for b in legs:
            if a != b:
                assert M3[a, b] == 1


def test_chebyshev_regular_path():
    # SU(2)_2 on the A3 path is the regular action of the base on itself
    action = ade_action("a3", 2)
    base = verlinde_su2(2)
    expected = np.stack([base.action_matrix(i) for i in range(3)])
    assert np.array_equal(action.mats, expected)


def test_chebyshev_rejects_wrong_level():
    labels, adjacency = dynkin_graph("a3")
    with pytest.raises(ModuleError, match="level-4 module graph"):
        chebyshev_action(verlinde_su2(4), adjacency, labels, "a3_at_4")


def test_chebyshev_rejects_asymmetric():
    bad = np.array([[0, 1], [0, 0]])
    with pytest.raises(ModuleError, match="symmetric"):
        chebyshev_action(verlinde_su2(1), bad, ("1", "2"), "bad")


def test_chebyshev_level_zero():
    action = chebyshev_action(
        verlinde_su2(0), np.zeros((1, 1), dtype=int), ("1",), "point"
    )
    assert action.mats.shape == (1, 1, 1)
    with pytest.raises(ModuleError, match="one-vertex"):
        chebyshev_action(verlinde_su2(0), np.zeros((2, 2), dtype=int), ("1", "2"), "x")


def test_tadpoles_are_valid_module_graphs():
    t2 = ade_action("t2", 3, unit="1")
    res = derive_module_fusion(t2)
    # the tadpole ring at level 3 is the golden-ratio ring: t*t = 1 + t
    assert res.data.mN[1, 1, 0] == 1 and res.data.mN[1, 1, 1] == 1

    t3 = ade_action("t3", 5, unit="1")
    assert validate_action(t3).ok
    assert derive_module_fusion(t3).n_solutions == 1


def test_validate_action_catches_broken_associativity():
    action = ade_action("d4", 4)
    mats = np.array(action.mats)
    mats[2][0][0] += 1
    broken = ModuleAction(
        name="broken",
        base=action.base,
        base_spec="su2 4",
        msimples=action.msimples,
        mats=mats,
        unit_module=0,
    )
    report = validate_action(broken)
    assert not report.ok
    assert any("associativity" in f for f in report.failures)


def test_regular_module_fusion_is_base_tensor():
    for k in (4, 10, 16):
        ring = verlinde_su2(k)
        data = regular_module(ring, name=f"a{k + 1}_su2_{k}")
        assert np.array_equal(data.mN, ring.N)
        assert validate_tensor_data(data).ok
        res = derive_module_fusion(data)
        assert np.array_equal(res.data.mN, ring.N)


def test_module_tensor_data_is_a_module_action():
    data = load_builtin("d4_su2_4")
    assert issubclass(ModuleTensorData, ModuleAction) and isinstance(data, ModuleAction)
    assert not hasattr(data, "action")
    assert data.space == "d4_su2_4.module" == data.basis(0).space


def test_module_tensor_data_never_equals_a_plain_action():
    data = load_builtin("d4_su2_4")
    fields = (data.name, data.base, data.base_spec, data.msimples, data.mats, data.unit_module)
    plain = ModuleAction(*fields)
    assert plain == ModuleAction(*fields)
    assert data != plain and plain != data
    assert data == ModuleTensorData(*fields, mN=data.mN)
    assert data != dataclasses.replace(data, mN=2 * data.mN)


def test_module_data_differing_in_any_field_are_unequal():
    data = load_builtin("d4_su2_4")
    changes = {
        "name": "other",
        "base_spec": "file a5_su2_4",
        "msimples": ("a", "b", "c", "d"),
        "mats": 2 * data.mats,
        "unit_module": 1,
        "mN": 2 * data.mN,
        "mdual": data.mdual[:2] + data.mdual[:1:-1],
    }
    assert {f.name for f in dataclasses.fields(data)} == set(changes) | {"base"}
    for name, value in changes.items():
        assert dataclasses.replace(data, **{name: value}) != data, name


def test_module_data_over_a_file_base_differ_from_those_over_su2():
    # a5_su2_4's module ring equals su2_4 as a based ring; only base_spec differs
    text = package_text(load_builtin("d4_su2_4")).replace("base su2 4", "base file a5_su2_4")
    over_file = parse_package(text, base_dir=".")
    d4 = load_builtin("d4_su2_4")
    assert over_file.base == d4.base and np.array_equal(over_file.mN, d4.mN)
    assert over_file != d4
    assert dataclasses.replace(over_file, base_spec="su2 4") == d4


def test_derive_takes_the_action_fields_and_never_the_callers_fusion_tensor():
    data = load_builtin("d4_su2_4")
    wrong = dataclasses.replace(data, mN=np.zeros_like(data.mN))
    result = derive_module_fusion(wrong)
    assert type(result.data) is ModuleTensorData
    assert result.data == data


@pytest.mark.parametrize(
    "kind,level,autos",
    [
        ("d4", 4, 2),
        ("e6", 10, 1),
        ("d10", 16, 2),
        ("e8", 28, 1),
        ("d12", 20, 2),
        ("d14", 24, 2),
        ("d16", 28, 2),
    ],
)
def test_derive_unique_up_to_symmetry(kind, level, autos):
    action = ade_action(kind, level, unit="1")
    result = derive_module_fusion(action)
    assert result.n_solutions == 1
    assert len(result.symmetries) == autos
    assert validate_tensor_data(result.data).ok
    if kind.startswith("d"):
        # Kirillov-Ostrik: the D_even algebra is A = 1 + (k+1)
        expected = [0] * (level + 1)
        expected[0] = expected[level] = 1
        unit = result.data.basis(result.data.unit_module)
        assert trace_object(result.data, unit).mult == tuple(expected)


def test_derive_d4_is_cyclic_on_legs():
    result = derive_module_fusion(ade_action("d4", 4, unit="1"))
    mN = result.data.mN
    i3, i3p = 2, 3
    assert mN[i3, i3, i3p] == 1 and mN[i3, i3, 0] == 0  # 3 (x) 3 = 3'
    assert mN[i3, i3p, 0] == 1 and sum(mN[i3, i3p]) == 1  # 3 (x) 3' = 1


def test_derive_d10_fork_products():
    result = derive_module_fusion(ade_action("d10", 16, unit="1"))
    mN = result.data.mN
    nine, ninep = 8, 9
    assert list(np.nonzero(mN[nine, ninep])[0]) == [2, 6]  # 9 (x) 9' = 3 + 7
    assert np.max(mN[nine, ninep]) == 1  # ...and multiplicity-free
    assert list(np.nonzero(mN[nine, nine])[0]) == [0, 4, 8]  # 9 (x) 9 = 1 + 5 + 9


def test_derive_no_solution_for_module_only_categories():
    # the D5 graph is a perfectly good module category at level 6, but it
    # carries no compatible tensor structure at any unit vertex
    d5 = ade_action("d5", 6, unit="1")
    with pytest.raises(NoConsistentFusion):
        derive_module_fusion(d5)
    # E7 at level 16: a module category only
    e7 = ade_action("e7", 16, unit=None)
    for unit in range(7):
        with pytest.raises(NoConsistentFusion):
            derive_module_fusion(e7, unit_module=unit)


def test_derive_rejects_center_unit_path():
    labels, adjacency = dynkin_graph("a3")
    action = chebyshev_action(verlinde_su2(2), adjacency, labels, "a3c", unit_module="2")
    with pytest.raises(NoConsistentFusion):
        derive_module_fusion(action)


def test_derive_needs_unit():
    e7 = ade_action("e7", 16, unit=None)
    with pytest.raises(ModuleError, match="unit"):
        derive_module_fusion(e7)


def test_graph_automorphisms():
    d10 = ade_action("d10", 16, unit="1")
    perms = action_automorphisms(d10)
    assert len(perms) == 2
    swap = next(p for p in perms if p != tuple(range(10)))
    assert swap[8] == 9 and swap[9] == 8  # exchanges the fork legs

    # without a distinguished unit the A17 path also flips end to end
    a17 = ade_action("a17", 16, unit=None)
    assert len(action_automorphisms(a17)) == 2


def _brute_force_automorphisms(action):
    """Every permutation p with mats[i, p[v], p[u]] = mats[i, v, u], fixing
    the unit module if there is one, in lexicographic order."""
    unit = action.unit_module
    return [
        p
        for p in itertools.permutations(range(action.rank))
        if (unit is None or p[unit] == unit)
        and np.array_equal(action.mats[:, p][:, :, p], action.mats)
    ]


SMALL_BUILTINS = [n for n in (*BUILTIN_FILES, "a5_su2_4") if load_builtin(n).rank <= 7]


@pytest.mark.parametrize("name", [*SMALL_BUILTINS, "reg_d4"])
def test_automorphisms_match_brute_force(name):
    if name == "reg_d4":  # unlike every builtin's, its matrices are not all symmetric
        action = regular_module(load_builtin("d4_su2_4").module_ring(), name=name)
    else:
        action = load_builtin(name)
    unitless = ModuleAction(action.name, action.base, action.base_spec, action.msimples, action.mats)
    for a in (action, unitless):
        assert action_automorphisms(a) == _brute_force_automorphisms(a)


def test_automorphisms_of_a_relabelled_action_are_conjugates():
    d10 = ade_action("d10", 16, unit="1")
    s = (3, 8, 0, 6, 9, 1, 4, 2, 7, 5)  # the new label of each old simple
    inv = np.argsort(s)
    relabelled = ModuleAction(
        "d10_relabelled",
        d10.base,
        d10.base_spec,
        tuple(d10.msimples[i] for i in inv),
        d10.mats[:, inv][:, :, inv],
        s[d10.unit_module],
    )
    conjugates = sorted(tuple(s[p[i]] for i in inv) for p in action_automorphisms(d10))
    assert action_automorphisms(relabelled) == conjugates
    assert len(conjugates) == 2


def test_automorphism_acts_on_fusion_tensor():
    result = derive_module_fusion(ade_action("d10", 16, unit="1"))
    mN = result.data.mN
    for p in result.symmetries:
        perm = list(p)
        assert np.array_equal(mN[np.ix_(perm, perm, perm)], mN)


def test_ambiguity_reporting():
    # no honest two-solution action is known at these ranks (the committed
    # packages are all unique), so the ambiguity channel is exercised on a
    # synthetic pair of tensors
    with pytest.raises(AmbiguousFusion) as excinfo:
        raise AmbiguousFusion("2 fusion tensors", [np.zeros((1, 1, 1))] * 2)
    assert len(excinfo.value.solutions) == 2


def test_classification_scan():
    # which graph/unit pairs carry a module tensor structure mirrors the
    # classical classification: both ends of A_n, the non-loop end of T_n,
    # the long-arm end of D_even, both long ends of E6, the arm end of E8,
    # and nothing anywhere on D_odd or E7
    from tracecat.fusion import verlinde_su2
    from tracecat.packages import dynkin_graph

    expected = {
        ("a4", 3): {"1", "4"},
        ("t2", 3): {"1"},
        ("d4", 4): {"1", "3", "3'"},  # every D4 leg is symmetric to the unit leg
        ("d5", 6): set(),
        ("d6", 8): {"1"},
        ("e6", 10): {"1", "6"},
        ("e7", 16): set(),
    }
    for (kind, level), units in expected.items():
        labels, adjacency = dynkin_graph(kind)
        action = chebyshev_action(
            verlinde_su2(level), adjacency, labels, f"{kind}_{level}"
        )
        found = set()
        for unit in range(len(labels)):
            try:
                derive_module_fusion(action, unit_module=unit)
                found.add(labels[unit])
            except NoConsistentFusion:
                pass
        assert found == units, (kind, level, found)


def test_validation_matches_einsum_reference_on_builtins():
    for name in BUILTIN_FILES + ("a5_su2_4",):
        data = load_builtin(name)
        if isinstance(data, ModuleTensorData):
            assert validate_tensor_data(data).failures == []
            assert einsum_validate_tensor_data(data) == []
        assert validate_action(data).failures == einsum_validate_action(data) == []


@pytest.mark.parametrize("entries", [1, 2])
def test_validate_action_matches_einsum_reference_on_perturbations(entries):
    rng = np.random.default_rng(10 + entries)
    broken = 0
    for k in range(8):
        action = regular_module(verlinde_su2(k))
        for _ in range(20):
            mats = perturb(action.mats, rng, entries)
            bad = ModuleAction("bad", action.base, action.base_spec, action.msimples, mats)
            expected = einsum_validate_action(bad)
            assert validate_action(bad).failures == expected
            broken += any(f.startswith("module associativity") for f in expected)
    assert broken >= 40  # most witnesses compared are associativity witnesses


@pytest.mark.parametrize("entries", [1, 2])
def test_validate_tensor_data_matches_einsum_reference_on_perturbations(entries):
    rng = np.random.default_rng(20 + entries)
    seen: list[str] = []
    for k in range(8):
        data = regular_module(verlinde_su2(k))  # unit module 0
        m = data.rank
        for _ in range(20):
            # one stack holding the action and the module fusion tensor
            both = perturb(np.concatenate([data.mats, data.mN]), rng, entries)
            bad = dataclasses.replace(data, name="bad", mats=both[:m], mN=both[m:])
            expected = einsum_validate_tensor_data(bad)
            assert validate_tensor_data(bad).failures == expected
            seen += expected
    assert any(f.startswith("free-module compatibility fails") for f in seen)
    assert any(f.startswith("free-module map is not a ring homomorphism") for f in seen)


def test_validate_action_memory_is_cubic_in_the_rank():
    action = regular_module(verlinde_su2(60))
    tracemalloc.start()
    try:
        assert validate_action(action).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20  # the two r**2 m**2 arrays alone took 221 MB


def test_rhs_outside_the_image_of_phi_has_no_fusion():
    d5 = ade_action("d5", 6, unit="1")
    assert _FusionSolver(d5)._reduce_rhs() is None  # some K b != 0
    with pytest.raises(NoConsistentFusion) as excinfo:
        derive_module_fusion(d5)
    assert str(excinfo.value) == "no consistent fusion tensor for d5_su2_6 with unit 1"


@pytest.mark.parametrize("kind,level", [("d18", 32), ("d22", 40)])
def test_derive_and_verify_d_even_beyond_the_builtins(kind, level):
    result = derive_module_fusion(ade_action(kind, level, unit="1"))
    assert result.n_solutions == 1
    m = result.data.rank
    fork_swap = tuple(range(m - 2)) + (m - 1, m - 2)
    assert sorted(result.symmetries) == [tuple(range(m)), fork_swap]
    data = result.data
    for check in (
        validate_tensor_data,
        check_splitting_iso,
        check_traciator_iso,
        check_adjunction,
        check_forgetful,
    ):
        assert check(data).failures == []


# the units that admit a module fusion tensor, with the first 16 hex digits of
# the sha256 of the derived package text, as derived by the solver with
# dimension row sums and Fraction equations; every other unit has none
DERIVED_UNITS = {
    "d4_su2_4": {"1": "8bce53ece02e6b51", "3": "9b727f3cf0cb9b4d", "3'": "f7bcb76ef3137bd6"},
    "e6_su2_10": {"1": "14f62bfbe967e987", "6": "859e56b036731334"},
    "e8_su2_28": {"1": "6d49b814cb99282a"},
    "d10_su2_16": {"1": "f4eb07b270b649ff"},
    "e7_su2_16": {},
    "a17_su2_16": {"1": "b16c9974bdef1b3a", "17": "1b45800a01e206b3"},
    "a5_su2_4": {"1": "9ba586997909a7e7", "5": "e9ec545d5031290e"},
}


@pytest.mark.parametrize("name", BUILTIN_FILES + ("a5_su2_4",))
def test_derive_verdict_for_every_unit_of_every_builtin(name):
    action = load_builtin(name)
    got = {}
    for unit in action.msimples:
        try:
            result = derive_module_fusion(action, unit)
        except NoConsistentFusion as exc:
            assert str(exc) == f"no consistent fusion tensor for {name} with unit {unit}"
            continue
        assert result.n_solutions == 1
        text = package_text(result.data).encode()
        got[unit] = hashlib.sha256(text).hexdigest()[:16]
    assert got == DERIVED_UNITS[name]
