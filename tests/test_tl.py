import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from tracecat import cli, tl
from tracecat.cyclo import Cyc, scalar_field
from tracecat.tl import (
    PlanarDiagram,
    TLMorphism,
    all_diagrams,
    braid_blocks,
    braiding,
    cap,
    compose,
    cup,
    e_generator,
    embed,
    extract_scalar,
    identity,
    identity_suite,
    jones_wenzl,
    jw_by_annihilation,
    pivotal_trace,
    simple_object,
    tensor,
    traciator_self_action,
    twist,
    twist_morphism,
)

K = 4
F = scalar_field(K)
DELTA = F.loop_value()


def test_planar_diagram_validation():
    with pytest.raises(ValueError):
        PlanarDiagram(2, 2, (1, 0, 3, 2, 5, 4))  # wrong length
    with pytest.raises(ValueError):
        PlanarDiagram(2, 2, (3, 2, 1, 0))  # crossing chords
    PlanarDiagram(2, 2, (1, 0, 3, 2))  # cup over cap is fine
    PlanarDiagram(2, 2, (2, 3, 0, 1))  # so is the identity


def test_diagram_counts_are_catalan():
    assert len(all_diagrams(2, 2)) == 2
    assert len(all_diagrams(3, 3)) == 5
    assert len(all_diagrams(4, 4)) == 14
    assert len(all_diagrams(0, 6)) == 5


def _involutions(points):
    """Every fixed-point-free involution of `points`, as {point: mate}."""
    if not points:
        yield {}
        return
    first = points[0]
    for j in range(1, len(points)):
        for rest in _involutions(points[1:j] + points[j + 1 :]):
            yield {**rest, first: points[j], points[j]: first}


def test_all_diagrams_are_the_planar_involutions():
    for n in range(0, 11, 2):
        involutions = [tuple(inv[p] for p in range(n)) for inv in _involutions(list(range(n)))]
        for nb in range(n + 1):
            planar = set()
            for pairing in involutions:
                try:
                    planar.add(PlanarDiagram(nb, n - nb, pairing))
                except ValueError:
                    pass
            got = all_diagrams(nb, n - nb)
            assert len(got) == len(set(got)) and set(got) == planar


def test_loop_value():
    closed = compose(cap(F), cup(F))
    empty = PlanarDiagram(0, 0, ())
    assert closed.terms[empty] == DELTA


def test_tl_relations():
    for n in (3, 4):
        for i in range(n - 1):
            e = e_generator(F, n, i)
            assert compose(e, e) == e.scaled(DELTA)
            if i + 1 < n - 1:
                f = e_generator(F, n, i + 1)
                assert compose(e, compose(f, e)) == e
                assert compose(f, compose(e, f)) == f
    e0, e2 = e_generator(F, 4, 0), e_generator(F, 4, 2)
    assert compose(e0, e2) == compose(e2, e0)


def test_compose_boundary_mismatch():
    with pytest.raises(ValueError):
        compose(identity(F, 2), identity(F, 3))


def test_identity_neutral():
    f = braiding(F)
    assert compose(identity(F, 2), f) == f
    assert compose(f, identity(F, 2)) == f


def test_braiding_inverse_and_reidemeister():
    b, binv = braiding(F, True), braiding(F, False)
    assert compose(b, binv) == identity(F, 2)
    assert compose(binv, b) == identity(F, 2)
    b1, b2 = embed(b, 0, 1), embed(b, 1, 0)
    assert compose(b1, compose(b2, b1)) == compose(b2, compose(b1, b2))


def test_curl_scalar():
    # closing the positive crossing gives i q^(3/2); Reidemeister I fails by it
    got = twist(jones_wenzl(1, F))
    expected = F.imag_unit() * F.q_half(3)
    assert got == expected
    assert got != F.one


@pytest.mark.parametrize("n", range(5))
def test_jones_wenzl_idempotent_and_killed(n):
    p = jones_wenzl(n, F).proj
    assert compose(p, p) == p
    for i in range(n - 1):
        assert compose(embed(cap(F), i, n - 2 - i), p).is_zero()
        assert compose(p, embed(cup(F), i, n - 2 - i)).is_zero()
    assert pivotal_trace(p, "left") == F.quantum_integer(n + 1)
    assert pivotal_trace(p, "right") == F.quantum_integer(n + 1)


def test_jones_wenzl_alcove_wall():
    # at level k the recursion stops after k+1 strands
    F2 = scalar_field(2)
    top = jones_wenzl(3, F2)  # n = k+1 is allowed...
    assert pivotal_trace(top.proj, "left").is_zero()  # ...with trace [4] = 0
    with pytest.raises(ValueError, match="quantum integer"):
        jones_wenzl(4, F2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jones_wenzl_unique_by_annihilation(n):
    assert jw_by_annihilation(n, F) == jones_wenzl(n, F).proj


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twist_matches_kauffman_oracle(n):
    # independent oracle: the positive curl acts on the n-strand projector
    # by (-1)^n A^(n(n+2)) where A = i q^(1/2)
    x = jones_wenzl(n, F)
    th = twist(x)
    A = F.zeta(K + 3)
    oracle = A ** (n * (n + 2))
    if n % 2:
        oracle = -oracle
    assert th == oracle
    assert extract_scalar(twist_morphism(x, True, "left"), x.proj) == oracle


def test_twist_unit_variants():
    assert twist(jones_wenzl(0, F)) == F.one
    # an unknown side fails on every object, the unit included
    for x in (jones_wenzl(0, F), jones_wenzl(1, F)):
        with pytest.raises(ValueError, match="side must be"):
            twist_morphism(x, True, "sideways")


def test_pivotal_trace_spherical():
    f = compose(braid_blocks(F, 1, 2), braid_blocks(F, 2, 1))
    assert pivotal_trace(f, "left") == pivotal_trace(f, "right")
    zero = identity(F, 2) - identity(F, 2)
    assert pivotal_trace(zero, "left").is_zero()


def test_traciator_unit_cases():
    u = jones_wenzl(0, F)
    x = simple_object(3, F)
    theta = twist_morphism(x, True, "right")
    assert traciator_self_action(x, u, "+") == x.proj
    assert traciator_self_action(u, x, "+") == theta
    assert traciator_self_action(u, x, "-") == x.proj
    assert traciator_self_action(x, u, "-") == twist_morphism(x, False, "right")


def test_traciator_inverse_pair():
    # the spec's (n, m) = (2, 2) example, plus an asymmetric pair
    for la, lb in [(2, 2), (3, 2)]:
        x, y = simple_object(la, F), simple_object(lb, F)
        plus = traciator_self_action(y, x, "+")
        minus = traciator_self_action(x, y, "-")
        assert compose(minus, plus) == tensor(y.proj, x.proj)
        assert compose(plus, minus) == tensor(x.proj, y.proj)


def test_traciator_is_braiding_after_twist():
    for la, lb in [(2, 2), (2, 3), (3, 2)]:
        x, y = simple_object(la, F), simple_object(lb, F)
        got = traciator_self_action(x, y, "+")
        block = braid_blocks(F, x.strands, y.strands, True)
        beta = compose(tensor(y.proj, x.proj), compose(block, tensor(x.proj, y.proj)))
        assert got == compose(beta, tensor(x.proj, twist_morphism(y, True, "right")))


def test_traciator_composition_law():
    x, y, z = (simple_object(l, F) for l in (2, 3, 2))
    lhs = traciator_self_action(x, y.tensor(z), "+")
    rhs = compose(
        traciator_self_action(z.tensor(x), y, "+"),
        traciator_self_action(x.tensor(y), z, "+"),
    )
    assert lhs == rhs


def test_double_traciator_is_twist():
    x, y = simple_object(2, F), simple_object(3, F)
    composed = compose(
        traciator_self_action(y, x, "+"), traciator_self_action(x, y, "+")
    )
    assert composed == twist_morphism(x.tensor(y), True, "right")


def test_rotation_duality():
    x = simple_object(3, F)
    theta = twist_morphism(x, True, "right")
    # theta is self-dual here: every simple is its own dual
    assert theta.rotate180() == theta
    b = braiding(F, True)
    assert b.rotate180() == b


def test_delta_powers_follow_a_rebuilt_field():
    # a field freed from the level cache leaves its id free for the next one;
    # the powers of delta must still be the new field's own
    cache = type(scalar_field(2)).for_level
    for k in (2, 4, 10) * 10:
        cache.cache_clear()
        f = scalar_field(k)
        assert tl._delta_power(f, 1) == f.loop_value()
        assert tl._delta_power(f, 3) == f.loop_value() ** 3
        del f
    cache.cache_clear()


def test_delta_powers_evaluate_delta_once_per_field(monkeypatch):
    calls = []
    loop_value = type(F).loop_value

    def counting(field):
        calls.append(field)
        return loop_value(field)

    tl._delta_power.cache_clear()
    monkeypatch.setattr(type(F), "loop_value", counting)
    assert tl._delta_power(F, 2) == tl._delta_power(F, 1) * DELTA
    assert tl._delta_power(F, 5) == DELTA**5
    assert calls == [F]
    tl._delta_power.cache_clear()


def test_identity_suite_small_level():
    report = identity_suite(2)
    assert report.ok, [c for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    assert "traciator_composition" in names
    assert "quantum_dims_nonzero" in names


@pytest.mark.parametrize(
    "k,strand_cap,message",
    [
        (-1, None, "level must be nonnegative"),
        (-2, 3, "level must be nonnegative"),
        (2, 0, "strand cap must be at least 1"),
        (2, -1, "strand cap must be at least 1"),
        (2, 7, "strand cap 7 exceeds the maximum 6"),
    ],
)
def test_identity_suite_rejects_bad_arguments(k, strand_cap, message):
    with pytest.raises(ValueError, match=message):
        identity_suite(k, strand_cap=strand_cap)


def test_identity_suite_failure_names_the_exception_type(monkeypatch):
    def inconsistent(n, field):
        raise ValueError("inconsistent linear system")

    monkeypatch.setattr(tl, "jw_by_annihilation", inconsistent)
    report = identity_suite(2, strand_cap=2)
    assert (
        "FAIL  jw_unique_by_annihilation  "
        "(error: ValueError: inconsistent linear system)"
    ) in report.lines()
    assert sum(line.startswith("FAIL") for line in report.lines()) == 1


def test_identity_suite_is_exact_only():
    with pytest.raises(ValueError, match="the identity suite is exact only"):
        identity_suite(2, exact=False)


def test_jones_wenzl_two_strand_formula():
    # f_2 = id - (1/[2]) e, with closed trace [3]
    p = jones_wenzl(2, F).proj
    e = e_generator(F, 2, 0)
    expected = identity(F, 2) - e.scaled(F.quantum_integer(2).inverse())
    assert p == expected
    assert pivotal_trace(p, "left") == F.quantum_integer(3)


def test_traciator_accepts_projectors_directly():
    x, y = jones_wenzl(1, F), jones_wenzl(2, F)
    plus = traciator_self_action(x, y, "+")
    minus = traciator_self_action(y, x, "-")
    assert compose(minus, plus) == tensor(x.proj, y.proj)
    with pytest.raises(ValueError):
        traciator_self_action(x, y, "?")


# -- the kernel: interned diagrams, O(n) planarity, local crossings -------------


def _chord_test(nb, nt, pairing):
    """The quadratic reference: no two chords interleave in disk order."""

    def cpos(p):
        return p if p < nb else nb + (nt - 1 - (p - nb))

    chords = [tuple(sorted((cpos(p), cpos(q)))) for p, q in enumerate(pairing) if p < q]
    return not any(
        a < c < b < d or c < a < d < b
        for i, (a, b) in enumerate(chords)
        for c, d in chords[i + 1 :]
    )


def _involutions(points):
    """Every fixed-point-free involution of `points`, as {point: partner}."""
    if not points:
        yield {}
        return
    first, rest = points[0], points[1:]
    for j, mate in enumerate(rest):
        for sub in _involutions(rest[:j] + rest[j + 1 :]):
            yield {**sub, first: mate, mate: first}


def test_linear_planarity_check_matches_chord_test():
    checked = 0
    for n in range(0, 11, 2):
        for inv in _involutions(tuple(range(n))):
            pairing = tuple(inv[p] for p in range(n))
            for nb in range(n + 1):
                nt = n - nb
                assert tl._is_noncrossing(nb, nt, pairing) == _chord_test(nb, nt, pairing)
                checked += 1
    # (n-1)!! involutions of n points, each under n + 1 splits
    involutions = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105, 10: 945}
    assert checked == sum((n + 1) * c for n, c in involutions.items())


@lru_cache(maxsize=None)
def _reference_glue(top, bottom):
    """`top` stacked onto `bottom` by union-find over the chords of both
    diagrams and the seam identifications.  Bottom's points are 0..a+b-1 and
    top's a+b..a+2b+c-1; seam point j joins a+j to a+b+j.  A component with
    outer points is a chord of the result, any other one a closed loop."""
    a, b, c = bottom.n_bottom, bottom.n_top, top.n_top
    off = a + b
    parent = list(range(off + b + c))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    chords = list(enumerate(bottom.pairing))
    chords += [(off + p, off + q) for p, q in enumerate(top.pairing)]
    chords += [(a + j, off + j) for j in range(b)]
    for u, v in chords:
        parent[find(u)] = find(v)
    ends = {}
    for i, u in enumerate([*range(a), *range(off + b, off + b + c)]):
        ends.setdefault(find(u), []).append(i)
    pairing = [0] * (a + c)
    for i, j in ends.values():
        pairing[i], pairing[j] = j, i
    loops = len({find(u) for u in parent}) - len(ends)
    return loops, PlanarDiagram(a, c, tuple(pairing))


def test_glue_equals_the_union_find_reference_on_every_small_pair():
    pairs = looped = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for bottom in all_diagrams(a, b):
                    for top in all_diagrams(b, c):
                        loops, diag = tl._glue(top, bottom)
                        want_loops, want = _reference_glue(top, bottom)
                        assert loops == want_loops
                        assert diag is tl._diagram(a, c, want.pairing)
                        pairs += 1
                        looped += loops > 0
    assert pairs == 579 and looped > 100


def _single_diagrams(field, max_top):
    for nb in range(5):
        for nt in range(max_top + 1):
            for d in all_diagrams(nb, nt):
                yield TLMorphism(field, nb, nt, {d: field.q_half(1)})


@pytest.mark.parametrize("k", [2, 4])
def test_local_crossing_equals_glued_braiding(k):
    field = scalar_field(k)
    for m in _single_diagrams(field, 4):
        n = m.n_top
        for over in (True, False):
            for pos in range(n - 1):
                local = tl._apply_block_crossings(m, pos, 1, 1, over)
                glued = compose(embed(braiding(field, over), pos, n - 2 - pos), m)
                assert local.terms == glued.terms


@pytest.mark.parametrize("k", [2, 4])
def test_local_caps_equal_glued_caps(k):
    field = scalar_field(k)
    for m in _single_diagrams(field, 6):
        n = m.n_top
        for width in range(1, n // 2 + 1):
            for start in range(n - 2 * width + 1):
                local = tl._cap_off(m, start, width)
                glued = compose(embed(cap(field, width), start, n - start - 2 * width), m)
                assert local.terms == glued.terms


def test_interned_diagram_equals_public_one():
    for nb, nt, pairing in [(2, 2, (1, 0, 3, 2)), (0, 6, (5, 2, 1, 4, 3, 0)), (0, 0, ())]:
        interned = tl._diagram(nb, nt, pairing)
        public = PlanarDiagram(nb, nt, pairing)
        assert interned is tl._diagram(nb, nt, pairing)
        assert interned is not public
        assert interned == public and hash(interned) == hash(public)
        assert {interned: 1}[public] == 1


@pytest.mark.parametrize(
    "nb, nt, pairing",
    [
        (1, 2, (1, 0, 2)),  # odd
        (2, 2, (1, 0)),  # wrong length
        (2, 2, (1, 2, 3, 0)),  # not an involution
        (2, 2, (0, 3, 2, 1)),  # fixed point
        (2, 2, (1, 0, 3, 4)),  # partner out of range
        (2, 2, (3, 2, 1, 0)),  # crossing chords
        (-2, 4, (1, 0)),  # negative bottom
        (3, -1, (1, 0)),  # negative top
        (-2, 2, ()),  # negative bottom, no points
    ],
)
def test_every_construction_path_rejects_bad_pairings(nb, nt, pairing):
    tl._diagram(2, 2, (1, 0, 3, 2))  # a valid diagram already interned
    with pytest.raises(ValueError):
        PlanarDiagram(nb, nt, pairing)
    with pytest.raises(ValueError):
        tl._diagram(nb, nt, pairing)
    if min(nb, nt) < 0:
        with pytest.raises(ValueError, match="negative boundary size"):
            all_diagrams(nb, nt)


def test_crossings_and_curls_glue_nothing(monkeypatch):
    def no_glue(top, bottom):
        raise AssertionError("full-width gluing")

    monkeypatch.setattr(tl, "_glue", no_glue)
    assert braid_blocks.__wrapped__(F, 3, 3).terms
    for side in ("right", "left"):
        curl = _curl_middle(F, 3, True, side)
        assert (curl.n_bottom, curl.n_top) == (3, 3) and curl.terms


def _curl_middle(field, n, positive, side, wrap=tl._wrap_right.__wrapped__):
    """The unprojected curl of twist_morphism: the right wrap of n strands
    around themselves, or its mirror image (built afresh by default)."""
    curl = wrap(field, n, n, positive)
    return curl if side == "right" else curl.mirror()


def _traciator_middle(field, p, q, sign, wrap=tl._wrap_right.__wrapped__):
    """The unprojected traciator of traciator_self_action on p + q strands:
    '+' wraps the right q strands over to the right, '-' is the mirror image
    of the right wrap of p strands under, the left p strands wrapping left."""
    if sign == "+":
        return wrap(field, p + q, q, True)
    return wrap(field, p + q, p, False).mirror()


# -- mirror images: a reflection that fixes every crossing -----------------------


def _random_word(field, n, rng, length=4):
    """A random combination of products of TL generators and crossings on n
    strands, capped and cupped on random sides, so its two boundaries vary."""
    out = identity(field, n).scaled(field.q_half(rng.randrange(8)))
    for _ in range(length):
        gens = [identity(field, n)] + [e_generator(field, n, i) for i in range(n - 1)]
        gens += [embed(braiding(field, rng.random() < 0.5), i, n - 2 - i) for i in range(n - 1)]
        step = rng.choice(gens).scaled(field.q_half(rng.randrange(-4, 5)))
        out = compose(step + rng.choice(gens), out)
    if n >= 2 and rng.random() < 0.5:
        i = rng.randrange(n - 1)
        out = compose(embed(cap(field), i, n - 2 - i), out)
    if rng.random() < 0.5:
        i = rng.randrange(out.n_top + 1)
        out = compose(embed(cup(field), i, out.n_top - i), out)
    return out


def test_mirror_reverses_strands_and_fixes_every_crossing():
    for n in range(2, 6):
        for i in range(n - 1):
            assert e_generator(F, n, i).mirror() == e_generator(F, n, n - 2 - i)
    for over in (True, False):
        assert braiding(F, over).mirror() == braiding(F, over)
    m = tensor(identity(F, 1), cup(F))
    assert m.mirror() == tensor(cup(F), identity(F, 1))
    assert cap(F, 2).mirror() == cap(F, 2) and identity(F, 3).mirror() == identity(F, 3)


@pytest.mark.parametrize("k", [2, 4])
def test_mirror_is_an_involution_and_commutes_with_compose(k):
    field, rng = scalar_field(k), random.Random(k)
    for _ in range(30):
        n = rng.randrange(1, 5)
        g = _random_word(field, n, rng)
        f = _random_word(field, g.n_top, rng)
        assert g.mirror().mirror().terms == g.terms
        assert (g.mirror().n_bottom, g.mirror().n_top) == (g.n_bottom, g.n_top)
        assert compose(f, g).mirror() == compose(f.mirror(), g.mirror())


@pytest.mark.parametrize("k", [2, 4])
def test_mirror_reverses_the_order_of_tensor(k):
    field, rng = scalar_field(k), random.Random(100 + k)
    for _ in range(30):
        f = _random_word(field, rng.randrange(1, 4), rng)
        g = _random_word(field, rng.randrange(1, 4), rng)
        assert tensor(f, g).mirror() == tensor(g.mirror(), f.mirror())


# -- the wraps: each strand capped as soon as its crossings end -----------------


def _full_width_curl(field, n, positive, side):
    """The reference curl: all n*n crossings on 3n top points, then n nested caps."""
    if side == "right":
        m = tensor(identity(field, n), cup(field, n))
        return tl._cap_off(tl._apply_block_crossings(m, 0, n, n, positive), n, n)
    m = tensor(cup(field, n), identity(field, n))
    return tl._cap_off(tl._apply_block_crossings(m, n, n, n, positive), 0, n)


def _composed_traciator(field, p, q, sign, memo):
    """The reference traciator: wide wraps composed from single-strand wraps by
    the composition law, narrow ones crossed in full and then capped."""
    key = (p, q, sign)
    if key in memo:
        return memo[key]
    if sign == "+" and q > 2:
        out = compose(
            _composed_traciator(field, 1 + p, q - 1, sign, memo),
            _composed_traciator(field, p + q - 1, 1, sign, memo),
        )
    elif sign == "+":
        m = tensor(identity(field, p + q), cup(field, q))
        out = tl._cap_off(tl._apply_block_crossings(m, 0, p + q, q, True), q + p, q)
    elif p > 2:
        out = compose(
            _composed_traciator(field, p - 1, q + 1, sign, memo),
            _composed_traciator(field, 1, p - 1 + q, sign, memo),
        )
    else:
        m = tensor(cup(field, p), identity(field, p + q))
        out = tl._cap_off(tl._apply_block_crossings(m, p, p, p + q, False), 0, p)
    memo[key] = out
    return out


def _same_terms(got, want):
    """got equals the reference want term by term: the same diagrams, with
    equal coefficients."""
    assert (got.n_bottom, got.n_top) == (want.n_bottom, want.n_top)
    assert got.terms == want.terms


@pytest.mark.parametrize("k", [2, 4, 10])
def test_early_capped_curls_equal_full_width_ones(k):
    field = scalar_field(k)
    for n in range(1, 6):
        for positive in (True, False):
            for side in ("right", "left"):
                want = _full_width_curl(field, n, positive, side)
                _same_terms(_curl_middle(field, n, positive, side), want)


@pytest.mark.parametrize("k", [2, 4, 10])
def test_direct_traciators_equal_composed_ones(k):
    field, memo = scalar_field(k), {}
    for p in range(7):
        for q in range(7 - p):
            for sign in "+-":
                want = _composed_traciator(field, p, q, sign, memo)
                _same_terms(_traciator_middle(field, p, q, sign), want)


def test_traciators_compose_and_glue_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a traciator was composed or glued")

    monkeypatch.setattr(tl, "compose", refuse)
    monkeypatch.setattr(tl, "_glue", refuse)
    for p in range(7):
        for q in range(7 - p):
            for sign in "+-":
                mid = _traciator_middle(F, p, q, sign)
                assert (mid.n_bottom, mid.n_top) == (p + q, p + q)


def _clear_tl_caches():
    for obj in vars(tl).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_identity_suite_validates_each_pairing_once(monkeypatch):
    validated = Counter()
    original = PlanarDiagram.__post_init__

    def counting(self):
        validated[(self.n_bottom, self.n_top, self.pairing)] += 1
        original(self)

    _clear_tl_caches()
    monkeypatch.setattr(PlanarDiagram, "__post_init__", counting)
    assert identity_suite(2).ok
    assert validated and max(validated.values()) == 1
    assert len(validated) == tl._diagram.cache_info().currsize


def test_diagram_tables_stay_within_their_bound(monkeypatch):
    for table in (tl._diagram, tl._glue):
        assert table.cache_info().maxsize == tl._TABLE_BOUND
    # the same tables at a bound of 10 evict entries and still compute the same
    _clear_tl_caches()
    for name in ("_diagram", "_glue"):
        monkeypatch.setattr(tl, name, lru_cache(maxsize=10)(getattr(tl, name).__wrapped__))
    for n in (2, 3, 4):
        assert jw_by_annihilation(n, F) == jones_wenzl(n, F).proj
        for table in (tl._diagram, tl._glue):
            assert table.cache_info().currsize <= 10
    # more entries than the bound went through each table
    assert tl._diagram.cache_info().misses > 10 and tl._glue.cache_info().misses > 10
    monkeypatch.undo()
    _clear_tl_caches()
    assert identity_suite(2).ok
    for table in (tl._diagram, tl._glue):
        assert 0 < table.cache_info().currsize <= tl._TABLE_BOUND


def test_tensor_interns_after_the_diagram_table_is_emptied():
    f, g = identity(F, 1), cup(F)
    tensor(f, g)
    tl._diagram.cache_clear()
    (d,) = tensor(f, g).terms
    assert tl._diagram.cache_info().currsize > 0
    assert d is tl._diagram(d.n_bottom, d.n_top, d.pairing)


BROKEN_CROSSING_FAILS = [
    "FAIL  braid_inverse_reidemeister_2_3  (braiding not invertible)",
    "FAIL  traciator_inverse  (tau- tau+ != id at (2, 1))",
    "FAIL  traciator_zigzag  (zig-zag fails at (2, 1))",
    "FAIL  two_twists_ribbon_pivotal  (pivotal morphism is not the identity at label 2)",
]


@pytest.fixture
def under_crossing_is_the_over_one(monkeypatch):
    crossing = tl._crossing_coefficients
    monkeypatch.setattr(tl, "_crossing_coefficients", lambda field, over: crossing(field, True))
    _clear_tl_caches()
    yield
    monkeypatch.undo()
    _clear_tl_caches()


@pytest.mark.parametrize("k", [2, 4])
def test_identity_suite_fails_on_a_broken_crossing(k, under_crossing_is_the_over_one):
    lines = identity_suite(k).lines()
    assert [line for line in lines if line.startswith("FAIL")] == BROKEN_CROSSING_FAILS
    assert sum(line.startswith("PASS") for line in lines) == 10


def test_verify_suite_exits_one_on_a_broken_crossing(capsys, under_crossing_is_the_over_one):
    assert cli.main(["verify", "--suite", "tl", "--k", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == BROKEN_CROSSING_FAILS


def test_morphisms_are_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'TLMorphism'"):
        hash(identity(F, 1))


# -- projected wraps: one projector, carried through by naturality --------------


def test_projected_wraps_compose_once(monkeypatch):
    x, y = simple_object(2, F), simple_object(3, F)
    xy = x.tensor(y)
    calls = []
    compose_ = tl.compose

    def counting(f, g):
        calls.append(f)
        return compose_(f, g)

    monkeypatch.setattr(tl, "compose", counting)
    for sign in "+-":
        calls.clear()
        traciator_self_action(x, y, sign)
        assert len(calls) == 1
    for positive in (True, False):
        for side in ("right", "left"):
            calls.clear()
            twist_morphism(xy, positive, side)
            assert len(calls) == 1


def _two_sided(bottom, middle, top):
    """The reference projected wrap: the middle between both projectors."""
    return compose(top.proj, compose(middle, bottom.proj))


def _product(field, labels):
    out = jones_wenzl(0, field)
    for a in labels:
        out = out.tensor(simple_object(a, field))
    return out


@pytest.mark.parametrize("k, width", [(2, 5), (4, 5), (10, 4)])
def test_wraps_projected_once_equal_two_sided_ones(k, width):
    field = scalar_field(k)
    labels = [a for a in range(1, k + 2) if a - 1 <= width]
    pairs = [(a, b) for a in labels for b in labels if a + b - 2 <= width]
    for a, b in pairs:
        xy, yx = _product(field, (a, b)), _product(field, (b, a))
        p, q = a - 1, b - 1
        for sign in "+-":
            want = _two_sided(xy, _traciator_middle(field, p, q, sign, tl._wrap_right), yx)
            x, y = simple_object(a, field), simple_object(b, field)
            _same_terms(traciator_self_action(x, y, sign), want)
        for over in (True, False):
            want = _two_sided(xy, braid_blocks(field, p, q, over), yx)
            _same_terms(compose(braid_blocks(field, p, q, over), xy.proj), want)
    # curls on every simple and every two-factor product of positive width
    for parts in [(a,) for a in labels if a > 1] + [ab for ab in pairs if sum(ab) > 2]:
        x = _product(field, parts)
        for positive in (True, False):
            for side in ("right", "left"):
                middle = _curl_middle(field, x.strands, positive, side, tl._wrap_right)
                want = _two_sided(x, middle, x)
                _same_terms(twist_morphism(x, positive, side), want)


# -- the block compose against the term-by-term reference ------------------------


def _reference_compose(f, g):
    """f after g summed one term pair at a time in `Cyc` arithmetic, each
    pair glued by the union-find reference."""
    field, terms = f.field, {}
    for dg, cg in g.terms.items():
        for df, cf in f.terms.items():
            loops, diag = _reference_glue(df, dg)
            coef = cf * cg
            if loops:
                coef = coef * tl._delta_power(field, loops)
            tl._add_term(terms, diag, coef)
    return TLMorphism(field, g.n_bottom, f.n_top, terms)


@pytest.mark.parametrize("k", [2, 4, 10, 16, 28])
def test_block_compose_equals_the_reference_on_the_default_suite(k, monkeypatch):
    calls = []
    block = tl.compose

    def checked(f, g):
        got = block(f, g)
        _same_terms(got, _reference_compose(f, g))
        calls.append(len(got.terms))
        return got

    monkeypatch.setattr(tl, "compose", checked)
    assert identity_suite(k).ok
    assert len(calls) > 200 and sum(calls) > 0


@pytest.mark.parametrize("k", [0, 1, 2, 4, 10, 16, 28])
def test_multiplication_matrix_from_zeta_powers(k):
    # y * x in the power basis is y.num @ sum_m x_m Z[m : m + d]
    field = scalar_field(k)
    Z, d = tl._zeta_powers(field), field.degree
    assert Z.shape == (2 * d - 1, d)
    rng = random.Random(k)
    for _ in range(5):
        x, y = (Cyc(field, tuple(rng.randint(-9, 9) for _ in range(d)), 1) for _ in "xy")
        M = sum(c * Z[m : m + d] for m, c in enumerate(x.num))
        assert Cyc(field, tuple((np.array(y.num) @ M).tolist()), 1) == x * y


def test_block_compose_is_exact_past_float64():
    # coefficients times 2**60 put the bound past 2**53: the products run in
    # Python ints, and the result still equals the reference
    x, y = simple_object(3, F), simple_object(2, F)
    big = F.from_int(2**60)
    f = traciator_self_action(x, y, "+").scaled(big)
    g = tensor(x.proj, y.proj).scaled(big)
    got = compose(f, g)
    _same_terms(got, _reference_compose(f, g))
    assert max(abs(c) for coef in got.terms.values() for c in coef.num) > 2**53
    assert got == compose(traciator_self_action(x, y, "+"), tensor(x.proj, y.proj)).scaled(
        big * big
    )


def test_compose_with_an_empty_operand():
    zero = TLMorphism(F, 2, 2)
    for f, g in ((zero, braiding(F)), (braiding(F), zero), (zero, zero)):
        got = compose(f, g)
        assert got.is_zero() and (got.n_bottom, got.n_top) == (2, 2)
        _same_terms(got, _reference_compose(f, g))
    assert compose(cap(F), TLMorphism(F, 0, 2)).is_zero()


def test_compose_cancelling_to_zero():
    # every cap kills a Jones-Wenzl projector: each output row sums to zero
    p = jones_wenzl(3, F).proj
    for i in range(2):
        capper = embed(cap(F), i, 1 - i)
        assert len(capper.terms) * len(p.terms) > 1
        got = compose(capper, p)
        assert got.is_zero() and (got.n_bottom, got.n_top) == (3, 1)
        _same_terms(got, _reference_compose(capper, p))


def test_morphism_equality_is_field_aware():
    # levels 2 and 4 have fields of one degree, 8
    f2, f4 = scalar_field(2), scalar_field(4)
    assert identity(f2, 2) != identity(f4, 2)
    assert TLMorphism(f2, 1, 1) != TLMorphism(f4, 1, 1)
    assert identity(f2, 2) == identity(f2, 2)


def test_scalars_of_two_fields_do_not_combine():
    # levels 2 and 10 have fields of degree 8 and 16
    f2, f10 = scalar_field(2), scalar_field(10)
    with pytest.raises(ValueError, match="scalar field mismatch"):
        f10.zeta(9) + f2.one
    with pytest.raises(ValueError, match="scalar field mismatch"):
        braiding(f2) + braiding(f10)
    with pytest.raises(ValueError, match="scalar field mismatch"):
        identity(f2, 2).scaled(f10.zeta(9))


def test_suites_of_fields_of_one_degree_in_one_process():
    _clear_tl_caches()
    assert identity_suite(2).ok
    assert identity_suite(4).ok
    assert identity_suite(2).ok
