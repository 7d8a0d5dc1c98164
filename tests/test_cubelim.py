"""Cubes of finite sets, limits, corner checks, and the factorization chain."""

import hashlib
import time
from functools import cache
from itertools import combinations
from random import Random

import pytest

import oracles
from isokit import cubelim
from isokit.cubelim import (
    Cube,
    CubeMap,
    LimitSet,
    SetFunction,
    check_hypothesis,
    compose,
    factorize_limit,
    limit,
    limit_map,
    random_cube_map,
    vertex_family,
)
from isokit.errors import CubeGenerationFailed, CubeTooLarge
from isokit.jsonio import canonical_dumps, cube_map_to_json

# the library holds a subset as an int mask, bit i set iff i is in it
E, S0, S1, S01 = 0, 1, 2, 3


def _fs(s):
    """A mask, or any iterable of indices, as the frozenset of its indices,
    which the oracles and the reference constructions key subsets by."""
    return frozenset(i for i in range(s.bit_length()) if s >> i & 1) if isinstance(s, int) else frozenset(s)


def _subsets(n):
    """The subsets of 0..n-1 as frozensets, by size, then lexicographically."""
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def _square(sizes, c0, c1, c0_top, c1_top):
    """2-cube with covers keyed ((set, added index) -> map tuple)."""
    return Cube(
        2,
        {E: sizes[0], S0: sizes[1], S1: sizes[2], S01: sizes[3]},
        {
            (E, 0): c0,
            (E, 1): c1,
            (S1, 0): c0_top,
            (S0, 1): c1_top,
        },
    )


def test_cube_validation():
    # pullback square of injections: a commuting 2-cube
    cube = _square((1, 2, 2, 3), (0,), (0,), (1, 2), (1, 2))
    assert cube.size(E) == 1 and cube.size(S01) == 3
    with pytest.raises(ValueError):
        _square((1, 2, 2, 3), (0,), (0,), (1, 2), (2, 2))  # square breaks
    with pytest.raises(ValueError):
        _square((1, 2, 2, 3), (5,), (0,), (1, 2), (1, 2))  # out of range
    with pytest.raises(ValueError, match="out of range"):
        _square((1, 2, 2, 3), (2,), (0,), (1, 2), (1, 2))  # X({0}) has 2 elements
    with pytest.raises(ValueError, match=r"every subset of 0\.\.0$"):
        Cube(1, {E: 1}, {})  # missing the top vertex
    with pytest.raises(ValueError, match=r"every subset of 0\.\.0$"):
        Cube(1, {E: 1, (): 1}, {})  # two keys for the empty set, none for the top
    # a dimension past the sets given is refused before any key becomes a mask
    with pytest.raises(ValueError, match="must assign a set to every subset"):
        Cube(10**400, {(10**9,): 1}, {})
    with pytest.raises(ValueError, match=r"\[5\] is not a vertex of the 2-cube"):
        Cube(2, {E: 1, S0: 1, S1: 1, (5,): 1}, {})


def test_map_between_composes_covers():
    cube = _square((1, 2, 2, 3), (0,), (0,), (1, 2), (1, 2))
    via0 = cube.map_between(E, S01)
    assert via0 == (1,)  # 0 -> S0 path and S1 path agree by functoriality
    assert cube.map_between(S0, S0) == (0, 1)
    # a subset outside the cube is named, not a bare KeyError
    with pytest.raises(ValueError, match=r"\[5\] is not a vertex of the 2-cube"):
        cube.map_between(set(), {5})
    with pytest.raises(ValueError, match=r"\[-1, 0\] is not a vertex of the 2-cube"):
        cube.map_between({0}, {0, -1})


def test_set_function():
    f = SetFunction((0, 1, 1), 2)
    assert f.domain_size == 3 and f(2) == 1
    assert f.is_surjective and not f.is_bijective
    g = SetFunction((1, 0), 2)
    assert g.is_bijective
    assert compose(g, f).mapping == (1, 0, 0)
    with pytest.raises(ValueError):
        compose(f, g)  # domain sizes do not line up


def _bruteforce_on_minimals(n, sizes, covers, poset):
    """The minimal members of poset, as masks, and, sorted, the brute-force
    limit's elements read at them; reading there must be one-to-one."""
    sizes = {_fs(s): k for s, k in sizes.items()}
    covers = {(_fs(s), j): m for (s, j), m in covers.items()}
    verts, elements = oracles.cube_limit_bruteforce(n, sizes, covers, [_fs(v) for v in poset])
    minimals = tuple(v for v in verts if not any(u < v for u in verts))
    cols = [verts.index(m) for m in minimals]
    rows = sorted(tuple(e[c] for c in cols) for e in elements)
    assert len(set(rows)) == len(rows)
    return tuple(sum(1 << i for i in m) for m in minimals), rows


def test_limit_of_empty_poset_is_terminal():
    cube = _square((1, 2, 2, 3), (0,), (0,), (1, 2), (1, 2))
    top = limit(cube, vertex_family(2, []))
    assert len(top) == 1 and top.elements == ((),)


def test_limit_requires_bounded_unions():
    cube = random_cube_map(3, seed=0, max_size=3).source
    # {0} and {1} join to {0,1}, bounded above by {0,1,2} yet missing
    with pytest.raises(ValueError):
        limit(cube, vertex_family(3, [{0}, {1}, {0, 1, 2}]))
    # with no upper bound present the same pair is a legal discrete family
    disc = limit(cube, vertex_family(3, [{0}, {1}]))
    assert len(disc) == cube.size({0}) * cube.size({1})


def test_limit_rejects_a_vertex_outside_the_cube():
    cube = Cube(1, {E: 1, S0: 1}, {(E, 0): (0,)})
    with pytest.raises(ValueError, match=r"^\[1\] is not a vertex of the 1-cube$"):
        vertex_family(1, [{1}])
    with pytest.raises(ValueError, match=r"^\[0, 2\] is not a vertex of the 2-cube$"):
        vertex_family(2, [{0}, {0, 2}])
    # a plan made for a larger cube names its first minimal vertex outside
    # this one, where a lookup would raise a bare KeyError
    with pytest.raises(ValueError, match=r"^\[1\] is not a vertex of the 1-cube$"):
        limit(cube, vertex_family(2, [{0}, {1}]))
    assert len(limit(cube, vertex_family(2, [{0}]))) == 1


def test_limit_set_built_from_its_fields_indexes_its_elements():
    cube = random_cube_map(2, seed=21, max_size=3).source
    full = limit(cube, vertex_family(2, cube.vertices()))
    expect = _bruteforce_on_minimals(2, cube.sizes, cube.covers, cube.vertices())
    assert (full.minimals, list(full.elements)) == expect and full.minimals == (E,)
    rebuilt = LimitSet(minimals=full.minimals, elements=full.elements)
    top = LimitSet(minimals=(S01,), elements=tuple((v,) for v in range(cube.size(S01))))
    assert rebuilt == full
    assert [rebuilt.index_of(e) for e in full.elements] == list(range(len(full)))
    # the whole cube's limit is X(empty set), and restricting to the top is the map there
    assert cubelim._restriction(cube, rebuilt, top).mapping == cube.map_between(E, S01)


def test_limit_matches_bruteforce_on_random_cubes():
    posets = [
        [E, S0, S1, S01],
        [S0, S1, S01],
        [S0, S01],
        [S01],
        [E],
        [S1, S01],
    ]
    checked = 0
    for seed in range(30):
        m = random_cube_map(2, seed=seed, max_size=3)
        for cube in (m.source, m.target):
            sizes = {s: cube.sizes[s] for s in (E, S0, S1, S01)}
            covers = {k: list(v) for k, v in cube.covers.items()}
            for poset in posets:
                expect = _bruteforce_on_minimals(2, sizes, covers, poset)
                got = limit(cube, vertex_family(2, poset))
                assert (got.minimals, list(got.elements)) == expect
                checked += 1
    assert checked == 360


def test_limit_full_poset_matches_initial_vertex():
    # with the empty set present, compatible tuples biject with X(empty)
    for seed in range(10):
        cube = random_cube_map(2, seed=seed, max_size=4).source
        full = limit(cube, vertex_family(2, cube.vertices()))
        assert len(full) == cube.size(E)


def test_cube_map_validation():
    m = random_cube_map(2, seed=3, max_size=3)
    good = CubeMap(m.source, m.target, m.components)
    assert good.n == 2
    broken = dict(m.components)
    size = m.target.sizes[S01]
    if size > 1:
        comp = list(broken[S01])
        comp[0] = (comp[0] + 1) % size
        broken[S01] = tuple(comp)
        with pytest.raises(ValueError):
            CubeMap(m.source, m.target, broken)
    # a component value equal to the target vertex's size is out of range
    broken = dict(m.components)
    broken[E] = (m.target.sizes[E],) + m.components[E][1:]
    with pytest.raises(ValueError, match="component at \\[\\] is out of range"):
        CubeMap(m.source, m.target, broken)


def test_as_cube_star_direction():
    m = random_cube_map(2, seed=5, max_size=3)
    big = m.as_cube()
    assert big.n == 3
    # source sits at subsets without the star index, target with it
    for s in (E, S0, S1, S01):
        assert big.size(s) == m.source.sizes[s]
        assert big.size(s | 1 << 2) == m.target.sizes[s]
        assert big.covers[(s, 2)] == m.components[s]


def test_hypothesis_can_fail():
    # constant-to-two-points corner failure: target pair never hit
    source = Cube(1, {E: 1, S0: 1}, {(E, 0): (0,)})
    target = Cube(1, {E: 2, S0: 1}, {(E, 0): (0, 0)})
    m = CubeMap(source, target, {E: (0,), S0: (0,)})
    hc = check_hypothesis(m)
    assert not hc.ok
    assert ((), ()) in hc.failures


def test_limit_map_and_factorization_small():
    m = random_cube_map(2, seed=21, max_size=3)
    f, lim_y = limit_map(m)
    fac = factorize_limit(m)
    assert fac.direct.mapping == f.mapping
    assert fac.composed.mapping == f.mapping
    # added order: decreasing size, lexicographic within size
    assert fac.added_order == (S01, S0, S1, E)
    # the last stage is lim X in X(empty set)'s own order
    assert fac.stages[0] == LimitSet((E,), tuple((x,) for x in range(m.source.size(E))))
    assert len(fac.links) == len(fac.stages)


def test_factorization_n1_chain():
    """Dimension 1: limits interleave into a two-link chain A -> L -> lim Y."""
    source = Cube(1, {E: 3, S0: 2}, {(E, 0): (0, 1, 1)})
    target = Cube(1, {E: 2, S0: 2}, {(E, 0): (0, 1)})
    m = CubeMap(source, target, {E: (0, 1, 1), S0: (0, 1)})
    fac = factorize_limit(m)
    assert len(fac.links) == 2
    assert fac.all_links_surjective
    composed = fac.composed
    direct, lim_y = limit_map(m)
    assert composed.mapping == direct.mapping
    assert len(lim_y) == 2


def test_random_cubes_satisfy_hypothesis():
    t0 = time.time()
    for seed in range(60):
        for n in (2, 3):
            m = random_cube_map(n, seed=seed, max_size=4)
            hc = check_hypothesis(m)
            assert hc.ok, (n, seed, hc.failures)
            fac = factorize_limit(m)
            assert fac.all_links_surjective
            assert fac.composed.mapping == fac.direct.mapping
            lm, _ = limit_map(m)
            assert lm.is_surjective
    assert time.time() - t0 < 60


def test_random_cube_map_deterministic():
    a = random_cube_map(3, seed=42)
    b = random_cube_map(3, seed=42)
    assert a.source.sizes == b.source.sizes
    assert a.source.covers == b.source.covers
    assert a.components == b.components
    c = random_cube_map(3, seed=43)
    assert (
        a.source.sizes != c.source.sizes
        or a.source.covers != c.source.covers
        or a.components != c.components
    )


def _digest(dim, seeds):
    h = hashlib.sha256()
    for seed in seeds:
        h.update(canonical_dumps(cube_map_to_json(random_cube_map(dim, seed=seed))).encode())
    return h.hexdigest()


def test_random_cube_map_stream_is_pinned():
    """The generated cubes, hence `cube check` reports, stay byte-identical."""
    assert _digest(3, range(20)) == (
        "4768ae7e0327dcd8d6e5aac26b4590c250d85a41946ac8bcc21a87bf479e7856"
    )
    assert _digest(4, range(6)) == (
        "ff9a7d6b8122d5494468e9c5c1c219e782d6f09a650e30da5cc1d853db8023c7"
    )


def test_random_cube_map_rejects_negative_dimension():
    with pytest.raises(ValueError):
        random_cube_map(-1)


@pytest.mark.parametrize("max_size, shown", [("5", "'5'"), (1.5, "1.5"), (True, "True")])
def test_random_cube_map_max_size_must_be_an_int(max_size, shown):
    with pytest.raises(ValueError, match=f"^max_size must be an integer, got {shown}$"):
        random_cube_map(2, max_size=max_size)


def test_random_cube_map_attempt_guard(monkeypatch):
    monkeypatch.setattr(cubelim, "_try_random_cube", lambda *args: None)
    with pytest.raises(CubeGenerationFailed) as info:
        random_cube_map(3, seed=17, max_size=2)
    message = str(info.value)
    assert "3-cube" in message and "seed 17" in message and "1 to 2 elements" in message


@cache  # the reference sampler reads it once per attempt
def _generation_plan(n):
    """Per lower vertex S of the (n+1)-cube, in the order random_cube_map
    fills them: S, the indices j not in S, the covers S+{j} and, per cover,
    the checks against each earlier cover i: the cover maps (S+{j_i}, j)
    and (S+{j}, j_i) agree at the join S+{j_i, j}."""
    order = sorted(_subsets(n + 1), key=lambda s: (-len(s), tuple(sorted(s))))
    steps = []
    for s in order[1:]:
        js = tuple(j for j in range(n + 1) if j not in s)
        checks = tuple(
            tuple((i, (s | {a}, j), (s | {j}, a)) for i, a in enumerate(js[:k]))
            for k, j in enumerate(js)
        )
        steps.append((s, js, tuple(s | {j} for j in js), checks))
    return tuple(steps)


@pytest.mark.parametrize("n", range(6))
def test_walk_view_is_the_generation_plan(n):
    """The sampler's walk fills the plan's vertices in order, each from the
    plan's covers and keyed by their fill ids; a miss compares cover i's
    map at rank q-1 with cover q's at rank i, which are the plan's cover
    maps (e, h); and the read-back names every cover map of the (n+1)-cube
    once, each as a cover map of X or Y or a component."""
    steps, sides, components = cubelim._walk_view(n)
    plan = _generation_plan(n)
    order = [frozenset(range(n + 1))] + [s for s, *_ in plan]
    num = {s: k for k, s in enumerate(order)}

    def edge(k, r):
        """The cover map of vertex k for the r-th index not in it."""
        return order[k], [j for j in range(n + 1) if j not in order[k]][r]

    at = [10 * k + 7 for k in range(len(order))]
    assert len(steps) == len(plan)
    for (above, key), (s, js, covers, checks) in zip(steps, plan):
        assert above == [num[t] for t in covers]
        ids = [at[t] for t in above]
        assert key(at) == (tuple(ids) if len(ids) > 1 else ids[0])
        for q, row in enumerate(checks):
            assert [(i, edge(above[i], q - 1), edge(above[q], i)) for i in range(q)] == list(row)
    named = []
    for side, (sizes, covers) in zip((frozenset(), frozenset({n})), sides):
        assert [(_fs(s), order[k]) for s, k in sizes] == [(s, s | side) for s in _subsets(n)]
        for (s, j), k, r in covers:
            assert edge(k, r) == (_fs(s) | side, j)
            named.append(edge(k, r))
    for s, k, r in components:
        assert edge(k, r) == (_fs(s), n)
        named.append(edge(k, r))
    every = {(v, j) for v in order for j in range(n + 1) if j not in v}
    assert len(named) == len(set(named)) and set(named) == every


def test_walk_memo_hits_once_per_distinct_step(count_calls):
    """The memo keys on the covers' fills, which hold exactly the cover
    sizes and compared cover maps a step's sections depend on: a coarser
    key would compute fewer sections, and wrong ones, a finer key more."""
    sections = count_calls("_sections", cubelim)
    random_cube_map(4, 0)
    assert len(sections) == 939
    sections.clear()
    for seed in range(150):
        random_cube_map(3, seed)
    assert len(sections) == 3835


def _reference_cube_map(n, seed, max_size=5):
    """The sampler restated without its memo or integer walk: every step
    enumerates its sections, and sizes and covers are keyed by frozensets.
    Returns the map and the number of walk steps taken."""
    top = frozenset(range(n + 1))
    rng = Random(seed)
    steps = 0
    for _ in range(cubelim._ATTEMPTS):
        sizes = {top: rng.randint(1, 2)}
        covers = {}
        for s, js, above, checks in _generation_plan(n):
            steps += 1
            rows = cubelim._sections(
                [sizes[t] for t in above],
                [[(i, covers[e], covers[h]) for i, e, h in pairs] for pairs in checks],
                max_size,
            )
            if not 0 < len(rows) <= max_size:
                break
            if len(rows) < max_size and rng.random() < 0.35:
                rows.append(rng.choice(rows))
            sizes[s] = len(rows)
            for j, column in zip(js, zip(*rows)):
                covers[(s, j)] = column
        else:
            verts = _subsets(n)
            edges = [(s, j) for s in verts for j in range(n) if j not in s]
            x = Cube(n, {s: sizes[s] for s in verts}, {(s, j): covers[(s, j)] for s, j in edges})
            y = Cube(
                n,
                {s: sizes[s | {n}] for s in verts},
                {(s, j): covers[(s | {n}, j)] for s, j in edges},
            )
            return CubeMap(x, y, {s: covers[(s, n)] for s in verts}), steps
    raise CubeGenerationFailed(f"no reference {n}-cube map from seed {seed}")


def _map_data(m):
    return (m.source.sizes, m.source.covers, m.target.sizes, m.target.covers, m.components)


@pytest.mark.parametrize("dim", range(5))
def test_random_cube_map_matches_reference_sampler(dim):
    """Same maps as the plain walk for every cap, so the memo's duplicate
    rows, the cap and the rejections all replay the same RNG stream."""
    for max_size in range(2, 7):
        for seed in range(5):
            expected, _ = _reference_cube_map(dim, seed, max_size)
            assert _map_data(random_cube_map(dim, seed, max_size)) == _map_data(expected)


def test_random_cube_map_memo_skips_repeated_sections(monkeypatch):
    """At dim 4 most walk steps repeat one already taken in the same call;
    the memo computes each distinct one once, and keeps nothing between calls."""
    _, steps = _reference_cube_map(4, 0)
    calls = []
    sections = cubelim._sections

    def counted(*args):
        calls.append(1)
        return sections(*args)

    monkeypatch.setattr(cubelim, "_sections", counted)
    first = random_cube_map(4, 0)
    once = len(calls)
    assert 0 < 10 * once <= steps
    # a memo kept from the first call would compute nothing the second time
    assert _map_data(random_cube_map(4, 0)) == _map_data(first)
    assert len(calls) == 2 * once


def test_vertex_family_requires_bounded_unions():
    # {0} and {1} join to {0,1}, bounded above by {0,1,2} yet missing
    with pytest.raises(ValueError, match="not closed under bounded unions$"):
        vertex_family(3, [{0}, {1}, {0, 1, 2}])
    # members as indices or masks, in any order and repeated; the plan
    # keeps the minimal vertices and each join inside the family
    assert vertex_family(2, [{1}, {0}, S0]) == ((S0, S1), ((), ()))
    assert vertex_family(2, [S01, S1, S0]) == ((S0, S1), ((), ((0, S01),)))
    # an index must lie in 0..n-1, and a bool is no vertex
    for member in ({2}, {10**9}, 1 << 2, -1, {-1}, True, {True}, {0.0}):
        with pytest.raises(ValueError, match="is not a vertex of the 2-cube$"):
            vertex_family(2, [{0}, member])
    # indices that do not sort together are named as given
    with pytest.raises(ValueError, match=r"^\[0, 'a'\] is not a vertex of the 2-cube$"):
        vertex_family(2, [(0, "a")])
    # a huge dimension builds nothing of its size
    assert vertex_family(10**18, [{63}, 1 << 63]) == ((1 << 63,), ((),))
    for n, what in ((-1, "nonnegative, got -1"), (True, "an integer, got True"), (2.0, "an integer, got 2.0")):
        with pytest.raises(ValueError, match=f"cube dimension must be {what}$"):
            vertex_family(n, [])


def test_reused_family_matches_bruteforce_on_random_3_cubes():
    def fs(*sets):
        return [frozenset(x) for x in sets]

    posets = [
        fs(*[[i for i in range(3) if k >> i & 1] for k in range(8)]),  # whole cube
        fs([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]),  # punctured, up-closed
        fs([1], [0, 1], [1, 2], [0, 1, 2]),  # interval [{1}, top]
        fs([], [0], [2], [0, 2]),  # interval [{}, {0,2}], not up-closed
        fs([], [0], [0, 2]),  # a chain, not up-closed
        fs([0], [0, 1], [0, 2]),  # joins without an upper bound
        fs([], [1], [2]),  # not up-closed, {1,2} unbounded
        fs([0], [1], [2]),  # discrete
        fs([0, 1], [2]),
        [],
    ]
    families = [vertex_family(3, p) for p in posets]
    checked = 0
    for seed in range(12):
        m = random_cube_map(3, seed=seed, max_size=3)
        for cube in (m.source, m.target):
            covers = {k: list(v) for k, v in cube.covers.items()}
            for poset, fam in zip(posets, families):
                assert vertex_family(3, poset[::-1]) == fam
                expect = _bruteforce_on_minimals(3, cube.sizes, covers, poset)
                got = limit(cube, fam)
                assert (got.minimals, list(got.elements)) == expect
                assert got.elements == limit(cube, vertex_family(3, poset)).elements
                checked += 1
    assert checked == 12 * 2 * len(posets)


def test_memoized_map_between_matches_cover_walk():
    for seed in range(8):
        m = random_cube_map(3, seed=seed, max_size=4)
        for cube in (m.source, m.target, m.as_cube()):
            pairs = [(s, t) for t in cube.vertices() for s in cube.vertices() if s | t == t]
            # visit long chains first and short ones last, then all again from the memo
            for s, t in sorted(pairs, key=lambda p: p[0].bit_count() - p[1].bit_count()) + pairs:
                walk = list(range(cube.sizes[s]))
                here = s
                for j in sorted(_fs(t) - _fs(s)):
                    walk = [cube.covers[(here, j)][v] for v in walk]
                    here = here | 1 << j
                assert cube.map_between(s, t) == tuple(walk)
            with pytest.raises(ValueError):
                cube.map_between({0}, {1})


def test_as_cube_is_built_once():
    m = random_cube_map(2, seed=4, max_size=3)
    assert m.as_cube() is m.as_cube()


def _random_3_cube(rng):
    """A commuting 3-cube filled top down: each vertex takes one to three
    random elements, repeats allowed, of the limit of everything above it,
    so a vertex whose up-set has an empty limit is empty."""
    order = sorted(
        (frozenset(i for i in range(3) if k >> i & 1) for k in range(8)),
        key=lambda s: (-len(s), sorted(s)),
    )
    sizes = {order[0]: rng.randint(1, 3)}
    covers = {}
    for s in order[1:]:
        verts, elements = oracles.cube_limit_bruteforce(
            3, sizes, covers, [t for t in order if s < t]
        )
        picked = [rng.choice(elements) for _ in range(rng.randint(1, 3))] if elements else []
        sizes[s] = len(picked)
        for j in range(3):
            if j not in s:
                col = verts.index(s | {j})
                covers[(s, j)] = tuple(e[col] for e in picked)
    return Cube(3, sizes, covers)


def test_capped_sections_are_a_prefix_of_the_limit():
    """The sampler's early-stopping enumeration over each strict up-set of
    a 3-cube yields the first cap + 1 limit elements, read on the covers."""
    rng = Random(5)
    steps = _generation_plan(2)
    empty = capped = 0
    for _ in range(40):
        cube = _random_3_cube(rng)
        for s, _, above, checks in steps:
            family = [t for t in cube.vertices() if s < _fs(t)]
            lim = limit(cube, vertex_family(3, family))
            expect = _bruteforce_on_minimals(3, cube.sizes, cube.covers, family)
            assert (lim.minimals, list(lim.elements)) == expect
            # the family's minimal vertices are the covers, in the sampler's order
            assert tuple(map(_fs, lim.minimals)) == above
            on_covers = list(lim.elements)
            sizes = [cube.size(t) for t in above]

            def cover(e):
                return cube.map_between(e[0], e[0] | {e[1]})

            maps = [[(i, cover(e), cover(h)) for i, e, h in pairs] for pairs in checks]
            for cap in range(7):
                assert cubelim._sections(sizes, maps, cap) == on_covers[: cap + 1]
            assert cubelim._sections(sizes, maps) == on_covers
            empty += not lim.elements
            capped += len(lim) > 6
    assert empty and capped


def _point_map(target):
    """The map from the one-point cube onto the images of one element of
    the target's initial vertex; its corners fail wherever the target has
    more than one element."""
    verts = target.vertices()
    n = target.n
    point = Cube(n, {s: 1 for s in verts}, {(s, j): (0,) for s in verts for j in range(n) if not s >> j & 1})
    return CubeMap(point, target, {s: (target.map_between(E, s)[0],) for s in verts})


def _checks_digest(dim, seeds):
    """Corner failures and count, factorization stages and links, and the
    limit map of random cube maps and of point maps into their targets."""

    def verts(vs):
        return tuple(tuple(sorted(_fs(v))) for v in vs)

    def full(z, members, lim):
        """The family's members, sorted, and lim's elements as values at
        each, pushed up from the first minimal vertex below it."""
        members = sorted(map(_fs, members), key=lambda v: (len(v), sorted(v)))
        cols = []
        for w in members:
            k = next(k for k, m in enumerate(lim.minimals) if _fs(m) <= w)
            cols.append((k, z.map_between(lim.minimals[k], w)))
        return verts(members), tuple(tuple(push[e[k]] for k, push in cols) for e in lim.elements)

    h = hashlib.sha256()
    for seed in seeds:
        m = random_cube_map(dim, seed=seed)
        for mm in (m, _point_map(m.target)):
            hc = check_hypothesis(mm)
            fac = factorize_limit(mm)
            direct, lim_y = limit_map(mm)
            z, order = mm.as_cube(), fac.added_order
            # the target side, and fac.stages[i] with all but the last i source vertices
            side = [s | {dim} for s in _subsets(dim)]
            stages = tuple(
                full(z, side + list(order[: len(order) - i]), s) for i, s in enumerate(fac.stages)
            )
            h.update(repr((
                (hc.ok, hc.checked, hc.failures),
                verts(order),
                stages,
                tuple((f.mapping, f.codomain_size) for f in fac.links),
                (direct.mapping, direct.codomain_size) + full(z, side, lim_y),
            )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("dim, seeds, digest", [
    (0, range(20), "91a3cac60ebadc474718a9c41bc7290aacc2b1d5a24a38a0d14f868887fc07bd"),
    (1, range(20), "4a23fa3723ee37168ce558f3f56fc0eb916f092e3d547768f2a8e42a6fd45ab0"),
    (2, range(20), "ab262797c5d792e7d8e61896f2e33488fe0133386a96bd0b5264fc383f5d38ad"),
    (3, range(20), "f5ac5cfd31be8496eb9b74eefde4de749cda57e4fec281811d1432939b3f13d2"),
    (4, range(6), "a827bab48e3be1a5dbbedc0ed1ab1219e6c08a5263383da95e9118d396384ae6"),
])
def test_cube_checks_are_pinned(dim, seeds, digest):
    assert _checks_digest(dim, seeds) == digest


def _all_singleton_map(n):
    """The identity map of the n-cube with one element at every vertex."""
    verts = _subsets(n)
    point = Cube(n, dict.fromkeys(verts, 1), {(s, j): (0,) for s in verts for j in range(n) if j not in s})
    return CubeMap(point, point, dict.fromkeys(verts, (0,)))


def test_plans_are_built_once_per_dimension(monkeypatch):
    """Corner and stage limits are planned from the construction, once per
    dimension, and no library path runs vertex_family's check."""

    def refuse(n, vertices):
        raise AssertionError("a library path checked a vertex family")

    monkeypatch.setattr(cubelim, "vertex_family", refuse)
    planners = (cubelim._corner_plans, cubelim._stage_plans)
    for planner in planners:
        planner.cache_clear()
    maps = [random_cube_map(n, seed=seed) for n in range(5) for seed in range(2)]
    for m in maps + [_all_singleton_map(n) for n in (5, 6, 7, 8)]:
        check_hypothesis(m)
        factorize_limit(m)
        limit_map(m)
    assert [planner.cache_info().misses for planner in planners] == [9, 9]


def _random_map_with_failures(rng, n):
    """A map of n-cubes filled as one (n+1)-cube, top down: each lower
    vertex takes a random multiset of 0 to 3 elements of the limit above
    it, read on its covers, so corners may fail and vertex sets may be
    empty.  Returns the map and the (n+1)-cube's sizes and covers."""
    top = frozenset(range(n + 1))
    sizes = {top: rng.randint(1, 3)}
    covers = {}
    for s, js, above, checks in _generation_plan(n):
        rows = cubelim._sections(
            [sizes[t] for t in above],
            [[(i, covers[e], covers[h]) for i, e, h in pairs] for pairs in checks],
        )
        picked = [rng.choice(rows) for _ in range(rng.randint(0, 3))] if rows else []
        sizes[s] = len(picked)
        for k, j in enumerate(js):
            covers[(s, j)] = tuple(row[k] for row in picked)
    verts = _subsets(n)
    edges = [(s, j) for s in verts for j in range(n) if j not in s]
    x, y = (
        Cube(n, {s: sizes[s | side] for s in verts}, {(s, j): covers[(s | side, j)] for s, j in edges})
        for side in (frozenset(), frozenset({n}))
    )
    return CubeMap(x, y, {s: covers[(s, n)] for s in verts}), sizes, covers


def _bruteforce_failures(n, sizes, covers):
    """Corners (U, T) whose limit, filtered from the full product, has an
    element that no a in X(U) reaches by walking the covers."""
    failures = set()
    for t in range(2**n):
        t = frozenset(i for i in range(n) if t >> i & 1)
        for u in (frozenset(c) for k in range(len(t) + 1) for c in combinations(sorted(t), k)):
            above = [w for w in sizes if u < w <= t | {n}]
            verts, elements = oracles.cube_limit_bruteforce(n + 1, sizes, covers, above)
            images = set()
            for a in range(sizes[u]):
                image = []
                for w in verts:
                    value, here = a, u
                    for j in sorted(w - u):
                        value, here = covers[(here, j)][value], here | {j}
                    image.append(value)
                images.add(tuple(image))
            if images != set(elements):
                failures.add((tuple(sorted(u)), tuple(sorted(t))))
    return failures


def _nested_pairs(n):
    """Every nested pair U <= T of subsets of 0..n-1, T by size and then
    lexicographically, and U likewise within each T."""
    subsets = _subsets(n)
    return [(u, t) for t in subsets for u in subsets if u <= t]


@pytest.mark.parametrize("n", range(5))
def test_corner_plans_are_the_families_minimals_and_joins(n):
    """Each corner's plan is the one vertex_family finds for the vertices
    strictly above U in the span of U <= T on both sides of the
    (n+1)-cube, in check_hypothesis's order."""
    plans = cubelim._corner_plans(n)
    assert [(_fs(u), _fs(t)) for u, t in plans] == _nested_pairs(n)
    for u, t in plans:
        lo, hi = _fs(u), _fs(t)
        span = [v | side for v in _subsets(n) if v <= hi - lo for side in (lo, lo | {n})]
        assert plans[(u, t)] == vertex_family(n + 1, [v for v in span if v != lo])


@pytest.mark.parametrize("n", range(6))
def test_stage_plans_are_the_families(n):
    """Each stage plan is the one vertex_family finds for its members: the
    target side with the source vertices adjoined one at a time by
    decreasing size, ties in lexicographic order, up to but not including
    the empty set, whose stage is lim X, read off the cube."""
    order, stages = cubelim._stage_plans(n)
    source = _subsets(n)
    assert list(map(_fs, order)) == sorted(source, key=lambda s: (-len(s), sorted(s)))
    side = [s | {n} for s in source]
    assert len(stages) == len(order) - 1
    for k, plan in enumerate(stages, 1):
        assert plan == vertex_family(n + 1, side + list(map(_fs, order[:k])))


@pytest.mark.parametrize("dim", range(4))
def test_hypothesis_matches_corner_maps_and_bruteforce(dim):
    """check_hypothesis, which only counts, fails exactly the corners a
    brute-force image check rejects, listed in the order of the corner
    plans, on maps that fail corners and have empty vertex sets."""
    rng = Random(dim)
    corners = [(tuple(sorted(_fs(u))), tuple(sorted(_fs(t)))) for u, t in cubelim._corner_plans(dim)]
    failed = empty = 0
    for _ in range(150):
        m, sizes, covers = _random_map_with_failures(rng, dim)
        hc = check_hypothesis(m)
        bad = _bruteforce_failures(dim, sizes, covers)
        expect = tuple(c for c in corners if c in bad)
        assert hc.failures == expect and hc.ok == (not expect) and hc.checked == 3**dim
        failed += bool(expect)
        empty += 0 in sizes.values()
    assert failed and empty and (dim == 0 or failed < 150)


def test_hypothesis_counts_without_limits(count_calls):
    """One capped enumeration per corner, and no limit."""
    m = random_cube_map(3, seed=2)
    limits = count_calls("limit", cubelim)
    sections = count_calls("_sections", cubelim)
    assert check_hypothesis(m).ok
    assert limits == []
    assert len(sections) == 27 and all(type(args[2]) is int for args in sections)


@pytest.mark.parametrize("dim", range(5))
def test_limit_map_reads_both_ends_off_the_cube(dim, count_calls):
    """lim Y is the limit over the target side, the direct map looks each a
    in X(empty set) up there by its values at the minimal vertices, and the
    last stage is lim X, the limit over the whole (n+1)-cube, taken with no
    limit call (one per other stage, 2^n - 1), on maps whose end sets may
    be empty."""
    rng = Random(dim)
    maps = [random_cube_map(dim, seed=seed) for seed in range(6)]
    maps += [_random_map_with_failures(rng, dim)[0] for _ in range(40)]
    whole = vertex_family(dim + 1, _subsets(dim + 1))
    limits = count_calls("limit", cubelim)
    empty = 0
    for m in maps:
        direct, lim_y = limit_map(m)
        z = m.as_cube()
        lim = limit(z, vertex_family(dim + 1, [s | 1 << dim for s in m.source.vertices()]))
        assert lim_y == lim
        lookup = [
            lim.index_of(tuple(z.map_between(E, v)[a] for v in lim.minimals))
            for a in range(z.size(E))
        ]
        assert direct == SetFunction(tuple(lookup), len(lim))
        limits.clear()
        last = factorize_limit(m).stages[0]
        assert len(limits) == 2**dim - 1
        assert last == LimitSet((E,), tuple((x,) for x in range(m.source.size(E)))) == limit(z, whole)
        empty += not (m.source.size(E) and m.target.size(E))
    assert empty


def test_limit_map_builds_no_limit_index_or_cube(count_calls):
    """limit_map reads the component at the empty set: no limit call, no
    index of lim Y, and the map's (n+1)-cube stays unbuilt."""
    limits = count_calls("limit", cubelim)
    for n in range(5):
        m = random_cube_map(n, seed=1)
        direct, lim_y = limit_map(m)
        assert "_as_cube" not in vars(m) and limits == []
        assert direct.mapping == m.components[E] and "_index" not in vars(lim_y)


def test_capped_sections_are_a_prefix_of_the_sections():
    """_sections with a cap returns the first cap + 1 rows of its uncapped
    result, for every cap up to that result's length."""
    rng = Random(7)
    capped = 0
    for dim in range(4):
        for _ in range(20):
            z = _random_map_with_failures(rng, dim)[0].as_cube()
            for mins, joins in cubelim._corner_plans(dim).values():
                sizes = [z.sizes[v] for v in mins]
                checks = [
                    [(i, z.map_between(mins[i], join), z.map_between(v, join)) for i, join in pairs]
                    for v, pairs in zip(mins, joins)
                ]
                rows = cubelim._sections(sizes, checks)
                for cap in range(len(rows) + 1):
                    assert cubelim._sections(sizes, checks, cap) == rows[: cap + 1]
                capped += len(rows) > 1
    assert capped


def test_cube_dimension_cap(count_calls):
    """Above MAX_CUBE_DIM every limit plan and the sampler raise
    CubeTooLarge before they start: no planner reads the cube's vertices
    or caches a plan, and no walk is planned."""
    n = cubelim.MAX_CUBE_DIM + 1
    m = _all_singleton_map(n)
    m.as_cube()  # built before counting: the (n+1)-cube reads the vertices too
    planners = (cubelim._corner_plans, cubelim._stage_plans, cubelim._walk_view)
    cached = [planner.cache_info().currsize for planner in planners]
    started = count_calls("_vertices", cubelim)
    for run in (check_hypothesis, factorize_limit, limit_map, lambda m: random_cube_map(m.n)):
        with pytest.raises(CubeTooLarge, match=f"dimension {n} exceeds the cap of {n - 1}"):
            run(m)
    assert started == []
    assert [planner.cache_info().currsize for planner in planners] == cached


def _wide_limit_map(n):
    """A map of n-cubes with two source elements on each vertex of size 3
    and one elsewhere, every map constant 0, into the one-point cube.  The
    stage limit of factorize_limit that has adjoined the vertices of size
    3 and up has 2^C(n, 3) elements, any choice on each size-3 vertex."""
    verts = _subsets(n)
    sizes = {s: 2 if len(s) == 3 else 1 for s in verts}
    covers = {(s, j): (0,) * sizes[s] for s in verts for j in range(n) if j not in s}
    x = Cube(n, sizes, covers)
    return CubeMap(x, _all_singleton_map(n).target, {s: (0,) * sizes[s] for s in verts})


def test_limit_element_cap(monkeypatch):
    """A limit with more than MAX_LIMIT_ELEMENTS elements raises
    CubeTooLarge; one with exactly that many is built."""
    x = _wide_limit_map(4).source
    upper = vertex_family(4, [s for s in x.vertices() if s.bit_count() >= 3])
    assert len(limit(x, upper)) == 2**4
    monkeypatch.setattr(cubelim, "MAX_LIMIT_ELEMENTS", 2**4)
    assert len(limit(x, upper)) == 2**4
    monkeypatch.setattr(cubelim, "MAX_LIMIT_ELEMENTS", 2**4 - 1)
    with pytest.raises(CubeTooLarge, match="a limit has more elements than the cap of 15$"):
        limit(x, upper)


def test_stage_limits_past_the_cap_raise_and_corners_keep_their_own_cap():
    """At dimension 6 a stage limit would have 2^20 elements: factorize_limit
    raises CubeTooLarge, while check_hypothesis, which enumerates each
    corner's limit only up to its hits, decides every corner."""
    m = _wide_limit_map(6)
    assert cubelim.MAX_LIMIT_ELEMENTS == 100_000 < 2**20
    assert check_hypothesis(m).checked == 3**6
    with pytest.raises(CubeTooLarge, match="a limit has more elements than the cap of 100000"):
        factorize_limit(m)


@pytest.mark.parametrize(
    "sizes, index, bad",
    [({E: 1.5, S0: 1}, 0, "1.5"), ({E: True, S0: 1}, 0, "True"), ({E: 1, S0: 1}, 0.0, "0.0")],
)
def test_cube_sizes_and_cover_indices_must_be_integers(sizes, index, bad):
    """A float or a bool is named, not truncated to an int."""
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}$"):
        Cube(1, sizes, {(E, index): (0,)})
    assert Cube(1, {E: 1, S0: 1}, {(E, 0): (0,)}).sizes == {E: 1, S0: 1}
    # a bool is neither a mask nor an index, in a size key or a cover key;
    # each case stands in for {0}, the vertex a bool True would alias
    sizes = {E: 1, S0: 1, S1: 1, S01: 1}
    covers = {(E, 0): (0,), (E, 1): (0,), (S0, 1): (0,), (S1, 0): (0,)}
    for key, bad in ((True, "True"), ((True,), r"\[True\]"), ((0, False), r"\[0, False\]"), ((0, "a"), r"\[0, 'a'\]")):
        with pytest.raises(ValueError, match=f"^{bad} is not a vertex of the 2-cube$"):
            Cube(2, {E: 1, key: 1, S1: 1, S01: 1}, covers)
        rest = {k: m for k, m in covers.items() if k != (S0, 1)}
        with pytest.raises(ValueError, match=f"^{bad} is not a vertex of the 2-cube$"):
            Cube(2, sizes, {**rest, (key, 1): (0,)})
    assert Cube(2, sizes, covers).sizes == sizes
    # so is a dimension, for a cube and for the sampler
    for dim in (True, 1.0):
        with pytest.raises(ValueError, match=f"cube dimension must be an integer, got {dim}$"):
            Cube(dim, {E: 1, S0: 1}, {(E, 0): (0,)})
        with pytest.raises(ValueError, match=f"cube dimension must be an integer, got {dim}$"):
            random_cube_map(dim)
