"""The isotropy index of a complex and the fixed-simplex list of a map,
checked against the definitions written out in this file."""

import random
from itertools import combinations

import pytest

import oracles
from isokit import fixpoint, gmap, models
from isokit.fixpoint import (
    PiData,
    TwistedConjugacySetup,
    burnside_lefschetz,
    forced_fixed_points,
    is_fixed_point_free,
    lefschetz,
    lefschetz_fixed_sets,
    marks_vector,
    reidemeister_trace,
    removal_verdict,
)
from isokit.gcomplex import (
    GComplex,
    barycentric_subdivision,
    check_hypotheses,
    class_fixed_union,
    close_simplices,
    exact_stratum,
    fixed_subcomplex,
    induced_subcomplex,
    make_regular,
    present_classes,
)
from isokit.gmap import GMap, is_equivariant, is_isovariant, is_simplicial, subdivide_map
from isokit.group import FiniteGroup, class_names, enumerate_subgroups, table_of_marks

C2 = FiniteGroup.cyclic(2)
GROUPS = {
    "C2": C2,
    "C3": FiniteGroup.cyclic(3),
    "C4": FiniteGroup.cyclic(4),
    "C2xC2": FiniteGroup.direct_product(C2, C2),
    "S3": FiniteGroup.symmetric(3),
}
SEEDS = range(6)


# -- definitions ------------------------------------------------------------------


def _stab(x, s):
    return frozenset(a for a in x.group.elements if all(x.action[a][v] == v for v in s))


def _setwise(x, s):
    return frozenset(
        a for a in x.group.elements if sorted(x.action[a][v] for v in s) == list(s)
    )


def _conjugates(g, h):
    return {frozenset(g.mul(g.mul(a, b), g.inv(a)) for b in h) for a in g.elements}


def _class_key(h):
    return (len(h), sorted(h))


def _sign(image, s):
    """(-1)^inversions of the permutation that sends s to image."""
    pos = [s.index(w) for w in image]
    inversions = sum(pos[i] > pos[j] for i in range(len(pos)) for j in range(i + 1, len(pos)))
    return -1 if inversions % 2 else 1


def _orbit_closure_complex(g, seed):
    """Orbit closure of random simplices on a union of coset orbits G/H."""
    rng = random.Random(seed)
    subs = enumerate_subgroups(g)
    vertices = []
    for i in range(rng.randint(2, 3)):
        h = rng.choice(subs)
        cosets = {frozenset(g.mul(a, b) for b in h) for a in g.elements}
        vertices += [(i, c) for c in sorted(cosets, key=sorted)]
    index = {v: k for k, v in enumerate(vertices)}
    action = {
        a: tuple(index[(i, frozenset(g.mul(a, b) for b in c))] for i, c in vertices)
        for a in g.elements
    }
    n = len(vertices)
    seeds = [tuple(rng.sample(range(n), min(n, rng.choice((2, 3))))) for _ in range(rng.randint(1, 4))]
    facets = {tuple(sorted(action[a][v] for v in t)) for t in seeds for a in g.elements}
    facets |= {(v,) for v in range(n)}
    return GComplex(n, facets, action, g)


def _check_index(x):
    g = x.group
    simplices = x.simplices()
    stabs = {s: _stab(x, s) for s in simplices}
    assert x.isotropy().stabilizers == stabs
    assert all(x.pointwise_stabilizer(s) == stabs[s] for s in simplices)
    # vertex sets that are no simplex fall back to the definition
    for s in [(u, v) for u in range(x.n_vertices) for v in range(u + 1, x.n_vertices)][:20]:
        if s not in stabs:
            assert x.pointwise_stabilizer(s) == _stab(x, s)
    reps = {min(_conjugates(g, k), key=_class_key) for k in stabs.values()}
    assert present_classes(x) == sorted(reps, key=_class_key)
    for h in enumerate_subgroups(g):
        conj = _conjugates(g, h)
        assert exact_stratum(x, h).simplices == {s for s in simplices if stabs[s] in conj}
        fixed = fixed_subcomplex(x, h)
        assert fixed == {s for s in simplices if h <= stabs[s]}
        assert class_fixed_union(x, h) == {
            s for s in simplices if any(c <= stabs[s] for c in conj)
        }
    assert x.is_regular() == all(_setwise(x, s) == stabs[s] for s in simplices)
    # the default dimensions are those of each class's fixed subcomplex
    names = class_names(g)
    assert check_hypotheses(x).dims_used == {
        names[r]: max(map(len, fixed_subcomplex(x, r))) - 1 for r in present_classes(x)
    }


def _check_orbits(x):
    """orbits come in simplices() order of their first members, each the
    orbit of its first member, and they partition the simplices."""
    iso = x.isotropy()
    reps = [members[0] for members in iso.orbits]
    first = set(reps)
    assert reps == [s for s in x.simplices() if s in first]
    for members in iso.orbits:
        assert len(set(members)) == len(members)
        assert set(members) == {x.act_simplex(a, members[0]) for a in x.group.elements}
    assert sorted(t for members in iso.orbits for t in members) == sorted(x.simplices())


def _random_equivariant_map(x, rng):
    """Send each orbit representative v to a w with Stab(v) <= Stab(w)."""
    g = x.group
    image = [None] * x.n_vertices
    for v in range(x.n_vertices):
        if image[v] is not None:
            continue
        stab = _stab(x, (v,))
        w = rng.choice([w for w in range(x.n_vertices) if stab <= _stab(x, (w,))])
        for a in g.elements:
            image[x.action[a][v]] = x.action[a][w]
    return GMap(x, x, tuple(image))


# -- the index --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(models.COMPLEX_MODELS))
def test_index_matches_definitions_on_models(name):
    x = models.COMPLEX_MODELS[name]()
    _check_index(x)
    if name == "cross5":
        return  # its first subdivision alone has 224,708 simplices
    for _ in range(2):
        x = barycentric_subdivision(x).complex
        _check_index(x)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_index_matches_definitions_on_random_complexes(group):
    irregular = 0
    for seed in SEEDS:
        x = _orbit_closure_complex(GROUPS[group], seed)
        _check_index(x)
        irregular += not x.is_regular()
        y = make_regular(x)
        assert y.is_regular()
        _check_index(y)
        _check_index(barycentric_subdivision(y).complex)
    assert irregular  # make_regular has work to do on some of them


def test_orbits_partition_the_simplices():
    for name in sorted(models.COMPLEX_MODELS):
        x = models.COMPLEX_MODELS[name]()
        for _ in range(1 if name == "cross5" else 3):
            _check_orbits(x)
            x = barycentric_subdivision(x).complex
    for group in sorted(GROUPS):
        for seed in SEEDS:
            x = _orbit_closure_complex(GROUPS[group], seed)
            _check_orbits(x)
            _check_orbits(barycentric_subdivision(make_regular(x)).complex)


def test_twice_subdivided_orbit_closures():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=5000, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(GROUPS)), st.integers(0, 2**32))
    def check(group, seed):
        x = _orbit_closure_complex(GROUPS[group], seed)
        y = barycentric_subdivision(barycentric_subdivision(x).complex).complex
        assert set(y.simplices()) == close_simplices(y.facets)
        assert y.euler_characteristic() == x.euler_characteristic()
        assert lefschetz(gmap.identity_map(y)) == y.euler_characteristic()
        stabs = y.isotropy().stabilizers
        assert all(stabs[s] == _stab(y, s) for s in y.simplices())

    check()


def test_flipped_edge_needs_make_regular():
    x = GComplex(2, [(0, 1)], {1: (1, 0)}, C2)
    assert not x.is_regular()
    assert _setwise(x, (0, 1)) != x.pointwise_stabilizer((0, 1))
    y = make_regular(x)
    assert y is not x and y.is_regular()
    _check_index(y)


def test_is_isovariant_on_random_maps():
    rng = random.Random(0)
    seen = set()
    for group in sorted(GROUPS):
        for seed in SEEDS:
            x = make_regular(_orbit_closure_complex(GROUPS[group], seed))
            for _ in range(6):
                f = _random_equivariant_map(x, rng)
                if not is_simplicial(f):
                    continue
                assert is_equivariant(f)
                expected = all(
                    _stab(x, s) == _stab(x, f.apply(s)) for s in x.simplices()
                )
                assert is_isovariant(f) == expected
                seen.add(expected)
    assert seen == {True, False}


def test_is_isovariant_rejects_a_collapse():
    # every simplex of the disk goes to the fixed center: equivariant, and
    # isovariant nowhere off the center
    x = barycentric_subdivision(models.COMPLEX_MODELS["rotation-disk"]()).complex
    center = next(v for v in range(x.n_vertices) if _stab(x, (v,)) == frozenset(x.group.elements))
    f = GMap(x, x, (center,) * x.n_vertices)
    assert is_equivariant(f)
    assert not is_isovariant(f)


def test_lefschetz_matches_the_homology_oracle_on_random_maps():
    """On generated simplicial maps lefschetz is the rational homology trace
    and subdivision keeps it; on isovariant ones each per-class number is
    the trace on the class's fixed subcomplex, as a complex of its own."""
    rng = random.Random(2)
    checked = isovariant = 0
    for group in sorted(GROUPS):
        for seed in SEEDS:
            x = make_regular(_orbit_closure_complex(GROUPS[group], seed))
            facets = [tuple(sorted(s)) for s in x.facets]
            for _ in range(6):
                f = _random_equivariant_map(x, rng)
                if not is_simplicial(f):
                    continue
                value = lefschetz(f)
                assert value == oracles.homology_lefschetz(facets, list(f.vertices))
                assert lefschetz(subdivide_map(f)) == value
                checked += 1
                if not is_isovariant(f):
                    continue
                isovariant += 1
                names = class_names(x.group)
                per_class = lefschetz_fixed_sets(f)
                assert list(per_class) == [names[rep] for rep in present_classes(x)]
                for rep in present_classes(x):
                    sub, old = induced_subcomplex(x, fixed_subcomplex(x, rep))
                    new = {v: k for k, v in enumerate(old)}
                    image = [new[f.vertices[v]] for v in old]
                    assert per_class[names[rep]] == oracles.homology_lefschetz(sub.facets, image)
    assert checked >= 40 and 20 <= isovariant < checked


# -- the fixed-simplex list ---------------------------------------------------------


def test_fixed_simplices_computed_once_per_map(monkeypatch):
    # the boundary of a tetrahedron rotated about its apex 5, wedged at 5 to
    # a triangle whose edge (3, 4) is flipped: a 3-cycle (+1), two
    # transpositions (-1) and the pointwise-fixed apex
    x = GComplex(
        6, [(0, 1, 2), (0, 1, 5), (0, 2, 5), (1, 2, 5), (3, 4, 5)], {}, FiniteGroup.cyclic(1)
    )
    f = GMap(x, x, (1, 2, 0, 4, 3, 5))
    calls = []
    sign = gmap._permutation_sign
    monkeypatch.setattr(gmap, "_permutation_sign", lambda p: calls.append(p) or sign(p))
    fixed = f.fixed_simplices()
    expected = tuple(
        (s, _sign([f.vertices[v] for v in s], s))
        for s in f.source.simplices()
        if tuple(sorted(f.vertices[v] for v in s)) == s
        and len({f.vertices[v] for v in s}) == len(s)
    )
    assert fixed == expected == (((5,), 1), ((3, 4), -1), ((0, 1, 2), 1), ((3, 4, 5), -1))
    # one sign per fixed simplex that is not fixed pointwise, and no more
    assert len(calls) == 3
    pidata = PiData(
        TwistedConjugacySetup((), ()),
        frozenset((v, 5) for v in range(5)),
        {e: () for e in fixpoint._edges_of(x)},
        base=5,
    )
    assert lefschetz(f) == 2  # S^2 wedge D^2, degree 1 on the sphere
    lefschetz_fixed_sets(f)
    marks_vector(f)
    burnside_lefschetz(f)
    removal_verdict(f)
    assert reidemeister_trace(f, pidata).lefschetz == 2
    assert not is_fixed_point_free(f)
    assert len(calls) == 3
    assert f.fixed_simplices() is fixed
    # the memo takes no part in equality or hashing
    twin = GMap(f.source, f.target, f.vertices)
    assert twin == f and hash(twin) == hash(f)


# -- per-class traces and forced fixed points ------------------------------------------


def _class_trace(f, h):
    """The Lefschetz number of f on the fixed subcomplex of h: the signs of
    f's fixed simplices that h fixes, alternating with dimension."""
    fixed = fixed_subcomplex(f.source, h)
    return sum((-1) ** (len(s) - 1) * sign for s, sign in f.fixed_simplices() if s in fixed)


@pytest.mark.parametrize("name", sorted(models.MAP_MODELS))
def test_marks_are_the_per_class_traces(name):
    f = models.MAP_MODELS[name]()
    # cross5's first subdivision alone has 224,708 simplices
    for g in (f,) if name == "cross5-identity" else (f, subdivide_map(f)):
        x = g.source
        reps = table_of_marks(x.group).reps
        assert fixpoint._class_traces(g, map(frozenset, reps)) == [
            _class_trace(g, frozenset(rep)) for rep in reps
        ]
        if is_isovariant(g) and g.is_self_map():
            names = class_names(x.group)
            assert lefschetz_fixed_sets(g) == {
                names[rep]: _class_trace(g, rep) for rep in present_classes(x)
            }


def _forced_by_closures(x):
    """The definition: a vertex is forced when the face closure of some
    exact stratum meets some exact stratum in that vertex alone."""
    strata = [exact_stratum(x, rep).simplices for rep in present_classes(x)]
    forced = set()
    for stratum in strata:
        closure = {t for s in stratum for k in range(1, len(s) + 1) for t in combinations(s, k)}
        for other in strata:
            meet = closure & other
            if len(meet) == 1:
                forced.update(t[0] for t in meet if len(t) == 1)
    return forced


def _complexes_for_forced_points():
    for name in sorted(models.COMPLEX_MODELS):
        x = models.COMPLEX_MODELS[name]()
        yield f"{name} sd^0", x
        if name == "cross5":
            continue  # its first subdivision alone has 224,708 simplices
        for depth in (1, 2):
            x = barycentric_subdivision(x).complex
            yield f"{name} sd^{depth}", x
    for group in sorted(GROUPS):
        for seed in SEEDS:
            x = _orbit_closure_complex(GROUPS[group], seed)
            yield f"{group} seed {seed}", x
            yield f"{group} seed {seed} regular", make_regular(x)


def test_forced_fixed_points_match_the_closure_definition():
    found = set()
    for label, x in _complexes_for_forced_points():
        forced = forced_fixed_points(x)
        assert forced == _forced_by_closures(x), label
        found.add(bool(forced))
    assert found == {True, False}
