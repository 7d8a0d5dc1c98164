"""Equivariant simplicial complexes: actions, strata, filtrations, quotients."""

import random

import pytest

import oracles
from isokit import models
from isokit.errors import NotEquivariantTriangulation, NotRegular
from isokit.gcomplex import (
    GComplex,
    _normalize_facets,
    barycentric_subdivision,
    check_hypotheses,
    class_fixed_union,
    close_simplices,
    complete_action,
    exact_stratum,
    filtration,
    fixed_subcomplex,
    induced_subcomplex,
    is_treelike,
    make_regular,
    orbit_complex,
    present_classes,
    stratification_dot,
    stratum_closure,
)
from isokit.group import FiniteGroup, class_names, enumerate_subgroups

ALL_MODELS = sorted(models.COMPLEX_MODELS)


def test_validation_errors():
    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        GComplex(2, [(0, 1)], {0: (0, 1), 1: (0, 0)}, group=c2)  # not a permutation
    with pytest.raises(ValueError):
        # swap does not preserve the facet set
        GComplex(3, [(0, 1)], {0: (0, 1, 2), 1: (2, 1, 0)}, group=c2)
    with pytest.raises(ValueError):
        GComplex(2, [(0, 1)], {0: (0, 1), 1: (0, 1), 2: (0, 1)}, group=c2)
    with pytest.raises(ValueError):
        GComplex(2, [(0, 0)], {0: (0, 1), 1: (1, 0)}, group=c2)  # repeated vertex


def _perm_closure(gens):
    """Elements of the permutation group generated by gens, sorted as
    FiniteGroup.from_generators numbers them."""
    seen = {tuple(range(len(gens[0])))}
    walk = list(seen)
    for p in walk:
        for q in gens:
            pq = tuple(p[i] for i in q)
            if pq not in seen:
                seen.add(pq)
                walk.append(pq)
    return sorted(seen)


@pytest.mark.parametrize(
    "group, gens",
    [
        (FiniteGroup.symmetric(3), [(1, 0, 2), (1, 2, 0)]),
        (FiniteGroup.dihedral(4), [(1, 2, 3, 0), (0, 3, 2, 1)]),
    ],
)
def test_complete_action_from_generators(group, gens):
    # the natural action on the points, given only on the generators
    perms = _perm_closure(gens)
    assert len(perms) == group.order
    partial = {perms.index(p): p for p in gens}
    full = {g: p for g, p in enumerate(perms)}
    assert complete_action(group, len(gens[0]), partial) == full
    x = GComplex(len(gens[0]), [tuple(range(len(gens[0])))], partial, group=group)
    assert x.action == tuple(perms)


def test_complete_action_rejections():
    c4 = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError, match="element 4, outside the group"):
        complete_action(c4, 4, {4: (1, 2, 3, 0)})
    with pytest.raises(ValueError, match="element 1 is not a vertex permutation"):
        complete_action(c4, 4, {1: (1, 1, 3, 0)})
    with pytest.raises(ValueError, match="conflicting permutations for element 0"):
        complete_action(c4, 4, {0: (1, 2, 3, 0)})
    with pytest.raises(ValueError, match="do not generate the whole group"):
        complete_action(c4, 4, {2: (2, 3, 0, 1)})


def test_nonhomomorphic_partial_action_rejected():
    # element 2 = 1 + 1 in C4, but its permutation is not the square of 1's
    c4 = FiniteGroup.cyclic(4)
    partial = {1: (1, 2, 3, 0), 2: (1, 0, 3, 2)}
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GComplex(4, [(0, 1, 2, 3)], partial, group=c4)


def test_pointwise_stabilizer_rejects_foreign_vertices():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for v in (x.n_vertices, -1):
        with pytest.raises(ValueError, match=f"vertex {v} is not a vertex"):
            x.pointwise_stabilizer((v,))
        with pytest.raises(ValueError, match=f"vertex {v} is not a vertex"):
            x.pointwise_stabilizer((0, v))


def test_simplices_and_euler():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    sims = x.simplices()
    assert len(sims) == 25  # 7 vertices + 12 edges + 6 triangles
    assert x.dim == 2
    assert x.euler_characteristic() == 1
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    assert hexagon.euler_characteristic() == 0


@pytest.mark.parametrize("name", ALL_MODELS)
def test_action_properties(name):
    x = models.COMPLEX_MODELS[name]()
    sims = set(x.simplices())
    for g in x.group.elements:
        # action permutes the simplices and preserves stabilizer classes
        assert {x.act_simplex(g, s) for s in sims} == sims
    for v in range(x.n_vertices):
        stab = x.vertex_stabilizer(v)
        assert 0 in stab
        for g in x.group.elements:
            conj = frozenset(
                x.group.mul(x.group.mul(g, h), x.group.inv(g)) for h in stab
            )
            assert x.vertex_stabilizer(x.act_vertex(g, v)) == conj


def test_stabilizers_on_wedge():
    x = models.COMPLEX_MODELS["wedge"]()
    assert x.vertex_stabilizer(0) == frozenset({0, 1})
    assert x.vertex_stabilizer(1) == frozenset({0})
    assert x.pointwise_stabilizer((3, 4)) == frozenset({0, 1})
    assert x.setwise_stabilizer((1, 2)) == frozenset({0, 1})
    assert x.pointwise_stabilizer((1, 2)) == frozenset({0})


def test_fixed_subcomplex_and_strata():
    x = models.COMPLEX_MODELS["wedge"]()
    c2 = frozenset({0, 1})
    fixed = fixed_subcomplex(x, c2)
    assert fixed == close_simplices({(0,), (3,), (4,), (0, 3), (0, 4), (3, 4)})
    stratum = exact_stratum(x, frozenset({0}))
    # exact free stratum: simplices whose pointwise stabilizer is trivial
    assert all(x.pointwise_stabilizer(s) == frozenset({0}) for s in stratum.simplices)
    assert stratum_closure(x, stratum) == close_simplices(stratum.simplices)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_exact_strata_partition(name):
    x = models.COMPLEX_MODELS[name]()
    sims = set(x.simplices())
    covered = []
    for h in present_classes(x):
        covered.extend(exact_stratum(x, h).simplices)
    # one exact stratum per conjugacy class partitions the complex
    assert sorted(covered) == sorted(sims)


def test_conjugation_equivariance_of_fixed_sets():
    for name in ("wedge", "c2xc2-wedge", "s3-dust", "cross5"):
        x = models.COMPLEX_MODELS[name]()
        for h in present_classes(x):
            fixed = fixed_subcomplex(x, h)
            for g in x.group.elements:
                conj = frozenset(
                    x.group.mul(x.group.mul(g, a), x.group.inv(g)) for a in h
                )
                image = frozenset(x.act_simplex(g, s) for s in fixed)
                assert image == fixed_subcomplex(x, conj)


def test_regularity_and_subdivision():
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    assert hexagon.is_regular()
    sd = barycentric_subdivision(hexagon)
    assert sd.complex.n_vertices == 12  # 6 old vertices + 6 edge barycenters
    assert sd.complex.euler_characteristic() == hexagon.euler_characteristic()
    # vertex dictionaries are mutually inverse
    for v, s in enumerate(sd.vertex_to_simplex):
        assert sd.simplex_to_vertex[s] == v
    segment = GComplex(
        2, [(0, 1)], {0: (0, 1), 1: (1, 0)}, group=FiniteGroup.cyclic(2)
    )
    assert not segment.is_regular()  # the edge is flipped setwise
    fixed = make_regular(segment)
    assert fixed.is_regular()
    assert fixed.n_vertices == 3
    assert make_regular(hexagon) is hexagon


def test_filtration_levels():
    x = models.COMPLEX_MODELS["wedge"]()
    filt = filtration(x)
    assert filt.names == ("C2", "e")
    assert [len(level) for level in filt.levels] == [6, 10]
    # each level is closed and nested in the next
    prev = frozenset()
    for level in filt.levels:
        assert close_simplices(level) == frozenset(level)
        assert prev <= frozenset(level)
        prev = frozenset(level)
    dust = models.COMPLEX_MODELS["s3-dust"]()
    dfilt = filtration(dust)
    assert dfilt.names == ("G6", "C3", "C2", "e")
    assert [len(level) for level in dfilt.levels] == [1, 3, 6, 12]


def test_class_fixed_union():
    x = models.COMPLEX_MODELS["s3-dust"]()
    names = class_names(x.group)
    by_name = {names[h]: h for h in present_classes(x)}
    # three conjugate C2s fix one vertex each, plus the G6 vertex
    assert len(class_fixed_union(x, by_name["C2"])) == 4
    assert len(class_fixed_union(x, by_name["e"])) == 12


def test_treelike():
    assert is_treelike(models.COMPLEX_MODELS["wedge"]())
    assert is_treelike(models.COMPLEX_MODELS["hexagon"]())
    assert not is_treelike(models.COMPLEX_MODELS["s3-dust"]())  # C2 not normal
    assert not is_treelike(models.COMPLEX_MODELS["c2xc2-wedge"]())  # incomparable C2s


def test_check_hypotheses():
    x = models.COMPLEX_MODELS["wedge"]()
    report = check_hypotheses(x, {"e": 1, "C2": 1})
    assert not report.ok
    assert not report.gap_ok and ("e", "C2", 0) in report.gap_failures
    d = report.as_dict()
    assert d["ok"] is False and d["dims"] == {"C2": 1, "e": 1}
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    assert check_hypotheses(hexagon, {"e": 3}).ok
    assert not check_hypotheses(hexagon, {"e": 2}).ok  # claimed dim below 3
    assert not check_hypotheses(hexagon).ok  # no dims supplied


def test_orbit_complex():
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    oc = orbit_complex(hexagon)
    assert oc.complex.n_vertices == 3
    assert len(oc.complex.facets) == 3  # triangle
    for s in hexagon.simplices():
        assert oc.image_of(s) in set(oc.complex.simplices())
    square = models.COMPLEX_MODELS["antipodal-square"]()
    # regular yet quotient collapses two edges onto one image simplex
    assert square.is_regular()
    osq = orbit_complex(square)
    assert osq.complex.n_vertices == 2 and osq.complex.facets == ((0, 1),)


def test_induced_subcomplex():
    x = models.COMPLEX_MODELS["wedge"]()
    fixed = fixed_subcomplex(x, frozenset({0, 1}))
    sub, old_of_new = induced_subcomplex(x, fixed)
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    assert sub.n_vertices == 3
    assert sub.euler_characteristic() == 0  # circle 0-3-4
    for s in sub.simplices():
        assert tuple(sorted(old_of_new[v] for v in s)) in fixed
    for g in x.group.elements:
        for v in range(sub.n_vertices):
            assert sub.act_vertex(g, v) == new_of_old[x.act_vertex(g, old_of_new[v])]


def _maximal_by_pairs(facets):
    """Reference: keep each cleaned facet that no other one strictly contains."""
    cleaned = {tuple(sorted(set(f))) for f in facets} - {()}
    maximal = [
        f for f in cleaned if not any(f != g and set(f) < set(g) for g in cleaned)
    ]
    return tuple(sorted(maximal, key=lambda f: (len(f), f)))


def test_normalize_facets_matches_pairwise_definition():
    fixed_cases = [
        [(0, 1, 2), (0,)],  # a codimension-2 face is not maximal either
        [(2, 0, 1), (1, 0, 2), (1, 2), (3,), ()],  # unsorted and duplicated
        [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3), (4,), (4, 5)],
    ]
    rng = random.Random(20211)
    random_cases = [
        [rng.sample(range(8), rng.randint(0, 4)) for _ in range(rng.randint(1, 12))]
        for _ in range(300)
    ]
    for facets in fixed_cases + random_cases:
        assert _normalize_facets(facets) == _maximal_by_pairs(facets), facets
    assert _normalize_facets([(0, 1, 2), (0,)]) == ((0, 1, 2),)


def test_induced_subcomplex_facets_are_maximal_faces():
    x = models.COMPLEX_MODELS["c2xc2-wedge"]()  # non-pure: free vertices 5-8
    for h in enumerate_subgroups(x.group):
        fixed = fixed_subcomplex(x, h)
        sub, old_of_new = induced_subcomplex(x, fixed)
        mapped = {tuple(old_of_new[v] for v in f) for f in sub.facets}
        assert mapped == set(_maximal_by_pairs(fixed)), sorted(h)


def test_rotation_disk_sd4_counts():
    # 6 triangles, each split into 3! flags per round; a quadratic facet
    # normalization takes tens of seconds here
    x = make_regular(models.COMPLEX_MODELS["rotation-disk"]())
    for _ in range(4):
        x = barycentric_subdivision(x).complex
    assert len(x.facets) == 6 * 6**4 == 7776
    assert x.euler_characteristic() == 1


def test_stratification_dot():
    x = models.COMPLEX_MODELS["s3-dust"]()
    dot = stratification_dot(x)
    assert dot.startswith("digraph")
    for name in ("e", "C2", "C3", "G6"):
        assert f'"{name}"' in dot
    assert '"e" -> "C2"' in dot
    assert '"C2" -> "G6"' in dot
    assert '"e" -> "G6"' not in dot  # covers only, no transitive edges


def test_betti_numbers_of_models():
    # cross-check global shape against the rational homology oracle
    for name, expected in [
        ("hexagon", [1, 1]),
        ("rotation-disk", [1, 0, 0]),
        ("wedge", [1, 1]),
        ("cross5", [1, 0, 0, 1, 0, 0]),
    ]:
        x = models.COMPLEX_MODELS[name]()
        facets = [tuple(sorted(f)) for f in x.facets]
        assert oracles.homology_ranks(facets) == expected
        euler = sum((-1) ** i * b for i, b in enumerate(expected))
        assert x.euler_characteristic() == euler
