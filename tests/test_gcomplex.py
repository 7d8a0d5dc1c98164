"""Equivariant simplicial complexes: actions, strata, filtrations, quotients."""

import hashlib
import json
import random
import re
from itertools import permutations

import pytest

import oracles
from isokit import group as group_module
from isokit import gcomplex as gcomplex_module
from isokit import models
from isokit.errors import NotEquivariantTriangulation, NotRegular, TooManySimplices
from isokit.gcomplex import (
    MAX_SIMPLICES,
    GComplex,
    _fubini,
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
)
from isokit.gmap import link_graph
from isokit.group import (
    FiniteGroup,
    class_names,
    class_rep_of,
    enumerate_subgroups,
    is_normal,
    is_subconjugate,
    left_cosets,
    subgroup_conjugacy_classes,
)
from isokit.linking import slot_coset_complex

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


@pytest.mark.parametrize(
    "vertices, action, bad",
    [
        (2.9, {}, "2.9"),
        ("3", {}, "'3'"),
        (True, {}, "True"),
        (2, {1: (1.2, 0.4)}, "1.2"),
        (2, {1: (True, 0)}, "True"),
    ],
)
def test_vertex_counts_and_action_entries_must_be_integers(vertices, action, bad):
    """A float, a bool or a string is named, not truncated to an int."""
    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}$"):
        GComplex(vertices, [(0,), (1,)], action or {1: (1, 0)}, group=c2)
    assert GComplex(2, [(0,), (1,)], {1: (1, 0)}, group=c2).n_vertices == 2
    # so is a facet vertex, which a bool True would alias to 1
    for facet, bad in (((True, 0), "True"), ((0, 1.0), "1.0"), ((0, "1"), "'1'")):
        with pytest.raises(ValueError, match=f"facet vertex must be an integer, got {bad}$"):
            GComplex(2, [facet], {}, group=FiniteGroup.cyclic(1))


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
        stab = oracles._pointwise_stab(x.group.table, x.action, (v,))
        assert 0 in stab
        for g in x.group.elements:
            conj = frozenset(
                x.group.mul(x.group.mul(g, h), x.group.inv(g)) for h in stab
            )
            assert oracles._pointwise_stab(x.group.table, x.action, (x.act_vertex(g, v),)) == conj


def test_stabilizers_on_wedge():
    x = models.COMPLEX_MODELS["wedge"]()
    assert x.pointwise_stabilizer((0,)) == frozenset({0, 1})
    assert x.pointwise_stabilizer((1,)) == frozenset({0})
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


@pytest.mark.parametrize("query, h", [
    (exact_stratum, {1}),
    (exact_stratum, {0, 5}),
    (class_fixed_union, {0, 5}),
    (class_fixed_union, {1}),
    (fixed_subcomplex, {0, 5}),
    (fixed_subcomplex, {1}),
], ids=["stratum-1", "stratum-0,5", "union-0,5", "union-1", "fixed-0,5", "fixed-1"])
def test_strata_of_a_set_that_is_not_a_subgroup(query, h):
    """rotation-disk's group is C2 = {0, 1}; a set without the identity or
    with elements outside the group names no stratum and no fixed set."""
    x = models.COMPLEX_MODELS["rotation-disk"]()
    with pytest.raises(ValueError, match=re.escape(f"{sorted(h)} is not a subgroup")):
        query(x, h)


@pytest.mark.parametrize("query, bad", [
    (lambda x: class_rep_of(x.group, {0, 99}), [0, 99]),
    (lambda x: left_cosets(x.group, {9}), [9]),
    (lambda x: is_normal(x.group, {7}), [7]),
    (lambda x: is_subconjugate(x.group, {0, 99}, frozenset(x.group.elements)), [0, 99]),
    (lambda x: is_subconjugate(x.group, frozenset({0}), {0, 99}), [0, 99]),
    (lambda x: link_graph(x, {0, 99}, frozenset(x.group.elements)), [0, 99]),
], ids=["class_rep_of", "left_cosets", "is_normal", "subconjugate-h", "subconjugate-k", "link_graph"])
def test_a_set_outside_the_group_is_a_value_error(query, bad):
    """s3-dust's group is S3 on 0..5; a set with another element is named
    in a ValueError, not an IndexError."""
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        query(models.COMPLEX_MODELS["s3-dust"]())


def test_class_queries_read_the_class_data(count_calls):
    """Once the group's classes and the isotropy index exist, the class
    queries conjugate no subgroup and walk no simplex list."""
    x = models.COMPLEX_MODELS["s3-dust"]()
    subs = enumerate_subgroups(x.group)
    subgroup_conjugacy_classes(x.group)
    x.isotropy()
    conjugations = count_calls("conjugate_subgroup", group_module)
    walks = count_calls("simplices", GComplex)
    check_hypotheses(x)
    for h in subs:
        class_fixed_union(x, h)
        is_normal(x.group, h)
    stratification_dot(x)
    assert conjugations == [] and walks == []


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


@pytest.mark.parametrize("value", [None, 1.5, "5", True])
def test_claimed_dimensions_must_be_integers(value):
    """A claimed dimension that is not an int raises ValueError naming the
    class and the value; it is neither converted nor reported as one."""
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    with pytest.raises(ValueError, match=re.escape(f"class 'e' must be an integer, got {value!r}")):
        check_hypotheses(hexagon, {"e": value})
    assert check_hypotheses(hexagon, {"e": 5}).dims_used == {"e": 5}


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
    # the reflection swaps the segment tips 1 and 2
    with pytest.raises(ValueError, match="not invariant"):
        induced_subcomplex(x, [(0, 1), (0, 3)])


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
        assert _normalize_facets(facets)[0] == _maximal_by_pairs(facets), facets
    assert _normalize_facets([(0, 1, 2), (0,)])[0] == ((0, 1, 2),)


def test_induced_subcomplex_facets_are_maximal_faces():
    x = models.COMPLEX_MODELS["c2xc2-wedge"]()  # non-pure: free vertices 5-8
    for h in enumerate_subgroups(x.group):
        fixed = fixed_subcomplex(x, h)
        sub, old_of_new = induced_subcomplex(x, fixed)
        mapped = {tuple(old_of_new[v] for v in f) for f in sub.facets}
        assert mapped == set(_maximal_by_pairs(fixed)), sorted(h)


def _assert_built_as_checked(built, n, facets, action, names):
    """A derived builder's complex is the one that GComplex's public,
    checked constructor makes from the same parts."""
    checked = GComplex(n, facets, action, built.group, names=names)
    assert built.n_vertices == checked.n_vertices
    assert built.facets == checked.facets
    assert built.simplices() == checked.simplices()
    assert built.action == checked.action
    assert built.names == checked.names


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_orbit_and_induced_complexes_match_the_checked_constructor(name, depth):
    """orbit_complex and induced_subcomplex over every class fixed set,
    the G-invariant fixed sets that stratum_maps restricts to."""
    x = models.COMPLEX_MODELS[name]()
    for _ in range(depth):
        x = barycentric_subdivision(x).complex
    oc = orbit_complex(x)
    m = len(oc.orbit_members)
    orbit_names = ["{" + ",".join(x.names[v] for v in orb) + "}" for orb in oc.orbit_members]
    facet_images = [oc.image_of(f) for f in x.facets]
    _assert_built_as_checked(oc.complex, m, facet_images, {0: tuple(range(m))}, orbit_names)
    for cls in subgroup_conjugacy_classes(x.group):
        fixed = class_fixed_union(x, cls[0])
        sub, old_of_new = induced_subcomplex(x, fixed)
        new = {v: i for i, v in enumerate(old_of_new)}
        action = {
            g: tuple(new[perm[v]] for v in old_of_new) for g, perm in enumerate(x.action)
        }
        facets = [[new[v] for v in s] for s in fixed]
        _assert_built_as_checked(sub, len(new), facets, action, [x.names[v] for v in old_of_new])


@pytest.mark.parametrize("group", ["S3", "S4", "D4xC2"])
def test_slot_coset_complex_matches_the_checked_constructor(group):
    """Over every chain H_0 < ... < H_n with n <= 2: one facet per group
    element a, its cosets a H_i, and a acting on cosets from the left."""
    g = {
        "S3": FiniteGroup.symmetric(3),
        "S4": FiniteGroup.symmetric(4),
        "D4xC2": FiniteGroup.direct_product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2)),
    }[group]
    subs = enumerate_subgroups(g)
    chains = [(h,) for h in subs]
    chains += [c + (k,) for c in chains for k in subs if c[-1] < k]
    chains += [c + (k,) for c in chains if len(c) == 2 for k in subs if c[-1] < k]
    for chain in chains:
        cx, verts = slot_coset_complex(g, chain)
        index = {v: i for i, v in enumerate(verts)}

        def coset(i, c):
            return index[(i, frozenset(c))]

        facets = [[coset(i, (g.mul(a, h) for h in sub)) for i, sub in enumerate(chain)] for a in g.elements]
        action = {a: tuple(coset(i, (g.mul(a, x) for x in c)) for i, c in verts) for a in g.elements}
        names = [f"{i}:{{{','.join(map(str, sorted(c)))}}}" for i, c in verts]
        _assert_built_as_checked(cx, len(verts), facets, action, names)


def test_rotation_disk_sd4_counts():
    # 6 triangles, each split into 3! flags per round; a quadratic facet
    # normalization takes tens of seconds here
    x = make_regular(models.COMPLEX_MODELS["rotation-disk"]())
    for _ in range(4):
        x = barycentric_subdivision(x).complex
    assert len(x.facets) == 6 * 6**4 == 7776
    assert x.euler_characteristic() == 1


def test_face_closure_size_guard(monkeypatch, count_calls):
    """A facet of k vertices has 2^k - 1 faces: one whose faces could take
    the closure past MAX_SIMPLICES raises TooManySimplices before any of
    them is enumerated.  A 40-vertex facet would need 2^40."""
    trivial = FiniteGroup.cyclic(1)
    faces = count_calls("_faces", gcomplex_module)
    message = "the faces of a 40-vertex facet take the complex past the cap of 2000000 simplices"
    with pytest.raises(TooManySimplices, match=message):
        GComplex(40, [range(40)], {}, trivial)
    assert faces == []
    monkeypatch.setattr(gcomplex_module, "MAX_SIMPLICES", 2**4 - 1)
    assert len(GComplex(4, [range(4)], {}, trivial).simplices()) == 2**4 - 1
    with pytest.raises(TooManySimplices, match="a 5-vertex facet"):
        GComplex(5, [range(5)], {}, trivial)


def test_subdivision_size_guard():
    """A subdivision has one simplex per flag, sum F(dim s + 1) over the
    simplices s with F the Fubini numbers; above the cap nothing is built."""
    assert _fubini(6) == [1, 1, 3, 13, 75, 541, 4683]
    simplex = GComplex(11, [range(11)], {}, FiniteGroup.cyclic(1))
    message = "a subdivision of 3245265145 simplices exceeds the cap of 2000000"
    with pytest.raises(TooManySimplices, match=message):
        barycentric_subdivision(simplex)
    once = barycentric_subdivision(models.COMPLEX_MODELS["cross5"]()).complex
    assert len(once.simplices()) == 224708
    with pytest.raises(TooManySimplices, match="of 152942536 simplices"):
        barycentric_subdivision(once)
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for _ in range(5):
        x = barycentric_subdivision(x).complex
    assert len(x.simplices()) == 140161 <= MAX_SIMPLICES
    for name in ALL_MODELS:
        y = models.COMPLEX_MODELS[name]()
        flags = sum(_fubini(len(s))[-1] for s in y.simplices())
        assert len(barycentric_subdivision(y).complex.simplices()) == flags, name


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


# sha256 of _subdivision_record at depths 1 to 3 (1 only for cross5, whose
# second subdivision has about 16.7 million facets), taken while subdivisions
# were still built by normalizing the flags of every facet permutation
SUBDIVISION_DIGESTS = {
    ("antipodal-square", 1): "f5861e7bd9ecc55200393a33d187377d0d02588e4bce832eaccba23da33f675f",
    ("antipodal-square", 2): "138fec0ca38c830d73253bca5058181561308b8b3743ddc7c32a6ec059274b04",
    ("antipodal-square", 3): "a06858f2a0ab2601ec8be3cf94c326c578729bdffdb0ac66cfe14468bc68aca7",
    ("c2-point", 1): "7a451f5455df5ebfd014641a5ddd7d309fbbaf36b88f912886121554cf453bb7",
    ("c2-point", 2): "f44ddef98bf25ddfd8d99987c82faa0cc50606bb9f6502e2feead47ca6e71796",
    ("c2-point", 3): "6165f3ee54e3b032c24bbb333d2f7fb07f0cfa2b0d594999daddfed20548b4f5",
    ("c2xc2-wedge", 1): "1b81781d09efb1470fdec9bd743c9afef8816f339d78452eb8d3f2fdced90f61",
    ("c2xc2-wedge", 2): "17dbb2d0810e513d76af727d0a0e052fc26922b56cb63db535a449709c596f1f",
    ("c2xc2-wedge", 3): "0a0a80188177d88a1f319eef539d0798ad14cdf2cb824e14f2de22dbaf9de333",
    ("cross5", 1): "1c672006a1cba9b5f2a0cfe807df6437807082c32cdbeaa8a547711318b43d31",
    ("hexagon", 1): "e9bf44aeee23159ac5980dbf3e4747315f7661121c6de2706166d94a4f6d6ef6",
    ("hexagon", 2): "26dfb148b26cec55ffb6799b4659850a9fb0ad852d12007ee9295c7169f4f390",
    ("hexagon", 3): "c160dcf545089fe462e9d9d25f1be64bae8cb622cfc3a96c369df639334582d1",
    ("point", 1): "46a9409a004619d80724371269d6d1a35d49370a0e1f0d82230e99434cb2ffac",
    ("point", 2): "c6a83f24f3c50c7467ec02be3ad18311cf3e61361aada231dc4109259d80e5a3",
    ("point", 3): "61dab033d3c42bdeadde7b7db89eb1816a3fd781869a53181bef1e29f1ff54d8",
    ("rotation-disk", 1): "6f8df0316dc6060acd06213827b5edc3bc73cd37f35fc0cfc90a29af567f8eec",
    ("rotation-disk", 2): "6a517eff146d23a1c61c08a37a26cd85bcc2e11a697b4a10a0dadddcb55b437b",
    ("rotation-disk", 3): "a015bb479dbddb9ac3cad61b775889041e74ca66d79f74d39aee05126ecaffb1",
    ("s3-dust", 1): "7d80f8c294490a4e97a2df5a8fe96aba007f432ac4786476d255b2dfa516cad6",
    ("s3-dust", 2): "c9a6ee69c31b5a9eca074a63cc3cf4b19b8dde010605a7dec8057c22d2b4560a",
    ("s3-dust", 3): "b86017c9139a546ee658f96e3935b239f89ed4571b02acb847c1b1a35c4d1548",
    ("swap-segment", 1): "1445399700ca20f898ed1b0f39eacec2460aee7400bdb80813a88c831c8daaf9",
    ("swap-segment", 2): "a16ed39c0aafc20aec209419dab1b7206ced149d1c2f7d1662e5775c03d1d3fb",
    ("swap-segment", 3): "9f0b4d350e368c56eea16506210329aa0ba615a75e2956a608df5f7ad3a82e72",
    ("wedge", 1): "367624d4b73b552f174c06477c400e6cbc7a3326a430180eecf6bbee734d1932",
    ("wedge", 2): "1a2ec5091e87d2fc6f092bba40d0ce9933b70620552ee8af5827cd7f20892865",
    ("wedge", 3): "9dbef0d7cb0c66840762b6cc1b24f0f1d32ddeeb5ef2a59f785c41d8fafa7458",
}


def _subdivision_record(sd):
    y = sd.complex
    return json.dumps(
        [
            [list(f) for f in y.facets],
            [list(s) for s in y.simplices()],
            [list(p) for p in y.action],
            list(y.names),
            [list(s) for s in sd.vertex_to_simplex],
            y.n_vertices,
        ],
        separators=(",", ":"),
    )


def _flags_by_permutations(x, index):
    """Reference: one flag per ordering of each facet's vertices."""
    return [
        [index[tuple(sorted(perm[: k + 1]))] for k in range(len(perm))]
        for f in x.facets
        for perm in permutations(f)
    ]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_subdivision_is_built_from_its_flags(name):
    x = models.COMPLEX_MODELS[name]()
    for depth in range(1, 2 if name == "cross5" else 4):
        sd = barycentric_subdivision(x)
        y = sd.complex
        assert y.simplices() == tuple(sorted(close_simplices(y.facets), key=lambda s: (len(s), s)))
        # the full flags are maximal (public == y below), so normalizing them sorts them
        flags = {tuple(sorted(c)) for c in _flags_by_permutations(x, sd.simplex_to_vertex)}
        assert y.facets == tuple(sorted(flags, key=lambda s: (len(s), s)))
        public = GComplex(
            y.n_vertices, y.facets, dict(enumerate(y.action)), y.group, names=y.names
        )
        assert public == y and hash(public) == hash(y)
        digest = hashlib.sha256(_subdivision_record(sd).encode()).hexdigest()
        assert digest == SUBDIVISION_DIGESTS[(name, depth)]
        x = y


def test_simplices_come_from_the_normalized_closure():
    # facets given with their faces and duplicates: one closure, kept until sorted
    x = GComplex(4, [(2, 1, 0), (0, 1), (3,), (1, 2, 0), (2, 3)], {}, FiniteGroup.cyclic(1))
    assert x.facets == ((2, 3), (0, 1, 2))
    assert x.simplices() == (
        (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (2, 3), (0, 1, 2)
    )
    assert x._closed is None  # released once sorted


def test_a_vertex_count_without_action_or_names_is_read_off_the_facets():
    """With no action and no names only the facets name vertices, so a
    larger count names vertices that nothing else can describe."""
    trivial = FiniteGroup.cyclic(1)
    for n in (3, 10**308):
        with pytest.raises(ValueError, match="vertex count exceeds the 2 vertices its facets name"):
            GComplex(n, [(0, 1)], {}, trivial)
    assert GComplex(2, [(0, 1)], {}, trivial).n_vertices == 2
    assert GComplex(3, [(0, 1)], {}, trivial, names=("a", "b", "c")).n_vertices == 3
    assert GComplex(0, [], {}, trivial).simplices() == ()


def test_a_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        GComplex(-1, [], {}, FiniteGroup.cyclic(1))
