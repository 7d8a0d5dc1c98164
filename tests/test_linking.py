"""Linking simplices, boundaries, fundamental domains, phi maps, cells."""

import hashlib
import re
import weakref
from collections import Counter
from itertools import combinations

import pytest
from test_group import LATTICE_FAMILIES, _relabel
from test_isotropy import GROUPS as ISOTROPY_GROUPS, _orbit_closure_complex

from isokit import gcomplex as gcomplex_module
from isokit import group as group_module
from isokit import linking as linking_module
from isokit import models
from isokit.errors import (
    NotEquivariantTriangulation,
    NotStrictChain,
    NotWeaklyDecreasing,
    ZeroChain,
)
from isokit.fixpoint import removal_verdict
from isokit.gcomplex import (
    GComplex,
    barycentric_subdivision,
    close_simplices,
    make_regular,
    orbit_complex,
)
from isokit.gmap import GMap
from isokit.group import (
    FiniteGroup,
    class_names,
    enumerate_chains,
    enumerate_subgroups,
    left_cosets,
    subgroup_closure,
    subgroup_conjugacy_classes,
    table_of_marks,
)
from isokit.jsonio import canonical_dumps, cells_to_json, complex_to_json, parse_complex
from isokit.linking import (
    IllmanSimplex,
    LinkingSimplex,
    boundary,
    build_linking,
    collapse_map,
    decompose,
    fundamental_domain,
    illman_complex,
    phi_vertex_map,
    slot_coset_complex,
    validate_cells,
)

GROUPS = {
    "C2": lambda: FiniteGroup.cyclic(2),
    "C3": lambda: FiniteGroup.cyclic(3),
    "S3": lambda: FiniteGroup.symmetric(3),
    "C2xC2": lambda: FiniteGroup.direct_product(
        FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    ),
}


def _strict_pairs(g):
    subs = enumerate_subgroups(g)
    return [
        (h0, h1)
        for h0 in subs
        for h1 in subs
        if frozenset(h0) < frozenset(h1)
    ]


def test_basic_linking_e_c2():
    g = FiniteGroup.cyclic(2)
    l = build_linking(g, [[0], [0, 1]])
    assert l.complex.n_vertices == 3
    assert l.complex.facets == ((0, 2), (1, 2))
    assert l.name() == "e<C2"
    # vertex 2 is the C2 coset, fixed; 0 and 1 are the free pair
    assert l.complex.pointwise_stabilizer((2,)) == frozenset({0, 1})
    assert l.complex.pointwise_stabilizer((0,)) == frozenset({0})
    oc = orbit_complex(l.complex)
    assert oc.complex.n_vertices == 2 and oc.complex.facets == ((0, 1),)


def _s4_chain():
    """A maximal chain of S4: each group covers the previous one."""
    g = FiniteGroup.symmetric(4)
    subs = enumerate_subgroups(g)
    chain = [subs[0]]
    for h in subs:
        if chain[-1] < h and all(not (chain[-1] < k < h) for k in subs):
            chain.append(h)
    assert [len(h) for h in chain] == [1, 2, 4, 8, 24]
    return g, chain


def test_slot_coset_complex_matches_definition_on_s4():
    """Vertices (slot, coset), facets {(i, xH_i)}, action a.(i, C) = (i, aC)."""
    g, chain = _s4_chain()
    for groups in (chain, chain[::-1], [chain[3], chain[3], chain[1], chain[0]]):
        cx, verts = slot_coset_complex(g, groups)
        expect_verts = []
        for i, h in enumerate(groups):
            cosets = {frozenset(g.mul(x, s) for s in h) for x in g.elements}
            expect_verts += [(i, c) for c in sorted(cosets, key=sorted)]
        assert list(verts) == expect_verts
        index = {v: k for k, v in enumerate(expect_verts)}
        expect_facets = {
            tuple(sorted(index[(i, frozenset(g.mul(x, s) for s in h))]
                         for i, h in enumerate(groups)))
            for x in g.elements
        }
        assert set(cx.facets) == expect_facets
        for a in g.elements:
            assert cx.action[a] == tuple(
                index[(i, frozenset(g.mul(a, x) for x in c))] for i, c in expect_verts
            )
        assert cx.names == tuple(
            f"{i}:{{{','.join(map(str, sorted(c)))}}}" for i, c in expect_verts
        )


def test_vertex_index_matches_the_vertex_list_on_s4():
    g, chain = _s4_chain()
    complexes = [build_linking(g, chain), build_linking(g, chain[1:4])]
    for groups in (chain[::-1], [chain[3], chain[3], chain[1], chain[0]]):
        complexes.append(illman_complex(g, groups))
    for m in complexes:
        for i, c in m.vertices:
            assert m.vertex_index(i, c) == m.vertices.index((i, c))


def test_cached_cosets_match_the_definition_on_s4():
    g = FiniteGroup.symmetric(4)
    for h in enumerate_subgroups(g):
        cosets = left_cosets(g, h)
        expected = {frozenset(g.mul(x, s) for s in h) for x in g.elements}
        assert set(cosets.cosets) == expected and len(cosets.cosets) == len(expected)
        assert [min(c) for c in cosets.cosets] == sorted(min(c) for c in expected)
        for x in g.elements:
            assert x in cosets.cosets[cosets.index[x]]
        assert left_cosets(g, h) is cosets  # built once per subgroup


@pytest.mark.parametrize("build", [
    lambda g, h: left_cosets(g, h),
    lambda g, h: slot_coset_complex(g, [h]),
    lambda g, h: slot_coset_complex(g, [frozenset(g.elements), h]),
], ids=["left_cosets", "slot_coset_complex", "slot_coset_complex-second"])
@pytest.mark.parametrize("h", [{0, 1, 2}, {1}, {0, 1, 2, 3, 4}], ids=["0,1,2", "1", "0-4"])
def test_cosets_of_a_set_that_is_not_a_subgroup(build, h):
    """In S3 these sets lie in the group but are not subgroups, so their
    translates do not partition it: a ValueError names the set, and no
    cosets are cached for it."""
    g = FiniteGroup.symmetric(3)
    assert any(g.mul(a, b) not in h for a in h for b in h) or 0 not in h
    with pytest.raises(ValueError, match=re.escape(f"{sorted(h)} is not a subgroup")):
        build(g, h)
    assert frozenset(h) not in g._cosets


def test_chain_validation():
    g = FiniteGroup.cyclic(2)
    with pytest.raises(NotStrictChain):
        build_linking(g, [[0, 1], [0]])  # decreasing
    with pytest.raises(NotStrictChain):
        build_linking(g, [[0], [0]])  # repeated
    with pytest.raises(Exception):
        build_linking(g, [[0, 2]])  # not a subgroup (2 outside group)
    with pytest.raises(ZeroChain):
        boundary(build_linking(g, [[0]]))


@pytest.mark.parametrize("gname", sorted(GROUPS))
def test_linking_shape_all_chains(gname):
    g = GROUPS[gname]()
    for h0, h1 in _strict_pairs(g):
        l = build_linking(g, [h0, h1])
        # one vertex per coset per slot
        expected_vertices = g.order // len(h0) + g.order // len(h1)
        assert l.complex.n_vertices == expected_vertices
        assert len(l.complex.facets) == g.order // len(h0)
        # each facet takes one coset from each slot
        for f in l.complex.facets:
            slots = sorted(l.vertices[v][0] for v in f)
            assert slots == [0, 1]
        # stabilizer of a slot-i vertex is the coset's conjugated subgroup
        for v, (slot, coset) in enumerate(l.vertices):
            rep = min(coset)
            conj = frozenset(
                g.mul(g.mul(rep, s), g.inv(rep)) for s in (h0, h1)[slot]
            )
            assert l.complex.pointwise_stabilizer((v,)) == conj


@pytest.mark.parametrize("gname", sorted(GROUPS))
def test_boundary_identity_all_length1_chains(gname):
    """The boundary splits into the two single-subgroup linking simplices."""
    g = GROUPS[gname]()
    for h0, h1 in _strict_pairs(g):
        l = build_linking(g, [h0, h1])
        b = boundary(l)
        assert len(b.pieces) == 2
        (p0, p1) = sorted(b.pieces, key=lambda p: p.slots)
        assert p0.slots == (0,) and p1.slots == (1,)
        # pieces are disjoint and exhaust the boundary
        assert not (p0.simplices & p1.simplices)
        assert p0.simplices | p1.simplices == b.simplices
        # embedded pieces carry the structure of their own linking simplex
        for p, h in ((p0, h0), (p1, h1)):
            model = build_linking(g, [h])
            assert p.model.complex == model.complex
            image = {
                tuple(sorted(p.vertex_embedding[v] for v in s))
                for s in model.complex.simplices()
            }
            assert image == set(p.simplices)


BOUNDARY_GROUPS = {
    "s4": lambda: FiniteGroup.symmetric(4),
    "d4xc2": lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2)),
    "s3xs3": lambda: FiniteGroup.direct_product(FiniteGroup.symmetric(3), FiniteGroup.symmetric(3)),
}

# sha256 over every chain with one to three inclusions of its boundary
# pieces (slots, subchain, sorted simplices, vertex embedding), taken while
# each piece was the image of its own linking simplex
GOLDEN_BOUNDARY_DIGESTS = {
    "d4xc2": "8f79e410b5dbabdfc78d7e29c00ad64a19a6545b55bcef51741147e9eae85470",
    "s3xs3": "27c7c7c5433620d39cb99512a75569f23ecad9d01f4d2780d43d417ce0117560",
    "s4": "ab7928882b4d3dd9508358b6af466318aac162109db7e7e8c2c9d4addb7cf881",
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_GROUPS))
def test_boundary_pieces_are_pinned(name):
    g = BOUNDARY_GROUPS[name]()
    digest = hashlib.sha256()
    models_checked = set()
    for chain in enumerate_chains(g, 3):
        if len(chain) == 1:
            continue
        pieces = boundary(build_linking(g, chain)).pieces
        digest.update(canonical_dumps([
            [sorted(h) for h in chain],
            [
                [list(p.slots), [sorted(h) for h in p.subchain],
                 sorted(map(list, p.simplices)), sorted(p.vertex_embedding.items())]
                for p in pieces
            ],
        ]).encode())
        # each subchain's model once: the piece is its image
        for p in pieces:
            if p.subchain not in models_checked:
                models_checked.add(p.subchain)
                assert p.model == build_linking(g, p.subchain)
                assert p.simplices == {
                    tuple(sorted(p.vertex_embedding[v] for v in s))
                    for s in p.model.complex.simplices()
                }
    assert digest.hexdigest() == GOLDEN_BOUNDARY_DIGESTS[name]


def test_boundary_builds_no_slot_complex_and_each_model_once(count_calls):
    g, chain = _s4_chain()
    l = build_linking(g, chain[:4])
    calls = count_calls("slot_coset_complex", linking_module)
    pieces = boundary(l).pieces
    assert calls == []
    for piece in pieces:
        assert piece.model is piece.model
    assert len(calls) == len(pieces)


def _assert_linking_plan(g, pm):
    """The plan's linking facets and vertices are the linking complex's."""
    cx, verts = slot_coset_complex(g, pm.chain)
    assert pm.linking_facets == cx.facets
    assert pm.linking_vertices == verts


def test_decompose_builds_no_slot_complex(count_calls):
    """A linking complex has no repeated stabilizers, so each phi map's
    linking facets are its Illman complex's, read off the coset tables."""
    g, chain = _s4_chain()
    x = build_linking(g, chain[1:4]).complex
    calls = count_calls("slot_coset_complex", linking_module)
    c = decompose(x)
    assert validate_cells(c, x).ok
    assert calls == []
    maps = {id(cell.phi_map): cell.phi_map for cell in c.cells}.values()
    for pm in maps:
        assert pm.linking_facets == pm.illman.complex.facets
        assert pm.linking_vertices == pm.illman.vertices
        _assert_linking_plan(g, pm)


def test_decompose_builds_no_slot_complex_with_repeats(count_calls):
    """Repeated stabilizers in a list build no slot complex either, and the
    Illman complex is built only on first read."""
    x = barycentric_subdivision(models.COMPLEX_MODELS["rotation-disk"]()).complex
    calls = count_calls("slot_coset_complex", linking_module)
    c = decompose(x)
    assert validate_cells(c, x).ok
    cells_to_json(c)
    assert calls == []
    maps = {id(cell.phi_map): cell.phi_map for cell in c.cells}.values()
    assert any(len(pm.chain) < len(pm.groups) for pm in maps)
    assert len(maps) == len({pm.groups for pm in maps})
    for pm in maps:
        _assert_linking_plan(x.group, pm)
        assert pm.illman is pm.illman
    assert [groups for _, groups in calls] == [pm.groups for pm in maps]


def test_phi_vertex_map_builds_no_slot_complex(count_calls):
    g, chain = _s4_chain()
    s4, d8, v4, c2, e = reversed(chain)
    for groups in ([s4, d8, v4, c2], [d8, d8, c2, e], [v4]):
        calls = count_calls("slot_coset_complex", linking_module)
        pm = phi_vertex_map(g, groups)
        assert calls == []
        _assert_linking_plan(g, pm)


def test_pipeline_leaves_no_reference_cycle_through_the_group(no_gc):
    """Once the caller drops them, a group and everything built on it are
    freed by reference counting alone."""
    g = _relabel(LATTICE_FAMILIES["S4xC2"](), 1)
    ref = weakref.ref(g)
    center = [z for z in g.elements if all(g.mul(z, a) == g.mul(a, z) for a in g.elements)]
    l = build_linking(g, enumerate_chains(g, 2)[-1])
    b = boundary(l)
    assert all(p.model.chain == p.subchain for p in b.pieces)
    x = l.complex
    c = decompose(x)
    assert validate_cells(c, x).ok
    removal_verdict(GMap(x, x, x.action[center[-1]]))
    table_of_marks(g)
    cells_to_json(c)
    del g, l, b, x, c
    assert ref() is None


def test_fundamental_domain():
    g = FiniteGroup.symmetric(3)
    for h0, h1 in _strict_pairs(g):
        l = build_linking(g, [h0, h1])
        fd = fundamental_domain(l)
        assert fd.facet == fd.translates[0]
        assert set(fd.translates.values()) == set(l.complex.facets)
        # identity facet takes the identity coset in every slot
        for v in fd.facet:
            slot, coset = l.vertices[v]
            assert 0 in coset


def test_fundamental_domain_e_c2_frozen():
    l = build_linking(FiniteGroup.cyclic(2), [[0], [0, 1]])
    fd = fundamental_domain(l)
    assert fd.facet == (0, 2)
    assert fd.translates == {0: (0, 2), 1: (1, 2)}


def test_illman_allows_repeats():
    g = FiniteGroup.cyclic(2)
    ill = illman_complex(g, [[0, 1], [0], [0]])
    assert isinstance(ill, IllmanSimplex)
    assert ill.complex.n_vertices == 5  # one C2 coset + two free pairs
    assert len(ill.complex.facets) == 2
    with pytest.raises(NotWeaklyDecreasing):
        illman_complex(g, [[0], [0, 1]])  # increasing is rejected here
    single = illman_complex(g, [[0, 1]])
    assert single.complex.n_vertices == 1


def test_collapse_map_quotients_repeats():
    g = FiniteGroup.cyclic(2)
    chain, surj = collapse_map(g, [[0, 1], [0], [0]])
    assert surj == (0, 1, 1)
    assert list(chain) == [frozenset({0, 1}), frozenset({0})]


def test_phi_vertex_map_c2_e_e():
    """Degenerate disk direction collapses; endpoints land on the free pairs."""
    g = FiniteGroup.cyclic(2)
    phi = phi_vertex_map(g, [[0, 1], [0], [0]])
    assert phi.disk_dims == (0, 1)
    assert phi.surjection == (0, 1, 1)
    corners = phi.disk_vertices()
    assert corners == [(0, 0), (0, 1)]
    # the C2 vertex of the linking simplex is hit by both disk corners
    assert phi.apply(corners[0], 0) == phi.apply(corners[1], 0) == 0
    # each corner sends the free pair to its own pair of ambient vertices
    first = {phi.apply(corners[0], 1), phi.apply(corners[0], 2)}
    second = {phi.apply(corners[1], 1), phi.apply(corners[1], 2)}
    assert first == {1, 2} and second == {3, 4}
    # facetwise images of each corner are simplices of the Illman complex
    illman_simplices = set(phi.illman.complex.simplices())
    for corner in corners:
        for facet in phi.linking_facets:
            image = tuple(sorted({phi.apply(corner, u) for u in facet}))
            assert image in illman_simplices


def test_phi_vertex_map_surjective_on_illman_vertices():
    g = FiniteGroup.symmetric(3)
    for groups in ([[0, 1], [0], [0]], [[0, 1, 2, 3, 4, 5], [0, 3, 4], [0, 3, 4]]):
        phi = phi_vertex_map(g, groups)
        hit = {
            phi.apply(corner, u)
            for corner in phi.disk_vertices()
            for u in range(len(phi.linking_vertices))
        }
        assert hit == set(range(phi.illman.complex.n_vertices))


def test_phi_map_identifies_the_keys_with_one_illman_image():
    """identified[k] is the first key that apply sends where it sends key k,
    and coset_vertices counts the Illman vertices."""
    g = FiniteGroup.symmetric(3)
    lists = ([[0, 1], [0], [0]], [[0, 1, 2, 3, 4, 5], [0, 3, 4], [0, 3, 4]], [[0, 1], [0, 1], [0]])
    for groups in lists:
        phi = phi_vertex_map(g, groups)
        images = [phi.apply(l, u) for l, u in phi.keys]
        assert phi.identified == tuple(images.index(w) for w in images)
        assert phi.coset_vertices == phi.illman.complex.n_vertices


@pytest.mark.parametrize("builder", [phi_vertex_map, collapse_map, illman_complex])
@pytest.mark.parametrize("groups, message", [
    ([], "empty subgroup list"),
    ([[0, 1, 2, 3], [0, 1]], "not a subgroup: [0, 1]"),
    ([[0], [0, 2]], "list not weakly decreasing: [0] then [0, 2]"),
])
def test_weakly_decreasing_builders_name_the_bad_list(builder, groups, message):
    with pytest.raises(NotWeaklyDecreasing) as info:
        builder(FiniteGroup.cyclic(4), groups)
    assert type(info.value) is NotWeaklyDecreasing
    assert str(info.value) == message


def test_phi_vertex_map_checks_each_group_once(count_calls):
    """A k-group list costs k subgroup tests, with or without repeats."""
    g, chain = _s4_chain()
    s4, d8, v4, c2, e = reversed(chain)
    for groups in ([s4, d8, v4, c2], [d8, d8, c2, e], [v4]):
        calls = count_calls("is_subgroup", linking_module, group_module)
        pm = phi_vertex_map(g, groups)
        assert len(calls) == len(groups)
        assert pm.groups == tuple(groups)
        assert (pm.chain, pm.surjection) == collapse_map(g, groups)


@pytest.mark.parametrize("length", [2, 3, 5])
def test_linking_and_boundary_validate_the_chain_once(count_calls, length):
    g, chain = _s4_chain()
    calls = count_calls("validate_chain", linking_module, group_module)
    pieces = boundary(build_linking(g, chain[:length])).pieces
    assert len(calls) == 1
    assert len(pieces) == 2 ** length - 2
    for piece in pieces:
        assert piece.model.chain == tuple(chain[i] for i in piece.slots)


def test_decompose_swap_segment():
    x = models.COMPLEX_MODELS["swap-segment"]()
    c = decompose(x)
    labels = Counter(cell.label() for cell in c.cells)
    assert labels == {
        "D^0 x Delta^{e}": 1,
        "D^0 x Delta^{C2}": 1,
        "D^0 x Delta^{e<C2}": 1,
    }
    report = validate_cells(c, x)
    assert report.ok and report.cell_count == 3
    assert report.simplex_tally == 5 and report.simplex_count == 5
    assert [len(s) for s in c.skeleta] == [3, 5]


def test_decompose_models_validate():
    for name in ("wedge", "rotation-disk", "c2xc2-wedge", "s3-dust"):
        x = models.COMPLEX_MODELS[name]()
        c = decompose(x)
        report = validate_cells(c, x)
        assert report.ok, (name, report.first_failure)
        # cells tile the complex: every simplex lies in exactly one cell orbit
        assert report.simplex_tally == report.simplex_count


def test_decompose_counts_frozen():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    c = decompose(x)
    labels = Counter(cell.label() for cell in c.cells)
    assert labels == {
        "D^0 x Delta^{C2}": 1,
        "D^0 x Delta^{e}": 3,
        "D^0 x Delta^{e<C2}": 3,
        "D^1 x Delta^{e}": 3,
        "D^1 x Delta^{e<C2}": 3,
    }
    x = models.COMPLEX_MODELS["wedge"]()
    labels = Counter(cell.label() for cell in decompose(x).cells)
    assert labels == {
        "D^0 x Delta^{C2}": 3,
        "D^0 x Delta^{e}": 1,
        "D^0 x Delta^{e<C2}": 1,
        "D^1 x Delta^{C2}": 3,
    }


def test_decompose_shares_one_phi_map_per_chain():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for _ in range(3):
        x = barycentric_subdivision(x).complex
    c = decompose(x)
    maps_by_key = {}
    for cell in c.cells:
        pm = cell.phi_map
        maps_by_key.setdefault((pm.groups, pm.chain), set()).add(id(pm))
    assert all(len(ids) == 1 for ids in maps_by_key.values())
    distinct = {id(cell.phi_map) for cell in c.cells}
    assert len(distinct) == len(maps_by_key) < len(c.cells)
    assert validate_cells(c, x).ok


@pytest.mark.parametrize(
    "name, maps",
    [("rotation-disk", 6), ("wedge", 5), ("c2xc2-wedge", 8), ("s3-dust", 4), ("hexagon", 2)],
)
def test_decompose_builds_each_phi_map_through_phi_vertex_map(name, maps, count_calls):
    """decompose calls the checked phi_vertex_map once per distinct PhiMap
    among its cells, here on first subdivisions."""
    x = barycentric_subdivision(models.COMPLEX_MODELS[name]()).complex
    calls = count_calls("phi_vertex_map", linking_module)
    c = decompose(x)
    distinct = {id(cell.phi_map): cell.phi_map for cell in c.cells}.values()
    assert len(calls) == len(distinct) == maps
    assert {groups for _, groups in calls} == {pm.groups for pm in distinct}


def test_decompose_checks_nesting_before_building_a_phi_map(count_calls):
    """The two order-2 stabilizers of C2xC2 over one orbit edge are not
    nested: decompose names the orbit simplex before phi_vertex_map sees
    the list, having built only the maps of the two vertex orbits."""
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    x = GComplex(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {1: [0, 1, 3, 2], 2: [1, 0, 2, 3]}, g)
    calls = count_calls("phi_vertex_map", linking_module)
    with pytest.raises(NotEquivariantTriangulation, match="are not nested") as err:
        decompose(x)
    assert err.value.orbit_simplex == (0, 1)
    assert [len(groups) for _, groups in calls] == [1, 1]


def test_cell_labels_are_planned_per_chain(monkeypatch):
    """Labels come from each map's chain label: no class lookup per cell."""
    x = barycentric_subdivision(models.COMPLEX_MODELS["rotation-disk"]()).complex
    c = decompose(x)
    calls = []
    original = group_module.class_rep_of
    monkeypatch.setattr(group_module, "class_rep_of", lambda *a: calls.append(a) or original(*a))
    labels = Counter(cell.label() for cell in c.cells)
    assert not calls
    assert labels == {
        "D^0 x Delta^{C2}": 1,
        "D^0 x Delta^{e}": 12,
        "D^0 x Delta^{e<C2}": 6,
        "D^1 x Delta^{e}": 24,
        "D^1 x Delta^{e<C2}": 6,
        "D^2 x Delta^{e}": 12,
    }
    for cell in c.cells:
        pm = cell.phi_map
        assert pm.chain_label == "<".join(
            class_names(x.group)[original(x.group, k)] for k in reversed(pm.chain)
        )


def test_decompose_rejects_non_equivariant_triangulation():
    """A free C2 on a 4-cycle: four edges lie over one orbit edge, two orbits."""
    x = models.COMPLEX_MODELS["antipodal-square"]()
    assert x.is_regular()
    with pytest.raises(NotEquivariantTriangulation, match="form more than one orbit") as err:
        decompose(x)
    assert str(err.value) == "simplices over orbit simplex (0, 1) form more than one orbit"
    assert err.value.orbit_simplex == (0, 1)


def test_cells_reference_valid_chains():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for cell in decompose(x).cells:
        # groups list is weakly decreasing along the orbit simplex
        sizes = [len(h) for h in cell.phi_map.groups]
        assert sizes == sorted(sizes, reverse=True)
        # phi map assigns every (disk corner, linking vertex) pair
        corners = cell.phi_map.disk_vertices()
        for corner in corners:
            for u in range(len(cell.phi_map.linking_vertices)):
                cell.phi_map.apply(corner, u)


# -- validate_cells on corrupted structures -------------------------------------------


def _disk_structure():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    return x, decompose(x)


def _with_phi(c, index, values):
    """The structure with cell index's phi values replaced by key."""
    cell = c.cells[index]
    phi = tuple(values.get(key, w) for key, w in zip(cell.phi_map.keys, cell.phi))
    cells = list(c.cells)
    cells[index] = cell._replace(phi=phi)
    return c._replace(cells=tuple(cells))


def _failures(c, x):
    report = validate_cells(c, x)
    assert not report.ok
    assert report.first_failure == report.failures[0]
    return [(f.cell_index, f.check, f.detail) for f in report.failures]


def test_validate_cells_reports_a_wrong_stabilizer():
    x, c = _disk_structure()
    # cell 1 is the free vertex orbit {1, 4}; vertex 0 is the fixed center
    assert _failures(_with_phi(c, 1, {((0,), 0): 0}), x) == [
        (1, "isotropy", "image vertex 0 of ((0,), 0) has wrong stabilizer"),
        (1, "surjectivity", "phi image misses vertices of the closed cell"),
        (1, "facets", "translate facets do not match the simplex orbit"),
    ]


def test_validate_cells_reports_a_vertex_outside_the_cell():
    x, c = _disk_structure()
    # vertex 2 is free like vertex 1, but lies in another cell
    assert _failures(_with_phi(c, 1, {((0,), 0): 2}), x) == [
        (1, "surjectivity", "phi image misses vertices of the closed cell"),
        (1, "facets", "translate facets do not match the simplex orbit"),
    ]


def test_validate_cells_reports_swapped_facets():
    x, c = _disk_structure()
    # cell 7 covers the edges (1, 2) and (4, 5); swapping 2 and 5 pairs 1 with 5
    assert c.cells[7].orbit_simplex == (1, 2)
    assert _failures(_with_phi(c, 7, {((1,), 0): 5, ((1,), 1): 2}), x) == [
        (7, "facets", "translate facets do not match the simplex orbit"),
    ]


def test_validate_cells_reports_broken_identifications():
    x, c = _disk_structure()
    # in cell 10 both disk corners send the C2 coset vertex to the center
    assert _failures(_with_phi(c, 10, {((0, 1), 0): 1}), x) == [
        (10, "isotropy", "image vertex 1 of ((0, 1), 0) has wrong stabilizer"),
        (10, "facets", "translate facets do not match the simplex orbit"),
        (10, "identifications", "one coset vertex hits both 0 and 1"),
    ]
    assert _failures(_with_phi(c, 7, {((1,), 1): 4}), x) == [
        (7, "surjectivity", "phi image misses vertices of the closed cell"),
        (7, "facets", "translate facets do not match the simplex orbit"),
        (7, "identifications", "distinct coset vertices share an image"),
    ]


def test_validate_cells_reports_the_smallest_missing_boundary_simplex():
    x, c = _disk_structure()
    truncated = c._replace(skeleta=(c.skeleta[0] - {(1,), (4,)},) + c.skeleta[1:])
    assert _failures(truncated, x) == [
        (4, "attachment", "boundary simplex (1,) missing from skeleton"),
        (7, "attachment", "boundary simplex (1,) missing from skeleton"),
        (8, "attachment", "boundary simplex (1,) missing from skeleton"),
    ]
    truncated = c._replace(skeleta=(c.skeleta[0], c.skeleta[1] - {(0, 4)}, c.skeleta[2]))
    assert _failures(truncated, x) == [
        (10, "attachment", "boundary simplex (0, 4) missing from skeleton"),
        (11, "attachment", "boundary simplex (0, 4) missing from skeleton"),
    ]
    # cell 11 lies over (0, 1, 6) and (0, 3, 4): the first misses (1, 6), the
    # second the smaller (0, 3), which cell 12's (0, 2, 3) misses as well
    assert sorted(c.orbit.fibers[(0, 1, 3)]) == [(0, 1, 6), (0, 3, 4)]
    truncated = c._replace(skeleta=(c.skeleta[0], c.skeleta[1] - {(1, 6), (0, 3)}, c.skeleta[2]))
    assert _failures(truncated, x) == [
        (11, "attachment", "boundary simplex (0, 3) missing from skeleton"),
        (12, "attachment", "boundary simplex (0, 3) missing from skeleton"),
    ]


def test_validate_cells_reports_a_dropped_cell():
    x, c = _disk_structure()
    assert _failures(c._replace(cells=c.cells[:4] + c.cells[5:]), x) == [
        (-1, "tally", "cells account for 23 simplices, complex has 25"),
    ]


@pytest.mark.parametrize("edit", ["cut", "repeat", "foreign"])
def test_validate_cells_reports_a_phi_of_the_wrong_length(edit):
    """A phi with fewer or more images than its PhiMap has keys fails its
    own check, and its cell is checked no further."""
    x, c = _disk_structure()
    phi = c.cells[7].phi
    assert len(phi) == 4
    edited = {"cut": phi[:3], "repeat": phi + (phi[-1],), "foreign": phi + (99,)}[edit]
    cells = list(c.cells)
    cells[7] = cells[7]._replace(phi=edited)
    assert _failures(c._replace(cells=tuple(cells)), x) == [
        (7, "length", f"phi has {len(edited)} images for 4 domain vertices"),
    ]


@pytest.mark.parametrize("shift", [5, -8])
def test_validate_cells_reports_an_image_vertex_outside_the_complex(shift):
    """Past the end, or negative, which Python would read from the end."""
    x, c = _disk_structure()
    w = x.n_vertices + shift
    assert _failures(_with_phi(c, 1, {((0,), 0): w}), x) == [
        (1, "isotropy", f"image vertex {w} of ((0,), 0) is not a vertex of the complex"),
        (1, "surjectivity", "phi image misses vertices of the closed cell"),
        (1, "facets", "translate facets do not match the simplex orbit"),
    ]


@pytest.mark.parametrize("name", ["rotation-disk", "wedge", "c2xc2-wedge", "s3-dust"])
def test_validate_cells_reads_an_equal_complex_like_its_own(name):
    """A complex equal to c.complex but a distinct object takes the path
    that maps its simplices through the orbit map."""
    x = models.COMPLEX_MODELS[name]()
    c = decompose(x)
    twin = parse_complex(complex_to_json(x))
    assert twin == x and twin is not x
    assert validate_cells(c, twin) == validate_cells(c, x)
    assert validate_cells(c, twin).ok


def test_validate_cells_reports_a_subdivision_of_the_complex():
    """The vertices that the subdivision adds lie over no cell, so the
    report fails instead of raising: only the seven vertices of x are
    simplices of y over cells of x, so each cell past the vertex orbits
    misses its simplices."""
    x, c = _disk_structure()
    y = barycentric_subdivision(x).complex
    expected = [
        (i, check, detail)
        for i in range(4, 13)
        for check, detail in (
            ("surjectivity", "phi image misses vertices of the closed cell"),
            ("facets", "translate facets do not match the simplex orbit"),
        )
    ] + [(-1, "tally", f"cells account for 25 simplices, complex has {len(y.simplices())}")]
    assert _failures(c, y) == expected


def _reference_failures(c, x):
    """validate_cells written out cell by cell: every check compares each
    phi entry, and attachment closes the simplices over every cell."""
    stabilizers = x.isotropy().stabilizers
    fibers = linking_module._fibers_over_orbit(x, c.orbit)
    out = []
    tally = 0
    for i, cell in enumerate(c.cells):
        pm, phi = cell.phi_map, cell.phi
        over = fibers.get(cell.orbit_simplex, [])
        for k, w in enumerate(phi):
            if not 0 <= w < x.n_vertices:
                out.append((i, "isotropy", f"image vertex {w} of {pm.keys[k]} is not a vertex of the complex"))
                break
            if stabilizers[(w,)] != pm.stabilizers[k]:
                out.append((i, "isotropy", f"image vertex {w} of {pm.keys[k]} has wrong stabilizer"))
                break
        if set(phi) != {v for t in over for v in t}:
            out.append((i, "surjectivity", "phi image misses vertices of the closed cell"))
        spans = {tuple(sorted({phi[k] for k in p})) for p in pm.facet_positions}
        if spans != set(over):
            out.append((i, "facets", "translate facets do not match the simplex orbit"))
        by_key = {}
        for (l, u), w in zip(pm.keys, phi):
            j, coset = pm.linking_vertices[u]
            first = by_key.setdefault((l[j], j, coset), w)
            if first != w:
                out.append((i, "identifications", f"one coset vertex hits both {first} and {w}"))
                break
        else:
            if len(set(by_key.values())) != len(by_key):
                out.append((i, "identifications", "distinct coset vertices share an image"))
        dim = len(cell.orbit_simplex) - 1
        if dim > 0:
            missing = close_simplices(over) - c.skeleta[dim - 1] - set(over)
            if missing:
                out.append((i, "attachment", f"boundary simplex {min(missing)} missing from skeleton"))
        tally += len(pm.linking_facets)
    if tally != len(x.simplices()):
        out.append((-1, "tally", f"cells account for {tally} simplices, complex has {len(x.simplices())}"))
    return out


def _tamperings(x, cell):
    """Phi edits that break each check: each vertex of another stabilizer,
    a vertex past the end and a negative one, a swap, and one image for all."""
    phi = cell.phi
    stab = cell.phi_map.stabilizers[0]
    yield from ((v,) + phi[1:] for v in range(x.n_vertices) if x.pointwise_stabilizer((v,)) != stab)
    yield (x.n_vertices + 3,) + phi[1:]
    yield (-1,) + phi[1:]
    if len(set(phi)) > 1:
        k = next(k for k, w in enumerate(phi) if w != phi[0])
        swapped = list(phi)
        swapped[0], swapped[k] = phi[k], phi[0]
        yield tuple(swapped)
        yield (phi[0],) * len(phi)


@pytest.mark.parametrize("name", ["rotation-disk", "wedge", "c2xc2-wedge", "hexagon"])
def test_validate_cells_names_what_the_per_cell_checks_name(name):
    """Each tampered cell, and each skeleton with one simplex of it taken
    out, is reported exactly as the written-out checks report it."""
    x = barycentric_subdivision(models.COMPLEX_MODELS[name]()).complex
    c = decompose(x)

    def named(structure):
        got = [(f.cell_index, f.check, f.detail) for f in validate_cells(structure, x).failures]
        assert got == _reference_failures(structure, x)
        return {check for _, check, _ in got}

    assert not named(c)
    seen = set()
    for i, cell in enumerate(c.cells):
        for phi in _tamperings(x, cell):
            seen |= named(c._replace(cells=c.cells[:i] + (cell._replace(phi=phi),) + c.cells[i + 1:]))
    for d, skeleton in enumerate(c.skeleta):
        for t in sorted(skeleton)[:: max(1, len(skeleton) // 12)]:
            seen |= named(c._replace(skeleta=c.skeleta[:d] + (skeleton - {t},) + c.skeleta[d + 1:]))
    assert seen == {"isotropy", "surjectivity", "facets", "identifications", "attachment"}


def test_validate_cells_names_a_vertex_missing_from_the_1_skeleton_only():
    """skeleta[0] still holds the vertex, so the edges pass; each 2-cell
    over a triangle through it fails, and names it."""
    x = barycentric_subdivision(models.COMPLEX_MODELS["rotation-disk"]()).complex
    c = decompose(x)
    v = 1
    truncated = c._replace(skeleta=(c.skeleta[0], c.skeleta[1] - {(v,)}, c.skeleta[2]))
    expected = [
        (i, "attachment", f"boundary simplex ({v},) missing from skeleton")
        for i, cell in enumerate(c.cells)
        if len(cell.orbit_simplex) == 3 and any(v in t for t in c.orbit.fibers[cell.orbit_simplex])
    ]
    assert len(expected) >= 2
    assert _failures(truncated, x) == expected


def test_validate_cells_names_a_face_of_a_longer_simplex_over_a_cell():
    """The triangle (0, 1, 4) lies over the orbit edge of cell 4, since 1
    and 4 share an orbit; its edge (1, 4) is in no skeleton of the disk,
    although skeleta[0] holds every vertex."""
    x, c = _disk_structure()
    y = GComplex(x.n_vertices, x.facets + ((0, 1, 4),), dict(enumerate(x.action)), x.group)
    assert _failures(c, y) == _reference_failures(c, y) == [
        (1, "facets", "translate facets do not match the simplex orbit"),
        (4, "facets", "translate facets do not match the simplex orbit"),
        (4, "attachment", "boundary simplex (1, 4) missing from skeleton"),
        (-1, "tally", "cells account for 25 simplices, complex has 27"),
    ]


def test_validate_cells_enumerates_no_faces_on_a_valid_structure(count_calls):
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for _ in range(3):
        x = barycentric_subdivision(x).complex
    c = decompose(x)
    calls = count_calls("close_simplices", linking_module, gcomplex_module)
    assert validate_cells(c, x).ok
    assert calls == []


# -- byte-stable reports and generated inputs --------------------------------------

# sha256 of canonical_dumps(cells_to_json(decompose(x))) for each built-in model
# that decomposes (depth 0) and for its first and second barycentric
# subdivisions (depths 1 and 2); the depth-2 digests were taken while every
# phi record was built with lists of its own
GOLDEN_CELL_DIGESTS = {
    ("antipodal-square", 1): "23a37f1ed85ea2ba2a5b5f1bf125dcf3cf8b7b7d26f63d10b4d529b80d462138",
    ("antipodal-square", 2): "5dfaee18c091e0f6ce650e0f21a7b19e23dc31c1c83fd412918286bd846f2eaa",
    ("c2-point", 0): "2269609b5da623d5c5f57d3755aa26a352e7dfe3408e60dd50445efb61e343a1",
    ("c2-point", 1): "2269609b5da623d5c5f57d3755aa26a352e7dfe3408e60dd50445efb61e343a1",
    ("c2-point", 2): "2269609b5da623d5c5f57d3755aa26a352e7dfe3408e60dd50445efb61e343a1",
    ("c2xc2-wedge", 0): "bc41c9353553b481582ae990bb2b5c2b24037c5babbdb6b6b1b71f761f8b1194",
    ("c2xc2-wedge", 1): "8d31bb368799ada93b1a7a90b00e77f6d1d580222b7606da1e423f647b117aea",
    ("c2xc2-wedge", 2): "3520386a86b0092df735124c702b2653e53bca7456059606a45902e783ac7bc2",
    ("hexagon", 0): "1add054edccd1ab8f5521d8c5fb788b298340ce9824e727b03b223050001ddcd",
    ("hexagon", 1): "1b2e2167d22f092fa0435e8f7a8349c6ab02c1fcdf2a6822a2b12065211760c9",
    ("hexagon", 2): "ab6d707fa8c4e4d0d7340f6981c67e0358338f3cbd54c48c8f6f565aed4d39b4",
    ("point", 0): "addd4fcaae08b6bcac932b80dde87b45388078c03ace90bde6c556824be55486",
    ("point", 1): "addd4fcaae08b6bcac932b80dde87b45388078c03ace90bde6c556824be55486",
    ("point", 2): "addd4fcaae08b6bcac932b80dde87b45388078c03ace90bde6c556824be55486",
    ("rotation-disk", 0): "4ec220cc498dffaca5dff9085d8a1afc2b4729d255a77dce7b0162bb862286e0",
    ("rotation-disk", 1): "77395ca9b0a45393113aa2edd33ce8344285ef4d7627132890482d9b64a7f7e1",
    ("rotation-disk", 2): "de4e684bd6a3285f451f06e7bd4ebf14f0d9640e7f66088245e6b6cb3c118ec7",
    ("s3-dust", 0): "762d02598964f07b77922d34b3eb5babb9615620f08cad29f55e0081b897384b",
    ("s3-dust", 1): "762d02598964f07b77922d34b3eb5babb9615620f08cad29f55e0081b897384b",
    ("s3-dust", 2): "762d02598964f07b77922d34b3eb5babb9615620f08cad29f55e0081b897384b",
    ("swap-segment", 0): "62c2c730f8b24adb96d92f5fcf2f132552e1b4f4fbc13b577b58eca1b9d0546b",
    ("swap-segment", 1): "64d78919d08e5af44d38953b6c66ab8c634e5b2bf301f5af057ea2dac57192e2",
    ("swap-segment", 2): "f6da2448b08bba588f0b4dd4924c77650376799527b868b84630419f31f5ea10",
    ("wedge", 0): "900f6fc2ccb7d85d5b1d0971a38d0c80ec7fb766d4173a289658e3e6657b4345",
    ("wedge", 1): "44f44a81bb2438cde1e8775853166eb3ed33a1d936feb935155cbf3bd95d1d20",
    ("wedge", 2): "b47f8cf3babb6803d4f53b19227b1ef8c48d63da820a8a0b582dfc6ff9a41d2b",
}


# sha256 of _group_layer_report, taken before the group layer cached cosets and
# the containment table
GOLDEN_GROUP_DIGESTS = {
    "s4": "3301e4844d17c8bee26fca8b6884d7c85435ce6d51c61e360100cb37f3c359d5",
    "d4xc2": "7b8026dcb6446448f79959515ff8502643d00d4f40c36edddc7bfba374d0a046",
    "c2^3": "540cb6e6851e21152d88449708826435a88038a1db397ea50487210228255e69",
}
GOLDEN_GROUPS = {
    "s4": lambda: FiniteGroup.symmetric(4),
    "d4xc2": lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2)),
    "c2^3": lambda: FiniteGroup.direct_product(
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        FiniteGroup.cyclic(2),
    ),
}


def _group_layer_report(g):
    """Classes, marks, chains with at most two inclusions, and the boundary
    and fundamental domain of the first chain with two inclusions."""
    chains = enumerate_chains(g, 2)
    lk = build_linking(g, next(c for c in chains if len(c) == 3))
    fd = fundamental_domain(lk)
    marks = table_of_marks(g)
    return canonical_dumps({
        "classes": [[sorted(h) for h in cls] for cls in subgroup_conjugacy_classes(g)],
        "marks": {"names": list(marks.names), "matrix": [list(row) for row in marks.matrix]},
        "chains": [[sorted(h) for h in chain] for chain in chains],
        "boundary": [
            [list(p.slots), sorted(p.vertex_embedding.items()), sorted(map(list, p.simplices))]
            for p in boundary(lk).pieces
        ],
        "fd": [list(fd.facet), [list(fd.translates[x]) for x in g.elements]],
    })


@pytest.mark.parametrize("name", sorted(GOLDEN_GROUPS))
def test_group_layer_reports_are_pinned(name):
    text = _group_layer_report(GOLDEN_GROUPS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GROUP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(models.COMPLEX_MODELS))
def test_cell_reports_are_pinned(name):
    x = models.COMPLEX_MODELS[name]()
    # cross5's subdivision is large and does not decompose either
    ys = [x]
    while len(ys) < (1 if name == "cross5" else 3):
        ys.append(barycentric_subdivision(ys[-1]).complex)
    for depth, y in enumerate(ys):
        if (name, depth) not in GOLDEN_CELL_DIGESTS:
            with pytest.raises(NotEquivariantTriangulation, match="form more than one orbit"):
                decompose(y)
            continue
        c = decompose(y)
        text = canonical_dumps(cells_to_json(c))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CELL_DIGESTS[(name, depth)]
        report = validate_cells(c, y)
        assert report.ok and report.simplex_tally == len(y.simplices())


@pytest.mark.parametrize("name", sorted(name for name, depth in GOLDEN_CELL_DIGESTS if depth == 2))
def test_phi_sends_each_key_to_its_illman_vertex_at_sd2(name):
    """phi[k] is the Illman image (slot, C) of keys[k] placed at
    base[slot] and moved by any member of C, here the largest."""
    x = models.COMPLEX_MODELS[name]()
    for _ in range(2):
        x = barycentric_subdivision(x).complex
    for cell in decompose(x).cells:
        pm = cell.phi_map
        assert len(cell.phi) == len(pm.keys)
        for (l, u), w in zip(pm.keys, cell.phi):
            slot, coset = pm.illman.vertices[pm.apply(l, u)]
            assert w == x.action[max(coset)][cell.base_simplex[slot]]


def _single_orbit(x, over):
    return {x.act_simplex(a, over[0]) for a in x.group.elements} == set(over)


@pytest.mark.parametrize("group", sorted(ISOTROPY_GROUPS))
def test_generated_complexes_decompose_and_validate(group):
    """Orbit closures of random simplices, regularized: the second derived
    complex always decomposes; the regularized complex itself sometimes."""
    direct = 0
    for seed in range(12):
        x = _orbit_closure_complex(ISOTROPY_GROUPS[group], seed)
        y = make_regular(x)
        try:
            c = decompose(y)
        except NotEquivariantTriangulation as exc:
            if "more than one orbit" in str(exc):
                orb = orbit_complex(y)
                over = [t for t in y.simplices() if orb.image_of(t) == exc.orbit_simplex]
                assert all(len(t) == len(exc.orbit_simplex) for t in over)
                assert not _single_orbit(y, over)
        else:
            direct += 1
            report = validate_cells(c, y)
            assert report.ok and report.simplex_tally == len(y.simplices())
            orb = orbit_complex(y)
            for cell in c.cells:
                over = [t for t in y.simplices() if orb.image_of(t) == cell.orbit_simplex]
                assert _single_orbit(y, over)
        # two subdivisions below the raw complex, make_regular spending one
        z = barycentric_subdivision(y if y is not x else barycentric_subdivision(x).complex).complex
        report = validate_cells(decompose(z), z)
        assert report.ok, (seed, report.first_failure)
        assert report.simplex_tally == report.simplex_count == len(z.simplices())
    assert direct


def _reference_decompose_failure(x):
    """The first failure of decompose's checks, made in orbit-simplex order
    on the fibers of _fibers_over_orbit: (message, orbit simplex), or None."""
    orb = orbit_complex(x)
    fibers = linking_module._fibers_over_orbit(x, orb)
    stabilizers = x.isotropy().stabilizers
    for s in orb.complex.simplices():
        over = fibers.get(s, [])
        for t in over:
            if len(t) != len(s):
                return (
                    f"simplex {t} collapses onto orbit simplex {s}; two of its vertices share an orbit",
                    s,
                )
        if not _single_orbit(x, over):
            return f"simplices over orbit simplex {s} form more than one orbit", s
        stabs = sorted((stabilizers[(v,)] for v in over[0]), key=len, reverse=True)
        if not all(lo <= hi for hi, lo in zip(stabs, stabs[1:])):
            return f"vertex stabilizers over orbit simplex {s} are not nested", s
    return None


def _decompose_inputs():
    """Every built-in model at sd^0 to sd^2 (cross5 at sd^0 only), and each
    orbit-closure complex raw, regularized and at sd^2."""
    for name in sorted(models.COMPLEX_MODELS):
        x = models.COMPLEX_MODELS[name]()
        for _ in range(1 if name == "cross5" else 3):
            yield x
            x = barycentric_subdivision(x).complex
    for group in sorted(ISOTROPY_GROUPS):
        for seed in range(12):
            x = _orbit_closure_complex(ISOTROPY_GROUPS[group], seed)
            twice = barycentric_subdivision(barycentric_subdivision(x).complex).complex
            yield from (x, make_regular(x), twice)


def test_decompose_matches_the_fibers_definition():
    """decompose builds its fibers one orbit at a time; they are the lists
    of _fibers_over_orbit, in order, its cells come in (dimension, orbit
    simplex) order, and a failure is the first one the checks make on
    those lists, in orbit-simplex order.  A fiber that mixes simplex
    lengths names its collapse before its orbits."""
    outcomes = Counter()
    for x in _decompose_inputs():
        if not x.is_regular():
            continue
        expected = _reference_decompose_failure(x)
        try:
            c = decompose(x)
        except NotEquivariantTriangulation as exc:
            assert (str(exc), exc.orbit_simplex) == expected
            over = linking_module._fibers_over_orbit(x, orbit_complex(x))[exc.orbit_simplex]
            mixed = "collapses" in str(exc) and not _single_orbit(x, over)
            outcomes["collapse over two orbits" if mixed else "other failure"] += 1
            continue
        assert expected is None
        fibers = {s: sorted(over) for s, over in c.orbit.fibers.items()}
        assert fibers == linking_module._fibers_over_orbit(x, c.orbit)
        orbit_simplices = [cell.orbit_simplex for cell in c.cells]
        assert orbit_simplices == sorted(orbit_simplices, key=lambda s: (len(s), s))
        assert orbit_simplices == list(c.orbit.complex.simplices())
        outcomes["decomposed"] += 1
    assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes


def test_orbit_complex_maps_each_simplex_orbit_once():
    """Each fiber of orbit_complex is made of whole Isotropy.orbits, in
    orbit order, so its longest simplices come last; together the fibers
    hold every simplex once, and their keys are exactly the orbit
    simplices, so decompose meets no orbit simplex without a fiber."""
    for x in _decompose_inputs():
        if not x.is_regular():
            continue
        orb = orbit_complex(x)
        orbits = x.isotropy().orbits
        orbit_of = {members[0]: i for i, members in enumerate(orbits)}
        for s, over in orb.fibers.items():
            assert all(orb.image_of(t) == s for t in over)
            assert [len(t) for t in over] == sorted(map(len, over))
            k, last = 0, -1
            while k < len(over):
                i = orbit_of[over[k]]
                assert i > last and tuple(over[k:k + len(orbits[i])]) == orbits[i]
                k, last = k + len(orbits[i]), i
        assert sum(map(len, orb.fibers.values())) == len(x.simplices())
        assert sorted(orb.fibers, key=lambda s: (len(s), s)) == list(orb.complex.simplices())
