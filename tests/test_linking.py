"""Linking simplices, boundaries, fundamental domains, phi maps, cells."""

from collections import Counter
from itertools import combinations

import pytest

from isokit import models
from isokit.errors import (
    NotEquivariantTriangulation,
    NotStrictChain,
    NotWeaklyDecreasing,
    ZeroChain,
)
from isokit.gcomplex import barycentric_subdivision, orbit_complex
from isokit.group import FiniteGroup, enumerate_subgroups, subgroup_closure
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
    assert l.complex.vertex_stabilizer(2) == frozenset({0, 1})
    assert l.complex.vertex_stabilizer(0) == frozenset({0})
    oc = orbit_complex(l.complex)
    assert oc.complex.n_vertices == 2 and oc.complex.facets == ((0, 1),)


def test_slot_coset_complex_matches_definition_on_s4():
    """Vertices (slot, coset), facets {(i, xH_i)}, action a.(i, C) = (i, aC)."""
    g = FiniteGroup.symmetric(4)
    subs = enumerate_subgroups(g)
    chain = [subs[0]]
    for h in subs:
        if chain[-1] < h and all(not (chain[-1] < k < h) for k in subs):
            chain.append(h)
    assert [len(h) for h in chain] == [1, 2, 4, 8, 24]
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
            assert l.complex.vertex_stabilizer(v) == conj


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
        for facet in phi.linking.facets:
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
        maps_by_key.setdefault((cell.groups, cell.chain), set()).add(id(cell.phi_map))
    assert all(len(ids) == 1 for ids in maps_by_key.values())
    distinct = {id(cell.phi_map) for cell in c.cells}
    assert len(distinct) == len(maps_by_key) < len(c.cells)
    assert validate_cells(c, x).ok


def test_decompose_rejects_non_equivariant_triangulation():
    x = models.COMPLEX_MODELS["antipodal-square"]()
    assert x.is_regular()
    with pytest.raises(NotEquivariantTriangulation):
        decompose(x)


def test_cells_reference_valid_chains():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for cell in decompose(x).cells:
        # groups list is weakly decreasing along the orbit simplex
        sizes = [len(h) for h in cell.groups]
        assert sizes == sorted(sizes, reverse=True)
        # phi map assigns every (disk corner, linking vertex) pair
        corners = cell.phi_map.disk_vertices()
        for corner in corners:
            for u in range(len(cell.phi_map.linking_vertices)):
                cell.phi_map.apply(corner, u)
