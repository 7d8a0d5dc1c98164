"""Simplicial maps: equivariance, isovariance, subdivision, stratum data."""

import random

import pytest

import oracles
from isokit import models
from isokit.errors import NotEquivariant, NotSimplicial
from isokit.fixpoint import lefschetz
from isokit.gcomplex import GComplex, fixed_subcomplex, present_classes
from isokit.gmap import (
    GMap,
    _components,
    compose,
    identity_map,
    is_equivariant,
    is_isovariant,
    is_simplicial,
    link_graph,
    pi0_link_check,
    stratum_maps,
    subdivide_map,
)
from isokit.group import class_names


def test_intro_examples():
    """Fixed-point inclusion and injective maps are isovariant, collapse is not."""
    inclusion = models.MAP_MODELS["fixed-point-inclusion"]()
    assert is_simplicial(inclusion)
    assert is_equivariant(inclusion)
    assert is_isovariant(inclusion)
    collapse = models.MAP_MODELS["disk-collapse"]()
    assert is_simplicial(collapse)
    assert is_equivariant(collapse)
    assert not is_isovariant(collapse)
    ring = models.MAP_MODELS["ring-inclusion"]()
    assert is_simplicial(ring)
    assert is_equivariant(ring)
    assert is_isovariant(ring)


def test_map_validation():
    x = models.COMPLEX_MODELS["hexagon"]()
    with pytest.raises(ValueError):
        GMap(x, x, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        GMap(x, x, (0, 1, 2, 3, 4, 9))  # out of range
    f = GMap(x, x, (0, 0, 0, 0, 0, 0))
    assert is_simplicial(f)  # fully degenerate map is simplicial
    assert not is_equivariant(f)  # but ignores the free action
    broken = GMap(x, x, (0, 2, 1, 3, 5, 4))
    assert not is_simplicial(broken)


def test_is_simplicial_scans_once_per_map(monkeypatch):
    x = models.COMPLEX_MODELS["hexagon"]()
    f = models.MAP_MODELS["hexagon-reflection"]()
    calls = []
    simplices = GComplex.simplices

    def counted(self):
        calls.append(self)
        return simplices(self)

    monkeypatch.setattr(GComplex, "simplices", counted)
    for _ in range(3):
        assert is_simplicial(f)
        assert is_equivariant(f)
        lefschetz(f)
    # one facet scan by is_simplicial, one fixed-simplex list by lefschetz
    assert len(calls) == 2
    broken = GMap(x, x, (0, 2, 1, 3, 5, 4))
    del calls[:]
    for _ in range(2):
        assert not is_simplicial(broken)
        for check in (is_equivariant, is_isovariant, subdivide_map, lefschetz):
            with pytest.raises(NotSimplicial):
                check(broken)
    assert calls == [x]


def test_identity_and_compose():
    x = models.COMPLEX_MODELS["wedge"]()
    ident = identity_map(x)
    assert is_isovariant(ident)
    rot = models.MAP_MODELS["hexagon-rotation"]()
    twice = compose(rot, rot)
    assert twice.vertices == tuple((i + 2) % 6 for i in range(6))
    with pytest.raises(ValueError):
        compose(rot, ident)  # target/source mismatch


@pytest.mark.parametrize(
    "name", ["wedge", "swap-segment", "hexagon", "rotation-disk", "c2xc2-wedge"]
)
def test_classification_matches_exhaustive_enumeration(name):
    """Library predicates agree with the brute-force definitions on every map."""
    x = models.COMPLEX_MODELS[name]()
    facets = [tuple(sorted(f)) for f in x.facets]
    act = [list(p) for p in x.action]
    equivariant = oracles.enumerate_self_maps(
        x.group.table, x.n_vertices, facets, act, "equivariant"
    )
    isovariant = set(
        oracles.enumerate_self_maps(
            x.group.table, x.n_vertices, facets, act, "isovariant"
        )
    )
    assert isovariant <= set(equivariant)
    for vm in equivariant:
        f = GMap(x, x, vm)
        assert is_simplicial(f) and is_equivariant(f)
        assert is_isovariant(f) == (vm in isovariant)


def test_enumeration_counts_frozen():
    """Totals from the exhaustive sweep, pinned to catch regressions."""
    expected = {
        "wedge": (99, 18),
        "swap-segment": (3, 2),
        "hexagon": (12, 12),
        "rotation-disk": (85, 12),
        "c2xc2-wedge": (81, 16),
    }
    for name, (n_eq, n_iso) in expected.items():
        x = models.COMPLEX_MODELS[name]()
        facets = [tuple(sorted(f)) for f in x.facets]
        act = [list(p) for p in x.action]
        eq = oracles.enumerate_self_maps(
            x.group.table, x.n_vertices, facets, act, "equivariant"
        )
        iso = oracles.enumerate_self_maps(
            x.group.table, x.n_vertices, facets, act, "isovariant"
        )
        assert (len(eq), len(iso)) == (n_eq, n_iso), name


def test_subdivide_map():
    for key in ("hexagon-reflection", "wedge-identity", "disk-collapse"):
        f = models.MAP_MODELS[key]()
        sf = subdivide_map(f)
        assert is_simplicial(sf)
        assert is_equivariant(sf) == is_equivariant(f)
        # barycenter of s goes to the barycenter of the image simplex
        assert sf.source.n_vertices == len(list(f.source.simplices()))
    broken = GMap(
        models.COMPLEX_MODELS["hexagon"](),
        models.COMPLEX_MODELS["hexagon"](),
        (0, 2, 1, 3, 5, 4),
    )
    with pytest.raises(NotSimplicial):
        subdivide_map(broken)


def test_subdivision_preserves_isovariance():
    for key in ("fixed-point-inclusion", "ring-inclusion", "hexagon-reflection"):
        f = models.MAP_MODELS[key]()
        assert is_isovariant(subdivide_map(f)) == is_isovariant(f)


def test_stratum_maps():
    f = models.MAP_MODELS["wedge-identity"]()
    sm = stratum_maps(f)
    names = {class_names(f.source.group)[h] for h in present_classes(f.source)}
    assert set(sm.fixed) == names == {"e", "C2"}
    for name, (piece, src_back, tgt_back) in sm.fixed.items():
        assert is_simplicial(piece)
        # restriction commutes with the inclusions back into the ambient map
        for v in range(piece.source.n_vertices):
            assert tgt_back[piece.vertices[v]] == f.vertices[src_back[v]]
    collapse = models.MAP_MODELS["disk-collapse"]()
    with pytest.raises(Exception):
        stratum_maps(collapse)  # not isovariant


def test_link_graph():
    x = models.COMPLEX_MODELS["wedge"]()
    lg = link_graph(x, frozenset({0}), frozenset({0, 1}))
    # the two free arcs meet at the wedge point, one component
    assert lg.nodes == ((0, 1), (0, 2))
    assert len(lg.components) == 1
    dust = models.COMPLEX_MODELS["s3-dust"]()
    lg2 = link_graph(
        dust, frozenset({0}), frozenset(dust.group.elements)
    )
    assert len(lg2.components) == 0  # isolated points have empty links


def test_pi0_link_check():
    ident = models.MAP_MODELS["wedge-identity"]()
    report = pi0_link_check(ident)
    assert report.ok
    d = report.as_dict()
    assert d["classes"]["C2"]["bijection"] and d["classes"]["e"]["bijection"]
    assert d["pairs"]["e<C2"]["source"] == d["pairs"]["e<C2"]["target"] == 1
    assert "necessary" in d["disclaimer"]
    inclusion = models.MAP_MODELS["fixed-point-inclusion"]()
    rep2 = pi0_link_check(inclusion)
    assert not rep2.ok  # one free component cannot hit the disk's two


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 12)
        density = rng.choice((0.05, 0.15, 0.3))
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density
        ]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = sorted(
            (frozenset(c) for c in nx.connected_components(graph)), key=min
        )
        assert list(_components(range(n), edges)) == expected
