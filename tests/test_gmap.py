"""Simplicial maps: equivariance, isovariance, subdivision, stratum data."""

import hashlib
import json
import random

import pytest

import oracles
from isokit import gcomplex, gmap as gmap_module, models
from isokit.errors import NotEquivariant, NotSimplicial
from isokit.fixpoint import lefschetz, removal_verdict
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


def test_subdivide_map_subdivides_a_self_map_once(count_calls):
    calls = count_calls("barycentric_subdivision", gmap_module)
    g = subdivide_map(models.MAP_MODELS["hexagon-rotation"]())
    assert len(calls) == 1
    assert g.source is g.target and g.is_self_map()
    del calls[:]
    g = subdivide_map(models.MAP_MODELS["fixed-point-inclusion"]())
    assert len(calls) == 2
    assert g.source is not g.target and not g.is_self_map()


def test_subdivided_self_map_has_one_isotropy_index(count_calls):
    builds = count_calls("_isotropy_index", gcomplex)
    g = subdivide_map(models.MAP_MODELS["hexagon-rotation"]())
    removal_verdict(g)
    assert [x for x in builds if x[0] == g.source] == [(g.source,)]


def test_equal_complexes_with_other_names_stay_a_self_map():
    x = models.COMPLEX_MODELS["hexagon"]()
    rotation = tuple((i + 1) % 6 for i in range(6))
    renamed = GComplex(
        x.n_vertices, x.facets, dict(enumerate(x.action)), x.group,
        names=[f"v{i}" for i in range(6)],
    )
    f = GMap(x, renamed, rotation)
    assert f.target is renamed and f.is_self_map()
    g = subdivide_map(f)
    assert g.target is not g.source and g.is_self_map()
    assert g.target.names != g.source.names
    assert lefschetz(g) == lefschetz(f) == 0


def _map_record(g):
    def complex_record(x):
        return [[list(f) for f in x.facets], [list(p) for p in x.action], list(x.names)]

    return [list(g.vertices), complex_record(g.source), complex_record(g.target)]


# sha256 of the first and second subdivisions of each built-in map, taken
# before self-maps shared one subdivision; cross5's second subdivision has
# about 16.7 million facets, so only its first is pinned
SUBDIVIDED_MAP_DIGESTS = {
    "cross5-identity": "e9f4fd53d3c55ca745b4d1787e10fbf43e5c777eebc086a2a1364cd606843ca3",
    "disk-collapse": "c1d16b9d4e57decc70139a255271a008707494d0b8355f10561a1a7fe004285b",
    "fixed-point-inclusion": "4a20f9ac6ae7dda182cb5f5b5868eff185ffe6848761dd29a2d87e82c5084a43",
    "hexagon-identity": "b6edbb4ecce79108b1ac8ee5f65f70b984b7a57aab02f7c4a91e1a7a25ff576e",
    "hexagon-reflection": "71edab26bbcd0e199c2445df141bf7c7a583c465062cf3d720a08c737377a126",
    "hexagon-rotation": "3f1aa203820c0588d118f0d67f21168ec3d12ec39aa87a4543c260d52d8c1703",
    "ring-inclusion": "cf60671a8a66a57b2781821e51e0f039805de9360ebf4dc24e32113695dd775a",
    "wedge-identity": "0f9fe44511ede7a288cb21e6742c358b107bdf83b2175d6081f10b1834bbee5c",
}


def test_subdivided_maps_are_pinned():
    got = {}
    for name, make in sorted(models.MAP_MODELS.items()):
        g = subdivide_map(make())
        records = [_map_record(g)]
        if name != "cross5-identity":
            records.append(_map_record(subdivide_map(g)))
        text = json.dumps(records, separators=(",", ":"))
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SUBDIVIDED_MAP_DIGESTS


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
