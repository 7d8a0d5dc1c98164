"""Simplicial maps: equivariance, isovariance, subdivision, stratum data."""

import hashlib
import json
import random
import time

import pytest

import oracles
from isokit import gcomplex, gmap as gmap_module, models
from isokit.errors import IsokitError, NotEquivariant, NotSimplicial
from isokit.fixpoint import forced_fixed_points, lefschetz, removal_verdict
from isokit.gcomplex import (
    GComplex,
    barycentric_subdivision,
    fixed_subcomplex,
    make_regular,
    present_classes,
)
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
from isokit.group import class_names, is_subconjugate


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
    # a float, a bool or a string is named, not read as the int it equals
    y = models.antipodal_hexagon()
    for image, bad in ((1.0, "1.0"), (True, "True"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"vertex map image must be an integer, got {bad}$"):
            GMap(y, y, (image, 2, 3, 4, 5, 0))
    assert GMap(y, y, (1, 2, 3, 4, 5, 0)).vertices == (1, 2, 3, 4, 5, 0)
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


# -- pinned pi0 reports, link graphs and forced points ------------------------


def _pinned_complexes():
    """Every complex model but cross5, made regular, then subdivided once more."""
    out = {}
    for name, make in sorted(models.COMPLEX_MODELS.items()):
        if name != "cross5":
            x = make_regular(make())
            out[name] = x
            out[name + " sd"] = barycentric_subdivision(x).complex
    return out


def _pinned_maps():
    """Every map model but cross5-identity, and its subdivision."""
    out = {}
    for name, make in sorted(models.MAP_MODELS.items()):
        if name != "cross5-identity":
            f = make()
            out[name] = f
            out[name + " sd"] = subdivide_map(f)
    return out


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pi0_record(f):
    try:
        return pi0_link_check(f).as_dict()
    except IsokitError as exc:
        return type(exc).__name__


def _link_graph_records(x):
    """The components of each exact stratum, then each link graph."""
    reps = present_classes(x)
    records = [
        [sorted(list(n) for n in c) for c in gmap_module._stratum_components(s)]
        for s in x.isotropy().strata.values()
    ]
    for r0 in reps:
        for r1 in reps:
            if len(r0) < len(r1) and is_subconjugate(x.group, r0, r1):
                lg = link_graph(x, r0, r1)
                records.append(
                    [
                        list(lg.pair),
                        [list(n) for n in lg.nodes],
                        [sorted(list(n) for n in c) for c in lg.components],
                    ]
                )
    return records


# sha256 of pi0_link_check(...).as_dict() (or the error it raises) for the
# identity of each pinned complex and for each pinned map; sha256 of the
# stratum components and of the link graph of every properly subconjugate
# pair of present classes; the forced fixed vertices.  All were taken while
# components and forced points were found by pairwise scans.
PI0_DIGESTS = {
    "antipodal-square": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "antipodal-square sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "c2-point": "53450b6c41ab13e7c387b3bbb8b8788eef2efea122ffe57b660919d0633fe9e5",
    "c2-point sd": "53450b6c41ab13e7c387b3bbb8b8788eef2efea122ffe57b660919d0633fe9e5",
    "c2xc2-wedge": "8f37e481e6c317c0327fd90cdf48f30b58e79a31dbeb545ddb23f0e36bab020f",
    "c2xc2-wedge sd": "8f37e481e6c317c0327fd90cdf48f30b58e79a31dbeb545ddb23f0e36bab020f",
    "disk-collapse": "5834651af74d2b3ce40472e155bed2f7cbe1858ba83a3f1a3c665a2db5ff14c5",
    "disk-collapse sd": "5834651af74d2b3ce40472e155bed2f7cbe1858ba83a3f1a3c665a2db5ff14c5",
    "fixed-point-inclusion": "aec67defd55d3e2015bebf8eb3a4a201fb30123a69a0b1841c18010fdfa6e865",
    "fixed-point-inclusion sd": "aec67defd55d3e2015bebf8eb3a4a201fb30123a69a0b1841c18010fdfa6e865",
    "hexagon": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-identity": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-identity sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-reflection": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-reflection sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-rotation": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "hexagon-rotation sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "point": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "point sd": "1d3ed76c4f1dc5bca9ffbf51cd38a42a8261bce67dba3d273b17e32e4a8af4a6",
    "ring-inclusion": "4786d98d94de962d008fc64fb0f8e2e87f4b8d3f7074b08821da5707821af3da",
    "ring-inclusion sd": "4786d98d94de962d008fc64fb0f8e2e87f4b8d3f7074b08821da5707821af3da",
    "rotation-disk": "ee231af64ccb104cd15bbb72ffdd1724f9cb88893e9265d1cc5e4c3f7df38d62",
    "rotation-disk sd": "ee231af64ccb104cd15bbb72ffdd1724f9cb88893e9265d1cc5e4c3f7df38d62",
    "s3-dust": "4bc261eb654169727dae69795b323b9aeac49c40ebf96a4684ea82f197770c34",
    "s3-dust sd": "4bc261eb654169727dae69795b323b9aeac49c40ebf96a4684ea82f197770c34",
    "swap-segment": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
    "swap-segment sd": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
    "wedge": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
    "wedge sd": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
    "wedge-identity": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
    "wedge-identity sd": "284f2fd4c510a37dd74cc904636080b10c87a88b857e3d337c77d1306a5913e1",
}
LINK_GRAPH_DIGESTS = {
    "antipodal-square": "6186bfbeef7b88f484f5fcb883053a836bc264f5c894d896b9f08150fb4b823b",
    "antipodal-square sd": "84813791d2be246f001cc7361baf4ff183eda37f6ac39ae4c41bba1bffe1128c",
    "c2-point": "6801882773977aefc2f76584b915a6cae98afe0d813e9a6ca72a4b8963f89520",
    "c2-point sd": "6801882773977aefc2f76584b915a6cae98afe0d813e9a6ca72a4b8963f89520",
    "c2xc2-wedge": "a2441d6cb60af715fb2006f537a76526d177ce465512253aa92c4b98c4f4c6c9",
    "c2xc2-wedge sd": "bd2796adad4e6f017dd82b4c108129d514f85088960f91c1d7c5c7645ad17a17",
    "hexagon": "ec11e8f56826b18e2a0740363208ca8efb205b70e8900013c1b675dbe391444d",
    "hexagon sd": "9141580d316eee9dcf85973e7c4a824c85136f002969f9e08e10f89f5d7f20c0",
    "point": "6801882773977aefc2f76584b915a6cae98afe0d813e9a6ca72a4b8963f89520",
    "point sd": "6801882773977aefc2f76584b915a6cae98afe0d813e9a6ca72a4b8963f89520",
    "rotation-disk": "b17a94756437f18f85106b5249f97b1b5bc84f72d9467cd1f5310d2abae924dc",
    "rotation-disk sd": "4f933dd4b5adc77e3197adf518cd13c79b8b8338a0da9b99f0ae8c2a933968ba",
    "s3-dust": "1549860b779d257b463e3c8b92a5208c9ff01cd55be2abffc375d89776d5189d",
    "s3-dust sd": "1549860b779d257b463e3c8b92a5208c9ff01cd55be2abffc375d89776d5189d",
    "swap-segment": "e3aa0eb59f491762ce89f406b3b4eff9ea7808f73a2a8323d93dedb9ac008c5c",
    "swap-segment sd": "2947429530943206c64e1546379c28d855537785db6ec0758540b91cd4a864f4",
    "wedge": "9864eb179a70751d575872563556c0b2fb55ad31f9c8e0fe2f1a39dbe9c5ba45",
    "wedge sd": "df90a4654edd11cd235199e08a915acd05886660b70f21a9ac9838039ae3a9e6",
}
FORCED_FIXED_POINTS = {
    "antipodal-square": [],
    "antipodal-square sd": [],
    "c2-point": [0],
    "c2-point sd": [0],
    "c2xc2-wedge": [0],
    "c2xc2-wedge sd": [0],
    "hexagon": [],
    "hexagon sd": [],
    "point": [0],
    "point sd": [0],
    "rotation-disk": [0],
    "rotation-disk sd": [0],
    "s3-dust": [11],
    "s3-dust sd": [11],
    "swap-segment": [1],
    "swap-segment sd": [1],
    "wedge": [0],
    "wedge sd": [0],
}


def test_pi0_reports_are_pinned():
    got = {
        name: _digest(_pi0_record(identity_map(x)))
        for name, x in _pinned_complexes().items()
    }
    got.update(
        (name, _digest(_pi0_record(f))) for name, f in _pinned_maps().items()
    )
    assert got == PI0_DIGESTS


def test_link_graphs_are_pinned():
    got = {
        name: _digest(_link_graph_records(x))
        for name, x in _pinned_complexes().items()
    }
    assert got == LINK_GRAPH_DIGESTS


def test_forced_fixed_points_are_pinned():
    got = {
        name: sorted(forced_fixed_points(x))
        for name, x in _pinned_complexes().items()
    }
    assert got == FORCED_FIXED_POINTS


def test_pi0_link_check_is_linear_in_faces():
    x = models.COMPLEX_MODELS["rotation-disk"]()
    for _ in range(3):
        x = barycentric_subdivision(x).complex
    assert len(x.simplices()) == 3937
    f = identity_map(x)
    assert is_isovariant(f)  # the isotropy index is built outside the timing
    t0 = time.monotonic()
    assert pi0_link_check(f).ok
    # pairwise scans over the 3,937 simplices took about 17 s (2-core x86-64)
    assert time.monotonic() - t0 < 3.0
