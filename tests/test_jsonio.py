"""Serialization round-trips and canonical-output stability."""

import hashlib
import json
import os

import pytest
from oracles import cells_report_reference
from test_group import LATTICE_FAMILIES, _relabel
from test_isotropy import GROUPS as ISOTROPY_GROUPS, _orbit_closure_complex
from test_linking import GOLDEN_CELL_DIGESTS

from isokit import jsonio, models
from isokit.cubelim import random_cube_map
from isokit.gcomplex import GComplex, barycentric_subdivision
from isokit.group import FiniteGroup, enumerate_chains
from isokit.jsonio import (
    Canonical,
    canonical_dumps,
    cells_to_json,
    complex_to_json,
    cube_map_to_json,
    file_digest,
    group_to_json,
    load_json,
    map_to_json,
    parse_complex,
    parse_cube_map,
    parse_group,
    parse_map,
    parse_subset_key,
    subset_key,
)
from isokit.linking import build_linking, decompose


def test_canonical_dumps_bytes():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'
    # key order of the input dict must not leak into the output
    assert canonical_dumps({"a": [1, 2], "b": 1}) == '{"a":[1,2],"b":1}\n'


def _plain_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _assert_report_is_the_reference(c, *where):
    """cells_to_json writes what json.dumps writes of the dict-building
    reference report."""
    got = canonical_dumps(cells_to_json(c))
    want = _plain_dumps(cells_report_reference(c))
    # a plain bool, as pytest's diff of two long reports takes minutes
    same = got == want
    assert same, (where, "after " + os.path.commonprefix([got, want])[-200:])


def test_canonical_dumps_is_plain_json_dumps():
    """canonical_dumps writes what a fresh json.dumps writes: on every
    pinned cell report, against the reference report, and on names outside
    ASCII."""
    for name, depth in sorted(GOLDEN_CELL_DIGESTS):
        x = models.COMPLEX_MODELS[name]()
        for _ in range(depth):
            x = barycentric_subdivision(x).complex
        _assert_report_is_the_reference(decompose(x), name, depth)
    names = ["α", "ü", "東", "\u2028", '"', "\\", "\x00", "😀"]
    x = GComplex(len(names), [range(len(names))], {}, FiniteGroup.cyclic(1), names=names)
    report = complex_to_json(x)
    assert canonical_dumps(report) == _plain_dumps(report)
    assert parse_complex(json.loads(canonical_dumps(report))).names == tuple(names)


def test_cell_reports_of_twice_subdivided_orbit_closures_are_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(ISOTROPY_GROUPS)), st.integers(0, 2**32))
    def check(group, seed):
        x = _orbit_closure_complex(ISOTROPY_GROUPS[group], seed)
        y = barycentric_subdivision(barycentric_subdivision(x).complex).complex
        _assert_report_is_the_reference(decompose(y), group, seed)

    check()


@pytest.mark.parametrize("family", sorted(LATTICE_FAMILIES))
def test_cell_reports_of_lattice_linking_complexes_are_the_reference(family):
    """Linking complexes of chains of one and two inclusions, where every
    cell has a PhiMap of its own."""
    g = _relabel(LATTICE_FAMILIES[family](), 1)
    for k in (1, 2):
        chains = enumerate_chains(g, k)
        for chain in (chains[0], chains[len(chains) // 2], chains[-1]):
            c = decompose(build_linking(g, chain).complex)
            assert len({id(cell.phi_map) for cell in c.cells}) == len(c.cells)
            _assert_report_is_the_reference(c, family, chain)


def test_cell_report_writes_labels_with_percent_signs_and_escapes():
    """The chain label goes into the template as JSON text: a % in it is
    no format directive, and its escapes are what json.dumps writes."""
    c = decompose(barycentric_subdivision(models.COMPLEX_MODELS["swap-segment"]()).complex)
    maps = {}
    for cell in c.cells:
        pm = cell.phi_map
        if id(pm) not in maps:
            maps[id(pm)] = pm._replace(chain_label='%d%%s "ü"\\' + pm.chain_label)
    cells = tuple(cell._replace(phi_map=maps[id(cell.phi_map)]) for cell in c.cells)
    _assert_report_is_the_reference(c._replace(cells=cells))


def _expand(obj):
    """obj with each Canonical replaced by the value its text spells."""
    if isinstance(obj, Canonical):
        return json.loads(obj.text)
    if isinstance(obj, dict):
        return {k: _expand(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_expand(v) for v in obj]
    return obj


def test_canonical_dumps_inserts_canonical_text():
    one = Canonical('{"a":[1,2],"b":"%"}')
    cases = [
        (one, '{"a":[1,2],"b":"%"}\n'),
        ([0, one, 3], '[0,{"a":[1,2],"b":"%"},3]\n'),
        ({"z": {"y": one}, "a": None}, '{"a":null,"z":{"y":{"a":[1,2],"b":"%"}}}\n'),
        ([Canonical("1"), {"x": Canonical('"y"')}, Canonical("[]")], '[1,{"x":"y"},[]]\n'),
    ]
    for obj, text in cases:
        assert canonical_dumps(obj) == text == _plain_dumps(_expand(obj))


def test_canonical_dumps_with_strings_that_spell_the_placeholder():
    spelled = jsonio._PLACEHOLDER
    for obj in (
        {spelled: Canonical("[1]")},
        {"k": spelled, "v": Canonical('{"b":2}')},
        [Canonical("3"), '"' + spelled, Canonical("4")],
        {spelled: spelled, "a": [Canonical("5"), spelled]},
    ):
        assert canonical_dumps(obj) == _plain_dumps(_expand(obj)), obj


def test_canonical_dumps_rejects_other_unknown_objects():
    for obj in (object(), [Canonical("1"), object()], {"a": {1, 2}}, {"a": Canonical("1"), "b": b"x"}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_dumps(obj)


def test_file_digest(tmp_path):
    p = tmp_path / "blob.json"
    p.write_bytes(b'{"x":1}\n')
    want = "sha256:" + hashlib.sha256(b'{"x":1}\n').hexdigest()
    assert file_digest(str(p)) == want


def test_group_roundtrip(tmp_path):
    for g in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        j = group_to_json(g)
        assert parse_group(j).table == g.table
        p = tmp_path / "g.json"
        p.write_text(canonical_dumps(j))
        assert parse_group(load_json(str(p))).table == g.table


def test_group_from_generators():
    g = parse_group({"degree": 3, "generators": [[1, 0, 2]]})
    assert g.order == 2
    # no generator, so the degree is never used: the trivial group, however large
    assert parse_group({"degree": 10**400, "generators": []}).table == ((0,),)
    with pytest.raises(ValueError, match="group degree must be an integer"):
        parse_group({"degree": 1e308, "generators": []})
    with pytest.raises(ValueError):
        parse_group({"generators": [[1, 0, 2]]})  # degree missing


def test_group_errors():
    with pytest.raises(ValueError):
        parse_group([[0]])
    with pytest.raises(ValueError):
        parse_group({"table": [[0, 1], [1, 0]], "order": 3})
    with pytest.raises(ValueError):
        parse_group({"order": 2})


def test_complex_roundtrip():
    for name in ("wedge", "hexagon", "s3-dust"):
        x = models.COMPLEX_MODELS[name]()
        j = complex_to_json(x)
        y = parse_complex(j)
        assert canonical_dumps(complex_to_json(y)) == canonical_dumps(j)
        assert y.facets == x.facets and y.action == x.action


def test_complex_group_by_path(tmp_path):
    (tmp_path / "g.json").write_text(
        canonical_dumps(group_to_json(FiniteGroup.cyclic(2)))
    )
    obj = {
        "vertices": 2,
        "facets": [[0], [1]],
        "action": {"1": [1, 0]},
        "group": "g.json",
    }
    x = parse_complex(obj, base_dir=str(tmp_path))
    assert x.group.order == 2 and x.action[1] == (1, 0)


def test_complex_defaults_to_trivial_group():
    x = parse_complex({"vertices": 1, "facets": [[0]]})
    assert x.group.order == 1


def test_complex_errors():
    with pytest.raises(ValueError):
        parse_complex({"facets": [[0]]})
    with pytest.raises(ValueError):
        parse_complex({"vertices": 1, "facets": [[0]], "action": {"x": [0]}})


def test_map_roundtrip():
    for name in ("wedge-identity", "hexagon-reflection", "ring-inclusion"):
        f = models.MAP_MODELS[name]()
        j = map_to_json(f)
        g = parse_map(j)
        assert canonical_dumps(map_to_json(g)) == canonical_dumps(j)
        assert g.vertices == f.vertices


def test_map_complexes_by_path(tmp_path):
    f = models.MAP_MODELS["hexagon-rotation"]()
    (tmp_path / "hex.json").write_text(
        canonical_dumps(complex_to_json(f.source))
    )
    obj = {"source": "hex.json", "target": "hex.json", "vertices": list(f.vertices)}
    g = parse_map(obj, base_dir=str(tmp_path))
    assert g.vertices == f.vertices and g.source.group.order == 2


def test_map_reads_a_shared_complex_once(tmp_path, count_calls):
    f = models.MAP_MODELS["hexagon-rotation"]()
    hex_json = complex_to_json(f.source)
    (tmp_path / "hex.json").write_text(canonical_dumps(hex_json))
    calls = count_calls("parse_complex", jsonio)
    for source, target, parses in (
        ("hex.json", "hex.json", 1),
        (hex_json, dict(hex_json), 1),
        (hex_json, "hex.json", 2),
    ):
        del calls[:]
        obj = {"source": source, "target": target, "vertices": list(f.vertices)}
        g = parse_map(obj, base_dir=str(tmp_path))
        assert len(calls) == parses
        assert (g.target is g.source) == (parses == 1)
        assert g.is_self_map() and g.vertices == f.vertices


def test_map_errors():
    f = models.MAP_MODELS["wedge-identity"]()
    obj = map_to_json(f)
    del obj["vertices"]
    with pytest.raises(ValueError):
        parse_map(obj)


def test_subset_keys():
    from itertools import combinations

    # a subset is an int mask, bit i set iff i is in it
    assert subset_key(0) == ""
    assert parse_subset_key("", 0) == 0
    assert parse_subset_key("1,0", 2) == 0b11
    for r in range(4):
        for combo in combinations(range(3), r):
            s = sum(1 << i for i in combo)
            assert subset_key(s) == ",".join(map(str, combo))
            assert parse_subset_key(subset_key(s), 3) == s
    with pytest.raises(ValueError):
        parse_subset_key("a,b", 3)
    for key in ("0,0", "1,0,1", "2,2,2"):
        with pytest.raises(ValueError, match="repeats a part"):
            parse_subset_key(key, 3)
    # a part is an index of the n-cube, so no key builds a mask past 2^n
    for key in ("-1", "3", "0,1000000000"):
        with pytest.raises(ValueError, match="is not a subset of 0..2$"):
            parse_subset_key(key, 3)


def test_cube_map_keys_name_each_entry_once():
    """A key "1,0" in place of "0,1" reads the same map; next to it, it is
    a second key for one vertex or component, which is bad input."""
    j = cube_map_to_json(random_cube_map(2, seed=1, max_size=3))
    for table_of in (lambda doc: doc["source"]["vertices"], lambda doc: doc["components"]):
        doc = json.loads(json.dumps(j))
        table = table_of(doc)
        table["1,0"] = table.pop("0,1")
        assert cube_map_to_json(parse_cube_map(doc)) == j
        table["0,1"] = table["1,0"]
        with pytest.raises(ValueError, match="names what an earlier key named"):
            parse_cube_map(doc)


def test_cube_map_roundtrip():
    for seed in (0, 4, 9):
        m = random_cube_map(2, seed=seed, max_size=3)
        j = cube_map_to_json(m)
        m2 = parse_cube_map(j)
        assert cube_map_to_json(m2) == j
        assert canonical_dumps(cube_map_to_json(m2)) == canonical_dumps(j)


def test_cube_map_errors():
    m = random_cube_map(2, seed=1, max_size=3)
    j = cube_map_to_json(m)
    no_dim = dict(j)
    del no_dim["dim"]
    with pytest.raises(ValueError):
        parse_cube_map(no_dim)

    bad_key = dict(j)
    bad_key["source"] = dict(j["source"])
    bad_key["source"]["maps"] = {"01": [0]}
    with pytest.raises(ValueError, match="S\\+j"):
        parse_cube_map(bad_key)

    broken = dict(j)
    broken["source"] = dict(j["source"])
    broken["source"]["vertices"] = dict(j["source"]["vertices"])
    broken["source"]["vertices"][""] = 99
    with pytest.raises(ValueError, match="source"):
        parse_cube_map(broken)


def test_cells_to_json_shape():
    c = decompose(models.COMPLEX_MODELS["swap-segment"]())
    j = json.loads(cells_to_json(c).text)
    assert j["skeleta"] == [3, 5]
    assert len(j["cells"]) == 3
    for rec in j["cells"]:
        assert set(rec) == {
            "m", "chain", "orbit", "base", "disk_dims", "phi", "attach"
        }
        assert rec["m"] == sum(rec["disk_dims"])
        for entry in rec["phi"]:
            assert set(entry) == {"disk", "slot", "coset", "vertex"}
            # one disk coordinate per chain slot
            assert len(entry["disk"]) == len(rec["disk_dims"])
    # a vertex cell attaches along nothing, an edge cell along its endpoints
    by_orbit = sorted(j["cells"], key=lambda r: len(r["orbit"]))
    assert by_orbit[0]["attach"] == []
    assert canonical_dumps(j) == canonical_dumps(cells_to_json(
        decompose(models.COMPLEX_MODELS["swap-segment"]())
    ))
