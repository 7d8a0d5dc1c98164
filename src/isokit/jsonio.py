"""JSON formats for groups, complexes, maps, and cube diagrams.

One object per file.  Groups are multiplication tables or permutation
generators; complexes reference their group inline or by path; maps
reference complexes the same way, resolved relative to the map file;
a map whose source and target are the same reference reads it once.
All parse failures, wrong JSON shapes included, raise ValueError so
the CLI can report bad input uniformly.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple

from .cubelim import Cube, CubeMap, Subset, _listed
from .gcomplex import GComplex, _faces
from .gmap import GMap
from .group import FiniteGroup, _decimal_int, _int
from .linking import IsovariantCellStructure


class Canonical:
    """A value already written as canonical JSON text, which canonical_dumps
    inserts as is."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _encoder(default) -> json.JSONEncoder:
    # the library builds every report fresh as a tree and json.loads makes
    # no cycles, so the encoder skips its circular-reference bookkeeping
    return json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), check_circular=False, default=default
    )


# what the encoder writes in place of each Canonical before its text goes in
_PLACEHOLDER = "\x00isokit.Canonical\x00"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def _not_serializable(o):
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """Sorted keys, tight separators, trailing newline: byte-stable output.

    Each Canonical in obj is written as its text.  A string of obj that
    spells the placeholder makes obj encode again with each text parsed
    back, which writes the same bytes.
    """
    texts = []

    def swap(o):
        if not isinstance(o, Canonical):
            _not_serializable(o)
        texts.append(o.text)
        return _PLACEHOLDER

    out = _encoder(swap).encode(obj)
    if not texts:
        return out + "\n"
    pieces = out.split(_PLACEHOLDER_JSON)
    if len(pieces) != len(texts) + 1:
        return _encoder(
            lambda o: json.loads(o.text) if isinstance(o, Canonical) else _not_serializable(o)
        ).encode(obj) + "\n"
    joined = [pieces[0]]
    for text, piece in zip(texts, pieces[1:]):
        joined += (text, piece)
    joined.append("\n")
    return "".join(joined)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def parse_json(text: str):
    """json.loads, with nesting too deep for the decoder a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to decode") from None


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read())


def _as_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    return obj


def _list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list")
    return value


def _ints(value, what: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not set(map(type, value)) <= {int}:
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


# -- groups ------------------------------------------------------------------


def parse_group(obj) -> FiniteGroup:
    obj = _as_dict(obj, "group")
    if "table" in obj:
        table = _list(obj["table"], "group table")
        if "order" in obj and len(table) != _int(obj["order"], "group order"):
            raise ValueError("group order does not match table size")
        return FiniteGroup(tuple(_ints(row, "group table row") for row in table))
    if "generators" in obj:
        degree = obj.get("degree")
        if degree is None:
            raise ValueError("generator form needs a degree")
        gens = _list(obj["generators"], "group generators")
        return FiniteGroup.from_generators(
            _int(degree, "group degree"), [_ints(p, "group generator") for p in gens]
        )
    raise ValueError("group JSON needs 'table' or 'generators'")


def group_to_json(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(row) for row in g.table]}


def _resolve_group(value, base_dir: str) -> FiniteGroup:
    if isinstance(value, str):
        return parse_group(load_json(os.path.join(base_dir, value)))
    return parse_group(value)


# -- complexes ---------------------------------------------------------------


def parse_complex(
    obj, base_dir: str = ".", group: Optional[FiniteGroup] = None
) -> GComplex:
    obj = _as_dict(obj, "complex")
    if "vertices" not in obj or "facets" not in obj:
        raise ValueError("complex JSON needs 'vertices' and 'facets'")
    n = _int(obj["vertices"], "complex vertices")
    facets = [_ints(f, "complex facet") for f in _list(obj["facets"], "complex facets")]
    if "group" in obj:
        group = _resolve_group(obj["group"], base_dir)
    elif group is None:
        group = FiniteGroup(((0,),))
    action: Dict[int, Tuple[int, ...]] = {}
    for key, perm in _as_dict(obj.get("action", {}), "complex action").items():
        elem = _decimal_int(key, "action key")
        action[elem] = _ints(perm, f"action of element {elem}")
    names = obj.get("names")
    if names is not None:
        names = tuple(str(s) for s in _list(names, "complex names"))
    return GComplex(n, facets, action, group, names=names)


def complex_to_json(x: GComplex) -> dict:
    return {
        "vertices": x.n_vertices,
        "facets": [list(f) for f in x.facets],
        "action": {str(g): list(x.action[g]) for g in x.group.elements},
        "group": group_to_json(x.group),
        "names": list(x.names),
    }


# -- maps --------------------------------------------------------------------


def _resolve_complex(value, base_dir: str, group: Optional[FiniteGroup]) -> GComplex:
    if isinstance(value, str):
        path = os.path.join(base_dir, value)
        return parse_complex(load_json(path), os.path.dirname(path) or ".", group)
    return parse_complex(value, base_dir, group)


def parse_map(obj, base_dir: str = ".") -> GMap:
    obj = _as_dict(obj, "map")
    for key in ("source", "target", "vertices"):
        if key not in obj:
            raise ValueError(f"map JSON needs '{key}'")
    group = _resolve_group(obj["group"], base_dir) if "group" in obj else None
    source = _resolve_complex(obj["source"], base_dir, group)
    if obj["target"] == obj["source"]:
        target = source
    else:
        target = _resolve_complex(obj["target"], base_dir, group)
    return GMap(source, target, _ints(obj["vertices"], "map vertices"))


def map_to_json(f: GMap) -> dict:
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "vertices": list(f.vertices),
    }


# -- cube diagrams -----------------------------------------------------------


def subset_key(s: Subset) -> str:
    return ",".join(str(i) for i in _listed(s))


def parse_subset_key(key: str, n: int) -> Subset:
    """A subset key of the n-cube as a mask: distinct parts in 0..n-1."""
    parts = [_decimal_int(p, f"subset key {key!r} part") for p in key.split(",")] if key else []
    if len(set(parts)) < len(parts):
        raise ValueError(f"subset key {key!r} repeats a part")
    if not all(0 <= p < n for p in parts):
        raise ValueError(f"subset key {key!r} is not a subset of 0..{n - 1}")
    return sum(1 << p for p in parts)


def _new_key(table: dict, key, raw: str):
    """key, which no earlier JSON key of table may have named."""
    if key in table:
        raise ValueError(f"key {raw!r} names what an earlier key named")
    return key


def _parse_cube(obj, n: int, what: str) -> Cube:
    obj = _as_dict(obj, what)
    vertices = _as_dict(obj.get("vertices"), f"{what}.vertices")
    if n >= len(vertices).bit_length():  # 2^n sets are needed; read no key for an n past them
        raise ValueError(f"{what}: cube must assign a set to every subset of 0..{n - 1}")
    sizes = {}
    for key, size in vertices.items():
        subset = _new_key(sizes, parse_subset_key(key, n), key)
        sizes[subset] = _int(size, f"{what} vertex size")
    covers = {}
    for key, mapping in _as_dict(obj.get("maps"), f"{what}.maps").items():
        if "+" not in key:
            raise ValueError(f"cube map key {key!r} must look like 'S+j'")
        skey, _, jkey = key.rpartition("+")
        j = _decimal_int(jkey, f"cube map key {key!r} index")
        cover = _new_key(covers, (parse_subset_key(skey, n), j), key)
        covers[cover] = _ints(mapping, f"{what} cover map {key!r}")
    try:
        return Cube(n, sizes, covers)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}")


def parse_cube_map(obj) -> CubeMap:
    obj = _as_dict(obj, "cube map")
    if "dim" not in obj:
        raise ValueError("cube map JSON needs 'dim'")
    n = _int(obj["dim"], "cube map dim")
    source = _parse_cube(obj.get("source"), n, "source")
    target = _parse_cube(obj.get("target"), n, "target")
    components = {}
    for key, mapping in _as_dict(obj.get("components"), "components").items():
        subset = _new_key(components, parse_subset_key(key, n), key)
        components[subset] = _ints(mapping, f"component {key!r}")
    try:
        return CubeMap(source, target, components)
    except ValueError as exc:
        raise ValueError(f"cube map: {exc}")


def _cube_to_json(c: Cube) -> dict:
    return {
        "vertices": {subset_key(s): c.sizes[s] for s in c.vertices()},
        "maps": {
            f"{subset_key(s)}+{j}": list(m) for (s, j), m in sorted(
                c.covers.items(), key=lambda kv: (_listed(kv[0][0]), kv[0][1])
            )
        },
    }


def cube_map_to_json(m: CubeMap) -> dict:
    return {
        "dim": m.n,
        "source": _cube_to_json(m.source),
        "target": _cube_to_json(m.target),
        "components": {
            subset_key(s): list(m.components[s]) for s in m.source.vertices()
        },
    }


# -- cell structures ---------------------------------------------------------


def _int_list(xs) -> str:
    return ",".join(map(str, xs))


@lru_cache(maxsize=None)
def _attach_faces(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The proper faces of an orbit simplex of n vertices, as positions;
    an increasing relabelling keeps their sorted order."""
    return tuple(sorted(f for f in _faces(range(n)) if len(f) < n))


def _cell_format(cell) -> Tuple[str, Callable]:
    """The %-template of the records of cell's chain and simplex lengths,
    keys sorted, and the picker that reads its %d values (the attaching
    faces' vertices, base, orbit, phi) from orbit + base + phi."""
    pm, n, b = cell.phi_map, len(cell.orbit_simplex), len(cell.base_simplex)
    faces = _attach_faces(n)
    # a phi record is the head of its linking vertex u, its disk l and the tail of u
    heads = ['{"coset":[%s],"disk":[' % _int_list(sorted(coset)) for _, coset in pm.linking_vertices]
    tails = ['],"slot":%d,"vertex":%%d}' % slot for slot, _ in pm.linking_vertices]
    disks = {l: _int_list(l) for l in pm.disk_vertices()}
    fmt = '{"attach":[%s],"base":[%s],"chain":%s,"disk_dims":[%s],"m":%d,"orbit":[%s],"phi":[%s]}' % (
        ",".join(["[" + ",".join(["%d"] * len(f)) + "]" for f in faces]),
        ",".join(["%d"] * b),
        json.dumps(cell.label()).replace("%", "%%"),
        _int_list(pm.disk_dims),
        cell.disk_dim,
        ",".join(["%d"] * n),
        ",".join([heads[u] + disks[l] + tails[u] for l, u in pm.keys]),
    )
    picks = [k for f in faces for k in f]
    picks += range(n, n + b)
    picks += range(n)
    picks += range(n + b, n + b + len(pm.keys))
    return fmt, itemgetter(*picks)


def cells_to_json(c: IsovariantCellStructure) -> Canonical:
    """Cell-structure report: one record per cell with its disk dimension,
    chain label, vertex assignment, and the orbit faces it attaches along,
    then the size of each skeleton.

    It is returned as canonical JSON text, which only canonical_dumps
    writes, alone or inside a larger report.  A cell's phi is aligned with
    its PhiMap's keys, so what depends on the chain alone (m, the label, the
    disk dimensions and each phi record's disk, slot and coset) is spelled
    out once per PhiMap and simplex length in a %-template, and each cell
    is one format of its vertices: no dict per cell or per phi record.
    """
    formats: Dict[Tuple[int, int, int], Tuple[str, Callable]] = {}
    records = []
    for cell in c.cells:
        orbit, base, phi, pm = cell
        key = (id(pm), len(orbit), len(base))
        plan = formats.get(key)
        if plan is None:
            plan = formats[key] = _cell_format(cell)
        fmt, pick = plan
        records.append(fmt % pick(orbit + base + phi))
    return Canonical('{"cells":[%s],"skeleta":[%s]}' % (
        ",".join(records), _int_list([len(s) for s in c.skeleta])
    ))
