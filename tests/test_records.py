"""The result records: immutable named tuples with the fields, keyword
construction and equality they always had, kept answers computed once
per object, and an import of isokit that generates no code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isokit
from isokit import cubelim, fixpoint, gcomplex, gmap, group, linking, models
from isokit.cubelim import LimitSet
from isokit.fixpoint import BurnsideElement, PiData, TwistedConjugacySetup
from isokit.gmap import GMap, is_isovariant, is_simplicial
from isokit.linking import phi_vertex_map

# every public record and its fields, in order, as the frozen dataclasses
# they replace declared them
FIELDS = {
    group.Cosets: ("cosets", "index"),
    group.MarksTable: ("reps", "names", "matrix"),
    cubelim.SetFunction: ("mapping", "codomain_size"),
    cubelim.LimitSet: ("minimals", "elements"),
    cubelim.HypothesisCheck: ("ok", "checked", "failures"),
    cubelim.Factorization: ("added_order", "stages", "links", "lim_y", "composed", "direct"),
    gcomplex.Isotropy: ("stabilizers", "strata", "orbits", "regular"),
    gcomplex.Subdivision: ("complex", "simplex_to_vertex", "vertex_to_simplex"),
    gcomplex.Stratum: ("class_rep", "name", "simplices"),
    gcomplex.Filtration: ("order", "names", "levels"),
    gcomplex.HypothesisReport: ("dims_used", "dim_ok", "dim_failures", "gap_ok", "gap_failures"),
    gcomplex.OrbitComplex: ("complex", "vertex_orbit", "orbit_members", "fibers"),
    gmap.GMap: ("source", "target", "vertices"),
    gmap.StratumMaps: ("fixed", "closures"),
    gmap.LinkGraph: ("pair", "nodes", "components"),
    gmap.Pi0Report: ("class_results", "pair_results", "ok", "disclaimer"),
    linking.LinkingSimplex: ("group", "chain", "complex", "vertices"),
    linking.BoundaryPiece: ("slots", "subchain", "simplices", "vertex_embedding", "group"),
    linking.BoundaryDecomposition: ("simplices", "pieces"),
    linking.FundamentalDomain: ("facet", "translates"),
    linking.IllmanSimplex: ("group", "groups", "complex", "vertices", "chain", "surjection"),
    linking.PhiMap: (
        "group", "groups", "chain", "surjection", "disk_dims", "linking_facets",
        "linking_vertices", "keys", "targets", "stabilizers", "identified",
        "coset_vertices", "facet_positions", "chain_label",
    ),
    linking.Cell: ("orbit_simplex", "base_simplex", "phi", "phi_map"),
    linking.IsovariantCellStructure: ("complex", "orbit", "cells", "skeleta"),
    linking.CellCheck: ("cell_index", "check", "detail"),
    linking.CellReport: ("ok", "failures", "cell_count", "simplex_tally", "simplex_count"),
    fixpoint.BurnsideElement: ("basis", "names", "coefficients"),
    fixpoint.TwistedConjugacySetup: ("invariant_factors", "phi"),
    fixpoint.TwistedClasses: ("setup", "torsion", "free_rank", "u", "u_inv", "diag"),
    fixpoint.PiData: ("setup", "tree", "labels", "base"),
    fixpoint.ReidemeisterTrace: ("classes", "coefficients", "lefschetz"),
    fixpoint.VerdictReport: (
        "fixed_point_free", "hypotheses", "forced", "class_names", "marks",
        "orbit_coefficients", "nonintegral_witness", "verdict", "note",
    ),
}


def _segment_map() -> dict:
    x = models.COMPLEX_MODELS["swap-segment"]()
    return {"source": x, "target": x, "vertices": tuple(range(x.n_vertices))}


def _keywords(cls) -> dict:
    """Keyword arguments that build cls; a record that checks its fields
    gets valid ones, any other distinct placeholders."""
    if cls is GMap:
        return _segment_map()
    if cls is BurnsideElement:
        return {"basis": "marks", "names": ("e", "C2"), "coefficients": (2, 1)}
    if cls is TwistedConjugacySetup:
        return {"invariant_factors": (0, 2), "phi": ((1, 0), (0, 1))}
    return {name: (k, name) for k, name in enumerate(FIELDS[cls])}


def test_every_record_of_the_library_is_listed():
    found = {
        obj for mod in (group, cubelim, gcomplex, gmap, linking, fixpoint)
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")
        and obj.__module__ == mod.__name__
    }
    assert found == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_fields_construction_immutability_and_equality(cls):
    assert cls._fields == FIELDS[cls]
    kwargs = _keywords(cls)
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and a is not b
    assert tuple(getattr(a, name) for name in cls._fields) == tuple(kwargs.values())
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, kwargs[name])
    assert a._replace() == a and type(a._replace()) is cls
    assert repr(a).startswith(f"{cls.__name__}(")


def test_a_default_is_kept():
    setup = TwistedConjugacySetup(invariant_factors=(0,), phi=((1,),))
    assert PiData(setup=setup, tree=frozenset(), labels={}).base == 0


def test_a_copy_is_checked_as_a_new_record_is():
    """_replace builds through the record's own class, so the checks the
    constructor makes hold for every copy, with the same messages."""
    f = GMap(**_segment_map())
    with pytest.raises(ValueError, match="^vertex map image out of range$"):
        f._replace(vertices=f.vertices[:-1] + (7,))
    with pytest.raises(ValueError, match="^vertex map length must match the source complex$"):
        GMap._make((f.source, f.target, f.vertices[1:]))
    e = BurnsideElement(**_keywords(BurnsideElement))
    with pytest.raises(ValueError, match="^basis must be 'marks' or 'orbits'$"):
        e._replace(basis="cells")
    assert e._replace(basis="orbits").basis == "orbits"
    s = TwistedConjugacySetup(**_keywords(TwistedConjugacySetup))
    with pytest.raises(ValueError, match="^phi does not preserve torsion relations$"):
        s._replace(phi=((1, 1), (0, 1)))


def test_a_limit_counts_its_elements_and_copies():
    lim = LimitSet(minimals=(1,), elements=((0,), (1,), (2,)))
    assert len(lim) == 3 and lim.index_of((2,)) == 2
    small = lim._replace(elements=((5,),))
    assert len(small) == 1 and small.minimals == (1,) and small.index_of((5,)) == 0
    assert not LimitSet(minimals=(1,), elements=())


def _limit() -> LimitSet:
    m = cubelim.random_cube_map(2, seed=3)
    return cubelim.limit(m.source, cubelim.vertex_family(2, [{0}, {1}]))


def _reflection() -> GMap:
    return models.MAP_MODELS["hexagon-reflection"]()


@pytest.mark.parametrize("build, answer, read", [
    (_reflection, "_fixed", lambda f: f.fixed_simplices()),
    (_reflection, "_simplicial", is_simplicial),
    (_reflection, "_isovariant", is_isovariant),
    (_limit, "_index", lambda lim: lim.index_of(lim.elements[-1])),
    (lambda: group.table_of_marks(group.FiniteGroup.symmetric(3)), "below", lambda t: t.solve_marks([6, 0, 0, 0])),
    (lambda: phi_vertex_map(group.FiniteGroup.cyclic(2), [[0, 1], [0]]), "illman", lambda pm: pm.apply((0, 0), 0)),
], ids=["GMap.fixed", "GMap.simplicial", "GMap.isovariant", "LimitSet.index", "MarksTable.below", "PhiMap.illman"])
def test_kept_answers_are_computed_once_per_object(count_calls, build, answer, read):
    obj = build()
    calls = count_calls("func", vars(type(obj))[answer])
    first = read(obj)
    assert read(obj) == first and len(calls) == 1
    # a copy keeps none of the original's answers
    assert read(obj._replace()) == first and len(calls) == 2


def test_importing_isokit_generates_no_code():
    """A fresh interpreter imports isokit without dataclasses, whose
    decorators compile their methods on every import, or inspect."""
    src = str(Path(isokit.__file__).resolve().parent.parent)
    code = "import sys, isokit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
