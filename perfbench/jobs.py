"""One job per generated input, calling isokit the way the CLI handlers do.

Each ``run_*`` function takes a job from ``gen`` and a tracer and returns
the job's canonical JSON report plus the library outputs its check needs;
everything it does is timed.  Every call into the library goes through
``tracer.call`` under the name of the layer and stage it belongs to.  The
``check_*`` functions run untimed: they verify invariants with the
benchmark's own arithmetic (face closure, Euler characteristic,
closed-form subgroup counts), never by asking the code under test to agree
with itself, and return the per-job counters that need that arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Dict, Set, Tuple

from isokit.cubelim import check_hypothesis, factorize_limit, limit_map, random_cube_map
from isokit.fixpoint import (
    derive_pidata,
    lefschetz,
    lefschetz_fixed_sets,
    reidemeister_trace,
    removal_verdict,
)
from isokit.gcomplex import barycentric_subdivision, make_regular
from isokit.gmap import GMap, is_equivariant, is_isovariant, is_simplicial, subdivide_map
from isokit.group import (
    class_names,
    enumerate_chains,
    enumerate_subgroups,
    subgroup_conjugacy_classes,
    table_of_marks,
)
from isokit.jsonio import canonical_dumps, cells_to_json, parse_complex, parse_group
from isokit.linking import boundary, build_linking, decompose, fundamental_domain, validate_cells


class CheckFailed(Exception):
    """A job's output broke an invariant."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _report(command: str, result) -> str:
    return canonical_dumps({"command": command, "inputs": {}, "result": result, "status": "ok"})


# -- the benchmark's own combinatorics ------------------------------------------


def face_closure(facets) -> Set[Tuple[int, ...]]:
    out: Set[Tuple[int, ...]] = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            out.update(combinations(f, k))
    return out


def euler(simplices) -> int:
    return sum(1 if len(s) % 2 else -1 for s in simplices)


def fixed_simplex_count(simplices, vertex_map) -> int:
    """Simplices mapped onto themselves as sets, with no collapsed vertex."""
    return sum(1 for s in simplices if tuple(sorted(vertex_map[v] for v in s)) == s)


def graph_loops(simplices) -> Tuple[int, int]:
    """(components, independent loops) of the 1-skeleton."""
    verts = {s[0] for s in simplices if len(s) == 1}
    edges = [s for s in simplices if len(s) == 2]
    parent = {v: v for v in verts}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = len(verts)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps, len(edges) - len(verts) + comps


# -- sd-complexes -------------------------------------------------------------------


def run_sd(job: dict, t) -> Tuple[str, dict]:
    """decompose + verdict path: parse, regularize, subdivide, decompose,
    validate, central self-map and its subdivision, fixed-point invariants."""
    x = t.call("jsonio.parse", lambda text: parse_complex(json.loads(text)), job["complex"])
    x = t.call("gcomplex.subdivide", make_regular, x)
    for _ in range(job["depth"] - 1):
        x = t.call("gcomplex.subdivide", barycentric_subdivision, x).complex
    z = job["central"]
    f = t.call("gmap.check", GMap, x, x, x.action[z])
    g = t.call("gmap.subdivide_map", subdivide_map, f)
    y = g.source
    structure = t.call("linking.decompose", decompose, y)
    cells = t.call("linking.validate", validate_cells, structure, y)
    iso = (
        t.call("gmap.check", is_simplicial, g)
        and t.call("gmap.check", is_equivariant, g)
        and t.call("gmap.check", is_isovariant, g)
    )
    ident = t.call("gmap.check", GMap, y, y, tuple(range(y.n_vertices)))
    lef_f = t.call("fixpoint.lefschetz", lefschetz, f)
    lef_g = t.call("fixpoint.lefschetz", lefschetz, g)
    lef_id = t.call("fixpoint.lefschetz", lefschetz, ident)
    per_class = t.call("fixpoint.lefschetz", lefschetz_fixed_sets, g)
    verdict = t.call("fixpoint.verdict", removal_verdict, g)
    reid = None
    if y.dim <= 1 and graph_loops(face_closure(y.facets)) in ((1, 0), (1, 1)):
        pd = t.call("fixpoint.reidemeister", derive_pidata, g)
        tr = t.call("fixpoint.reidemeister", reidemeister_trace, g, pd)
        reid = {
            "coefficients": [[list(k), v] for k, v in sorted(tr.coefficients.items())],
            "lefschetz": tr.lefschetz,
        }
    report = t.call("jsonio.emit", lambda: _report("sd-complexes", {
        "cells": cells_to_json(structure),
        "isovariant": iso,
        "lefschetz": {"map": lef_g, "before_subdivision": lef_f, "identity": lef_id},
        "per_class": per_class,
        "reidemeister": reid,
        "verdict": verdict.as_dict(),
    }))
    facts = {
        "facets": y.facets,
        "map": g.vertices,
        "action": y.action[z],
        "iso": iso,
        "lef": (lef_f, lef_g, lef_id),
        "cells": cells,
        "reid": reid,
    }
    return report, facts


def check_sd(job: dict, facts: dict) -> Dict[str, int]:
    simplices = face_closure(facts["facets"])
    chi_before = euler(face_closure(json.loads(job["complex"])["facets"]))
    chi_after = euler(simplices)
    _require(chi_before == chi_after, f"Euler characteristic {chi_before} -> {chi_after}")
    lef_f, lef_g, lef_id = facts["lef"]
    _require(lef_id == chi_after, f"L(identity) {lef_id} != chi {chi_after}")
    _require(lef_f == lef_g, f"L(f) {lef_f} != L(sd f) {lef_g}")
    _require(facts["iso"], "central self-map is not isovariant")
    _require(facts["map"] == facts["action"], "subdivided central map is not the central action")
    cells = facts["cells"]
    _require(cells.ok, f"validate_cells failed: {cells.first_failure}")
    _require(
        cells.simplex_tally == len(simplices),
        f"cell tally {cells.simplex_tally} != {len(simplices)} simplices",
    )
    if facts["reid"] is not None:
        total = sum(v for _, v in facts["reid"]["coefficients"])
        _require(total == lef_g, f"Reidemeister coefficients sum to {total}, L = {lef_g}")
    return {
        "gcomplex.simplices": cells.simplex_count,
        "linking.cells": cells.cell_count,
        "fixpoint.fixed_simplices": fixed_simplex_count(simplices, facts["map"]),
    }


# -- group-lattices -------------------------------------------------------------------


def run_lattice(job: dict, t) -> Tuple[str, dict]:
    """group info + linking boundary/fd + decompose + verdict on one cold group."""
    g = t.call("jsonio.parse", lambda text: parse_group(json.loads(text)), job["group"])
    subs = t.call("group.lattice", enumerate_subgroups, g)
    classes = t.call("group.lattice", subgroup_conjugacy_classes, g)
    names = t.call("group.lattice", class_names, g)
    marks = t.call("group.marks", table_of_marks, g)
    rng = Random(job["marks_seed"])
    vector = [rng.randint(-9, 9) for _ in marks.names]
    solved = t.call("group.marks", marks.solve_marks, vector)
    round_trip = t.call("group.marks", marks.marks_of, solved)
    chain = tuple(frozenset(h) for h in job["chain"])
    chains = t.call("group.lattice", enumerate_chains, g, len(chain) - 1)
    lk = t.call("linking.build", build_linking, g, chain)
    bnd = t.call("linking.build", boundary, lk)
    fd = t.call("linking.build", fundamental_domain, lk)
    x = lk.complex
    structure = t.call("linking.decompose", decompose, x)
    cells = t.call("linking.validate", validate_cells, structure, x)
    f = t.call("gmap.check", GMap, x, x, x.action[job["central"]])
    verdict = t.call("fixpoint.verdict", removal_verdict, f)
    report = t.call("jsonio.emit", lambda: _report("group-lattices", {
        "order": g.order,
        "classes": [
            {"name": names[c[0]], "order": len(c[0]), "conjugates": len(c),
             "representative": sorted(c[0])}
            for c in classes
        ],
        "marks": {"names": list(marks.names), "matrix": [list(r) for r in marks.matrix]},
        "boundary": [[list(p.slots), sorted(list(s) for s in p.simplices)] for p in bnd.pieces],
        "fd": list(fd.facet),
        "cells": cells_to_json(structure),
        "verdict": verdict.as_dict(),
    }))
    facts = {
        "order": g.order,
        "subgroups": len(subs),
        "classes": classes,
        "marks": marks,
        "vector": vector,
        "round_trip": round_trip,
        "chain": chain,
        "chains": chains,
        "pieces": len(bnd.pieces),
        "cells": cells,
        "facets": x.facets,
        "map": f.vertices,
    }
    return report, facts


def check_lattice(job: dict, facts: dict) -> Dict[str, int]:
    if job["subgroups"] is not None:
        _require(
            facts["subgroups"] == job["subgroups"],
            f"{job['name']} has {facts['subgroups']} subgroups, expected {job['subgroups']}",
        )
    classes = facts["classes"]
    _require(
        sum(len(c) for c in classes) == facts["subgroups"],
        "conjugacy classes do not partition the lattice",
    )
    marks = facts["marks"]
    m = marks.matrix
    for i, row in enumerate(m):
        _require(all(v == 0 for v in row[i + 1:]), f"marks row {i} is not lower-triangular")
        _require(row[i] > 0, f"marks diagonal {i} is not positive")
        _require(
            row[0] * len(marks.reps[i]) == facts["order"],
            f"marks column 0 of row {i} is not |G:H|",
        )
    _require(
        [Fraction(v) for v in facts["round_trip"]] == facts["vector"],
        "marks_of(solve_marks(v)) != v",
    )
    _require(facts["chain"] in set(facts["chains"]), "drawn chain missing from enumerate_chains")
    n = len(job["chain"]) - 1
    _require(facts["pieces"] == 2 ** (n + 1) - 2, f"boundary has {facts['pieces']} pieces")
    cells = facts["cells"]
    simplices = face_closure(facts["facets"])
    _require(cells.ok, f"validate_cells failed: {cells.first_failure}")
    _require(
        cells.simplex_tally == len(simplices),
        f"cell tally {cells.simplex_tally} != {len(simplices)} simplices",
    )
    return {
        "group.subgroups": facts["subgroups"],
        "group.classes": len(classes),
        "gcomplex.simplices": cells.simplex_count,
        "linking.cells": cells.cell_count,
        "fixpoint.fixed_simplices": fixed_simplex_count(simplices, facts["map"]),
    }


# -- cube-trials -----------------------------------------------------------------------


def run_cube(job: dict, t) -> Tuple[str, dict]:
    """One `cube check` trial: generate, corner hypothesis, factorization, limit map."""
    m = t.call("cubelim.generate", random_cube_map, job["dim"], job["seed"])
    hyp = t.call("cubelim.hypothesis", check_hypothesis, m)
    fact = t.call("cubelim.factorize", factorize_limit, m)
    direct, _ = t.call("cubelim.limit_map", limit_map, m)
    report = t.call("jsonio.emit", lambda: _report("cube-trials", {
        "dim": m.n,
        "seed": job["seed"],
        "hypothesis_ok": hyp.ok,
        "corner_failures": [list(map(list, pair)) for pair in hyp.failures],
        "surjective": direct.is_surjective,
        "chain_lengths": [len(stage) for stage in fact.stages],
        "chain_surjective": fact.all_links_surjective,
    }))
    return report, {"hyp": hyp, "fact": fact, "direct": direct}


def check_cube(job: dict, facts: dict) -> Dict[str, int]:
    hyp, fact, direct = facts["hyp"], facts["fact"], facts["direct"]
    _require(hyp.ok, "corner hypothesis fails")
    _require(all(_onto(f) for f in fact.links), "a factorization link is not surjective")
    _require(fact.composed.mapping == direct.mapping, "composed chain differs from the direct limit map")
    _require(_onto(direct), "limit map is not surjective")
    return {"cubelim.corners": hyp.checked}


def _onto(f) -> bool:
    return set(f.mapping) == set(range(f.codomain_size))


WORKLOADS = {
    "sd-complexes": (run_sd, check_sd),
    "group-lattices": (run_lattice, check_lattice),
    "cube-trials": (run_cube, check_cube),
}
