"""Acceptance suite: one test per shipped guarantee, one printed line each.

Each test prints exactly one line, ``ACCEPTANCE NN: PASS - detail`` or
``ACCEPTANCE NN: FAIL - reason``, on the real stdout so the lines survive
pytest's capture.  Time limits are asserted inside the tests that carry
them.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest

import oracles
from isokit import models
from isokit.cubelim import (
    check_hypothesis,
    factorize_limit,
    limit_map,
    random_cube_map,
)
from isokit.errors import NonIntegral
from isokit.fixpoint import (
    TwistedConjugacySetup,
    derive_pidata,
    forced_fixed_points,
    lefschetz,
    marks_vector,
    reidemeister_trace,
    removal_verdict,
)
from isokit.gcomplex import fixed_subcomplex, orbit_complex, present_classes
from isokit.gmap import identity_map, is_equivariant, is_isovariant, subdivide_map
from isokit.group import FiniteGroup, enumerate_subgroups, table_of_marks
from isokit.linking import (
    boundary,
    build_linking,
    decompose,
    phi_vertex_map,
    validate_cells,
)


@contextmanager
def criterion(num: int, capsys):
    """Print the one-line verdict for a criterion, then re-raise failures.

    The line goes out with capture suspended so it stays visible in the
    plain pytest run.
    """
    info = {"detail": "ok"}
    try:
        yield info
    except BaseException as exc:
        reason = str(exc).strip().splitlines()[0] if str(exc).strip() else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d}: FAIL - " + f"{type(exc).__name__}: {reason}"[:200])
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d}: PASS - {info['detail']}")


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
        (h0, h1) for h0 in subs for h1 in subs if frozenset(h0) < frozenset(h1)
    ]


def test_01_minimal_linking_shape(capsys):
    with criterion(1, capsys) as info:
        t0 = time.monotonic()
        g = FiniteGroup.cyclic(2)
        l = build_linking(g, [[0], [0, 1]])
        assert l.complex.n_vertices == 3
        edges = [s for s in l.complex.simplices() if len(s) == 2]
        assert len(edges) == 2 and len(l.complex.facets) == 2
        oc = orbit_complex(l.complex)
        assert oc.complex.n_vertices == 2 and oc.complex.facets == ((0, 1),)
        fixed = [
            v
            for v in range(3)
            if l.complex.pointwise_stabilizer((v,)) == frozenset(g.elements)
        ]
        assert fixed == [2]
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        info["detail"] = (
            "3 vertices, 2 edges, orbit complex is a single edge, "
            f"fixed vertex stabilizer is the full group ({elapsed:.3f}s)"
        )


def test_02_boundary_splits_into_single_subgroup_pieces(capsys):
    with criterion(2, capsys) as info:
        t0 = time.monotonic()
        checked = 0
        for gname in sorted(GROUPS):
            g = GROUPS[gname]()
            for h0, h1 in _strict_pairs(g):
                l = build_linking(g, [h0, h1])
                b = boundary(l)
                assert len(b.pieces) == 2
                p0, p1 = sorted(b.pieces, key=lambda p: p.slots)
                assert not (p0.simplices & p1.simplices)
                assert p0.simplices | p1.simplices == b.simplices
                for p, h in ((p0, h0), (p1, h1)):
                    model = build_linking(g, [h])
                    image = {
                        tuple(sorted(p.vertex_embedding[v] for v in s))
                        for s in model.complex.simplices()
                    }
                    assert image == set(p.simplices)
                checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        info["detail"] = (
            f"boundary = disjoint union of the two single-subgroup pieces "
            f"for all {checked} chains over C2, C3, S3, C2xC2 ({elapsed:.2f}s)"
        )


def test_03_disk_mixed_cell_counts(capsys):
    with criterion(3, capsys) as info:
        t0 = time.monotonic()
        x = models.COMPLEX_MODELS["rotation-disk"]()
        c = decompose(x)
        report = validate_cells(c, x)
        assert report.ok, report.first_failure
        labels = Counter(cell.label() for cell in c.cells)
        mixed0 = labels.get("D^0 x Delta^{e<C2}", 0)
        mixed1 = labels.get("D^1 x Delta^{e<C2}", 0)
        assert mixed0 == 1, f"expected one D^0 x Delta^{{e<C2}} cell, got {mixed0}"
        assert mixed1 == 1, f"expected one D^1 x Delta^{{e<C2}} cell, got {mixed1}"
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        info["detail"] = (
            "disk decomposition has one mixed vertex cell and one mixed "
            f"edge cell, all cells validate ({elapsed:.3f}s)"
        )


def test_04_vertex_formula_collapses_degenerate_direction(capsys):
    with criterion(4, capsys) as info:
        g = FiniteGroup.cyclic(2)
        phi = phi_vertex_map(g, [[0, 1], [0], [0]])
        assert phi.disk_dims == (0, 1)
        corners = phi.disk_vertices()
        assert corners == [(0, 0), (0, 1)]
        # the fixed direction collapses to one ambient vertex at both ends
        assert phi.apply(corners[0], 0) == phi.apply(corners[1], 0) == 0
        first = {phi.apply(corners[0], 1), phi.apply(corners[0], 2)}
        second = {phi.apply(corners[1], 1), phi.apply(corners[1], 2)}
        assert first == {1, 2} and second == {3, 4}
        info["detail"] = (
            "interval times fixed part collapses to vertex 0; endpoints land "
            "on the two free boundary pairs {1,2} and {3,4}"
        )


def test_05_cube_limit_surjectivity_500_trials(capsys):
    with criterion(5, capsys) as info:
        t0 = time.monotonic()
        for seed in range(500):
            m = random_cube_map(3, seed=seed, max_size=5)
            assert check_hypothesis(m).ok, seed
            direct, _ = limit_map(m)
            assert direct.is_surjective, seed
            fac = factorize_limit(m)
            assert fac.composed.mapping == direct.mapping, seed
            assert fac.all_links_surjective, seed
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        info["detail"] = (
            "500 randomized 3-cubes (<= 5 elements/vertex): limit map "
            f"surjective and the stage chain composes to it ({elapsed:.1f}s)"
        )


def test_06_lefschetz_frozen_triple(capsys):
    with criterion(6, capsys) as info:
        expected = {
            "hexagon-identity": 0,
            "hexagon-rotation": 0,
            "hexagon-reflection": 2,
        }
        for key, value in expected.items():
            f = models.MAP_MODELS[key]()
            got = lefschetz(f)
            assert got == value, (key, got)
            facets = [tuple(sorted(s)) for s in f.source.facets]
            assert oracles.homology_lefschetz(facets, list(f.vertices)) == value
        info["detail"] = (
            "hexagon identity/rotation/reflection give 0/0/2, equal to the "
            "independent homology trace"
        )


def test_07_marks_inversion_and_nonintegral(capsys):
    with criterion(7, capsys) as info:
        g = FiniteGroup.cyclic(2)
        mt = table_of_marks(g)
        assert mt.names == ("e", "C2")
        assert mt.integral_solution((2, 0)) == (1, 0)
        with pytest.raises(NonIntegral):
            mt.integral_solution((1, 0))
        info["detail"] = (
            "marks (2,0) invert to one free orbit; marks (1,0) raise "
            "NonIntegral"
        )


def test_08_twisted_trace_reflection_and_rotation(capsys):
    with criterion(8, capsys) as info:
        refl = models.MAP_MODELS["hexagon-reflection"]()
        setup = TwistedConjugacySetup(invariant_factors=(0,), phi=((-1,),))
        trace = reidemeister_trace(refl, derive_pidata(refl, setup))
        assert trace.classes.count == 2
        assert sorted(trace.coefficients.values()) == [1, 1]
        assert sum(trace.coefficients.values()) == trace.lefschetz == 2
        assert trace.nonzero() == {(0,): 1, (1,): 1}

        rot = models.MAP_MODELS["hexagon-rotation"]()
        rot_trace = reidemeister_trace(rot)
        assert rot_trace.is_zero
        assert sum(rot_trace.coefficients.values()) == rot_trace.lefschetz == 0
        info["detail"] = (
            "reflection trace splits as 1+1 over the 2 twisted classes, "
            "summing to its Lefschetz number 2; rotation trace is zero"
        )


def test_09_wedge_end_to_end(capsys):
    with criterion(9, capsys) as info:
        x = models.COMPLEX_MODELS["wedge"]()
        f = models.MAP_MODELS["wedge-identity"]()
        assert set(forced_fixed_points(x)) == {0}
        assert marks_vector(f).coefficients == (0, 0)
        report = removal_verdict(f).as_dict()
        assert report["hypotheses"]["ok"] is False
        assert report["forced"] == [0]
        assert report["verdict"] == (
            "hypotheses fail; no conclusion; note forced fixed points: [0]"
        )
        assert report["note"] == (
            "all Lefschetz marks vanish yet these vertices are fixed by "
            "every isovariant self-map: equivariantly removable, not "
            "isovariantly"
        )
        info["detail"] = (
            "wedge identity: marks vanish, vertex 0 forced, verdict flags "
            "hypothesis failure: equivariantly removable, not isovariantly"
        )


def test_10_isovariance_three_worked_maps(capsys):
    with criterion(10, capsys) as info:
        inclusion = models.MAP_MODELS["fixed-point-inclusion"]()
        assert is_equivariant(inclusion) and is_isovariant(inclusion)

        collapse = models.MAP_MODELS["disk-collapse"]()
        assert is_equivariant(collapse) and not is_isovariant(collapse)

        ring = models.MAP_MODELS["ring-inclusion"]()
        assert len(set(ring.vertices)) == len(ring.vertices)  # injective
        assert is_equivariant(ring) and is_isovariant(ring)
        info["detail"] = (
            "fixed-point inclusion isovariant, disk collapse equivariant "
            "only, injective equivariant ring map isovariant"
        )


def test_11_property_suites(capsys):
    with criterion(11, capsys) as info:
        t0 = time.monotonic()

        # Lefschetz numbers survive barycentric subdivision
        sub_maps = [
            models.MAP_MODELS[k]()
            for k in ("hexagon-identity", "hexagon-rotation", "hexagon-reflection",
                      "wedge-identity")
        ]
        sub_maps.append(identity_map(models.COMPLEX_MODELS["rotation-disk"]()))
        for f in sub_maps:
            assert lefschetz(subdivide_map(f)) == lefschetz(f)

        # fixed subcomplexes move by conjugation
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

        # forced vertices are fixed by every isovariant self-map
        for name in ("wedge", "swap-segment", "hexagon", "rotation-disk",
                     "c2xc2-wedge"):
            x = models.COMPLEX_MODELS[name]()
            assert x.n_vertices <= 12
            facets = [tuple(sorted(f)) for f in x.facets]
            act = [list(p) for p in x.action]
            iso = oracles.enumerate_self_maps(
                x.group.table, x.n_vertices, facets, act, "isovariant"
            )
            assert iso
            always = {
                v for v in range(x.n_vertices) if all(vm[v] == v for vm in iso)
            }
            assert set(forced_fixed_points(x)) <= always

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        info["detail"] = (
            "subdivision invariance, conjugation equivariance, and forced "
            f"fixed point soundness all hold ({elapsed:.1f}s)"
        )
