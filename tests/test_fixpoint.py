"""Lefschetz numbers, Burnside elements, twisted classes, Reidemeister traces."""

import pytest

import oracles
from isokit import fixpoint, models
from isokit import gmap as gmap_module
from isokit.errors import (
    InconsistentLabels,
    InvariantViolated,
    NonAbelianPi,
    NonIntegral,
    NotIsovariant,
    NotSelfMap,
    NotSimplicial,
    TooManyTwistedClasses,
)
from isokit.fixpoint import (
    BurnsideElement,
    PiData,
    TwistedConjugacySetup,
    burnside_lefschetz,
    derive_pidata,
    forced_fixed_points,
    is_fixed_point_free,
    lefschetz,
    lefschetz_fixed_sets,
    marks_vector,
    reidemeister_trace,
    removal_verdict,
    twisted_classes,
)
from isokit.gmap import GMap, identity_map, is_isovariant, subdivide_map
from isokit.group import FiniteGroup


# -- Lefschetz ------------------------------------------------------------------


def test_hexagon_lefschetz_frozen():
    values = {"hexagon-identity": 0, "hexagon-rotation": 0, "hexagon-reflection": 2}
    for key, expected in values.items():
        f = models.MAP_MODELS[key]()
        assert lefschetz(f) == expected
        facets = [tuple(sorted(s)) for s in f.source.facets]
        assert oracles.homology_lefschetz(facets, list(f.vertices)) == expected


@pytest.mark.parametrize(
    "name", ["wedge", "swap-segment", "hexagon", "rotation-disk", "c2xc2-wedge"]
)
def test_lefschetz_matches_homology_oracle(name):
    """Chain trace equals the alternating homology trace on every map."""
    x = models.COMPLEX_MODELS[name]()
    facets = [tuple(sorted(f)) for f in x.facets]
    act = [list(p) for p in x.action]
    for vm in oracles.enumerate_self_maps(
        x.group.table, x.n_vertices, facets, act, "equivariant"
    ):
        assert lefschetz(GMap(x, x, vm)) == oracles.homology_lefschetz(
            facets, list(vm)
        )


def test_lefschetz_identity_is_euler_characteristic():
    for name, x in ((n, c()) for n, c in models.COMPLEX_MODELS.items()):
        assert lefschetz(identity_map(x)) == x.euler_characteristic(), name


def test_lefschetz_only_for_self_maps():
    with pytest.raises(NotSelfMap):
        lefschetz(models.MAP_MODELS["disk-collapse"]())
    broken = GMap(
        models.COMPLEX_MODELS["hexagon"](),
        models.COMPLEX_MODELS["hexagon"](),
        (0, 2, 1, 3, 5, 4),
    )
    with pytest.raises(Exception):
        lefschetz(broken)


def test_subdivision_invariance_of_lefschetz():
    for key in (
        "hexagon-identity",
        "hexagon-rotation",
        "hexagon-reflection",
        "wedge-identity",
    ):
        f = models.MAP_MODELS[key]()
        assert lefschetz(subdivide_map(f)) == lefschetz(f)
    disk = identity_map(models.COMPLEX_MODELS["rotation-disk"]())
    assert lefschetz(subdivide_map(disk)) == lefschetz(disk) == 1


def test_fixed_point_freeness():
    assert is_fixed_point_free(models.MAP_MODELS["hexagon-rotation"]())
    assert not is_fixed_point_free(models.MAP_MODELS["hexagon-identity"]())
    # setwise-fixed counts as a fixed point carrier
    x = models.COMPLEX_MODELS["hexagon"]()
    flip = GMap(x, x, (1, 0, 5, 4, 3, 2))
    assert not is_fixed_point_free(flip)


def test_lefschetz_fixed_sets():
    f = models.MAP_MODELS["wedge-identity"]()
    assert lefschetz_fixed_sets(f) == {"e": 0, "C2": 0}
    disk = models.COMPLEX_MODELS["rotation-disk"]()
    squash = GMap(disk, disk, (0,) * 7)  # equivariant, breaks isotropy
    with pytest.raises(NotIsovariant):
        lefschetz_fixed_sets(squash)


# -- Burnside -------------------------------------------------------------------


def test_marks_vector_and_inversion():
    refl = models.MAP_MODELS["hexagon-reflection"]()
    be = burnside_lefschetz(refl)
    marks = marks_vector(refl)
    assert marks.basis == "marks" and marks.coefficients == (2, 0)
    assert be.names == ("e", "C2")
    assert be.coefficients == (1, 0)  # L = 1 * [C2/e]
    rot = models.MAP_MODELS["hexagon-rotation"]()
    assert marks_vector(rot).coefficients == (0, 0)
    assert burnside_lefschetz(rot).coefficients == (0, 0)


def test_burnside_element_validation():
    g = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        BurnsideElement(
            basis=(frozenset({0}),), names=("e",), coefficients=(1, 2)
        )


def test_burnside_nonintegral_witness():
    """A marks vector outside the mark lattice names the fractional class."""
    x = models.COMPLEX_MODELS["c2-point"]()
    f = identity_map(x)
    # single fixed point of the full group: marks (1, 1), integral
    assert marks_vector(f).coefficients == (1, 1)
    assert burnside_lefschetz(f).coefficients == (0, 1)
    # the (1, 0) vector from the criterion has no integral orbit expansion
    from isokit.group import table_of_marks

    mt = table_of_marks(FiniteGroup.cyclic(2))
    with pytest.raises(NonIntegral) as exc:
        mt.integral_solution((1, 0))
    assert exc.value.witness is not None


def test_burnside_requires_self_map():
    with pytest.raises(NotSelfMap):
        burnside_lefschetz(models.MAP_MODELS["disk-collapse"]())


# -- twisted conjugacy ----------------------------------------------------------


def test_twisted_setup_validation():
    with pytest.raises(ValueError):
        TwistedConjugacySetup((2,), ((1, 0), (0, 1)))  # shape mismatch
    with pytest.raises(ValueError):
        # phi must preserve the torsion relations: 2 * phi(e_0) must die in Z/4
        TwistedConjugacySetup((2, 4), ((1, 0), (1, 1)))
    setup = TwistedConjugacySetup((2, 4), ((1, 0), (2, 1)))
    assert setup.rank == 2
    assert setup.reduce((5, 9)) == (1, 1)
    assert setup.apply_phi((1, 0)) == (1, 2)


@pytest.mark.parametrize(
    "inv,phi",
    [
        ((0,), [[-1]]),
        ((3,), [[1]]),
        ((4, 6), [[1, 0], [0, 1]]),
        ((2, 0), [[1, 0], [0, -1]]),
        ((0,), [[3]]),
        ((5,), [[2]]),
        ((2, 4), [[1, 2], [0, 3]]),
    ],
)
def test_twisted_class_counts_match_window_oracle(inv, phi):
    setup = TwistedConjugacySetup(tuple(inv), tuple(tuple(r) for r in phi))
    tc = twisted_classes(setup)
    assert tc.count == oracles.twisted_classes_window(tuple(inv), phi)


def test_twisted_classes_structure():
    setup = TwistedConjugacySetup((0,), ((-1,),))
    tc = twisted_classes(setup)
    assert tc.count == 2 and tc.free_rank == 0
    reps = tc.representatives()
    assert len(reps) == 2
    # projection is constant on orbits g ~ g + (1 - phi) h
    for g in range(-6, 7):
        assert tc.project((g,)) == tc.project((g + 2,))
    assert tc.project((0,)) != tc.project((1,))
    # representatives project back to their own class
    classes = sorted({tc.project((g,)) for g in range(-6, 7)})
    assert sorted(tc.project(r) for r in reps) == classes


def test_twisted_classes_unit_factor_is_not_torsion():
    """phi = 0 on Z gives 1 - phi = (1): one class, and the unit invariant
    factor adds no torsion."""
    tc = twisted_classes(TwistedConjugacySetup((0,), ((0,),)))
    assert tc.count == 1 and tc.free_rank == 0 and tc.torsion == ()


def test_twisted_classes_infinite():
    setup = TwistedConjugacySetup((0,), ((1,),))  # coker(1 - 1) = Z
    tc = twisted_classes(setup)
    assert tc.count is None and tc.free_rank == 1
    with pytest.raises(ValueError):
        tc.representatives()


def test_twisted_class_listing_is_capped():
    setup = TwistedConjugacySetup((fixpoint.MAX_TWISTED_CLASSES + 1,), ((1,),))
    tc = twisted_classes(setup)
    assert tc.count == fixpoint.MAX_TWISTED_CLASSES + 1
    with pytest.raises(TooManyTwistedClasses) as info:
        tc.representatives()
    assert str(info.value) == "10001 twisted classes exceed the cap of 10000"
    at_cap = twisted_classes(TwistedConjugacySetup((100, 100), ((1, 0), (0, 1))))
    assert at_cap.count == fixpoint.MAX_TWISTED_CLASSES
    assert len(at_cap.representatives()) == len(at_cap.labels()) == at_cap.count


def test_reidemeister_trace_is_capped():
    """Zero coefficients are listed per class, so a huge cokernel must stop
    before it lists them."""
    f = models.MAP_MODELS["hexagon-rotation"]()
    pd = derive_pidata(f, TwistedConjugacySetup((300000,), ((1,),)))
    with pytest.raises(TooManyTwistedClasses):
        reidemeister_trace(f, pd)


def test_trivial_pi():
    setup = TwistedConjugacySetup((), ())
    tc = twisted_classes(setup)
    assert tc.count == 1


# -- Reidemeister ---------------------------------------------------------------


def test_derive_pidata_phi():
    refl = models.MAP_MODELS["hexagon-reflection"]()
    pd = derive_pidata(refl)
    assert pd.setup.invariant_factors == (0,)
    assert pd.setup.phi == ((-1,),)
    rot = models.MAP_MODELS["hexagon-rotation"]()
    assert derive_pidata(rot).setup.phi == ((1,),)
    ident = models.MAP_MODELS["hexagon-identity"]()
    assert derive_pidata(ident).setup.phi == ((1,),)


def test_derive_pidata_wedge_rank_one():
    # the wedge has a single loop, so its pi_1 is abelian of rank 1
    pd = derive_pidata(models.MAP_MODELS["wedge-identity"]())
    assert pd.setup.invariant_factors == (0,)
    rt = reidemeister_trace(models.MAP_MODELS["wedge-identity"]())
    assert rt.classes.count is None and rt.classes.free_rank == 1
    assert rt.is_zero and rt.lefschetz == 0


def test_reidemeister_sum_check_survives_optimization(monkeypatch):
    # the coefficient-sum identity is a raised check, not an assert that -O strips
    f = models.MAP_MODELS["wedge-identity"]()
    monkeypatch.setattr(fixpoint, "lefschetz", lambda g: lefschetz(g) + 1)
    with pytest.raises(InvariantViolated):
        reidemeister_trace(f)


def test_derive_pidata_rejections():
    from isokit.gcomplex import GComplex
    from isokit.gmap import identity_map as ident

    eight = GComplex(
        5,
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
        {},
        group=FiniteGroup.cyclic(1),
    )
    with pytest.raises(NonAbelianPi):
        derive_pidata(ident(eight))  # two independent loops
    disk = models.COMPLEX_MODELS["rotation-disk"]()
    with pytest.raises(NonAbelianPi):
        derive_pidata(identity_map(disk))  # dimension 2
    dust = models.COMPLEX_MODELS["s3-dust"]()
    with pytest.raises(NonAbelianPi):
        derive_pidata(identity_map(dust))  # disconnected


def test_derive_pidata_names_a_map_that_is_not_simplicial_or_not_a_self_map():
    # edges (i, i+1) go to the non-edge (0, 3) of the hexagon
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    folded = GMap(hexagon, hexagon, (0, 3, 0, 3, 0, 3))
    with pytest.raises(NotSimplicial):
        derive_pidata(folded)
    with pytest.raises(NotSimplicial):
        derive_pidata(folded, TwistedConjugacySetup((0,), ((1,),)))
    with pytest.raises(NotSelfMap):
        derive_pidata(models.MAP_MODELS["ring-inclusion"]())


def test_pidata_validation():
    setup = TwistedConjugacySetup((0,), ((-1,),))
    tree = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)})
    labels = {e: (0,) for e in tree}
    labels[(0, 5)] = (1,)
    refl = models.MAP_MODELS["hexagon-reflection"]()
    pd = PiData(setup, tree, labels)
    assert pd.omega(0, 5) == (1,)
    assert pd.omega(5, 0) == (-1,)  # antisymmetry
    assert pd.omega(3, 3) == (0,)
    with pytest.raises(InconsistentLabels):
        pd.omega(0, 3)  # not an edge of the labels
    # nonzero label on a tree edge
    bad = dict(labels)
    bad[(0, 1)] = (1,)
    with pytest.raises(InconsistentLabels):
        reidemeister_trace(refl, PiData(setup, tree, bad))
    # wrong phi for the map
    wrong = TwistedConjugacySetup((0,), ((1,),))
    with pytest.raises(InconsistentLabels):
        reidemeister_trace(refl, PiData(wrong, tree, labels))


@pytest.mark.parametrize(
    "tree, message",
    [
        ({(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)}, "not an edge"),
        ({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}, "has a cycle"),
        ({(0, 1), (1, 2), (2, 3), (3, 4)}, "does not span"),
        ({(0, 1), (2, 3), (4, 5)}, "does not span"),
    ],
)
def test_pidata_tree_branches(tree, message):
    refl = models.MAP_MODELS["hexagon-reflection"]()
    setup = TwistedConjugacySetup((0,), ((-1,),))
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    labels = {e: (0,) for e in hexagon}
    with pytest.raises(InconsistentLabels, match=message):
        reidemeister_trace(refl, PiData(setup, frozenset(tree), labels))


def test_pidata_cycle_reported_before_spanning():
    # a triangle on the disk both has a cycle and misses vertices
    disk = identity_map(models.COMPLEX_MODELS["rotation-disk"]())
    setup = TwistedConjugacySetup((0,), ((1,),))
    labels = {e: (0,) for e in fixpoint._edges_of(disk.source)}
    tree = frozenset({(0, 1), (1, 2), (0, 2)})
    with pytest.raises(InconsistentLabels, match="has a cycle"):
        reidemeister_trace(disk, PiData(setup, tree, labels))


def test_pidata_labels_must_close_around_triangles():
    # star tree from the disk's center, a unit label on every ring edge:
    # each triangle (0, i, i+1) picks up the class 1
    disk = identity_map(models.COMPLEX_MODELS["rotation-disk"]())
    setup = TwistedConjugacySetup((0,), ((1,),))
    tree = frozenset((0, i) for i in range(1, 7))
    labels = {e: (0,) if e in tree else (1,) for e in fixpoint._edges_of(disk.source)}
    with pytest.raises(InconsistentLabels, match=r"triangle \(0, 1, 2\) do not close up"):
        reidemeister_trace(disk, PiData(setup, tree, labels))
    # the same labels minus one ring label fail earlier, as a missing label
    del labels[(1, 2)]
    with pytest.raises(InconsistentLabels, match=r"no label for edge \(1,2\)"):
        reidemeister_trace(disk, PiData(setup, tree, labels))


def test_reflection_trace_frozen():
    refl = models.MAP_MODELS["hexagon-reflection"]()
    rt = reidemeister_trace(refl)
    assert rt.classes.count == 2 and rt.classes.free_rank == 0
    assert sorted(rt.coefficients.values()) == [1, 1]
    assert rt.lefschetz == 2
    assert sum(rt.coefficients.values()) == rt.lefschetz
    assert rt.nonzero() == {(0,): 1, (1,): 1}


def test_rotation_and_identity_traces():
    rot = models.MAP_MODELS["hexagon-rotation"]()
    rt = reidemeister_trace(rot)
    assert rt.lefschetz == 0 and rt.is_zero
    assert all(v == 0 for v in rt.coefficients.values())
    ident = models.MAP_MODELS["hexagon-identity"]()
    rti = reidemeister_trace(ident)
    assert rti.lefschetz == 0 and rti.is_zero


def test_trace_matches_covering_space_oracle():
    """Deck translations from the explicit cover, projected mod (1 - degree)."""
    hexf = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    cases = {
        "hexagon-identity": [0, 1, 2, 3, 4, 5],
        "hexagon-rotation": [1, 2, 3, 4, 5, 0],
        "hexagon-reflection": [0, 5, 4, 3, 2, 1],
    }
    for key, vm in cases.items():
        f = models.MAP_MODELS[key]()
        assert tuple(f.vertices) == tuple(vm)
        degree, deck = oracles.circle_reidemeister(hexf, vm)
        rt = reidemeister_trace(f)
        lib_nonzero = {k: v for k, v in rt.coefficients.items() if v != 0}
        if degree == 1:
            # free cokernel: deck elements are the classes themselves
            assert {(k,): v for k, v in deck.items()} == lib_nonzero
        else:
            modulus = abs(1 - degree)
            projected = {}
            for a, c in deck.items():
                projected[a % modulus] = projected.get(a % modulus, 0) + c
            projected = {k: v for k, v in projected.items() if v != 0}
            setup = rt.setup if hasattr(rt, "setup") else None
            # compare as multisets of coefficients over equally many classes
            assert sorted(projected.values()) == sorted(lib_nonzero.values())
            assert sum(projected.values()) == rt.lefschetz


def test_trace_tree_independence():
    refl = models.MAP_MODELS["hexagon-reflection"]()
    setup = TwistedConjugacySetup((0,), ((-1,),))
    tree = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)})
    labels = {e: (0,) for e in tree}
    labels[(0, 5)] = (1,)
    alt = reidemeister_trace(refl, PiData(setup, tree, labels))
    auto = reidemeister_trace(refl)
    assert alt.coefficients == auto.coefficients
    assert alt.lefschetz == auto.lefschetz == 2


def test_trace_subdivision_invariance():
    for key in ("hexagon-reflection", "hexagon-rotation", "hexagon-identity"):
        f = models.MAP_MODELS[key]()
        rt = reidemeister_trace(f)
        rts = reidemeister_trace(subdivide_map(f))
        assert sorted(v for v in rt.coefficients.values() if v) == sorted(
            v for v in rts.coefficients.values() if v
        )
        assert rt.lefschetz == rts.lefschetz


# -- forced points and verdicts ---------------------------------------------------


@pytest.mark.parametrize(
    "name", ["wedge", "swap-segment", "hexagon", "rotation-disk", "c2xc2-wedge"]
)
def test_forced_fixed_points_sound_and_complete(name):
    """Forced vertices are exactly those fixed by every isovariant self-map."""
    x = models.COMPLEX_MODELS[name]()
    facets = [tuple(sorted(f)) for f in x.facets]
    act = [list(p) for p in x.action]
    iso = oracles.enumerate_self_maps(
        x.group.table, x.n_vertices, facets, act, "isovariant"
    )
    assert iso, "isovariant enumeration found nothing, enumeration bug"
    always = {
        v for v in range(x.n_vertices) if all(vm[v] == v for vm in iso)
    }
    assert set(forced_fixed_points(x)) == always


def test_forced_fixed_points_frozen():
    assert set(forced_fixed_points(models.COMPLEX_MODELS["wedge"]())) == {0}
    assert set(forced_fixed_points(models.COMPLEX_MODELS["hexagon"]())) == set()
    assert set(forced_fixed_points(models.COMPLEX_MODELS["swap-segment"]())) == {1}


def test_verdict_fixed_point_free():
    v = removal_verdict(models.MAP_MODELS["hexagon-rotation"]()).as_dict()
    assert v["verdict"] == "already fixed-point-free"
    assert v["fixed_point_free"] is True


def test_verdict_hypotheses_hold():
    f = models.MAP_MODELS["hexagon-identity"]()
    v = removal_verdict(f, dims={"e": 3}).as_dict()
    assert v["hypotheses"]["ok"] is True
    assert v["marks"] == [0, 0] and v["orbit_coeffs"] == [0, 0]
    assert v["verdict"] == (
        "isovariantly removable iff R_G(f)=0 (hypotheses hold); "
        "computed necessary invariants vanish"
    )
    assert v["note"] is None


def test_verdict_wedge_identity():
    f = models.MAP_MODELS["wedge-identity"]()
    v = removal_verdict(f, dims={"e": 1, "C2": 1}).as_dict()
    assert v["hypotheses"]["ok"] is False
    assert v["forced"] == [0]
    assert v["marks"] == [0, 0]
    assert v["verdict"] == "hypotheses fail; no conclusion; note forced fixed points: [0]"
    assert v["note"] == (
        "all Lefschetz marks vanish yet these vertices are fixed by every "
        "isovariant self-map: equivariantly removable, not isovariantly"
    )


def test_removal_verdict_checks_the_map_once(count_calls):
    """One equivariance scan per verdict: the later checks read the map's
    kept answers."""
    scans = count_calls("is_equivariant", gmap_module)
    v = removal_verdict(models.MAP_MODELS["wedge-identity"]())
    assert len(scans) == 1
    assert v.marks == marks_vector(models.MAP_MODELS["wedge-identity"]()).coefficients


def test_removal_verdict_reads_marks_and_freeness_through_the_checked_functions(count_calls):
    """removal_verdict calls marks_vector and is_fixed_point_free once
    each; a second verdict on the same map makes no equivariance scan."""
    f = models.MAP_MODELS["hexagon-rotation"]()
    marks = count_calls("marks_vector", fixpoint)
    free = count_calls("is_fixed_point_free", fixpoint)
    first = removal_verdict(f)
    assert (len(marks), len(free)) == (1, 1)
    scans = count_calls("is_equivariant", gmap_module)
    assert removal_verdict(f) == first and scans == []


def test_isovariance_is_decided_once_per_map(count_calls):
    """The map keeps its isovariance answer, as it keeps is_simplicial's."""
    f = subdivide_map(models.MAP_MODELS["hexagon-rotation"]())
    scans = count_calls("is_equivariant", gmap_module)
    assert is_isovariant(f)
    lefschetz_fixed_sets(f)
    marks_vector(f)
    removal_verdict(f)
    assert len(scans) == 1


def test_a_failed_isovariance_check_is_not_kept(count_calls):
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    f = GMap(hexagon, hexagon, (0, 3) * 3)
    scans = count_calls("is_equivariant", gmap_module)
    for _ in range(2):
        with pytest.raises(NotSimplicial):
            is_isovariant(f)
    assert len(scans) == 2


def test_removal_verdict_refuses_claimed_dimensions_that_are_not_integers():
    f = models.MAP_MODELS["hexagon-rotation"]()
    for value in (None, 1.5, "5", True):
        with pytest.raises(ValueError, match="class 'e' must be an integer"):
            removal_verdict(f, {"e": value})
    assert removal_verdict(f, {"e": 5}).hypotheses.dims_used == {"e": 5}


def test_removal_verdict_names_the_failed_check():
    hexagon = models.COMPLEX_MODELS["hexagon"]()
    disk = models.COMPLEX_MODELS["rotation-disk"]()
    for f, error, message in (
        (GMap(hexagon, hexagon, (0, 3) * 3), NotSimplicial, "facet image is not a simplex of the target"),
        (models.MAP_MODELS["disk-collapse"](), NotSelfMap, "source and target complexes differ"),
        (GMap(disk, disk, (0,) * 7), NotIsovariant, "removability verdict needs an isovariant map"),
    ):
        with pytest.raises(error) as info:
            removal_verdict(f)
        assert str(info.value) == message


def test_verdict_nonintegral_witness_surfaces():
    # fixed_point_inclusion target complex forced through a non-self map
    with pytest.raises(NotSelfMap):
        removal_verdict(models.MAP_MODELS["disk-collapse"]())
