"""Named example complexes and maps, buildable from the CLI by model name.

These are the desk-scale models the test suite and documentation lean on:
a free antipodal circle, a rotation disk, a reflection-action wedge of a
segment and a circle, isotropy showcases for C2xC2 and S3, and a 5-dim
sign-representation disk wedged to a 3-sphere.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict

from .gcomplex import GComplex
from .gmap import GMap, identity_map
from .group import FiniteGroup, subgroup_closure
from .linking import slot_coset_complex


def c2() -> FiniteGroup:
    return FiniteGroup.cyclic(2)


def antipodal_hexagon() -> GComplex:
    """Free C2 action on a 6-gon circle: the generator rotates by three."""
    facets = [(i, (i + 1) % 6) for i in range(6)]
    action = {1: tuple((i + 3) % 6 for i in range(6))}
    return GComplex(6, facets, action, c2())


def hexagon_identity() -> GMap:
    return identity_map(antipodal_hexagon())


def hexagon_rotation() -> GMap:
    x = antipodal_hexagon()
    return GMap(x, x, tuple((i + 1) % 6 for i in range(6)))


def hexagon_reflection() -> GMap:
    x = antipodal_hexagon()
    return GMap(x, x, tuple((6 - i) % 6 for i in range(6)))


def rotation_disk() -> GComplex:
    """Triangulated 2-disk, C2 rotating by pi about the center vertex 0.

    Ring vertices 1..6; six triangles; the only fixed point is the center.
    """
    def ring(i: int) -> int:
        return 1 + (i % 6)

    facets = [(0, ring(i), ring(i + 1)) for i in range(6)]
    action = {1: (0,) + tuple(ring(i + 3) for i in range(6))}
    names = ("z",) + tuple(f"r{i}" for i in range(6))
    return GComplex(7, facets, action, c2(), names=names)


def reflection_wedge() -> GComplex:
    """Segment wedge circle at a common fixed point, C2 reflecting.

    Vertex 0 is the wedge point; 1 and 2 are the swapped segment tips;
    3 and 4 complete a fixed circle through 0.
    """
    facets = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]
    action = {1: (0, 2, 1, 3, 4)}
    names = ("w", "p", "m", "c1", "c2")
    return GComplex(5, facets, action, c2(), names=names)


def wedge_identity() -> GMap:
    return identity_map(reflection_wedge())


def c2xc2_wedge() -> GComplex:
    """C2xC2 with three isotropy types: a fixed wedge vertex, two edge
    orbits with the two order-2 stabilizers, and one free orbit of
    isolated vertices."""
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    facets = [(0, 1), (0, 2), (0, 3), (0, 4), (5,), (6,), (7,), (8,)]
    action = {}
    for h in g.elements:
        perm = [0] * 9
        perm[0] = 0
        perm[1], perm[2] = (1, 2) if g.mul(h, 1) in (0, 1) else (2, 1)
        perm[3], perm[4] = (3, 4) if g.mul(h, 2) in (0, 2) else (4, 3)
        for k in g.elements:
            perm[5 + k] = 5 + g.mul(h, k)
        action[h] = tuple(perm)
    return GComplex(9, facets, action, g)


def s3_dust() -> GComplex:
    """Twelve isolated vertices: one S3-orbit of each subgroup shape, the
    vertices of the slot complex of e, a transposition, a rotation and S3."""
    g = FiniteGroup.symmetric(3)
    transposition = next(e for e in g.elements if e and g.mul(e, e) == 0)
    rotation = next(e for e in g.elements if e and g.mul(e, e) != 0)
    slots, cosets = slot_coset_complex(g, [
        frozenset({0}),
        subgroup_closure(g, [transposition]),
        subgroup_closure(g, [rotation]),
        frozenset(g.elements),
    ])
    n = len(cosets)
    return GComplex(n, [(i,) for i in range(n)], dict(enumerate(slots.action)), g)


def cross5_sphere() -> GComplex:
    """5-dim sign-representation disk wedged to a trivial 3-sphere at 0.

    The disk is the cone on the boundary of the 5-dim cross-polytope,
    C2 acting antipodally on the axis vertices; the sphere is the
    boundary of a 4-simplex through the cone point, fixed pointwise.
    """
    # vertices: 0 center, 1..5 = +e_i, 6..10 = -e_i, 11..14 sphere
    facets = []
    for signs in product((0, 5), repeat=5):
        facets.append((0,) + tuple(1 + i + signs[i] for i in range(5)))
    sphere = (0, 11, 12, 13, 14)
    for skip in range(5):
        facets.append(tuple(v for i, v in enumerate(sphere) if i != skip))
    perm = [0] + [6, 7, 8, 9, 10] + [1, 2, 3, 4, 5] + [11, 12, 13, 14]
    return GComplex(15, facets, {1: tuple(perm)}, c2())


def cross5_identity() -> GMap:
    return identity_map(cross5_sphere())


def trivial_point() -> GComplex:
    return GComplex(1, [(0,)], {}, FiniteGroup(((0,),)))


def c2_point() -> GComplex:
    return GComplex(1, [(0,)], {1: (0,)}, c2())


def swap_segment() -> GComplex:
    """Two edges 0-1-2, C2 swapping the endpoints and fixing the middle."""
    return GComplex(3, [(0, 1), (1, 2)], {1: (2, 1, 0)}, c2())


def antipodal_square() -> GComplex:
    """Free C2 on a 4-gon; quotient edges are doubly covered, so this is
    regular yet not an equivariant triangulation."""
    facets = [(i, (i + 1) % 4) for i in range(4)]
    return GComplex(4, facets, {1: (2, 3, 0, 1)}, c2())


def fixed_point_inclusion() -> GMap:
    """Inclusion of the fixed point into the rotation disk: isovariant."""
    return GMap(c2_point(), rotation_disk(), (0,))


def disk_collapse() -> GMap:
    """Collapse of the rotation disk to its fixed point: equivariant but
    not isovariant, since free vertices gain isotropy."""
    return GMap(rotation_disk(), c2_point(), (0,) * 7)


def ring_inclusion() -> GMap:
    """Injective equivariant map of the free circle onto the disk ring;
    injectivity forces isotropy to be preserved, so it is isovariant."""
    return GMap(antipodal_hexagon(), rotation_disk(), (1, 2, 3, 4, 5, 6))


COMPLEX_MODELS: Dict[str, Callable[[], GComplex]] = {
    "hexagon": antipodal_hexagon,
    "rotation-disk": rotation_disk,
    "wedge": reflection_wedge,
    "c2xc2-wedge": c2xc2_wedge,
    "s3-dust": s3_dust,
    "cross5": cross5_sphere,
    "point": trivial_point,
    "c2-point": c2_point,
    "swap-segment": swap_segment,
    "antipodal-square": antipodal_square,
}

MAP_MODELS: Dict[str, Callable[[], GMap]] = {
    "hexagon-identity": hexagon_identity,
    "hexagon-rotation": hexagon_rotation,
    "hexagon-reflection": hexagon_reflection,
    "wedge-identity": wedge_identity,
    "cross5-identity": cross5_identity,
    "fixed-point-inclusion": fixed_point_inclusion,
    "disk-collapse": disk_collapse,
    "ring-inclusion": ring_inclusion,
}
