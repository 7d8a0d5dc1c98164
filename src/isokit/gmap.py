"""Simplicial maps between group complexes and their isotropy behavior."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, NamedTuple, Sequence, Set, Tuple

from .errors import NotEquivariant, NotIsovariant, NotRegular, NotSimplicial
from .gcomplex import (
    GComplex,
    Simplex,
    _faces,
    barycentric_subdivision,
    class_fixed_union,
    close_simplices,
    exact_stratum,
    induced_subcomplex,
    present_classes,
)
from .group import Subgroup, _int, _skey, class_names, class_rep_of, is_subconjugate
from .records import Record


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class _GMapFields(NamedTuple):
    source: GComplex
    target: GComplex
    vertices: Tuple[int, ...]


class GMap(Record, _GMapFields):
    """A vertex map between complexes over the same group.

    A self-map holds one complex when its source and target are one
    object (as identity_map, subdivide_map and parse_map on a shared
    reference build it): both sides share one face closure and one
    isotropy index, and subdivide_map subdivides it once.  The
    fixed-simplex list and the is_simplicial and is_isovariant answers
    are cached properties, computed on first use and kept with the map;
    a check that raises keeps nothing.
    """

    def __new__(cls, source: GComplex, target: GComplex, vertices: Tuple[int, ...]):
        if len(vertices) != source.n_vertices:
            raise ValueError("vertex map length must match the source complex")
        n = target.n_vertices
        for v in vertices:
            if type(v) is not int or not 0 <= v < n:
                _int(v, "vertex map image")
                raise ValueError("vertex map image out of range")
        if source.group.table != target.group.table:
            raise ValueError("source and target must share one group")
        return super().__new__(cls, source, target, vertices)

    def apply(self, s: Sequence[int]) -> Simplex:
        return tuple(sorted({self.vertices[v] for v in s}))

    def is_self_map(self) -> bool:
        return self.source is self.target or self.source == self.target

    def fixed_simplices(self) -> Tuple[Tuple[Simplex, int], ...]:
        """Setwise-fixed simplices with nondegenerate image, with the signs
        of the vertex permutations they undergo.

        A pointwise-fixed simplex has sign +1 and is recorded without
        computing it; the others pay a sort and a permutation sign.
        """
        return self._fixed

    @cached_property
    def _fixed(self) -> Tuple[Tuple[Simplex, int], ...]:
        out = []
        vertices = self.vertices
        for s in self.source.simplices():
            image = tuple([vertices[v] for v in s])
            if image == s:
                out.append((s, 1))
                continue
            if len(set(image)) != len(s) or tuple(sorted(image)) != s:
                continue
            pos = {v: i for i, v in enumerate(s)}
            out.append((s, _permutation_sign([pos[w] for w in image])))
        return tuple(out)

    @cached_property
    def _simplicial(self) -> bool:
        target_simplices = set(self.target.simplices())
        return all(self.apply(facet) in target_simplices for facet in self.source.facets)

    @cached_property
    def _isovariant(self) -> bool:
        if not is_equivariant(self):
            raise NotEquivariant("map does not commute with the action")
        if not (self.source.is_regular() and self.target.is_regular()):
            raise NotRegular("isovariance test needs regular source and target")
        source, target = self.source.isotropy(), self.target.isotropy()
        return all(
            source.stabilizers[orbit[0]] == target.stabilizers[self.apply(orbit[0])]
            for orbit in source.orbits
        )


def identity_map(x: GComplex) -> GMap:
    return GMap(source=x, target=x, vertices=tuple(range(x.n_vertices)))


def compose(g: GMap, f: GMap) -> GMap:
    if f.target != g.source:
        raise ValueError("composition needs matching middle complex")
    return GMap(
        source=f.source,
        target=g.target,
        vertices=tuple(g.vertices[v] for v in f.vertices),
    )


def is_simplicial(f: GMap) -> bool:
    """Images of facets must be simplices of the target.

    The facets are scanned on the first call for a map; later calls,
    including those inside the other checks, read the kept answer.
    """
    return f._simplicial


def is_equivariant(f: GMap) -> bool:
    if not is_simplicial(f):
        raise NotSimplicial("facet image is not a simplex of the target")
    act_s, act_t = f.source.action, f.target.action
    return all(
        f.vertices[act_s[g][v]] == act_t[g][f.vertices[v]]
        for g in f.source.group.elements
        for v in range(f.source.n_vertices)
    )


def is_isovariant(f: GMap) -> bool:
    """Pointwise stabilizers must be preserved on every simplex.

    On regular complexes this simplexwise test is exactly the pointwise
    isotropy condition, so regularity is required.  Both sides conjugate
    along an orbit under an equivariant map, so orbit representatives
    suffice.  The answer is kept with the map.
    """
    return f._isovariant


def subdivide_map(f: GMap) -> GMap:
    """The induced map on barycentric subdivisions; a self-map's one
    complex is subdivided once."""
    if not is_simplicial(f):
        raise NotSimplicial("facet image is not a simplex of the target")
    sds = barycentric_subdivision(f.source)
    sdt = sds if f.target is f.source else barycentric_subdivision(f.target)
    vertices = tuple(
        sdt.simplex_to_vertex[f.apply(s)] for s in sds.vertex_to_simplex
    )
    return GMap(source=sds.complex, target=sdt.complex, vertices=vertices)


# -- stratum restrictions ---------------------------------------------------------


class StratumMaps(NamedTuple):
    """Restrictions of an isovariant map to invariant stratum pieces.

    fixed holds, per isotropy class name, the restriction to the union of
    fixed subcomplexes of that class; closures holds the restriction to
    the closure of the exact stratum.  Inclusions back into the ambient
    complexes are recorded alongside each piece.
    """

    fixed: Dict[str, Tuple[GMap, Tuple[int, ...], Tuple[int, ...]]]
    closures: Dict[str, Tuple[GMap, Tuple[int, ...], Tuple[int, ...]]]


def _restrict(
    f: GMap, source_simplices, target_simplices
) -> Tuple[GMap, Tuple[int, ...], Tuple[int, ...]]:
    sub_s, inc_s = induced_subcomplex(f.source, source_simplices)
    sub_t, inc_t = induced_subcomplex(f.target, target_simplices)
    back_t = {v: i for i, v in enumerate(inc_t)}
    vertices = tuple(back_t[f.vertices[v]] for v in inc_s)
    return GMap(source=sub_s, target=sub_t, vertices=vertices), inc_s, inc_t


def stratum_maps(f: GMap) -> StratumMaps:
    if not is_isovariant(f):
        raise NotIsovariant("stratum restrictions need an isovariant map")
    names = class_names(f.source.group)
    fixed = {}
    closures = {}
    for rep in present_classes(f.source):
        name = names[rep]
        fixed[name] = _restrict(
            f, class_fixed_union(f.source, rep), class_fixed_union(f.target, rep)
        )
        closures[name] = _restrict(
            f,
            close_simplices(exact_stratum(f.source, rep).simplices),
            close_simplices(exact_stratum(f.target, rep).simplices),
        )
    return StratumMaps(fixed=fixed, closures=closures)


# -- pi0-level link data ------------------------------------------------------------


class LinkGraph(NamedTuple):
    """Adjacency of exact-H0 simplices that touch the H1 part.

    Nodes are simplices with pointwise stabilizer in the class of the
    smaller group H0 having a proper face with stabilizer in the class of
    H1; nodes sharing a vertex are adjacent, and components are read off
    one pass over the nodes' vertices.
    """

    pair: Tuple[str, str]
    nodes: Tuple[Simplex, ...]
    components: Tuple[FrozenSet[Simplex], ...]


def _components(nodes, edges) -> Tuple[FrozenSet[Simplex], ...]:
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    comps: Dict[Simplex, Set[Simplex]] = {}
    for n in nodes:
        comps.setdefault(find(n), set()).add(n)
    return tuple(
        frozenset(comp) for _, comp in sorted((min(c), c) for c in comps.values())
    )


def link_graph(x: GComplex, h0: Subgroup, h1: Subgroup) -> LinkGraph:
    """The pi0 proxy graph for the pair of isotropy classes h0 < h1."""
    if not is_subconjugate(x.group, h0, h1) or len(h0) >= len(h1):
        raise ValueError("link graph needs a properly subconjugate pair")
    names = class_names(x.group)
    s0 = exact_stratum(x, h0).simplices
    s1 = exact_stratum(x, h1).simplices
    nodes = [
        s for s in sorted(s0, key=lambda t: (len(t), t))
        if any(len(t) < len(s) and t in s1 for t in _faces(s))
    ]
    first: Dict[int, Simplex] = {}  # each node joins the first node at its vertices
    edges = ((s, first.setdefault(v, s)) for s in nodes for v in s)
    pair = (names[class_rep_of(x.group, h0)], names[class_rep_of(x.group, h1)])
    return LinkGraph(
        pair=pair, nodes=tuple(nodes), components=_components(nodes, edges)
    )


class Pi0Report(NamedTuple):
    """Necessary pi0-level conditions; only a failure is conclusive."""

    class_results: Dict[str, Tuple[int, int, bool]]
    pair_results: Dict[Tuple[str, str], Tuple[int, int, bool]]
    ok: bool
    disclaimer: str

    def as_dict(self) -> Dict:
        return {
            "classes": {
                k: {"source": a, "target": b, "bijection": ok}
                for k, (a, b, ok) in sorted(self.class_results.items())
            },
            "pairs": {
                f"{a}<{b}": {"source": m, "target": n, "bijection": ok}
                for (a, b), (m, n, ok) in sorted(self.pair_results.items())
            },
            "ok": self.ok,
            "disclaimer": self.disclaimer,
        }


def _stratum_components(simplices: FrozenSet[Simplex]) -> Tuple[FrozenSet[Simplex], ...]:
    """Containment components: each simplex joins its proper faces in the set."""
    edges = (
        (s, t) for s in simplices for t in _faces(s)
        if len(t) < len(s) and t in simplices
    )
    return _components(simplices, edges)


def _component_bijection(
    f_image, source_comps, target_comps
) -> Tuple[int, int, bool]:
    comp_of = {t: ti for ti, tc in enumerate(target_comps) for t in tc}
    hit: Set[int] = set()
    for comp in source_comps:
        landing = {comp_of[t] for t in map(f_image, comp) if t in comp_of}
        if len(landing) != 1:
            return len(source_comps), len(target_comps), False
        hit |= landing
    ok = len(source_comps) == len(target_comps) == len(hit)
    return len(source_comps), len(target_comps), ok


def pi0_link_check(f: GMap) -> Pi0Report:
    """Compare component counts of strata and link graphs under f.

    A failed item certifies that f is not an isovariant weak equivalence.
    A pass only means the zero and one dimensional necessary conditions
    hold; higher link data is out of reach here.
    """
    if not is_isovariant(f):
        raise NotIsovariant("pi0 comparison needs an isovariant map")
    names = class_names(f.source.group)
    present = set(present_classes(f.source)) | set(present_classes(f.target))
    reps = sorted(present, key=_skey)
    class_results: Dict[str, Tuple[int, int, bool]] = {}
    for rep in reps:
        sc = _stratum_components(exact_stratum(f.source, rep).simplices)
        tc = _stratum_components(exact_stratum(f.target, rep).simplices)
        class_results[names[rep]] = _component_bijection(f.apply, sc, tc)
    pair_results: Dict[Tuple[str, str], Tuple[int, int, bool]] = {}
    for r0 in reps:
        for r1 in reps:
            if len(r0) >= len(r1) or not is_subconjugate(f.source.group, r0, r1):
                continue
            lg_s = link_graph(f.source, r0, r1)
            lg_t = link_graph(f.target, r0, r1)
            pair_results[(names[r0], names[r1])] = _component_bijection(
                f.apply, lg_s.components, lg_t.components
            )
    ok = all(v[2] for v in class_results.values()) and all(
        v[2] for v in pair_results.values()
    )
    return Pi0Report(
        class_results=class_results,
        pair_results=pair_results,
        ok=ok,
        disclaimer=(
            "necessary conditions only: a pass does not certify an "
            "isovariant weak equivalence"
        ),
    )
