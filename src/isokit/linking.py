"""Coset-complex models of chain simplices and isovariant cell structures.

For a list of subgroups (H_0, ..., H_n) the slot complex has one vertex
per pair (slot i, coset gH_i) and one facet {(i, gH_i) : i} per group
element.  With a strictly increasing chain this is the linking simplex;
with a weakly decreasing list it is the equivariant simplex whose orbit
space is a single n-simplex.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import combinations, islice, product
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    InvariantViolated,
    NotEquivariantTriangulation,
    NotWeaklyDecreasing,
    ZeroChain,
)
from .gcomplex import (
    GComplex,
    OrbitComplex,
    Simplex,
    _normalize_facets,
    close_simplices,
    orbit_complex,
)
from .group import (
    FiniteGroup,
    Subgroup,
    chain_name,
    conjugate_subgroup,
    is_subgroup,
    left_cosets,
    validate_chain,
)
from .records import Record

SlotVertex = Tuple[int, FrozenSet[int]]
# a domain vertex (l, u) of a phi map: disk corner l, linking vertex u
PhiKey = Tuple[Tuple[int, ...], int]


def _slot_blocks(
    g: FiniteGroup, groups: Sequence[Subgroup]
) -> Tuple[List[SlotVertex], List[Tuple[int, ...]]]:
    """The vertices (slot, coset), slot by slot in ascending blocks, and per
    slot the index of the vertex of each group element's coset xH."""
    verts: List[SlotVertex] = []
    coset_of: List[Tuple[int, ...]] = []
    for i, h in enumerate(groups):
        cosets = left_cosets(g, h)
        coset_of.append(tuple(len(verts) + k for k in cosets.index))
        verts.extend((i, c) for c in cosets.cosets)
    return verts, coset_of


def slot_coset_complex(
    g: FiniteGroup, groups: Sequence[Subgroup]
) -> Tuple[GComplex, Tuple[SlotVertex, ...]]:
    """Complex with vertices (slot, coset) and one facet per group element.

    The groups must be subgroups, so that each slot's cosets partition G;
    left_cosets raises ValueError naming one that is not.
    """
    verts, coset_of = _slot_blocks(g, groups)
    facets, faces = _normalize_facets(zip(*coset_of))
    # a sends the coset xH to (ax)H, and any member of it serves as x
    slot_reps = [(coset_of[i], min(c)) for i, c in verts]
    action = tuple(tuple([slot[row[x]] for slot, x in slot_reps]) for row in g.table)
    names = tuple(
        f"{i}:{{{','.join(str(v) for v in sorted(c))}}}" for i, c in verts
    )
    cx = GComplex._assemble(len(verts), facets, faces, action, g, names)
    return cx, tuple(verts)


class LinkingSimplex(NamedTuple):
    """The coset complex of a strictly increasing subgroup chain."""

    group: FiniteGroup
    chain: Tuple[Subgroup, ...]
    complex: GComplex
    vertices: Tuple[SlotVertex, ...]

    @property
    def n(self) -> int:
        return len(self.chain) - 1

    def vertex_index(self, slot: int, coset: FrozenSet[int]) -> int:
        return self.vertices.index((slot, coset))

    def name(self) -> str:
        return chain_name(self.group, self.chain)


def build_linking(g: FiniteGroup, chain: Sequence[Iterable[int]]) -> LinkingSimplex:
    """Validate a strictly increasing chain, then build its linking simplex."""
    chain = validate_chain(g, chain)
    cx, verts = slot_coset_complex(g, chain)
    return LinkingSimplex(group=g, chain=chain, complex=cx, vertices=verts)


# -- boundary ------------------------------------------------------------------


class _BoundaryPieceFields(NamedTuple):
    slots: Tuple[int, ...]
    subchain: Tuple[Subgroup, ...]
    simplices: FrozenSet[Simplex]
    vertex_embedding: Dict[int, int]  # model vertex -> ambient vertex
    group: FiniteGroup


class BoundaryPiece(Record, _BoundaryPieceFields):
    """Embedded image of the linking simplex of one proper subchain.

    The image is read off the ambient facets: the vertices of the chosen
    slots in each facet span a facet of the piece.  vertex_embedding sends
    the model's vertices, in order, onto the ambient vertices of those
    slots' blocks.  The model, the subchain's own linking simplex, is
    built on first read.
    """

    @cached_property
    def model(self) -> LinkingSimplex:
        return build_linking(self.group, self.subchain)


class BoundaryDecomposition(NamedTuple):
    simplices: FrozenSet[Simplex]
    pieces: Tuple[BoundaryPiece, ...]


def boundary(l: LinkingSimplex) -> BoundaryDecomposition:
    """Boundary subcomplex split into images of proper subchain simplices."""
    if l.n == 0:
        raise ZeroChain("a single-subgroup simplex has empty boundary")
    facets = l.complex.facets
    facet_set = set(facets)
    bnd = frozenset(s for s in l.complex.simplices() if s not in facet_set)
    # slot i numbers its vertices in one block, and the blocks ascend, so a
    # facet lists its slot-i vertex at position i
    blocks: List[List[int]] = [[] for _ in l.chain]
    for v, (i, _) in enumerate(l.vertices):
        blocks[i].append(v)
    pieces: List[BoundaryPiece] = []
    for r in range(1, len(l.chain)):
        for slots in combinations(range(len(l.chain)), r):
            image = close_simplices({tuple(f[i] for i in slots) for f in facets})
            if not image <= bnd:
                raise InvariantViolated(f"subchain {slots} image leaves the boundary")
            pieces.append(
                BoundaryPiece(
                    slots=slots,
                    subchain=tuple(l.chain[i] for i in slots),
                    simplices=image,
                    vertex_embedding=dict(enumerate(v for i in slots for v in blocks[i])),
                    group=l.group,
                )
            )
    union = frozenset().union(*(p.simplices for p in pieces))
    if union != bnd:
        raise InvariantViolated("subchain images do not exhaust the boundary")
    return BoundaryDecomposition(simplices=bnd, pieces=tuple(pieces))


# -- fundamental domain ---------------------------------------------------------


class FundamentalDomain(NamedTuple):
    facet: Simplex
    translates: Dict[int, Simplex]


def fundamental_domain(l: LinkingSimplex) -> FundamentalDomain:
    """The identity-coset facet; its translates cover the whole complex.

    The translate by x holds, per slot, the vertex of the coset of x.
    """
    _, coset_of = _slot_blocks(l.group, l.chain)
    translates: Dict[int, Simplex] = dict(enumerate(zip(*coset_of)))
    if set(translates.values()) != set(l.complex.facets):
        raise InvariantViolated("translates of the identity-coset facet are not the facets")
    return FundamentalDomain(facet=translates[0], translates=translates)


# -- weakly decreasing lists -----------------------------------------------------


def _check_weakly_decreasing(
    g: FiniteGroup, groups: Sequence[Iterable[int]]
) -> Tuple[Subgroup, ...]:
    subs = tuple(frozenset(h) for h in groups)
    if not subs:
        raise NotWeaklyDecreasing("empty subgroup list")
    for h in subs:
        if not is_subgroup(g, h):
            raise NotWeaklyDecreasing(f"not a subgroup: {sorted(h)}")
    for hi, lo in zip(subs, subs[1:]):
        if not (lo <= hi):
            raise NotWeaklyDecreasing(
                f"list not weakly decreasing: {sorted(hi)} then {sorted(lo)}"
            )
    return subs


def collapse_map(
    g: FiniteGroup, groups: Sequence[Iterable[int]]
) -> Tuple[Tuple[Subgroup, ...], Tuple[int, ...]]:
    """Strict chain of the distinct groups plus the ordered surjection onto it."""
    return _collapse(_check_weakly_decreasing(g, groups))


def _collapse(subs: Tuple[Subgroup, ...]) -> Tuple[Tuple[Subgroup, ...], Tuple[int, ...]]:
    """The strict chain and surjection of a weakly decreasing list."""
    chain: List[Subgroup] = []
    p: List[int] = []
    for h in subs:
        if not chain or chain[-1] != h:
            chain.append(h)
        p.append(len(chain) - 1)
    return tuple(chain), tuple(p)


class IllmanSimplex(NamedTuple):
    """Equivariant simplex of a weakly decreasing subgroup list.

    Vertex w_i of the fundamental facet has stabilizer exactly groups[i];
    the orbit space is a single n-simplex even when groups repeat.
    """

    group: FiniteGroup
    groups: Tuple[Subgroup, ...]
    complex: GComplex
    vertices: Tuple[SlotVertex, ...]
    chain: Tuple[Subgroup, ...]
    surjection: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.groups) - 1

    def vertex_index(self, slot: int, coset: FrozenSet[int]) -> int:
        return self.vertices.index((slot, coset))


def illman_complex(g: FiniteGroup, groups: Sequence[Iterable[int]]) -> IllmanSimplex:
    subs = _check_weakly_decreasing(g, groups)
    chain, p = _collapse(subs)
    cx, verts = slot_coset_complex(g, subs)
    return IllmanSimplex(
        group=g, groups=subs, complex=cx, vertices=verts, chain=chain, surjection=p
    )


# -- the characteristic vertex map ------------------------------------------------


class _PhiMapFields(NamedTuple):
    group: FiniteGroup
    groups: Tuple[Subgroup, ...]
    chain: Tuple[Subgroup, ...]
    surjection: Tuple[int, ...]
    disk_dims: Tuple[int, ...]
    linking_facets: Tuple[Simplex, ...]
    linking_vertices: Tuple[SlotVertex, ...]
    keys: Tuple[PhiKey, ...]
    targets: Tuple[Tuple[int, int], ...]
    stabilizers: Tuple[Subgroup, ...]
    identified: Tuple[int, ...]
    coset_vertices: int
    facet_positions: Tuple[Tuple[int, ...], ...]
    chain_label: str


class PhiMap(Record, _PhiMapFields):
    """Vertex assignment from (disk factors) x (chain simplex) onto an
    equivariant simplex.

    A domain vertex is a pair (l, u): l[j] picks a vertex of the j-th disk
    factor (a simplex of dimension disk_dims[j]) and u = (j, C) is a vertex
    of the linking complex of the collapsed chain.  Images are vertices of
    the equivariant simplex of the original weakly decreasing list.

    Everything a cell reads that depends only on the stabilizer chain is
    planned once, when the map is built, and shared by every cell of that
    chain.  The plans are tuples aligned with keys, the domain vertices in
    sorted order:
    - targets: the slot i of the Illman image of (l, u) and the smallest
      member a of its coset; a cell with base simplex b sends (l, u) to
      the ambient vertex a * b[i];
    - stabilizers: chain[j] conjugated by min(C), which the image of (l, u)
      must have as its stabilizer;
    - identified: the position of the first key that names the same
      coset vertex (l[j], j, C) as (l, u), so that phi must agree on the
      two; coset_vertices counts those coset vertices.
    facet_positions lists, per linking facet (of a complex never built),
    the positions of the keys (l, u) with u in the facet, over every disk
    corner l; chain_label is the chain's class names, ascending.  The
    Illman simplex itself is built on first read.
    """

    @cached_property
    def illman(self) -> IllmanSimplex:
        return illman_complex(self.group, self.groups)

    def disk_vertices(self) -> List[Tuple[int, ...]]:
        return [tuple(t) for t in product(*(range(d + 1) for d in self.disk_dims))]

    def apply(self, l: Sequence[int], u: int) -> int:
        j, coset = self.linking_vertices[u]
        return self.illman.vertex_index(self.surjection.index(j) + l[j], coset)


def phi_vertex_map(g: FiniteGroup, groups: Sequence[Iterable[int]]) -> PhiMap:
    """The collapse assignment (l, (slot j, gK_j)) -> (min fiber(j) + l[j], same coset).

    The map is read off the coset tables of the collapsed chain: the
    linking facets are the distinct facets of the elements.  It carries the
    per-chain plans that decompose, validate_cells and cells_to_json read
    for each cell.
    """
    subs = _check_weakly_decreasing(g, groups)
    chain, p = _collapse(subs)
    # chain[j] fills the slots p.index(j), ..., one per vertex of a disk factor
    first = [p.index(j) for j in range(len(chain))]
    disk_dims = tuple(p.count(j) - 1 for j in range(len(chain)))
    link_verts, coset_of = _slot_blocks(g, chain)
    facets = tuple(sorted(set(zip(*coset_of))))
    stabs = [conjugate_subgroup(g, chain[j], min(coset)) for j, coset in link_verts]
    corners = list(product(*(range(d + 1) for d in disk_dims)))
    # the slot groups agree along a fiber, so the coset transfers
    keys, targets, stabilizers, collision_keys = zip(*(
        ((l, u), (first[j] + l[j], min(coset)), stabs[u], (l[j], j, coset))
        for l in corners
        for u, (j, coset) in enumerate(link_verts)
    ))
    seen: Dict[Tuple[int, int, FrozenSet[int]], int] = {}
    identified = tuple(seen.setdefault(ck, k) for k, ck in enumerate(collision_keys))
    n = len(link_verts)
    return PhiMap(
        group=g, groups=subs, chain=chain, surjection=p, disk_dims=disk_dims,
        linking_facets=facets, linking_vertices=tuple(link_verts),
        keys=keys, targets=targets, stabilizers=stabilizers,
        identified=identified, coset_vertices=len(seen),
        facet_positions=tuple(
            tuple(k * n + u for u in facet for k in range(len(corners)))
            for facet in facets
        ),
        chain_label=chain_name(g, chain[::-1]),
    )


# -- decomposition of an equivariant triangulation ---------------------------------


class Cell(NamedTuple):
    """One cell D^m x (chain simplex) of an isovariant cell structure.

    phi[k] is the ambient image of the domain vertex phi_map.keys[k]; the
    restriction of phi to the domain boundary is the attaching data and
    lands in the skeleton below the cell.
    """

    orbit_simplex: Simplex
    base_simplex: Simplex
    phi: Tuple[int, ...]
    phi_map: PhiMap

    @property
    def disk_dim(self) -> int:
        return sum(self.phi_map.disk_dims)

    def label(self) -> str:
        return f"D^{self.disk_dim} x Delta^{{{self.phi_map.chain_label}}}"


class IsovariantCellStructure(NamedTuple):
    """Cells of a complex, in orbit-simplex order, and its skeleta; the
    simplices of complex over each orbit simplex are orbit.fibers."""

    complex: GComplex
    orbit: OrbitComplex
    cells: Tuple[Cell, ...]
    skeleta: Tuple[FrozenSet[Simplex], ...]


def _fibers_over_orbit(x: GComplex, orb: OrbitComplex) -> Dict[Simplex, List[Simplex]]:
    """The simplices of x over each orbit simplex.  A simplex with a vertex
    that orb does not map, which only a complex other than orb's has, lies
    over none."""
    n = len(orb.vertex_orbit)
    buckets: Dict[Simplex, List[Simplex]] = {}
    for t in x.simplices():
        if t[-1] < n:
            buckets.setdefault(orb.image_of(t), []).append(t)
    return buckets


def decompose(x: GComplex) -> IsovariantCellStructure:
    """Split a regular equivariant triangulation into chain-simplex cells.

    Every orbit of closed simplices must look like an equivariant simplex:
    full-dimensional over its orbit-space image, a single group orbit, and
    with linearly ordered vertex stabilizers.  Violations raise
    NotEquivariantTriangulation naming the offending orbit simplex.  A
    regular complex can fail; its second barycentric subdivision never does.

    The fibers are those of orbit_complex, which maps each simplex orbit
    once; every orbit simplex has one.  Cells with one stabilizer chain
    share one PhiMap, which phi_vertex_map builds on the chain's first use,
    once the chain is found nested; its plans give each cell's phi as one
    pass over its targets and its label without per-cell work.
    """
    if not x.is_regular():
        raise NotEquivariantTriangulation(
            "action is not regular, so simplex orbits are not equivariant "
            "simplices; the second barycentric subdivision always decomposes"
        )
    orb = orbit_complex(x)
    g = x.group
    stabilizers = x.isotropy().stabilizers
    cells: List[Cell] = []
    # a cell's vertex order and PhiMap depend only on its vertex stabilizers
    plans: Dict[Tuple[Subgroup, ...], Tuple[List[int], PhiMap]] = {}
    # phi depends only on the stabilizer chain; cells that share it share one map
    phi_maps: Dict[Tuple[Subgroup, ...], PhiMap] = {}
    fibers = orb.fibers
    for s in orb.complex.simplices():
        over = fibers[s]
        # no simplex over s is shorter than s, and the longest come last
        if len(over[-1]) != len(s):
            t = min((t for t in over if len(t) != len(s)), key=lambda t: (len(t), t))
            raise NotEquivariantTriangulation(
                f"simplex {t} collapses onto orbit simplex {s}; "
                "two of its vertices share an orbit",
                orbit_simplex=s,
            )
        base = min(over)
        # over is G-invariant and the action is regular, so Stab(base) is also
        # its setwise stabilizer: the orbit of base is all of over iff
        # |over| = |G| / |Stab(base)|
        if len(over) * len(stabilizers[base]) != g.order:
            raise NotEquivariantTriangulation(
                f"simplices over orbit simplex {s} form more than one orbit",
                orbit_simplex=s,
            )
        stabs = tuple([stabilizers[(v,)] for v in base])
        plan = plans.get(stabs)
        if plan is None:
            # larger stabilizers first, ties in vertex order
            order = sorted(range(len(base)), key=lambda i: -len(stabs[i]))
            chain = tuple([stabs[i] for i in order])
            pm = phi_maps.get(chain)
            if pm is None:
                if not all(lo <= hi for hi, lo in zip(chain, chain[1:])):
                    raise NotEquivariantTriangulation(
                        f"vertex stabilizers over orbit simplex {s} are not nested",
                        orbit_simplex=s,
                    )
                pm = phi_maps[chain] = phi_vertex_map(g, chain)
            plan = plans[stabs] = (order, pm)
        order, pm = plan
        sorted_base = tuple([base[i] for i in order])
        # compose the abstract assignment with the identification that the
        # slot-i vertex with coset a*H_i is the ambient vertex a * base[i]
        phi = tuple([x.action[a][sorted_base[slot]] for slot, a in pm.targets])
        cells.append(Cell(orbit_simplex=s, base_simplex=sorted_base, phi=phi, phi_map=pm))
    # every simplex lies over an orbit simplex of its own length, so the
    # d-skeleton is the simplices of at most d + 1 vertices
    simplices = x.simplices()
    skeleta = tuple(
        frozenset(simplices[: bisect_right(simplices, d + 1, key=len)])
        for d in range(orb.complex.dim + 1)
    )
    return IsovariantCellStructure(complex=x, orbit=orb, cells=tuple(cells), skeleta=skeleta)


# -- validation --------------------------------------------------------------------


class CellCheck(NamedTuple):
    cell_index: int
    check: str
    detail: str


class CellReport(NamedTuple):
    ok: bool
    failures: Tuple[CellCheck, ...]
    cell_count: int
    simplex_tally: int
    simplex_count: int

    @property
    def first_failure(self) -> Optional[CellCheck]:
        return self.failures[0] if self.failures else None


def validate_cells(c: IsovariantCellStructure, x: GComplex) -> CellReport:
    """Check every cell of a decomposition against the ambient complex.

    Each cell is checked against over, the simplices of x above its orbit
    simplex (c.orbit.fibers when x is c.complex), and against the plans
    of its PhiMap, built once per stabilizer chain:
    - length: phi has one image per key of its PhiMap, else the cell is
      checked no further;
    - isotropy: each image vertex is a vertex of x whose stabilizer, read
      from the isotropy index, is the planned stabilizer of its key;
    - surjectivity: the images are the vertices of over, which are those
      of the closed cell;
    - facets: the images of the keys at each linking facet's planned
      positions span the simplices of over;
    - identifications: domain vertices that name one coset vertex share
      an image, and distinct coset vertices have distinct images;
    - attachment: every proper face of over lies in the previous skeleton,
      else the smallest missing one is named.
    Isotropy and identifications compare whole tuples; faces are enumerated
    only where a skeleton lacks a simplex of x small enough to lie in it, or
    a longer simplex lies over a cell.  Finally the facet tally must count
    every simplex of x exactly once.
    """
    failures: List[CellCheck] = []
    stabilizers = x.isotropy().stabilizers
    vertex_stabilizers = {v: stabilizers.get((v,)) for v in range(x.n_vertices)}
    buckets = c.orbit.fibers if x is c.complex else _fibers_over_orbit(x, c.orbit)
    simplices = x.simplices()
    # full[d]: skeleta[d] holds every simplex of x of at most d + 1 vertices
    full = [
        all(map(skeleton.__contains__, islice(simplices, bisect_right(simplices, d + 1, key=len))))
        for d, skeleton in enumerate(c.skeleta)
    ]

    def fail(i: int, check: str, detail: str) -> None:
        failures.append(CellCheck(cell_index=i, check=check, detail=detail))

    tally = 0
    for i, (orbit_simplex, _, phi, pm) in enumerate(c.cells):
        tally += len(pm.linking_facets)
        if len(phi) != len(pm.keys):
            fail(i, "length", f"phi has {len(phi)} images for {len(pm.keys)} domain vertices")
            continue
        dim = len(orbit_simplex) - 1
        over = buckets.get(orbit_simplex, [])
        over_set = set(over)
        if tuple(map(vertex_stabilizers.get, phi)) != pm.stabilizers:
            for k, w in enumerate(phi):
                if not 0 <= w < x.n_vertices:
                    fail(i, "isotropy", f"image vertex {w} of {pm.keys[k]} is not a vertex of the complex")
                    break
                if x.pointwise_stabilizer((w,)) != pm.stabilizers[k]:
                    fail(i, "isotropy", f"image vertex {w} of {pm.keys[k]} has wrong stabilizer")
                    break
        images = set(phi)
        if images != set().union(*over):
            fail(i, "surjectivity", "phi image misses vertices of the closed cell")
        facet_images = {tuple(sorted(set(map(phi.__getitem__, p)))) for p in pm.facet_positions}
        if facet_images != over_set:
            fail(i, "facets", "translate facets do not match the simplex orbit")
        if tuple(map(phi.__getitem__, pm.identified)) != phi:
            k = next(k for k, f in enumerate(pm.identified) if phi[f] != phi[k])
            fail(i, "identifications", f"one coset vertex hits both {phi[pm.identified[k]]} and {phi[k]}")
        elif len(images) != pm.coset_vertices:
            fail(i, "identifications", "distinct coset vertices share an image")
        if dim > 0 and (not full[dim - 1] or over and len(over[-1]) > dim + 1):
            # the proper faces of over: the closure holds over itself too
            missing = min(close_simplices(over) - c.skeleta[dim - 1] - over_set, default=None)
            if missing is not None:
                fail(i, "attachment", f"boundary simplex {missing} missing from skeleton")
    total = len(simplices)
    if tally != total:
        fail(-1, "tally", f"cells account for {tally} simplices, complex has {total}")
    return CellReport(
        ok=not failures,
        failures=tuple(failures),
        cell_count=len(c.cells),
        simplex_tally=tally,
        simplex_count=total,
    )
