"""Fixed-point invariants of simplicial self-maps.

Lefschetz numbers come from the alternating chain-level trace: a simplex
contributes the sign of the vertex permutation its image induces, so no
homology computation is needed.  Reidemeister traces are computed for
finitely generated abelian fundamental groups presented by spanning-tree
edge labels; twisted conjugacy then reduces to an integer cokernel.  One
breadth-first walk builds the tree and lifts the map along it.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import (
    InconsistentLabels,
    InvariantViolated,
    NonAbelianPi,
    NonIntegral,
    NotIsovariant,
    NotSelfMap,
    NotSimplicial,
    TooManyTwistedClasses,
)
from .gcomplex import (
    GComplex,
    HypothesisReport,
    check_hypotheses,
    present_classes,
)
from .gmap import GMap, _components, is_isovariant, is_simplicial
from .group import FiniteGroup, Subgroup, class_names, table_of_marks
from .records import Record
from .snf import smith_normal_form

Vector = Tuple[int, ...]

# twisted classes are listed one by one only up to this many
MAX_TWISTED_CLASSES = 10_000


def _require_self_map(f: GMap) -> None:
    if not is_simplicial(f):
        raise NotSimplicial("facet image is not a simplex of the target")
    if not f.is_self_map():
        raise NotSelfMap("source and target complexes differ")


def _require_isovariant_self_map(f: GMap, message: str) -> None:
    _require_self_map(f)
    if not is_isovariant(f):
        raise NotIsovariant(message)


def _class_traces(f: GMap, reps: Iterable[Subgroup]) -> List[int]:
    """Per subgroup h in reps, the trace of f on the fixed subcomplex of h,
    with the signed fixed simplices summed once per distinct stabilizer."""
    stabilizers = f.source.isotropy().stabilizers
    by_stab: Dict[Subgroup, int] = {}
    for s, sign in f.fixed_simplices():
        k = stabilizers[s]
        by_stab[k] = by_stab.get(k, 0) + (-1) ** (len(s) - 1) * sign
    return [sum(t for k, t in by_stab.items() if h <= k) for h in reps]


def lefschetz(f: GMap) -> int:
    """Alternating sum of chain traces of a simplicial self-map."""
    _require_self_map(f)
    return sum((-1) ** (len(s) - 1) * sign for s, sign in f.fixed_simplices())


def is_fixed_point_free(f: GMap) -> bool:
    """No setwise-invariant simplex.

    Subdividing cannot change this: a setwise-fixed flag would be an
    order-preserving bijection of a finite chain of faces, which fixes
    every face in the flag.
    """
    _require_self_map(f)
    return not f.fixed_simplices()


def lefschetz_fixed_sets(f: GMap) -> Dict[str, int]:
    """Lefschetz number of f on each fixed subcomplex of a present class."""
    _require_isovariant_self_map(f, "per-class Lefschetz numbers need an isovariant map")
    names = class_names(f.source.group)
    reps = present_classes(f.source)
    return {names[rep]: t for rep, t in zip(reps, _class_traces(f, reps))}


# -- Burnside classes ---------------------------------------------------------------


class _BurnsideElementFields(NamedTuple):
    basis: str
    names: Tuple[str, ...]
    coefficients: Tuple[int, ...]


class BurnsideElement(Record, _BurnsideElementFields):
    """Integer vector over subgroup classes, in marks or orbit basis."""

    def __new__(cls, basis: str, names: Tuple[str, ...], coefficients: Tuple[int, ...]):
        if basis not in ("marks", "orbits"):
            raise ValueError("basis must be 'marks' or 'orbits'")
        return super().__new__(cls, basis, names, coefficients)


def marks_vector(f: GMap) -> BurnsideElement:
    """Per-class Lefschetz numbers over all subgroup classes of the group."""
    _require_isovariant_self_map(f, "marks vector needs an isovariant map")
    marks = table_of_marks(f.source.group)
    return BurnsideElement(
        basis="marks",
        names=marks.names,
        coefficients=tuple(_class_traces(f, map(frozenset, marks.reps))),
    )


def burnside_lefschetz(f: GMap) -> BurnsideElement:
    """Orbit-basis coefficients of the marks vector; exact, or NonIntegral."""
    return _orbits(marks_vector(f), f.source.group)


def _orbits(mv: BurnsideElement, group: FiniteGroup) -> BurnsideElement:
    """The orbit-basis element with marks mv; exact, or NonIntegral."""
    coeffs = table_of_marks(group).integral_solution(mv.coefficients)
    return BurnsideElement(basis="orbits", names=mv.names, coefficients=coeffs)


# -- twisted conjugacy ----------------------------------------------------------------


class _TwistedConjugacySetupFields(NamedTuple):
    invariant_factors: Tuple[int, ...]
    phi: Tuple[Tuple[int, ...], ...]


class TwistedConjugacySetup(Record, _TwistedConjugacySetupFields):
    """Abelian pi given by invariant factors (0 marks a free factor) and
    the endomorphism matrix phi acting on those coordinates."""

    def __new__(cls, invariant_factors: Tuple[int, ...], phi: Tuple[Tuple[int, ...], ...]):
        r = len(invariant_factors)
        if len(phi) != r or any(len(row) != r for row in phi):
            raise ValueError("phi must be square of the same rank as pi")
        # phi must respect the relations d_i * e_i = 0
        for j, d in enumerate(invariant_factors):
            if d == 0:
                continue
            for i, di in enumerate(invariant_factors):
                img = d * phi[i][j]
                if di == 0:
                    if img != 0:
                        raise ValueError("phi does not preserve torsion relations")
                elif img % di != 0:
                    raise ValueError("phi does not preserve torsion relations")
        return super().__new__(cls, invariant_factors, phi)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def reduce(self, v: Sequence[int]) -> Vector:
        return tuple(
            int(x) % d if d else int(x)
            for x, d in zip(v, self.invariant_factors)
        )

    def apply_phi(self, v: Sequence[int]) -> Vector:
        return self.reduce(
            tuple(
                sum(self.phi[i][j] * v[j] for j in range(self.rank))
                for i in range(self.rank)
            )
        )


class TwistedClasses(NamedTuple):
    """Cokernel of (id - phi) on pi, with projection and representatives."""

    setup: TwistedConjugacySetup
    torsion: Tuple[int, ...]
    free_rank: int
    u: Tuple[Tuple[int, ...], ...]
    u_inv: Tuple[Tuple[int, ...], ...]
    diag: Tuple[int, ...]

    @property
    def count(self) -> Optional[int]:
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def project(self, v: Sequence[int]) -> Vector:
        """Canonical label of the twisted class of an element of pi."""
        r = self.setup.rank
        w = [sum(self.u[i][j] * v[j] for j in range(r)) for i in range(r)]
        return tuple(
            wi % d if d else wi for wi, d in zip(w, self.diag)
        )

    def representative(self, label: Sequence[int]) -> Vector:
        r = self.setup.rank
        v = [sum(self.u_inv[i][j] * label[j] for j in range(r)) for i in range(r)]
        return self.setup.reduce(v)

    def labels(self) -> List[Vector]:
        """Every class label in lexicographic order, if there are finitely
        many and at most MAX_TWISTED_CLASSES of them."""
        if self.free_rank:
            raise ValueError("infinitely many twisted classes")
        if self.count > MAX_TWISTED_CLASSES:
            raise TooManyTwistedClasses(
                f"{self.count} twisted classes exceed the cap of {MAX_TWISTED_CLASSES}"
            )
        return list(product(*(range(d) for d in self.diag)))

    def representatives(self) -> List[Vector]:
        return [self.representative(l) for l in self.labels()]


def twisted_classes(setup: TwistedConjugacySetup) -> TwistedClasses:
    """Classes of g ~ g + h - phi(h), via Smith normal form."""
    r = setup.rank
    if r == 0:
        return TwistedClasses(
            setup=setup, torsion=(), free_rank=0, u=(), u_inv=(), diag=()
        )
    cols: List[List[int]] = []
    for j in range(r):
        cols.append([int(i == j) - setup.phi[i][j] for i in range(r)])
    for j, d in enumerate(setup.invariant_factors):
        if d:
            cols.append([d if i == j else 0 for i in range(r)])
    a = [[cols[j][i] for j in range(len(cols))] for i in range(r)]
    s, u, _, u_inv = smith_normal_form(a)
    diag = [s[i][i] if i < len(s[0]) else 0 for i in range(r)]
    torsion = tuple(d for d in diag if d > 1)
    free_rank = sum(1 for d in diag if d == 0)
    return TwistedClasses(
        setup=setup,
        torsion=torsion,
        free_rank=free_rank,
        u=tuple(tuple(row) for row in u),
        u_inv=tuple(tuple(row) for row in u_inv),
        diag=tuple(diag),
    )


# -- Reidemeister trace ----------------------------------------------------------------


class PiData(NamedTuple):
    """Fundamental-group data: spanning tree of the 1-skeleton plus edge
    labels in pi.  Labels are antisymmetric, omega(u,v) = -omega(v,u), and
    tree edges carry zero."""

    setup: TwistedConjugacySetup
    tree: FrozenSet[Tuple[int, int]]
    labels: Dict[Tuple[int, int], Vector]
    base: int = 0

    def omega(self, u: int, v: int) -> Vector:
        if u == v:
            return tuple([0] * self.setup.rank)
        if (u, v) in self.labels:
            return self.labels[(u, v)]
        if (v, u) in self.labels:
            return tuple(-x for x in self.labels[(v, u)])
        raise InconsistentLabels(f"no label for edge ({u},{v})")


def _edges_of(x: GComplex) -> List[Tuple[int, int]]:
    return [tuple(s) for s in x.simplices() if len(s) == 2]


def _tree_walk(edges: Iterable[Tuple[int, int]], root: int) -> List[Tuple[int, int]]:
    """Steps (u, v) of a breadth-first walk from root over an edge list,
    neighbours in ascending order; v is reached first through u."""
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {root}
    order = [root]
    steps: List[Tuple[int, int]] = []
    for u in order:
        for v in sorted(adj.get(u, ())):
            if v not in seen:
                seen.add(v)
                order.append(v)
                steps.append((u, v))
    return steps


def _check_pidata(x: GComplex, pd: PiData) -> None:
    edges = set(_edges_of(x))
    tree = {tuple(sorted(e)) for e in pd.tree}
    if not tree <= edges:
        raise InconsistentLabels("tree contains a pair that is not an edge")
    # spanning and acyclic over the vertices of the 1-skeleton: a forest
    # has exactly |V| - #components edges, and it spans when connected
    verts = {v for e in edges for v in e}
    if x.n_vertices and not verts:
        verts = set(range(x.n_vertices))
    components = _components(verts, tree)
    if len(tree) != len(verts) - len(components):
        raise InconsistentLabels("tree has a cycle")
    if len(components) > 1:
        raise InconsistentLabels("tree does not span the 1-skeleton")
    for e in edges:
        pd.omega(*e)  # raises when an edge carries no label
    for u, v in tree:
        if any(pd.setup.reduce(pd.omega(u, v))):
            raise InconsistentLabels(f"tree edge ({u},{v}) must carry label zero")
    # labels must be a cocycle: around every triangle the loop class vanishes
    for s in x.simplices():
        if len(s) != 3:
            continue
        a, b, c = s
        total = tuple(
            pd.omega(a, b)[i] + pd.omega(b, c)[i] - pd.omega(a, c)[i]
            for i in range(pd.setup.rank)
        )
        if any(pd.setup.reduce(total)):
            raise InconsistentLabels(f"labels around triangle {s} do not close up")


def _lift(f: GMap, pd: PiData) -> Dict[int, Vector]:
    """Deck coordinates c(v) of f lifted along the tree, c(base) = 0;
    vertices off the tree get 0."""
    setup = pd.setup
    c = {v: tuple([0] * setup.rank) for v in range(f.source.n_vertices)}
    for u, v in _tree_walk(pd.tree, pd.base):
        step = pd.omega(f.vertices[u], f.vertices[v])
        c[v] = setup.reduce(tuple(a + b for a, b in zip(c[u], step)))
    return c


def _defect(f: GMap, pd: PiData, c: Dict[int, Vector], u: int, v: int) -> Vector:
    """c(u) + omega(fu, fv) - c(v) - phi(omega(u, v)); zero on every edge
    exactly when phi matches the map."""
    image = pd.omega(f.vertices[u], f.vertices[v])
    twisted = pd.setup.apply_phi(pd.omega(u, v))
    return pd.setup.reduce(
        tuple(a + b - d - e for a, b, d, e in zip(c[u], image, c[v], twisted))
    )


def derive_pidata(
    f: GMap, setup: Optional[TwistedConjugacySetup] = None
) -> PiData:
    """Spanning-tree labels for a self-map of a connected graph.

    The fundamental group of a graph is free on the non-tree edges, so it
    is abelian only for rank 0 or 1; anything else raises NonAbelianPi.
    Without an explicit setup, f is lifted along the tree with phi = 0 and
    phi is read off the defect on the loop edge.  Higher-dimensional
    complexes need caller-supplied PiData.
    """
    _require_self_map(f)
    x = f.source
    if x.dim > 1:
        raise NonAbelianPi(
            "cannot derive fundamental-group data above dimension 1; "
            "supply spanning-tree labels"
        )
    edges = _edges_of(x)
    tree = frozenset((min(u, v), max(u, v)) for u, v in _tree_walk(edges, 0))
    if len(tree) != x.n_vertices - 1:
        raise NonAbelianPi(
            "complex is not connected; fundamental-group data is undefined"
        )
    loops = [e for e in edges if e not in tree]
    rank = len(loops)
    if rank > 1:
        raise NonAbelianPi(f"free fundamental group of rank {rank} is not abelian")
    if setup is not None and setup.rank != rank:
        raise ValueError(
            f"supplied pi has rank {setup.rank} but the 1-skeleton has "
            f"{rank} independent loops"
        )
    labels = {e: (0,) * rank if e in tree else (1,) for e in edges}
    if setup is None:
        if rank == 0:
            setup = TwistedConjugacySetup(invariant_factors=(), phi=())
        else:
            probe = PiData(
                setup=TwistedConjugacySetup(invariant_factors=(0,), phi=((0,),)),
                tree=tree,
                labels=labels,
            )
            phi = _defect(f, probe, _lift(f, probe), *loops[0])
            setup = TwistedConjugacySetup(invariant_factors=(0,), phi=(phi,))
    return PiData(setup=setup, tree=tree, labels=labels, base=0)


class ReidemeisterTrace(NamedTuple):
    classes: TwistedClasses
    coefficients: Dict[Vector, int]
    lefschetz: int

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coefficients.values())

    def nonzero(self) -> Dict[Vector, int]:
        return {k: v for k, v in self.coefficients.items() if v}


def reidemeister_trace(f: GMap, pidata: Optional[PiData] = None) -> ReidemeisterTrace:
    """Chain trace over the group ring, projected to twisted classes.

    Each setwise-fixed nondegenerate simplex contributes its sign times
    the class of the deck element a_s = c(v0) - omega(v0, f(v0)), where v0
    is the smallest vertex of the simplex.  The coefficient sum always
    equals the Lefschetz number.
    """
    _require_self_map(f)
    if pidata is None:
        pidata = derive_pidata(f)
    _check_pidata(f.source, pidata)
    setup = pidata.setup
    c = _lift(f, pidata)
    for u, v in _edges_of(f.source):
        if any(_defect(f, pidata, c, u, v)):
            raise InconsistentLabels(
                f"edge ({u},{v}): supplied phi does not match the map"
            )
    tc = twisted_classes(setup)
    coeffs: Dict[Vector, int] = {}
    total = 0
    for s, sign in f.fixed_simplices():
        v0 = s[0]
        a = tuple(
            ci - wi for ci, wi in zip(c[v0], pidata.omega(v0, f.vertices[v0]))
        )
        label = tc.project(setup.reduce(a))
        term = (-1) ** (len(s) - 1) * sign
        coeffs[label] = coeffs.get(label, 0) + term
        total += term
    if total != lefschetz(f):
        raise InvariantViolated(f"Reidemeister coefficients sum to {total}, not L(f)")
    if tc.count is not None:
        for label in tc.labels():
            coeffs.setdefault(label, 0)
    return ReidemeisterTrace(classes=tc, coefficients=coeffs, lefschetz=total)


# -- forced fixed points -----------------------------------------------------------------


def forced_fixed_points(x: GComplex) -> FrozenSet[int]:
    """Vertices fixed by every isovariant simplicial self-map.

    A vertex is forced when some stratum closure meets the exact stratum
    of the vertex's own isotropy class in that vertex alone: isovariant
    maps preserve both sets, leaving the vertex nowhere to go.  Sound but
    not complete.  A face's stabilizer contains the simplex's, so the
    closure of a stratum S meets S in S, and another stratum T only if T's
    class has the larger order; t in T is in that meet iff it is a face of
    a simplex of S through t's first vertex.  Two such t settle a meet.
    """
    forced: Set[int] = set()
    strata = list(x.isotropy().strata.items())
    for i, (rep, stratum) in enumerate(strata):
        larger = [other for r, other in strata[i + 1:] if len(r) > len(rep)]
        firsts = {t[0] for other in larger for t in other}
        star: Dict[int, List[FrozenSet[int]]] = {}
        for s in stratum if firsts else ():
            for v in firsts.intersection(s):
                star.setdefault(v, []).append(frozenset(s))
        meets = [list(islice(stratum, 2))]  # the closure of S meets S in S
        for other in larger:
            hits = (t for t in other if any(s.issuperset(t) for s in star.get(t[0], ())))
            meets.append(list(islice(hits, 2)))
        forced.update(m[0][0] for m in meets if len(m) == 1 and len(m[0]) == 1)
    return frozenset(forced)


# -- verdict ------------------------------------------------------------------------------


class VerdictReport(NamedTuple):
    fixed_point_free: bool
    hypotheses: HypothesisReport
    forced: Tuple[int, ...]
    class_names: Tuple[str, ...]
    marks: Tuple[int, ...]
    orbit_coefficients: Optional[Tuple[int, ...]]
    nonintegral_witness: Optional[Tuple[str, ...]]
    verdict: str
    note: Optional[str]

    def as_dict(self) -> Dict:
        return {
            "fixed_point_free": self.fixed_point_free,
            "hypotheses": self.hypotheses.as_dict(),
            "forced": list(self.forced),
            "classes": list(self.class_names),
            "marks": list(self.marks),
            "orbit_coeffs": (
                list(self.orbit_coefficients)
                if self.orbit_coefficients is not None
                else None
            ),
            "nonintegral_witness": (
                list(self.nonintegral_witness)
                if self.nonintegral_witness is not None
                else None
            ),
            "verdict": self.verdict,
            "note": self.note,
        }


def removal_verdict(f: GMap, dims: Optional[Dict[str, int]] = None) -> VerdictReport:
    """Assemble the removability report for an isovariant self-map.

    The conditional invariant behind "removable iff the full trace
    vanishes" is not computed here; the report carries every computable
    necessary ingredient plus the theorem's conditional as a verdict
    string.
    """
    _require_isovariant_self_map(f, "removability verdict needs an isovariant map")
    x = f.source
    free = is_fixed_point_free(f)
    hypo = check_hypotheses(x, dims)
    forced = tuple(sorted(forced_fixed_points(x)))
    mv = marks_vector(f)
    orbit: Optional[Tuple[int, ...]]
    witness: Optional[Tuple[str, ...]] = None
    try:
        orbit = _orbits(mv, x.group).coefficients
    except NonIntegral as exc:
        orbit = None
        witness = tuple(str(v) for v in exc.witness or ())
    marks_zero = all(v == 0 for v in mv.coefficients)
    invariants_vanish = (
        marks_zero
        and not forced
        and orbit is not None
        and all(v == 0 for v in orbit)
    )
    note: Optional[str] = None
    if free:
        verdict = "already fixed-point-free"
    elif hypo.ok:
        verdict = "isovariantly removable iff R_G(f)=0 (hypotheses hold)"
        if invariants_vanish:
            verdict += "; computed necessary invariants vanish"
    else:
        verdict = (
            "hypotheses fail; no conclusion; note forced fixed points: "
            f"{list(forced)}"
        )
        if marks_zero and forced:
            note = (
                "all Lefschetz marks vanish yet these vertices are fixed by "
                "every isovariant self-map: equivariantly removable, "
                "not isovariantly"
            )
    return VerdictReport(
        fixed_point_free=free,
        hypotheses=hypo,
        forced=forced,
        class_names=mv.names,
        marks=mv.coefficients,
        orbit_coefficients=orbit,
        nonintegral_witness=witness,
        verdict=verdict,
        note=note,
    )
