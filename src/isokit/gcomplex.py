"""Finite simplicial complexes carrying a simplicial group action.

Simplices are sorted tuples of vertex indices.  A complex is "regular"
when every group element that maps a simplex to itself fixes it
vertexwise; one barycentric subdivision always repairs a failure, and
the constructions that need regularity check it instead of assuming it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import MissingStratum, NotRegular, TooManySimplices
from .group import (
    FiniteGroup,
    Subgroup,
    _int,
    _skey,
    class_names,
    class_rep_of,
    conjugate_subgroup,
    is_normal,
    is_subconjugate,
    is_subgroup,
    subconjugacy_total_order,
)

Simplex = Tuple[int, ...]
SimplexSet = FrozenSet[Simplex]


def _faces(s: Simplex) -> Iterator[Simplex]:
    """Every nonempty face of s, s itself included."""
    return chain.from_iterable(combinations(s, k) for k in range(1, len(s) + 1))


# the most simplices a complex is built with, a barycentric subdivision too
MAX_SIMPLICES = 2_000_000


def _normalize_facets(facets: Iterable[Iterable[int]]) -> Tuple[Tuple[Simplex, ...], Set[Simplex]]:
    """Sorted, deduplicated simplices that are no proper face of another,
    and the face closure that finding them builds.  Taken longest first, a
    simplex is maximal when no longer one put it in the closure.  A facet
    whose 2^k - 1 faces could take the closure past MAX_SIMPLICES raises
    TooManySimplices before they are enumerated."""
    cleaned = {tuple(sorted(set(f))) for f in facets}
    cleaned.discard(())
    closed: Set[Simplex] = set()
    maximal = []
    for f in sorted(cleaned, key=len, reverse=True):
        if f not in closed:
            if len(closed) + 2 ** len(f) - 1 > MAX_SIMPLICES:
                raise TooManySimplices(
                    f"the faces of a {len(f)}-vertex facet take the complex past"
                    f" the cap of {MAX_SIMPLICES} simplices"
                )
            maximal.append(f)
            closed.update(_faces(f))
    return _by_dimension(maximal), closed


def _by_dimension(simplices: Iterable[Simplex]) -> Tuple[Simplex, ...]:
    """Sorted by (dimension, vertices): a plain sort, then a stable one by
    length, compares far less than a sort on (len(s), s) keys."""
    out = sorted(simplices)
    out.sort(key=len)
    return tuple(out)


def complete_action(
    group: FiniteGroup, n_vertices: int, partial: Dict[int, Sequence[int]]
) -> Dict[int, Tuple[int, ...]]:
    """Check the permutations given for some group elements and fill in
    the rest by a Cayley-graph walk from them, as in subgroup_closure;
    the complex's validation checks that the result is a homomorphism.
    """
    known: Dict[int, Tuple[int, ...]] = {}
    for g, perm in partial.items():
        if not 0 <= g < group.order:
            raise ValueError(f"action names element {g}, outside the group")
        what = f"action of element {g}"
        p = tuple(_int(v, what) for v in perm)
        # the length test comes first, so an oversized count builds no range
        if len(p) != n_vertices or sorted(p) != list(range(n_vertices)):
            raise ValueError(f"{what} is not a vertex permutation")
        if g == 0 and p != tuple(range(n_vertices)):
            raise ValueError("conflicting permutations for element 0")
        known[g] = p
    known = {0: tuple(range(n_vertices)), **known}
    gens = tuple(known)
    walk = list(gens) if len(known) < group.order else []
    for a in walk:
        pa = known[a]
        for b in gens:
            ab = group.mul(a, b)
            if ab not in known:
                pb = known[b]
                known[ab] = tuple(pa[pb[v]] for v in range(n_vertices))
                walk.append(ab)
    if len(known) < group.order:
        raise ValueError("action values do not generate the whole group")
    return known


class GComplex:
    """An abstract simplicial complex with a vertex action of a finite group.

    Isotropy is read from an index built on first use (see isotropy()):
    one pointwise stabilizer and one class lookup per simplex orbit, and
    the exact strata.  A complex must not be changed once it has been
    queried, or the index goes stale.

    The constructor checks that the action is a homomorphism to vertex
    permutations preserving the facets.  A vertex count is checked against
    the names and action permutations given with it before anything of
    that length is built; with neither, the facets must name its last
    vertex.  The faces of the facets are enumerated once, when the facets
    are normalized; simplices() sorts that set on first use and drops it.
    """

    def __init__(
        self,
        n_vertices: int,
        facets: Iterable[Iterable[int]],
        action: Dict[int, Sequence[int]],
        group: FiniteGroup,
        names: Optional[Sequence[str]] = None,
    ):
        n = self.n_vertices = _int(n_vertices, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("names length must match vertex count")
        # checked before the facets are sorted, where a str would be a bare TypeError
        facets = [[_int(v, "facet vertex") for v in f] for f in facets]
        self.facets, self._closed = _normalize_facets(facets)
        if not action and names is None:
            # nothing but the facets names a vertex
            named = 1 + max((f[-1] for f in self.facets), default=-1)
            if n > named:
                raise ValueError(f"vertex count exceeds the {named} vertices its facets name")
        self.group = group
        action = complete_action(group, n, dict(action))
        self.action: Tuple[Tuple[int, ...], ...] = tuple(action[g] for g in group.elements)
        self.names: Tuple[str, ...] = (
            names if names is not None else tuple(str(v) for v in range(n))
        )
        self._validate()
        self._simplices: Optional[Tuple[Simplex, ...]] = None

    @classmethod
    def _assemble(
        cls, n_vertices: int, facets: Tuple[Simplex, ...], faces: Iterable[Simplex],
        action: Tuple[Tuple[int, ...], ...], group: FiniteGroup, names: Tuple[str, ...],
    ) -> "GComplex":
        """A complex that a library construction makes correct, unchecked:
        facets as _normalize_facets returns them, every face once in any
        order, and one permutation per group element."""
        x = cls.__new__(cls)
        x.n_vertices, x.facets, x.group, x.action, x.names = (
            n_vertices, facets, group, action, names
        )
        x._closed, x._simplices = faces, None
        return x

    def _validate(self) -> None:
        n = self.n_vertices
        for f in self.facets:
            if any(v < 0 or v >= n for v in f):
                raise ValueError(f"facet {f} has a vertex out of range")
        for a in self.group.elements:
            for b in self.group.elements:
                ab = self.group.mul(a, b)
                pa, pb = self.action[a], self.action[b]
                if any(self.action[ab][v] != pa[pb[v]] for v in range(n)):
                    raise ValueError("action is not a group homomorphism")
        simplex_set = set(self.facets)
        for g in self.group.elements:
            for f in self.facets:
                if self.act_simplex(g, f) not in simplex_set:
                    raise ValueError(
                        f"action of element {g} does not preserve facet {f}"
                    )

    # -- basics ------------------------------------------------------------

    def simplices(self) -> Tuple[Simplex, ...]:
        """All simplices (nonempty faces of facets), sorted by dimension."""
        if self._simplices is None:
            self._simplices = _by_dimension(self._closed)
            self._closed = None
        return self._simplices

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices())

    def act_vertex(self, g: int, v: int) -> int:
        return self.action[g][v]

    def act_simplex(self, g: int, s: Sequence[int]) -> Simplex:
        return tuple(sorted(self.action[g][v] for v in s))

    def isotropy(self) -> "Isotropy":
        """The isotropy index of this complex, built on first use."""
        return self._isotropy

    @cached_property
    def _isotropy(self) -> "Isotropy":
        return _isotropy_index(self)

    def pointwise_stabilizer(self, s: Sequence[int]) -> Subgroup:
        key = tuple(sorted(s))
        stab = self.isotropy().stabilizers.get(key)
        if stab is None:
            for v in key:
                if not 0 <= v < self.n_vertices:
                    raise ValueError(f"vertex {v} is not a vertex of the complex")
            stab = frozenset(
                g for g in self.group.elements
                if all(self.action[g][v] == v for v in key)
            )
        return stab

    def setwise_stabilizer(self, s: Sequence[int]) -> Subgroup:
        key = tuple(sorted(s))
        return frozenset(
            g for g in self.group.elements if self.act_simplex(g, key) == key
        )

    def is_regular(self) -> bool:
        return self.isotropy().regular

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GComplex)
            and self.n_vertices == other.n_vertices
            and self.facets == other.facets
            and self.action == other.action
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.facets, self.action, self.group.table))

    def __repr__(self) -> str:
        return (
            f"GComplex(vertices={self.n_vertices}, facets={len(self.facets)}, "
            f"|G|={self.group.order})"
        )


# -- isotropy index -------------------------------------------------------------


class Isotropy(NamedTuple):
    """Isotropy of every simplex of one complex, built orbit by orbit.

    stabilizers maps each simplex to its pointwise stabilizer; strata maps
    each present class representative, ascending, to its exact stratum, from
    which class fixed unions and fixed-set dimensions are read.  orbits
    holds the members of each simplex orbit, in simplices() order of their
    first member, which comes first and represents the orbit; regular says
    whether setwise and pointwise stabilizers agree.
    """

    stabilizers: Dict[Simplex, Subgroup]
    strata: Dict[Subgroup, SimplexSet]
    orbits: Tuple[Tuple[Simplex, ...], ...]
    regular: bool


def _isotropy_index(x: GComplex) -> Isotropy:
    """One stabilizer and one setwise test per orbit representative s.

    Stab(a.s) = a Stab(s) a^-1 and the setwise stabilizer conjugates the
    same way, so the rest of the orbit needs neither scan; equal
    stabilizers share one frozenset.
    """
    g = x.group
    stabs: Dict[Simplex, Subgroup] = {}
    shared: Dict[Subgroup, Subgroup] = {}
    orbits: List[Tuple[Simplex, ...]] = []
    regular = True
    for s in x.simplices():
        if s in stabs:
            continue
        orbit = [s]
        images = [tuple(perm[v] for v in s) for perm in x.action]
        h = frozenset(a for a in g.elements if images[a] == s)
        h = shared.setdefault(h, h)
        setwise = 0
        for a in g.elements:
            t = tuple(sorted(images[a]))
            if t == s:
                setwise += 1
            elif t not in stabs:
                k = conjugate_subgroup(g, h, a) if len(h) > 1 else h
                stabs[t] = shared.setdefault(k, k)
                orbit.append(t)
        stabs[s] = h
        orbits.append(tuple(orbit))
        if setwise != len(h):
            regular = False
    classes = {k: class_rep_of(g, k) for k in shared}
    # conjugate stabilizers share a class, so each orbit lies in one stratum
    members: Dict[Subgroup, List[Simplex]] = {}
    for orbit in orbits:
        members.setdefault(classes[stabs[orbit[0]]], []).extend(orbit)
    strata = {
        rep: frozenset(members[rep])
        for rep in sorted(members, key=_skey)
    }
    return Isotropy(
        stabilizers=stabs, strata=strata, orbits=tuple(orbits), regular=regular
    )


# -- subdivision --------------------------------------------------------------


class Subdivision(NamedTuple):
    """Barycentric subdivision with the simplex <-> new-vertex dictionary."""

    complex: GComplex
    simplex_to_vertex: Dict[Simplex, int]
    vertex_to_simplex: Tuple[Simplex, ...]


def _fubini(n: int) -> List[int]:
    """F(0..n): F(k) flags of faces end at a (k-1)-simplex (Fubini numbers)."""
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m, k) * f[m - k] for k in range(1, m + 1)))
    return f


def barycentric_subdivision(x: GComplex) -> Subdivision:
    """One barycentric subdivision; new vertices are the old simplices.

    Its simplices are the flags of x, built once.  With the old simplices
    numbered in simplices() order a proper face comes first, so the flags
    ending at simplex i are (i,) and c + (i,) for each flag c ending at a
    proper face of it, all ascending index tuples.  The facets are the
    full-length flags over the facets of x, distinct and maximal, so the
    complex is assembled without normalizing or closing them again; it
    equals GComplex(n, facets, action, group, names).  A subdivision of
    more than MAX_SIMPLICES simplices, one per flag, raises
    TooManySimplices before anything is built.
    """
    old = x.simplices()
    total = sum(map(_fubini(x.dim + 1).__getitem__, map(len, old)))
    if total > MAX_SIMPLICES:
        raise TooManySimplices(
            f"a subdivision of {total} simplices exceeds the cap of {MAX_SIMPLICES}"
        )
    index = {s: i for i, s in enumerate(old)}
    ending: List[List[Simplex]] = []
    for i, s in enumerate(old):
        flags = [(i,)]
        for t in _faces(s):
            if len(t) < len(s):
                flags.extend(c + (i,) for c in ending[index[t]])
        ending.append(flags)
    facets = _by_dimension(
        c for f in x.facets for c in ending[index[f]] if len(c) == len(f)
    )
    action = tuple(
        tuple(index[x.act_simplex(g, s)] for s in old) for g in x.group.elements
    )
    names = tuple("{" + ",".join(x.names[v] for v in s) + "}" for s in old)
    sd = GComplex._assemble(
        len(old), facets, list(chain.from_iterable(ending)), action, x.group, names
    )
    return Subdivision(complex=sd, simplex_to_vertex=index, vertex_to_simplex=old)


def make_regular(x: GComplex) -> GComplex:
    """x itself when regular, else its barycentric subdivision, verified.

    One round suffices: a setwise-fixed flag of faces of strictly
    increasing dimensions must be fixed levelwise.
    """
    if x.is_regular():
        return x
    sd = barycentric_subdivision(x).complex
    if not sd.is_regular():
        raise NotRegular("one subdivision did not make the action regular")
    return sd


# -- strata -------------------------------------------------------------------


class Stratum(NamedTuple):
    """Simplices whose pointwise stabilizer lies in one conjugacy class."""

    class_rep: Tuple[int, ...]
    name: str
    simplices: SimplexSet


def fixed_subcomplex(x: GComplex, h: Iterable[int]) -> SimplexSet:
    """Simplices fixed vertexwise by the subgroup h; a closed set."""
    h = _subgroup(x, h)
    stabs = x.isotropy().stabilizers
    return frozenset(s for s in x.simplices() if h <= stabs[s])


def _subgroup(x: GComplex, h: Iterable[int]) -> Subgroup:
    h = frozenset(h)
    if not is_subgroup(x.group, h):
        raise ValueError(f"{sorted(h)} is not a subgroup of the complex's group")
    return h


def exact_stratum(x: GComplex, h: Iterable[int]) -> Stratum:
    """Simplices with pointwise stabilizer exactly a conjugate of h."""
    rep = class_rep_of(x.group, _subgroup(x, h))
    name = class_names(x.group)[rep]
    members = x.isotropy().strata.get(rep, frozenset())
    return Stratum(class_rep=tuple(sorted(rep)), name=name, simplices=members)


def close_simplices(simplices: Iterable[Simplex]) -> SimplexSet:
    """Face closure of a set of simplices."""
    return frozenset(chain.from_iterable(map(_faces, simplices)))


def present_classes(x: GComplex) -> List[Subgroup]:
    """Conjugacy-class representatives that occur as isotropy in x, ascending."""
    return list(x.isotropy().strata)


def class_fixed_union(x: GComplex, h: Iterable[int]) -> SimplexSet:
    """Union of the fixed subcomplexes of all conjugates of h: the strata
    of the classes that h is subconjugate to."""
    h = _subgroup(x, h)
    strata = x.isotropy().strata
    return frozenset().union(*(strata[k] for k in strata if is_subconjugate(x.group, h, k)))


class Filtration(NamedTuple):
    """Nested closed invariant levels M_1 <= ... <= M_n over isotropy classes."""

    order: Tuple[Tuple[int, ...], ...]
    names: Tuple[str, ...]
    levels: Tuple[SimplexSet, ...]


def filtration(x: GComplex) -> Filtration:
    """Cumulative unions of class fixed sets, largest isotropy first."""
    if not x.is_regular():
        raise NotRegular("filtration needs a regular action")
    reps = present_classes(x)
    order = subconjugacy_total_order(x.group, reps)
    names = class_names(x.group)
    levels: List[SimplexSet] = []
    acc: Set[Simplex] = set()
    for rep in order:
        acc |= class_fixed_union(x, rep)
        levels.append(frozenset(acc))
    return Filtration(
        order=tuple(tuple(sorted(r)) for r in order),
        names=tuple(names[r] for r in order),
        levels=tuple(levels),
    )


# -- hypothesis checks ---------------------------------------------------------


class HypothesisReport(NamedTuple):
    dims_used: Dict[str, int]
    dim_ok: bool
    dim_failures: Tuple[Tuple[str, int], ...]
    gap_ok: bool
    gap_failures: Tuple[Tuple[str, str, int], ...]

    @property
    def ok(self) -> bool:
        return self.dim_ok and self.gap_ok

    def as_dict(self) -> Dict:
        return {
            "dims": dict(sorted(self.dims_used.items())),
            "dim_ok": self.dim_ok,
            "dim_failures": [list(f) for f in self.dim_failures],
            "gap_ok": self.gap_ok,
            "gap_failures": [list(f) for f in self.gap_failures],
            "ok": self.ok,
        }


def check_hypotheses(x: GComplex, dims: Optional[Dict[str, int]] = None) -> HypothesisReport:
    """Check the two removability hypotheses on fixed-set dimensions.

    dims maps class names to claimed manifold dimensions, each an int; any
    other value raises ValueError naming the class.  The fallback is the
    simplicial dimension of the fixed subcomplex, which its G-translates
    share, so that of the class fixed union.  Every fixed-set dimension
    must be at least 3, and each properly nested pair of isotropy classes
    must have a dimension gap of at least 2.
    """
    dims = dict(dims or {})
    reps = present_classes(x)
    names = class_names(x.group)
    present = {names[r]: r for r in reps}
    for key, value in dims.items():
        if key not in present:
            raise MissingStratum(f"no stratum with isotropy class {key!r}")
        if type(value) is not int:
            raise ValueError(f"claimed dimension of class {key!r} must be an integer, got {value!r}")
    used: Dict[str, int] = {}
    for name, rep in present.items():
        if name in dims:
            used[name] = dims[name]
        else:
            used[name] = max(map(len, class_fixed_union(x, rep))) - 1
    dim_failures = tuple(
        (name, d) for name, d in sorted(used.items()) if d < 3
    )
    gap_failures: List[Tuple[str, str, int]] = []
    for small_name, small in sorted(present.items()):
        for big_name, big in sorted(present.items()):
            if len(small) < len(big) and is_subconjugate(x.group, small, big):
                gap = used[small_name] - used[big_name]
                if gap < 2:
                    gap_failures.append((small_name, big_name, gap))
    return HypothesisReport(
        dims_used=used,
        dim_ok=not dim_failures,
        dim_failures=dim_failures,
        gap_ok=not gap_failures,
        gap_failures=tuple(gap_failures),
    )


def is_treelike(x: GComplex) -> bool:
    """Normal isotropy subgroups whose down-sets are linearly ordered."""
    if not x.is_regular():
        raise NotRegular("treelike test needs a regular action")
    # normal subgroups are alone in their classes, so past this test reps are the isotropy groups
    reps = present_classes(x)
    if not all(is_normal(x.group, h) for h in reps):
        return False
    for h in reps:
        below = [k for k in reps if k <= h]
        for a in below:
            for b in below:
                if not (a <= b or b <= a):
                    return False
    return True


# -- quotients and subcomplexes -------------------------------------------------


class OrbitComplex(NamedTuple):
    """Quotient complex on vertex orbits, the per-vertex quotient map, and
    the simplices of the complex over each orbit simplex.

    fibers maps each orbit simplex to the simplices over it: whole
    Isotropy.orbits in orbit order, so each fiber lists its longest
    simplices last.  Its keys are exactly the simplices of complex.
    """

    complex: GComplex
    vertex_orbit: Tuple[int, ...]
    orbit_members: Tuple[Tuple[int, ...], ...]
    fibers: Dict[Simplex, List[Simplex]]

    def image_of(self, s: Sequence[int]) -> Simplex:
        return tuple(sorted({self.vertex_orbit[v] for v in s}))


def orbit_complex(x: GComplex) -> OrbitComplex:
    """The orbit space of a regular complex and the fibers over it.

    Each simplex orbit is mapped once, through its first member.  The
    images of the orbits are every orbit simplex, since each face of an
    image is the image of a face, so the facets are the maximal images.
    """
    if not x.is_regular():
        raise NotRegular(
            "orbit complex of an irregular action is not simplicial; "
            "apply make_regular first"
        )
    orbit_of: Dict[int, int] = {}
    members: List[Tuple[int, ...]] = []
    for v in range(x.n_vertices):
        if v in orbit_of:
            continue
        orbit = sorted({x.action[g][v] for g in x.group.elements})
        idx = len(members)
        members.append(tuple(orbit))
        for w in orbit:
            orbit_of[w] = idx
    vertex_orbit = tuple(orbit_of[v] for v in range(x.n_vertices))
    fibers: Dict[Simplex, List[Simplex]] = {}
    for orbit in x.isotropy().orbits:
        image = tuple(sorted({vertex_orbit[v] for v in orbit[0]}))
        fibers.setdefault(image, []).extend(orbit)
    # the keys are sorted and face-closed: a facet is no codimension-1 face of one
    inner = {k[:i] + k[i + 1:] for k in fibers if len(k) > 1 for i in range(len(k))}
    facets = _by_dimension([k for k in fibers if k not in inner])
    names = tuple(
        "{" + ",".join(x.names[v] for v in orb) + "}" for orb in members
    )
    m = len(members)
    q = GComplex._assemble(m, facets, fibers.keys(), (tuple(range(m)),), FiniteGroup.cyclic(1), names)
    return OrbitComplex(
        complex=q, vertex_orbit=vertex_orbit, orbit_members=tuple(members), fibers=fibers
    )


def induced_subcomplex(
    x: GComplex, simplices: Iterable[Simplex]
) -> Tuple[GComplex, Tuple[int, ...]]:
    """The face closure of a G-invariant simplex set as a complex of its own,
    and the tuple sending its vertices back into x.  The closure is
    invariant when its maximal simplices are; ascending vertex numbers
    keep every simplex sorted."""
    facets, faces = _normalize_facets(simplices)
    maximal = set(facets)
    for f in facets:
        for g in x.group.elements:
            if x.act_simplex(g, f) not in maximal:
                raise ValueError("simplex set is not invariant under the action")
    vertices = sorted({v for f in facets for v in f})
    relabel = dict(zip(vertices, range(len(vertices)))).__getitem__
    facets = tuple(tuple(map(relabel, f)) for f in facets)
    faces = {tuple(map(relabel, s)) for s in faces}
    action = tuple(tuple(relabel(perm[v]) for v in vertices) for perm in x.action)
    names = tuple(x.names[v] for v in vertices)
    sub = GComplex._assemble(len(vertices), facets, faces, action, x.group, names)
    return sub, tuple(vertices)


# -- DOT export -----------------------------------------------------------------


def stratification_dot(x: GComplex) -> str:
    """Hasse diagram of the isotropy classes present, as Graphviz DOT."""
    if not x.is_regular():
        raise NotRegular("stratification export needs a regular action")
    reps = present_classes(x)
    names = class_names(x.group)
    sizes = {names[r]: len(exact_stratum(x, r).simplices) for r in reps}
    lines = ["digraph strata {"]
    ordered = sorted(reps, key=lambda r: (len(r), names[r]))
    for r in ordered:
        n = names[r]
        lines.append(f'  "{n}" [label="{n}\\n{sizes[n]} simplices"];')
    for a in ordered:
        for b in ordered:
            if len(a) >= len(b) or not is_subconjugate(x.group, a, b):
                continue
            covered = any(
                len(a) < len(c) < len(b)
                and is_subconjugate(x.group, a, c)
                and is_subconjugate(x.group, c, b)
                for c in ordered
            )
            if not covered:
                lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
