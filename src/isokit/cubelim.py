"""Cubical diagrams of finite sets and the surjectivity lemma for limits.

A cube of dimension n assigns a finite set to every subset of {0..n-1}
and a map to every inclusion, generated by the single-index covers.  The
distinguished class here is surjections: if every subcube corner map of
a map of cubes is surjective, so is the induced map on limits, and
factorize_limit exhibits the chain of surjections that proves it.

Limits are computed as compatible tuples.  Elements of a limit are
stored as full coordinate vectors over the sub-poset, determined by
their values on minimal vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import CubeGenerationFailed, InvariantViolated
from .group import _skey

Subset = FrozenSet[int]


def _subsets(indices: Sequence[int]) -> List[Subset]:
    out = [frozenset()]
    for i in indices:
        out += [s | {i} for s in out]
    return sorted(out, key=_skey)


class Cube:
    """Finite-set cube: sizes per subset, one index map per cover S -> S+{j}.

    Covers are fixed after construction: map_between memoizes the chain
    maps it composes, so a cover may be added later but never changed.
    """

    def __init__(
        self,
        n: int,
        sizes: Dict[Subset, int],
        covers: Dict[Tuple[Subset, int], Tuple[int, ...]],
        validate: bool = True,
    ):
        self.n = n
        self.sizes = {frozenset(k): int(v) for k, v in sizes.items()}
        self.covers = {
            (frozenset(s), int(j)): tuple(m) for (s, j), m in covers.items()
        }
        self._chains: Dict[Tuple[Subset, Subset], Tuple[int, ...]] = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        wanted = _subsets(range(self.n))
        if set(self.sizes) != set(wanted):
            raise ValueError(f"cube must assign a set to every subset of 0..{self.n - 1}")
        for s, size in self.sizes.items():
            if size < 0:
                raise ValueError("vertex sizes must be nonnegative")
        for s in wanted:
            for j in range(self.n):
                if j in s:
                    continue
                key = (s, j)
                if key not in self.covers:
                    raise ValueError(f"missing cover map {sorted(s)} + {j}")
                m = self.covers[key]
                if len(m) != self.sizes[s]:
                    raise ValueError(f"cover map {sorted(s)} + {j} has wrong length")
                t = s | {j}
                if any(v < 0 or v >= self.sizes[t] for v in m):
                    raise ValueError(f"cover map {sorted(s)} + {j} is out of range")
        # functoriality: both orders around every square agree
        for s in wanted:
            for i, j in combinations([k for k in range(self.n) if k not in s], 2):
                via_i = [
                    self.covers[(s | {i}, j)][v] for v in self.covers[(s, i)]
                ]
                via_j = [
                    self.covers[(s | {j}, i)][v] for v in self.covers[(s, j)]
                ]
                if via_i != via_j:
                    raise ValueError(
                        f"cube squares do not commute at {sorted(s)} + {{{i},{j}}}"
                    )

    def vertices(self) -> List[Subset]:
        return _subsets(range(self.n))

    def size(self, s: Iterable[int]) -> int:
        return self.sizes[frozenset(s)]

    def map_between(self, s: Iterable[int], t: Iterable[int]) -> Tuple[int, ...]:
        """Composite map X(S) -> X(T) along any chain of covers."""
        s, t = frozenset(s), frozenset(t)
        if not s <= t:
            raise ValueError("map_between needs nested subsets")
        return self._chain(s, t)

    def _chain(self, s: Subset, t: Subset) -> Tuple[int, ...]:
        # covers are taken in increasing index order, so the last one adds max(T - S)
        out = self._chains.get((s, t))
        if out is None:
            if s == t:
                out = tuple(range(self.sizes[s]))
            else:
                j = max(t - s)
                here = t - {j}
                step = self.covers[(here, j)]
                out = tuple(step[v] for v in self._chain(s, here))
            self._chains[(s, t)] = out
        return out


@dataclass(frozen=True)
class SetFunction:
    """Function between index sets, stored as the image list."""

    mapping: Tuple[int, ...]
    codomain_size: int

    @property
    def domain_size(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @property
    def is_surjective(self) -> bool:
        return set(self.mapping) == set(range(self.codomain_size))

    @property
    def is_bijective(self) -> bool:
        return self.is_surjective and len(set(self.mapping)) == len(self.mapping)


def compose(later: SetFunction, earlier: SetFunction) -> SetFunction:
    if earlier.codomain_size != later.domain_size:
        raise ValueError("composition mismatch")
    return SetFunction(
        mapping=tuple(later.mapping[v] for v in earlier.mapping),
        codomain_size=later.codomain_size,
    )


@dataclass(frozen=True)
class LimitSet:
    """Limit of a cube over a sub-poset, as full compatible tuples."""

    vertices: Tuple[Subset, ...]
    elements: Tuple[Tuple[int, ...], ...]
    _index: Dict[Tuple[int, ...], int] = field(compare=False, repr=False, default=None)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, element: Tuple[int, ...]) -> int:
        return self._index[element]

    def coordinate(self, vertex: Iterable[int]) -> int:
        return self.vertices.index(frozenset(vertex))

    def restriction_map(self, smaller: "LimitSet") -> SetFunction:
        """Forget the coordinates absent from the smaller limit."""
        cols = [self.vertices.index(v) for v in smaller.vertices]
        return SetFunction(
            mapping=tuple(
                smaller.index_of(tuple(e[c] for c in cols)) for e in self.elements
            ),
            codomain_size=len(smaller),
        )


class VertexFamily:
    """A vertex family for limits, checked and planned once for use on any cube.

    The members are sorted by size, then lexicographically, and the family
    must contain the union of any two members that have a common upper
    bound in it; up-closed families and intervals do.  Besides the members
    it keeps what the enumeration in limit needs and what depends on the
    family alone: the minimal members, the owner of each member (the index
    of the first minimal below it), and for each minimal the earlier
    minimals whose join with it is a member, with that join.
    """

    def __init__(self, vertices: Iterable[Iterable[int]]):
        verts = sorted({frozenset(v) for v in vertices}, key=_skey)
        vset = set(verts)
        for a, b in combinations(verts, 2):
            u = a | b
            if u not in vset and any(u <= w for w in verts):
                raise ValueError("vertex family is not closed under bounded unions")
        minimals = [v for v in verts if not any(u < v for u in verts)]
        self.vertices: Tuple[Subset, ...] = tuple(verts)
        self.minimals: Tuple[Subset, ...] = tuple(minimals)
        self.owners: Tuple[int, ...] = tuple(
            next(i for i, m in enumerate(minimals) if m <= w) for w in verts
        )
        self.joins: Tuple[Tuple[Tuple[int, Subset], ...], ...] = tuple(
            tuple((i, minimals[i] | m) for i in range(k) if minimals[i] | m in vset)
            for k, m in enumerate(minimals)
        )


def limit(
    cube: Cube, poset: Union[VertexFamily, Iterable[Iterable[int]], None] = None
) -> LimitSet:
    """Compatible tuples over the given vertices (default: the whole cube).

    poset is a VertexFamily or any iterable of index sets, which is made
    into one here; pass a VertexFamily to take limits over the same family
    on many cubes without checking and planning it again.  The family must
    contain the union of any two members that have a common upper bound in
    it (ValueError otherwise); up-closed families and intervals do.
    Elements come out in lexicographic order of their values on the
    minimal vertices.
    """
    if not isinstance(poset, VertexFamily):
        poset = VertexFamily(cube.vertices() if poset is None else poset)
    minimals = poset.minimals
    chain = cube._chain
    # a vertex's coordinate is its owner's value pushed up to it
    columns = [(o, chain(minimals[o], w)) for o, w in zip(poset.owners, poset.vertices)]
    # minimal k must agree with each earlier minimal i on their join
    checks = [
        [(i, chain(minimals[i], join), chain(m, join)) for i, join in pairs]
        for m, pairs in zip(minimals, poset.joins)
    ]
    last = len(minimals)
    elements: List[Tuple[int, ...]] = []
    chosen: List[int] = []

    def extend(k: int) -> None:
        if k == last:
            elements.append(tuple([push[chosen[o]] for o, push in columns]))
            return
        for x in range(cube.sizes[minimals[k]]):
            for i, earlier, here in checks[k]:
                if earlier[chosen[i]] != here[x]:
                    break
            else:
                chosen.append(x)
                extend(k + 1)
                chosen.pop()

    extend(0)
    out = tuple(elements)
    return LimitSet(
        vertices=poset.vertices,
        elements=out,
        _index={e: i for i, e in enumerate(out)},
    )


def _to_limit(cube: Cube, u: Subset, lim: LimitSet) -> SetFunction:
    """X(U) -> lim: each element goes to the index of its images at lim's vertices."""
    images = [cube.map_between(u, w) for w in lim.vertices]
    return SetFunction(
        mapping=tuple(
            lim.index_of(tuple(image[a] for image in images))
            for a in range(cube.sizes[u])
        ),
        codomain_size=len(lim),
    )


@dataclass(frozen=True)
class Corner:
    """A vertex set mapping into the limit of a sub-poset above it."""

    vertex: Subset
    function: SetFunction
    limit: LimitSet


def corner_map(x: Cube, u: Iterable[int]) -> Corner:
    """The restriction X(U) -> lim over the strict supersets of U."""
    u = frozenset(u)
    lim = limit(x, [t for t in x.vertices() if u < t])
    return Corner(vertex=u, function=_to_limit(x, u, lim), limit=lim)


class CubeMap:
    """Natural transformation between cubes of the same dimension."""

    def __init__(
        self,
        source: Cube,
        target: Cube,
        components: Dict[Subset, Tuple[int, ...]],
        validate: bool = True,
    ):
        if source.n != target.n:
            raise ValueError("source and target cubes must have equal dimension")
        self.source = source
        self.target = target
        self.components = {frozenset(k): tuple(v) for k, v in components.items()}
        self._as_cube: Optional[Cube] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        for s in self.source.vertices():
            if s not in self.components:
                raise ValueError(f"missing component at {sorted(s)}")
            comp = self.components[s]
            if len(comp) != self.source.sizes[s]:
                raise ValueError(f"component at {sorted(s)} has wrong length")
            if any(v < 0 or v >= self.target.sizes[s] for v in comp):
                raise ValueError(f"component at {sorted(s)} is out of range")
        for s in self.source.vertices():
            for j in range(self.source.n):
                if j in s:
                    continue
                lhs = [
                    self.components[s | {j}][v]
                    for v in self.source.covers[(s, j)]
                ]
                rhs = [
                    self.target.covers[(s, j)][v] for v in self.components[s]
                ]
                if lhs != rhs:
                    raise ValueError(f"naturality fails at {sorted(s)} + {j}")

    @property
    def n(self) -> int:
        return self.source.n

    def as_cube(self) -> Cube:
        """View as an (n+1)-cube: the new index n points from source to target.

        Built on the first call and shared by later ones, so its chain maps
        are composed once per map.
        """
        if self._as_cube is None:
            self._as_cube = self._build_cube()
        return self._as_cube

    def _build_cube(self) -> Cube:
        n = self.n
        sizes: Dict[Subset, int] = {}
        covers: Dict[Tuple[Subset, int], Tuple[int, ...]] = {}
        for s in self.source.vertices():
            sizes[s] = self.source.sizes[s]
            sizes[s | {n}] = self.target.sizes[s]
            covers[(s, n)] = self.components[s]
            for j in range(n):
                if j in s:
                    continue
                covers[(s, j)] = self.source.covers[(s, j)]
                covers[(s | {n}, j)] = self.target.covers[(s, j)]
        return Cube(n + 1, sizes, covers, validate=False)


def cube_map_corner(m: CubeMap, sub: Tuple[Iterable[int], Iterable[int]]) -> Corner:
    """Corner of the subcube map spanned by U <= T: the map from X(U) to
    the limit over everything strictly above U inside T plus the target
    side of the same span.  For U = T this is just the component at U."""
    u, t = frozenset(sub[0]), frozenset(sub[1])
    n = m.n
    if not (u <= t and t <= frozenset(range(n))):
        raise ValueError("sub must be a nested pair of index subsets")
    z = m.as_cube()
    span = [v | extra for v in _subsets(sorted(t - u)) for extra in (u, u | {n})]
    lim = limit(z, [v for v in span if u < v])
    return Corner(vertex=u, function=_to_limit(z, u, lim), limit=lim)


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    checked: int
    failures: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


def check_hypothesis(m: CubeMap) -> HypothesisCheck:
    """Surjectivity of all 3^n subcube corner maps."""
    failures = []
    checked = 0
    indices = list(range(m.n))
    for t in _subsets(indices):
        for u in _subsets(sorted(t)):
            checked += 1
            if not cube_map_corner(m, (u, t)).function.is_surjective:
                failures.append((tuple(sorted(u)), tuple(sorted(t))))
    return HypothesisCheck(ok=not failures, checked=checked, failures=tuple(failures))


def limit_map(m: CubeMap) -> Tuple[SetFunction, LimitSet]:
    """The induced map lim X -> lim Y.

    The full cube has an initial vertex, so lim X is X at the empty set;
    lim Y is realized as compatible tuples over the target side.
    """
    z = m.as_cube()
    n = m.n
    yposet = [s | {n} for s in m.source.vertices()]
    lim_y = limit(z, yposet)
    return _to_limit(z, frozenset(), lim_y), lim_y


@dataclass(frozen=True)
class Factorization:
    """Chain lim X = L_last -> ... -> L_0 -> lim Y through partial limits.

    Stage i adjoins the i-th source vertex, taken in order of decreasing
    distance from the initial vertex (decreasing subset size, ties by
    lexicographic order); L_i is the limit over the adjoined source
    vertices together with the whole target side.
    """

    added_order: Tuple[Subset, ...]
    stages: Tuple[LimitSet, ...]
    links: Tuple[SetFunction, ...]
    lim_y: LimitSet
    embedding: SetFunction
    composed: SetFunction
    direct: SetFunction

    @property
    def all_links_surjective(self) -> bool:
        return all(f.is_surjective for f in self.links)


def factorize_limit(m: CubeMap) -> Factorization:
    z = m.as_cube()
    n = m.n
    yposet = [s | {n} for s in m.source.vertices()]
    lim_y = limit(z, yposet)
    xorder = sorted(m.source.vertices(), key=lambda s: (-len(s), tuple(sorted(s))))
    stages: List[LimitSet] = []
    for i in range(len(xorder)):
        stages.append(limit(z, yposet + xorder[: i + 1]))
    links: List[SetFunction] = []
    for i in range(len(stages) - 1, 0, -1):
        links.append(stages[i].restriction_map(stages[i - 1]))
    links.append(stages[0].restriction_map(lim_y))
    embedding = _to_limit(z, frozenset(), stages[-1])
    composed = embedding
    for f in links:
        composed = compose(f, composed)
    direct, lim_y_again = limit_map(m)
    # same enumeration order, so the realizations agree on the nose
    if lim_y_again.elements != lim_y.elements:
        raise InvariantViolated("re-enumerated limit of the target differs")
    if composed.mapping != direct.mapping:
        raise InvariantViolated("composed surjection chain differs from the direct limit map")
    return Factorization(
        added_order=tuple(xorder),
        stages=tuple(reversed(stages)),
        links=tuple(links),
        lim_y=lim_y,
        embedding=embedding,
        composed=composed,
        direct=direct,
    )


def complete_punctured(x: Cube) -> Cube:
    """Replace the initial vertex by the limit of the punctured cube.

    Afterwards the corner map at the empty set is a bijection.
    """
    empty: Subset = frozenset()
    punctured = [s for s in x.vertices() if s]
    lim = limit(x, punctured)
    sizes = dict(x.sizes)
    sizes[empty] = len(lim)
    covers = dict(x.covers)
    for j in range(x.n):
        col = lim.vertices.index(frozenset({j}))
        covers[(empty, j)] = tuple(e[col] for e in lim.elements)
    return Cube(x.n, sizes, covers)


# -- randomized instances --------------------------------------------------------


_ATTEMPTS = 10000


def random_cube_map(n: int, seed: int = 0, max_size: int = 5) -> CubeMap:
    """Random map of n-cubes satisfying the corner hypothesis.

    Built as one (n+1)-cube, top vertex first, each lower vertex a
    section of the limit of everything strictly above it, optionally
    padded with one duplicate element.  Sections make every subcube
    corner surjective; the duplicates keep the maps from being bijective
    without breaking that.  Raises CubeGenerationFailed when no attempt
    keeps every limit between 1 and max_size elements.
    """
    if n < 0:
        raise ValueError(f"cube dimension must be nonnegative, got {n}")
    indices = list(range(n + 1))
    order = sorted(_subsets(indices), key=lambda s: (-len(s), tuple(sorted(s))))
    # per lower vertex: its strict up-set, and where each cover target sits in it
    plans = []
    for s in order[1:]:
        above = VertexFamily([t for t in order if s < t])
        cols = [(j, above.vertices.index(s | {j})) for j in indices if j not in s]
        plans.append((s, above, cols))
    rng = Random(seed)
    for _ in range(_ATTEMPTS):
        built = _try_random_cube(n, rng, max_size, plans)
        if built is not None:
            return built
    raise CubeGenerationFailed(
        f"no random {n}-cube map with 1 to {max_size} elements per vertex "
        f"in {_ATTEMPTS} attempts from seed {seed}"
    )


def _try_random_cube(
    n: int,
    rng: Random,
    max_size: int,
    plans: List[Tuple[Subset, VertexFamily, List[Tuple[int, int]]]],
) -> Optional[CubeMap]:
    top = frozenset(range(n + 1))
    stub = Cube(n + 1, {top: rng.randint(1, 2)}, {}, validate=False)
    sizes, covers = stub.sizes, stub.covers
    for s, above, cols in plans:
        lim = limit(stub, above)
        if not 0 < len(lim) <= max_size:
            return None
        elements = list(lim.elements)
        if len(elements) < max_size and rng.random() < 0.35:
            elements.append(rng.choice(elements))
        sizes[s] = len(elements)
        for j, col in cols:
            covers[(s, j)] = tuple(e[col] for e in elements)
    x_sizes, y_sizes = {}, {}
    x_covers, y_covers = {}, {}
    components = {}
    for s in _subsets(list(range(n))):
        x_sizes[s] = sizes[s]
        y_sizes[s] = sizes[s | {n}]
        components[s] = covers[(s, n)]
        for j in range(n):
            if j in s:
                continue
            x_covers[(s, j)] = covers[(s, j)]
            y_covers[(s, j)] = covers[(s | {n}, j)]
    return CubeMap(
        Cube(n, x_sizes, x_covers), Cube(n, y_sizes, y_covers), components
    )
