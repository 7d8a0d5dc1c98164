"""Cubical diagrams of finite sets and the surjectivity lemma for limits.

A cube of dimension n assigns a finite set to every subset of {0..n-1}
and a map to every inclusion, generated by the single-index covers.  The
distinguished class here is surjections: if every subcube corner map of
a map of cubes is surjective, so is the induced map on limits, and
factorize_limit exhibits the chain of surjections that proves it.

A limit element is a compatible family of values over a vertex family,
fixed by its values on the family's minimal vertices, and it is held as
that tuple alone, as _sections enumerates it: limit keeps the rows,
check_hypothesis only counts them, and maps into and between limits read
values at minimal vertices (_images, _restriction).  All of them read
their vertex families off plans written once per dimension from the
construction (_corner_plans, _stage_plans), which makes them closed
under bounded unions with no check; only VertexFamily(vertices), for a
family a caller brings, checks that.  lim X and lim Y are the sets at
the empty set, read off the cube (limit_map).

Tuples on the hot paths are built from lists, tuple([...]).  A tuple of
a generator is filled by resizing, so it never takes a freed tuple of
its final size from CPython's free lists but gives one back when it
dies; after 450 benchmark cube checks (CPython 3.11) those lists held
2.7 MB, against under 0.1 MB with tuples built from lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter
from random import Random
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import CubeGenerationFailed, CubeTooLarge, InvariantViolated
from .group import _int, _skey

Subset = FrozenSet[int]

# corner and stage plans over 3^n or 2^n families of up to 2^(n+1) vertices
MAX_CUBE_DIM = 8
# the most elements a limit is enumerated with
MAX_LIMIT_ELEMENTS = 100_000


def _subsets(indices: Sequence[int]) -> List[Subset]:
    out = [frozenset()]
    for i in indices:
        out += [s | {i} for s in out]
    return sorted(out, key=_skey)


@lru_cache(maxsize=None)
def _vertices(n: int) -> Tuple[Subset, ...]:
    """The subsets of 0..n-1 in _subsets order, sorted once per dimension."""
    return tuple(_subsets(range(n)))


def _check_dim(n: int) -> None:
    if n > MAX_CUBE_DIM:
        raise CubeTooLarge(f"a cube map of dimension {n} exceeds the cap of {MAX_CUBE_DIM}")


class Cube:
    """Finite-set cube: sizes per subset, one index map per cover S -> S+{j}.

    The constructor checks every cover and square.  Covers are fixed after
    construction: map_between memoizes the chain maps it composes, so a
    cover may be added later but never changed.
    """

    def __init__(
        self, n: int, sizes: Dict[Subset, int], covers: Dict[Tuple[Subset, int], Tuple[int, ...]]
    ):
        self.n = n
        self.sizes = {frozenset(k): _int(v, "vertex size") for k, v in sizes.items()}
        self.covers = {
            (frozenset(s), _int(j, "cover index")): tuple(m) for (s, j), m in covers.items()
        }
        self._chains: Dict[Tuple[Subset, Subset], Tuple[int, ...]] = {}
        self._validate()

    @classmethod
    def _assemble(
        cls, n: int, sizes: Dict[Subset, int], covers: Dict[Tuple[Subset, int], Tuple[int, ...]]
    ) -> "Cube":
        """A cube that a library construction makes correct, unchecked: sizes
        and covers keyed and typed as the constructor leaves them."""
        x = cls.__new__(cls)
        x.n, x.sizes, x.covers, x._chains = n, sizes, covers, {}
        return x

    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError(f"cube dimension must be nonnegative, got {self.n}")
        # 2^n sets are needed; an n beyond the sets given builds no subsets
        if self.n >= len(self.sizes).bit_length():
            raise ValueError(f"cube must assign a set to every subset of 0..{self.n - 1}")
        wanted = _vertices(self.n)
        if set(self.sizes) != set(wanted):
            raise ValueError(f"cube must assign a set to every subset of 0..{self.n - 1}")
        if any(size < 0 for size in self.sizes.values()):
            raise ValueError("vertex sizes must be nonnegative")
        for s, j in self.covers:
            if s not in self.sizes or j in s or not 0 <= j < self.n:
                raise ValueError(f"cover map {sorted(s)} + {j} is not a cover of the {self.n}-cube")
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
                via_i = [self.covers[(s | {i}, j)][v] for v in self.covers[(s, i)]]
                via_j = [self.covers[(s | {j}, i)][v] for v in self.covers[(s, j)]]
                if via_i != via_j:
                    raise ValueError(
                        f"cube squares do not commute at {sorted(s)} + {{{i},{j}}}"
                    )

    def vertices(self) -> List[Subset]:
        return list(_vertices(self.n))

    def size(self, s: Iterable[int]) -> int:
        return self.sizes[frozenset(s)]

    def map_between(self, s: Iterable[int], t: Iterable[int]) -> Tuple[int, ...]:
        """Composite map X(S) -> X(T) along any chain of covers."""
        s, t = frozenset(s), frozenset(t)
        if not s <= t:
            raise ValueError("map_between needs nested subsets")
        if t not in self.sizes:
            raise ValueError(f"map_between: {sorted(t)} is not a vertex of the {self.n}-cube")
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
                out = tuple([step[v] for v in self._chain(s, here)])
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
    return SetFunction(tuple([later.mapping[v] for v in earlier.mapping]), later.codomain_size)


@dataclass(frozen=True)
class LimitSet:
    """Limit of a cube over a vertex family, each element its values on the minimal vertices."""

    minimals: Tuple[Subset, ...]
    elements: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> Dict[Tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.elements)}

    def index_of(self, element: Tuple[int, ...]) -> int:
        return self._index[element]


class VertexFamily:
    """A vertex family for limits, planned once for use on any cube.

    VertexFamily(vertices) is the checked entry for a family a caller
    brings: the members are sorted by size, then lexicographically, and
    the family must contain the union of any two members that have a
    common upper bound in it; up-closed families and intervals do.  The
    library's stage families come from _assemble, unchecked.  Besides the
    members a family keeps what the enumeration in limit needs and what
    depends on the family alone: the minimal members, and for each minimal
    the earlier minimals whose join with it is a member, with that join.
    """

    def __init__(self, vertices: Iterable[Iterable[int]]):
        verts = sorted({frozenset(v) for v in vertices}, key=_skey)
        vset = set(verts)
        for a, b in combinations(verts, 2):
            u = a | b
            if u not in vset and any(u <= w for w in verts):
                raise ValueError("vertex family is not closed under bounded unions")
        self._plan(verts, [v for v in verts if not any(u < v for u in verts)], vset)

    @classmethod
    def _assemble(cls, vertices: Sequence[Subset], minimals: Sequence[Subset]) -> "VertexFamily":
        """A family whose construction makes any two minimal members join,
        unchecked: members and minimals sorted as the constructor sorts them."""
        x = cls.__new__(cls)
        x._plan(vertices, minimals)
        return x

    def _plan(
        self, vertices: Sequence[Subset], minimals: Sequence[Subset], vset: Optional[set] = None
    ) -> None:
        self.vertices: Tuple[Subset, ...] = tuple(vertices)
        self.minimals: Tuple[Subset, ...] = tuple(minimals)
        self.joins: Tuple[Tuple[Tuple[int, Subset], ...], ...] = _joins(self.minimals, vset)


def _joins(minimals: Sequence[Subset], vset: Optional[set] = None) -> tuple:
    """Per minimal k, the pairs (i, join) of an earlier minimal i and its
    join with k, for every i or, given the members vset, those joining in it."""
    return tuple(
        tuple([(i, u | m) for i, u in enumerate(minimals[:k]) if vset is None or u | m in vset])
        for k, m in enumerate(minimals)
    )


def _sections(
    sizes: Sequence[int],
    checks: Sequence[Sequence[Tuple[int, Sequence[int], Sequence[int]]]],
    cap: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Value tuples on the minimal vertices of a limit, in lexicographic order.

    sizes[k] is the size of minimal k; checks[k] lists (i, earlier, here),
    and a tuple is kept when earlier[value_i] == here[value_k] for all of
    them.  With a cap the backtracking stops at cap + 1 tuples, enough to
    tell that the limit has more than cap elements.
    """
    last = len(sizes) - 1
    if last < 0:
        return [()]
    rows: List[Tuple[int, ...]] = []
    stop = None if cap is None else cap + 1
    chosen = [0] * (last + 1)
    # next candidate value per minimal; backtrack when one runs past its size
    tried = [0] * (last + 1)
    k = 0
    while True:
        x = tried[k]
        if x == sizes[k]:
            if k == 0:
                return rows
            k -= 1
            continue
        tried[k] = x + 1
        for i, earlier, here in checks[k]:
            if earlier[chosen[i]] != here[x]:
                break
        else:
            chosen[k] = x
            if k < last:
                k += 1
                tried[k] = 0
            else:
                rows.append(tuple(chosen))
                if len(rows) == stop:
                    return rows


def _minimal_sections(
    cube: Cube, minimals: Sequence[Subset], joins: Sequence[tuple], cap: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """A limit's elements as values on its minimal vertices, in limit's
    order; joins as VertexFamily keeps them.  With a cap, at most the first
    cap + 1 (see _sections)."""
    chain = cube._chain
    # minimal k must agree with each earlier minimal i on their join w
    checks = [
        [(i, chain(minimals[i], w), chain(m, w)) for i, w in pairs]
        for m, pairs in zip(minimals, joins)
    ]
    return _sections([cube.sizes[m] for m in minimals], checks, cap)


def limit(cube: Cube, poset: VertexFamily) -> LimitSet:
    """Compatible families of values over the members of a VertexFamily.

    The family is planned when it is built, so one family serves limits
    on many cubes; VertexFamily(cube.vertices()) is the whole cube, and a
    family with a vertex outside the cube is a ValueError.  Each element
    is its values on the family's minimal vertices, as _minimal_sections
    enumerates them, in lexicographic order.  A limit of more than
    MAX_LIMIT_ELEMENTS elements raises CubeTooLarge once the enumeration
    passes the cap.
    """
    outside = [sorted(w) for w in poset.vertices if w not in cube.sizes]
    if outside:
        raise ValueError(f"vertex {outside[0]} of the family is not in the {cube.n}-cube")
    rows = _minimal_sections(cube, poset.minimals, poset.joins, MAX_LIMIT_ELEMENTS)
    if len(rows) > MAX_LIMIT_ELEMENTS:
        raise CubeTooLarge(f"a limit has more elements than the cap of {MAX_LIMIT_ELEMENTS}")
    return LimitSet(minimals=poset.minimals, elements=tuple(rows))


def _images(cube: Cube, u: Subset, vertices: Sequence[Subset]) -> Iterable[Tuple[int, ...]]:
    """Per element a of X(U), its values chain(U, v)[a] at the vertices v
    above U; there must be at least one, as zip of none yields nothing."""
    return zip(*[cube._chain(u, v) for v in vertices])


def _restriction(cube: Cube, larger: LimitSet, smaller: LimitSet) -> SetFunction:
    """larger -> smaller, a limit over a subfamily: each minimal w of the
    subfamily reads the first minimal m <= w of the larger family, pushed up to w."""
    chain, below = cube._chain, list(enumerate(larger.minimals))
    columns = [next((k, chain(m, w)) for k, m in below if m <= w) for w in smaller.minimals]
    index = smaller.index_of
    mapping = [index(tuple([push[row[k]] for k, push in columns])) for row in larger.elements]
    return SetFunction(mapping=tuple(mapping), codomain_size=len(smaller))


class CubeMap:
    """Natural transformation between cubes of the same dimension."""

    def __init__(self, source: Cube, target: Cube, components: Dict[Subset, Tuple[int, ...]]):
        if source.n != target.n:
            raise ValueError("source and target cubes must have equal dimension")
        self.source = source
        self.target = target
        self.components = {frozenset(k): tuple(v) for k, v in components.items()}
        self._validate()

    def _validate(self) -> None:
        verts = _vertices(self.n)
        for s in self.components:
            if s not in self.source.sizes:
                raise ValueError(f"component at {sorted(s)} is not at a vertex of the {self.n}-cube")
        for s in verts:
            if s not in self.components:
                raise ValueError(f"missing component at {sorted(s)}")
            comp = self.components[s]
            if len(comp) != self.source.sizes[s]:
                raise ValueError(f"component at {sorted(s)} has wrong length")
            if any(v < 0 or v >= self.target.sizes[s] for v in comp):
                raise ValueError(f"component at {sorted(s)} is out of range")
        for s in verts:
            for j in range(self.source.n):
                if j in s:
                    continue
                lhs = [self.components[s | {j}][v] for v in self.source.covers[(s, j)]]
                rhs = [self.target.covers[(s, j)][v] for v in self.components[s]]
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
        return self._as_cube

    @cached_property
    def _as_cube(self) -> Cube:
        n = self.n
        sizes: Dict[Subset, int] = {}
        covers: Dict[Tuple[Subset, int], Tuple[int, ...]] = {}
        for s in _vertices(n):
            sizes[s] = self.source.sizes[s]
            sizes[s | {n}] = self.target.sizes[s]
            covers[(s, n)] = self.components[s]
            for j in range(n):
                if j in s:
                    continue
                covers[(s, j)] = self.source.covers[(s, j)]
                covers[(s | {n}, j)] = self.target.covers[(s, j)]
        return Cube._assemble(n + 1, sizes, covers)


@lru_cache(maxsize=None)
def _corner_plans(n: int) -> Mapping[Tuple[Subset, Subset], tuple]:
    """Per corner (U, T) of a map of n-cubes, in the order check_hypothesis
    visits them, the minimal vertices and joins, as VertexFamily keeps
    them, of the limit X(U) maps into: everything strictly above U in the
    span of U <= T on both sides of the (n+1)-cube.  Its minimal vertices
    are U+{j} for j in T - U ascending, then U+{n}, and any two join inside
    it.  Read-only, as every caller shares it.  Raises CubeTooLarge above
    MAX_CUBE_DIM."""
    _check_dim(n)
    out = {}
    for t in _vertices(n):
        for u in _subsets(sorted(t)):
            mins = tuple([u | {j} for j in sorted(t - u)] + [u | {n}])
            out[(u, t)] = (mins, _joins(mins))
    return MappingProxyType(out)


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    checked: int
    failures: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


def check_hypothesis(m: CubeMap) -> HypothesisCheck:
    """Surjectivity of all 3^n subcube corner maps, decided by counting.

    Each corner (U, T) maps X(U) into a limit whose minimal vertices and
    joins _corner_plans reads off once per dimension.  A limit element is
    fixed by its values on those vertices, and each a in X(U) maps to the
    compatible values chain(U, v)[a] there, so the corner is onto iff its
    hits, the distinct such value tuples, are as many as the limit's
    elements.  The limit is enumerated with cap = hits and fails the
    corner iff it yields more rows.  No map or limit is built.  Raises
    CubeTooLarge above MAX_CUBE_DIM.
    """
    z = m.as_cube()
    plans = _corner_plans(m.n)
    failures = []
    for (u, t), (minimals, joins) in plans.items():
        hits = len(set(_images(z, u, minimals)))
        if len(_minimal_sections(z, minimals, joins, hits)) > hits:
            failures.append((tuple(sorted(u)), tuple(sorted(t))))
    return HypothesisCheck(ok=not failures, checked=len(plans), failures=tuple(failures))


def limit_map(m: CubeMap) -> Tuple[SetFunction, LimitSet]:
    """The induced map lim X -> lim Y: the component at the empty set.

    lim X is X(empty set) and lim Y is Y(empty set), held as the limit over
    the target side of the (n+1)-cube, minimal vertex {n} and element (y,)
    for each y; no limit, index or (n+1)-cube is built.  Raises
    CubeTooLarge above MAX_CUBE_DIM.
    """
    _check_dim(m.n)
    size = m.target.sizes[frozenset()]
    lim_y = LimitSet(minimals=(frozenset({m.n}),), elements=tuple([(y,) for y in range(size)]))
    return SetFunction(m.components[frozenset()], size), lim_y


@lru_cache(maxsize=None)
def _stage_plans(n: int) -> Tuple[Tuple[Subset, ...], Tuple[VertexFamily, ...]]:
    """The families factorize_limit takes limits over on the (n+1)-cube of
    a map of n-cubes: the source vertices in the order they are adjoined,
    and per stage but the last the target side with the source vertices
    adjoined so far.  Source vertices come by decreasing size, so each
    family is up-closed and any two members join inside it; its minimal
    vertices are {n} and the adjoined source vertices with none adjoined
    strictly inside them.  The empty set, adjoined last, leaves lim X,
    which is read off the cube.  Raises CubeTooLarge above MAX_CUBE_DIM,
    before any family is built."""
    _check_dim(n)
    whole = _vertices(n + 1)
    xorder = sorted(_vertices(n), key=lambda s: (-len(s), tuple(sorted(s))))
    members = {s for s in whole if n in s}
    minimals = [frozenset({n})]
    stages = []
    for x in xorder[:-1]:
        # nothing adjoined before x lies strictly inside it
        members.add(x)
        minimals = sorted([m for m in minimals if not x < m] + [x], key=_skey)
        stages.append(VertexFamily._assemble([s for s in whole if s in members], minimals))
    return tuple(xorder), tuple(stages)


@dataclass(frozen=True)
class Factorization:
    """Chain lim X = L_last -> ... -> L_0 -> lim Y through partial limits.

    Stage i adjoins the i-th source vertex, taken in order of decreasing
    distance from the initial vertex (decreasing subset size, ties by
    lexicographic order); L_i is the limit over the adjoined source
    vertices together with the whole target side.  stages runs from L_last,
    lim X with element (x,) for each x in X(empty set), down to L_0.
    """

    added_order: Tuple[Subset, ...]
    stages: Tuple[LimitSet, ...]
    links: Tuple[SetFunction, ...]
    lim_y: LimitSet
    composed: SetFunction
    direct: SetFunction

    @property
    def all_links_surjective(self) -> bool:
        return all(f.is_surjective for f in self.links)


def factorize_limit(m: CubeMap) -> Factorization:
    """lim X -> lim Y as a chain of restrictions through partial limits.

    The stage families come from _stage_plans, written once per dimension.
    The last stage, whose only minimal vertex is the empty set, is lim X in
    X(empty set)'s order, read off the cube; so the links compose to a map
    from X(empty set), which must equal limit_map's direct map.  Raises
    CubeTooLarge above MAX_CUBE_DIM.
    """
    direct, lim_y = limit_map(m)
    z = m.as_cube()
    xorder, families = _stage_plans(m.n)
    empty = frozenset()
    lim_x = LimitSet(minimals=(empty,), elements=tuple([(x,) for x in range(z.sizes[empty])]))
    stages = [limit(z, family) for family in families] + [lim_x]
    links = [_restriction(z, stages[i], stages[i - 1]) for i in range(len(stages) - 1, 0, -1)]
    links.append(_restriction(z, stages[0], lim_y))
    composed = links[0]
    for f in links[1:]:
        composed = compose(f, composed)
    if composed.mapping != direct.mapping:
        raise InvariantViolated("composed surjection chain differs from the direct limit map")
    return Factorization(
        added_order=xorder,
        stages=tuple(reversed(stages)),
        links=tuple(links),
        lim_y=lim_y,
        composed=composed,
        direct=direct,
    )


# -- randomized instances --------------------------------------------------------


_ATTEMPTS = 10000


def random_cube_map(n: int, seed: int = 0, max_size: int = 5) -> CubeMap:
    """Random map of n-cubes satisfying the corner hypothesis.

    Built as one (n+1)-cube, top vertex first, each lower vertex a
    section of the limit of everything strictly above it, optionally
    padded with one duplicate element.  Sections make every subcube
    corner surjective; the duplicates keep the maps from being bijective
    without breaking that.  Raises CubeGenerationFailed when no attempt
    keeps every limit between 1 and max_size elements, and CubeTooLarge
    above MAX_CUBE_DIM.

    The walk is planned once per dimension (_walk_view) and holds one
    fill id per vertex: a fill is the vertex's size and its cover maps,
    interned per call.  A section is read off its values on the covers
    S+{j}, enumerated only until it has more than max_size elements, which
    rejects the attempt.  Attempts mostly repeat earlier steps, so one call
    keeps a memo from the covers' fill ids to S's fill or rejection.  A
    cover's cover maps are its maps to its joins with the other covers, so
    the covers' fills hold exactly the sizes and compared maps the section
    depends on, and the memo hits wherever those repeat.  The RNG stream
    is unchanged: a duplicate draws rng.choice(range(k)), as rng.choice
    over k rows does.
    """
    if n < 0:
        raise ValueError(f"cube dimension must be nonnegative, got {n}")
    _check_dim(n)
    view = _walk_view(n)
    rng = Random(seed)
    memo, ids, fills = {}, {}, []  # covers' fill ids -> S's fill ids, fill -> id, id -> fill

    def intern(fill: tuple) -> int:
        if fill not in ids:
            ids[fill] = len(fills)
            fills.append(fill)
        return ids[fill]

    for _ in range(_ATTEMPTS):
        built = _try_random_cube(n, rng, max_size, view, memo, fills, intern)
        if built is not None:
            return built
    raise CubeGenerationFailed(
        f"no random {n}-cube map with 1 to {max_size} elements per vertex "
        f"in {_ATTEMPTS} attempts from seed {seed}"
    )


@lru_cache(maxsize=None)
def _walk_view(n: int) -> Tuple[tuple, tuple, tuple]:
    """The walk of random_cube_map on one fill id per vertex of the
    (n+1)-cube, numbered in fill order: by decreasing size, the top first.
    Each lower vertex S is filled from its covers S+{j}, for the j not in S
    ascending (the minimal vertices of the strict up-set of S, in limit's
    order), and its fill is (size, map to S+{j} per j): the map for the
    r-th index not in S is at 1 + r.  Covers i < q must agree on their
    join, which is cover i's (q-1)-th cover and cover q's i-th.

    Per step: its covers' numbers and the memo key's getter over them,
    which reads a lone fill id for one cover, else a tuple whose length
    fixes the covers.  Then the read-back, per side of the map: each S with
    its vertex's number, and each cover (S, j) with its vertex's number and
    the rank r of j; and each component (S, n) likewise."""
    order = sorted(_vertices(n + 1), key=lambda s: (-len(s), tuple(sorted(s))))
    num = {s: k for k, s in enumerate(order)}
    steps = []
    for s in order[1:]:
        above = [num[s | {j}] for j in range(n + 1) if j not in s]
        steps.append((above, itemgetter(*above)))

    def cover(s: Subset, j: int) -> Tuple[int, int]:
        return num[s], sum(i not in s for i in range(j))

    verts = _vertices(n)
    sides = tuple(
        (
            tuple([(s, num[s | side]) for s in verts]),
            tuple([((s, j), *cover(s | side, j)) for s in verts for j in range(n) if j not in s]),
        )
        for side in (frozenset(), frozenset({n}))
    )
    return tuple(steps), sides, tuple([(s, *cover(s, n)) for s in verts])


def _try_random_cube(
    n: int, rng: Random, max_size: int, view: tuple, memo: dict, fills: list, intern: Callable
) -> Optional[CubeMap]:
    steps, sides, components = view
    at = [intern((rng.randint(1, 2),))]
    for above, key in steps:
        key = key(at)
        hit = memo.get(key)
        if hit is None:
            covers = [fills[at[t]] for t in above]
            rows = _sections(
                [c[0] for c in covers],
                [[(i, covers[i][q], covers[q][i + 1]) for i in range(q)] for q in range(len(covers))],
                max_size,
            )
            # [] rejects; else the section's fill, then per row d that of
            # the section padded by row d, made on first use
            hit = memo[key] = []
            if 0 < len(rows) <= max_size:
                hit += [intern((len(rows), *zip(*rows)))] + [None] * len(rows)
        if not hit:
            return None
        size = len(hit) - 1
        pick = 0
        if size < max_size and rng.random() < 0.35:
            pick = 1 + rng.choice(range(size))
            if hit[pick] is None:
                maps = fills[hit[0]][1:]
                hit[pick] = intern((size + 1, *[c + (c[pick - 1],) for c in maps]))
        at.append(hit[pick])
    fill = [fills[f] for f in at]
    x, y = (
        Cube(n, {s: fill[k][0] for s, k in sizes}, {e: fill[k][1 + r] for e, k, r in covers})
        for sizes, covers in sides
    )
    return CubeMap(x, y, {s: fill[k][1 + r] for s, k, r in components})
