"""Cubical diagrams of finite sets and the surjectivity lemma for limits.

A cube of dimension n assigns a finite set to every subset of {0..n-1}
and a map to every inclusion, generated by the single-index covers.  The
distinguished class here is surjections: if every subcube corner map of
a map of cubes is surjective, so is the induced map on limits, and
factorize_limit exhibits the chain of surjections that proves it.

A subset S is an int mask, bit i set iff i is in S, everywhere; the
public constructors, vertex_family, Cube.size and Cube.map_between also
take any iterable of indices and convert it once (_mask).

A limit is taken over a vertex family, held everywhere as its Plan,
(minimals, joins).  A limit element is a compatible family of values
over the family, fixed by its values on the minimal vertices, and it is
held as that tuple alone, as _sections enumerates it: limit keeps the
rows, check_hypothesis only counts them, and maps into and between
limits read values at minimal vertices (_restriction).  The library
writes its plans once per dimension from the construction
(_corner_plans, _stage_plans), closed under bounded unions with no
check; a caller's family enters through vertex_family(n, vertices),
which checks that.  lim X and lim Y are the sets at the empty set, read
off the cube (limit_map).

Tuples on the hot paths are built from lists, tuple([...]).  A tuple of
a generator is filled by resizing, so it never takes a freed tuple of
its final size from CPython's free lists but gives one back when it
dies; after 450 benchmark cube checks (CPython 3.11) those lists held
2.7 MB, against under 0.1 MB with tuples built from lists.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter
from random import Random
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import CubeGenerationFailed, CubeTooLarge, InvariantViolated
from .group import _int
from .records import Record

Subset = int
Indices = Union[Subset, Iterable[int]]
# a vertex family: its minimal vertices in _order, and their _joins
Plan = Tuple[Tuple[Subset, ...], tuple]

# corner and stage plans over 3^n or 2^n families of up to 2^(n+1) vertices
MAX_CUBE_DIM = 8
# the most elements a limit is enumerated with
MAX_LIMIT_ELEMENTS = 100_000


def _listed(s: Subset) -> List[int]:
    """The indices in s, ascending."""
    return [i for i in range(s.bit_length()) if s >> i & 1]


def _mask(s: Indices, n: int) -> Subset:
    """s, a mask or an iterable of indices, as a subset of 0..n-1; a negative
    mask, a bool or an index that is not an int in 0..n-1 is a ValueError."""
    if type(s) is int:
        if s >= 0 and s >> n == 0:
            return s
    elif type(s) is not bool:  # a bool is neither a mask nor indices
        s = list(s)
        if all(type(i) is int and 0 <= i < n for i in s):
            return sum(1 << i for i in set(s))
        try:
            s = sorted(s)
        except TypeError:  # indices of mixed types are named as given
            pass
    raise ValueError(f"{s} is not a vertex of the {n}-cube")


def _order(s: Subset) -> Tuple[int, List[int]]:
    """The order of vertices everywhere: by size, then lexicographically."""
    return s.bit_count(), _listed(s)


@lru_cache(maxsize=None)
def _vertices(n: int) -> Tuple[Subset, ...]:
    """The subsets of 0..n-1 in _order, once per n."""
    return tuple(sorted(range(1 << n), key=_order))


def _dim(n: int) -> int:
    if _int(n, "cube dimension") < 0:
        raise ValueError(f"cube dimension must be nonnegative, got {n}")
    return n


def _check_dim(n: int) -> int:
    if _dim(n) > MAX_CUBE_DIM:
        raise CubeTooLarge(f"a cube map of dimension {n} exceeds the cap of {MAX_CUBE_DIM}")
    return n


class Cube:
    """Finite-set cube: sizes per subset, one index map per cover S -> S+{j}.

    The constructor checks every cover and square.  Covers are fixed after
    construction: map_between memoizes the chain maps it composes, keyed
    by s * 2^n + t, so a cover may be added later but never changed.
    """

    def __init__(self, n: int, sizes: Dict[Indices, int], covers: Dict[tuple, Iterable[int]]):
        self.n = n = _dim(n)
        if n >= len(sizes).bit_length():  # 2^n sets are needed: read no key past them
            raise ValueError(f"cube must assign a set to every subset of 0..{n - 1}")
        self.sizes = {_mask(k, n): _int(v, "vertex size") for k, v in sizes.items()}
        self.covers = {(_mask(s, n), _int(j, "cover index")): tuple(m) for (s, j), m in covers.items()}
        self._chains: Dict[int, Tuple[int, ...]] = {}
        self._validate()

    @classmethod
    def _assemble(cls, n: int, sizes: Dict[Subset, int], covers: Dict[tuple, Tuple[int, ...]]) -> "Cube":
        """A cube that a library construction makes correct, unchecked: sizes
        and covers keyed and typed as the constructor leaves them."""
        x = cls.__new__(cls)
        x.n, x.sizes, x.covers, x._chains = n, sizes, covers, {}
        return x

    def _validate(self) -> None:
        # every key is a subset of 0..n-1, so 2^n distinct ones are all of them
        if len(self.sizes) != 1 << self.n:
            raise ValueError(f"cube must assign a set to every subset of 0..{self.n - 1}")
        if any(size < 0 for size in self.sizes.values()):
            raise ValueError("vertex sizes must be nonnegative")
        for s, j in self.covers:
            if not 0 <= j < self.n or s >> j & 1:
                raise ValueError(f"cover map {_listed(s)} + {j} is not a cover of the {self.n}-cube")
        wanted = _vertices(self.n)
        for s in wanted:
            for j in range(self.n):
                if s >> j & 1:
                    continue
                m = self.covers.get((s, j))
                if m is None:
                    raise ValueError(f"missing cover map {_listed(s)} + {j}")
                if len(m) != self.sizes[s]:
                    raise ValueError(f"cover map {_listed(s)} + {j} has wrong length")
                if any(v < 0 or v >= self.sizes[s | 1 << j] for v in m):
                    raise ValueError(f"cover map {_listed(s)} + {j} is out of range")
        # functoriality: both orders around every square agree
        for s in wanted:
            for i, j in combinations([k for k in range(self.n) if not s >> k & 1], 2):
                via_i = [self.covers[(s | 1 << i, j)][v] for v in self.covers[(s, i)]]
                via_j = [self.covers[(s | 1 << j, i)][v] for v in self.covers[(s, j)]]
                if via_i != via_j:
                    raise ValueError(f"cube squares do not commute at {_listed(s)} + {{{i},{j}}}")

    def vertices(self) -> List[Subset]:
        return list(_vertices(self.n))

    def size(self, s: Indices) -> int:
        return self.sizes[_mask(s, self.n)]

    def map_between(self, s: Indices, t: Indices) -> Tuple[int, ...]:
        """Composite map X(S) -> X(T) along any chain of covers."""
        t, s = _mask(t, self.n), _mask(s, self.n)
        if s & ~t:
            raise ValueError("map_between needs nested subsets")
        return self._chain(s, t)

    def _chain(self, s: Subset, t: Subset) -> Tuple[int, ...]:
        # covers are taken in increasing index order, so the last one adds max(T - S)
        key = s << self.n | t
        out = self._chains.get(key)
        if out is None:
            if s == t:
                out = tuple(range(self.sizes[s]))
            else:
                j = (t & ~s).bit_length() - 1
                here = t ^ 1 << j
                step = self.covers[(here, j)]
                out = tuple([step[v] for v in self._chain(s, here)])
            self._chains[key] = out
        return out


class SetFunction(NamedTuple):
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


class _LimitSetFields(NamedTuple):
    minimals: Tuple[Subset, ...]
    elements: Tuple[Tuple[int, ...], ...]


class LimitSet(Record, _LimitSetFields):
    """Limit of a cube over a vertex family, each element its values on the
    minimal vertices.  Its length is its number of elements."""

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> Dict[Tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.elements)}

    def index_of(self, element: Tuple[int, ...]) -> int:
        return self._index[element]


def _joins(minimals: Sequence[Subset], vset: Optional[set] = None) -> tuple:
    """Per minimal k, the pairs (i, join) of an earlier minimal i and its
    join with k, for every i or, given the members vset, those joining in it."""
    return tuple(
        tuple([(i, u | m) for i, u in enumerate(minimals[:k]) if vset is None or u | m in vset])
        for k, m in enumerate(minimals)
    )


def vertex_family(n: int, vertices: Iterable[Indices]) -> Plan:
    """The plan of a family of vertices of the n-cube that a caller brings.

    The family must contain the union of any two members with a common
    upper bound in it, as up-closed families and intervals do; a vertex
    outside the n-cube is a ValueError that names it.  One plan serves
    limits on every n-cube: vertex_family(n, cube.vertices()) is the whole
    cube.
    """
    n = _dim(n)
    verts = sorted({_mask(v, n) for v in vertices}, key=_order)
    vset = set(verts)
    for a, b in combinations(verts, 2):
        u = a | b
        if u not in vset and any(u | w == w for w in verts):
            raise ValueError("vertex family is not closed under bounded unions")
    minimals = tuple([v for v in verts if not any(u != v and u | v == v for u in verts)])
    return minimals, _joins(minimals, vset)


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


def _minimal_sections(cube: Cube, plan: Plan, cap: Optional[int] = None) -> List[Tuple[int, ...]]:
    """A limit's elements as values on its plan's minimal vertices, in
    limit's order.  With a cap, at most the first cap + 1 (see _sections)."""
    chain = cube._chain
    minimals, joins = plan
    # minimal k must agree with each earlier minimal i on their join w
    checks = [
        [(i, chain(minimals[i], w), chain(m, w)) for i, w in pairs]
        for m, pairs in zip(minimals, joins)
    ]
    return _sections([cube.sizes[m] for m in minimals], checks, cap)


def limit(cube: Cube, plan: Plan) -> LimitSet:
    """Compatible families of values over a plan's vertex family, each its
    values on the minimal vertices, in lexicographic order.  A minimal
    vertex outside the cube is a ValueError, and a limit of more than
    MAX_LIMIT_ELEMENTS elements raises CubeTooLarge once the enumeration
    passes the cap."""
    for m in plan[0]:
        if m not in cube.sizes:
            raise ValueError(f"{_listed(m)} is not a vertex of the {cube.n}-cube")
    rows = _minimal_sections(cube, plan, MAX_LIMIT_ELEMENTS)
    if len(rows) > MAX_LIMIT_ELEMENTS:
        raise CubeTooLarge(f"a limit has more elements than the cap of {MAX_LIMIT_ELEMENTS}")
    return LimitSet(minimals=plan[0], elements=tuple(rows))


def _restriction(cube: Cube, larger: LimitSet, smaller: LimitSet) -> SetFunction:
    """larger -> smaller, a limit over a subfamily: each minimal w of the
    subfamily reads the first minimal m <= w of the larger family, pushed up to w."""
    chain, below = cube._chain, list(enumerate(larger.minimals))
    columns = [next((k, chain(m, w)) for k, m in below if m | w == w) for w in smaller.minimals]
    index = smaller.index_of
    mapping = [index(tuple([push[row[k]] for k, push in columns])) for row in larger.elements]
    return SetFunction(mapping=tuple(mapping), codomain_size=len(smaller))


class CubeMap:
    """Natural transformation between cubes of the same dimension."""

    def __init__(self, source: Cube, target: Cube, components: Dict[Indices, Iterable[int]]):
        if source.n != target.n:
            raise ValueError("source and target cubes must have equal dimension")
        self.source, self.target = source, target
        self.components = {_mask(k, source.n): tuple(v) for k, v in components.items()}
        self._validate()

    @classmethod
    def _assemble(cls, source: Cube, target: Cube, components: Dict[Subset, tuple]) -> "CubeMap":
        """A map that a library construction makes natural, unchecked:
        components keyed and typed as the constructor leaves them."""
        m = cls.__new__(cls)
        m.source, m.target, m.components = source, target, components
        return m

    def _validate(self) -> None:
        verts = _vertices(self.n)
        for s in verts:
            if s not in self.components:
                raise ValueError(f"missing component at {_listed(s)}")
            comp = self.components[s]
            if len(comp) != self.source.sizes[s]:
                raise ValueError(f"component at {_listed(s)} has wrong length")
            if any(v < 0 or v >= self.target.sizes[s] for v in comp):
                raise ValueError(f"component at {_listed(s)} is out of range")
        for s in verts:
            for j in range(self.source.n):
                if s >> j & 1:
                    continue
                lhs = [self.components[s | 1 << j][v] for v in self.source.covers[(s, j)]]
                rhs = [self.target.covers[(s, j)][v] for v in self.components[s]]
                if lhs != rhs:
                    raise ValueError(f"naturality fails at {_listed(s)} + {j}")

    @property
    def n(self) -> int:
        return self.source.n

    def as_cube(self) -> Cube:
        """View as an (n+1)-cube: the new index n points from source to target.
        Built once and shared, so its chain maps are composed once per map."""
        return self._as_cube

    @cached_property
    def _as_cube(self) -> Cube:
        n = self.n
        sizes: Dict[Subset, int] = {}
        covers: Dict[Tuple[Subset, int], Tuple[int, ...]] = {}
        for s in _vertices(n):
            sizes[s] = self.source.sizes[s]
            sizes[s | 1 << n] = self.target.sizes[s]
            covers[(s, n)] = self.components[s]
            for j in range(n):
                if s >> j & 1:
                    continue
                covers[(s, j)] = self.source.covers[(s, j)]
                covers[(s | 1 << n, j)] = self.target.covers[(s, j)]
        return Cube._assemble(n + 1, sizes, covers)


@lru_cache(maxsize=None)
def _corner_plans(n: int) -> Mapping[Tuple[Subset, Subset], Plan]:
    """Per corner (U, T) of a map of n-cubes, in the order check_hypothesis
    visits them, the plan of the limit X(U) maps into: everything strictly
    above U in the span of U <= T on both sides of the (n+1)-cube.  Its
    minimal vertices are U+{j} for j in T - U ascending, then U+{n}, and any
    two join inside it.  Read-only, as every caller shares it.  Raises
    CubeTooLarge above MAX_CUBE_DIM."""
    _check_dim(n)
    out = {}
    verts = _vertices(n)
    for t in verts:
        for u in verts:
            if u | t == t:
                mins = tuple([u | 1 << j for j in _listed(t & ~u)] + [u | 1 << n])
                out[(u, t)] = (mins, _joins(mins))
    return MappingProxyType(out)


class HypothesisCheck(NamedTuple):
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
    corner iff it yields more rows; no map or limit is built.  Failures list
    U and T as sorted index tuples.  Raises CubeTooLarge above MAX_CUBE_DIM.
    """
    z = m.as_cube()
    plans = _corner_plans(m.n)
    failures = []
    for (u, t), plan in plans.items():
        hits = len(set(zip(*[z._chain(u, v) for v in plan[0]])))
        if len(_minimal_sections(z, plan, hits)) > hits:
            failures.append((tuple(_listed(u)), tuple(_listed(t))))
    return HypothesisCheck(ok=not failures, checked=len(plans), failures=tuple(failures))


def limit_map(m: CubeMap) -> Tuple[SetFunction, LimitSet]:
    """The induced map lim X -> lim Y: the component at the empty set.

    lim X is X(empty set) and lim Y is Y(empty set), held as the limit over
    the target side of the (n+1)-cube, minimal vertex {n} and element (y,)
    for each y; no limit, index or (n+1)-cube is built.  Raises
    CubeTooLarge above MAX_CUBE_DIM.
    """
    _check_dim(m.n)
    size = m.target.sizes[0]
    lim_y = LimitSet(minimals=(1 << m.n,), elements=tuple([(y,) for y in range(size)]))
    return SetFunction(m.components[0], size), lim_y


@lru_cache(maxsize=None)
def _stage_plans(n: int) -> Tuple[Tuple[Subset, ...], Tuple[Plan, ...]]:
    """The plans factorize_limit takes limits over on the (n+1)-cube of a
    map of n-cubes: the source vertices in the order they are adjoined, and
    per stage but the last the plan of the target side with the source
    vertices adjoined so far.  Source vertices come by decreasing size, so
    each family is up-closed and any two members join inside it; its
    minimal vertices are {n} and the adjoined source vertices with none
    adjoined strictly inside them.  The empty set, adjoined last, leaves
    lim X, which is read off the cube.  Raises CubeTooLarge above
    MAX_CUBE_DIM, before any plan is built."""
    _check_dim(n)
    # a stable sort by size alone keeps _order within each size
    xorder = sorted(_vertices(n), key=int.bit_count, reverse=True)
    minimals = [1 << n]
    stages = []
    for x in xorder[:-1]:
        # nothing adjoined before x lies strictly inside it
        minimals = sorted([m for m in minimals if x | m != m] + [x], key=_order)
        stages.append((tuple(minimals), _joins(minimals)))
    return tuple(xorder), tuple(stages)


class Factorization(NamedTuple):
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

    The stage plans come from _stage_plans, written once per dimension.
    The last stage, whose only minimal vertex is the empty set, is lim X in
    X(empty set)'s order, read off the cube; so the links compose to a map
    from X(empty set), which must equal limit_map's direct map.  Raises
    CubeTooLarge above MAX_CUBE_DIM.
    """
    direct, lim_y = limit_map(m)
    z = m.as_cube()
    xorder, plans = _stage_plans(m.n)
    lim_x = LimitSet(minimals=(0,), elements=tuple([(x,) for x in range(z.sizes[0])]))
    stages = [limit(z, plan) for plan in plans] + [lim_x]
    links = [_restriction(z, stages[i], stages[i - 1]) for i in range(len(stages) - 1, 0, -1)]
    links.append(_restriction(z, stages[0], lim_y))
    composed = links[0]
    for f in links[1:]:
        composed = compose(f, composed)
    if composed.mapping != direct.mapping:
        raise InvariantViolated("composed surjection chain differs from the direct limit map")
    return Factorization(xorder, tuple(reversed(stages)), tuple(links), lim_y, composed, direct)


# -- randomized instances --------------------------------------------------------


_ATTEMPTS = 10000


def random_cube_map(n: int, seed: int = 0, max_size: int = 5) -> CubeMap:
    """Random map of n-cubes satisfying the corner hypothesis.

    Built as one (n+1)-cube, top vertex first, each lower vertex a
    section of the limit of everything strictly above it, optionally
    padded with one duplicate element.  Sections make every subcube
    corner surjective; the duplicates keep the maps from being bijective
    without breaking that.  Raises CubeGenerationFailed when no attempt
    keeps every limit between 1 and max_size elements, CubeTooLarge above
    MAX_CUBE_DIM, and ValueError for a max_size that is not an int.

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
    over k rows does.  Its cubes and map are correct by construction, unchecked.
    """
    n = _check_dim(n)
    max_size = _int(max_size, "max_size")
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
    order = sorted(_vertices(n + 1), key=int.bit_count, reverse=True)
    num = {s: k for k, s in enumerate(order)}
    steps = []
    for s in order[1:]:
        above = [num[s | 1 << j] for j in range(n + 1) if not s >> j & 1]
        steps.append((above, itemgetter(*above)))

    def cover(s: Subset, j: int) -> Tuple[int, int]:
        return num[s], (~s & (1 << j) - 1).bit_count()

    verts = _vertices(n)
    sides = tuple(
        (
            tuple([(s, num[s | side]) for s in verts]),
            tuple([((s, j), *cover(s | side, j)) for s in verts for j in range(n) if not s >> j & 1]),
        )
        for side in (0, 1 << n)
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
        Cube._assemble(n, {s: fill[k][0] for s, k in sizes}, {e: fill[k][1 + r] for e, k, r in covers})
        for sizes, covers in sides
    )
    return CubeMap._assemble(x, y, {s: fill[k][1 + r] for s, k, r in components})
