"""Seeded inputs for the three benchmark workloads.

Everything here is plain stdlib code that writes the JSON documents the
isokit CLI reads; it never calls isokit, so a change to the library cannot
change the inputs.  Groups are multiplication tables whose non-identity
elements are relabelled by the seed, so each seed hands the library a
differently numbered copy of the same abstract group.

Inputs are produced in rounds.  Every round of a workload has the same
composition (the same groups, models, size ladder and cube dimensions),
and a run takes a fixed number of jobs from the front of the stream, so
seeds change the inputs but not the job mix.
"""

from __future__ import annotations

import json
from random import Random
from typing import Dict, List, Sequence, Tuple

Table = List[List[int]]

# -- groups -----------------------------------------------------------------


def _perm_group(degree: int, gens: Sequence[Sequence[int]]) -> Table:
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(degree))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(degree))] for q in perms] for p in perms]


def cyclic(n: int) -> Table:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(n: int) -> Table:
    """Symmetries of the regular n-gon, order 2n."""
    return _perm_group(n, [[(i + 1) % n for i in range(n)], [(n - i) % n for i in range(n)]])


def symmetric(n: int) -> Table:
    return _perm_group(n, [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]])


def product(a: Table, b: Table) -> Table:
    n, m = len(a), len(b)
    return [
        [a[i // m][k // m] * m + b[i % m][k % m] for k in range(n * m)]
        for i in range(n * m)
    ]


def power(t: Table, k: int) -> Table:
    out = t
    for _ in range(k - 1):
        out = product(out, t)
    return out


def relabel(t: Table, rng: Random) -> Table:
    """Same group, non-identity elements renumbered at random."""
    rest = list(range(1, len(t)))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * len(t) for _ in t]
    for a, row in enumerate(t):
        for b, ab in enumerate(row):
            out[pi[a]][pi[b]] = pi[ab]
    return out


def closure(t: Table, gens: Sequence[int]) -> frozenset:
    """Subgroup generated by the given elements (finite, so products suffice)."""
    out = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = t[a][g]
                if c not in out:
                    out.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(out)


def center(t: Table) -> List[int]:
    n = len(t)
    return [z for z in range(n) if all(t[z][g] == t[g][z] for g in range(n))]


def group_json(t: Table) -> dict:
    return {"order": len(t), "table": t}


# The lattice groups, orders 16 to 48.  Dn is the dihedral group of the
# n-gon (order 2n).  Subgroup counts from closed formulas where one
# exists: dihedral tau(n)+sigma(n), elementary abelian Gaussian
# binomials, coprime direct products multiply.
LATTICE_GROUPS: Dict[str, Tuple] = {
    "D24": (lambda: dihedral(24), 68),
    "S4xC2": (lambda: product(symmetric(4), cyclic(2)), None),
    "D12xC2": (lambda: product(dihedral(12), cyclic(2)), None),
    "S3xS3": (lambda: product(symmetric(3), symmetric(3)), None),
    "D8xC3": (lambda: product(dihedral(8), cyclic(3)), 38),
    "C2^4": (lambda: power(cyclic(2), 4), 67),
    "S4": (lambda: symmetric(4), None),
    "C3^3": (lambda: power(cyclic(3), 3), 28),
}

SMALL_GROUPS: Dict[str, object] = {
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C4": lambda: cyclic(4),
    "C2xC2": lambda: product(cyclic(2), cyclic(2)),
    "S3": lambda: symmetric(3),
}


# -- complexes ----------------------------------------------------------------


def _complex_json(t: Table, n: int, facets, action: Dict[int, Sequence[int]]) -> dict:
    return {
        "vertices": n,
        "facets": [list(f) for f in sorted(facets)],
        "action": {str(g): list(p) for g, p in sorted(action.items())},
        "group": group_json(t),
    }


def model_complexes() -> Dict[str, dict]:
    """The four named models the CLI also ships, written out as JSON."""
    c2 = cyclic(2)
    ring = [1 + (i % 6) for i in range(12)]
    disk = _complex_json(
        c2, 7, [(0, ring[i], ring[i + 1]) for i in range(6)],
        {1: [0] + [ring[i + 3] for i in range(6)]},
    )
    wedge = _complex_json(c2, 5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)], {1: [0, 2, 1, 3, 4]})
    hexagon = _complex_json(
        c2, 6, [(i, (i + 1) % 6) for i in range(6)], {1: [(i + 3) % 6 for i in range(6)]}
    )
    k = product(cyclic(2), cyclic(2))  # element 2a+b is (a, b)
    action = {}
    for h in range(4):
        a, b = divmod(h, 2)
        action[h] = [0, 1 + a, 2 - a, 3 + b, 4 - b] + [5 + k[h][x] for x in range(4)]
    cross = _complex_json(k, 9, [(0, 1), (0, 2), (0, 3), (0, 4), (5,), (6,), (7,), (8,)], action)
    return {"rotation-disk": disk, "wedge": wedge, "hexagon": hexagon, "c2xc2-wedge": cross}


def random_complex(t: Table, rng: Random, cap: int) -> Tuple[dict, int]:
    """Orbit closure of random 2-simplices on a union of coset orbits G/H.

    Vertices are the left cosets xH of the trivial subgroup and two
    random subgroups H (each generated by one or two random elements);
    the group acts by left multiplication.  Triangle orbits are added
    until there are cap triangles or 100 draws are spent.  Returns the
    complex and its depth (subdivisions after make_regular).
    """
    n = len(t)
    cosets: List[Tuple[int, frozenset]] = []
    subgroups = [frozenset({0})] + [
        closure(t, [rng.randrange(n) for _ in range(rng.randint(1, 2))])
        for _ in range(2)
    ]
    for i, h in enumerate(subgroups):
        seen = set()
        for x in range(n):
            c = frozenset(t[x][s] for s in h)
            if c not in seen:
                seen.add(c)
                cosets.append((i, c))
    index = {c: k for k, c in enumerate(cosets)}
    act = [
        [index[(i, frozenset(t[g][s] for s in c))] for i, c in cosets] for g in range(n)
    ]
    facets = set()
    for _ in range(100):
        if len(facets) >= cap:
            break
        tri = rng.sample(range(len(cosets)), 3)
        facets.update(tuple(sorted(act[g][v] for v in tri)) for g in range(n))
    faces = {f[i:j] for f in facets for i in range(3) for j in range(i + 1, 4)} | {
        (f[0], f[2]) for f in facets
    }
    used = sorted({v for f in facets for v in f})
    # decompose needs the second derived complex: the first subdivision
    # of any G-complex puts the vertices of each simplex in distinct
    # orbits, and subdividing such a complex makes every orbit of
    # simplices a single orbit over its image (Bredon, Introduction to
    # Compact Transformation Groups, III.1).  Regular in make_regular's
    # sense is weaker: C3 rotating a triangle boundary is regular, yet
    # its first subdivision is refused.  make_regular spends one
    # subdivision on an irregular input, so a regular one gets one more.
    irregular = any(
        tuple(sorted(a[v] for v in s)) == s and any(a[v] != v for v in s)
        for s in faces
        for a in act
    )
    back = {v: i for i, v in enumerate(used)}
    facets = {tuple(back[v] for v in f) for f in facets}
    action = {g: [back[act[g][v]] for v in used] for g in range(1, n)}
    doc = _complex_json(t, len(used), facets, action)
    return doc, 1 if irregular else 2


# -- rounds -----------------------------------------------------------------------


# Triangle-count caps of the random complexes in each round, one complex
# per cap and small group: a fixed ladder keeps the size mix of every
# round the same, so seeds change the complexes but not how big they are.
RANDOM_CAPS = (3, 5, 7, 9, 11)


def sd_round(rng: Random) -> List[dict]:
    """One round of sd-complexes jobs: the four models and five random
    complexes per small group.

    Depth counts the subdivisions after make_regular, the last one taken
    by subdivide_map.  The rotation disk always goes to sd^3, the largest
    case kept (sd^4 takes 30 s to subdivide while normalization is
    quadratic); the 1-dimensional models draw theirs.
    """
    jobs = []
    depths = {"rotation-disk": (3, 3), "wedge": (3, 5), "hexagon": (3, 5), "c2xc2-wedge": (2, 4)}
    for name, doc in model_complexes().items():
        lo, hi = depths[name]
        jobs.append({"name": name, "complex": doc, "depth": rng.randint(lo, hi)})
    for name, make in SMALL_GROUPS.items():
        t = relabel(make(), rng)
        for cap in RANDOM_CAPS:
            doc, depth = random_complex(t, rng, cap)
            jobs.append({"name": f"random-{name}", "complex": doc, "depth": depth})
    for job in jobs:
        job["central"] = rng.choice(center(job["complex"]["group"]["table"]))
        job["complex"] = json.dumps(job["complex"])
    return jobs


def lattice_round(rng: Random) -> List[dict]:
    """One job per lattice group: a relabelled table, a strict chain of
    length one or two built from nested generator sets, a central element
    and a marks vector for the solve/marks round trip."""
    jobs = []
    for name, (make, subgroups) in LATTICE_GROUPS.items():
        t = relabel(make(), rng)
        n = len(t)
        chain: List[frozenset] = []
        gens: List[int] = []
        want = rng.randint(2, 3)
        if rng.random() < 0.5:
            chain.append(frozenset({0}))
        while len(chain) < want:
            gens.append(rng.randrange(1, n))
            h = closure(t, gens)
            if not chain or chain[-1] < h:
                chain.append(h)
            if len(h) == n:
                break
        if len(chain) < 2:
            chain = [frozenset({0}), frozenset(range(n))]
        jobs.append({
            "name": name,
            "group": json.dumps(group_json(t)),
            "chain": [sorted(h) for h in chain],
            "central": rng.choice(center(t)),
            "subgroups": subgroups,
            "marks_seed": rng.randrange(1 << 30),
        })
    return jobs


# dim-4 trials always use cube seeds 0..DIM4_TRIALS-1 (what
# `isokit cube check --dim 4 --trials 6` runs).  Their rejection-sampling
# cost is heavy-tailed (quartiles 0.3 s and 1.9 s, maximum 8.6 s over 25
# seeds), so a handful drawn per run would spread wider than any bound.
# The dim-3 trials are drawn from the benchmark seed.
DIM4_TRIALS = 6
DIM3_PER_DIM4 = 25


def cube_round(rng: Random) -> List[dict]:
    """Dim-3 trials with one dim-4 trial after every DIM3_PER_DIM4 of them,
    so a run cut short keeps the same mix."""
    jobs = []
    for k in range(DIM4_TRIALS):
        jobs += [
            {"name": "dim3", "dim": 3, "seed": rng.randrange(1 << 30)}
            for _ in range(DIM3_PER_DIM4)
        ]
        jobs.append({"name": "dim4", "dim": 4, "seed": k})
    return jobs


ROUNDS = {"sd-complexes": sd_round, "group-lattices": lattice_round, "cube-trials": cube_round}

# Jobs per second of --seconds: a run of --seconds S executes
# round(S * rate) jobs, so every commit measures the same jobs with the
# same sample count and a faster library simply finishes sooner.  The
# rates are the throughput each workload had when the benchmark was
# defined (2-core x86-64 container, Python 3.11), except group-lattices:
# it runs 22 jobs at 30 s (about 45 s on that container), so that its
# median and its tail both fall among the three S3xS3 jobs instead of in
# the gap between two groups' costs.
JOBS_PER_SECOND = {"sd-complexes": 1.7, "group-lattices": 0.74, "cube-trials": 15.0}


def rounds(workload: str, seed: int):
    """Endless stream of rounds; the same seed gives the same rounds."""
    rng = Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)
