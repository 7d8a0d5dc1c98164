"""Independent oracles for the test suite.

Everything here is implemented from first principles on raw data
(multiplication tables, facet lists, index maps) without calling the
library under test, so expected values frozen into the tests were
computed by code that cannot share bugs with the implementation.  The
cell-report reference reads a cell structure's fields and writes the
report as dicts and lists, as the library did before it wrote text.
"""

from fractions import Fraction
from itertools import combinations, product


# -- groups, brute force -------------------------------------------------------


def subgroups_bruteforce(table):
    """All subgroups of a small group by subset enumeration."""
    n = len(table)
    inv = [row.index(0) for row in table]
    out = []
    for r in range(n):
        for extra in combinations(range(1, n), r):
            cand = frozenset((0,) + extra)
            if all(table[a][b] in cand and inv[a] in cand for a in cand for b in cand):
                out.append(cand)
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))


def subgroups_by_joins(table):
    """All subgroups, as the cyclic subgroups closed under joins.

    Every subgroup is the join of the cyclic subgroups of its elements, so
    joining each subgroup found with each cyclic subgroup reaches them all.
    A join is the closure of both generator lists, walked on the table by
    right multiplication, as every inverse is a positive power.
    """
    def closure(gens):
        seen, walk = {0}, [0]
        for a in walk:
            for s in gens:
                b = table[a][s]
                if b not in seen:
                    seen.add(b)
                    walk.append(b)
        return frozenset(seen)

    cyclic = {}
    for x in range(len(table)):
        cyclic.setdefault(closure([x]), x)
    gens = {h: (x,) for h, x in cyclic.items()}
    queue = list(gens)
    for h in queue:
        for x in cyclic.values():
            if x not in h:
                k = closure(gens[h] + (x,))
                if k not in gens:
                    gens[k] = gens[h] + (x,)
                    queue.append(k)
    return sorted(gens, key=lambda s: (len(s), sorted(s)))


def conjugacy_partition(table, subgroups):
    """Partition of subgroups into table-conjugacy classes."""
    inv = [row.index(0) for row in table]
    classes = []
    seen = set()
    for h in subgroups:
        if h in seen:
            continue
        orbit = set()
        for g in range(len(table)):
            orbit.add(frozenset(table[table[g][x]][inv[g]] for x in h))
        orbit = frozenset(orbit)
        seen |= orbit
        classes.append(sorted(orbit, key=lambda s: (len(s), sorted(s))))
    return classes


def fixed_coset_count(table, h, k):
    """|(G/H)^K| counted from scratch: cosets xH with x^-1 K x inside H."""
    n = len(table)
    inv = [row.index(0) for row in table]
    cosets = set()
    for x in range(n):
        coset = frozenset(table[x][a] for a in h)
        if all(table[table[inv[x]][c]][x] in h for c in k):
            cosets.add(coset)
    return len(cosets)


def solve_rational(matrix, rhs):
    """Solve a square system exactly by generic Gaussian elimination."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# -- exact homology Lefschetz ----------------------------------------------------


def _close_simplices(facets):
    simplices = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            simplices.update(combinations(f, r))
    return sorted(simplices, key=lambda s: (len(s), s))


def _boundary_matrix(lower, upper):
    """Rows indexed by lower simplices, columns by upper, entries 0/1/-1."""
    index = {s: i for i, s in enumerate(lower)}
    rows = [[Fraction(0)] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for k in range(len(s)):
            face = s[:k] + s[k + 1:]
            rows[index[face]][j] = Fraction((-1) ** k)
    return rows


def _rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    a = [row[:] for row in matrix]
    rank = 0
    rows, cols = len(a), len(a[0])
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        scale = a[rank][col]
        a[rank] = [v / scale for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _nullspace(matrix, cols):
    """Basis of the kernel, as column vectors."""
    if not matrix:
        return [
            [Fraction(int(i == j)) for i in range(cols)] for j in range(cols)
        ]
    a = [row[:] for row in matrix]
    rows = len(a)
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        scale = a[rank][col]
        a[rank] = [v / scale for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def _solve_in_span(columns, target):
    """Coefficients expressing target in the span of the columns, or None."""
    cols = len(columns)
    rows = len(target)
    a = [[columns[j][i] for j in range(cols)] + [target[i]] for i in range(rows)]
    rank = 0
    pivots = []
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        scale = a[rank][col]
        a[rank] = [v / scale for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, rows):
        if a[r][cols] != 0:
            return None
    coeff = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        coeff[pc] = a[r][cols]
    return coeff


def homology_lefschetz(facets, vertex_map):
    """L(f) as the alternating trace on rational homology.

    Builds the full simplicial chain complex with ordered-simplex
    orientations, the induced chain map (with permutation signs and
    zeroes on degenerate images), extends a basis of each boundary image
    to the cycle space, and sums the traces of the induced quotient maps.
    """
    simplices = _close_simplices(facets)
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    total = 0
    for d in range(top + 1):
        basis_d = by_dim[d]
        index_d = {s: i for i, s in enumerate(basis_d)}
        # induced chain map in degree d
        chain_map = [[Fraction(0)] * len(basis_d) for _ in basis_d]
        for j, s in enumerate(basis_d):
            image = [vertex_map[v] for v in s]
            if len(set(image)) != len(image):
                continue
            target = tuple(sorted(image))
            if target not in index_d:
                continue
            pos = {v: i for i, v in enumerate(sorted(image))}
            sign = _perm_sign([pos[v] for v in image])
            chain_map[index_d[target]][j] = Fraction(sign)
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d + 1, [])
        d_out = _boundary_matrix(lower, basis_d) if lower else []
        d_in = _boundary_matrix(basis_d, upper) if upper else []
        cycles = _nullspace(d_out, len(basis_d))
        boundaries = (
            [[row[j] for row in d_in] for j in range(len(upper))] if upper else []
        )
        # extend independent boundaries to a basis of the cycle space
        chosen = []
        for b in boundaries:
            if _solve_in_span(chosen, b) is None:
                chosen.append(b)
        quotient = []
        for c in cycles:
            if _solve_in_span(chosen + quotient, c) is None:
                quotient.append(c)
        full = chosen + quotient
        for qi in range(len(quotient)):
            vec = full[len(chosen) + qi]
            image = [
                sum(chain_map[r][c] * vec[c] for c in range(len(vec)))
                for r in range(len(vec))
            ]
            coeff = _solve_in_span(full, image)
            total += (-1) ** d * coeff[len(chosen) + qi]
    assert total.denominator == 1
    return int(total)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def homology_ranks(facets):
    """Betti numbers over the rationals."""
    simplices = _close_simplices(facets)
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    out = []
    for d in range(top + 1):
        basis_d = by_dim[d]
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d + 1, [])
        rank_out = _rank(_boundary_matrix(lower, basis_d)) if lower else 0
        rank_in = _rank(_boundary_matrix(basis_d, upper)) if upper else 0
        out.append(len(basis_d) - rank_out - rank_in)
    return out


# -- cell reports ------------------------------------------------------------------


def cells_report_reference(c):
    """The cell-structure report as dicts and lists: one record per cell
    with its disk dimension, chain label, vertex assignment, and the orbit
    faces it attaches along, then the size of each skeleton.

    What depends on the chain alone is built once per PhiMap, and the
    attaching faces once per orbit-simplex length, as index patterns; the
    records of one chain share their lists, so the report is read-only.
    """
    plans = {}
    patterns = {}
    cells = []
    for cell in c.cells:
        pm, orbit = cell.phi_map, cell.orbit_simplex
        if id(pm) not in plans:
            head = []
            for l, u in pm.keys:
                slot, coset = pm.linking_vertices[u]
                head.append({"disk": list(l), "slot": slot, "coset": sorted(coset)})
            shared = {"m": cell.disk_dim, "chain": cell.label(), "disk_dims": list(pm.disk_dims)}
            plans[id(pm)] = (shared, head)
        shared, head = plans[id(pm)]
        if len(orbit) not in patterns:
            # an increasing relabelling keeps the sorted order of the faces
            patterns[len(orbit)] = sorted(
                f for k in range(1, len(orbit)) for f in combinations(range(len(orbit)), k)
            )
        cells.append(dict(
            shared,
            orbit=list(orbit),
            base=list(cell.base_simplex),
            phi=[dict(h, vertex=v) for h, v in zip(head, cell.phi)],
            attach=[[orbit[k] for k in f] for f in patterns[len(orbit)]],
        ))
    return {"cells": cells, "skeleta": [len(s) for s in c.skeleta]}


# -- cube limits, brute force ----------------------------------------------------


def cube_limit_bruteforce(n, sizes, covers, poset):
    """All compatible tuples over the poset by filtering the full product.

    sizes: dict subset(frozenset) -> int; covers: dict (subset, j) -> list.
    Only usable for small products.
    """
    verts = sorted(poset, key=lambda s: (len(s), sorted(s)))
    out = []
    for combo in product(*(range(sizes[v]) for v in verts)):
        value = dict(zip(verts, combo))
        ok = True
        for v in verts:
            for j in range(n):
                if j in v:
                    continue
                w = v | {j}
                if w in value and covers[(v, j)][value[v]] != value[w]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(combo))
    return verts, sorted(out)


# -- equivariant self-map enumeration ---------------------------------------------


def _simplex_closure(facets):
    return set(_close_simplices(facets))


def _pointwise_stab(table, action, simplex):
    return frozenset(
        g for g in range(len(table)) if all(action[g][v] == v for v in simplex)
    )


def enumerate_self_maps(table, n_vertices, facets, action, mode):
    """All simplicial self-vertex-maps, backtracking over vertex images.

    mode: "simplicial" | "equivariant" | "isovariant".  Equivariance is
    enforced during search; isovariance additionally requires equal
    pointwise stabilizers on every simplex.  Returns vertex tuples.
    """
    closure = _simplex_closure(facets)
    simplices = sorted(closure, key=lambda s: (len(s), s))
    results = []
    assignment = [None] * n_vertices

    def propagate(v, w):
        """Force images on the whole orbit of v; return changed list or None."""
        changed = []
        for g in range(len(table)):
            src, dst = action[g][v], action[g][w]
            if assignment[src] is None:
                assignment[src] = dst
                changed.append(src)
            elif assignment[src] != dst:
                for c in changed:
                    assignment[c] = None
                return None
        return changed

    def consistent():
        for s in simplices:
            if any(assignment[v] is None for v in s):
                continue
            image = tuple(sorted({assignment[v] for v in s}))
            if image not in closure:
                return False
        return True

    def check_full():
        if mode in ("equivariant", "isovariant"):
            for g in range(len(table)):
                for v in range(n_vertices):
                    if assignment[action[g][v]] != action[g][assignment[v]]:
                        return False
        if mode == "isovariant":
            for s in closure:
                image = tuple(sorted({assignment[v] for v in s}))
                if _pointwise_stab(table, action, s) != _pointwise_stab(
                    table, action, image
                ):
                    return False
        return True

    def backtrack(v):
        while v < n_vertices and assignment[v] is not None:
            v += 1
        if v == n_vertices:
            if check_full():
                results.append(tuple(assignment))
            return
        for w in range(n_vertices):
            if mode in ("equivariant", "isovariant"):
                changed = propagate(v, w)
                if changed is None:
                    continue
                if consistent():
                    backtrack(v + 1)
                for c in changed:
                    assignment[c] = None
            else:
                assignment[v] = w
                if consistent():
                    backtrack(v + 1)
                assignment[v] = None

    backtrack(0)
    return results


# -- Reidemeister trace on a circle, via the explicit universal cover ----------------


def circle_reidemeister(facets, vertex_map):
    """(degree, {deck element: coefficient}) for a self-map of a circle.

    Walks the cycle to fix a cyclic coordinate, lifts the map to the
    integer line with F(0) pinned in [0, n), and reads off the deck
    translation of every setwise-fixed lifted cell.  Deck elements are
    returned unprojected; the caller reduces mod (1 - degree).
    """
    edges = [tuple(sorted(f)) for f in facets]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    assert all(len(v) == 2 for v in adj.values()), "not a circle"
    order = [min(adj)]
    prev = None
    while True:
        nxt = [w for w in adj[order[-1]] if w != prev]
        prev = order[-1]
        if nxt[0] == order[0]:
            break
        order.append(nxt[0])
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}

    def step(i):
        """Signed move of the lifted image across lattice edge [i, i+1]."""
        a = pos[vertex_map[order[i % n]]]
        b = pos[vertex_map[order[(i + 1) % n]]]
        d = (b - a) % n
        if d == 0:
            return 0
        if d == 1:
            return 1
        assert d == n - 1, "map is not simplicial on the circle"
        return -1

    lift = [pos[vertex_map[order[0]]]]
    for i in range(n):
        lift.append(lift[-1] + step(i))
    degree, rem = divmod(lift[n] - lift[0], n)
    assert rem == 0
    coeffs = {}
    for i in range(n):
        # vertex lift at coordinate i
        if vertex_map[order[i]] == order[i]:
            a, r = divmod(lift[i] - i, n)
            assert r == 0
            coeffs[a] = coeffs.get(a, 0) + 1
        # edge lift [i, i+1]
        u, v = order[i], order[(i + 1) % n]
        image = {vertex_map[u], vertex_map[v]}
        if image == {u, v}:
            if vertex_map[u] == u:  # preserved orientation
                a, r = divmod(lift[i] - i, n)
            else:  # flipped: lifted image is [lift[i+1], lift[i]]
                a, r = divmod(lift[i + 1] - i, n)
            assert r == 0
            coeffs[a] = coeffs.get(a, 0) - 1
    return degree, {k: v for k, v in coeffs.items() if v != 0}


# -- twisted conjugacy, bounded window ---------------------------------------------


def twisted_classes_window(invariant_factors, phi, radius=6):
    """Count twisted classes by union-find on a bounded coordinate window.

    Elements g ~ g + (I - phi) h for h unit vectors, plus the torsion
    relations.  Valid when every class meets the window and merges stay
    inside it, which holds for the desk-scale cases tested.
    """
    rank = len(invariant_factors)
    if rank == 0:
        return 1

    def reduce(v):
        return tuple(
            x % d if d else x for x, d in zip(v, invariant_factors)
        )

    window = []
    ranges = [
        range(d) if d else range(-radius, radius + 1) for d in invariant_factors
    ]
    for v in product(*ranges):
        window.append(reduce(v))
    window = sorted(set(window))
    index = {v: i for i, v in enumerate(window)}
    parent = list(range(len(window)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for v in window:
        for k in range(rank):
            step = tuple(
                (1 if i == k else 0) - phi[i][k] for i in range(rank)
            )
            for sgn in (1, -1):
                w = reduce(tuple(a + sgn * b for a, b in zip(v, step)))
                if w in index:
                    union(index[v], index[w])
    return len({find(i) for i in range(len(window))})
