"""Finite groups presented by multiplication tables.

Element 0 is always the identity.  Subgroups are frozensets of element
indices; conjugacy classes of subgroups are keyed by the class member
that is smallest under (order, sorted elements).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import GroupTooLarge, NonIntegral, NotStrictChain
from .records import Record

Subgroup = FrozenSet[int]
Perm = Tuple[int, ...]

# order cap for group construction; it stays below 60, as _subgroups
# needs every group to be solvable, which every group of order below 60 is
# (A5, of order 60, has no normal subgroup of prime index)
MAX_GROUP_ORDER = 48
_PRIMES = frozenset(p for p in range(2, MAX_GROUP_ORDER + 1) if all(p % d for d in range(2, p)))


def _decimal_int(text: str, what: str) -> int:
    """An integer in canonical decimal form: not " 1", "+0", "01" or "1_0"."""
    digits = text.removeprefix("-") if isinstance(text, str) else ""
    if not (digits.isascii() and digits.isdigit() and str(int(text)) == text):
        raise ValueError(f"{what} {text!r} is not an integer in decimal form")
    return int(text)


def _int(value, what: str) -> int:
    """An integer as given: a float, a bool or a string is not one."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _check_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"group order {order} exceeds cap {MAX_GROUP_ORDER}")


def _skey(sub: Iterable[int]) -> Tuple[int, Tuple[int, ...]]:
    elems = tuple(sorted(sub))
    return (len(elems), elems)


class FiniteGroup:
    """A finite group on elements 0..n-1 with a full multiplication table;
    every group, the named constructors' too, is checked to be one.  Its
    powers, lattice, subgroup classes, class names, containment and marks
    are cached properties built on first use; left_cosets keeps cosets."""

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table: Tuple[Perm, ...] = tuple(map(tuple, table))
        for row in self.table:
            if not set(map(type, row)) <= {int}:  # one entry is no int: name it
                for v in row:
                    _int(v, "table entry")
        self.order = len(self.table)
        if self.order == 0:
            raise ValueError("empty multiplication table")
        _check_order(self.order)
        self._validate()
        self._inverse = tuple(self.table[a].index(0) for a in range(self.order))
        self._cosets: Dict[Subgroup, "Cosets"] = {}

    def _validate(self) -> None:
        n = self.order
        ident = list(range(n))
        for row in self.table:
            if len(row) != n or sorted(row) != ident:
                raise ValueError("each table row must be a permutation of 0..n-1")
        for col in zip(*self.table):
            if sorted(col) != ident:
                raise ValueError("each table column must be a permutation of 0..n-1")
        if any(self.table[0][a] != a or self.table[a][0] != a for a in range(n)):
            raise ValueError("element 0 must be the identity")
        # Light's test: the g with (xg)y = x(gy) for all x, y are closed
        # under the product, so checking g over magma generators suffices.
        for g in self._magma_generators():
            col = self.table[g]
            for row in self.table:
                if [row[v] for v in col] != list(self.table[row[g]]):
                    raise ValueError("multiplication table is not associative")

    def _magma_generators(self) -> List[int]:
        """Elements that, with the identity 0, give the whole table as their
        closure under the product in every bracketing."""
        gens: List[int] = []
        closed = {0}
        for x in self.elements:
            if x in closed:
                continue
            gens.append(x)
            new = [x]
            closed.add(x)
            for a in new:
                for b in list(closed):
                    for p in (self.table[a][b], self.table[b][a]):
                        if p not in closed:
                            closed.add(p)
                            new.append(p)
        return gens

    # -- basic arithmetic -------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def element_order(self, a: int) -> int:
        return len(self._powers[a])

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.order)
            for b in range(a)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, degree: int, generators: Sequence[Sequence[int]]) -> "FiniteGroup":
        """Close permutation generators and build the multiplication table.

        Elements are the sorted permutation tuples, which puts the identity
        at index 0.  Composing on the right suffices, as in subgroup_closure.
        No generator gives the trivial group, whatever the degree.
        """
        if degree < 0:
            raise ValueError(f"degree {degree} is negative")
        gens = []
        for p in generators:
            pt = tuple(_int(v, "generator entry") for v in p)
            # the length test comes first, so an oversized degree builds no range
            if len(pt) != degree or sorted(pt) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
            gens.append(pt)
        if not gens:
            return cls([[0]])
        ident = tuple(range(degree))
        closure = {ident}
        walk = [ident]
        for p in walk:
            for q in gens:
                comp = tuple(p[q[i]] for i in range(degree))
                if comp not in closure:
                    closure.add(comp)
                    walk.append(comp)
            if len(closure) > MAX_GROUP_ORDER:
                raise GroupTooLarge(
                    f"generated group exceeds cap {MAX_GROUP_ORDER}"
                )
        perms = sorted(closure)
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(degree))] for q in perms]
            for p in perms
        ]
        return cls(table)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group needs n >= 1")
        _check_order(n)
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("symmetric group needs n >= 1")
        if n == 1:
            return cls.cyclic(1)
        if n >= 5:  # n! >= 120 > MAX_GROUP_ORDER, and n! is not computed
            raise GroupTooLarge(f"group order {n}! exceeds cap {MAX_GROUP_ORDER}")
        swap = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        return cls.from_generators(n, [swap, cycle])

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Symmetries of the regular n-gon, order 2n; for n = 2, where the
        reflection of the 2-gon fixes both vertices, the Klein four-group."""
        if n < 2:
            raise ValueError("dihedral group needs n >= 2")
        if n == 2:
            return cls.direct_product(cls.cyclic(2), cls.cyclic(2))
        _check_order(2 * n)
        rot = [(i + 1) % n for i in range(n)]
        ref = [(n - i) % n for i in range(n)]
        return cls.from_generators(n, [rot, ref])

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        n, m = a.order, b.order
        _check_order(n * m)
        table = [
            [a.mul(i // m, k // m) * m + b.mul(i % m, k % m) for k in range(n * m)]
            for i in range(n * m)
        ]
        return cls(table)

    # -- derived data, built once ------------------------------------------

    @cached_property
    def _powers(self) -> Tuple[Tuple[int, ...], ...]:
        """Per element a, (a, a^2, ..., a^k = 0) with k its order."""
        powers = []
        for a in self.elements:
            row, pw = self.table[a], [a]
            while pw[-1] != 0:
                pw.append(row[pw[-1]])
            powers.append(tuple(pw))
        return tuple(powers)

    @cached_property
    def _subgroups(self) -> Tuple[Subgroup, ...]:
        """The lattice, sorted by _skey, by prime-index normal extension (Neubueser 1960).

        Each subgroup H found is extended by one x per left coset xH not yet
        tried: when the least k with x^k in H is a prime and x normalizes H,
        K = H u Hx u ... u Hx^(k-1) is a subgroup in which H is normal of
        index k.  Both tests depend only on the coset xH, and every y in
        K - H gives K again; two such K of one H meet only in H, so marking
        all of K tried hides no other one.  The method is complete because
        every group with order at most MAX_GROUP_ORDER is solvable: each
        K > 1 then has a normal subgroup of prime index, found before K.
        """
        t, inv, powers = self.table, self._inverse, self._powers
        found = {frozenset({0})}
        queue = list(found)
        for h in queue:
            tried = bytearray(self.order)
            for x in self.elements:
                if tried[x]:
                    continue
                row = t[x]
                for s in h:
                    tried[row[s]] = 1
                k = 1
                for y in powers[x]:
                    if y in h:
                        break
                    k += 1
                if k not in _PRIMES:
                    continue
                x_inv = inv[x]
                for s in h:
                    if t[row[s]][x_inv] not in h:
                        break
                else:
                    k_elems = set(h)
                    for y in powers[x][:k - 1]:
                        k_elems.update([t[y][s] for s in h])
                    for y in k_elems:
                        tried[y] = 1
                    k_elems = frozenset(k_elems)
                    if k_elems not in found:
                        found.add(k_elems)
                        queue.append(k_elems)
        return tuple(sorted(found, key=_skey))

    @cached_property
    def _classes(self) -> Tuple[Tuple[Subgroup, ...], ...]:
        """Classes of subgroups sorted by representative, each sorted.

        The lattice is sorted, so the first member of a class met is its
        rep.  A conjugate xHx^-1 depends only on the coset xH, so it is
        taken once per coset.
        """
        t, inv = self.table, self._inverse
        seen = set()
        classes = []
        for h in self._subgroups:
            if h not in seen:
                orbit = set()
                covered = bytearray(self.order)
                for x in self.elements:
                    if not covered[x]:
                        row, x_inv = t[x], inv[x]
                        coset = [row[s] for s in h]
                        for y in coset:
                            covered[y] = 1
                        orbit.add(frozenset([t[y][x_inv] for y in coset]))
                seen |= orbit
                classes.append(tuple(sorted(orbit, key=_skey)))
        return tuple(classes)

    @cached_property
    def _class_of(self) -> Dict[Subgroup, int]:
        """Each subgroup's index in _classes."""
        return {h: i for i, cls in enumerate(self._classes) for h in cls}

    @cached_property
    def _names(self) -> Mapping[Subgroup, str]:
        """Read-only display names per class representative (class_names)."""
        base: List[Tuple[Subgroup, str]] = []
        for cls in self._classes:
            rep = cls[0]
            if len(rep) == 1:
                base.append((rep, "e"))
            elif is_cyclic_subgroup(self, rep):
                base.append((rep, f"C{len(rep)}"))
            else:
                base.append((rep, f"G{len(rep)}"))
        counts = Counter(name for _, name in base)
        seen: Dict[str, int] = {}
        names: Dict[Subgroup, str] = {}
        for rep, name in base:
            if counts[name] == 1:
                names[rep] = name
            else:
                seen[name] = seen.get(name, 0) + 1
                names[rep] = f"{name}#{seen[name]}"
        return MappingProxyType(names)

    @cached_property
    def _above(self) -> Tuple[Tuple[int, ...], ...]:
        """Per lattice index, the later indices of its proper supergroups.

        The lattice is sorted by order first, so every proper supergroup of
        a subgroup comes after it.  Per element, a bitmask has bit j set
        iff lattice index j holds it, and the masks of H's elements ANDed
        together give the subgroups that contain H.
        """
        subs = self._subgroups
        holders = [0] * self.order
        for j, h in enumerate(subs):
            for e in h:
                holders[e] |= 1 << j
        above = []
        for i, h in enumerate(subs):
            m = -1 << (i + 1)
            for e in h:
                m &= holders[e]
            later = []
            while m:
                later.append((m & -m).bit_length() - 1)
                m &= m - 1
            above.append(tuple(later))
        return tuple(above)

    @cached_property
    def _marks(self) -> "MarksTable":
        """The table of marks from class data alone (table_of_marks).

        x fixes the coset of H = reps[i] under K = reps[j] iff x^-1 K x <= H.
        Each conjugate K' <= H accounts for |N_G(K)| = |G| / |class(K)| such
        x, and each coset for |H|, so the entry is |G| #{K' <= H} /
        (|class(K)| |H|), counting K' <= H per class over H's subgroups.
        """
        classes, subs, class_of = self._classes, self._subgroups, self._class_of
        # per subgroup, its subgroups, itself included
        below: Dict[Subgroup, List[Subgroup]] = {h: [h] for h in subs}
        for h, above in zip(subs, self._above):
            for j in above:
                below[subs[j]].append(h)
        reps = [c[0] for c in classes]
        matrix = []
        for h in reps:
            row = [0] * len(classes)
            for c, count in Counter(class_of[k] for k in below[h]).items():
                row[c] = self.order * count // (len(classes[c]) * len(h))
            matrix.append(tuple(row))
        return MarksTable(
            reps=tuple(tuple(sorted(h)) for h in reps),
            names=tuple(self._names[h] for h in reps),
            matrix=tuple(matrix),
        )


# -- subgroups --------------------------------------------------------------


def subgroup_closure(g: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements.

    A Cayley-graph walk from the identity, O(|closure| * #gens): right
    multiplication by the generators suffices, as in a finite group every
    inverse is a positive power.
    """
    gens = tuple(gens)
    seen = {0}
    walk = [0]
    for a in walk:
        row = g.table[a]
        for s in gens:
            if row[s] not in seen:
                seen.add(row[s])
                walk.append(row[s])
    return frozenset(seen)


def is_subgroup(g: FiniteGroup, elems: Iterable[int]) -> bool:
    """True iff the elements form a subgroup: a lookup in the class map,
    which holds every subgroup.  Elements outside 0..|G|-1 give False."""
    return frozenset(elems) in g._class_of


class Cosets(NamedTuple):
    """The left cosets xH of a subgroup H, ordered by their smallest member,
    and index[x], the position of the coset that holds x."""

    cosets: Tuple[FrozenSet[int], ...]
    index: Tuple[int, ...]


def left_cosets(g: FiniteGroup, h: Subgroup) -> Cosets:
    """Left cosets of the subgroup h, built once per subgroup.

    Walking the elements in order, each one not yet covered is the smallest
    member of the next coset, so each coset is built once.  Raises
    ValueError naming a set that is not a subgroup.
    """
    h = frozenset(h)
    found = g._cosets.get(h)
    if found is None:
        _class_index(g, h)  # a ValueError for a set that is not a subgroup
        index = [-1] * g.order
        cosets: List[FrozenSet[int]] = []
        for x in g.elements:
            if index[x] < 0:
                row = g.table[x]
                c = frozenset(row[s] for s in h)
                for y in c:
                    index[y] = len(cosets)
                cosets.append(c)
        found = g._cosets[h] = Cosets(cosets=tuple(cosets), index=tuple(index))
    return found


def enumerate_subgroups(g: FiniteGroup) -> Tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, sorted elements); built once per group."""
    return g._subgroups


def conjugate_subgroup(g: FiniteGroup, sub: Iterable[int], x: int) -> Subgroup:
    """x sub x^-1, read off the table."""
    row, x_inv = g.table[x], g.inv(x)
    return frozenset([g.table[row[s]][x_inv] for s in sub])


def is_normal(g: FiniteGroup, sub: Subgroup) -> bool:
    """True iff sub is the only member of its class."""
    return len(g._classes[_class_index(g, sub)]) == 1


def subgroup_conjugacy_classes(g: FiniteGroup) -> Tuple[Tuple[Subgroup, ...], ...]:
    """Conjugacy classes of subgroups, each sorted, classes sorted by representative."""
    return g._classes


def _class_index(g: FiniteGroup, sub: Iterable[int]) -> int:
    """The index of sub's class in g._classes."""
    s = frozenset(sub)
    if s not in g._class_of:
        raise ValueError(f"{sorted(s)} is not a subgroup of the group")
    return g._class_of[s]


def class_rep_of(g: FiniteGroup, sub: Iterable[int]) -> Subgroup:
    """Conjugate smallest under _skey: a lookup for subgroups, a scan otherwise."""
    s = frozenset(sub)
    if s in g._class_of:
        return g._classes[g._class_of[s]][0]
    if not all(0 <= x < g.order for x in s):
        raise ValueError(f"{sorted(s)} has an element outside the group")
    return min((conjugate_subgroup(g, s, x) for x in g.elements), key=_skey)


def is_subconjugate(g: FiniteGroup, h: Subgroup, k: Subgroup) -> bool:
    """True iff some conjugate of h lies inside k, i.e. iff (G/k)^h, a mark, is not empty."""
    return table_of_marks(g).matrix[_class_index(g, k)][_class_index(g, h)] != 0


def is_cyclic_subgroup(g: FiniteGroup, sub: Subgroup) -> bool:
    return any(g.element_order(x) == len(sub) for x in sub)


def class_names(g: FiniteGroup) -> Mapping[Subgroup, str]:
    """Deterministic display names for subgroup classes, keyed by representative.

    Trivial class is "e", cyclic classes are "C<order>", the rest "G<order>";
    same-named classes get "#1", "#2", ... suffixes in representative order.
    Built once per group; the mapping is read-only.
    """
    return g._names


def parse_subgroup_token(g: FiniteGroup, token: str) -> Subgroup:
    """Resolve a subgroup named in CLI input.

    Accepts "e", "G" (the full group), a class name from class_names, or an
    explicit element list like "{0,3}" of distinct canonical decimals.
    """
    tok = token.strip()
    if tok == "e":
        return frozenset({0})
    if tok == "G":
        return frozenset(g.elements)
    if tok.startswith("{") and tok.endswith("}"):
        listed = [_decimal_int(v.strip(), "subgroup element") for v in tok[1:-1].split(",")]
        elems = frozenset(listed)
        if len(elems) != len(listed):
            raise ValueError(f"{token} repeats an element")
        if not is_subgroup(g, elems):
            raise ValueError(f"{token} is not a subgroup")
        return elems
    for rep, name in class_names(g).items():
        if name == tok:
            return rep
    raise ValueError(f"unknown subgroup name: {token!r}")


def subconjugacy_total_order(
    g: FiniteGroup, reps: Optional[Sequence[Subgroup]] = None
) -> List[Subgroup]:
    """Class representatives ordered so larger classes come first.

    Proper subconjugacy strictly drops the order, so sorting by descending
    order (ties by representative) is a linear extension of the poset.
    """
    if reps is None:
        reps = [cls[0] for cls in subgroup_conjugacy_classes(g)]
    return sorted(reps, key=lambda r: (-len(r), tuple(sorted(r))))


# -- chains -----------------------------------------------------------------


def validate_chain(g: FiniteGroup, chain: Sequence[Iterable[int]]) -> Tuple[Subgroup, ...]:
    """Check a strictly increasing subgroup chain H_0 < H_1 < ... < H_n."""
    subs = tuple(frozenset(h) for h in chain)
    if not subs:
        raise NotStrictChain("empty chain")
    for h in subs:
        if not is_subgroup(g, h):
            raise NotStrictChain(f"not a subgroup: {sorted(h)}")
    for lo, hi in zip(subs, subs[1:]):
        if not (lo < hi):
            raise NotStrictChain(
                f"chain not strictly increasing: {sorted(lo)} then {sorted(hi)}"
            )
    return subs


def enumerate_chains(g: FiniteGroup, max_len: int) -> List[Tuple[Subgroup, ...]]:
    """All strict subgroup chains with at most max_len inclusions.

    Chains come by length, and within a length in lexicographic order of
    their lattice indices, which is their order under _skey.  Each level
    extends the previous one in order, so it comes out sorted.
    """
    subs = enumerate_subgroups(g)
    up = {h: [subs[j] for j in js] for h, js in zip(subs, g._above)}
    level = [(h,) for h in subs]
    chains = list(level)
    for _ in range(max_len):
        level = [chain + (k,) for chain in level for k in up[chain[-1]]]
        chains.extend(level)
    return chains


def chain_name(g: FiniteGroup, chain: Sequence[Subgroup]) -> str:
    names = class_names(g)
    return "<".join(names[class_rep_of(g, h)] for h in chain)


# -- table of marks ----------------------------------------------------------


class _MarksTableFields(NamedTuple):
    reps: Tuple[Tuple[int, ...], ...]
    names: Tuple[str, ...]
    matrix: Tuple[Tuple[int, ...], ...]


class MarksTable(Record, _MarksTableFields):
    """Table of marks: matrix[i][j] = |(G/reps[i])^{reps[j]}|.

    Representatives are in ascending subconjugacy-compatible order, which
    makes the matrix lower triangular with positive diagonal.  An entry is
    nonzero only where reps[j] is subconjugate to reps[i], so the solvers
    read, per column j, only the nonzero entries below the diagonal.
    """

    @cached_property
    def below(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per column j: (i, matrix[i][j]) for each nonzero entry with i > j."""
        m = self.matrix
        return tuple(
            tuple((i, m[i][j]) for i in range(j + 1, len(m)) if m[i][j])
            for j in range(len(m))
        )

    def solve_marks(self, marks: Sequence[int]) -> Tuple[Fraction, ...]:
        """Solve transpose(matrix) @ c = marks exactly by back substitution.

        The substitution runs on integers: each c[j] is kept as its
        numerator over one common denominator d, the lcm of the marks'
        denominators times the product of the diagonal.  That product is
        the determinant, so d * c is integral and every division is exact;
        one Fraction per entry at the end reduces it.
        """
        n = len(self.reps)
        if len(marks) != n:
            raise ValueError(f"marks vector needs {n} entries, got {len(marks)}")
        rhs = [Fraction(v) for v in marks]
        d = lcm(*(v.denominator for v in rhs))
        for r in range(n):
            d *= self.matrix[r][r]
        num = [0] * n
        # row r of the transpose reads sum_{j >= r} matrix[j][r] * c[j]
        for r in range(n - 1, -1, -1):
            acc = rhs[r].numerator * (d // rhs[r].denominator)
            for j, m in self.below[r]:
                acc -= m * num[j]
            num[r] = acc // self.matrix[r][r]
        return tuple(Fraction(v, d) for v in num)

    def marks_of(self, coeffs: Sequence) -> Tuple:
        """Marks of sum_i coeffs[i] * [G/reps[i]], on integer numerators; ints in, ints out."""
        d = lcm(*(v.denominator for v in coeffs))
        num = [v.numerator * (d // v.denominator) for v in coeffs]
        marks = tuple(
            sum((num[i] * m for i, m in col), num[j] * self.matrix[j][j])
            for j, col in enumerate(self.below)
        )
        return marks if set(map(type, coeffs)) <= {int} else tuple(Fraction(v, d) for v in marks)

    def integral_solution(self, marks: Sequence[int]) -> Tuple[int, ...]:
        """Like solve_marks but demands integers; NonIntegral carries the witness."""
        c = self.solve_marks(marks)
        if any(v.denominator != 1 for v in c):
            raise NonIntegral(
                "marks vector is not in the image of the Burnside ring: "
                + ", ".join(f"{n}={v}" for n, v in zip(self.names, c)),
                witness=c,
            )
        return tuple(int(v) for v in c)


def table_of_marks(g: FiniteGroup) -> MarksTable:
    """The table of marks from class data alone, built once per group."""
    return g._marks
