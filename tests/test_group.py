"""Finite groups, subgroup lattices, conjugacy, and tables of marks."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import oracles
from isokit import group as group_module
from isokit.errors import GroupTooLarge, NonIntegral
from isokit.group import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    class_names,
    class_rep_of,
    conjugate_subgroup,
    enumerate_chains,
    enumerate_subgroups,
    is_normal,
    is_subconjugate,
    is_subgroup,
    parse_subgroup_token,
    subconjugacy_total_order,
    subgroup_closure,
    subgroup_conjugacy_classes,
    table_of_marks,
    validate_chain,
)

SMALL_GROUPS = {
    "c2": lambda: FiniteGroup.cyclic(2),
    "c6": lambda: FiniteGroup.cyclic(6),
    "c12": lambda: FiniteGroup.cyclic(12),
    "s3": lambda: FiniteGroup.symmetric(3),
    "d4": lambda: FiniteGroup.dihedral(4),
    "c2xc2": lambda: FiniteGroup.direct_product(
        FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    ),
}


def _relabel(g, seed):
    """The same group on a seeded permutation of its non-identity elements."""
    rng = random.Random(seed)
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    back = {p: i for i, p in enumerate(perm)}
    n = range(g.order)
    return FiniteGroup([[perm[g.mul(back[a], back[b])] for b in n] for a in n])


def _cyclic_power(n, k):
    g = FiniteGroup.cyclic(n)
    for _ in range(k - 1):
        g = FiniteGroup.direct_product(g, FiniteGroup.cyclic(n))
    return g


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity
    # associativity failure: latin square that is not a group
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        FiniteGroup(bad)


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: FiniteGroup([[0, 1.7], [1, 0]]), "1.7"),
        (lambda: FiniteGroup([[0, True], [True, 0]]), "True"),
        (lambda: FiniteGroup([[0, "1"], ["1", 0]]), "'1'"),
        (lambda: FiniteGroup.from_generators(2, [(1.0, 0)]), "1.0"),
        (lambda: FiniteGroup.from_generators(2, [(True, 0)]), "True"),
    ],
)
def test_table_and_generator_entries_must_be_integers(make, bad):
    """A float, a bool or a string is named, not truncated to an int."""
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}$"):
        make()
    assert FiniteGroup([[0, 1], [1, 0]]) == FiniteGroup.from_generators(2, [(1, 0)])


def test_constructors_basics():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6 and not s3.is_abelian()
    assert FiniteGroup.cyclic(5).is_abelian()
    d4 = FiniteGroup.dihedral(4)
    assert d4.order == 8 and not d4.is_abelian()
    prod = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    assert prod.order == 6 and prod.is_abelian()
    for g in (s3, d4, prod):
        for a in g.elements:
            assert g.mul(a, g.inv(a)) == 0
            assert g.element_order(a) > 0 and g.order % g.element_order(a) == 0


# sha256 of repr(FiniteGroup.dihedral(n).table), as the permutation
# construction has always built them
DIHEDRAL_TABLES = {
    3: "04734113c8f3b77035d22c065322e0f8a39e92aeb53a92a3c6d0628d4621058d",
    4: "6e77a1f607f05cf8bf71256f39818d5b6d7cb208486f331e78d3db860d20f5f3",
    5: "d31e9a27da2c94abc2b29cf970b48b6986c6650b8ab149eaea7729ccea5a24ae",
    6: "483d4ada39d890a14deb98ee37e1811a91db0d0f4c94b0c91f1210bd15af37e4",
    7: "4733094647a7385b34de85e0b77a6340607a23063b91edd3db4a51dfdd30767d",
    8: "e921a249b91e2cf98ed90fe8183b8e49ae46838317f03e008181c5fc4620c52f",
}


def test_dihedral_2_is_the_klein_four_group():
    """The reflection of the 2-gon fixes both vertices, so D2 is C2 x C2,
    of order 2n = 4; the larger dihedral tables are unchanged."""
    d2 = FiniteGroup.dihedral(2)
    assert d2.order == 4 and d2.is_abelian()
    assert len(enumerate_subgroups(d2)) == 5
    assert sorted(d2.element_order(a) for a in d2.elements) == [1, 2, 2, 2]
    for n, digest in DIHEDRAL_TABLES.items():
        g = FiniteGroup.dihedral(n)
        assert g.order == 2 * n
        assert hashlib.sha256(repr(g.table).encode()).hexdigest() == digest


def test_negative_degree_is_rejected_before_the_generators():
    for gens in ([], [[0]]):
        with pytest.raises(ValueError, match="degree -3 is negative"):
            FiniteGroup.from_generators(-3, gens)


def test_group_order_cap():
    with pytest.raises(GroupTooLarge):
        FiniteGroup.symmetric(5)  # order 120 > default cap 48
    with pytest.raises(GroupTooLarge):
        FiniteGroup.cyclic(49)


def test_named_constructors_check_the_cap_before_building(monkeypatch):
    """An oversized named group raises GroupTooLarge before any table or
    permutation is built: building one refuses here."""
    c48 = FiniteGroup.cyclic(48)

    def refuse(*args):
        raise AssertionError("an oversized group was built")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(FiniteGroup, "from_generators", classmethod(refuse))
    for make, n, order in (
        (FiniteGroup.cyclic, 49, "49"),
        (FiniteGroup.cyclic, 2000, "2000"),
        (FiniteGroup.dihedral, 25, "50"),
        (FiniteGroup.dihedral, 2000, "4000"),
        (FiniteGroup.symmetric, 5, "5!"),
        (FiniteGroup.symmetric, 2000, "2000!"),
    ):
        with pytest.raises(GroupTooLarge, match=f"^group order {order} exceeds cap 48$"):
            make(n)
    with pytest.raises(GroupTooLarge, match="^group order 2304 exceeds cap 48$"):
        FiniteGroup.direct_product(c48, c48)


def test_order_cap_admits_only_solvable_groups():
    """The lattice reaches each subgroup from a normal subgroup of prime
    index, which every subgroup of a solvable group has.  Every group of
    order below 60 is solvable; A5, of order 60, has no such subgroup."""
    assert MAX_GROUP_ORDER < 60


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroups_match_bruteforce(name):
    g = SMALL_GROUPS[name]()
    expected = oracles.subgroups_bruteforce(g.table)
    got = sorted(enumerate_subgroups(g), key=lambda s: (len(s), sorted(s)))
    assert [set(s) for s in got] == [set(s) for s in expected]
    for sub in got:
        assert is_subgroup(g, sub)
        assert subgroup_closure(g, sub) == frozenset(sub)


# closed formulas: D24 tau(24)+sigma(24); C2^4 and C3^3 Gaussian binomials;
# D8xC3 19 subgroups of D8 times the 2 of C3 (coprime orders); S4 30
@pytest.mark.parametrize("name, make, count", [
    ("d24", lambda: FiniteGroup.dihedral(24), 68),
    ("c2^4", lambda: _cyclic_power(2, 4), 67),
    ("c3^3", lambda: _cyclic_power(3, 3), 28),
    ("d8xc3", lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(8), FiniteGroup.cyclic(3)), 38),
    ("s4", lambda: FiniteGroup.symmetric(4), 30),
])
def test_subgroup_counts_on_relabelled_tables(name, make, count):
    for seed in (0, 1):
        g = _relabel(make(), seed)
        subs = enumerate_subgroups(g)
        assert len(subs) == len(set(subs)) == count
        assert all(is_subgroup(g, h) for h in subs)


def test_subgroup_closure_matches_bruteforce():
    rng = random.Random(5)
    for g in (FiniteGroup.dihedral(6), _relabel(FiniteGroup.symmetric(3), 2)):
        subs = oracles.subgroups_bruteforce(g.table)
        for _ in range(40):
            gens = rng.sample(range(g.order), rng.randint(0, 3))
            smallest = frozenset.intersection(*(h for h in subs if set(gens) <= h))
            assert subgroup_closure(g, gens) == smallest


@pytest.mark.parametrize("g", [FiniteGroup.symmetric(4), FiniteGroup.dihedral(6)], ids=["s4", "d6"])
def test_class_rep_lookup_matches_definition(g):
    def by_definition(sub):
        return min((conjugate_subgroup(g, sub, x) for x in g.elements),
                   key=lambda s: (len(s), sorted(s)))

    for h in enumerate_subgroups(g):
        assert class_rep_of(g, h) == by_definition(h)
    not_a_subgroup = frozenset({0, 1, 2})
    assert not is_subgroup(g, not_a_subgroup)
    assert class_rep_of(g, not_a_subgroup) == by_definition(not_a_subgroup)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_conjugacy_classes_match_bruteforce(name):
    g = SMALL_GROUPS[name]()
    expected = sorted(
        tuple(sorted(tuple(sorted(s)) for s in c))
        for c in oracles.conjugacy_partition(
            g.table, oracles.subgroups_bruteforce(g.table)
        )
    )
    got = sorted(
        tuple(sorted(tuple(sorted(s)) for s in c))
        for c in subgroup_conjugacy_classes(g)
    )
    assert got == expected


def test_conjugation_and_normality():
    g = FiniteGroup.symmetric(3)
    subs = enumerate_subgroups(g)
    for h in subs:
        assert is_normal(g, h) == all(
            conjugate_subgroup(g, h, x) == h for x in g.elements
        )
        for x in g.elements:
            conj = conjugate_subgroup(g, h, x)
            assert is_subgroup(g, conj)
            assert class_rep_of(g, conj) == class_rep_of(g, h)
    # S3: e and C3 and S3 normal, the three C2s not
    normal = [h for h in subs if is_normal(g, h)]
    assert sorted(len(h) for h in normal) == [1, 3, 6]


def test_class_names_scheme():
    assert set(class_names(FiniteGroup.symmetric(3)).values()) == {
        "e",
        "C2",
        "C3",
        "G6",
    }
    # conjugate C2s in S3 share one name; the three in C2xC2 do not
    c2xc2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert set(class_names(c2xc2).values()) == {"e", "C2#1", "C2#2", "C2#3", "G4"}


def test_class_names_cannot_be_changed_by_callers():
    g = FiniteGroup.symmetric(3)
    names = class_names(g)
    before = dict(names)
    rep = next(iter(before))
    with pytest.raises(TypeError):
        names[rep] = "renamed"
    with pytest.raises(TypeError):
        del names[rep]
    assert dict(class_names(g)) == before


def _is_group_by_definition(t):
    n = range(len(t))
    return (
        all(sorted(row) == list(n) for row in t)
        and all(sorted(col) == list(n) for col in zip(*t))
        and all(t[0][a] == a and t[a][0] == a for a in n)
        and all(t[t[a][b]][c] == t[a][t[b][c]] for a in n for b in n for c in n)
    )


def _intercalates(t):
    """2x2 subsquares off the identity row and column: (r1, r2, c1, c2)."""
    n = range(1, len(t))
    return [
        (r1, r2, c1, c2)
        for r1 in n for r2 in n if r1 < r2
        for c1 in n for c2 in n if c1 < c2
        if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
    ]


ORDER_8_TO_24 = [
    lambda: FiniteGroup.cyclic(8),
    lambda: FiniteGroup.dihedral(4),
    lambda: _cyclic_power(2, 3),
    lambda: FiniteGroup.cyclic(9),
    lambda: FiniteGroup.dihedral(5),
    lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.symmetric(3)),
    lambda: FiniteGroup.cyclic(15),
    lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
    lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)),
    lambda: FiniteGroup.dihedral(10),
    lambda: FiniteGroup.cyclic(21),
    lambda: FiniteGroup.symmetric(4),
]


def test_one_swapped_entry_is_rejected_like_the_full_check():
    """Light's associativity test agrees with all |G|^3 triples on mutated tables.

    A swap of two cells in one row breaks a column.  Swapping the two values
    of a 2x2 subsquare keeps a latin square with identity, so only the
    associativity check can reject it.
    """
    rng = random.Random(7)
    assoc_only = 0
    for i in range(48):
        g = _relabel(rng.choice(ORDER_8_TO_24)(), i)
        t = [list(row) for row in g.table]
        squares = _intercalates(t) if rng.random() < 0.6 else []
        if squares:
            r1, r2, c1, c2 = rng.choice(squares)
            t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
            t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
        else:
            r = rng.randrange(1, len(t))
            c1, c2 = rng.sample(range(1, len(t)), 2)
            t[r][c1], t[r][c2] = t[r][c2], t[r][c1]
        if _is_group_by_definition(t):
            FiniteGroup(t)
            continue
        with pytest.raises(ValueError):
            FiniteGroup(t)
        assoc_only += bool(squares)
    assert assoc_only >= 10


def test_parse_subgroup_token():
    g = FiniteGroup.symmetric(3)
    assert parse_subgroup_token(g, "e") == frozenset({0})
    assert len(parse_subgroup_token(g, "C2")) == 2
    assert parse_subgroup_token(g, "G6") == frozenset(g.elements)
    with pytest.raises(ValueError):
        parse_subgroup_token(g, "C5")


def test_is_subgroup_matches_the_closure_test_on_subsets():
    """The class-map lookup agrees with all(a*b in s) on subsets with 0."""

    def by_definition(g, s):
        return all(g.mul(a, b) in s for a in s for b in s)

    small = [FiniteGroup.symmetric(3), SMALL_GROUPS["c2xc2"]()]
    for g in small:
        rest = range(1, g.order)
        for k in range(g.order):
            for extra in combinations(rest, k):
                s = frozenset((0,) + extra)
                assert is_subgroup(g, s) == by_definition(g, s), sorted(s)
    s4 = FiniteGroup.symmetric(4)
    rng = random.Random(3)
    subs = enumerate_subgroups(s4)
    for i in range(200):
        if i % 4 == 0:
            # a subgroup with one element dropped or added, so both answers occur
            h = set(rng.choice(subs))
            h.symmetric_difference_update({rng.randrange(1, s4.order)})
            s = frozenset(h | {0})
        else:
            s = frozenset([0] + rng.sample(range(1, s4.order), rng.randint(0, 12)))
        assert is_subgroup(s4, s) == by_definition(s4, s), sorted(s)
    assert all(is_subgroup(s4, h) for h in subs)


def test_is_subgroup_rejects_elements_outside_the_group():
    g = FiniteGroup.cyclic(4)
    assert not is_subgroup(g, {0, 99})
    assert not is_subgroup(g, {0, 2, 4})
    assert not is_subgroup(g, {0, -1})
    assert not is_subgroup(g, {1, 2, 3})
    assert is_subgroup(g, {0, 2})
    with pytest.raises(ValueError, match="not a subgroup"):
        parse_subgroup_token(g, "{0,99}")


def test_subconjugacy_order_and_chains():
    g = FiniteGroup.symmetric(3)
    order = subconjugacy_total_order(g)
    # total order extends subconjugacy: H before K whenever H subconjugate to K
    for i, h in enumerate(order):
        for k in order[i + 1 :]:
            assert not (is_subconjugate(g, k, h) and len(k) > len(h))
    chains = enumerate_chains(g, 2)
    for chain in chains:
        validate_chain(g, chain)
        for a, b in zip(chain, chain[1:]):
            assert frozenset(a) < frozenset(b)
    # strictly increasing pairs in S3: e<C2 (x3), e<C3, e<G6, C2<G6 (x3), C3<G6
    assert sum(1 for c in chains if len(c) == 2) == 9
    with pytest.raises(Exception):
        validate_chain(g, [frozenset({0, 1}), frozenset({0, 1})])


MARKS_GROUPS = dict(SMALL_GROUPS, **{
    "s4": lambda: FiniteGroup.symmetric(4),
    "d4xc2": lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2)),
    "c2^3": lambda: _cyclic_power(2, 3),
})


def _chains_by_definition(g, max_len):
    """Recursive growth from each subgroup, then a sort by (length, _skey)."""
    subs = enumerate_subgroups(g)
    chains = []

    def grow(chain):
        chains.append(chain)
        if len(chain) - 1 >= max_len:
            return
        for s in subs:
            if chain[-1] < s:
                grow(chain + (s,))

    for s in subs:
        grow((s,))
    chains.sort(key=lambda ch: (len(ch), [(len(h), sorted(h)) for h in ch]))
    return chains


@pytest.mark.parametrize("name", sorted(MARKS_GROUPS))
def test_enumerate_chains_matches_the_sorted_recursive_definition(name):
    g = MARKS_GROUPS[name]()
    for k in range(4):
        assert enumerate_chains(g, k) == _chains_by_definition(g, k)


# the eight families of the group-lattices benchmark, orders 16 to 48
LATTICE_FAMILIES = {
    "D24": lambda: FiniteGroup.dihedral(24),
    "S4xC2": lambda: FiniteGroup.direct_product(FiniteGroup.symmetric(4), FiniteGroup.cyclic(2)),
    "D12xC2": lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(12), FiniteGroup.cyclic(2)),
    "S3xS3": lambda: FiniteGroup.direct_product(FiniteGroup.symmetric(3), FiniteGroup.symmetric(3)),
    "D8xC3": lambda: FiniteGroup.direct_product(FiniteGroup.dihedral(8), FiniteGroup.cyclic(3)),
    "C2^4": lambda: _cyclic_power(2, 4),
    "S4": lambda: FiniteGroup.symmetric(4),
    "C3^3": lambda: _cyclic_power(3, 3),
}


def _matrix_group_mod3(dets):
    """The 2x2 matrices mod 3 with determinant in dets, identity first."""
    mats = sorted(
        (m for m in product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 in dets),
        key=lambda m: m != (1, 0, 0, 1),
    )
    index = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return tuple(
            (a[2 * r] * b[c] + a[2 * r + 1] * b[2 + c]) % 3 for r in range(2) for c in range(2)
        )

    return FiniteGroup([[index[mul(a, b)] for b in mats] for a in mats])


# determinants, order and subgroup count of GL(2,3) and SL(2,3)
MATRIX_GROUPS = {"GL(2,3)": ({1, 2}, 48, 55), "SL(2,3)": ({1}, 24, 15)}


def _lattice_group(name):
    """A MATRIX_GROUPS group, or a LATTICE_FAMILIES one relabelled by seed 3."""
    if name in MATRIX_GROUPS:
        return _matrix_group_mod3(MATRIX_GROUPS[name][0])
    return _relabel(LATTICE_FAMILIES[name](), 3)


@pytest.mark.parametrize("name", sorted(LATTICE_FAMILIES) + sorted(MATRIX_GROUPS))
def test_subgroups_match_the_join_oracle(name):
    """Up to order 48, judged by joins of cyclic subgroups, which need no
    solvability; GL(2,3) and SL(2,3) are not in the benchmark's families."""
    g = _lattice_group(name)
    if name in MATRIX_GROUPS:
        assert (g.order, len(enumerate_subgroups(g))) == MATRIX_GROUPS[name][1:]
    assert list(enumerate_subgroups(g)) == oracles.subgroups_by_joins(g.table)


@pytest.mark.parametrize("name", sorted(LATTICE_FAMILIES) + sorted(MATRIX_GROUPS))
def test_subconjugacy_and_normality_match_the_definitions(name):
    """Over every ordered pair of subgroups: h is subconjugate to k iff some
    conjugate of h lies in k, and h is normal iff every conjugate is h."""
    g = _lattice_group(name)
    subs = enumerate_subgroups(g)
    conjugates = {h: {conjugate_subgroup(g, h, x) for x in g.elements} for h in subs}
    for h in subs:
        assert is_normal(g, h) == (conjugates[h] == {h})
        for k in subs:
            assert is_subconjugate(g, h, k) == any(c <= k for c in conjugates[h])


def _marks_group(name):
    """A MARKS_GROUPS group, or a LATTICE_FAMILIES one named family/seed."""
    if "/" in name:
        family, seed = name.split("/")
        return _relabel(LATTICE_FAMILIES[family](), int(seed))
    return MARKS_GROUPS[name]()


def _lattice_report(g):
    """The sorted lattice, its containment table, the marks and the
    solutions of 25 seeded marks vectors."""
    mt = table_of_marks(g)
    rng = random.Random(25)
    vectors = [[rng.randint(-9, 9) for _ in mt.names] for _ in range(25)]
    return json.dumps({
        "subgroups": [sorted(h) for h in enumerate_subgroups(g)],
        "containment": g._above,
        "marks": mt.matrix,
        "solved": [[str(c) for c in mt.solve_marks(v)] for v in vectors],
    })


# sha256 of _lattice_report per family and relabelling seed, taken when
# each extension walked its subgroup from the identity and the marks
# compared frozensets
GOLDEN_LATTICE_DIGESTS = {
    "C2^4/1": "56fd8fdf5757a55ad5e17913441fbdbf95e9075fe35e97e612405d68da379493",
    "C2^4/2": "6273d17b67f834ddaf3e371cb338118281257cd2348b635db80760545a2f9771",
    "C3^3/1": "d12da16c8dfdcbbc26c70bdeabc8b514072a7e38bb2964e09e83ca9a8d2a9e40",
    "C3^3/2": "bdeddf64401fdcf9064e70cf1adb1647129ddf4a5e12ed4d61084208d903ed61",
    "D12xC2/1": "091e967b6bfe59db307cc7c0341c979f2dffaa763985b729af1c8cb685d158cb",
    "D12xC2/2": "9d25d5c9415c4a08236591b196fac5036801aaa622abf16874340ee04d142794",
    "D24/1": "c6e5db6a755278b5c35413150bb768d9238733eee0a1d0ab074113c9b433873c",
    "D24/2": "5b90e0a246b20662d420da0ddad0a18b7192fcd7ea83f76ae2fb438c75104048",
    "D8xC3/1": "f3d5b23e7ae73d8d16048d26f5c899434cfe9ff43cef1e54b044431a0eddd110",
    "D8xC3/2": "a57be58ceb905dd365a406aa69a3ffa7c0b9c0cac5291f64376e9dd611b9face",
    "S3xS3/1": "3143227b40f712822fef9054e0dd01959225a365743bc7dcd19697698c862e97",
    "S3xS3/2": "195fed7a409461c4bd7302363641f02d4c3af07f9fa22f361ff57d157f20d8c9",
    "S4/1": "c602fa3665d33bd534bcf9820b0493b580c822211e95ce07bd569f6107c3b20e",
    "S4/2": "6c0925fd0dfe78b7a47b77d7f136c4219c8d29c25b6138093c48a59f16e6b011",
    "S4xC2/1": "917a7fc6a3724f6d32f59c287ebb4a4e36129a0f2c6f995e53cbd254c4e79f72",
    "S4xC2/2": "5e9cbd6800a45fe6897ae868418c9f984e2bc08a0c25fedae9051f616b3d0d31",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_LATTICE_DIGESTS))
def test_lattice_reports_are_pinned(key):
    text = _lattice_report(_marks_group(key))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LATTICE_DIGESTS[key]


def test_lattice_makes_no_closure_walk_from_the_identity(count_calls):
    """Each subgroup is extended from its own elements."""
    calls = count_calls("subgroup_closure", group_module)
    assert len(enumerate_subgroups(_relabel(FiniteGroup.dihedral(24), 3))) == 68
    assert calls == []


@pytest.mark.parametrize("family", sorted(LATTICE_FAMILIES))
def test_each_query_answers_the_same_as_the_first_call_on_a_group(family):
    """Every public query may be the first call on a group: the data it
    reads is built on demand, whatever was built before."""
    warm = LATTICE_FAMILIES[family]()
    subs = enumerate_subgroups(warm)
    table_of_marks(warm)
    reps = [c[0] for c in subgroup_conjugacy_classes(warm)]
    # the subgroups and some element sets that are none: a pair with the
    # identity, a set without it, and the group less one element
    probes = list(subs) + [frozenset({0, 1}), frozenset({1}), frozenset(range(1, warm.order))]
    queries = {
        "is_subgroup": lambda g: [is_subgroup(g, s) for s in probes],
        "class_rep_of": lambda g: [class_rep_of(g, s) for s in probes],
        "is_normal": lambda g: [is_normal(g, h) for h in subs],
        "is_subconjugate": lambda g: [is_subconjugate(g, h, k) for h in subs for k in reps],
        "class_names": lambda g: dict(class_names(g)),
        "table_of_marks": table_of_marks,
        "enumerate_chains": lambda g: enumerate_chains(g, 2),
    }
    for name, query in queries.items():
        assert query(LATTICE_FAMILIES[family]()) == query(warm), name


@pytest.mark.parametrize("name", sorted(MARKS_GROUPS) + ["D12xC2/1", "S4xC2/2"])
def test_marks_match_counting_oracle(name):
    g = _marks_group(name)
    mt = table_of_marks(g)
    assert table_of_marks(g) is mt  # built once per group
    for i, h in enumerate(mt.reps):
        for j, k in enumerate(mt.reps):
            direct = oracles.fixed_coset_count(g.table, frozenset(h), frozenset(k))
            assert mt.matrix[i][j] == direct
    # lower triangular with positive diagonal
    n = len(mt.reps)
    for i in range(n):
        assert mt.matrix[i][i] > 0
        for j in range(i + 1, n):
            assert mt.matrix[i][j] == 0


def test_c2_and_s3_marks_frozen():
    mt = table_of_marks(FiniteGroup.cyclic(2))
    assert mt.names == ("e", "C2")
    assert mt.matrix == ((2, 0), (1, 1))
    mt = table_of_marks(FiniteGroup.symmetric(3))
    assert mt.names == ("e", "C2", "C3", "G6")
    assert mt.matrix == ((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1))


@pytest.mark.parametrize("name", ["c2", "s3", "c2xc2", "s4", "d4xc2", "c2^3", "S3xS3/1"])
def test_solve_marks_matches_generic_solver(name):
    g = _marks_group(name)
    mt = table_of_marks(g)
    n = len(mt.reps)
    rng = random.Random(11)
    for k in range(30):
        marks = [rng.randint(-6, 6) for _ in range(n)]
        if k >= 25:  # fractional right-hand sides share no denominator
            marks = [Fraction(v, rng.randint(1, 9)) for v in marks]
        transpose = [[mt.matrix[j][i] for j in range(n)] for i in range(n)]
        assert list(mt.solve_marks(marks)) == oracles.solve_rational(transpose, marks)
    # round trip through orbit coefficients; marks_of against the full product
    for _ in range(10):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        dense = tuple(sum(coeffs[i] * mt.matrix[i][j] for i in range(n)) for j in range(n))
        assert mt.marks_of(coeffs) == dense
        assert mt.solve_marks(mt.marks_of(coeffs)) == tuple(coeffs)


def test_marks_of_inverts_solve_marks():
    """On relabelled lattice families, marks_of(solve_marks(v)) == v for
    integer and fractional marks v, and integer coefficients v give
    integer marks with solve_marks(marks_of(v)) == v."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tables = {}

    @hypothesis.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(LATTICE_FAMILIES)), st.integers(0, 1), st.data())
    def check(family, seed, data):
        if (family, seed) not in tables:
            tables[family, seed] = table_of_marks(_relabel(LATTICE_FAMILIES[family](), seed))
        mt = tables[family, seed]
        n = len(mt.reps)
        ints = st.integers(-10**6, 10**6)
        v = data.draw(st.lists(ints, min_size=n, max_size=n))
        dens = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
        w = [Fraction(a, d) for a, d in zip(v, dens)]
        for marks in (v, w):
            back = mt.marks_of(mt.solve_marks(marks))
            assert back == tuple(marks)
            assert set(map(type, back)) == {Fraction}
        marks = mt.marks_of(v)
        assert set(map(type, marks)) == {int}
        assert mt.solve_marks(marks) == tuple(v)

    check()


def test_integral_solution_and_witness():
    mt = table_of_marks(FiniteGroup.cyclic(2))
    assert mt.integral_solution((2, 0)) == (1, 0)
    assert mt.integral_solution((3, 1)) == (1, 1)
    with pytest.raises(NonIntegral) as exc:
        mt.integral_solution((1, 0))
    witness = exc.value.witness
    assert witness is not None and any(v.denominator != 1 for v in witness)
