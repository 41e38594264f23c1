"""Lattice construction and order algebra, checked against direct scans:
the bitset joins and meets against the pairwise scan of every bound."""

import random
from itertools import product

import pytest

from linrel.errors import (
    CyclicOrderError,
    DuplicateNameError,
    NotALatticeError,
    UnknownElementError,
)
from linrel.lattice import (
    build_lattice,
    chain,
    lattice_from_leq,
    powerset_lattice,
    product_lattice,
)


def scan_join(lat, a, b):
    """Independent oracle: least element among all upper bounds."""
    ubs = [c for c in lat.elements if lat.leq(a, c) and lat.leq(b, c)]
    least = [u for u in ubs if all(lat.leq(u, c) for c in ubs)]
    assert len(least) == 1
    return least[0]


def scan_meet(lat, a, b):
    lbs = [c for c in lat.elements if lat.leq(c, a) and lat.leq(c, b)]
    greatest = [u for u in lbs if all(lat.leq(c, u) for c in lbs)]
    assert len(greatest) == 1
    return greatest[0]


def test_one_point_lattice():
    lat = build_lattice(["a"], [])
    assert lat.top == "a" == lat.bottom
    assert lat.leq("a", "a")


def test_two_chain():
    lat = build_lattice(["0", "1"], [("0", "1")])
    assert lat.top == "1" and lat.bottom == "0"
    assert lat.leq("0", "1")
    assert not lat.leq("1", "0")


def test_diamond_join_meet_against_scan():
    lat = build_lattice(["0", "x", "y", "1"],
                        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    assert not lat.leq("x", "y") and not lat.leq("y", "x")
    for a, b in product(lat.elements, repeat=2):
        assert lat.join((a, b)) == scan_join(lat, a, b)
        assert lat.meet((a, b)) == scan_meet(lat, a, b)
    assert lat.join(("x", "y")) == "1"
    assert lat.meet(("x", "y")) == "0"


def test_empty_join_and_meet():
    lat = build_lattice(["0", "x", "y", "1"],
                        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    assert lat.join([]) == "0"
    assert lat.meet([]) == "1"
    assert lat.join(["x"]) == "x"
    assert lat.meet(["x"]) == "x"


def test_chain_meet():
    lat = chain(["0", "1"])
    assert lat.meet(["0", "1"]) == "0"


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateNameError):
        build_lattice(["a", "a"], [])


def test_unknown_cover_name_rejected():
    with pytest.raises(UnknownElementError):
        build_lattice(["a"], [("a", "b")])


def test_cycle_rejected():
    with pytest.raises(CyclicOrderError):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_non_lattice_rejected():
    # two maximal elements: the pair (b, c) has no join
    with pytest.raises(NotALatticeError) as exc:
        build_lattice(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert "b" in str(exc.value) and "c" in str(exc.value)


def test_unknown_element_in_ops():
    lat = chain(["0", "1"])
    with pytest.raises(UnknownElementError):
        lat.leq("0", "zz")
    with pytest.raises(UnknownElementError):
        lat.join(["zz"])


@pytest.mark.parametrize("lat", [
    chain(["0", "1"]),
    chain(["0", "m", "1"]),
    build_lattice(["0", "x", "y", "1"],
                  [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]),
    powerset_lattice(["p", "q", "r"]),
])
def test_semilattice_laws_exhaustive(lat):
    els = lat.elements
    assert len(els) <= 8
    for a in els:
        assert lat.join((a, a)) == a
        assert lat.meet((a, a)) == a
    for a, b in product(els, repeat=2):
        assert lat.join((a, b)) == lat.join((b, a))
        assert lat.meet((a, b)) == lat.meet((b, a))
        assert lat.leq(a, lat.join((a, b)))
        assert lat.leq(lat.meet((a, b)), a)
    for a, b, c in product(els, repeat=3):
        assert lat.join((lat.join((a, b)), c)) == lat.join((a, lat.join((b, c))))
        assert lat.meet((lat.meet((a, b)), c)) == lat.meet((a, lat.meet((b, c))))


def test_opposite_is_involution():
    lat = build_lattice(["0", "x", "y", "1"],
                        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    opp = lat.opposite()
    assert opp.top == "0" and opp.bottom == "1"
    assert opp.leq("1", "x") and not opp.leq("x", "1")
    assert opp.join(("x", "y")) == "0"
    assert opp.opposite() == lat


def test_lattice_from_leq_matches_build():
    lat = chain(["0", "m", "1"])
    rebuilt = lattice_from_leq(lat.elements, lat.leq_matrix)
    assert rebuilt == lat


def test_lattice_from_leq_rejects_broken_order():
    with pytest.raises(CyclicOrderError):
        lattice_from_leq(["a", "b"], [[True, True], [True, True]])


# ---------------------------------------------------------------------------
# The bitset construction against the pairwise scan


def ref_lattice_from_leq(names, leq):
    """Join and meet tables, top and bottom of a closed order, found by
    checking every triple and scanning all bounds of every pair."""
    n = len(names)
    for i in range(n):
        if not leq[i][i]:
            raise CyclicOrderError(f"order is not reflexive at {names[i]!r}")
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise CyclicOrderError(
                    f"order is not antisymmetric on {names[i]!r}, {names[j]!r}")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise CyclicOrderError(
                        f"order is not transitive via {names[j]!r}")

    def bound(i, j, upper):
        if upper:
            cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
            least = [u for u in cands if all(leq[u][k] for k in cands)]
        else:
            cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
            least = [u for u in cands if all(leq[k][u] for k in cands)]
        if len(least) != 1:
            kind = "join" if upper else "meet"
            raise NotALatticeError(
                f"elements {names[i]!r} and {names[j]!r} have no {kind}")
        return least[0]

    joins = tuple(tuple(bound(i, j, True) for j in range(n)) for i in range(n))
    meets = tuple(tuple(bound(i, j, False) for j in range(n)) for i in range(n))
    top = bot = 0
    for i in range(n):
        top, bot = joins[top][i], meets[bot][i]
    return joins, meets, names[top], names[bot]


def random_orders(seed, count):
    """(kind, names, matrix) of seeded random relations: the closure of a
    random acyclic relation, sometimes with a bottom and a top added; that
    relation unclosed; and the closure with one entry flipped."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        rank = list(range(n))
        rng.shuffle(rank)
        p = rng.random()
        edge = [[i == j or (rank[i] < rank[j] and rng.random() < p)
                 for j in range(n)] for i in range(n)]
        if n > 2 and rng.random() < 0.5:
            lo, hi = rank.index(0), rank.index(n - 1)
            for k in range(n):
                edge[lo][k] = edge[k][hi] = True
        closed = [row[:] for row in edge]
        for k in range(n):
            for i in range(n):
                if closed[i][k]:
                    for j in range(n):
                        closed[i][j] = closed[i][j] or closed[k][j]
        flipped = [row[:] for row in closed]
        i, j = rng.randrange(n), rng.randrange(n)
        flipped[i][j] = not flipped[i][j]
        names = [f"e{k}" for k in range(n)]
        yield from (("closed", names, closed), ("unclosed", names, edge),
                    ("flipped", names, flipped))


def outcome(build):
    try:
        lat = build()
    except (CyclicOrderError, NotALatticeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(lat, tuple):
        return lat
    return lat.join_table, lat.meet_table, lat.top, lat.bottom


@pytest.mark.parametrize("seed", range(4))
def test_lattice_from_leq_matches_pairwise_scan(seed):
    kinds = {}
    for kind, names, leq in random_orders(seed, 250):
        got = outcome(lambda: lattice_from_leq(names, leq))
        assert got == outcome(lambda: ref_lattice_from_leq(names, leq)), (
            kind, leq)
        kinds.setdefault(kind, set()).add(got[0] if isinstance(got[0], str)
                                          else "lattice")
        if kind == "closed":
            covers = [(names[i], names[j]) for i, j in
                      product(range(len(names)), repeat=2) if i != j and leq[i][j]]
            assert outcome(lambda: build_lattice(names, covers)) == got
    # every kind of outcome turns up
    assert kinds["closed"] == {"lattice", "NotALatticeError"}
    assert kinds["flipped"] == {"lattice", "NotALatticeError", "CyclicOrderError"}
    assert "CyclicOrderError" in kinds["unclosed"]


def test_product_lattice_is_the_componentwise_order():
    A = build_lattice(["0", "x", "y", "1"],
                      [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    B = chain(["0", "m", "1"]).opposite()
    P = product_lattice(A, B)
    assert P.elements == tuple(f"{a}|{b}" for a in A.elements for b in B.elements)
    pairs = list(product(A.elements, B.elements))
    leq = [[A.leq(a, c) and B.leq(b, d) for c, d in pairs] for a, b in pairs]
    assert P == lattice_from_leq(P.elements, leq)
    assert (P.top, P.bottom) == ("1|0", "0|1")
