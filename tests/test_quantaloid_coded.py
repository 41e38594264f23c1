"""The quantaloid law suite and hom duals, which run on integer-coded
tables, against reference scans over the element names.

The references below compose by looking names up in the string tables
``tensor_tables``/``par_tables`` and never touch ``Q.coded``.  Reports are
compared as ``json_bytes()``, so the law order, the first witness of each
failing law and its keys must agree.  Seeded single-cell mutants of the
tensor and par tables make most laws fail somewhere, so witnesses on
failing laws are compared too.
"""

import random
from itertools import product

import pytest

from linrel.lattice import chain
from linrel.quantaloid import (
    FiniteQuantaloid,
    check_girard_family,
    check_quantaloid_laws,
    finite_quantaloid,
    hom_dual,
    hom_dual_left,
    linear_monq_quantaloid,
    monq_girard_family,
    monq_quantaloid,
    one_object_quantaloid,
)
from linrel.report import LawReport, law_entry
from linrel.verify import catalog, catalog_entry


def ref_compose(Q, tables):
    def compose(a, b, c, f, g):
        return tables[(a, b, c)][Q.hom(a, b).index(f)][Q.hom(b, c).index(g)]
    return compose


def ref_check_quantaloid_laws(Q, suite="quantaloid-laws"):
    """The name-level law suite: one composition at a time, in the same
    law order and loop order as ``check_quantaloid_laws``."""
    entries = []
    mode = "exhaustive"
    tensor = ref_compose(Q, Q.tensor_tables)
    elements = lambda a, b: Q.hom(a, b).elements

    def first(iterator):
        for wit in iterator:
            return wit
        return None

    def assoc_fail(compose):
        for a, b, c, d in product(Q.objects, repeat=4):
            for f in elements(a, b):
                for g in elements(b, c):
                    for h in elements(c, d):
                        lhs = compose(a, c, d, compose(a, b, c, f, g), h)
                        rhs = compose(a, b, d, f, compose(b, c, d, g, h))
                        if lhs != rhs:
                            yield {"objects": [a, b, c, d], "f": f, "g": g,
                                   "h": h, "lhs": lhs, "rhs": rhs}

    def unit_fail(compose, unit, left):
        for a, b in product(Q.objects, repeat=2):
            for f in elements(a, b):
                got = compose(a, a, b, unit(a), f) if left else \
                    compose(a, b, b, f, unit(b))
                if got != f:
                    yield {"objects": [a, b], "f": f, "lhs": got}

    def sup_fail(compose, bound, left):
        for a, b, c in product(Q.objects, repeat=3):
            h_ab, h_bc = Q.hom(a, b), Q.hom(b, c)
            h_ac = Q.hom(a, c)
            agg_src = h_ab if left else h_bc
            agg = agg_src.join if bound == "join" else agg_src.meet
            out = h_ac.join if bound == "join" else h_ac.meet
            for f1 in agg_src.elements:
                for f2 in agg_src.elements:
                    for g in (h_bc if left else h_ab).elements:
                        if left:
                            lhs = compose(a, b, c, agg((f1, f2)), g)
                            rhs = out((compose(a, b, c, f1, g),
                                       compose(a, b, c, f2, g)))
                        else:
                            lhs = compose(a, b, c, g, agg((f1, f2)))
                            rhs = out((compose(a, b, c, g, f1),
                                       compose(a, b, c, g, f2)))
                        if lhs != rhs:
                            yield {"objects": [a, b, c], "f1": f1, "f2": f2,
                                   "g": g, "lhs": lhs, "rhs": rhs}

    def absorb_fail(compose, bound, left):
        for a, b, c in product(Q.objects, repeat=3):
            want = getattr(Q.hom(a, c), bound)
            if left:
                absorber = getattr(Q.hom(a, b), bound)
                for g in elements(b, c):
                    got = compose(a, b, c, absorber, g)
                    if got != want:
                        yield {"objects": [a, b, c], "g": g, "lhs": got}
            else:
                absorber = getattr(Q.hom(b, c), bound)
                for f in elements(a, b):
                    got = compose(a, b, c, f, absorber)
                    if got != want:
                        yield {"objects": [a, b, c], "f": f, "lhs": got}

    def layer(op, compose, unit, bound, sup_name, absorber):
        return [
            (f"{op}-associativity", assoc_fail(compose)),
            (f"{op}-unit-left", unit_fail(compose, unit, True)),
            (f"{op}-unit-right", unit_fail(compose, unit, False)),
            (f"{op}-{sup_name}-left", sup_fail(compose, bound, True)),
            (f"{op}-{sup_name}-right", sup_fail(compose, bound, False)),
            (f"{op}-{absorber}-left", absorb_fail(compose, absorber, True)),
            (f"{op}-{absorber}-right", absorb_fail(compose, absorber, False)),
        ]

    checks = layer("tensor", tensor, Q.units_top.__getitem__, "join", "sup",
                   "bottom")
    if Q.par_tables is not None:
        par = ref_compose(Q, Q.par_tables)
        checks += layer("par", par, Q.units_bot.__getitem__, "meet", "inf",
                        "top")

        def dist_fail(left):
            for a, b, c, d in product(Q.objects, repeat=4):
                h_ad = Q.hom(a, d)
                for f in elements(a, b):
                    for g in elements(b, c):
                        for h in elements(c, d):
                            if left:
                                lhs = tensor(a, b, d, f, par(b, c, d, g, h))
                                rhs = par(a, c, d, tensor(a, b, c, f, g), h)
                            else:
                                lhs = tensor(a, c, d, par(a, b, c, f, g), h)
                                rhs = par(a, b, d, f, tensor(b, c, d, g, h))
                            if not h_ad.leq(lhs, rhs):
                                yield {"objects": [a, b, c, d], "f": f, "g": g,
                                       "h": h, "lhs": lhs, "rhs": rhs}

        checks += [("linear-distribution-left", dist_fail(True)),
                   ("linear-distribution-right", dist_fail(False))]
    for label, failures in checks:
        entries.append(law_entry(label, first(failures), mode))
    return LawReport(suite, tuple(entries))


def ref_hom_dual(Q, a, b, f, family, left=False):
    """Plain scan: the join of every g: b->a whose composite with f (g
    after f when ``left``) lies below the family element."""
    compose = ref_compose(Q, Q.tensor_tables)
    at = b if left else a
    keep = [g for g in Q.hom(b, a).elements
            if Q.hom(at, at).leq(compose(b, a, b, g, f) if left
                                 else compose(a, b, a, f, g), family[at])]
    return Q.hom(b, a).join(keep)


def ref_check_girard_family(Q, family, suite="girard-family"):
    cyc_wit = None
    dd_wit = None
    for a, b in product(Q.objects, repeat=2):
        for f in Q.hom(a, b).elements:
            lhs = ref_hom_dual(Q, a, b, f, family)
            rhs = ref_hom_dual(Q, a, b, f, family, left=True)
            if cyc_wit is None and lhs != rhs:
                cyc_wit = {"objects": [a, b], "f": f, "lhs": lhs, "rhs": rhs}
            fdd = ref_hom_dual(Q, b, a, lhs, family)
            if dd_wit is None and fdd != f:
                dd_wit = {"objects": [a, b], "f": f, "dual": lhs,
                          "double": fdd}
    return LawReport(suite, (
        law_entry("girard-cyclic", cyc_wit, "exhaustive"),
        law_entry("girard-double-dual", dd_wit, "exhaustive"),
    ))


def two_object_bool():
    lat = chain(["0", "1"])
    objs = ["a", "b"]
    homs = {(x, y): lat for x in objs for y in objs}
    table = tuple(tuple(lat.meet((f, g)) for g in lat.elements)
                  for f in lat.elements)
    tables = {(x, y, z): table for x in objs for y in objs for z in objs}
    return finite_quantaloid(objs, homs, tables, {x: "1" for x in objs})


def three_object_bool(broken=False):
    """Boolean homs on three objects with meet as tensor and join as par,
    so associativity and distribution across distinct objects are
    compared.  The broken one composes bottom: a->b with top: b->c to top,
    so its first tensor absorption failure has a third object distinct
    from both ends of the cell."""
    lat = chain(["0", "1"])
    objs = ["a", "b", "c"]
    homs = {(x, y): lat for x in objs for y in objs}

    def tables(pair):
        table = tuple(tuple(pair((f, g)) for g in lat.elements)
                      for f in lat.elements)
        return {trip: table for trip in product(objs, repeat=3)}

    tensor = tables(lat.meet)
    if broken:
        tensor[("a", "b", "c")] = (("0", "1"), ("0", "1"))
    return finite_quantaloid(objs, homs, tensor,
                             {x: "1" for x in objs}, tables(lat.join),
                             {x: "0" for x in objs})


# Named here rather than read from the catalog, so that collecting this
# file builds no catalog entry.
SOUND = ("bool", "chain3", "diamond", "point", "z2shift", "z3shift")
BROKEN = ("bool-broken", "chain3-broken", "diamond-broken", "z2shift-broken",
          "z3shift-broken")
GIRARD = ("bool", "diamond", "point", "z2shift", "z3shift")


def base(name):
    return one_object_quantaloid(catalog_entry(name).ld)


QUANTALOIDS = {
    **{f"{n}:base": (lambda n=n: base(n)) for n in SOUND + BROKEN},
    **{f"{n}:monq": (lambda n=n: monq_quantaloid(base(n))) for n in SOUND},
    **{f"{n}:linear-monq": (lambda n=n: linear_monq_quantaloid(base(n)))
       for n in SOUND},
    "two-object-bool": two_object_bool,
    "three-object-bool": three_object_bool,
    "three-object-bool-broken": lambda: three_object_bool(broken=True),
}


def test_entry_lists_match_catalog():
    finite = {n: e for n, e in catalog().items() if e.ld.carrier.is_finite}
    assert sorted(SOUND + BROKEN) == sorted(finite)
    assert sorted(SOUND) == sorted(n for n, e in finite.items() if e.ld_ok)
    assert sorted(GIRARD) == sorted(n for n in SOUND if finite[n].is_girard)


def mutant(Q, rng):
    """Q with one cell of its tensor or par table set to another element
    of the target hom."""
    tables = {"tensor": dict(Q.tensor_tables)}
    if Q.par_tables is not None:
        tables["par"] = dict(Q.par_tables)
    layer = tables[rng.choice(sorted(tables))]
    a, b, c = triple = rng.choice(sorted(layer))
    rows = [list(r) for r in layer[triple]]
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    others = [e for e in Q.hom(a, c).elements if e != rows[i][j]]
    if others:
        rows[i][j] = rng.choice(others)
    layer[triple] = rows
    return finite_quantaloid(Q.objects, Q.homs, tables["tensor"], Q.units_top,
                             tables.get("par"), Q.units_bot)


# The references are slow on the larger monad quantaloids, so those get
# fewer mutants; every quantaloid gets at least one.
def mutant_count(Q: FiniteQuantaloid) -> int:
    cells = sum(len(t) * len(t[0]) for t in Q.tensor_tables.values())
    return max(1, min(12, 600 // cells))


@pytest.mark.parametrize("key", sorted(QUANTALOIDS))
def test_law_suite_matches_reference(key):
    Q = QUANTALOIDS[key]()
    assert (check_quantaloid_laws(Q).json_bytes()
            == ref_check_quantaloid_laws(Q).json_bytes())
    rng = random.Random(key)
    failing = 0
    for _ in range(mutant_count(Q)):
        M = mutant(Q, rng)
        got = check_quantaloid_laws(M, suite=key)
        assert got.json_bytes() == ref_check_quantaloid_laws(M, suite=key).json_bytes()
        failing += not got.ok
    if any(len(h) > 1 for h in Q.homs.values()):
        assert failing


@pytest.mark.parametrize("name", GIRARD)
def test_hom_duals_match_scan(name):
    entry = catalog_entry(name)
    Q = base(name)
    monq = monq_quantaloid(Q)
    families = [monq_girard_family(Q, {"*": entry.girard.dualizer})]
    # the family of tensor units is not dualizing on every entry, and a
    # family of tops never is on a nontrivial hom
    families.append({a: monq.unit_top(a) for a in monq.objects})
    families.append({a: monq.hom(a, a).top for a in monq.objects})
    # every Girard entry is commutative; mutants break that, so a dual
    # that reads a composite in the wrong order shows
    rng = random.Random(name)
    reports = []
    for M in [monq] + [mutant(monq, rng) for _ in range(4)]:
        for family in families:
            for a, b in product(M.objects, repeat=2):
                for f in M.hom(a, b).elements:
                    assert hom_dual(M, a, b, f, family) == \
                        ref_hom_dual(M, a, b, f, family)
                    assert hom_dual_left(M, a, b, f, family) == \
                        ref_hom_dual(M, a, b, f, family, left=True)
            rep = check_girard_family(M, family)
            assert rep.json_bytes() == ref_check_girard_family(M, family).json_bytes()
            reports.append(rep)
    assert reports[0].ok
    if any(len(h) > 1 for h in monq.homs.values()):
        assert not all(rep.ok for rep in reports)
