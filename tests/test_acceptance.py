"""Acceptance suite: the exit criteria for the library, one test each.

Every test prints a single PASS/FAIL line (run pytest with -s to see them
inline) and asserts the criterion at its stated tolerance.  All checks are
exact; the only tolerances are the wall-clock budgets.
"""

import time
from itertools import product

from linrel.qmod import (
    check_girard_qmod,
    discrete_qcategory,
    enumerate_qbimodules,
    enumerate_qcategories,
)
from linrel.qrel import (
    check_girard_qrel,
    check_linear_adjoint,
    compose_par,
    compose_tensor,
    enumerate_relations,
    finite_set,
    random_relation,
    rel_dual,
    relation,
    verify_qrel_laws,
)
from linrel.quantaloid import (
    check_girard_family,
    linear_monq_quantaloid,
    monq_girard_family,
    monq_quantaloid,
    one_object_quantaloid,
)
from linrel.report import Sampler
from linrel.verify import (
    catalog,
    catalog_entry,
    default_sets,
    oracle_maxplus,
    oracle_minplus,
    run_theorem,
)

FINITE_LD_ENTRIES = ("point", "bool", "chain3", "diamond", "z2shift", "z3shift")
BROKEN_ENTRIES = ("bool-broken", "chain3-broken", "diamond-broken",
                  "z2shift-broken", "z3shift-broken", "zinf-broken")
FINITE_GIRARD_ENTRIES = ("point", "bool", "diamond", "z2shift", "z3shift")


def announce(number: int, ok: bool, label: str, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {status}: {label}{suffix}")


def test_criterion_1_boolean_reduction():
    """Tensor/par composition equals the logical oracle on every relation
    pair over sets of size up to three."""
    t0 = time.monotonic()
    amb = catalog_entry("bool").ld
    sets = {n: finite_set(f"s{n}", tuple(f"e{i}" for i in range(n)))
            for n in (1, 2, 3)}

    def slot(X, Y):
        """Relations paired with bitmask rows over the middle set."""
        ny = len(Y)
        return [(r, tuple(sum(1 << y for y in range(ny)
                              if r.values[x][y] == "1")
                          for x in range(len(X))))
                for r in enumerate_relations(amb, X, Y)]

    ok = True
    checked = 0
    for ny in (1, 2, 3):
        Y = sets[ny]
        full = (1 << ny) - 1
        rights = {}
        for nz in (1, 2, 3):
            Z = sets[nz]
            cols = []
            for g in enumerate_relations(amb, Y, Z):
                gcols = tuple(
                    sum(1 << y for y in range(ny) if g.values[y][z] == "1")
                    for z in range(nz))
                cols.append((g, gcols))
            rights[nz] = cols
        for nx in (1, 2, 3):
            X = sets[nx]
            lefts = slot(X, Y)
            for nz in (1, 2, 3):
                for f, frows in lefts:
                    for g, gcols in rights[nz]:
                        ct = compose_tensor(f, g)
                        cp = compose_par(f, g)
                        exp_t = tuple(
                            tuple("1" if frows[x] & gc else "0" for gc in gcols)
                            for x in range(nx))
                        exp_p = tuple(
                            tuple("0" if (full & ~frows[x]) & (full & ~gc)
                                  else "1" for gc in gcols)
                            for x in range(nx))
                        if ct.values != exp_t or cp.values != exp_p:
                            ok = False
                        checked += 1
    elapsed = time.monotonic() - t0
    announce(1, ok and elapsed < 10.0,
             f"Boolean compositions match the logical oracle on {checked} pairs",
             elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_2_tropical_arctic_oracle():
    """Extended-integer compositions agree with the standalone max-plus and
    min-plus implementations on 500 seeded random 3x3 instances."""
    t0 = time.monotonic()
    trop = catalog_entry("zinf-tropical").ld
    arc = catalog_entry("zinf-arctic").ld
    X = finite_set("X", ("a", "b", "c"))
    rng = Sampler.random(seed=2024).rng()
    ok = True
    for _ in range(500):
        f = random_relation(rng, trop, X, X, window=9)
        g = random_relation(rng, trop, X, X, window=9)
        if compose_tensor(f, g).values != oracle_maxplus(f.values, g.values):
            ok = False
        if compose_par(f, g).values != oracle_minplus(f.values, g.values):
            ok = False
        fa = relation(X, X, arc, f.values)
        ga = relation(X, X, arc, g.values)
        if compose_tensor(fa, ga).values != oracle_minplus(f.values, g.values):
            ok = False
        if compose_par(fa, ga).values != oracle_maxplus(f.values, g.values):
            ok = False
    elapsed = time.monotonic() - t0
    announce(2, ok and elapsed < 5.0,
             "max-plus/min-plus oracles agree on 500 seeded 3x3 instances",
             elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_residual_adjunction():
    """Residuation is adjoint to multiplication on every small catalog
    quantale, and the closed form matches the brute-force scan."""
    t0 = time.monotonic()
    ok = True
    for name in FINITE_LD_ENTRIES:
        q = catalog_entry(name).ld
        els = q.sample_elements()
        if len(els) > 6:
            continue
        for a, b, c in product(els, repeat=3):
            if q.leq(q.tensor(a, c), b) != q.leq(c, q.residual_right(a, b)):
                ok = False
            if q.leq(q.tensor(c, a), b) != q.leq(c, q.residual_left(b, a)):
                ok = False
    zq = catalog_entry("zinf-tropical").ld
    window = 10
    wide = [*range(-2 * window - 1, 2 * window + 2)]
    wide = ["-inf", *wide, "+inf"]
    sample = zq.sample_elements(window)
    for a in sample:
        for b in sample:
            brute = zq.join(c for c in wide if zq.leq(zq.tensor(a, c), b))
            if zq.residual_right(a, b) != brute:
                ok = False
    elapsed = time.monotonic() - t0
    announce(3, ok and elapsed < 5.0,
             "residual adjunction exhaustive + closed form matches scan",
             elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_4_girard_facts():
    """Dualizer searches return the expected sets and the derived par obeys
    the mixed-infinity convention."""
    from linrel.quantale import is_cyclic_dualizing
    cat = catalog()
    ok = (cat["bool"].dualizers == ("0",)
          and cat["chain3"].dualizers == ()
          and is_cyclic_dualizing(cat["zinf-tropical"].ld, 0)
          and 0 in cat["zinf-tropical"].dualizers)
    g = cat["zinf-tropical"].girard
    ok = ok and g.par("-inf", "+inf") == "+inf" \
        and g.par("+inf", "-inf") == "+inf"
    announce(4, ok, "dualizer searches and the mixed-infinity par convention")
    assert ok


def test_criterion_5_theorem_ldq_biconditional():
    """The two-multiplication laws hold in the quantale exactly when the
    relation-level suite passes, for every catalog entry."""
    t0 = time.monotonic()
    ok = True
    sets = default_sets(2)
    for name, entry in catalog().items():
        rep = run_theorem("ldq", entry, Sampler.random(seed=7, count=120), sets)
        both = (rep.entry("theorem-forward").ok
                and rep.entry("theorem-backward").ok
                and rep.entry("theorem-transfer").ok)
        consistent = rep.entry("base-laws").ok == rep.entry("derived-laws").ok \
            == entry.ld_ok
        if not (both and consistent):
            ok = False
    elapsed = time.monotonic() - t0
    announce(5, ok and elapsed < 60.0,
             "LD laws in Q iff the relation suite passes, all 14 entries",
             elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_6_girard_qrel():
    """Cyclicity and the double dual of the diagonal family: exhaustively
    for the two-element quantale, on 200 seeded samples for the extended
    integers."""
    t0 = time.monotonic()
    sets = default_sets(2)
    bool_rep = check_girard_qrel(catalog_entry("bool").girard, sets,
                                 Sampler.exhaustive())
    zinf_rep = check_girard_qrel(catalog_entry("zinf-tropical").girard, sets,
                                 Sampler.random(seed=6, count=200, window=5))
    ok = bool_rep.ok and zinf_rep.ok
    ok = ok and all(e.mode == "exhaustive" for e in bool_rep.entries)
    ok = ok and all("count=200" in e.mode for e in zinf_rep.entries)
    elapsed = time.monotonic() - t0
    announce(6, ok, "diagonal dualizing family cyclic + involutive", elapsed)
    assert ok


def test_criterion_7_closedness_split():
    """Every relation over a Girard entry is linearly adjoint to its
    constructed dual; the three-chain frame has a cell with no adjoint."""
    t0 = time.monotonic()
    ok = True
    sets = default_sets(2)
    for name in FINITE_GIRARD_ENTRIES:
        g = catalog_entry(name).girard
        for X, Y in product(sets, repeat=2):
            for r in enumerate_relations(g, X, Y):
                if not check_linear_adjoint(r, rel_dual(r, g.dualizer)):
                    ok = False
    zg = catalog_entry("zinf-tropical").girard
    rng = Sampler.random(seed=8).rng()
    for _ in range(150):
        r = random_relation(rng, zg, sets[0], sets[1], window=6)
        if not check_linear_adjoint(r, rel_dual(r, 0)):
            ok = False
    chain3 = catalog_entry("chain3").ld
    pt = finite_set("pt", ("*",))
    els = chain3.sample_elements()
    gap = None
    for a in els:
        A = relation(pt, pt, chain3, [[a]])
        if not any(check_linear_adjoint(A, relation(pt, pt, chain3, [[b]]))
                   for b in els):
            gap = a
            break
    ok = ok and gap is not None
    elapsed = time.monotonic() - t0
    announce(7, ok,
             f"Girard entries closed; three-chain gap at cell {gap!r}", elapsed)
    assert ok


def test_criterion_8_qmod_and_monq():
    """Delta families pass the dualizing checks over Girard bases; the
    enriched-category and monad law suites pass over the working finite
    entries and fail with transferred witnesses over the broken ones."""
    t0 = time.monotonic()
    ok = True

    for name in FINITE_GIRARD_ENTRIES:
        entry = catalog_entry(name)
        base = one_object_quantaloid(entry.ld)
        obj = base.objects[0]
        family = {obj: entry.girard.dualizer}
        cats = [discrete_qcategory(base, ("x", "y"), (obj, obj))]
        cats += list(enumerate_qcategories(base, ("x", "y"), (obj, obj),
                                           limit=7))
        bims = []
        for A in cats:
            for B in cats:
                bims.extend(enumerate_qbimodules(A, B, limit=5))
        if not check_girard_qmod(base, family, bims).ok:
            ok = False
        induced = monq_girard_family(base, family)
        if not check_girard_family(monq_quantaloid(base), induced).ok:
            ok = False

    for name in FINITE_LD_ENTRIES:
        for thm in ("linear-monq", "linear-qmod"):
            rep = run_theorem(thm, name, Sampler.random(seed=9, count=50))
            if not rep.ok:
                ok = False

    for name in BROKEN_ENTRIES:
        for thm in ("linear-monq", "linear-qmod"):
            if name == "zinf-broken":
                continue  # not materializable; covered by criterion 5
            rep = run_theorem(thm, name, Sampler.random(seed=9, count=50))
            failed_somewhere = any(not e.ok for e in rep.entries)
            transferred = rep.entry("theorem-transfer").ok \
                and rep.entry("theorem-forward").ok \
                and rep.entry("theorem-backward").ok
            if not (failed_somewhere and transferred):
                ok = False

    elapsed = time.monotonic() - t0
    announce(8, ok and elapsed < 120.0,
             "delta families + linear suites over finite entries", elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_9_determinism():
    """Identical seeds produce byte-identical machine reports."""
    sets = default_sets(2)
    entry = catalog_entry("zinf-tropical")
    runs = [verify_qrel_laws(entry.ld, sets, Sampler.random(seed=42, count=60))
            for _ in range(2)]
    ok = runs[0].json_bytes() == runs[1].json_bytes()
    thm = [run_theorem("ldq", "zinf-broken", Sampler.random(seed=13, count=40),
                       sets) for _ in range(2)]
    ok = ok and thm[0].json_bytes() == thm[1].json_bytes()
    girard = [check_girard_qrel(entry.girard, sets,
                                Sampler.random(seed=5, count=50))
              for _ in range(2)]
    ok = ok and girard[0].json_bytes() == girard[1].json_bytes()
    announce(9, ok, "seeded reports byte-identical across runs")
    assert ok


def test_criterion_10_iterated_linear_monads():
    """The linear monad quantaloid of the linear monad quantaloid of
    z2shift, five objects with homs of up to 256 elements, builds in under
    two seconds from a base that has built nothing yet."""
    base = one_object_quantaloid(catalog_entry("z2shift").ld)
    t0 = time.monotonic()
    twice = linear_monq_quantaloid(linear_monq_quantaloid(base))
    elapsed = time.monotonic() - t0
    ok = (len(twice.objects) == 5
          and max(len(h) for h in twice.homs.values()) == 256)
    announce(10, ok and elapsed < 2.0,
             "iterated linear monad quantaloid of z2shift", elapsed)
    assert ok
    assert elapsed < 2.0
