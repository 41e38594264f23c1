"""The Q-Mod law plans, residuals and bimodule algebra, which run on
integer codes, against reference evaluators over the element names.

The references below are the name-level implementations the coded paths
replaced.  They compose by looking names up in the string tables
``tensor_tables``/``par_tables`` and never touch ``Q.coded`` or a plan.
Validator reports are compared as ``json_bytes()`` on seeded random
candidates, most of which fail, so every law's first witness is compared.
The bases are the one-object bases of every finite catalog entry, the
plain and linear monad quantaloids of the sound ones (two objects each
for z2shift and z3shift) and the two-object Boolean quantaloid of
``tests/test_quantaloid_coded.py``; random object assignments mix the
objects.  Searches on multi-object bases are compared with brute force
under the reference validators, since the validators share the search's
plans.
"""

import random
from itertools import islice, product

import pytest

from linrel.qmod import (
    _DUAL_BIMODULE_LAWS,
    _LINEAR_QBIM_LAWS,
    _LINEAR_QCAT_LAWS,
    _QBIM_LAWS,
    _QCAT_LAWS,
    _SECOND_ENRICHMENT_LAWS,
    QBimodule,
    QCategory,
    bim_join,
    bim_leq,
    bim_meet,
    check_dual_bimodule,
    check_second_enrichment,
    discrete_qcategory,
    enumerate_qbimodules,
    enumerate_qcategories,
    qmod_compose_par,
    qmod_compose_tensor,
    qmod_right_extension,
    qmod_right_lifting,
    validate_qbimodule,
    validate_qcategory,
)
from linrel.lattice import chain
from linrel.quantaloid import (
    find_girard_families,
    finite_quantaloid,
    linear_monq_quantaloid,
    monq_quantaloid,
    one_object_quantaloid,
)
from linrel.report import LawReport, law_entry
from linrel.verify import catalog_entry

# Named here rather than read from the catalog, so that collecting this
# file builds no catalog entry.
SOUND = ("bool", "chain3", "diamond", "point", "z2shift", "z3shift")
BROKEN = ("bool-broken", "chain3-broken", "diamond-broken", "z2shift-broken",
          "z3shift-broken")

# ---------------------------------------------------------------------------
# Reference law evaluation: one name-level composite per term


def ref_compose(Q, tables):
    def compose(a, b, c, f, g):
        return tables[(a, b, c)][Q.hom(a, b).index(f)][Q.hom(b, c).index(g)]
    return compose


def ref_hom_dual(Q, a, b, f, family):
    """The join of every g: b->a whose composite f.g lies below the family
    element at a."""
    compose = ref_compose(Q, Q.tensor_tables)
    keep = [g for g in Q.hom(b, a).elements
            if Q.hom(a, a).leq(compose(a, b, a, f, g), family[a])]
    return Q.hom(b, a).join(keep)


def ref_instances(law, rhos):
    at = law.at or range(len(law.ranges))
    for loop in product(*(range(len(rhos[r])) for r in law.ranges)):
        yield (tuple(rhos[law.ranges[j]][loop[j]] for j in at),
               tuple(loop[j] for j in at), loop)


def ref_term(Q, term, mats, objs, idx):
    if isinstance(term, str):
        return mats[term][idx[0]][idx[-1]]
    if len(term) == 1:
        units = Q.units_top if term[0] == "unit_top" else Q.units_bot
        return units[objs[0]]
    op, f, g = term
    tables = Q.tensor_tables if op == "compose" else Q.par_tables
    return ref_compose(Q, tables)(*objs, mats[f][idx[0]][idx[1]],
                                  mats[g][idx[1]][idx[2]])


def ref_evaluate(law, Q, mats, objs, idx):
    lhs = ref_term(Q, law.lhs, mats, objs, idx)
    rhs = ref_term(Q, law.rhs, mats, objs, idx)
    return Q.hom(objs[0], objs[-1]).leq(lhs, rhs), lhs, rhs


def ref_witness(law, members, loop, lhs, rhs):
    if law.names is None:
        return {"indices": list(loop)}
    named = {k: members[r][i] for k, r, i in zip(law.names, law.ranges, loop)}
    return {**named, **law.sides(lhs, rhs)}


def ref_law_report(suite, laws, Q, cats, mats):
    rhos = {r: C.rho for r, C in cats.items()}
    members = {r: C.members for r, C in cats.items()}
    entries = []
    for law in laws:
        wit = None
        for objs, idx, loop in ref_instances(law, rhos):
            ok, lhs, rhs = ref_evaluate(law, Q, mats, objs, idx)
            if not ok:
                wit = ref_witness(law, members, loop, lhs, rhs)
                break
        entries.append(law_entry(law.label, wit, "exhaustive"))
    return LawReport(suite, tuple(entries))


def ref_validate_qcategory(M, suite="qcategory"):
    laws = _QCAT_LAWS + (_LINEAR_QCAT_LAWS if M.is_linear else ())
    return ref_law_report(suite, laws, M.base, {"x": M},
                          {"et": M.enrich_tensor, "ep": M.enrich_par})


def bimodule_matrices(M, N, **values):
    mats = {"Mt": M.enrich_tensor, "Mp": M.enrich_par, "Nt": N.enrich_tensor,
            "Np": N.enrich_par, **values}
    return {k: v for k, v in mats.items() if v is not None}


def ref_validate_qbimodule(B, suite="qbimodule"):
    M, N = B.source, B.target
    linear = B.is_linear and M.is_linear and N.is_linear
    laws = _QBIM_LAWS + (_LINEAR_QBIM_LAWS if linear else ())
    return ref_law_report(suite, laws, M.base, {"x": M, "y": N},
                          bimodule_matrices(M, N, vt=B.values_tensor,
                                            vp=B.values_par))


def ref_delta(M, family):
    n = len(M)
    return tuple(tuple(ref_hom_dual(M.base, M.rho[x2], M.rho[x],
                                    M.enrich_tensor[x2][x], family)
                       for x2 in range(n)) for x in range(n))


def ref_check_second_enrichment(M, family, suite="second-enrichment"):
    fam = tuple((family[a],) * len(M) for a in M.rho)
    return ref_law_report(suite, _SECOND_ENRICHMENT_LAWS, M.base, {"x": M},
                          {"et": M.enrich_tensor, "ep": ref_delta(M, family),
                           "fam": fam})


def ref_check_dual_bimodule(T, family, suite="dual-bimodule"):
    M, N = T.source, T.target
    dual = tuple(tuple(ref_hom_dual(M.base, M.rho[x], N.rho[y],
                                    T.values_tensor[x][y], family)
                       for x in range(len(M))) for y in range(len(N)))
    mats = bimodule_matrices(M, N, vt=T.values_tensor, vp=dual,
                             Mp=ref_delta(M, family), Np=ref_delta(N, family))
    return ref_law_report(suite, _DUAL_BIMODULE_LAWS, M.base,
                          {"x": M, "y": N}, mats)


# ---------------------------------------------------------------------------
# Reference residuals and bimodule algebra


def ref_right_extension(T, H):
    Q = T.source.base
    M, N, P = T.source, T.target, H.target
    tensor = ref_compose(Q, Q.tensor_tables)
    out = []
    for y in range(len(N)):
        row = []
        for z in range(len(P)):
            h_yz = Q.hom(N.rho[y], P.rho[z])
            cands = [g for g in h_yz.elements
                     if all(Q.hom(M.rho[x], P.rho[z]).leq(
                         tensor(M.rho[x], N.rho[y], P.rho[z],
                                T.values_tensor[x][y], g),
                         H.values_tensor[x][z]) for x in range(len(M)))]
            row.append(h_yz.join(cands))
        out.append(tuple(row))
    return tuple(out)


def ref_right_lifting(H, T):
    Q = T.source.base
    M, N, P = T.source, T.target, H.source
    tensor = ref_compose(Q, Q.tensor_tables)
    out = []
    for z in range(len(P)):
        row = []
        for x in range(len(M)):
            h_zx = Q.hom(P.rho[z], M.rho[x])
            cands = [g for g in h_zx.elements
                     if all(Q.hom(P.rho[z], N.rho[y]).leq(
                         tensor(P.rho[z], M.rho[x], N.rho[y], g,
                                T.values_tensor[x][y]),
                         H.values_tensor[z][y]) for y in range(len(N)))]
            row.append(h_zx.join(cands))
        out.append(tuple(row))
    return tuple(out)


def ref_fold(Q, tables, join, rows, mids, cols, A, B):
    compose = ref_compose(Q, tables)
    return tuple(
        tuple(getattr(Q.hom(rows[r], cols[c]), "join" if join else "meet")(
            compose(rows[r], mids[m], cols[c], A[r][m], B[m][c])
            for m in range(len(mids)))
            for c in range(len(cols)))
        for r in range(len(rows)))


def ref_compose_tensor(T, P):
    Q = T.source.base
    M, N, Pc = T.source, T.target, P.target
    vt = ref_fold(Q, Q.tensor_tables, True, M.rho, N.rho, Pc.rho,
                  T.values_tensor, P.values_tensor)
    vp = None
    if T.is_linear and P.is_linear:
        vp = ref_fold(Q, Q.par_tables, False, Pc.rho, N.rho, M.rho,
                      P.values_par, T.values_par)
    return QBimodule(M, Pc, vt, vp)


def ref_compose_par(T, P):
    Q = T.source.base
    M, N, Pc = T.source, T.target, P.target
    vt = ref_fold(Q, Q.par_tables, False, M.rho, N.rho, Pc.rho,
                  T.values_tensor, P.values_tensor)
    vp = None
    if T.is_linear and P.is_linear:
        vp = ref_fold(Q, Q.tensor_tables, True, Pc.rho, N.rho, M.rho,
                      P.values_par, T.values_par)
    return QBimodule(M, Pc, vt, vp)


def ref_bim_leq(T, P):
    Q, M, N = T.source.base, T.source, T.target
    ok = all(Q.hom(M.rho[x], N.rho[y]).leq(T.values_tensor[x][y],
                                           P.values_tensor[x][y])
             for x in range(len(M)) for y in range(len(N)))
    if T.is_linear and P.is_linear:
        ok = ok and all(Q.hom(N.rho[y], M.rho[x]).leq(P.values_par[y][x],
                                                      T.values_par[y][x])
                        for y in range(len(N)) for x in range(len(M)))
    return ok


def ref_bim_bound(T, P, join):
    Q, M, N = T.source.base, T.source, T.target

    def cellwise(rows, cols, A, B, bound):
        return tuple(tuple(getattr(Q.hom(rows[r], cols[c]), bound)(
            (A[r][c], B[r][c])) for c in range(len(cols)))
            for r in range(len(rows)))

    vt = cellwise(M.rho, N.rho, T.values_tensor, P.values_tensor,
                  "join" if join else "meet")
    vp = None
    if T.is_linear and P.is_linear:
        vp = cellwise(N.rho, M.rho, T.values_par, P.values_par,
                      "meet" if join else "join")
    return QBimodule(M, N, vt, vp)


# ---------------------------------------------------------------------------
# Bases and seeded random candidates


def base(name):
    return one_object_quantaloid(catalog_entry(name).ld)


def two_object_bool():
    lat = chain(["0", "1"])
    objs = ["a", "b"]
    homs = {(x, y): lat for x in objs for y in objs}
    table = tuple(tuple(lat.meet((f, g)) for g in lat.elements)
                  for f in lat.elements)
    tables = {(x, y, z): table for x in objs for y in objs for z in objs}
    return finite_quantaloid(objs, homs, tables, {x: "1" for x in objs})


BASES = {
    **{f"{n}:base": (lambda n=n: base(n)) for n in SOUND + BROKEN},
    **{f"{n}:monq": (lambda n=n: monq_quantaloid(base(n))) for n in SOUND},
    **{f"{n}:linear-monq": (lambda n=n: linear_monq_quantaloid(base(n)))
       for n in SOUND},
    "two-object-bool": two_object_bool,
}


def nontrivial(Q):
    return any(len(h) > 1 for h in Q.homs.values())


def random_matrix(rng, Q, rows, cols):
    return tuple(tuple(rng.choice(Q.hom(a, b).elements) for b in cols)
                 for a in rows)


def candidate_categories(rng, Q):
    """Random enrichments, mostly invalid, plus the discrete and the first
    valid ones, on one to three members with random object assignments."""
    cats = []
    for size in (1, 2, 3):
        members = tuple(f"m{i}" for i in range(size))
        for _ in range(8):
            rho = tuple(rng.choice(Q.objects) for _ in range(size))
            linear = Q.has_par and rng.random() < 0.6
            cats.append(QCategory(
                Q, members, rho, random_matrix(rng, Q, rho, rho),
                random_matrix(rng, Q, rho, rho) if linear else None))
        rho = tuple(rng.choice(Q.objects) for _ in range(size))
        cats.append(discrete_qcategory(Q, members, rho, linear=Q.has_par))
        cats.extend(enumerate_qcategories(Q, members, rho,
                                          linear=Q.has_par, limit=2))
    return cats


def random_bimodule(rng, M, N, linear):
    Q = M.base
    return QBimodule(M, N, random_matrix(rng, Q, M.rho, N.rho),
                     random_matrix(rng, Q, N.rho, M.rho) if linear else None)


@pytest.mark.parametrize("key", sorted(BASES))
def test_validators_match_reference(key):
    Q = BASES[key]()
    rng = random.Random(key)
    cats = candidate_categories(rng, Q)
    # the second enrichment and the dual bimodule obey par-side laws
    families = find_girard_families(Q)[:2] if Q.has_par else []
    passed = failed = 0
    for M in cats:
        got = validate_qcategory(M)
        assert got.json_bytes() == ref_validate_qcategory(M).json_bytes()
        passed += got.ok
        failed += not got.ok
        for family in families:
            assert (check_second_enrichment(M, family).json_bytes()
                    == ref_check_second_enrichment(M, family).json_bytes())
    for _ in range(40):
        M, N = rng.choice(cats), rng.choice(cats)
        B = random_bimodule(rng, M, N, Q.has_par and rng.random() < 0.6)
        assert (validate_qbimodule(B).json_bytes()
                == ref_validate_qbimodule(B).json_bytes())
        if Q.has_par:
            family = {a: rng.choice(Q.hom(a, a).elements) for a in Q.objects}
            assert (check_dual_bimodule(B, family).json_bytes()
                    == ref_check_dual_bimodule(B, family).json_bytes())
    assert passed
    assert failed or not nontrivial(Q)


@pytest.mark.parametrize("key", sorted(BASES))
def test_residuals_match_reference(key):
    Q = BASES[key]()
    rng = random.Random(key)
    cats = candidate_categories(rng, Q)
    for _ in range(40):
        M, N, P = (rng.choice(cats) for _ in range(3))
        T = random_bimodule(rng, M, N, False)
        H = random_bimodule(rng, M, P, False)
        assert qmod_right_extension(T, H) == ref_right_extension(T, H)
        H = random_bimodule(rng, P, N, False)
        assert qmod_right_lifting(H, T) == ref_right_lifting(H, T)


@pytest.mark.parametrize("key", sorted(BASES))
def test_bimodule_algebra_matches_reference(key):
    Q = BASES[key]()
    rng = random.Random(key)
    cats = candidate_categories(rng, Q)
    leq = []
    for _ in range(40):
        M, N, P = (rng.choice(cats) for _ in range(3))
        linear = Q.has_par and rng.random() < 0.7
        T = random_bimodule(rng, M, N, linear)
        S = random_bimodule(rng, N, P, linear)
        assert qmod_compose_tensor(T, S) == ref_compose_tensor(T, S)
        if Q.has_par:
            assert qmod_compose_par(T, S) == ref_compose_par(T, S)
        U = random_bimodule(rng, M, N, linear)
        join, meet = bim_join(T, U), bim_meet(T, U)
        assert join == ref_bim_bound(T, U, True)
        assert meet == ref_bim_bound(T, U, False)
        for A, B in ((T, U), (U, T), (T, join), (meet, U), (join, T)):
            leq.append(bim_leq(A, B))
            assert leq[-1] == ref_bim_leq(A, B)
    assert any(leq)
    assert not all(leq) or not nontrivial(Q)


# ---------------------------------------------------------------------------
# Searches on multi-object bases, against brute force


MULTI = {
    "two-object-bool": two_object_bool,
    "z3shift:monq": lambda: monq_quantaloid(base("z3shift")),
    "z2shift:linear-monq": lambda: linear_monq_quantaloid(base("z2shift")),
}
LIMITS = (None, 1, 3, 12)


def matrices(Q, rows, cols):
    pools = [Q.hom(a, b).elements for a in rows for b in cols]
    for flat in product(*pools):
        yield tuple(flat[i * len(cols):(i + 1) * len(cols)]
                    for i in range(len(rows)))


def passing(laws, cats, mats, candidates, name):
    """The candidates for matrix `name` on which the laws that read it and
    only fixed matrices hold: a necessary condition, so a filter."""
    laws = tuple(law for law in laws if name in law.reads
                 and law.reads <= mats.keys() | {name})
    Q = next(iter(cats.values())).base
    return [c for c in candidates
            if ref_law_report("", laws, Q, cats, {**mats, name: c}).ok]


def brute_categories(Q, rho, linear):
    members = tuple(f"x{i}" for i in range(len(rho)))
    cats = {"x": QCategory(Q, members, rho, ())}
    eps = (passing(_LINEAR_QCAT_LAWS, cats, {}, matrices(Q, rho, rho), "ep")
           if linear else (None,))
    for et in matrices(Q, rho, rho):
        if not ref_validate_qcategory(QCategory(Q, members, rho, et)).ok:
            continue
        for ep in eps:
            M = QCategory(Q, members, rho, et, ep)
            if ref_validate_qcategory(M).ok:
                yield M


def brute_bimodules(M, N, linear):
    Q = M.base
    vps = (passing(_LINEAR_QBIM_LAWS, {"x": M, "y": N},
                   bimodule_matrices(M, N), matrices(Q, N.rho, M.rho), "vp")
           if linear else (None,))
    for vt in matrices(Q, M.rho, N.rho):
        if not ref_validate_qbimodule(QBimodule(M, N, vt)).ok:
            continue
        for vp in vps:
            B = QBimodule(M, N, vt, vp)
            if ref_validate_qbimodule(B).ok:
                yield B


def cell_count(Q, rho):
    count = 1
    for x, y in product(rho, repeat=2):
        count *= len(Q.hom(x, y))
    return count


# The oracle lists every candidate matrix, so each shape is kept to those
# with at most this many, and it lists the full result only where the
# linear candidates, tensor times par parts, stay under it too.
ORACLE_CELLS = 4096


def mixed_rhos(Q):
    a, b = Q.objects[:2]
    return [rho for rho in ((b,), (a, b), (b, a), (b, a, b))
            if cell_count(Q, rho) <= ORACLE_CELLS]


@pytest.mark.parametrize("key", sorted(MULTI))
def test_category_search_on_mixed_objects(key):
    Q = MULTI[key]()
    for rho in mixed_rhos(Q):
        members = tuple(f"x{i}" for i in range(len(rho)))
        for linear in (False, True) if Q.has_par else (False,):
            full = cell_count(Q, rho) ** (1 + linear) <= ORACLE_CELLS
            expected = list(islice(brute_categories(Q, rho, linear),
                                   None if full else 12))
            assert expected
            for limit in LIMITS if full else LIMITS[1:]:
                got = list(enumerate_qcategories(Q, members, rho,
                                                 linear=linear, limit=limit))
                assert got == expected[:limit]


@pytest.mark.parametrize("key", sorted(MULTI))
def test_bimodule_search_on_mixed_objects(key):
    Q = MULTI[key]()
    for linear in (False, True) if Q.has_par else (False,):
        cats = [M for rho in mixed_rhos(Q)[:3]
                for M in enumerate_qcategories(
                    Q, tuple(f"x{i}" for i in range(len(rho))), rho,
                    linear=linear, limit=2)]
        for M, N in product(cats, repeat=2):
            small = len(M) == 1 or len(N) == 1
            expected = list(islice(brute_bimodules(M, N, linear),
                                   None if small else LIMITS[-1]))
            for limit in LIMITS if small else LIMITS[1:]:
                assert enumerate_qbimodules(M, N, linear=linear,
                                            limit=limit) == expected[:limit]
