"""Harness-level facts: oracle cross-checks, catalog derivation,
determinism, registry completeness, and the theorem drivers."""

from itertools import product

import pytest

from linrel.lattice import chain
from linrel.quantale import (
    MINUS_INF,
    PLUS_INF,
    check_ld_laws,
    check_quantale_laws,
    find_dualizers,
)
from linrel.qmod import (
    check_dual_bimodule,
    check_second_enrichment,
    validate_qbimodule,
    validate_qcategory,
)
from linrel.qrel import (
    check_girard_qrel,
    enumerate_relations,
    finite_set,
    random_relation,
    verify_qrel_laws,
)
from linrel.quantaloid import (
    LinearMonad,
    LinearMonadBimodule,
    one_object_quantaloid,
    validate_linear_monad,
    validate_linear_monad_bimodule,
)
from linrel.report import LAW_GROUPS, LAW_REGISTRY, Sampler
from linrel.verify import (
    build_catalog,
    catalog,
    catalog_entry,
    default_sets,
    oracle_bool_rel_compose,
    oracle_maxplus,
    oracle_minplus,
    oracle_residual_scan,
    run_theorem,
)

S1 = finite_set("s1", ("p",))
S2 = finite_set("s2", ("p", "q"))


# -- oracles ------------------------------------------------------------------


def test_oracle_bool_examples():
    assert oracle_bool_rel_compose([[1, 0]], [[0], [1]], "exists") == ((0,),)
    # forall: every middle point has R(x,y) or S(y,z)
    assert oracle_bool_rel_compose([[1, 0]], [[0], [1]], "forall") == ((1,),)
    assert oracle_bool_rel_compose([[0, 0]], [[0], [1]], "forall") == ((0,),)
    assert oracle_bool_rel_compose([[1]], [[1]], "exists") == ((1,),)


def test_oracle_bool_identity_unit():
    ident = [[1, 0], [0, 1]]
    R = [[1, 0], [1, 1]]
    assert oracle_bool_rel_compose(ident, R, "exists") == tuple(map(tuple, R))
    assert oracle_bool_rel_compose(R, ident, "exists") == tuple(map(tuple, R))


def test_oracle_maxplus_minplus_hand_values():
    assert oracle_maxplus([[1, 2]], [[3], [4]]) == ((6,),)
    assert oracle_minplus([[1, 2]], [[3], [4]]) == ((4,),)
    assert oracle_maxplus([[MINUS_INF, MINUS_INF]], [[5], [7]]) == ((MINUS_INF,),)
    assert oracle_maxplus([[MINUS_INF, PLUS_INF]], [[5], [PLUS_INF]]) == ((PLUS_INF,),)
    assert oracle_minplus([[MINUS_INF, PLUS_INF]], [[5], [MINUS_INF]]) == ((MINUS_INF,),)


def test_oracle_bool_agrees_with_compositions_exhaustively():
    amb = catalog_entry("bool").ld
    from linrel.qrel import compose_par, compose_tensor

    def bits(rel):
        return [[int(v) for v in row] for row in rel.values]

    for X, Y, Z in product((S1, S2), repeat=3):
        for f in enumerate_relations(amb, X, Y):
            for g in enumerate_relations(amb, Y, Z):
                assert tuple(map(tuple, bits(compose_tensor(f, g)))) == \
                    oracle_bool_rel_compose(bits(f), bits(g), "exists")
                assert tuple(map(tuple, bits(compose_par(f, g)))) == \
                    oracle_bool_rel_compose(bits(f), bits(g), "forall")


def test_oracle_agreement_seeded_3x3():
    entry = catalog_entry("zinf-tropical")
    amb = entry.ld
    X = finite_set("X", ("a", "b", "c"))
    rng = Sampler.random(seed=123).rng()
    from linrel.qrel import compose_par, compose_tensor
    for _ in range(500):
        f = random_relation(rng, amb, X, X, window=8)
        g = random_relation(rng, amb, X, X, window=8)
        assert compose_tensor(f, g).values == oracle_maxplus(f.values, g.values)
        assert compose_par(f, g).values == oracle_minplus(f.values, g.values)


def test_oracle_residual_scan_matches_closed_form():
    entry = catalog_entry("zinf-tropical")
    q = entry.ld
    for a in q.sample_elements(10):
        for b in q.sample_elements(10):
            assert q.residual_right(a, b) == oracle_residual_scan(q, a, b, 10)


# -- catalog -------------------------------------------------------------------


EXPECTED_CLASSIFICATION = {
    "point": (True, True, True),
    "bool": (True, True, True),
    "chain3": (True, True, False),
    "diamond": (True, True, True),
    "z2shift": (True, True, True),
    "z3shift": (True, True, True),
    "zinf-tropical": (True, True, True),
    "zinf-arctic": (True, True, True),
    "bool-broken": (False, False, False),
    "chain3-broken": (True, False, False),
    "diamond-broken": (False, False, False),
    "z2shift-broken": (True, False, True),
    "z3shift-broken": (False, False, False),
    "zinf-broken": (True, False, True),
}


def test_catalog_classifications():
    cat = catalog()
    assert set(cat) == set(EXPECTED_CLASSIFICATION)
    for name, (q_ok, ld_ok, girard) in EXPECTED_CLASSIFICATION.items():
        entry = cat[name]
        assert entry.quantale_ok == q_ok, name
        assert entry.ld_ok == ld_ok, name
        assert entry.is_girard == girard, name


def test_catalog_key_dualizers():
    cat = catalog()
    assert cat["bool"].dualizers == ("0",)
    assert cat["chain3"].dualizers == ()
    assert cat["diamond"].dualizers == ("0",)
    assert cat["z2shift"].dualizers == ("e", "a")
    assert cat["z3shift"].dualizers == ("e", "g1", "g2")
    assert 0 in cat["zinf-tropical"].dualizers
    assert PLUS_INF not in cat["zinf-tropical"].dualizers
    assert MINUS_INF not in cat["zinf-tropical"].dualizers


def test_catalog_rederivation_matches():
    """Classifications are never hard-coded: re-deriving from scratch with
    the primitive checks reproduces the stored values."""
    first = build_catalog()
    second = build_catalog()
    assert first == second
    for name, entry in first.items():
        sample = entry.ld.sample_elements(10)
        assert entry.quantale_ok == check_quantale_laws(entry.ld, sample).ok
        assert entry.ld_ok == check_ld_laws(entry.ld, sample).ok
        if entry.quantale_ok:
            assert entry.dualizers == find_dualizers(entry.ld, sample)


def test_girard_negation_involutive_and_order_reversing_everywhere():
    for name, entry in catalog().items():
        g = entry.girard
        if g is None:
            continue
        sample = g.sample_elements(5)
        for a in sample:
            assert g.neg(g.neg(a)) == a, (name, a)
            # the par really is the double-negated reversed product
            for b in sample:
                assert g.par(a, b) == g.neg(g.tensor(g.neg(b), g.neg(a)))
        for a in sample:
            for b in sample:
                if g.leq(a, b):
                    assert g.leq(g.neg(b), g.neg(a)), (name, a, b)


def test_hom_dual_two_sided_on_every_finite_girard_entry():
    from linrel.quantaloid import hom_dual, hom_dual_left
    for name, entry in catalog().items():
        if entry.girard is None or not entry.ld.carrier.is_finite:
            continue
        Q = one_object_quantaloid(entry.ld)
        fam = {"*": entry.girard.dualizer}
        for f in Q.hom("*", "*").elements:
            assert hom_dual(Q, "*", "*", f, fam) == \
                hom_dual_left(Q, "*", "*", f, fam), (name, f)


def test_girard_qrel_z2shift_small_samples():
    entry = catalog_entry("z2shift")
    rep = check_girard_qrel(entry.girard, default_sets(2),
                            Sampler.exhaustive(tuple_budget=2000))
    assert rep.ok


def test_qrel_laws_one_point_quantale_singletons():
    entry = catalog_entry("point")
    rep = verify_qrel_laws(entry.ld, [S1], Sampler.exhaustive())
    assert rep.ok
    assert all(e.mode == "exhaustive" for e in rep.entries)


def test_girard_form_passes_ld_laws_on_every_girard_entry():
    for name, entry in catalog().items():
        if entry.girard is None:
            continue
        sample = entry.girard.sample_elements(6)
        assert check_ld_laws(entry.girard, sample).ok, name
        # the unit dualizes to the par unit
        assert entry.girard.neg(entry.girard.unit) == entry.girard.dualizer


def test_catalog_girard_par_consistency():
    """When the chosen dualizer is the par unit, the derived par agrees
    with the entry's par on the sampled domain."""
    cat = catalog()
    for name in ("bool", "z2shift", "z3shift", "zinf-tropical"):
        entry = cat[name]
        g = entry.girard
        assert g.dualizer == entry.ld.par_unit
        for a in entry.ld.sample_elements(5):
            for b in entry.ld.sample_elements(5):
                assert g.par(a, b) == entry.ld.par(a, b)


# -- determinism ----------------------------------------------------------------


def test_reports_byte_identical_across_runs():
    entry = catalog_entry("zinf-tropical")
    sets = default_sets(2)
    a = verify_qrel_laws(entry.ld, sets, Sampler.random(seed=42, count=50))
    b = verify_qrel_laws(entry.ld, sets, Sampler.random(seed=42, count=50))
    assert a.json_bytes() == b.json_bytes()
    c = check_girard_qrel(entry.girard, sets, Sampler.random(seed=42, count=50))
    d = check_girard_qrel(entry.girard, sets, Sampler.random(seed=42, count=50))
    assert c.json_bytes() == d.json_bytes()


def test_slot_cap_switches_to_seeded_random():
    """Large exhaustive spaces silently fall back to seeded sampling and
    the report records the switch."""
    entry = catalog_entry("diamond")
    big = finite_set("big", ("a", "b", "c"))
    rep = verify_qrel_laws(entry.ld, [big], Sampler(mode="exhaustive", seed=4))
    assert rep.ok
    assert all("random(seed=4" in e.mode for e in rep.entries)
    small = finite_set("small", ("a",))
    rep2 = verify_qrel_laws(catalog_entry("bool").ld, [small],
                            Sampler(mode="exhaustive"))
    assert all(e.mode == "exhaustive" for e in rep2.entries)


def test_different_seeds_may_differ_but_modes_recorded():
    entry = catalog_entry("zinf-tropical")
    rep = verify_qrel_laws(entry.ld, default_sets(2),
                           Sampler.random(seed=3, count=10))
    assert all("seed=3" in e.mode for e in rep.entries)


# -- registry completeness --------------------------------------------------------


def test_registry_labels_unique():
    labels = [lab for labs in LAW_GROUPS.values() for lab in labs]
    assert len(labels) == len(set(labels))
    assert set(labels) == set(LAW_REGISTRY)


def test_quantale_suite_covers_group():
    rep = check_quantale_laws(catalog_entry("bool").ld)
    assert rep.law_names() == LAW_GROUPS["quantale"]


def test_ld_suite_covers_groups():
    rep = check_ld_laws(catalog_entry("bool").ld)
    assert set(rep.law_names()) == set(LAW_GROUPS["quantale"]
                                       + LAW_GROUPS["op-quantale"]
                                       + LAW_GROUPS["linear-distribution"])


def test_qrel_suite_covers_groups():
    rep = verify_qrel_laws(catalog_entry("bool").ld, [S1],
                           Sampler.random(seed=1, count=5))
    assert set(rep.law_names()) == set(LAW_GROUPS["quantale"]
                                       + LAW_GROUPS["op-quantale"]
                                       + LAW_GROUPS["linear-distribution"]
                                       + LAW_GROUPS["posetal-functoriality"])


def test_girard_suite_covers_group():
    rep = check_girard_qrel(catalog_entry("bool").girard, [S1],
                            Sampler.exhaustive())
    assert rep.law_names() == LAW_GROUPS["girard"]


def test_qcat_suites_cover_groups():
    base = one_object_quantaloid(catalog_entry("bool").ld)
    from linrel.qmod import discrete_qcategory, identity_bimodule
    M = discrete_qcategory(base, ("x", "y"), ("*", "*"), linear=True)
    assert validate_qcategory(M).law_names() == (LAW_GROUPS["qcat"]
                                                 + LAW_GROUPS["linear-qcat"])
    plain = discrete_qcategory(base, ("x",), ("*",))
    assert validate_qcategory(plain).law_names() == LAW_GROUPS["qcat"]
    assert validate_qbimodule(identity_bimodule(M)).law_names() == \
        (LAW_GROUPS["qbim"] + LAW_GROUPS["linear-qbim"])


def test_monad_suites_cover_groups():
    base = one_object_quantaloid(catalog_entry("bool").ld)
    lm = LinearMonad("*", "1", "0")
    assert validate_linear_monad(base, lm).law_names() == \
        LAW_GROUPS["linear-monad"]
    bim = LinearMonadBimodule(lm, lm, "1", "0")
    assert validate_linear_monad_bimodule(base, bim).law_names() == \
        LAW_GROUPS["monad-bimodule"]


def test_second_enrichment_suites_cover_groups():
    base = one_object_quantaloid(catalog_entry("bool").ld)
    from linrel.qmod import discrete_qcategory, identity_bimodule
    M = discrete_qcategory(base, ("x", "y"), ("*", "*"))
    assert check_second_enrichment(M, {"*": "0"}).law_names() == \
        LAW_GROUPS["second-enrichment"]
    assert check_dual_bimodule(identity_bimodule(M), {"*": "0"}).law_names() == \
        LAW_GROUPS["second-enrichment-bimodule"]


def test_adjunction_labels_emitted_by_closedness_driver():
    rep = run_theorem("qrel-closed", "bool", Sampler.random(seed=1, count=20))
    assert set(LAW_GROUPS["linear-adjunction"]) <= set(rep.law_names())


# -- theorem drivers ----------------------------------------------------------------


THEOREM_KEYS = ("theorem-forward", "theorem-backward")


def test_ldq_biconditional_all_entries():
    for name in catalog():
        rep = run_theorem("LDQ", name, Sampler.random(seed=7, count=60))
        for key in THEOREM_KEYS:
            assert rep.entry(key).ok, (name, key)
        assert rep.entry("theorem-transfer").ok, name


def test_ldq_broken_records_transfer_witness():
    rep = run_theorem("ldq", "chain3-broken", Sampler.random(seed=7, count=40))
    assert not rep.entry("base-laws").ok
    assert not rep.entry("derived-laws").ok
    assert rep.entry("derived-laws").witness is not None


def test_girard_qrel_theorem():
    for name in ("bool", "diamond", "zinf-tropical", "chain3"):
        rep = run_theorem("GirardQRel", name, Sampler.random(seed=7, count=60))
        for key in THEOREM_KEYS:
            assert rep.entry(key).ok, (name, key)


def test_girard_qmod_and_monq_theorems():
    for name in ("bool", "z2shift", "chain3"):
        for thm in ("girard-qmod", "girard-monq"):
            rep = run_theorem(thm, name, Sampler.random(seed=5, count=30))
            for key in THEOREM_KEYS:
                assert rep.entry(key).ok, (name, thm, key)


def test_linear_theorems():
    for name in ("bool", "chain3", "z2shift"):
        for thm in ("linear-monq", "linear-qmod"):
            rep = run_theorem(thm, name, Sampler.random(seed=5, count=30))
            for key in THEOREM_KEYS:
                assert rep.entry(key).ok, (name, thm, key)


def test_closedness_theorems():
    for name in ("bool", "diamond", "z2shift", "zinf-tropical"):
        rep = run_theorem("qrel-closed", name, Sampler.random(seed=2, count=60))
        assert rep.ok, name
    rep = run_theorem("qrel-closed", "chain3", Sampler.exhaustive())
    assert rep.entry("theorem-forward").ok  # the gap was found
    for name in ("bool", "z2shift"):
        rep = run_theorem("qmod-closed", name, Sampler.random(seed=2, count=20))
        assert rep.ok, name


def test_theorem_id_normalization():
    rep1 = run_theorem("LDQ", "bool", Sampler.random(seed=1, count=10))
    rep2 = run_theorem("ldq", "bool", Sampler.random(seed=1, count=10))
    assert rep1.json_bytes() == rep2.json_bytes()
    from linrel.errors import UnknownElementError
    with pytest.raises(UnknownElementError):
        run_theorem("nope", "bool")
    with pytest.raises(UnknownElementError):
        run_theorem("ldq", "no-such-entry")


# -- witness shrinking ----------------------------------------------------------------


def test_shrinking_minimizes_broken_zinf_witness():
    entry = catalog_entry("zinf-broken")
    rep = verify_qrel_laws(entry.ld, default_sets(2),
                           Sampler.random(seed=7, count=150))
    assert not rep.ok
    fails = {e.law: e for e in rep.failing()}
    assert "par-top-left" in fails or "par-top-right" in fails
    entry_fail = fails.get("par-top-left") or fails.get("par-top-right")
    f = entry_fail.witness["f"]
    # shrunk to a one-point relation whose entry is the absorbing infinity
    assert f["values"] == [["-inf"]]


def test_witness_reproduces_failure():
    entry = catalog_entry("chain3-broken")
    rep = verify_qrel_laws(entry.ld, default_sets(2),
                           Sampler.random(seed=7, count=150))
    fail = rep.failing()[0]
    assert fail.witness is not None
    # replay: rebuild the relations named in the witness and re-check them
    # on the relation-level reference calculus
    from relation_reference import REL_LAW_SPECS
    from linrel.qrel import FiniteSet, QRelation
    shape, pred = REL_LAW_SPECS[fail.law]
    sets = {name: FiniteSet(name, tuple(members))
            for name, members in fail.witness["sets"].items()}
    rels = []
    for key in ("f", "g", "h"):
        if key in fail.witness:
            blob = fail.witness[key]
            rels.append(QRelation(sets[blob["source"]], sets[blob["target"]],
                                  entry.ld,
                                  tuple(tuple(r) for r in blob["values"])))
    assert not pred(tuple(rels))
