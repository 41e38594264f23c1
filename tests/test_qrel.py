"""Relation calculus: compositions against independent oracles, identities,
residual relations, dualization, and adjunction facts."""

import random
from dataclasses import replace
from itertools import product

import pytest

from relation_reference import QREL_CALCULUS

from linrel.errors import MismatchError, NoParStructureError, NotGirardError
from linrel.lattice import chain
from linrel.laws import ADJOINT_LAWS
from linrel.quantale import (
    MINUS_INF,
    PLUS_INF,
    girard_quantale,
    table_quantale,
    tropical_quantale,
)
from linrel.qrel import (
    _coded,
    _shrink_case,
    check_girard_qrel,
    check_linear_adjoint,
    compose_par,
    compose_tensor,
    dual_family,
    enumerate_relations,
    finite_set,
    id_bot,
    id_top,
    random_relation,
    rel_dual,
    rel_leq,
    relation,
    relation_from_json,
    relation_to_json,
    right_extension,
    right_lifting,
    transfer_quantale_witness,
    verify_qrel_laws,
    zero_relation,
)
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry


def bool_quantale():
    two = chain(["0", "1"])
    return table_quantale(two, [["0", "0"], ["0", "1"]], "1")


def bool_girard():
    return girard_quantale(bool_quantale(), "0")


def bool_ld():
    return replace(bool_girard(), dualizer=None)


def zinf_girard():
    return girard_quantale(tropical_quantale(), 0)


def zinf_ld():
    return replace(zinf_girard(), dualizer=None)


S1 = finite_set("s1", ("p",))
S2 = finite_set("s2", ("p", "q"))
S3 = finite_set("s3", ("p", "q", "r"))
EMPTY = finite_set("empty", ())


# -- composition ---------------------------------------------------------


def oracle_exists(R, S):
    ny = len(S)
    return tuple(tuple(int(any(R[x][y] and S[y][z] for y in range(ny)))
                       for z in range(len(S[0]) if ny else 0))
                 for x in range(len(R)))


def oracle_forall(R, S):
    ny = len(S)
    return tuple(tuple(int(all(R[x][y] or S[y][z] for y in range(ny)))
                       for z in range(len(S[0]) if ny else 0))
                 for x in range(len(R)))


def as_bits(rel):
    return tuple(tuple(int(v) for v in row) for row in rel.values)


def test_boolean_compositions_match_logic_small():
    amb = bool_ld()
    for X, Y, Z in product((S1, S2), repeat=3):
        for f in enumerate_relations(amb, X, Y):
            for g in enumerate_relations(amb, Y, Z):
                assert as_bits(compose_tensor(f, g)) == oracle_exists(as_bits(f), as_bits(g))
                assert as_bits(compose_par(f, g)) == oracle_forall(as_bits(f), as_bits(g))


def test_zinf_composition_examples():
    amb = zinf_ld()
    A = finite_set("A", ("a",))
    B = finite_set("B", ("b1", "b2"))
    C = finite_set("C", ("c",))
    f = relation(A, B, amb, [[1, 2]])
    g = relation(B, C, amb, [[3], [4]])
    assert compose_tensor(f, g).values == ((6,),)
    assert compose_par(f, g).values == ((4,),)


def test_identity_matrices():
    amb = zinf_ld()
    assert id_top(S2, amb).values == ((0, MINUS_INF), (MINUS_INF, 0))
    assert id_bot(S2, amb).values == ((0, PLUS_INF), (PLUS_INF, 0))
    bamb = bool_ld()
    assert id_top(S1, bamb).values == (("1",),)


def test_units_hold_for_sampled_relations():
    amb = zinf_ld()
    rng_sampler = Sampler.random(seed=11, count=40)
    from linrel.qrel import random_relation
    rng = rng_sampler.rng()
    for _ in range(40):
        f = random_relation(rng, amb, S2, S3)
        assert compose_tensor(id_top(S2, amb), f).values == f.values
        assert compose_tensor(f, id_top(S3, amb)).values == f.values
        assert compose_par(id_bot(S2, amb), f).values == f.values
        assert compose_par(f, id_bot(S3, amb)).values == f.values


def test_empty_middle_set_gives_extremes():
    amb = bool_ld()
    f = relation(S2, EMPTY, amb, [[], []])
    g = relation(EMPTY, S1, amb, [])
    assert compose_tensor(f, g).values == (("0",), ("0",))
    assert compose_par(f, g).values == (("1",), ("1",))


def test_compose_mismatch_errors():
    amb = bool_ld()
    f = relation(S1, S2, amb, [["0", "1"]])
    g = relation(S1, S2, amb, [["0", "1"]])
    with pytest.raises(MismatchError):
        compose_tensor(f, g)
    q = bool_quantale()  # plain quantale, no par
    h = relation(S1, S2, q, [["0", "1"]])
    with pytest.raises(NoParStructureError):
        compose_par(h, relation(S2, S2, q, [["0", "0"], ["0", "0"]]))


def test_exhaustive_associativity_and_units_boolean():
    amb = bool_ld()
    rels = {(X.name, Y.name): list(enumerate_relations(amb, X, Y))
            for X, Y in product((S2,), repeat=2)}
    pool = rels[("s2", "s2")]
    for f in pool:
        assert compose_tensor(id_top(S2, amb), f).values == f.values
        assert compose_par(f, id_bot(S2, amb)).values == f.values
    for f, g, h in product(pool, repeat=3):
        assert compose_tensor(compose_tensor(f, g), h).values == \
            compose_tensor(f, compose_tensor(g, h)).values
        assert compose_par(compose_par(f, g), h).values == \
            compose_par(f, compose_par(g, h)).values


def test_chain3_associativity_spot_checks():
    entry = catalog_entry("chain3")
    amb = entry.ld
    small = list(enumerate_relations(amb, S1, S2))
    back = list(enumerate_relations(amb, S2, S1))
    for f in small:
        for g in back:
            for h in small:
                assert compose_tensor(compose_tensor(f, g), h).values == \
                    compose_tensor(f, compose_tensor(g, h)).values


# -- order ----------------------------------------------------------------


def test_rel_leq():
    amb = zinf_ld()
    one = relation(S1, S1, amb, [[1]])
    two = relation(S1, S1, amb, [[2]])
    assert rel_leq(one, one)
    assert rel_leq(one, two)
    assert not rel_leq(two, one)
    bamb = bool_ld()
    bottom = zero_relation(S2, S2, bamb)
    for g in enumerate_relations(bamb, S2, S2):
        assert rel_leq(bottom, g)


# -- residual relations ----------------------------------------------------


def test_right_extension_along_identity():
    amb = bool_ld()
    for h in enumerate_relations(amb, S2, S2):
        assert right_extension(id_top(S2, amb), h).values == h.values


def test_right_extension_adjunction_exhaustive():
    amb = bool_ld()
    for f in enumerate_relations(amb, S2, S1):
        for h in enumerate_relations(amb, S2, S2):
            ext = right_extension(f, h)
            for s in enumerate_relations(amb, S1, S2):
                assert rel_leq(compose_tensor(f, s), h) == rel_leq(s, ext)


def test_right_lifting_adjunction_exhaustive():
    amb = bool_ld()
    for f in enumerate_relations(amb, S1, S2):
        for h in enumerate_relations(amb, S2, S2):
            lift = right_lifting(h, f)
            for s in enumerate_relations(amb, S2, S1):
                assert rel_leq(compose_tensor(s, f), h) == rel_leq(s, lift)


def test_boolean_1x1_extension():
    amb = bool_ld()
    f = relation(S1, S1, amb, [["1"]])
    h = relation(S1, S1, amb, [["0"]])
    assert right_extension(f, h).values == (("0",),)


# -- dualization -----------------------------------------------------------


def test_dual_family_matrix():
    g = bool_girard()
    assert dual_family(S2, g, "0").values == (("0", "1"), ("1", "0"))
    zg = zinf_girard()
    assert dual_family(S1, zg, 0).values == ((0,),)


def test_dual_family_at_par_unit_is_id_bot():
    amb = bool_ld()
    assert dual_family(S2, amb, amb.par_unit).values == id_bot(S2, amb).values


def test_rel_dual_boolean_is_negated_transpose():
    g = bool_girard()
    for r in enumerate_relations(g, S2, S1):
        d = rel_dual(r, "0")
        for i, x in enumerate(S2.members):
            for j, y in enumerate(S1.members):
                assert d.values[j][i] == ("0" if r.values[i][j] == "1" else "1")


def test_rel_dual_involution_boolean():
    g = bool_girard()
    for X, Y in product((S1, S2), repeat=2):
        for r in enumerate_relations(g, X, Y):
            assert rel_dual(rel_dual(r, "0"), "0").values == r.values


def test_rel_dual_zinf():
    g = zinf_girard()
    r = relation(S1, S2, g, [[3, MINUS_INF]])
    assert rel_dual(r, 0).values == ((-3,), (PLUS_INF,))


def test_rel_dual_matches_extension_along_family():
    g = zinf_girard()
    sampler = Sampler.random(seed=5, count=30)
    rng = sampler.rng()
    from linrel.qrel import random_relation
    for _ in range(30):
        r = random_relation(rng, g, S2, S3, window=5)
        via_formula = rel_dual(r, 0)
        via_extension = right_extension(r, dual_family(S2, g, 0))
        assert via_formula.values == via_extension.values


def test_rel_dual_exchanges_compositions():
    g = bool_girard()
    for f in enumerate_relations(g, S1, S2):
        for h in enumerate_relations(g, S2, S2):
            lhs = rel_dual(compose_tensor(f, h), "0")
            rhs = compose_par(rel_dual(h, "0"), rel_dual(f, "0"))
            assert lhs.values == rhs.values


def test_rel_dual_exchange_zinf_sampled():
    g = zinf_girard()
    from linrel.qrel import random_relation
    rng = Sampler.random(seed=21).rng()
    for _ in range(60):
        f = random_relation(rng, g, S1, S2, window=5)
        h = random_relation(rng, g, S2, S2, window=5)
        lhs = rel_dual(compose_tensor(f, h), 0)
        rhs = compose_par(rel_dual(h, 0), rel_dual(f, 0))
        assert lhs.values == rhs.values


def test_extension_adjunction_zinf_sampled():
    g = zinf_girard()
    from linrel.qrel import random_relation
    rng = Sampler.random(seed=22).rng()
    for _ in range(40):
        f = random_relation(rng, g, S2, S1, window=4)
        h = random_relation(rng, g, S2, S2, window=4)
        ext = right_extension(f, h)
        assert rel_leq(compose_tensor(f, ext), h)
        for _ in range(5):
            s = random_relation(rng, g, S1, S2, window=4)
            assert rel_leq(compose_tensor(f, s), h) == rel_leq(s, ext)


def test_rel_dual_requires_girard():
    q = table_quantale(chain(["0", "1"]), [["0", "0"], ["0", "1"]], "1")
    r = relation(S1, S1, q, [["0"]])
    with pytest.raises(NotGirardError):
        rel_dual(r)


# -- linear adjunctions -----------------------------------------------------


def test_every_boolean_relation_adjoint_to_its_dual():
    g = bool_girard()
    for X, Y in product((S1, S2), repeat=2):
        for r in enumerate_relations(g, X, Y):
            assert check_linear_adjoint(r, rel_dual(r, "0"))


def test_identity_pair_is_adjoint():
    amb = bool_ld()
    assert check_linear_adjoint(id_top(S2, amb), id_bot(S2, amb))


def test_chain3_middle_cell_has_no_adjoint():
    entry = catalog_entry("chain3")
    amb = entry.ld
    A = relation(S1, S1, amb, [["m"]])
    for b in ("0", "m", "1"):
        assert not check_linear_adjoint(A, relation(S1, S1, amb, [[b]]))


def test_adjunction_characterizes_hom_adjoints():
    # being adjoint is equivalent to composing with the pair being adjoint
    # between hom posets
    amb = bool_ld()
    Z = S2
    for A in enumerate_relations(amb, S2, S1):
        for B in enumerate_relations(amb, S1, S2):
            adj = check_linear_adjoint(A, B)
            hom_adj = all(
                rel_leq(compose_tensor(C, A), D) == rel_leq(C, compose_par(D, B))
                for C in enumerate_relations(amb, Z, S2)
                for D in enumerate_relations(amb, Z, S1))
            assert adj == hom_adj, (A.values, B.values)


def reference_adjoint(A, B):
    """The unit and counit on the relation-level reference calculus."""
    return all(law(QREL_CALCULUS, A, B) for law in ADJOINT_LAWS.values())


FINITE = sorted(name for name, e in catalog().items() if e.ld.carrier.is_finite)
ZINF = sorted(name for name, e in catalog().items() if not e.ld.carrier.is_finite)


@pytest.mark.parametrize("name", FINITE + ZINF)
def test_linear_adjoint_matches_reference_calculus(name):
    amb = catalog_entry(name).ld
    pairs = [(id_top(X, amb), id_bot(X, amb)) for X in (S1, S2)]
    if amb.carrier.is_finite:
        # every pair of one-point relations
        ones = list(enumerate_relations(amb, S1, S1))
        pairs += list(product(ones, repeat=2))
        shapes = ((S2, S1), (S1, S2))
    else:
        shapes = ((S1, S1), (S2, S1), (S1, S2), (S2, S2))
    rng = random.Random(f"adjoint-{name}")
    for _ in range(200):
        X, Y = rng.choice(shapes)
        pairs.append((random_relation(rng, amb, X, Y), random_relation(rng, amb, Y, X)))
    verdicts = [check_linear_adjoint(A, B) for A, B in pairs]
    assert verdicts == [reference_adjoint(A, B) for A, B in pairs]
    assert len(set(verdicts)) == (1 if name == "point" else 2)


# -- law suites --------------------------------------------------------------


def test_verify_qrel_laws_boolean_passes():
    rep = verify_qrel_laws(bool_ld(), [S1, S2], Sampler.random(seed=7, count=80))
    assert rep.ok


def test_verify_qrel_laws_zinf_passes():
    rep = verify_qrel_laws(zinf_ld(), [S1, S2], Sampler.random(seed=7, count=80))
    assert rep.ok
    assert all("random" in e.mode for e in rep.entries)


def test_verify_qrel_laws_broken_entry_fails_with_witness():
    entry = catalog_entry("chain3-broken")
    rep = verify_qrel_laws(entry.ld, [S1, S2], Sampler.random(seed=7, count=120))
    assert not rep.ok
    for e in rep.failing():
        assert e.witness is not None


def test_check_girard_qrel_boolean_exhaustive():
    rep = check_girard_qrel(bool_girard(), [S1, S2], Sampler.exhaustive())
    assert rep.ok
    assert all(e.mode == "exhaustive" for e in rep.entries)


def test_check_girard_qrel_zinf_sampled():
    rep = check_girard_qrel(zinf_girard(), [S1, S2],
                            Sampler.random(seed=7, count=100, window=5))
    assert rep.ok


def test_check_girard_qrel_chain3_fails_with_constant_zero_witness():
    entry = catalog_entry("chain3")
    q = entry.ld
    rep = check_girard_qrel(q, [S1, S2], Sampler.exhaustive(), d="m")
    assert not rep.ok
    dd = rep.entry("girard-double-dual")
    assert dd.status == "fail"
    # shrinking lands on the constant-bottom one-point relation
    assert dd.witness["f"]["values"] == [["0"]]


def test_transfer_quantale_witness_reproduces_failure():
    entry = catalog_entry("chain3-broken")
    from linrel.quantale import check_ld_laws
    rep = check_ld_laws(entry.ld)
    fail = rep.failing()[0]
    holds, wit = transfer_quantale_witness(entry.ld, fail.law, fail.witness)
    assert not holds
    assert "f" in wit


def test_transfer_needs_a_par_only_for_laws_that_read_it():
    amb = bool_quantale()
    holds, wit = transfer_quantale_witness(amb, "tensor-unit-left", {"a": "1"})
    assert holds and wit["f"]["values"] == [["1"]]
    for label in ("par-unit-left", "par-associativity", "linear-distribution-left"):
        with pytest.raises(NoParStructureError):
            transfer_quantale_witness(amb, label, {"a": "1", "b": "0", "c": "1"})


def test_transfer_reproduces_every_failing_law_of_every_broken_entry():
    from linrel.quantale import check_ld_laws
    from linrel.verify import catalog
    for name, entry in catalog().items():
        if entry.ld_ok:
            continue
        sample = entry.ld.sample_elements(6)
        for fail in check_ld_laws(entry.ld, sample).failing():
            holds, _ = transfer_quantale_witness(entry.ld, fail.law,
                                                 fail.witness)
            assert not holds, (name, fail.law, fail.witness)


# -- JSON ---------------------------------------------------------------------


def test_shrinker_lets_a_predicate_error_through():
    # dropping a member restricts every set equal to the victim, so a
    # candidate always composes: an error in the predicate is a fault of
    # the predicate and must not be taken for "the law holds"
    amb = bool_girard()
    f = _coded(relation(S2, S2, amb, [["1", "0"], ["0", "1"]]))

    def holds(f, g):
        if len(f[0]) == 1:
            raise ZeroDivisionError("raised on a restricted case")
        return False

    with pytest.raises(ZeroDivisionError):
        _shrink_case(amb, (f, f), holds)


def test_relation_json_roundtrip():
    amb = zinf_ld()
    r = relation(S2, S3, amb, [[1, MINUS_INF, 4], [PLUS_INF, 0, -2]])
    blob = relation_to_json(r)
    back = relation_from_json(blob, amb)
    assert back == r


def test_relation_json_bad_entry():
    amb = bool_ld()
    from linrel.errors import UnknownElementError
    with pytest.raises(UnknownElementError):
        relation_from_json({"source": {"name": "A", "members": ["a"]},
                            "target": {"name": "B", "members": ["b"]},
                            "values": [["zz"]]}, amb)
