"""Enriched categories and bimodules: validation, composition, the Girard
family, linear adjoints, and the lifting theorem."""

from itertools import product

import pytest

from linrel.errors import MismatchError, NotGirardError
from linrel.qmod import (
    QBimodule,
    QCategory,
    bim_join,
    bim_leq,
    bim_meet,
    check_dual_bimodule,
    check_girard_qmod,
    check_qmod_linear_adjoint,
    check_second_enrichment,
    discrete_qcategory,
    enumerate_qbimodules,
    enumerate_qcategories,
    girard_linear_bimodule,
    identity_bimodule,
    par_identity_bimodule,
    qbimodule,
    qbimodule_from_json,
    qbimodule_to_json,
    qcategory,
    qcategory_from_json,
    qcategory_to_json,
    qmod_compose_par,
    qmod_compose_tensor,
    qmod_delta,
    qmod_linear_adjoint,
    qmod_right_extension,
    qmod_right_lifting,
    sample_linear_categories,
    second_enrichment,
    validate_qbimodule,
    validate_qcategory,
    verify_linear_qmod_theorem,
)
from linrel.qrel import compose_par, compose_tensor, finite_set, relation
from linrel.quantaloid import one_object_quantaloid
from linrel.report import Sampler
from linrel.verify import catalog_entry


def bool_base():
    return one_object_quantaloid(catalog_entry("bool").ld)


def z2_base():
    return one_object_quantaloid(catalog_entry("z2shift").ld)


BOOL_FAMILY = {"*": "0"}


def bool_preorders():
    base = bool_base()
    return list(enumerate_qcategories(base, ("x", "y"), ("*", "*")))


def test_discrete_category_validates():
    base = bool_base()
    M = discrete_qcategory(base, ("x", "y"), ("*", "*"), linear=True)
    assert validate_qcategory(M).ok
    assert M.enrich_tensor == (("1", "0"), ("0", "1"))
    assert M.enrich_par == (("0", "1"), ("1", "0"))


@pytest.mark.parametrize("rho", [("*", "*"), ()], ids=["longer", "shorter"])
def test_discrete_category_needs_one_object_per_member(rho):
    # a longer rho once built a one-member category on two objects, and a
    # shorter one raised IndexError
    with pytest.raises(MismatchError):
        discrete_qcategory(bool_base(), ("x",), rho)


def test_boolean_categories_are_preorders():
    cats = bool_preorders()
    # preorders on two points: discrete, two one-way arrows, and the chaos
    assert len(cats) == 4
    for M in cats:
        assert M.enrich_tensor[0][0] == "1" and M.enrich_tensor[1][1] == "1"


def test_non_transitive_enrichment_fails():
    base = bool_base()
    M = QCategory(base, ("x", "y", "z"), ("*", "*", "*"),
                  (("1", "1", "0"), ("0", "1", "1"), ("0", "0", "1")))
    rep = validate_qcategory(M)
    assert not rep.ok
    assert rep.entry("qcat-tensor-composition").witness is not None


def test_identity_bimodule_validates():
    for M in bool_preorders():
        assert validate_qbimodule(identity_bimodule(M)).ok


def test_linear_identity_bimodule_validates():
    base = z2_base()
    for M in sample_linear_categories(base, (1, 2), per_shape=3):
        assert validate_qbimodule(identity_bimodule(M)).ok


def test_second_enrichment_is_a_bimodule():
    for M in bool_preorders():
        S = second_enrichment(M, BOOL_FAMILY)
        assert validate_qcategory(S).ok
        plain = QBimodule(M, M, S.enrich_par)
        assert validate_qbimodule(plain).ok
        assert check_second_enrichment(M, BOOL_FAMILY).ok


def test_second_enrichment_over_z2shift():
    base = z2_base()
    fam = {"*": "a"}
    for M in list(enumerate_qcategories(base, ("x",), ("*",)))[:6]:
        assert check_second_enrichment(M, fam).ok


def test_dual_bimodule_forms():
    cats = bool_preorders()
    for A in cats[:2]:
        for B in cats[:2]:
            for T in enumerate_qbimodules(A, B)[:6]:
                assert check_dual_bimodule(T, BOOL_FAMILY).ok


# -- composition ---------------------------------------------------------


def test_compose_units():
    cats = bool_preorders()
    for A in cats:
        for B in cats:
            for T in enumerate_qbimodules(A, B)[:8]:
                assert qmod_compose_tensor(identity_bimodule(A), T) == T
                assert qmod_compose_tensor(T, identity_bimodule(B)) == T


def test_par_compose_units_linear():
    base = bool_base()
    cats = sample_linear_categories(base, (1, 2), per_shape=3)
    for A in cats[:3]:
        for B in cats[:3]:
            for T in enumerate_qbimodules(A, B, linear=True, limit=6):
                assert qmod_compose_par(par_identity_bimodule(A), T) == T
                assert qmod_compose_par(T, par_identity_bimodule(B)) == T


def test_boolean_composition_matches_relations():
    """Over the one-object Boolean base, bimodule composition is relation
    composition once the enrichments are forgotten."""
    amb = catalog_entry("bool").ld
    base = bool_base()
    cats = bool_preorders()
    X = finite_set("X", ("x", "y"))
    for A, B, C in product(cats[:2], cats[:2], cats[:2]):
        for T in enumerate_qbimodules(A, B)[:5]:
            for P in enumerate_qbimodules(B, C)[:5]:
                got = qmod_compose_tensor(T, P).values_tensor
                want = compose_tensor(
                    relation(X, X, amb, T.values_tensor),
                    relation(X, X, amb, P.values_tensor)).values
                assert got == want


def test_compose_mismatch():
    cats = bool_preorders()
    T = identity_bimodule(cats[0])
    P = identity_bimodule(cats[1])
    if cats[0] != cats[1]:
        with pytest.raises(MismatchError):
            qmod_compose_tensor(T, P)


# -- Girard family ---------------------------------------------------------


def test_delta_of_discrete_is_antidiagonal():
    base = bool_base()
    M = discrete_qcategory(base, ("x", "y"), ("*", "*"))
    assert qmod_delta(M, BOOL_FAMILY).values_tensor == (("0", "1"), ("1", "0"))


def test_delta_twice_recovers_enrichment():
    for M in bool_preorders():
        d1 = qmod_delta(M, BOOL_FAMILY)
        M2 = QCategory(M.base, M.members, M.rho, d1.values_tensor)
        assert qmod_delta(M2, BOOL_FAMILY).values_tensor == M.enrich_tensor


def test_girard_qmod_boolean_exhaustive():
    base = bool_base()
    cats = bool_preorders() + [discrete_qcategory(base, ("x",), ("*",))]
    bims = []
    for A in cats:
        for B in cats:
            bims.extend(enumerate_qbimodules(A, B))
    rep = check_girard_qmod(base, BOOL_FAMILY, bims, mode="exhaustive")
    assert rep.ok


def test_girard_qmod_z2shift_sampled():
    base = z2_base()
    fam = {"*": "a"}
    cats = [discrete_qcategory(base, ("x", "y"), ("*", "*"))]
    cats += list(enumerate_qcategories(base, ("x", "y"), ("*", "*")))[:4]
    bims = []
    for A in cats:
        for B in cats:
            bims.extend(enumerate_qbimodules(A, B, limit=3))
    assert check_girard_qmod(base, fam, bims).ok


def test_girard_qmod_chain3_fails_with_witness():
    base = one_object_quantaloid(catalog_entry("chain3").ld)
    M = discrete_qcategory(base, ("x",), ("*",))
    bims = enumerate_qbimodules(M, M)
    for d in ("0", "m", "1"):
        rep = check_girard_qmod(base, {"*": d}, bims)
        assert not rep.ok, d
        assert all(e.witness is not None for e in rep.failing())
    # the bimodule constructor still refuses a non-dualizing family
    with pytest.raises(NotGirardError):
        qmod_delta(M, {"*": "m"})


def test_girard_qmod_needs_a_family_element_at_every_object():
    # it once died with a bare KeyError, where the family check and
    # qmod_delta name the missing object
    base = bool_base()
    M = discrete_qcategory(base, ("x",), ("*",))
    bims = enumerate_qbimodules(M, M)
    for check in (lambda: check_girard_qmod(base, {}, bims),
                  lambda: qmod_delta(M, {})):
        with pytest.raises(MismatchError, match="family is missing object '\\*'"):
            check()


def test_extension_and_lifting_cyclicity():
    base = bool_base()
    cats = bool_preorders()
    for A in cats[:3]:
        for B in cats[:3]:
            for T in enumerate_qbimodules(A, B)[:6]:
                ext = qmod_right_extension(T, qmod_delta(A, BOOL_FAMILY))
                lift = qmod_right_lifting(qmod_delta(B, BOOL_FAMILY), T)
                assert ext == lift


# -- linear adjoints ---------------------------------------------------------


def test_every_boolean_bimodule_has_linear_adjoint():
    cats = bool_preorders()
    for A in cats:
        for B in cats:
            for T in enumerate_qbimodules(A, B)[:10]:
                lt = girard_linear_bimodule(T, BOOL_FAMILY)
                adj = qmod_linear_adjoint(lt, BOOL_FAMILY)
                assert check_qmod_linear_adjoint(lt, adj)


def test_adjoint_of_identity_is_delta():
    for M in bool_preorders():
        lin = second_enrichment(M, BOOL_FAMILY)
        adj = qmod_linear_adjoint(identity_bimodule(lin), BOOL_FAMILY)
        assert adj.values_tensor == qmod_delta(M, BOOL_FAMILY).values_tensor


def test_double_adjoint_recovers_tensor_part():
    cats = bool_preorders()
    for A in cats[:2]:
        for B in cats[:2]:
            for T in enumerate_qbimodules(A, B)[:6]:
                lt = girard_linear_bimodule(T, BOOL_FAMILY)
                twice = qmod_linear_adjoint(
                    qmod_linear_adjoint(lt, BOOL_FAMILY), BOOL_FAMILY)
                assert twice.values_tensor == lt.values_tensor


def test_boolean_adjoint_matches_relation_dual():
    from linrel.qrel import rel_dual
    amb = catalog_entry("bool").girard
    X = finite_set("X", ("x", "y"))
    cats = bool_preorders()
    M = discrete_qcategory(bool_base(), ("x", "y"), ("*", "*"))
    for T in enumerate_qbimodules(M, M)[:10]:
        lt = girard_linear_bimodule(T, BOOL_FAMILY)
        adj = qmod_linear_adjoint(lt, BOOL_FAMILY)
        r = relation(X, X, amb, T.values_tensor)
        assert adj.values_tensor == rel_dual(r, "0").values


# -- mixed order --------------------------------------------------------------


def test_bim_leq_mixed_order():
    base = bool_base()
    M = discrete_qcategory(base, ("x",), ("*",), linear=True)
    lo = QBimodule(M, M, (("0",),), (("1",),))
    hi = QBimodule(M, M, (("1",),), (("0",),))
    assert bim_leq(lo, hi)
    assert not bim_leq(hi, lo)
    assert bim_join(lo, hi) == hi
    assert bim_meet(lo, hi) == lo


# -- theorem driver -----------------------------------------------------------


def test_linear_qmod_theorem_entries():
    for name in ("bool", "chain3", "diamond"):
        base = one_object_quantaloid(catalog_entry(name).ld)
        rep = verify_linear_qmod_theorem(base, Sampler.random(seed=9, count=40))
        assert rep.ok, (name, [e.law for e in rep.failing()])


def test_linear_qmod_theorem_broken_transfers():
    for name in ("bool-broken", "chain3-broken"):
        base = one_object_quantaloid(catalog_entry(name).ld)
        rep = verify_linear_qmod_theorem(base, Sampler.random(seed=9, count=40))
        assert any(not e.ok for e in rep.entries)
        assert rep.entry("theorem-forward").ok
        assert rep.entry("theorem-backward").ok
        assert rep.entry("theorem-transfer").ok


# -- JSON ---------------------------------------------------------------------


def test_qcategory_json_roundtrip():
    base = bool_base()
    M = bool_preorders()[2]
    blob = qcategory_to_json(M)
    back = qcategory_from_json(blob, base)
    assert back == M


def test_qbimodule_json_roundtrip():
    cats = bool_preorders()
    T = enumerate_qbimodules(cats[0], cats[1])[1]
    blob = qbimodule_to_json(T)
    back = qbimodule_from_json(blob, cats[0], cats[1])
    assert back == T


def test_qcategory_json_missing_field():
    from linrel.errors import InputFormatError
    with pytest.raises(InputFormatError):
        qcategory_from_json({"members": ["x"]}, bool_base())
