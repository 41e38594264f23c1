"""Quantaloid layer: law suite, Girard families, monads, and the monad
construction theorems."""

from dataclasses import replace
from itertools import product

import pytest

from linrel.errors import (
    MismatchError,
    NoParStructureError,
    SearchSpaceError,
    UnknownElementError,
)
from linrel.lattice import chain
from linrel.quantale import TableOp, table_quantale
from linrel.quantaloid import (
    LinearMonad,
    LinearMonadBimodule,
    Monad,
    MonadBimodule,
    check_girard_family,
    check_linear_monad,
    check_linear_monad_bimodule,
    check_monad,
    check_monad_bimodule,
    check_quantaloid_laws,
    find_girard_families,
    finite_quantaloid,
    hom_dual,
    linear_monad_bimodules,
    linear_monad_name,
    linear_monads_of,
    linear_monq_quantaloid,
    monad_name,
    monads_of,
    monq_compose,
    monq_girard_family,
    monq_identity,
    monq_quantaloid,
    one_object_quantaloid,
    quantaloid_from_json,
    quantaloid_to_json,
    quantaloid_to_quantale,
    validate_linear_monad,
    validate_linear_monad_bimodule,
)
from linrel.qmod import verify_linear_quantaloid_theorems
from linrel.verify import catalog_entry


def bool_base():
    return one_object_quantaloid(catalog_entry("bool").ld)


def chain3_base():
    return one_object_quantaloid(catalog_entry("chain3").ld)


def two_object_bool():
    """All homs the two-chain, composition by meet."""
    lat = chain(["0", "1"])
    objs = ["a", "b"]
    homs = {(x, y): lat for x in objs for y in objs}
    table = tuple(tuple(lat.meet((f, g)) for g in lat.elements)
                  for f in lat.elements)
    tables = {(x, y, z): table for x in objs for y in objs for z in objs}
    units = {x: "1" for x in objs}
    return finite_quantaloid(objs, homs, tables, units)


def test_one_object_roundtrip():
    ld = catalog_entry("z2shift").ld
    assert quantaloid_to_quantale(one_object_quantaloid(ld)) == ld


def test_one_object_laws_match_quantale():
    for name in ("bool", "chain3", "z2shift", "chain3-broken"):
        entry = catalog_entry(name)
        rep = check_quantaloid_laws(one_object_quantaloid(entry.ld))
        assert rep.ok == entry.ld_ok


def test_two_object_quantaloid_passes():
    assert check_quantaloid_laws(two_object_bool()).ok


def test_compose_errors():
    Q = bool_base()
    assert Q.compose("*", "*", "*", "1", "1") == "1"
    assert Q.par_compose("*", "*", "*", "0", "0") == "0"
    for compose in (Q.compose, Q.par_compose):
        with pytest.raises(UnknownElementError):
            compose("*", "*", "*", "2", "1")
        with pytest.raises(UnknownElementError):
            compose("*", "*", "*", "1", "2")
        with pytest.raises(MismatchError):
            compose("*", "x", "*", "1", "1")
    Q2 = two_object_bool()
    with pytest.raises(MismatchError):
        Q2.compose("a", "b", "c", "1", "1")
    with pytest.raises(NoParStructureError):
        Q2.par_compose("a", "b", "a", "1", "1")


def test_broken_unit_detected():
    lat = chain(["0", "1"])
    table = (("0", "0"), ("0", "0"))  # 1.1 = 0 breaks the unit
    Q = finite_quantaloid(["a"], {("a", "a"): lat},
                          {("a", "a", "a"): table}, {"a": "1"})
    rep = check_quantaloid_laws(Q)
    assert not rep.ok
    assert rep.entry("tensor-unit-left").witness is not None


def test_girard_family_one_object_boolean():
    Q = bool_base()
    assert check_girard_family(Q, {"*": "0"}).ok
    assert find_girard_families(Q) == [{"*": "0"}]


def test_girard_family_chain3_none():
    Q = chain3_base()
    for d in ("0", "m", "1"):
        assert not check_girard_family(Q, {"*": d}).ok
    assert find_girard_families(Q) == []


def test_girard_family_trivial_homs():
    entry = catalog_entry("point")
    Q = one_object_quantaloid(entry.ld)
    assert check_girard_family(Q, {"*": "p"}).ok


def test_girard_family_z2shift():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    fams = find_girard_families(Q)
    assert fams == [{"*": "e"}, {"*": "a"}]


def test_find_families_cap():
    with pytest.raises(SearchSpaceError):
        find_girard_families(two_object_bool(), cap=1)


def test_hom_dual_agrees_both_sides():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    fam = {"*": "a"}
    from linrel.quantaloid import hom_dual_left
    for f in Q.hom("*", "*").elements:
        assert hom_dual(Q, "*", "*", f, fam) == hom_dual_left(Q, "*", "*", f, fam)


# -- monads ------------------------------------------------------------------


def test_unit_is_always_a_monad():
    for name in ("bool", "chain3", "z2shift", "z3shift"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        assert check_monad(Q, Monad("*", Q.unit_top("*")))


def test_boolean_monads():
    Q = bool_base()
    assert [m.m for m in monads_of(Q)] == ["1"]
    assert not check_monad(Q, Monad("*", "0"))


def test_monad_is_bimodule_over_itself():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    for m in monads_of(Q):
        assert check_monad_bimodule(Q, MonadBimodule(m, m, m.m))


def test_monq_compose_and_identity():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    ms = monads_of(Q)
    for m in ms:
        ident = monq_identity(Q, m)
        for n in ms:
            for f in Q.hom(m.obj, n.obj).elements:
                bim = MonadBimodule(m, n, f)
                if not check_monad_bimodule(Q, bim):
                    continue
                assert monq_compose(Q, ident, bim).f == Q.compose(
                    "*", "*", "*", m.m, f)


def test_monq_quantaloid_laws():
    for name in ("bool", "z2shift", "z3shift"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        monq = monq_quantaloid(Q)
        assert check_quantaloid_laws(monq).ok


def test_monq_girard_family_passes():
    for name in ("bool", "z2shift", "z3shift"):
        entry = catalog_entry(name)
        Q = one_object_quantaloid(entry.ld)
        fam = {"*": entry.girard.dualizer}
        induced = monq_girard_family(Q, fam)
        monq = monq_quantaloid(Q)
        assert check_girard_family(monq, induced).ok


def test_delta_of_trivial_monad_is_family_element():
    for name in ("bool", "z2shift", "diamond"):
        entry = catalog_entry(name)
        Q = one_object_quantaloid(entry.ld)
        d = entry.girard.dualizer
        induced = monq_girard_family(Q, {"*": d})
        trivial = monad_name(Monad("*", Q.unit_top("*")))
        assert induced[trivial] == d


def test_boolean_monad_delta_example():
    Q = bool_base()
    induced = monq_girard_family(Q, {"*": "0"})
    assert induced[monad_name(Monad("*", "1"))] == "0"


# -- linear monads --------------------------------------------------------


def test_trivial_linear_monad_everywhere():
    for name in ("bool", "chain3", "diamond", "z2shift", "z3shift"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        lm = LinearMonad("*", Q.unit_top("*"), Q.unit_bot("*"))
        assert check_linear_monad(Q, lm)
        rep = validate_linear_monad(Q, lm)
        assert rep.ok
        # the four mixed inequalities come out of the unit laws alone
        assert {e.law for e in rep.entries} >= {
            "monad-mixed-par-tensor", "monad-mixed-tensor-par",
            "monad-mixed-absorb-right", "monad-mixed-absorb-left"}


def test_embedded_cell_is_linear_bimodule():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    trivial = LinearMonad("*", Q.unit_top("*"), Q.unit_bot("*"))
    fam = {"*": Q.unit_top("*")}
    for f in Q.hom("*", "*").elements:
        companion = hom_dual(Q, "*", "*", f, fam)
        bim = LinearMonadBimodule(trivial, trivial, f, companion)
        assert check_linear_monad_bimodule(Q, bim)
        assert validate_linear_monad_bimodule(Q, bim).ok


def test_identity_composition_of_linear_bimodules():
    """The tables of the linear monad quantaloid: a pair ``t|p`` composes
    by the base tensor on tensor parts and the base par on par parts in
    reversed order (par the other way round), and the units are the
    monad's pair and its swap."""
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    monq = linear_monq_quantaloid(Q)
    for lm in linear_monads_of(Q):
        x = linear_monad_name(lm)
        top, bot = monq.unit_top(x), monq.unit_bot(x)
        assert top == f"{lm.m_tensor}|{lm.m_par}"
        assert bot == f"{lm.m_par}|{lm.m_tensor}"
        assert monq.compose(x, x, x, top, top) == top
        assert monq.par_compose(x, x, x, bot, bot) == bot
        bims = linear_monad_bimodules(Q, lm, lm)
        for f, g in product(bims, repeat=2):
            fx, gx = f"{f.f_tensor}|{f.f_par}", f"{g.f_tensor}|{g.f_par}"
            assert monq.compose(x, x, x, fx, gx) == (
                f"{Q.compose('*', '*', '*', f.f_tensor, g.f_tensor)}|"
                f"{Q.par_compose('*', '*', '*', g.f_par, f.f_par)}")
            assert monq.par_compose(x, x, x, fx, gx) == (
                f"{Q.par_compose('*', '*', '*', f.f_tensor, g.f_tensor)}|"
                f"{Q.compose('*', '*', '*', g.f_par, f.f_par)}")


def test_linear_monq_quantaloid_laws():
    for name in ("bool", "chain3", "z2shift", "z3shift", "diamond"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        monq = linear_monq_quantaloid(Q)
        assert check_quantaloid_laws(monq).ok, name


# -- results kept in the base's memo -------------------------------------------


def test_law_report_witnesses_are_copies():
    Q = one_object_quantaloid(catalog_entry("bool-broken").ld)
    first = check_quantaloid_laws(Q)
    assert not first.ok
    before = first.json_bytes()
    for e in first.failing():
        e.witness["objects"].append("edited")
        e.witness["lhs"] = "edited"
    assert check_quantaloid_laws(Q).json_bytes() == before
    other = check_quantaloid_laws(Q, suite="other")
    assert other.suite == "other"
    assert other.entries == check_quantaloid_laws(Q).entries


def test_monad_lists_are_new_per_call():
    Q = chain3_base()
    for find in (monads_of, linear_monads_of):
        first = find(Q)
        want = list(first)
        first.append(first[0])
        assert find(Q) == want, find.__name__


def test_monad_quantaloids_kept_per_monad_list():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    for build, find in ((monq_quantaloid, monads_of),
                        (linear_monq_quantaloid, linear_monads_of)):
        monads = find(Q)
        whole = build(Q)
        assert whole is build(Q, monads)
        assert check_quantaloid_laws(whole).ok
        part = build(Q, monads[:1])
        assert part is not whole and part is build(Q, monads[:1])
        assert len(part.objects) == 1
        # the cap refuses a kept monad quantaloid too
        with pytest.raises(SearchSpaceError):
            build(Q, cap=len(monads) - 1)


def test_linear_theorem_good_entries():
    for name in ("bool", "chain3", "diamond", "z2shift", "z3shift", "point"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        rep = verify_linear_quantaloid_theorems(Q)
        assert rep.ok, (name, [e.law for e in rep.failing()])


def test_linear_theorem_broken_entries_transfer():
    for name in ("bool-broken", "chain3-broken", "z2shift-broken",
                 "diamond-broken", "z3shift-broken"):
        Q = one_object_quantaloid(catalog_entry(name).ld)
        rep = verify_linear_quantaloid_theorems(Q)
        # a base law fails, both implications hold, and the transfer
        # reproduced the failure on the monad side
        assert any(not e.ok for e in rep.entries), name
        assert rep.entry("theorem-forward").ok, name
        assert rep.entry("theorem-backward").ok, name
        assert rep.entry("theorem-transfer").ok, name


def test_linear_theorem_transfers_absorption_failure():
    # join as the tensor passes associativity, units, and binary join
    # preservation, but its unit is the bottom, so absorption fails first
    lat = chain(["0", "m", "1"])
    els = lat.elements
    join_t = [[lat.join((a, b)) for b in els] for a in els]
    ld = replace(table_quantale(lat, join_t, "0"),
                 par_op=TableOp(tuple(map(tuple, join_t))), par_unit="0")
    Q = one_object_quantaloid(ld)
    rep = verify_linear_quantaloid_theorems(Q)
    assert not rep.entry("tensor-bottom-left").ok
    assert rep.entry("theorem-backward").ok
    assert rep.entry("theorem-transfer").ok


def test_theorem_needs_par():
    lat = chain(["0", "1"])
    q = table_quantale(lat, [["0", "0"], ["0", "1"]], "1")
    Q = one_object_quantaloid(q)
    with pytest.raises(NoParStructureError):
        verify_linear_quantaloid_theorems(Q)


# -- JSON ---------------------------------------------------------------


def test_quantaloid_json_roundtrip():
    Q = one_object_quantaloid(catalog_entry("z2shift").ld)
    blob = quantaloid_to_json(Q)
    back = quantaloid_from_json(blob)
    assert back.objects == Q.objects
    assert back.tensor_tables == Q.tensor_tables
    assert back.par_tables == Q.par_tables
    assert back.units_top == Q.units_top and back.units_bot == Q.units_bot
    assert check_quantaloid_laws(back).ok


def test_quantaloid_json_missing_field():
    from linrel.errors import InputFormatError
    with pytest.raises(InputFormatError):
        quantaloid_from_json({"objects": ["a"]})


@pytest.mark.parametrize("dualizers", [{"*": "a"}, 5, ["a"], ["ab"]],
                         ids=["object", "number", "list", "list-of-pair"])
def test_quantaloid_json_ignores_dualizers(dualizers):
    # no command reads a dualizing family from a quantaloid file
    blob = quantaloid_to_json(catalog_entry("z2shift").base)
    back = quantaloid_from_json({**blob, "dualizers": dualizers})
    assert quantaloid_to_json(back) == blob
