"""Quantale algebra: multiplication, residuals, Girard duality, LD pairs,
extended-integer backends, and the shift completion."""

from dataclasses import replace
from itertools import permutations, product

import pytest

from linrel.errors import MonoidError, NotGirardError, UnknownElementError
from linrel.lattice import build_lattice, chain
from linrel.quantale import (
    MINUS_INF,
    PLUS_INF,
    TableOp,
    arctic_quantale,
    check_ld_laws,
    check_quantale_laws,
    cyclic_group_table,
    find_dualizers,
    girard_quantale,
    is_cyclic_dualizing,
    opposite_quantale,
    quantale_from_json,
    shift_completion,
    table_quantale,
    tropical_quantale,
)


def bool_quantale():
    two = chain(["0", "1"])
    return table_quantale(two, [["0", "0"], ["0", "1"]], "1")


def meet_quantale(lat):
    els = lat.elements
    table = [[lat.meet((a, b)) for b in els] for a in els]
    return table_quantale(lat, table, lat.top)


def frame_ld(lat):
    els = lat.elements
    meet_t = [[lat.meet((a, b)) for b in els] for a in els]
    join_t = [[lat.join((a, b)) for b in els] for a in els]
    return replace(table_quantale(lat, meet_t, lat.top),
                   par_op=TableOp(tuple(map(tuple, join_t))), par_unit=lat.bottom)


def chain3():
    return chain(["0", "m", "1"])


def diamond():
    return build_lattice(["0", "x", "y", "1"],
                         [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])


def residual_scan(q, a, b):
    """Independent oracle over the finite carrier."""
    els = q.sample_elements()
    return q.join(c for c in els if q.leq(q.tensor(a, c), b))


def residual_scan_left(q, b, a):
    els = q.sample_elements()
    return q.join(c for c in els if q.leq(q.tensor(c, a), b))


# -- tensor -------------------------------------------------------------


def test_tropical_addition():
    q = tropical_quantale()
    assert q.tensor(2, 3) == 5
    assert q.tensor(MINUS_INF, PLUS_INF) == MINUS_INF
    assert q.tensor(PLUS_INF, MINUS_INF) == MINUS_INF
    assert q.tensor(PLUS_INF, 4) == PLUS_INF


def test_unit_law_any_backend():
    q = bool_quantale()
    for a in q.sample_elements():
        assert q.tensor(q.unit, a) == a
    zq = tropical_quantale()
    for a in zq.sample_elements(5):
        assert zq.tensor(zq.unit, a) == a


def test_tensor_unknown_element():
    q = bool_quantale()
    with pytest.raises(UnknownElementError):
        q.tensor("0", "zz")
    zq = tropical_quantale()
    with pytest.raises(UnknownElementError):
        zq.tensor(1, "oops")


# -- residuals ----------------------------------------------------------


def test_boolean_residuals():
    q = bool_quantale()
    assert q.residual_right("1", "0") == "0"
    assert q.residual_right("0", "0") == "1"
    assert q.residual_left("0", "1") == "0"


def test_residual_top_is_absorbing():
    for q in (bool_quantale(), meet_quantale(chain3())):
        for a in q.sample_elements():
            assert q.residual_right(a, q.top) == q.top


def test_zinf_residual_closed_form_examples():
    q = tropical_quantale()
    assert q.residual_right(3, 5) == 2
    assert q.residual_left(5, 3) == 2
    assert q.residual_right(MINUS_INF, 7) == PLUS_INF
    assert q.residual_right(PLUS_INF, PLUS_INF) == PLUS_INF
    assert q.residual_right(PLUS_INF, 3) == MINUS_INF
    assert q.residual_right(4, MINUS_INF) == MINUS_INF


def test_zinf_residual_matches_windowed_scan():
    q = tropical_quantale()
    window = 10
    wide = [MINUS_INF, *range(-2 * window - 1, 2 * window + 2), PLUS_INF]
    sample = q.sample_elements(window)
    for a in sample:
        for b in sample:
            brute = q.join(c for c in wide if q.leq(q.tensor(a, c), b))
            assert q.residual_right(a, b) == brute, (a, b)


def test_commutative_residual_symmetry():
    q = meet_quantale(diamond())
    for a, b in product(q.sample_elements(), repeat=2):
        assert q.residual_left(b, a) == q.residual_right(a, b)


@pytest.mark.parametrize("q", [
    bool_quantale(),
    meet_quantale(chain3()),
    meet_quantale(diamond()),
])
def test_residual_adjunction_exhaustive(q):
    els = q.sample_elements()
    assert len(els) <= 6
    for a, b, c in product(els, repeat=3):
        assert q.leq(q.tensor(a, c), b) == q.leq(c, q.residual_right(a, b))
        assert q.leq(q.tensor(c, a), b) == q.leq(c, q.residual_left(b, a))
    for a, b in product(els, repeat=2):
        assert q.residual_right(a, b) == residual_scan(q, a, b)
        assert q.residual_left(b, a) == residual_scan_left(q, b, a)


# -- law suite ----------------------------------------------------------


def test_boolean_quantale_laws_pass():
    assert check_quantale_laws(bool_quantale()).ok


def test_diamond_meet_quantale_laws_pass():
    assert check_quantale_laws(meet_quantale(diamond())).ok


def test_broken_table_fails_unit_with_witness():
    two = chain(["0", "1"])
    broken = table_quantale(two, [["0", "0"], ["0", "0"]], "1")
    rep = check_quantale_laws(broken)
    assert not rep.ok
    entry = rep.entry("tensor-unit-left")
    assert entry.status == "fail"
    assert entry.witness == {"a": "1", "lhs": "0"}


def test_law_report_witness_is_lexicographically_first():
    three = chain3()
    els = three.elements
    table = [[three.meet((a, b)) for b in els] for a in els]
    # breaking one middle entry makes the earliest failing triple detectable
    table[1][1] = "1"
    broken = table_quantale(three, table, "1")
    rep = check_quantale_laws(broken)
    fails = rep.failing()
    assert fails
    first = rep.entry("tensor-associativity")
    if first.status == "fail":
        a, b, c = first.witness["a"], first.witness["b"], first.witness["c"]
        for a2, b2, c2 in product(els, repeat=3):
            lhs = broken.tensor(broken.tensor(a2, b2), c2)
            rhs = broken.tensor(a2, broken.tensor(b2, c2))
            if lhs != rhs:
                assert (a2, b2, c2) == (a, b, c)
                break


# -- Girard structure ---------------------------------------------------


def test_boolean_dualizers():
    assert find_dualizers(bool_quantale()) == ("0",)


def test_chain3_has_no_dualizer():
    assert find_dualizers(meet_quantale(chain3())) == ()


def test_diamond_dualizers():
    assert find_dualizers(meet_quantale(diamond())) == ("0",)


def test_zinf_zero_is_cyclic_dualizing():
    q = tropical_quantale()
    assert is_cyclic_dualizing(q, 0)
    # closed form: neg(a) = -a, an involution
    g = girard_quantale(q, 0)
    for a in q.sample_elements(8):
        if a == MINUS_INF:
            assert g.neg(a) == PLUS_INF
        elif a == PLUS_INF:
            assert g.neg(a) == MINUS_INF
        else:
            assert g.neg(a) == -a
        assert g.neg(g.neg(a)) == a


def test_girard_quantale_rejects_bad_dualizer():
    with pytest.raises(NotGirardError):
        girard_quantale(meet_quantale(chain3()), "m")


def test_boolean_par_is_disjunction():
    g = girard_quantale(bool_quantale(), "0")
    # truth table derived from the defining formula
    expected = {("0", "0"): "0", ("0", "1"): "1",
                ("1", "0"): "1", ("1", "1"): "1"}
    for (a, b), want in expected.items():
        assert g.par(a, b) == want


def brute_neg(q, a, d):
    """The largest c with a (x) c <= d, scanned off the tensor table and the
    order matrix, without the library's residuals or lattice joins."""
    lat = q.carrier.lattice
    els, leq = lat.elements, lat.leq_matrix
    idx = {e: i for i, e in enumerate(els)}
    row = q.op.table[idx[a]]
    below = [idx[c] for c, prod in zip(els, row) if leq[idx[prod]][idx[d]]]
    (largest,) = [c for c in below if all(leq[x][c] for x in below)]
    return els[largest]


def assert_par_is_defining_formula(g):
    """Every entry of the derived par table is neg(neg(b) (x) neg(a))."""
    els, d = g.carrier.lattice.elements, g.dualizer
    idx = {e: i for i, e in enumerate(els)}
    tensor = g.op.table
    neg = {a: brute_neg(g, a, d) for a in els}
    for (i, a), (j, b) in product(enumerate(els), repeat=2):
        want = neg[tensor[idx[neg[b]]][idx[neg[a]]]]
        assert g.par_op.table[i][j] == g.par(a, b) == want, (a, b)


def test_girard_par_table_matches_defining_formula_on_the_catalog():
    from linrel.verify import catalog
    finite = [e.girard for e in catalog().values()
              if e.girard is not None and e.girard.carrier.is_finite]
    # point, bool, diamond, z2shift, z3shift and z2shift-broken
    assert len(finite) == 6
    for g in finite:
        assert_par_is_defining_formula(g)


def s3_powerset_file():
    """The subsets of the symmetric group S3 under the elementwise product,
    a table file with a dualizer and no par block.  The complement of the
    identity is a cyclic dualizer, and the product does not commute, so the
    order of the two negations in the derived par shows."""
    perms = sorted(permutations(range(3)))
    n = len(perms)
    mul = {(i, j): perms.index(tuple(p[k] for k in q))
           for (i, p), (j, q) in product(enumerate(perms), repeat=2)}

    def times(a, b):
        out = 0
        for i, j in product(range(n), repeat=2):
            if a >> i & 1 and b >> j & 1:
                out |= 1 << mul[i, j]
        return out
    names = [f"s{m}" for m in range(1 << n)]
    e = 1 << perms.index((0, 1, 2))
    return {
        "kind": "table", "elements": names,
        "covers": [[names[m], names[m | 1 << i]]
                   for m in range(1 << n) for i in range(n) if not m >> i & 1],
        "tensor": [[names[times(a, b)] for b in range(1 << n)]
                   for a in range(1 << n)],
        "unit": names[e], "dualizer": names[(1 << n) - 1 - e]}


def test_girard_par_table_matches_defining_formula_from_a_file():
    loaded = quantale_from_json(s3_powerset_file())
    g = loaded.girard
    table = g.op.table
    assert any(table[i][j] != table[j][i]
               for i, j in product(range(len(table)), repeat=2))
    assert_par_is_defining_formula(g)
    assert loaded.ld.par_op == g.par_op
    assert loaded.ld.dualizer is None


def test_par_unit_is_dualizer():
    g = girard_quantale(bool_quantale(), "0")
    for a in g.sample_elements():
        assert g.par(g.par_unit, a) == a
        assert g.par(a, g.par_unit) == a


def test_top_dualizes_to_dualizer():
    for g in (girard_quantale(bool_quantale(), "0"),
              girard_quantale(meet_quantale(diamond()), "0"),
              girard_quantale(tropical_quantale(), 0)):
        assert g.neg(g.unit) == g.dualizer


def test_zinf_par_mixed_infinities():
    g = girard_quantale(tropical_quantale(), 0)
    assert g.par(MINUS_INF, PLUS_INF) == PLUS_INF
    assert g.par(PLUS_INF, MINUS_INF) == PLUS_INF
    assert g.par(2, 3) == 5


def test_girard_neg_is_order_reversing():
    g = girard_quantale(meet_quantale(diamond()), "0")
    els = g.sample_elements()
    for a, b in product(els, repeat=2):
        if g.leq(a, b):
            assert g.leq(g.neg(b), g.neg(a))


def test_girard_par_preserves_meets():
    g = girard_quantale(meet_quantale(diamond()), "0")
    els = g.sample_elements()
    for a, b, c in product(els, repeat=3):
        assert g.par(c, g.meet((a, b))) == g.meet((g.par(c, a), g.par(c, b)))
        assert g.par(g.meet((a, b)), c) == g.meet((g.par(a, c), g.par(b, c)))


# -- LD structure -------------------------------------------------------


def test_frame_ld_passes():
    assert check_ld_laws(frame_ld(chain3())).ok
    assert check_ld_laws(frame_ld(diamond())).ok


def test_meet_as_par_fails_empty_meet_preservation():
    # pairing the meet with itself misses a (+) top = top
    lat = chain3()
    els = lat.elements
    meet_t = tuple(tuple(lat.meet((a, b)) for b in els) for a in els)
    ld = replace(table_quantale(lat, meet_t, "1"),
                 par_op=TableOp(meet_t), par_unit="1")
    rep = check_ld_laws(ld)
    assert not rep.ok
    assert {e.law for e in rep.failing()} == {"par-top-left", "par-top-right"}
    assert rep.entry("par-top-left").witness["a"] == "0"


def test_girard_par_boolean():
    ld = girard_quantale(bool_quantale(), "0")
    assert ld.tensor("1", "1") == "1"
    assert ld.par("0", "1") == "1"
    assert ld.par_unit == "0"
    assert check_ld_laws(ld).ok


def test_girard_par_zinf_closed_form_matches_formula():
    ld = girard_quantale(tropical_quantale(), 3)
    for a in ld.sample_elements(6):
        for b in ld.sample_elements(6):
            assert ld.par(a, b) == ld.neg(ld.tensor(ld.neg(b), ld.neg(a))), (a, b)
    assert ld.par_unit == 3
    assert check_ld_laws(ld).ok


def test_one_point_ld_degenerate():
    lat = build_lattice(["p"], [])
    ld = frame_ld(lat)
    assert ld.tensor("p", "p") == ld.par("p", "p") == "p"
    assert check_ld_laws(ld).ok


def test_opposite_quantale_involution():
    ld = replace(girard_quantale(tropical_quantale(), 0), dualizer=None)
    opp = opposite_quantale(ld)
    assert opposite_quantale(opp) == ld
    # the opposite of max-plus is min-plus with the reversed order
    assert opp.tensor(2, 3) == 5
    assert opp.tensor(MINUS_INF, PLUS_INF) == PLUS_INF
    assert opp.join((2, 3)) == 2
    assert check_ld_laws(opp).ok


def test_opposite_boolean_swaps_roles():
    ld = girard_quantale(bool_quantale(), "0")
    opp = opposite_quantale(ld)
    assert opp.unit == "0"
    assert opp.tensor("0", "1") == "1"
    assert opp.par("0", "1") == "0"


# -- shift completion ---------------------------------------------------


def test_shift_completion_trivial_monoid():
    ld = shift_completion(["e"], [["e"]], "e")
    els = ld.sample_elements()
    assert len(els) == 3
    assert ld.tensor("e", "e") == "e"
    assert ld.par("e", "e") == "e"
    assert check_ld_laws(ld).ok


def test_shift_completion_z2():
    ld = shift_completion(["e", "a"], [["e", "a"], ["a", "e"]], "a")
    assert len(ld.sample_elements()) == 4
    assert ld.par("e", "e") == "a"
    assert ld.par("a", "a") == "a"
    assert ld.par("e", "a") == "e"
    assert check_ld_laws(ld).ok


def test_shift_completion_z3():
    names, table = cyclic_group_table(3)
    ld = shift_completion(names, table, "g1")
    assert len(ld.sample_elements()) == 5
    assert check_ld_laws(ld).ok


def test_shift_completion_saturation_rules():
    ld = shift_completion(["e", "a"], [["e", "a"], ["a", "e"]], "a")
    top = ld.top
    bot = ld.bottom
    assert ld.tensor(top, bot) == bot
    assert ld.tensor(bot, top) == bot
    assert ld.par(top, bot) == top
    assert ld.par(bot, top) == top


def test_shift_completion_rejects_non_monoid():
    with pytest.raises(MonoidError):
        shift_completion(["e", "a"], [["e", "a"], ["e", "a"]], "a")
    # commutative, associative, but not cancellative: a+a = a
    with pytest.raises(MonoidError):
        shift_completion(["e", "a"], [["e", "a"], ["a", "a"]], "a")


def test_shift_completion_unknown_shift():
    with pytest.raises(UnknownElementError):
        shift_completion(["e"], [["e"]], "zz")


def test_shift_completion_dualizers_found_not_assumed():
    ld2 = shift_completion(["e", "a"], [["e", "a"], ["a", "e"]], "a")
    assert find_dualizers(ld2) == ("e", "a")
    names, table = cyclic_group_table(3)
    ld3 = shift_completion(names, table, "g1")
    assert find_dualizers(ld3) == ("e", "g1", "g2")
    # derived par from the shift dualizer agrees with the built par
    g = girard_quantale(ld2, "a")
    assert g.par_op.table == ld2.par_op.table


# -- arctic view ---------------------------------------------------------


def test_arctic_quantale_laws():
    q = arctic_quantale()
    assert check_quantale_laws(q, q.sample_elements(6)).ok
    assert q.tensor(MINUS_INF, PLUS_INF) == PLUS_INF
    assert q.join((2, 5)) == 2


# -- JSON ----------------------------------------------------------------


def test_quantale_json_table_roundtrip_classification():
    loaded = quantale_from_json({
        "kind": "table",
        "elements": ["0", "1"],
        "covers": [["0", "1"]],
        "tensor": [["0", "0"], ["0", "1"]],
        "unit": "1",
        "dualizer": "0",
    })
    assert loaded.girard is not None
    assert loaded.ld is not None
    assert check_ld_laws(loaded.ld).ok


def test_quantale_json_with_par_block():
    loaded = quantale_from_json({
        "kind": "table",
        "elements": ["0", "m", "1"],
        "covers": [["0", "m"], ["m", "1"]],
        "tensor": [["0", "0", "0"], ["0", "m", "m"], ["0", "m", "1"]],
        "unit": "1",
        "par": {"table": [["0", "m", "1"], ["m", "m", "1"], ["1", "1", "1"]],
                "unit": "0"},
    })
    assert loaded.girard is None
    assert loaded.ld is not None
    assert check_ld_laws(loaded.ld).ok


def test_quantale_json_zinf():
    loaded = quantale_from_json({"kind": "zinf", "flavor": "tropical"})
    assert loaded.girard.dualizer == 0
    arc = quantale_from_json({"kind": "zinf", "flavor": "arctic", "dualizer": 2})
    assert arc.girard.dualizer == 2
    assert arc.quantale.tensor(MINUS_INF, PLUS_INF) == PLUS_INF


def test_quantale_json_errors():
    from linrel.errors import InputFormatError
    with pytest.raises(InputFormatError):
        quantale_from_json({"kind": "nope"})
    with pytest.raises(InputFormatError):
        quantale_from_json({"kind": "table", "elements": ["a"]})
