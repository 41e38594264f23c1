"""Relations on element indices agree with the element-level calculus.

A relation over a finite carrier is stored as the element indices of its
entries, and compositions, pointwise joins and meets, the order, the
identities and the extreme cells all run on the ambient's
``IndexTables``.  Compositions fold the middle set in blocks of the
table width, so middle sets of 0 to 8 members reach one block and several
on every finite catalog entry; wider shapes cut a block's parts with
strided slices.  Each operation must give, entry for entry, what the
ambient's element operations give on the decoded names.

The law suites run the same operations on coded cells, ``(source,
target, cells)`` from ``coded_calculus``; on every finite entry and on
the extended integers each operation case must give, cell for cell, the
cells of the relation operation's result.  The calculus remembers its
compositions by the middle set's size and the operands' cells, so a
repeated pair, the same cells in another shape and an empty middle set
must each give what the bare kernel gives.
"""

import random
from itertools import product

import pytest

from linrel.errors import NoParStructureError
from linrel.qrel import (
    QREL_CALCULUS,
    _SLICED_CELLS,
    _coded,
    _kernel,
    coded_calculus,
    compose_par,
    compose_tensor,
    enumerate_relations,
    finite_set,
    id_bot,
    id_top,
    random_relation,
    rel_join,
    rel_leq,
    rel_meet,
    relation,
    top_relation,
    zero_relation,
)
from linrel.quantale import quantale_from_json
from linrel.quantaloid import one_object_quantaloid
from linrel.verify import catalog

FINITE = [name for name, e in catalog(10).items() if e.ld.carrier.is_finite]
ZINF = [name for name, e in catalog(10).items() if not e.ld.carrier.is_finite]


def _members(tag, n):
    return finite_set(f"{tag}{n}", tuple(f"{tag}{i}" for i in range(n)))


def _ambients(name):
    entry = catalog(10)[name]
    return [amb for amb in (entry.ld, entry.girard) if amb is not None]


def _reference(f, g, op, agg):
    gv = g.values
    return tuple(tuple(agg([op(row[y], gv[y][z]) for y in range(len(gv))])
                       for z in range(len(g.target)))
                 for row in f.values)


def _entrywise(f, g, op):
    return tuple(tuple(op(a, b) for a, b in zip(fr, gr))
                 for fr, gr in zip(f.values, g.values))


@pytest.mark.parametrize("name", FINITE + ZINF)
def test_compositions_match_element_fold(name):
    rng = random.Random(name)
    for amb in _ambients(name):
        calc = coded_calculus(amb)
        for ny in range(9):
            for _ in range(4):
                X, Y, Z = (_members("x", rng.randint(0, 4)), _members("y", ny),
                           _members("z", rng.randint(0, 4)))
                f = random_relation(rng, amb, X, Y)
                g = random_relation(rng, amb, Y, Z)
                tensor, par = compose_tensor(f, g), compose_par(f, g)
                assert tensor.values == _reference(f, g, amb.tensor, amb.join)
                assert par.values == _reference(f, g, amb.par, amb.meet)
                assert calc.tensor(_coded(f), _coded(g)) == _coded(tensor)
                assert calc.par(_coded(f), _coded(g)) == _coded(par)


@pytest.mark.parametrize("name", FINITE + ZINF)
def test_remembered_compositions_match_bare_kernel(name):
    rng = random.Random(f"memo-{name}")
    for amb in _ambients(name):
        calc = coded_calculus(amb)
        for op in ("tensor", "par"):
            remembered, bare = getattr(calc, op), _kernel(amb, op)
            # repeated pairs, the repeat on sets of other names
            for n in range(1, 4):
                X, Y, Z = _members("x", n), _members("y", 4 - n), _members("z", 2)
                f = _coded(random_relation(rng, amb, X, Y))
                g = _coded(random_relation(rng, amb, Y, Z))
                for _ in range(2):
                    assert remembered(f, g) == bare(f, g)
                X2, Y2, Z2 = _members("u", n), _members("v", 4 - n), _members("w", 2)
                f2, g2 = (X2, Y2, f[2]), (Y2, Z2, g[2])
                assert remembered(f2, g2) == bare(f2, g2)
                assert remembered(f2, g2)[:2] == (X2, Z2)
            # the same cells composed as 1x2 by 2x1 and as 2x1 by 1x2
            one, two = _members("a", 1), _members("b", 2)
            a = _coded(random_relation(rng, amb, one, two))[2]
            b = _coded(random_relation(rng, amb, two, one))[2]
            for f, g in (((one, two, a), (two, one, b)), ((two, one, a), (one, two, b)),
                         ((one, two, a), (two, one, b))):
                assert remembered(f, g) == bare(f, g)
            # an empty middle set, whose cells do not fix the shape
            empty = _members("e", 0)
            for nx, nz in ((1, 2), (2, 3), (0, 1), (3, 0), (1, 2)):
                f, g = (_members("x", nx), empty, ()), (empty, _members("z", nz), ())
                assert remembered(f, g) == bare(f, g)


@pytest.mark.parametrize("name", FINITE)
def test_wide_shapes_cut_strided_slices(name):
    # past ``_SLICED_CELLS`` the plan cuts each member of a block from all
    # rows (columns) at once; both layouts must give the same folds
    rng = random.Random(f"wide-{name}")
    for amb in _ambients(name):
        calc = coded_calculus(amb)
        for nx, ny, nz in ((9, 8, 1), (1, 8, 9), (12, 7, 10), (3, 3, 30), (2, 31, 1)):
            assert ny * (nx + nz) > _SLICED_CELLS
            X, Y, Z = _members("x", nx), _members("y", ny), _members("z", nz)
            f = random_relation(rng, amb, X, Y)
            g = random_relation(rng, amb, Y, Z)
            tensor, par = compose_tensor(f, g), compose_par(f, g)
            assert tensor.values == _reference(f, g, amb.tensor, amb.join)
            assert par.values == _reference(f, g, amb.par, amb.meet)
            assert calc.tensor(_coded(f), _coded(g)) == _coded(tensor)
            assert calc.par(_coded(f), _coded(g)) == _coded(par)


def test_middle_sets_reach_several_blocks():
    # the widths are what make the test above cover blocks after the first
    widths = {name: [amb.index_tables.width for amb in _ambients(name)]
              for name in FINITE}
    assert all(w < 8 for ws in widths.values() for w in ws)
    assert min(w for ws in widths.values() for w in ws) == 2


@pytest.mark.parametrize("name", FINITE)
def test_operands_in_both_roles(name):
    # an endo-relation composed with itself, and a left operand that later
    # becomes a right one
    rng = random.Random(f"roles-{name}")
    for amb in _ambients(name):
        calc = coded_calculus(amb)
        for n in range(1, 8):
            X = _members("x", n)
            r = random_relation(rng, amb, X, X)
            s = random_relation(rng, amb, X, X)
            rr, rs, sr = compose_tensor(r, r), compose_par(r, s), compose_par(s, r)
            assert rr.values == _reference(r, r, amb.tensor, amb.join)
            assert rs.values == _reference(r, s, amb.par, amb.meet)
            assert sr.values == _reference(s, r, amb.par, amb.meet)
            assert calc.tensor(_coded(r), _coded(r)) == _coded(rr)
            assert calc.par(_coded(r), _coded(s)) == _coded(rs)
            assert calc.par(_coded(s), _coded(r)) == _coded(sr)


@pytest.mark.parametrize("name", FINITE + ZINF)
def test_pointwise_order_and_constant_cells(name):
    rng = random.Random(f"cells-{name}")
    for amb in _ambients(name):
        calc = coded_calculus(amb)
        join = lambda a, b: amb.join((a, b))
        meet = lambda a, b: amb.meet((a, b))
        for nx, ny in product(range(4), repeat=2):
            X, Y = _members("x", nx), _members("y", ny)
            for _ in range(6):
                f = random_relation(rng, amb, X, Y)
                g = random_relation(rng, amb, X, Y)
                joined, met = rel_join(f, g), rel_meet(f, g)
                assert joined.values == _entrywise(f, g, join)
                assert met.values == _entrywise(f, g, meet)
                want = all(amb.leq(a, b) for row in _entrywise(f, g, lambda a, b: (a, b))
                           for a, b in row)
                assert rel_leq(f, g) is want
                assert rel_leq(f, joined)
                assert QREL_CALCULUS.eq(f, g) is (f.values == g.values)
                cf, cg = _coded(f), _coded(g)
                assert calc.join(cf, cg) == _coded(joined)
                assert calc.meet(cf, cg) == _coded(met)
                assert calc.leq(cf, cg) is want
                assert calc.eq(cf, cg) is (f.values == g.values)
            zero, top = zero_relation(X, Y, amb), top_relation(X, Y, amb)
            assert zero.values == ((amb.bottom,) * ny,) * nx
            assert top.values == ((amb.top,) * ny,) * nx
            assert calc.zero(cf, X, Y) == _coded(zero)
            assert calc.top(cf, X, Y) == _coded(top)
            diagonal = lambda on, off: tuple(tuple(on if i == j else off
                                                   for j in range(nx))
                                             for i in range(nx))
            unit, par_unit = id_top(X, amb), id_bot(X, amb)
            assert unit.values == diagonal(amb.unit, amb.bottom)
            assert par_unit.values == diagonal(amb.par_unit, amb.top)
            assert calc.id_top(cf, X) == _coded(unit)
            assert calc.id_bot(cf, X) == _coded(par_unit)


@pytest.mark.parametrize("name", FINITE)
def test_values_round_trip_and_tables(name):
    for amb in _ambients(name):
        t = amb.index_tables
        coded = one_object_quantaloid(amb).coded
        assert t.tensor == coded.tensor[("*", "*", "*")]
        assert t.par == coded.par[("*", "*", "*")]
        lattice = amb.carrier.lattice
        assert (t.join, t.meet, t.leq) == (lattice.join_table, lattice.meet_table,
                                           lattice.leq_matrix)
        X, Y = _members("x", 2), _members("y", 2)
        els = lattice.elements
        rels = list(enumerate_relations(amb, X, Y))
        # declaration order, row-major
        assert [r.values for r in rels] == [
            (flat[:2], flat[2:]) for flat in product(els, repeat=4)]
        for r in rels:
            again = relation(X, Y, amb, [list(row) for row in r.values])
            assert again.codes == r.codes and again.values == r.values
            assert again == r and hash(again) == hash(r)


@pytest.mark.parametrize("name", FINITE)
def test_random_relation_draws_like_element_choice(name):
    for amb in _ambients(name):
        els = amb.carrier.lattice.elements
        X, Y = _members("x", 3), _members("y", 2)
        got = random_relation(random.Random(5), amb, X, Y).values
        rng = random.Random(5)
        assert got == tuple(tuple(rng.choice(els) for _ in range(2)) for _ in range(3))


def test_tensor_only_quantale_from_file():
    # the ``compose --op tensor`` path on a file without par or dualizer
    loaded = quantale_from_json({
        "kind": "table", "elements": ["0", "m", "1"],
        "covers": [["0", "m"], ["m", "1"]],
        "tensor": [["0", "0", "0"], ["0", "m", "m"], ["0", "m", "1"]],
        "unit": "1"})
    amb = loaded.ambient()
    assert amb is loaded.quantale and amb.index_tables.par is None
    rng = random.Random(3)
    for ny in range(9):
        X, Y, Z = _members("x", 3), _members("y", ny), _members("z", 2)
        f, g = random_relation(rng, amb, X, Y), random_relation(rng, amb, Y, Z)
        assert compose_tensor(f, g).values == _reference(f, g, amb.tensor, amb.join)
    with pytest.raises(NoParStructureError):
        compose_par(f, g)
