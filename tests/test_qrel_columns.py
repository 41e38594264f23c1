"""Cases that share a boundary are checked as one column cell.

``verify_qrel_laws`` checks a group of at least ``_COLUMN_CASES`` cases
drawn on one boundary as column cells of ``qrel.column_calculus``: each
entry a list of one code per case.  Each column operation must act case by
case as ``coded_calculus`` does, with identity, zero and top cells mixed
in, and a law on a column must hold exactly when it holds on every case.
The reports must equal the per-case scan of ``relation_reference``, whose
witness is the first failing case in draw order, whichever group it is in.
"""

import random

import pytest

from relation_reference import reference_qrel_laws

from linrel import qrel
from linrel.laws import LAWS
from linrel.qrel import (
    FiniteSet,
    _case_witness,
    _cell_draw,
    _shrink_case,
    coded_calculus,
    column_calculus,
    sample_relation_tuples,
    verify_qrel_laws,
)
from linrel.quantale import scalar_codec
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry, default_sets

# Written out, so that a fault in the catalog fails these tests by name.
NAMES = ("bool", "bool-broken", "chain3", "chain3-broken", "diamond",
         "diamond-broken", "point", "z2shift", "z2shift-broken", "z3shift",
         "z3shift-broken", "zinf-arctic", "zinf-broken", "zinf-tropical")


def test_every_catalog_entry_is_named():
    assert sorted(catalog()) == sorted(NAMES)


def ambients(name):
    entry = catalog()[name]
    return [amb for amb in (entry.ld, entry.girard) if amb is not None]


def the_set(n: int) -> FiniteSet:
    return FiniteSet(f"s{n}", tuple(f"e{i}" for i in range(n)))


# (source, middle, target) sizes: one-member middles, a middle of one
# block, middles wider than the widest block of every carrier (6 members
# on the two-element ones, 3 on diamond and z2shift, 2 on z3shift), and
# empty sets
BOUNDARIES = ((2, 3, 2), (3, 1, 2), (1, 7, 2), (2, 4, 1), (0, 3, 2), (2, 0, 3))


class Group:
    """``n`` random cases of the cells ``f``, ``f2``: X->Y and ``g``: Y->Z,
    each operand kept as its per-case coded cells and as one column cell."""

    def __init__(self, amb, n: int, sizes: tuple, seed: int) -> None:
        self.amb, self.n = amb, n
        self.calc, self.cols = coded_calculus(amb), column_calculus(amb)
        self.to_code = (lambda v: v) if amb.index_tables is not None \
            else scalar_codec(amb)[0]
        self.X, self.Y, self.Z = X, Y, Z = tuple(map(the_set, sizes))
        draw = _cell_draw(random.Random(seed), amb, window=3)
        self.drawn = {key: self.operand([(A, B, draw(len(A) * len(B))) for _ in range(n)])
                      for key, A, B in (("f", X, Y), ("f2", X, Y), ("g", Y, Z))}

    def operand(self, cells: list) -> tuple:
        """Per-case coded cells with the column cell of their codes."""
        A, B = cells[0][:2]
        return cells, (A, B, tuple([list(map(self.to_code, e))
                                    for e in zip(*(c[2] for c in cells))]))

    def const(self, key: str, *sets) -> tuple:
        """The identity, zero or top cell, one per case and as one cell."""
        return [getattr(self.calc, key)(None, *sets)] * self.n, \
            getattr(self.cols, key)(None, *sets)

    def check(self, op: str, a: tuple, b: tuple) -> None:
        """``op`` on the column cells gives, case by case, ``op`` on the
        cases: a cell for the operations, a truth value for the tests."""
        got = getattr(self.cols, op)(a[1], b[1])
        want = list(map(getattr(self.calc, op), a[0], b[0]))
        if op in ("leq", "eq"):
            assert got is all(want), op
            return
        assert got[:2] == want[0][:2]
        for k, cell in enumerate(want):
            case = tuple(e[k] if e.__class__ is list else e for e in got[2])
            assert case == tuple(map(self.to_code, cell[2])), (op, k)


def altered(amb, cells: list) -> list:
    """``cells`` with the first entry of the last case changed."""
    X, Y, entries = cells[-1]
    t = amb.index_tables
    other = (entries[0] + 1) % len(t.elements) if t is not None \
        else 1 if entries[0] == 0 else 0
    return cells[:-1] + [(X, Y, (other,) + entries[1:])]


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("name", NAMES)
def test_column_operations_act_case_by_case(name, n):
    for amb in ambients(name):
        for seed, sizes in enumerate(BOUNDARIES):
            grp = Group(amb, n, sizes, seed)
            X, Y, Z = grp.X, grp.Y, grp.Z
            f, f2, g = (grp.drawn[key] for key in ("f", "f2", "g"))
            ids = [grp.const(key, Y) for key in ("id_top", "id_bot")]
            left = [grp.const(key, X, Y) for key in ("zero", "top")]
            right = [grp.const(key, Y, Z) for key in ("zero", "top")]
            pairs = [(f, g), *((a, g) for a in ids + left), *((f, b) for b in ids + right),
                     (left[0], right[1]), (ids[0], ids[1])]
            for op in ("tensor", "par"):
                for a, b in pairs:
                    grp.check(op, a, b)
            for op in ("join", "meet"):
                for other in (f2, *left):
                    grp.check(op, f, other)
                    grp.check(op, other, f)
            # a pair that differs in the last case only fails on the column
            tests = [(f, f2), (f, f), (left[0], f), (f, left[1]),
                     (grp.operand(list(map(grp.calc.meet, f[0], f2[0]))), f)]
            if X.members and Y.members and \
                    (amb.index_tables is None or len(amb.index_tables.elements) > 1):
                tests.append((f, grp.operand(altered(amb, f[0]))))
            for a, b in tests:
                for op in ("leq", "eq"):
                    grp.check(op, a, b)


@pytest.mark.parametrize("name", NAMES)
def test_a_law_holds_on_a_column_when_it_holds_on_every_case(name, monkeypatch):
    # every group of every law's draw, whatever its size, as one column
    monkeypatch.setattr(qrel, "_COLUMN_CASES", 1)
    amb = catalog()[name].ld
    calc, cols = coded_calculus(amb), column_calculus(amb)
    for label, (shape, law) in LAWS.items():
        _, cases, groups = sample_relation_tuples(
            amb, default_sets(2), Sampler.random(seed=3, count=60), shape)
        holds, holds_columns = law(calc), law(cols)
        _, columns = qrel._column_groups(amb, cases, groups)
        for group, cells in columns:
            assert holds_columns(*cells) is all(holds(*cases[i]) for i in group), \
                (label, group)


SAMPLERS = {
    "exhaustive": Sampler.exhaustive(),
    "random:40": Sampler.random(seed=5, count=40),
    "random:80": Sampler.random(seed=17, count=80),
    "random:64": Sampler.random(seed=29, count=64),
}


@pytest.mark.parametrize("max_set", [2, 3])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("name", NAMES)
def test_reports_match_the_case_by_case_scan(name, sampler, max_set):
    amb, sets = catalog()[name].ld, default_sets(max_set)
    got = verify_qrel_laws(amb, sets, SAMPLERS[sampler])
    assert got.json_bytes() == reference_qrel_laws(amb, sets, SAMPLERS[sampler]).json_bytes()


def test_each_law_shape_draws_column_groups():
    # the reports above compare column groups, not only single cases
    for shape in ("chain1", "chain3", "fork-left", "fork-right"):
        _, _, groups = sample_relation_tuples(
            catalog()["bool"].ld, default_sets(2), SAMPLERS["random:80"], shape)
        assert max(map(len, groups)) >= qrel._COLUMN_CASES, shape


def test_witness_is_the_first_failing_case_in_draw_order():
    # bool-broken, tensor-unit-left: the first-drawn group (draw index 0)
    # first fails at index 2, and the group first drawn at index 1 fails at
    # index 1, so the witness is case 1's, not the first failing group's
    amb, sets = catalog_entry("bool-broken").ld, default_sets(2)
    sampler, label = Sampler.random(seed=14, count=40), "tensor-unit-left"
    shape, law = LAWS[label]
    _, cases, groups = sample_relation_tuples(amb, sets, sampler, shape)
    holds = law(coded_calculus(amb))
    first, second = groups[:2]
    assert len(first) >= qrel._COLUMN_CASES and len(second) >= qrel._COLUMN_CASES
    assert first[0] < second[0]
    fails = [i for i in range(len(cases)) if not holds(*cases[i])]
    assert min(i for i in first if i in fails) == 2
    assert min(fails) == 1 and 1 in second
    got = verify_qrel_laws(amb, sets, sampler, labels=(label,)).entry(label).witness
    assert got == _case_witness(amb, _shrink_case(amb, cases[1], holds))
    assert got != _case_witness(amb, _shrink_case(amb, cases[2], holds))
    assert got == reference_qrel_laws(amb, sets, sampler, labels=(label,)).entry(label).witness
