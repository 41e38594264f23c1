"""The linear-monad transfer replays ``laws.LAWS`` on 1x1 linear bimodules,
and the linear Q-Mod theorem draws every case of every law shape.

A base law failure transfers when the law also fails on the trivial linear
monads of its witness objects, with each witness cell f as the bimodule
(f, dual of f against the tensor units).  The replay is checked on every
failing law of every single-cell tensor and par mutant of the one-object
finite catalog bases, and on a fixed sample of the mutants of the
two-object linear monad quantaloid of ``z2shift``, whose witnesses span
two objects.  Replayed on the unmutated sound base, the same witness must
not reproduce.
"""

from itertools import islice

import pytest

from linrel import qmod
from linrel.laws import LAWS
from linrel.qmod import (
    _transfer_reproduces,
    verify_linear_qmod_theorem,
    verify_linear_quantaloid_theorems,
)
from linrel.quantaloid import (
    check_quantaloid_laws,
    finite_quantaloid,
    linear_monq_quantaloid,
    one_object_quantaloid,
)
from linrel.report import LAW_GROUPS, Sampler
from linrel.verify import _BUILDERS, catalog_entry

FINITE = [name for name in _BUILDERS
          if catalog_entry(name).ld.carrier.is_finite]
QUANTALOID_LABELS = set(LAW_GROUPS["quantale"] + LAW_GROUPS["op-quantale"]
                        + LAW_GROUPS["linear-distribution"])
# Every 97th mutant of the two-object quantaloid: 96 of its 9,312, which
# reach all 16 labels and absorption witnesses on two objects.
MONQ_STRIDE = 97


def mutant_cells(Q):
    """(par, triple, row, column, new value) of every single-cell mutant."""
    for par in (False, True):
        for key, table in (Q.par_tables if par else Q.tensor_tables).items():
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    for w in Q.homs[(key[0], key[2])].elements:
                        if w != v:
                            yield par, key, i, j, w


def mutant(Q, par, key, i, j, w):
    tables = dict(Q.par_tables if par else Q.tensor_tables)
    rows = [list(r) for r in tables[key]]
    rows[i][j] = w
    tables[key] = rows
    tensor, par_tables = ((Q.tensor_tables, tables) if par
                          else (tables, Q.par_tables))
    return finite_quantaloid(Q.objects, Q.homs, tensor, Q.units_top,
                             par_tables, Q.units_bot)


def replay_failures(Q, cells, sound: bool) -> tuple[set, int]:
    """Replay every failing law of each mutant; return the labels reached
    and the number of failures whose witness spans two objects."""
    labels, spread = set(), 0
    for cell in cells:
        M = mutant(Q, *cell)
        for e in check_quantaloid_laws(M).failing():
            assert _transfer_reproduces(M, e.law, e.witness), (cell, e.law)
            if sound:
                # the law holds on the unmutated base, so it must not recur
                assert not _transfer_reproduces(Q, e.law, e.witness), (cell, e.law)
            labels.add(e.law)
            spread += len(set(e.witness["objects"])) > 1
    return labels, spread


def test_replay_reproduces_one_object_mutants():
    labels = set()
    for name in FINITE:
        Q = catalog_entry(name).base
        sound = check_quantaloid_laws(Q).ok
        labels |= replay_failures(Q, mutant_cells(Q), sound)[0]
    assert labels == QUANTALOID_LABELS


def test_replay_reproduces_two_object_mutants():
    Q = linear_monq_quantaloid(catalog_entry("z2shift").base)
    assert len(Q.objects) == 2 and check_quantaloid_laws(Q).ok
    cells = islice(mutant_cells(Q), 0, None, MONQ_STRIDE)
    labels, spread = replay_failures(Q, cells, sound=True)
    assert labels == QUANTALOID_LABELS
    assert spread > 0


def test_absorption_witness_on_three_objects():
    # bottom in hom(a, b) composed with g: b -> c, a case the one-cell
    # absorption law of LAWS cannot state
    Q = linear_monq_quantaloid(catalog_entry("z2shift").base)
    a, b = Q.objects
    cells = [cell for cell in mutant_cells(Q)
             if not cell[0] and cell[1] == (a, b, a)
             and cell[2] == Q.homs[(a, b)].index(Q.homs[(a, b)].bottom)]
    M = mutant(Q, *cells[0])
    fail = check_quantaloid_laws(M).entry("tensor-bottom-left")
    assert fail.witness["objects"] == [a, b, a]
    assert _transfer_reproduces(M, fail.law, fail.witness)
    assert not _transfer_reproduces(Q, fail.law, fail.witness)


def test_transfer_verdict_kept_once_per_base(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _transfer_reproduces(*args)

    monkeypatch.setattr(qmod, "_transfer_reproduces", counted)
    Q = one_object_quantaloid(catalog_entry("z2shift-broken").ld)
    reports = [verify_linear_quantaloid_theorems(Q),
               verify_linear_qmod_theorem(Q, Sampler.random(1, 5)),
               verify_linear_quantaloid_theorems(Q)]
    assert len(calls) == 1
    assert Q.memo[("linear-transfer",)] is True
    for rep in reports:
        assert not rep.entry(calls[0]).ok
        assert rep.entry("theorem-transfer").ok


def qmod_base(name):
    if name == "linear-monq(z2shift)":
        return linear_monq_quantaloid(catalog_entry("z2shift").base)
    return catalog_entry(name).base


@pytest.mark.parametrize("name", FINITE + ["linear-monq(z2shift)"])
def test_every_draw_is_checked(name, monkeypatch):
    """Pools are never empty once the base laws hold, so each law is
    checked on every case the sampler asks for."""
    base = qmod_base(name)
    checked = {label: 0 for label in LAWS}

    def counting(label, holds):
        def law(*cells):
            checked[label] += 1
            return holds(*cells)
        return law

    monkeypatch.setattr(qmod, "_QMOD_LAWS", {
        label: (shape, counting(label, holds))
        for label, (shape, holds) in qmod._QMOD_LAWS.items()})
    rep = verify_linear_qmod_theorem(base, Sampler.random(seed=5, count=6))
    if not check_quantaloid_laws(base).ok:
        assert set(checked.values()) == {0}
        return
    assert rep.ok
    assert checked == {label: 6 for label in LAWS}
