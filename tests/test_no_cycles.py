"""Work on fresh structures leaves no reference cycles behind.

A cycle keeps everything it reaches alive until the cyclic collector runs,
so a search or a relation operation that left one would hold its grids,
tables or quantales for an unbounded time.  Each case runs once to fill
the lazy tables, then again with ``gc.DEBUG_SAVEALL``, and requires the
collector to find nothing.
"""

import gc
import random

import pytest

from linrel.qmod import (
    check_girard_qmod,
    check_qmod_linear_adjoint,
    discrete_qcategory,
    enumerate_qbimodules,
    enumerate_qcategories,
    girard_linear_bimodule,
    qmod_linear_adjoint,
    validate_qbimodule,
)
from linrel.qrel import (
    compose_par,
    compose_tensor,
    finite_set,
    random_relation,
    rel_dual,
    right_extension,
    right_lifting,
)
from linrel.quantale import quantale_from_json
from linrel.quantaloid import (
    _Plan,
    check_quantaloid_laws,
    linear_monq_quantaloid,
    monads_of,
    monq_quantaloid,
    one_object_quantaloid,
)
from linrel.verify import build_catalog, catalog_entry, run_theorem

QUANTALE_FILES = {
    "zinf": {"kind": "zinf", "flavor": "tropical", "dualizer": 0},
    "table": {"kind": "table", "elements": ["0", "1"], "covers": [["0", "1"]],
              "tensor": [["0", "0"], ["0", "1"]], "unit": "1", "dualizer": "0"},
}


def garbage_left_by(work) -> int:
    work()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_qmod_search_leaves_no_cycles():
    base = one_object_quantaloid(catalog_entry("bool").ld)

    def work():
        cats = list(enumerate_qcategories(base, ("x0", "x1"), ("*", "*")))
        enumerate_qbimodules(cats[0], cats[-1], limit=4)

    assert garbage_left_by(work) == 0


def test_qmod_plans_leave_no_cycles():
    """Each run builds its base afresh, so the plans and dual maps cached
    on it are compiled again and must go with it."""
    entry = catalog_entry("bool")
    family = {"*": entry.girard.dualizer}

    def work():
        base = one_object_quantaloid(entry.ld)
        cats = [discrete_qcategory(base, ("x0",), ("*",))]
        cats += enumerate_qcategories(base, ("x0", "x1"), ("*", "*"), limit=3)
        bims = [B for M in cats for N in cats
                for B in enumerate_qbimodules(M, N, limit=2)]
        check_girard_qmod(base, family, bims)
        for B in bims:
            linear = girard_linear_bimodule(B, family)
            validate_qbimodule(linear)
            check_qmod_linear_adjoint(linear, qmod_linear_adjoint(linear, family))

    assert garbage_left_by(work) == 0


@pytest.mark.parametrize("name", ["chain3", "bool-broken"])
def test_base_memo_leaves_no_cycles(name):
    """The law verdicts, monads and monad quantaloids kept in a base's memo
    go with the base."""
    entry = catalog_entry(name)

    def work():
        base = one_object_quantaloid(entry.ld)
        check_quantaloid_laws(base)
        monads_of(base)
        check_quantaloid_laws(monq_quantaloid(base))
        check_quantaloid_laws(linear_monq_quantaloid(base))

    assert garbage_left_by(work) == 0


def ints_only(value) -> bool:
    return isinstance(value, int) or (
        isinstance(value, tuple) and all(map(ints_only, value)))


@pytest.mark.parametrize("name", ["bool", "diamond"])
def test_girard_theorems_leave_no_cycles(name):
    """The Girard Q-Mod drivers on a fresh base keep only integer tables in
    its memo (dual maps and residual masks), besides the law plans the
    search compiles, so no category, bimodule or base outlives them there."""
    memos = []

    def work():
        entry = build_catalog(10, (name,))[name]
        for theorem in ("girard-qmod", "qmod-closed"):
            assert run_theorem(theorem, entry).ok
        memos.append(entry.base.memo)

    assert garbage_left_by(work) == 0
    for memo in memos:
        tables = {key[0] for key, value in memo.items()
                  if not isinstance(value, _Plan)}
        assert tables == {"qmod-duals", "qmod-residual-masks"}
        assert all(ints_only(value) for value in memo.values()
                   if not isinstance(value, _Plan))


def test_catalog_build_leaves_no_cycles():
    assert garbage_left_by(lambda: build_catalog(10)) == 0


@pytest.mark.parametrize("kind", sorted(QUANTALE_FILES))
def test_relation_operations_leave_no_cycles(kind):
    def work():
        loaded = quantale_from_json(QUANTALE_FILES[kind])
        X = finite_set("X", ["a", "b"])
        for amb in (loaded.ld, loaded.girard):
            rng = random.Random(1)
            f, h = (random_relation(rng, amb, X, X) for _ in range(2))
            compose_tensor(f, h)
            compose_par(f, h)
            right_extension(f, h)
            right_lifting(h, f)
            rel_dual(f, amb.par_unit)

    assert garbage_left_by(work) == 0
