"""Finite-carrier compositions agree with the element-level fold.

``FoldKernel`` tabulates middle sets short enough for the carrier's
vectors of that length to fit ``FOLD_VECTORS`` and folds longer ones
entry by entry; both ways must give, entry for entry, the join of tensor
products and the meet of par products computed from the ambient's
element operations.  Middle sets of 0 to 8 members reach both ways on
every finite catalog entry.
"""

import random

import pytest

from linrel.qrel import compose_par, compose_tensor, finite_set, random_relation
from linrel.verify import catalog

FINITE = [name for name, e in catalog(10).items() if e.ld.carrier.is_finite]


def _members(tag, n):
    return finite_set(f"{tag}{n}", tuple(f"{tag}{i}" for i in range(n)))


def _reference(f, g, op, agg):
    gv = g.values
    return tuple(tuple(agg([op(row[y], gv[y][z]) for y in range(len(gv))])
                       for z in range(len(g.target)))
                 for row in f.values)


@pytest.mark.parametrize("name", FINITE)
def test_compositions_match_element_fold(name):
    entry = catalog(10)[name]
    rng = random.Random(name)
    for amb in filter(None, (entry.ld, entry.girard)):
        for ny in range(9):
            for _ in range(4):
                X, Y, Z = (_members("x", rng.randint(0, 4)), _members("y", ny),
                           _members("z", rng.randint(0, 4)))
                f = random_relation(rng, amb, X, Y, 10, 0.0)
                g = random_relation(rng, amb, Y, Z, 10, 0.0)
                assert compose_tensor(f, g).values == \
                    _reference(f, g, amb.tensor, amb.join)
                assert compose_par(f, g).values == \
                    _reference(f, g, amb.par, amb.meet)
