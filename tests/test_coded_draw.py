"""The law suites' draw gives coded cells from the stream relations had.

``sample_relation_tuples`` returns each case as coded cells ``(source,
target, cells)`` and builds no relation.  The reference below is the draw
as it was: the boundary of each random case picked by ``randrange``, then
one ``random_relation`` per slot, and every relation of each slot
enumerated for an exhaustive draw.  On every catalog entry, for every law
shape, sampler and max-set, the decoded draw must equal the reference
relation for relation, with the same mode label.  ``random_relation``
itself is pinned to the element choice it makes.
"""

import random
from itertools import product

import pytest

from linrel.laws import SHAPE_SLOTS
from linrel.qrel import (
    _from_cells,
    count_relations,
    enumerate_relations,
    random_relation,
    sample_relation_tuples,
)
from linrel.quantale import MINUS_INF, PLUS_INF
from linrel.report import Sampler
from linrel.verify import catalog, default_sets

SAMPLERS = {
    "exhaustive": Sampler.exhaustive(),
    "random:40": Sampler.random(seed=5, count=40),
    "random:25-window-3": Sampler.random(seed=11, count=25, window=3),
}


def _ambients(name):
    entry = catalog(10)[name]
    return [amb for amb in (entry.ld, entry.girard) if amb is not None]


def reference_sample(amb, sets, sampler, shape):
    """The draw as it was, one relation per slot."""
    slots = SHAPE_SLOTS[shape]
    boundaries = list(product(sets, repeat=1 + max(j for _, j in slots)))
    total, exhaustive_ok = 0, amb.carrier.is_finite
    if exhaustive_ok:
        for bnd in boundaries:
            counts = [count_relations(amb, bnd[i], bnd[j]) for i, j in slots]
            if any(c > sampler.slot_cap for c in counts):
                exhaustive_ok = False
                break
            prod = 1
            for c in counts:
                prod *= c
            total += prod
            if total > sampler.tuple_budget:
                exhaustive_ok = False
                break
    if exhaustive_ok and sampler.mode == "exhaustive":
        cases = []
        for bnd in boundaries:
            pools = {(i, j): list(enumerate_relations(amb, bnd[i], bnd[j]))
                     for i, j in dict.fromkeys(slots)}
            cases.extend(product(*(pools[slot] for slot in slots)))
        return sampler.exhaustive_label(), cases
    rng = sampler.rng()
    cases = []
    for _ in range(sampler.count):
        bnd = boundaries[rng.randrange(len(boundaries))]
        cases.append(tuple(random_relation(rng, amb, bnd[i], bnd[j], sampler.window,
                                           sampler.inf_weight) for i, j in slots))
    return sampler.random_label(), cases


@pytest.mark.parametrize("max_set", [2, 3])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("name", sorted(catalog(10)))
def test_coded_draw_decodes_to_reference(name, sampler, max_set):
    sets = default_sets(max_set)
    for amb in _ambients(name):
        for shape in SHAPE_SLOTS:
            mode, cases = sample_relation_tuples(amb, sets, SAMPLERS[sampler], shape)
            want_mode, want = reference_sample(amb, sets, SAMPLERS[sampler], shape)
            assert mode == want_mode
            got = [tuple(_from_cells(X, Y, amb, cells) for X, Y, cells in case)
                   for case in cases]
            assert got == want


@pytest.mark.parametrize("name", [n for n in sorted(catalog(10))
                                  if not catalog(10)[n].ld.carrier.is_finite])
def test_random_relation_draws_extended_integers_row_by_row(name):
    # an infinity with probability inf_weight each, else an integer in the window
    X, Y = default_sets(3)[2], default_sets(2)[1]
    for amb in _ambients(name):
        for window, inf_weight in ((10, 0.125), (2, 0.4)):
            got = random_relation(random.Random(9), amb, X, Y, window, inf_weight)
            rng = random.Random(9)

            def entry():
                u = rng.random()
                if u < inf_weight:
                    return PLUS_INF
                if u < 2 * inf_weight:
                    return MINUS_INF
                return rng.randint(-window, window)
            assert got.values == tuple(tuple(entry() for _ in Y.members)
                                       for _ in X.members)
