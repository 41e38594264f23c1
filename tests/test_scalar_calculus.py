"""Elements are the 1-cells of the one-object bicategory.

The element-level law checks run ``laws.LAWS`` on the scalar calculus of
an LD-quantale, whose cells are element codes.  On every finite catalog
entry, sound and broken, each of the sixteen element laws on the codes of
a tuple must give the same verdict as the relation law on 1x1 relations
over a one-point set holding its elements, on every tuple of the sample.
Tuples run over the witness keys ``a``, ``b``, ``c`` (``a`` outermost);
the relation side reads its slots from the keys listed below, written out
here rather than taken from ``laws.WITNESS_KEYS``, so the second
distribution's permutation is pinned too.  The first disagreeing tuple,
if any, is named.
"""

from itertools import product

import pytest

from relation_reference import REL_LAW_SPECS

from linrel.laws import LAWS, WITNESS_KEYS
from linrel.qrel import FiniteSet, QRelation
from linrel.quantale import check_ld_laws, scalar_calculus, scalar_codec
from linrel.report import LAW_GROUPS
from linrel.verify import catalog

ELEMENT_LAWS = (LAW_GROUPS["quantale"] + LAW_GROUPS["op-quantale"]
                + LAW_GROUPS["linear-distribution"])

# The relation slots of each element law, by witness key.
SLOT_KEYS = {label: ("a",) if LAWS[label][0] == "chain1" else ("a", "b", "c")
             for label in ELEMENT_LAWS}
SLOT_KEYS["linear-distribution-right"] = ("b", "c", "a")

FINITE = sorted(name for name, e in catalog().items() if e.ld.carrier.is_finite)
POINT = FiniteSet("pt", ("*",))


def test_element_laws_are_sixteen_and_finite_entries_eleven():
    assert len(ELEMENT_LAWS) == 16
    assert len(FINITE) == 11
    assert {label: WITNESS_KEYS[label] for label in ELEMENT_LAWS} == SLOT_KEYS


@pytest.mark.parametrize("name", FINITE)
def test_scalar_calculus_agrees_with_one_point_relations(name):
    ld = catalog()[name].ld
    sample = ld.sample_elements()
    calc = scalar_calculus(ld)
    encode = scalar_codec(ld)[0]
    report = check_ld_laws(ld)
    for label in ELEMENT_LAWS:
        law, keys = LAWS[label][1], SLOT_KEYS[label]
        on_elements = law(calc)
        on_relations = REL_LAW_SPECS[label][1]
        first_failure = None
        for values in product(sample, repeat=len(keys)):
            case = dict(zip("abc", values))
            element = on_elements(*(encode(case[k]) for k in keys))
            relation = on_relations(tuple(QRelation(POINT, POINT, ld, ((case[k],),))
                                          for k in keys))
            assert element == relation, (name, label, case)
            if not element and first_failure is None:
                first_failure = case
        witness = report.entry(label).witness
        found = None if witness is None else {k: witness[k] for k in "abc"
                                              if k in witness}
        assert found == first_failure, (name, label)
