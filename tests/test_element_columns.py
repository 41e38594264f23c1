"""The element checks evaluate laws a column at a time on codes; the
reference is the per-tuple loop on element names.

``check_quantale_laws`` and ``check_ld_laws`` bind every witness key but
the innermost to one code and pass the whole coded sample as a column in
the innermost key's slot.  The reference below is the loop they replaced:
each tuple of the sample in product order, ``a`` outermost, fed to the law
on a calculus over element names, whose kernels are the quantale's own
``mul`` and ``par_mul`` and whose lattice reads the carrier.  On every
catalog entry's LD and Girard forms, on the tropical quantale with a
shifted par and its opposite, and on every sample of
``test_element_report_pins.py``, both must name the same first failing
tuple and the same ``lhs`` and ``rhs``.  Each operation of the coded
calculus must also act on a column entry by entry.
"""

from itertools import product
from operator import eq

import pytest

from linrel.laws import LAWS, WITNESS_KEYS, Calculus, sides
from linrel.quantale import (
    check_ld_laws,
    opposite_quantale,
    scalar_calculus,
    scalar_codec,
    tropical_quantale,
    with_dualizer,
)
from linrel.report import LAW_GROUPS
from linrel.verify import catalog

ELEMENT_LAWS = (LAW_GROUPS["quantale"] + LAW_GROUPS["op-quantale"]
                + LAW_GROUPS["linear-distribution"])


# Written out rather than read from the catalog, so that a fault in the
# element checks, which classify every entry, fails the tests below by
# name instead of their collection.
NAMES = ("bool", "bool-broken", "chain3", "chain3-broken", "diamond",
         "diamond-broken", "point", "z2shift", "z2shift-broken", "z3shift",
         "z3shift-broken", "zinf-arctic", "zinf-broken", "zinf-tropical",
         "tropical-shift-3", "tropical-shift-3-op")


def ambients(name):
    """The LD and Girard forms of an entry, or one shifted tropical form."""
    if name.startswith("tropical-shift-3"):
        shifted = with_dualizer(tropical_quantale(), 3)
        return [opposite_quantale(shifted) if name.endswith("-op") else shifted]
    entry = catalog()[name]
    return [amb for amb in (entry.ld, entry.girard) if amb is not None]


def test_every_catalog_entry_is_named():
    assert sorted(catalog()) == sorted(NAMES[:-2])


def samples(amb):
    yield amb.sample_elements()
    for window in (3, 15):
        yield amb.sample_elements(window)
    small = amb.sample_elements(3)
    yield small[::-1] + small[::2]


def name_calculus(amb) -> Calculus:
    """The scalar calculus on element names, one tuple at a time."""
    leq = amb.carrier.leq
    const = lambda v: (lambda *_: v)
    return Calculus(
        tensor=amb.mul, par=amb.par_mul,
        id_top=const(amb.unit), id_bot=const(amb.par_unit),
        zero=const(amb.bottom), top=const(amb.top),
        join=lambda a, b: amb.join((a, b)), meet=lambda a, b: amb.meet((a, b)),
        leq=leq, eq=eq, source=const(None), target=const(None))


def reference_witness(amb, sample, label):
    calc = name_calculus(amb)
    law, keys = LAWS[label][1], WITNESS_KEYS[label]
    holds = law(calc)
    for values in product(sample, repeat=len(keys)):
        wit = dict(zip("abc", values))
        case = [wit[k] for k in keys]
        if not holds(*case):
            wit.update(sides(law, calc, case, len(keys) == 1))
            return wit
    return None


@pytest.mark.parametrize("name", NAMES)
def test_columns_find_the_reference_witness(name):
    for amb in ambients(name):
        for sample in samples(amb):
            report = check_ld_laws(amb, sample)
            for label in ELEMENT_LAWS:
                assert report.entry(label).witness == \
                    reference_witness(amb, sample, label), (name, label, sample)


def check_entry_by_entry(calc, encode, sample):
    col = list(map(encode, sample))
    rev = col[::-1]
    for op in ("tensor", "par", "join", "meet"):
        f = getattr(calc, op)
        for a in col:
            assert f(a, col) == [f(a, c) for c in col], (op, a)
            assert f(col, a) == [f(c, a) for c in col], (op, a)
        assert f(col, rev) == [f(c, d) for c, d in zip(col, rev)], op
    for test in (calc.leq, calc.eq):
        for a in col:
            assert test(a, col) == all(test(a, c) for c in col)
            assert test(col, a) == all(test(c, a) for c in col)
        assert test(col, rev) == all(map(test, col, rev))


@pytest.mark.parametrize("name", NAMES)
def test_column_operations_act_entry_by_entry(name):
    for amb in ambients(name):
        check_entry_by_entry(scalar_calculus(amb), scalar_codec(amb)[0],
                             amb.sample_elements(3))
