"""The pruned search for Q-categories and Q-bimodules against brute force.

The oracle enumerates every matrix in ``itertools.product`` order and
keeps the candidates that ``validate_qcategory`` / ``validate_qbimodule``
pass (tensor values first, then par values for each valid tensor part).
The search must return the same objects in the same order, so any
``limit`` takes the same first N.
"""

from functools import lru_cache
from itertools import islice, product

import pytest

from linrel.qmod import (
    QBimodule,
    QCategory,
    enumerate_qbimodules,
    enumerate_qcategories,
    validate_qbimodule,
    validate_qcategory,
)
from linrel.quantaloid import one_object_quantaloid
from linrel.verify import catalog, catalog_entry

FINITE = ("bool", "bool-broken", "chain3", "chain3-broken", "diamond",
          "diamond-broken", "point", "z2shift", "z2shift-broken", "z3shift",
          "z3shift-broken")
LIMITS = (None, 1, 3, 12)


@lru_cache(maxsize=None)
def base_of(name):
    return one_object_quantaloid(catalog_entry(name).ld)


def matrices(base, rows, cols):
    pools = [base.hom(a, b).elements for a in rows for b in cols]
    for flat in product(*pools):
        yield tuple(flat[i * len(cols):(i + 1) * len(cols)]
                    for i in range(len(rows)))


def brute_categories(base, size, linear):
    members, rho = tuple(f"x{i}" for i in range(size)), ("*",) * size
    for et in matrices(base, rho, rho):
        if not validate_qcategory(QCategory(base, members, rho, et)).ok:
            continue
        for ep in matrices(base, rho, rho) if linear else (None,):
            M = QCategory(base, members, rho, et, ep)
            if validate_qcategory(M).ok:
                yield M


def brute_bimodules(M, N, linear):
    base = M.base
    for vt in matrices(base, M.rho, N.rho):
        if not validate_qbimodule(QBimodule(M, N, vt)).ok:
            continue
        for vp in matrices(base, N.rho, M.rho) if linear else (None,):
            B = QBimodule(M, N, vt, vp)
            if validate_qbimodule(B).ok:
                yield B


@lru_cache(maxsize=None)
def endpoint_categories(name, linear):
    """The first two categories on one member and on two."""
    base = base_of(name)
    return [M for size in (1, 2)
            for M in islice(brute_categories(base, size, linear), 2)]


def test_finite_entries_listed():
    assert sorted(FINITE) == sorted(
        n for n in catalog() if catalog_entry(n).ld.carrier.is_finite)


@pytest.mark.parametrize("linear", (False, True))
@pytest.mark.parametrize("size", (1, 2))
@pytest.mark.parametrize("name", FINITE)
def test_categories_match_brute_force(name, size, linear):
    base = base_of(name)
    members, rho = tuple(f"x{i}" for i in range(size)), ("*",) * size
    expected = list(brute_categories(base, size, linear))
    for limit in LIMITS:
        got = list(enumerate_qcategories(base, members, rho, linear=linear,
                                         limit=limit))
        assert got == expected[:limit]


@pytest.mark.parametrize("linear", (False, True))
@pytest.mark.parametrize("name", FINITE)
def test_bimodules_match_brute_force(name, linear):
    cats = endpoint_categories(name, linear)
    for M, N in product(cats, repeat=2):
        # between two-member categories there are up to 65,536 linear
        # bimodules, too many for the oracle to list in full
        small = len(M) == 1 or len(N) == 1
        for limit in LIMITS if small else LIMITS[1:]:
            expected = list(islice(brute_bimodules(M, N, linear), limit))
            assert enumerate_qbimodules(M, N, linear=linear,
                                        limit=limit) == expected
