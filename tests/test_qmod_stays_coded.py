"""Q-Mod drivers keep their intermediate bimodules on hom indices.

A bimodule made by a composition, a join or meet, a residual, a dual, a
linearization or a search keeps its cells as codes and decodes its element
names only when they are read.  Each case below runs a driver on pool
bimodules of a sound base while recording every bimodule made from codes.
None of them may have been decoded by the end of the run, and no bimodule
may be made from names, so no driver step goes through names.  Afterwards
the decoded names of each must rebuild, through the validating constructor
``qbimodule``, an equal bimodule with an equal hash.
"""

import pytest

from linrel import qmod, verify
from linrel.qmod import (
    QBimodule,
    check_girard_qmod,
    enumerate_qbimodules,
    qbimodule,
    sample_linear_categories,
    verify_linear_qmod_theorem,
)
from linrel.report import Sampler
from linrel.verify import build_catalog, run_theorem

GIRARD = ("bool", "diamond", "z2shift")


@pytest.fixture
def made(monkeypatch):
    """Every bimodule made from codes while the test runs; making one from
    element names fails the test."""
    out = []
    original = qmod._made

    def recording(*args):
        B = original(*args)
        out.append(B)
        return B

    def from_names(*args):
        raise AssertionError("a bimodule was made from element names")

    # the qmod-closed driver builds bimodules between linearized categories
    for module in (qmod, verify):
        monkeypatch.setattr(module, "_made", recording)
    monkeypatch.setattr(QBimodule, "__init__", from_names)
    return out


def fresh(name):
    return build_catalog(10, (name,))[name]


def assert_coded_and_rebuilt(bims, monkeypatch):
    assert bims
    decoded = [B for B in bims if {"values_tensor", "values_par"} & vars(B).keys()]
    assert decoded == []
    monkeypatch.undo()
    for B in bims:
        again = qbimodule(B.source, B.target, B.values_tensor, B.values_par)
        assert again == B and hash(again) == hash(B)
        assert again.tensor == B.tensor and again.par == B.par


@pytest.mark.parametrize("name", GIRARD)
def test_girard_qmod_stays_coded(name, made, monkeypatch):
    entry = fresh(name)
    base = entry.base
    cats = sample_linear_categories(base, per_shape=2, linear=False)
    bims = [B for M in cats for N in cats
            for B in enumerate_qbimodules(M, N, limit=3)]
    rep = check_girard_qmod(base, {"*": entry.girard.dualizer}, bims)
    assert rep.ok
    # the pool, the deltas and the duals the residuals built
    assert len(made) > len(bims)
    assert_coded_and_rebuilt(made, monkeypatch)


@pytest.mark.parametrize("name", GIRARD)
def test_qmod_closed_stays_coded(name, made, monkeypatch):
    assert run_theorem("qmod-closed", fresh(name)).ok
    assert_coded_and_rebuilt(made, monkeypatch)


@pytest.mark.parametrize("name", ("bool", "chain3", "z2shift"))
def test_linear_qmod_law_pass_stays_coded(name, made, monkeypatch):
    rep = verify_linear_qmod_theorem(fresh(name).base,
                                     Sampler.random(seed=5, count=3))
    assert rep.ok
    assert_coded_and_rebuilt(made, monkeypatch)
