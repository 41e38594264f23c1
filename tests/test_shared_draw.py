"""``verify_qrel_laws`` draws each law shape once and shares the draw.

The sampler is seeded afresh per draw, so every law of one shape would
see the same cases if it drew them itself.  The reference below does
exactly that (``relation_reference.reference_qrel_laws``), one draw per
label, and the suite must give the same report
bytes on sound and broken entries, exhaustive and seeded random, at
max-set 2 and 3.  The draw is of coded cells, which the reference turns
into relations and checks, and shrinks, on the relation-level calculus
of ``relation_reference``; the suite runs the laws and the shrinker on
the cells themselves, so it composes no relations at all.
"""

import pytest

from relation_reference import REL_LAW_SPECS, reference_qrel_laws

from linrel import qrel
from linrel.qrel import verify_qrel_laws
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry, default_sets

ENTRIES = ("bool", "chain3", "chain3-broken", "diamond-broken",
           "z2shift-broken", "zinf-tropical", "zinf-broken")

SAMPLERS = {
    "exhaustive": Sampler.exhaustive(),
    "random:40": Sampler.random(seed=5, count=40),
}


@pytest.mark.parametrize("max_set", [2, 3])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("name", ENTRIES)
def test_shared_draw_matches_one_draw_per_label(name, sampler, max_set):
    ld = catalog_entry(name).ld
    sets = default_sets(max_set)
    got = verify_qrel_laws(ld, sets, SAMPLERS[sampler])
    want = reference_qrel_laws(ld, sets, SAMPLERS[sampler])
    assert got.json_bytes() == want.json_bytes()


def test_broken_entries_fail_somewhere():
    # the comparison above covers witnesses, not only passing reports
    for name in ENTRIES:
        if name.endswith("-broken"):
            rep = verify_qrel_laws(catalog_entry(name).ld, default_sets(2),
                                   SAMPLERS["random:40"])
            assert not rep.ok, name


@pytest.mark.parametrize("labels, draws", [
    (None, 4),
    (("tensor-unit-left", "par-top-right", "tensor-bottom-left"), 1),
    (("tensor-associativity", "tensor-sup-left", "par-inf-left"), 2),
    (("par-monotone-right", "tensor-unit-left", "par-associativity",
      "par-monotone-left"), 4),
])
def test_one_draw_per_distinct_shape(labels, draws, monkeypatch):
    calls = []
    real = qrel.sample_relation_tuples

    def counted(amb, sets, sampler, shape):
        calls.append(shape)
        return real(amb, sets, sampler, shape)

    monkeypatch.setattr(qrel, "sample_relation_tuples", counted)
    rep = verify_qrel_laws(catalog_entry("chain3-broken").ld, default_sets(2),
                           SAMPLERS["random:40"], labels=labels)
    assert len(calls) == len(set(calls)) == draws
    assert rep.law_names() == (labels or tuple(REL_LAW_SPECS))


SOUND = [name for name, entry in catalog(10).items() if entry.ld_ok]


@pytest.mark.parametrize("name", list(catalog(10)))
def test_sound_suite_composes_no_relations(name, monkeypatch):
    # the laws and the shrinker run on coded cells: no entry, sound or
    # broken, composes a relation
    calls = []
    for op in ("compose_tensor", "compose_par"):
        real = getattr(qrel, op)
        monkeypatch.setattr(qrel, op, lambda f, g, real=real: calls.append(1) or real(f, g))
    rep = verify_qrel_laws(catalog_entry(name).ld, default_sets(3),
                           Sampler.random(seed=5, count=40))
    assert rep.ok is (name in SOUND)
    assert not calls
