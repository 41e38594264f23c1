"""Pinned report bytes for the relation and bimodule law suites.

Each catalog entry has one SHA-256 over the canonical ``json_bytes()`` of
its relation-level law reports (exhaustive at max-set 2, seeded random at
max-set 3), its Girard relation report when it has a dualizer, and its
``linear-qmod`` theorem report when its carrier is finite.  A refactor of
the law code must leave every digest unchanged.  Running this file as a
script prints the digests of the current code.
"""

import hashlib

import pytest

from linrel.qrel import check_girard_qrel, verify_qrel_laws
from linrel.report import LAW_GROUPS, Sampler
from linrel.verify import catalog, catalog_entry, default_sets, run_theorem

TWENTY_LAWS = (LAW_GROUPS["quantale"] + LAW_GROUPS["op-quantale"]
               + LAW_GROUPS["linear-distribution"]
               + LAW_GROUPS["posetal-functoriality"])

EXPECTED = {
    "bool": "905e321316747c4c834a8f6bb1e65af9003a114284a0633d7963d4140a9f8cdd",
    "bool-broken": "f1bf4c6aeb23283974846f1f5b35a5910af7ebb7e06f29e6a7e01e4832b1803c",
    "chain3": "fd891a2791feedb61e2d747bdc23f50b9be6f0cb28577be99889cde3b4f341c3",
    "chain3-broken": "522c5b2bb8005e7815bc93e62d230ae1ddb4167e16466d1e08caf71adb7f9e50",
    "diamond": "9b7740c6f59643c3400f0ad70812b9061ec4db7fec4dddc2c351a2cc5b99a49a",
    "diamond-broken": "cdb43630264d75578b76fd42b514f8dcaa070ab0612d66430b6c36d9a7c1fc26",
    "point": "7ccad5235654ebd73620696d715b6e5da1b32ad41e352f1f48ba2ce4c90a8365",
    "z2shift": "606564384ca0e9843ea4bffc2ee9d7ef759228f2425857044a6637d6b4334d65",
    "z2shift-broken": "c3530da297eb9a2e94d08ab9d9313fa6200802c8111ff1e742eaad7acbd5b48e",
    "z3shift": "ebabade723e909d80b6ebd79fad24935f259f7e5805703cee6c6bd73db608af0",
    "z3shift-broken": "535ae1e851f670345e2823c97d7a93f635174c452e49c304ba939dab4e60a925",
    "zinf-arctic": "09f0828e25e18839bb1b3d1df5fc81b9995dc8dec14125dec9b7ee8d5009f3c1",
    "zinf-broken": "8ebdd0e272ae95c2d10525a5848802298832377df09ed1ea7a2aaf14dbff0cfd",
    "zinf-tropical": "09f0828e25e18839bb1b3d1df5fc81b9995dc8dec14125dec9b7ee8d5009f3c1",
}


def entry_reports(name: str):
    entry = catalog_entry(name)
    reports = [
        verify_qrel_laws(entry.ld, default_sets(2), Sampler.exhaustive()),
        verify_qrel_laws(entry.ld, default_sets(3),
                         Sampler.random(seed=7, count=40)),
    ]
    if entry.is_girard:
        reports.append(check_girard_qrel(entry.girard, default_sets(2),
                                         Sampler.exhaustive()))
    if entry.ld.carrier.is_finite:
        reports.append(run_theorem("linear-qmod", entry,
                                   Sampler(mode="random", seed=1, count=4)))
    return reports


def entry_digest(name: str) -> str:
    h = hashlib.sha256()
    for rep in entry_reports(name):
        h.update(rep.json_bytes())
    return h.hexdigest()


def test_every_catalog_entry_is_pinned():
    assert sorted(EXPECTED) == sorted(catalog())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_bytes_unchanged(name):
    assert entry_digest(name) == EXPECTED[name]


def test_law_order_follows_registry():
    entry = catalog_entry("chain3")
    rep = verify_qrel_laws(entry.ld, default_sets(2),
                           Sampler.random(seed=3, count=5))
    assert rep.law_names() == TWENTY_LAWS
    thm = run_theorem("linear-qmod", entry,
                      Sampler(mode="random", seed=1, count=2))
    # the base quantaloid entries come first, the theorem verdicts last
    assert thm.law_names()[-len(TWENTY_LAWS) - 3:] == TWENTY_LAWS + (
        "theorem-forward", "theorem-backward", "theorem-transfer")


if __name__ == "__main__":
    for entry_name in sorted(catalog()):
        print(f"    {entry_name!r}: {entry_digest(entry_name)!r},")
