"""Pinned report bytes for the enriched-category and monad theorems and
for the category and bimodule validators.

Each finite catalog entry has one SHA-256 over the canonical
``json_bytes()`` of its ``linear-qmod`` theorem reports at sampler seeds 2
and 3, its ``linear-monq`` report, and, when it has a dualizer, its
``girard-qmod`` and ``qmod-closed`` reports.  These reports are built from
the valid Q-categories and Q-bimodules in table order, so a change to how
they are found must leave every digest unchanged.  A second digest covers
the validator reports on seeded random candidates, most of which fail, so
every law's first witness is pinned too.  Running this file as a script
prints the digests of the current code.
"""

import hashlib
import random

import pytest

from linrel.qmod import (
    QBimodule,
    QCategory,
    check_dual_bimodule,
    check_second_enrichment,
    validate_qbimodule,
    validate_qcategory,
)
from linrel.quantaloid import one_object_quantaloid
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry, run_theorem

EXPECTED = {
    "bool": "251094d298e9d260d839a808b0278209a023e463bb2e7484d897ce5260b9158f",
    "bool-broken": "675dbf60b8302a461008c01ed66952ad86f633bfed1017062f3fe1ad05dbd499",
    "chain3": "6eec01d0abbbab3e950e04f1da8f0a428f844a11101b7e35dea64689662cb479",
    "chain3-broken": "58089b2f4b5f3f0796ec360a9b6e0587d35124990d9e8033683cd6f9424851d1",
    "diamond": "524a3b1e51c96f20b1bdbc4eecf03a988d41eee54cef920189771fd6d41a1a41",
    "diamond-broken": "1442fb897f36ec18559becc83b1d0b802e63104caa762ddb495ebe44eec44680",
    "point": "365da7554f36ea8d2510337fb8de8c8156c33018c7f4a253b425e4fdceed991e",
    "z2shift": "2e7b75cdc6cc943fcf45ce4e5a3e3e97102fbac37825f2c988605bed17dfc9e3",
    "z2shift-broken": "65ba9e013f29f5a70857873937060c5b09d1a685f53b10ece6d696babfc8ddcd",
    "z3shift": "656527b01760d7562129f20579d651af946112efad5f1ff2b0fea8cbc2443b69",
    "z3shift-broken": "51f6f5eaf4f4c90714907b11f7460c6fc2ec306130827dd8e1543c5a2a2efa45",
}
EXPECTED_VALIDATORS = {
    "bool": "4604d810e8526b0cfb6271a5a42c2a019247dbc9c254ca52c39c8e82cb7f9a09",
    "bool-broken": "931b79d5f5f6378e3ab7fa255545d3d397f11b86b63c497c746409dea61e4c42",
    "chain3": "d5a04aabec9f0b8cb5ac9fe83f073ed02d6c00c0d58e1684a2873c57857ec1d3",
    "chain3-broken": "28051d5b718ae3d696142f0edfa4895fe36b4eede0a06931a81797d4fa996a47",
    "diamond": "c0767ef8f350c94993991aca4c9b53e8d4016688e91eb0755ad40b2db7079953",
    "diamond-broken": "f3fc40e7953c627880ddf3d77ddb243d2e2c723f961be68bba385d3386a0dcc8",
    "point": "e9e094e05059cdb4b8a3011b59c8a02c1dc85ea940e6acd5df37fdefcc670a60",
    "z2shift": "b933a72eee7ab9888d0c55a16e070b7c1d2ff6ab85bea1c6aba626b3555f9b39",
    "z2shift-broken": "b4398c1fd30ce70e148ef31c19eedc0a22149fbd8ad2daf211f6464e3aa0754d",
    "z3shift": "4849e91101b3c82c3d0129f368710cc17f1456bdfd0caaf2ad037a59d648dfbc",
    "z3shift-broken": "f23adf3717196cfe4c7eb43d6063e14475f1f15c99f60851221161afbf908b8a",
}


def finite_entries():
    return sorted(n for n in catalog() if catalog_entry(n).ld.carrier.is_finite)


def entry_reports(name: str):
    entry = catalog_entry(name)
    reports = [run_theorem("linear-qmod", entry,
                           Sampler(mode="random", seed=seed, count=4))
               for seed in (2, 3)]
    reports.append(run_theorem("linear-monq", entry, Sampler.exhaustive()))
    if entry.is_girard:
        reports += [run_theorem(thm, entry, Sampler.exhaustive())
                    for thm in ("girard-qmod", "qmod-closed")]
    return reports


def validator_reports(name: str):
    entry = catalog_entry(name)
    base = one_object_quantaloid(entry.ld)
    elements = base.hom("*", "*").elements
    rng = random.Random(name)

    def matrix(rows, cols):
        return tuple(tuple(rng.choice(elements) for _ in range(cols))
                     for _ in range(rows))

    cats = [QCategory(base, tuple(f"m{i}" for i in range(size)), ("*",) * size,
                      matrix(size, size),
                      matrix(size, size) if rng.random() < 0.6 else None)
            for size in (1, 2, 3) for _ in range(30)]
    reports = [validate_qcategory(M) for M in cats]
    if entry.is_girard:
        family = {"*": entry.girard.dualizer}
        reports += [check_second_enrichment(M, family) for M in cats]
    for _ in range(150):
        M, N = rng.choice(cats), rng.choice(cats)
        B = QBimodule(M, N, matrix(len(M), len(N)),
                      matrix(len(N), len(M)) if rng.random() < 0.6 else None)
        reports.append(validate_qbimodule(B))
        reports.append(check_dual_bimodule(B, {"*": rng.choice(elements)}))
    return reports


def digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.json_bytes())
    return h.hexdigest()


def test_every_finite_entry_is_pinned():
    assert sorted(EXPECTED) == sorted(EXPECTED_VALIDATORS) == finite_entries()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_qmod_report_bytes_unchanged(name):
    assert digest(entry_reports(name)) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_VALIDATORS))
def test_validator_report_bytes_unchanged(name):
    assert digest(validator_reports(name)) == EXPECTED_VALIDATORS[name]


if __name__ == "__main__":
    for table, reports in (("EXPECTED", entry_reports),
                           ("EXPECTED_VALIDATORS", validator_reports)):
        print(f"{table} = {{")
        for entry_name in finite_entries():
            print(f"    {entry_name!r}: {digest(reports(entry_name))!r},")
        print("}")
