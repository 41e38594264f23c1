"""Pinned report bytes for the element-level law suites and the catalog.

Each catalog entry has one SHA-256 over the canonical ``json_bytes()`` of
its tensor quantale laws, its LD laws at the default sample and on
``sample_elements(4)``, its ``ldq`` and ``girard-qrel`` theorem reports at
sampler seeds 1 and 2, and its derived classification.  A change to the
element kernels or to how the catalog classifies an entry must leave every
digest unchanged; ``zinf-broken``'s failing witnesses are the ones a
closed-form extended-integer kernel could move.  Running this file as a
script prints the digests of the current code.
"""

import hashlib
import json

import pytest

from linrel.quantale import check_ld_laws, check_quantale_laws
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry, run_theorem

EXPECTED = {
    "bool": "34016de553ed70d76954d95a7125d3dd2f320b0aded71fd198de276758a793ac",
    "bool-broken": "2b48c2a941d6131cf8bae765e8adb89d4a7a352f43cf6c993172a06fdb458eee",
    "chain3": "5b10c65db1ea89bc33228cda1cc5205c627c17aab41a02f91f4815ebbcbb6862",
    "chain3-broken": "4f830f9e17e40aca7cd54cde8f7e94829a9415d182e23bddb65f6a0fc6606796",
    "diamond": "1daa096eec1c48423813500fee41d51a2c06de164d4670cbe4218f9d022a0e3e",
    "diamond-broken": "8f3a2f2d1b7e078ed2874e7be0dfbcf7c8b606856c64ab091b5cb8824fe8c7ae",
    "point": "bc3981b47da94a1c95fd55f9747fa5cf4a804a0f612346ff3950dae40f27b3be",
    "z2shift": "3088a55ee50e562c8c95de14ec0aa45b520f96f58fe2d95f227e2bc62e05890f",
    "z2shift-broken": "cf8b3d555a81bbc89a33bd45e4650e8862315338f58d99e7829b9f1ae910b969",
    "z3shift": "a76534fe30627263fa94be64c046e354fd3c39a69734e07a10aea16c09900409",
    "z3shift-broken": "e9750a96ad184c49b4edc4192fbaab174bc2907cd10e8cf76ca0ef732d309a63",
    "zinf-arctic": "50e88a4ad6b0a66bd2d9038bf8c4fab85927c9a949f6d69a23c424d699853b86",
    "zinf-broken": "6ff56bb690835078764a47ad1d9cba487221d030ba1c9d4250031698a04c99cc",
    "zinf-tropical": "cf02f8a8bbe07627b5d28090daa291c0f8579e3a7108ca11205125960322f930",
}


def entry_bytes(name: str):
    entry = catalog_entry(name)
    ld = entry.ld
    reports = [check_quantale_laws(ld),
               check_ld_laws(ld),
               check_ld_laws(ld, ld.sample_elements(4))]
    reports += [run_theorem(thm, entry, Sampler.random(seed=seed, count=12))
                for thm in ("ldq", "girard-qrel") for seed in (1, 2)]
    out = [rep.json_bytes() for rep in reports]
    girard = entry.girard.dualizer if entry.is_girard else None
    out.append(json.dumps([entry.quantale_ok, entry.ld_ok,
                           list(entry.dualizers), girard]).encode())
    return out


def entry_digest(name: str) -> str:
    h = hashlib.sha256()
    for chunk in entry_bytes(name):
        h.update(chunk)
    return h.hexdigest()


def test_every_catalog_entry_is_pinned():
    assert sorted(EXPECTED) == sorted(catalog())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_element_report_bytes_unchanged(name):
    assert entry_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for entry_name in sorted(catalog()):
        print(f"    {entry_name!r}: {entry_digest(entry_name)!r},")
