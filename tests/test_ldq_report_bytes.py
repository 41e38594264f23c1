"""Pinned ``run-theorem ldq`` report bytes, on the stored and the fresh path.

A catalog entry keeps the LD-law report it was classified with, over
``sample_elements(window)``.  ``ldq`` reads that report when its sampler
asks for the entry's window and checks the laws afresh otherwise.  Each
entry has one SHA-256 per path over the canonical ``json_bytes()`` of its
``ldq`` report: the stored path with a window-10 sampler against the
window-10 entry, the fresh path with a window-4 sampler against the same
entry; no entry's report differs between the two windows.  Running this
file as a script prints the digests of the current code.
"""

import hashlib
from dataclasses import replace

import pytest

from linrel import verify
from linrel.report import Sampler
from linrel.verify import catalog, catalog_entry, run_theorem

SAMPLERS = {
    "stored": Sampler.random(seed=3, count=10),
    "fresh": Sampler.random(seed=3, count=10, window=4),
}

EXPECTED = {
    "stored": {
        "bool": "9998502655d515c00906a3bc451161e0f3fa80c6d84dd3c419983c735a0a8d97",
        "bool-broken": "2822fdd8956122984fba0201b1d1e42f6ea3b0b5f33adfd80265e9b3bafc2b05",
        "chain3": "b7cea86b1779bfbe4dcfcb189c640c520a1f9dfded45cfa174f225b5ca82963a",
        "chain3-broken": "e6cbb890f7f8d7773b372b42288641b42ca93cf65eee2b7bc10f13b1bd5d13b5",
        "diamond": "56117677ba41a45e591da1e7891926604f2ffd937c593e99c14ac6eae7b3c0bc",
        "diamond-broken": "b7b99dcd8fffd7a0c01ac3b77329bb8818d946bc2d54a573770c0f8737dec60d",
        "point": "4eb231fa3f8feeb4873eb83d3e694dd4039f352c0c9cda874d04313c2805c6a1",
        "z2shift": "57b63bc9ce9e0edea602d435cbcd98e5efd825656f4b1bac7db3e1f9f210d7c5",
        "z2shift-broken": "b0b1731093337db8dff8b2c6e609450565f668f1dcd4ae842233d5520e8c4298",
        "z3shift": "78e89f2e0ba743d161731e3aea310426d8c490e681cc01502fcb71a6fc11016c",
        "z3shift-broken": "320fd0a1da2f8c5b5c626183b78cebc5e5cbec8051a453b9f786fb986d89f4d9",
        "zinf-arctic": "51d88b61eee8a47b95587526459ab8e1b860749a23ea62a009f7d631bf4848cd",
        "zinf-broken": "215290ed3955eaeff7240c348c075e6ddbca5197671ad941184581944ba14caa",
        "zinf-tropical": "1a403fcbebe989e3e5bddf1a515214c243f60c13e3e88e11f4d95f276bdded00",
    },
    "fresh": {
        "bool": "9998502655d515c00906a3bc451161e0f3fa80c6d84dd3c419983c735a0a8d97",
        "bool-broken": "2822fdd8956122984fba0201b1d1e42f6ea3b0b5f33adfd80265e9b3bafc2b05",
        "chain3": "b7cea86b1779bfbe4dcfcb189c640c520a1f9dfded45cfa174f225b5ca82963a",
        "chain3-broken": "e6cbb890f7f8d7773b372b42288641b42ca93cf65eee2b7bc10f13b1bd5d13b5",
        "diamond": "56117677ba41a45e591da1e7891926604f2ffd937c593e99c14ac6eae7b3c0bc",
        "diamond-broken": "b7b99dcd8fffd7a0c01ac3b77329bb8818d946bc2d54a573770c0f8737dec60d",
        "point": "4eb231fa3f8feeb4873eb83d3e694dd4039f352c0c9cda874d04313c2805c6a1",
        "z2shift": "57b63bc9ce9e0edea602d435cbcd98e5efd825656f4b1bac7db3e1f9f210d7c5",
        "z2shift-broken": "b0b1731093337db8dff8b2c6e609450565f668f1dcd4ae842233d5520e8c4298",
        "z3shift": "78e89f2e0ba743d161731e3aea310426d8c490e681cc01502fcb71a6fc11016c",
        "z3shift-broken": "320fd0a1da2f8c5b5c626183b78cebc5e5cbec8051a453b9f786fb986d89f4d9",
        "zinf-arctic": "51d88b61eee8a47b95587526459ab8e1b860749a23ea62a009f7d631bf4848cd",
        "zinf-broken": "215290ed3955eaeff7240c348c075e6ddbca5197671ad941184581944ba14caa",
        "zinf-tropical": "1a403fcbebe989e3e5bddf1a515214c243f60c13e3e88e11f4d95f276bdded00",
    },
}


def ldq_digest(name: str, path: str) -> str:
    report = run_theorem("ldq", catalog_entry(name, 10), SAMPLERS[path])
    return hashlib.sha256(report.json_bytes()).hexdigest()


def test_every_catalog_entry_is_pinned():
    for path in SAMPLERS:
        assert sorted(EXPECTED[path]) == sorted(catalog())


@pytest.mark.parametrize("path", sorted(SAMPLERS))
@pytest.mark.parametrize("name", sorted(EXPECTED["stored"]))
def test_ldq_report_bytes_unchanged(name, path):
    assert ldq_digest(name, path) == EXPECTED[path][name]


def _counting_check_ld_laws(monkeypatch):
    calls = []
    real = verify.check_ld_laws

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "check_ld_laws", counted)
    return calls


def test_matching_window_reads_the_stored_report(monkeypatch):
    entries = [catalog_entry(name, 10) for name in sorted(EXPECTED["stored"])]
    calls = _counting_check_ld_laws(monkeypatch)
    for entry in entries:
        run_theorem("ldq", entry, SAMPLERS["stored"])
    assert calls == []


def test_other_window_checks_afresh(monkeypatch):
    entries = [catalog_entry(name, 10) for name in sorted(EXPECTED["stored"])]
    calls = _counting_check_ld_laws(monkeypatch)
    for entry in entries:
        run_theorem("ldq", entry, SAMPLERS["fresh"])
    assert calls == [entry.ld for entry in entries]


def test_stored_report_is_evidence_not_identity():
    entry = catalog_entry("zinf-broken", 10)
    bare = replace(entry, ld_report=None, window=None)
    assert bare == entry and hash(bare) == hash(entry)
    assert "ld_report" not in repr(entry)
    # without a stored report ldq checks afresh and says the same
    sampler = SAMPLERS["stored"]
    assert (run_theorem("ldq", bare, sampler).json_bytes()
            == run_theorem("ldq", entry, sampler).json_bytes())


def test_only_the_matching_window_reads_the_stored_report():
    # No catalog entry's report changes between windows 4 and 10, so the
    # digests alone cannot tell the paths apart; a planted report can.
    sound = catalog_entry("zinf-tropical", 10)
    planted = replace(sound, ld_report=catalog_entry("zinf-broken", 10).ld_report)
    stored = run_theorem("ldq", planted, SAMPLERS["stored"])
    assert stored.entry("base-laws").witness["law"] == "par-top-left"
    fresh = run_theorem("ldq", planted, SAMPLERS["fresh"])
    assert fresh.json_bytes() == run_theorem("ldq", sound, SAMPLERS["fresh"]).json_bytes()
    assert fresh.ok


def test_editing_a_report_leaves_the_stored_one_alone():
    sampler = SAMPLERS["stored"]
    first = run_theorem("ldq", "zinf-broken", sampler)
    first.entry("base-laws").witness["witness"]["a"] = 99
    assert ldq_digest("zinf-broken", "stored") == EXPECTED["stored"]["zinf-broken"]


if __name__ == "__main__":
    for path in SAMPLERS:
        print(f"    {path!r}: {{")
        for entry_name in sorted(catalog()):
            print(f"        {entry_name!r}: {ldq_digest(entry_name, path)!r},")
        print("    },")
