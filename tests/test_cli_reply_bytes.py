"""Pinned CLI replies for the ``verify-qrel`` requests of the law sweep.

Each catalog entry has one SHA-256 over the stdout and exit code of
``linrel.cli.main`` for ``verify-qrel`` exhaustive at max-set 2 and seeded
``random:40`` at max-set 2 and 3 on three seeds, each as text and as
``--json``.  A change to how the law suite draws or composes its cases
must leave every digest unchanged.  Running this file as a script prints
the digests of the current code.
"""

import contextlib
import hashlib
import io

import pytest

from linrel import cli
from linrel.verify import catalog

SEEDS = (1, 1234567, 2024)

EXPECTED = {
    "bool": "a0b3d3d76d382d0e3dc6417fdcd1dd6df58d371a491e9ac10769b3e14046f2ea",
    "bool-broken": "88fac4dfb589491a4bb8f8c7d0232760bfe5be0a33cc469eb7c577bcb8cf84e4",
    "chain3": "66889fc2658dd250c8ecf330d13bcf68872c1d4de69a0bd6751d5f28879e02e1",
    "chain3-broken": "80d99ab7ce9505f751357f63aac09308e4ef499af9065c2277c230cc83df5f91",
    "diamond": "e0a311704dbb77a7ce1c178896424dd97cc61b38f871413890459aa74332958e",
    "diamond-broken": "a3fd6610f2665559a7a0d3ed589947863f1114aad0ed6b5f6bf46e9bff5d2359",
    "point": "cbbd91c26c4804808c62fe4469d3ecfd30ade70170d99f5f6b98cd5c5c6258c2",
    "z2shift": "73f8a8dc0fb11c2ee5d87eeb9af9deac1a659dc59f34cc4e2cb2ee9fdaebaeb5",
    "z2shift-broken": "ef100d66f7c0e38343e14818d29e0438f0c916dc51e18563eccc804773d64171",
    "z3shift": "31eaa6913869b7dd87d0b2ecf796ef8a2203117a7968e151f9a5d201e47e1986",
    "z3shift-broken": "9468dde30b17d536367976dc59220dd1cc3cac7c146793a101e6b4e947b5c272",
    "zinf-arctic": "a41f57e87a540869b662391bb3024f68b22b59c4f76a8588be66a7a07f585116",
    "zinf-broken": "83593ffdae1a7ed45e918f6f71cd3aa5ff18c094e8ff725948398cfa2f5cf31e",
    "zinf-tropical": "69e42016a7224df78252c0920bc5d992f51c6b3d28f6a627a240c4ead7fd5a35",
}


def requests(name: str):
    yield ["verify-qrel", "--entry", name]
    for max_set in ("2", "3"):
        for seed in SEEDS:
            yield ["verify-qrel", "--entry", name, "--sampler", "random:40",
                   "--max-set", max_set, "--seed", str(seed)]


def entry_digest(name: str) -> str:
    h = hashlib.sha256()
    for argv in requests(name):
        for form in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + form)
            h.update(out.getvalue().encode("utf-8"))
            h.update(b"exit %d\n" % code)
    return h.hexdigest()


def test_every_catalog_entry_is_pinned():
    assert sorted(EXPECTED) == sorted(catalog())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_replies_unchanged(name):
    assert entry_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for entry_name in sorted(catalog()):
        print(f"    {entry_name!r}: {entry_digest(entry_name)!r},")
