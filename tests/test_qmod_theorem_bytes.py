"""Pinned theorem report bytes on each catalog entry's kept base quantaloid.

A catalog entry builds its one-object base quantaloid once, on first use,
and keeps it; the base's law verdicts, monads and monad quantaloids are
kept in the base's memo.  Each (theorem, entry) pair that the
``qmod-sweep`` benchmark sends has one SHA-256 over the canonical
``json_bytes()`` of its report: ``linear-qmod`` and ``linear-monq`` on
every finite entry, ``girard-qmod``, ``girard-monq`` and ``qmod-closed``
on the finite Girard entries.  Each digest must hold on the first call,
which fills the memo, and on a repeated call, which reads it.  Running
this file as a script prints the digests of the current code.
"""

import hashlib

import pytest

from linrel import verify
from linrel.report import Sampler
from linrel.verify import build_catalog, catalog, catalog_entry, run_theorem

SAMPLER = Sampler.random(seed=5, count=4)
LINEAR = ("linear-qmod", "linear-monq")
GIRARD = ("girard-qmod", "girard-monq", "qmod-closed")

EXPECTED = {
    "linear-qmod bool":
        "90cf3fa14d8886959ad5bb3ac0ed2c252f3173fd9865b83d578a7bf2c416062f",
    "linear-monq bool":
        "aa9f793b28e95711af2ea368121367fd6f44e5652cfde3a23598121f11a143dc",
    "girard-qmod bool":
        "824183fde1177958d1779ee38d8a8e00e58955fab26814367cba1fadbbbe3db4",
    "girard-monq bool":
        "3fadffaf7358757bf9f624805372411ac6be1d70624153389fd0592d6c747b77",
    "qmod-closed bool":
        "517e7124b446779f647f6b73209d0e81f7d91fe8193cc486d6df38aaea541b91",
    "linear-qmod bool-broken":
        "07ad4d6ec2a653a9ab9a7c78bcf5302afb2e07e2c4955d77c685fa619434a584",
    "linear-monq bool-broken":
        "761ce75731dbfc7b4bb8cbddb51b6fa7d92a95428e4507437d2cc2f84d84454a",
    "linear-qmod chain3":
        "a9e9ab43f696937f20062fe433d90647332da160cf219cf8cc086abf9b9f97d9",
    "linear-monq chain3":
        "b6b72a01ea993d50caeaafef37fec7b71a8027acfdecfbf1d58be3b72a9e1584",
    "linear-qmod chain3-broken":
        "a36ea48f41c6426a006d0df369bdcb8cc4b85f87f8ba25f55329bf71a14b65c9",
    "linear-monq chain3-broken":
        "762dcbe015d0fa7211822dea862b93edb8aaabe9dfe2fcf67447606dd88e61a9",
    "linear-qmod diamond":
        "4c2d91180878909fabd80d4ee9468af9e64ffecc52567d705200603a9ecc6afc",
    "linear-monq diamond":
        "a0a8674089cdf906c6cf885f47a14553298e92a2c8978909c8dff4807382a601",
    "girard-qmod diamond":
        "012ae1d762fa8c0c54c243849ed1020bbe80484bb55394b1f17786a5b18bc5a6",
    "girard-monq diamond":
        "974c5b61c0a3cdfe1da3e45d3aefda84007deb982796a64b62ab073a620f0fef",
    "qmod-closed diamond":
        "2103cfa46f3204a735f75b6c4310157cf4ca9bf36210b9cc5a2a814925a97b8c",
    "linear-qmod diamond-broken":
        "3e3247fae3fdefb4c17de214869a5aeb235775a5d17db2689dacab11ae93f663",
    "linear-monq diamond-broken":
        "9fc2df8e43f75877874c0416ae960cb8bde585b65f07e44fe1326780c5f46e50",
    "linear-qmod point":
        "8b8ea9c384427c88b63aab98a0fb61c438acabcc479261cd67226f6c32a23400",
    "linear-monq point":
        "43b596dd698f75559b0414a5c765ba85d7b3c2e2b2bbb854d08a60b10354a006",
    "girard-qmod point":
        "d36e30c82c15b338b8308fcfd7a63f9cafecc259595006e5c104713b240dc877",
    "girard-monq point":
        "aadab3576988a3e96c402110d3c3e0f232b11a2de9722b9a8fba36e6a8a9c43b",
    "qmod-closed point":
        "26e01f81c5c01b6682f827b5bb90824b896a7304ef2e72849b235a8c9676d836",
    "linear-qmod z2shift":
        "bcd4deb60cb1b08beb2d68570762541b86b9aa3ba7c836272bdb7ff99a516650",
    "linear-monq z2shift":
        "0bd6396f17c7a42b156fb963f7c867bf64f1da4931f088fc757897704bdfabf3",
    "girard-qmod z2shift":
        "c929f549de9f990fbda5d239e6918f0f58f2e800b536b8fbe0d39fe49671e418",
    "girard-monq z2shift":
        "881a8e135c48fe9c94d716991cf6a553ca7f8bb693f49febabd97eac6c786b73",
    "qmod-closed z2shift":
        "67c762e5e38c42724c385a76bed35d11d9e091947430db2e41063c9d5d09a485",
    "linear-qmod z2shift-broken":
        "86d13d50ee3fdc0b0514b77f3477b91bd80c970f9ee76a655801a5d3031dc992",
    "linear-monq z2shift-broken":
        "c456cb727d7d57c4f93d236ead069f0cc6717e1392bb5ee613218f6980f6f8cc",
    "girard-qmod z2shift-broken":
        "534ae7863e7394127e13d24b430eab855614a6d07032e5f5f333669100fea600",
    "girard-monq z2shift-broken":
        "5e64aa74a74621084d3c5899f7f62b90fdc30a9113bfa80c1e269ebcc70fe524",
    "qmod-closed z2shift-broken":
        "8f7edb3bbbbd1bd9d766f5f275bee7cb96a767ef09fc1f3e1ca7fc27fd3bf153",
    "linear-qmod z3shift":
        "c3ee2ff7ebad27f17c0086d7e3213f7bdce4248034598f900782aa4d55a7b51d",
    "linear-monq z3shift":
        "506f9413d085fb8390f87b4029ffc7fe5a0fdcbf778c790436d500b40ae2855d",
    "girard-qmod z3shift":
        "27af6fb8fade00b757a1762edcde852af7c19f84961da08b1733063d3b58169d",
    "girard-monq z3shift":
        "81376f41c01b7733a948b9c7cb98e513d8630216d45e1aa61b06783c4a0749a0",
    "qmod-closed z3shift":
        "fd8fc039018bc95b8ed9f80b13e32f2ff689fb0192a8a8731b680eca2564cf9d",
    "linear-qmod z3shift-broken":
        "e3c1ad419d7437eec388b510a0bdc776460219f43dfa48973753a167c6f2fb74",
    "linear-monq z3shift-broken":
        "7142a259923835d9af5683f1d0b69ba45c90d922f006ff5e10404081e1e88b9a",
}


def finite_entries() -> list[str]:
    return sorted(n for n in catalog() if catalog_entry(n).ld.carrier.is_finite)


def theorems(name: str) -> tuple[str, ...]:
    return LINEAR + (GIRARD if catalog_entry(name).is_girard else ())


def digest(report) -> str:
    return hashlib.sha256(report.json_bytes()).hexdigest()


def test_every_pair_is_pinned():
    assert sorted(EXPECTED) == sorted(f"{t} {n}" for n in finite_entries()
                                      for t in theorems(n))


@pytest.mark.parametrize("name", sorted({k.split()[1] for k in EXPECTED}))
def test_reports_unchanged_on_first_and_repeated_call(name):
    # a freshly classified entry, so its base is built by the first call
    fresh = build_catalog(10, (name,))[name]
    assert "base" not in vars(fresh)
    for _ in range(2):
        for t in theorems(name):
            assert digest(run_theorem(t, fresh, SAMPLER)) == EXPECTED[f"{t} {name}"]
    for t in theorems(name):
        assert digest(run_theorem(t, name, SAMPLER)) == EXPECTED[f"{t} {name}"]


def test_one_base_per_entry_and_window(monkeypatch):
    built = []
    original = verify.one_object_quantaloid

    def counting(ld):
        built.append(ld)
        return original(ld)

    monkeypatch.setattr(verify, "one_object_quantaloid", counting)
    # entries looked up by name are kept per process; start from none
    verify.catalog.cache_clear()
    verify._entry.cache_clear()
    names = finite_entries()
    for _ in range(2):
        for name in names:
            for t in theorems(name):
                run_theorem(t, name, SAMPLER)
    assert len(built) == len(names)
    for name in names:
        run_theorem("linear-monq", name, SAMPLER, window=4)
    assert len(built) == 2 * len(names)
    for name in names:
        assert catalog_entry(name, 4).base is not catalog_entry(name).base
        assert catalog_entry(name, 4).base is catalog_entry(name, 4).base


if __name__ == "__main__":
    print("EXPECTED = {")
    for entry_name in finite_entries():
        for theorem in theorems(entry_name):
            key = f"{theorem} {entry_name}"
            print(f"    {key!r}:\n        "
                  f"{digest(run_theorem(theorem, entry_name, SAMPLER))!r},")
    print("}")
