"""Wider pins of the element-level law reports.

``test_element_report_bytes.py`` pins the default sample and
``sample_elements(4)``.  Here each catalog entry has one SHA-256 over
``check_quantale_laws`` and ``check_ld_laws`` on its LD form and, when it
has one, its Girard form, at windows 3 and 15 and on a reversed
window-3 sample that repeats some elements.  Two structures outside the
catalog cover a nonzero par shift: the tropical quantale with dualizer 3
and its opposite.  Running this file as a script prints the digests of
the current code.
"""

import hashlib

import pytest

from linrel.quantale import (
    check_ld_laws,
    check_quantale_laws,
    opposite_quantale,
    tropical_quantale,
    with_dualizer,
)
from linrel.verify import catalog

EXPECTED = {
    "bool": "c8ae0be8206632ea913711d5337f07b2504ab0c18f205d12a930e153c4ab7d4c",
    "bool-broken": "9c3ff56d710ca355df4eb089ca1375681bc8b0ec08199854ce185de1b96a9ce7",
    "chain3": "857e688b64631aa79ed2bffcd9996c7c1d83498a6588c055b045b91aad402955",
    "chain3-broken": "c8b574e34fa7bcb34d850dcb32605548eef3ab9e4161f50847f1ccef73d0ac39",
    "diamond": "f80e7bc4c092ea68b495c99eb672217e40c8c63e614bf8f44c51106ff3f3eb91",
    "diamond-broken": "3f76290cccdf66f52906c6cb57e6ff93d1f28f02dd3ffb38069b0967cd6bb401",
    "point": "b45b16aef0920a9d3de629fcd583205f86a84f33c8f385beea39c0e54c002134",
    "z2shift": "f80e7bc4c092ea68b495c99eb672217e40c8c63e614bf8f44c51106ff3f3eb91",
    "z2shift-broken": "f16ce0e5d1757b1d6841b3fe3a6f873771b651860b5c75b00fadc43069956fa0",
    "z3shift": "2ff923fe1aad8355b824c02dd4db0b973f6947ca82ffcbd217c23a0960d5a026",
    "z3shift-broken": "10c1160a8494595fb3826d3fee42e4d488f943564b7ff82416acd40f0ea872cc",
    "zinf-arctic": "b4de0c657d754720372061df62e3bd685725fcdb2c40a5cb505611697bd693e3",
    "zinf-broken": "d4b3352b0e229f36dd76905186a656e6741c20baeae8ad0488d5a4bc646d3cbe",
    "zinf-tropical": "b4de0c657d754720372061df62e3bd685725fcdb2c40a5cb505611697bd693e3",
    "tropical-shift-3": "74c99d7ff80fafcefcba6fa22296a1bb9b0956c6f9ca604778c84c760883fbb0",
    "tropical-shift-3-op": "74c99d7ff80fafcefcba6fa22296a1bb9b0956c6f9ca604778c84c760883fbb0",
}


def _shifted():
    q = with_dualizer(tropical_quantale(), 3)
    return {"tropical-shift-3": q, "tropical-shift-3-op": opposite_quantale(q)}


def ambients(name: str):
    shifted = _shifted()
    if name in shifted:
        return [shifted[name]]
    entry = catalog()[name]
    return [amb for amb in (entry.ld, entry.girard) if amb is not None]


def reversed_with_repeats(amb):
    sample = amb.sample_elements(3)
    return sample[::-1] + sample[::2]


def reports(amb):
    for check in (check_quantale_laws, check_ld_laws):
        for window in (3, 15):
            yield check(amb, window=window)
        yield check(amb, reversed_with_repeats(amb))


def digest(name: str) -> str:
    h = hashlib.sha256()
    for amb in ambients(name):
        for report in reports(amb):
            h.update(report.json_bytes())
    return h.hexdigest()


def names():
    return sorted(catalog()) + sorted(_shifted())


def test_every_catalog_entry_is_pinned():
    assert sorted(EXPECTED) == sorted(names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_element_reports_unchanged(name):
    assert digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for entry_name in names():
        print(f"    {entry_name!r}: {digest(entry_name)!r},")
