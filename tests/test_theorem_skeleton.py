"""The shared theorem skeleton: the report assembler, the closedness loop,
and ``girard-qrel`` on entries that are not quantales."""

from dataclasses import replace

import pytest

from linrel import verify
from linrel.qrel import QREL_CALCULUS
from linrel.report import LAW_GROUPS, LawReport, law_entry, side_entry, theorem_report
from linrel.verify import run_theorem

IMPLICATIONS = ("theorem-forward", "theorem-backward", "theorem-transfer")


@pytest.mark.parametrize("base_ok,derived_ok,forward_fails,backward_fails", [
    (True, True, False, False),
    (True, False, True, False),
    (False, True, False, True),
    (False, False, False, False),
])
def test_implication_table(base_ok, derived_ok, forward_fails, backward_fails):
    given = [law_entry("base-laws", None, "m")]
    rep = theorem_report("s", "m", given, base_ok, derived_ok)
    assert rep.suite == "s"
    assert rep.law_names() == ("base-laws", *IMPLICATIONS)
    assert all(e.mode == "m" for e in rep.entries)
    forward, backward, transfer = rep.entries[1:]
    assert forward.witness == (
        {"note": "base holds, derived side fails"} if forward_fails else None)
    assert backward.witness == (
        {"note": "derived holds, base fails"} if backward_fails else None)
    assert transfer.ok

    notes = theorem_report("s", "m", given, base_ok, derived_ok,
                           forward={"law": "f"}, backward={"law": "b"},
                           transfer={"law": "t"})
    assert notes.entries[1].witness == ({"law": "f"} if forward_fails else None)
    assert notes.entries[2].witness == ({"law": "b"} if backward_fails else None)
    assert notes.entries[3].witness == {"law": "t"}


def test_side_entry_carries_a_copy_of_the_first_failure():
    wit = {"a": 1}
    sub = LawReport("sub", (law_entry("x", None, "m"), law_entry("y", wit, "m"),
                            law_entry("z", {"b": 2}, "m")))
    entry = side_entry("derived-laws", sub, "n")
    assert (entry.law, entry.mode) == ("derived-laws", "n")
    assert entry.witness == {"law": "y", "witness": {"a": 1}}
    assert entry.witness["witness"] is not wit
    assert side_entry("base-laws", LawReport("ok", ()), "n").ok


def test_closedness_stops_once_both_witnesses_are_found():
    # cells are integers; the unit fails below zero, the counit above it
    calc = replace(QREL_CALCULUS, par=lambda f, g: f, tensor=lambda g, f: f,
                   id_top=lambda f, X: 0, id_bot=lambda f, X: 0,
                   leq=lambda a, b: a <= b, source=lambda f: None,
                   target=lambda f: None)
    drawn, read = [], []

    def cases():
        for f in (0, -1, -2, 3, 4):
            drawn.append(f)
            yield f, None, lambda f=f: read.append(f) or f

    rep = verify._closedness("s", "m", calc, cases())
    assert drawn == [0, -1, -2, 3]
    assert read == [-1, 3]
    assert rep.law_names() == (*LAW_GROUPS["linear-adjunction"], "theorem-forward")
    assert [e.witness for e in rep.entries] == [
        {"values": -1}, {"values": 3}, {"note": "closedness fails"}]


@pytest.mark.parametrize("name", ["bool-broken", "diamond-broken", "z3shift-broken"])
def test_girard_qrel_transfers_a_quantale_failure(name):
    for theorem in ("girard-qrel", "girard-qmod"):
        rep = run_theorem(theorem, name)
        base = rep.entry("base-laws").witness
        assert base["law"] in LAW_GROUPS["quantale"], theorem
        assert rep.entry("derived-laws").witness["law"] == base["law"], theorem
        assert all(rep.entry(label).ok for label in IMPLICATIONS), theorem
