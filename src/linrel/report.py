"""Law reports, the registry of checkable laws, and deterministic samplers.

Every named law that a check suite can emit is listed here exactly once,
grouped by the definition it belongs to.  Check functions across the
package reference these labels, so a report entry can always be traced
back to the axiom it tested.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any

LAW_GROUPS: dict[str, tuple[str, ...]] = {
    "quantale": (
        "tensor-associativity",
        "tensor-unit-left",
        "tensor-unit-right",
        "tensor-sup-left",
        "tensor-sup-right",
        "tensor-bottom-left",
        "tensor-bottom-right",
    ),
    "op-quantale": (
        "par-associativity",
        "par-unit-left",
        "par-unit-right",
        "par-inf-left",
        "par-inf-right",
        "par-top-left",
        "par-top-right",
    ),
    "linear-distribution": (
        "linear-distribution-left",
        "linear-distribution-right",
    ),
    "posetal-functoriality": (
        "tensor-monotone-left",
        "tensor-monotone-right",
        "par-monotone-left",
        "par-monotone-right",
    ),
    "girard": (
        "girard-cyclic",
        "girard-double-dual",
    ),
    "qcat": (
        "qcat-tensor-unit",
        "qcat-tensor-composition",
    ),
    "linear-qcat": (
        "qcat-par-counit",
        "qcat-par-cocomposition",
        "qcat-mixed-par-tensor",
        "qcat-mixed-tensor-par",
        "qcat-mixed-absorb-right",
        "qcat-mixed-absorb-left",
    ),
    "qbim": (
        "qbim-tensor-right-action",
        "qbim-tensor-left-action",
    ),
    "linear-qbim": (
        "qbim-tensor-left-coaction",
        "qbim-tensor-right-coaction",
        "qbim-par-left-coaction",
        "qbim-par-right-coaction",
        "qbim-par-left-action",
        "qbim-par-right-action",
    ),
    "linear-monad": (
        "monad-unit",
        "monad-multiplication",
        "comonad-counit",
        "comonad-comultiplication",
        "monad-mixed-par-tensor",
        "monad-mixed-tensor-par",
        "monad-mixed-absorb-right",
        "monad-mixed-absorb-left",
    ),
    "monad-bimodule": (
        "mbim-tensor-right-action",
        "mbim-tensor-left-action",
        "mbim-tensor-left-coaction",
        "mbim-tensor-right-coaction",
        "mbim-par-left-coaction",
        "mbim-par-right-coaction",
        "mbim-par-left-action",
        "mbim-par-right-action",
    ),
    "linear-adjunction": (
        "linear-adjoint-unit",
        "linear-adjoint-counit",
    ),
    "second-enrichment": (
        "second-enrichment-counit",
        "second-enrichment-cocomposition",
        "second-enrichment-left-action",
        "second-enrichment-left-action-dual",
        "second-enrichment-right-action",
        "second-enrichment-right-action-dual",
    ),
    "second-enrichment-bimodule": (
        "dual-bimodule-left-coaction",
        "dual-bimodule-right-coaction",
        "dual-bimodule-right-action",
        "dual-bimodule-right-action-dual",
        "dual-bimodule-left-action",
        "dual-bimodule-left-action-dual",
    ),
}


def _build_registry() -> dict[str, str]:
    registry: dict[str, str] = {}
    for group, labels in LAW_GROUPS.items():
        for label in labels:
            if label in registry:
                raise AssertionError(f"law label {label!r} registered twice")
            registry[label] = group
    return registry


LAW_REGISTRY: dict[str, str] = _build_registry()

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class LawEntry:
    """Outcome of checking one named law.

    A failing entry always carries a witness: a JSON-serializable mapping
    of the named inputs that reproduce the failure.
    """

    law: str
    status: str
    mode: str
    witness: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_json(self) -> dict[str, Any]:
        return {
            "law": self.law,
            "status": self.status,
            "mode": self.mode,
            "witness": self.witness,
        }


def law_entry(law: str, witness: dict[str, Any] | None, mode: str) -> LawEntry:
    return LawEntry(law=law, status=PASS if witness is None else FAIL,
                    mode=mode, witness=witness)


@dataclass(frozen=True)
class LawReport:
    """The result of running a named suite of law checks."""

    suite: str
    entries: tuple[LawEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing(self) -> tuple[LawEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def entry(self, law: str) -> LawEntry:
        for e in self.entries:
            if e.law == law:
                return e
        raise KeyError(law)

    def law_names(self) -> tuple[str, ...]:
        return tuple(e.law for e in self.entries)

    def to_json(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "entries": [e.to_json() for e in self.entries],
        }

    def json_bytes(self) -> bytes:
        """Canonical byte form; identical inputs give identical bytes."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for e in self.entries:
            mark = "pass" if e.ok else "FAIL"
            line = f"  {mark}  {e.law}  ({e.mode})"
            if e.witness is not None:
                line += f"  witness: {json.dumps(e.witness, sort_keys=True)}"
            lines.append(line)
        n_fail = len(self.failing())
        lines.append(f"  => {len(self.entries) - n_fail}/{len(self.entries)} laws hold")
        return "\n".join(lines)


def side_entry(label: str, report: LawReport, mode: str) -> LawEntry:
    """One entry for a whole sub-report, carrying its first failure."""
    if report.ok:
        return law_entry(label, None, mode)
    fail = report.failing()[0]
    # a copy: ``ldq`` passes the catalog's stored report, which every
    # request shares
    return law_entry(label, {"law": fail.law, "witness": dict(fail.witness)},
                     mode)


def theorem_report(suite: str, mode: str, entries, base_ok: bool,
                   derived_ok: bool, forward: dict | None = None,
                   backward: dict | None = None,
                   transfer: dict | None = None) -> LawReport:
    """A theorem "base holds iff derived side holds": ``entries``, then its
    two implications and the transfer of a base failure.

    An implication fails only when its premise holds and its conclusion
    does not, with the note ``forward`` or ``backward`` (or a default);
    the transfer fails with ``transfer`` when that is given.
    """
    return LawReport(suite, (
        *entries,
        law_entry("theorem-forward", None if not base_ok or derived_ok else
                  forward or {"note": "base holds, derived side fails"}, mode),
        law_entry("theorem-backward", None if not derived_ok or base_ok else
                  backward or {"note": "derived holds, base fails"}, mode),
        law_entry("theorem-transfer", transfer, mode)))


EXHAUSTIVE = "exhaustive"
RANDOM = "random"

# Generator identifier recorded in report modes so a reader knows which
# stream produced the samples.  Bump the suffix if the drawing scheme changes.
GENERATOR_NAME = "pymt-v1"


@dataclass(frozen=True)
class Sampler:
    """Deterministic case source for law suites.

    ``exhaustive`` mode enumerates every case as long as the total count
    stays within ``tuple_budget`` (and each slot within ``slot_cap``);
    beyond that it silently switches to seeded random sampling and the
    report records the switch in its mode string.
    """

    mode: str = EXHAUSTIVE
    seed: int = 0
    count: int = 200
    slot_cap: int = 4096
    tuple_budget: int = 4096
    window: int = 10
    inf_weight: float = 0.125

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def random_label(self) -> str:
        return f"random(seed={self.seed},count={self.count},gen={GENERATOR_NAME})"

    def exhaustive_label(self) -> str:
        return EXHAUSTIVE

    @staticmethod
    def exhaustive(tuple_budget: int = 4096, window: int = 10) -> "Sampler":
        return Sampler(mode=EXHAUSTIVE, tuple_budget=tuple_budget, window=window)

    @staticmethod
    def random(seed: int, count: int = 200, window: int = 10) -> "Sampler":
        return Sampler(mode=RANDOM, seed=seed, count=count, window=window)
