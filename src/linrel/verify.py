"""Independent oracles, the built-in structure catalog, and theorem drivers.

The catalog's classifications (quantale? LD? Girard?) are derived by the
brute-force checks at build time, never asserted by hand; rebuilding the
catalog therefore re-derives them from scratch.  Theorem drivers check
each equivalence as two implications with separate evidence, transferring
counterexamples through one-point structures for the backward direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .errors import MismatchError, NotClosedError, NotGirardError, UnknownElementError
from .lattice import build_lattice, chain
from .laws import ADJOINT_LAWS, Calculus
from .quantale import (
    MINUS_INF,
    PLUS_INF,
    Elem,
    Quantale,
    TableOp,
    ZIntOp,
    _dualizer_failure,
    check_ld_laws,
    cyclic_group_table,
    find_dualizers,
    opposite_quantale,
    shift_completion,
    table_quantale,
    tropical_quantale,
    with_dualizer,
)
from .qmod import (
    QMOD_CALCULUS,
    _girard_linear_bimodule,
    _made,
    _qmod_linear_adjoint,
    _require_girard,
    _second_enrichment,
    check_girard_qmod,
    discrete_qcategory,
    enumerate_qbimodules,
    qmod_delta,
    sample_linear_categories,
    verify_linear_qmod_theorem,
    verify_linear_quantaloid_theorems,
)
from .qrel import (
    QREL_CALCULUS,
    FiniteSet,
    _relations,
    check_girard_qrel,
    check_linear_adjoint,
    finite_set,
    girard_cyclic,
    girard_double_dual,
    rel_dual,
    relation,
    sample_relation_tuples,
    transfer_quantale_witness,
    verify_qrel_laws,
)
from .quantaloid import (
    FiniteQuantaloid,
    check_girard_family,
    find_girard_families,
    monads_of,
    monq_girard_family,
    monq_quantaloid,
    one_object_quantaloid,
)
from .report import LAW_GROUPS, LawReport, Sampler, law_entry, side_entry, theorem_report

# ---------------------------------------------------------------------------
# Oracles: independent code paths used to cross-check the quantale machinery


def oracle_bool_rel_compose(R: Sequence[Sequence[int]],
                            S: Sequence[Sequence[int]],
                            mode: str) -> tuple[tuple[int, ...], ...]:
    """Plain-logic relation composition on 0/1 matrices.

    ``exists`` is the usual composition, ``forall`` the universal one;
    no lattice or quantale code is involved.
    """
    ny = len(S)
    if any(len(row) != ny for row in R):
        raise MismatchError("inner dimensions do not match")
    nz = len(S[0]) if ny else 0
    if mode == "exists":
        return tuple(
            tuple(int(any(R[x][y] and S[y][z] for y in range(ny)))
                  for z in range(nz))
            for x in range(len(R)))
    if mode == "forall":
        return tuple(
            tuple(int(all(R[x][y] or S[y][z] for y in range(ny)))
                  for z in range(nz))
            for x in range(len(R)))
    raise ValueError(f"unknown mode {mode!r}")


def _sat_add(a: Elem, b: Elem, dominant: str) -> Elem:
    if a == dominant or b == dominant:
        return dominant
    other = PLUS_INF if dominant == MINUS_INF else MINUS_INF
    if a == other or b == other:
        return other
    return a + b


def _zmax(items):
    best = MINUS_INF
    for v in items:
        if best == MINUS_INF:
            best = v
        elif v == PLUS_INF or best == PLUS_INF:
            best = PLUS_INF
        elif v != MINUS_INF and v > best:
            best = v
    return best


def _zmin(items):
    best = PLUS_INF
    for v in items:
        if best == PLUS_INF:
            best = v
        elif v == MINUS_INF or best == MINUS_INF:
            best = MINUS_INF
        elif v != PLUS_INF and v < best:
            best = v
    return best


def oracle_maxplus(A, B):
    """Saturating max-plus product, written independently of the quantale
    backend: minus infinity absorbs mixed sums."""
    ny = len(B)
    if any(len(row) != ny for row in A):
        raise MismatchError("inner dimensions do not match")
    nz = len(B[0]) if ny else 0
    return tuple(
        tuple(_zmax(_sat_add(A[x][y], B[y][z], MINUS_INF) for y in range(ny))
              for z in range(nz))
        for x in range(len(A)))


def oracle_minplus(A, B):
    """Saturating min-plus product; plus infinity absorbs mixed sums."""
    ny = len(B)
    if any(len(row) != ny for row in A):
        raise MismatchError("inner dimensions do not match")
    nz = len(B[0]) if ny else 0
    return tuple(
        tuple(_zmin(_sat_add(A[x][y], B[y][z], PLUS_INF) for y in range(ny))
              for z in range(nz))
        for x in range(len(A)))


def oracle_residual_scan(q: Quantale, a: Elem, b: Elem, window: int = 10) -> Elem:
    """Brute-force residual on an extended-integer quantale by scanning
    candidates wide enough to contain the true value for inputs inside the
    window.  Products come from ``_sat_add`` and the largest candidate from
    a fold of the order, not from the quantale's kernels."""
    wide = [MINUS_INF, *range(-2 * window - 1, 2 * window + 2), PLUS_INF]
    a, best = q.carrier.check(a), q.bottom
    for c in wide:
        prod = _sat_add(a, c, q.op.dominant)
        prod = prod - q.op.shift if isinstance(prod, int) else prod
        if q.leq(prod, b) and q.leq(best, c):
            best = c
    return best


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class CatalogEntry:
    """A built-in structure and its derived classification."""

    name: str
    ld: Quantale
    quantale_ok: bool
    ld_ok: bool
    dualizers: tuple[Elem, ...]
    girard: Quantale | None
    # The LD-law report the entry was classified with, over
    # ``ld.sample_elements(window)``; evidence, not identity.
    ld_report: LawReport = field(compare=False, repr=False)
    window: int = field(compare=False, repr=False)

    @property
    def is_girard(self) -> bool:
        return self.girard is not None

    @cached_property
    def base(self) -> FiniteQuantaloid:
        """``ld`` as a one-object quantaloid, built on first use and kept,
        with the results its ``memo`` gathers, as long as the entry."""
        return one_object_quantaloid(self.ld)


def _classify(name: str, ld: Quantale, window: int) -> CatalogEntry:
    sample = ld.sample_elements(window)
    report = check_ld_laws(ld, sample)
    ld_ok = report.ok
    quantale_ok = all(report.entry(law).ok for law in LAW_GROUPS["quantale"])
    dualizers: tuple[Elem, ...] = ()
    girard = None
    if quantale_ok:
        dualizers = find_dualizers(ld, sample)
        if dualizers:
            pick = ld.par_unit if ld.par_unit in dualizers else dualizers[0]
            girard = with_dualizer(ld, pick)
    return CatalogEntry(name=name, ld=ld, quantale_ok=quantale_ok,
                        ld_ok=ld_ok, dualizers=dualizers, girard=girard,
                        ld_report=report, window=window)


def _frame_ld(lattice) -> Quantale:
    els = lattice.elements
    meet_t = tuple(tuple(lattice.meet((a, b)) for b in els) for a in els)
    join_t = tuple(tuple(lattice.join((a, b)) for b in els) for a in els)
    return replace(table_quantale(lattice, meet_t, lattice.top),
                   par_op=TableOp(join_t), par_unit=lattice.bottom)


def _swap_table(op: TableOp, lattice, a: str, b: str, value: str) -> TableOp:
    rows = [list(r) for r in op.table]
    rows[lattice.index(a)][lattice.index(b)] = value
    return TableOp(tuple(map(tuple, rows)))


def _broken(good: str, a: str, b: str, value: str, par: bool = False):
    """Builder for entry ``good`` with entry (a, b) of its tensor (or par)
    table set to ``value``."""
    def build(base):
        ld = base(good)
        lattice = ld.carrier.lattice
        if par:
            return replace(ld, par_op=_swap_table(ld.par_op, lattice, a, b, value))
        return replace(ld, op=_swap_table(ld.op, lattice, a, b, value))
    return build


# One builder per entry, in catalog order.  ``base`` returns the structure
# of an earlier entry, so each entry can be built on its own.
_BUILDERS: dict[str, Callable[[Callable[[str], Quantale]], Quantale]] = {
    "point": lambda base: _frame_ld(build_lattice(["p"], [])),
    "bool": lambda base: _frame_ld(chain(["0", "1"])),
    "chain3": lambda base: _frame_ld(chain(["0", "m", "1"])),
    "diamond": lambda base: _frame_ld(build_lattice(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])),
    "z2shift": lambda base: shift_completion(
        ["e", "a"], [["e", "a"], ["a", "e"]], "a"),
    "z3shift": lambda base: shift_completion(*cyclic_group_table(3), "g1"),
    "zinf-tropical": lambda base: replace(
        with_dualizer(tropical_quantale(), 0), dualizer=None),
    "zinf-arctic": lambda base: opposite_quantale(base("zinf-tropical")),
    # Broken variants: one law perturbed each.
    "bool-broken": _broken("bool", "1", "1", "0"),
    "chain3-broken": _broken("chain3", "0", "m", "1", par=True),
    "diamond-broken": _broken("diamond", "x", "y", "1"),
    "z2shift-broken": _broken("z2shift", "e", "e", "e", par=True),
    "z3shift-broken": _broken("z3shift", "e", "g1", "e"),
    "zinf-broken": lambda base: replace(base("zinf-tropical"),
                                        par_op=ZIntOp(MINUS_INF, 0)),
}


class _Structures:
    """A lookup that builds each entry's structure once, on first use.  A
    cached closure would refer to itself, a cycle left by every build."""

    def __init__(self) -> None:
        self.built: dict[str, Quantale] = {}

    def __call__(self, name: str) -> Quantale:
        if name not in self.built:
            self.built[name] = _BUILDERS[name](self)
        return self.built[name]


_structure = _Structures()


def build_catalog(window: int = 10, names: Sequence[str] | None = None,
                  structure: Callable[[str], Quantale] | None = None,
                  ) -> dict[str, CatalogEntry]:
    """Construct the built-in structures and derive their classification.

    ``names`` picks entries (default: all, in catalog order); ``structure``
    looks structures up (default: build them afresh).
    """
    structure = structure or _Structures()
    return {name: _classify(name, structure(name), window)
            for name in (names or _BUILDERS)}


@lru_cache(maxsize=64)
def _entry(name: str, window: int) -> CatalogEntry:
    return build_catalog(window, (name,), _structure)[name]


@lru_cache(maxsize=4)
def catalog(window: int = 10) -> dict[str, CatalogEntry]:
    return {name: _entry(name, window) for name in _BUILDERS}


def catalog_entry(name: str, window: int = 10) -> CatalogEntry:
    """One entry, classified without building the rest of the catalog."""
    if name not in _BUILDERS:
        raise UnknownElementError(
            f"unknown catalog entry {name!r}; have {sorted(_BUILDERS)}")
    return _entry(name, window)


def default_sets(max_size: int = 2) -> list[FiniteSet]:
    return [finite_set(f"s{n}", tuple(f"e{i}" for i in range(n)))
            for n in range(1, max_size + 1)]


# ---------------------------------------------------------------------------
# Theorem drivers


def _sound_base(suite: str, mode: str, derived: LawReport,
                transfer: dict | None = None) -> LawReport:
    """The theorem report over a base that holds, with the derived side's
    report as one entry."""
    return theorem_report(suite, mode, [law_entry("base-laws", None, mode),
                                        side_entry("derived-laws", derived, mode)],
                          True, derived.ok, transfer=transfer)


def _element_transfer(suite: str, entry: CatalogEntry, base_rep: LawReport,
                      mode: str) -> LawReport:
    """The theorem report on an entry whose element laws fail: the first
    failure, replayed on one-point relations, is the derived side's
    failure, and the transfer fails when it does not recur there."""
    fail = base_rep.failing()[0]
    holds, rel_wit = transfer_quantale_witness(entry.ld, fail.law, fail.witness)
    entries = [side_entry("base-laws", base_rep, mode),
               law_entry("derived-laws", {"law": fail.law, "witness": rel_wit},
                         mode)]
    return theorem_report(suite, mode, entries, False, False, transfer=(
        {"law": fail.law, "note": "transfer did not reproduce"} if holds
        else None))


def _thm_ldq(entry: CatalogEntry, sampler: Sampler,
             sets: Sequence[FiniteSet]) -> LawReport:
    suite = f"theorem-ldq[{entry.name}]"
    if entry.window == sampler.window:
        base_rep = entry.ld_report
    else:
        base_rep = check_ld_laws(entry.ld, entry.ld.sample_elements(sampler.window))
    mode = sampler.random_label() if not entry.ld.carrier.is_finite \
        else "exhaustive"
    if not base_rep.ok:
        return _element_transfer(suite, entry, base_rep, mode)
    return _sound_base(suite, mode, verify_qrel_laws(entry.ld, sets, sampler,
                                                     suite=f"{suite}:qrel"))


def _thm_girard_qrel(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    suite = f"theorem-girard-qrel[{entry.name}]"
    mode = "exhaustive" if entry.ld.carrier.is_finite else sampler.random_label()
    if entry.is_girard:
        return _sound_base(suite, mode, check_girard_qrel(
            entry.girard, sets, sampler, suite=f"{suite}:qrel"))
    if not entry.quantale_ok:
        # the stored report is the one the entry was classified with
        return _element_transfer(suite, entry, entry.ld_report, mode)
    # a quantale without a dualizer: every candidate fails in it, and the
    # first failure transfers through a one-point relation
    q = entry.ld
    sample = q.sample_elements(sampler.window)
    pt = finite_set("pt", ("*",))
    transfer = wit = None
    for d in sample:
        failure = _dualizer_failure(q, d, sample)
        if failure is None:
            transfer = wit = {"d": d, "note": "candidate works in quantale"}
            break
        wit = {"d": d, "a": failure[1]}
        r = relation(pt, pt, q, [[failure[1]]])
        double, cyclic = girard_double_dual(r, d), girard_cyclic(r, d)
        if double and cyclic:
            transfer = wit = {**wit, "note": "relation family passed unexpectedly"}
            break
    entries = [law_entry("base-laws", {"note": "no cyclic dualizing element",
                                       "candidates": len(sample)}, mode),
               law_entry("derived-laws",
                         {"note": "diagonal family fails for every candidate",
                          "witness": wit}, mode)]
    return theorem_report(suite, mode, entries, False, False, transfer=transfer)


def _finite_base(entry: CatalogEntry) -> FiniteQuantaloid:
    if not entry.ld.carrier.is_finite:
        raise MismatchError(
            f"theorem needs a finite base; {entry.name!r} is not")
    return entry.base


def _thm_girard_qmod(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    suite = f"theorem-girard-qmod[{entry.name}]"
    base = _finite_base(entry)
    obj = base.objects[0]
    mode = "exhaustive"
    if entry.is_girard:
        family = {obj: entry.girard.dualizer}
        cats = sample_linear_categories(base, per_shape=4, linear=False)
        bims = []
        for A in cats:
            for B in cats:
                bims.extend(enumerate_qbimodules(A, B, limit=4))
        rep = check_girard_qmod(base, family, bims, suite=f"{suite}:qmod",
                                mode=mode)
        # restriction along one-point categories recovers the family
        restricted = {}
        for a in base.objects:
            single = discrete_qcategory(base, ("x",), (a,))
            restricted[a] = qmod_delta(single, family).values_tensor[0][0]
        back = check_girard_family(base, restricted)
        return _sound_base(suite, mode, rep, transfer=(
            None if back.ok and restricted == family else
            {"restricted": restricted}))
    if not entry.quantale_ok:
        return _element_transfer(suite, entry, entry.ld_report, mode)
    transfer = wit = None
    for d in entry.ld.sample_elements(sampler.window):
        fam_rep = check_girard_family(base, {obj: d})
        if fam_rep.ok:
            transfer = wit = {"d": d, "note": "family passed unexpectedly"}
            break
        wit = {"d": d, "law": fam_rep.failing()[0].law}
    entries = [law_entry("base-laws",
                         {"note": "no dualizing family on the base"}, mode),
               law_entry("derived-laws", {"witness": wit}, mode)]
    return theorem_report(suite, mode, entries, False, False, transfer=transfer)


def _thm_girard_monq(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    suite = f"theorem-girard-monq[{entry.name}]"
    base = _finite_base(entry)
    obj = base.objects[0]
    mode = "exhaustive"
    if entry.is_girard:
        family = {obj: entry.girard.dualizer}
        monads = monads_of(base)
        monq = monq_quantaloid(base, monads)
        induced = monq_girard_family(base, family, monads)
        rep = check_girard_family(monq, induced, suite=f"{suite}:monq")
        trivial_name = f"{obj}|{base.unit_top(obj)}"
        restricted = {obj: induced[trivial_name]}
        back = check_girard_family(base, restricted)
        return _sound_base(suite, mode, rep, transfer=(
            None if back.ok else {"restricted": restricted}))
    try:
        found = find_girard_families(monq_quantaloid(base))
        derived = ({"note": "no dualizing family on monads"} if not found
                   else {"families": len(found)})
    except NotClosedError as exc:
        # without a monad quantaloid there is no family on monads either
        found, derived = [], exc.witness
    # a family on the monad side would restrict to one on the base; none
    # existing on either side is the expected correspondence
    entries = [law_entry("base-laws",
                         {"note": "no dualizing family on the base"}, mode),
               law_entry("derived-laws", derived, mode)]
    return theorem_report(suite, mode, entries, False, bool(found))


def _thm_linear_monq(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    base = _finite_base(entry)
    return verify_linear_quantaloid_theorems(
        base, suite=f"theorem-linear-monq[{entry.name}]")


def _thm_linear_qmod(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    base = _finite_base(entry)
    return verify_linear_qmod_theorem(
        base, sampler, suite=f"theorem-linear-qmod[{entry.name}]")


def _closedness(suite: str, mode: str, calc: Calculus, cases) -> LawReport:
    """The unit and counit of each case ``(f, g, values)``, a cell and its
    linear adjoint, up to the first failure of each; ``values()`` gives
    the failing cell's values for the witness."""
    wits = dict.fromkeys(ADJOINT_LAWS)
    for f, g, values in cases:
        for label, law in ADJOINT_LAWS.items():
            if wits[label] is None and not law(calc, f, g):
                wits[label] = {"values": values()}
        if None not in wits.values():
            break
    entries = [law_entry(label, wit, mode) for label, wit in wits.items()]
    return LawReport(suite, (*entries, law_entry(
        "theorem-forward", {"note": "closedness fails"} if any(wits.values())
        else None, mode)))


def _thm_qrel_closed(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    """Every 1-cell has a linear adjoint over a Girard entry; otherwise a
    1x1 relation without any adjoint partner is exhibited."""
    suite = f"theorem-qrel-closed[{entry.name}]"
    if entry.is_girard:
        amb = entry.girard
        mode, cases = sample_relation_tuples(amb, sets, sampler, "chain1")
        return _closedness(suite, mode, QREL_CALCULUS, (
            (r, rel_dual(r, amb.dualizer), lambda r=r: [list(v) for v in r.values])
            for (r,) in (_relations(amb, case) for case in cases)))
    amb = entry.ld
    if not amb.carrier.is_finite:
        raise MismatchError("non-Girard closedness search needs a finite carrier")
    pt = finite_set("pt", ("*",))
    cells = [relation(pt, pt, amb, [[a]]) for a in amb.carrier.lattice.elements]
    gap = any(not any(check_linear_adjoint(A, B) for B in cells) for A in cells)
    return LawReport(suite, (law_entry(
        "theorem-forward", None if gap else
        {"note": "every one-point cell found an adjoint"}, "exhaustive"),))


def _thm_qmod_closed(entry: CatalogEntry, sampler: Sampler,
                     sets: Sequence[FiniteSet]) -> LawReport:
    suite = f"theorem-qmod-closed[{entry.name}]"
    base = _finite_base(entry)
    obj = base.objects[0]
    if not entry.is_girard:
        raise NotGirardError(f"{entry.name!r} has no Girard structure")
    family = {obj: entry.girard.dualizer}
    cats = sample_linear_categories(base, per_shape=3, linear=False)
    # the family is checked, and each category linearized, once, not per bimodule
    d = _require_girard(base, family)
    linear = [_second_enrichment(A, d) for A in cats]

    def cases():
        for A, LA in zip(cats, linear):
            for B, LB in zip(cats, linear):
                for t in enumerate_qbimodules(A, B, limit=4):
                    lt = _girard_linear_bimodule(_made(LA, LB, t.tensor), d)
                    yield (lt, _qmod_linear_adjoint(lt, d),
                           lambda t=t: [list(r) for r in t.values_tensor])
    return _closedness(suite, "sample", QMOD_CALCULUS, cases())


THEOREMS = {
    "ldq": _thm_ldq,
    "girard-qrel": _thm_girard_qrel,
    "girard-qmod": _thm_girard_qmod,
    "girard-monq": _thm_girard_monq,
    "linear-monq": _thm_linear_monq,
    "linear-qmod": _thm_linear_qmod,
    "qrel-closed": _thm_qrel_closed,
    "qmod-closed": _thm_qmod_closed,
}


def normalize_theorem_id(name: str) -> str:
    key = "".join(c for c in name.lower() if c.isalnum())
    for tid in THEOREMS:
        if "".join(c for c in tid if c.isalnum()) == key:
            return tid
    raise UnknownElementError(
        f"unknown theorem {name!r}; have {sorted(THEOREMS)}")


def run_theorem(theorem_id: str, entry: CatalogEntry | str,
                sampler: Sampler | None = None,
                sets: Sequence[FiniteSet] | None = None,
                window: int = 10) -> LawReport:
    """Execute a registered equivalence check against a catalog entry."""
    tid = normalize_theorem_id(theorem_id)
    if isinstance(entry, str):
        entry = catalog_entry(entry, window)
    if sampler is None:
        sampler = Sampler(window=window)
    if sets is None:
        sets = default_sets(2)
    return THEOREMS[tid](entry, sampler, sets)
