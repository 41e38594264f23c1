"""Categories enriched in a finite quantaloid and their bimodules.

A Q-category is a finite carrier with an object assignment and a
hom-valued enrichment; bimodules are the module-like 1-cells between
them.  Linear variants carry a second enrichment with the par-side and
mixed inequalities, and compose in two ways with mixed-order 2-cells
(tensor components covariant, par components contravariant).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotGirardError,
)
from .laws import LAWS, Calculus
from .quantaloid import (
    FiniteQuantaloid,
    check_girard_family,
    check_quantaloid_laws,
    hom_dual,
    transfer_to_linear_monq,
)
from .report import LAW_GROUPS, LawReport, Sampler, law_entry

Matrix = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class QCategory:
    base: FiniteQuantaloid
    members: tuple[str, ...]
    rho: tuple[str, ...]
    enrich_tensor: Matrix
    enrich_par: Matrix | None = None

    @property
    def is_linear(self) -> bool:
        return self.enrich_par is not None

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class QBimodule:
    """values_tensor is indexed (source member, target member); the par
    values run the other way, (target member, source member)."""

    source: QCategory
    target: QCategory
    values_tensor: Matrix
    values_par: Matrix | None = None

    @property
    def is_linear(self) -> bool:
        return self.values_par is not None


def qcategory(base: FiniteQuantaloid, members: Sequence[str], rho: Sequence[str],
              enrich_tensor: Sequence[Sequence[str]],
              enrich_par: Sequence[Sequence[str]] | None = None) -> QCategory:
    members = tuple(members)
    rho = tuple(rho)
    if len(rho) != len(members):
        raise MismatchError("rho must assign an object to every member")
    for obj in rho:
        if obj not in base.objects:
            raise MismatchError(f"rho hits unknown object {obj!r}")
    n = len(members)

    def normalize(mat, label):
        rows = tuple(tuple(r) for r in mat)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise MismatchError(f"{label} enrichment must be {n}x{n}")
        for i in range(n):
            for j in range(n):
                base.hom(rho[i], rho[j]).index(rows[i][j])
        return rows

    et = normalize(enrich_tensor, "tensor")
    ep = normalize(enrich_par, "par") if enrich_par is not None else None
    if ep is not None and not base.has_par:
        raise NoParStructureError("base quantaloid has no par layer")
    return QCategory(base=base, members=members, rho=rho,
                     enrich_tensor=et, enrich_par=ep)


def discrete_qcategory(base: FiniteQuantaloid, members: Sequence[str],
                       rho: Sequence[str], linear: bool = False) -> QCategory:
    """Identity enrichment: units on the diagonal, extremes off it."""
    members = tuple(members)
    rho = tuple(rho)
    n = len(members)
    et = tuple(tuple(base.unit_top(rho[i]) if i == j
                     else base.hom(rho[i], rho[j]).bottom
                     for j in range(n)) for i in range(n))
    ep = None
    if linear:
        ep = tuple(tuple(base.unit_bot(rho[i]) if i == j
                         else base.hom(rho[i], rho[j]).top
                         for j in range(n)) for i in range(n))
    return QCategory(base=base, members=members, rho=rho,
                     enrich_tensor=et, enrich_par=ep)


def qbimodule(source: QCategory, target: QCategory,
              values_tensor: Sequence[Sequence[str]],
              values_par: Sequence[Sequence[str]] | None = None) -> QBimodule:
    if source.base != target.base:
        raise MismatchError("bimodule endpoints live over different bases")
    base = source.base
    nx, ny = len(source), len(target)
    rows = tuple(tuple(r) for r in values_tensor)
    if len(rows) != nx or any(len(r) != ny for r in rows):
        raise MismatchError(f"tensor values must be {nx}x{ny}")
    for i in range(nx):
        for j in range(ny):
            base.hom(source.rho[i], target.rho[j]).index(rows[i][j])
    par = None
    if values_par is not None:
        par = tuple(tuple(r) for r in values_par)
        if len(par) != ny or any(len(r) != nx for r in par):
            raise MismatchError(f"par values must be {ny}x{nx}")
        for j in range(ny):
            for i in range(nx):
                base.hom(target.rho[j], source.rho[i]).index(par[j][i])
    return QBimodule(source=source, target=target,
                     values_tensor=rows, values_par=par)


# ---------------------------------------------------------------------------
# Category and bimodule laws
#
# Each law is one inequality ``lhs <= rhs`` at every index tuple of the
# product of its ranges; a range names the carrier its index runs over ("x"
# the category or bimodule source, "y" the bimodule target).  A term is a
# matrix name (its cell from the first index to the last), ``(unit,)`` for
# a base unit at the first index, or ``(op, f, g)`` for the base composite
# of f's cell (first, second index) with g's cell (second, third index).
# Matrices are a category's ``et``/``ep``, and a bimodule's ``vt``/``vp``
# with its endpoints' enrichments ``Mt``/``Mp`` (source) and ``Nt``/``Np``.
# A law restated under another label may read its indices in another
# order: ``at[p]`` is the position in the loop order of its index p.

Term = str | tuple[str, ...]


def _term(base: FiniteQuantaloid, term: Term, mats: Mapping, objs, idx) -> str:
    if isinstance(term, str):
        return mats[term][idx[0]][idx[-1]]
    if len(term) == 1:
        return getattr(base, term[0])(objs[0])
    op, f, g = term
    return getattr(base, op)(*objs, mats[f][idx[0]][idx[1]],
                             mats[g][idx[1]][idx[2]])


@dataclass(frozen=True)
class _Law:
    label: str
    ranges: str
    lhs: Term
    rhs: Term
    names: tuple[str, ...] | None  # witness keys of the indices, else "indices"
    sides: Callable[[str, str], dict]  # witness entries taken from lhs, rhs
    at: tuple[int, ...] | None = None

    @property
    def reads(self) -> set[str]:
        return {m for m, _, _ in self.cells((0, 0, 0))}

    def cells(self, idx) -> Iterator[tuple[str, int, int]]:
        for t in (self.lhs, self.rhs):
            if isinstance(t, str):
                yield t, idx[0], idx[-1]
            elif len(t) == 3:
                yield t[1], idx[0], idx[1]
                yield t[2], idx[1], idx[2]

    def evaluate(self, base: FiniteQuantaloid, mats: Mapping, objs,
                 idx) -> tuple[bool, str, str]:
        lhs = _term(base, self.lhs, mats, objs, idx)
        rhs = _term(base, self.rhs, mats, objs, idx)
        return base.hom(objs[0], objs[-1]).leq(lhs, rhs), lhs, rhs

    def witness(self, members: Mapping, loop, lhs: str, rhs: str) -> dict:
        if self.names is None:
            return {"indices": list(loop)}
        named = {k: members[r][i] for k, r, i in zip(self.names, self.ranges, loop)}
        return {**named, **self.sides(lhs, rhs)}

    def instances(self, rhos: Mapping):
        """(objects, indices, loop indices) of every check, in loop order."""
        at = self.at or range(len(self.ranges))
        for loop in product(*(range(len(rhos[r])) for r in self.ranges)):
            yield (tuple(rhos[self.ranges[j]][loop[j]] for j in at),
                   tuple(loop[j] for j in at), loop)


def _laws(group: str, rows) -> tuple[_Law, ...]:
    return tuple(_Law(label, *row)
                 for label, row in zip(LAW_GROUPS[group], rows, strict=True))


def _restated(group: str, rows, names=None, sides=None) -> tuple[_Law, ...]:
    """The laws of `group` as (law, at) restatements of laws above; `at`
    only swaps indices that run over the same carrier."""
    return tuple(
        replace(law, label=label, at=at, names=names, sides=sides or law.sides)
        for label, (law, at) in zip(LAW_GROUPS[group], rows, strict=True))


_XYZ = ("x", "y", "z")


def _both(lhs, rhs):
    return {"lhs": lhs, "rhs": rhs}


def _neither(lhs, rhs):
    return {}


_QCAT_LAWS = _laws("qcat", (
    ("x", ("unit_top",), "et", ("x",), lambda lhs, rhs: {"value": rhs}),
    ("xxx", ("compose", "et", "et"), "et", _XYZ, _both),
))
_LINEAR_QCAT_LAWS = _laws("linear-qcat", (
    ("x", "ep", ("unit_bot",), ("x",), lambda lhs, rhs: {"value": lhs}),
    ("xxx", "ep", ("par_compose", "ep", "ep"), _XYZ, _both),
    ("xxx", "et", ("par_compose", "ep", "et"), _XYZ, _neither),
    ("xxx", "et", ("par_compose", "et", "ep"), _XYZ, _neither),
    ("xxx", ("compose", "et", "ep"), "ep", _XYZ, _neither),
    ("xxx", ("compose", "ep", "et"), "ep", _XYZ, _neither),
))
_QBIM_LAWS = _laws("qbim", (
    ("xyy", ("compose", "vt", "Nt"), "vt", ("x", "y", "y2"),
     lambda lhs, rhs: {"lhs": lhs}),
    ("xxy", ("compose", "Mt", "vt"), "vt", ("x", "x2", "y"),
     lambda lhs, rhs: {"lhs": lhs}),
))
_LINEAR_QBIM_LAWS = _laws("linear-qbim", (
    ("xxy", "vt", ("par_compose", "Mp", "vt"), None, _neither),
    ("xyy", "vt", ("par_compose", "vt", "Np"), None, _neither),
    ("yyx", "vp", ("par_compose", "Np", "vp"), None, _neither),
    ("yxx", "vp", ("par_compose", "vp", "Mp"), None, _neither),
    ("yyx", ("compose", "Nt", "vp"), "vp", None, _neither),
    ("yxx", ("compose", "vp", "Mt"), "vp", None, _neither),
))
_LAW = {law.label: law for law in _QCAT_LAWS + _LINEAR_QCAT_LAWS
        + _QBIM_LAWS + _LINEAR_QBIM_LAWS}
# The second enrichment ``ep`` is the entrywise dual of ``et`` transposed,
# so the facts listed for it are the linear-category laws in other index
# orders, plus a counit against the family (``fam[x][x]``).
_SECOND_ENRICHMENT_LAWS = _restated("second-enrichment", (
    (_Law("", "x", "ep", "fam", None, _neither), None),
    (_LAW["qcat-par-cocomposition"], None),
    (_LAW["qcat-mixed-absorb-left"], None),
    (_LAW["qcat-mixed-par-tensor"], (2, 1, 0)),
    (_LAW["qcat-mixed-absorb-right"], (2, 0, 1)),
    (_LAW["qcat-mixed-tensor-par"], (2, 1, 0)),
), names=("x", "x1", "x2"), sides=_neither)
# Likewise the dual of a bimodule is the par part of its linearization.
_DUAL_BIMODULE_LAWS = _restated("second-enrichment-bimodule", (
    (_LAW["qbim-par-left-coaction"], (1, 0, 2)),
    (_LAW["qbim-par-right-coaction"], None),
    (_LAW["qbim-par-right-action"], None),
    (_LAW["qbim-tensor-left-coaction"], None),
    (_LAW["qbim-par-left-action"], None),
    (_LAW["qbim-tensor-right-coaction"], None),
))


def _bimodule_matrices(M: QCategory, N: QCategory, **values) -> dict:
    mats = {"Mt": M.enrich_tensor, "Mp": M.enrich_par, "Nt": N.enrich_tensor,
            "Np": N.enrich_par, **values}
    return {k: v for k, v in mats.items() if v is not None}


def _law_report(suite: str, laws: Sequence[_Law], base: FiniteQuantaloid,
                cats: Mapping[str, QCategory], mats: Mapping) -> LawReport:
    """Each law with the witness of its first failing index tuple."""
    rhos = {r: C.rho for r, C in cats.items()}
    members = {r: C.members for r, C in cats.items()}
    entries = []
    for law in laws:
        wit = None
        for objs, idx, loop in law.instances(rhos):
            ok, lhs, rhs = law.evaluate(base, mats, objs, idx)
            if not ok:
                wit = law.witness(members, loop, lhs, rhs)
                break
        entries.append(law_entry(law.label, wit, "exhaustive"))
    return LawReport(suite, tuple(entries))


def validate_qcategory(M: QCategory, suite: str = "qcategory") -> LawReport:
    laws = _QCAT_LAWS + (_LINEAR_QCAT_LAWS if M.is_linear else ())
    return _law_report(suite, laws, M.base, {"x": M},
                       {"et": M.enrich_tensor, "ep": M.enrich_par})


def validate_qbimodule(B: QBimodule, suite: str = "qbimodule") -> LawReport:
    M, N = B.source, B.target
    linear = B.is_linear and M.is_linear and N.is_linear
    laws = _QBIM_LAWS + (_LINEAR_QBIM_LAWS if linear else ())
    return _law_report(suite, laws, M.base, {"x": M, "y": N},
                       _bimodule_matrices(M, N, vt=B.values_tensor,
                                          vp=B.values_par))


# ---------------------------------------------------------------------------
# Composition


def identity_bimodule(M: QCategory) -> QBimodule:
    return QBimodule(source=M, target=M, values_tensor=M.enrich_tensor,
                     values_par=M.enrich_par)


def par_identity_bimodule(M: QCategory) -> QBimodule:
    if not M.is_linear:
        raise NoParStructureError("par identity needs a linear category")
    return QBimodule(source=M, target=M, values_tensor=M.enrich_par,
                     values_par=M.enrich_tensor)


def _check_composable(t: QBimodule, p: QBimodule) -> None:
    if t.target != p.source:
        raise MismatchError("bimodules are not composable")


def qmod_compose_tensor(T: QBimodule, P: QBimodule) -> QBimodule:
    """Join of pointwise composites; par parts meet the other way round."""
    _check_composable(T, P)
    base = T.source.base
    M, N, Pc = T.source, T.target, P.target
    nx, ny, nz = len(M), len(N), len(Pc)
    vt = tuple(
        tuple(base.hom(M.rho[x], Pc.rho[z]).join(
            base.compose(M.rho[x], N.rho[y], Pc.rho[z],
                         T.values_tensor[x][y], P.values_tensor[y][z])
            for y in range(ny))
            for z in range(nz))
        for x in range(nx))
    vp = None
    if T.is_linear and P.is_linear:
        vp = tuple(
            tuple(base.hom(Pc.rho[z], M.rho[x]).meet(
                base.par_compose(Pc.rho[z], N.rho[y], M.rho[x],
                                 P.values_par[z][y], T.values_par[y][x])
                for y in range(ny))
                for x in range(nx))
            for z in range(nz))
    return QBimodule(source=M, target=Pc, values_tensor=vt, values_par=vp)


def qmod_compose_par(T: QBimodule, P: QBimodule) -> QBimodule:
    """Meet of pointwise par composites; par parts join via tensor."""
    _check_composable(T, P)
    base = T.source.base
    M, N, Pc = T.source, T.target, P.target
    nx, ny, nz = len(M), len(N), len(Pc)
    vt = tuple(
        tuple(base.hom(M.rho[x], Pc.rho[z]).meet(
            base.par_compose(M.rho[x], N.rho[y], Pc.rho[z],
                             T.values_tensor[x][y], P.values_tensor[y][z])
            for y in range(ny))
            for z in range(nz))
        for x in range(nx))
    vp = None
    if T.is_linear and P.is_linear:
        vp = tuple(
            tuple(base.hom(Pc.rho[z], M.rho[x]).join(
                base.compose(Pc.rho[z], N.rho[y], M.rho[x],
                             P.values_par[z][y], T.values_par[y][x])
                for y in range(ny))
                for x in range(nx))
            for z in range(nz))
    return QBimodule(source=M, target=Pc, values_tensor=vt, values_par=vp)


def bim_leq(T: QBimodule, P: QBimodule) -> bool:
    """Mixed 2-cell order: tensor parts pointwise up, par parts down."""
    if T.source != P.source or T.target != P.target:
        raise MismatchError("bimodules are not parallel")
    base = T.source.base
    M, N = T.source, T.target
    for x in range(len(M)):
        for y in range(len(N)):
            if not base.hom(M.rho[x], N.rho[y]).leq(
                    T.values_tensor[x][y], P.values_tensor[x][y]):
                return False
    if T.is_linear and P.is_linear:
        for y in range(len(N)):
            for x in range(len(M)):
                if not base.hom(N.rho[y], M.rho[x]).leq(
                        P.values_par[y][x], T.values_par[y][x]):
                    return False
    return True


def bim_join(T: QBimodule, P: QBimodule) -> QBimodule:
    if T.source != P.source or T.target != P.target:
        raise MismatchError("bimodules are not parallel")
    base = T.source.base
    M, N = T.source, T.target
    vt = tuple(tuple(base.hom(M.rho[x], N.rho[y]).join(
        (T.values_tensor[x][y], P.values_tensor[x][y]))
        for y in range(len(N))) for x in range(len(M)))
    vp = None
    if T.is_linear and P.is_linear:
        vp = tuple(tuple(base.hom(N.rho[y], M.rho[x]).meet(
            (T.values_par[y][x], P.values_par[y][x]))
            for x in range(len(M))) for y in range(len(N)))
    return QBimodule(T.source, T.target, vt, vp)


def bim_meet(T: QBimodule, P: QBimodule) -> QBimodule:
    if T.source != P.source or T.target != P.target:
        raise MismatchError("bimodules are not parallel")
    base = T.source.base
    M, N = T.source, T.target
    vt = tuple(tuple(base.hom(M.rho[x], N.rho[y]).meet(
        (T.values_tensor[x][y], P.values_tensor[x][y]))
        for y in range(len(N))) for x in range(len(M)))
    vp = None
    if T.is_linear and P.is_linear:
        vp = tuple(tuple(base.hom(N.rho[y], M.rho[x]).join(
            (T.values_par[y][x], P.values_par[y][x]))
            for x in range(len(M))) for y in range(len(N)))
    return QBimodule(T.source, T.target, vt, vp)


def zero_bimodule(M: QCategory, N: QCategory, linear: bool) -> QBimodule:
    base = M.base
    vt = tuple(tuple(base.hom(M.rho[x], N.rho[y]).bottom
                     for y in range(len(N))) for x in range(len(M)))
    vp = None
    if linear:
        vp = tuple(tuple(base.hom(N.rho[y], M.rho[x]).top
                         for x in range(len(M))) for y in range(len(N)))
    return QBimodule(M, N, vt, vp)


def top_bimodule(M: QCategory, N: QCategory, linear: bool) -> QBimodule:
    base = M.base
    vt = tuple(tuple(base.hom(M.rho[x], N.rho[y]).top
                     for y in range(len(N))) for x in range(len(M)))
    vp = None
    if linear:
        vp = tuple(tuple(base.hom(N.rho[y], M.rho[x]).bottom
                         for x in range(len(M))) for y in range(len(N)))
    return QBimodule(M, N, vt, vp)


# ---------------------------------------------------------------------------
# Girard structure in the bimodule bicategory


def _delta_matrix(M: QCategory, family: Mapping[str, str]) -> Matrix:
    base = M.base
    n = len(M)
    return tuple(
        tuple(hom_dual(base, M.rho[x2], M.rho[x], M.enrich_tensor[x2][x], family)
              for x2 in range(n))
        for x in range(n))


def _require_girard(base: FiniteQuantaloid, family: Mapping[str, str]) -> None:
    if not check_girard_family(base, family).ok:
        raise NotGirardError("family is not cyclic dualizing on the base")


def qmod_delta(M: QCategory, family: Mapping[str, str]) -> QBimodule:
    """The dualizing endo-bimodule: entrywise dual of the reversed
    enrichment against the family."""
    _require_girard(M.base, family)
    return QBimodule(source=M, target=M, values_tensor=_delta_matrix(M, family))


def second_enrichment(M: QCategory, family: Mapping[str, str]) -> QCategory:
    """Extend a plain category with the dual enrichment as its par part."""
    _require_girard(M.base, family)
    return _second_enrichment(M, family)


def _second_enrichment(M: QCategory, family: Mapping[str, str]) -> QCategory:
    return QCategory(base=M.base, members=M.members, rho=M.rho,
                     enrich_tensor=M.enrich_tensor,
                     enrich_par=_delta_matrix(M, family))


def qmod_right_extension(T: QBimodule, H: QBimodule) -> Matrix:
    """Largest matrix S with T (x) S <= H; T: M->N, H: M->P, S: N->P."""
    if T.source != H.source:
        raise MismatchError("extension needs a common source")
    base = T.source.base
    M, N, P = T.source, T.target, H.target
    out = []
    for y in range(len(N)):
        row = []
        for z in range(len(P)):
            h_yz = base.hom(N.rho[y], P.rho[z])
            cands = []
            for g in h_yz.elements:
                if all(base.hom(M.rho[x], P.rho[z]).leq(
                        base.compose(M.rho[x], N.rho[y], P.rho[z],
                                     T.values_tensor[x][y], g),
                        H.values_tensor[x][z])
                       for x in range(len(M))):
                    cands.append(g)
            row.append(h_yz.join(cands))
        out.append(tuple(row))
    return tuple(out)


def qmod_right_lifting(H: QBimodule, T: QBimodule) -> Matrix:
    """Largest matrix S with S (x) T <= H; T: M->N, H: P->N, S: P->M."""
    if T.target != H.target:
        raise MismatchError("lifting needs a common target")
    base = T.source.base
    M, N, P = T.source, T.target, H.source
    out = []
    for z in range(len(P)):
        row = []
        for x in range(len(M)):
            h_zx = base.hom(P.rho[z], M.rho[x])
            cands = []
            for g in h_zx.elements:
                if all(base.hom(P.rho[z], N.rho[y]).leq(
                        base.compose(P.rho[z], M.rho[x], N.rho[y],
                                     g, T.values_tensor[x][y]),
                        H.values_tensor[z][y])
                       for y in range(len(N))):
                    cands.append(g)
            row.append(h_zx.join(cands))
        out.append(tuple(row))
    return tuple(out)


def check_girard_qmod(base: FiniteQuantaloid, family: Mapping[str, str],
                      bimodules: Iterable[QBimodule],
                      suite: str = "girard-qmod",
                      mode: str = "sample") -> LawReport:
    """Cyclicity and double dual of the delta family on sampled bimodules.

    Law failures are reported, never raised, so an arbitrary candidate
    family can be probed; only shape errors raise.
    """
    for a in base.objects:
        base.hom(a, a).index(family[a])
    cyc_wit = None
    dd_wit = None
    for T in bimodules:
        dM = QBimodule(T.source, T.source, _delta_matrix(T.source, family))
        dN = QBimodule(T.target, T.target, _delta_matrix(T.target, family))
        ext = qmod_right_extension(T, dM)
        lift = qmod_right_lifting(dN, T)
        if cyc_wit is None and ext != lift:
            cyc_wit = {"theta": [list(r) for r in T.values_tensor],
                       "extension": [list(r) for r in ext],
                       "lifting": [list(r) for r in lift]}
        dual = QBimodule(T.target, T.source, ext)
        double = qmod_right_extension(dual, dN)
        if dd_wit is None and double != T.values_tensor:
            dd_wit = {"theta": [list(r) for r in T.values_tensor],
                      "double": [list(r) for r in double]}
        if cyc_wit and dd_wit:
            break
    return LawReport(suite, (
        law_entry("girard-cyclic", cyc_wit, mode),
        law_entry("girard-double-dual", dd_wit, mode),
    ))


def qmod_linear_adjoint(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    """Right linear adjoint over a Girard base: dualized tensor part, with
    the original tensor part as the new par part."""
    _require_girard(T.source.base, family)
    return _qmod_linear_adjoint(T, family)


def _qmod_linear_adjoint(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    base = T.source.base
    M, N = T.source, T.target
    vt = tuple(
        tuple(hom_dual(base, M.rho[x], N.rho[y], T.values_tensor[x][y], family)
              for x in range(len(M)))
        for y in range(len(N)))
    vp = tuple(
        tuple(T.values_tensor[x][y] for y in range(len(N)))
        for x in range(len(M)))
    return QBimodule(source=N, target=M, values_tensor=vt, values_par=vp)


def girard_linear_bimodule(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    """Canonically linearize a plain bimodule over a Girard base: endpoints
    get their dual second enrichment, the par values are the dualized
    transpose.  The linear adjunction facts hold for this structure."""
    if not (T.source.is_linear and T.target.is_linear):
        _require_girard(T.source.base, family)
    return _girard_linear_bimodule(T, family)


def _girard_linear_bimodule(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    base = T.source.base
    M = T.source if T.source.is_linear else _second_enrichment(T.source, family)
    N = T.target if T.target.is_linear else _second_enrichment(T.target, family)
    vp = tuple(
        tuple(hom_dual(base, M.rho[x], N.rho[y], T.values_tensor[x][y], family)
              for x in range(len(M)))
        for y in range(len(N)))
    return QBimodule(source=M, target=N, values_tensor=T.values_tensor,
                     values_par=vp)


def check_qmod_linear_adjoint(T: QBimodule, P: QBimodule) -> bool:
    """2-cell conditions: identity below T par P, and P tensor T below
    the par identity, in the mixed order."""
    if T.source != P.target or T.target != P.source:
        raise MismatchError("candidate adjoint has the wrong boundary")
    M, N = T.source, T.target
    return (bim_leq(identity_bimodule(M), qmod_compose_par(T, P))
            and bim_leq(qmod_compose_tensor(P, T), par_identity_bimodule(N)))


# ---------------------------------------------------------------------------
# Enumeration


# Row and column carriers of the matrices a search fills.
_MATRIX_RANGES = {"et": "xx", "ep": "xx", "vt": "xy", "vp": "yx"}


def _search(base: FiniteQuantaloid, laws: Sequence[_Law], rhos: Mapping,
            mats: Mapping, fill: Sequence[str]) -> Iterator[tuple[Matrix, ...]]:
    """Every filling of the matrices in `fill` on which the laws hold.

    The cells (row-major, one matrix after another) take their hom's
    elements in order with the last cell varying fastest, which is
    `itertools.product` order.  `mats` holds the fixed matrices; a law
    takes part when it reads a filled matrix and nothing missing, and each
    of its instances is checked as soon as the last cell it reads is set,
    so a failing prefix is cut off with all its extensions.
    """
    grids = {m: [[None] * len(rhos[_MATRIX_RANGES[m][1]])
                 for _ in rhos[_MATRIX_RANGES[m][0]]] for m in fill}
    mats = {**mats, **grids}
    order = [(m, r, c) for m in fill for r, row in enumerate(grids[m])
             for c in range(len(row))]
    pools = [base.hom(rhos[_MATRIX_RANGES[m][0]][r],
                      rhos[_MATRIX_RANGES[m][1]][c]).elements
             for m, r, c in order]
    pos = {cell: k for k, cell in enumerate(order)}
    checks: list[list] = [[] for _ in order]
    for law in laws:
        if law.reads <= mats.keys() and law.reads & grids.keys():
            for objs, idx, _ in law.instances(rhos):
                last = max(pos[c] for c in law.cells(idx) if c in pos)
                checks[last].append((law, objs, idx))

    # Depth-first over an explicit stack of value iterators, one per set
    # cell.  A nested generator recursing into itself would hold itself
    # through its closure cell, a cycle that keeps the grids and the base
    # quantaloid alive until the cyclic collector runs.
    stack = [iter(pools[0])] if order else []
    if not order:
        yield tuple(tuple(map(tuple, grids[m])) for m in fill)
    while stack:
        k = len(stack) - 1
        m, r, c = order[k]
        row = grids[m][r]
        for value in stack[k]:
            row[c] = value
            if all(law.evaluate(base, mats, objs, idx)[0]
                   for law, objs, idx in checks[k]):
                break
        else:
            stack.pop()
            continue
        if k + 1 < len(order):
            stack.append(iter(pools[k + 1]))
        else:
            yield tuple(tuple(map(tuple, grids[m])) for m in fill)


def enumerate_qcategories(base: FiniteQuantaloid, members: Sequence[str],
                          rho: Sequence[str], linear: bool = False,
                          limit: int | None = None) -> Iterator[QCategory]:
    """The first `limit` valid categories on a fixed carrier, in table
    order: the tensor enrichment's cells, then the par enrichment's."""
    members, rho = tuple(members), tuple(rho)
    laws = _QCAT_LAWS + (_LINEAR_QCAT_LAWS if linear else ())
    found = _search(base, laws, {"x": rho}, {}, ("et", "ep")[:1 + linear])
    for mats in islice(found, limit):
        yield QCategory(base, members, rho, *mats)


def enumerate_qbimodules(M: QCategory, N: QCategory, linear: bool = False,
                         limit: int | None = None) -> list[QBimodule]:
    """The first `limit` valid bimodules M -> N in table order.  Every law
    reads only the tensor values or only the par values, so the linear
    bimodules are the two searches' product, tensor values outermost."""
    if linear and not (M.is_linear and N.is_linear):
        raise MismatchError("linear bimodules need linear endpoint categories")
    laws = _QBIM_LAWS + (_LINEAR_QBIM_LAWS if linear else ())
    search = partial(_search, M.base, laws, {"x": M.rho, "y": N.rho},
                     _bimodule_matrices(M, N))
    # The first valid tensor part is paired with every par part before the
    # next one is, so no limit needs more than `limit` par parts.
    pars = list(islice(search(("vp",)), limit)) if linear else [(None,)]
    found = (QBimodule(M, N, vt, vp) for vt, in search(("vt",)) for vp, in pars)
    return list(islice(found, limit))


# ---------------------------------------------------------------------------
# Linear theorem driver

QMOD_CALCULUS = Calculus(
    # Compositions are looked up at call time, so a rebinding of the module
    # functions (such as a tracing wrapper) also sees the law suite's calls.
    tensor=lambda f, g: qmod_compose_tensor(f, g),
    par=lambda f, g: qmod_compose_par(f, g),
    id_top=lambda f, M: identity_bimodule(M),
    id_bot=lambda f, M: par_identity_bimodule(M),
    zero=lambda f, M, N: zero_bimodule(M, N, f.is_linear),
    top=lambda f, M, N: top_bimodule(M, N, f.is_linear),
    join=bim_join,
    meet=bim_meet,
    leq=bim_leq,
    eq=operator.eq,
    source=operator.attrgetter("source"),
    target=operator.attrgetter("target"),
)


def sample_linear_categories(base: FiniteQuantaloid, sizes: Sequence[int] = (1, 2),
                             per_shape: int = 4) -> list[QCategory]:
    """A deterministic pool: the discrete category plus the first few
    valid enrichments for every carrier shape and object assignment."""
    cats: list[QCategory] = []
    for size in sizes:
        members = tuple(f"x{i}" for i in range(size))
        for rho in product(base.objects, repeat=size):
            cats.append(discrete_qcategory(base, members, rho, linear=True))
            for M in enumerate_qcategories(base, members, rho, linear=True,
                                           limit=per_shape):
                if M not in cats:
                    cats.append(M)
    return cats


def verify_linear_qmod_theorem(base: FiniteQuantaloid, sampler: Sampler,
                               sizes: Sequence[int] = (1, 2),
                               suite: str = "linear-qmod-theorem",
                               cat_pool: int = 4,
                               bim_pool: int = 12) -> LawReport:
    """Base laws, then the bimodule law suite on sampled linear categories
    and bimodules; failures transfer through singleton categories."""
    if not base.has_par:
        raise NoParStructureError("theorem needs a par layer")
    base_rep = check_quantaloid_laws(base, suite=f"{suite}:base")
    entries = list(base_rep.entries)

    if not base_rep.ok:
        fail = base_rep.failing()[0]
        reproduced = not transfer_to_linear_monq(base, fail.law, fail.witness or {})
        entries.append(law_entry("theorem-forward", None, "exhaustive"))
        entries.append(law_entry(
            "theorem-backward",
            None if reproduced else {"law": fail.law,
                                     "note": "transfer did not reproduce"},
            "exhaustive"))
        entries.append(law_entry(
            "theorem-transfer",
            None if reproduced else {"law": fail.law, "witness": fail.witness},
            "exhaustive"))
        return LawReport(suite, tuple(entries))

    cats = sample_linear_categories(base, sizes, per_shape=cat_pool)
    pools: dict[tuple[int, int], list[QBimodule]] = {}

    def pool(i: int, j: int) -> list[QBimodule]:
        key = (i, j)
        if key not in pools:
            pools[key] = enumerate_qbimodules(cats[i], cats[j], linear=True,
                                              limit=bim_pool)
        return pools[key]

    rng = sampler.rng()
    mode = sampler.random_label()

    def draw_chain(n_rel: int):
        idxs = [rng.randrange(len(cats)) for _ in range(n_rel + 1)]
        rels = []
        for k in range(n_rel):
            p = pool(idxs[k], idxs[k + 1])
            if not p:
                return None
            rels.append(p[rng.randrange(len(p))])
        return tuple(rels)

    def draw_fork(left: bool):
        i, j, k = (rng.randrange(len(cats)) for _ in range(3))
        p_ij, p_jk = pool(i, j), pool(j, k)
        if not p_ij or not p_jk:
            return None
        if left:
            return (p_ij[rng.randrange(len(p_ij))],
                    p_ij[rng.randrange(len(p_ij))],
                    p_jk[rng.randrange(len(p_jk))])
        return (p_jk[rng.randrange(len(p_jk))],
                p_jk[rng.randrange(len(p_jk))],
                p_ij[rng.randrange(len(p_ij))])

    fail_by_label: dict[str, dict | None] = {}
    for label, (shape, law) in LAWS.items():
        wit = None
        for _ in range(sampler.count):
            if shape == "chain1":
                case = draw_chain(1)
            elif shape == "chain3":
                case = draw_chain(3)
            else:
                case = draw_fork(shape == "fork-left")
            if case is None:
                continue
            if not law(QMOD_CALCULUS, *case):
                wit = {"bimodules": [[list(r) for r in b.values_tensor]
                                     for b in case]}
                break
        fail_by_label[label] = wit
        entries.append(law_entry(label, wit, mode))

    derived_ok = all(w is None for w in fail_by_label.values())
    entries.append(law_entry(
        "theorem-forward",
        None if derived_ok else {"law": next(k for k, v in fail_by_label.items()
                                             if v is not None)},
        mode))
    entries.append(law_entry("theorem-backward", None, mode))
    entries.append(law_entry("theorem-transfer", None, mode))
    return LawReport(suite, tuple(entries))


# ---------------------------------------------------------------------------
# Listed second-enrichment facts over a Girard base


def check_second_enrichment(M: QCategory, family: Mapping[str, str],
                            suite: str = "second-enrichment") -> LawReport:
    """The dual enrichment satisfies the par-side category laws and the
    action laws together with their dual images."""
    ep = second_enrichment(M, family).enrich_par
    fam = tuple((family[a],) * len(M) for a in M.rho)
    return _law_report(suite, _SECOND_ENRICHMENT_LAWS, M.base, {"x": M},
                       {"et": M.enrich_tensor, "ep": ep, "fam": fam})


def check_dual_bimodule(T: QBimodule, family: Mapping[str, str],
                        suite: str = "dual-bimodule") -> LawReport:
    """The entrywise dual of a bimodule satisfies the coaction laws and
    the action laws with their dual images."""
    M, N = T.source, T.target
    mats = _bimodule_matrices(
        M, N, vt=T.values_tensor,
        vp=_qmod_linear_adjoint(T, family).values_tensor,
        Mp=_delta_matrix(M, family), Np=_delta_matrix(N, family))
    return _law_report(suite, _DUAL_BIMODULE_LAWS, M.base, {"x": M, "y": N},
                       mats)


# ---------------------------------------------------------------------------
# JSON interface


def qcategory_from_json(obj: dict, base: FiniteQuantaloid) -> QCategory:
    try:
        members = list(obj["members"])
        rho_map = obj["rho"]
        et = obj["enrich_tensor"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"q-category file is missing field: {exc}") from None
    rho = [rho_map[m] for m in members]
    return qcategory(base, members, rho, et, obj.get("enrich_par"))


def qcategory_to_json(M: QCategory) -> dict:
    out = {
        "members": list(M.members),
        "rho": {m: o for m, o in zip(M.members, M.rho)},
        "enrich_tensor": [list(r) for r in M.enrich_tensor],
    }
    if M.enrich_par is not None:
        out["enrich_par"] = [list(r) for r in M.enrich_par]
    return out


def qbimodule_from_json(obj: dict, M: QCategory, N: QCategory) -> QBimodule:
    try:
        vt = obj["values_tensor"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bimodule file is missing field: {exc}") from None
    return qbimodule(M, N, vt, obj.get("values_par"))


def qbimodule_to_json(B: QBimodule) -> dict:
    out = {"values_tensor": [list(r) for r in B.values_tensor]}
    if B.values_par is not None:
        out["values_par"] = [list(r) for r in B.values_par]
    return out
