"""Categories enriched in a finite quantaloid and their bimodules.

A Q-category is a finite carrier with an object assignment and a
hom-valued enrichment; bimodules are the module-like 1-cells between
them.  Linear variants carry a second enrichment with the par-side and
mixed inequalities, and compose in two ways with mixed-order 2-cells
(tensor components covariant, par components contravariant).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

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
from .report import LawReport, Sampler, law_entry

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
# Validation suites


def validate_qcategory(M: QCategory, suite: str = "qcategory") -> LawReport:
    base = M.base
    rho = M.rho
    et = M.enrich_tensor
    n = len(M)
    mode = "exhaustive"
    entries = []

    wit = None
    for x in range(n):
        h = base.hom(rho[x], rho[x])
        if not h.leq(base.unit_top(rho[x]), et[x][x]):
            wit = {"x": M.members[x], "value": et[x][x]}
            break
    entries.append(law_entry("qcat-tensor-unit", wit, mode))

    wit = None
    for x, y, z in product(range(n), repeat=3):
        lhs = base.compose(rho[x], rho[y], rho[z], et[x][y], et[y][z])
        if not base.hom(rho[x], rho[z]).leq(lhs, et[x][z]):
            wit = {"x": M.members[x], "y": M.members[y], "z": M.members[z],
                   "lhs": lhs, "rhs": et[x][z]}
            break
    entries.append(law_entry("qcat-tensor-composition", wit, mode))

    if M.is_linear:
        ep = M.enrich_par

        wit = None
        for x in range(n):
            if not base.hom(rho[x], rho[x]).leq(ep[x][x], base.unit_bot(rho[x])):
                wit = {"x": M.members[x], "value": ep[x][x]}
                break
        entries.append(law_entry("qcat-par-counit", wit, mode))

        wit = None
        for x, y, z in product(range(n), repeat=3):
            rhs = base.par_compose(rho[x], rho[y], rho[z], ep[x][y], ep[y][z])
            if not base.hom(rho[x], rho[z]).leq(ep[x][z], rhs):
                wit = {"x": M.members[x], "y": M.members[y], "z": M.members[z],
                       "lhs": ep[x][z], "rhs": rhs}
                break
        entries.append(law_entry("qcat-par-cocomposition", wit, mode))

        mixed = (
            ("qcat-mixed-par-tensor",
             lambda x, y, z: base.hom(rho[x], rho[z]).leq(
                 et[x][z], base.par_compose(rho[x], rho[y], rho[z],
                                            ep[x][y], et[y][z]))),
            ("qcat-mixed-tensor-par",
             lambda x, y, z: base.hom(rho[x], rho[z]).leq(
                 et[x][z], base.par_compose(rho[x], rho[y], rho[z],
                                            et[x][y], ep[y][z]))),
            ("qcat-mixed-absorb-right",
             lambda x, y, z: base.hom(rho[x], rho[z]).leq(
                 base.compose(rho[x], rho[y], rho[z], et[x][y], ep[y][z]),
                 ep[x][z])),
            ("qcat-mixed-absorb-left",
             lambda x, y, z: base.hom(rho[x], rho[z]).leq(
                 base.compose(rho[x], rho[y], rho[z], ep[x][y], et[y][z]),
                 ep[x][z])),
        )
        for label, ok in mixed:
            wit = None
            for x, y, z in product(range(n), repeat=3):
                if not ok(x, y, z):
                    wit = {"x": M.members[x], "y": M.members[y],
                           "z": M.members[z]}
                    break
            entries.append(law_entry(label, wit, mode))

    return LawReport(suite, tuple(entries))


def validate_qbimodule(B: QBimodule, suite: str = "qbimodule") -> LawReport:
    base = B.source.base
    M, N = B.source, B.target
    vt = B.values_tensor
    nx, ny = len(M), len(N)
    mode = "exhaustive"
    entries = []

    wit = None
    for x in range(nx):
        for y in range(ny):
            for y2 in range(ny):
                lhs = base.compose(M.rho[x], N.rho[y], N.rho[y2],
                                   vt[x][y], N.enrich_tensor[y][y2])
                if not base.hom(M.rho[x], N.rho[y2]).leq(lhs, vt[x][y2]):
                    wit = {"x": M.members[x], "y": N.members[y],
                           "y2": N.members[y2], "lhs": lhs}
                    break
            if wit:
                break
        if wit:
            break
    entries.append(law_entry("qbim-tensor-right-action", wit, mode))

    wit = None
    for x in range(nx):
        for x2 in range(nx):
            for y in range(ny):
                lhs = base.compose(M.rho[x], M.rho[x2], N.rho[y],
                                   M.enrich_tensor[x][x2], vt[x2][y])
                if not base.hom(M.rho[x], N.rho[y]).leq(lhs, vt[x][y]):
                    wit = {"x": M.members[x], "x2": M.members[x2],
                           "y": N.members[y], "lhs": lhs}
                    break
            if wit:
                break
        if wit:
            break
    entries.append(law_entry("qbim-tensor-left-action", wit, mode))

    if B.is_linear and M.is_linear and N.is_linear:
        vp = B.values_par
        checks = (
            ("qbim-tensor-left-coaction", nx, nx, ny,
             lambda x, x2, y: base.hom(M.rho[x], N.rho[y]).leq(
                 vt[x][y], base.par_compose(M.rho[x], M.rho[x2], N.rho[y],
                                            M.enrich_par[x][x2], vt[x2][y]))),
            ("qbim-tensor-right-coaction", nx, ny, ny,
             lambda x, y2, y: base.hom(M.rho[x], N.rho[y]).leq(
                 vt[x][y], base.par_compose(M.rho[x], N.rho[y2], N.rho[y],
                                            vt[x][y2], N.enrich_par[y2][y]))),
            ("qbim-par-left-coaction", ny, ny, nx,
             lambda y, y2, x: base.hom(N.rho[y], M.rho[x]).leq(
                 vp[y][x], base.par_compose(N.rho[y], N.rho[y2], M.rho[x],
                                            N.enrich_par[y][y2], vp[y2][x]))),
            ("qbim-par-right-coaction", ny, nx, nx,
             lambda y, x2, x: base.hom(N.rho[y], M.rho[x]).leq(
                 vp[y][x], base.par_compose(N.rho[y], M.rho[x2], M.rho[x],
                                            vp[y][x2], M.enrich_par[x2][x]))),
            ("qbim-par-left-action", ny, ny, nx,
             lambda y, y2, x: base.hom(N.rho[y], M.rho[x]).leq(
                 base.compose(N.rho[y], N.rho[y2], M.rho[x],
                              N.enrich_tensor[y][y2], vp[y2][x]),
                 vp[y][x])),
            ("qbim-par-right-action", ny, nx, nx,
             lambda y, x2, x: base.hom(N.rho[y], M.rho[x]).leq(
                 base.compose(N.rho[y], M.rho[x2], M.rho[x],
                              vp[y][x2], M.enrich_tensor[x2][x]),
                 vp[y][x])),
        )
        for label, r1, r2, r3, ok in checks:
            wit = None
            for i, j, k in product(range(r1), range(r2), range(r3)):
                if not ok(i, j, k):
                    wit = {"indices": [i, j, k]}
                    break
            entries.append(law_entry(label, wit, mode))

    return LawReport(suite, tuple(entries))


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


def qmod_delta(M: QCategory, family: Mapping[str, str]) -> QBimodule:
    """The dualizing endo-bimodule: entrywise dual of the reversed
    enrichment against the family."""
    if not check_girard_family(M.base, family).ok:
        raise NotGirardError("family is not cyclic dualizing on the base")
    return QBimodule(source=M, target=M, values_tensor=_delta_matrix(M, family))


def second_enrichment(M: QCategory, family: Mapping[str, str]) -> QCategory:
    """Extend a plain category with the dual enrichment as its par part."""
    delta = qmod_delta(M, family)
    return QCategory(base=M.base, members=M.members, rho=M.rho,
                     enrich_tensor=M.enrich_tensor,
                     enrich_par=delta.values_tensor)


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
    base = T.source.base
    if not check_girard_family(base, family).ok:
        raise NotGirardError("family is not cyclic dualizing on the base")
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
    base = T.source.base
    M = second_enrichment(T.source, family) if not T.source.is_linear else T.source
    N = second_enrichment(T.target, family) if not T.target.is_linear else T.target
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


def enumerate_qcategories(base: FiniteQuantaloid, members: Sequence[str],
                          rho: Sequence[str], linear: bool = False,
                          limit: int | None = None) -> Iterator[QCategory]:
    """Valid categories on a fixed carrier in deterministic table order."""
    n = len(members)
    pools = [base.hom(rho[i], rho[j]).elements
             for i in range(n) for j in range(n)]

    def matrices():
        for flat in product(*pools):
            yield tuple(flat[i * n:(i + 1) * n] for i in range(n))

    count = 0
    if not linear:
        for et in matrices():
            M = QCategory(base, tuple(members), tuple(rho), et)
            if validate_qcategory(M).ok:
                yield M
                count += 1
                if limit is not None and count >= limit:
                    return
        return

    valid_t = []
    for et in matrices():
        M = QCategory(base, tuple(members), tuple(rho), et)
        if validate_qcategory(M).ok:
            valid_t.append(et)
    for et in valid_t:
        for ep in matrices():
            M = QCategory(base, tuple(members), tuple(rho), et, ep)
            if validate_qcategory(M).ok:
                yield M
                count += 1
                if limit is not None and count >= limit:
                    return


def enumerate_qbimodules(M: QCategory, N: QCategory, linear: bool = False,
                         limit: int | None = None) -> list[QBimodule]:
    """Valid bimodules M -> N; the tensor and par sides filter separately."""
    if linear and not (M.is_linear and N.is_linear):
        raise MismatchError("linear bimodules need linear endpoint categories")
    base = M.base
    nx, ny = len(M), len(N)
    t_pools = [base.hom(M.rho[x], N.rho[y]).elements
               for x in range(nx) for y in range(ny)]
    valid_t = []
    for flat in product(*t_pools):
        vt = tuple(flat[x * ny:(x + 1) * ny] for x in range(nx))
        cand = QBimodule(M, N, vt)
        if validate_qbimodule(cand).ok:
            valid_t.append(vt)
    if not linear:
        out = [QBimodule(M, N, vt) for vt in valid_t]
        return out[:limit] if limit is not None else out

    p_pools = [base.hom(N.rho[y], M.rho[x]).elements
               for y in range(ny) for x in range(nx)]
    valid_p = []
    probe_t = valid_t[0] if valid_t else None
    for flat in product(*p_pools):
        vp = tuple(flat[y * nx:(y + 1) * nx] for y in range(ny))
        if probe_t is None:
            break
        cand = QBimodule(M, N, probe_t, vp)
        rep = validate_qbimodule(cand)
        if all(e.ok for e in rep.entries if e.law.startswith("qbim-par")):
            valid_p.append(vp)
    out = []
    for vt in valid_t:
        for vp in valid_p:
            cand = QBimodule(M, N, vt, vp)
            if validate_qbimodule(cand).ok:
                out.append(cand)
                if limit is not None and len(out) >= limit:
                    return out
    return out


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
    base = M.base
    S = second_enrichment(M, family)
    ep = S.enrich_par
    et = M.enrich_tensor
    rho = M.rho
    n = len(M)
    mode = "exhaustive"

    def dual(a: str, b: str, f: str) -> str:
        return hom_dual(base, a, b, f, family)

    entries = []

    wit = None
    for x in range(n):
        if not base.hom(rho[x], rho[x]).leq(ep[x][x], family[rho[x]]):
            wit = {"x": M.members[x]}
            break
    entries.append(law_entry("second-enrichment-counit", wit, mode))

    wit = None
    for x, x1, x2 in product(range(n), repeat=3):
        rhs = base.par_compose(rho[x], rho[x1], rho[x2], ep[x][x1], ep[x1][x2])
        if not base.hom(rho[x], rho[x2]).leq(ep[x][x2], rhs):
            wit = {"x": M.members[x], "x1": M.members[x1], "x2": M.members[x2]}
            break
    entries.append(law_entry("second-enrichment-cocomposition", wit, mode))

    checks = (
        ("second-enrichment-left-action",
         lambda x, x1, x2: base.hom(rho[x], rho[x2]).leq(
             base.compose(rho[x], rho[x1], rho[x2], ep[x][x1], et[x1][x2]),
             ep[x][x2])),
        ("second-enrichment-left-action-dual",
         lambda x, x1, x2: base.hom(rho[x2], rho[x]).leq(
             et[x2][x],
             base.par_compose(rho[x2], rho[x1], rho[x],
                              dual(rho[x1], rho[x2], et[x1][x2]), et[x1][x]))),
        ("second-enrichment-right-action",
         lambda x, x1, x2: base.hom(rho[x2], rho[x1]).leq(
             base.compose(rho[x2], rho[x], rho[x1], et[x2][x], ep[x][x1]),
             dual(rho[x1], rho[x2], et[x1][x2]))),
        ("second-enrichment-right-action-dual",
         lambda x, x1, x2: base.hom(rho[x2], rho[x]).leq(
             et[x2][x],
             base.par_compose(rho[x2], rho[x1], rho[x],
                              et[x2][x1], ep[x1][x]))),
    )
    for label, ok in checks:
        wit = None
        for x, x1, x2 in product(range(n), repeat=3):
            if not ok(x, x1, x2):
                wit = {"x": M.members[x], "x1": M.members[x1],
                       "x2": M.members[x2]}
                break
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))


def check_dual_bimodule(T: QBimodule, family: Mapping[str, str],
                        suite: str = "dual-bimodule") -> LawReport:
    """The entrywise dual of a bimodule satisfies the coaction laws and
    the action laws with their dual images."""
    base = T.source.base
    M, N = T.source, T.target
    vt = T.values_tensor
    nr, mr = N.rho, M.rho
    nx, ny = len(M), len(N)
    mode = "exhaustive"

    def dual(a: str, b: str, f: str) -> str:
        return hom_dual(base, a, b, f, family)

    dprime = tuple(tuple(dual(mr[x], nr[y], vt[x][y]) for x in range(nx))
                   for y in range(ny))
    mdual = tuple(tuple(dual(mr[x], mr[x2], M.enrich_tensor[x][x2])
                        for x in range(nx)) for x2 in range(nx))
    ndual = tuple(tuple(dual(nr[y], nr[y2], N.enrich_tensor[y][y2])
                        for y in range(ny)) for y2 in range(ny))

    checks = (
        ("dual-bimodule-left-coaction", (ny, ny, nx),
         lambda y, y2, x: base.hom(nr[y2], mr[x]).leq(
             dprime[y2][x],
             base.par_compose(nr[y2], nr[y], mr[x], ndual[y2][y],
                              dprime[y][x]))),
        ("dual-bimodule-right-coaction", (ny, nx, nx),
         lambda y, x2, x: base.hom(nr[y], mr[x]).leq(
             dprime[y][x],
             base.par_compose(nr[y], mr[x2], mr[x], dprime[y][x2],
                              mdual[x2][x]))),
        ("dual-bimodule-right-action", (ny, nx, nx),
         lambda y, x, x2: base.hom(nr[y], mr[x2]).leq(
             base.compose(nr[y], mr[x], mr[x2], dprime[y][x],
                          M.enrich_tensor[x][x2]),
             dprime[y][x2])),
        ("dual-bimodule-right-action-dual", (nx, nx, ny),
         lambda x2, x, y: base.hom(mr[x2], nr[y]).leq(
             vt[x2][y],
             base.par_compose(mr[x2], mr[x], nr[y], mdual[x2][x], vt[x][y]))),
        ("dual-bimodule-left-action", (ny, ny, nx),
         lambda y, y2, x: base.hom(nr[y], mr[x]).leq(
             base.compose(nr[y], nr[y2], mr[x], N.enrich_tensor[y][y2],
                          dprime[y2][x]),
             dprime[y][x])),
        ("dual-bimodule-left-action-dual", (nx, ny, ny),
         lambda x, y2, y: base.hom(mr[x], nr[y]).leq(
             vt[x][y],
             base.par_compose(mr[x], nr[y2], nr[y], vt[x][y2],
                              ndual[y2][y]))),
    )
    entries = []
    for label, ranges, ok in checks:
        wit = None
        for i, j, k in product(range(ranges[0]), range(ranges[1]),
                               range(ranges[2])):
            if not ok(i, j, k):
                wit = {"indices": [i, j, k]}
                break
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))


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
