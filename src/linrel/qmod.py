"""Categories enriched in a finite quantaloid and their bimodules.

A Q-category is a finite carrier with an object assignment and a
hom-valued enrichment; bimodules are the module-like 1-cells between
them.  Linear variants carry a second enrichment with the par-side and
mixed inequalities, and compose in two ways with mixed-order 2-cells
(tensor components covariant, par components contravariant).  The
drivers of the two linear theorems, on Q-Mod and on linear monads, live
here too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import islice, product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotGirardError,
)
from .lattice import FiniteLattice
from .laws import ADJOINT_LAWS, LAWS, OBJECT_CASES, SHAPE_SLOTS, Calculus
from .quantaloid import (
    _LINEAR_QBIM_LAWS,
    _LINEAR_QCAT_LAWS,
    _QBIM_LAWS,
    _QCAT_LAWS,
    Codes,
    FiniteQuantaloid,
    Matrix,
    _dual_code,
    _family_codes,
    _Law,
    _law_report,
    _memoized,
    _neither,
    _restated,
    _search,
    check_girard_family,
    check_quantaloid_laws,
    hom_dual,
    linear_monq_quantaloid,
)
from .report import LawReport, Sampler, law_entry, theorem_report


# Where element names come in and go out; a missing matrix stays None.
def _codes(base: FiniteQuantaloid, rows: Sequence[str], cols: Sequence[str],
           mat: Matrix | None) -> Codes | None:
    return None if mat is None else tuple(
        tuple(base.homs[(a, b)].index(v) for b, v in zip(cols, row))
        for a, row in zip(rows, mat))


def _decode(base: FiniteQuantaloid, rows: Sequence[str], cols: Sequence[str],
            codes: Codes | None) -> Matrix | None:
    return None if codes is None else tuple(
        tuple(base.homs[(a, b)].elements[i] for b, i in zip(cols, row))
        for a, row in zip(rows, codes))


@dataclass(frozen=True)
class QCategory:
    base: FiniteQuantaloid = field(hash=False)  # unhashable
    members: tuple[str, ...]
    rho: tuple[str, ...]
    enrich_tensor: Matrix
    enrich_par: Matrix | None = None

    @property
    def is_linear(self) -> bool:
        return self.enrich_par is not None

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def codes(self) -> tuple[Codes, Codes | None]:
        """The tensor and par enrichments as hom indices."""
        return tuple(_codes(self.base, self.rho, self.rho, mat)
                     for mat in (self.enrich_tensor, self.enrich_par))


def _category(base: FiniteQuantaloid, members: tuple[str, ...],
              rho: tuple[str, ...], et: Codes, ep: Codes | None = None) -> QCategory:
    """A category from its coded enrichments, which it keeps as its codes."""
    M = QCategory(base, members, rho, *(_decode(base, rho, rho, mat)
                                        for mat in (et, ep)))
    M.__dict__["codes"] = (et, ep)
    return M


@dataclass(unsafe_hash=True, init=False)
class QBimodule:
    """values_tensor is indexed (source member, target member); the par
    values run the other way, (target member, source member).  The cells
    are kept as hom indices, ``tensor`` and ``par`` (None when plain); the
    names are decoded on first read.  Treat it as immutable."""

    source: QCategory
    target: QCategory
    tensor: Codes
    par: Codes | None

    def __init__(self, source: QCategory, target: QCategory,
                 values_tensor: Matrix, values_par: Matrix | None = None) -> None:
        """Checks only the cells; :func:`qbimodule` validates the shape."""
        self.source, self.target = source, target
        self.tensor = _codes(source.base, source.rho, target.rho, values_tensor)
        self.par = _codes(source.base, target.rho, source.rho, values_par)
        self.values_tensor, self.values_par = values_tensor, values_par

    @property
    def is_linear(self) -> bool:
        return self.par is not None

    @cached_property
    def values_tensor(self) -> Matrix:
        return _decode(self.source.base, self.source.rho, self.target.rho, self.tensor)

    @cached_property
    def values_par(self) -> Matrix | None:
        return _decode(self.source.base, self.target.rho, self.source.rho, self.par)


def _made(source: QCategory, target: QCategory, tensor: Codes,
          par: Codes | None = None) -> QBimodule:
    """A bimodule from its code matrices, with its names left undecoded."""
    B = object.__new__(QBimodule)
    B.source, B.target, B.tensor, B.par = source, target, tensor, par
    return B


def _matrix(rows: Sequence[str], cols: Sequence[str],
            mat: Sequence[Sequence[str]], label: str) -> Matrix:
    """`mat` as a tuple of rows, refused unless it has the right shape."""
    out = tuple(tuple(r) for r in mat)
    if len(out) != len(rows) or any(len(r) != len(cols) for r in out):
        raise MismatchError(f"{label} must be {len(rows)}x{len(cols)}")
    return out


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
    et = _matrix(rho, rho, enrich_tensor, "tensor enrichment")
    ep = None if enrich_par is None else _matrix(rho, rho, enrich_par,
                                                 "par enrichment")
    M = QCategory(base=base, members=members, rho=rho,
                  enrich_tensor=et, enrich_par=ep)
    M.codes  # coding every cell refuses unknown elements
    if ep is not None and not base.has_par:
        raise NoParStructureError("base quantaloid has no par layer")
    return M


def discrete_qcategory(base: FiniteQuantaloid, members: Sequence[str],
                       rho: Sequence[str], linear: bool = False) -> QCategory:
    """Identity enrichment: units on the diagonal, extremes off it."""
    rho = tuple(rho)
    if len(rho) != len(members):
        raise MismatchError("rho must assign an object to every member")

    def enrichment(unit, extreme: str) -> Matrix:
        return tuple(tuple(unit(a) if i == j else getattr(base.hom(a, b), extreme)
                           for j, b in enumerate(rho)) for i, a in enumerate(rho))
    return QCategory(base=base, members=tuple(members), rho=rho,
                     enrich_tensor=enrichment(base.unit_top, "bottom"),
                     enrich_par=enrichment(base.unit_bot, "top") if linear else None)


def qbimodule(source: QCategory, target: QCategory,
              values_tensor: Sequence[Sequence[str]],
              values_par: Sequence[Sequence[str]] | None = None) -> QBimodule:
    if source.base != target.base:
        raise MismatchError("bimodule endpoints live over different bases")
    rx, ry = source.rho, target.rho
    rows = _matrix(rx, ry, values_tensor, "tensor values")
    par = None if values_par is None else _matrix(ry, rx, values_par,
                                                  "par values")
    return QBimodule(source, target, rows, par)


# ---------------------------------------------------------------------------
# Category and bimodule laws (stated in ``linrel.quantaloid``)

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
    (Mt, Mp), (Nt, Np) = M.codes, N.codes
    mats = {"Mt": Mt, "Mp": Mp, "Nt": Nt, "Np": Np, **values}
    return {k: v for k, v in mats.items() if v is not None}


def _report(suite: str, laws, cats: Mapping[str, QCategory],
            mats: Mapping) -> LawReport:
    """The law report on categories, whose members a witness names."""
    members = {r: C.members for r, C in cats.items()}
    return _law_report(suite, laws, cats["x"].base,
                       {r: C.rho for r, C in cats.items()}, mats,
                       lambda law, *failure: law.witness(members, *failure),
                       names=False)


def validate_qcategory(M: QCategory, suite: str = "qcategory") -> LawReport:
    laws = _QCAT_LAWS + (_LINEAR_QCAT_LAWS if M.is_linear else ())
    return _report(suite, laws, {"x": M}, dict(zip(("et", "ep"), M.codes)))


def validate_qbimodule(B: QBimodule, suite: str = "qbimodule") -> LawReport:
    M, N = B.source, B.target
    linear = B.is_linear and M.is_linear and N.is_linear
    laws = _QBIM_LAWS + (_LINEAR_QBIM_LAWS if linear else ())
    return _report(suite, laws, {"x": M, "y": N},
                   _bimodule_matrices(M, N, vt=B.tensor, vp=B.par))


# ---------------------------------------------------------------------------
# Composition


def identity_bimodule(M: QCategory) -> QBimodule:
    return _made(M, M, *M.codes)


def par_identity_bimodule(M: QCategory) -> QBimodule:
    if not M.is_linear:
        raise NoParStructureError("par identity needs a linear category")
    et, ep = M.codes
    return _made(M, M, ep, et)


def _check_parallel(t: QBimodule, p: QBimodule) -> None:
    if t.source != p.source or t.target != p.target:
        raise MismatchError("bimodules are not parallel")


def _fold(base: FiniteQuantaloid, tensor: bool, rows: Sequence[str],
          mids: Sequence[str], cols: Sequence[str], A: Codes, B: Codes) -> Codes:
    """Cell (r, c) is the join over m of the tensor composites of A's cell
    (r, m) with B's cell (m, c), or else the meet of the par composites."""
    tables = base.coded.tensor if tensor else base.coded.par
    if tables is None:
        raise NoParStructureError("quantaloid has no par layer")
    out = []
    for a, a_row in zip(rows, A):
        cells = []
        for z, c in enumerate(cols):
            hom = base.homs[(a, c)]
            bound = hom.join_table if tensor else hom.meet_table
            acc = hom.index(hom.bottom if tensor else hom.top)
            for b, f, b_row in zip(mids, a_row, B):
                acc = bound[acc][tables[(a, b, c)][f][b_row[z]]]
            cells.append(acc)
        out.append(tuple(cells))
    return tuple(out)


def _compose(T: QBimodule, P: QBimodule, tensor: bool) -> QBimodule:
    if T.target != P.source:
        raise MismatchError("bimodules are not composable")
    base = T.source.base
    M, N, Pc = T.source, T.target, P.target
    vt = _fold(base, tensor, M.rho, N.rho, Pc.rho, T.tensor, P.tensor)
    vp = None
    if T.is_linear and P.is_linear:
        vp = _fold(base, not tensor, Pc.rho, N.rho, M.rho, P.par, T.par)
    return _made(M, Pc, vt, vp)


def qmod_compose_tensor(T: QBimodule, P: QBimodule) -> QBimodule:
    """Join of pointwise composites; par parts meet the other way round."""
    return _compose(T, P, tensor=True)


def qmod_compose_par(T: QBimodule, P: QBimodule) -> QBimodule:
    """Meet of pointwise par composites; par parts join via tensor."""
    return _compose(T, P, tensor=False)


def bim_leq(T: QBimodule, P: QBimodule) -> bool:
    """Mixed 2-cell order: tensor parts pointwise up, par parts down."""
    _check_parallel(T, P)
    M, N, homs = T.source, T.target, T.source.base.homs
    parts = [(M.rho, N.rho, T.tensor, P.tensor)]
    if T.is_linear and P.is_linear:
        parts.append((N.rho, M.rho, P.par, T.par))
    for rows, cols, lower, upper in parts:
        for a, lower_row, upper_row in zip(rows, lower, upper):
            for b, x, y in zip(cols, lower_row, upper_row):
                if not homs[(a, b)].leq_matrix[x][y]:
                    return False
    return True


def _combine(T: QBimodule, P: QBimodule, join: bool) -> QBimodule:
    """Cellwise join (else meet) of the tensor parts, and the other bound
    of the par parts."""
    _check_parallel(T, P)
    M, N, homs = T.source, T.target, T.source.base.homs

    def cellwise(rows, cols, A, B, join):
        bound = "join_table" if join else "meet_table"
        return tuple(tuple(getattr(homs[(a, b)], bound)[x][y]
                           for b, x, y in zip(cols, a_row, b_row))
                     for a, a_row, b_row in zip(rows, A, B))

    vt = cellwise(M.rho, N.rho, T.tensor, P.tensor, join)
    vp = None
    if T.is_linear and P.is_linear:
        vp = cellwise(N.rho, M.rho, T.par, P.par, not join)
    return _made(M, N, vt, vp)


def bim_join(T: QBimodule, P: QBimodule) -> QBimodule:
    return _combine(T, P, join=True)


def bim_meet(T: QBimodule, P: QBimodule) -> QBimodule:
    return _combine(T, P, join=False)


def _extreme_bimodule(M: QCategory, N: QCategory, linear: bool, tensor: str,
                      par: str) -> QBimodule:
    """Every tensor value the ``tensor`` extreme ("bottom" or "top") of its
    hom, and every par value the ``par`` extreme."""
    homs = M.base.homs

    def cells(rows, cols, bound):
        return tuple(tuple(homs[(a, b)].index(getattr(homs[(a, b)], bound))
                           for b in cols) for a in rows)
    return _made(M, N, cells(M.rho, N.rho, tensor),
                 cells(N.rho, M.rho, par) if linear else None)


# ---------------------------------------------------------------------------
# Girard structure in the bimodule bicategory; internal functions take a
# family as its codes, d[a] the index of its element at object a.


def _dual_transpose(base: FiniteQuantaloid, rows: Sequence[str],
                    cols: Sequence[str], mat: Codes, d: Mapping[str, int]) -> Codes:
    """The entrywise duals of a matrix, transposed: cell (c, r) is the
    largest g with mat[r][c].g below the family element at rows[r].  Each
    hom's dual map is kept in the base's memo, once per family element."""
    duals = {(a, b): _memoized(base, ("qmod-duals", a, b, d[a]), lambda: tuple(
                 _dual_code(base, a, b, f, d[a], False)
                 for f in range(len(base.homs[(a, b)]))))
             for a, b in product(set(rows), set(cols))}
    return tuple(tuple(duals[(a, b)][mat[r][c]] for r, a in enumerate(rows))
                 for c, b in enumerate(cols))


def _delta_matrix(M: QCategory, d: Mapping[str, int]) -> Codes:
    return _dual_transpose(M.base, M.rho, M.rho, M.codes[0], d)


def _require_girard(base: FiniteQuantaloid,
                    family: Mapping[str, str]) -> dict[str, int]:
    """The family's codes, once it is found cyclic dualizing on the base."""
    if not check_girard_family(base, family).ok:
        raise NotGirardError("family is not cyclic dualizing on the base")
    return _family_codes(base, family)


def qmod_delta(M: QCategory, family: Mapping[str, str]) -> QBimodule:
    """The dualizing endo-bimodule: entrywise dual of the reversed
    enrichment against the family."""
    return _made(M, M, _delta_matrix(M, _require_girard(M.base, family)))


def second_enrichment(M: QCategory, family: Mapping[str, str]) -> QCategory:
    """Extend a plain category with the dual enrichment as its par part."""
    return _second_enrichment(M, _require_girard(M.base, family))


def _second_enrichment(M: QCategory, d: Mapping[str, int]) -> QCategory:
    return _category(M.base, M.members, M.rho, M.codes[0], _delta_matrix(M, d))


def _residual_masks(base: FiniteQuantaloid, a: str, b: str, c: str,
                    left: bool) -> tuple[tuple[int, ...], ...]:
    """Bitmasks of the tensor on the triple (a, b, c), kept in the base's
    memo: entry [f][h] marks (bit g) every g in hom(b, c) with f.g below h,
    or with `left` every g in hom(a, b) with g.f below h, f in hom(b, c).
    A residual cell joins the elements below every bound, so ANDing its
    middle members' masks is exact on every base, unlike a meet of
    per-member residuals where the composition does not preserve joins."""
    def build():
        table = base.coded.tensor[(a, b, c)]
        below = base.homs[(a, c)].leq_matrix
        return tuple(tuple(sum(1 << g for g, v in enumerate(row) if below[v][h])
                           for h in range(len(below)))
                     for row in (zip(*table) if left else table))
    return _memoized(base, ("qmod-residual-masks", left, a, b, c), build)


def _join_marked(hom: FiniteLattice, masks: list[int]) -> int:
    """The join of the elements of `hom` marked in every mask."""
    mask = reduce(operator.and_, masks, (1 << len(hom)) - 1)
    join, acc = hom.join_table, hom.index(hom.bottom)
    while mask:
        low = mask & -mask
        acc = join[acc][low.bit_length() - 1]
        mask ^= low
    return acc


def _right_extension(T: QBimodule, H: QBimodule) -> QBimodule:
    if T.source != H.source:
        raise MismatchError("extension needs a common source")
    M, N, P = T.source, T.target, H.target
    base, t, h = M.base, T.tensor, H.tensor
    return _made(N, P, tuple(tuple(_join_marked(base.homs[(b, c)], [
        _residual_masks(base, a, b, c, False)[t[x][y]][h[x][z]]
        for x, a in enumerate(M.rho)]) for z, c in enumerate(P.rho))
        for y, b in enumerate(N.rho)))


def _right_lifting(H: QBimodule, T: QBimodule) -> QBimodule:
    if T.target != H.target:
        raise MismatchError("lifting needs a common target")
    M, N, P = T.source, T.target, H.source
    base, t, h = M.base, T.tensor, H.tensor
    return _made(P, M, tuple(tuple(_join_marked(base.homs[(c, a)], [
        _residual_masks(base, c, a, b, True)[t[x][y]][h[z][y]]
        for y, b in enumerate(N.rho)]) for x, a in enumerate(M.rho))
        for z, c in enumerate(P.rho)))


def qmod_right_extension(T: QBimodule, H: QBimodule) -> Matrix:
    """Largest matrix S with T (x) S <= H; T: M->N, H: M->P, S: N->P."""
    return _right_extension(T, H).values_tensor


def qmod_right_lifting(H: QBimodule, T: QBimodule) -> Matrix:
    """Largest matrix S with S (x) T <= H; T: M->N, H: P->N, S: P->M."""
    return _right_lifting(H, T).values_tensor


def check_girard_qmod(base: FiniteQuantaloid, family: Mapping[str, str],
                      bimodules: Iterable[QBimodule],
                      suite: str = "girard-qmod",
                      mode: str = "sample") -> LawReport:
    """Cyclicity and double dual of the delta family on sampled bimodules.

    Law failures are reported, never raised, so an arbitrary candidate
    family can be probed; only shape errors raise.
    """
    d = _family_codes(base, family)
    deltas: dict[QCategory, QBimodule] = {}  # each category's, made once

    def delta(M: QCategory) -> QBimodule:
        if M not in deltas:
            deltas[M] = _made(M, M, _delta_matrix(M, d))
        return deltas[M]

    cyc_wit = None
    dd_wit = None
    for T in bimodules:
        dN = delta(T.target)
        ext = _right_extension(T, delta(T.source))
        lift = _right_lifting(dN, T)
        if cyc_wit is None and ext != lift:
            cyc_wit = {"theta": [list(r) for r in T.values_tensor],
                       "extension": [list(r) for r in ext.values_tensor],
                       "lifting": [list(r) for r in lift.values_tensor]}
        double = _right_extension(ext, dN)
        if dd_wit is None and double.tensor != T.tensor:
            dd_wit = {"theta": [list(r) for r in T.values_tensor],
                      "double": [list(r) for r in double.values_tensor]}
        if cyc_wit and dd_wit:
            break
    return LawReport(suite, (
        law_entry("girard-cyclic", cyc_wit, mode),
        law_entry("girard-double-dual", dd_wit, mode),
    ))


def qmod_linear_adjoint(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    """Right linear adjoint over a Girard base: dualized tensor part, with
    the original tensor part as the new par part."""
    return _qmod_linear_adjoint(T, _require_girard(T.source.base, family))


def _qmod_linear_adjoint(T: QBimodule, d: Mapping[str, int]) -> QBimodule:
    M, N = T.source, T.target
    return _made(N, M, _dual_transpose(M.base, M.rho, N.rho, T.tensor, d),
                 T.tensor)


def girard_linear_bimodule(T: QBimodule, family: Mapping[str, str]) -> QBimodule:
    """Canonically linearize a plain bimodule over a Girard base: endpoints
    get their dual second enrichment, the par values are the dualized
    transpose.  The linear adjunction facts hold for this structure."""
    linear = T.source.is_linear and T.target.is_linear
    codes = _family_codes if linear else _require_girard
    return _girard_linear_bimodule(T, codes(T.source.base, family))


def _girard_linear_bimodule(T: QBimodule, d: Mapping[str, int]) -> QBimodule:
    M = T.source if T.source.is_linear else _second_enrichment(T.source, d)
    N = T.target if T.target.is_linear else _second_enrichment(T.target, d)
    return _made(M, N, T.tensor,
                 _dual_transpose(M.base, M.rho, N.rho, T.tensor, d))


def check_qmod_linear_adjoint(T: QBimodule, P: QBimodule) -> bool:
    """2-cell conditions: identity below T par P, and P tensor T below
    the par identity, in the mixed order."""
    if T.source != P.target or T.target != P.source:
        raise MismatchError("candidate adjoint has the wrong boundary")
    return all(law(QMOD_CALCULUS, T, P) for law in ADJOINT_LAWS.values())


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_qcategories(base: FiniteQuantaloid, members: Sequence[str],
                          rho: Sequence[str], linear: bool = False,
                          limit: int | None = None) -> Iterator[QCategory]:
    """The first `limit` valid categories on a fixed carrier, in table
    order: the tensor enrichment's cells, then the par enrichment's."""
    members, rho = tuple(members), tuple(rho)
    laws = _QCAT_LAWS + (_LINEAR_QCAT_LAWS if linear else ())
    found = _search(base, laws, {"x": rho}, {}, ("et", "ep")[:1 + linear],
                    names=False)
    for mats in islice(found, limit):
        yield _category(base, members, rho, *mats)


def enumerate_qbimodules(M: QCategory, N: QCategory, linear: bool = False,
                         limit: int | None = None) -> list[QBimodule]:
    """The first `limit` valid bimodules M -> N in table order.  Every law
    reads only the tensor values or only the par values, so the linear
    bimodules are the two searches' product, tensor values outermost."""
    if linear and not (M.is_linear and N.is_linear):
        raise MismatchError("linear bimodules need linear endpoint categories")
    laws = _QBIM_LAWS + (_LINEAR_QBIM_LAWS if linear else ())
    search = partial(_search, M.base, laws, {"x": M.rho, "y": N.rho},
                     _bimodule_matrices(M, N), names=False)
    # The first valid tensor part is paired with every par part before the
    # next one is, so no limit needs more than `limit` par parts.
    pars = list(islice(search(("vp",)), limit)) if linear else [(None,)]
    found = (_made(M, N, vt, vp) for vt, in search(("vt",)) for vp, in pars)
    return list(islice(found, limit))


# ---------------------------------------------------------------------------
# Linear theorem drivers

QMOD_CALCULUS = Calculus(
    # Compositions are looked up at call time, so a rebinding of the module
    # functions (such as a tracing wrapper) also sees the law suite's calls.
    tensor=lambda f, g: qmod_compose_tensor(f, g),
    par=lambda f, g: qmod_compose_par(f, g),
    id_top=lambda f, M: identity_bimodule(M),
    id_bot=lambda f, M: par_identity_bimodule(M),
    zero=lambda f, M, N: _extreme_bimodule(M, N, f.is_linear, "bottom", "top"),
    top=lambda f, M, N: _extreme_bimodule(M, N, f.is_linear, "top", "bottom"),
    join=bim_join,
    meet=bim_meet,
    leq=bim_leq,
    eq=operator.eq,
    source=operator.attrgetter("source"),
    target=operator.attrgetter("target"),
)

# label -> (shape, the law bound to bimodules).
_QMOD_LAWS = {label: (shape, law(QMOD_CALCULUS))
              for label, (shape, law) in LAWS.items()}


def sample_linear_categories(base: FiniteQuantaloid, sizes: Sequence[int] = (1, 2),
                             per_shape: int = 4,
                             linear: bool = True) -> list[QCategory]:
    """A deterministic pool: the discrete category plus the first few
    valid enrichments for every carrier shape and object assignment, each
    category once.  The categories are plain ones when `linear` is false."""
    cats: list[QCategory] = []
    for size in sizes:
        members = tuple(f"x{i}" for i in range(size))
        for rho in product(base.objects, repeat=size):
            cats.append(discrete_qcategory(base, members, rho, linear))
            for M in enumerate_qcategories(base, members, rho, linear,
                                           per_shape):
                if M not in cats:
                    cats.append(M)
    return cats


def verify_linear_quantaloid_theorems(Q: FiniteQuantaloid,
                                      suite: str = "linear-monq-theorem",
                                      ) -> LawReport:
    """Check the base laws and the materialized monad construction, then
    report the two implications of the equivalence separately."""
    if not Q.has_par:
        raise NoParStructureError("theorem needs a par layer")
    base = check_quantaloid_laws(Q, suite=f"{suite}:base")
    if not base.ok:
        return _failed_base_report(suite, Q, base)
    derived = check_quantaloid_laws(linear_monq_quantaloid(Q),
                                    suite=f"{suite}:monq")
    fail = None if derived.ok else derived.failing()[0]
    return theorem_report(suite, "exhaustive", base.entries, True, derived.ok,
                          forward=fail and {"law": fail.law,
                                            "witness": fail.witness})


def _failed_base_report(suite: str, Q: FiniteQuantaloid,
                        base: LawReport) -> LawReport:
    """The theorem report on a base whose laws fail: the derived side
    holds unless the first failure transfers to the linear monad
    construction.  Whether it does is decided once per base."""
    fail = base.failing()[0]
    reproduced = _memoized(Q, ("linear-transfer",), partial(
        _transfer_reproduces, Q, fail.law, fail.witness))
    return theorem_report(
        suite, "exhaustive", base.entries, False, not reproduced,
        backward={"law": fail.law, "note": "transfer did not reproduce"},
        transfer=None if reproduced else {"law": fail.law,
                                          "witness": fail.witness})


def _transfer_reproduces(base: FiniteQuantaloid, label: str,
                         witness: dict) -> bool:
    """Whether a base law failure recurs among linear monad bimodules.

    Each witness object becomes its trivial linear monad, the one-member
    discrete linear category, and each witness cell f: a->b the 1x1 linear
    bimodule (f, the dual of f against the tensor units); ``LAWS[label]``
    is replayed on them as ``laws.OBJECT_CASES`` lays out the case, with
    an absorption law's context object as its trivial linear monad too.
    """
    objs = witness["objects"]
    units = {a: base.unit_top(a) for a in base.objects}
    cats = [discrete_qcategory(base, ("x",), (a,), linear=True) for a in objs]

    def arg(key: str | None, at) -> QBimodule | QCategory:
        if key is None:
            return cats[at]
        (i, j), f = at, witness[key]
        return QBimodule(cats[i], cats[j], ((f,),),
                         ((hom_dual(base, objs[i], objs[j], f, units),),))

    law = LAWS[label][1](QMOD_CALCULUS)
    return not law(*(arg(key, at) for key, at in OBJECT_CASES[label]))


def verify_linear_qmod_theorem(base: FiniteQuantaloid, sampler: Sampler,
                               suite: str = "linear-qmod-theorem") -> LawReport:
    """Base laws, then the bimodule law suite on sampled linear categories
    and bimodules; a base failure transfers through one-member categories.

    A case of a law draws a category for each point of its shape, then a
    bimodule for each slot from the first few between the slot's two
    points.  None of these pools is empty once the base laws hold: the zero
    bimodule, with bottom tensor part and top par part, satisfies every
    bimodule law by the base's absorption laws.
    """
    if not base.has_par:
        raise NoParStructureError("theorem needs a par layer")
    base_rep = check_quantaloid_laws(base, suite=f"{suite}:base")
    if not base_rep.ok:
        return _failed_base_report(suite, base, base_rep)
    cats = sample_linear_categories(base)
    pools: dict[tuple[int, int], list[QBimodule]] = {}
    rng = sampler.rng()

    def pick(i: int, j: int) -> QBimodule:
        if (i, j) not in pools:
            pools[(i, j)] = enumerate_qbimodules(cats[i], cats[j], linear=True,
                                                 limit=12)
        return rng.choice(pools[(i, j)])

    mode = sampler.random_label()
    entries = list(base_rep.entries)
    first_fail = None
    for label, (shape, holds) in _QMOD_LAWS.items():
        slots = SHAPE_SLOTS[shape]
        wit = None
        for _ in range(sampler.count):
            points = [rng.randrange(len(cats))
                      for _ in range(1 + max(map(max, slots)))]
            case = [pick(points[i], points[j]) for i, j in slots]
            if not holds(*case):
                wit = {"bimodules": [[list(r) for r in b.values_tensor]
                                     for b in case]}
                first_fail = first_fail or label
                break
        entries.append(law_entry(label, wit, mode))
    return theorem_report(suite, mode, entries, True, first_fail is None,
                          forward=first_fail and {"law": first_fail})


# ---------------------------------------------------------------------------
# Listed second-enrichment facts over a Girard base


def check_second_enrichment(M: QCategory, family: Mapping[str, str],
                            suite: str = "second-enrichment") -> LawReport:
    """The dual enrichment satisfies the par-side category laws and the
    action laws together with their dual images."""
    d = _require_girard(M.base, family)
    fam = tuple((d[a],) * len(M) for a in M.rho)
    return _report(suite, _SECOND_ENRICHMENT_LAWS, {"x": M},
                   {"et": M.codes[0], "ep": _delta_matrix(M, d), "fam": fam})


def check_dual_bimodule(T: QBimodule, family: Mapping[str, str],
                        suite: str = "dual-bimodule") -> LawReport:
    """The entrywise dual of a bimodule satisfies the coaction laws and
    the action laws with their dual images."""
    M, N = T.source, T.target
    d = _family_codes(M.base, family)
    mats = _bimodule_matrices(
        M, N, vt=T.tensor, vp=_qmod_linear_adjoint(T, d).tensor,
        Mp=_delta_matrix(M, d), Np=_delta_matrix(N, d))
    return _report(suite, _DUAL_BIMODULE_LAWS, {"x": M, "y": N}, mats)


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
