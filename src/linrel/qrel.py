"""Quantale-valued relations between finite sets.

A relation is a dense matrix of carrier elements.  Tensor composition
joins pointwise products over the middle set; par composition meets
pointwise par sums.  Together with the two identity families this is the
1-cell calculus the law suites in :mod:`linrel.verify` exercise.

Over a finite carrier a relation keeps its matrix once, as element
indices, and every composition, pointwise operation and comparison runs
on the ambient's :class:`~linrel.quantale.IndexTables`.  Over the
extended integers it keeps its elements and runs on the closed-form
kernels.  Each kernel works on a relation's row-major cells, so the law
suites, the witness shrinker and the adjunction checks run the same
kernels on plain coded cells (:func:`coded_calculus`) and decode only a
witness.  Cases drawn on one boundary, at least ``_COLUMN_CASES`` of them,
are checked as one column cell per slot (:func:`column_calculus`), whose
entries hold one code per case; the witness is still the first failing
case in draw order, so the reports are those of the case-by-case scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, product, repeat
from math import prod
from operator import getitem, itemgetter
from typing import Any, Iterator, Sequence

from .errors import (
    DuplicateNameError,
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotGirardError,
    UnknownElementError,
)
from .laws import ADJOINT_LAWS, LAWS, SHAPE_SLOTS, WITNESS_KEYS, Calculus
from .quantale import (
    MINUS_INF,
    PLUS_INF,
    Elem,
    IndexTables,
    Quantale,
    _cells_eq,
    _table_cells,
    scalar_calculus,
    scalar_codec,
)
from .report import LawReport, Sampler, law_entry


@dataclass(frozen=True)
class FiniteSet:
    name: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


def finite_set(name: str, members: Sequence[str]) -> FiniteSet:
    if not isinstance(name, str):
        raise InputFormatError(
            f"set name {name!r} must be a string, not {type(name).__name__}")
    if not isinstance(members, (list, tuple)):
        raise InputFormatError(
            f"set {name!r} members must be a list, not {type(members).__name__}")
    members = tuple(members)
    for m in members:
        if not isinstance(m, str):
            raise InputFormatError(
                f"set {name!r} member {m!r} must be a string, not {type(m).__name__}")
    if len(set(members)) != len(members):
        raise DuplicateNameError(f"set {name!r} has duplicate members")
    return FiniteSet(name=name, members=members)


def _rows(cells: Sequence, nx: int, ny: int) -> tuple[tuple, ...]:
    """Row-major ``cells`` as ``nx`` rows of ``ny``."""
    if not ny:
        return ((),) * nx
    return tuple(zip(*[iter(cells)] * ny))


class QRelation:
    """A matrix of carrier elements indexed (source member, target member).

    ``values`` holds the rows of elements.  Over a finite carrier the
    matrix is stored as ``codes``, the element indices of its entries in
    row-major order, and ``values`` is decoded from them on first read;
    over the extended integers ``codes`` is None.  Treat it as immutable.
    """

    __slots__ = ("source", "target", "ambient", "codes", "_values")

    def __init__(self, source: FiniteSet, target: FiniteSet, ambient: Quantale,
                 values: Sequence[Sequence[Elem]]) -> None:
        """Trusts ``values``; :func:`relation` is the validating constructor."""
        self.source, self.target, self.ambient = source, target, ambient
        self._values = values
        t = ambient.index_tables
        try:
            self.codes = None if t is None else \
                tuple(map(t.index.__getitem__, chain.from_iterable(values)))
        except (KeyError, TypeError):
            raise UnknownElementError("relation entry is not an element") from None

    @property
    def values(self) -> tuple[tuple[Elem, ...], ...]:
        values = self._values
        if values is None:
            codes, elements = self.codes, self.ambient.index_tables.elements
            ny = len(self.target.members)
            if ny and len(codes) > 1:
                values = tuple(zip(*[iter(itemgetter(*codes)(elements))] * ny))
            else:
                values = _rows([elements[c] for c in codes], len(self.source.members), ny)
            self._values = values
        return values

    def _key(self) -> tuple:
        return (self.source, self.target, self.ambient,
                self.values if self.codes is None else self.codes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not QRelation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"QRelation(source={self.source!r}, target={self.target!r}, "
                f"ambient={self.ambient!r}, values={self.values!r})")

    def entry(self, x: str, y: str) -> Elem:
        return self.values[self.source.members.index(x)][self.target.members.index(y)]


_new = object.__new__


def _made(source: FiniteSet, target: FiniteSet, amb: Quantale,
          codes: tuple[int, ...] | None, values=None) -> QRelation:
    """A relation from its row-major element indices over a finite
    carrier, or from its rows of elements (``codes`` None) otherwise."""
    r = _new(QRelation)
    r.source, r.target, r.ambient, r.codes, r._values = source, target, amb, codes, values
    return r


def _cells(r: QRelation) -> tuple:
    """The entries in row-major order: element indices over a finite
    carrier, elements over the extended integers."""
    return r.codes if r.codes is not None else tuple(chain.from_iterable(r.values))


def _coded(r: QRelation) -> tuple:
    """``r`` as a coded cell ``(source, target, cells)``."""
    return r.source, r.target, _cells(r)


def _from_cells(source: FiniteSet, target: FiniteSet, amb: Quantale,
                cells: Sequence) -> QRelation:
    """Inverse of :func:`_cells`."""
    if amb.index_tables is not None:
        return _made(source, target, amb, tuple(cells))
    return _made(source, target, amb, None,
                 _rows(cells, len(source.members), len(target.members)))


def relation(source: FiniteSet, target: FiniteSet, ambient: Quantale,
             values: Sequence[Sequence[Elem]]) -> QRelation:
    """Validating constructor; composition results skip the entry scan."""
    if not isinstance(values, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in values):
        raise InputFormatError("relation values must be a list of row lists")
    rows = tuple(tuple(row) for row in values)
    if len(rows) != len(source) or any(len(r) != len(target) for r in rows):
        raise MismatchError(
            f"values must be {len(source)}x{len(target)} for "
            f"{source.name!r} to {target.name!r}")
    try:
        r = QRelation(source, target, ambient, rows)
    except UnknownElementError:
        r = None
    if r is None or r.codes is None:
        # name the first bad entry; the extended integers have no codes
        # to refuse one, so each entry is checked
        check = ambient.carrier.check
        for row in rows:
            for v in row:
                check(v)
    return r


def _require_par(amb: Quantale) -> None:
    if not amb.has_par:
        raise NoParStructureError("ambient quantale has no par structure")


def _require_composable(f: QRelation, g: QRelation) -> None:
    if f.target is not g.source and f.target != g.source:
        raise MismatchError(
            f"cannot compose {f.source.name}->{f.target.name} with "
            f"{g.source.name}->{g.target.name}")
    if f.ambient is not g.ambient and f.ambient != g.ambient:
        raise MismatchError("relations live over different quantales")


def _columns(r: QRelation) -> list[tuple[Elem, ...]]:
    """The columns of ``r``'s matrix, one per target member."""
    return list(zip(*r.values)) if r.values else [()] * len(r.target)


@cache
def _spans(n: int, width: int) -> tuple[tuple[int, int], ...]:
    """Start and width of each block of a middle set of ``n`` members."""
    return tuple((start, min(width, n - start)) for start in range(0, n, width))


# Shapes with at most this many entries where the middle set meets a row
# or a column, ``ny * (nx + nz)``, cut each row's and each column's part
# of a block with a slice of its own, planned once per shape.  Larger
# shapes cut the k-th member of a block from every row (column) at once,
# with one strided slice, planned per call: a few slices per block cost
# little next to such a composition, and kept per shape they add up.
_SLICED_CELLS = 64


@lru_cache(maxsize=128)
def _sliced_plan(nx: int, ny: int, nz: int, width: int) -> tuple:
    """For each block of the middle set of an ``nx`` x ``ny`` by ``ny`` x
    ``nz`` composition of row-major cells: its width, the slice of each
    row's part in it and the slice of each column's part."""
    return tuple((w, tuple(slice(i, i + w) for i in range(start, nx * ny, ny)),
                  tuple(slice(start * nz + z, (start + w) * nz, nz) for z in range(nz)))
                 for start, w in _spans(ny, width))


def _strided_plan(ny: int, nz: int, width: int) -> list:
    """For each block of the middle set, as :func:`_sliced_plan`, but the
    slices of the k-th entries of all the rows' parts and of all the
    columns' parts, one per member k; zipped, they give the parts."""
    return [(w, tuple(map(slice, range(start, start + w), repeat(None), repeat(ny))),
             tuple(map(slice, range(start * nz, (start + w) * nz, nz),
                       range((start + 1) * nz, (start + w + 1) * nz, nz))))
            for start, w in _spans(ny, width)]


def _fold_codes(t: IndexTables, op: str, f: tuple, g: tuple) -> tuple:
    """The coded cell X->Z of coded cells ``f``: X->Y and ``g``: Y->Z,
    whose entry (x, z) joins (meets, for "par") the ``op`` products over
    Y, a block of the index tables at a time: the part of row x in a
    block is numbered as a vector and picks a row of the block's table,
    and the part of column z picks one entry from it."""
    X, Y, fc = f
    Z, gc = g[1], g[2]
    nx, ny, nz = len(X.members), len(Y.members), len(Z.members)
    if not (ny and nz):
        return X, Z, (t.bottom if op == "tensor" else t.top,) * (nx * nz)
    strided = ny * (nx + nz) > _SLICED_CELLS
    plan = _strided_plan(ny, nz, t.width) if strided else _sliced_plan(nx, ny, nz, t.width)
    blocks, acc = t.blocks, None
    for w, rows, cols in plan:
        number, tables = blocks[w]
        table = tables[op]
        if strided:
            us = [table[number[r]] for r in zip(*map(fc.__getitem__, rows))]
            vs = [number[c] for c in zip(*map(gc.__getitem__, cols))]
            block = [u[v] for u in us for v in vs]
        else:
            # ``for u in [...]`` binds each row's table row without a
            # comprehension of its own: small shapes are mostly overhead
            vs = [number[gc[s]] for s in cols]
            block = [u[v] for s in rows for u in [table[number[fc[s]]]] for v in vs]
        if acc is None:
            acc = block
        else:
            fold = t.join if op == "tensor" else t.meet
            acc = [fold[a][b] for a, b in zip(acc, block)]
    return X, Z, tuple(acc)


def _fold_values(mul, agg, f: tuple, g: tuple) -> tuple:
    """The coded cell X->Z of coded cells ``f``: X->Y and ``g``: Y->Z over
    the extended integers: ``agg`` over Y of pointwise ``mul`` products.
    The unchecked ``mul`` trusts the validated entries."""
    X, Y, fc = f
    Z, gc = g[1], g[2]
    ny, nz = len(Y.members), len(Z.members)
    if ny == 1:  # the join (meet) of one product is that product
        return X, Z, tuple(mul(a, b) for a in fc for b in gc)
    rows = [fc[x * ny:(x + 1) * ny] for x in range(len(X.members))]
    cols = [gc[z::nz] for z in range(nz)]
    return X, Z, tuple(agg(map(mul, row, col)) for row in rows for col in cols)


def _kernel(amb: Quantale, op: str):
    """Composition ``op`` ("tensor" or "par") over ``amb`` on coded cells."""
    t = amb.index_tables
    if t is not None:
        return partial(_fold_codes, t, op)
    if op == "tensor":
        return partial(_fold_values, amb.mul, amb.carrier.join)
    return partial(_fold_values, amb.par_mul, amb.carrier.meet)


def _compose(f: QRelation, g: QRelation, op: str) -> QRelation:
    amb = f.ambient
    t = amb.index_tables
    if t is None:
        X, Z, cells = _kernel(amb, op)(_coded(f), _coded(g))
        return _made(X, Z, amb, None, _rows(cells, len(X.members), len(Z.members)))
    # the kernel itself, without a partial: small compositions of relations
    # spend most of their time outside it
    return _made(f.source, g.target, amb, _fold_codes(
        t, op, (f.source, f.target, f.codes), (g.source, g.target, g.codes))[2])


def compose_tensor(f: QRelation, g: QRelation) -> QRelation:
    """Join over the middle set of pointwise tensor products."""
    _require_composable(f, g)
    return _compose(f, g, "tensor")


def compose_par(f: QRelation, g: QRelation) -> QRelation:
    """Meet over the middle set of pointwise par sums."""
    _require_composable(f, g)
    _require_par(f.ambient)
    return _compose(f, g, "par")


def _diagonal_cells(n: int, on, off) -> tuple:
    """``on`` on the diagonal of an ``n`` x ``n`` matrix, ``off`` elsewhere."""
    cells = [off] * (n * n)
    cells[::n + 1] = [on] * n
    return tuple(cells)


def _diagonal(X: FiniteSet, amb: Quantale, on: Elem, off: Elem) -> QRelation:
    """``on`` on the diagonal of X x X, ``off`` elsewhere."""
    t = amb.index_tables
    if t is not None:
        on, off = t.index[on], t.index[off]
    return _from_cells(X, X, amb, _diagonal_cells(len(X.members), on, off))


def id_top(X: FiniteSet, amb: Quantale) -> QRelation:
    """Tensor identity: the unit on the diagonal, bottom elsewhere."""
    return _diagonal(X, amb, amb.unit, amb.bottom)


def id_bot(X: FiniteSet, amb: Quantale) -> QRelation:
    """Par identity: the par unit on the diagonal, top elsewhere."""
    _require_par(amb)
    return _diagonal(X, amb, amb.par_unit, amb.top)


def _constant(X: FiniteSet, Y: FiniteSet, amb: Quantale, v: Elem) -> QRelation:
    t = amb.index_tables
    if t is not None:
        v = t.index[v]
    return _from_cells(X, Y, amb, (v,) * (len(X.members) * len(Y.members)))


def zero_relation(X: FiniteSet, Y: FiniteSet, amb: Quantale) -> QRelation:
    return _constant(X, Y, amb, amb.bottom)


def top_relation(X: FiniteSet, Y: FiniteSet, amb: Quantale) -> QRelation:
    return _constant(X, Y, amb, amb.top)


def _require_parallel(f: QRelation, g: QRelation) -> None:
    if not ((f.source is g.source or f.source == g.source)
            and (f.target is g.target or f.target == g.target)
            and (f.ambient is g.ambient or f.ambient == g.ambient)):
        raise MismatchError("relations are not parallel")


def _entrywise(amb: Quantale, op: str):
    """The lattice operation ``op`` ("join" or "meet") of ``amb``, entry
    by entry on parallel coded cells."""
    t = amb.index_tables
    if t is None:
        agg = getattr(amb.carrier, op)
        return lambda f, g: (f[0], f[1], tuple(agg((a, b)) for a, b in zip(f[2], g[2])))
    table = getattr(t, op)
    return lambda f, g: (f[0], f[1], tuple(map(getitem, map(table.__getitem__, f[2]), g[2])))


def _below(amb: Quantale):
    """Whether one coded cell lies entrywise below a parallel one."""
    t = amb.index_tables
    if t is None:
        leq = amb.leq
        return lambda f, g: all(map(leq, f[2], g[2]))
    table = t.leq
    return lambda f, g: all(map(getitem, map(table.__getitem__, f[2]), g[2]))


def rel_leq(f: QRelation, g: QRelation) -> bool:
    _require_parallel(f, g)
    return _below(f.ambient)(_coded(f), _coded(g))


def _pointwise(f: QRelation, g: QRelation, op: str) -> QRelation:
    _require_parallel(f, g)
    return _from_cells(f.source, f.target, f.ambient,
                       _entrywise(f.ambient, op)(_coded(f), _coded(g))[2])


def rel_join(f: QRelation, g: QRelation) -> QRelation:
    return _pointwise(f, g, "join")


def rel_meet(f: QRelation, g: QRelation) -> QRelation:
    return _pointwise(f, g, "meet")


def right_extension(f: QRelation, h: QRelation) -> QRelation:
    """Largest s with f (x) s <= h, for f: X->Y and h: X->Z; result Y->Z."""
    if f.source != h.source or f.ambient != h.ambient:
        raise MismatchError("right extension needs a common source")
    amb = f.ambient
    rr, mt = amb.res_right, amb.carrier.meet
    hcols = _columns(h)
    vals = tuple(tuple(mt(map(rr, fc, hc)) for hc in hcols)
                 for fc in _columns(f))
    return QRelation(f.target, h.target, amb, vals)


def right_lifting(h: QRelation, f: QRelation) -> QRelation:
    """Largest s with s (x) f <= h, for h: Z->Y and f: X->Y; result Z->X."""
    if f.target != h.target or f.ambient != h.ambient:
        raise MismatchError("right lifting needs a common target")
    amb = f.ambient
    rl, mt = amb.res_left, amb.carrier.meet
    vals = tuple(tuple(mt(map(rl, hrow, frow)) for frow in f.values)
                 for hrow in h.values)
    return QRelation(h.source, f.source, amb, vals)


def dual_family(X: FiniteSet, amb: Quantale, d: Elem | None = None) -> QRelation:
    """The dualizing endo-relation: d on the diagonal, lattice top off it."""
    if d is None:
        d = amb.dualizer
        if d is None:
            raise NotGirardError("no dualizer available for the dual family")
    return _diagonal(X, amb, amb.carrier.check(d), amb.top)


def rel_dual(r: QRelation, d: Elem | None = None) -> QRelation:
    """Entrywise residual into the dualizer, transposed."""
    amb = r.ambient
    if d is None:
        d = amb.dualizer
        if d is None:
            raise NotGirardError("relation dual needs a Girard ambient")
    rr, d = amb.res_right, amb.carrier.check(d)
    vals = tuple(tuple(rr(v, d) for v in col) for col in _columns(r))
    return QRelation(r.target, r.source, amb, vals)


def check_linear_adjoint(A: QRelation, B: QRelation) -> bool:
    """True iff id_top <= A par B and B (x) A <= id_bot, as 2-cells."""
    if A.source != B.target or A.target != B.source or A.ambient != B.ambient:
        raise MismatchError("candidate adjoint has the wrong boundary")
    _require_par(A.ambient)
    calc, a, b = coded_calculus(A.ambient), _coded(A), _coded(B)
    return all(law(calc, a, b) for law in ADJOINT_LAWS.values())


def girard_cyclic(r: QRelation, d: Elem) -> bool:
    """The right extension of r into the diagonal family of ``d`` equals
    the right lifting of that family through r."""
    ext = right_extension(r, dual_family(r.source, r.ambient, d))
    lift = right_lifting(dual_family(r.target, r.ambient, d), r)
    return ext.values == lift.values


def girard_double_dual(r: QRelation, d: Elem) -> bool:
    """Dualizing r twice against ``d`` gives r back."""
    return rel_dual(rel_dual(r, d), d).values == r.values


# ---------------------------------------------------------------------------
# Enumeration and sampling


def enumerate_relations(amb: Quantale, X: FiniteSet, Y: FiniteSet) -> Iterator[QRelation]:
    """All relations X->Y over a finite carrier, in element declaration order."""
    n = len(amb.index_tables.elements)
    for codes in product(range(n), repeat=len(X.members) * len(Y.members)):
        yield _made(X, Y, amb, codes)


def count_relations(amb: Quantale, X: FiniteSet, Y: FiniteSet) -> int | None:
    """Slot size for finite carriers, None when the carrier is infinite."""
    if not amb.carrier.is_finite:
        return None
    return len(amb.carrier.lattice.elements) ** (len(X) * len(Y))


def _cell_draw(rng, amb: Quantale, window: int = 10, inf_weight: float = 0.125):
    """A function drawing ``n`` cells from ``rng``: element indices over a
    finite carrier, elements over the extended integers."""
    t = amb.index_tables
    if t is not None:
        # ``randrange(n)`` draws exactly the index ``choice`` of the
        # elements would
        randrange, k = rng.randrange, len(t.elements)
        return lambda n: tuple([randrange(k) for _ in range(n)])

    def entry() -> Elem:
        u = rng.random()
        if u < inf_weight:
            return PLUS_INF
        if u < 2 * inf_weight:
            return MINUS_INF
        return rng.randint(-window, window)
    return lambda n: tuple([entry() for _ in range(n)])


def random_relation(rng, amb: Quantale, X: FiniteSet, Y: FiniteSet,
                    window: int = 10, inf_weight: float = 0.125) -> QRelation:
    return _from_cells(X, Y, amb, _cell_draw(rng, amb, window, inf_weight)(len(X) * len(Y)))


def sample_relation_tuples(amb: Quantale, sets: Sequence[FiniteSet],
                           sampler: Sampler, shape: str,
                           ) -> tuple[str, list[tuple[tuple, ...]], list[Sequence[int]]]:
    """Tuples of coded cells (see :func:`coded_calculus`), not relations,
    laid out by a law shape (see ``SHAPE_SLOTS``).

    A case's boundary is the set at each point of the shape, one of the
    ``len(sets) ** points`` in ``product`` order.  Exhaustive when the
    finite carrier keeps every slot under the per-slot cap and the full
    tuple count under the budget; otherwise seeded random, each case on a
    boundary drawn by its number.  Returns the sample mode label, the
    realized cases in draw order, and the draw indices of each boundary's
    cases, one group per boundary drawn, in order of first draw.
    """
    slots = SHAPE_SLOTS[shape]
    n_points = 1 + max(j for _, j in slots)

    def plan(bnd: Sequence[FiniteSet]) -> tuple:
        """The source, target and cell count of every slot."""
        return tuple((bnd[i], bnd[j], len(bnd[i].members) * len(bnd[j].members))
                     for i, j in slots)

    if sampler.mode == "exhaustive" and amb.carrier.is_finite:
        k = len(amb.index_tables.elements)
        plans, total = [], 0
        for bnd in product(sets, repeat=n_points):
            plans.append(plan(bnd))
            counts = [k ** n for _, _, n in plans[-1]]
            total += prod(counts)
            if max(counts) > sampler.slot_cap or total > sampler.tuple_budget:
                break
        else:
            cases, groups = [], []
            for p in plans:
                # parallel slots share one enumeration
                pools = {slot: [(X, Y, codes) for codes in product(range(k), repeat=n)]
                         for slot, (X, Y, n) in dict(zip(slots, p)).items()}
                start = len(cases)
                cases.extend(product(*(pools[slot] for slot in slots)))
                groups.append(range(start, len(cases)))
            return sampler.exhaustive_label(), cases, groups
    rng = sampler.rng()
    draw = _cell_draw(rng, amb, sampler.window, sampler.inf_weight)
    n_sets, cases = len(sets), []
    drawn: dict[int, tuple] = {}  # boundary number -> its plan and draw indices
    for i in range(sampler.count):
        number = rng.randrange(n_sets ** n_points)
        if number not in drawn:
            # the boundary's number in mixed radix, the first point first
            digits = [number // n_sets ** e % n_sets for e in range(n_points - 1, -1, -1)]
            drawn[number] = plan([sets[d] for d in digits]), []
        p, group = drawn[number]
        group.append(i)
        cases.append(tuple([(X, Y, draw(n)) for X, Y, n in p]))
    return sampler.random_label(), cases, [group for _, group in drawn.values()]


# ---------------------------------------------------------------------------
# Law suite on coded cells


def _memo(kernel):
    """``kernel`` remembering the cells of each composite by value.  The
    middle set's size and the operands' cells fix the shape, unless the
    middle set is empty: those composites are not remembered."""
    memo = {}

    def composed(f: tuple, g: tuple) -> tuple:
        ny = len(f[1].members)
        if not ny:
            return kernel(f, g)
        key = ny, f[2], g[2]
        cells = memo.get(key)
        if cells is None:
            cells = memo[key] = kernel(f, g)[2]
        return f[0], g[1], cells
    return composed


def _cells_calculus(amb: Quantale, code, **ops) -> Calculus:
    """A calculus on cells ``(source, target, entries)`` whose identities
    and extreme cells hold the constants of ``amb`` as ``code`` gives
    them; ``ops`` are its compositions and 2-cell structure."""
    bottom, top, unit = code(amb.bottom), code(amb.top), code(amb.unit)
    par_unit = code(amb.par_unit) if amb.has_par else None

    def constant(v):
        return lambda f, X, Y: (X, Y, (v,) * (len(X.members) * len(Y.members)))

    return Calculus(
        id_top=lambda f, X: (X, X, _diagonal_cells(len(X.members), unit, bottom)),
        id_bot=lambda f, X: (X, X, _diagonal_cells(len(X.members), par_unit, top)),
        zero=constant(bottom), top=constant(top),
        source=itemgetter(0), target=itemgetter(1), **ops)


def coded_calculus(amb: Quantale) -> Calculus:
    """Relations over ``amb`` as ``(source, target, cells)``, with the
    cells of :func:`_cells`: element indices over a finite carrier, the
    elements over the extended integers.  The compositions, joins, meets
    and order are the kernels the relation operations run; like the laws,
    they assume that their cells compose or are parallel.  Each calculus
    remembers its compositions (:func:`_memo`) for as long as it lives."""
    t = amb.index_tables
    return _cells_calculus(
        amb, (lambda v: v) if t is None else t.index.__getitem__,
        tensor=_memo(_kernel(amb, "tensor")),
        par=_memo(_kernel(amb, "par")) if amb.has_par else lambda f, g: _require_par(amb),
        join=_entrywise(amb, "join"), meet=_entrywise(amb, "meet"),
        leq=_below(amb), eq=lambda f, g: f[2] == g[2])


def _fold_columns(width: int, blocks, fold, empty, f: tuple, g: tuple) -> tuple:
    """The column cell X->Z of column cells ``f``: X->Y and ``g``: Y->Z,
    folding (``fold``) blocks of at most ``width`` middle members:
    ``blocks(w)`` gives the numbering of ``w``-vectors (None for one
    member, whose entries number themselves) and the lookup of a block's
    product.  Each row's and column's block is numbered once per block,
    then each output entry is one lookup."""
    X, Y, fc = f
    Z, gc = g[1], g[2]
    nx, ny, nz = len(X.members), len(Y.members), len(Z.members)
    acc = None
    for start, w in _spans(ny, width):
        number, lookup = blocks(w)
        if number is None:
            us, vs = fc[start::ny], gc[start * nz:(start + 1) * nz]
        else:
            us = [fc[i:i + w] for i in range(start, nx * ny, ny)]
            vs = [gc[start * nz + z:(start + w) * nz:nz] for z in range(nz)]
            # a block of columns has a number per case, a block of codes one
            get = number.__getitem__
            us = [list(map(get, zip(*u))) for u in us] if fc and fc[0].__class__ is list \
                else list(map(get, us))
            vs = [list(map(get, zip(*v))) for v in vs] if gc and gc[0].__class__ is list \
                else list(map(get, vs))
        block = [lookup(u, v) for u in us for v in vs]
        acc = block if acc is None else list(map(fold, acc, block))
    return X, Z, (empty,) * (nx * nz) if acc is None else tuple(acc)


def column_calculus(amb: Quantale) -> Calculus:
    """Cases sharing a boundary as one cell ``(source, target, entries)``
    whose entries are columns: lists of one :func:`~linrel.quantale.scalar_codec`
    code per case, computed with :func:`~linrel.quantale.scalar_calculus`'s
    column operations, so that a law holds on the cell when it holds on
    every case.  Constant cells hold one code per entry; a cell's entries
    are all columns or all codes.  A finite composition numbers the blocks
    of the index tables (:func:`_fold_columns`); over the extended integers
    it folds one middle member at a time.  Nothing is remembered.
    """
    sc = scalar_calculus(amb)
    t = amb.index_tables

    def composition(op: str, fold, empty):
        @cache
        def blocks(w: int) -> tuple:
            if w == 1:
                return None, getattr(sc, op)
            number, tables = t.blocks[w]
            return number, _table_cells(tables[op])
        return partial(_fold_columns, 1 if t is None else t.width, blocks, fold, empty)

    def entrywise(op):
        return lambda f, g: (f[0], f[1], tuple(map(op, f[2], g[2])))

    return _cells_calculus(
        amb, scalar_codec(amb)[0],
        tensor=composition("tensor", sc.join, sc.zero()),
        par=composition("par", sc.meet, sc.top()) if amb.has_par
        else lambda f, g: _require_par(amb),
        join=entrywise(sc.join), meet=entrywise(sc.meet),
        leq=lambda f, g: all(map(sc.leq, f[2], g[2])),
        eq=lambda f, g: all(map(_cells_eq, f[2], g[2])))


def _shrink_case(amb: Quantale, case: tuple, holds) -> tuple:
    """Greedy witness minimization of a failing case of coded cells, for
    which ``holds(*case)`` is false: drop set members, then lower entries."""

    def restrict(cell: tuple, victim: FiniteSet, keep: tuple[int, ...]) -> tuple:
        src, tgt, cells = cell
        rows = _rows(cells, len(src.members), len(tgt.members))
        if src == victim:
            src = FiniteSet(src.name, tuple(src.members[i] for i in keep))
            rows = tuple(rows[i] for i in keep)
        if tgt == victim:
            tgt = FiniteSet(tgt.name, tuple(tgt.members[i] for i in keep))
            rows = tuple(tuple(row[i] for i in keep) for row in rows)
        return src, tgt, tuple(chain.from_iterable(rows))

    changed = True
    while changed:
        changed = False
        seen: list[FiniteSet] = []
        for cell in case:
            for s in cell[:2]:
                if s not in seen and len(s) > 1:
                    seen.append(s)
        for victim in seen:
            for drop in range(len(victim)):
                keep = tuple(i for i in range(len(victim)) if i != drop)
                # every set equal to the victim shrinks: the candidate composes
                candidate = tuple(restrict(c, victim, keep) for c in case)
                if not holds(*candidate):
                    case = candidate
                    changed = True
                    break
            if changed:
                break

    # Lower each entry, in row-major order, to the first element below it
    # that keeps the case failing: indices in declaration order over a
    # finite carrier, minus infinity then zero over the extended integers.
    t = amb.index_tables
    if t is not None:
        lows, leq = range(len(t.elements)), lambda a, b: t.leq[a][b]
    else:
        lows, leq = (MINUS_INF, 0), amb.leq
    changed = True
    while changed:
        changed = False
        for ri, (X, Y, cells) in enumerate(case):
            for k, cur in enumerate(cells):
                for low in lows:
                    if low == cur or not leq(low, cur):
                        continue
                    cand_cells = cells[:k] + (low,) + cells[k + 1:]
                    candidate = case[:ri] + ((X, Y, cand_cells),) + case[ri + 1:]
                    if not holds(*candidate):
                        case, cells = candidate, cand_cells
                        changed = True
                        break
    return case


def _relations(amb: Quantale, case: tuple) -> tuple[QRelation, ...]:
    """The relations of a case of coded cells."""
    return tuple(_from_cells(X, Y, amb, cells) for X, Y, cells in case)


def _case_witness(amb: Quantale, case: tuple) -> dict:
    """The witness of a case of coded cells, its relations decoded."""
    wit: dict[str, Any] = {"sets": {}}
    for cell in case:
        for s in cell[:2]:
            wit["sets"].setdefault(s.name, list(s.members))
    for name, rel in zip("fgh", _relations(amb, case)):
        wit[name] = {
            "source": rel.source.name,
            "target": rel.target.name,
            "values": [list(row) for row in rel.values],
        }
    return wit


# A boundary group of at least this many cases is checked as one column
# cell per slot (:func:`column_calculus`); a smaller one case by case on the
# coded calculus, whose memo serves repeated compositions.  A column costs
# more per call than one case and pays for itself from about 8 cases: on a
# 2-vCPU host, the diamond's tensor associativity on 3-member sets took
# 20 us per case against 35 us on columns at 4 cases, 20 against 21 at 8,
# 20 against 15 at 16 and 20 against 9 at 64.  Random draws at max-set 3
# have about one case per boundary.
_COLUMN_CASES = 8


def _column_groups(amb: Quantale, cases: list, groups: list) -> tuple[list, list]:
    """The draw indices of the cases of groups below ``_COLUMN_CASES``, in
    draw order, and each larger group's draw indices with its cases as
    column cells, one per slot."""
    encode = scalar_codec(amb)[0]
    column = list if amb.index_tables is not None else lambda e: list(map(encode, e))
    single, columns = [], []
    for group in groups:
        if len(group) < _COLUMN_CASES:
            single.extend(group)
            continue
        members = [cases[i] for i in group]
        columns.append((group, tuple(
            (X, Y, tuple(map(column, zip(*[case[s][2] for case in members]))))
            for s, (X, Y, _) in enumerate(members[0]))))
    return sorted(single), columns


def _first_witness(amb: Quantale, cases: list, holds, single: Sequence[int] | None = None,
                   columns: Sequence = (), holds_columns=None) -> dict | None:
    """The shrunk witness of the case of smallest draw index on which
    ``holds`` fails: the ``single`` cases (all of them by default) are
    scanned in draw order, and a group of ``columns`` on which
    ``holds_columns`` fails is rescanned case by case."""
    if single is None:
        single = range(len(cases))
    first = next((i for i in single if not holds(*cases[i])), None)
    for group, cells in columns:
        if (first is None or group[0] < first) and not holds_columns(*cells):
            i = next(i for i in group if not holds(*cases[i]))
            first = i if first is None else min(first, i)
    return None if first is None else \
        _case_witness(amb, _shrink_case(amb, cases[first], holds))


def verify_qrel_laws(amb: Quantale, sets: Sequence[FiniteSet], sampler: Sampler,
                     suite: str = "qrel-laws",
                     labels: Sequence[str] | None = None) -> LawReport:
    """Run the linear-quantaloid law suite on sampled relation tuples.

    Every law of one shape reads the same draw: the sampler is seeded
    afresh per draw, so drawing it again would repeat the same cases.
    The laws run on the draw's coded cells, through one calculus whose
    compositions the laws and the shrinker share; only the witness is
    decoded.  Cases that share a boundary, at least ``_COLUMN_CASES`` of
    them, are checked as one column cell per slot (:func:`column_calculus`)
    and rescanned case by case only when the column fails, so the witness
    is still the first failing case in draw order and the report bytes are
    those of the case-by-case scan.
    """
    _require_par(amb)
    if labels is None:
        labels = tuple(LAWS)
    calc, column_calc = coded_calculus(amb), None
    draws: dict[str, tuple] = {}
    entries = []
    for label in labels:
        shape, law = LAWS[label]
        if shape not in draws:
            mode, cases, groups = sample_relation_tuples(amb, sets, sampler, shape)
            draws[shape] = mode, cases, *_column_groups(amb, cases, groups)
        mode, cases, single, columns = draws[shape]
        if columns and column_calc is None:
            column_calc = column_calculus(amb)
        holds = law(calc)
        entries.append(law_entry(label, _first_witness(
            amb, cases, holds, single, columns, law(column_calc) if columns else None), mode))
    return LawReport(suite, tuple(entries))


def check_girard_qrel(amb: Quantale, sets: Sequence[FiniteSet], sampler: Sampler,
                      d: Elem | None = None,
                      suite: str = "girard-qrel") -> LawReport:
    """Cyclicity and double-dual of the diagonal dualizing family."""
    if d is None:
        d = amb.dualizer
        if d is None:
            raise NotGirardError("check needs a dualizer")
    mode, cases, _ = sample_relation_tuples(amb, sets, sampler, "chain1")
    entries = []
    # the checks read residuals, so each decodes the cell it tests
    for label, check in (("girard-cyclic", girard_cyclic),
                         ("girard-double-dual", girard_double_dual)):
        wit = _first_witness(amb, cases, lambda *case, check=check:
                             check(*_relations(amb, case), d))
        entries.append(law_entry(label, wit and {**wit, "dualizer": d}, mode))
    return LawReport(suite, tuple(entries))


def transfer_quantale_witness(amb: Quantale, label: str, witness: dict) -> tuple[bool, dict]:
    """Replay a quantale-law failure as one-point relations.

    Element witnesses carry the law's keys (see ``WITNESS_KEYS``); the
    corresponding relation law is evaluated on 1x1 constant relations over
    a singleton set, as coded cells.  Returns the law outcome and the
    constructed relation witness.
    """
    point = FiniteSet("pt", ("*",))
    case = tuple(_coded(QRelation(point, point, amb, ((witness[k],),)))
                 for k in WITNESS_KEYS[label])
    return LAWS[label][1](coded_calculus(amb))(*case), _case_witness(amb, case)


# ---------------------------------------------------------------------------
# JSON interface


def relation_to_json(r: QRelation) -> dict:
    return {
        "source": {"name": r.source.name, "members": list(r.source.members)},
        "target": {"name": r.target.name, "members": list(r.target.members)},
        "values": [list(row) for row in r.values],
    }


def relation_from_json(obj: dict, amb: Quantale) -> QRelation:
    try:
        src = finite_set(obj["source"]["name"], obj["source"]["members"])
        tgt = finite_set(obj["target"]["name"], obj["target"]["members"])
        rows = obj["values"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"relation file is missing field: {exc}") from None
    return relation(src, tgt, amb, rows)
