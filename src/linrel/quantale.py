"""Quantale structures on finite lattices and on the extended integers.

Two backends share one interface: finite multiplication tables over a
:class:`~linrel.lattice.FiniteLattice`, and closed-form saturating
addition on the extended integers.  The max-plus structure lives on the
usual order; its min-plus companion is represented as a quantale on the
opposite order rather than a separate backend, so one code path serves
both views.  One :class:`Quantale` type covers the plain, LD and Girard
structures: an optional par multiplication on the opposite order, and an
optional dualizer from which that par is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import product, repeat
from operator import add, ge, getitem, le
from typing import Any, Callable, Iterable, Sequence

from .errors import (
    InputFormatError,
    MonoidError,
    NoParStructureError,
    NotGirardError,
    StructureError,
    UnknownElementError,
)
from .lattice import FiniteLattice, build_lattice
from .laws import LAWS, WITNESS_KEYS, Calculus, sides
from .report import LAW_GROUPS, LawReport, law_entry

Elem = Any  # str for finite carriers, int or an infinity marker for ZInt

PLUS_INF = "+inf"
MINUS_INF = "-inf"
_INFS = (MINUS_INF, PLUS_INF)


def zint_valid(v: object) -> bool:
    """An infinity or an exact ``int``: the kernels read any other value,
    a ``bool`` or another ``int`` subclass included, as an infinity."""
    return v.__class__ is int or v in _INFS


def zint_leq(a: Elem, b: Elem) -> bool:
    """Comparison in the usual order, minus infinity at the bottom."""
    if a == b or a == MINUS_INF or b == PLUS_INF:
        return True
    if a == PLUS_INF or b == MINUS_INF:
        return False
    return a <= b


def _zint_extreme(absorbing: str, empty: str, pick, items: Iterable[Elem]) -> Elem:
    """``pick`` of the integers among ``items``; ``absorbing`` wins outright,
    and ``empty`` stands for no integers at all."""
    ints = []
    for v in items:
        if v.__class__ is int:
            ints.append(v)
        elif v == absorbing:
            return absorbing
    return pick(ints) if ints else empty


@dataclass(frozen=True)
class FiniteCarrier:
    lattice: FiniteLattice

    is_finite = True

    def check(self, v: Elem) -> Elem:
        if v not in self.lattice:
            raise UnknownElementError(f"unknown element {v!r}")
        return v

    def leq(self, a: Elem, b: Elem) -> bool:
        return self.lattice.leq(a, b)

    def join(self, items: Iterable[Elem]) -> Elem:
        return self.lattice.join(items)

    def meet(self, items: Iterable[Elem]) -> Elem:
        return self.lattice.meet(items)

    @property
    def bottom(self) -> Elem:
        return self.lattice.bottom

    @property
    def top(self) -> Elem:
        return self.lattice.top

    def sample_elements(self, window: int = 10) -> list[Elem]:
        return list(self.lattice.elements)

    def opposite(self) -> "FiniteCarrier":
        return FiniteCarrier(self.lattice.opposite())


@dataclass(frozen=True)
class ZIntCarrier:
    """The extended integers, in the usual order or its reverse."""

    reverse: bool = False

    is_finite = False

    def check(self, v: Elem) -> Elem:
        if not zint_valid(v):
            raise UnknownElementError(f"not an extended integer: {v!r}")
        return v

    def leq(self, a: Elem, b: Elem) -> bool:
        return zint_leq(b, a) if self.reverse else zint_leq(a, b)

    # Closed-form lattice operations on validated elements: max or min of
    # the integers, unless the absorbing infinity occurs.
    @cached_property
    def join(self) -> Callable[[Iterable[Elem]], Elem]:
        return partial(_zint_extreme, self.top, self.bottom,
                       min if self.reverse else max)

    @cached_property
    def meet(self) -> Callable[[Iterable[Elem]], Elem]:
        return partial(_zint_extreme, self.bottom, self.top,
                       max if self.reverse else min)

    @property
    def bottom(self) -> Elem:
        return PLUS_INF if self.reverse else MINUS_INF

    @property
    def top(self) -> Elem:
        return MINUS_INF if self.reverse else PLUS_INF

    def sample_elements(self, window: int = 10) -> list[Elem]:
        return [MINUS_INF, *range(-window, window + 1), PLUS_INF]

    def opposite(self) -> "ZIntCarrier":
        return ZIntCarrier(not self.reverse)


@dataclass(frozen=True)
class TableOp:
    """A finite multiplication, row-major over the carrier's element order."""

    table: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ZIntOp:
    """Saturating addition on the extended integers.

    ``dominant`` names the infinity that wins mixed sums; ``shift`` is
    subtracted from every finite sum, so the unit becomes ``shift``.
    """

    dominant: str
    shift: int = 0

    # Both kernels are unchecked: a non-int that is not ``dominant`` reads
    # as the other infinity, so callers validate their elements first.

    def apply(self, a: Elem, b: Elem) -> Elem:
        if a.__class__ is int and b.__class__ is int:
            return a + b - self.shift
        dom = self.dominant
        if a == dom or b == dom:
            return dom
        return PLUS_INF if dom == MINUS_INF else MINUS_INF

    def residual(self, a: Elem, b: Elem) -> Elem:
        """The largest c with a (x) c <= b, when ``dominant`` is the bottom."""
        if a.__class__ is int and b.__class__ is int:
            return b - a + self.shift
        bot = self.dominant
        top = PLUS_INF if bot == MINUS_INF else MINUS_INF
        return top if a == bot or b == top else bot


# Relation composition folds the middle set in blocks no wider than the
# carrier has at most this many index vectors of, so that a block table
# holds at most its square.
_BLOCK_VECTORS = 64


@dataclass(frozen=True)
class IndexTables:
    """A finite carrier's relation calculus on element indices.

    ``tensor[a][b]`` and ``par[a][b]`` (None without a par) are the
    indices of the products of elements ``a`` and ``b``, the same tables
    as the coded view of the one-object quantaloid; ``join``, ``meet`` and
    ``leq`` are the lattice's own tables.  Nothing here refers back to the
    ambient structure.

    A composition folds products over the middle set in blocks of at most
    ``width`` entries (the widest with at most ``_BLOCK_VECTORS`` index
    vectors): the block of a row and the block of a column are numbered
    as vectors, and one lookup in a table of ``blocks`` folds their
    products.
    """

    elements: tuple[str, ...]
    index: dict[str, int]
    tensor: tuple[tuple[int, ...], ...]
    par: tuple[tuple[int, ...], ...] | None
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]
    bottom: int
    top: int
    width: int
    blocks: _Blocks = field(repr=False, compare=False)


class _Blocks(dict):
    """``blocks[w]``, built on first use: the number of each ``w``-tuple
    of indices in product order, and for each op ("tensor", "par") the
    table whose entry ``[u][v]`` is the join (meet for "par") of the op's
    products of the entries of the vectors numbered ``u`` and ``v``,
    folded from the left."""

    def __init__(self, n: int, ops: dict[str, tuple[tuple, tuple]]) -> None:
        super().__init__()
        self.n, self.ops = n, ops  # op -> (product table, fold table)

    def __missing__(self, width: int) -> tuple[dict, dict[str, tuple]]:
        n = self.n
        if width == 1:
            tables = {op: prod for op, (prod, _) in self.ops.items()}
        else:
            prev = self[width - 1][1]
            tables = {op: tuple(tuple(fold[prev[op][u // n][v // n]][prod[u % n][v % n]]
                                      for v in range(n ** width))
                                for u in range(n ** width))
                      for op, (prod, fold) in self.ops.items()}
        vectors = product(range(n), repeat=width)
        self[width] = entry = {v: i for i, v in enumerate(vectors)}, tables
        return entry


def _kernel(op: TableOp | ZIntOp, by_name: dict | None) -> Callable[[Elem, Elem], Elem]:
    """The unchecked product of ``op``: its closed form on ZInt, otherwise
    a lookup in its name table ``by_name``."""
    if isinstance(op, ZIntOp):
        return op.apply
    return lambda a, b: by_name[a][b]


def _by_name(carrier, op: TableOp | ZIntOp | None) -> dict | None:
    """The name-to-name table of ``op``, or None unless it is a table."""
    if not isinstance(op, TableOp):
        return None
    els = carrier.lattice.elements
    return {a: dict(zip(els, row)) for a, row in zip(els, op.table)}


def _lattice_map(carrier, join: bool) -> dict | None:
    """The lattice's binary join (or meet) by name, or None on ZInt carriers."""
    if not carrier.is_finite:
        return None
    lattice = carrier.lattice
    els, rows = lattice.elements, lattice.join_table if join else lattice.meet_table
    return {a: {b: els[k] for b, k in zip(els, row)} for a, row in zip(els, rows)}


@dataclass(frozen=True)
class Quantale:
    """A carrier with an associative, join-preserving multiplication.

    An LD-quantale adds ``par_op``, a second multiplication on the opposite
    order with unit ``par_unit``, so its joins are the original meets and
    both multiplications are checked by the same quantale-law code, each
    against its own orientation.  A Girard quantale is the LD-quantale
    whose par is derived from the cyclic dualizing element ``dualizer``
    (see :func:`girard_quantale`).
    """

    carrier: FiniteCarrier | ZIntCarrier
    op: TableOp | ZIntOp
    unit: Elem
    par_op: TableOp | ZIntOp | None = None
    par_unit: Elem = None
    dualizer: Elem = None

    @property
    def has_par(self) -> bool:
        return self.par_op is not None

    # -- order, from the carrier -----------------------------------------

    def leq(self, a: Elem, b: Elem) -> bool:
        return self.carrier.leq(a, b)

    def join(self, items: Iterable[Elem]) -> Elem:
        return self.carrier.join(items)

    def meet(self, items: Iterable[Elem]) -> Elem:
        return self.carrier.meet(items)

    @property
    def bottom(self) -> Elem:
        return self.carrier.bottom

    @property
    def top(self) -> Elem:
        return self.carrier.top

    def sample_elements(self, window: int = 10) -> list[Elem]:
        return self.carrier.sample_elements(window)

    # -- multiplications and residuals -----------------------------------
    # ``tensor``, ``par`` and the residuals validate their arguments; the
    # kernels ``mul``, ``par_mul``, ``res_right`` and ``res_left`` trust
    # them, for callers that validated their elements once at the boundary.
    # Finite residuals still scan the carrier, checked, until they get
    # tables of their own.

    def tensor(self, a: Elem, b: Elem) -> Elem:
        check = self.carrier.check
        return self.mul(check(a), check(b))

    def par(self, a: Elem, b: Elem) -> Elem:
        if self.par_op is None:
            raise NoParStructureError("quantale has no par structure")
        check = self.carrier.check
        return self.par_mul(check(a), check(b))

    def residual_right(self, a: Elem, b: Elem) -> Elem:
        """The largest c with a (x) c <= b."""
        check = self.carrier.check
        a, b = check(a), check(b)
        if isinstance(self.op, ZIntOp):
            return self._zint_residual(a, b)
        tm = self.tensor_map
        return self.join(c for c in self.carrier.sample_elements()
                         if self.leq(tm[a][c], b))

    def residual_left(self, b: Elem, a: Elem) -> Elem:
        """The largest c with c (x) a <= b."""
        check = self.carrier.check
        a, b = check(a), check(b)
        if isinstance(self.op, ZIntOp):
            # saturating addition is commutative
            return self._zint_residual(a, b)
        tm = self.tensor_map
        return self.join(c for c in self.carrier.sample_elements()
                         if self.leq(tm[c][a], b))

    def neg(self, a: Elem) -> Elem:
        """Linear negation: the residual of the dualizer."""
        if self.dualizer is None:
            raise NotGirardError("negation needs a dualizer")
        return self.residual_right(a, self.dualizer)

    @cached_property
    def mul(self) -> Callable[[Elem, Elem], Elem]:
        return _kernel(self.op, self.tensor_map)

    @cached_property
    def par_mul(self) -> Callable[[Elem, Elem], Elem] | None:
        """The par kernel, or None without a par."""
        return None if self.par_op is None else _kernel(self.par_op, self.par_map)

    # Plain properties: caching a bound method of self on self would make
    # a reference cycle.
    @property
    def res_right(self) -> Callable[[Elem, Elem], Elem]:
        if isinstance(self.op, ZIntOp):
            return self._zint_residual
        return self.residual_right

    @property
    def res_left(self) -> Callable[[Elem, Elem], Elem]:
        if isinstance(self.op, ZIntOp):
            res = self._zint_residual
            return lambda b, a: res(a, b)
        return self.residual_left

    @cached_property
    def _zint_residual(self) -> Callable[[Elem, Elem], Elem]:
        if self.op.dominant == self.carrier.bottom:
            return self.op.residual

        def refuse(a: Elem, b: Elem) -> Elem:
            raise StructureError(
                "closed-form residual needs the absorbing infinity "
                "at the bottom of the order"
            )
        return refuse

    # -- lookup tables for hot composition loops -------------------------
    # Nested name-to-name tables, or None for ZInt backends.

    @cached_property
    def tensor_map(self) -> dict | None:
        return _by_name(self.carrier, self.op)

    @cached_property
    def par_map(self) -> dict | None:
        return _by_name(self.carrier, self.par_op)

    @cached_property
    def join_map(self) -> dict | None:
        return _lattice_map(self.carrier, True)

    @cached_property
    def meet_map(self) -> dict | None:
        return _lattice_map(self.carrier, False)

    @cached_property
    def index_tables(self) -> IndexTables | None:
        """The carrier's operations on element indices, built on first
        use, or None for ZInt backends."""
        if not self.carrier.is_finite:
            return None
        lattice = self.carrier.lattice
        els, index = lattice.elements, lattice._index

        def code(mul: Callable[[Elem, Elem], Elem]) -> tuple[tuple[int, ...], ...]:
            return tuple(tuple(index[mul(a, b)] for b in els) for a in els)

        # a one-element carrier stops at the width of a two-element one
        width = 1
        while len(els) ** (width + 1) <= _BLOCK_VECTORS and 2 ** width < _BLOCK_VECTORS:
            width += 1
        tensor = code(self.mul)
        par = code(self.par_mul) if self.has_par else None
        ops = {"tensor": (tensor, lattice.join_table)}
        if par is not None:
            ops["par"] = (par, lattice.meet_table)
        return IndexTables(
            els, index, tensor, par,
            lattice.join_table, lattice.meet_table, lattice.leq_matrix,
            index[lattice.bottom], index[lattice.top], width,
            _Blocks(len(els), ops))


def _table_op(lattice: FiniteLattice, table: Sequence[Sequence[str]],
              name: str = "tensor") -> TableOp:
    """Validate a square table of elements over ``lattice``."""
    if not isinstance(table, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in table):
        raise InputFormatError(f"{name} table must be a list of row lists")
    n = len(lattice)
    rows = tuple(tuple(row) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InputFormatError(f"{name} table must be square over the elements")
    for row in rows:
        for v in row:
            if v not in lattice:
                raise UnknownElementError(f"table entry {v!r} is not an element")
    return TableOp(rows)


def _check_unit(lattice: FiniteLattice, unit: str) -> str:
    if unit not in lattice:
        raise UnknownElementError(f"unit {unit!r} is not an element")
    return unit


def table_quantale(lattice: FiniteLattice, table: Sequence[Sequence[str]],
                   unit: str) -> Quantale:
    """Validate shapes and element membership, then wrap the table."""
    return Quantale(carrier=FiniteCarrier(lattice), op=_table_op(lattice, table),
                    unit=_check_unit(lattice, unit))


def tropical_quantale() -> Quantale:
    """Extended integers, usual order, saturating addition with -inf dominant."""
    return Quantale(carrier=ZIntCarrier(False), op=ZIntOp(MINUS_INF, 0), unit=0)


def arctic_quantale() -> Quantale:
    """Extended integers on the opposite order, +inf dominant."""
    return Quantale(carrier=ZIntCarrier(True), op=ZIntOp(PLUS_INF, 0), unit=0)


def opposite_quantale(q: Quantale) -> Quantale:
    """Swap tensor with par and reverse the order; an involution on
    LD-quantales.  The result carries no dualizer."""
    if q.par_op is None:
        raise NoParStructureError("the opposite quantale needs a par structure")
    return Quantale(carrier=q.carrier.opposite(), op=q.par_op, unit=q.par_unit,
                    par_op=q.op, par_unit=q.unit)


# ---------------------------------------------------------------------------
# Girard structure


def _validated(q, sample: Sequence[Elem] | None, window: int = 10) -> list[Elem]:
    """The sample (default: the carrier's), every element checked once."""
    if sample is None:
        return q.sample_elements(window)
    check = q.carrier.check
    return [check(v) for v in sample]


def is_cyclic_dualizing(q: Quantale, d: Elem,
                        sample: Sequence[Elem] | None = None) -> bool:
    """True iff both residuations into d agree and double negation is identity."""
    q.carrier.check(d)
    return _dualizer_failure(q, d, _validated(q, sample)) is None


def _dualizer_failure(q: Quantale, d: Elem,
                      sample: Sequence[Elem]) -> tuple[str, Elem] | None:
    """The first failure of ``d`` on an already validated ``d`` and sample:
    ``("cyclic", a)`` when the two residuals of ``a`` into ``d`` differ,
    ``("double-dual", a)`` when ``a`` is not its own double dual; None
    when ``d`` is cyclic dualizing on the sample."""
    rr, rl = q.res_right, q.res_left
    for a in sample:
        if rl(d, a) != rr(a, d):
            return "cyclic", a
        if rr(rr(a, d), d) != a:
            return "double-dual", a
    return None


def find_dualizers(q: Quantale,
                   sample: Sequence[Elem] | None = None) -> tuple[Elem, ...]:
    """Scan candidate elements; empty result means no Girard structure found."""
    sample = _validated(q, sample)
    return tuple(d for d in sample if _dualizer_failure(q, d, sample) is None)


def with_dualizer(q: Quantale, d: Elem) -> Quantale:
    """The Girard quantale on ``q``'s tensor with dualizer ``d``, unchecked
    (:func:`girard_quantale` checks ``d`` first).  Its par is the De Morgan
    dual multiplication neg(neg(b) (x) neg(a)), derived once: as a table on
    a finite carrier, and in closed form on the extended integers, where it
    is saturating addition shifted by ``d`` with the other infinity
    dominant."""
    d = q.carrier.check(d)
    if q.carrier.is_finite:
        els, mul, rr = q.carrier.lattice.elements, q.mul, q.res_right
        neg = {a: rr(a, d) for a in els}
        par = TableOp(tuple(tuple(neg[mul(neg[b], neg[a])] for b in els)
                            for a in els))
    else:
        par = ZIntOp(PLUS_INF if q.op.dominant == MINUS_INF else MINUS_INF, d)
    return replace(q, par_op=par, par_unit=d, dualizer=d)


def girard_quantale(base: Quantale, dualizer: Elem,
                    sample: Sequence[Elem] | None = None) -> Quantale:
    if not is_cyclic_dualizing(base, dualizer, sample):
        raise NotGirardError(f"{dualizer!r} is not a cyclic dualizing element")
    return with_dualizer(base, dualizer)


# ---------------------------------------------------------------------------
# Law suites


def _const(v: Elem) -> Callable[..., Elem]:
    return lambda *_: v


_ZINF_CODES = {MINUS_INF: float("-inf"), PLUS_INF: float("inf")}
_ZINF_NAMES = {code: name for name, code in _ZINF_CODES.items()}


def scalar_codec(amb: Quantale) -> tuple[Callable[[Elem], Any], Callable[[Any], Elem]]:
    """``(encode, decode)`` between validated elements of ``amb`` and the
    codes of its scalar calculus: ``IndexTables`` indices on a finite
    carrier; on the extended integers the integers themselves, with the
    infinities as the float infinities, so that the order is the order of
    Python numbers."""
    if amb.carrier.is_finite:
        t = amb.index_tables
        return t.index.__getitem__, t.elements.__getitem__
    return (lambda v: _ZINF_CODES.get(v, v)), (lambda c: _ZINF_NAMES.get(c, c))


# A cell of the scalar calculus is one code or a column: a list of codes.
# Each operation takes any mix of the two, and a column result holds the
# operation of its entries, position by position, so one call checks a law
# on a whole column of cases.


def _table_cells(rows: Sequence[Sequence]) -> Callable[[Any, Any], Any]:
    """The binary operation of a table indexed by codes."""
    cols = tuple(zip(*rows))

    def op(a, b):
        if a.__class__ is list:
            if b.__class__ is list:
                return list(map(getitem, map(rows.__getitem__, a), b))
            return list(map(cols[b].__getitem__, a))
        if b.__class__ is list:
            return list(map(rows[a].__getitem__, b))
        return rows[a][b]
    return op


def _pointwise_cells(f: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """``f`` on two codes, mapped over columns."""
    def op(a, b):
        if a.__class__ is list:
            return list(map(f, a, b if b.__class__ is list else repeat(b)))
        if b.__class__ is list:
            return list(map(f, repeat(a), b))
        return f(a, b)
    return op


def _zint_cells(op: ZIntOp) -> Callable[[Any, Any], Any]:
    """Saturating addition on codes: a finite scalar shifts a column by
    one C-level ``add``; the dominant infinity absorbs it; the other
    infinity absorbs every entry but the dominant one."""
    dom, shift = _ZINF_CODES[op.dominant], op.shift
    other = -dom
    keep_dom = {dom: dom}.get

    def on_codes(a, b):
        if a.__class__ is int and b.__class__ is int:
            return a + b - shift
        return dom if a == dom or b == dom else other

    def mul(a, b):
        if a.__class__ is list:
            if b.__class__ is list:
                return list(map(on_codes, a, b))
            a, b = b, a  # saturating addition is commutative
        elif b.__class__ is not list:
            return on_codes(a, b)
        # a code times the column b
        if a.__class__ is int:
            return list(map(add, repeat(a - shift), b))
        if a == dom:
            return [dom] * len(b)
        return list(map(keep_dom, b, repeat(other)))
    return mul


def _cells_eq(a, b) -> bool:
    """Equality of cells: every entry of a column equals the other side."""
    if a.__class__ is list:
        return a == b if b.__class__ is list else a.count(b) == len(a)
    if b.__class__ is list:
        return b.count(a) == len(b)
    return a == b


def _all_of(test: Callable[[Any, Any], Any]) -> Callable[[Any, Any], bool]:
    """A pointwise test on cells, true when it holds at every entry."""
    def holds(a, b) -> bool:
        got = test(a, b)
        return all(got) if got.__class__ is list else got
    return holds


def scalar_calculus(amb: Quantale) -> Calculus:
    """Elements as the 1-cells of the one-object bicategory of ``amb``, on
    the codes of :func:`scalar_codec`.

    A cell is a code or a column of codes.  The identities and extreme
    cells are constant codes; the multiplications, ``join``, ``meet`` and
    ``leq`` read the ``IndexTables`` rows and columns on finite carriers,
    and on the extended integers, which form a chain, they are saturating
    addition and Python's ``max``, ``min`` and comparisons.  ``par`` is
    absent (None) when the ambient has no par.
    """
    encode = scalar_codec(amb)[0]
    if amb.carrier.is_finite:
        t = amb.index_tables
        mult, ops = _table_cells, (t.tensor, t.par)
        join, meet, leq = map(_table_cells, (t.join, t.meet, t.leq))
    else:
        mult, ops = _zint_cells, (amb.op, amb.par_op)
        lattice = (min, max, ge) if amb.carrier.reverse else (max, min, le)
        join, meet, leq = map(_pointwise_cells, lattice)
    tensor, par = (None if op is None else mult(op) for op in ops)
    return Calculus(
        tensor=tensor, par=par,
        id_top=_const(encode(amb.unit)),
        id_bot=_const(encode(amb.par_unit) if amb.has_par else None),
        zero=_const(encode(amb.bottom)), top=_const(encode(amb.top)),
        join=join, meet=meet, leq=_all_of(leq), eq=_cells_eq,
        source=_const(None), target=_const(None))


def _first_failure(holds, sample: list, keys: tuple[str, ...]) -> tuple | None:
    """The first case on which ``holds`` fails: the values of ``a``, ``b``,
    ``c`` drawn from the coded sample in that order, ``a`` outermost, and
    fed to the law's slots as ``keys`` names them.

    Every key but the innermost is bound to a code, and the innermost
    slot gets the whole sample as a column; only a column that fails is
    rescanned, code by code, for its first failing case.
    """
    order = tuple(map("abc".index, keys))

    def fails(case) -> bool:
        return not holds(*map(case.__getitem__, order))

    for outer in product(sample, repeat=len(keys) - 1):
        if fails(outer + (sample,)):
            return next(filter(fails, (outer + (c,) for c in sample)))
    return None


def _law_report(amb: Quantale, domain_sample: Sequence[Elem] | None, window: int,
                suite: str, labels: Sequence[str]) -> LawReport:
    """Each law of ``labels`` on the scalar calculus of ``amb``, over the
    validated sample, up to its first failing case.

    The sample is encoded once; a failure is replayed once on its codes
    with ``laws.sides`` for the two sides of the law, and only the witness
    is decoded.
    """
    sample = _validated(amb, domain_sample, window)
    mode = "exhaustive" if amb.carrier.is_finite and domain_sample is None \
        else f"sample({len(sample)})"
    calc = scalar_calculus(amb)
    encode, decode = scalar_codec(amb)
    codes = list(map(encode, sample))
    entries = []
    for label in labels:
        law, keys = LAWS[label][1], WITNESS_KEYS[label]
        case = _first_failure(law(calc), codes, keys)
        wit = None
        if case is not None:
            wit = dict(zip("abc", case))
            wit.update(sides(law, calc, map(wit.get, keys), len(keys) == 1))
            wit = {k: decode(v) for k, v in wit.items()}
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))


def check_quantale_laws(q: Quantale, domain_sample: Sequence[Elem] | None = None,
                        suite: str = "quantale-laws",
                        window: int = 10) -> LawReport:
    """Associativity, units, and two-sided join preservation over a sample."""
    return _law_report(q, domain_sample, window, suite, LAW_GROUPS["quantale"])


def check_ld_laws(ld: Quantale, domain_sample: Sequence[Elem] | None = None,
                  suite: str = "ld-laws", window: int = 10) -> LawReport:
    """Both quantale structures plus the two linear distributions."""
    return _law_report(ld, domain_sample, window, suite,
                       LAW_GROUPS["quantale"] + LAW_GROUPS["op-quantale"]
                       + LAW_GROUPS["linear-distribution"])


# ---------------------------------------------------------------------------
# Shift monoid completion


def _fresh_name(base: str, taken: Iterable[str]) -> str:
    name = base
    taken = set(taken)
    while name in taken:
        name = "_" + name
    return name


def shift_completion(elements: Sequence[str], add_table: Sequence[Sequence[str]],
                     shift: str) -> Quantale:
    """Complete a cancellative commutative monoid to a two-multiplication
    quantale on the discrete order with adjoined bottom and top.

    The first multiplication extends the monoid addition (top absorbs
    against monoid elements, bottom absorbs everything); the second is the
    shifted product x + y - shift, extended dually.
    """
    names = list(elements)
    n = len(names)
    if len(set(names)) != n or n == 0:
        raise MonoidError("monoid elements must be distinct and nonempty")
    idx = {v: i for i, v in enumerate(names)}
    if shift not in idx:
        raise UnknownElementError(f"shift {shift!r} is not a monoid element")
    tbl = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = add_table[i][j]
            if v not in idx:
                raise UnknownElementError(f"monoid table entry {v!r} unknown")
            tbl[i][j] = idx[v]

    for i in range(n):
        for j in range(n):
            if tbl[i][j] != tbl[j][i]:
                raise MonoidError(
                    f"monoid is not commutative at ({names[i]}, {names[j]})")
            for k in range(n):
                if tbl[tbl[i][j]][k] != tbl[i][tbl[j][k]]:
                    raise MonoidError(
                        f"monoid is not associative at "
                        f"({names[i]}, {names[j]}, {names[k]})")
    unit_idx = None
    for e in range(n):
        if all(tbl[e][b] == b for b in range(n)):
            unit_idx = e
            break
    if unit_idx is None:
        raise MonoidError("monoid table has no unit")
    for i in range(n):
        if len(set(tbl[i])) != n:
            raise MonoidError(f"monoid is not cancellative at {names[i]!r}")
    inv_idx = None
    for j in range(n):
        if tbl[idx[shift]][j] == unit_idx:
            inv_idx = j
            break
    if inv_idx is None:
        raise MonoidError(f"shift {shift!r} is not invertible")

    bot = _fresh_name("bot", names)
    top = _fresh_name("top", names)
    carrier_names = [bot, *names, top]
    covers = [(bot, m) for m in names] + [(m, top) for m in names]
    lattice = build_lattice(carrier_names, covers)

    def first_mult(a: str, b: str) -> str:
        if a == bot or b == bot:
            return bot
        if a == top or b == top:
            return top
        return names[tbl[idx[a]][idx[b]]]

    def second_mult(a: str, b: str) -> str:
        if a == top or b == top:
            return top
        if a == bot or b == bot:
            return bot
        return names[tbl[tbl[idx[a]][idx[b]]][inv_idx]]

    t_table = tuple(tuple(first_mult(a, b) for b in carrier_names)
                    for a in carrier_names)
    p_table = tuple(tuple(second_mult(a, b) for b in carrier_names)
                    for a in carrier_names)
    return Quantale(carrier=FiniteCarrier(lattice), op=TableOp(t_table),
                    unit=names[unit_idx], par_op=TableOp(p_table), par_unit=shift)


def cyclic_group_table(n: int, prefix: str = "g") -> tuple[list[str], list[list[str]]]:
    """Addition table of the integers mod n; generator named ``<prefix>1``."""
    names = ["e"] + [f"{prefix}{i}" for i in range(1, n)]
    table = [[names[(i + j) % n] for j in range(n)] for i in range(n)]
    return names, table


# ---------------------------------------------------------------------------
# JSON interface


@dataclass(frozen=True)
class LoadedQuantale:
    """Everything a quantale file can describe: the tensor quantale,
    an LD-quantale when a par is available, and a validated Girard
    quantale when a dualizer is available.  ``ld`` carries no dualizer;
    without a par block it has the Girard quantale's derived par."""

    quantale: Quantale
    ld: Quantale | None
    girard: Quantale | None

    def ambient(self) -> Quantale:
        """Richest structure available, for relation-level operations."""
        return self.ld if self.ld is not None else self.quantale


def quantale_from_json(obj: dict, window: int = 10) -> LoadedQuantale:
    kind = obj.get("kind")
    if kind == "table":
        return _table_from_json(obj)
    if kind == "zinf":
        return _zinf_from_json(obj, window)
    raise InputFormatError(f"unknown quantale kind {obj.get('kind')!r}")


def _table_from_json(obj: dict) -> LoadedQuantale:
    for field in ("elements", "covers", "tensor", "unit"):
        if field not in obj:
            raise InputFormatError(f"quantale file is missing field {field!r}")
    lattice = build_lattice(obj["elements"], obj["covers"])
    q = table_quantale(lattice, obj["tensor"], obj["unit"])
    ld = None
    par_obj = obj.get("par")
    if par_obj is not None:
        if not isinstance(par_obj, dict) or "table" not in par_obj \
                or "unit" not in par_obj:
            raise InputFormatError("par block needs 'table' and 'unit'")
        ld = replace(q, par_op=_table_op(lattice, par_obj["table"], "par"),
                     par_unit=_check_unit(lattice, par_obj["unit"]))
    girard = None
    if obj.get("dualizer") is not None:
        girard = girard_quantale(q, obj["dualizer"])
        if ld is None:
            ld = replace(girard, dualizer=None)
    return LoadedQuantale(quantale=q, ld=ld, girard=girard)


def _zinf_from_json(obj: dict, window: int) -> LoadedQuantale:
    flavor = obj.get("flavor")
    if flavor == "tropical":
        q = tropical_quantale()
    elif flavor == "arctic":
        q = arctic_quantale()
    else:
        raise InputFormatError(f"unknown zinf flavor {flavor!r}")
    d = obj.get("dualizer", 0)
    if not isinstance(d, int) or isinstance(d, bool):
        raise InputFormatError("zinf dualizer must be an integer")
    girard = girard_quantale(q, d, q.sample_elements(window))
    return LoadedQuantale(quantale=q, ld=replace(girard, dualizer=None),
                          girard=girard)
