"""Finite quantaloids, their Girard families, and monads with bimodules.

Hom-sets are finite lattices; composition is diagrammatic (f: a->b then
g: b->c yields f.g: a->c) and given by explicit tables per composable
triple of objects.  An optional par layer adds the second composition and
its identities, making the structure a linear quantaloid candidate.  The
enriched category and bimodule laws, their compiled plans and the search
on them live here too: Q-Mod uses them, and monads are their one-member
case.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import compress, product, starmap
from operator import eq, itemgetter, not_
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    DuplicateNameError,
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotClosedError,
    NotGirardError,
    SearchSpaceError,
)
from .lattice import (
    FiniteLattice,
    build_lattice,
    lattice_from_leq,
    product_lattice,
)
from .laws import LAWS, OBJECT_CASES, Calculus, sides
from .quantale import FiniteCarrier, Quantale, TableOp
from .report import LAW_GROUPS, LawReport, law_entry

Obj = str
Hom = tuple[str, str]
Built = TypeVar("Built")


@dataclass(frozen=True)
class CodedQuantaloid:
    """A finite quantaloid on element indices.  For each composable triple
    ``(a, b, c)``, ``ends`` holds the name-to-index maps of hom(a, b) and
    hom(b, c) and the element names of hom(a, c); ``tensor`` and ``par``
    hold its tables with entries as indices into hom(a, c).  The hom
    lattices' own order, join and meet tables are already on indices."""

    ends: dict[tuple[Obj, Obj, Obj],
               tuple[dict[str, int], dict[str, int], tuple[str, ...]]]
    tensor: dict[tuple[Obj, Obj, Obj], tuple[tuple[int, ...], ...]]
    par: dict[tuple[Obj, Obj, Obj], tuple[tuple[int, ...], ...]] | None


@dataclass(frozen=True)
class FiniteQuantaloid:
    objects: tuple[Obj, ...]
    homs: dict[Hom, FiniteLattice]
    tensor_tables: dict[tuple[Obj, Obj, Obj], tuple[tuple[str, ...], ...]]
    units_top: dict[Obj, str]
    par_tables: dict[tuple[Obj, Obj, Obj], tuple[tuple[str, ...], ...]] | None = None
    units_bot: dict[Obj, str] | None = None

    @cached_property
    def coded(self) -> CodedQuantaloid:
        homs = self.homs

        def code(tables):
            return {(a, b, c): tuple(tuple(homs[(a, c)]._index[v] for v in row)
                                     for row in table)
                    for (a, b, c), table in tables.items()}

        ends = {(a, b, c): (homs[(a, b)]._index, homs[(b, c)]._index,
                            homs[(a, c)].elements)
                for a, b, c in self.tensor_tables}
        return CodedQuantaloid(
            ends, code(self.tensor_tables),
            None if self.par_tables is None else code(self.par_tables))

    @cached_property
    def memo(self) -> dict:
        """Tables that other modules derive from this quantaloid, kept as
        long as it lives.  No entry may refer back to the quantaloid."""
        return {}

    @property
    def has_par(self) -> bool:
        return self.par_tables is not None

    def hom(self, a: Obj, b: Obj) -> FiniteLattice:
        try:
            return self.homs[(a, b)]
        except KeyError:
            raise MismatchError(f"no hom from {a!r} to {b!r}") from None

    def compose(self, a: Obj, b: Obj, c: Obj, f: str, g: str) -> str:
        return self._apply(self.coded.tensor, a, b, c, f, g)

    def par_compose(self, a: Obj, b: Obj, c: Obj, f: str, g: str) -> str:
        if self.par_tables is None:
            raise NoParStructureError("quantaloid has no par layer")
        return self._apply(self.coded.par, a, b, c, f, g)

    def _apply(self, tables, a: Obj, b: Obj, c: Obj, f: str, g: str) -> str:
        key = (a, b, c)
        try:
            left, right, names = self.coded.ends[key]
            return names[tables[key][left[f]][right[g]]]
        except (KeyError, TypeError):
            # name the missing hom or the unknown element
            self.hom(a, b).index(f)
            self.hom(b, c).index(g)
            raise

    def unit_top(self, a: Obj) -> str:
        return self.units_top[a]

    def unit_bot(self, a: Obj) -> str:
        if self.units_bot is None:
            raise NoParStructureError("quantaloid has no par layer")
        return self.units_bot[a]


def _memoized(Q: FiniteQuantaloid, key: tuple,
              build: Callable[[], Built]) -> Built:
    """``Q.memo[key]``, set to ``build()`` on first use.  The result lives
    as long as ``Q``, so it must not refer back to ``Q``, and callers that
    hand it out give each caller its own mutable containers."""
    memo = Q.memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


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
# These laws serve Q-Mod (``linrel.qmod``) and, on one-member categories,
# the monads below.

Matrix = tuple[tuple[str, ...], ...]
Codes = tuple[tuple[int, ...], ...]  # a matrix's cells as indices into their homs
Term = str | tuple[str, ...]


@dataclass(frozen=True, eq=False)
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
        return {m for t in (self.lhs, self.rhs)
                for m in ((t,) if isinstance(t, str) else t[1:])}

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


# Row and column carriers of each matrix a law reads.
_MATRIX_RANGES = {"et": "xx", "ep": "xx", "fam": "xx", "Mt": "xx", "Mp": "xx",
                  "Nt": "yy", "Np": "yy", "vt": "xy", "vp": "yx"}


# A law plan holds a law set's checks over slots, each slot the index of a
# value in its hom: one per matrix cell read and one per base unit read.
# The cells a search fills take the first slots, in fill order.  A check
# ``(order, table, f, g, o)`` holds when ``order[table[v[f]][v[g]]][v[o]]``
# does, or ``order[v[f]][v[o]]`` when ``table`` is None; no law composes on
# both sides, and ``order`` is transposed when it composes on the right.
@dataclass(frozen=True)
class _Plan:
    homs: tuple[FiniteLattice, ...]  # the hom of each slot
    units: tuple[tuple[int, int], ...]  # (slot, value) of each unit
    given: tuple[tuple[str, int, int, int], ...]  # (matrix, row, col, slot)
    fill: tuple[tuple[tuple[int, ...], ...], ...]  # slots of filled matrices
    # per law, in loop order: (loop indices, check, composite on the left)
    laws: tuple[tuple[tuple[tuple[int, ...], tuple, bool], ...], ...]
    by_cell: tuple[tuple[tuple, ...], ...]  # checks by last filled cell

    def load(self, mats: Mapping, names: bool) -> list[int]:
        v = [0] * len(self.homs)
        for s, value in self.units:
            v[s] = value
        for m, r, c, s in self.given:
            v[s] = self.homs[s].index(mats[m][r][c]) if names else mats[m][r][c]
        return v

    def decode(self, v: list[int], names: bool) -> tuple[Matrix | Codes, ...]:
        homs = self.homs
        return tuple(tuple(tuple(homs[s].elements[v[s]] if names else v[s]
                                 for s in row)
                           for row in grid) for grid in self.fill)


def _plan(base: FiniteQuantaloid, laws: tuple[_Law, ...], rhos: Mapping,
          given: frozenset[str], fill: tuple[str, ...]) -> _Plan:
    """The plan of `laws` with the matrices in `given` fixed and those in
    `fill` searched, compiled once per base."""
    key = ("qmod-plan", laws, tuple(sorted(rhos.items())), given, fill)
    return _memoized(base, key,
                     partial(_compile, base, laws, rhos, given, fill))


def _compile(base: FiniteQuantaloid, laws: tuple[_Law, ...], rhos: Mapping,
             given: frozenset[str], fill: tuple[str, ...]) -> _Plan:
    homs: list[FiniteLattice] = []
    slots: dict[tuple, int] = {}
    units: dict[int, int] = {}
    geq: dict[tuple[str, str], tuple] = {}

    def slot(key: tuple, hom: FiniteLattice) -> int:
        if key not in slots:
            slots[key] = len(homs)
            homs.append(hom)
        return slots[key]

    def cell(m: str, r: int, c: int) -> int:
        rows, cols = _MATRIX_RANGES[m]
        return slot((m, r, c), base.hom(rhos[rows][r], rhos[cols][c]))

    def term(t: Term, objs, idx) -> tuple:
        """(table, f, g) of a composite, else (None, slot, None)."""
        if isinstance(t, str):
            return None, cell(t, idx[0], idx[-1]), None
        if len(t) == 1:
            a = objs[0]
            s = slot((t[0], a), base.hom(a, a))
            units[s] = homs[s].index(getattr(base, t[0])(a))
            return None, s, None
        tables = base.coded.tensor if t[0] == "compose" else base.coded.par
        if tables is None:
            raise NoParStructureError("quantaloid has no par layer")
        return (tables[objs], cell(t[1], idx[0], idx[1]),
                cell(t[2], idx[1], idx[2]))

    grids = []
    for m in fill:
        rows, cols = _MATRIX_RANGES[m]
        grids.append(tuple(tuple(cell(m, r, c) for c in range(len(rhos[cols])))
                           for r in range(len(rhos[rows]))))
    n_fill = len(homs)
    plans = []
    by_cell: list[list[tuple]] = [[] for _ in range(n_fill)]
    for law in laws:
        checks = []
        if law.reads <= given | set(fill):
            for objs, idx, loop in law.instances(rhos):
                ends = (objs[0], objs[-1])
                lt, lf, lg = term(law.lhs, objs, idx)
                rt, rf, rg = term(law.rhs, objs, idx)
                if rt is None:
                    check = (base.homs[ends].leq_matrix, lt, lf, lg, rf)
                else:
                    if ends not in geq:
                        geq[ends] = tuple(zip(*base.homs[ends].leq_matrix))
                    check = (geq[ends], rt, rf, rg, lf)
                checks.append((loop, check, rt is None))
                # filled slots are numbered in fill order, so the largest
                # one a check reads is the last of its cells to be set
                read = [s for s in (lf, lg, rf, rg)
                        if s is not None and s < n_fill]
                if read:
                    by_cell[max(read)].append(check)
        plans.append(tuple(checks))
    given_cells = tuple((*key, s) for key, s in slots.items()
                        if s >= n_fill and s not in units)
    return _Plan(tuple(homs), tuple(units.items()), given_cells,
                 tuple(grids), tuple(plans), tuple(map(tuple, by_cell)))


def _law_report(suite: str, laws: tuple[_Law, ...], base: FiniteQuantaloid,
                rhos: Mapping, mats: Mapping,
                witness: Callable[[_Law, tuple, str, str], dict],
                names: bool = True) -> LawReport:
    """Each law with ``witness(law, loop, lhs, rhs)`` at its first failing
    index tuple; `mats` and `names` as for `_search`."""
    mats = {m: mat for m, mat in mats.items() if mat is not None}
    plan = _plan(base, laws, rhos, frozenset(mats), ())
    v = plan.load(mats, names)
    entries = []
    for law, checks in zip(laws, plan.laws):
        wit = None
        for loop, (order, table, f, g, o), left in checks:
            comp = v[f] if table is None else table[v[f]][v[g]]
            if not order[comp][v[o]]:
                names = plan.homs[o].elements
                lhs, rhs = (comp, v[o]) if left else (v[o], comp)
                wit = witness(law, loop, names[lhs], names[rhs])
                break
        entries.append(law_entry(law.label, wit, "exhaustive"))
    return LawReport(suite, tuple(entries))


def _search(base: FiniteQuantaloid, laws: tuple[_Law, ...], rhos: Mapping,
            mats: Mapping, fill: tuple[str, ...],
            names: bool = True) -> Iterator[tuple[Matrix | Codes, ...]]:
    """Every filling of the matrices in `fill` on which the laws hold, as
    element names, or as hom indices unless `names` (so are `mats`).

    The cells (row-major, one matrix after another) take their hom's
    elements in order with the last cell varying fastest, which is
    `itertools.product` order.  `mats` holds the fixed matrices; a law
    takes part when it reads a filled matrix and nothing missing, and each
    of its instances is checked as soon as the last cell it reads is set,
    so a failing prefix is cut off with all its extensions.
    """
    plan = _plan(base, laws, rhos, frozenset(mats), fill)
    v = plan.load(mats, names)
    homs, checks = plan.homs, plan.by_cell
    if not checks:
        yield plan.decode(v, names)
        return
    # Depth-first over an explicit stack of index iterators, one per set
    # cell.  A nested generator recursing into itself would hold itself
    # through its closure cell, a cycle that keeps the search's state alive
    # until the cyclic collector runs.
    stack = [iter(range(len(homs[0])))]
    while stack:
        k = len(stack) - 1
        for value in stack[k]:
            v[k] = value
            for order, table, f, g, o in checks[k]:
                if not order[v[f] if table is None else table[v[f]][v[g]]][v[o]]:
                    break
            else:
                break  # every check holds
        else:
            stack.pop()
            continue
        if k + 1 < len(checks):
            stack.append(iter(range(len(homs[k + 1]))))
        else:
            yield plan.decode(v, names)


def _object_names(objects) -> tuple[Obj, ...]:
    if not isinstance(objects, (list, tuple)):
        raise InputFormatError(
            f"objects must be a list of names, not {type(objects).__name__}")
    seen: set[Obj] = set()
    for a in objects:
        if not isinstance(a, str):
            raise InputFormatError(f"object names must be strings, not {a!r}")
        if a in seen:
            raise DuplicateNameError(f"duplicate object name {a!r}")
        seen.add(a)
    return tuple(objects)


def finite_quantaloid(objects: Sequence[Obj],
                      homs: Mapping[Hom, FiniteLattice],
                      tensor_tables: Mapping[tuple[Obj, Obj, Obj], Sequence[Sequence[str]]],
                      units_top: Mapping[Obj, str],
                      par_tables: Mapping[tuple[Obj, Obj, Obj], Sequence[Sequence[str]]] | None = None,
                      units_bot: Mapping[Obj, str] | None = None) -> FiniteQuantaloid:
    """Validating constructor: object names are distinct strings, every
    pair needs a hom lattice, every composable triple a total table of
    rows with entries in the target hom."""
    objs = _object_names(objects)
    homs = dict(homs)
    for pair in product(objs, repeat=2):
        if pair not in homs:
            raise InputFormatError(f"missing hom lattice for {pair}")

    def normalize(tables: Mapping, label: str) -> dict:
        out = {}
        for trip in product(objs, repeat=3):
            a, b, c = trip
            if trip not in tables:
                raise InputFormatError(f"missing {label} table for {trip}")
            table = tables[trip]
            if not (isinstance(table, (list, tuple))
                    and all(isinstance(r, (list, tuple)) for r in table)):
                raise InputFormatError(
                    f"{label} table for {trip} must be a list of rows")
            rows = tuple(tuple(r) for r in table)
            h_ab, h_bc, h_ac = homs[(a, b)], homs[(b, c)], homs[(a, c)]
            if len(rows) != len(h_ab) or any(len(r) != len(h_bc) for r in rows):
                raise InputFormatError(f"{label} table for {trip} has wrong shape")
            for r in rows:
                for v in r:
                    if v not in h_ac:
                        raise InputFormatError(
                            f"{label} table for {trip} hits unknown element {v!r}")
            out[trip] = rows
        return out

    t_tables = normalize(tensor_tables, "tensor")
    p_tables = None
    u_bot = None
    if par_tables is not None:
        if units_bot is None:
            raise InputFormatError("par layer needs par identity elements")
        p_tables = normalize(par_tables, "par")
        u_bot = dict(units_bot)
    u_top = dict(units_top)
    for label, units in (("units", u_top), ("par_units", u_bot)):
        if units is None:
            continue
        for a in objs:
            if a not in units:
                raise InputFormatError(f"{label} has no element for object {a!r}")
            homs[(a, a)].index(units[a])
    return FiniteQuantaloid(objects=objs, homs=homs, tensor_tables=t_tables,
                            units_top=u_top, par_tables=p_tables, units_bot=u_bot)


def one_object_quantaloid(amb: Quantale, obj: Obj = "*") -> FiniteQuantaloid:
    """View a finite quantale as a one-object quantaloid, carrying the par
    layer across when available."""
    if not amb.carrier.is_finite:
        raise MismatchError("only finite carriers can be materialized")
    lattice = amb.carrier.lattice
    els = lattice.elements
    t_table = tuple(tuple(amb.tensor(f, g) for g in els) for f in els)
    par_tables = None
    units_bot = None
    if amb.has_par:
        par_tables = {(obj, obj, obj): tuple(tuple(amb.par(f, g) for g in els)
                                             for f in els)}
        units_bot = {obj: amb.par_unit}
    return FiniteQuantaloid(
        objects=(obj,),
        homs={(obj, obj): lattice},
        tensor_tables={(obj, obj, obj): t_table},
        units_top={obj: amb.unit},
        par_tables=par_tables,
        units_bot=units_bot,
    )


def quantaloid_to_quantale(Q: FiniteQuantaloid) -> Quantale:
    """Inverse of the one-object embedding; round trips on tables."""
    if len(Q.objects) != 1:
        raise MismatchError("only one-object quantaloids collapse to quantales")
    obj = Q.objects[0]
    trip = (obj, obj, obj)
    return Quantale(carrier=FiniteCarrier(Q.hom(obj, obj)),
                    op=TableOp(Q.tensor_tables[trip]), unit=Q.unit_top(obj),
                    par_op=TableOp(Q.par_tables[trip]) if Q.has_par else None,
                    par_unit=Q.unit_bot(obj) if Q.has_par else None)


# ---------------------------------------------------------------------------
# Law suite


def _name(Q: FiniteQuantaloid, a: Obj, b: Obj, i: int) -> str:
    return Q.homs[(a, b)].elements[i]


def coded_calculus(Q: FiniteQuantaloid) -> Calculus:
    """The cells of ``Q`` as ``(source, target, index)``, with the index
    into the hom's elements.  Compositions read ``Q.coded``, and the hom
    lattices give the units, extreme cells and 2-cells.  The operations
    assume that their cells compose or are parallel."""
    homs = Q.homs

    def composition(T):
        return None if T is None else (
            lambda f, g: (f[0], g[1], T[f[0], f[1], g[1]][f[2]][g[2]]))

    def unit(units):
        return None if units is None else (
            lambda f, x: (x, x, homs[x, x].index(units[x])))

    def extreme(bound):
        return lambda f, x, y: (x, y, homs[x, y].index(getattr(homs[x, y], bound)))

    return Calculus(
        tensor=composition(Q.coded.tensor), par=composition(Q.coded.par),
        id_top=unit(Q.units_top), id_bot=unit(Q.units_bot),
        zero=extreme("bottom"), top=extreme("top"),
        join=lambda f, g: (f[0], f[1], homs[f[:2]].join_table[f[2]][g[2]]),
        meet=lambda f, g: (f[0], f[1], homs[f[:2]].meet_table[f[2]][g[2]]),
        leq=lambda f, g: homs[f[:2]].leq_matrix[f[2]][g[2]],
        eq=eq, source=itemgetter(0), target=itemgetter(1))


def check_quantaloid_laws(Q: FiniteQuantaloid,
                          suite: str = "quantaloid-laws") -> LawReport:
    """The quantale laws, and with a par layer the opposite-quantale laws
    and both linear distributions: ``laws.LAWS`` on the coded calculus,
    each up to its first failing case in the order of
    ``laws.OBJECT_CASES`` (the objects outermost, then the cells in slot
    order).  The verdicts are kept in ``Q.memo``, once per quantaloid;
    each report gets its own copy of every witness."""
    verdicts = _memoized(Q, ("quantaloid-laws",), partial(_law_verdicts, Q))
    return LawReport(suite, tuple(law_entry(label, copy.deepcopy(wit),
                                            "exhaustive")
                                  for label, wit in verdicts))


def _law_verdicts(Q: FiniteQuantaloid):
    """Each law's label and first witness (None when it holds)."""
    calc = coded_calculus(Q)
    cells = {(a, b): tuple((a, b, i) for i in range(len(h)))
             for (a, b), h in Q.homs.items()}

    def witness(label: str) -> dict | None:
        law, args = LAWS[label][1], OBJECT_CASES[label]
        holds = law(calc)
        points = 1 + max(max(at) if key else at for key, at in args)
        for objs in product(Q.objects, repeat=points):
            pools = [cells[objs[at[0]], objs[at[1]]] if key else (objs[at],)
                     for key, at in args]
            case = next(compress(product(*pools), map(
                not_, starmap(holds, product(*pools)))), None)
            if case is not None:
                named = {key: cell for (key, _), cell in zip(args, case) if key}
                named.update(sides(law, calc, case, len(named) == 1))
                return {"objects": list(objs),
                        **{key: _name(Q, *cell) for key, cell in named.items()}}
        return None

    labels = LAW_GROUPS["quantale"]
    if Q.has_par:
        labels += LAW_GROUPS["op-quantale"] + LAW_GROUPS["linear-distribution"]
    return tuple((label, witness(label)) for label in labels)


# ---------------------------------------------------------------------------
# Girard families


def _dual_code(Q: FiniteQuantaloid, a: Obj, b: Obj, f: int, d: int,
               left: bool) -> int:
    """Index of the largest g: b->a with f.g below d in hom(a, a), or
    with g.f below d in hom(b, b) when ``left``; f and d are indices."""
    h_ba = Q.homs[(b, a)]
    if left:
        below = Q.homs[(b, b)].leq_matrix
        composites = (row[f] for row in Q.coded.tensor[(b, a, b)])
    else:
        below = Q.homs[(a, a)].leq_matrix
        composites = Q.coded.tensor[(a, b, a)][f]
    join = h_ba.join_table
    acc = h_ba.index(h_ba.bottom)
    for g, v in enumerate(composites):
        if below[v][d]:
            acc = join[acc][g]
    return acc


def _hom_dual(Q: FiniteQuantaloid, a: Obj, b: Obj, f: str,
              family: Mapping[Obj, str], left: bool) -> str:
    h_ba = Q.hom(b, a)
    at = b if left else a
    d = Q.hom(at, at).index(family[at])
    return h_ba.elements[_dual_code(Q, a, b, Q.hom(a, b).index(f), d, left)]


def hom_dual(Q: FiniteQuantaloid, a: Obj, b: Obj, f: str,
             family: Mapping[Obj, str]) -> str:
    """Largest g: b->a with f.g below the family element at the source."""
    return _hom_dual(Q, a, b, f, family, left=False)


def hom_dual_left(Q: FiniteQuantaloid, a: Obj, b: Obj, f: str,
                  family: Mapping[Obj, str]) -> str:
    """Largest g: b->a with g.f below the family element at the target."""
    return _hom_dual(Q, a, b, f, family, left=True)


def _family_codes(Q: FiniteQuantaloid, family: Mapping[Obj, str]) -> dict[Obj, int]:
    """The family's element at each object, as an index into its endo-hom."""
    for a in Q.objects:
        if a not in family:
            raise MismatchError(f"family is missing object {a!r}")
    return {a: Q.hom(a, a).index(family[a]) for a in Q.objects}


def check_girard_family(Q: FiniteQuantaloid, family: Mapping[Obj, str],
                        suite: str = "girard-family") -> LawReport:
    d = _family_codes(Q, family)
    pairs = list(product(Q.objects, repeat=2))

    def duals(left: bool) -> dict[Hom, list[int]]:
        return {(a, b): [_dual_code(Q, a, b, f, d[b if left else a], left)
                         for f in range(len(Q.homs[(a, b)]))]
                for a, b in pairs}

    right, left = duals(False), duals(True)
    cyc_wit = dd_wit = None
    for a, b in pairs:
        for f, (fd, fl) in enumerate(zip(right[(a, b)], left[(a, b)])):
            if cyc_wit is None and fd != fl:
                cyc_wit = {"objects": [a, b], "f": _name(Q, a, b, f),
                           "lhs": _name(Q, b, a, fd), "rhs": _name(Q, b, a, fl)}
            fdd = right[(b, a)][fd]
            if dd_wit is None and fdd != f:
                dd_wit = {"objects": [a, b], "f": _name(Q, a, b, f),
                          "dual": _name(Q, b, a, fd), "double": _name(Q, a, b, fdd)}
    return LawReport(suite, (
        law_entry("girard-cyclic", cyc_wit, "exhaustive"),
        law_entry("girard-double-dual", dd_wit, "exhaustive"),
    ))


def find_girard_families(Q: FiniteQuantaloid, cap: int = 20000) -> list[dict[Obj, str]]:
    sizes = 1
    for a in Q.objects:
        sizes *= len(Q.hom(a, a))
        if sizes > cap:
            raise SearchSpaceError(
                f"family search space exceeds cap of {cap}")
    found = []
    pools = [Q.hom(a, a).elements for a in Q.objects]
    for combo in product(*pools):
        family = dict(zip(Q.objects, combo))
        if check_girard_family(Q, family).ok:
            found.append(family)
    return found


# ---------------------------------------------------------------------------
# Monads and their bimodules
#
# A monad on an object a is a one-member category over a: its multiplication
# is the 1x1 enrichment ``et``, and a linear monad's comultiplication is
# ``ep``.  A monad bimodule is a bimodule between two such categories, with
# the 1x1 cells ``vt`` and ``vp``.  So the monad laws are the category and
# bimodule laws above, and the search above finds monads and bimodules.

_LINEAR_MONAD_LAWS = _restated("linear-monad", (
    (law, None) for law in _QCAT_LAWS + _LINEAR_QCAT_LAWS))
_MONAD_LAWS = _LINEAR_MONAD_LAWS[:len(_QCAT_LAWS)]
_LINEAR_MBIM_LAWS = _restated("monad-bimodule", (
    (law, None) for law in _QBIM_LAWS + _LINEAR_QBIM_LAWS))
_MBIM_LAWS = _LINEAR_MBIM_LAWS[:len(_QBIM_LAWS)]


def _one(x: str) -> Matrix:
    return ((x,),)


def _monad_report(suite: str, Q: FiniteQuantaloid, laws: tuple[_Law, ...],
                  rhos: Mapping, mats: Mapping, witness: Mapping) -> LawReport:
    """The laws on one monad or bimodule; a failing law's witness is the
    whole candidate, `witness`."""
    return _law_report(suite, laws, Q, rhos, mats, lambda *_: dict(witness))


@dataclass(frozen=True)
class Monad:
    obj: Obj
    m: str


@dataclass(frozen=True)
class MonadBimodule:
    source: Monad
    target: Monad
    f: str


def check_monad(Q: FiniteQuantaloid, monad: Monad) -> bool:
    return _monad_report("", Q, _MONAD_LAWS, {"x": (monad.obj,)},
                         {"et": _one(monad.m)}, {}).ok


def monads_of(Q: FiniteQuantaloid) -> list[Monad]:
    """The monads of Q in object and element order, found once per
    quantaloid; each call gets a new list."""
    return list(_memoized(Q, ("monads",), partial(_monads, Q)))


def _monads(Q: FiniteQuantaloid) -> tuple[Monad, ...]:
    return tuple(Monad(a, et[0][0]) for a in Q.objects
                 for et, in _search(Q, _MONAD_LAWS, {"x": (a,)}, {}, ("et",)))


def _ends(src, tgt) -> dict[str, tuple[Obj]]:
    """The object assignment of a bimodule from monad `src` to `tgt`."""
    return {"x": (src.obj,), "y": (tgt.obj,)}


def check_monad_bimodule(Q: FiniteQuantaloid, bim: MonadBimodule) -> bool:
    mats = {"Mt": _one(bim.source.m), "Nt": _one(bim.target.m),
            "vt": _one(bim.f)}
    return _monad_report("", Q, _MBIM_LAWS, _ends(bim.source, bim.target),
                         mats, {}).ok


def monq_compose(Q: FiniteQuantaloid, f: MonadBimodule,
                 g: MonadBimodule) -> MonadBimodule:
    if f.target != g.source:
        raise MismatchError("monad bimodules are not composable")
    a, b, c = f.source.obj, f.target.obj, g.target.obj
    return MonadBimodule(f.source, g.target, Q.compose(a, b, c, f.f, g.f))


def monq_identity(Q: FiniteQuantaloid, monad: Monad) -> MonadBimodule:
    return MonadBimodule(monad, monad, monad.m)


def _sublattice(parent: FiniteLattice, keep: Sequence[str]) -> FiniteLattice:
    leq = [[parent.leq(x, y) for y in keep] for x in keep]
    return lattice_from_leq(tuple(keep), leq)


def monad_name(monad: Monad) -> str:
    return f"{monad.obj}|{monad.m}"


def monq_quantaloid(Q: FiniteQuantaloid, monads: Sequence[Monad] | None = None,
                    cap: int = 64) -> FiniteQuantaloid:
    """Materialize the quantaloid of monads and monad bimodules, once per
    quantaloid and monad list.

    Hom lattices are the bimodule subsets under the inherited order; they
    are closed under joins and meets whenever the base laws hold.
    """
    if monads is None:
        monads = monads_of(Q)
    if len(monads) > cap:
        raise SearchSpaceError(f"{len(monads)} monads exceed the cap of {cap}")
    monads = tuple(monads)
    return _memoized(Q, ("monq", monads), partial(_monq, Q, monads))


def _monq(Q: FiniteQuantaloid, monads: tuple[Monad, ...]) -> FiniteQuantaloid:
    names = {m: monad_name(m) for m in monads}
    bims = {(m, n): [vt[0][0] for vt, in _search(
                Q, _MBIM_LAWS, _ends(m, n),
                {"Mt": _one(m.m), "Nt": _one(n.m)}, ("vt",))]
            for m, n in product(monads, repeat=2)}
    homs = {(names[m], names[n]): _sublattice(Q.hom(m.obj, n.obj), elems)
            for (m, n), elems in bims.items()}

    def compose(m: Monad, n: Monad, p: Monad, f: str, g: str) -> str:
        # the bimodules are closed under composition when the base laws hold
        fg = Q.compose(m.obj, n.obj, p.obj, f, g)
        if fg not in bims[(m, p)]:
            raise NotClosedError({
                "note": "monad bimodules are not closed under composition",
                "objects": [names[m], names[n], names[p]], "f": f, "g": g,
                "composite": fg})
        return fg

    tables = {(names[m], names[n], names[p]): tuple(
                  tuple(compose(m, n, p, f, g) for g in bims[(n, p)])
                  for f in bims[(m, n)])
              for m, n, p in product(monads, repeat=3)}
    units = {names[m]: m.m for m in monads}
    return finite_quantaloid(tuple(names[m] for m in monads), homs, tables,
                             units)


def monq_girard_family(Q: FiniteQuantaloid, family: Mapping[Obj, str],
                       monads: Sequence[Monad] | None = None) -> dict[str, str]:
    """The induced dualizing family on monads: the dual of each monad's
    multiplication at its own object."""
    if not check_girard_family(Q, family).ok:
        raise NotGirardError("base family is not cyclic dualizing")
    if monads is None:
        monads = monads_of(Q)
    return {monad_name(m): hom_dual(Q, m.obj, m.obj, m.m, family)
            for m in monads}


# ---------------------------------------------------------------------------
# Linear monads


@dataclass(frozen=True)
class LinearMonad:
    obj: Obj
    m_tensor: str
    m_par: str


@dataclass(frozen=True)
class LinearMonadBimodule:
    source: LinearMonad
    target: LinearMonad
    f_tensor: str
    f_par: str


def check_linear_monad(Q: FiniteQuantaloid, lm: LinearMonad) -> bool:
    return validate_linear_monad(Q, lm).ok


def validate_linear_monad(Q: FiniteQuantaloid, lm: LinearMonad,
                          suite: str = "linear-monad") -> LawReport:
    """Per-law report form of the linear monad conditions."""
    return _monad_report(
        suite, Q, _LINEAR_MONAD_LAWS, {"x": (lm.obj,)},
        {"et": _one(lm.m_tensor), "ep": _one(lm.m_par)},
        {"object": lm.obj, "m_tensor": lm.m_tensor, "m_par": lm.m_par})


def _linear_ends(src: LinearMonad, tgt: LinearMonad) -> dict[str, Matrix]:
    """The endpoint enrichments of a bimodule between linear monads."""
    return {"Mt": _one(src.m_tensor), "Mp": _one(src.m_par),
            "Nt": _one(tgt.m_tensor), "Np": _one(tgt.m_par)}


def validate_linear_monad_bimodule(Q: FiniteQuantaloid, bim: LinearMonadBimodule,
                                   suite: str = "linear-monad-bimodule") -> LawReport:
    mats = {**_linear_ends(bim.source, bim.target),
            "vt": _one(bim.f_tensor), "vp": _one(bim.f_par)}
    return _monad_report(suite, Q, _LINEAR_MBIM_LAWS,
                         _ends(bim.source, bim.target), mats,
                         {"f_tensor": bim.f_tensor, "f_par": bim.f_par})


def linear_monads_of(Q: FiniteQuantaloid) -> list[LinearMonad]:
    """The linear monads of Q in object and element order, found once per
    quantaloid; each call gets a new list."""
    return list(_memoized(Q, ("linear-monads",), partial(_linear_monads, Q)))


def _linear_monads(Q: FiniteQuantaloid) -> tuple[LinearMonad, ...]:
    return tuple(LinearMonad(a, et[0][0], ep[0][0]) for a in Q.objects
                 for et, ep in _search(Q, _LINEAR_MONAD_LAWS, {"x": (a,)}, {},
                                       ("et", "ep")))


def check_linear_monad_bimodule(Q: FiniteQuantaloid,
                                bim: LinearMonadBimodule) -> bool:
    return validate_linear_monad_bimodule(Q, bim).ok


def _linear_parts(Q: FiniteQuantaloid, src: LinearMonad, tgt: LinearMonad,
                  part: str) -> list[str]:
    """The valid tensor (``"vt"``) or par (``"vp"``) parts of the linear
    bimodules from `src` to `tgt`, in hom order."""
    return [v[0][0] for v, in _search(Q, _LINEAR_MBIM_LAWS, _ends(src, tgt),
                                      _linear_ends(src, tgt), (part,))]


def linear_monad_bimodules(Q: FiniteQuantaloid, src: LinearMonad,
                           tgt: LinearMonad) -> list[LinearMonadBimodule]:
    """Every law reads only the tensor part or only the par part, so the
    linear bimodules are the two searches' product, tensor part outer."""
    pars = _linear_parts(Q, src, tgt, "vp")
    return [LinearMonadBimodule(src, tgt, vt, vp)
            for vt in _linear_parts(Q, src, tgt, "vt") for vp in pars]


def linear_monad_name(lm: LinearMonad) -> str:
    return f"{lm.obj}|{lm.m_tensor}|{lm.m_par}"


def linear_monq_quantaloid(Q: FiniteQuantaloid,
                           monads: Sequence[LinearMonad] | None = None,
                           cap: int = 64) -> FiniteQuantaloid:
    """Materialize the linear quantaloid of linear monads, once per
    quantaloid and monad list.

    No bimodule law reads both parts of a pair, so hom(m, n) is the
    product of the valid tensor parts under the base order and the valid
    par parts under the opposite order, with elements named ``"t|p"``.
    Its tensor pairs the base tensor of the tensor parts with the base par
    of the par parts in reversed order, and its par does the reverse.
    """
    if monads is None:
        monads = linear_monads_of(Q)
    if len(monads) > cap:
        raise SearchSpaceError(f"{len(monads)} linear monads exceed cap {cap}")
    monads = tuple(monads)
    return _memoized(Q, ("linear-monq", monads), partial(_linear_monq, Q, monads))


def _linear_monq(Q: FiniteQuantaloid,
                 monads: tuple[LinearMonad, ...]) -> FiniteQuantaloid:
    names = {lm: linear_monad_name(lm) for lm in monads}
    parts = {(m, n): (_linear_parts(Q, m, n, "vt"), _linear_parts(Q, m, n, "vp"))
             for m, n in product(monads, repeat=2)}
    homs = {(names[m], names[n]): product_lattice(
                _sublattice(Q.hom(m.obj, n.obj), T),
                _sublattice(Q.hom(n.obj, m.obj), P).opposite())
            for (m, n), (T, P) in parts.items()}
    t_tables, p_tables = {}, {}
    for m, n, p in product(monads, repeat=3):
        a, b, c = m.obj, n.obj, p.obj
        (T, P), (T2, P2) = parts[(m, n)], parts[(n, p)]
        for tables, t_op, p_op in ((t_tables, Q.compose, Q.par_compose),
                                   (p_tables, Q.par_compose, Q.compose)):
            # (f_t|f_p)(g_t|g_p) is f_t.g_t | g_p.f_p under t_op, p_op
            tt = [[t_op(a, b, c, ft, gt) for gt in T2] for ft in T]
            pp = [[p_op(c, b, a, gp, fp) for fp in P] for gp in P2]
            tables[(names[m], names[n], names[p])] = tuple(
                tuple(f"{t}|{pp_g[j]}" for t in tt_f for pp_g in pp)
                for tt_f in tt for j in range(len(P)))
    units_top = {names[m]: f"{m.m_tensor}|{m.m_par}" for m in monads}
    units_bot = {names[m]: f"{m.m_par}|{m.m_tensor}" for m in monads}
    return finite_quantaloid(tuple(names[m] for m in monads), homs, t_tables,
                             units_top, p_tables, units_bot)


# ---------------------------------------------------------------------------
# JSON interface
#
# {"objects": [...],
#  "homs": {"a->b": {"elements": [...], "covers": [[lo, hi], ...]}, ...},
#  "compose": {"a->b->c": [[...row-major...]], ...},
#  "units": {"a": elem, ...},
#  "par_compose": {...}?, "par_units": {...}?}


def _key(*objs: Obj) -> str:
    """The key of an object pair or triple in a quantaloid file."""
    return "->".join(objs)


def _json_object(blob, label: str, holds: str) -> dict:
    """A block of a quantaloid file, refused unless it is a JSON object."""
    if not isinstance(blob, dict):
        raise InputFormatError(
            f"{label} must map each {holds}, not {type(blob).__name__}")
    return blob


def quantaloid_from_json(obj: dict) -> FiniteQuantaloid:
    try:
        objects = _object_names(obj["objects"])
        hom_blobs = _json_object(obj["homs"], "homs", "object pair to a hom")
        compose_blobs = obj["compose"]
        units = _json_object(obj["units"], "units", "object to an element")
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"quantaloid file is missing field: {exc}") from None
    if not objects:
        raise InputFormatError("objects must name at least one object")

    def blocks(blobs, repeat: int, label: str):
        """(objects, key, block) of each object tuple, in product order."""
        for objs in product(objects, repeat=repeat):
            key = _key(*objs)
            if key not in blobs:
                raise InputFormatError(f"missing {label} {key!r}")
            yield objs, key, blobs[key]

    homs = {}
    for pair, key, blob in blocks(hom_blobs, 2, "hom block"):
        if not isinstance(blob, dict) or not {"elements", "covers"} <= blob.keys():
            raise InputFormatError(
                f"hom block {key!r} needs 'elements' and 'covers'")
        homs[pair] = build_lattice(blob["elements"], blob["covers"])

    def tables_from(blobs, label):
        _json_object(blobs, label, "object triple to a table")
        return {trip: table for trip, _, table in blocks(blobs, 3, f"{label} table")}

    par_tables = None
    par_units = None
    if "par_compose" in obj and obj["par_compose"] is not None:
        par_tables = tables_from(obj["par_compose"], "par_compose")
        par_units = _json_object(obj.get("par_units") or {}, "par_units",
                                 "object to an element")
    return finite_quantaloid(objects, homs, tables_from(compose_blobs, "compose"),
                             units, par_tables, par_units)


def quantaloid_to_json(Q: FiniteQuantaloid) -> dict:
    out = {
        "objects": list(Q.objects),
        "homs": {},
        "compose": {},
        "units": dict(Q.units_top),
    }
    for (a, b), lat in Q.homs.items():
        covers = []
        n = len(lat.elements)
        for i in range(n):
            for j in range(n):
                if i != j and lat.leq_matrix[i][j]:
                    between = any(k not in (i, j) and lat.leq_matrix[i][k]
                                  and lat.leq_matrix[k][j] for k in range(n))
                    if not between:
                        covers.append([lat.elements[i], lat.elements[j]])
        out["homs"][_key(a, b)] = {"elements": list(lat.elements),
                                   "covers": covers}
    for (a, b, c), table in Q.tensor_tables.items():
        out["compose"][_key(a, b, c)] = [list(r) for r in table]
    if Q.has_par:
        out["par_compose"] = {_key(a, b, c): [list(r) for r in table]
                              for (a, b, c), table in Q.par_tables.items()}
        out["par_units"] = dict(Q.units_bot)
    return out
