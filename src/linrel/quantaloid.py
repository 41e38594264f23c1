"""Finite quantaloids, their Girard families, and monads with bimodules.

Hom-sets are finite lattices; composition is diagrammatic (f: a->b then
g: b->c yields f.g: a->c) and given by explicit tables per composable
triple of objects.  An optional par layer adds the second composition and
its identities, making the structure a linear quantaloid candidate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from typing import Callable, Mapping, Sequence, TypeVar

from .errors import (
    DuplicateNameError,
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotGirardError,
    SearchSpaceError,
)
from .lattice import FiniteLattice, build_lattice, lattice_from_leq
from .quantale import FiniteCarrier, Quantale, TableOp
from .report import LawReport, law_entry

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


def check_quantaloid_laws(Q: FiniteQuantaloid,
                          suite: str = "quantaloid-laws") -> LawReport:
    """Exhaustive composition laws over all composable tuples; the par
    layer, when present, is checked dually plus both linear distributions.

    The checks run on ``Q.coded``, once per quantaloid; element names are
    looked up only to build a witness, which is the first failing tuple in
    loop order.  Each report gets its own copy of every witness."""
    verdicts = _memoized(Q, ("quantaloid-laws",),
                         partial(_quantaloid_law_verdicts, Q))
    return LawReport(suite, tuple(law_entry(label, copy.deepcopy(wit),
                                            "exhaustive")
                                  for label, wit in verdicts))


def _quantaloid_law_verdicts(Q: FiniteQuantaloid):
    """Each law's label and first witness (None when it holds)."""
    code, homs, objs = Q.coded, Q.homs, Q.objects
    name = partial(_name, Q)

    def first_diff(xs, ys) -> int:
        return next(k for k, (x, y) in enumerate(zip(xs, ys)) if x != y)

    def assoc(T):
        for a, b, c, d in product(objs, repeat=4):
            t_abd, t_acd, t_bcd = T[(a, b, d)], T[(a, c, d)], T[(b, c, d)]
            for f, fg_row in enumerate(T[(a, b, c)]):
                f_row = t_abd[f]
                for g, fg in enumerate(fg_row):
                    lhs = t_acd[fg]
                    rhs = tuple(map(f_row.__getitem__, t_bcd[g]))
                    if lhs != rhs:
                        h = first_diff(lhs, rhs)
                        return {"objects": [a, b, c, d], "f": name(a, b, f),
                                "g": name(b, c, g), "h": name(c, d, h),
                                "lhs": name(a, d, lhs[h]),
                                "rhs": name(a, d, rhs[h])}
        return None

    def unit(T, units, left):
        for a, b in product(objs, repeat=2):
            if left:
                got = T[(a, a, b)][homs[(a, a)].index(units[a])]
            else:
                u = homs[(b, b)].index(units[b])
                got = tuple(row[u] for row in T[(a, b, b)])
            for f, v in enumerate(got):
                if v != f:
                    return {"objects": [a, b], "f": name(a, b, f),
                            "lhs": name(a, b, v)}
        return None

    def sup(T, bound, left):
        # the right law is the left one on the transposed table
        for a, b, c in product(objs, repeat=3):
            src, other = ((a, b), (b, c)) if left else ((b, c), (a, b))
            agg = getattr(homs[src], bound)
            out = getattr(homs[(a, c)], bound)
            rows = T[(a, b, c)] if left else tuple(zip(*T[(a, b, c)]))
            for f1, r1 in enumerate(rows):
                agg_row = agg[f1]
                for f2, r2 in enumerate(rows):
                    lhs = rows[agg_row[f2]]
                    rhs = tuple(out[x][y] for x, y in zip(r1, r2))
                    if lhs != rhs:
                        g = first_diff(lhs, rhs)
                        return {"objects": [a, b, c], "f1": name(*src, f1),
                                "f2": name(*src, f2), "g": name(*other, g),
                                "lhs": name(a, c, lhs[g]),
                                "rhs": name(a, c, rhs[g])}
        return None

    def absorb(T, bound, left):
        def absorber(pair):
            return homs[pair].index(getattr(homs[pair], bound))

        for a, b, c in product(objs, repeat=3):
            want = absorber((a, c))
            if left:
                src, key, got = (b, c), "g", T[(a, b, c)][absorber((a, b))]
            else:
                z = absorber((b, c))
                src, key, got = (a, b), "f", tuple(row[z] for row in T[(a, b, c)])
            for i, v in enumerate(got):
                if v != want:
                    return {"objects": [a, b, c], key: name(*src, i),
                            "lhs": name(a, c, v)}
        return None

    def dist(left):
        T, P = code.tensor, code.par
        for a, b, c, d in product(objs, repeat=4):
            leq = homs[(a, d)].leq_matrix
            t_abc, t_acd, t_abd, t_bcd = (T[(a, b, c)], T[(a, c, d)],
                                          T[(a, b, d)], T[(b, c, d)])
            p_abc, p_acd, p_abd, p_bcd = (P[(a, b, c)], P[(a, c, d)],
                                          P[(a, b, d)], P[(b, c, d)])
            for f, g in product(range(len(t_abc)), range(len(t_bcd))):
                if left:
                    lhs = tuple(map(t_abd[f].__getitem__, p_bcd[g]))
                    rhs = p_acd[t_abc[f][g]]
                else:
                    lhs = t_acd[p_abc[f][g]]
                    rhs = tuple(map(p_abd[f].__getitem__, t_bcd[g]))
                for h, (x, y) in enumerate(zip(lhs, rhs)):
                    if not leq[x][y]:
                        return {"objects": [a, b, c, d], "f": name(a, b, f),
                                "g": name(b, c, g), "h": name(c, d, h),
                                "lhs": name(a, d, x), "rhs": name(a, d, y)}
        return None

    layers = [("tensor", code.tensor, Q.units_top, "join_table", "sup", "bottom")]
    if Q.has_par:
        layers.append(("par", code.par, Q.units_bot, "meet_table", "inf", "top"))
    checks = []
    for op, T, units, bound, sup_name, absorber in layers:
        checks += [
            (f"{op}-associativity", assoc(T)),
            (f"{op}-unit-left", unit(T, units, True)),
            (f"{op}-unit-right", unit(T, units, False)),
            (f"{op}-{sup_name}-left", sup(T, bound, True)),
            (f"{op}-{sup_name}-right", sup(T, bound, False)),
            (f"{op}-{absorber}-left", absorb(T, absorber, True)),
            (f"{op}-{absorber}-right", absorb(T, absorber, False)),
        ]
    if Q.has_par:
        checks += [("linear-distribution-left", dist(True)),
                   ("linear-distribution-right", dist(False))]
    return tuple(checks)


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


def check_girard_family(Q: FiniteQuantaloid, family: Mapping[Obj, str],
                        suite: str = "girard-family") -> LawReport:
    d = {}
    for a in Q.objects:
        if a not in family:
            raise MismatchError(f"family is missing object {a!r}")
        d[a] = Q.hom(a, a).index(family[a])
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
    h = Q.hom(monad.obj, monad.obj)
    a, m = monad.obj, monad.m
    return h.leq(Q.unit_top(a), m) and h.leq(Q.compose(a, a, a, m, m), m)


def monads_of(Q: FiniteQuantaloid) -> list[Monad]:
    """The monads of Q in object and element order, found once per
    quantaloid; each call gets a new list."""
    return list(_memoized(Q, ("monads",), partial(_monads, Q)))


def _monads(Q: FiniteQuantaloid) -> tuple[Monad, ...]:
    out = []
    for a in Q.objects:
        for m in Q.hom(a, a).elements:
            cand = Monad(a, m)
            if check_monad(Q, cand):
                out.append(cand)
    return tuple(out)


def check_monad_bimodule(Q: FiniteQuantaloid, bim: MonadBimodule) -> bool:
    a, b = bim.source.obj, bim.target.obj
    h = Q.hom(a, b)
    return (h.leq(Q.compose(a, a, b, bim.source.m, bim.f), bim.f)
            and h.leq(Q.compose(a, b, b, bim.f, bim.target.m), bim.f))


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
    homs = {}
    bim_elems: dict[tuple[Monad, Monad], list[str]] = {}
    for m in monads:
        for n in monads:
            elems = [f for f in Q.hom(m.obj, n.obj).elements
                     if check_monad_bimodule(Q, MonadBimodule(m, n, f))]
            bim_elems[(m, n)] = elems
            homs[(names[m], names[n])] = _sublattice(Q.hom(m.obj, n.obj), elems)
    tables = {}
    for m in monads:
        for n in monads:
            for p in monads:
                tables[(names[m], names[n], names[p])] = tuple(
                    tuple(Q.compose(m.obj, n.obj, p.obj, f, g)
                          for g in bim_elems[(n, p)])
                    for f in bim_elems[(m, n)])
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


def _linear_monad_laws(Q: FiniteQuantaloid, lm: LinearMonad):
    """Each linear monad law's label and whether it holds, in law order,
    evaluated one at a time so a check can stop at the first failure."""
    if not Q.has_par:
        raise NoParStructureError("linear monads need a par layer")
    a = lm.obj
    h = Q.hom(a, a)
    t, p = lm.m_tensor, lm.m_par
    comp = lambda f, g: Q.compose(a, a, a, f, g)
    pcomp = lambda f, g: Q.par_compose(a, a, a, f, g)
    yield "monad-unit", h.leq(Q.unit_top(a), t)
    yield "monad-multiplication", h.leq(comp(t, t), t)
    yield "comonad-counit", h.leq(p, Q.unit_bot(a))
    yield "comonad-comultiplication", h.leq(p, pcomp(p, p))
    yield "monad-mixed-par-tensor", h.leq(t, pcomp(p, t))
    yield "monad-mixed-tensor-par", h.leq(t, pcomp(t, p))
    yield "monad-mixed-absorb-right", h.leq(comp(t, p), p)
    yield "monad-mixed-absorb-left", h.leq(comp(p, t), p)


def check_linear_monad(Q: FiniteQuantaloid, lm: LinearMonad) -> bool:
    return all(ok for _, ok in _linear_monad_laws(Q, lm))


def validate_linear_monad(Q: FiniteQuantaloid, lm: LinearMonad,
                          suite: str = "linear-monad") -> LawReport:
    """Per-law report form of the linear monad conditions."""
    wit = {"object": lm.obj, "m_tensor": lm.m_tensor, "m_par": lm.m_par}
    return LawReport(suite, tuple(
        law_entry(label, None if ok else dict(wit), "exhaustive")
        for label, ok in _linear_monad_laws(Q, lm)))


def _linear_bimodule_laws(Q: FiniteQuantaloid, bim: LinearMonadBimodule):
    """Each linear monad bimodule law's label and whether it holds, in law
    order, evaluated one at a time."""
    src, tgt = bim.source, bim.target
    a, b = src.obj, tgt.obj
    ft, fp = bim.f_tensor, bim.f_par
    h_ab, h_ba = Q.hom(a, b), Q.hom(b, a)
    yield ("mbim-tensor-right-action",
           h_ab.leq(Q.compose(a, b, b, ft, tgt.m_tensor), ft))
    yield ("mbim-tensor-left-action",
           h_ab.leq(Q.compose(a, a, b, src.m_tensor, ft), ft))
    yield ("mbim-tensor-left-coaction",
           h_ab.leq(ft, Q.par_compose(a, a, b, src.m_par, ft)))
    yield ("mbim-tensor-right-coaction",
           h_ab.leq(ft, Q.par_compose(a, b, b, ft, tgt.m_par)))
    yield ("mbim-par-left-coaction",
           h_ba.leq(fp, Q.par_compose(b, b, a, tgt.m_par, fp)))
    yield ("mbim-par-right-coaction",
           h_ba.leq(fp, Q.par_compose(b, a, a, fp, src.m_par)))
    yield ("mbim-par-left-action",
           h_ba.leq(Q.compose(b, b, a, tgt.m_tensor, fp), fp))
    yield ("mbim-par-right-action",
           h_ba.leq(Q.compose(b, a, a, fp, src.m_tensor), fp))


def validate_linear_monad_bimodule(Q: FiniteQuantaloid, bim: LinearMonadBimodule,
                                   suite: str = "linear-monad-bimodule") -> LawReport:
    wit = {"f_tensor": bim.f_tensor, "f_par": bim.f_par}
    return LawReport(suite, tuple(
        law_entry(label, None if ok else dict(wit), "exhaustive")
        for label, ok in _linear_bimodule_laws(Q, bim)))


def linear_monads_of(Q: FiniteQuantaloid) -> list[LinearMonad]:
    """The linear monads of Q in object and element order, found once per
    quantaloid; each call gets a new list."""
    return list(_memoized(Q, ("linear-monads",), partial(_linear_monads, Q)))


def _linear_monads(Q: FiniteQuantaloid) -> tuple[LinearMonad, ...]:
    out = []
    for a in Q.objects:
        for t in Q.hom(a, a).elements:
            for p in Q.hom(a, a).elements:
                cand = LinearMonad(a, t, p)
                if check_linear_monad(Q, cand):
                    out.append(cand)
    return tuple(out)


def check_linear_monad_bimodule(Q: FiniteQuantaloid,
                                bim: LinearMonadBimodule) -> bool:
    return all(ok for _, ok in _linear_bimodule_laws(Q, bim))


def linear_monad_bimodules(Q: FiniteQuantaloid, src: LinearMonad,
                           tgt: LinearMonad) -> list[LinearMonadBimodule]:
    out = []
    for ft in Q.hom(src.obj, tgt.obj).elements:
        for fp in Q.hom(tgt.obj, src.obj).elements:
            cand = LinearMonadBimodule(src, tgt, ft, fp)
            if check_linear_monad_bimodule(Q, cand):
                out.append(cand)
    return out


def linear_monq_compose_tensor(Q: FiniteQuantaloid, f: LinearMonadBimodule,
                               g: LinearMonadBimodule) -> LinearMonadBimodule:
    """Tensor of bimodule pairs: tensor parts compose with tensor, par
    parts with par in the reversed (composable) order."""
    if f.target != g.source:
        raise MismatchError("linear monad bimodules are not composable")
    a, b, c = f.source.obj, f.target.obj, g.target.obj
    return LinearMonadBimodule(
        f.source, g.target,
        Q.compose(a, b, c, f.f_tensor, g.f_tensor),
        Q.par_compose(c, b, a, g.f_par, f.f_par))


def linear_monq_compose_par(Q: FiniteQuantaloid, f: LinearMonadBimodule,
                            g: LinearMonadBimodule) -> LinearMonadBimodule:
    if f.target != g.source:
        raise MismatchError("linear monad bimodules are not composable")
    a, b, c = f.source.obj, f.target.obj, g.target.obj
    return LinearMonadBimodule(
        f.source, g.target,
        Q.par_compose(a, b, c, f.f_tensor, g.f_tensor),
        Q.compose(c, b, a, g.f_par, f.f_par))


def linear_monq_identity_top(Q: FiniteQuantaloid, lm: LinearMonad) -> LinearMonadBimodule:
    return LinearMonadBimodule(lm, lm, lm.m_tensor, lm.m_par)


def linear_monq_identity_bot(Q: FiniteQuantaloid, lm: LinearMonad) -> LinearMonadBimodule:
    return LinearMonadBimodule(lm, lm, lm.m_par, lm.m_tensor)


def linear_monad_name(lm: LinearMonad) -> str:
    return f"{lm.obj}|{lm.m_tensor}|{lm.m_par}"


def _pair_name(ft: str, fp: str) -> str:
    return f"{ft}|{fp}"


def linear_monq_quantaloid(Q: FiniteQuantaloid,
                           monads: Sequence[LinearMonad] | None = None,
                           cap: int = 64) -> FiniteQuantaloid:
    """Materialize the linear quantaloid of linear monads, once per
    quantaloid and monad list.

    Hom elements are bimodule pairs ordered with the par component
    reversed, so joins are pairs of join and meet.
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
    bims: dict[tuple[LinearMonad, LinearMonad], list[LinearMonadBimodule]] = {}
    homs = {}
    for m in monads:
        for n in monads:
            items = linear_monad_bimodules(Q, m, n)
            bims[(m, n)] = items
            h_t = Q.hom(m.obj, n.obj)
            h_p = Q.hom(n.obj, m.obj)
            labels = [_pair_name(b.f_tensor, b.f_par) for b in items]
            leq = [[h_t.leq(x.f_tensor, y.f_tensor) and h_p.leq(y.f_par, x.f_par)
                    for y in items] for x in items]
            homs[(names[m], names[n])] = lattice_from_leq(labels, leq)
    t_tables = {}
    p_tables = {}
    for m in monads:
        for n in monads:
            for p in monads:
                key = (names[m], names[n], names[p])
                t_rows = []
                p_rows = []
                for f in bims[(m, n)]:
                    t_row = []
                    p_row = []
                    for g in bims[(n, p)]:
                        ct = linear_monq_compose_tensor(Q, f, g)
                        cp = linear_monq_compose_par(Q, f, g)
                        t_row.append(_pair_name(ct.f_tensor, ct.f_par))
                        p_row.append(_pair_name(cp.f_tensor, cp.f_par))
                    t_rows.append(tuple(t_row))
                    p_rows.append(tuple(p_row))
                t_tables[key] = tuple(t_rows)
                p_tables[key] = tuple(p_rows)
    units_top = {names[m]: _pair_name(m.m_tensor, m.m_par) for m in monads}
    units_bot = {names[m]: _pair_name(m.m_par, m.m_tensor) for m in monads}
    return finite_quantaloid(tuple(names[m] for m in monads), homs, t_tables,
                             units_top, p_tables, units_bot)


def transfer_to_linear_monq(Q: FiniteQuantaloid, label: str, witness: dict) -> bool:
    """Replay a base law failure inside the monad construction.

    Uses trivial linear monads and bimodule pairs (f, dual of f against
    the tensor unit); returns whether the corresponding law still holds
    (False reproduces the failure).
    """
    objs = witness.get("objects")
    fs = [witness[k] for k in ("f", "g", "h", "f1", "f2") if k in witness]
    if objs is None or not fs:
        return True

    def trivial(a: Obj) -> LinearMonad:
        return LinearMonad(a, Q.unit_top(a), Q.unit_bot(a))

    def embed(a: Obj, b: Obj, f: str) -> LinearMonadBimodule:
        companion = hom_dual(Q, a, b, f, {o: Q.unit_top(o) for o in Q.objects})
        return LinearMonadBimodule(trivial(a), trivial(b), f, companion)

    def pair_leq(x: LinearMonadBimodule, y: LinearMonadBimodule) -> bool:
        h_t = Q.hom(x.source.obj, x.target.obj)
        h_p = Q.hom(x.target.obj, x.source.obj)
        return h_t.leq(x.f_tensor, y.f_tensor) and h_p.leq(y.f_par, x.f_par)

    if label == "tensor-associativity" and len(objs) == 4 and len(fs) >= 3:
        a, b, c, d = objs
        F, G, H = embed(a, b, fs[0]), embed(b, c, fs[1]), embed(c, d, fs[2])
        lhs = linear_monq_compose_tensor(Q, linear_monq_compose_tensor(Q, F, G), H)
        rhs = linear_monq_compose_tensor(Q, F, linear_monq_compose_tensor(Q, G, H))
        return lhs.f_tensor == rhs.f_tensor
    if label == "par-associativity" and len(objs) == 4 and len(fs) >= 3:
        a, b, c, d = objs
        F, G, H = embed(a, b, fs[0]), embed(b, c, fs[1]), embed(c, d, fs[2])
        lhs = linear_monq_compose_par(Q, linear_monq_compose_par(Q, F, G), H)
        rhs = linear_monq_compose_par(Q, F, linear_monq_compose_par(Q, G, H))
        return lhs.f_tensor == rhs.f_tensor
    if label.startswith("linear-distribution") and len(objs) == 4 and len(fs) >= 3:
        a, b, c, d = objs
        F, G, H = embed(a, b, fs[0]), embed(b, c, fs[1]), embed(c, d, fs[2])
        if label.endswith("left"):
            lhs = linear_monq_compose_tensor(Q, F, linear_monq_compose_par(Q, G, H))
            rhs = linear_monq_compose_par(Q, linear_monq_compose_tensor(Q, F, G), H)
        else:
            lhs = linear_monq_compose_tensor(Q, linear_monq_compose_par(Q, F, G), H)
            rhs = linear_monq_compose_par(Q, F, linear_monq_compose_tensor(Q, G, H))
        return pair_leq(lhs, rhs)
    if label in ("tensor-unit-left", "tensor-unit-right") and len(fs) >= 1:
        a, b = objs
        F = embed(a, b, fs[0])
        if label.endswith("left"):
            got = linear_monq_compose_tensor(
                Q, linear_monq_identity_top(Q, trivial(a)), F)
        else:
            got = linear_monq_compose_tensor(
                Q, F, linear_monq_identity_top(Q, trivial(b)))
        return got.f_tensor == F.f_tensor
    if label in ("par-unit-left", "par-unit-right") and len(fs) >= 1:
        a, b = objs
        F = embed(a, b, fs[0])
        if label.endswith("left"):
            got = linear_monq_compose_par(
                Q, linear_monq_identity_bot(Q, trivial(a)), F)
        else:
            got = linear_monq_compose_par(
                Q, F, linear_monq_identity_bot(Q, trivial(b)))
        return got.f_tensor == F.f_tensor
    if label in ("tensor-bottom-left", "tensor-bottom-right",
                 "par-top-left", "par-top-right") and len(objs) == 3:
        a, b, c = objs
        par = label.startswith("par")
        left = label.endswith("left")
        f = fs[0]
        if par:
            if left:
                got = Q.par_compose(a, b, c, Q.hom(a, b).top, f)
            else:
                got = Q.par_compose(a, b, c, f, Q.hom(b, c).top)
            return got == Q.hom(a, c).top
        if left:
            got = Q.compose(a, b, c, Q.hom(a, b).bottom, f)
        else:
            got = Q.compose(a, b, c, f, Q.hom(b, c).bottom)
        return got == Q.hom(a, c).bottom
    if label in ("tensor-sup-left", "tensor-sup-right",
                 "par-inf-left", "par-inf-right") and len(objs) == 3:
        a, b, c = objs
        f1, f2, g = witness["f1"], witness["f2"], witness["g"]
        par = label.startswith("par")
        compose = (lambda x, y, z, u, v: Q.par_compose(x, y, z, u, v)) if par \
            else (lambda x, y, z, u, v: Q.compose(x, y, z, u, v))
        left = label.endswith("left")
        agg_hom = Q.hom(a, b) if left else Q.hom(b, c)
        out_hom = Q.hom(a, c)
        agg = agg_hom.meet if par else agg_hom.join
        out = out_hom.meet if par else out_hom.join
        if left:
            lhs = compose(a, b, c, agg((f1, f2)), g)
            rhs = out((compose(a, b, c, f1, g), compose(a, b, c, f2, g)))
        else:
            lhs = compose(a, b, c, g, agg((f1, f2)))
            rhs = out((compose(a, b, c, g, f1), compose(a, b, c, g, f2)))
        return lhs == rhs
    return True


# ---------------------------------------------------------------------------
# JSON interface
#
# {"objects": [...],
#  "homs": {"a->b": {"elements": [...], "covers": [[lo, hi], ...]}, ...},
#  "compose": {"a->b->c": [[...row-major...]], ...},
#  "units": {"a": elem, ...},
#  "par_compose": {...}?, "par_units": {...}?, "dualizers": {...}?}


def _pair_key(a: Obj, b: Obj) -> str:
    return f"{a}->{b}"


def _triple_key(a: Obj, b: Obj, c: Obj) -> str:
    return f"{a}->{b}->{c}"


def _units_from_json(units, label: str) -> dict[Obj, str]:
    if not isinstance(units, dict):
        raise InputFormatError(
            f"{label} must map each object to an element, not "
            f"{type(units).__name__}")
    return units


def quantaloid_from_json(obj: dict) -> FiniteQuantaloid:
    try:
        objects = _object_names(obj["objects"])
        hom_blobs = obj["homs"]
        compose_blobs = obj["compose"]
        units = _units_from_json(obj["units"], "units")
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"quantaloid file is missing field: {exc}") from None
    homs = {}
    for a in objects:
        for b in objects:
            key = _pair_key(a, b)
            if key not in hom_blobs:
                raise InputFormatError(f"missing hom block {key!r}")
            blob = hom_blobs[key]
            if not isinstance(blob, dict) or not {"elements", "covers"} <= blob.keys():
                raise InputFormatError(
                    f"hom block {key!r} needs 'elements' and 'covers'")
            homs[(a, b)] = build_lattice(blob["elements"], blob["covers"])

    def tables_from(blobs, label):
        tables = {}
        for a in objects:
            for b in objects:
                for c in objects:
                    key = _triple_key(a, b, c)
                    if key not in blobs:
                        raise InputFormatError(f"missing {label} table {key!r}")
                    tables[(a, b, c)] = blobs[key]
        return tables

    par_tables = None
    par_units = None
    if "par_compose" in obj and obj["par_compose"] is not None:
        par_tables = tables_from(obj["par_compose"], "par")
        par_units = _units_from_json(obj.get("par_units") or {}, "par_units")
    return finite_quantaloid(objects, homs, tables_from(compose_blobs, "compose"),
                             units, par_tables, par_units)


def quantaloid_family_from_json(obj: dict) -> dict[Obj, str] | None:
    if "dualizers" in obj and obj["dualizers"] is not None:
        return dict(obj["dualizers"])
    return None


def quantaloid_to_json(Q: FiniteQuantaloid,
                       family: Mapping[Obj, str] | None = None) -> dict:
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
        out["homs"][_pair_key(a, b)] = {"elements": list(lat.elements),
                                        "covers": covers}
    for (a, b, c), table in Q.tensor_tables.items():
        out["compose"][_triple_key(a, b, c)] = [list(r) for r in table]
    if Q.has_par:
        out["par_compose"] = {_triple_key(a, b, c): [list(r) for r in table]
                              for (a, b, c), table in Q.par_tables.items()}
        out["par_units"] = dict(Q.units_bot)
    if family is not None:
        out["dualizers"] = dict(family)
    return out


def verify_linear_quantaloid_theorems(Q: FiniteQuantaloid,
                                      suite: str = "linear-monq-theorem",
                                      cap: int = 64) -> LawReport:
    """Check the base laws and the materialized monad construction, then
    report the two implications of the equivalence separately."""
    if not Q.has_par:
        raise NoParStructureError("theorem needs a par layer")
    base = check_quantaloid_laws(Q, suite=f"{suite}:base")
    entries = list(base.entries)
    mode = "exhaustive"

    if base.ok:
        monq = linear_monq_quantaloid(Q, cap=cap)
        derived = check_quantaloid_laws(monq, suite=f"{suite}:monq")
        derived_ok = derived.ok
        first_fail = None if derived_ok else derived.failing()[0]
        entries.append(law_entry(
            "theorem-forward",
            None if derived_ok else {"law": first_fail.law,
                                     "witness": first_fail.witness},
            mode))
        entries.append(law_entry("theorem-backward", None, mode))
        entries.append(law_entry("theorem-transfer", None, mode))
    else:
        fail = base.failing()[0]
        reproduced = not transfer_to_linear_monq(Q, fail.law, fail.witness or {})
        entries.append(law_entry("theorem-forward", None, mode))
        entries.append(law_entry(
            "theorem-backward",
            None if reproduced else {"law": fail.law,
                                     "note": "transfer did not reproduce"},
            mode))
        entries.append(law_entry(
            "theorem-transfer",
            None if reproduced else {"law": fail.law, "witness": fail.witness},
            mode))
    return LawReport(suite, tuple(entries))
