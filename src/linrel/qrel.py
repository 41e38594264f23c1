"""Quantale-valued relations between finite sets.

A relation is a dense matrix of carrier elements.  Tensor composition
joins pointwise products over the middle set; par composition meets
pointwise par sums.  Together with the two identity families this is the
1-cell calculus the law suites in :mod:`linrel.verify` exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Any, Iterator, Sequence

from .errors import (
    DuplicateNameError,
    InputFormatError,
    MismatchError,
    NoParStructureError,
    NotGirardError,
)
from .laws import LAWS, SHAPE_SLOTS, WITNESS_KEYS, Calculus
from .quantale import MINUS_INF, PLUS_INF, Elem
from .report import LawReport, Sampler, law_entry

# Quantale, GirardQuantale, or LDQuantale; duck-typed on the shared
# order/multiplication surface.
Ambient = Any


@dataclass(frozen=True)
class FiniteSet:
    name: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


def finite_set(name: str, members: Sequence[str]) -> FiniteSet:
    if not isinstance(members, (list, tuple)):
        raise InputFormatError(
            f"set {name!r} members must be a list, not {type(members).__name__}")
    members = tuple(members)
    if len(set(members)) != len(members):
        raise DuplicateNameError(f"set {name!r} has duplicate members")
    return FiniteSet(name=name, members=members)


@dataclass(frozen=True)
class QRelation:
    """A matrix of carrier elements indexed (source member, target member)."""

    source: FiniteSet
    target: FiniteSet
    ambient: Ambient
    values: tuple[tuple[Elem, ...], ...]

    def entry(self, x: str, y: str) -> Elem:
        return self.values[self.source.members.index(x)][self.target.members.index(y)]


def relation(source: FiniteSet, target: FiniteSet, ambient: Ambient,
             values: Sequence[Sequence[Elem]]) -> QRelation:
    """Validating constructor; composition results skip the entry scan."""
    rows = tuple(tuple(row) for row in values)
    if len(rows) != len(source) or any(len(r) != len(target) for r in rows):
        raise MismatchError(
            f"values must be {len(source)}x{len(target)} for "
            f"{source.name!r} to {target.name!r}")
    for row in rows:
        for v in row:
            if not ambient.contains(v):
                ambient.carrier.check(v)
    return QRelation(source=source, target=target, ambient=ambient, values=rows)


def _require_par(amb: Ambient) -> None:
    if not getattr(amb, "has_par", False):
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


def _compose(f: QRelation, g: QRelation, kernel, op, agg) -> QRelation:
    """``agg`` over the middle set of pointwise ``op`` products; ``kernel``
    is the ambient's FoldKernel for the pair, or None on ZInt backends,
    whose unchecked ``op`` trusts the relations' validated entries."""
    if kernel is None:
        cols = _columns(g)
        vals = tuple(tuple(agg(map(op, frow, col)) for col in cols)
                     for frow in f.values)
    else:
        vals = kernel.compose(f.values, g.values, len(g.target))
    return QRelation(f.source, g.target, f.ambient, vals)


def compose_tensor(f: QRelation, g: QRelation) -> QRelation:
    """Join over the middle set of pointwise tensor products."""
    _require_composable(f, g)
    amb = f.ambient
    return _compose(f, g, getattr(amb, "tensor_fold", None), amb.mul,
                    amb.carrier.join)


def compose_par(f: QRelation, g: QRelation) -> QRelation:
    """Meet over the middle set of pointwise par sums."""
    _require_composable(f, g)
    _require_par(f.ambient)
    amb = f.ambient
    return _compose(f, g, getattr(amb, "par_fold", None), amb.par_mul,
                    amb.carrier.meet)


def id_top(X: FiniteSet, amb: Ambient) -> QRelation:
    """Tensor identity: the unit on the diagonal, bottom elsewhere."""
    unit, bot = amb.unit, amb.bottom
    n = len(X)
    vals = tuple(tuple(unit if i == j else bot for j in range(n)) for i in range(n))
    return QRelation(X, X, amb, vals)


def id_bot(X: FiniteSet, amb: Ambient) -> QRelation:
    """Par identity: the par unit on the diagonal, top elsewhere."""
    _require_par(amb)
    pu, top = amb.par_unit, amb.top
    n = len(X)
    vals = tuple(tuple(pu if i == j else top for j in range(n)) for i in range(n))
    return QRelation(X, X, amb, vals)


def zero_relation(X: FiniteSet, Y: FiniteSet, amb: Ambient) -> QRelation:
    bot = amb.bottom
    return QRelation(X, Y, amb, tuple(tuple(bot for _ in Y.members)
                                      for _ in X.members))


def top_relation(X: FiniteSet, Y: FiniteSet, amb: Ambient) -> QRelation:
    top = amb.top
    return QRelation(X, Y, amb, tuple(tuple(top for _ in Y.members)
                                      for _ in X.members))


def _require_parallel(f: QRelation, g: QRelation) -> None:
    if f.source != g.source or f.target != g.target or f.ambient != g.ambient:
        raise MismatchError("relations are not parallel")


def rel_leq(f: QRelation, g: QRelation) -> bool:
    _require_parallel(f, g)
    leq = f.ambient.leq
    return all(leq(a, b) for fr, gr in zip(f.values, g.values)
               for a, b in zip(fr, gr))


def _pointwise(f: QRelation, g: QRelation, agg) -> QRelation:
    _require_parallel(f, g)
    vals = tuple(tuple(agg((a, b)) for a, b in zip(fr, gr))
                 for fr, gr in zip(f.values, g.values))
    return QRelation(f.source, f.target, f.ambient, vals)


def rel_join(f: QRelation, g: QRelation) -> QRelation:
    return _pointwise(f, g, f.ambient.join)


def rel_meet(f: QRelation, g: QRelation) -> QRelation:
    return _pointwise(f, g, f.ambient.meet)


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


def dual_family(X: FiniteSet, amb: Ambient, d: Elem | None = None) -> QRelation:
    """The dualizing endo-relation: d on the diagonal, lattice top off it."""
    if d is None:
        d = getattr(amb, "dualizer", None)
        if d is None:
            raise NotGirardError("no dualizer available for the dual family")
    amb.carrier.check(d)
    top = amb.top
    n = len(X)
    vals = tuple(tuple(d if i == j else top for j in range(n)) for i in range(n))
    return QRelation(X, X, amb, vals)


def rel_dual(r: QRelation, d: Elem | None = None) -> QRelation:
    """Entrywise residual into the dualizer, transposed."""
    amb = r.ambient
    if d is None:
        d = getattr(amb, "dualizer", None)
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
    X, Y = A.source, A.target
    amb = A.ambient
    return (rel_leq(id_top(X, amb), compose_par(A, B))
            and rel_leq(compose_tensor(B, A), id_bot(Y, amb)))


# ---------------------------------------------------------------------------
# Enumeration and sampling


def enumerate_relations(amb: Ambient, X: FiniteSet, Y: FiniteSet) -> Iterator[QRelation]:
    """All relations X->Y over a finite carrier, in element declaration order."""
    els = amb.carrier.lattice.elements
    nx, ny = len(X), len(Y)
    for flat in product(els, repeat=nx * ny):
        vals = tuple(flat[i * ny:(i + 1) * ny] for i in range(nx))
        yield QRelation(X, Y, amb, vals)


def count_relations(amb: Ambient, X: FiniteSet, Y: FiniteSet) -> int | None:
    """Slot size for finite carriers, None when the carrier is infinite."""
    if not amb.carrier.is_finite:
        return None
    return len(amb.carrier.lattice.elements) ** (len(X) * len(Y))


def random_relation(rng, amb: Ambient, X: FiniteSet, Y: FiniteSet,
                    window: int = 10, inf_weight: float = 0.125) -> QRelation:
    if amb.carrier.is_finite:
        els = amb.carrier.lattice.elements
        vals = tuple(tuple(rng.choice(els) for _ in Y.members) for _ in X.members)
    else:
        def entry() -> Elem:
            u = rng.random()
            if u < inf_weight:
                return PLUS_INF
            if u < 2 * inf_weight:
                return MINUS_INF
            return rng.randint(-window, window)
        vals = tuple(tuple(entry() for _ in Y.members) for _ in X.members)
    return QRelation(X, Y, amb, vals)


def sample_relation_tuples(amb: Ambient, sets: Sequence[FiniteSet],
                           sampler: Sampler, shape: str,
                           ) -> tuple[str, list[tuple[QRelation, ...]]]:
    """Relation tuples laid out by a law shape (see ``SHAPE_SLOTS``).

    Exhaustive when the finite carrier keeps every slot under the per-slot
    cap and the full tuple count under the budget; otherwise seeded random.
    Returns the sample mode label together with the realized cases.
    """
    slots = SHAPE_SLOTS[shape]
    n_points = 1 + max(j for _, j in slots)
    boundaries = list(product(sets, repeat=n_points))
    total = 0
    exhaustive_ok = amb.carrier.is_finite
    if exhaustive_ok:
        for bnd in boundaries:
            slot_counts = [count_relations(amb, bnd[i], bnd[j]) for i, j in slots]
            if any(c > sampler.slot_cap for c in slot_counts):
                exhaustive_ok = False
                break
            prod = 1
            for c in slot_counts:
                prod *= c
            total += prod
            if total > sampler.tuple_budget:
                exhaustive_ok = False
                break
    if exhaustive_ok and sampler.mode == "exhaustive":
        cases = []
        for bnd in boundaries:
            # parallel slots share one enumeration
            pools = {(i, j): list(enumerate_relations(amb, bnd[i], bnd[j]))
                     for i, j in dict.fromkeys(slots)}
            cases.extend(product(*(pools[slot] for slot in slots)))
        return sampler.exhaustive_label(), cases
    rng = sampler.rng()
    cases = []
    for _ in range(sampler.count):
        bnd = boundaries[rng.randrange(len(boundaries))]
        cases.append(tuple(
            random_relation(rng, amb, bnd[i], bnd[j],
                            sampler.window, sampler.inf_weight)
            for i, j in slots))
    return sampler.random_label(), cases


# ---------------------------------------------------------------------------
# Relation-level law suite

QREL_CALCULUS = Calculus(
    # Compositions are looked up at call time, so a rebinding of the module
    # functions (such as a tracing wrapper) also sees the law suites' calls.
    tensor=lambda f, g: compose_tensor(f, g),
    par=lambda f, g: compose_par(f, g),
    id_top=lambda f, X: id_top(X, f.ambient),
    id_bot=lambda f, X: id_bot(X, f.ambient),
    zero=lambda f, X, Y: zero_relation(X, Y, f.ambient),
    top=lambda f, X, Y: top_relation(X, Y, f.ambient),
    join=rel_join,
    meet=rel_meet,
    leq=rel_leq,
    eq=lambda f, g: f.values == g.values,
    source=attrgetter("source"),
    target=attrgetter("target"),
)

# label -> (shape, predicate on the composable relation tuple).  Predicates
# are pure so the shrinker can replay them.
REL_LAW_SPECS: dict[str, tuple[str, Any]] = {
    label: (shape, lambda rels, holds=law(QREL_CALCULUS): holds(*rels))
    for label, (shape, law) in LAWS.items()
}


def _shrink_case(rels: tuple[QRelation, ...], pred) -> tuple[QRelation, ...]:
    """Greedy witness minimization: drop set members, then lower entries."""

    def restrict(rel: QRelation, victim: FiniteSet, keep: tuple[int, ...]) -> QRelation:
        src, tgt, vals = rel.source, rel.target, rel.values
        if src == victim:
            src = FiniteSet(src.name, tuple(src.members[i] for i in keep))
            vals = tuple(vals[i] for i in keep)
        if tgt == victim:
            tgt = FiniteSet(tgt.name, tuple(tgt.members[i] for i in keep))
            vals = tuple(tuple(row[i] for i in keep) for row in vals)
        return QRelation(src, tgt, rel.ambient, vals)

    changed = True
    while changed:
        changed = False
        seen: list[FiniteSet] = []
        for rel in rels:
            for s in (rel.source, rel.target):
                if s not in seen and len(s) > 1:
                    seen.append(s)
        for victim in seen:
            for drop in range(len(victim)):
                keep = tuple(i for i in range(len(victim)) if i != drop)
                candidate = tuple(restrict(r, victim, keep) for r in rels)
                try:
                    if not pred(candidate):
                        rels = candidate
                        changed = True
                        break
                except Exception:
                    continue
            if changed:
                break

    amb = rels[0].ambient
    if amb.carrier.is_finite:
        lows = list(amb.carrier.lattice.elements)
    else:
        lows = [MINUS_INF, 0]
    changed = True
    while changed:
        changed = False
        for ri, rel in enumerate(rels):
            for x in range(len(rel.source)):
                for y in range(len(rel.target)):
                    cur = rel.values[x][y]
                    for low in lows:
                        if low == cur or not amb.leq(low, cur):
                            continue
                        vals = list(map(list, rel.values))
                        vals[x][y] = low
                        cand_rel = QRelation(rel.source, rel.target, amb,
                                             tuple(map(tuple, vals)))
                        candidate = rels[:ri] + (cand_rel,) + rels[ri + 1:]
                        if not pred(candidate):
                            rels = candidate
                            rel = cand_rel
                            changed = True
                            break
    return rels


def _case_witness(rels: tuple[QRelation, ...]) -> dict:
    names = "fgh"
    wit: dict[str, Any] = {"sets": {}}
    for rel in rels:
        for s in (rel.source, rel.target):
            wit["sets"].setdefault(s.name, list(s.members))
    for i, rel in enumerate(rels):
        wit[names[i]] = {
            "source": rel.source.name,
            "target": rel.target.name,
            "values": [list(row) for row in rel.values],
        }
    return wit


def verify_qrel_laws(amb: Ambient, sets: Sequence[FiniteSet], sampler: Sampler,
                     suite: str = "qrel-laws",
                     labels: Sequence[str] | None = None) -> LawReport:
    """Run the linear-quantaloid law suite on sampled relation tuples.

    Every law of one shape reads the same draw: the sampler is seeded
    afresh per draw, so drawing it again would repeat the same cases.
    """
    _require_par(amb)
    if labels is None:
        labels = tuple(REL_LAW_SPECS)
    draws: dict[str, tuple[str, list[tuple[QRelation, ...]]]] = {}
    entries = []
    for label in labels:
        shape, pred = REL_LAW_SPECS[label]
        if shape not in draws:
            draws[shape] = sample_relation_tuples(amb, sets, sampler, shape)
        mode, cases = draws[shape]
        wit = None
        for case in cases:
            if not pred(case):
                shrunk = _shrink_case(case, lambda c: pred(c))
                wit = _case_witness(shrunk)
                break
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))


def check_girard_qrel(amb: Ambient, sets: Sequence[FiniteSet], sampler: Sampler,
                      d: Elem | None = None,
                      suite: str = "girard-qrel") -> LawReport:
    """Cyclicity and double-dual of the diagonal dualizing family."""
    if d is None:
        d = getattr(amb, "dualizer", None)
        if d is None:
            raise NotGirardError("check needs a dualizer")
    mode, cases = sample_relation_tuples(amb, sets, sampler, "chain1")

    def cyclic(rels):
        (r,) = rels
        ext = right_extension(r, dual_family(r.source, r.ambient, d))
        lift = right_lifting(dual_family(r.target, r.ambient, d), r)
        return ext.values == lift.values

    def double_dual(rels):
        (r,) = rels
        return rel_dual(rel_dual(r, d), d).values == r.values

    entries = []
    for label, pred in (("girard-cyclic", cyclic), ("girard-double-dual", double_dual)):
        wit = None
        for case in cases:
            if not pred(case):
                shrunk = _shrink_case(case, lambda c: pred(c))
                wit = _case_witness(shrunk)
                wit["dualizer"] = d
                break
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))


def transfer_quantale_witness(amb: Ambient, label: str, witness: dict) -> tuple[bool, dict]:
    """Replay a quantale-law failure as one-point relations.

    Element witnesses carry the law's keys (see ``WITNESS_KEYS``); the
    corresponding relation law is evaluated on 1x1 constant relations over
    a singleton set.  Returns the law outcome and the constructed relation
    witness.
    """
    point = FiniteSet("pt", ("*",))
    rels = tuple(QRelation(point, point, amb, ((witness[k],),))
                 for k in WITNESS_KEYS[label])
    holds = REL_LAW_SPECS[label][1](rels)
    return holds, _case_witness(rels)


# ---------------------------------------------------------------------------
# JSON interface


def relation_to_json(r: QRelation) -> dict:
    return {
        "source": {"name": r.source.name, "members": list(r.source.members)},
        "target": {"name": r.target.name, "members": list(r.target.members)},
        "values": [list(row) for row in r.values],
    }


def relation_from_json(obj: dict, amb: Ambient) -> QRelation:
    try:
        src = finite_set(obj["source"]["name"], obj["source"]["members"])
        tgt = finite_set(obj["target"]["name"], obj["target"]["members"])
        rows = obj["values"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"relation file is missing field: {exc}") from None
    return relation(src, tgt, amb, rows)
