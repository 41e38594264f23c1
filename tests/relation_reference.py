"""A relation-level Q-Rel calculus, kept as a reference for the tests.

The library runs the Q-Rel laws, the witness shrinker and the adjunction
checks on coded cells (``qrel.coded_calculus``).  This module states the
same calculus on ``QRelation`` objects, through the public relation
operations (``compose_tensor``, ``rel_join``, ``id_top`` and so on), with
the greedy relation-level shrinker and witness encoding, so that tests can
compare the coded path with an independent one; ``reference_qrel_laws``
is the law suite on it, case by case in draw order.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any

from linrel import qrel
from linrel.laws import LAWS, Calculus
from linrel.qrel import (
    FiniteSet,
    QRelation,
    _cells,
    _from_cells,
    _rows,
    compose_par,
    compose_tensor,
    id_bot,
    id_top,
    rel_join,
    rel_leq,
    rel_meet,
    top_relation,
    zero_relation,
)
from linrel.quantale import MINUS_INF
from linrel.report import LawReport, law_entry

QREL_CALCULUS = Calculus(
    tensor=compose_tensor,
    par=compose_par,
    id_top=lambda f, X: id_top(X, f.ambient),
    id_bot=lambda f, X: id_bot(X, f.ambient),
    zero=lambda f, X, Y: zero_relation(X, Y, f.ambient),
    top=lambda f, X, Y: top_relation(X, Y, f.ambient),
    join=rel_join,
    meet=rel_meet,
    leq=rel_leq,
    eq=lambda f, g: f.values == g.values if f.codes is None else f.codes == g.codes,
    source=attrgetter("source"),
    target=attrgetter("target"),
)


# label -> (shape, predicate on the composable relation tuple).  Predicates
# are pure so the shrinker can replay them.
REL_LAW_SPECS: dict[str, tuple[str, Any]] = {
    label: (shape, lambda rels, holds=law(QREL_CALCULUS): holds(*rels))
    for label, (shape, law) in LAWS.items()
}


def shrink_case(rels: tuple[QRelation, ...], pred) -> tuple[QRelation, ...]:
    """Greedy witness minimization: drop set members, then lower entries."""

    def restrict(rel: QRelation, victim: FiniteSet, keep: tuple[int, ...]) -> QRelation:
        src, tgt = rel.source, rel.target
        rows = _rows(_cells(rel), len(src.members), len(tgt.members))
        if src == victim:
            src = FiniteSet(src.name, tuple(src.members[i] for i in keep))
            rows = tuple(rows[i] for i in keep)
        if tgt == victim:
            tgt = FiniteSet(tgt.name, tuple(tgt.members[i] for i in keep))
            rows = tuple(tuple(row[i] for i in keep) for row in rows)
        return _from_cells(src, tgt, rel.ambient, tuple(chain.from_iterable(rows)))

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
                # every set equal to the victim shrinks: the candidate composes
                candidate = tuple(restrict(r, victim, keep) for r in rels)
                if not pred(candidate):
                    rels = candidate
                    changed = True
                    break
            if changed:
                break

    # Lower each entry, in row-major order, to the first element below it
    # that keeps the case failing: indices in declaration order over a
    # finite carrier, minus infinity then zero over the extended integers.
    amb = rels[0].ambient
    t = amb.index_tables
    if t is not None:
        lows, leq = range(len(t.elements)), lambda a, b: t.leq[a][b]
    else:
        lows, leq = (MINUS_INF, 0), amb.leq
    changed = True
    while changed:
        changed = False
        for ri, rel in enumerate(rels):
            cells = _cells(rel)
            for k, cur in enumerate(cells):
                for low in lows:
                    if low == cur or not leq(low, cur):
                        continue
                    cand_cells = cells[:k] + (low,) + cells[k + 1:]
                    cand_rel = _from_cells(rel.source, rel.target, amb, cand_cells)
                    candidate = rels[:ri] + (cand_rel,) + rels[ri + 1:]
                    if not pred(candidate):
                        rels, cells = candidate, cand_cells
                        changed = True
                        break
    return rels


def case_witness(rels: tuple[QRelation, ...]) -> dict:
    """The witness a report prints for a case of relations."""
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


def reference_qrel_laws(amb, sets, sampler, suite="qrel-laws", labels=None):
    """The suite case by case: every label draws its own cases, and checks
    them in draw order as relations, up to the first failure."""
    entries = []
    for label in labels or tuple(REL_LAW_SPECS):
        shape, pred = REL_LAW_SPECS[label]
        mode, cells, _ = qrel.sample_relation_tuples(amb, sets, sampler, shape)
        wit = None
        for case in cells:
            case = tuple(_from_cells(X, Y, amb, c) for X, Y, c in case)
            if not pred(case):
                wit = case_witness(shrink_case(case, pred))
                break
        entries.append(law_entry(label, wit, mode))
    return LawReport(suite, tuple(entries))
