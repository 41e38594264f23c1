"""The twenty linear-bicategory laws, stated once for every 1-cell calculus.

Relations over an LD-quantale (:mod:`linrel.qrel`) and bimodules over a
linear quantaloid (:mod:`linrel.qmod`) form locally posetal linear
bicategories under the same axioms.  Elements of an LD-quantale are the
third level: the 1-cells of its one-object bicategory, Q-Rel on the
one-point set, so the quantale, opposite-quantale and linear-distribution
axioms on elements (:mod:`linrel.quantale`) are sixteen of the same laws,
and so are the axioms of a finite quantaloid (:mod:`linrel.quantaloid`),
whose cells are hom elements between its objects.  Each level supplies a
:class:`Calculus` of its 1-cell operations; :data:`LAWS` states every
axiom against that record, so the levels share the law bodies and differ
only in how they draw cases and encode witnesses.  A quantaloid's cases
run over tuples of its objects (:data:`OBJECT_CASES`), and its absorption
laws over a third, context object.  The unit and counit of a linear
adjunction (:data:`ADJOINT_LAWS`) are stated on the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from .report import LAW_GROUPS

Cell = Any


@dataclass(frozen=True)
class Calculus:
    """The operations a level supplies for its 1-cells.

    ``tensor`` and ``par`` compose ``f: X->Y`` with ``g: Y->Z``.  The
    identity families (``id_top(f, X)``, ``id_bot(f, X)``) and the extreme
    cells (``zero(f, X, Y)``, ``top(f, X, Y)``) take a cell ``f`` for
    context, such as the ambient quantale or whether it is linear.
    ``join``, ``meet`` and ``leq`` are the 2-cell structure between
    parallel cells; ``eq`` decides equality of parallel cells.
    """

    tensor: Callable[[Cell, Cell], Cell]
    par: Callable[[Cell, Cell], Cell]
    id_top: Callable[[Cell, Any], Cell]
    id_bot: Callable[[Cell, Any], Cell]
    zero: Callable[[Cell, Any, Any], Cell]
    top: Callable[[Cell, Any, Any], Cell]
    join: Callable[[Cell, Cell], Cell]
    meet: Callable[[Cell, Cell], Cell]
    leq: Callable[[Cell, Cell], bool]
    eq: Callable[[Cell, Cell], bool]
    source: Callable[[Cell], Any]
    target: Callable[[Cell], Any]


# Each shape lists its cells as (source, target) positions along a chain of
# objects X0 -> X1 -> ...: "chainN" is N composable cells, "fork-left" two
# parallel cells X0 -> X1 plus one X1 -> X2, and "fork-right" two parallel
# cells X1 -> X2 plus one X0 -> X1.
SHAPE_SLOTS: dict[str, tuple[tuple[int, int], ...]] = {
    "chain1": ((0, 1),),
    "chain3": ((0, 1), (1, 2), (2, 3)),
    "fork-left": ((0, 1), (0, 1), (1, 2)),
    "fork-right": ((1, 2), (1, 2), (0, 1)),
}

# A law takes a calculus once and returns its predicate on the cells of
# its shape, in slot order; the calculus operations are looked up when the
# law is bound, not per case.
Law = Callable[[Calculus], Callable[..., bool]]


def _multiplication_laws(op: str, bound: str, extreme: str, ident: str,
                         ) -> tuple[Law, ...]:
    """Associativity, units, preservation of ``bound`` on either side and
    absorption of the ``extreme`` cells, for the composition ``op``.

    With (tensor, join, zero, id_top) these are the quantale axioms; with
    (par, meet, top, id_bot) they are the same axioms on the opposite order.
    """

    def assoc(c):
        o, eq = getattr(c, op), c.eq
        return lambda f, g, h: eq(o(o(f, g), h), o(f, o(g, h)))

    def unit_left(c):
        o, i, eq = getattr(c, op), getattr(c, ident), c.eq
        return lambda f: eq(o(i(f, c.source(f)), f), f)

    def unit_right(c):
        o, i, eq = getattr(c, op), getattr(c, ident), c.eq
        return lambda f: eq(o(f, i(f, c.target(f))), f)

    def bound_left(c):
        o, b, eq = getattr(c, op), getattr(c, bound), c.eq
        return lambda f1, f2, g: eq(o(b(f1, f2), g), b(o(f1, g), o(f2, g)))

    def bound_right(c):
        o, b, eq = getattr(c, op), getattr(c, bound), c.eq
        return lambda g1, g2, f: eq(o(f, b(g1, g2)), b(o(f, g1), o(f, g2)))

    # The extreme cell runs from a context object x to f's source (left)
    # or from f's target to x (right); x defaults to that end of f.
    def extreme_left(c):
        o, e, eq, src, tgt = (getattr(c, op), getattr(c, extreme), c.eq,
                              c.source, c.target)
        def law(f, x=None):
            x = src(f) if x is None else x
            return eq(o(e(f, x, src(f)), f), e(f, x, tgt(f)))
        return law

    def extreme_right(c):
        o, e, eq, src, tgt = (getattr(c, op), getattr(c, extreme), c.eq,
                              c.source, c.target)
        def law(f, x=None):
            x = tgt(f) if x is None else x
            return eq(o(f, e(f, tgt(f), x)), e(f, src(f), x))
        return law

    return (assoc, unit_left, unit_right, bound_left, bound_right,
            extreme_left, extreme_right)


def _distribution_left(c):
    t, p, leq = c.tensor, c.par, c.leq
    return lambda f, g, h: leq(t(f, p(g, h)), p(t(f, g), h))


def _distribution_right(c):
    t, p, leq = c.tensor, c.par, c.leq
    return lambda f, g, h: leq(t(p(f, g), h), p(f, t(g, h)))


def _monotone_laws(op: str) -> tuple[Law, Law]:
    """Composing with a larger cell on either side gives a larger cell."""

    def left(c):
        o, jn, leq = getattr(c, op), c.join, c.leq
        return lambda f1, f2, g: leq(o(f1, g), o(jn(f1, f2), g))

    def right(c):
        o, jn, leq = getattr(c, op), c.join, c.leq
        return lambda g1, g2, f: leq(o(f, g1), o(f, jn(g1, g2)))

    return left, right


_MULT_SHAPES = ("chain3", "chain1", "chain1", "fork-left", "fork-right",
                "chain1", "chain1")

# label -> (shape, law); ``law(calc)`` is the predicate on the cells of
# its shape, in slot order.
LAWS: dict[str, tuple[str, Law]] = {
    label: (shape, law)
    for labels, shapes, laws in (
        (LAW_GROUPS["quantale"], _MULT_SHAPES,
         _multiplication_laws("tensor", "join", "zero", "id_top")),
        (LAW_GROUPS["op-quantale"], _MULT_SHAPES,
         _multiplication_laws("par", "meet", "top", "id_bot")),
        (LAW_GROUPS["linear-distribution"], ("chain3", "chain3"),
         (_distribution_left, _distribution_right)),
        (LAW_GROUPS["posetal-functoriality"],
         ("fork-left", "fork-right", "fork-left", "fork-right"),
         _monotone_laws("tensor") + _monotone_laws("par")),
    )
    for label, shape, law in zip(labels, shapes, laws, strict=True)
}

# On a calculus with many objects, such as a finite quantaloid, a case of a
# law is a tuple of objects X0, X1, ... and an argument per slot: ``(key,
# (i, j))``, a cell Xi -> Xj that witnesses name ``key``, or ``(None, k)``,
# the context object Xk of an absorption law.
_SLOT_KEYS = {"chain1": ("f",), "chain3": ("f", "g", "h"),
              "fork-left": ("f1", "f2", "g"), "fork-right": ("f1", "f2", "g")}
_ABSORPTION_CASES = ((("g", (1, 2)), (None, 0)), (("f", (0, 1)), (None, 2)))
OBJECT_CASES: dict[str, tuple[tuple[str | None, Any], ...]] = {
    label: tuple(zip(_SLOT_KEYS[shape], SHAPE_SLOTS[shape]))
    for label, (shape, _) in LAWS.items()
} | {
    label: case
    for group in ("quantale", "op-quantale")
    for label, case in zip(LAW_GROUPS[group][-2:], _ABSORPTION_CASES,
                           strict=True)
}


def adjoint_unit(c: Calculus, f: Cell, g: Cell) -> bool:
    """The unit of a linear adjunction, f: X->Y with g: Y->X: the tensor
    identity on X lies below f par g."""
    return c.leq(c.id_top(f, c.source(f)), c.par(f, g))


def adjoint_counit(c: Calculus, f: Cell, g: Cell) -> bool:
    """The counit: g tensor f lies below the par identity on Y."""
    return c.leq(c.tensor(g, f), c.id_bot(f, c.target(f)))


# label -> the law on a cell and its candidate linear adjoint, unit first.
ADJOINT_LAWS: dict[str, Callable[[Calculus, Cell, Cell], bool]] = dict(zip(
    LAW_GROUPS["linear-adjunction"], (adjoint_unit, adjoint_counit), strict=True))


def sides(law: Law, calc: Calculus, case, one_cell: bool) -> dict:
    """The sides ``lhs`` and ``rhs`` a law compares on ``case``, replayed
    with an ``eq`` and ``leq`` that record them; a one-cell law keeps only
    ``lhs``, since its right side follows from the cell."""
    got: dict = {}
    record = lambda lhs, rhs: got.update(lhs=lhs, rhs=rhs)
    law(replace(calc, eq=record, leq=record))(*case)
    if one_cell:
        del got["rhs"]
    return got


# Element-level witnesses name a law's cells "a", "b", "c", the order in
# which the element checks enumerate them (the first key outermost).  This
# gives each law the key of every slot, in slot order; only the second
# distribution reads its slots in another order than its keys.
WITNESS_KEYS: dict[str, tuple[str, ...]] = {
    label: ("a",) if shape == "chain1"
    else ("b", "c", "a") if label == "linear-distribution-right"
    else ("a", "b", "c")
    for label, (shape, _) in LAWS.items()
}
