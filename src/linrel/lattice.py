"""Finite complete lattices built from explicit cover relations.

The order is entered as a Hasse (cover) list and closed internally, or as
a closed order matrix; joins and meets of all pairs are computed eagerly
so that an invalid input fails at construction time, never later.  Both
work on bitmasks: each element's up-set and down-set is one integer, and
the join of two elements is the element whose up-set is the common part
of theirs (the meet likewise on down-sets), one dict lookup per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import (
    CyclicOrderError,
    DuplicateNameError,
    InputFormatError,
    NotALatticeError,
    UnknownElementError,
)


@dataclass(frozen=True)
class FiniteLattice:
    """Carrier of a finite complete lattice.

    Elements are identified by name.  ``leq_matrix[i][j]`` holds exactly when
    element ``i`` lies below element ``j`` in the closed order.  Instances are
    immutable; build them with :func:`build_lattice`,
    :func:`lattice_from_leq` or :func:`product_lattice`.
    """

    elements: tuple[str, ...]
    leq_matrix: tuple[tuple[bool, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    top: str
    bottom: str

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._index
        except TypeError:  # unhashable, so no element name
            return False

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise UnknownElementError(f"unknown element {name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return self.leq_matrix[self.index(a)][self.index(b)]

    def join(self, items: Iterable[str]) -> str:
        """Least upper bound; the empty join is the bottom element."""
        acc = -1
        for name in items:
            i = self.index(name)
            acc = i if acc < 0 else self.join_table[acc][i]
        return self.bottom if acc < 0 else self.elements[acc]

    def meet(self, items: Iterable[str]) -> str:
        """Greatest lower bound; the empty meet is the top element."""
        acc = -1
        for name in items:
            i = self.index(name)
            acc = i if acc < 0 else self.meet_table[acc][i]
        return self.top if acc < 0 else self.elements[acc]

    def opposite(self) -> FiniteLattice:
        """The same elements under the reversed order."""
        n = len(self.elements)
        flipped = tuple(
            tuple(self.leq_matrix[j][i] for j in range(n)) for i in range(n)
        )
        return FiniteLattice(
            elements=self.elements,
            leq_matrix=flipped,
            join_table=self.meet_table,
            meet_table=self.join_table,
            top=self.bottom,
            bottom=self.top,
        )


def build_lattice(
    elements: Sequence[str], covers: Sequence[Sequence[str]]
) -> FiniteLattice:
    """Build a lattice from element names and cover pairs ``(lower, upper)``.

    Fails with :class:`InputFormatError` unless the names are strings and
    each cover is a two-name list, with :class:`CyclicOrderError` if the
    closure violates antisymmetry and with :class:`NotALatticeError` if
    some pair of elements has no join or no meet.
    """
    if not isinstance(elements, (list, tuple)):
        raise InputFormatError(
            f"elements must be a list of names, not {type(elements).__name__}")
    names = tuple(elements)
    for name in names:
        if not isinstance(name, str):
            raise InputFormatError(f"element names must be strings, not {name!r}")
    if not isinstance(covers, (list, tuple)):
        raise InputFormatError(
            f"covers must be a list of pairs, not {type(covers).__name__}")
    if not names:
        raise NotALatticeError("a lattice needs at least one element")
    if len(set(names)) != len(names):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DuplicateNameError(f"duplicate element name {name!r}")
            seen.add(name)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    # Reachability as bitmasks, starting from the reflexive relation.
    reach = [1 << i for i in range(n)]
    for pair in covers:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise InputFormatError(
                f"each cover must be a [lower, upper] pair of names, not {pair!r}")
        lo, hi = pair
        if lo not in index:
            raise UnknownElementError(f"cover pair references unknown name {lo!r}")
        if hi not in index:
            raise UnknownElementError(f"cover pair references unknown name {hi!r}")
        reach[index[lo]] |= 1 << index[hi]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = reach[i]
            acc = row
            for j in _bits(row):
                acc |= reach[j]
            if acc != row:
                reach[i] = acc
                changed = True

    for i in range(n):
        for j in range(i + 1, n):
            if (reach[i] >> j) & 1 and (reach[j] >> i) & 1:
                raise CyclicOrderError(
                    f"cover closure makes {names[i]!r} and {names[j]!r} equal"
                )
    return _finish(names, reach)


def lattice_from_leq(
    elements: Sequence[str], leq_matrix: Sequence[Sequence[bool]]
) -> FiniteLattice:
    """Build a lattice from an already-closed order matrix."""
    names = tuple(elements)
    if not names:
        raise NotALatticeError("a lattice needs at least one element")
    n = len(names)
    rows = [tuple(row) for row in leq_matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise NotALatticeError("order matrix shape does not match element count")
    up = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    # Each check at (i, j) needs i below j, so only those j are visited,
    # in the order of a full scan.
    for i, row in enumerate(up):
        if not (row >> i) & 1:
            raise CyclicOrderError(f"order is not reflexive at {names[i]!r}")
        for j in _bits(row):
            if i != j and (up[j] >> i) & 1:
                raise CyclicOrderError(
                    f"order is not antisymmetric on {names[i]!r}, {names[j]!r}"
                )
            if up[j] & ~row:
                raise CyclicOrderError(f"order is not transitive via {names[j]!r}")
    return _finish(names, up)


def product_lattice(A: FiniteLattice, B: FiniteLattice) -> FiniteLattice:
    """Pairs under the componentwise order, named ``"a|b"``, with A's
    element outer."""
    nb = len(B)
    pairs = tuple(product(range(len(A)), range(nb)))

    def table(ta, tb):
        return tuple(tuple(ta[i][k] * nb + tb[j][l] for k, l in pairs)
                     for i, j in pairs)

    return FiniteLattice(
        elements=tuple(f"{a}|{b}" for a in A.elements for b in B.elements),
        leq_matrix=tuple(tuple(A.leq_matrix[i][k] and B.leq_matrix[j][l]
                               for k, l in pairs) for i, j in pairs),
        join_table=table(A.join_table, B.join_table),
        meet_table=table(A.meet_table, B.meet_table),
        top=f"{A.top}|{B.top}",
        bottom=f"{A.bottom}|{B.bottom}",
    )


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _finish(names: tuple[str, ...], up: list[int]) -> FiniteLattice:
    """The lattice of the partial order with these up-set bitmasks."""
    n = len(names)
    down = [0] * n
    for i, row in enumerate(up):
        for j in _bits(row):
            down[j] |= 1 << i

    def table(sets: list[int], kind: str) -> tuple[tuple[int, ...], ...]:
        at = {mask: k for k, mask in enumerate(sets)}
        rows = tuple(tuple([at.get(mask & other) for other in sets])
                     for mask in sets)
        for i, row in enumerate(rows):
            if None in row:
                raise NotALatticeError(f"elements {names[i]!r} and "
                                       f"{names[row.index(None)]!r} have no {kind}")
        return rows

    everything = (1 << n) - 1
    return FiniteLattice(
        elements=names,
        leq_matrix=tuple(tuple(bool((row >> j) & 1) for j in range(n))
                         for row in up),
        join_table=table(up, "join"),
        meet_table=table(down, "meet"),
        top=names[down.index(everything)],
        bottom=names[up.index(everything)],
    )


def chain(names: Sequence[str]) -> FiniteLattice:
    """A total order: each name covers the previous one."""
    covers = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return build_lattice(names, covers)


def powerset_lattice(atoms: Sequence[str]) -> FiniteLattice:
    """The Boolean lattice of subsets of ``atoms``, named by sorted joins."""
    subsets = []
    for mask in range(1 << len(atoms)):
        chosen = [atoms[i] for i in range(len(atoms)) if (mask >> i) & 1]
        subsets.append("+".join(chosen) if chosen else "0")
    covers = []
    for mask in range(1 << len(atoms)):
        for i in range(len(atoms)):
            if not (mask >> i) & 1:
                covers.append((subsets[mask], subsets[mask | (1 << i)]))
    return build_lattice(subsets, covers)
