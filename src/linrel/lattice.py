"""Finite complete lattices built from explicit cover relations.

The order is entered as a Hasse (cover) list and closed internally; joins
and meets of all pairs are computed eagerly so that an invalid input fails
at construction time, never later.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
    immutable; build them with :func:`build_lattice` or
    :func:`lattice_from_leq`.
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
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                acc |= reach[j]
                m &= m - 1
            if acc != row:
                reach[i] = acc
                changed = True

    for i in range(n):
        for j in range(i + 1, n):
            if (reach[i] >> j) & 1 and (reach[j] >> i) & 1:
                raise CyclicOrderError(
                    f"cover closure makes {names[i]!r} and {names[j]!r} equal"
                )

    leq = tuple(
        tuple(bool((reach[i] >> j) & 1) for j in range(n)) for i in range(n)
    )
    return _finish(names, leq)


def lattice_from_leq(
    elements: Sequence[str], leq_matrix: Sequence[Sequence[bool]]
) -> FiniteLattice:
    """Build a lattice from an already-closed order matrix."""
    names = tuple(elements)
    if not names:
        raise NotALatticeError("a lattice needs at least one element")
    n = len(names)
    leq = tuple(tuple(bool(v) for v in row) for row in leq_matrix)
    if len(leq) != n or any(len(row) != n for row in leq):
        raise NotALatticeError("order matrix shape does not match element count")
    for i in range(n):
        if not leq[i][i]:
            raise CyclicOrderError(f"order is not reflexive at {names[i]!r}")
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise CyclicOrderError(
                    f"order is not antisymmetric on {names[i]!r}, {names[j]!r}"
                )
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise CyclicOrderError(
                        f"order is not transitive via {names[j]!r}"
                    )
    return _finish(names, leq)


def _finish(names: tuple[str, ...], leq: tuple[tuple[bool, ...], ...]) -> FiniteLattice:
    n = len(names)
    idxs = range(n)

    def bound(i: int, j: int, upper: bool) -> int:
        if upper:
            cands = [k for k in idxs if leq[i][k] and leq[j][k]]
            least = [u for u in cands if all(leq[u][k] for k in cands)]
        else:
            cands = [k for k in idxs if leq[k][i] and leq[k][j]]
            least = [u for u in cands if all(leq[k][u] for k in cands)]
        if len(least) != 1:
            kind = "join" if upper else "meet"
            raise NotALatticeError(
                f"elements {names[i]!r} and {names[j]!r} have no {kind}"
            )
        return least[0]

    join_table = tuple(tuple(bound(i, j, True) for j in idxs) for i in idxs)
    meet_table = tuple(tuple(bound(i, j, False) for j in idxs) for i in idxs)

    top = 0
    bot = 0
    for i in idxs:
        top = join_table[top][i]
        bot = meet_table[bot][i]
    return FiniteLattice(
        elements=names,
        leq_matrix=leq,
        join_table=join_table,
        meet_table=meet_table,
        top=names[top],
        bottom=names[bot],
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
