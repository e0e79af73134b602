"""Sparse discrete factors and the algebra used by belief propagation.

A factor maps joint assignments of a tuple of discrete variables to
finite, non-negative potentials.  Tables are sparse: assignments that
are absent have potential zero, and zero is never stored.  For the
hard-constraint potentials used in coloring problems almost all of the
joint space is zero, so sparsity is what keeps the tables tractable.

All operations return new tables; existing tables are never mutated.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from typing import Iterable, Iterator, Literal, Mapping, Sequence

Semiring = Literal["sum", "max"]
Assignment = tuple[int, ...]

SEMIRINGS = ("sum", "max")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ContradictionError(ValueError):
    """Raised when a constraint system admits no consistent state."""


class Variable(int):
    """A discrete variable: an integer handle plus a human-readable name.

    The int value is the ``id``, so hashing, ordering and sorting run in
    C: ``hash(v) == v.id``, which keeps set and dict iteration orders
    independent of the string hash seed, and scopes sort by id.
    Identity is the ``(id, name)`` pair, and a Variable never equals a
    bare int, in either direction.  The one exception is a bool on the
    left: ``True == Variable(1, "a")`` is True, because ``bool`` is not a
    base of Variable, so its own int comparison runs first and answers
    by value.  ``Variable(1, "a") == True`` is False.
    """

    name: str  # in the instance dict: an int subclass cannot have slots

    def __new__(cls, id: int, name: str) -> Variable:
        if not _is_int(id):
            raise ValueError(f"variable id must be an int, got {id!r}")
        if not isinstance(name, str):
            raise ValueError(f"variable name must be a str, got {name!r}")
        self = int.__new__(cls, id)
        self.__dict__["name"] = name
        return self

    id = property(int.__int__, doc="The integer handle, as a plain int.")
    __hash__ = int.__hash__

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Variable is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"Variable is immutable; cannot delete {attr!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return int.__eq__(self, other) and self.name == other.name
        # int's own comparison would answer by value alone.
        return False if isinstance(other, int) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __getnewargs__(self) -> tuple[int, str]:
        return int(self), self.name

    def __repr__(self) -> str:
        return f"Variable(id={int(self)!r}, name={self.name!r})"

    def __str__(self) -> str:
        return self.name


def make_variables(names: Iterable[str]) -> list[Variable]:
    """Create variables for `names`, assigning ids by position."""
    out: list[Variable] = []
    seen: set[str] = set()
    for i, name in enumerate(names):
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
        out.append(Variable(i, name))
    return out


class SparseTable:
    """A sparse potential table over an ordered scope of variables.

    `entries` maps full assignment tuples (one coordinate per scope
    variable, in scope order) to strictly positive floats.  Anything not
    in `entries` has potential zero.  The constructor takes any finite
    real >= 0 that is not a bool, stores it as a float, and drops zeros.
    """

    __slots__ = ("scope", "cards", "entries", "_pos")

    def __init__(
        self,
        scope: Sequence[Variable],
        cards: Sequence[int],
        entries: Mapping[Assignment, float],
    ) -> None:
        scope = tuple(scope)
        cards = tuple(cards)
        if len(scope) != len(cards):
            raise ValueError(
                f"scope has {len(scope)} variables but {len(cards)} cardinalities"
            )
        if len(set(scope)) != len(scope):
            raise ValueError(f"duplicate variable in scope {scope}")
        for var, card in zip(scope, cards):
            if not _is_int(card) or card < 1:
                raise ValueError(
                    f"variable {var} has cardinality {card!r}; it must be an int >= 1"
                )
        clean: dict[Assignment, float] = {}
        for key, raw in entries.items():
            key = tuple(key)
            if len(key) != len(scope):
                raise ValueError(f"assignment {key} does not match scope {scope}")
            for coord, (var, card) in zip(key, zip(scope, cards)):
                if not _is_int(coord) or not 0 <= coord < card:
                    raise ValueError(
                        f"assignment {key}: value {coord!r} is not an int or "
                        f"out of range for {var}"
                    )
            # An int past the float range fails the bound, not float().
            if not (_is_real(raw) and 0 <= raw <= sys.float_info.max):
                raise ValueError(
                    f"potential for {key} is {raw!r}; must be a finite real "
                    f">= 0, not a bool"
                )
            value = float(raw)
            if value > 0.0:
                clean[key] = value
        self.scope = scope
        self.cards = cards
        self.entries = clean
        self._pos = {var: i for i, var in enumerate(scope)}

    @classmethod
    def _trusted(
        cls,
        scope: tuple[Variable, ...],
        cards: tuple[int, ...],
        entries: dict[Assignment, float],
    ) -> SparseTable:
        """A table from parts already known to be valid, checking nothing.

        For results built inside the package: `scope` and `cards` are
        tuples of a valid table, and `entries` holds only positive floats
        keyed by in-range tuples.  The dict is kept, not copied.
        """
        table = cls.__new__(cls)
        table.scope = scope
        table.cards = cards
        table.entries = entries
        table._pos = {var: i for i, var in enumerate(scope)}
        return table

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Assignment) -> bool:
        return tuple(key) in self.entries

    def __getitem__(self, key: Assignment) -> float:
        return self.entries.get(tuple(key), 0.0)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(sorted(self.entries))

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.scope)
        return f"SparseTable([{names}], {len(self.entries)} entries)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTable):
            return NotImplemented
        return (
            self.scope == other.scope
            and self.cards == other.cards
            and self.entries == other.entries
        )

    def card_of(self, var: Variable) -> int:
        return self.cards[self._pos[var]]

    def items(self) -> list[tuple[Assignment, float]]:
        """Entries in lexicographic assignment order."""
        return sorted(self.entries.items())

    # -- algebra -----------------------------------------------------------

    def multiply(self, other: SparseTable) -> SparseTable:
        """Pointwise product over the union scope.

        An assignment survives only if both operands are non-zero on its
        projections, so multiplying by a constraint table prunes states.
        """
        for var in self.scope:
            if var in other._pos and self.card_of(var) != other.card_of(var):
                raise ValueError(
                    f"cardinality mismatch for {var}: "
                    f"{self.card_of(var)} vs {other.card_of(var)}"
                )
        extra = [var for var in other.scope if var not in self._pos]
        scope = self.scope + tuple(extra)
        cards = self.cards + tuple(other.card_of(var) for var in extra)
        shared_other = tuple(
            other._pos[var] for var in other.scope if var in self._pos
        )
        shared_self = tuple(
            self._pos[var] for var in other.scope if var in self._pos
        )
        extra_other = tuple(other._pos[var] for var in extra)
        # Group other's entries by the shared projection so each of our
        # entries only meets compatible partners.
        groups: dict[Assignment, list[tuple[Assignment, float]]] = {}
        for okey, ovalue in other.entries.items():
            proj = tuple(okey[i] for i in shared_other)
            tail = tuple(okey[i] for i in extra_other)
            groups.setdefault(proj, []).append((tail, ovalue))
        entries: dict[Assignment, float] = {}
        for key, value in self.entries.items():
            proj = tuple(key[i] for i in shared_self)
            for tail, ovalue in groups.get(proj, ()):
                # A product that underflows to 0.0 is dropped, as every
                # result here drops zeros: zero is never stored.
                if value * ovalue:
                    entries[key + tail] = value * ovalue
        return SparseTable._trusted(scope, cards, entries)

    def divide(self, denominator: SparseTable) -> SparseTable:
        """Pointwise quotient; `denominator`'s scope must be contained in ours.

        0/0 is taken as 0 (the assignment is simply absent from both), while
        a non-zero numerator over a zero denominator is an error.
        """
        missing = [v for v in denominator.scope if v not in self._pos]
        if missing:
            raise ValueError(
                f"denominator variables {missing} not in numerator scope"
            )
        for var in denominator.scope:
            if self.card_of(var) != denominator.card_of(var):
                raise ValueError(
                    f"cardinality mismatch for {var}: "
                    f"{self.card_of(var)} vs {denominator.card_of(var)}"
                )
        pick = tuple(self._pos[var] for var in denominator.scope)
        entries: dict[Assignment, float] = {}
        dget = denominator.entries.get
        for key, value in self.entries.items():
            den = dget(tuple(key[i] for i in pick), 0.0)
            if den == 0.0:
                raise ZeroDivisionError(
                    f"assignment {key} has potential {value} over a zero divisor"
                )
            if value / den:
                entries[key] = value / den
        return SparseTable._trusted(self.scope, self.cards, entries)

    def marginalize(
        self, keep: Iterable[Variable], semiring: Semiring = "sum"
    ) -> SparseTable:
        """Project onto `keep`, combining eliminated coordinates.

        `semiring` chooses the combination: "sum" accumulates, "max" keeps
        the best extension.  The kept scope preserves this table's order.
        """
        _check_semiring(semiring)
        keep_set = set(keep)
        missing = [v for v in keep_set if v not in self._pos]
        if missing:
            raise ValueError(f"cannot keep variables outside scope: {missing}")
        positions = tuple(i for i, v in enumerate(self.scope) if v in keep_set)
        scope = tuple(self.scope[i] for i in positions)
        cards = tuple(self.cards[i] for i in positions)
        entries: dict[Assignment, float] = {}
        if semiring == "sum":
            for key, value in self.entries.items():
                proj = tuple(key[i] for i in positions)
                entries[proj] = entries.get(proj, 0.0) + value
        else:
            for key, value in self.entries.items():
                proj = tuple(key[i] for i in positions)
                if value > entries.get(proj, 0.0):
                    entries[proj] = value
        return SparseTable._trusted(scope, cards, entries)

    def normalize(self, mode: Semiring = "sum") -> SparseTable:
        """Scale so the total ("sum") or the largest entry ("max") is 1."""
        _check_semiring(mode)
        if not self.entries:
            raise ContradictionError(
                f"cannot normalize an empty table over {self._scope_names()}"
            )
        total = (
            math.fsum(self.entries.values())
            if mode == "sum"
            else max(self.entries.values())
        )
        entries = {
            key: value / total
            for key, value in self.entries.items()
            if value / total
        }
        return SparseTable._trusted(self.scope, self.cards, entries)

    def observe(self, var: Variable, value: int) -> SparseTable:
        """Condition on `var = value` and drop `var` from the scope."""
        if var not in self._pos:
            raise ValueError(f"{var} is not in scope {self._scope_names()}")
        pos = self._pos[var]
        if not _is_int(value) or not 0 <= value < self.cards[pos]:
            raise ValueError(
                f"value {value!r} is not an int or out of range for {var} "
                f"(cardinality {self.cards[pos]})"
            )
        scope = self.scope[:pos] + self.scope[pos + 1 :]
        cards = self.cards[:pos] + self.cards[pos + 1 :]
        entries = {
            key[:pos] + key[pos + 1 :]: v
            for key, v in self.entries.items()
            if key[pos] == value
        }
        if not entries:
            raise ContradictionError(
                f"observing {var}={value} leaves no consistent state"
            )
        return SparseTable._trusted(scope, cards, entries)

    def argmax(self) -> Assignment:
        """The highest-potential assignment; ties break lexicographically."""
        if not self.entries:
            raise ValueError("argmax of an empty table")
        best_key: Assignment | None = None
        best_value = -math.inf
        for key in sorted(self.entries):
            value = self.entries[key]
            if value > best_value:
                best_key, best_value = key, value
        assert best_key is not None
        return best_key

    def reorder(self, scope: Sequence[Variable]) -> SparseTable:
        """The same table with its scope permuted to `scope`."""
        scope = tuple(scope)
        if set(scope) != set(self.scope) or len(scope) != len(self.scope):
            raise ValueError(f"{scope} is not a permutation of {self.scope}")
        pick = tuple(self._pos[var] for var in scope)
        cards = tuple(self.cards[i] for i in pick)
        entries = {
            tuple(key[i] for i in pick): value
            for key, value in self.entries.items()
        }
        return SparseTable._trusted(scope, cards, entries)

    def _scope_names(self) -> str:
        return "{" + ",".join(v.name for v in self.scope) + "}"


def uniform_factor(scope: Sequence[Variable], cards: Sequence[int]) -> SparseTable:
    """The vacuous table: potential 1 for every joint assignment."""
    table = SparseTable(scope, cards, {})  # checks the scope and cards
    keys = itertools.product(*map(range, table.cards))
    return SparseTable._trusted(table.scope, table.cards, dict.fromkeys(keys, 1.0))


def kl_divergence(new: SparseTable, old: SparseTable) -> float:
    """Divergence D(new || old) between the sum-normalized distributions.

    Used to score how much a message changed: infinite when `new` puts
    mass where `old` had none, zero when the normalized tables agree.
    """
    if set(new.scope) != set(old.scope):
        raise ValueError(
            f"scope mismatch: {new._scope_names()} vs {old._scope_names()}"
        )
    aligned = old if old.scope == new.scope else old.reorder(new.scope)
    if new.cards != aligned.cards:
        raise ValueError(f"cardinality mismatch: {new.cards} vs {aligned.cards}")
    if not new.entries or not aligned.entries:
        raise ValueError("divergence requires two normalizable tables")
    new_total = math.fsum(new.entries.values())
    old_total = math.fsum(aligned.entries.values())
    oget = aligned.entries.get
    terms = []
    for key, value in new.entries.items():
        q = oget(key, 0.0)
        if q == 0.0:
            return math.inf
        p = value / new_total
        if p:  # a subnormal value can leave p at 0.0, and p log p -> 0
            terms.append(p * math.log(p / (q / old_total)))
    # Rounding can push an exact-match sum a hair below zero.
    return max(math.fsum(terms), 0.0)


def _check_semiring(semiring: str) -> None:
    if semiring not in SEMIRINGS:
        raise ValueError(f"unknown semiring {semiring!r}; expected one of {SEMIRINGS}")
