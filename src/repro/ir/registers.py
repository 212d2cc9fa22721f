"""Virtual registers.

The IR uses an unbounded supply of virtual registers in three classes
(general, predicate, branch-target).  Register pressure and allocation are
outside the paper's scope — its machine models assume enough registers, and
compile-time renaming freely mints new names — so registers here are simple
immutable (class, index) pairs.

Registers order by class then index.  That order is precomputed as one
integer, :attr:`Register.sort_key`: liveness sets, exit live-ins and
dumps are sorted millions of times per evaluation grid, and comparing
two ints is far cheaper than comparing two ``(class, index)`` tuples.
"""

from __future__ import annotations

from operator import attrgetter

from repro.ir.types import RegClass

#: Indices occupy the low bits of :attr:`Register.sort_key`, the class
#: rank (the order of the class prefixes: ``b`` < ``p`` < ``r``) the
#: bits above them.  Keyed by prefix: a str probe is cheaper than
#: hashing an enum member.
_INDEX_BITS = 64
_INDEX_LIMIT = 1 << _INDEX_BITS
_CLASS_BASE = {
    prefix: rank << _INDEX_BITS
    for rank, prefix in enumerate(sorted(rclass.value for rclass in RegClass))
}

#: ``sorted(registers, key=sort_key_of)`` is ``sorted(registers)``.
sort_key_of = attrgetter("sort_key")


class Register:
    """A virtual register, e.g. ``r3``, ``p1``, ``b2``.

    Immutable so registers can key dicts and sets; ordering (by class
    then index) makes sorted dumps deterministic.

    Attributes:
        rclass: The register class.
        index: The register number within its class.
        sort_key: One integer whose order is the ``(class, index)``
            order, so ``sorted(regs)`` and ``sorted(regs,
            key=sort_key_of)`` agree; the key form skips the Python-level
            comparison calls.  It is also injective, so equality compares
            it alone.
    """

    __slots__ = ("rclass", "index", "_hash", "sort_key")

    def __init__(self, rclass: RegClass, index: int):
        if not 0 <= index < _INDEX_LIMIT:
            raise ValueError(f"register index {index} out of range")
        # Through the slot descriptors: __setattr__ refuses every write.
        _set_rclass(self, rclass)
        _set_index(self, index)
        # Registers key the DDG's producer maps and the renamer's live
        # sets millions of times per evaluation grid; hashing the enum
        # member on every probe is slow, so precompute once.
        _set_hash(self, hash((rclass, index)))
        _set_sort_key(self, _CLASS_BASE[rclass._value_] | index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: Register is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Register is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is Register:
            return self.sort_key == other.sort_key
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is Register:
            return self.sort_key < other.sort_key
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is Register:
            return self.sort_key <= other.sort_key
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is Register:
            return self.sort_key > other.sort_key
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is Register:
            return self.sort_key >= other.sort_key
        return NotImplemented

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled register recomputes
        # ``_hash`` under the receiving interpreter's hash seed (and
        # ``sort_key`` with it).
        return (Register, (self.rclass, self.index))

    def __str__(self) -> str:
        return f"{self.rclass.prefix}{self.index}"

    def __repr__(self) -> str:
        return f"Register({self})"


_set_rclass = Register.rclass.__set__
_set_index = Register.index.__set__
_set_hash = Register._hash.__set__
_set_sort_key = Register.sort_key.__set__


class RegisterFactory:
    """Allocates fresh virtual registers for one function.

    Renaming during scheduling and guard synthesis both need names that are
    guaranteed not to collide with anything in the function, so the factory
    lives on :class:`~repro.ir.function.Function` and is threaded through
    every pass that creates registers.
    """

    def __init__(self):
        self._next = {rclass: 0 for rclass in RegClass}

    def fresh(self, rclass: RegClass) -> Register:
        """Return a never-before-seen register of the given class."""
        index = self._next[rclass]
        self._next[rclass] = index + 1
        return Register(rclass, index)

    def fresh_gpr(self) -> Register:
        return self.fresh(RegClass.GPR)

    def fresh_pred(self) -> Register:
        return self.fresh(RegClass.PRED)

    def fresh_btr(self) -> Register:
        return self.fresh(RegClass.BTR)

    def reserve(self, register: Register) -> None:
        """Record an externally-created register so ``fresh`` avoids it."""
        nxt = self._next[register.rclass]
        if register.index >= nxt:
            self._next[register.rclass] = register.index + 1

    def reserve_bounds(self, bounds) -> None:
        """Reserve every index below precomputed per-class bounds.

        Takes a ``{RegClass: next_free_index}`` map (see
        :func:`repro.ir.analysis_cache.register_bounds_of`) so callers that
        already know the function-wide maxima skip the per-register walk.
        """
        for rclass, nxt in bounds.items():
            if nxt > self._next[rclass]:
                self._next[rclass] = nxt

    def next_index(self, rclass: RegClass) -> int:
        """The index the next ``fresh`` call would use (for tests)."""
        return self._next[rclass]
