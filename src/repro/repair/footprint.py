"""Read/write footprints: what a repair touches, as data.

The paper's architecture manager serializes repairs — one in flight,
then a settle time (§5.3, §7) — which caps repair throughput at one
violation per settle window even when violations live in unrelated parts
of the model.  To run repairs concurrently *safely*, the engine needs to
answer one question: *does candidate repair B overlap anything repair A
may write or re-check?*  A :class:`Footprint` is that answer's currency:
an immutable set of qualified element names, with a ``universal`` escape
hatch for repairs whose effects cannot be bounded statically (structural
surgery, overflowed dirty logs, non-scope-local invariants).

Two producers feed the engine's footprints:

* **write sets** — :meth:`~repro.repair.transactions.ModelTransaction.touched`
  derives the elements a repair's tactics actually wrote from the
  system's change epochs (the same dirty-scope machinery the incremental
  constraint checker rides);
* **read scopes** — the engine's admission footprint of a violation
  bounds what re-checking the triggering invariant will read
  (:func:`~repro.constraints.compile.is_scope_local` proves scope-local
  invariants read nothing but their scope element and global bindings).

Conservatism is one-sided *within the tracked sets*: an unbounded
footprint reports ``universal=True`` and overlaps everything, so the
engine can only over-serialize, never commit two overlapping **write**
sets (or a write into a re-checked read scope) concurrently.  What is
NOT tracked are ad-hoc reads a strategy makes beyond its invariant's
scope (e.g. scanning neighbors to pick a target): those can observe
another repair's committed-but-still-translating state.  Disjoint-mode
strategies should confine reads to their invariant's scope and their
own write targets, or accept that such reads may be mid-repair values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, FrozenSet, Iterable

from repro.acme.system import ArchSystem

__all__ = ["Footprint", "touched_since"]


@dataclass(frozen=True)
class Footprint:
    """An immutable set of qualified element names a repair may touch.

    ``universal=True`` means "potentially anything" (structural mutation,
    lost change history, or an invariant whose read set cannot be proven
    scope-local); a universal footprint overlaps every other footprint,
    which degrades the engine to serial scheduling — safe by design.
    """

    elements: FrozenSet[str] = frozenset()
    universal: bool = False

    EMPTY: ClassVar["Footprint"]  # populated below
    UNIVERSAL: ClassVar["Footprint"]  # populated below

    @staticmethod
    def of(names: Iterable[str]) -> "Footprint":
        return Footprint(elements=frozenset(names))

    def overlaps(self, other: "Footprint") -> bool:
        """True when the two footprints may touch a common element."""
        if self.universal or other.universal:
            return True
        return not self.elements.isdisjoint(other.elements)

    def union(self, other: "Footprint") -> "Footprint":
        if self.universal or other.universal:
            return Footprint.UNIVERSAL
        return Footprint(elements=self.elements | other.elements)

    def __bool__(self) -> bool:
        return self.universal or bool(self.elements)

    def __str__(self) -> str:
        if self.universal:
            return "{*}"
        return "{" + ", ".join(sorted(self.elements)) + "}"


# Shared singletons.
Footprint.EMPTY = Footprint()
Footprint.UNIVERSAL = Footprint(universal=True)


def touched_since(system: ArchSystem, epoch: int, structure_epoch: int) -> Footprint:
    """The footprint of every element mutated after the given epochs.

    Derived from the system's change log (the incremental checker's
    dirty-scope machinery): property writes name their element exactly;
    a structural mutation — or a dirty log that no longer reaches back to
    ``epoch`` — yields :attr:`Footprint.UNIVERSAL` because scope lists
    themselves may have moved.
    """
    if system.structure_epoch != structure_epoch:
        return Footprint.UNIVERSAL
    dirty = system.dirty_elements_since(epoch)
    if dirty is None:
        return Footprint.UNIVERSAL
    return Footprint.of(element.qualified_name for element in dirty)
