"""One registry type: flows, WLO engines, simulation and execution
backends, formats, targets and kernels are each a :class:`Registry`,
so every surface registers, resolves, lists and rejects a name one way.
Names are keyed in one spelling, :func:`canonical_name`, which requests
store too, so ``XENTIUM`` and ``xentium`` key one cell."""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from repro.errors import ReproError, unknown_name_error

__all__ = ["Registry", "canonical_name"]

T = TypeVar("T")


def canonical_name(name: str | None) -> str:
    """The one spelling every registry keys a name on: lowercase
    (``None``, an unset optional name, is ``""``)."""
    return str(name or "").lower()


class Registry(Generic[T]):
    """Named items of one ``kind``; ``error`` is the
    :class:`~repro.errors.ReproError` subclass raised for an unknown or
    duplicate name.  ``generation`` counts registrations, so data
    derived from the items can be memoized per generation."""

    def __init__(self, kind: str, error: type[ReproError]) -> None:
        self.kind = kind
        self.error = error
        self.generation = 0
        self._items: dict[str, T] = {}

    def register(self, name: str, item: T, *, overwrite: bool = False) -> T:
        """Add ``item`` under ``name``; returns it (decorator-friendly)."""
        key = canonical_name(name)
        if key in self._items and not overwrite:
            raise self.error(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._items[key] = item
        self.generation += 1
        return item

    def find(self, name: str) -> T | None:
        """The item registered under ``name``, or ``None``."""
        return self._items.get(canonical_name(name))

    def get(self, name: str) -> T:
        """The item registered under ``name`` (case-insensitive)."""
        found = self.find(name)
        if found is None:
            raise unknown_name_error(self.error, self.kind, name, self._items)
        return found

    def names(self) -> list[str]:
        """The registered names, sorted."""
        return sorted(self._items)

    def listing(self) -> list[Any]:
        """The registry's entry in :func:`repro.api.registry_listing`:
        per name, sorted, the item's own ``listing()`` or the name."""
        return [
            item.listing() if hasattr(item, "listing") else name
            for name, item in sorted(self._items.items())
        ]
