"""Ordered sets of binary observables, named by id."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownObservable


@dataclass(frozen=True)
class ObservableSet:
    """An ordered collection of distinct binary observables.

    Attributes:
        observables: the non-empty observable ids, in a fixed order that
            defines their integer indices everywhere (datasets, product
            sample spaces).
        source: provenance tag, e.g. a dataset path or generator descriptor.
    """

    observables: tuple[str, ...]
    source: str = ""
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.observables) < 1:
            raise ValueError("an ObservableSet needs at least one observable")
        index = {}
        for i, obs in enumerate(self.observables):
            if not obs:
                raise ValueError("observable id must be non-empty")
            if obs in index:
                raise ValueError(f"duplicate observable id {obs!r}")
            index[obs] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_ids(cls, ids, source: str = "") -> ObservableSet:
        return cls(tuple(ids), source=source)

    def __len__(self) -> int:
        return len(self.observables)

    def ids(self) -> tuple[str, ...]:
        return self.observables

    def index_of(self, observable_id: str) -> int:
        try:
            return self._index[observable_id]
        except KeyError:
            raise UnknownObservable(f"unknown observable {observable_id!r}") from None

    def subset(self, ids) -> ObservableSet:
        """A new set holding the given ids in the given order."""
        return ObservableSet(
            tuple(self.observables[self.index_of(i)] for i in ids), source=self.source
        )


def writable_ids(ids: tuple[str, ...]) -> tuple[str, ...]:
    """The ids, or ValueError naming the first that would not read back from
    a CSV field: one holding a comma, a line break or outer whitespace."""
    for name in ids:
        if "," in name or name.splitlines() != [name] or name.strip() != name:
            raise ValueError(f"observable id {name!r} would not read back as written")
    return ids
