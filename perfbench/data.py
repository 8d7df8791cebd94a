"""Seeded input generation and the benchmark's own copy of every row."""

from __future__ import annotations

import numpy as np


def zipf_weights(cardinality: int, s: float) -> np.ndarray:
    """Popularity of ranks ``0..cardinality-1``, proportional to (r+1)^-s."""
    weights = np.arange(1, cardinality + 1, dtype=float) ** -s
    return weights / weights.sum()


def zipf_choice(rng: np.random.Generator, cardinality: int, s: float,
                size: int) -> np.ndarray:
    return rng.choice(cardinality, size=size, p=zipf_weights(cardinality, s))


class Rows:
    """Every row a workload wrote, for exact answers.

    Columns are kept as lists of appended chunks and concatenated on
    demand, so appends stay cheap between checks.
    """

    def __init__(self, dimensions: tuple[str, ...]):
        self.dimensions = dimensions
        self._values: list[np.ndarray] = []
        self._dims: list[list[np.ndarray]] = []
        self._cache: tuple | None = None
        self._groups: dict[str, dict] = {}

    def append(self, values: np.ndarray, dims=()) -> None:
        self._values.append(np.asarray(values, dtype=float))
        self._dims.append([np.asarray(col) for col in dims])
        self._cache = None
        self._groups = {}

    def _columns(self) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._cache is None:
            values = np.concatenate(self._values)
            dims = [np.concatenate([chunk[i] for chunk in self._dims])
                    for i in range(len(self.dimensions))]
            self._cache = (values, dims)
        return self._cache

    @property
    def count(self) -> int:
        return sum(chunk.size for chunk in self._values)

    def select(self, filters: dict | None = None) -> np.ndarray:
        """Ascending values of the rows matching equality ``filters``."""
        values, dims = self._columns()
        mask = np.ones(values.size, dtype=bool)
        for name, value in (filters or {}).items():
            mask &= dims[self.dimensions.index(name)] == value
        return np.sort(values[mask])

    def groups(self, dimension: str) -> dict:
        """Group value -> ascending values, over every row."""
        cached = self._groups.get(dimension)
        if cached is None:
            values, dims = self._columns()
            column = dims[self.dimensions.index(dimension)]
            order = np.lexsort((values, column))
            keys = column[order]
            ordered = values[order]
            cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [keys.size]))
            cached = {keys[a].item(): ordered[a:b]
                      for a, b in zip(starts, ends)}
            self._groups[dimension] = cached
        return cached
