"""Druid-style aggregator plug-ins (Section 7.1).

Druid extensions register *aggregator factories*; at ingestion each cube
cell gets an aggregator state fed with raw rows, and at query time the
broker merges states across matching cells and *finalizes* the result.
The paper integrates the moments sketch as exactly such a user-defined
aggregation and compares it against Druid's bundled approximate-histogram
aggregator (S-Hist) and a native ``doubleSum``.

States here wrap this repository's summaries so the simulated engine
exercises the same merge/estimate code paths as the microbenchmarks.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from ..core.errors import QueryError
from ..core.params import normalize_q
from ..summaries import MomentsSummary, StreamingHistogramSummary
from ..summaries.base import QuantileSummary


class AggregatorState(abc.ABC):
    """Mutable per-cell aggregation state."""

    @abc.abstractmethod
    def aggregate(self, values: np.ndarray) -> None: ...

    @abc.abstractmethod
    def merge(self, other: "AggregatorState") -> None: ...

    @abc.abstractmethod
    def finalize(self, **params) -> float: ...

    @abc.abstractmethod
    def copy(self) -> "AggregatorState": ...


class AggregatorFactory(abc.ABC):
    """Named factory, the unit Druid configuration refers to."""

    name: str

    @abc.abstractmethod
    def create(self) -> AggregatorState: ...


# ----------------------------------------------------------------------
# Native sum (the paper's best-case baseline in Figure 11)
# ----------------------------------------------------------------------

class SumState(AggregatorState):
    def __init__(self):
        self.total = 0.0

    def aggregate(self, values: np.ndarray) -> None:
        self.total += float(np.sum(values))

    def merge(self, other: "AggregatorState") -> None:
        if not isinstance(other, SumState):
            raise QueryError("cannot merge sum with non-sum state")
        self.total += other.total

    def finalize(self, **params) -> float:
        return self.total

    def copy(self) -> "SumState":
        out = SumState()
        out.total = self.total
        return out


class DoubleSumAggregator(AggregatorFactory):
    """Druid's native ``doubleSum``: a lower bound on query time."""

    name = "sum"

    def create(self) -> SumState:
        return SumState()


# ----------------------------------------------------------------------
# Quantile-summary aggregators
# ----------------------------------------------------------------------

class SummaryState(AggregatorState):
    """Aggregator state backed by any mergeable quantile summary."""

    def __init__(self, summary: QuantileSummary):
        self.summary = summary

    def aggregate(self, values: np.ndarray) -> None:
        self.summary.accumulate(values)

    def merge(self, other: "AggregatorState") -> None:
        if not isinstance(other, SummaryState):
            raise QueryError("cannot merge summary state with non-summary state")
        self.summary.merge(other.summary)

    def finalize(self, q: float | None = None, **params) -> float:
        """Finalization = quantile estimation (Druid "post-aggregation")."""
        return self.summary.quantile(normalize_q(q, default=0.5))

    def copy(self) -> "SummaryState":
        return SummaryState(self.summary.copy())


class MomentsSketchAggregator(AggregatorFactory):
    """The paper's user-defined moments-sketch aggregation extension."""

    def __init__(self, k: int = 10):
        self.k = k
        self.name = f"momentsSketch@{k}"

    def create(self) -> SummaryState:
        return SummaryState(MomentsSummary(k=self.k))


class StreamingHistogramAggregator(AggregatorFactory):
    """Druid's bundled approximate histogram [12] ("S-Hist@bins")."""

    def __init__(self, max_bins: int = 100):
        self.max_bins = max_bins
        self.name = f"S-Hist@{max_bins}"

    def create(self) -> SummaryState:
        return SummaryState(StreamingHistogramSummary(max_bins=self.max_bins))


def registry(moment_orders: Iterable[int] = (10,),
             histogram_bins: Iterable[int] = (10, 100, 1000)) -> dict[str, AggregatorFactory]:
    """The Figure 11 aggregator lineup keyed by display name."""
    factories: dict[str, AggregatorFactory] = {"sum": DoubleSumAggregator()}
    for k in moment_orders:
        factory = MomentsSketchAggregator(k=k)
        factories[factory.name] = factory
    for bins in histogram_bins:
        factory = StreamingHistogramAggregator(max_bins=bins)
        factories[factory.name] = factory
    return factories
