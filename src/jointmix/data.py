"""Subject-level data containers and the packed array form used by the fitters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DataError(ValueError):
    """Input violates a documented contract: the records, or a setting such as
    a fit's tolerances or a Monte Carlo study's replication count."""


def _readonly(values, dtype) -> np.ndarray:
    """Read-only array of ``values``; an owning read-only array of that dtype is kept as it is.

    Anything else is copied, so later writes through the caller's array or
    its base cannot reach the result.
    """
    # the cheap tests first: the writable arrays of the data path fail the second
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.base is None and values.dtype == dtype):
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ResponseSet:
    """Observed ordinal responses of one subject, in long form.

    Each observed questionnaire cell is a triple ``(item, time_point, level)``,
    all 1-based.  A cell that was never observed is simply absent and
    contributes nothing to any likelihood or score.  Each observed cell
    carries exactly one level, so duplicate ``(item, time_point)`` pairs are
    rejected.
    """

    items: np.ndarray
    time_points: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        items = _readonly(self.items, np.int64)
        times = _readonly(self.time_points, np.int64)
        levels = _readonly(self.levels, np.int64)
        if items.ndim != 1 or items.shape != times.shape or items.shape != levels.shape:
            raise DataError("items, time_points and levels must be 1-d arrays of equal length")
        if items.size and (items.min() < 1 or times.min() < 1 or levels.min() < 1):
            raise DataError("items, time_points and levels are 1-based and must be >= 1")
        cells = set(zip(items.tolist(), times.tolist()))
        if len(cells) != items.size:
            raise DataError("duplicate (item, time_point) cell: each observed cell has exactly one level")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "time_points", times)
        object.__setattr__(self, "levels", levels)

    @classmethod
    def empty(cls) -> "ResponseSet":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @property
    def n_cells(self) -> int:
        return int(self.items.size)

    def counts(self, n_items: int, n_levels: int) -> np.ndarray:
        """Tabulate observed cells into an ``(n_items, n_levels)`` count matrix."""
        if self.items.size and self.items.max() > n_items:
            raise DataError(f"item index {int(self.items.max())} exceeds n_items={n_items}")
        if self.levels.size and self.levels.max() > n_levels:
            raise DataError(f"level {int(self.levels.max())} exceeds n_levels={n_levels}")
        out = np.zeros((n_items, n_levels))
        np.add.at(out, (self.items - 1, self.levels - 1), 1.0)
        return out


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject's follow-up: observed time, event flag and covariate."""

    time: float
    event: int
    covariate: float

    def __post_init__(self):
        if not np.isfinite(self.time) or self.time <= 0:
            raise DataError(f"time must be positive and finite, got {self.time!r}")
        if self.event not in (0, 1):
            raise DataError(f"event must be 0 or 1, got {self.event!r}")
        if not np.isfinite(self.covariate):
            raise DataError(f"covariate must be finite, got {self.covariate!r}")


@dataclass(frozen=True)
class SubjectRecord:
    """All observed data for one subject."""

    responses: ResponseSet
    survival: SurvivalRecord
    subject_id: str | int | None = None


class PackedData:
    """Dataset flattened into numpy arrays, shared by every fitting routine.

    Ordinal responses are reduced to their sufficient statistics: per-subject
    count tensors ``counts[i, j, l]`` and observed-cell totals
    ``cells[i, j]``.  Survival times are indexed against the sorted distinct
    observed times, and the time order is computed once here, so every
    risk-set sum the fitters take is one reverse cumulative sum read at the
    first sorted position of each distinct time (:meth:`suffix_sums`), or of
    each event time only (:meth:`event_suffix_sums`).
    Subjects keep their input order in every array.

    The profiled hazard jumps only at event times, so the event-time grid is
    fixed here too: ``event_slots`` are the positions in ``distinct_times``
    of the times with an event, ``slot_counts`` the event counts there, and
    ``slots_through[i]`` the number of event times at or before subject i's
    time, which indexes a cumulative sum over the event times that starts
    with 0.  ``event_counts`` holds the counts on the whole distinct-time grid.
    """

    def __init__(self, records: Sequence[SubjectRecord], n_levels: int | None = None,
                 n_items: int | None = None):
        records = list(records)
        if not records:
            raise DataError("dataset must contain at least one subject")
        if n_levels is None:
            n_levels = max((int(r.responses.levels.max()) for r in records if r.responses.n_cells), default=2)
        if n_items is None:
            n_items = max((int(r.responses.items.max()) for r in records if r.responses.n_cells), default=1)
        if n_levels < 2:
            raise DataError("need at least two response levels")
        n = len(records)
        self.n = n
        self.n_levels = int(n_levels)
        self.n_items = int(n_items)
        self.times = np.array([r.survival.time for r in records])
        self.events = np.array([float(r.survival.event) for r in records])
        self.covariates = np.array([r.survival.covariate for r in records])
        self.counts = np.zeros((n, self.n_items, self.n_levels))
        for i, rec in enumerate(records):
            self.counts[i] = rec.responses.counts(self.n_items, self.n_levels)
        self.cells = self.counts.sum(axis=2)
        self.subject_ids = tuple(
            r.subject_id if r.subject_id is not None else i for i, r in enumerate(records)
        )
        # distinct_times is sorted; time_index[i] locates subject i's time in it
        self.distinct_times, self.time_index = np.unique(self.times, return_inverse=True)
        self.n_times = self.distinct_times.size
        self.event_counts = np.bincount(self.time_index, weights=self.events,
                                        minlength=self.n_times)
        # subjects by decreasing time; the running sum over this order, read at
        # _suffix_at[k], covers exactly the risk set {i : T_i >= distinct_times[k]}
        order = np.argsort(self.times, kind="stable")
        self._desc_order = order[::-1].copy()
        self._suffix_at = n - 1 - np.searchsorted(self.times[order], self.distinct_times)
        self.event_slots = np.flatnonzero(self.event_counts)
        self.slot_counts = self.event_counts[self.event_slots]
        self.slots_through = np.searchsorted(self.event_slots, self.time_index, side="right")
        self._suffix_at_slots = self._suffix_at[self.event_slots]
        for arr in (self.times, self.events, self.covariates, self.counts, self.cells,
                    self.distinct_times, self.time_index, self.event_counts, self.event_slots,
                    self.slot_counts, self.slots_through, self._suffix_at_slots):
            arr.flags.writeable = False

    @classmethod
    def coerce(cls, data, n_levels: int | None = None, n_items: int | None = None) -> "PackedData":
        """``data`` packed with the requested dimensions; packed data must already have them."""
        if not isinstance(data, cls):
            return cls(data, n_levels=n_levels, n_items=n_items)
        for name, want in (("n_levels", n_levels), ("n_items", n_items)):
            if want is not None and want != getattr(data, name):
                raise DataError(f"packed data has {name}={getattr(data, name)}, not {want}")
        return data

    def suffix_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` over subjects at risk at each distinct time.

        ``values`` has shape ``(n,)`` or ``(n, m)``; the result has the
        leading axis replaced by the distinct-time axis, entry ``k`` holding
        the sum over subjects with ``T_i >= distinct_times[k]``.
        """
        return self._running_sums_at(values, self._suffix_at)

    def event_suffix_sums(self, values: np.ndarray) -> np.ndarray:
        """:meth:`suffix_sums` at the event times only: entry ``j`` is entry
        ``event_slots[j]`` of it, read from the same running sum."""
        return self._running_sums_at(values, self._suffix_at_slots)

    def _running_sums_at(self, values: np.ndarray, at: np.ndarray) -> np.ndarray:
        running = np.cumsum(np.take(values, self._desc_order, axis=0), axis=0)
        return np.take(running, at, axis=0)
