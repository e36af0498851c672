"""Subject-level data containers and the packed array form used by the fitters."""

from __future__ import annotations

import math
import numbers
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

    Validation runs once per record, on the Python lists of the three
    columns; :class:`PackedData` tabulates the cells of all subjects at once.
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
        item_list, time_list = items.tolist(), times.tolist()
        if item_list and min(min(item_list), min(time_list), min(levels.tolist())) < 1:
            raise DataError("items, time_points and levels are 1-based and must be >= 1")
        if len(set(zip(item_list, time_list))) != len(item_list):
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


def _real(value, name: str) -> float:
    """``value`` as a float; anything but a real scalar is a :class:`DataError`.

    Python and numpy bools count as real scalars; arrays, strings and complex
    numbers do not.
    """
    if type(value) is not float and not isinstance(value, (numbers.Real, np.bool_)):
        raise DataError(f"{name} must be a real scalar, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{name} must be finite, got {value!r}") from None


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject's follow-up: observed time, event flag and covariate.

    Stored as ``float``, ``int`` and ``float`` whatever real scalars were
    given, so an event given as ``1.0`` or ``True`` is kept as ``1``.
    """

    time: float
    event: int
    covariate: float

    def __post_init__(self):
        time, event, covariate = self.time, self.event, self.covariate
        # the types the CSV reader and generate_dataset pass need no conversion
        exact = type(time) is float and type(event) is int and type(covariate) is float
        if not exact:
            time, event, covariate = (_real(time, "time"), _real(event, "event"),
                                      _real(covariate, "covariate"))
        if not 0 < time < math.inf:
            raise DataError(f"time must be positive and finite, got {self.time!r}")
        if event not in (0, 1):
            raise DataError(f"event must be 0 or 1, got {self.event!r}")
        if not math.isfinite(covariate):
            raise DataError(f"covariate must be finite, got {self.covariate!r}")
        if not exact:
            object.__setattr__(self, "time", time)
            object.__setattr__(self, "event", int(event))
            object.__setattr__(self, "covariate", covariate)


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

    Packing takes no per-subject numpy call: one pass gathers the survival
    fields into one float array, the observed cells of all subjects are
    concatenated once, and ``counts`` is one ``np.bincount`` over the flat
    cell index ``(i * n_items + item - 1) * n_levels + level - 1``.  A
    dimension that is not given is inferred as the largest level or item
    observed (2 and 1 when no cell is), and the bounds are checked once, on
    the concatenated cells.
    """

    def __init__(self, records: Sequence[SubjectRecord], n_levels: int | None = None,
                 n_items: int | None = None):
        records = list(records)
        if not records:
            raise DataError("dataset must contain at least one subject")
        n = len(records)
        responses = [r.responses for r in records]
        items = np.concatenate([resp.items for resp in responses])
        levels = np.concatenate([resp.levels for resp in responses])
        max_item = int(items.max()) if items.size else 1
        max_level = int(levels.max()) if levels.size else 2
        if n_levels is None:
            n_levels = max_level
        if n_items is None:
            n_items = max_item
        if n_levels < 2:
            raise DataError("need at least two response levels")
        if items.size and max_item > n_items:
            raise DataError(f"item index {max_item} exceeds n_items={n_items}")
        if max_level > n_levels:
            raise DataError(f"level {max_level} exceeds n_levels={n_levels}")
        self.n = n
        self.n_levels = L = int(n_levels)
        self.n_items = J = int(n_items)
        survival = np.array([(r.survival.time, r.survival.event, r.survival.covariate)
                             for r in records])
        self.times, self.events, self.covariates = (survival[:, k].copy() for k in range(3))
        first_cell = np.repeat(np.arange(n) * J, [resp.items.size for resp in responses])
        flat = (first_cell + items - 1) * L + levels - 1
        self.counts = np.bincount(flat, minlength=n * J * L).reshape(n, J, L).astype(float)
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
                    self.distinct_times, self.time_index, self.event_counts, self._desc_order,
                    self._suffix_at, self.event_slots, self.slot_counts, self.slots_through,
                    self._suffix_at_slots):
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
        return values.take(self._desc_order, axis=0).cumsum(axis=0).take(at, axis=0)
