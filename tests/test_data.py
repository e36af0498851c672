import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jointmix.data import (DataError, PackedData, ResponseSet, SubjectRecord, SurvivalRecord,
                           _readonly)

from conftest import make_responses, make_subject
from oracles import response_counts

FIELDS = ("items", "time_points", "levels")


@st.composite
def datasets(draw):
    """Records on a J-item, M-visit grid with levels 1..L: some subjects observe every
    cell on one shared pair of read-only item/time columns, the others a random subset
    of the cells (none at all included).  Returns the records, the shared item column
    and the number of subjects on it."""
    J, L, M = draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(1, 3))
    grid = [(j, m) for j in range(1, J + 1) for m in range(1, M + 1)]
    item_col = _readonly([j for j, _ in grid], np.int64)
    time_col = _readonly([m for _, m in grid], np.int64)
    records, n_shared = [], 0
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            n_shared += 1
            levels = draw(st.lists(st.integers(1, L), min_size=len(grid), max_size=len(grid)))
            responses = ResponseSet(item_col, time_col, np.array(levels))
        else:
            cells = draw(st.lists(st.sampled_from(grid), unique=True, max_size=len(grid)))
            responses = make_responses([(j, m, draw(st.integers(1, L))) for j, m in cells])
        survival = SurvivalRecord(draw(st.floats(0.1, 10.0)),
                                  draw(st.sampled_from([0, 1, 0.0, 1.0, False, True])),
                                  draw(st.floats(-3.0, 3.0)))
        records.append(SubjectRecord(responses, survival))
    return records, item_col, n_shared


def observed_maxima(records) -> tuple[int, int]:
    """Largest item and level over every observed cell, or 0 when no cell is observed."""
    observed = [r.responses for r in records if r.responses.n_cells]
    return (max((int(resp.items.max()) for resp in observed), default=0),
            max((int(resp.levels.max()) for resp in observed), default=0))


class TestPackedData:
    @settings(max_examples=80, deadline=None)
    @given(dataset=datasets(), given_dims=st.booleans(), extra_items=st.integers(0, 2),
           extra_levels=st.integers(0, 2))
    def test_packing_matches_the_per_record_oracle(self, dataset, given_dims, extra_items,
                                                   extra_levels):
        records, item_col, n_shared = dataset
        max_item, max_level = observed_maxima(records)
        # a read-only owning column is shared, not copied
        assert sum(r.responses.items is item_col for r in records) == n_shared
        if given_dims:
            n_items, n_levels = max(max_item, 1) + extra_items, max(max_level, 2) + extra_levels
            packed = PackedData(records, n_levels, n_items)
        elif max_level == 1:
            with pytest.raises(DataError, match="at least two response levels"):
                PackedData(records)
            return
        else:
            n_items, n_levels = max_item or 1, max_level or 2
            packed = PackedData(records)
        assert (packed.n, packed.n_items, packed.n_levels) == (len(records), n_items, n_levels)
        oracle = np.stack([response_counts(r.responses, n_items, n_levels) for r in records])
        assert np.array_equal(packed.counts, oracle)
        assert np.array_equal(packed.cells, oracle.sum(axis=2))
        for name in ("time", "event", "covariate"):
            fields = [getattr(r.survival, name) for r in records]
            assert np.array_equal(getattr(packed, name + "s"), fields)
        arrays = {name: arr for name, arr in vars(packed).items() if isinstance(arr, np.ndarray)}
        assert {"times", "events", "covariates", "counts", "cells", "time_index"} <= set(arrays)
        for name, arr in arrays.items():
            assert arr.dtype in (np.float64, np.int64), name
            assert not arr.flags.writeable, name
        for name in ("times", "events", "covariates", "counts", "cells"):
            assert arrays[name].dtype == np.float64, name

    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets())
    def test_an_out_of_range_cell_raises_the_oracle_message(self, dataset):
        records = dataset[0]
        max_item, max_level = observed_maxima(records)
        assume(max_item)
        at_max_item = next(r.responses for r in records
                           if r.responses.n_cells and r.responses.items.max() == max_item)
        with pytest.raises(DataError) as oracle:
            response_counts(at_max_item, max_item - 1, max(max_level, 2))
        with pytest.raises(DataError, match=f"^item index {max_item} exceeds n_items=") as packer:
            PackedData(records, max(max_level, 2), max_item - 1)
        assert str(packer.value) == str(oracle.value)
        if max_level >= 3:
            at_max_level = next(r.responses for r in records
                                if r.responses.n_cells and r.responses.levels.max() == max_level)
            with pytest.raises(DataError) as oracle:
                response_counts(at_max_level, max_item, max_level - 1)
            with pytest.raises(DataError, match=f"^level {max_level} exceeds n_levels=") as packer:
                PackedData(records, max_level - 1, max_item)
            assert str(packer.value) == str(oracle.value)

    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets(), field=st.sampled_from(FIELDS))
    def test_zero_based_and_duplicate_cells_are_rejected(self, dataset, field):
        observed = [r.responses for r in dataset[0] if r.responses.n_cells]
        assume(observed)
        columns = {name: np.array(getattr(observed[0], name)) for name in FIELDS}
        zero_based = dict(columns, **{field: np.concatenate([[0], columns[field][1:]])})
        with pytest.raises(DataError, match="1-based"):
            ResponseSet(**zero_based)
        duplicated = {name: np.append(col, col[0]) for name, col in columns.items()}
        with pytest.raises(DataError, match="duplicate"):
            ResponseSet(**duplicated)

    def test_integer_times_pack_to_float(self):
        packed = PackedData([make_subject(2, 1, 0), make_subject(3, 0, 1)])
        assert packed.times.dtype == packed.covariates.dtype == np.float64
        assert packed.times.tolist() == [2.0, 3.0]

    def test_fewer_than_two_levels_are_rejected(self):
        with pytest.raises(DataError, match="at least two response levels"):
            PackedData([make_subject(1.0, 1, 0.0, [(1, 1, 1)])], n_levels=1)


class TestSurvivalRecord:
    @pytest.mark.parametrize("time, event, covariate", [
        (2, True, 1), (2.0, 1.0, 1.0), (np.float64(2.0), np.int64(1), np.float32(1.0)),
        (2.0, np.True_, np.int64(1))])
    def test_fields_are_stored_as_float_int_float(self, time, event, covariate):
        rec = SurvivalRecord(time, event, covariate)
        assert (rec.time, rec.event, rec.covariate) == (2.0, 1, 1.0)
        assert (type(rec.time), type(rec.event), type(rec.covariate)) == (float, int, float)

    @pytest.mark.parametrize("time, event, covariate, message", [
        (1.0, 1, np.array([0.5, 1.0]), "covariate must be a real scalar"),
        (1.0, 1, np.array(0.5), "covariate must be a real scalar"),
        ("1.0", 1, 0.0, "time must be a real scalar"),
        (1.0, "1", 0.0, "event must be a real scalar"),
        (1.0, 1, 1j, "covariate must be a real scalar"),
        (None, 1, 0.0, "time must be a real scalar"),
        pytest.param(10 ** 400, 1, 0.0, "time must be finite", id="int-past-float-range"),
        (0.0, 1, 0.0, "time must be positive and finite"),
        (float("nan"), 1, 0.0, "time must be positive and finite"),
        (1.0, 0.5, 0.0, "event must be 0 or 1"),
        (1.0, 2, 0.0, "event must be 0 or 1"),
        (1.0, 1, float("inf"), "covariate must be finite")])
    def test_anything_else_is_a_data_error(self, time, event, covariate, message):
        with pytest.raises(DataError, match=message):
            SurvivalRecord(time, event, covariate)
