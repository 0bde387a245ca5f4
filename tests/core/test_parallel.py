"""Section III-D: multi-input parallelism."""

import numpy as np
import pytest

from repro.core import (
    Assignment,
    AssignmentTable,
    MultiInputScheduler,
    make_tpu_chip,
    partition_cores,
)
from repro.fft import fft2


def small_chip(num_cores=4):
    return make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)


class TestPartitionCores:
    def test_even_partition(self):
        groups = partition_cores(8, 4)
        assert groups == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_remainder_spreads(self):
        groups = partition_cores(10, 3)
        sizes = [len(g) for g in groups]
        assert sizes == [4, 3, 3]
        assert sorted(sum(groups, [])) == list(range(10))

    def test_more_inputs_than_cores_round_robin(self):
        groups = partition_cores(2, 5)
        assert groups == [[0], [1], [0], [1], [0]]

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_cores(0, 2)
        with pytest.raises(ValueError):
            partition_cores(4, 0)


class TestMultiInputScheduler:
    def test_batch_results_match_direct_transforms(self):
        chip = small_chip()
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal((8, 8)) for _ in range(3)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        for x, out in zip(inputs, batch.outputs):
            np.testing.assert_allclose(out, fft2(x), atol=1e-6)

    def test_parallel_elapsed_below_serial(self):
        """Inputs run side by side: elapsed < sum of individual times."""
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(2)
        inputs = [rng.standard_normal((16, 16)) for _ in range(4)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        assert batch.elapsed_seconds < batch.serial_seconds

    def test_assignment_table_covers_all_inputs(self):
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(3)
        inputs = [rng.standard_normal((8, 8)) for _ in range(2)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        assert len(batch.table) > 0
        for index in range(2):
            rows = batch.table.for_input(index)
            assert {r.stage for r in rows} == {"rows", "columns"}
            assert batch.table.cores_for_input(index)

    def test_disjoint_core_groups_for_small_batches(self):
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(4)
        inputs = [rng.standard_normal((8, 8)) for _ in range(2)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        cores_0 = batch.table.cores_for_input(0)
        cores_1 = batch.table.cores_for_input(1)
        assert cores_0.isdisjoint(cores_1)

    def test_oversubscribed_batch_serializes_on_shared_cores(self):
        chip = small_chip(num_cores=2)
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((8, 8)) for _ in range(4)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        # Two inputs per core: elapsed is about half the serial time.
        assert batch.elapsed_seconds > 0.4 * batch.serial_seconds

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            MultiInputScheduler(small_chip()).fft2_batch([])

    def test_non_matrix_entry_rejected(self):
        with pytest.raises(ValueError):
            MultiInputScheduler(small_chip()).fft2_batch([np.ones(4)])


class TestElapsedWithSharing:
    """Direct unit coverage of the core-sharing serialization model."""

    def test_disjoint_groups_take_the_slowest(self):
        groups = [[0, 1], [2, 3]]
        assert MultiInputScheduler._elapsed_with_sharing(groups, [1.0, 3.0]) == 3.0

    def test_shared_anchor_serializes(self):
        # Three inputs round-robin over two cores: core 0 runs inputs
        # 0 and 2 back to back, core 1 runs input 1 alone.
        groups = [[0], [1], [0]]
        elapsed = MultiInputScheduler._elapsed_with_sharing(groups, [1.0, 2.5, 2.0])
        assert elapsed == 3.0  # core 0: 1.0 + 2.0 > core 1: 2.5

    def test_oversubscription_beyond_two_rounds(self):
        groups = [[0], [1], [0], [1], [0]]
        times = [1.0] * 5
        # Core 0 owns inputs 0, 2, 4 -> 3 serialized units.
        assert MultiInputScheduler._elapsed_with_sharing(groups, times) == 3.0

    def test_matches_batch_elapsed_when_pairs_exceed_cores(self):
        chip = small_chip(num_cores=2)
        rng = np.random.default_rng(20)
        inputs = [rng.standard_normal((8, 8)) for _ in range(5)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        groups = partition_cores(2, 5)
        expected = MultiInputScheduler._elapsed_with_sharing(
            groups, [r.elapsed_seconds for r in batch.reports]
        )
        assert batch.elapsed_seconds == pytest.approx(expected)


class TestPartitionCoresSharing:
    def test_round_robin_wraps_every_core(self):
        groups = partition_cores(3, 7)
        assert groups == [[0], [1], [2], [0], [1], [2], [0]]
        # Core 0 is the most loaded: ceil(7 / 3) inputs.
        anchors = [g[0] for g in groups]
        assert anchors.count(0) == 3

    def test_exact_multiple_balances_evenly(self):
        groups = partition_cores(2, 4)
        anchors = [g[0] for g in groups]
        assert anchors.count(0) == anchors.count(1) == 2


class TestAssignmentTableRows:
    def test_record_and_len(self):
        table = AssignmentTable()
        assert len(table) == 0
        table.record(Assignment(0, "rows", 1, 0, slice(0, 4)))
        table.record(Assignment(0, "columns", 2, 1, slice(0, 4)))
        table.record(Assignment(1, "rows", 3, 0, slice(4, 8)))
        assert len(table) == 3

    def test_for_input_filters_rows(self):
        table = AssignmentTable()
        table.record(Assignment(0, "rows", 1, 0, slice(0, 4)))
        table.record(Assignment(1, "rows", 2, 0, slice(0, 4)))
        rows = table.for_input(1)
        assert len(rows) == 1
        assert rows[0].core_id == 2
        assert rows[0].extent == slice(0, 4)

    def test_cores_for_input_deduplicates(self):
        table = AssignmentTable()
        table.record(Assignment(0, "rows", 5, 0, slice(0, 2)))
        table.record(Assignment(0, "columns", 5, 1, slice(0, 2)))
        table.record(Assignment(0, "columns", 6, 1, slice(2, 4)))
        assert table.cores_for_input(0) == {5, 6}

    def test_reassembly_extents_tile_the_input(self):
        """The recorded row slices of one input cover its rows exactly
        once -- the invariant reassembly relies on."""
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((8, 8))
        batch = MultiInputScheduler(chip).fft2_batch([x])
        row_extents = [
            r.extent for r in batch.table.for_input(0) if r.stage == "rows"
        ]
        covered = np.zeros(8, dtype=int)
        for extent in row_extents:
            covered[extent] += 1
        np.testing.assert_array_equal(covered, np.ones(8, dtype=int))
