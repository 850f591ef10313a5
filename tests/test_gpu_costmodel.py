"""Tests for the cost-model machinery, device specs and stream scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.costmodel import (
    CostBreakdown,
    PerfCounters,
    l2_reread_factor,
    roofline_us,
    short_k_efficiency,
    tile_quantization,
    wave_efficiency,
)
from repro.gpu.device import A100, T4, V100, DeviceSpec
from repro.gpu.streams import concurrent_makespan, lpt_makespan, sequential_makespan


class TestDeviceSpec:
    def test_v100_paper_numbers(self):
        """§VII-A: 15.7 TFLOPS CUDA cores, 125 TFLOPS tensor cores, 80 SMs."""
        assert V100.tensor_core_tflops == 125.0
        assert V100.cuda_core_tflops == 15.7
        assert V100.sm_count == 80

    def test_derived_units(self):
        assert V100.tensor_core_flops == 125.0e12
        assert V100.mem_bandwidth == 900.0e9
        assert V100.block_slots == 160

    def test_cuda_core_peak_in_flops(self):
        assert V100.cuda_core_flops == 15.7e12
        # §VII-A: tensor cores offer roughly 8x the CUDA-core peak
        assert 7.0 < V100.tensor_core_flops / V100.cuda_core_flops < 9.0

    def test_variants_exist(self):
        assert T4.sm_count < V100.sm_count < A100.sm_count

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", sm_count=0)
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", kernel_launch_us=-1.0)


class TestQuantization:
    def test_tile_quantization_exact(self):
        assert tile_quantization(256, 256, 128, 128) == 1.0

    def test_tile_quantization_partial(self):
        # 129 rows need 2 tiles of 128 -> covered 256
        assert tile_quantization(129, 128, 128, 128) == pytest.approx(129 / 256)

    def test_wave_efficiency_exact(self):
        assert wave_efficiency(V100.block_slots, V100) == 1.0

    def test_wave_efficiency_partial(self):
        assert wave_efficiency(V100.block_slots + 1, V100) == pytest.approx(
            (V100.block_slots + 1) / (2 * V100.block_slots)
        )

    def test_wave_efficiency_small(self):
        assert wave_efficiency(16, V100) == pytest.approx(16 / V100.block_slots)

    def test_short_k(self):
        assert short_k_efficiency(96, 96.0) == pytest.approx(0.5)
        assert short_k_efficiency(0, 96.0) == 0.0
        assert short_k_efficiency(10**9, 96.0) == pytest.approx(1.0, abs=1e-3)

    def test_l2_reread(self):
        l2 = 6 * 1024 * 1024
        assert l2_reread_factor(1024, 10, l2) == 1.0  # fits
        big = 10 * l2
        assert 1.0 < l2_reread_factor(big, 100, l2) <= 100

    def test_roofline(self):
        c, m = roofline_us(1e12, 1e12, 9e9, 900e9)
        assert c == pytest.approx(1e6)
        assert m == pytest.approx(1e4)


class TestCostBreakdown:
    def test_total_is_roofline_plus_launch(self):
        bd = CostBreakdown(compute_us=10.0, memory_us=4.0, launch_us=1.0)
        assert bd.busy_us == 10.0
        assert bd.total_us == 11.0

    def test_memory_bound(self):
        bd = CostBreakdown(compute_us=2.0, memory_us=7.0, launch_us=0.0)
        assert bd.busy_us == 7.0

    def test_flops_efficiency(self):
        bd = CostBreakdown(
            compute_us=100.0, counters=PerfCounters(flops=1e9)
        )
        # 1e9 flops in 100us = 1e13 flop/s
        assert bd.flops_efficiency(1e14) == pytest.approx(0.1)

    def test_counters_transactions(self):
        c = PerfCounters(bytes_loaded=3200, bytes_stored=640)
        assert c.load_transactions == 100
        assert c.store_transactions == 20

    def test_counters_merge_accumulates_traffic(self):
        a = PerfCounters(flops=1.0, bytes_loaded=64, bytes_stored=32, sector_bytes=32)
        b = PerfCounters(flops=2.0, bytes_loaded=128, bytes_stored=96, sector_bytes=32)
        m = a.merge(b)
        assert (m.flops, m.bytes_loaded, m.bytes_stored) == (3.0, 192, 128)
        assert m.load_transactions == a.load_transactions + b.load_transactions
        assert m.store_transactions == a.store_transactions + b.store_transactions

    def test_merge_serial(self):
        a = CostBreakdown(compute_us=5, memory_us=10, launch_us=1, kernels=1,
                          counters=PerfCounters(flops=1.0))
        b = CostBreakdown(compute_us=7, memory_us=2, launch_us=1, kernels=2,
                          counters=PerfCounters(flops=2.0))
        m = a.merge_serial(b)
        assert m.busy_us == pytest.approx(10 + 7)
        assert m.launch_us == 2
        assert m.kernels == 3
        assert m.counters.flops == 3.0


class TestStreams:
    def test_lpt_single_worker(self):
        assert lpt_makespan([3.0, 2.0, 1.0], 1) == pytest.approx(6.0)

    def test_lpt_enough_workers(self):
        assert lpt_makespan([3.0, 2.0, 1.0], 5) == pytest.approx(3.0)

    def test_lpt_two_workers(self):
        # LPT: 3 -> w1, 2 -> w2, 2 -> w2?? no: after 3,2 loads are (3,2); 2 -> w2 (4)
        assert lpt_makespan([3.0, 2.0, 2.0], 2) == pytest.approx(4.0)

    def test_lpt_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_lpt_invalid_workers(self):
        with pytest.raises(ValueError):
            lpt_makespan([1.0], 0)

    def test_sequential_vs_concurrent(self):
        """Pooling kernels through streams can only help."""
        device = DeviceSpec(name="tiny", sm_count=2, blocks_per_sm=1)
        kernels = [[4.0], [4.0]]  # two 1-block kernels on a 2-slot device
        assert sequential_makespan(kernels, device) == pytest.approx(8.0)
        assert concurrent_makespan(kernels, device) == pytest.approx(4.0)

    def test_concurrent_bounded_by_stream_count(self):
        device = DeviceSpec(
            name="tiny", sm_count=4, blocks_per_sm=1, max_concurrent_streams=2
        )
        kernels = [[1.0]] * 4  # 4 kernels, only 2 streams
        # groups of 2 kernels each fill 2 of 4 slots -> 1.0 per group
        assert concurrent_makespan(kernels, device) == pytest.approx(2.0)

    def test_concurrent_empty(self):
        assert concurrent_makespan([], V100) == 0.0


@given(
    st.lists(st.floats(0.01, 100), min_size=1, max_size=50),
    st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_lpt_bounds_property(tasks, workers):
    """LPT makespan is bounded by max(avg load, longest task) and their sum."""
    ms = lpt_makespan(tasks, workers)
    lower = max(sum(tasks) / workers, max(tasks))
    assert ms >= lower - 1e-9
    assert ms <= sum(tasks) + 1e-9
    # 4/3-approximation guarantee of LPT
    assert ms <= (4.0 / 3.0) * lower + max(tasks)
