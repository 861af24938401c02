"""Unit tests for GPU clustering (Alg 4/5) and wrapping (Alg 6/7) on the
simulated-GPU backend."""

import numpy as np
import pytest

from repro.backends import SimulatedGPUBackend
from repro.core import cluster_product, wrap_forward
from repro.gpu import SimulatedDevice
from tests.helpers import relerr


@pytest.fixture
def dev():
    return SimulatedDevice()


def gpu_backend(dev, factory, fused=True):
    return SimulatedGPUBackend(device=dev, fused=fused).bind(factory)


@pytest.fixture(params=[True, False], ids=["fused", "cublas"])
def ops(request, dev, factory4x4):
    return gpu_backend(dev, factory4x4, fused=request.param)


class TestClusterProduct:
    def test_matches_cpu(self, ops, factory4x4, field4x4):
        for sigma in (1, -1):
            vs = [
                field4x4.v_diagonal(l, sigma, factory4x4.nu) for l in range(10)
            ]
            gpu = ops.cluster_product(vs)
            cpu = cluster_product(factory4x4, field4x4, sigma, range(10))
            assert relerr(gpu, cpu) < 1e-12

    def test_single_matrix_cluster(self, ops, factory4x4, field4x4):
        vs = [field4x4.v_diagonal(0, 1, factory4x4.nu)]
        gpu = ops.cluster_product(vs)
        cpu = factory4x4.b_matrix(field4x4, 0, 1)
        assert relerr(gpu, cpu) < 1e-13

    def test_empty_cluster_raises(self, ops):
        with pytest.raises(ValueError):
            ops.cluster_product([])

    def test_transfer_volume(self, dev, factory4x4, field4x4):
        """Paper Sec. VI-A: one cluster rebuild moves N*L floats up and
        N^2 down (the resident exponentials move only at setup)."""
        ops = gpu_backend(dev, factory4x4)
        h2d0, d2h0 = dev.h2d_bytes, dev.d2h_bytes
        k = 10
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(k)]
        ops.cluster_product(vs)
        n = 16
        assert dev.h2d_bytes - h2d0 == n * k * 8
        assert dev.d2h_bytes - d2h0 == n * n * 8


class TestLaunchCounts:
    def test_fused_eliminates_per_row_launches(self, dev, factory4x4, field4x4):
        """The structural claim of Algorithm 5: launches per scaling drop
        from N to 1."""
        n = 16
        k = 5
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(k)]

        fused = gpu_backend(dev, factory4x4, fused=True)
        before = dev.kernel_launches
        fused.cluster_product(vs)
        fused_launches = dev.kernel_launches - before

        plain = gpu_backend(dev, factory4x4, fused=False)
        before = dev.kernel_launches
        plain.cluster_product(vs)
        plain_launches = dev.kernel_launches - before

        # fused: k scalings + (k-1) gemms; plain spends dcopy/dgemm + N
        # dscal + dcopy on every step: k*(n+2) launches in total.
        assert fused_launches == k + (k - 1)
        assert plain_launches == k * (n + 2)
        assert fused_launches < plain_launches / 4

    def test_fused_is_faster_on_virtual_clock(self, factory4x4, field4x4):
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(10)]
        times = {}
        for fused in (True, False):
            dev = SimulatedDevice()
            ops = gpu_backend(dev, factory4x4, fused=fused)
            t0 = dev.elapsed
            ops.cluster_product(vs)
            times[fused] = dev.elapsed - t0
        assert times[True] < times[False]


class TestWrap:
    def test_matches_cpu(self, ops, factory4x4, field4x4, engine4x4):
        g = engine4x4.boundary_greens(1, 0)
        cpu = wrap_forward(factory4x4, field4x4, g.copy(), 3, 1)
        v = field4x4.v_diagonal(3, 1, factory4x4.nu)
        gpu = ops.wrap(g.copy(), v)
        assert relerr(gpu, cpu) < 1e-12

    def test_does_not_mutate_input(self, ops, factory4x4, field4x4, rng):
        g = rng.normal(size=(16, 16))
        g0 = g.copy()
        ops.wrap(g, np.exp(rng.normal(size=16)))
        np.testing.assert_array_equal(g, g0)

    def test_transfer_volume_per_wrap(self, factory4x4, field4x4, rng):
        """One wrap moves N^2 + N floats up, N^2 down — the paper's
        reason wrapping cannot reach clustering's GPU efficiency."""
        dev = SimulatedDevice()
        ops = gpu_backend(dev, factory4x4)
        h2d0, d2h0 = dev.h2d_bytes, dev.d2h_bytes
        ops.wrap(rng.normal(size=(16, 16)), np.exp(rng.normal(size=16)))
        assert dev.h2d_bytes - h2d0 == (16 * 16 + 16) * 8
        assert dev.d2h_bytes - d2h0 == 16 * 16 * 8


class TestDeviceMemory:
    def test_composites_leave_only_the_resident_exponentials(
        self, ops, dev, factory4x4, field4x4, rng
    ):
        """Each composite frees every work array it allocated: between
        calls the device holds exactly exp(-+dtau K)."""
        resident = 2 * 16 * 16 * 8
        assert dev.allocated_bytes == resident
        g = rng.normal(size=(16, 16))
        v = np.exp(rng.normal(size=16))
        ops.wrap(g, v)
        ops.unwrap(g, v)
        ops.cluster_product([v, v, v])
        ops.wrap_batched(np.stack([g, g]), np.stack([v, v]))
        assert dev.allocated_bytes == resident
        # resident + two work matrices + the diagonals of one scaling
        assert dev.peak_bytes <= resident + 2 * 16 * 16 * 8 + 2 * 16 * 8
