"""Multi-GPU cluster farming (the paper's ref [34] direction).

The paper cites "QR factorization on a multicore node enhanced with
multiple GPU accelerators" as the technology path past one device. The
DQMC workload has an even easier multi-GPU axis than QR: the ``L/k``
cluster products of a fresh stratification are *independent* — each is a
chain of GEMMs against that device's resident ``exp(-dtau K)`` with no
cross-cluster data flow. So the farm:

* uploads the kinetic exponentials to every device once,
* round-robins cluster rebuilds across devices,
* and consumes the results after all devices finish — the batch's
  virtual wall-clock is the *maximum* of the per-device clock advances
  (they run concurrently), which is what the speedup test asserts.

The serial chain of the stratification itself (QR per step) remains on
one device/host; Amdahl applies and the farm reports both numbers.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence, Tuple

import numpy as np

from .device import SimulatedDevice
from .perfmodel import TESLA_C2050, GPUModel

__all__ = ["MultiDeviceClusterFarm"]


class MultiDeviceClusterFarm:
    """Builds batches of cluster products across several simulated GPUs.

    Parameters
    ----------
    n_devices:
        Device count (>= 1). One
        :class:`~repro.backends.SimulatedGPUBackend` per device, each
        with its own resident propagator copies.
    expk, inv_expk:
        Host kinetic exponentials, uploaded to every device at setup.
    model:
        Per-device performance model (homogeneous farm).
    fused:
        Use the fused scaling kernels (Algorithm 5) on every device.
    """

    def __init__(
        self,
        n_devices: int,
        expk: np.ndarray,
        inv_expk: np.ndarray,
        model: GPUModel = TESLA_C2050,
        fused: bool = True,
    ):
        from ..backends import SimulatedGPUBackend

        if n_devices < 1:
            raise ValueError("need at least one device")
        self.devices = [SimulatedDevice(model) for _ in range(n_devices)]
        exponentials = SimpleNamespace(expk=expk, inv_expk=inv_expk)
        self.backends = [
            SimulatedGPUBackend(device=dev, fused=fused).bind(exponentials)
            for dev in self.devices
        ]
        #: accumulated concurrent wall-clock across build_all batches
        self.batch_seconds = 0.0

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def assignment(self, n_clusters: int) -> List[int]:
        """Device index per cluster (round-robin)."""
        return [j % self.n_devices for j in range(n_clusters)]

    def build_all(
        self, v_lists: Sequence[Sequence[np.ndarray]]
    ) -> Tuple[List[np.ndarray], float]:
        """Build every cluster product; returns (products, batch_time).

        ``v_lists[j]`` holds cluster j's per-slice V diagonals, rightmost
        first. ``batch_time`` is the concurrent virtual wall-clock of the
        batch: max over devices of that device's clock advance (each
        device executes its assigned clusters serially; devices overlap).
        """
        if not v_lists:
            return [], 0.0
        start = [dev.elapsed for dev in self.devices]
        products: List[np.ndarray] = []
        for j, vs in enumerate(v_lists):
            backend = self.backends[j % self.n_devices]
            products.append(backend.cluster_product(vs))
        deltas = [
            dev.elapsed - t0 for dev, t0 in zip(self.devices, start)
        ]
        batch = max(deltas)
        self.batch_seconds += batch
        return products, batch

    def total_transfer_bytes(self) -> int:
        return sum(d.h2d_bytes + d.d2h_bytes for d in self.devices)

    def stats(self) -> List[dict]:
        return [d.stats() for d in self.devices]
