"""Simulated-GPU backend (paper Sec. VI's hybrid division of labour).

The composites — cluster-product rebuilds (Algorithm 4/5) and the
wrap/unwrap transforms (Algorithm 6/7) — run on a
:class:`~repro.gpu.device.SimulatedDevice` through this backend's device
primitives: CUBLAS GEMMs against the exponentials uploaded once at bind
time, the fused scaling kernels (Algorithms 5/7) or the launch-per-row
CUBLAS listings (Algorithms 4/6), and per-bond-group checkerboard
kernels. The stratification chain's QR work and every public fine-grain
op stay on the host (the numpy primitives), exactly as the paper's
preliminary hybrid defers them to the CPU. Batched composites run one
spin sector at a time (a real multi-stream port would stack them).
Device primitives allocate their results and free the operands they
consume, so a composite holds at most two N x N work matrices besides
the resident exponentials.

The device executes numerically with the same numpy kernels in the same
canonical order as the host backends, so physics is bit-identical; only
the *timing* story differs (virtual device clock, launch and transfer
counters). ``repro.gpu`` imports are deferred to construction so merely
importing the backends package never pulls in the simulator stack.
"""

from __future__ import annotations

from .numpy_backend import NumpyBackend

__all__ = ["SimulatedGPUBackend"]


class SimulatedGPUBackend(NumpyBackend):
    """GPU-offloaded cluster products and wraps over a simulated device.

    Parameters
    ----------
    device:
        An existing :class:`~repro.gpu.device.SimulatedDevice` to share;
        a fresh one is created from ``model`` when omitted.
    model:
        Performance model for a fresh device (default Tesla C2050).
    fused:
        Use the fused custom kernels (Algorithms 5/7) instead of the
        launch-per-row CUBLAS listings (Algorithms 4/6).
    """

    name = "gpu-sim"
    stacked = False

    def __init__(self, device=None, model=None, fused: bool = True, **options):
        super().__init__(**options)
        from ..gpu.cublas import Cublas
        from ..gpu.device import SimulatedDevice
        from ..gpu.perfmodel import TESLA_C2050

        self._model = model if model is not None else TESLA_C2050
        self.device = device if device is not None else SimulatedDevice(self._model)
        self.blas = Cublas(self.device)
        self.fused = fused

    def bind(self, factory) -> "SimulatedGPUBackend":
        """Host refs + the one-time H2D upload of the exponentials.

        A new realized pair (precision promotion, kinetic switch) is
        uploaded afresh and the stale device copies are freed.
        """
        stale = (self.d_expk, self.d_inv_expk)
        super().bind(factory)
        for d in stale:
            if d is not None and d is not self.d_expk and d is not self.d_inv_expk:
                self.device.free(d)
        return self

    # -- device primitives -------------------------------------------------

    def to_device(self, a):
        return self.device.set_matrix(a)

    def to_host(self, a):
        out = self.device.get_matrix(a)
        self.device.free(a)
        return out

    def _release(self, *arrays) -> None:
        """Free consumed operands (the resident exponentials stay)."""
        for d in arrays:
            if d is not self.d_expk and d is not self.d_inv_expk:
                self.device.free(d)

    def _device_gemm(self, a, b, category):
        out = self.device.alloc((a.shape[0], b.shape[1]), dtype=a.dtype)
        self.blas.dgemm(a, b, out)
        self._release(a, b)
        return out

    def _device_scale_rows(self, a, v, out, category):
        """Out of place: Algorithm 5's one launch, or Algorithm 4's
        dscal per row of a work copy (``a`` itself unless resident)
        followed by a dcopy."""
        from ..gpu.kernels import scale_rows_kernel

        dev, blas = self.device, self.blas
        dv = dev.set_matrix(v)
        res = dev.alloc(a.shape, dtype=a.dtype)
        if self.fused:
            scale_rows_kernel(dev, dv, a, res)
            self._release(a)
        else:
            work = a
            if a is self.d_expk or a is self.d_inv_expk:
                work = dev.alloc(a.shape, dtype=a.dtype)
                blas.dcopy(a, work)
            for j in range(a.shape[0]):
                blas.dscal(float(v[j]), work, row=j)
            blas.dcopy(work, res)
            self._release(work)
        dev.free(dv)
        return res

    def _device_scale_two_sided(self, a, v, col_v, out, category):
        """In place: Algorithm 7's one launch, or a dscal launch per row
        and a strided launch per column."""
        from ..gpu.kernels import two_sided_scale_kernel

        dev = self.device
        dv = dev.set_matrix(v)
        dcol = None if col_v is None else dev.set_matrix(col_v)
        if self.fused:
            two_sided_scale_kernel(dev, dv, a, col_v=dcol)
        else:
            for i in range(a.shape[0]):
                self.blas.dscal(float(v[i]), a, row=i)
            # Column scalings: CUBLAS dscal with stride n; the simulated
            # cost is the same bandwidth-bound launch per column.
            payload = a._payload()
            col = 1.0 / v if col_v is None else col_v
            for j in range(a.shape[1]):
                payload[:, j] *= col[j]
                dev.kernel_launches += 1
                dev.tick(dev.model.time_bandwidth_kernel(2 * payload[:, j].nbytes))
        dev.free(dv)
        if dcol is not None:
            dev.free(dcol)
        return a

    def _device_structured(self, a, side, inverse, category):
        from ..gpu.kernels import checkerboard_apply_kernel

        checkerboard_apply_kernel(self.device, self.structured, a, side=side, inverse=inverse)
        return a

    def stats(self):
        out = super().stats()
        out["backend.gpu.kernel_launches"] = float(self.device.kernel_launches)
        out["backend.gpu.elapsed_model_s"] = float(self.device.elapsed)
        return out
