"""Optional real-GPU backend over cupy (activates only when importable).

This is the seam the simulated-GPU work has been pointing at: the same
composites as every other backend, with the device primitives executed
by cuBLAS and cupy elementwise kernels on an actual device. The module
imports lazily — constructing :class:`CupyBackend` on a machine without
cupy raises :class:`~repro.backends.base.BackendUnavailableError`, and
the registry reports it as unavailable rather than failing at import
time (the project installs no GPU dependencies itself).

Interface contract: host ndarrays in, host ndarrays out — each composite
pays its own H2D/D2H transfers, like the paper's Algorithm 4/6 listings;
batched composites move both spin sectors in one transfer and run them
as batched cuBLAS GEMMs. The public fine-grain ops (the stratification
chain's GEMMs and scalings) stay on the host. A production port would
keep G device-resident across wraps; that optimization belongs in a
follow-up backend, not in the protocol.

Numerical note: cuBLAS GEMM is *not* bitwise-identical to host BLAS
(different blocking/FMA contraction), so this backend is excluded from
the bit-identity equivalence class and tested to tolerances instead.
"""

from __future__ import annotations

import numpy as np

from ..linalg import flops
from .base import BackendUnavailableError
from .numpy_backend import NumpyBackend

__all__ = ["CupyBackend", "cupy_available"]


def cupy_available() -> bool:
    """True when cupy imports and reports at least one device."""
    try:
        import cupy  # noqa: F401
    except Exception:  # pragma: no cover - environment-dependent
        return False
    try:
        return int(cupy.cuda.runtime.getDeviceCount()) > 0
    except Exception:  # pragma: no cover - driver present, no device
        return False


class CupyBackend(NumpyBackend):
    """Real-GPU execution of the composites via cupy."""

    name = "cupy"

    def __init__(self, **options):
        super().__init__(**options)
        if not cupy_available():
            raise BackendUnavailableError(
                "backend 'cupy' needs an importable cupy with a CUDA "
                "device; install cupy or pick numpy/threaded/gpu-sim"
            )
        import cupy

        self._cp = cupy
        self._d_blocks = None

    def bind(self, factory) -> "CupyBackend":
        super().bind(factory)
        # Checkerboard direction blocks are tiny (lx^2 + ly^2 elements);
        # resident uploads like the exponentials.
        self._d_blocks = None
        if self.structured is not None:
            host_blocks = self.structured.blocks(self.policy.compute_dtype)
            self._d_blocks = tuple(self._cp.asarray(b) for b in host_blocks)
        return self

    # -- device primitives -------------------------------------------------

    def to_device(self, a):
        return self._cp.asarray(a)

    def to_host(self, a):
        return self._cp.asnumpy(a)

    def _device_gemm(self, a, b, category):
        out = self._cp.matmul(a, b)
        flops.record(category, 2 * out.size * a.shape[-1])
        return out

    def _device_scale_rows(self, a, v, out, category):
        dv = self._cp.asarray(v)
        res = self._cp.multiply(a, dv[..., :, None], out=out)
        flops.record(category, res.size)
        return res

    def _device_scale_two_sided(self, a, v, col_v, out, category):
        dv = self._cp.asarray(v)
        col = (1.0 / dv) if col_v is None else self._cp.asarray(col_v)
        res = self._cp.multiply(a, dv[..., :, None], out=out)
        res *= col[..., None, :]
        flops.record(category, 2 * res.size)
        return res

    def _device_structured(self, a, side, inverse, category):
        """Blocked checkerboard apply on a device array (same spelling as
        :meth:`CheckerboardPropagator.apply_expk_left/right`)."""
        cp = self._cp
        cb = self.structured
        bx, by, bx_inv, by_inv = self._d_blocks
        lx, ly = cb.lattice.lx, cb.lattice.ly
        n = cb.n_sites
        a = cp.ascontiguousarray(a)
        width = a.shape[-1] if side == "left" else a.shape[-2]
        batch = int(np.prod(a.shape[:-2], dtype=np.int64))
        flops.record(category, batch * cb.apply_flops(width))
        if side == "left":
            lead = a.shape[:-2]
            ncols = a.shape[-1]
            if not inverse:
                t = cp.matmul(bx, a.reshape(lead + (ly, lx, ncols)))
                t = cp.matmul(by, t.reshape(lead + (ly, lx * ncols)))
            else:
                t = cp.matmul(by_inv, a.reshape(lead + (ly, lx * ncols)))
                t = cp.matmul(bx_inv, t.reshape(lead + (ly, lx, ncols)))
            out = t.reshape(lead + (n, ncols))
        else:
            lead = a.shape[:-1]
            nrows = lead[-1]
            batch_shape = lead[:-1]
            if not inverse:
                t = cp.matmul(by.T, a.reshape(lead + (ly, lx)))
                t = cp.matmul(t.reshape(batch_shape + (nrows * ly, lx)), bx)
            else:
                t = cp.matmul(a.reshape(batch_shape + (nrows * ly, lx)), bx_inv)
                t = cp.matmul(by_inv.T, t.reshape(lead + (ly, lx)))
            out = t.reshape(lead + (n,))
        if cb.mu != 0.0:
            factor = np.exp((-cb.dtau if inverse else cb.dtau) * cb.mu)
            out *= out.dtype.type(factor)
        return out
