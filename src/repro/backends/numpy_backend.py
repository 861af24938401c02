"""The serial numpy reference backend.

Supplies the host primitives with plain numpy; the composites come from
:class:`~repro.backends.base.BaseBackend`, and all other backends are
measured against this one bit-for-bit (elementwise scalings and
per-slice GEMMs) or to documented tolerances (threaded norm reductions
above the grain size).

The primitives broadcast over leading axes, so the batched composites
genuinely stack: ``a @ b`` over a ``(s, n, n)`` stack dispatches one
BLAS GEMM per slice with the same rounding as the per-matrix call, so
the stacked path is bit-identical to the loop while making one library
call for both spin sectors.
"""

from __future__ import annotations

import numpy as np

from ..linalg import column_norms, flops, prepivot_permutation
from .base import BaseBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(BaseBackend):
    """Serial reference implementation of the host primitives."""

    name = "numpy"

    def _gemm(self, a, b, category):
        out = a @ b
        flops.record(category, 2 * out.size * a.shape[-1])
        return out

    def _scale_rows(self, a, v, out, category):
        res = np.multiply(a, v[..., :, None], out=out)
        flops.record(category, res.size)
        return res

    def _scale_columns(self, a, v, out, category):
        res = np.multiply(a, v[..., None, :], out=out)
        flops.record(category, res.size)
        return res

    def _scale_two_sided(self, a, v, col_v, out, category):
        col = (1.0 / v) if col_v is None else col_v
        res = np.multiply(a, v[..., :, None], out=out)
        res *= col[..., None, :]
        flops.record(category, 2 * res.size)
        return res

    def _column_norms(self, a):
        return column_norms(a)

    def _prepivot_permutation(self, a):
        return prepivot_permutation(a)

    def _device_structured(self, a, side, inverse, category):
        width = a.shape[-1] if side == "left" else a.shape[-2]
        batch = int(np.prod(a.shape[:-2], dtype=np.int64))
        flops.record(category, batch * self.structured.apply_flops(width))
        if side == "left":
            return self.structured.apply_expk_left(a, inverse=inverse)
        return self.structured.apply_expk_right(a, inverse=inverse)
