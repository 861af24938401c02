"""Multicore backend over the worker-pool kernels (paper Sec. IV-B).

GEMMs stay with the (already multithreaded) BLAS; what this backend adds
is exactly what QUEST added with OpenMP — thread-parallel execution of
the fine-grain operations BLAS does not thread at DQMC sizes: diagonal
scalings and the pre-pivot column-norm pass. The composites route their
scalings through these primitives, so wraps and cluster products are
pooled too.

Bit-identity contract: the chunked scalings are elementwise (no
reductions), so they match the numpy backend exactly at every size. The
column-norm pass reduces per-chunk partial sums; below the pool's grain
size (128 rows) it runs in one chunk and is bit-identical, above it the
reassociation differs in the last ulp — same guarantee the paper's
OpenMP norm loop gives relative to serial dnrm2.
"""

from __future__ import annotations

from ..parallel import (
    parallel_column_norms,
    parallel_prepivot_permutation,
    scale_columns,
    scale_rows,
    scale_two_sided,
)
from .numpy_backend import NumpyBackend

__all__ = ["ThreadedBackend"]


class ThreadedBackend(NumpyBackend):
    """Worker-pool execution of the fine-grain propagator ops."""

    name = "threaded"
    # One sector at a time: the pool chunks the rows of one matrix, and
    # a stacked elementwise pass would serialize that chunking.
    stacked = False

    def _scale_rows(self, a, v, out, category):
        return scale_rows(a, v, out=out, category=category)

    def _scale_columns(self, a, v, out, category):
        return scale_columns(a, v, out=out, category=category)

    def _scale_two_sided(self, a, v, col_v, out, category):
        return scale_two_sided(a, v, col_v=col_v, out=out, category=category)

    def _column_norms(self, a):
        return parallel_column_norms(a)

    def _prepivot_permutation(self, a):
        return parallel_prepivot_permutation(a)
