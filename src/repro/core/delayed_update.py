"""Delayed (block) rank-1 updates of the Green's function.

Paper Sec. II-B final remark: QUEST postpones accepted-flip updates so a
batch of rank-1 modifications is applied as one rank-m GEMM (Jarrell's
delayed-update trick). Between flushes the *effective* Green's function is

    G_eff = G + U @ W

with one column of U / row of W per accepted flip. Proposals only need
single rows/columns of G_eff, which cost O(n m) against the pending
buffers — far better cache behaviour than n^2 rank-1 touches per flip.

Update algebra (leftmost-B_l convention used throughout the package): an
accepted flip at site i with factor alpha and denominator
``d = 1 + alpha (1 - G_eff[i, i])`` transforms

    G  <-  G_eff - (alpha / d) * G_eff[:, i] (e_i - G_eff[i, :])^T
"""

from __future__ import annotations

import numpy as np

from ..linalg import flops

__all__ = ["DelayedUpdater", "delay_ladder"]


def delay_ladder(n_sites: int, rungs=(8, 16, 32, 64)) -> list:
    """Candidate delayed-update block sizes for an N-site system.

    The natural block sizes are powers of two up the GEMM-efficiency
    curve, capped at N: a block wider than the matrix flushes at rank N
    anyway, so larger values only waste buffer memory. This is the
    delay axis of the autotuner's candidate grid; the sweet spot the
    paper (and QUEST) quote sits in the 16-64 range, workload-dependent.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    return sorted({min(int(r), n_sites) for r in rungs if r >= 1})


class DelayedUpdater:
    """Accumulates pending rank-1 Green's-function updates for one spin.

    Parameters
    ----------
    g:
        The dense Green's function, modified in place on :meth:`flush`.
    max_delay:
        Flush automatically once this many updates are pending. 1
        degenerates to plain rank-1 updates (the ablation baseline).
    backend:
        Optional :class:`~repro.backends.BaseBackend` executing the
        rank-m flush GEMM (and counting it in the dispatch telemetry);
        ``None`` keeps the plain in-process GEMM.
    """

    def __init__(self, g: np.ndarray, max_delay: int = 32, backend=None):
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        n = g.shape[0]
        if g.shape != (n, n):
            raise ValueError("G must be square")
        self.g = g
        self.n = n
        self.max_delay = max_delay
        self.backend = backend
        # Buffers follow G's dtype: under a narrowed precision policy
        # the rank-1 blocks accumulate in the compute dtype and the
        # rank-m flush GEMM runs at single-precision GEMM rates.
        self._u = np.empty((n, max_delay), dtype=g.dtype)
        self._w = np.empty((max_delay, n), dtype=g.dtype)
        # The effective diagonal is maintained incrementally (one
        # vectorized axpy per accepted flip) so each *proposal* — the
        # overwhelmingly common operation — reads it in O(1). This is the
        # same bookkeeping QUEST's delayed update keeps hot.
        self._diag = np.ascontiguousarray(np.diag(g))
        self.pending = 0
        self.flushes = 0
        self.updates = 0

    # -- reads against G_eff = G + U W --------------------------------------

    def diag_element(self, i: int) -> float:
        """``G_eff[i, i]`` — the only number a Metropolis proposal needs."""
        return float(self._diag[i])

    def column(self, i: int) -> np.ndarray:
        """``G_eff[:, i]`` (fresh array)."""
        col = self.g[:, i].copy()
        if self.pending:
            flops.record("delayed_update", 2.0 * self.n * self.pending)
            col += self._u[:, : self.pending] @ self._w[: self.pending, i]
        return col

    def row(self, i: int) -> np.ndarray:
        """``G_eff[i, :]`` (fresh array)."""
        row = self.g[i, :].copy()
        if self.pending:
            flops.record("delayed_update", 2.0 * self.n * self.pending)
            row += self._u[i, : self.pending] @ self._w[: self.pending, :]
        return row

    # -- writes ----------------------------------------------------------------

    def accept(self, i: int, alpha: float, d: float) -> None:
        """Record an accepted flip at site i.

        ``d`` must be the caller's Metropolis denominator
        ``1 + alpha * (1 - G_eff[i, i])`` — passed in rather than
        recomputed so the update uses exactly the accepted ratio.
        """
        if d == 0.0:
            raise ZeroDivisionError("singular Metropolis denominator")
        col = self.column(i)
        row = self.row(i)
        m = self.pending
        # column()/row() record their own G_eff reads; this covers the
        # scaled writes and the incremental-diagonal axpy.
        flops.record("delayed_update", 4.0 * self.n)
        self._u[:, m] = (-alpha / d) * col
        self._w[m, :] = -row
        self._w[m, i] += 1.0  # e_i - G_eff[i, :]
        self._diag += self._u[:, m] * self._w[m, :]
        self.pending = m + 1
        self.updates += 1
        if self.pending >= self.max_delay:
            self.flush()

    def flush(self) -> None:
        """Fold pending updates into G with one rank-m GEMM."""
        m = self.pending
        if m == 0:
            return
        if self.backend is not None:
            self.g += self.backend.gemm(
                self._u[:, :m], self._w[:m, :], category="delayed_update"
            )
        else:
            flops.record("delayed_update", flops.gemm_flops(self.n, self.n, m))
            self.g += self._u[:, :m] @ self._w[:m, :]
        # Re-anchor the incremental diagonal on the freshly updated G so
        # roundoff never accumulates across flushes.
        np.copyto(self._diag, np.diag(self.g))
        self.pending = 0
        self.flushes += 1

    def dense(self) -> np.ndarray:
        """``G_eff`` as a dense matrix (flushing first)."""
        self.flush()
        return self.g
