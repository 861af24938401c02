"""The benchmark's fixed DQMC workloads.

All three run the half-filled square-lattice Hubbard model (U=4, mu=0,
t=1) at cluster size k=8 under the ``full64`` precision policy with the
watchdog off, in one process with one BLAS thread. A workload is one
*fixed run*: construct the simulation, warm up, take the measurement
sweeps (saving a checkpoint every ``CHECKPOINT_EVERY`` of them) and
reduce the result. ``run.py`` repeats fixed runs, each on its own seed
stream, until the measurement time is used up, and at least
``timed_runs`` times: ``run_s`` is the slowest of the first
``timed_runs``, as many as fit into 36 s at the seed commit's slower
speed level.

Why each workload exists is in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["CHECKPOINT_EVERY", "CLUSTER_SIZE", "DOCC_REFERENCE", "PRECISION", "U",
           "Workload", "WORKLOADS"]

U = 4.0
CLUSTER_SIZE = 8
PRECISION = "full64"
#: measurement sweeps between checkpoint saves; every workload's
#: measurement count is a multiple, so the last save follows the last sweep
CHECKPOINT_EVERY = 8

#: Double occupancy of 8x8, U=4, beta=4 (dtau=0.125) at half filling,
#: with its one-sigma error, from ``reference.py`` (8 chains x 2000
#: measurement sweeps after 200 warmup, seeds 1000-1007).
DOCC_REFERENCE: Tuple[float, float] = (0.12929, 0.00011)


@dataclass(frozen=True)
class Workload:
    name: str
    lx: int
    beta: float
    n_slices: int
    backend: str
    kinetic: str
    warmup_sweeps: int
    measure_sweeps: int
    timed_runs: int
    measurements_per_sweep: int = 1
    alternate_directions: bool = False
    measure_dynamic: bool = False
    streaming: bool = False
    #: (mean, error) the run's double occupancy must match within
    #: ``gate.DOCC_SIGMAS`` combined error bars, pooled over the
    #: invocation's fixed runs; None skips the check
    docc_reference: Optional[Tuple[float, float]] = None

    def model(self):
        from repro import HubbardModel, SquareLattice

        return HubbardModel(
            SquareLattice(self.lx, self.lx),
            u=U,
            beta=self.beta,
            n_slices=self.n_slices,
        )

    def simulation(self, seed):
        """The configured :class:`repro.Simulation` (``seed`` is anything
        ``numpy.random.default_rng`` accepts)."""
        from repro import Simulation

        return Simulation(
            self.model(),
            seed=seed,
            cluster_size=CLUSTER_SIZE,
            measurements_per_sweep=self.measurements_per_sweep,
            alternate_directions=self.alternate_directions,
            measure_dynamic=self.measure_dynamic,
            backend=self.backend,
            precision=PRECISION,
            kinetic=self.kinetic,
            streaming=self.streaming,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sq8_b4_serial",
            lx=8,
            beta=4.0,
            n_slices=32,
            backend="numpy",
            kinetic="exact",
            warmup_sweeps=10,
            measure_sweeps=48,
            timed_runs=6,
            docc_reference=DOCC_REFERENCE,
        ),
        Workload(
            name="sq12_b10_deep",
            lx=12,
            beta=10.0,
            n_slices=80,
            backend="numpy",
            kinetic="exact",
            warmup_sweeps=1,
            measure_sweeps=8,
            timed_runs=4,
        ),
        Workload(
            name="sq16_b4_gpusim",
            lx=16,
            beta=4.0,
            n_slices=32,
            backend="gpu-sim",
            kinetic="checkerboard",
            warmup_sweeps=2,
            measure_sweeps=8,
            timed_runs=3,
            measurements_per_sweep=4,
            alternate_directions=True,
            measure_dynamic=True,
            streaming=True,
        ),
    )
}
