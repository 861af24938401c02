"""Recompute the double-occupancy reference of ``sq8_b4_serial``.

Runs independent long chains of the workload's model and prints the
combined estimate to paste into ``workloads.DOCC_REFERENCE``::

    python3 dqmcbench/reference.py
"""

from __future__ import annotations

import env

CHAINS = 8
WARMUP = 200
SWEEPS = 2000
FIRST_SEED = 1000


def main() -> None:
    env.prepare()

    import numpy as np
    from repro import Simulation
    from workloads import CLUSTER_SIZE, PRECISION, WORKLOADS

    wl = WORKLOADS["sq8_b4_serial"]
    means, errors = [], []
    for seed in range(FIRST_SEED, FIRST_SEED + CHAINS):
        sim = Simulation(
            wl.model(), seed=seed, cluster_size=CLUSTER_SIZE,
            measure_arrays=False, backend=wl.backend,
            precision=PRECISION, kinetic=wl.kinetic,
        )
        res = sim.run(warmup_sweeps=WARMUP, measurement_sweeps=SWEEPS)
        est = res.observables["double_occupancy"]
        means.append(float(est.mean))
        errors.append(float(est.error))
        print(f"seed {seed}: {means[-1]:.5f} +- {errors[-1]:.5f}", flush=True)
    weights = 1.0 / np.square(errors)
    mean = float(np.sum(weights * means) / np.sum(weights))
    error = float(1.0 / np.sqrt(np.sum(weights)))
    print(f"DOCC_REFERENCE = ({mean:.5f}, {error:.5f})")


if __name__ == "__main__":
    main()
