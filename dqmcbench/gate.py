"""Correctness checks of the benchmark's fixed runs.

Every check is one operation of the benchmark: a check that fails counts
as a failed operation, exactly like a sweep that raises. The checks hold
for any healthy run of these workloads. After each fixed run
(:func:`check_run`):

* every observable is finite;
* the density is 1 to within 1e-10 and every sampled sign is +1 (both
  exact at half filling by particle-hole symmetry);
* the wrap drift, along the single-sector path ``engine.wrap_drift``
  and along the two-sector path the sweep itself uses, stays below the
  watchdog's own ``drift_tol`` (1e-6);
* a checkpoint round trip restores the sample counts.

Once per invocation, where the workload carries a reference
(:func:`check_double_occupancy`): the double occupancy pooled over all
fixed runs lies within ``DOCC_SIGMAS`` combined error bars of it.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

__all__ = ["DENSITY_TOL", "DOCC_BINS_PER_RUN", "DOCC_SIGMAS", "DRIFT_TOL",
           "check_double_occupancy", "check_run", "docc_bin_means", "pair_wrap_drift"]

DENSITY_TOL = 1e-10
DRIFT_TOL = 1e-6
DOCC_SIGMAS = 5.0
#: bins each fixed run's double-occupancy series is cut into (12 sweeps
#: on sq8_b4_serial); six or more fixed runs give >= 23 degrees of
#: freedom, where a healthy run lies beyond 5 sigma with probability
#: under 5e-5 (two-sided Student t)
DOCC_BINS_PER_RUN = 4

#: (check name, passed, detail)
Check = Tuple[str, bool, str]


def pair_wrap_drift(engine) -> float:
    """Relative drift of one cluster of ``wrap_pair`` calls (the sweep's
    wrap path) against freshly stratified G, worst spin sector."""
    k = engine.cluster_size
    g = {s: engine.boundary_greens(s, 0) for s in (1, -1)}
    for l in range(k):
        g = engine.wrap_pair(g, l)
    worst = 0.0
    for s in (1, -1):
        fresh = engine.greens_at_slice_direct(s, k - 1)
        worst = max(worst, float(np.linalg.norm(g[s] - fresh) / np.linalg.norm(fresh)))
    return worst


def _sample_counts(sim) -> dict:
    acc = sim.collector.accumulator
    return {name: acc.n_samples(name) for name in acc.names()}


def check_run(sim, result, workload, checkpoint, load: Callable) -> List[Check]:
    """Run every check on a finished fixed run.

    ``checkpoint`` is the path of the run's last checkpoint (saved after
    its final sweep); ``load(path, fresh_sim)`` restores it, so the
    caller can time the load.
    """
    obs = result.observables
    checks: List[Check] = []

    bad = [
        name
        for name, est in obs.items()
        if not (np.all(np.isfinite(est.mean)) and np.all(np.isfinite(est.error)))
    ]
    checks.append(("finite", not bad, f"non-finite: {bad}" if bad else "all finite"))

    density = float(obs["density"].mean)
    checks.append(
        (
            "density",
            abs(density - 1.0) <= DENSITY_TOL,
            f"density = 1 {density - 1.0:+.3e}",
        )
    )
    # A running mean of +-1 samples is exactly 1.0 only if every sample
    # is +1 (both accumulators keep 1.0 exact under x = 1).
    sign = float(obs["sign"].mean)
    checks.append(("sign", sign == 1.0, f"mean sign = {sign!r}"))

    drift = max(
        sim.engine.wrap_drift(1),
        sim.engine.wrap_drift(-1),
        pair_wrap_drift(sim.engine),
    )
    checks.append(("wrap_drift", drift < DRIFT_TOL, f"drift = {drift:.3e}"))

    expected = _sample_counts(sim)
    fresh = workload.simulation(seed=0)
    load(checkpoint, fresh)
    restored = _sample_counts(fresh)
    same = restored == expected and fresh.measured_sweeps == sim.measured_sweeps
    checks.append(
        (
            "checkpoint_roundtrip",
            same,
            f"{sum(restored.values())} of {sum(expected.values())} samples restored",
        )
    )

    return checks


def docc_bin_means(sim) -> np.ndarray:
    """The run's double-occupancy series cut into ``DOCC_BINS_PER_RUN``
    bin means (trailing samples that do not fill a bin are dropped)."""
    series = sim.collector.accumulator.series("double_occupancy")
    per_bin = len(series) // DOCC_BINS_PER_RUN
    return series[: per_bin * DOCC_BINS_PER_RUN].reshape(DOCC_BINS_PER_RUN, per_bin).mean(axis=1)


def check_double_occupancy(bin_means: List[np.ndarray], reference: Tuple[float, float]) -> Check:
    """Pooled double occupancy of all fixed runs against ``reference``.

    The fixed runs are independent chains, so their bins pool into one
    estimate whose error bar has enough degrees of freedom for a
    ``DOCC_SIGMAS`` bound to mean what it says.
    """
    ref, ref_err = reference
    bins = np.concatenate(bin_means) if bin_means else np.empty(0)
    if len(bins) < 2:
        return ("double_occupancy", False, f"{len(bins)} bins, need 2")
    mean = float(bins.mean())
    err = float(bins.std(ddof=1) / np.sqrt(len(bins)))
    bound = DOCC_SIGMAS * float(np.hypot(err, ref_err))
    return (
        "double_occupancy",
        abs(mean - ref) <= bound,
        f"{mean:.5f} +- {err:.5f} over {len(bins)} bins"
        f" vs reference {ref:.5f} +- {ref_err:.5f}",
    )
