"""End-to-end DQMC benchmark: one fixed, seeded workload per invocation.

Run from the root of a checkout::

    python3 dqmcbench/run.py --workload sq8_b4_serial --seed 1 --seconds 36 --trace 0

The run measures for about ``--seconds``: it repeats the workload's
fixed run (set-up, warmup, measurement sweeps with checkpoints, result
reduction), each repetition on its own seed stream derived from
``--seed``, at least ``timed_runs`` times, and checks the physics
(``gate.py``) after every repetition and once over all of them. It
prints each metric by name and unit and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only when every operation succeeded.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a
separate run that reports per-layer numbers: sweeps alternate in pairs
between traced and untraced, so the tracing overhead is measured in the
same process. Set-up time is taken in fresh processes that only build
the simulation, at least ``SETUP_PROBES`` of them, run between the
fixed runs so that they sample the whole measurement time. The full
record (provenance, checks, spans) is written under ``.dqmcbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import env

#: fresh processes timed for ``setup_s``, spread over the first
#: ``timed_runs`` fixed runs
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60
#: bins of the result reduction (>= 12 samples per bin on every workload)
N_BINS = 8
#: Table I phases of ``Simulation.profiler``
PHASES = ("delayed_update", "stratification", "clustering", "wrapping", "measurements")
#: flop-tally categories reported one by one; the rest sum into "other"
FLOP_CATEGORIES = (
    "clustering",
    "delayed_update",
    "displaced_greens",
    "gpu_gemm",
    "gpu_scale",
    "gpu_structured",
    "norms",
    "qr",
    "qrp",
    "stable_inverse",
    "stratification",
    "wrapping",
)
WORK_DIR = env.ROOT / ".dqmcbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="End-to-end DQMC benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=36.0, help="run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: build the simulation once and print the seconds",
    )
    return parser.parse_args(argv)


def rep_seed(seed: int, rep: int) -> list:
    """Entropy of repetition ``rep``'s independent PCG64 stream."""
    return [seed, rep]


class Operations:
    """Attempted/failed accounting. An operation is a set-up, sweep,
    checkpoint save, result reduction or end-of-run check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list = []

    def run(self, what: str, fn):
        """``(True, fn())``, or ``(False, None)`` with the traceback on
        stderr when ``fn`` raises; the run goes on either way."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return False, None

    def check(self, rep: int, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"rep": rep, "check": name, "ok": ok, "detail": detail})


class Record:
    """Raw measurements of one invocation."""

    def __init__(self) -> None:
        self.setup_s: list = []
        self.sweep_s: list = []
        self.traced_sweep_s: list = []
        self.run_s: list = []
        self.checkpoint_mbytes: list = []
        self.proposed = 0
        self.accepted = 0
        #: per-traced-sweep sums of counter deltas
        self.deltas: dict = {}
        self.flops = None
        self.gpu_peak_bytes = 0.0
        #: per fixed run, double-occupancy bin means (workloads with a reference)
        self.docc_bins: list = []

    def add(self, key: str, value: float) -> None:
        self.deltas[key] = self.deltas.get(key, 0.0) + value


def _snapshot(sim) -> dict:
    engine = sim.engine
    device = getattr(engine.backend, "device", None)
    return {
        "cache": engine.cache.stats(),
        "dispatch": sum(engine.backend.op_counts.values()),
        "phases": dict(sim.profiler.seconds),
        "device": device.stats() if device is not None else None,
    }


def _record_deltas(rec: Record, before: dict, after: dict) -> None:
    for key in ("hits", "misses", "batched_builds"):
        name = f"cluster_cache.{key}"
        rec.add(name, after["cache"][name] - before["cache"][name])
    rec.add("dispatch", after["dispatch"] - before["dispatch"])
    for phase in PHASES:
        rec.add(
            f"phase.{phase}",
            after["phases"].get(phase, 0.0) - before["phases"].get(phase, 0.0),
        )
    # The device's counters are read once the sweep call has returned,
    # i.e. after every queued device operation of the sweep completed.
    if after["device"] is not None:
        for key in ("elapsed", "h2d_bytes", "d2h_bytes", "h2d_count",
                    "d2h_count", "kernel_launches"):
            rec.add(f"device.{key}", after["device"][key] - before["device"][key])


def fixed_run(wl, seed, rep, workdir: Path, ops: Operations, rec: Record, tracer) -> None:
    """One fixed run of ``wl`` plus its end-of-run checks."""
    from repro.dqmc.checkpoint import load_checkpoint, save_checkpoint
    from repro.linalg import flops

    from gate import check_run, docc_bin_means
    from workloads import CHECKPOINT_EVERY

    def span(name: str, on: bool = True):
        return tracer.root(name) if tracer is not None and on else nullcontext()

    start = time.perf_counter()
    with span("setup"):
        ok, sim = ops.run("set-up", lambda: wl.simulation(rep_seed(seed, rep)))
    if not ok:
        return
    if tracer is not None:
        tracer.watch_backend(sim.engine.backend)
    for _ in range(wl.warmup_sweeps):
        ops.run("warmup sweep", lambda: sim.warmup(1))
    checkpoint = workdir / f"rep{rep}.npz"
    for i in range(wl.measure_sweeps):
        traced = tracer is not None and (i // 2) % 2 == 0
        before = _snapshot(sim) if traced else None
        t0 = time.perf_counter()
        with span("dqmc.measure_sweep", traced):
            with flops.tally() if traced else nullcontext() as tally:
                ok, stats = ops.run("sweep", lambda: sim.measure_sweeps(1))
        elapsed = time.perf_counter() - t0
        (rec.traced_sweep_s if traced else rec.sweep_s).append(elapsed)
        if ok:
            rec.proposed += stats.proposed
            rec.accepted += stats.accepted
        if traced:
            _record_deltas(rec, before, _snapshot(sim))
            if rec.flops is None:
                rec.flops = tally
            else:
                rec.flops.merge(tally)
        if (i + 1) % CHECKPOINT_EVERY == 0:
            with span("checkpoint.save"):
                ops.run("checkpoint save", lambda: save_checkpoint(checkpoint, sim))
    with span("stats.reduce"):
        ok, result = ops.run(
            "reduction",
            lambda: sim.result(
                n_warmup=wl.warmup_sweeps,
                n_measurement=wl.measure_sweeps,
                n_bins=N_BINS,
            ),
        )
    rec.run_s.append(time.perf_counter() - start)
    device = getattr(sim.engine.backend, "device", None)
    if device is not None:
        rec.gpu_peak_bytes = max(rec.gpu_peak_bytes, float(device.peak_bytes))
    if not ok:
        return
    if wl.docc_reference is not None:
        rec.docc_bins.append(docc_bin_means(sim))
    if checkpoint.exists():
        rec.checkpoint_mbytes.append(checkpoint.stat().st_size / 1e6)

    def load(path, fresh):
        with span("checkpoint.load"):
            return load_checkpoint(path, fresh)

    ok, checks = ops.run(
        "end-of-run checks", lambda: check_run(sim, result, wl, checkpoint, load)
    )
    for name, passed, detail in checks or ():
        ops.check(rep, name, passed, detail)


def time_setup(wl, seed: int) -> float:
    """Seconds to build the workload's simulation, ready to sweep (the
    package import itself is not part of it)."""
    import repro  # noqa: F401

    start = time.perf_counter()
    wl.simulation(rep_seed(seed, 0))
    return time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """:func:`time_setup` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    import numpy as np
    import scipy

    try:
        top, commit = subprocess.run(
            ["git", "-C", str(env.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != env.ROOT:
            commit = "unknown"
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = "unknown"
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pool_threads": os.environ.get("REPRO_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "python": platform.python_version(),
    }


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(rec: Record, ops: Operations) -> dict:
    # This machine's speed switches between two levels up to 2x apart
    # every few seconds, so a run's median or mean moves with how much
    # of it fell on each level. The slower (nominal) level shows up in
    # nearly every run, and the 90th percentile tracks it
    # (dqmcbench/README.md, "Steadiness").
    return {
        "setup_s": (_p90(rec.setup_s), "s"),
        "sweep_s": (_p90(rec.sweep_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "success_rate": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
    }


def per_layer(wl, rec: Record, tracer) -> dict:
    from spans import PRIMITIVES

    n = len(tracer.roots["dqmc.measure_sweep"])
    spans = tracer.summarize("dqmc.measure_sweep")

    def per_sweep(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0.0) / n

    def per_root(root: str, span: str) -> float:
        """Seconds of ``span`` per root span ``root``."""
        agg = tracer.summarize(root).get(span, {"s": 0.0})
        return agg["s"] / max(1, len(tracer.roots[root]))

    d = rec.deltas
    out = {
        # The slowest of a fixed number of fixed runs, so that a faster
        # program, which fits more runs into the time, is not judged on
        # a larger sample. Too unsteady here to gate on (README.md).
        "run_s": (max(rec.run_s[: wl.timed_runs]), "s"),
        "trace.sweep_s": (_p90(rec.traced_sweep_s), "s"),
        "trace.overhead_s": (_p90(rec.traced_sweep_s) - _p90(rec.sweep_s), "s"),
        "trace.sweeps": (n, "count"),
        "dqmc.sweep.s": (per_sweep("dqmc.sweep", "s"), "s"),
        "dqmc.sweep.self_s": (per_sweep("dqmc.sweep", "self_s"), "s"),
        "dqmc.acceptance": (rec.accepted / max(1, rec.proposed), "ratio"),
    }
    for span, prefix in (
        ("core.boundary_greens", "core.boundary_greens"),
        ("core.stratified_inverse", "core.stratified_inverse"),
        ("core.wrap", "core.wrap"),
        ("measure.collector", "measure.collector"),
        ("linalg.qr", "linalg.qr"),
    ):
        out[f"{prefix}.s"] = (per_sweep(span, "s"), "s")
        out[f"{prefix}.self_s"] = (per_sweep(span, "self_s"), "s")
        out[f"{prefix}.calls"] = (per_sweep(span, "calls"), "count")
    out["core.stratified_inverse.factors"] = (
        per_sweep("core.stratified_inverse", "items"), "count"
    )
    hits, misses = d.get("cluster_cache.hits", 0.0), d.get("cluster_cache.misses", 0.0)
    out["core.cluster_cache.hit_ratio"] = (hits / max(1.0, hits + misses), "ratio")
    out["core.cluster_cache.builds"] = (d.get("cluster_cache.batched_builds", 0.0) / n, "count")
    out["core.delayed_update.flush_s"] = (per_sweep("core.delayed_update.flush", "s"), "s")
    out["core.delayed_update.self_s"] = (per_sweep("core.delayed_update.flush", "self_s"), "s")
    out["core.delayed_update.flushes"] = (per_sweep("core.delayed_update.flush", "calls"), "count")
    out["core.displaced.s"] = (per_sweep("core.displaced", "s"), "s")
    out["core.displaced.self_s"] = (per_sweep("core.displaced", "self_s"), "s")
    out["hamiltonian.factory_s"] = (per_root("setup", "hamiltonian.factory"), "s")

    counted = 0
    for prim in PRIMITIVES:
        calls, seconds, flop, nbytes = tracer.primitives[prim]
        counted += calls
        out[f"backends.{prim}.calls"] = (calls / n, "count")
        out[f"backends.{prim}.s"] = (seconds / n, "s")
        out[f"backends.{prim}.gflop"] = (flop / n / 1e9, "GFlop")
        out[f"backends.{prim}.mbytes"] = (nbytes / n / 1e6, "MB")
    out["backends.dispatch_overcount"] = (d.get("dispatch", 0.0) / max(1, counted), "ratio")

    tally = rec.flops.flops if rec.flops is not None else {}
    for cat in FLOP_CATEGORIES:
        out[f"linalg.gflop.{cat}"] = (tally.get(cat, 0.0) / n / 1e9, "GFlop")
    other = sum(v for k, v in tally.items() if k not in FLOP_CATEGORIES)
    out["linalg.gflop.other"] = (other / n / 1e9, "GFlop")

    out["gpu.model_s"] = (d.get("device.elapsed", 0.0) / n, "model_s")
    out["gpu.h2d_mbytes"] = (d.get("device.h2d_bytes", 0.0) / n / 1e6, "MB")
    out["gpu.d2h_mbytes"] = (d.get("device.d2h_bytes", 0.0) / n / 1e6, "MB")
    out["gpu.transfers"] = (
        (d.get("device.h2d_count", 0.0) + d.get("device.d2h_count", 0.0)) / n, "count"
    )
    out["gpu.kernel_launches"] = (d.get("device.kernel_launches", 0.0) / n, "count")
    out["gpu.peak_mbytes"] = (rec.gpu_peak_bytes / 1e6, "MB")

    out["stats.reduce_s"] = (per_root("stats.reduce", "stats.reduce"), "s")
    out["checkpoint.save_s"] = (per_root("checkpoint.save", "checkpoint.save"), "s")
    out["checkpoint.load_s"] = (per_root("checkpoint.load", "checkpoint.load"), "s")
    out["checkpoint.mbytes"] = (
        statistics.median(rec.checkpoint_mbytes) if rec.checkpoint_mbytes else 0.0, "MB"
    )
    for phase in PHASES:
        out[f"profiler.{phase}_s"] = (d.get(f"phase.{phase}", 0.0) / n, "s")
    return out


def run_workload(wl, seed: int, seconds: float, traced: bool, time_setups: bool = False):
    """Repeat fixed runs for about ``seconds``, and at least
    ``wl.timed_runs`` times, then check the pooled double occupancy;
    returns the accounting, the raw record and the tracer (None when
    untraced). With ``time_setups``, set-up probes follow each of the
    first ``timed_runs`` fixed runs."""
    from gate import check_double_occupancy

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
    ops, rec = Operations(), Record()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=WORK_DIR))
    deadline = time.perf_counter() + seconds
    rep_s: list = []
    try:
        if tracer is not None:
            tracer.install()
        while True:
            start = time.perf_counter()
            fixed_run(wl, seed, len(rep_s), workdir, ops, rec, tracer)
            if time_setups and len(rep_s) < wl.timed_runs:
                for _ in range(-(-SETUP_PROBES // wl.timed_runs)):
                    ok, t = ops.run("set-up probe", lambda: probe_setup(wl.name, seed))
                    if ok:
                        rec.setup_s.append(t)
            rep_s.append(time.perf_counter() - start)
            if (
                len(rep_s) >= wl.timed_runs
                and time.perf_counter() + statistics.median(rep_s) > deadline
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if wl.docc_reference is not None:
        ops.check("all", *check_double_occupancy(rec.docc_bins, wl.docc_reference))
    return ops, rec, tracer


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        env.prepare()
    except env.CheckoutError as exc:
        print(f"dqmcbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"dqmcbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(time_setup(wl, args.seed)))
        return 0

    ops, rec, tracer = run_workload(
        wl, args.seed, args.seconds, bool(args.trace), time_setups=not args.trace
    )
    correct = ops.failed == 0
    if len(rec.sweep_s) < 2 or (
        len(rec.traced_sweep_s) < 2 if args.trace else len(rec.setup_s) < 2
    ):
        metrics = {}  # nothing measurable; the failures are reported below
    elif args.trace:
        metrics = per_layer(wl, rec, tracer)
    else:
        metrics = end_to_end(rec, ops)

    prov = provenance()
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "repetitions": len(rec.run_s),
        "samples": {
            "setup_s": rec.setup_s,
            "sweep_s": rec.sweep_s,
            "traced_sweep_s": rec.traced_sweep_s,
            "run_s": rec.run_s,
        },
        "checks": ops.checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
    WORK_DIR.mkdir(exist_ok=True)
    out_path = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# {wl.name}: {len(rec.run_s)} fixed runs, {len(rec.sweep_s)} timed sweeps"
          f"{f', {len(rec.traced_sweep_s)} traced' if args.trace else ''}; record in {out_path}")
    if args.trace:
        print("# backends.*.gflop and .mbytes are computed from argument shapes "
              "and dtypes, not measured")
    for check in ops.checks:
        if not check["ok"]:
            print(f"# FAILED rep {check['rep']} {check['check']}: {check['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
