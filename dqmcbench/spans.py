"""Spans and counters recorded around calls into the program's layers.

Nothing under ``src/`` knows it is traced: :meth:`Tracer.install`
replaces public functions and methods of each layer with timing
wrappers for the lifetime of a traced run and :meth:`Tracer.uninstall`
puts the originals back. Spans are recorded only inside a *root* span
the benchmark opens itself (a traced sweep, a set-up, a checkpoint), so
untraced sweeps cost one flag test per wrapped call.

The per-site ``DelayedUpdater.accept`` is deliberately not wrapped: it
runs tens of thousands of times per sweep, and accept counts come from
``SweepStats`` instead.

Backend primitives are counted once per *logical* operation: only the
outermost call into a backend's public methods is recorded (a depth
counter skips the calls a primitive makes into its own backend), and
its flops and bytes are computed from argument shapes and dtypes, not
measured. Bytes are the arrays crossing the call boundary (arguments
plus result).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

import numpy as np

__all__ = ["PRIMITIVES", "Tracer"]

#: the backend's public primitives, in report order
PRIMITIVES = (
    "gemm",
    "cluster_product",
    "cluster_product_batched",
    "wrap",
    "wrap_batched",
    "unwrap",
    "unwrap_batched",
    "apply_structured",
    "apply_structured_batched",
    "prepivot_permutation",
    "scale_rows",
    "scale_columns",
    "scale_two_sided",
)


def _nbytes(*arrays) -> float:
    return float(sum(np.asarray(a).nbytes for a in arrays if a is not None))


def _kinetic_flops(backend, n: int) -> float:
    """One application of exp(-dtau K) to an n x n operand: a dense GEMM,
    or the bound checkerboard operator's own count."""
    structured = backend.structured
    return float(structured.apply_flops(n) if structured is not None else 2 * n**3)


def _cost(backend, prim: str, args, kwargs, out):
    """Nominal flops and boundary bytes of one primitive call, from the
    shapes and dtypes of its arguments and result."""
    a = args[0]
    if prim == "gemm":
        b = args[1]
        m, k = a.shape
        n = b.shape[1] if b.ndim == 2 else 1
        return 2.0 * m * n * k, _nbytes(a, b, out)
    if prim in ("scale_rows", "scale_columns"):
        return float(a.size), _nbytes(a, args[1], out)
    if prim == "scale_two_sided":
        col = args[2] if len(args) > 2 else kwargs.get("col_v")
        return 2.0 * a.size, _nbytes(a, args[1], col, out)
    if prim == "prepivot_permutation":
        return 2.0 * a.size, _nbytes(a, out)
    if prim == "cluster_product":
        k, n = len(a), np.asarray(a[0]).shape[0]
        return (k - 1) * _kinetic_flops(backend, n) + k * n * n, _nbytes(*a, out)
    if prim == "cluster_product_batched":
        s, k, n = np.shape(a)
        flop = s * ((k - 1) * _kinetic_flops(backend, n) + k * n * n)
        return flop, _nbytes(a, out)
    if prim in ("wrap", "unwrap"):
        n = a.shape[0]
        return 2 * _kinetic_flops(backend, n) + 2.0 * n * n, _nbytes(a, args[1], out)
    if prim in ("wrap_batched", "unwrap_batched"):
        s, n = a.shape[0], a.shape[1]
        flop = s * (2 * _kinetic_flops(backend, n) + 2.0 * n * n)
        return flop, _nbytes(a, args[1], out)
    if prim in ("apply_structured", "apply_structured_batched"):
        side = args[1] if len(args) > 1 else kwargs.get("side", "left")
        width = a.shape[-1] if side == "left" else a.shape[-2]
        batch = int(np.prod(a.shape[:-2], dtype=np.int64))
        structured = backend.structured
        per = structured.apply_flops(width) if structured is not None else 0
        return float(batch * per), _nbytes(a, out)
    raise KeyError(prim)


class Tracer:
    """In-memory spans plus per-primitive counters."""

    def __init__(self) -> None:
        #: [name, parent_index, start, end, items]; parent -1 for roots,
        #: items a per-call size (chain factors) where one is recorded
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: primitive -> [calls, seconds, flops, bytes] of traced calls
        self.primitives: Dict[str, List[float]] = {
            p: [0, 0.0, 0.0, 0.0] for p in PRIMITIVES
        }
        #: root-span name -> indices of its spans in :attr:`spans`
        self.roots: Dict[str, List[int]] = defaultdict(list)
        self._backend_depth = 0
        self._restore: List[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, items: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, items])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        return end - span[2]

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """A top-level span; wrapped calls record spans only inside one."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        idx = self._open(name)
        self.roots[name].append(idx)
        try:
            yield idx
        finally:
            self._close(idx)

    def _traced(self, name: str, fn: Callable, when=None, items=None) -> Callable:
        """``fn`` recording a span ``name`` when called inside a root span
        (and ``when(args)`` holds); ``items(args)`` sizes the call."""

        def traced(*args, **kwargs):
            if not self._stack or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            idx = self._open(name, items(args) if items is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _primitive(self, prim: str, fn: Callable, backend) -> Callable:
        agg = self.primitives[prim]

        def traced(*args, **kwargs):
            if not self._stack or self._backend_depth:
                return fn(*args, **kwargs)
            self._backend_depth += 1
            idx = self._open("backends." + prim)
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = self._close(idx)
                self._backend_depth -= 1
            flop, nbytes = _cost(backend, prim, args, kwargs, out)
            agg[0] += 1
            agg[1] += seconds
            agg[2] += flop
            agg[3] += nbytes
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited or class-level: drop the shadowing attribute
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def _patch_item(self, mapping: dict, key, replacement) -> None:
        original = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = replacement

    def install(self) -> None:
        """Wrap each layer's public entry points (call :meth:`uninstall`
        to restore them)."""
        import repro.core as core
        import repro.core.greens as greens
        import repro.core.stratification as strat
        import repro.dqmc.simulation as simulation
        from repro.core import DelayedUpdater, GreensFunctionEngine
        from repro.hamiltonian import BMatrixFactory
        from repro.measure import MeasurementCollector

        if self._restore:
            raise RuntimeError("tracer already installed")
        t = self._traced
        self._patch(simulation, "sweep", t("dqmc.sweep", simulation.sweep))
        self._patch(
            GreensFunctionEngine,
            "boundary_greens",
            t("core.boundary_greens", GreensFunctionEngine.boundary_greens),
        )

        self._patch(
            greens,
            "stratified_inverse",
            t(
                "core.stratified_inverse",
                greens.stratified_inverse,
                items=lambda args: len(args[0]),
            ),
        )
        for attr in ("wrap_pair", "unwrap_pair"):
            self._patch(
                GreensFunctionEngine,
                attr,
                t("core.wrap", getattr(GreensFunctionEngine, attr)),
            )
        # Only flushes with pending updates do work (and are counted by
        # the updater itself); empty ones return at once.
        self._patch(
            DelayedUpdater,
            "flush",
            t(
                "core.delayed_update.flush",
                DelayedUpdater.flush,
                when=lambda args: args[0].pending > 0,
            ),
        )
        self._patch(
            core,
            "displaced_series_fast",
            t("core.displaced", core.displaced_series_fast),
        )
        self._patch(
            MeasurementCollector,
            "measure",
            t("measure.collector", MeasurementCollector.measure),
        )
        self._patch(
            BMatrixFactory,
            "__init__",
            t("hamiltonian.factory", BMatrixFactory.__init__),
        )
        # The stratification chain reaches the QR kernels both by module
        # name and through its method table; wrap both references.
        for attr in ("qr_prepivoted", "qr_pivoted", "qr_nopivot"):
            self._patch(strat, attr, t("linalg.qr", getattr(strat, attr)))
        for method, fn in list(strat._FACTORIZERS.items()):
            self._patch_item(strat._FACTORIZERS, method, t("linalg.qr", fn))

    def watch_backend(self, backend) -> None:
        """Wrap the primitives of one backend instance.

        The wrappers are instance attributes of a backend the benchmark
        builds for one fixed run and then drops, so nothing is restored.
        """
        for prim in PRIMITIVES:
            setattr(backend, prim, self._primitive(prim, getattr(backend, prim), backend))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reduction ---------------------------------------------------------

    def summarize(self, root: str) -> Dict[str, Dict[str, float]]:
        """Per-name ``{"calls", "s", "self_s", "items"}`` over the spans
        under every root span called ``root`` (the roots included)."""
        spans = self.spans
        root_of = [0] * len(spans)
        for i, (_, parent, _, _, _) in enumerate(spans):
            root_of[i] = i if parent < 0 else root_of[parent]
        keep = set(self.roots.get(root, ()))
        child_s = defaultdict(float)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0}
        )
        for i, (name, _, start, end, items) in enumerate(spans):
            if root_of[i] not in keep:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            agg["items"] += items
        return dict(out)

    def dump(self) -> dict:
        """Spans as plain data: ``{"names": [...], "spans": [[name_index,
        parent, start, end, items], ...]}`` with times in seconds."""
        names: Dict[str, int] = {}
        rows = []
        for name, parent, start, end, items in self.spans:
            rows.append([names.setdefault(name, len(names)), parent, start, end, items])
        return {"names": list(names), "spans": rows}
