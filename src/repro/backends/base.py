"""The execution-backend protocol for the Green's-function pipeline.

The paper's central engineering claim (Secs. IV-VI) is that one DQMC
pipeline — clustering, stratification, wrapping, delayed updates — runs
on serial CPUs, multicore CPUs, and GPUs with only the *kernel
implementations* swapped: Algorithms 4-7 are the GPU spellings of the
same row/column scalings, cluster products, and wraps that BLAS spells
on the host. :class:`BaseBackend` captures that seam: the composite
operations are written here, once, over a small set of primitives that
each backend supplies.

Primitives (what a backend implements)
--------------------------------------
*Host primitives* back the public fine-grain ops the stratification
chain and the delayed updates call on host arrays (stratification stays
on the host for every backend, as in the paper's hybrid design):
``_gemm``, ``_scale_rows``, ``_scale_columns``, ``_scale_two_sided``,
``_column_norms`` and ``_prepivot_permutation``.

*Device primitives* are what the composites run on: ``to_device`` /
``to_host``, ``_device_gemm``, ``_device_scale_rows``,
``_device_scale_two_sided`` and ``_device_structured`` (the bound
checkerboard operator). Except for the last, they default to the host
primitives with identity transfers; a device backend overrides them so
each composite pays one matrix upload, its diagonal uploads and one
download. A device backend owns every operand ``to_device`` hands
it and may overwrite non-resident ones; host primitives write only into
an explicit ``out``.

Composites (written once, below)
--------------------------------
``wrap``, ``unwrap``, ``cluster_product``, ``apply_structured`` and
their ``*_batched`` forms, which take both spin sectors stacked along a
leading axis. Backends with :attr:`BaseBackend.stacked` run a batched
composite as one call on the whole stack (stacked GEMMs); the others
run it one sector at a time. Each public call counts once in
:attr:`BaseBackend.op_counts`; the primitives a composite calls are not
counted.

Canonical kernel orders
-----------------------
Every backend executes the same *floating-point evaluation order* for
each composite, chosen to match the paper's GPU algorithms. Elementwise
scalings and per-slice GEMMs are then bit-identical across numpy /
threaded / simulated-GPU execution, which is what lets the equivalence
suite assert bit-identical Markov chains rather than tolerance bands:

* ``wrap``:    ``t = expK @ g``; ``t = t @ invexpK``; ``t *= v[:, None]``;
  ``t *= (1/v)[None, :]``  (Algorithm 6/7 — scale *after* both GEMMs).
* ``unwrap``:  exact inverse composition — ``t = g * (1/v)[:, None]``;
  ``t *= v[None, :]``; ``t = invexpK @ t``; ``t = t @ expK``.
* ``cluster_product``: ``out = expK * v_0[:, None]``; then per slice
  ``out = expK @ out``; ``out *= v_j[:, None]``  (Algorithm 4/5).

Under the checkerboard kinetic mode every ``expK @`` / ``@ invexpK``
above is the bound structured operator instead (:meth:`_apply_kinetic`,
the only place the two modes fork). Reciprocals are always formed once
(``1/v``) and *multiplied* in — never re-divided — so an unwrap undoes a
wrap with the exact same rounding on every backend.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..precision import PrecisionPolicy, resolve_policy

__all__ = ["BackendError", "BackendUnavailableError", "BaseBackend"]


class BackendError(ValueError):
    """Unknown backend name, invalid option, or invalid combination."""


class BackendUnavailableError(BackendError):
    """The backend's runtime dependency (e.g. cupy) is not importable."""


class BaseBackend:
    """The composites over backend primitives, plus dispatch counting,
    option validation and the bound kinetic state."""

    #: registry name ("numpy", "threaded", "gpu-sim", "cupy")
    name: str = "abstract"
    #: stratification methods this backend may drive (all of them for
    #: every shipped backend — the QR chain itself runs on the host, as
    #: in the paper's hybrid division of labour).
    supported_methods: tuple = ("qrp", "prepivot", "nopivot", "svd", "jacobi")
    #: run batched composites on the whole sector stack in one call;
    #: False runs them one spin sector at a time.
    stacked: bool = True

    def __init__(self, **options):
        # Precision is a protocol-level option: every backend carries a
        # PrecisionPolicy, and bind() realizes the exponentials in its
        # compute dtype. Popped here so subclasses never have to.
        precision = options.pop("precision", None)
        if options:
            bad = ", ".join(sorted(options))
            raise BackendError(
                f"backend {self.name!r} got unknown option(s): {bad} — "
                "options that would be silently ignored are rejected"
            )
        self.policy: PrecisionPolicy = resolve_policy(precision)
        self.op_counts: Dict[str, int] = {}
        self.expk: Optional[np.ndarray] = None
        self.inv_expk: Optional[np.ndarray] = None
        #: the exponentials as the device primitives see them (the
        #: host arrays on host backends; resident device copies else)
        self.d_expk = None
        self.d_inv_expk = None
        self.bound_factory = None
        #: the factory's structured kinetic operator (a
        #: CheckerboardPropagator) or None under the exact mode; set at
        #: bind() time and consulted by :meth:`_apply_kinetic`.
        self.structured = None
        self.n: int = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, factory) -> "BaseBackend":
        """Attach the model's kinetic exponentials (resident state).

        The exponentials are realized in the policy's compute dtype (a
        no-op passthrough under ``full64`` — the float64 masters are
        shared, not copied) and moved with :meth:`to_device` once per
        realized pair: on the simulated GPU this is the one-time H2D
        upload of ``exp(-+dtau K)`` (paper Sec. VI-A). Idempotent for
        the same factory; returns self.
        """
        exponentials = getattr(factory, "exponentials", None)
        if exponentials is not None:
            # Factory-side cache: repeated binds (and promotions back to
            # a previously used policy) reuse one realized pair.
            expk, inv_expk = exponentials(self.policy.compute_dtype)
        else:
            expk = self.policy.compute(factory.expk)
            inv_expk = self.policy.compute(factory.inv_expk)
        if expk is not self.expk or inv_expk is not self.inv_expk:
            self.expk, self.inv_expk = expk, inv_expk
            self.d_expk = self.to_device(expk)
            self.d_inv_expk = self.to_device(inv_expk)
        self.structured = getattr(factory, "structured", None)
        self.bound_factory = factory
        self.n = self.expk.shape[0]
        return self

    def set_policy(self, policy) -> "BaseBackend":
        """Switch the precision policy in place (watchdog promotion path).

        Re-binds the exponentials in the new compute dtype when already
        bound; the caller owns invalidating any state it derived under
        the old policy (cluster caches, the live Green's function).
        """
        policy = resolve_policy(policy)
        if policy is not self.policy:
            self.policy = policy
            if self.bound_factory is not None:
                self.bind(self.bound_factory)
        return self

    def _require_bound(self) -> None:
        if self.expk is None:
            raise BackendError(
                f"backend {self.name!r} is not bound to a model: call "
                "bind(factory) before propagator ops"
            )

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def stats(self) -> Dict[str, float]:
        """Per-op dispatch totals, telemetry-gauge shaped."""
        out = {
            f"backend.dispatch.{op}": float(c)
            for op, c in sorted(self.op_counts.items())
        }
        out[f"backend.active.{self.name}"] = 1.0
        return out

    # -- host primitives (each backend implements these) -------------------

    def _gemm(self, a, b, category):
        """``a @ b`` (operands may carry leading stack axes)."""
        raise NotImplementedError

    def _scale_rows(self, a, v, out, category):
        """``diag(v) @ a``, into ``out`` when given."""
        raise NotImplementedError

    def _scale_columns(self, a, v, out, category):
        """``a @ diag(v)``, into ``out`` when given."""
        raise NotImplementedError

    def _scale_two_sided(self, a, v, col_v, out, category):
        """``diag(v) @ a @ diag(col_v)``, ``col_v = 1/v`` when None."""
        raise NotImplementedError

    def _column_norms(self, a):
        raise NotImplementedError

    def _prepivot_permutation(self, a):
        """Descending column-norm order (paper Algorithm 3 step 3b)."""
        raise NotImplementedError

    # -- device primitives (host defaults; device backends override) --------

    def to_device(self, a):
        """Move a host array to where the composites run (identity here)."""
        return a

    def to_host(self, a):
        """Bring a composite's result back as a host ndarray."""
        return a

    def _device_gemm(self, a, b, category):
        return self._gemm(a, b, category)

    def _device_scale_rows(self, a, v, out, category):
        return self._scale_rows(a, v, out, category)

    def _device_scale_two_sided(self, a, v, col_v, out, category):
        return self._scale_two_sided(a, v, col_v, out, category)

    def _device_structured(self, a, side, inverse, category):
        """The bound checkerboard operator applied from ``side``."""
        raise NotImplementedError

    def _apply_kinetic(self, a, side, inverse, category):
        """``exp(-+dtau K)`` applied to ``a`` from ``side`` — a GEMM
        against the resident exponential, or the bound checkerboard
        operator under the structured kinetic mode."""
        if self.structured is not None:
            return self._device_structured(a, side, inverse, category)
        k = self.d_inv_expk if inverse else self.d_expk
        if side == "left":
            return self._device_gemm(k, a, category)
        return self._device_gemm(a, k, category)

    def _over_sectors(self, body, *stacks):
        """Run a composite body over stacked spin sectors."""
        if self.stacked:
            return body(*stacks)
        return np.stack([body(*sector) for sector in zip(*stacks)])

    # -- public fine-grain ops (host arrays in, host arrays out) ------------

    def gemm(self, a, b, category: str = "gemm"):
        """Dense ``a @ b`` with the flops charged to ``category``."""
        self._count("gemm")
        return self._gemm(a, b, category)

    def scale_rows(self, a, v, out=None, category: str = "scaling"):
        """``diag(v) @ a``; writes into ``out`` in place when given."""
        self._count("scale_rows")
        return self._scale_rows(a, v, out, category)

    def scale_columns(self, a, v, out=None, category: str = "scaling"):
        """``a @ diag(v)``; writes into ``out`` in place when given."""
        self._count("scale_columns")
        return self._scale_columns(a, v, out, category)

    def scale_two_sided(self, a, v, col_v=None, out=None, category: str = "scaling"):
        """``diag(v) @ a @ diag(col_v)`` with ``col_v = 1/v`` by default.

        Writes into ``out`` in place when given. The column factor is an
        explicit argument so the unwrap can pass the *original* ``v``
        rather than re-reciprocating ``1/(1/v)`` (not bitwise ``v``).
        """
        self._count("scale_two_sided")
        return self._scale_two_sided(a, v, col_v, out, category)

    def column_norms(self, a):
        self._count("column_norms")
        return self._column_norms(a)

    def prepivot_permutation(self, a):
        """Descending column-norm order (paper Algorithm 3 step 3b)."""
        self._count("prepivot_permutation")
        return self._prepivot_permutation(a)

    # -- composites ----------------------------------------------------------

    def cluster_product(self, v_diagonals: Sequence[np.ndarray]):
        """Dense ``B_k ... B_1`` with ``B_j = diag(v_j) @ expK``.

        ``v_diagonals`` ordered rightmost (applied first) to leftmost.
        """
        self._count("cluster_product")
        if len(v_diagonals) == 0:
            raise ValueError("empty cluster")
        return self._cluster_product(v_diagonals)

    def cluster_product_batched(self, v_stack):
        """Dense cluster products for a stack of spin sectors.

        ``v_stack`` has shape ``(s, k, n)``: ``s`` sectors, ``k`` slices
        per cluster, ``n`` sites. Returns shape ``(s, n, n)``.
        """
        self._count("cluster_product_batched")
        return self._over_sectors(self._cluster_product, v_stack)

    def wrap(self, g, v):
        """``diag(v) (expK @ g @ invexpK) diag(v)^{-1}``."""
        self._count("wrap")
        return self._wrap(g, v)

    def wrap_batched(self, gs, vs):
        """Wrap a stack: ``gs[i] -> wrap(gs[i], vs[i])`` for each sector."""
        self._count("wrap_batched")
        return self._over_sectors(self._wrap, gs, vs)

    def unwrap(self, g, v):
        """Exact inverse composition of :meth:`wrap`."""
        self._count("unwrap")
        return self._unwrap(g, v)

    def unwrap_batched(self, gs, vs):
        self._count("unwrap_batched")
        return self._over_sectors(self._unwrap, gs, vs)

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        """Apply the bound structured kinetic operator to ``a``.

        ``side="left"`` is ``B_cb @ a``; ``side="right"`` is ``a @ B_cb``;
        ``inverse=True`` applies the exact reversed-rotation inverse. The
        operand is realized in the policy compute dtype and the flops are
        charged to ``category`` — O(N (lx + ly)) per column instead of the
        dense GEMM's O(N^2), which is the whole point of the fast path.
        Raises :class:`BackendError` when the bound factory has no
        structured operator (exact kinetic mode).
        """
        self._count("apply_structured")
        return self._apply_structured(a, side, inverse, category)

    def apply_structured_batched(
        self, stack, side="left", inverse=False, category="structured"
    ):
        """Stacked :meth:`apply_structured` over a leading sector axis."""
        self._count("apply_structured_batched")
        return self._over_sectors(
            lambda a: self._apply_structured(a, side, inverse, category), stack
        )

    # Composite bodies: each takes one sector, or a stack of them with a
    # leading sector axis, and runs the canonical order on the device
    # primitives.

    def _cluster_product(self, v_diagonals):
        self._require_bound()
        vs = self.policy.compute(v_diagonals)
        out = self._device_scale_rows(self.d_expk, vs[..., 0, :], None, "clustering")
        for j in range(1, vs.shape[-2]):
            t = self._apply_kinetic(out, "left", False, "clustering")
            out = self._device_scale_rows(t, vs[..., j, :], t, "clustering")
        return self.to_host(out)

    def _wrap(self, g, v):
        self._require_bound()
        compute = self.policy.compute
        t = self.to_device(compute(g))
        t = self._apply_kinetic(t, "left", False, "wrapping")
        t = self._apply_kinetic(t, "right", True, "wrapping")
        t = self._device_scale_two_sided(t, compute(v), None, t, "wrapping")
        return self.to_host(t)

    def _unwrap(self, g, v):
        self._require_bound()
        compute = self.policy.compute
        v = compute(v)
        t = self.to_device(compute(g))
        # rows by the host-formed 1/v, columns by the original v
        t = self._device_scale_two_sided(t, 1.0 / v, v, None, "wrapping")
        t = self._apply_kinetic(t, "left", True, "wrapping")
        t = self._apply_kinetic(t, "right", False, "wrapping")
        return self.to_host(t)

    def _apply_structured(self, a, side, inverse, category):
        self._require_bound()
        if self.structured is None:
            raise BackendError(
                f"backend {self.name!r}: no structured kinetic operator is "
                "bound — the factory was built with kinetic='exact'"
            )
        if side not in ("left", "right"):
            raise BackendError(f"apply_structured side must be left/right, got {side!r}")
        t = self.to_device(self.policy.compute(a))
        return self.to_host(self._device_structured(t, side, inverse, category))
