"""repro.incremental: mutations become patches instead of cache invalidations.

The subsystem has three layers, stacked on the freeze boundary:

* :mod:`repro.incremental.delta` — :class:`GraphDelta` op logs and the
  bounded :class:`DeltaJournal` the graph substrate records them into;
* :mod:`repro.incremental.patch` — ``kernel.patch(delta, graph)``: splice a
  compiled :class:`~repro.kernel.compile.GraphKernel` to the mutated graph
  instead of recompiling from scratch;
* :mod:`repro.incremental.reduce` — component-scoped refresh of memoized
  reduction pipelines: only delta-touched components are re-peeled, the
  survivors of untouched components are reused verbatim.

Only the delta layer is imported eagerly: the graph substrate imports it at
module scope, and the patch/reduce layers import the graph substrate — the
lazy attribute hook below keeps the package import-cycle free.
"""

from __future__ import annotations

from repro.incremental.delta import DeltaJournal, GraphDelta, apply_ops, decode_op

__all__ = [
    "DeltaJournal",
    "GraphDelta",
    "apply_ops",
    "decode_op",
    "patch_kernel",
    "refresh_reduction",
]

_LAZY = {
    "patch_kernel": ("repro.incremental.patch", "patch_kernel"),
    "refresh_reduction": ("repro.incremental.reduce", "refresh_reduction"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
