"""``BatchedServeEngine``: the former name of the one serve engine.

Every :class:`~repro.serve.engine.ServeEngine` round resolves through the
cohorts, so this subclass adds no behaviour.  It stays only because the
repository benchmark's workloads (``perfbench/workloads.py``) still build the
engine under this name with ``overlap=False`` and trace this class's own
``run``; nothing else uses it, and :mod:`repro.serve` does not export it.
"""

from __future__ import annotations

from .engine import ServeEngine

__all__ = ["BatchedServeEngine"]


class BatchedServeEngine(ServeEngine):
    """:class:`ServeEngine` under its former name; ``overlap=True`` is refused."""

    def __init__(self, share_caches: bool = True, *, overlap: bool = False, **kwargs):
        if overlap:
            raise ValueError(
                "overlap=True is no longer supported: the feed pump was removed, "
                "and rounds pull their ticks inline"
            )
        super().__init__(share_caches, **kwargs)

    def run(self, *args, **kwargs) -> dict:
        # defined in this class, not inherited: perfbench's tracer wraps
        # vars(BatchedServeEngine)["run"]
        return super().run(*args, **kwargs)
