"""Outside-in layer tracer: wraps public functions of the program in place.

The benchmark's traced run installs a :class:`LayerTracer` before a pass and
uninstalls it afterwards, so the untraced passes run the program exactly as
shipped.  Every wrapped call records one span (name, start, end, parent span,
tenant, tick); spans live in flat ``array('q')`` columns while the pass runs
and are written out once, when the run ends (:meth:`TracedPass.save`).

A layer's *self time* is the summed duration of its spans minus the time
their direct child spans cover.  The root span opened by :meth:`root` covers
the whole traced pass, and its self time is the part of the pass no wrapped
call accounts for (``trace.unattributed_s``).  Layer self times plus the
unattributed remainder therefore add up to the traced wall time exactly, as
long as every span closes inside its parent (:meth:`TracedPass.nesting_error`).

Patching "in place" means: the attribute is replaced on its owner (a class or
a module), and every loaded module that imported the same function object by
name gets the wrapper too, so ``from .transitions import transition`` call
sites are traced as well.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Span names whose nested calls fold into the outermost one: Algorithm C
#: drives an inner Algorithm B per sub-slot, and that work is C's step time.
_FOLD_PREFIX = "online.step."
#: One int64 column per span field, in the order the wrapper fills them.
SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent", "tenant", "tick")


class LayerTracer:
    """Span recorder plus the in-place patching of the traced functions.

    ``targets`` is a sequence of ``(owner, attribute, span name, layer)``:
    the function ``owner.attribute`` is wrapped, each call records a span
    called ``span name``, and its self time is charged to ``layer``.
    ``session_methods`` names the spans whose first argument is a
    ``ControllerSession``; they stamp its tenant name and tick cursor, and
    nested spans inherit both from their parent.
    """

    def __init__(self, targets: Sequence[Tuple[object, str, str, str]], session_methods=()):
        self.targets = list(targets)
        self.session_methods = set(session_methods)
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.tenants: List[str] = []
        self._tenant_ids: Dict[str, int] = {}
        self._patches: List[tuple] = []
        self.reset()

    # ------------------------------------------------------------ recording
    def reset(self) -> None:
        """Forget all spans and per-layer sums (call before each traced pass)."""
        self.columns = {key: array("q") for key in SPAN_COLUMNS}
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        # frame: [child ns, span index, tenant id, tick, name id]; the bottom
        # frame is the root span
        self._stack: List[list] = [[0, -1, -1, -1, -1]]
        self.root_start_ns = self.root_end_ns = 0
        self.root_self_ns = 0

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def _tenant_id(self, tenant: str) -> int:
        tid = self._tenant_ids.get(tenant)
        if tid is None:
            tid = len(self.tenants)
            self._tenant_ids[tenant] = tid
            self.tenants.append(tenant)
        return tid

    def _wrap(self, fn, name: str, layer: str, fold_ids: set):
        """The span-recording wrapper of ``fn``, bound to this pass's columns."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns, calls = self.self_ns, self.calls
        col_name, col_start, col_end, col_parent, col_tenant, col_tick = (
            self.columns[key] for key in SPAN_COLUMNS
        )
        tenant_id = self._tenant_id
        session_method = name in self.session_methods
        fold = name.startswith(_FOLD_PREFIX)
        if fold:
            fold_ids.add(nid)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if fold and parent[4] in fold_ids:
                return fn(*args, **kwargs)
            if session_method:
                session = args[0]
                tenant = tenant_id(session.name)
                tick = session.ticks
            else:
                tenant = parent[2]
                tick = parent[3]
            index = len(col_name)
            col_name.append(nid)
            col_start.append(0)
            col_end.append(0)
            col_parent.append(parent[1])
            col_tenant.append(tenant)
            col_tick.append(tick)
            frame = [0, index, tenant, tick, nid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self_ns[nid] += duration - frame[0]
                calls[nid] += 1
                col_start[index] = start
                col_end[index] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Replace every target with its wrapper (bound to the current pass)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        fold_ids: set = set()
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for owner, attr, name, layer in self.targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, layer, fold_ids)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # functions imported by name into other modules are traced too
            for module in modules:
                if module is owner:
                    continue
                try:
                    namespace = vars(module)
                except TypeError:
                    continue
                if namespace.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to the original function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def root(self):
        """Install, time one traced pass as the root span, then uninstall."""
        self.reset()
        self.install()
        self.root_start_ns = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.root_end_ns = time.perf_counter_ns()
            self.uninstall()
            self.root_self_ns = self.root_end_ns - self.root_start_ns - self._stack[0][0]

    # ------------------------------------------------------------ reporting
    def snapshot(self) -> "TracedPass":
        """The finished pass: wall, per-layer self times, call counts, spans."""
        layers: Dict[str, int] = {}
        for nid, layer in enumerate(self.layers):
            layers[layer] = layers.get(layer, 0) + self.self_ns[nid]
        return TracedPass(
            root_ns=(self.root_start_ns, self.root_end_ns),
            unattributed_s=self.root_self_ns * 1e-9,
            layer_s={layer: ns * 1e-9 for layer, ns in layers.items()},
            calls={name: self.calls[nid] for nid, name in enumerate(self.names)},
            columns=self.columns,
            names=list(self.names),
            tenants=list(self.tenants),
        )


@dataclass
class TracedPass:
    """Per-layer self times and the spans of one traced pass."""

    #: (start, end) of the root span, in ``perf_counter_ns`` time
    root_ns: Tuple[int, int]
    unattributed_s: float
    layer_s: Dict[str, float]
    calls: Dict[str, int]
    columns: Dict[str, array]
    names: List[str]
    tenants: List[str]

    @property
    def wall_s(self) -> float:
        return (self.root_ns[1] - self.root_ns[0]) * 1e-9

    def nesting_error(self) -> Optional[str]:
        """``None`` when every span closed inside its parent's interval.

        Self times subtract each span's children from it, so they add up to
        the traced wall only when children nest inside their parents; a
        span left open (a wrapper that never reached its ``finally``) or one
        that escapes its parent breaks that.
        """
        start, end, parent = (
            np.frombuffer(self.columns[key], dtype=np.int64) for key in ("start_ns", "end_ns", "parent")
        )
        unclosed = int(np.sum((start <= 0) | (end < start)))
        if unclosed:
            return f"{unclosed} of {start.size} spans never closed"
        outer_start = np.where(parent >= 0, start[parent], self.root_ns[0])
        outer_end = np.where(parent >= 0, end[parent], self.root_ns[1])
        escaped = int(np.sum((start < outer_start) | (end > outer_end)))
        if escaped:
            return f"{escaped} of {start.size} spans lie outside their parent span"
        return None

    @property
    def span_count(self) -> int:
        return len(self.columns["name"])

    def save(self, path) -> Path:
        """Write the spans (int64 columns plus the name tables) as ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {key: np.frombuffer(col, dtype=np.int64) for key, col in self.columns.items()}
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            tenants=np.asarray(self.tenants if self.tenants else [""]),
            **arrays,
        )
        return path
