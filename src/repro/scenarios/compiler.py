"""The plan compiler: ``{scenarios, algorithms, offline}`` → :class:`SweepPlan`.

A *selection* is a plain JSON-safe mapping (typically loaded from a
``plan.json`` file or assembled by the CLI) describing a whole sweep
declaratively::

    {
      "scenarios": [
        "homogeneous",
        {"scenario": "diurnal-cpu-gpu", "params": {"T": 24}, "seed": 3}
      ],
      "params": {"T": 24},          // merged into every scenario
      "seeds": [0, 1, 2],           // optional: one spec per (scenario, seed)
      "algorithms": ["A", {"kind": "C", "params": {"epsilon": 0.5}}],
      "offline": [{"solver": "optimal"}],
      "jobs": 4,
      "checkpoint_every": null,
      "compute_optimal": true
    }

``compile_plan`` validates every scenario against the registry (unknown names
and parameters fail *here*, before any work is scheduled) and returns a
:class:`~repro.exp.engine.SweepPlan` whose ``scenarios`` tuple holds only
:class:`~repro.scenarios.spec.ScenarioSpec` objects — the engine materialises
the instances lazily, inside worker shards for process-sharded plans, so no
:class:`~repro.core.instance.ProblemInstance` is ever pickled across a process
boundary and any run is reproducible anywhere from the plan file alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..exp.engine import AlgorithmSpec, OfflineSpec, SweepPlan
from .registry import validate
from .spec import ScenarioSpec

__all__ = ["compile_plan", "load_plan", "scenario_specs"]

_SELECTION_KEYS = {
    "scenarios",
    "params",
    "seeds",
    "algorithms",
    "offline",
    "jobs",
    "checkpoint_every",
    "compute_optimal",
}


def scenario_specs(
    entries: Sequence,
    params: Optional[Mapping] = None,
    seeds: Optional[Sequence[int]] = None,
) -> Tuple[ScenarioSpec, ...]:
    """Normalise scenario entries into validated specs.

    ``params`` is merged into every entry (entry-level params win); ``seeds``
    expands entries *without* an explicit seed to one spec per
    ``(scenario, seed)`` pair — the standard shape of a multi-seed sweep.  An
    entry that pins its own seed keeps it and is not expanded, so a plan can
    mix seed-swept families with fixed reference scenarios.
    """
    seeds = _check_seeds(seeds)
    specs = []
    for entry in entries:
        spec = ScenarioSpec.parse(entry)
        if params:
            merged = dict(params)
            merged.update(spec.params)
            spec = ScenarioSpec(spec.name, merged, spec.seed, spec.events)
        if seeds and spec.seed is None:
            for seed in seeds:
                specs.append(
                    validate(ScenarioSpec(spec.name, spec.params, int(seed), spec.events))
                )
        else:
            specs.append(validate(spec))
    return tuple(specs)


def _check_seeds(seeds: Optional[Sequence[int]]) -> Optional[list]:
    """Validate a 'seeds' selection: a real sequence of integers or ``None``.

    Strings and bare ints are rejected here (not downstream) so a plan-file
    typo like ``"seeds": "12"`` fails at compile time instead of silently
    sweeping seeds 1 and 2.
    """
    if seeds is None:
        return None
    if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
        raise ValueError(f"'seeds' must be a list of integers, got {seeds!r}")
    out = []
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"'seeds' entries must be integers, got {seed!r}")
        out.append(seed)
    return out


def _algorithm_spec(entry) -> AlgorithmSpec:
    if isinstance(entry, AlgorithmSpec):
        return entry
    if isinstance(entry, str):
        return AlgorithmSpec(kind=entry)
    if isinstance(entry, Mapping):
        entry = dict(entry)
        kind = entry.pop("kind", None)
        if kind is None:
            raise ValueError(f"algorithm dict needs a 'kind' key, got {sorted(entry)}")
        known = {"label", "params", "bound"}
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ValueError(f"unknown algorithm-spec keys {unknown} (expected: kind, {sorted(known)})")
        return AlgorithmSpec(
            kind=kind,
            label=entry.get("label"),
            params=dict(entry.get("params") or {}),
            bound=entry.get("bound", "theory"),
        )
    raise TypeError(f"cannot parse algorithm spec from {entry!r}")


def _offline_spec(entry) -> OfflineSpec:
    if isinstance(entry, OfflineSpec):
        return entry
    if isinstance(entry, str):
        return OfflineSpec(solver=entry)
    if isinstance(entry, Mapping):
        fields = {"solver", "label", "epsilon", "gamma", "return_schedule", "checkpoint_every"}
        unknown = sorted(set(entry) - fields)
        if unknown:
            raise ValueError(f"unknown offline-spec keys {unknown} (expected: {sorted(fields)})")
        return OfflineSpec(**dict(entry))
    raise TypeError(f"cannot parse offline spec from {entry!r}")


def compile_plan(selection: Mapping, **overrides) -> SweepPlan:
    """Compile a declarative selection into an executable :class:`SweepPlan`.

    Keyword ``overrides`` replace top-level selection keys (the CLI uses this
    for ``--jobs`` etc.).  Every scenario, algorithm and offline entry is
    validated eagerly; the returned plan carries only specs — instances are
    built lazily by :func:`repro.exp.run_plan`, inside worker shards when the
    plan is process-sharded.
    """
    selection = dict(selection)
    selection.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(selection) - _SELECTION_KEYS)
    if unknown:
        raise ValueError(
            f"unknown plan keys {unknown} (expected a subset of {sorted(_SELECTION_KEYS)})"
        )
    entries = selection.get("scenarios") or ()
    if not entries:
        raise ValueError("a plan needs at least one scenario")
    specs = scenario_specs(
        entries, params=selection.get("params"), seeds=selection.get("seeds")
    )
    algorithms = tuple(_algorithm_spec(a) for a in selection.get("algorithms") or ())
    offline = tuple(_offline_spec(o) for o in selection.get("offline") or ())
    compute_optimal = selection.get("compute_optimal")
    return SweepPlan(
        instances=(),
        scenarios=specs,
        algorithms=algorithms,
        offline=offline,
        # explicit nulls in a plan file mean "the default", same as omission
        compute_optimal=True if compute_optimal is None else bool(compute_optimal),
        jobs=int(selection.get("jobs") or 1),
        checkpoint_every=selection.get("checkpoint_every"),
    )


def load_plan(path: Union[str, Path], **overrides) -> SweepPlan:
    """Compile a ``plan.json`` file (see module docstring for the schema)."""
    path = Path(path)
    try:
        selection = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"plan file {path} is not valid JSON: {exc}") from exc
    if not isinstance(selection, Mapping):
        raise ValueError(f"plan file {path} must contain a JSON object, got {type(selection).__name__}")
    return compile_plan(selection, **overrides)
