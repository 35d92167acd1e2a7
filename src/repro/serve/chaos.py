"""Mid-stream fault injection.

The scenarios layer *bakes* event plans into instances
(:func:`repro.scenarios.events.apply_event_plan` clips demand so batch gates
stay feasible).  This module is the other half of the chaos story: the same
:class:`~repro.scenarios.events.EventPlan` objects applied *unclipped*, tick
by tick, to a live stream — capacity drops that take machines away under the
algorithm's feet, price shocks that rescale this tick's cost row, flash
crowds that push demand past capacity.  Nothing downstream is warned:
sessions run in ``degradation="shed"`` mode and absorb the infeasibility as
SLA accounting instead of raising.

* :class:`FaultInjector` — the seam: ``inject(tick) -> tick`` perturbs one
  :class:`~repro.serve.feed.Tick` according to the plan.  Scaled cost rows
  are memoised per ``(base row, factor)`` so repeated shock ticks carry the
  *same* row objects — the serve cache's virtual-slot ledger and the solver's
  signature-level caches keep deduplicating under chaos.
* :class:`ChaosFeed` — wraps any feed with an injector; sharing one plan
  across tenants of an engine yields correlated cross-tenant bursts (every
  tenant's flash crowd lands on the same ticks).  When its stream ends or is
  closed the injector mirrors its counts once more, so a finished tenant's
  ``chaos_*`` series outlive the injector.

The chaos determinism gate behind ``make chaos-smoke``,
:func:`~repro.serve.verify.verify_chaos_replay`, replays through these feeds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.cost_functions import ScaledCost
from ..scenarios.events import EventPlan
from .feed import Tick, TraceFeed
from .metrics import COUNTER, MetricsRegistry

__all__ = ["ChaosFeed", "FaultInjector"]

#: :meth:`FaultInjector.counters` key -> the kind of its registry series
#: ``chaos_<key>`` (labelled ``tenant=<name>`` when the injector has one).
CHAOS_SERIES = dict.fromkeys(
    ("injected_ticks", "demand_faults", "capacity_faults", "price_faults"), COUNTER
)


class FaultInjector:
    """Applies an :class:`EventPlan` to live ticks (the fault-injection seam).

    Per tick ``t`` the injector perturbs, in order:

    * **demand** — multiplied by the product of active flash-crowd factors
      (*not* clipped to capacity: overload is the point; shed-mode sessions
      account for it),
    * **counts** — active capacity drops remove machines from the tick's
      available counts (base fleet counts when the tick carries none),
    * **cost row** — active price shocks wrap every cost function of the
      tick's row in a :class:`~repro.core.cost_functions.ScaledCost`.

    Injection is pure bookkeeping on the plan — deterministic, stateless
    across ticks — so replaying the same (feed, plan) pair twice produces
    identical perturbed streams.
    """

    def __init__(self, plan, server_types=None, *, metrics=None, tenant=None):
        self.plan = EventPlan.parse(plan)
        if self.plan is None:
            self.plan = EventPlan()
        self.server_types = None if server_types is None else tuple(server_types)
        self.injected_ticks = 0
        self.demand_faults = 0
        self.capacity_faults = 0
        self.price_faults = 0
        # mirrored into a registry (the engine's when wired through
        # add_tenant, a private one otherwise), labelled per tenant so
        # correlated cross-tenant bursts stay attributable
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._labels = {} if tenant is None else {"tenant": str(tenant)}
        self.metrics.register_collector(self.collect_metrics)
        self._base_counts = (
            None
            if self.server_types is None
            else np.array([st.count for st in self.server_types], dtype=int)
        )
        self._base_row = (
            None
            if self.server_types is None
            else tuple(st.cost_function for st in self.server_types)
        )
        # one ScaledCost per (base function, factor): identical shock ticks
        # must carry identical row objects or every cache downstream of
        # fleet_signature / the virtual-slot ledger would miss
        self._scaled: dict = {}

    def _scaled_row(self, row: tuple, factor: float) -> tuple:
        key = (tuple(id(fn) for fn in row), round(float(factor), 12))
        scaled = self._scaled.get(key)
        if scaled is None:
            scaled = tuple(ScaledCost(fn, float(factor)) for fn in row)
            self._scaled[key] = scaled
        return scaled

    def counters(self) -> dict:
        """JSON-safe injection totals (what the collector mirrors)."""
        return {
            "injected_ticks": self.injected_ticks,
            "demand_faults": self.demand_faults,
            "capacity_faults": self.capacity_faults,
            "price_faults": self.price_faults,
        }

    def collect_metrics(self) -> None:
        """Mirror :meth:`counters` into the registry (the injector's collector)."""
        self.metrics.mirror(CHAOS_SERIES, self.counters(), prefix="chaos_", **self._labels)

    def inject(self, tick: Tick) -> Tick:
        """Return the perturbed version of one tick (the tick itself if quiet)."""
        t = int(tick.t)
        demand = float(tick.demand) * self.plan.demand_factor_at(t)

        counts = tick.counts
        if self.plan.events_at(t, "capacity_drop"):
            base = counts if counts is not None else self._base_counts
            if base is None:
                raise ValueError(
                    "a capacity_drop plan needs the fleet: give FaultInjector/ChaosFeed "
                    "server_types (or use a feed that carries them)"
                )
            counts = self.plan.counts_at(t, base)
            self.capacity_faults += 1

        row = tick.cost_row
        factor = self.plan.price_factor_at(t)
        if factor != 1.0:
            base_row = row if row is not None else self._base_row
            if base_row is None:
                raise ValueError(
                    "a price_shock plan needs the fleet's cost row: give "
                    "FaultInjector/ChaosFeed server_types (or use a feed that carries them)"
                )
            row = self._scaled_row(tuple(base_row), factor)
            self.price_faults += 1

        if demand != tick.demand:
            self.demand_faults += 1
        if demand == tick.demand and counts is tick.counts and row is tick.cost_row:
            return tick
        self.injected_ticks += 1
        return Tick(t=t, demand=demand, cost_row=row, counts=counts)


class ChaosFeed(TraceFeed):
    """Any feed, perturbed by a :class:`FaultInjector` on the way through.

    ``server_types`` defaults to the wrapped feed's fleet; demand-only feeds
    need it explicitly when the plan carries capacity drops or price shocks.
    Registering several tenants with feeds wrapped around *one shared plan*
    gives correlated cross-tenant bursts — the chaos analogue of the engine's
    shared-cache grouping.
    """

    def __init__(self, feed: TraceFeed, plan, server_types=None, *, metrics=None, tenant=None):
        self.feed = feed
        self.tick_seconds = feed.tick_seconds
        self.server_types = (
            tuple(server_types) if server_types is not None else feed.server_types
        )
        self.injector = FaultInjector(
            plan, server_types=self.server_types, metrics=metrics, tenant=tenant
        )

    @property
    def plan(self) -> EventPlan:
        return self.injector.plan

    def __len__(self) -> int:
        return len(self.feed)

    def ticks(self) -> Iterator[Tick]:
        try:
            for tick in self.feed.ticks():
                yield self.injector.inject(tick)
        finally:
            # the injector may be gone by the next scrape: leave its counts
            self.injector.collect_metrics()
