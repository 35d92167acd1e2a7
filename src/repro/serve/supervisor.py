"""Worker supervision: heartbeats, tick deadlines, restart policy, breakers.

This module is the parent-process half of the serve fabric
(:mod:`repro.serve.fabric`).  A :class:`Supervisor` owns a set of
:class:`WorkerHandle` objects — one per worker process — and runs the
monitor loop a production serving fleet needs:

* **liveness** via the worker's heartbeat file (written atomically every
  round) and the process object itself: a worker that exits without its
  result file, or whose heartbeat goes stale past ``heartbeat_timeout``
  (a hung feed, a livelocked tick), is declared crashed — stale workers are
  SIGKILLed first, so a zombie can never hold its tenants hostage;
* **restart policy** (:class:`RestartPolicy`): crashed workers restart with
  exponential backoff, up to ``max_restarts`` inside a sliding window —
  beyond that the worker is marked failed and the rest of the fabric keeps
  serving (the crash-loop guard);
* **recovery latency**: the wall time from crash detection to the restarted
  incarnation's first heartbeat (i.e. sessions restored from checkpoint and
  missed ticks replayed) is measured and reported per restart.

The communication fabric is deliberately the filesystem: heartbeat, control
and result files written with ``tmp + os.replace``.  Pipes and queues die
with a SIGKILLed process; atomically-replaced files are exactly as fresh and
cannot be torn, which is what makes the supervisor's view crash-consistent.

:class:`CircuitBreaker` is the per-*tenant* analogue used inside workers:
a feed that keeps raising :class:`~repro.serve.feed.FeedError` trips open
after ``failure_threshold`` consecutive failures, cools down, and is probed
half-open with exponentially growing cooldowns — quarantining one tenant's
broken feed instead of failing the worker (let alone the fabric).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "RestartPolicy",
    "Supervisor",
    "WorkerHandle",
    "read_json",
    "write_json_atomic",
]


HEARTBEAT_FILE = "heartbeat.json"
CONTROL_FILE = "control.json"
RESULT_FILE = "result.json"
RELEASED_DIR = "released"


def write_json_atomic(path, payload: dict) -> Path:
    """Write a JSON file via ``tmp + os.replace`` (readers never see a torn file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_json(path, default=None):
    """Read a JSON object file, returning ``default`` when missing or unreadable.

    Files written by :func:`write_json_atomic` cannot be torn, so a decode
    error or a value that is not an object here means a foreign/partial
    file — treated as absent rather than fatal (the supervisor must keep
    polling through transient weirdness).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):  # undecodable bytes, bad JSON, an over-long integer
        return default
    return payload if isinstance(payload, dict) else default


# --------------------------------------------------------------------------- #
# Policies
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RestartPolicy:
    """How crashed workers come back: bounded restarts with exponential backoff.

    A worker may restart at most ``max_restarts`` times within any sliding
    ``window_seconds`` window; the ``k``-th restart of a window waits
    ``backoff_seconds * backoff_factor**k`` (capped at
    ``max_backoff_seconds``) before respawning.  Beyond the budget the worker
    is marked failed permanently — a deterministic crash loop must not spin
    the fabric forever.
    """

    max_restarts: int = 3
    window_seconds: float = 60.0
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0

    def backoff_for(self, restart_index: int) -> float:
        """Delay before the ``restart_index``-th restart of the current window."""
        delay = self.backoff_seconds * (self.backoff_factor ** max(restart_index, 0))
        return min(delay, self.max_backoff_seconds)


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of the per-tenant feed circuit breaker."""

    #: Consecutive :class:`FeedError` failures before the breaker opens.
    failure_threshold: int = 3
    #: Rounds the first open state lasts before a half-open probe.
    cooldown_rounds: int = 8
    #: Cooldown growth per re-open (a flapping feed backs off exponentially).
    backoff_factor: float = 2.0
    max_cooldown_rounds: int = 256
    #: Opens after which the tenant is abandoned (permanently broken feed).
    max_opens: int = 5

    def to_dict(self) -> dict:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown_rounds": self.cooldown_rounds,
            "backoff_factor": self.backoff_factor,
            "max_cooldown_rounds": self.max_cooldown_rounds,
            "max_opens": self.max_opens,
        }

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> "BreakerConfig":
        return cls(**payload) if payload else cls()


class CircuitBreaker:
    """Closed → open → half-open breaker over a tenant's feed.

    ``allow(round)`` gates each attempt: closed admits everything; open
    quarantines the tenant until its cooldown expires; the first admitted
    attempt after a cooldown is the half-open *probe* — success closes the
    breaker (and resets the cooldown), failure re-opens it with an
    exponentially longer cooldown.  Rounds (not wall seconds) are the clock,
    so replays are deterministic.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, config: Optional[BreakerConfig] = None):
        self.config = config or BreakerConfig()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.failures = 0
        self.opens = 0
        self.probes = 0
        self._cooldown = self.config.cooldown_rounds
        self._open_until = 0

    @property
    def exhausted(self) -> bool:
        """The feed kept failing through ``max_opens`` cooldowns: give it up."""
        return self.opens >= self.config.max_opens

    def allow(self, round_index: int) -> bool:
        """Whether this round may attempt the tenant's feed."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN and round_index >= self._open_until:
            self.state = self.HALF_OPEN
            self.probes += 1
            return True
        return self.state == self.HALF_OPEN

    def record_failure(self, round_index: int) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self.state = self.OPEN
            self.opens += 1
            self._open_until = round_index + self._cooldown
            self._cooldown = min(
                int(self._cooldown * self.config.backoff_factor),
                self.config.max_cooldown_rounds,
            )

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._cooldown = self.config.cooldown_rounds

    def counters(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "opens": self.opens,
            "probes": self.probes,
        }


# --------------------------------------------------------------------------- #
# Worker handles and the supervisor loop
# --------------------------------------------------------------------------- #


@dataclass
class WorkerHandle:
    """Parent-side view of one worker: process, directory, restart ledger."""

    id: int
    directory: Path
    process: object = None
    #: Process incarnations spawned so far (0 before the first spawn).
    incarnation: int = 0
    status: str = "pending"  # pending | running | restarting | done | failed
    restart_times: List[float] = field(default_factory=list)
    recovery_latencies: List[float] = field(default_factory=list)
    last_heartbeat: Optional[dict] = None
    #: monotonic timestamp when the current crash was detected (None = healthy)
    crash_detected_at: Optional[float] = None
    restart_due_at: Optional[float] = None
    spawned_at: Optional[float] = None
    #: wall-clock spawn time of the current incarnation (heartbeat-age anchor)
    spawned_wall: Optional[float] = None
    exit_reason: Optional[str] = None

    @property
    def heartbeat_path(self) -> Path:
        return self.directory / HEARTBEAT_FILE

    @property
    def control_path(self) -> Path:
        return self.directory / CONTROL_FILE

    @property
    def result_path(self) -> Path:
        return self.directory / RESULT_FILE

    @property
    def restarts(self) -> int:
        return len(self.restart_times)

    def released_marker(self, tenant: str) -> Path:
        return self.directory / RELEASED_DIR / f"{tenant}.json"

    def liveness(self) -> dict:
        """JSON-safe liveness row for the fabric report / telemetry."""
        return {
            "worker": self.id,
            "status": self.status,
            "incarnation": self.incarnation,
            "restarts": self.restarts,
            "recovery_latency_s": [round(v, 6) for v in self.recovery_latencies],
            "last_round": (self.last_heartbeat or {}).get("round"),
            "exit_reason": self.exit_reason,
        }


class Supervisor:
    """Monitors a fleet of worker processes and enforces the restart policy.

    ``spawn(worker_id, incarnation)`` is provided by the fabric and must
    return a *started* process object (anything with ``pid``, ``is_alive()``,
    ``join()``, ``exitcode``).  The supervisor itself is transport-agnostic:
    it reads the heartbeat/result files the worker runtime writes.
    """

    def __init__(
        self,
        workers: List[WorkerHandle],
        spawn: Callable[[int, int], object],
        policy: Optional[RestartPolicy] = None,
        heartbeat_timeout: float = 10.0,
        poll_interval: float = 0.02,
        event: Optional[Callable[[dict], None]] = None,
    ):
        self.workers: Dict[int, WorkerHandle] = {w.id: w for w in workers}
        self._spawn = spawn
        self.policy = policy or RestartPolicy()
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.poll_interval = float(poll_interval)
        self._event_sink = event
        self.events: List[dict] = []

    # ----------------------------------------------------------------- events
    def event(self, kind: str, worker: Optional[int] = None, **extra) -> None:
        row = {"event": kind, "time": time.time()}
        if worker is not None:
            row["worker"] = worker
        row.update(extra)
        self.events.append(row)
        if self._event_sink is not None:
            self._event_sink(row)

    # ---------------------------------------------------------------- spawning
    def start(self) -> None:
        """Spawn every pending worker (first incarnation)."""
        for worker in self.workers.values():
            if worker.status == "pending":
                self._launch(worker)

    def _launch(self, worker: WorkerHandle) -> None:
        worker.process = self._spawn(worker.id, worker.incarnation)
        worker.incarnation += 1
        worker.spawned_at = time.monotonic()
        worker.spawned_wall = time.time()
        worker.status = "running"
        self.event("worker_start", worker.id, incarnation=worker.incarnation - 1,
                   pid=getattr(worker.process, "pid", None))

    def revive(self, worker_id: int) -> None:
        """Respawn a *finished* worker (e.g. a migration targets it).

        Not a crash: the restart budget is not charged.  The stale result
        file is removed so completion is re-detected from the new incarnation.
        """
        worker = self.workers[worker_id]
        if worker.status != "done":
            raise ValueError(f"worker {worker_id} is {worker.status}, not done")
        try:
            os.remove(worker.result_path)
        except OSError:
            pass
        self._launch(worker)
        self.event("worker_revive", worker_id)

    def kill(self, worker_id: int) -> None:
        """SIGKILL a running worker (ops/testing hook; recovery follows)."""
        worker = self.workers[worker_id]
        process = worker.process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)

    # ----------------------------------------------------------------- polling
    def heartbeat_age(self, worker: WorkerHandle, now: float) -> Optional[float]:
        """Seconds since the worker last proved liveness.

        Anchored at the heartbeat file's mtime *or* the current incarnation's
        spawn time, whichever is later — a restarted worker gets a full
        timeout to restore its sessions before the previous incarnation's
        stale heartbeat can condemn it.
        """
        try:
            mtime = os.stat(worker.heartbeat_path).st_mtime
        except OSError:
            mtime = None
        anchors = [v for v in (mtime, worker.spawned_wall) if v is not None]
        if not anchors:
            return None
        return max(0.0, time.time() - max(anchors))

    def poll(self) -> None:
        """One supervision pass over every worker."""
        now = time.monotonic()
        for worker in self.workers.values():
            if worker.status == "running":
                self._poll_running(worker, now)
            if worker.status == "restarting" and now >= (worker.restart_due_at or 0):
                self._restart(worker)

    def _poll_running(self, worker: WorkerHandle, now: float) -> None:
        process = worker.process
        heartbeat = read_json(worker.heartbeat_path)
        if heartbeat is not None:
            worker.last_heartbeat = heartbeat
            if (
                worker.crash_detected_at is not None
                and heartbeat.get("incarnation") == worker.incarnation - 1
            ):
                # first heartbeat of the restarted incarnation: sessions are
                # restored and missed ticks replayed — recovery is complete
                latency = now - worker.crash_detected_at
                worker.recovery_latencies.append(latency)
                worker.crash_detected_at = None
                self.event("worker_recovered", worker.id,
                           recovery_latency_s=round(latency, 6))
        if not process.is_alive():
            process.join()
            if process.exitcode == 0 and worker.result_path.exists():
                worker.status = "done"
                worker.exit_reason = "completed"
                self.event("worker_done", worker.id)
            else:
                self._crashed(worker, now, reason=f"exitcode {process.exitcode}")
            return
        age = self.heartbeat_age(worker, now)
        if age is not None and age > self.heartbeat_timeout:
            # alive but silent past the tick deadline: a hung feed or a
            # livelocked tick holds every tenant on this worker hostage —
            # kill it and let checkpoint recovery take over
            os.kill(process.pid, signal.SIGKILL)
            process.join()
            self._crashed(worker, now, reason=f"heartbeat deadline ({age:.3f}s)")

    def _crashed(self, worker: WorkerHandle, now: float, reason: str) -> None:
        worker.crash_detected_at = now
        recent = [t for t in worker.restart_times if now - t <= self.policy.window_seconds]
        self.event("worker_crash", worker.id, reason=reason,
                   restarts_in_window=len(recent))
        if len(recent) >= self.policy.max_restarts:
            worker.status = "failed"
            worker.exit_reason = f"restart budget exhausted after {reason}"
            self.event("worker_failed", worker.id, reason=worker.exit_reason)
            return
        delay = self.policy.backoff_for(len(recent))
        worker.restart_due_at = now + delay
        worker.status = "restarting"

    def _restart(self, worker: WorkerHandle) -> None:
        worker.restart_times.append(time.monotonic())
        worker.restart_due_at = None
        self._launch(worker)
        self.event("worker_restart", worker.id, incarnation=worker.incarnation - 1)

    # --------------------------------------------------------------- main loop
    @property
    def active(self) -> bool:
        return any(w.status in ("pending", "running", "restarting") for w in self.workers.values())

    def run(
        self,
        on_poll: Optional[Callable[["Supervisor"], None]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Supervise until every worker is done or failed.

        ``on_poll`` runs once per pass (the fabric's migration/kill hooks).
        On ``timeout`` every live worker is SIGKILLed and ``TimeoutError``
        raised — a supervision loop must never hang a CI gate.
        """
        self.start()
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        try:
            while self.active:
                self.poll()
                if on_poll is not None:
                    on_poll(self)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"supervisor exceeded its {timeout:g}s budget with workers "
                        f"{[w.id for w in self.workers.values() if w.status not in ('done', 'failed')]} unfinished"
                    )
                time.sleep(self.poll_interval)
        finally:
            # on a normal exit nothing is alive; on timeout/interrupt never
            # leak live children
            for worker in self.workers.values():
                process = worker.process
                if process is not None and process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
                    process.join()

    def liveness(self) -> dict:
        """Fabric-level liveness snapshot keyed by worker id."""
        return {str(w.id): w.liveness() for w in self.workers.values()}
