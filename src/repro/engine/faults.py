"""Seeded fault injection and task recovery for the simulated cluster.

The paper's FUDJ plans run on a 13-node cluster where worker crashes,
stragglers, and flaky links are operational reality.  This module gives
the engine a *deterministic* failure model so robustness can be tested
and benchmarked exactly like performance:

- :class:`FaultPlan` decides, from a seed, which ``(stage, worker,
  attempt)`` task attempts crash, which tasks straggle, and which
  exchange sends fail in transit.  Decisions are pure functions of the
  seed — independent of execution order, Python hash randomization, and
  operator instance counters — so the same plan replays identically.
- :func:`apply_exchange_faults` and :func:`charge_checkpoint` are the
  recovery hooks exchanges call: failed sends are retried (the re-sent
  bytes and backoff are charged through the cost model) and exchange
  outputs are spooled to a local checkpoint store, which is what lets a
  crashed task replay one stage instead of the whole plan.

The compute-side retry loop lives in
:meth:`repro.engine.context.ExecutionContext.run_task`; every recovery
charge lands in the normal per-stage metrics, so
``QueryMetrics.simulated_seconds`` reflects fault-tolerance overhead
with no special cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.engine.metrics import stage_key
from repro.errors import ExecutionError


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures.

    Rates are per-attempt probabilities in ``[0, 1]``; every decision is
    derived by hashing ``(seed, kind, stage, worker, attempt)``, so two
    runs with the same plan see byte-identical failure schedules.

    Attributes:
        seed: root of every pseudo-random decision.
        crash_rate: chance one ``(stage, worker)`` task attempt is lost
            after doing its work (the output never gets acknowledged).
        straggler_rate: chance a task runs ``straggler_slowdown`` times
            slower than its charge (a sick node, not a lost one).
        exchange_failure_rate: chance one worker's outgoing shuffle
            traffic must be re-sent (a transient link failure).
        straggler_slowdown: work multiplier a straggling task suffers
            when left alone.
        straggler_detect_factor: the scheduler launches a speculative
            copy once a task overruns this multiple of its expected
            time, capping straggler damage at detection + rerun +
            checkpoint restore.
        backoff_base_seconds / backoff_cap_seconds: capped exponential
            backoff between retry attempts (charged as schedule time).
        max_task_retries: consecutive failures after which the query
            aborts with :class:`~repro.errors.TaskFailedError`.
        checkpoint: spool exchange outputs to the local checkpoint
            store (the lineage that makes single-stage replay possible).
            Charged even at zero fault rates — that is the ablation's
            "checkpointing overhead at 0% faults".
        phases: stage-name substrings injection is restricted to; empty
            means every stage is eligible.
        real: under the process backend, act the schedule out physically —
            a crash roll SIGKILLs the live worker process mid-task and a
            straggler roll makes the worker genuinely stall — instead of
            only charging the cost model.  The *accounting* is identical
            either way (same rolls, same charges), so metrics stay
            byte-comparable with the serial backend.
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    exchange_failure_rate: float = 0.0
    straggler_slowdown: float = 4.0
    straggler_detect_factor: float = 2.0
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    max_task_retries: int = 6
    checkpoint: bool = True
    phases: tuple = ()
    real: bool = False

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "exchange_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ExecutionError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_slowdown < 1.0:
            raise ExecutionError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if self.max_task_retries < 1:
            raise ExecutionError(
                f"max_task_retries must be >= 1, got {self.max_task_retries}"
            )

    # -- deterministic rolls ---------------------------------------------------

    def _roll(self, kind: str, stage: str, worker: int, attempt: int) -> float:
        """A stable pseudo-uniform draw in [0, 1)."""
        token = f"{self.seed}|{kind}|{stage}|{worker}|{attempt}"
        digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def active_for(self, stage_name: str) -> bool:
        """Whether injection applies to this stage at all."""
        if not self.phases:
            return True
        return any(phase in stage_name for phase in self.phases)

    def any_faults(self) -> bool:
        return bool(
            self.crash_rate or self.straggler_rate or self.exchange_failure_rate
        )

    def crashes(self, stage: str, worker: int, attempt: int) -> bool:
        """Does attempt ``attempt`` of this task lose its output?"""
        return self._roll("crash", stage, worker, attempt) < self.crash_rate

    def straggles(self, stage: str, worker: int) -> bool:
        """Is this task scheduled onto a straggling node?"""
        return self._roll("straggle", stage, worker, 0) < self.straggler_rate

    def exchange_failures(self, stage: str, worker: int) -> int:
        """How many times this worker's shuffle send fails before landing."""
        failures = 0
        while (failures < self.max_task_retries
               and self._roll("exchange", stage, worker, failures)
               < self.exchange_failure_rate):
            failures += 1
        return failures

    def backoff_seconds(self, attempt: int) -> float:
        """Capped exponential backoff before retry number ``attempt``."""
        return min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2.0 ** max(0, attempt - 1)),
        )

    # -- CLI / facade helpers --------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI syntax ``SEED:RATE`` (one rate for
        crash, straggler, and exchange faults alike) or
        ``SEED:CRASH:STRAGGLER:EXCHANGE``.  A trailing ``:real`` token
        turns on :attr:`real` (physical faults under the process
        backend)."""
        parts = spec.split(":")
        real = False
        if parts and parts[-1] == "real":
            real = True
            parts = parts[:-1]
        if len(parts) not in (2, 4):
            raise ExecutionError(
                f"bad fault spec {spec!r}; use SEED:RATE or "
                f"SEED:CRASH:STRAGGLER:EXCHANGE (append :real for "
                f"physical faults under the process backend)"
            )
        try:
            seed = int(parts[0])
            rates = [float(p) for p in parts[1:]]
        except ValueError:
            raise ExecutionError(
                f"bad fault spec {spec!r}; use SEED:RATE or "
                f"SEED:CRASH:STRAGGLER:EXCHANGE"
            ) from None
        if len(rates) == 1:
            rates = rates * 3
        return cls(seed=seed, crash_rate=rates[0], straggler_rate=rates[1],
                   exchange_failure_rate=rates[2], real=real)

    def describe(self) -> str:
        line = (
            f"seed={self.seed} crash={self.crash_rate:g} "
            f"straggler={self.straggler_rate:g} "
            f"exchange={self.exchange_failure_rate:g} "
            f"checkpoint={'on' if self.checkpoint else 'off'}"
        )
        if self.real:
            line += " real=on"
        return line


# -- recovery hooks used by exchanges ----------------------------------------


def apply_exchange_faults(ctx, stage, worker: int, moved_bytes: float) -> None:
    """Retry a worker's shuffle send through transient link failures.

    Each failed attempt re-serializes and re-sends the moved bytes and
    waits out a capped exponential backoff; everything is charged to the
    sending worker inside the exchange stage, so the recovery work shows
    up in the stage makespan like any other work.
    """
    plan = ctx.fault_plan
    if (plan is None or moved_bytes <= 0
            or not plan.exchange_failure_rate
            or not plan.active_for(stage.name)):
        return
    failures = plan.exchange_failures(stage_key(stage.name), worker)
    if not failures:
        return
    model = ctx.cost_model
    resent = moved_bytes * failures
    backoff = sum(plan.backoff_seconds(i + 1) for i in range(failures))
    stage.network_bytes += resent
    stage.charge(
        worker,
        resent * model.serde_byte + backoff * model.core_ops_per_second,
    )
    metrics = ctx.metrics
    metrics.exchange_retries += failures
    metrics.recovery_seconds += (
        backoff
        + model.network_seconds(resent)
        + model.cpu_seconds(resent * model.serde_byte)
    )
    ctx.events.emit("fault.exchange_retry", stage=stage.name, worker=worker,
                    failures=failures, resent_bytes=round(resent, 6))


def charge_checkpoint(ctx, stage, worker: int, num_bytes: float) -> None:
    """Spool ``num_bytes`` of exchange output to the local checkpoint
    store (async write-behind, so the per-byte cost is a fraction of a
    serde unit).  This is the lineage a crashed downstream task restores
    from instead of replaying the whole plan."""
    if not ctx.checkpointing or num_bytes <= 0:
        return
    stage.charge(worker, ctx.cost_model.checkpoint_write_units(num_bytes))
    ctx.metrics.checkpoint_bytes += num_bytes


def checkpoint_outputs(ctx, stage, outputs, size_of) -> None:
    """Spool every worker's received partition of an exchange
    (:func:`charge_checkpoint` each).  ``size_of(partition)`` is
    asked only while checkpointing is on: sizing a partition is the
    expensive part, and without a checkpointing plan the charge is
    dropped anyway."""
    if not ctx.checkpointing:
        return
    for worker, partition in enumerate(outputs):
        charge_checkpoint(ctx, stage, worker, size_of(partition))
