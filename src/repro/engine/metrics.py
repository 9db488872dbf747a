"""Query metrics: per-stage, per-worker cost accounting.

Each physical operator opens a *stage*; the work each simulated worker
performs in that stage is charged in work units, and each exchange charges
the bytes it moved.  :meth:`QueryMetrics.simulated_seconds` replays the
recorded schedule over an arbitrary virtual core count — stages run one
after another (exchanges are pipeline barriers), and within a stage the
per-worker costs are LPT-scheduled onto the cores.  The module that owns
the stage owns its name too: the grammar below is the one place a stage
name is taken apart.
"""

from __future__ import annotations

import heapq
import re
import sys
from dataclasses import dataclass, field

from repro.engine.costs import CostModel, DEFAULT_COST_MODEL

# -- the stage-name grammar ------------------------------------------------------
#
# A stage is named ``<operator>#<instance id>[/<op label>]``
# (``scan#1``, ``fudj-join#5/assign-left``).  Everything that reads a
# name back — fault rolls, the event log, ``sys.stages``, the registry's
# per-op and per-phase counters — goes through the three functions here.

#: The instance id comes from a process-global operator counter, so it
#: depends on how many plans the process built before this one.
_INSTANCE_ID = re.compile(r"#\d+")


def stage_key(stage_name: str) -> str:
    """A stage name with its instance id stripped
    (``hash-join#5/xleft`` → ``hash-join/xleft``): the identity fault
    rolls key on and events carry, so the same query replays the same
    faults and the same byte-identical stream whenever it runs.
    Interned: the event log retains thousands over a few dozen names."""
    return sys.intern(_INSTANCE_ID.sub("", stage_name))


def stage_op(stage_name: str) -> str:
    """The stable operator label of a metrics stage name.

    ``scan#1`` → ``scan``; ``fudj-join#5/assign-left`` → ``assign-left``.
    Instance ids are stripped so the label is identical across sessions,
    and interned: the history retains one per stage row over a few dozen
    distinct labels.
    """
    if "/" in stage_name:
        return sys.intern(stage_name.rsplit("/", 1)[1])
    return sys.intern(stage_name.split("#", 1)[0])


def phase_of(op: str) -> str:
    """FUDJ phase of a stage op (paper Fig 8/9 grouping)."""
    if op.startswith("summarize") or op.startswith("pplan"):
        return "summarize"
    if op.startswith("assign"):
        return "partition"
    if op.startswith(("xleft", "xright", "combine", "dedup", "spread",
                      "broadcast", "route")):
        return "combine"
    return "other"


@dataclass
class StageMetrics:
    """Charges accumulated by one pipeline stage."""

    name: str
    worker_units: dict = field(default_factory=dict)
    network_bytes: float = 0.0
    #: Broadcast/all-to-all bytes, charged against the shared fabric.
    fabric_bytes: float = 0.0
    records_in: int = 0
    records_out: int = 0
    #: Optional mirror hook — the tracer installs one so every charge is
    #: also attributed to the currently open span (None when tracing is
    #: off; the check costs one branch).
    on_charge: object = None

    def charge(self, worker: int, units: float) -> None:
        self.worker_units[worker] = self.worker_units.get(worker, 0.0) + units
        if self.on_charge is not None:
            self.on_charge(units)

    def total_units(self) -> float:
        return sum(self.worker_units.values())

    def imbalance(self):
        """Max / mean per-worker units; None below two workers or
        without work."""
        workers = self.worker_units
        if len(workers) < 2:
            return None
        mean = sum(workers.values()) / len(workers)
        return max(workers.values()) / mean if mean > 0 else None

    def makespan_units(self, cores: int) -> float:
        """LPT schedule of the per-worker costs onto ``cores`` cores."""
        if not self.worker_units:
            return 0.0
        loads = [0.0] * max(1, min(cores, len(self.worker_units)))
        heapq.heapify(loads)
        for units in sorted(self.worker_units.values(), reverse=True):
            lightest = heapq.heappop(loads)
            heapq.heappush(loads, lightest + units)
        return max(loads)


class QueryMetrics:
    """All charges for one query execution plus wall-clock bookkeeping."""

    #: Quarantine reports are capped so a wholly poisoned input cannot
    #: balloon the metrics object; the counter keeps the true total.
    MAX_QUARANTINE_REPORT = 50

    def __init__(self, cost_model: CostModel = None) -> None:
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.stages = []
        self._stage_index = {}
        self.wall_seconds = 0.0
        self.translation_conversions = 0
        self.comparisons = 0
        self.output_records = 0
        # -- batched execution ---------------------------------------------------
        #: Engine kernel dispatches: one per record pushed through a
        #: row-loop operator or exchange send in row mode, one per batch
        #: in batch mode, and one per worker task either way.  With
        #: ``batches`` it is the one key a batch run may differ in from
        #: its row twin (``tests/test_golden.py``).
        self.operator_invocations = 0
        #: Record batches produced (0 under row execution).
        self.batches = 0
        #: Histogram feed: rows-per-batch -> number of batches of that
        #: size.  Not part of :meth:`to_dict`; telemetry folds it into
        #: the ``fudj_batch_rows`` registry histogram.
        self.batch_row_counts = {}
        # -- fault tolerance ---------------------------------------------------
        #: Compute task attempts that were lost and replayed.
        self.tasks_retried = 0
        #: Transient shuffle sends that had to be re-transmitted.
        self.exchange_retries = 0
        #: Tasks that straggled and were cut short by a speculative copy.
        self.stragglers_detected = 0
        #: Poison records dropped by the ``skip``/``quarantine`` policies.
        self.records_quarantined = 0
        #: Simulated seconds of pure fault-tolerance overhead (wasted
        #: work, backoff, checkpoint restores, re-sent bytes).  Already
        #: included in :meth:`simulated_seconds` via the stage charges;
        #: surfaced separately so ablations can subtract it.
        self.recovery_seconds = 0.0
        #: Bytes spooled to the checkpoint store at exchanges.
        self.checkpoint_bytes = 0.0
        #: Per-phase details of quarantined records (quarantine policy
        #: only; capped at MAX_QUARANTINE_REPORT entries).
        self.quarantine_log = []
        # -- process backend ----------------------------------------------------
        #: Worker *processes* that died (planned kills and unplanned
        #: crashes alike) and were respawned while running this query.
        #: Always 0 under the serial backend.
        self.worker_restarts = 0
        #: Heartbeat deadlines a live worker process missed while holding
        #: a task lease (a real straggler signal, not a simulated one).
        self.heartbeat_misses = 0
        # -- resource governance -----------------------------------------------
        #: High-water mark of bytes concurrently admitted by the memory
        #: accountant across all (stage, worker) grants.
        self.peak_reserved_bytes = 0.0
        #: Bytes actually written to spill files (0 unless a
        #: ``memory_budget`` was enforced and exceeded).
        self.spill_bytes = 0.0
        #: Spill files written (each over-budget admit writes one).
        self.spill_files = 0
        #: Wall-clock seconds spent waiting in the admission queue.
        self.queue_seconds = 0.0
        #: Invoked with each newly created stage — the execution context
        #: uses it as a cancellation point for query timeouts.
        self.stage_observer = None

    def stage(self, name: str) -> StageMetrics:
        """Return (creating if needed) the stage named ``name``."""
        if name not in self._stage_index:
            stage = StageMetrics(name)
            self._stage_index[name] = stage
            self.stages.append(stage)
            if self.stage_observer is not None:
                self.stage_observer(stage)
        return self._stage_index[name]

    def find_stage(self, name: str):
        """The stage named ``name``, or None — unlike :meth:`stage` this
        never creates one (used by trace rendering)."""
        return self._stage_index.get(name)

    def note_batch(self, rows: int) -> None:
        """Count one produced record batch of ``rows`` live rows."""
        self.batches += 1
        self.batch_row_counts[rows] = self.batch_row_counts.get(rows, 0) + 1

    def note_quarantine(self, phase: str, join_name: str, error: Exception,
                        detail: str = None) -> None:
        """Record one poison record dropped by a degraded-mode policy."""
        self.records_quarantined += 1
        if len(self.quarantine_log) < self.MAX_QUARANTINE_REPORT:
            self.quarantine_log.append({
                "phase": phase,
                "join": join_name,
                "error": f"{type(error).__name__}: {error}",
                "record": detail,
            })

    def quarantine_report(self) -> dict:
        """Quarantined-record counts and sample errors grouped by phase."""
        report = {}
        for entry in self.quarantine_log:
            bucket = report.setdefault(
                entry["phase"], {"count": 0, "errors": []}
            )
            bucket["count"] += 1
            if len(bucket["errors"]) < 5:
                bucket["errors"].append(entry["error"])
        return report

    # -- aggregate views ------------------------------------------------------

    def total_cpu_units(self) -> float:
        return sum(s.total_units() for s in self.stages)

    def total_network_bytes(self) -> float:
        return sum(s.network_bytes + s.fabric_bytes for s in self.stages)

    def simulated_seconds(self, cores: int) -> float:
        """Simulated end-to-end time on a cluster with ``cores`` cores.

        CPU: per-stage LPT makespan over the cores.  Network: the cost
        model's bandwidth is per node, so a stage's bytes drain through
        ``min(cores, participating workers)`` NICs in parallel — a hash
        shuffle therefore speeds up with the cluster while a broadcast
        (whose total bytes grow with the cluster) does not.
        """
        if cores < 1:
            raise ValueError(f"need >= 1 core, got {cores}")
        model = self.cost_model
        total = 0.0
        for stage in self.stages:
            total += model.cpu_seconds(stage.makespan_units(cores))
            nics = min(cores, len(stage.worker_units)) or cores
            total += model.network_seconds(stage.network_bytes) / nics
            total += model.fabric_seconds(stage.fabric_bytes)
        return total

    def profile(self, cores: int = None) -> str:
        """Per-stage accounting rendered as an aligned text table.

        With ``cores`` given, a simulated-seconds column is included.
        """
        lines = []
        header = f"{'stage':<44} {'cpu units':>12} {'net bytes':>12} {'out':>8}"
        if cores is not None:
            header += f" {'sim ms':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        model = self.cost_model
        for stage in self.stages:
            if not (stage.total_units() or stage.network_bytes
                    or stage.fabric_bytes):
                continue
            row = (
                f"{stage.name:<44} {stage.total_units():>12.0f} "
                f"{stage.network_bytes + stage.fabric_bytes:>12.0f} "
                f"{stage.records_out:>8}"
            )
            if cores is not None:
                nics = min(cores, len(stage.worker_units)) or cores
                seconds = (
                    model.cpu_seconds(stage.makespan_units(cores))
                    + model.network_seconds(stage.network_bytes) / nics
                    + model.fabric_seconds(stage.fabric_bytes)
                )
                row += f" {seconds * 1000:>9.3f}"
            lines.append(row)
        fault_line = self.fault_summary_line()
        if fault_line:
            lines.append(fault_line)
        resource_line = self.resource_summary_line()
        if resource_line:
            lines.append(resource_line)
        return "\n".join(lines)

    def fault_summary_line(self) -> str:
        """One-line fault-tolerance accounting, empty when nothing fired."""
        if not (self.tasks_retried or self.exchange_retries
                or self.stragglers_detected or self.records_quarantined):
            return ""
        return (
            f"fault tolerance: {self.tasks_retried} task retries, "
            f"{self.exchange_retries} exchange retries, "
            f"{self.stragglers_detected} stragglers, "
            f"{self.records_quarantined} quarantined, "
            f"recovery {self.recovery_seconds * 1000:.2f} ms"
        )

    def resource_summary_line(self) -> str:
        """One-line resource-governance accounting; empty unless a spill
        actually happened or the query waited for admission, so existing
        profile output is unchanged for un-governed runs."""
        if not (self.spill_files or self.queue_seconds):
            return ""
        return (
            f"resources: peak {self.peak_reserved_bytes:.0f} reserved bytes, "
            f"{self.spill_files} spill files ({self.spill_bytes:.0f} bytes), "
            f"queue wait {self.queue_seconds * 1000:.2f} ms"
        )

    def to_dict(self, cores: int = None) -> dict:
        """The stable flat-dict view of the metrics.

        This is the one canonical field list — telemetry
        (:mod:`repro.engine.telemetry`), :meth:`QueryResult.to_dict
        <repro.engine.executor.QueryResult.to_dict>`, and the shell's
        timing line all consume it, so adding a counter here surfaces
        it everywhere at once.  With ``cores`` given, a
        ``simulated_seconds`` entry is included.
        """
        out = {
            "wall_seconds": self.wall_seconds,
            "cpu_units": self.total_cpu_units(),
            "network_bytes": self.total_network_bytes(),
            "comparisons": self.comparisons,
            "translation_conversions": self.translation_conversions,
            "output_records": self.output_records,
            "stages": len(self.stages),
            "tasks_retried": self.tasks_retried,
            "exchange_retries": self.exchange_retries,
            "stragglers_detected": self.stragglers_detected,
            "records_quarantined": self.records_quarantined,
            "recovery_seconds": self.recovery_seconds,
            "checkpoint_bytes": self.checkpoint_bytes,
            "worker_restarts": self.worker_restarts,
            "heartbeat_misses": self.heartbeat_misses,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "spill_bytes": self.spill_bytes,
            "spill_files": self.spill_files,
            "queue_seconds": self.queue_seconds,
            "operator_invocations": self.operator_invocations,
            "batches": self.batches,
        }
        if cores is not None:
            out["simulated_seconds"] = self.simulated_seconds(cores)
        return out

    def __repr__(self) -> str:
        return (
            f"QueryMetrics(wall={self.wall_seconds:.3f}s, "
            f"cpu_units={self.total_cpu_units():.0f}, "
            f"net_bytes={self.total_network_bytes():.0f}, "
            f"stages={len(self.stages)})"
        )
