"""Resource governance: memory accounting, real spill-to-disk, admission
control, and callback circuit breakers.

FUDJ §III promises "memory budget-aware operators that can spill"; this
module is the enforcement half of that promise (``engine/costs.py`` is
the pricing half).  Three cooperating pieces:

* :class:`QueryResources` — a per-query **memory accountant**.  Every
  memory-hungry site (hash-join build sides, FUDJ COMBINE state,
  aggregation tables, exchange receive buffers) routes its resident data
  through :meth:`QueryResources.admit`.  Without a budget the accountant
  only *prices* the would-be spill through the existing cost model, so
  charged numbers are bit-identical to the pre-governance engine.  With
  ``Database(memory_budget=...)`` set, the overflow is **actually
  serialized** to temp files through the serde layer and replayed, and
  the very same :meth:`CostModel.spill_units` term is charged — model
  prediction and observed charge agree by construction.

* :class:`AdmissionController` — a bounded FIFO queue in front of the
  database.  Each query reserves memory estimated from catalog stats;
  when the cluster-wide capacity is exhausted the query waits, and when
  the queue itself is full (or the wait exceeds ``queue_timeout``) the
  query is shed with a typed :class:`~repro.errors.AdmissionError`
  instead of degrading everyone.  :func:`simulate_admission` replays the
  same policy over a synthetic arrival schedule deterministically, for
  seeded burst tests and benchmarks.

* :class:`CircuitBreaker` — per-FUDJ-library consecutive-failure
  tracking.  After ``threshold`` consecutive callback failures the
  library trips open and later queries fail fast with
  :class:`~repro.errors.BreakerOpenError` until an operator resets it.

Everything here is deterministic under seeds: spill decisions depend only
on record sizes and the budget, the simulator is pure, and the breaker is
a counter.
"""

from __future__ import annotations

import heapq
import itertools
import os
import tempfile
import threading
import time

from repro.engine.costs import CostModel
from repro.engine.record import (
    Record,
    Schema,
    entry_size,
    serialized_values_size,
)
from repro.errors import AdmissionError, BreakerOpenError, SerdeError
from repro.serde.serializer import (
    _I64,
    _U32,
    deserialize_value,
    serialize_value,
)

#: The identity header of a record or row frame that carries no id of its
#: own: an ``_I64`` every frame keeps, so a spill file's bytes are the
#: same whichever codec wrote them.
_RID_COUNTER = itertools.count(-1, -1)


def parse_bytes(text) -> float:
    """Parse a human byte amount (``"64mb"``, ``"1.5gb"``, ``"65536"``).

    ``"off"``/``"none"``/empty return None (no budget).  Raises
    ``ValueError`` on garbage — callers translate to their own error
    type.
    """
    if text is None:
        return None
    if isinstance(text, (int, float)):
        return float(text)
    cleaned = text.strip().lower().replace("_", "")
    if cleaned in ("", "off", "none", "unlimited"):
        return None
    for suffix, factor in (("kb", 2 ** 10), ("mb", 2 ** 20),
                           ("gb", 2 ** 30), ("b", 1)):
        if cleaned.endswith(suffix):
            return float(cleaned[: -len(suffix)]) * factor
    return float(cleaned)


def format_bytes(amount) -> str:
    """Render a byte amount the way ``.budget`` prints it."""
    if amount is None:
        return "off"
    amount = float(amount)
    for factor, suffix in ((2 ** 30, "gb"), (2 ** 20, "mb"), (2 ** 10, "kb")):
        if amount >= factor and amount % factor == 0:
            return f"{amount / factor:.0f}{suffix}"
    return f"{amount:.0f}b"


# -- the record frame and the spill codecs ----------------------------------------


def encode_frame(values, *header_ints):
    """One row on disk or on a pipe: an ``_I64`` per header int, then each
    boxed value through the serde layer.  None when a value is not
    wire-serializable (an opaque partial-aggregate state)."""
    buf = bytearray()
    for number in header_ints:
        buf += _I64.pack(number)
    try:
        for value in values:
            serialize_value(value, buf)
    except SerdeError:
        return None
    return bytes(buf)


def decode_frame(payload: bytes, header_count: int):
    """``(header ints, values)`` of a frame :func:`encode_frame` made."""
    header = []
    for index in range(header_count):
        header.append(_I64.unpack_from(payload, index * _I64.size)[0])
    offset = header_count * _I64.size
    end = len(payload)
    values = []
    while offset < end:
        value, offset = deserialize_value(payload, offset)
        values.append(value)
    return header, values


def write_frame(out: bytearray, payload: bytes) -> None:
    """Append one frame to ``out`` behind its ``_U32`` length: the layout
    of a spill file and of a saved dataset."""
    out += _U32.pack(len(payload))
    out += payload


def read_frame(data: bytes, offset: int):
    """``(payload, next offset)`` of the frame :func:`write_frame` wrote
    at ``offset``; raises :class:`SerdeError` when ``data`` ends inside
    its length or its payload."""
    start = offset + _U32.size
    if start > len(data):
        raise SerdeError(f"truncated frame length at offset {offset}")
    (length,) = _U32.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        raise SerdeError(f"truncated frame at offset {offset}")
    return data[start:end], end


class RecordSpillCodec:
    """(De)serializes plain :class:`Record` items for spill files.

    Payload: an ``_I64`` identity header, then each boxed value through
    the serde layer.  Items that are not records, carry a different
    schema than the first record seen, or hold unserializable values
    (opaque partial-aggregate states) are *pinned*: :meth:`encode` returns
    None and the accountant keeps them resident.
    """

    def __init__(self, schema: Schema = None) -> None:
        self.schema = schema

    def size(self, item) -> int:
        return item.serialized_size()

    def encode(self, item):
        if not isinstance(item, Record):
            return None
        if self.schema is None:
            self.schema = item.schema
        elif item.schema != self.schema:
            return None
        return encode_frame(item.values, next(_RID_COUNTER))

    def decode(self, payload: bytes):
        return Record(self.schema, decode_frame(payload, 1)[1])


class RowSpillCodec:
    """(De)serializes raw value-tuple rows (GROUP BY's partial states and
    the batched execution path).

    Frames are byte-compatible with :class:`RecordSpillCodec`'s — an
    ``_I64`` identity header followed by each value through the serde
    layer — and :meth:`size` prices exactly what
    ``Record.serialized_size`` would, so spill files, spill bytes, and
    peak reservations match a record's bit-for-bit.  Rows holding
    unserializable values (opaque partial-aggregate states) are pinned,
    just as the records carrying them are.
    """

    def size(self, item) -> int:
        return serialized_values_size(item)

    def encode(self, item):
        if not isinstance(item, tuple):
            return None
        return encode_frame(item, next(_RID_COUNTER))

    def decode(self, payload: bytes):
        return tuple(decode_frame(payload, 1)[1])


class EntrySpillCodec:
    """(De)serializes join entries ``(bucket_id, key, row, size, rid,
    ...)`` — FUDJ COMBINE's and the built-in joins'.  A decoded entry is
    its first three items (:func:`restore_tails` puts the rest back), and
    :meth:`size` reads the size the entry carries.

    Keys are *not* serialized: boxing a key would change its Python type
    on replay (a ``set`` key round-trips as a list), which user callbacks
    could observe.  Instead ``rekey(row)`` recomputes the key from the
    replayed value tuple — key extraction is deterministic, so the entry
    is reconstructed exactly.  Payload: ``_I64(rid) _I64(bucket)`` +
    values; an entry whose bucket id is not an int, or whose values do
    not all serialize, is pinned.
    """

    def __init__(self, rekey) -> None:
        self.rekey = rekey

    size = staticmethod(entry_size)

    def encode(self, item):
        if not isinstance(item[0], int):
            return None
        return encode_frame(item[2], item[4], item[0])

    def decode(self, payload: bytes):
        (rid, bucket), values = decode_frame(payload, 2)
        row = tuple(values)
        return bucket, self.key_of(rid, row), row

    def key_of(self, rid: int, row: tuple):
        """The key of a replayed entry, from its row."""
        return self.rekey(row)


def restore_tails(entries: list, admitted: list) -> list:
    """``admitted`` — what an admission of ``entries`` under an
    :class:`EntrySpillCodec` returned — with each replayed entry given
    back the items past its first three."""
    if admitted is entries:
        return entries
    return [new if new is old else new + old[3:]
            for old, new in zip(entries, admitted)]


class KeyedEntrySpillCodec(EntrySpillCodec):
    """:class:`EntrySpillCodec` for worker processes, which cannot re-run
    key extraction (the key function closes over coordinator state that
    never ships).  Keys are instead looked up by the ``rid`` a frame
    carries, from the entries admitted.  The wire frames are identical to
    the parent codec's, keeping worker spill accounting byte-compatible
    with the serial backend's.
    """

    def __init__(self, entries) -> None:
        super().__init__(None)
        self.keys = {entry[4]: entry[1] for entry in entries}

    def key_of(self, rid: int, row: tuple):
        return self.keys[rid]


# -- the per-query memory accountant -------------------------------------------


class QueryResources:
    """Per-query memory accountant with real spill-to-disk.

    ``enforce=False`` (the default for un-budgeted databases) keeps the
    accountant as a pure observer: it tracks peak reserved bytes and
    charges :meth:`CostModel.spill_units` exactly where the operators
    always charged it, so existing cost predictions are unchanged.  With
    ``enforce=True`` the per-worker budget (``cost_model.
    worker_memory_bytes`` — ``Database(memory_budget=...)`` rewrites it)
    is a hard grant: admitted data beyond it is serialized to a temp
    spill file and immediately replayed, clones taking the originals'
    positions so downstream results are byte-identical.
    """

    def __init__(self, cost_model: CostModel, enforce: bool = False,
                 spill_dir: str = None) -> None:
        self.cost_model = cost_model
        self.enforce = enforce
        #: When set (process-backend workers), spill files go to this
        #: pre-created per-worker directory instead of a fresh tempdir;
        #: the pool owns its lifetime, so :meth:`close` leaves it alone.
        self.spill_dir = spill_dir
        self.peak_reserved_bytes = 0.0
        self.spill_bytes = 0.0
        self.spill_files = 0
        self.spill_units = 0.0
        self.spilled_items = 0
        self.pinned_items = 0
        self.queue_seconds = 0.0
        self._reserved = {}
        self._tempdir = None
        self._file_seq = itertools.count(1)

    # Worker grants are keyed per (stage, worker): each simulated worker
    # holds one operator state per stage at a time.
    def _note_reservation(self, stage_name: str, worker: int,
                          num_bytes: float) -> None:
        self._reserved[(stage_name, worker)] = num_bytes
        self.peak_reserved_bytes = max(
            self.peak_reserved_bytes, sum(self._reserved.values())
        )

    def _spill_path(self) -> str:
        if self.spill_dir is not None:
            return os.path.join(
                self.spill_dir, f"spill-{next(self._file_seq):05d}.bin"
            )
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="fudj-spill-")
        return os.path.join(
            self._tempdir.name, f"spill-{next(self._file_seq):05d}.bin"
        )

    def admit(self, stage_name: str, worker: int, items: list, codec,
              price: bool = True):
        """Account a worker's resident collection; spill past the budget.

        Returns ``(items, units, spill)``.  ``items`` is the (possibly
        replayed) list the operator should use in place of what it passed.
        ``units`` is what the admission costs — already added to
        :attr:`spill_units`, and the *caller's* to charge to its stage.
        ``spill`` is None while the collection fits (or nothing is
        enforced), else ``(spilled_items, file_bytes)`` of the spill file
        just written and replayed — ``(0, 0)`` when everything past the
        budget was pinned.  :meth:`ExecutionContext.admit
        <repro.engine.context.ExecutionContext.admit>` is the in-process
        caller; the accountant itself charges and logs nothing.

        ``price=True`` marks the sites that have always charged
        :meth:`CostModel.spill_units` (join build sides, COMBINE state);
        enforcement-only sites (exchange buffers, pre-aggregation inputs)
        pass ``price=False`` so un-budgeted runs charge exactly what they
        did before governance existed.
        """
        total = 0.0
        for item in items:
            total += codec.size(item)
        self._note_reservation(stage_name, worker, total)
        units = self.cost_model.spill_units(total) if price else 0.0
        budget = self.cost_model.worker_memory_bytes
        if not self.enforce or total <= budget:
            self.spill_units += units
            return items, units, None
        # Over budget with enforcement on: keep a resident prefix, spill
        # the rest through the serde layer, and replay immediately so the
        # operator sees the same rows in the same order.
        resident_bytes = 0.0
        frames = []
        spilled_at = []
        out = list(items)
        for index, item in enumerate(items):
            size = codec.size(item)
            if resident_bytes + size <= budget:
                resident_bytes += size
                continue
            payload = codec.encode(item)
            if payload is None:
                # Unserializable (opaque state) — pinned in memory.
                self.pinned_items += 1
                resident_bytes += size
                continue
            frames.append(payload)
            spilled_at.append(index)
        file_bytes = 0
        if frames:
            path = self._spill_path()
            framed = bytearray()
            for payload in frames:
                write_frame(framed, payload)
            with open(path, "wb") as fh:
                fh.write(framed)
            file_bytes = os.path.getsize(path)
            self.spill_files += 1
            self.spill_bytes += file_bytes
            self.spilled_items += len(frames)
            with open(path, "rb") as fh:
                data = fh.read()
            offset = 0
            for index in spilled_at:
                payload, offset = read_frame(data, offset)
                out[index] = codec.decode(payload)
            os.remove(path)
        if not price:
            # Enforcement-only site: un-governed runs charge nothing here
            # (historical pricing parity), but once this branch is reached
            # a real spill happened, so the budgeted run pays for it.
            units = self.cost_model.spill_units(total)
        self.spill_units += units
        return out, units, (len(frames), file_bytes)

    def absorb(self, stage_name: str, worker: int, stats: dict) -> None:
        """Fold one pool task's worker-side accounting into this (the
        coordinator's) accountant.  Reservations replay through
        :meth:`_note_reservation` in their original order so the peak
        high-water mark lands exactly where the serial backend puts it;
        spill totals add up directly."""
        for total in stats["reservations"]:
            self._note_reservation(stage_name, worker, total)
        spill = stats["spill"]
        self.spill_bytes += spill["bytes"]
        self.spill_files += spill["files"]
        self.spill_units += spill["units"]
        self.spilled_items += spill["spilled"]
        self.pinned_items += spill["pinned"]

    def fold_into(self, metrics) -> None:
        """Copy the accountant's lifetime stats onto the query metrics."""
        metrics.peak_reserved_bytes = self.peak_reserved_bytes
        metrics.spill_bytes = self.spill_bytes
        metrics.spill_files = self.spill_files
        metrics.queue_seconds = self.queue_seconds

    def close(self) -> None:
        """Drop the spill directory (idempotent)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


# -- admission control ---------------------------------------------------------


#: How often a query waiting for the engine looks at its token.
POLL_SECONDS = 0.05


class AdmissionTicket:
    """One admitted query's reservation (hand back via ``release``)."""

    __slots__ = ("reserved_bytes", "queue_seconds")

    def __init__(self, reserved_bytes: float, queue_seconds: float) -> None:
        self.reserved_bytes = reserved_bytes
        self.queue_seconds = queue_seconds


class AdmissionController:
    """Bounded FIFO admission queue over a memory capacity.

    A query reserves ``min(estimate, capacity)`` bytes — a query larger
    than the whole cluster still runs, alone, relying on the per-worker
    spill path.  Arrivals past ``queue_limit`` waiters are shed
    immediately; a waiter that exceeds ``queue_timeout`` seconds is shed
    with reason ``"timeout"``; a waiter whose ``cancel`` token stops
    leaves with the token's error.  FIFO is strict: no waiter overtakes
    an earlier one even if it would fit.
    """

    def __init__(self, capacity_bytes: float, max_concurrent: int = None,
                 queue_limit: int = 16,
                 queue_timeout: float = None) -> None:
        self.capacity_bytes = float(capacity_bytes)
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self.reserved_bytes = 0.0
        self.running = 0
        self.admitted_total = 0
        self.shed_total = 0
        self.timeout_total = 0
        self.peak_reserved_bytes = 0.0
        self.peak_queue_depth = 0
        self._cond = threading.Condition()
        self._queue_seq = itertools.count(1)
        self._waiting = []

    def _fits(self, reserved: float) -> bool:
        if self.max_concurrent is not None and self.running >= self.max_concurrent:
            return False
        return self.reserved_bytes + reserved <= self.capacity_bytes

    def acquire(self, estimate_bytes: float, clock=None,
                cancel=None) -> AdmissionTicket:
        """Block until the reservation fits; shed on queue-full/timeout."""
        clock = clock or time.monotonic
        reserved = min(float(estimate_bytes), self.capacity_bytes)
        started = clock()
        with self._cond:
            # Queue-full sheds anyone who would have to wait; a query that
            # fits right now with nobody ahead runs even at queue_limit=0
            # (the simulator's arrival rule, kept in lock-step).
            if (len(self._waiting) >= self.queue_limit
                    and not (not self._waiting and self._fits(reserved))):
                self.shed_total += 1
                raise AdmissionError("queue-full", estimate_bytes,
                                     f"{len(self._waiting)} queries waiting")
            my_turn = next(self._queue_seq)
            self._waiting.append(my_turn)
            self.peak_queue_depth = max(self.peak_queue_depth,
                                        len(self._waiting))
            try:
                while self._waiting[0] != my_turn or not self._fits(reserved):
                    remaining = None
                    if self.queue_timeout is not None:
                        remaining = self.queue_timeout - (clock() - started)
                        if remaining <= 0:
                            self.timeout_total += 1
                            self.shed_total += 1
                            raise AdmissionError(
                                "timeout", estimate_bytes,
                                f"waited {self.queue_timeout:.3f}s"
                            )
                    if cancel is not None:
                        cancel.check()
                        remaining = min(remaining or POLL_SECONDS,
                                        POLL_SECONDS)
                    self._cond.wait(timeout=remaining)
            finally:
                self._waiting.remove(my_turn)
                self._cond.notify_all()
            self.reserved_bytes += reserved
            self.running += 1
            self.admitted_total += 1
            self.peak_reserved_bytes = max(self.peak_reserved_bytes,
                                           self.reserved_bytes)
            return AdmissionTicket(reserved, clock() - started)

    def release(self, ticket: AdmissionTicket) -> None:
        with self._cond:
            self.reserved_bytes -= ticket.reserved_bytes
            self.running -= 1
            self._cond.notify_all()

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "capacity_bytes": self.capacity_bytes,
                "reserved_bytes": self.reserved_bytes,
                "running": self.running,
                "waiting": len(self._waiting),
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "timeout_total": self.timeout_total,
                "peak_reserved_bytes": self.peak_reserved_bytes,
                "peak_queue_depth": self.peak_queue_depth,
            }


def simulate_admission(arrivals, capacity_bytes: float,
                       max_concurrent: int = None, queue_limit: int = 16,
                       queue_timeout: float = None) -> dict:
    """Pure, deterministic replay of the admission policy.

    ``arrivals`` is a list of ``(arrival_time, estimate_bytes,
    duration)`` tuples.  Returns per-query outcomes (in arrival order)
    plus aggregate stats.  Tie-breaking at equal timestamps is fixed:
    completions free capacity first, then waiters time out, then new
    arrivals are considered — so seeded burst tests get one well-defined
    answer.
    """
    capacity = float(capacity_bytes)
    outcomes = [None] * len(arrivals)
    events = []  # (time, kind, seq) — kind: 0 completion, 1 timeout, 2 arrival
    for i, (t, _est, _dur) in enumerate(arrivals):
        heapq.heappush(events, (float(t), 2, i))
    waiting = []  # FIFO of query indices
    reserved = {}
    reserved_total = 0.0
    running = 0
    stats = {
        "admitted": 0, "shed": 0, "timeouts": 0,
        "peak_reserved_bytes": 0.0, "peak_queue_depth": 0,
        "max_queue_seconds": 0.0,
    }

    def fits(amount: float) -> bool:
        if max_concurrent is not None and running >= max_concurrent:
            return False
        return reserved_total + amount <= capacity

    def start(i: int, now: float) -> None:
        nonlocal reserved_total, running
        t, est, dur = arrivals[i]
        amount = min(float(est), capacity)
        reserved[i] = amount
        reserved_total += amount
        running += 1
        stats["admitted"] += 1
        stats["peak_reserved_bytes"] = max(stats["peak_reserved_bytes"],
                                           reserved_total)
        wait = now - float(t)
        stats["max_queue_seconds"] = max(stats["max_queue_seconds"], wait)
        outcomes[i] = {"outcome": "admitted", "queue_seconds": wait,
                       "start": now, "finish": now + float(dur)}
        heapq.heappush(events, (now + float(dur), 0, i))

    def drain(now: float) -> None:
        while waiting and fits(min(float(arrivals[waiting[0]][1]), capacity)):
            start(waiting.pop(0), now)

    while events:
        now, kind, i = heapq.heappop(events)
        if kind == 0:  # completion
            reserved_total -= reserved.pop(i)
            running -= 1
            drain(now)
        elif kind == 1:  # timeout check
            if i in waiting:
                waiting.remove(i)
                stats["timeouts"] += 1
                stats["shed"] += 1
                outcomes[i] = {"outcome": "timeout",
                               "queue_seconds": now - float(arrivals[i][0])}
                drain(now)
        else:  # arrival
            if not waiting and fits(min(float(arrivals[i][1]), capacity)):
                start(i, now)
            elif len(waiting) >= queue_limit:
                stats["shed"] += 1
                outcomes[i] = {"outcome": "queue-full", "queue_seconds": 0.0}
            else:
                waiting.append(i)
                stats["peak_queue_depth"] = max(stats["peak_queue_depth"],
                                                len(waiting))
                if queue_timeout is not None:
                    heapq.heappush(events,
                                   (now + float(queue_timeout), 1, i))
    return {"outcomes": outcomes, **stats}


# -- per-tenant lanes ----------------------------------------------------------


class TenantLanes:
    """Per-tenant backpressure in front of the admission queue.

    Each tenant gets a *lane* with a bounded in-flight depth (requests
    queued or running on its behalf).  A request past the bound is shed
    immediately with a typed :class:`~repro.errors.AdmissionError`
    (reason ``"lane-full"``) instead of entering the shared admission
    queue — one chatty tenant cannot occupy every queue slot and starve
    the rest.  The session server wraps each query request in
    :meth:`enter` / :meth:`leave`; the shared
    :class:`AdmissionController` behind it still owns memory capacity
    and global queueing.
    """

    def __init__(self, depth: int = 4) -> None:
        if depth < 1:
            raise ValueError(f"lane depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.admitted_total = 0
        self.shed_total = 0
        self._inflight = {}
        self._lock = threading.Lock()

    def enter(self, tenant: str) -> None:
        """Take one in-flight slot in ``tenant``'s lane or shed."""
        tenant = str(tenant)
        with self._lock:
            depth = self._inflight.get(tenant, 0)
            if depth >= self.depth:
                self.shed_total += 1
                raise AdmissionError(
                    "lane-full", 0.0,
                    f"tenant {tenant!r} already has {depth} requests "
                    f"in flight (lane depth {self.depth})",
                )
            self._inflight[tenant] = depth + 1
            self.admitted_total += 1

    def leave(self, tenant: str) -> None:
        """Return ``tenant``'s slot (pairs with a successful enter)."""
        tenant = str(tenant)
        with self._lock:
            depth = self._inflight.get(tenant, 0) - 1
            if depth > 0:
                self._inflight[tenant] = depth
            else:
                self._inflight.pop(tenant, None)

    def depth_of(self, tenant: str) -> int:
        """Current in-flight depth of one tenant's lane."""
        with self._lock:
            return self._inflight.get(str(tenant), 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": self.depth,
                "tenants": dict(sorted(self._inflight.items())),
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }


# -- circuit breaker -----------------------------------------------------------


class CircuitBreaker:
    """Trips a FUDJ callback library after N consecutive failures.

    ``threshold=None`` disables the breaker entirely (every method is a
    cheap no-op), which is the default for un-governed databases.  State
    is per join-library name: every failing callback counts immediately
    (so a quarantined query full of poison records can trip mid-query),
    while the streak only resets when a whole query completes for the
    library — a failing query cannot launder its streak through its own
    earlier successful callbacks.  A tripped library stays open —
    failing fast with :class:`~repro.errors.BreakerOpenError` — until
    :meth:`reset`.
    """

    def __init__(self, threshold: int = None) -> None:
        self.threshold = threshold
        self.failures = {}
        self.open = set()
        self.trips = 0
        self.rejections = 0

    @property
    def enabled(self) -> bool:
        return self.threshold is not None

    def check(self, join_name: str) -> None:
        """Raise when the library's breaker is open (query entry point)."""
        if join_name in self.open:
            self.rejections += 1
            raise BreakerOpenError(join_name,
                                   self.failures.get(join_name, 0),
                                   self.threshold)

    def record_failure(self, join_name: str) -> None:
        if not self.enabled:
            return
        count = self.failures.get(join_name, 0) + 1
        self.failures[join_name] = count
        if count >= self.threshold and join_name not in self.open:
            self.open.add(join_name)
            self.trips += 1

    def record_success(self, join_name: str) -> None:
        if not self.enabled or join_name in self.open:
            return
        self.failures[join_name] = 0

    def reset(self, join_name: str = None) -> None:
        """Close the breaker (one library, or all when name is None)."""
        if join_name is None:
            self.failures.clear()
            self.open.clear()
        else:
            self.failures.pop(join_name, None)
            self.open.discard(join_name)

    def snapshot(self) -> dict:
        return {
            "threshold": self.threshold,
            "open": sorted(self.open),
            "failures": dict(sorted(self.failures.items())),
            "trips": self.trips,
            "rejections": self.rejections,
        }
