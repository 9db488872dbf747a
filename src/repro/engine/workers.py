"""Supervised process-pool backend: real workers that crash and recover.

The serial backend *simulates* a cluster: per-worker tasks run inline and
faults are charged through the cost model.  This module is the physical
half — ``Database(backend="process")`` ships each COMBINE partition task
to a pool of real worker processes, supervised by the coordinator:

- **Leases + heartbeats.**  Every dispatched task is a lease; workers
  heartbeat every :data:`HEARTBEAT_INTERVAL` seconds while computing, and
  a silent-but-alive worker is flagged (``heartbeat_misses``).
- **Crash detection + re-dispatch.**  A worker process that dies
  mid-lease (``SIGKILL`` in tests, or a planned kill under
  ``FaultPlan(real=True)``) is detected by the supervisor; its task is
  re-dispatched and the loss charged by the retry loop the serial
  backend uses.
- **Speculative re-execution.**  A task overrunning
  ``straggler_detect_factor`` times the median completed-task time (or
  missing heartbeats) gets a speculative copy on an idle worker; first
  result wins.
- **Bounded restart budget.**  Worker respawns per query are capped;
  past the cap the pool marks itself unhealthy and raises
  :class:`~repro.errors.WorkerPoolError`, which the engine catches to
  degrade the query to the serial path.

Determinism contract: result rows are byte-identical to the serial
backend and, under a :class:`~repro.engine.faults.FaultPlan`, so is the
cost accounting.  There is one set of COMBINE kernels, in
:mod:`repro.engine.combine`, written against a *site*.  The serial loop
hands a kernel the local site, which applies every effect — charges,
callback calls, trace attributions, quarantines, breaker events, memory
reservations — to the real context as it happens.  A worker hands the
same kernel a :class:`_WorkerSite`, which logs those effects in order;
the coordinator replays that ledger through the real metrics/tracer/
breaker/accountant as the task function of the one retry loop
(:meth:`ExecutionContext.run_task
<repro.engine.context.ExecutionContext.run_task>`), which re-runs it
per planned fault roll, so every float lands in the same order as the
serial backend.

Only COMBINE tasks ship (they dominate FUDJ cost and close over nothing
but picklable state); SUMMARIZE/PARTITION and the exchanges stay on the
coordinator.  Anything unshippable — an unpicklable join, a serde
failure, a non-callback worker error — makes :func:`run_combine` return
None and the caller runs the kernels on the local site instead.
"""

from __future__ import annotations

import builtins
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from functools import partial
from itertools import count
from multiprocessing import connection as mp_connection

from repro.engine.combine import KERNELS, CombineSite
from repro.engine.faults import FaultPlan, stage_key
from repro.engine.metrics import QueryMetrics
from repro.engine.record import Record
from repro.engine.resources import (
    EntrySpillCodec,
    KeyedEntrySpillCodec,
    QueryResources,
    _rid_of,
    decode_frame,
    encode_frame,
)
from repro.errors import FudjCallbackError, WorkerPoolError

__all__ = ["WorkerPool", "default_pool_size", "run_combine"]

#: Seconds between worker heartbeats while a task lease is held.
HEARTBEAT_INTERVAL = 0.05
#: Heartbeat intervals of silence before a live worker is flagged.
HEARTBEAT_MISS_LIMIT = 10
#: Floor (seconds) under which no task is considered a straggler — keeps
#: speculation from firing on scheduling jitter in tiny queries.
SPECULATION_FLOOR = 0.08
#: How long a worker under ``FaultPlan(real=True)`` genuinely stalls when
#: its straggler roll fires — long enough to trip detection, short enough
#: for tests.
REAL_STRAGGLER_SLEEP = 0.3
#: Supervisor poll granularity (seconds) while waiting on worker pipes.
WAIT_TIMEOUT = 0.05

#: Backoff schedule for *unplanned* worker deaths (no fault plan active):
#: the default plan's capped exponential, same arithmetic as injected
#: crashes so a real SIGKILL is charged like a simulated one.
_DEFAULT_PLAN = FaultPlan()


def default_pool_size(cluster) -> int:
    """Worker processes to run for ``cluster``: bounded by its partition
    count, its core count, the machine, and a small cap (fork + pickle
    overhead swamps any win past a few local processes)."""
    cores = getattr(cluster, "cores", None) or 1
    return max(1, min(cluster.num_partitions, cores, os.cpu_count() or 1, 4))


# -- entry/row transport through the serde layer ------------------------------
#
# COMBINE inputs are (bucket_id, key, record, assignment, raw_key) tuples.
# Records ship as the frames the spill codec writes
# (:class:`~repro.engine.resources.EntrySpillCodec`).  Keys ride alongside
# through the body pickle — they are plain external Python values (or what
# the library's ``prepare`` made of them) that callbacks must see
# unchanged, so re-boxing them is not an option — and so do the carried
# assignments (shared tuples of ints, or None) and the raw keys (the key
# objects again, memoized by the pickler, for a library without
# ``prepare``).
# Anything the codec would pin (a non-int bucket, a non-record, a second
# schema, an unserializable value) falls back to pickling the entries
# wholesale, and if even that fails the caller degrades to the serial
# path.


def _pack_entries(entries: list) -> dict:
    codec = EntrySpillCodec(None)
    frames = [codec.encode(entry) for entry in entries]
    if None in frames:
        return {"codec": "pickle", "entries": entries}
    return {"codec": "serde", "schema": codec.schema, "frames": frames,
            "keys": [entry[1] for entry in entries],
            "rest": [entry[3:] for entry in entries]}


def _unpack_entries(packed: dict) -> list:
    if packed["codec"] == "pickle":
        return packed["entries"]
    keys = iter(packed["keys"])  # a decoded entry takes the next one
    codec = EntrySpillCodec(lambda record: next(keys), packed["schema"])
    return [codec.decode(frame) + rest
            for frame, rest in zip(packed["frames"], packed["rest"])]


def _pack_rows(rows: list, tagged: bool) -> dict:
    records = [row[1] for row in rows] if tagged else rows
    frames = [encode_frame(record.values) for record in records]
    if None in frames:
        return {"codec": "pickle", "rows": rows}
    return {"codec": "serde", "frames": frames,
            "ids": [row[0] for row in rows] if tagged else None}


def _unpack_rows(packed: dict, out_schema, tagged: bool) -> list:
    if packed["codec"] == "pickle":
        return packed["rows"]
    records = [Record(out_schema, decode_frame(frame, 0)[1])
               for frame in packed["frames"]]
    return list(zip(packed["ids"], records)) if tagged else records


# -- portable error transport -------------------------------------------------
#
# FudjCallbackError's 3-arg __init__ breaks default exception pickling, and
# shipping arbitrary user exceptions across the pipe is a liability anyway.
# Errors travel as plain descriptors; callback errors are rebuilt on the
# coordinator with a byte-identical message to the serial backend's, and
# with ``original`` of the same class when that class is a builtin (user
# exception objects are never unpickled).


def _describe_error(exc: BaseException) -> dict:
    if isinstance(exc, FudjCallbackError):
        original = type(exc.original)
        return {
            "kind": "callback",
            "join": exc.join_name,
            "phase": exc.phase,
            "type": original.__name__,
            "builtin": original.__module__ == "builtins",
            "msg": str(exc.original),
        }
    return {"kind": "generic", "type": type(exc).__name__, "msg": str(exc)}


def _rebuild_error(desc: dict) -> FudjCallbackError:
    err = FudjCallbackError.__new__(FudjCallbackError)
    Exception.__init__(
        err,
        f"FUDJ {desc['join']!r} failed in {desc['phase']}: "
        f"{desc['type']}: {desc['msg']}",
    )
    err.join_name = desc["join"]
    err.phase = desc["phase"]
    err.original = RuntimeError(desc["msg"])
    cls = getattr(builtins, desc["type"], None) if desc["builtin"] else None
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            err.original = cls(desc["msg"])
        except TypeError:
            pass  # a builtin whose constructor needs more than a message
    return err


# -- the worker-side execution site -------------------------------------------


class _WorkerResources(QueryResources):
    """The worker's private accountant: same spill machinery, plus an
    ordered log of reservations so the coordinator can replay them
    through its own accountant in the serial order."""

    def __init__(self, cost_model, enforce: bool, spill_dir: str) -> None:
        super().__init__(cost_model, enforce=enforce, spill_dir=spill_dir)
        self.reservations = []

    def _note_reservation(self, stage_name, worker, num_bytes) -> None:
        self.reservations.append(num_bytes)
        super()._note_reservation(stage_name, worker, num_bytes)

    def export(self) -> dict:
        return {
            "reservations": list(self.reservations),
            "spill": {
                "bytes": self.spill_bytes,
                "files": self.spill_files,
                "units": self.spill_units,
                "spilled": self.spilled_items,
                "pinned": self.pinned_items,
            },
        }


class _WorkerSite(CombineSite):
    """One task's stand-in for the execution context inside a worker.

    Where :class:`~repro.engine.combine.LocalSite` charges the stage,
    records a callback, attributes trace units, quarantines a record, or
    touches the breaker, this site only *logs* the event, in order.  The
    coordinator builds it and pickles it into the task body; the export
    ships back to the coordinator, which replays it against the real
    objects (see :func:`_replay`), so the arithmetic and its
    float-summation order match the serial backend exactly.
    """

    def __init__(self, op, ctx, pplan, out_schema, v_cost: float,
                 worker: int) -> None:
        super().__init__(op, ctx, pplan, out_schema, v_cost, worker)
        self.policy = ctx.on_error
        self.translate = op.translate
        self.charges = []
        self.comparisons = 0
        self.attrs = []
        self.calls = {}
        self.child_order = []
        self._child_seen = set()
        self.quarantined = 0
        self.quarantine_log = []
        self.key_conversions = 0
        self.breaker_failures = 0
        self.breaker_ok = False
        #: ``(spilled_items, spill_bytes)`` per spill file written.
        self.spills = []
        #: The worker opens its accountant on arrival (it owns the spill dir).
        self.resources = None

    # -- event log -----------------------------------------------------------

    def charge(self, units: float) -> None:
        self.charges.append(units)

    def add_comparisons(self, count: int) -> None:
        self.comparisons += count

    def add_quarantined(self, count: int) -> None:
        self.quarantined += count

    def _touch_child(self, name: str) -> None:
        # First-touch order of callback spans, so the coordinator creates
        # trace children in the same order the serial backend would.
        if name not in self._child_seen:
            self._child_seen.add(name)
            self.child_order.append(name)

    def attribute(self, name: str, units: float, calls: int = 0) -> None:
        self._touch_child(name)
        self.attrs.append((name, units, calls))

    def note_call(self, name: str, wall: float, ok: bool = True,
                  calls: int = 1) -> None:
        self._touch_child(name)
        entry = self.calls.get(name)
        if entry is None:
            entry = [0, 0, 0.0]
            self.calls[name] = entry
        entry[0] += calls
        if not ok:
            entry[1] += 1
        entry[2] += wall

    # -- context mirrors -----------------------------------------------------

    def _admit(self, items: list, side, price: bool) -> list:
        # ``side`` picks the key function on the local site; a worker
        # cannot re-run key extraction, so keys are cached by record id.
        codec = KeyedEntrySpillCodec(items)
        if self.translate:
            # The serial codec recomputes each restored entry's key
            # through the translation layer, which counts one conversion
            # per decode; the cached-key lookup must stay count-parity.
            inner = codec.rekey

            def rekey(record):
                self.key_conversions += 1
                return inner(record)

            codec.rekey = rekey
        # What ``ExecutionContext.admit`` does with the accountant's
        # answer, logged: the spill, the charge, the trace attribution.
        items, units, spill = self.resources.admit(
            "worker", self.worker, items, codec, price)
        if spill is not None and spill[0]:
            self.spills.append(spill)
        if units:
            self.charge(units)
            if self.traced:
                self.attribute(
                    "spill", units,
                    calls=0 if spill is None else self.resources.spill_files)
        return items

    def guard_record(self, join_name: str, phase: str, fn, *args,
                     detail=None):
        started = time.perf_counter() if self.traced else 0.0
        try:
            result = fn(*args)
        except Exception as exc:
            if self.traced:
                self.note_call(phase, time.perf_counter() - started, ok=False)
            self.breaker_failures += 1
            if self.policy == "fail":
                if isinstance(exc, FudjCallbackError):
                    raise
                raise FudjCallbackError(join_name, phase, exc) from exc
            self.quarantined += 1  # skip counts the drop, keeps no report
            if (self.policy == "quarantine" and len(self.quarantine_log)
                    < QueryMetrics.MAX_QUARANTINE_REPORT):
                self.quarantine_log.append((
                    phase,
                    f"{type(exc).__name__}: {exc}",
                    None if detail is None else repr(detail),
                ))
            return False, None
        if self.traced:
            self.note_call(phase, time.perf_counter() - started)
        self.breaker_ok = True
        return True, result

    def guard_batch(self, join_name: str, phase: str, calls: int, fn,
                    *args):
        started = time.perf_counter() if self.traced else 0.0
        try:
            result = fn(*args)
        except Exception:
            return False, None
        if self.traced and calls:
            self.note_call(phase, time.perf_counter() - started, calls=calls)
        self.breaker_ok = True
        return True, result

    def export(self) -> dict:
        return {
            "charges": self.charges,
            "comparisons": self.comparisons,
            "attrs": self.attrs,
            "calls": [(name, c[0], c[1], c[2])
                      for name, c in self.calls.items()],
            "child_order": self.child_order,
            "quarantined": self.quarantined,
            "quarantine_log": self.quarantine_log,
            "key_conversions": self.key_conversions,
            "breaker_failures": self.breaker_failures,
            "breaker_ok": self.breaker_ok,
            "resources": self.resources.export(),
            "spills": self.spills,
        }


def _run_body(body_bytes: bytes, spill_dir: str):
    """Unpack and execute one task body inside a worker process."""
    try:
        body = pickle.loads(body_bytes)
        site = body["site"]
        site.resources = _WorkerResources(site.model, site.enforce, spill_dir)
    except Exception as exc:
        return "err", {"error": _describe_error(exc), "partial": None}
    try:
        left = _unpack_entries(body["left"])
        right = _unpack_entries(body["right"])
        rows = KERNELS[body["kind"]](site, left, right)
        payload = {"rows": _pack_rows(rows, site.tag), "site": site.export()}
        return "ok", payload
    except Exception as exc:
        return "err", {"error": _describe_error(exc), "partial": site.export()}


def _worker_main(parent_conn, conn, slot_index: int, spill_dir: str) -> None:
    """Worker process entry point.

    Protocol (all over one duplex pipe): the supervisor sends
    ``("task", uid, header)`` followed by the raw pickled body, or
    ``("stop",)``; the worker sends ``("hb", slot, uid)`` heartbeats from
    a daemon thread while computing, then ``(status, uid, payload, pid)``.
    A planned kill (``header["kill"]``) fires *after* the compute and
    *before* the send — the work is genuinely wasted, exactly the crash
    the serial model charges for.
    """
    try:
        parent_conn.close()  # our inherited copy of the supervisor's end
    except Exception:
        pass
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    send_lock = threading.Lock()
    current = {"task": None}

    def heartbeat() -> None:
        while True:
            time.sleep(HEARTBEAT_INTERVAL)
            uid = current["task"]
            if uid is None:
                continue
            try:
                with send_lock:
                    conn.send(("hb", slot_index, uid))
            except Exception:
                return

    threading.Thread(target=heartbeat, daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg[0] == "stop":
            os._exit(0)
        _, uid, header = msg
        try:
            body_bytes = conn.recv_bytes()
        except (EOFError, OSError):
            os._exit(0)
        current["task"] = uid
        status, payload = _run_body(body_bytes, spill_dir)
        if header.get("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        sleep = header.get("sleep", 0.0)
        if sleep:
            time.sleep(sleep)
        current["task"] = None
        try:
            blob = pickle.dumps(
                (status, uid, payload, os.getpid()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            blob = pickle.dumps(
                ("err", uid,
                 {"error": _describe_error(exc), "partial": None},
                 os.getpid()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        try:
            with send_lock:
                conn.send_bytes(blob)
        except (BrokenPipeError, OSError):
            os._exit(0)


# -- the supervisor -----------------------------------------------------------


class _Slot:
    """One worker seat: the live process plus its lease bookkeeping."""

    __slots__ = ("index", "proc", "conn", "spill_dir", "busy", "task_id",
                 "dispatched_at", "last_heartbeat", "hb_flagged", "tasks_ok",
                 "tasks_failed", "restarts", "heartbeats")

    def __init__(self, index: int, proc, conn, spill_dir: str) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.spill_dir = spill_dir
        self.busy = False
        self.task_id = None
        self.dispatched_at = 0.0
        self.last_heartbeat = 0.0
        self.hb_flagged = False
        self.tasks_ok = 0
        self.tasks_failed = 0
        self.restarts = 0
        self.heartbeats = 0


class _TaskState:
    """Supervisor-side state of one task across attempts and copies."""

    __slots__ = ("uid", "header_fn", "body", "kills", "attempt", "deaths",
                 "hb_misses", "running", "first_dispatch", "done",
                 "speculated")

    def __init__(self, uid: int, header_fn, body: bytes, kills: int) -> None:
        self.uid = uid
        self.header_fn = header_fn
        self.body = body
        self.kills = kills
        self.attempt = 0
        self.deaths = 0
        self.hb_misses = 0
        self.running = set()
        self.first_dispatch = None
        self.done = False
        self.speculated = False


class WorkerPool:
    """A supervised pool of real worker processes.

    The pool is long-lived (one per :class:`~repro.database.Database`);
    each query hands it a batch of tasks via :meth:`run_tasks`.  Task ids
    are globally unique, so results from tasks abandoned by a cancelled
    query are recognized and dropped whenever they eventually surface.
    """

    def __init__(self, size: int, restart_budget: int = None) -> None:
        self.size = max(1, int(size))
        self.restart_budget = (
            restart_budget if restart_budget is not None
            else max(4, 2 * self.size)
        )
        self._mp = _mp_context()
        self.spill_root = tempfile.mkdtemp(prefix="fudj-workers-")
        self.healthy = True
        self.restarts_total = 0
        self.heartbeat_misses_total = 0
        self.speculations_total = 0
        self.degradations_total = 0
        self.tasks_ok_total = 0
        self.tasks_failed_total = 0
        self._task_seq = count(1)
        self._closed = False
        self._slots = [self._spawn(i) for i in range(self.size)]

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int) -> _Slot:
        spill_dir = os.path.join(self.spill_root, f"w{index}")
        os.makedirs(spill_dir, exist_ok=True)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        proc = self._mp.Process(
            target=_worker_main,
            args=(parent_conn, child_conn, index, spill_dir),
            name=f"fudj-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Slot(index, proc, parent_conn, spill_dir)

    def _respawn(self, old: _Slot) -> _Slot:
        slot = self._spawn(old.index)
        slot.restarts = old.restarts + 1
        slot.tasks_ok = old.tasks_ok
        slot.tasks_failed = old.tasks_failed
        slot.heartbeats = old.heartbeats
        return slot

    @staticmethod
    def _retire(slot: _Slot) -> _Slot:
        slot.proc = None
        slot.busy = False
        slot.task_id = None
        return slot

    def shutdown(self) -> None:
        """Stop every worker (graceful, then kill) and drop the spill
        tree.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.healthy = False
        for slot in self._slots:
            if slot.proc is None:
                continue
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.proc = None
        shutil.rmtree(self.spill_root, ignore_errors=True)

    # -- between-query maintenance -------------------------------------------

    def tick(self) -> None:
        """Cheap upkeep between queries (exchanges call it through the
        context): recycle workers that died while idle and drain stale
        heartbeats/results left over from abandoned tasks."""
        if self._closed:
            return
        for slot in list(self._slots):
            if slot.proc is None:
                continue
            if not slot.proc.is_alive():
                try:
                    slot.conn.close()
                except OSError:
                    pass
                if self.healthy:
                    self.restarts_total += 1
                    self._slots[slot.index] = self._respawn(slot)
                else:
                    self._retire(slot)
                continue
            try:
                while slot.conn.poll():
                    msg = slot.conn.recv()
                    if msg[0] == "hb":
                        slot.heartbeats += 1
                    else:
                        slot.busy = False
                        slot.task_id = None
            except (EOFError, OSError):
                pass

    def cancel_active(self) -> None:
        """Abandon whatever the workers are doing (query timeout or
        admission error).  Workers cannot be interrupted mid-kernel, but
        their task ids are dead to the supervisor: late results are
        dropped by the next drain and the slots become reusable."""
        self.tick()

    # -- the event loop ------------------------------------------------------

    def run_tasks(self, tasks: list, check_cancel=None,
                  extra_restarts: int = 0, detect_factor: float = 2.0) -> list:
        """Run a batch of tasks, supervising leases end to end.

        ``tasks`` is a list of ``{"header_fn", "body", "kills"}`` dicts;
        ``header_fn(attempt, speculative)`` builds the per-dispatch header
        (planned kills/stalls for ``FaultPlan(real=True)``).  Returns one
        outcome dict per task, in order.  ``extra_restarts`` widens the
        respawn budget by the number of *planned* kills so injected
        faults never exhaust it.  Raises :class:`WorkerPoolError` (and
        marks the pool unhealthy) when the budget runs out.
        """
        if self._closed or not self.healthy:
            raise WorkerPoolError("worker pool is not healthy")
        states = {}
        order = []
        for task in tasks:
            uid = next(self._task_seq)
            order.append(uid)
            states[uid] = _TaskState(
                uid, task["header_fn"], task["body"], task.get("kills", 0)
            )
        pending = deque(order)
        completed = {}
        durations = []
        budget = self.restart_budget + extra_restarts
        spent = 0

        def live_slots():
            return [s for s in self._slots
                    if s.proc is not None and s.proc.is_alive()]

        def finish(slot, uid, status, payload, pid, now):
            st = states[uid]
            st.done = True
            if status == "ok":
                slot.tasks_ok += 1
                self.tasks_ok_total += 1
            else:
                slot.tasks_failed += 1
                self.tasks_failed_total += 1
            wall = now - (st.first_dispatch or now)
            durations.append(wall)
            completed[uid] = {
                "status": status,
                "payload": payload,
                "deaths": st.deaths,
                "hb_misses": st.hb_misses,
                "attempts": st.attempt + 1,
                "wall": wall,
                "pid": pid,
                "speculated": st.speculated,
            }

        def handle_message(slot, msg, now):
            if msg[0] == "hb":
                slot.last_heartbeat = now
                slot.heartbeats += 1
                return
            status, uid, payload, pid = msg
            if slot.task_id == uid:
                slot.busy = False
                slot.task_id = None
            st = states.get(uid)
            if st is None:
                return  # stale result from an abandoned query — drop
            st.running.discard(slot.index)
            if uid not in completed:
                finish(slot, uid, status, payload, pid, now)

        def pump(slot, now):
            while True:
                try:
                    if not slot.conn.poll():
                        return
                    msg = slot.conn.recv()
                except (EOFError, OSError):
                    return
                handle_message(slot, msg, now)

        def dispatch(slot, st, speculative, now):
            header = st.header_fn(st.attempt, speculative)
            try:
                slot.conn.send(("task", st.uid, header))
                slot.conn.send_bytes(st.body)
            except (BrokenPipeError, OSError):
                return False  # died since the liveness check; reaped next round
            slot.busy = True
            slot.task_id = st.uid
            slot.dispatched_at = now
            slot.last_heartbeat = now
            slot.hb_flagged = False
            st.running.add(slot.index)
            if st.first_dispatch is None:
                st.first_dispatch = now
            return True

        while len(completed) < len(states):
            if check_cancel is not None:
                check_cancel()
            now = time.monotonic()
            # 1. Reap dead workers: requeue their leases, respawn within
            #    the budget, retire the seat past it.
            for i, slot in enumerate(self._slots):
                if slot.proc is None or slot.proc.is_alive():
                    continue
                pump(slot, now)  # a result may have landed just before death
                uid = slot.task_id
                if uid is not None:
                    st = states.get(uid)
                    if st is not None:
                        st.running.discard(slot.index)
                        if not st.done:
                            st.deaths += 1
                            if not st.running:
                                st.attempt += 1
                                pending.append(uid)
                slot.busy = False
                slot.task_id = None
                try:
                    slot.conn.close()
                except OSError:
                    pass
                slot.proc.join(timeout=0.1)
                if spent < budget:
                    spent += 1
                    self.restarts_total += 1
                    self._slots[i] = self._respawn(slot)
                else:
                    self._slots[i] = self._retire(slot)
            # Degrade only when every seat is *retired* (its respawn was
            # refused by the budget).  A seat that is merely dead right
            # now — a worker can die between the reap pass and this
            # check — is respawned by the next reap within budget.
            if all(slot.proc is None for slot in self._slots):
                self.healthy = False
                self.degradations_total += 1
                raise WorkerPoolError(
                    "no live worker remains and the restart budget "
                    f"({budget}) is exhausted"
                )
            # 2. Dispatch pending leases to idle live workers.
            idle = [s for s in live_slots() if not s.busy]
            while pending and idle:
                uid = pending.popleft()
                st = states[uid]
                if st.done or st.running:
                    continue
                if not dispatch(idle.pop(), st, False, now):
                    pending.appendleft(uid)
                    break
            # 3. Speculation: one extra copy for a task overrunning the
            #    detect factor (vs the median finished task) or missing
            #    heartbeats — but only after its planned kills played out,
            #    so injected faults stay deterministic.
            median = sorted(durations)[len(durations) // 2] if durations else None
            for uid, st in states.items():
                if st.done or st.speculated or len(st.running) != 1:
                    continue
                if st.attempt < st.kills:
                    continue
                slot = self._slots[next(iter(st.running))]
                if not slot.busy or slot.task_id != uid:
                    continue
                overdue = (
                    median is not None
                    and now - slot.dispatched_at
                    > max(SPECULATION_FLOOR, detect_factor * median)
                )
                if not (overdue or slot.hb_flagged):
                    continue
                idle = [s for s in live_slots() if not s.busy]
                if not idle:
                    break
                if dispatch(idle[0], st, True, now):
                    st.speculated = True
                    self.speculations_total += 1
            # 4. Wait on busy pipes, drain whatever arrived.
            watch = [s for s in live_slots() if s.busy]
            if watch:
                try:
                    ready = mp_connection.wait(
                        [s.conn for s in watch], timeout=WAIT_TIMEOUT
                    )
                except OSError:
                    ready = []
                by_conn = {s.conn: s for s in watch}
                now = time.monotonic()
                for conn in ready:
                    pump(by_conn[conn], now)
            elif len(completed) < len(states):
                time.sleep(0.002)
            # 5. Heartbeat-miss detection (once per lease).
            now = time.monotonic()
            for slot in self._slots:
                if (not slot.busy or slot.hb_flagged or slot.proc is None
                        or not slot.proc.is_alive()):
                    continue
                silence = now - max(slot.last_heartbeat, slot.dispatched_at)
                if silence > HEARTBEAT_MISS_LIMIT * HEARTBEAT_INTERVAL:
                    slot.hb_flagged = True
                    st = states.get(slot.task_id)
                    if st is not None and not st.done:
                        st.hb_misses += 1
                        self.heartbeat_misses_total += 1
        return [completed[uid] for uid in order]

    # -- introspection -------------------------------------------------------

    def snapshot_rows(self) -> list:
        """One dict per worker seat — the ``sys.workers`` table rows."""
        rows = []
        for slot in self._slots:
            alive = slot.proc is not None and slot.proc.is_alive()
            rows.append({
                "slot": slot.index,
                "pid": slot.proc.pid if slot.proc is not None else -1,
                "alive": alive,
                "busy": bool(slot.busy and alive),
                "tasks_ok": slot.tasks_ok,
                "tasks_failed": slot.tasks_failed,
                "restarts": slot.restarts,
                "heartbeats": slot.heartbeats,
                "spill_dir": slot.spill_dir,
            })
        return rows

    def counters(self) -> dict:
        """Pool-lifetime counters (telemetry folds deltas of these)."""
        return {
            "restarts": self.restarts_total,
            "heartbeat_misses": self.heartbeat_misses_total,
            "speculations": self.speculations_total,
            "degradations": self.degradations_total,
            "tasks_ok": self.tasks_ok_total,
            "tasks_failed": self.tasks_failed_total,
        }

    def describe(self) -> str:
        alive = sum(
            1 for s in self._slots
            if s.proc is not None and s.proc.is_alive()
        )
        return (
            f"{self.size} workers ({alive} alive), "
            f"{self.restarts_total} restarts, "
            f"{self.speculations_total} speculations, "
            f"healthy={'yes' if self.healthy else 'no'}"
        )

    def __repr__(self) -> str:
        return f"WorkerPool({self.describe()})"


def _mp_context():
    """Fork when the platform has it (workers inherit the loaded join
    libraries for free); the default start method otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


# -- coordinator-side replay --------------------------------------------------


def _replay(ctx, stage, worker: int, export: dict, join_name: str,
            error: dict = None) -> None:
    """Replay one attempt's worth of a task ledger against the real
    metrics/tracer/breaker/accountant, in the serial order.

    This is the body :meth:`ExecutionContext.run_task` runs in place of
    the task function: it re-runs it per planned crash roll, as it would
    re-run the function, and rolls the result-visible counters at the
    end (comparisons, quarantines) back on every lost attempt.  A ledger
    that ends in a callback failure (``error``) raises it after the
    partial work is charged, with the serial backend's message; the retry
    loop aborts on it as it does when the task function raises.
    """
    for units in export["charges"]:
        stage.charge(worker, units)
    tracer = ctx.tracer
    if tracer.enabled:
        for name in export["child_order"]:
            tracer.attribute(name, 0.0)
        for name, calls, errors, wall in export["calls"]:
            tracer.record_calls(name, calls, wall, errors)
        for name, units, calls in export["attrs"]:
            tracer.attribute(name, units, calls=calls)
    if ctx.breaker is not None:
        for _ in range(export["breaker_failures"]):
            ctx.breaker.record_failure(join_name)
    if export["breaker_ok"]:
        ctx.note_breaker_success(join_name)
    # Spill restores recompute keys through the translator; the serial
    # retry loop re-runs them on every attempt (conversion counts are
    # not rolled back), so the replay adds them per attempt too.
    ctx.translator.unbox_count += export["key_conversions"]
    ctx.resources.absorb(stage.name, worker, export["resources"])
    # The site only knows "worker": spills are logged here, under the
    # real stage name and worker index, once per replayed attempt —
    # exactly when the serial backend's re-run of the task function
    # would log them.
    for spilled_items, spill_bytes in export["spills"]:
        ctx.events.emit("resource.spill", stage=stage.name, worker=worker,
                        spilled_items=spilled_items, spill_bytes=spill_bytes)
    metrics = ctx.metrics
    metrics.comparisons += export["comparisons"]
    for phase, message, detail in export["quarantine_log"]:
        if len(metrics.quarantine_log) < metrics.MAX_QUARANTINE_REPORT:
            metrics.quarantine_log.append({
                "phase": phase,
                "join": join_name,
                "error": message,
                "record": detail,
            })
    metrics.records_quarantined += export["quarantined"]
    if error is not None:
        raise _rebuild_error(error)


def _fault_schedule(plan, key: str, worker: int, real: bool) -> dict:
    """Physical acting script for one task under ``FaultPlan(real=True)``:
    how many times the worker actually dies (capped by the retry budget —
    the *accounting* still aborts doomed tasks from the rolls alone) and
    whether it genuinely stalls."""
    if not real:
        return {"kills": 0, "sleep": 0.0}
    kills = 0
    while kills < plan.max_task_retries and plan.crashes(key, worker, kills):
        kills += 1
    sleep = REAL_STRAGGLER_SLEEP if plan.straggles(key, worker) else 0.0
    return {"kills": kills, "sleep": sleep}


def _make_header_fn(sched: dict):
    def header_fn(attempt: int, speculative: bool) -> dict:
        return {
            "kill": (not speculative) and attempt < sched["kills"],
            "sleep": (
                sched["sleep"]
                if (not speculative and attempt >= sched["kills"])
                else 0.0
            ),
        }
    return header_fn


def run_combine(pool: WorkerPool, op, ctx, stage, kind: str,
                left_parts: list, right_parts: list, pplan, out_schema,
                v_cost: float):
    """Run one COMBINE stage's per-partition tasks on the pool.

    Returns the per-worker row lists (the serial loop's output), or None
    when the stage cannot or should not ship — unpicklable state, a
    serde/transport failure, a non-callback worker error, or an exhausted
    pool — in which case the caller falls through to the serial loop,
    which reproduces any genuine error deterministically.

    Raises exactly what the serial loop would for errors with serial
    parity: :class:`FudjCallbackError` (fail policy),
    :class:`TaskFailedError` (doomed fault rolls), and
    :class:`QueryTimeoutError` — after replaying the partial ledger so
    charges match the serial abort state.
    """
    model = ctx.cost_model
    metrics = ctx.metrics
    plan = ctx.fault_plan
    plan_active = (
        plan is not None and plan.any_faults() and plan.active_for(stage.name)
    )
    key = stage_key(stage.name)
    real = bool(plan_active and plan.real)
    num = ctx.num_partitions
    join_name = op.join.name

    try:
        # Every shipped record needs its spill-stable identity *before*
        # packing: pair dedup and the worker spill codec both key on rid.
        for parts in (left_parts, right_parts):
            for entries in parts:
                for entry in entries:
                    _rid_of(entry[2])
        packed_broadcast = (
            _pack_entries(right_parts[0]) if kind == "theta" else None
        )
        tasks = []
        schedules = []
        input_bytes_list = []
        for worker in range(num):
            left_entries = left_parts[worker]
            right_entries = right_parts[worker]
            packed_right = (
                packed_broadcast if kind == "theta"
                else _pack_entries(right_entries)
            )
            body = pickle.dumps(
                {
                    "kind": kind,
                    "site": _WorkerSite(op, ctx, pplan, out_schema, v_cost,
                                        worker),
                    "left": _pack_entries(left_entries),
                    "right": packed_right,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            sched = (
                _fault_schedule(plan, key, worker, real)
                if plan_active else {"kills": 0, "sleep": 0.0}
            )
            schedules.append(sched)
            tasks.append({
                "header_fn": _make_header_fn(sched),
                "body": body,
                "kills": sched["kills"],
            })
            input_bytes_list.append(
                op._restore_bytes(ctx, left_entries, right_entries)
            )
    except Exception:
        return None  # unshippable state — serial path handles it

    extra = sum(t["kills"] for t in tasks)
    detect = plan.straggler_detect_factor if plan_active else 2.0
    for worker in range(num):
        ctx.events.emit("worker.lease", stage=stage.name, worker=worker)
    try:
        outcomes = pool.run_tasks(
            tasks, check_cancel=ctx.check_cancel,
            extra_restarts=extra, detect_factor=detect,
        )
    except WorkerPoolError:
        ctx.events.emit("worker.degrade", stage=stage.name,
                        reason="pool_exhausted")
        return None  # pool exhausted — degrade to serial

    # Decode everything first: nothing is applied to shared state until
    # the whole batch is known to be representable, so a late transport
    # failure cannot leave half-applied charges behind.
    tagged = op.dedup.requires_shuffle
    decoded = []
    for outcome in outcomes:
        payload = outcome["payload"]
        if outcome["status"] == "ok":
            try:
                rows = _unpack_rows(payload["rows"], out_schema, tagged)
            except Exception:
                return None
            decoded.append((rows, payload["site"], None))
        else:
            desc = payload["error"]
            if desc.get("kind") != "callback" or payload.get("partial") is None:
                return None  # generic failure — serial replay reproduces it
            decoded.append((None, payload["partial"], desc))

    applied = []
    for worker, (rows, export, error) in enumerate(decoded):
        outcome = outcomes[worker]
        if outcome["deaths"]:
            ctx.events.emit("worker.crash", stage=stage.name, worker=worker,
                            deaths=outcome["deaths"])
            ctx.events.emit("worker.redispatch", stage=stage.name,
                            worker=worker, attempts=outcome["attempts"])
        if outcome["hb_misses"]:
            ctx.events.emit("worker.heartbeat_miss", stage=stage.name,
                            worker=worker, misses=outcome["hb_misses"])
        if outcome["speculated"]:
            ctx.events.emit("worker.speculate", stage=stage.name,
                            worker=worker)
        if ctx.tracer.enabled:
            ctx.tracer.worker_span(worker, {
                "pid": outcome["pid"],
                "wall_ms": outcome["wall"] * 1000.0,
                "attempts": outcome["attempts"],
                "deaths": outcome["deaths"],
                "speculated": outcome["speculated"],
            })
        ctx.run_task(
            stage, worker,
            partial(_replay, ctx, stage, worker, export, join_name, error),
            input_bytes_list[worker],
        )
        # Physical recovery accounting: deaths beyond the planned kills
        # (a genuine SIGKILL, an OOM kill) are charged like injected
        # crashes — backoff plus a checkpoint restore of the task input.
        deaths = outcome["deaths"]
        unplanned = deaths - (schedules[worker]["kills"] if real else 0)
        if unplanned > 0:
            backoff_plan = plan if plan is not None else _DEFAULT_PLAN
            for i in range(unplanned):
                penalty = (
                    backoff_plan.backoff_seconds(i + 1)
                    * model.core_ops_per_second
                    + model.checkpoint_restore_units(input_bytes_list[worker])
                )
                stage.charge(worker, penalty)
                metrics.tasks_retried += 1
                metrics.recovery_seconds += model.cpu_seconds(penalty)
        metrics.worker_restarts += deaths
        metrics.heartbeat_misses += outcome["hb_misses"]
        # Credited per finished worker, as the serial loop does, so an
        # abort further down the batch leaves the same count behind.
        stage.records_out += len(rows)
        applied.append(rows)
    return applied
