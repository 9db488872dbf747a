"""One child process per workload: own address space (so ``peak_rss_mb``
is the workload's own), inputs, oracle, warm state, and a command loop
the parent drives over a pipe.  Exactly one child works at any moment.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import sys
import threading
import time
import traceback
from multiprocessing.connection import Connection

import layers
from workloads import WORKLOADS, Nondeterministic

WARM_UPS = 3


class Runner:
    """The measured side of one workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.state = None
        #: Simulated totals of the first operation; every later one must
        #: repeat them exactly.
        self.totals = None

    def open(self) -> None:
        self.state = self.workload.open()
        for client in range(self.workload.clients):
            for _ in range(WARM_UPS):
                self._same_totals(self.workload.operate(self.state, client))

    def close(self) -> None:
        if self.state is not None:
            self.workload.close(self.state)
            self.state = None

    def _same_totals(self, totals) -> None:
        if self.totals is None:
            self.totals = totals
        elif totals != self.totals:
            raise Nondeterministic(
                f"simulated totals {totals} differ from the run's first "
                f"operation {self.totals}")

    def fresh_setup(self) -> float:
        """Seconds to build everything an operation needs and get the
        first checked answer; torn down, untimed, afterwards."""
        workload = self.workload
        started = time.perf_counter()
        state = workload.open()
        try:
            totals = workload.operate(state)
            elapsed = time.perf_counter() - started
        finally:
            workload.close(state)
        self._same_totals(totals)
        return elapsed

    def slice(self, seconds: float) -> dict:
        """One closed loop of ``seconds``: each client sends its next
        operation when the previous one has answered."""
        workload, state = self.workload, self.state
        latencies = []  # ms, in order of completion, all clients
        failures = []
        seen = set()
        gc.collect()
        cpu_started = time.process_time()
        started = time.perf_counter()
        deadline = started + seconds

        def loop(client: int) -> None:
            while True:
                began = time.perf_counter()
                if began >= deadline:
                    return
                try:
                    totals = workload.operate(state, client)
                except Exception as exc:  # a failed operation, counted
                    failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                latencies.append((time.perf_counter() - began) * 1000.0)
                seen.add(totals)

        if workload.clients == 1:
            loop(0)
        else:
            threads = [threading.Thread(target=loop, args=(client,))
                       for client in range(workload.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        for totals in seen:
            self._same_totals(totals)
        workload.same_history(state)
        out = {"ops": len(latencies), "failed": len(failures),
               "errors": failures[:3], "wall_s": wall, "cpu_s": cpu,
               "latencies_ms": latencies, "peak_rss_mb": peak_rss_mb()}
        if latencies:
            out.update(p50_ms=statistics.median(latencies),
                       ops_per_s=len(latencies) / wall,
                       cpu_ms_per_op=cpu * 1000.0 / len(latencies))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(pipe, name: str, seed: int, quick: bool, results_dir: str) -> None:
    """Serve the parent's commands.  Replies are ``("ok", payload)`` or
    ``("error", traceback)``; after an error the child exits."""
    runner = None
    try:
        started = time.perf_counter()
        workload = WORKLOADS[name](seed, quick)
        generated = time.perf_counter()
        workload.prepare()
        prepared = time.perf_counter()
        runner = Runner(workload)
        runner.open()
        pipe.send(("ok", {"datagen_s": generated - started,
                          "oracle_s": prepared - generated,
                          "warmup_s": time.perf_counter() - prepared}))
        while True:
            command, *arguments = pipe.recv()
            if command == "setup":
                reply = runner.fresh_setup()
            elif command == "slice":
                reply = runner.slice(*arguments)
            elif command == "trace":
                reply = layers.traced_pass(runner, *arguments, results_dir)
            elif command == "finish":
                runner.close()
                pipe.send(("ok", {
                    "stray_threads": [t.name for t in threading.enumerate()
                                      if t is not threading.current_thread()],
                    "stray_processes": [
                        p.name for p in multiprocessing.active_children()],
                }))
                return
            else:
                raise ValueError(f"unknown command {command!r}")
            pipe.send(("ok", reply))
    except EOFError:
        pass  # the parent hung up: it is stopping every child
    except Exception:  # reported to the parent, which stops the run
        pipe.send(("error", traceback.format_exc()))
    finally:
        if runner is not None:
            runner.close()
        pipe.close()


if __name__ == "__main__":
    # perf/run.py starts this with the socket's descriptor and the
    # workload on the command line, and src/ and perf/ on PYTHONPATH.
    fd, name, seed, quick, results_dir = sys.argv[1:]
    main(Connection(int(fd)), name, int(seed), bool(int(quick)), results_dir)
