"""Parallel point executor with deterministic ordering.

Experiment points are independent — each builds its own simulated
machine — so they fan out across worker processes.  Results are
reassembled in submission order no matter which worker finished first,
keeping parallel output bit-identical to serial output.

Failure handling is three-level:

* a point that *raises* is captured as a failed :class:`PointOutcome`
  (the sweep keeps going and the caller decides the exit code);
* with ``timeout_s`` set, a point whose worker hangs or dies is torn
  down at its deadline and retried up to ``retries`` times on a fresh
  pool; a point that exhausts its retries becomes a failed outcome —
  it is *not* replayed serially in-process, because a genuinely hung
  workload would wedge the whole sweep;
* a *pool* that cannot be used at all (unpicklable worker, fork
  failure, resource limits) degrades the whole run to in-process
  serial execution rather than aborting.

Tracing lives here too: a job given a trace path runs under a fresh
tracer and writes its Chrome trace once it returns, so point functions
only ever see their own payload.
"""

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class PointOutcome:
    """The result (or failure) of one experiment point.

    ``trace`` is the Chrome trace the point wrote (``None`` when it was
    not traced, was replayed from cache, or failed); ``key`` is its
    content address when it went through the cache.
    """

    index: int
    payload: dict = field(repr=False, default=None)
    value: object = None
    error: str = None
    elapsed_s: float = 0.0
    cached: bool = False
    trace: str = None
    key: str = None

    @property
    def ok(self):
        return self.error is None


def effective_jobs(jobs=None, points=None):
    """Resolve the worker count: explicit, else one per CPU, capped at
    the number of points (never spawn idle workers)."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if points is not None:
        jobs = min(jobs, max(1, points))
    return jobs


def _execute(task):
    """Run one (index, func, payload, trace) task; never raises.

    With a trace path the job runs under a fresh tracer and writes its
    Chrome trace there after ``func`` returns; a raising job writes
    none.
    """
    index, func, payload, trace = task
    started = time.perf_counter()
    try:
        if trace is None:
            value = func(payload)
        else:
            from repro.telemetry import recording, write_chrome_trace
            with recording() as tracer:
                value = func(payload)
            write_chrome_trace(tracer, trace)
        return index, value, None, time.perf_counter() - started
    except Exception as exc:
        error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
        return index, None, error, time.perf_counter() - started


def run_points(func, payloads, jobs=None, progress=None, timeout_s=None,
               retries=1, traces=None):
    """Execute ``func(payload)`` for every payload, possibly in parallel.

    Returns a list of :class:`PointOutcome` in payload order.  ``func``
    must be a module-level callable (picklable) for the parallel path;
    anything else silently degrades to serial.  ``progress`` is called
    with each outcome as it completes (completion order, not payload
    order).

    ``timeout_s`` sets a per-job wall-clock deadline: a job that is not
    done by then (hung loop, killed worker) is abandoned, its pool torn
    down, and the job resubmitted on a fresh pool up to ``retries``
    extra times before it becomes a failed outcome.

    ``traces``, a list beside ``payloads``, gives each job a Chrome
    trace path (``None`` = untraced).  ``func`` never sees it; a job
    that succeeds carries its path on ``PointOutcome.trace``.
    """
    payloads = list(payloads)
    if traces is None:
        traces = [None] * len(payloads)
    tasks = [(i, func, payload, trace)
             for i, (payload, trace) in enumerate(zip(payloads, traces))]
    jobs = effective_jobs(jobs, len(tasks))
    outcomes = [None] * len(tasks)

    def finish(index, value, error, elapsed):
        outcomes[index] = PointOutcome(
            index=index, payload=payloads[index], value=value,
            error=error, elapsed_s=elapsed,
            trace=traces[index] if error is None else None)
        if progress is not None:
            progress(outcomes[index])

    if jobs > 1 or timeout_s is not None:
        try:
            if timeout_s is None:
                _run_pool(tasks, jobs, finish)
            else:
                _run_pool_deadline(tasks, jobs, finish, timeout_s, retries)
        except Exception:
            # Pool-level failure: fall back to serial for whatever the
            # pool did not finish.
            pass
    for task in tasks:
        if outcomes[task[0]] is None:
            finish(*_execute(task))
    return outcomes


def _run_pool(tasks, jobs, finish):
    with multiprocessing.Pool(processes=jobs) as pool:
        for result in pool.imap_unordered(_execute, tasks):
            finish(*result)


#: Deadline-polling granularity (seconds).
_POLL_S = 0.02


def _run_pool_deadline(tasks, jobs, finish, timeout_s, retries):
    """apply_async + polling: every job gets its own deadline.

    ``multiprocessing.Pool`` cannot cancel one task, so an expired job
    terminates the whole pool; innocent in-flight jobs are requeued
    without being charged an attempt, the expired one with attempt+1.
    A worker killed by a signal looks identical to a hang (its
    AsyncResult never becomes ready) and takes the same path.
    """
    pending = [(i, 0) for i in range(len(tasks))]   # (index, attempt)
    running = {}                  # index -> (AsyncResult, deadline, attempt)
    pool = multiprocessing.Pool(processes=jobs)
    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, attempt = pending.pop(0)
                result = pool.apply_async(_execute, (tasks[index],))
                running[index] = (result, time.monotonic() + timeout_s,
                                  attempt)
            expired = None
            for index, (result, deadline, attempt) in list(running.items()):
                if result.ready():
                    del running[index]
                    try:
                        _, value, error, elapsed = result.get()
                    except Exception as exc:
                        value, elapsed = None, 0.0
                        error = "".join(traceback.format_exception_only(
                            type(exc), exc)).strip()
                    finish(index, value, error, elapsed)
                elif time.monotonic() > deadline:
                    expired = index
                    break
            if expired is not None:
                _, _, attempt = running.pop(expired)
                if attempt >= retries:
                    finish(expired, None,
                           "timed out after %.1fs (attempt %d of %d)"
                           % (timeout_s, attempt + 1, retries + 1),
                           timeout_s)
                else:
                    pending.insert(0, (expired, attempt + 1))
                for index, (_, _, attempt) in running.items():
                    pending.append((index, attempt))
                running.clear()
                pool.terminate()
                pool.join()
                pool = multiprocessing.Pool(processes=jobs)
                continue
            if running:
                time.sleep(_POLL_S)
    finally:
        pool.terminate()
        pool.join()
