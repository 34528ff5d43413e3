"""Forked worker processes for work split into independent tasks.

The stochastic replications (:mod:`.sampling`) and a large ``sweep``
(:mod:`.cli`) split their work into tasks whose results depend on nothing
but the task.  :func:`workers_for` decides, from a size in the caller's own
units and the caller's measured threshold, whether a run pays for worker
processes, and :func:`ordered_map` maps a function over the tasks, in forked
workers or in the calling process.  Results come back in task order either
way, so the output does not depend on the CPU count.

Each worker talks to the calling process over its own pipe: it receives a
task, sends back the result, and waits for the next task.  The calling
process runs no thread for this, so it stays safe to fork, and a worker
that dies is seen at once, as the end of its pipe.  ``multiprocessing`` is
imported only when workers start.
"""

import contextlib
import os
from itertools import islice

# Tasks handed out ahead of the result the caller waits for, per worker:
# enough to keep every worker busy, few enough that the results waiting
# for the caller stay small.
_AHEAD_PER_WORKER = 2

_END = object()  # what next() gives for a task list that has run out


class WorkerLostError(RuntimeError):
    """A worker process ended abruptly, e.g. killed by a signal or the out-of-memory killer."""


def _usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _may_fork():
    """Whether this process can fork safely: a child gets other threads' locks, held or not."""
    import threading

    return hasattr(os, "fork") and threading.active_count() == 1


def workers_for(tasks, size, min_size):
    """Worker processes for a run of ``tasks`` tasks, or 0 to run them in this process.

    A run of at least ``min_size`` (in the units of ``size``) with two or
    more tasks, in a process that may use several CPUs and runs no other
    thread, gets one worker per CPU, at most one per task.
    """
    workers = min(_usable_cpus(), tasks)
    if workers < 2 or size < min_size or not _may_fork():
        return 0
    return workers


def _serve(fn, conn, inherited):
    """Worker loop: send back ``(True, fn(task))`` or ``(False, error)`` for each task received.

    The loop ends when the calling process exits, which closes the pipe; a
    Ctrl-C is left to the calling process, which then stops the workers.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:  # the calling process's ends, so that its exit closes the pipe
        other.close()
    try:
        while True:
            task = conn.recv()
            try:
                outcome = True, fn(task)
            except Exception as exc:
                outcome = False, exc
            conn.send(outcome)
    except (EOFError, BrokenPipeError):
        pass


@contextlib.contextmanager
def ordered_map(fn, tasks, workers, here=0):
    """Context giving an iterator of ``fn(task)`` for every task, in task order.

    With ``workers`` 0 every task runs in this process as the iterator
    reaches it.  Otherwise ``workers`` processes are forked on entry, before
    the caller writes anything, and run the tasks, a few ahead of the
    caller; the first ``here`` tasks run in this process while the workers
    start.  The first error in task order is raised with its type and
    message, and a worker that dies raises :class:`WorkerLostError`.  No
    worker is left once the block exits, however it exits.
    """
    if not workers:
        yield map(fn, tasks)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    tasks = iter(tasks)
    local = list(islice(tasks, here))
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            proc = context.Process(target=_serve, args=(fn, child_conn, [*conns, conn]))
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(conn)
        yield _results(fn, local, tasks, conns)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _results(fn, local, tasks, conns):
    """``fn`` of the ``local`` tasks, here, then of ``tasks``, on the workers at ``conns``."""
    from multiprocessing.connection import wait

    ahead = _AHEAD_PER_WORKER * len(conns)
    idle, busy, done = list(conns), {}, {}
    sent = index = 0  # tasks handed out; the next result to yield
    while True:
        while idle and sent < index + ahead and (task := next(tasks, _END)) is not _END:
            conn = idle.pop()
            conn.send(task)
            busy[conn] = sent
            sent += 1
        if local:  # this process's share, while the workers run the first tasks
            yield from map(fn, local)
            local = ()
        if index == sent:
            return
        if index in done:
            ok, value = done.pop(index)
            index += 1
            if not ok:
                raise value
            yield value
            continue
        for conn in wait(list(busy)):
            try:
                done[busy.pop(conn)] = conn.recv()
            except EOFError:
                raise WorkerLostError(
                    "a worker process ended abruptly (killed by a signal, or out of memory)"
                ) from None
            idle.append(conn)
