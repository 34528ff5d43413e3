"""Forked worker processes for work split into independent tasks.

The stochastic replications (:mod:`.sampling`) and a large ``sweep``
(:mod:`.cli`) split their work into tasks whose results depend on nothing
but the task.  :func:`workers_for` decides, from a size in the caller's own
units and the caller's measured threshold, whether a run pays for worker
processes, and :func:`ordered_map` maps a function over the tasks.  It has
one shape: the calling process runs the first task itself while the
workers start, and a worker is forked only for a task that can be handed
out at once, so a run of one task or none forks nothing.  Results come
back in task order, workers or not, so the output does not depend on the
CPU count.

Each worker is forked with ``os.fork`` and talks to the calling process
over two pipes of its own: it reads a task, writes back the result, and
waits for the next task.  Tasks and results cross the pipes as bare
pickles, each written whole with ``os.write``; pickle marks where each one
ends, so each reading end is wrapped once in a buffered file and read with
``pickle.load``.  The calling process runs no thread for this, so it stays
safe to fork; it waits on the result pipes with ``select``, and sees a
worker that dies at once, as the end of its result pipe.  A buffered
reader is safe under ``select`` because a pipe never holds more than one
unread message: a worker writes one result per task and gets its next task
only after that result has been read, so no reader's buffer holds a
message that ``select`` cannot see.  ``pickle`` and ``select`` are imported
only when workers start.
"""

import contextlib
import os
from itertools import chain, islice

# Tasks handed out ahead of the result the caller waits for, per worker.
# Each worker holds one task at a time; the window bounds how many finished
# results wait in the calling process for the caller to take them.
_AHEAD_PER_WORKER = 2

_END = object()  # what next() gives for a task list that has run out


class WorkerLostError(RuntimeError):
    """A worker process ended abruptly, e.g. killed by a signal or the out-of-memory killer."""


def _lost():
    return WorkerLostError("a worker process ended abruptly (killed by a signal, or out of memory)")


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


def workers_for(size, min_size):
    """Worker processes a run may fork, or 0 to run every task in this process.

    A run of at least ``min_size`` (in the units of ``size``), in a process
    that may use several CPUs and runs no other thread, may fork one worker
    per CPU; :func:`ordered_map` forks no more than it has tasks for.
    """
    workers = _usable_cpus()
    if workers < 2 or size < min_size or not _may_fork():
        return 0
    return workers


def _write(fd, data):
    """All of ``data`` to ``fd``, unbuffered: a failed write leaves nothing to flush later."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn, tasks, results):
    """Worker loop: write ``(True, fn(task))`` or ``(False, error)`` for each task read.

    ``tasks`` and ``results`` are the fds of the worker's ends of its two
    pipes: it reads tasks through a buffered file over ``tasks`` and writes
    each result whole to ``results``.  The sibling result readers it
    inherited are left as objects over fds :func:`_fork` closed; the worker
    never reads or closes them.  The loop ends when the calling process
    closes the task pipe or exits; a Ctrl-C is left to the calling process,
    which then stops the workers.
    """
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tasks = os.fdopen(tasks, "rb")
    while True:
        try:
            task = pickle.load(tasks)
        except EOFError:
            return
        try:
            data = pickle.dumps((True, fn(task)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        _write(results, data)


def _fork(fn, workers):
    """Fork a worker running ``fn``; append its ``(pid, task fd, result reader)`` to ``workers``.

    The worker closes the calling process's ends of its own pipes and of its
    siblings' (the fd under each sibling's reader, not the reader object),
    so that the calling process's exit ends every pipe, and it leaves by
    ``os._exit``: it never returns into the caller's code.
    """
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (task_read, task_write, result_read, result_write):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (task_write, result_read,
                       *(fd for _, task, reader in workers for fd in (task, reader.fileno()))):
                os.close(fd)
            _serve(fn, task_read, result_write)
            code = 0
        finally:
            os._exit(code)
    os.close(task_read)
    os.close(result_write)
    workers.append((pid, task_write, os.fdopen(result_read, "rb")))


@contextlib.contextmanager
def ordered_map(fn, tasks, workers):
    """Context giving an iterator of ``fn(task)`` for every task, in task order.

    This process runs the first task itself.  Up to ``workers`` processes
    are forked on entry, before the caller writes anything, one for each
    task after the first among the first ``workers + 1``, and run the other
    tasks, a few ahead of the caller, while this process runs the first.
    With ``workers`` 0, or one task or none, nothing is forked and every
    task runs in this process as the iterator reaches it.  The first error
    in task order is raised with its type and message, and a worker that
    dies raises :class:`WorkerLostError`.  No worker is left once the block
    exits, however it exits.
    """
    tasks = iter(tasks)
    first = list(islice(tasks, workers + 1))
    if len(first) < 2:
        yield map(fn, chain(first, tasks))
        return
    import gc
    import pickle  # here, before the forks, rather than once in every worker
    import signal

    started = []
    # A frozen object is left out of every collection, so the workers'
    # collections do not copy the pages they share with this process.  A
    # caller that froze objects itself keeps its own state.
    freeze = not gc.get_freeze_count()
    try:
        if freeze:
            gc.freeze()
        for _ in first[1:]:
            _fork(fn, started)
        yield _results(fn, first[:1], chain(first[1:], tasks), started)
    finally:
        for pid, task_write, results in started:
            os.kill(pid, signal.SIGKILL)
            os.close(task_write)
            results.close()
        for pid, *_ in started:
            os.waitpid(pid, 0)
        if freeze:
            gc.unfreeze()


def _results(fn, local, tasks, workers):
    """``fn`` of the ``local`` task here while the ``workers`` start, then of ``tasks`` on them."""
    import pickle
    import select

    ahead = _AHEAD_PER_WORKER * len(workers)
    idle, busy, done = list(workers), {}, {}  # busy: result reader -> (worker, task index)
    sent = index = 0  # tasks handed out; the next result to yield
    while True:
        while idle and sent < index + ahead and (task := next(tasks, _END)) is not _END:
            worker = idle.pop()
            try:
                _write(worker[1], pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
            except BrokenPipeError:  # the worker died while it waited for a task
                raise _lost() from None
            busy[worker[2]] = worker, sent
            sent += 1
        if local:  # this process's task, while the workers run the next ones
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
        for results in select.select(list(busy), [], [])[0]:
            worker, i = busy.pop(results)
            try:
                done[i] = pickle.load(results)
            except (EOFError, pickle.UnpicklingError):  # the pipe ended before or inside a pickle
                raise _lost() from None
            idle.append(worker)
