"""Work shared between this process and forked worker processes.

`run` forks the workers, runs this process's own part of the work while
they run, then reads what each has left in its pipe and reaps them all.
A worker talks to this process only through its own pipe, in frames: an
8-byte little-endian signed length, then that many bytes.  A worker that
raises sends its exception, pickled, as its last frame, marked by a
negative length.  `dataset.generate` and `streams.evaluate_conventional`
fork through it, as many workers as one rule gives (`worker_count`).
"""
from __future__ import annotations

import os
import pickle

# processes that share a job at most, the caller included, so one forked
# worker.  Threads were GIL-bound: a gen block holds the GIL for about half
# its time, and two processes made gen 1.47x (B=40) and 1.25x (B=160) as
# fast as two threads (README, BENCH_19.json); more than two was never
# measured
MAX_WORKERS = 2
_LENGTH = 8  # bytes of a frame's length: one write, so one read takes it
_IOV_MAX = 512  # buffers one readv fills at most, within Linux's 1024
# bytes a worker's pipe holds, where the system lets it (1 MiB is Linux's
# default limit for a process without privileges): a sweep chunk of up to
# 0.75 MB fits whole, so the worker runs a chunk ahead instead of the two
# processes taking turns over a 64 KiB pipe (the benchmark's sweep took a
# median 0.269 s against 0.334 s on a 2-vCPU host, BENCH_22.json)
PIPE_BYTES = 1 << 20


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def worker_count(n_chunks: int) -> int:
    """The worker processes to fork for n_chunks chunks of work, beside the
    caller: one per usable CPU but the caller's, at most MAX_WORKERS - 1
    and at most one per chunk after the caller's first."""
    return max(0, min(MAX_WORKERS, usable_cpus(), n_chunks) - 1)


def run(n_workers: int, work, lead, name: str) -> None:
    """lead(receive) in this process while work(k, send) runs in forked
    worker processes k = 0, ..., n_workers - 1.  With no worker it is
    lead(receive) alone, and nothing forks.

    In a worker, send(*buffers) sends one frame: the buffers' bytes, in
    order.  Here, receive(k) returns worker k's next frame as a bytearray,
    and receive(k, *buffers) reads it into the buffers instead, which must
    hold exactly its bytes, and returns them.  A worker's exception
    arrives pickled and is raised here with its type: by receive when lead
    asks that worker for a frame, else by run once lead has returned, the
    first worker's first.  One that cannot be pickled arrives as a
    RuntimeError carrying the worker's traceback; a RuntimeError also
    reports a worker's end without the frame receive waits for, and a
    frame lead left unread.  Every worker is reaped, and every pipe end
    this process made closed, before run returns or raises; if lead or run
    itself fails, the workers are killed first.  A worker leaves through
    os._exit, never returning into its parent's stack.  Python 3.12 and
    later warn (DeprecationWarning) when a process that runs other threads
    forks, and BLAS's threads count.
    """
    import signal  # here, not at import time, which every CLI call pays for
    pipes, pids, reports = [], [], []  # one read end and pid per worker
    held = set()  # this process's pipe ends still open

    def receive(k, *buffers):
        frame = _frame(pipes[k], buffers)
        if frame is None:
            raise RuntimeError(f"a {name} worker ended before its last frame")
        payload, is_report = frame
        if is_report:
            _raise(payload, name)
        return payload

    try:
        for k in range(n_workers):
            r, w = os.pipe()
            held |= {r, w}
            _widen(w)
            pid = os.fork()
            if pid == 0:
                _serve(work, k, w, held - {w})
            pids.append(pid)
            pipes.append(r)
            held.remove(w)
            os.close(w)
        lead(receive)
        for fd in pipes:  # to its end: a worker may still report
            while frame := _frame(fd):
                if not frame[1]:
                    raise RuntimeError(f"a {name} worker sent an unread frame")
                reports.append(frame[0])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in held:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for report in reports:
        _raise(report, name)
    for status in statuses:
        if status:
            raise RuntimeError(f"a {name} worker ended with exit status "
                               f"{os.waitstatus_to_exitcode(status)}")


def _widen(fd: int) -> None:
    """Make the pipe of fd hold PIPE_BYTES, where the system allows."""
    import fcntl
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above its limit
        pass


def _serve(work, k, w, inherited):
    """A forked worker's life: close the pipe ends it inherited, run
    work(k, send) and on an exception send its report.  It leaves through
    os._exit, with status 1 after an exception."""
    code = 0
    try:
        for fd in inherited:
            os.close(fd)
        work(k, lambda *buffers: _send(w, buffers))
    except BaseException as exc:  # reported; a failed report leaves code 1
        code = 1
        import traceback
        text = "".join(traceback.format_exception(exc))
        try:
            pickled = pickle.dumps(exc)
        except Exception:  # the parent raises a RuntimeError with text
            pickled = None
        _send(w, [pickle.dumps((text, pickled))], report=True)
    finally:
        os._exit(code)


def _send(fd: int, buffers, report: bool = False) -> None:
    """Write one frame of the buffers' bytes (C-contiguous) into fd."""
    views = [memoryview(b).cast("B") for b in buffers]
    n = sum(map(len, views))
    head = (-n if report else n).to_bytes(_LENGTH, "little", signed=True)
    for view in [memoryview(head), *views]:
        while view:
            view = view[os.write(fd, view):]


def _frame(fd: int, buffers=()):
    """The next frame in the pipe fd as (payload, whether it is a report),
    or None at the pipe's end.  A report's payload is a new bytearray, and
    so is any other frame's unless it is read into buffers."""
    head = os.read(fd, _LENGTH)
    if not head:
        return None
    n = int.from_bytes(head, "little", signed=True)
    own = n < 0 or not buffers
    if own:
        buffers = (bytearray(abs(n)),)
    views = [v for v in (memoryview(b).cast("B") for b in buffers) if v]
    if sum(map(len, views)) != abs(n):
        raise RuntimeError(f"a frame of {abs(n)} bytes does not fill its "
                           "buffers")
    while views:
        got = os.readv(fd, views[:_IOV_MAX])
        if not got:
            raise RuntimeError("a worker's frame ends early")
        while got:  # drop what this read filled
            filled = min(got, len(views[0]))
            views[0], got = views[0][filled:], got - filled
            if not views[0]:
                views.pop(0)
    return (buffers[0] if own else buffers), n < 0


def _raise(report: bytes, name: str):
    """Raise the exception a worker reported."""
    text, pickled = pickle.loads(report)
    try:
        error = pickle.loads(pickled)
    except Exception:  # pickled is None, or does not unpickle
        raise RuntimeError(f"a {name} worker raised:\n{text}") from None
    raise error from RuntimeError(f"in a {name} worker:\n{text}")
