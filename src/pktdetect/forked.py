"""Work shared between this process and one forked worker process.

`run` forks the worker, runs this process's own part of the work while it
runs, then reads what it has left in its pipe and reaps it.  The worker
talks to this process only through its pipe, in frames: an 8-byte
little-endian signed length, then that many bytes, which this process
reads whole into a new bytearray.  A worker that raises sends its
exception, pickled, as its last frame, marked by a negative length.
`dataset.generate` (whose worker writes shared memory, not frames) and
`streams.evaluate_conventional` (a frame a trial) fork through it, when
one rule says a worker helps (`worker_count`).
"""
from __future__ import annotations

import os
import pickle

_LENGTH = 8  # bytes of a frame's length: one write, so one read takes it
# bytes the worker's pipe holds, where the system lets it (1 MiB is Linux's
# default limit for a process without privileges): about twelve six-point
# sweep trials of about 87 kB each, so the worker runs trials ahead instead
# of the two processes taking turns over a 64 KiB pipe (with 8-trial
# frames the benchmark's sweep took a median 0.269 s against 0.334 s on a
# 2-vCPU host, BENCH_22.json)
PIPE_BYTES = 1 << 20


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def worker_count(n_chunks: int) -> int:
    """The worker processes to fork beside the caller for n_chunks chunks
    of work (`gen`'s chunks of blocks, the sweep's trials): 1 with at
    least two usable CPUs and two chunks, else 0.

    Processes, not threads: a gen block holds the GIL for about half its
    time, and two processes made gen 1.47x (B=40) and 1.25x (B=160) as
    fast as two threads (README, BENCH_19.json).  More than one worker was
    never measured."""
    return int(usable_cpus() >= 2 and n_chunks >= 2)


def run(work, lead, name: str) -> None:
    """lead(receive) in this process while work(send) runs in one forked
    worker process.  With work None it is lead(None) alone, and nothing
    forks.

    In the worker, send(*buffers) sends one frame: the buffers' bytes, in
    order.  Here, receive() returns the worker's next frame, whole, as a
    new bytearray.  The worker's exception arrives pickled and is raised
    here with its type: by receive when lead asks for a frame, else by run
    once lead has returned.  One that cannot be pickled arrives as a
    RuntimeError carrying the worker's traceback; a RuntimeError also
    reports the worker's end before or within the frame receive waits
    for, and a frame lead left unread.  The worker is reaped, and every
    pipe end this process made closed, before run returns or raises; when
    run raises anything but the worker's exit status, the worker is
    killed first.  The worker leaves through os._exit, never returning
    into its parent's stack.  Python 3.12 and later warn
    (DeprecationWarning) when a process that runs other threads forks,
    and BLAS's threads count.
    """
    if work is None:
        lead(None)
        return
    import signal  # here, not at import time, which every CLI call pays for
    r, w = os.pipe()
    held = {r, w}  # this process's pipe ends still open
    pid = None

    def receive():
        frame = _frame(r)
        if frame is None:
            raise RuntimeError(f"a {name} worker ended before its last frame")
        payload, is_report = frame
        if is_report:
            _raise(payload, name)
        return payload

    try:
        _widen(w)
        pid = os.fork()
        if pid == 0:
            _serve(work, w, r)
        held.remove(w)
        os.close(w)
        lead(receive)
        if frame := _frame(r):  # the worker's report, else the pipe's end
            if not frame[1]:
                raise RuntimeError(f"a {name} worker sent an unread frame")
            _raise(frame[0], name)
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in held:
            os.close(fd)
        status = pid and os.waitpid(pid, 0)[1]
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


def _serve(work, w, r):
    """The forked worker's life: close the read end r it inherited, run
    work(send) and on an exception send its report through w.  It leaves
    through os._exit, with status 1 after an exception."""
    code = 0
    try:
        os.close(r)
        work(lambda *buffers: _send(w, buffers))
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


def _frame(fd: int):
    """The next frame in the pipe fd as (payload, whether it is a report),
    or None at the pipe's end.  The payload is a new bytearray."""
    head = os.read(fd, _LENGTH)
    if not head:
        return None
    n = int.from_bytes(head, "little", signed=True)
    payload = bytearray(abs(n))
    view = memoryview(payload)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise RuntimeError("a worker's frame ends early")
        view = view[got:]
    return payload, n < 0


def _raise(report: bytes, name: str):
    """Raise the exception a worker reported."""
    text, pickled = pickle.loads(report)
    try:
        error = pickle.loads(pickled)
    except Exception:  # pickled is None, or does not unpickle
        raise RuntimeError(f"a {name} worker raised:\n{text}") from None
    raise error from RuntimeError(f"in a {name} worker:\n{text}")
