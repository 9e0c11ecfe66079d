"""forked.run on its own: frames, failures and the reaping of its worker.

Each test runs work(send) in a real forked worker and lead(receive) here;
the clean_exit fixture asserts that no worker and no pipe end outlives it.
"""
import os

import numpy as np
import pytest

from pktdetect import forked

pytestmark = pytest.mark.usefixtures("no_hang", "clean_exit")


def _bytes(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def test_no_worker_is_lead_alone(forks):
    seen = []
    assert forked.run(None, seen.append, "test") is None
    assert seen == [None] and not forks


@pytest.mark.parametrize("n_cpus, n_chunks, workers", [
    (1, 10, 0), (2, 10, 1), (64, 10, 1), (2, 1, 0), (2, 2, 1), (64, 1, 0),
    (2, 0, 0)])
def test_worker_count(monkeypatch, n_cpus, n_chunks, workers):
    # gen's and the sweep's rule: one worker beside the caller iff it has
    # at least two usable CPUs and two chunks, however many CPUs there are
    monkeypatch.setattr(forked, "usable_cpus", lambda: n_cpus)
    assert forked.worker_count(n_chunks) == workers


def test_frame_larger_than_the_pipe():
    big = _bytes(3 * forked.PIPE_BYTES + 13)
    got = []

    def work(send):
        send(big)
        send(big[:5], big[5:])

    def lead(receive):
        got.append(receive())
        got.append(receive())

    forked.run(work, lead, "test")
    assert got[0] == got[1] == big.tobytes()


def test_frame_that_ends_early(monkeypatch, forks, kills):
    # the worker writes a frame's length and part of its body, then exits
    # with status 0: lead must not take the part for the frame
    def short(fd, buffers, report=False):
        os.write(fd, (100).to_bytes(forked._LENGTH, "little", signed=True))
        os.write(fd, bytes(40))
        os._exit(0)

    monkeypatch.setattr(forked, "_send", short)

    def work(send):
        send(_bytes(100))

    with pytest.raises(RuntimeError, match="a worker's frame ends early"):
        forked.run(work, lambda receive: receive(), "test")
    assert len(forks) == 1 and kills == forks


def test_frame_lead_never_reads():
    def work(send):
        send(_bytes(10))

    with pytest.raises(RuntimeError, match="test worker sent an unread"):
        forked.run(work, lambda receive: None, "test")


def test_lead_exception_kills_and_reaps_the_workers(forks, kills):
    # the worker blocks on a frame larger than its pipe, which lead never
    # reads, and would never end on its own
    def work(send):
        send(_bytes(2 * forked.PIPE_BYTES))

    def lead(receive):
        raise KeyError("planted in lead")

    with pytest.raises(KeyError, match="planted in lead"):
        forked.run(work, lead, "test")
    assert len(forks) == 1 and kills == forks


@pytest.mark.parametrize("error", [ValueError, KeyError])
@pytest.mark.parametrize("read", [True, False],
                         ids=["raised-by-receive", "raised-by-run"])
def test_worker_exception_keeps_its_type(error, read):
    # read: lead asks the failed worker for a frame; else run raises once
    # lead has returned.  The worker's traceback comes as the cause
    def work(send):
        raise error("planted in a worker")

    def lead(receive):
        if read:
            receive()

    with pytest.raises(error, match="planted in a worker") as info:
        forked.run(work, lead, "test")
    cause = info.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "in a test worker" in str(cause) and "Traceback" in str(cause)
