"""forked.run on its own: frames, failures and the reaping of its worker.

Each test runs work(send) in a real forked worker and lead(receive) here;
the clean_exit fixture asserts that no worker and no pipe end outlives it.
"""
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


def test_frame_of_more_buffers_than_one_readv_fills():
    # 3 * _IOV_MAX + 7 buffers, above Linux's own limit of 1024 too, some
    # of them empty, read into buffers split unlike the sender's
    parts = [np.arange(k % 5, dtype=np.int64) + k
             for k in range(3 * forked._IOV_MAX + 7)]
    whole = b"".join(p.tobytes() for p in parts)
    got = []

    def work(send):
        send(*parts)
        send(*parts)

    def lead(receive):
        into = [np.empty_like(p) for p in parts[::-1]]
        got.append(b"".join(b.tobytes() for b in receive(*into)))
        got.append(receive())

    forked.run(work, lead, "test")
    assert got[0] == got[1] == whole


def test_frame_larger_than_the_pipe():
    big = _bytes(3 * forked.PIPE_BYTES + 13)
    got = []

    def work(send):
        send(big)
        send(big[:5], big[5:])

    def lead(receive):
        got.append(receive())
        into = np.empty_like(big)
        receive(into[:forked.PIPE_BYTES + 1], into[forked.PIPE_BYTES + 1:])
        got.append(into.tobytes())

    forked.run(work, lead, "test")
    assert got[0] == got[1] == big.tobytes()


@pytest.mark.parametrize("n_into", [99, 101])
def test_frame_that_does_not_fill_its_buffers(forks, kills, n_into):
    def work(send):
        send(_bytes(100))

    def lead(receive):
        receive(np.empty(n_into, dtype=np.uint8))

    with pytest.raises(RuntimeError, match="does not fill its buffers"):
        forked.run(work, lead, "test")
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
