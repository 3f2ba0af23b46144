"""Forked worker processes for a sampler call split over cores.

``mris.trajectories`` decides whether and where a call is split
(``_ranges``) and which failure it raises (``_split``); this module forks
the workers, gives them outputs they write in place, and reaps them.  It is
imported only by a call that splits, so a call that does not, the command
line's included, loads neither it nor ``mmap`` and ``signal``.
"""

import math
import mmap
import os
import pickle
import signal

import numpy as np


def shared_zeros(shape: tuple, dtype) -> np.ndarray:
    """Zeros of ``shape`` in an anonymous shared mapping: what a forked
    worker writes into it, the caller reads, with nothing copied back."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def start(run_range, ranges, workers: list):
    """Fork one ``Worker`` per (t0, t1) of ``ranges``, appending each to
    ``workers`` as it starts.  An interrupt waits until every forked worker
    is in the list, so that the caller can stop them all."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        for t0, t1 in ranges:
            workers.append(Worker(run_range, t0, t1, mask))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class Worker:
    """A forked process that runs ``run_range(t0, t1)`` with the signal mask
    ``mask`` and leaves through os._exit, never returning into the caller's
    stack; its failure comes back pickled through a pipe."""

    def __init__(self, run_range, t0, t1, mask):
        self.span = t0, t1
        self.fd, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(write)
            raise
        if self.pid:
            os.close(write)
            return
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(self.fd)
            try:
                run_range(t0, t1)
                code = 0
            except BaseException as exc:
                # one that does not pickle ends the worker with exit code 1
                with open(write, "wb") as fh:
                    fh.write(pickle.dumps(exc))
        finally:
            os._exit(code)

    def result(self):
        """Wait for the worker to end; its failure, or None."""
        with open(self.fd, "rb") as fh:
            self.fd = None
            report = fh.read()
        code = self._reap()
        if report:
            return pickle.loads(report)
        if code:
            t0, t1 = self.span
            return RuntimeError(f"sampler worker for trajectories [{t0}, {t1}) "
                                f"ended with exit code {code}")
        return None

    def stop(self):
        """Kill and reap the worker, unless it has been reaped."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return code
