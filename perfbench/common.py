"""Pieces shared by the benchmark's parent process and its children.

This module imports nothing from ``mris``, so the parent can run the cli
workload without loading the package itself.
"""

import json
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

MODEL_FILES = {
    "equilibrium": "models/equilibrium_qubit.json",
    "two_temperature": "models/two_temperature_qubit.json",
    "tri_broken": "models/tri_broken_qubit.json",
}
P_END = [[0.2, 0.8], [0.5, 0.5]]
CLI_CHUNKS = (32, 512)


@dataclass
class Op:
    """A timed operation, labelled ``kind`` or ``kind:variant``.

    ``prepare()`` builds its inputs untimed, ``run(inputs)`` is timed and
    ``check(inputs, result)`` lists the problems with the outputs (empty when
    they are correct).  ``work`` counts the trajectory-steps done (0 where
    that does not apply)."""
    label: str
    prepare: Callable
    run: Callable
    check: Callable
    work: int = 0


def monotonic():
    """CLOCK_MONOTONIC seconds, comparable between processes on one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(op):
    """Run one operation; returns its record.  An exception counts as a
    failed operation and is reported, so one bad call does not end the run."""
    inputs = op.prepare()
    t0 = time.perf_counter()
    try:
        result = op.run(inputs)
        elapsed = time.perf_counter() - t0
        problems = op.check(inputs, result)
    except Exception as exc:        # noqa: BLE001 - counted as a failure
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        problems = [f"{type(exc).__name__}: {exc}"]
    for p in problems:
        print(f"check failed in {op.label}: {p}", file=sys.stderr)
    return {"label": op.label, "s": elapsed, "work": op.work,
            "problems": problems}


def timed_loop(make_pass, seconds, first_pass_extras=()):
    """Run passes of operations until ``seconds`` are used.

    The first pass always completes; after it, an operation starts only if
    its previous duration still fits before the deadline.  ``make_pass(k)``
    returns the operations of pass k.  The ``first_pass_extras`` (checks that
    need not be repeated) run once after the first pass.  Returns the records
    and the reference-kernel timings taken between operations.
    """
    records, ref = [], []
    deadline = time.perf_counter() + seconds
    last = {}
    k = 0
    while True:
        for i, op in enumerate(make_pass(k)):
            if k > 0 and time.perf_counter() + last[i] > deadline:
                return records, ref
            rec = run_op(op)
            last[i] = rec["s"]
            records.append(rec)
            ref.append(ref_kernel())
        if k == 0:
            records.extend(run_op(op) for op in first_pass_extras)
        k += 1


def ref_kernel():
    """A fixed numpy loop; its time tracks how busy the shared host is."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    for _ in range(40):
        x = np.tanh(x @ x * 0.01 + 0.5)
    return time.perf_counter() - t0


def pass_seconds(records):
    """Seconds for one pass over the operation list: the sum over operations
    of the median of each one's timings."""
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["s"])
    return sum(statistics.median(v) for v in by_label.values())


def tail(values, beyond=10):
    """(value, percentile) of the highest percentile with at least ``beyond``
    samples above it, or None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def seeded(tag, seed):
    return random.Random(f"{tag}-{seed}")


def cli_calls(seed):
    """(subcommand, arguments) for one pass of the cli workload.  simulate
    runs once per chunk size and writes to the same prefix: its outputs must
    not depend on the chunk."""
    files = MODEL_FILES
    sim = ["--model", files["two_temperature"], "--steps", "200",
           "--traj", "128", "--stationary",
           "--seed", str(seeded("cli", seed).randrange(2 ** 31))]
    return [
        ("validate", ["--model", files["two_temperature"]]),
        ("classify", ["--model", files["tri_broken"]]),
        ("ess", ["--model", files["equilibrium"]]),
        ("simulate", sim + ["--chunk", str(CLI_CHUNKS[0])]),
        ("cumulant", ["--model", files["equilibrium"]]),
        ("ratefn", ["--model", files["two_temperature"]]),
        ("linresp", ["--model", files["equilibrium"]]),
        ("adiabatic", ["--model", files["two_temperature"],
                       "--p-end", json.dumps(P_END)]),
        ("simulate", sim + ["--chunk", str(CLI_CHUNKS[1])]),
    ]


def read_outputs(prefix):
    """{file name: bytes} of the files a CLI call wrote under ``prefix``."""
    return {p.name: p.read_bytes()
            for p in sorted(prefix.parent.glob(prefix.name + "*"))}


def output_problems(first, sub, prefix):
    """Compare a call's outputs with the first call of the same subcommand."""
    got = read_outputs(prefix)
    if not got:
        return [f"{sub} wrote no files"]
    if sub not in first:
        first[sub] = got
        return []
    return [] if got == first[sub] else [
        f"{sub} outputs differ from its first call"]
