"""One section of the benchmark, run in a process of its own.

    python3 perfbench/child.py SECTION --root DIR --seed N --seconds S
        --spawned T [--setup-only] [--trace FILE]

SECTION is ``sampling``, ``analysis`` or ``cli`` (the in-process command
line layer; traced runs only).  ``--spawned`` is the CLOCK_MONOTONIC time at
which the parent started this process, so set-up time includes interpreter
start and imports.  With ``--trace FILE`` the section runs one fixed pass
with spans recorded around calls into ``mris`` and writes the spans to FILE.
The last line of stdout is one JSON object.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.linalg

import ops
from common import (Op, cli_calls, monotonic, output_problems, ref_kernel,
                    run_op, seeded, timed_loop)
from mris import (adiabatic, chains, cli, extended, fluctuations, modelfile,
                  models, output, quantum, trajectories)
from spans import SpanRecorder, install, mris_namespaces, summarize


# ---------------------------------------------------------------------------
# tracing targets: public functions, looked up where their callers find them
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sampler_counts(cfg_index):
    def counter(args, kwargs, result):
        cfg = _arg(args, kwargs, cfg_index, "cfg")
        out = {"trajectories.steps": cfg.n_steps * cfg.n_traj}
        if hasattr(result, "floored"):
            out["trajectories.floored"] = result.floored
        return out
    return counter


def _bytes_written(path_index):
    def counter(args, kwargs, _result):
        return {"output.bytes": os.path.getsize(_arg(args, kwargs, path_index, "path"))}
    return counter


def trace_targets():
    plain = [
        (trajectories, "flux_autocorrelation"),
        (fluctuations, "e_of_alpha"), (fluctuations, "rate_function"),
        (fluctuations, "kinetic_coefficients"), (fluctuations, "clt_covariance"),
        (fluctuations, "green_kubo"), (fluctuations, "gc_symmetry_report"),
        (fluctuations, "translation_symmetry_report"),
        (extended, "find_ess"), (extended, "classify_generator"),
        (extended, "ess_decompose"), (extended, "deformed_generator"),
        (extended, "build_generator"),
        (models, "build_model"), (quantum, "choi_verify"),
        (modelfile, "load_model"),
    ]
    targets = [(mod, attr, f"{mod.__name__[5:]}.{attr}", None)
               for mod, attr in plain]
    targets += [
        (chains, "path_stream", "chains.path_stream", None),
        (trajectories, "sample_entropy_process",
         "trajectories.sample_entropy_process", _sampler_counts(1)),
        (trajectories, "ergodic_average", "trajectories.ergodic_average",
         _sampler_counts(2)),
        (trajectories, "enumerate_full_statistics",
         "trajectories.enumerate_full_statistics",
         lambda a, k, r: {"trajectories.enum_branches": len(r.probs)}),
        (fluctuations, "entropy_rate_function", "fluctuations.rate_function", None),
        (adiabatic, "adiabatic_evolve", "adiabatic.adiabatic_evolve",
         lambda a, k, r: {"adiabatic.steps": _arg(a, k, 2, "n_steps")}),
        (output.RunReport, "write", "output.write", _bytes_written(1)),
        (output, "write_csv", "output.write", _bytes_written(0)),
        (output, "write_plot_script", "output.write", _bytes_written(0)),
        # every general (non-Hermitian) eigensolve, whichever library runs it
        (scipy.linalg, "eig", "linalg.eig", None),
        (scipy.linalg, "eigvals", "linalg.eig", None),
        (np.linalg, "eig", "linalg.eig", None),
        (np.linalg, "eigvals", "linalg.eig", None),
    ]
    return targets


def traced_ops(ops, recorder):
    """Run ``ops`` once, each inside a span named after it."""
    return [run_op(dataclasses.replace(op, run=recorder.wrap(f"op.{op.label}", op.run)))
            for op in ops]


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

class Sampling:
    def __init__(self, args):
        self.seed = args.seed
        rng = seeded("sampling-setup", args.seed)
        self.models = ops.sampling_setup(rng.randrange(2 ** 31))
        self.key = rng.randrange(2 ** 40)       # Philox keys of the probes

    def chunk_checks(self):
        rng = seeded("chunk", self.seed)
        return [ops.chunk_check_op(name, sm, rng.randrange(2 ** 40))
                for name, sm in self.models.items()]

    def measure(self, seconds):
        return timed_loop(lambda k: ops.sampling_ops(self.models, self.seed, k),
                          seconds, self.chunk_checks())

    def traced(self, recorder):
        records = traced_ops(ops.sampling_ops(self.models, self.seed), recorder)
        recorder.enabled = False        # checks and probes stay out of the trace
        probes = {}
        records += [run_op(op) for op in self.chunk_checks()]
        records += [self._philox(probes), self._threads2(probes), self._alloc(probes)]
        return records, probes

    def _philox(self, probes):
        """Uniforms per second of the per-trajectory streams alone: 2n + 1
        draws per trajectory, as the sampler takes them."""
        n, n_traj = 1000, 512

        def run(_):
            times = []
            for _rep in range(5):
                t0 = time.perf_counter()
                for t in range(n_traj):
                    stream = chains.path_stream(self.key + t)
                    stream.random(n + 1)
                    stream.random(n)
                times.append(time.perf_counter() - t0)
            probes["chains.philox_uniforms_per_s"] = \
                n_traj * (2 * n + 1) / statistics.median(times)
            return times
        return run_op(Op("probe:philox", lambda: None, run, lambda _i, _r: []))

    def _threads2(self, probes):
        sm = self.models["two_temperature"]
        cfg = trajectories.TrajectoryConfig(500, 1024, seed=self.key, chunk=512,
                                            initial="stationary")

        def run(_):
            svec, seconds = {}, {}
            for threads in (1, 2):
                c = dataclasses.replace(cfg, n_threads=threads)
                t0 = time.perf_counter()
                svec[threads] = trajectories.sample_entropy_process(sm.model, c).svec
                seconds[threads] = time.perf_counter() - t0
            # equal work at both thread counts, so the time ratio is the
            # throughput ratio
            probes["trajectories.threads2_speedup"] = seconds[1] / seconds[2]
            return svec

        def check(_, out):
            return [] if np.array_equal(out[1], out[2]) else [
                "svec differs between one and two threads"]
        return run_op(Op("probe:threads2", lambda: None, run, check))

    def _alloc(self, probes):
        """tracemalloc peak of one sampler call (chunk 512, 500 steps)."""
        sm = self.models["two_temperature"]
        cfg = trajectories.TrajectoryConfig(500, 512, seed=self.key,
                                            initial="stationary")

        def run(_):
            tracemalloc.start()
            try:
                trajectories.sample_entropy_process(sm.model, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            probes["trajectories.sampler_peak_alloc_mb"] = peak / 2 ** 20
            return peak
        return run_op(Op("probe:alloc", lambda: None, run, lambda _i, _r: []))


class Analysis:
    def __init__(self, args):
        self.root, self.seed = args.root, args.seed
        # first-call warm-up on each bundled model
        for name in ops.MODEL_FILES:
            m = ops.load_bundled(args.root, name)
            fluctuations.e_of_alpha(m, np.zeros(m.chain.n))
            extended.classify_generator(m.generator, m.tol)

    def measure(self, seconds):
        return timed_loop(lambda k: ops.analysis_ops(self.root, self.seed), seconds)

    def traced(self, recorder):
        return traced_ops(ops.analysis_ops(self.root, self.seed), recorder), {}


class Cli:
    """The command line layer in-process: ``cli.main`` per subcommand."""

    def __init__(self, args):
        self.seed = args.seed
        self.tmp = Path(args.root) / ".perfbench" / f"cli-{os.getpid()}"

    def traced(self, recorder):
        first, records = {}, []
        self.tmp.mkdir(parents=True)
        try:
            for sub, argv in cli_calls(self.seed):
                prefix = self.tmp / sub
                full = [sub] + argv + ["--out", str(prefix)]

                def run(_, full=full, sub=sub):
                    span = recorder.begin(f"cli.main.{sub}")
                    try:
                        with contextlib.redirect_stdout(io.StringIO()):
                            return cli.main(full)
                    finally:
                        recorder.end(span)

                def check(_, rc, sub=sub, prefix=prefix):
                    problems = [] if rc == 0 else [f"cli.main {sub} returned {rc}"]
                    return problems + output_problems(first, sub, prefix)
                records.append(run_op(Op(f"main:{sub}", lambda: None, run, check)))
        finally:
            shutil.rmtree(self.tmp)
        return records, {}


SECTIONS = {"sampling": Sampling, "analysis": Analysis, "cli": Cli}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("section", choices=sorted(SECTIONS))
    p.add_argument("--root", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder, trace_targets(), mris_namespaces())
    section = SECTIONS[args.section](args)
    out = {"setup_s": monotonic() - args.spawned}
    if not args.setup_only:
        if recorder is None:
            out["records"], out["ref"] = section.measure(args.seconds)
        else:
            out["records"], out["probes"] = section.traced(recorder)
            out["ref"] = [ref_kernel() for _ in range(5)]
            out["summary"] = summarize(recorder.spans)
            out["counters"] = recorder.counters
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump({"section": args.section, "spans": recorder.spans,
                           "counters": recorder.counters}, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
