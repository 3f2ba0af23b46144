"""The mris benchmark.

    python3 perfbench/run.py --workload {sampling,analysis,cli} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload runs in child processes of its own:

* ``sampling``  - the Monte-Carlo samplers (``child.py sampling``);
* ``analysis``  - spectral analysis on freshly loaded models
  (``child.py analysis``);
* ``cli``       - ``python -m mris.cli <sub>`` subprocesses, one per call.

With ``--trace 0`` the workload is timed for S seconds and the end-to-end
metrics are reported.  With ``--trace 1`` the traced run executes one fixed
pass over every section with spans recorded around calls into ``mris`` and
reports the per-layer metrics; it is the same for every workload, so its
counts repeat exactly.  Human-readable lines come first; the last line of
stdout is one JSON object.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (MODEL_FILES, Op, cli_calls, monotonic, output_problems,
                    pass_seconds, tail, timed_loop)
from spans import self_test

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"            # scratch space inside the checkout
RUN_LIMIT_S = 170.0                   # every run ends within 180 s
SETUP_SAMPLES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# counts that depend only on the code, never on the seed or the host
REPEATING_COUNTS = ("extended.eigensolves", "extended.find_ess_calls",
                    "fluctuations.e_evals", "trajectories.steps",
                    "trajectories.enum_branches", "adiabatic.steps")
IMPORT_DEPS = ("scipy.linalg", "scipy.special", "jsonschema")
SECTIONS = ("sampling", "analysis", "cli")
START = time.monotonic()


class BenchError(RuntimeError):
    pass


def remaining(cap):
    left = RUN_LIMIT_S - (time.monotonic() - START)
    if left <= 0:
        raise BenchError("the run used up its time limit")
    return min(cap, left)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(section, args, *, seed=None, setup_only=False, trace=None, cap=120.0):
    seed = args.seed if seed is None else seed
    cmd = [sys.executable, str(HERE / "child.py"), section, "--root", str(ROOT),
           "--seed", str(seed), "--seconds", str(args.seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(trace)]
    cmd += ["--spawned", repr(monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining(cap))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{section} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{section} child exited {proc.returncode}")
    return json.loads(lines[-1])


def section_run(section, args):
    """Set-up samples from set-up-only children, then the measured child."""
    setups = [run_child(section, args, setup_only=True, cap=60.0)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    out = run_child(section, args, cap=args.seconds + 90.0)
    setups.append(out["setup_s"])
    out["setups"] = setups
    return out


# ---------------------------------------------------------------------------
# the cli workload: one subprocess per call
# ---------------------------------------------------------------------------

def cli_invoke(sub, argv, timeout=60.0):
    cmd = [sys.executable, "-m", "mris.cli", sub] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining(timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"mris.cli {sub} timed out") from exc


def cli_ops(args, tmp, first):
    ops = []
    for i, (sub, argv) in enumerate(cli_calls(args.seed)):
        prefix = tmp / sub

        def run(_, sub=sub, argv=argv + ["--out", str(prefix)]):
            return cli_invoke(sub, argv)

        def check(_, proc, sub=sub, prefix=prefix):
            if proc.returncode != 0:
                return [f"{sub} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            return output_problems(first, sub, prefix)
        ops.append(Op(f"{sub}:{i}", lambda: None, run, check))
    return ops


def cli_run(args):
    tmp = WORK / f"cli-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc = cli_invoke("validate", ["--model", MODEL_FILES["two_temperature"]])
            setups.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"cli warm-up failed: {proc.stderr.strip()[-300:]}")
        first = {}
        records, ref = timed_loop(lambda k: cli_ops(args, tmp, first), args.seconds)
    finally:
        shutil.rmtree(tmp)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"setups": setups, "records": records, "ref": ref, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------

def timed(records):
    """The records of the workload's operations, without one-off checks."""
    return [r for r in records
            if r["label"].split(":")[0] not in ("chunk_check", "probe")]


def throughput(records, kind):
    rs = [r for r in records if r["label"].split(":")[0] == kind]
    return sum(r["work"] for r in rs) / sum(r["s"] for r in rs) / 1e6, len(rs)


def section_lines(workload, records):
    """The workload's own metrics, by name and unit (reported, not gated)."""
    lines = []
    if workload == "sampling":
        for name, kind in (("entropy_msteps_per_s", "wide"),
                           ("entropy_long_msteps_per_s", "long"),
                           ("entropy_incr_msteps_per_s", "incr"),
                           ("ergodic_msteps_per_s", "ergodic")):
            value, n = throughput(records, kind)
            lines.append(f"{name} {value:.4f} M traj-steps/s ({n} calls)")
    elif workload == "analysis":
        for kind in ("cumulant", "ratefn", "linresp", "adiabatic", "spectral", "exact"):
            xs = [r["s"] for r in records if r["label"] == kind]
            lines.append(f"{kind}_s {statistics.median(xs):.4f} s "
                         f"(median of {len(xs)})")
    else:
        xs = [r["s"] for r in records]
        lines.append(f"cli_p50_s {statistics.median(xs):.4f} s (median of {len(xs)})")
        t = tail(xs)
        lines.append("cli_tail_s n/a (fewer than 11 calls)" if t is None else
                     f"cli_tail_s {t[0]:.4f} s (p{t[1]:.0f} of {len(xs)} calls)")
    return lines


def end_to_end(args):
    if args.workload == "cli":
        out = cli_run(args)
    else:
        out = section_run(args.workload, args)
    records = out["records"]
    pass_s = pass_seconds(timed(records))
    # Timings on a shared host jump between speed regimes from one run to the
    # next; the reference kernel, timed between the same operations, jumps
    # with them, so a pass counted in reference-kernel times is steadier than
    # one counted in seconds (see README.md).
    metrics = {
        "setup_s": (statistics.median(out["setups"]), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "pass_ref": (pass_s / statistics.median(out["ref"]), "ref-kernels"),
    }
    lines = section_lines(args.workload, records)
    lines.append(f"pass_s {pass_s:.4f} s (sum of per-operation medians)")
    lines.append(f"setup samples {', '.join(f'{s:.4f}' for s in out['setups'])} s")
    return records, metrics, lines, out["ref"]


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def import_breakdown():
    """Cumulative import seconds of ``mris`` and of its heavy dependencies,
    from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mris"],
                          cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=remaining(60.0))
    if proc.returncode != 0:
        raise BenchError(f"import mris failed: {proc.stderr.strip()[-300:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
        if m:
            cumulative[m.group(3).strip()] = int(m.group(2)) / 1e6
    if "mris" not in cumulative:
        raise BenchError("no import time recorded for mris")
    return cumulative


def wall(cmd):
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=remaining(30.0))
    return time.perf_counter() - t0


def cli_process_metrics():
    starts = [wall([sys.executable, "-c", "pass"]) for _ in range(5)]
    imports = [import_breakdown() for _ in range(3)]
    out = {"cli.python_start_s": statistics.median(starts),
           "cli.import_s": statistics.median(i["mris"] for i in imports)}
    for dep in IMPORT_DEPS:
        out[f"cli.import.{dep}_s"] = statistics.median(i.get(dep, 0.0) for i in imports)
    return out


# (metric, traced section, span): the span's total (inclusive) seconds
SPAN_TIMES = (
    ("trajectories.entropy_s", "sampling", "trajectories.sample_entropy_process"),
    ("trajectories.ergodic_s", "sampling", "trajectories.ergodic_average"),
    ("chains.path_stream_s", "sampling", "chains.path_stream"),
    ("trajectories.enum_s", "analysis", "trajectories.enumerate_full_statistics"),
    ("fluctuations.rate_function_s", "analysis", "fluctuations.rate_function"),
    ("fluctuations.kinetic_s", "analysis", "fluctuations.kinetic_coefficients"),
    ("fluctuations.clt_covariance_s", "analysis", "fluctuations.clt_covariance"),
    ("fluctuations.green_kubo_s", "analysis", "fluctuations.green_kubo"),
    ("extended.eig_s", "analysis", "linalg.eig"),
    ("extended.find_ess_s", "analysis", "extended.find_ess"),
    ("extended.classify_s", "analysis", "extended.classify_generator"),
    ("extended.deformed_generator_s", "analysis", "extended.deformed_generator"),
    ("adiabatic.evolve_s", "analysis", "adiabatic.adiabatic_evolve"),
    ("quantum.choi_verify_s", "cli", "quantum.choi_verify"),
    ("modelfile.load_model_s", "cli", "modelfile.load_model"),
    ("output.write_s", "cli", "output.write"),
)
# (metric, traced section, counter)
COUNTERS = (
    ("trajectories.steps", "sampling", "trajectories.steps"),
    ("trajectories.floored", "sampling", "trajectories.floored"),
    ("trajectories.enum_branches", "analysis", "trajectories.enum_branches"),
    ("adiabatic.steps", "analysis", "adiabatic.steps"),
    ("output.bytes", "cli", "output.bytes"),
)
PROBES = (("trajectories.sampler_peak_alloc_mb", "MB"),
          ("trajectories.threads2_speedup", "ratio"),
          ("chains.philox_uniforms_per_s", "1/s"))
SELF_LAYERS = ("trajectories", "chains", "fluctuations", "extended", "adiabatic",
               "models", "quantum", "modelfile", "output", "cli", "linalg", "bench")
CLI_SUBCOMMANDS = ("validate", "classify", "ess", "simulate", "cumulant", "ratefn",
                   "linresp", "adiabatic")
NO_SPAN = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
           "parent_calls": 0, "parent_total_s": 0.0}


def layer_metrics(traced):
    """Per-layer metrics of one traced pass.  ``<layer>.<fn>_s`` is the
    inclusive time of that function's spans; ``self_s.<layer>`` is the self
    time of all the layer's spans in every section, so those add up to the
    whole traced time (``self_s.bench``: the benchmark's own code and mris
    code it calls directly; ``self_s.cli``: ``cli.main`` outside the wrapped
    functions; ``self_s.linalg``: the eigensolvers)."""
    def row(section, name):
        return traced[section]["summary"].get(name, NO_SPAN)

    m = {metric: (row(section, span)["total_s"], "s")
         for metric, section, span in SPAN_TIMES}
    m.update({metric: (traced[section]["counters"].get(name, 0), "count")
              for metric, section, name in COUNTERS})
    m["output.bytes"] = (m["output.bytes"][0], "bytes")
    m.update({name: (traced["sampling"]["probes"][name], unit) for name, unit in PROBES})
    m["models.build_model_s"] = (sum(row(s, "models.build_model")["total_s"]
                                     for s in SECTIONS), "s")
    e = row("analysis", "fluctuations.e_of_alpha")
    misses = e["parent_calls"]           # a call that computes has child spans
    m["fluctuations.e_evals"] = (misses, "count")
    m["fluctuations.e_cache_hit_frac"] = (
        (e["calls"] - misses) / e["calls"] if e["calls"] else 0.0, "fraction")
    m["fluctuations.e_eval_us"] = (
        1e6 * e["parent_total_s"] / misses if misses else 0.0, "us")
    m["extended.eigensolves"] = (row("analysis", "linalg.eig")["calls"], "count")
    m["extended.find_ess_calls"] = (row("analysis", "extended.find_ess")["calls"], "count")

    layer_self = dict.fromkeys(SELF_LAYERS, 0.0)
    for section in SECTIONS:
        for name, r in traced[section]["summary"].items():
            layer = name.split(".")[0]
            layer_self["bench" if layer == "op" else layer] += r["self_s"]
    m.update({f"self_s.{k}": (v, "s") for k, v in layer_self.items()})

    m.update({k: (v, "s") for k, v in traced["process"].items()})
    for sub in CLI_SUBCOMMANDS:
        r = row("cli", f"cli.main.{sub}")
        m[f"cli.main_s.{sub}"] = (r["total_s"] / r["calls"] if r["calls"] else 0.0, "s")
    ref = [x for s in SECTIONS for x in traced[s]["ref"]]
    m["machine.ref_kernel_s"] = (statistics.median(ref), "s")
    return m, ref


def traced_sections(args, seed, tag=""):
    out = {}
    for section in SECTIONS:
        trace = WORK / f"trace-{args.workload}-s{args.seed}-{section}{tag}.json"
        out[section] = run_child(section, args, seed=seed, trace=trace, cap=100.0)
    return out


def traced_run(args):
    problems = [f"span self-test: {e}" for e in self_test()]
    traced = traced_sections(args, args.seed)
    # The counts depend only on the code: a second pass with another seed
    # must reproduce them exactly.
    again = traced_sections(args, args.seed + 1, "-repeat")
    traced["process"] = again["process"] = cli_process_metrics()
    records = [r for t in (traced, again) for s in SECTIONS for r in t[s]["records"]]
    metrics, ref = layer_metrics(traced)
    repeat, _ = layer_metrics(again)
    for k in REPEATING_COUNTS:
        if metrics[k][0] != repeat[k][0]:
            problems.append(f"count {k} is {metrics[k][0]} at seed {args.seed} "
                            f"and {repeat[k][0]} at seed {args.seed + 1}")
    lines = [f"traced pass_s {s} {pass_seconds(timed(traced[s]['records'])):.4f} s"
             for s in SECTIONS]
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return records, metrics, lines, ref, problems


# ---------------------------------------------------------------------------

def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sampling", "analysis", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in ["src/mris/__init__.py", *MODEL_FILES.values()]
               if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a source checkout of mris (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    # one BLAS thread per process: the children never use more cores than
    # the host has, and a small eigensolve gains nothing from threads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    WORK.mkdir(exist_ok=True)

    env = environment(args)
    try:
        if args.trace:
            records, metrics, lines, ref, problems = traced_run(args)
        else:
            records, metrics, lines, ref = end_to_end(args)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # timed between operations, to put co-tenant load beside the figures
    env["machine.ref_kernel_s"] = statistics.median(ref)

    failed = sum(1 for r in records if r["problems"])
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    print(f"ops_failed_frac {failed / len(records):.4f} fraction "
          f"({failed} of {len(records)} operations)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
