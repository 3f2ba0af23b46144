"""Golden runs of the command line: every subcommand on every bundled model.

Thirty runs go through ``cli.main`` in process, from the repository root with
relative ``models/...`` paths: the three bundled models, each under
``validate``, ``classify``, ``ess``, ``simulate`` (from the model's initial
state and with ``--stationary``), ``cumulant``, ``ratefn``, ``linresp`` and
``adiabatic`` (linear and smoothstep schedules to one target chain), all at
their default options.  Each run pins its exit code, its stdout with the
``--out`` prefix written as ``OUT``, its stderr, the set of files it writes,
the ``digest`` its JSON report carries, and a sha256 prefix of its CSV and of
its plot script (with the prefix written as ``OUT``).  ``linresp`` on the two
non-equilibrium models exits 2 with a named cause and writes nothing.

The table was recorded before the subcommands came to share one run path
(``main`` loads the model, ``_emit`` writes), and the refactor kept every
byte of it.  It was re-recorded when the verdicts that could not fail were
deleted and report params came to record the tolerances (and ``adiabatic``
its target matrix): the PASS lines of the deleted verdicts and the report
digests moved; exit codes, tables, plot scripts and every report's
``results`` kept their bytes.

The digests depend on LAPACK rounding, as those of
``test_frozen_formulas.py`` do: they were recorded on x86-64 with numpy 2.4
and OpenBLAS, and a different LAPACK (or BLAS kernel) may round the
eigensolves, and so these bytes, differently.
"""

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from mris import cli

ROOT = Path(__file__).resolve().parent.parent
P_END = "[[0.2,0.8],[0.5,0.5]]"

ARGS = {
    "simulate --stationary": ["simulate", "--stationary"],
    "adiabatic linear": ["adiabatic", "--p-end", P_END, "--kind", "linear"],
    "adiabatic smoothstep": ["adiabatic", "--p-end", P_END, "--kind", "smoothstep"],
}


class Run(NamedTuple):
    code: int
    stdout: tuple
    digest: str = None   # the JSON report's own digest
    csv: str = None      # sha256 prefixes of the files, with OUT for the prefix
    plot: str = None
    stderr: str = ""


GOLDEN = {
    ('equilibrium_qubit', 'validate'): Run(
        0, ('report: OUT.json',),
        digest='4211bd186da505762031da19a8afc067267581ecc54b98b559c1d862b70428cf'),
    ('equilibrium_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='1e98bd08390107bf47d08406a109b11d92934c5b0aa07769001456efc8be28e2'),
    ('equilibrium_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='039b75cb2d5e2bf13b17b775194fc014221ba3265c636c824a96bffcc908c93a'),
    ('equilibrium_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='9439c47d4313cee878dfb6dad28a77747311e99263ea4618009171eae28206f8',
        csv='466dc5cdab28e30d'),
    ('equilibrium_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='bab60485dda7d29a219c5a4876cf0769ec3110ef459a919aba6437bb80a02002',
        csv='687504c0182f605d'),
    ('equilibrium_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: holds (max residual <= threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='35fe3be6cc52f0f2150b0c695ba79fe88914238bb54649b2f864a855c582d75b',
        csv='5fbf24a568b83aa6', plot='5f0d50c42bc56132'),
    ('equilibrium_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='74556d73292d33176c1fbff11d3bebb11ed3dc8b079f81b6cf7949c9538bfbcb',
        csv='66b508dd7f3f84fa', plot='da453cca4ec627fc'),
    ('equilibrium_qubit', 'linresp'): Run(
        0, (
            'matrices: OUT.csv',
            'PASS col_sums_vanish',
            'PASS fluctuation_dissipation',
            'PASS green_kubo_within_1pct',
            'PASS onsager_symmetric',
            'PASS row_sums_vanish',
            'report: OUT.json'),
        digest='73e1556ad9234326f25df7f8e8937cb6950118e1292462f5ffbd1d900ec37b58',
        csv='4841dc244f2bb72a'),
    ('equilibrium_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='c3fca98f6314ee1d37b91dce70508d71f0d524515381dc6df8b705e6f6ce1b85',
        csv='acb2a3e85daf3a49', plot='e3823382e28b722c'),
    ('equilibrium_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='1e9e599e78e8118c837e14c19f61de96bc195d0f7e9724e5a68b099a43ae23cd',
        csv='c132612440f43908', plot='e3823382e28b722c'),
    ('tri_broken_qubit', 'validate'): Run(
        0, ('report: OUT.json',),
        digest='a4aaaf1b8c1e2670ecccb400c2f3dbe7f13eb8cc78858a9fa1034905be7a1585'),
    ('tri_broken_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='702ca00e8fd4fd57163357c8f0615a8689174dc6a0a46f56e499a15d9aeb6f76'),
    ('tri_broken_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='23f50ef633faa0ba0a63089f4ca25df3994e42483ca54f035333d793634728be'),
    ('tri_broken_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='06ce2f58808349e342171452be913d313a8775c3707c41c56c812b9299e03edc',
        csv='9009be0eeb65bf5d'),
    ('tri_broken_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='4d63f55db2cd9bc7aceb1562d47c832c289473e0fdd1aae2ce621c2316608f8c',
        csv='e55ac277369658fb'),
    ('tri_broken_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: violated (max residual > threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='79a9dd087105ea600412236e1a55b4ad02730d38736cf766a60ee525b59c70c4',
        csv='8e8b34731c3e3714', plot='5f0d50c42bc56132'),
    ('tri_broken_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='2a0b4d51fa781d7200720200a418ade30eb80829e7704cb5f130c6ad9084e523',
        csv='a5251c2a621f2c32', plot='da453cca4ec627fc'),
    ('tri_broken_qubit', 'linresp'): Run(
        2, (),
        stderr=('error: kinetic coefficients are defined at equilibrium; '
                'joint-invariance residual is 1.920e-01\n')),
    ('tri_broken_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='4762ea13e9a3be43f6a11a7031c4d938de8d0259921b149352218909a1364c04',
        csv='cbe88b949f38b4b6', plot='e3823382e28b722c'),
    ('tri_broken_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='0bcb6e816b811c722d26f674acda5bf33588c007df4ab1a7bc30b75c858ac998',
        csv='d216452c3446f839', plot='e3823382e28b722c'),
    ('two_temperature_qubit', 'validate'): Run(
        0, ('report: OUT.json',),
        digest='19fceb322e939a358e56b4047699856935e55a0ffeea392c418239ff9c3eba00'),
    ('two_temperature_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='f89cf56b0fb43a641a30b098195569262b298f27d4f5b86ec7eddf34ce85b3d6'),
    ('two_temperature_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='a3ac9996dc786e604186faf400da231673cc5725a40bb6d51a83e9250987e66a'),
    ('two_temperature_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='71cd270ea36c3f0d84b0abb38ef08f98d5f86912f63c693cd6d026075e3941d6',
        csv='ac29b5e82aa59628'),
    ('two_temperature_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='9f305935a34a566f615258880966dfcc23fd323c7ac7f728d054202ff6a56e50',
        csv='15dbe38259561b3a'),
    ('two_temperature_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: holds (max residual <= threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='15947063ca31f70089a1ede177a27eb70fc4eaa243495fee36449007fdc0706a',
        csv='dc77c1294369f6c4', plot='5f0d50c42bc56132'),
    ('two_temperature_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='9e60fe2e374c39ca4a0b6de66772b6a80794fb1f63b847204e790ce90773b694',
        csv='3d15ac85dce47d85', plot='da453cca4ec627fc'),
    ('two_temperature_qubit', 'linresp'): Run(
        2, (),
        stderr=('error: kinetic coefficients are defined at equilibrium; '
                'joint-invariance residual is 4.407e-02\n')),
    ('two_temperature_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='02bcdf25981b327afe8f4b85fa233b6ceed05cf455459e0809c02ae117de3c61',
        csv='eb00565f0188ef57', plot='e3823382e28b722c'),
    ('two_temperature_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='1ed76a93010c9666587ad43ba4971df7b4f706a2fb741ffec49de2417237edc6',
        csv='0417a9f9ffebf107', plot='e3823382e28b722c'),
}


def _sha(path: Path, out: str):
    return hashlib.sha256(path.read_bytes().replace(out.encode(), b"OUT")).hexdigest()[:16]


@pytest.mark.parametrize("model, run", GOLDEN)
def test_cli_run_matches_its_golden(model, run, tmp_path, monkeypatch, capsys):
    want = GOLDEN[model, run]
    monkeypatch.chdir(ROOT)
    out = str(tmp_path / "out")
    command, *extra = ARGS.get(run, [run])
    code = cli.main([command, "--model", f"models/{model}.json", *extra, "--out", out])
    captured = capsys.readouterr()
    assert code == want.code
    assert tuple(captured.out.replace(out, "OUT").splitlines()) == want.stdout
    assert captured.err == want.stderr
    files = {".json": want.digest, ".csv": want.csv, "_plot.py": want.plot}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        "out" + suffix for suffix, pinned in files.items() if pinned)
    if want.digest:
        assert json.loads(Path(out + ".json").read_text())["digest"] == want.digest
    for suffix in (".csv", "_plot.py"):
        if files[suffix]:
            assert _sha(Path(out + suffix), out) == files[suffix], suffix
