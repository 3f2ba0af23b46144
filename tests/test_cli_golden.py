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
(``main`` loads the model, ``_emit`` writes), and the refactor keeps every
byte of it.

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
        0, (
            'PASS channels_completely_positive',
            'PASS channels_trace_preserving',
            'PASS entropy_observables_thermal',
            'PASS unravelings_resum_to_channels',
            'report: OUT.json'),
        digest='e164abb816b57e35c7e82f8baa257d708d582ab4cd9380e7c75795d524eefa2d'),
    ('equilibrium_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='02a4bc8a70b0819e8ef9e593223df9fd0061be1a11bd3a1edc3c532541cb2af7'),
    ('equilibrium_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='3ca2a8ebafadc54b013f05deb74ba3277696395177f5be87b166cc6c653b4c87'),
    ('equilibrium_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='2e11e79a65ac046fac5155150bdf47b6c8a6b7b86cf8bca23c47efbc8f319a8d',
        csv='466dc5cdab28e30d'),
    ('equilibrium_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='e3a0ab3fdcf8acbbdc094bfc283375b4668251c3a45a5aa57c1a6951ca1a1e38',
        csv='687504c0182f605d'),
    ('equilibrium_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: holds (max residual <= threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='39c82a6793bddf8b9ae3ab70b50ef2d21688d44b882ceeef63541e3699c7bd01',
        csv='5fbf24a568b83aa6', plot='5f0d50c42bc56132'),
    ('equilibrium_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='d3c6f013bf216ac5c74c161d48274b44a305fb24069a41563bdf2d9549de91c3',
        csv='66b508dd7f3f84fa', plot='da453cca4ec627fc'),
    ('equilibrium_qubit', 'linresp'): Run(
        0, (
            'matrices: OUT.csv',
            'PASS col_sums_vanish',
            'PASS fluctuation_dissipation',
            'PASS green_kubo_within_1pct',
            'PASS onsager_symmetric',
            'PASS routes_agree',
            'PASS row_sums_vanish',
            'report: OUT.json'),
        digest='30343d02faea1df35232551c945661d10a10ec82862c8b3952654d047506f191',
        csv='4841dc244f2bb72a'),
    ('equilibrium_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='ed98f8bb51fd6742c899385bb0e971ee83d980da58f8cfc1f05ddbb92f7dc026',
        csv='acb2a3e85daf3a49', plot='e3823382e28b722c'),
    ('equilibrium_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='a1afcf63fd9c4e25368909f395e047433057b605810bbdd30ba65ed450e88895',
        csv='c132612440f43908', plot='e3823382e28b722c'),
    ('tri_broken_qubit', 'validate'): Run(
        0, (
            'PASS channels_completely_positive',
            'PASS channels_trace_preserving',
            'PASS entropy_observables_thermal',
            'PASS unravelings_resum_to_channels',
            'report: OUT.json'),
        digest='5ab195a7356c9f7c7acda9fd0b79f5d1396e6d773e42256b1956aee48ae0a8f5'),
    ('tri_broken_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='ef4565592a0dc81ccf3a1cc2ca29dbd25150ec45925826ebe2ca8302ca4c3b18'),
    ('tri_broken_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='5cfe69bf21a818ea6202393ca146831ca2782a047df80396022cffe6fceac939'),
    ('tri_broken_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='099c761d2f94e94f62b43b0791642604c6c11399e2a4e314881269ec8676eaf9',
        csv='9009be0eeb65bf5d'),
    ('tri_broken_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='03b806768c7228e2f40088e493c306dfd49eb9e60ddc07e1473292e24fc98987',
        csv='e55ac277369658fb'),
    ('tri_broken_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: violated (max residual > threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='0afa9ebe6187731c350a393a2d395e5900656b2a6c7289274453e4b8a5a08155',
        csv='8e8b34731c3e3714', plot='5f0d50c42bc56132'),
    ('tri_broken_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='9c75a56f39b320fe238a8528ffa5a24f93f2051656b2cb966f785c7a87c6ece9',
        csv='a5251c2a621f2c32', plot='da453cca4ec627fc'),
    ('tri_broken_qubit', 'linresp'): Run(
        2, (),
        stderr=('error: kinetic coefficients are defined at equilibrium; '
                'joint-invariance residual is 1.920e-01\n')),
    ('tri_broken_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='80a67284952711973c31c98976db07ba1b4c7ad9abb71a934eeafbefbf37e872',
        csv='cbe88b949f38b4b6', plot='e3823382e28b722c'),
    ('tri_broken_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='9aeb7dc108cafdd9f835bc6bcc4c72eb1e95509ac20e2ae51e9b77e5938059ed',
        csv='d216452c3446f839', plot='e3823382e28b722c'),
    ('two_temperature_qubit', 'validate'): Run(
        0, (
            'PASS channels_completely_positive',
            'PASS channels_trace_preserving',
            'PASS entropy_observables_thermal',
            'PASS unravelings_resum_to_channels',
            'report: OUT.json'),
        digest='1bd5251302932a756a9d1b716824c768a0b69c78a7fd0e54ea4ec5a04530d803'),
    ('two_temperature_qubit', 'classify'): Run(
        0, (
            'PASS chain_consistent_with_generator',
            'report: OUT.json'),
        digest='60f6eb9927604dc83d3f0c7253e50cd8d41a1a9e6be85291b9f38540fcd1e4eb'),
    ('two_temperature_qubit', 'ess'): Run(
        0, (
            'PASS decomposition_reconstructs',
            'PASS fixed_point',
            'PASS marginal_is_chain_stationary',
            'report: OUT.json'),
        digest='fd8f157dfac2769116a131ba01a29ba0b8eb17391f002b9c21c1ced16edfb43d'),
    ('two_temperature_qubit', 'simulate'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='0a622c6e7fd6dfb915416ce58966f1a660ae881d3ecc26df62eedc80d6c19466',
        csv='ac29b5e82aa59628'),
    ('two_temperature_qubit', 'simulate --stationary'): Run(
        0, (
            'totals: OUT.csv',
            'PASS entropy_rates_within_5_stderr',
            'report: OUT.json'),
        digest='f4838c5fdf4f430fda2f0642b17b6284c8bb65e8f283c27f789e3278074759bf',
        csv='15dbe38259561b3a'),
    ('two_temperature_qubit', 'cumulant'): Run(
        0, (
            'gc symmetry: holds (max residual <= threshold 1e-08)',
            'ray: OUT.csv  plot: OUT_plot.py',
            'PASS vanishes_at_origin',
            'report: OUT.json'),
        digest='8fdbe955df002d88fe5b6167bff2dfa59cd2af4412ec786a19491fa5571aa257',
        csv='dc77c1294369f6c4', plot='5f0d50c42bc56132'),
    ('two_temperature_qubit', 'ratefn'): Run(
        0, (
            'grid: OUT.csv  plot: OUT_plot.py',
            'PASS maximizers_interior',
            'PASS transform_finite_on_grid',
            'report: OUT.json'),
        digest='c42a5db7f82bbff02dee0273d52b38cd852b06ac3aa6832ade06c6741928a12f',
        csv='3d15ac85dce47d85', plot='da453cca4ec627fc'),
    ('two_temperature_qubit', 'linresp'): Run(
        2, (),
        stderr=('error: kinetic coefficients are defined at equilibrium; '
                'joint-invariance residual is 4.407e-02\n')),
    ('two_temperature_qubit', 'adiabatic linear'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='b92bf6334c613fbb56d869614f1663781adf63627d575b86bc7a9abeddab09f4',
        csv='eb00565f0188ef57', plot='e3823382e28b722c'),
    ('two_temperature_qubit', 'adiabatic smoothstep'): Run(
        0, (
            'plateaus: OUT.csv  plot: OUT_plot.py',
            'PASS primitive_along_path',
            'PASS tracking_error_decreases',
            'report: OUT.json'),
        digest='36d2c1d25b78f763a446ae408b6ff686dc63d01897cad5e0dd81fc64453e44a3',
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
