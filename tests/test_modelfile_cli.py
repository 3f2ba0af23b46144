import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mris import cli, extended, fixtures, modelfile, models, output, quantum
from mris.chains import ChainError, MarkovChain
from mris.tolerances import DEFAULT

MODELS = Path(__file__).resolve().parent.parent / "models"
TWO_TEMP = str(MODELS / "two_temperature_qubit.json")
EQUILIBRIUM = str(MODELS / "equilibrium_qubit.json")
BUNDLED = sorted(str(p) for p in MODELS.glob("*.json"))


def _base_dict():
    return modelfile.model_to_dict(fixtures.two_temperature_qubit())


def _dump(tmp_path, doc, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_round_trip_preserves_the_model(tmp_path):
    m = fixtures.two_temperature_qubit()
    path = tmp_path / "round.json"
    modelfile.write_model_file(m, path)
    back = modelfile.load_model(path)
    assert back.labels == m.labels
    np.testing.assert_allclose(back.chain.P, m.chain.P, atol=1e-15)
    for l in m.labels:
        np.testing.assert_allclose(back.channels[l].superop,
                                   m.channels[l].superop, atol=1e-12)
        np.testing.assert_allclose(back.rho_init[l], m.rho_init[l], atol=1e-15)
    assert back.tri is not None
    np.testing.assert_allclose(back.tri.w_sys, m.tri.w_sys, atol=1e-15)


def test_missing_section_is_a_schema_error(tmp_path):
    doc = _base_dict()
    del doc["chain"]
    with pytest.raises(modelfile.ModelFileError, match="chain"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_type_error_reports_its_path(tmp_path):
    doc = _base_dict()
    doc["probes"]["hot"]["beta"] = "warmish"
    with pytest.raises(modelfile.ModelFileError, match=r"probes.hot.beta"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_unknown_top_level_key_is_rejected(tmp_path):
    doc = _base_dict()
    doc["comments"] = "hi"
    with pytest.raises(modelfile.ModelFileError, match="comments"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_unsupported_schema_version(tmp_path):
    doc = _base_dict()
    doc["schema_version"] = 99
    with pytest.raises(modelfile.ModelFileError, match="schema_version"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_non_square_matrix_is_rejected(tmp_path):
    doc = _base_dict()
    doc["system"]["H_S"] = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(modelfile.ModelFileError, match="square"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_probe_labels_must_cover_omega(tmp_path):
    doc = _base_dict()
    doc["omega"] = ["hot", "cold", "warm"]
    doc["chain"]["pi"] = [0.4, 0.3, 0.3]
    doc["chain"]["P"] = [[1 / 3] * 3] * 3
    doc["initial_states"]["warm"] = doc["initial_states"]["hot"]
    with pytest.raises(modelfile.ModelFileError, match="warm"):
        modelfile.load_model(_dump(tmp_path, doc))


def test_scalar_and_pair_complex_forms_agree(tmp_path):
    doc = _base_dict()
    doc["system"]["H_S"] = [[0.0, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    m = modelfile.load_model(_dump(tmp_path, doc))
    ref = fixtures.two_temperature_qubit()
    for l in m.labels:
        np.testing.assert_allclose(m.channels[l].superop,
                                   ref.channels[l].superop, atol=1e-12)


def _set(*keys):
    """A mutation of the base document: keys k0..kn then a value sets
    doc[k0]...[kn] = value."""
    *keys, value = keys

    def mutate(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        return doc
    return mutate


NAN, INF = float("nan"), float("inf")
ROW2 = [[1.0, 0.0], [0.0, 1.0]]

# (mutation of the two-temperature document, JSON path the error must name)
MALFORMED = {
    "ragged H_S": (_set("system", "H_S", 1, [0.0]), "$.system.H_S"),
    "ragged P": (_set("chain", "P", 0, [1.0]), "$.chain.P"),
    "ragged V": (_set("probes", "hot", "V", 2, [0.0, 0.0, 0.0]), "$.probes.hot.V"),
    "ragged initial state": (_set("initial_states", "cold", 0, [1.0]),
                             "$.initial_states.cold"),
    "1x1 initial state": (_set("initial_states", "cold", [[1.0]]),
                          "$.initial_states.cold"),
    "1x1 W_E": (_set("tri", "W_E", "hot", [[1.0]]), "$.tri.W_E.hot"),
    "3x3 W_S": (_set("tri", "W_S", np.eye(3).tolist()), "$.tri.W_S"),
    "4x4 H_S": (_set("system", "H_S", np.eye(4).tolist()), "$.system.H_S"),
    "3 pi entries": (_set("chain", "pi", [0.5, 0.25, 0.25]), "$.chain.pi"),
    "NaN beta": (_set("probes", "hot", "beta", NAN), "$.probes.hot.beta"),
    "Infinity beta": (_set("probes", "cold", "beta", INF), "$.probes.cold.beta"),
    "NaN tau": (_set("probes", "hot", "tau", NAN), "$.probes.hot.tau"),
    "Infinity tau": (_set("probes", "hot", "tau", INF), "$.probes.hot.tau"),
    "NaN pi": (_set("chain", "pi", 0, NAN), "$.chain.pi[0]"),
    "Infinity P": (_set("chain", "P", 1, 1, INF), "$.chain.P[1][1]"),
    "NaN H_S": (_set("system", "H_S", 0, 1, [NAN, 0.0]), "$.system.H_S[0][1][0]"),
    "Infinity H_S": (_set("system", "H_S", 1, 1, INF), "$.system.H_S[1][1]"),
    "NaN tolerance": (_set("tolerances", {"tp": NAN}), "$.tolerances.tp"),
    "Infinity tolerance": (_set("tolerances", {"gap": INF}), "$.tolerances.gap"),
    "zero tolerance": (_set("tolerances", {"gap": 0}), "$.tolerances.gap"),
    "boolean beta": (_set("probes", "hot", "beta", True), "$.probes.hot.beta"),
    "negative beta": (_set("probes", "hot", "beta", -1.0), "$.probes.hot.beta"),
    "zero tau": (_set("probes", "hot", "tau", 0), "$.probes.hot.tau"),
    "extra W_E label": (_set("tri", "W_E", "warm", ROW2), "$.tri.W_E"),
    "extra probe label": (_set("probes", "warm", {}), "$.probes"),
    "missing initial state": (_set("initial_states", {"cold": ROW2}),
                              "$.initial_states"),
    "three-number entry": (_set("system", "H_S", 0, 0, [0, 0, 0]),
                           "$.system.H_S[0][0]"),
    "string entry": (_set("probes", "hot", "H_E", 0, 0, "1"), "$.probes.hot.H_E[0][0]"),
    "fractional dim": (_set("system", "dim", 2.5), "$.system.dim"),
    "boolean schema_version": (_set("schema_version", True), "$.schema_version"),
    "duplicate label": (_set("omega", ["hot", "hot"]), "$.omega"),
    "empty label": (_set("omega", 1, ""), "$.omega[1]"),
    "extra probe key": (_set("probes", "cold", "gamma", 1.0), "$.probes.cold"),
    "non-object document": (lambda doc: [doc], "$"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_names_its_path(case, tmp_path, capsys):
    mutate, path = MALFORMED[case]
    file = _dump(tmp_path, mutate(_base_dict()))
    with pytest.raises(modelfile.ModelFileError, match=re.escape(path) + ":"):
        modelfile.load_model(file)
    assert cli.main(["classify", "--model", file]) == 2
    assert f"error: {path}:" in capsys.readouterr().err


def test_malformed_document_exits_2_without_a_traceback(tmp_path):
    doc = _base_dict()
    doc["system"]["H_S"][1] = [0.0]
    proc = subprocess.run([sys.executable, "-m", "mris.cli", "validate",
                           "--model", _dump(tmp_path, doc)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error: $.system.H_S: expected a square 2x2 matrix" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tolerance_names_are_checked_when_the_file_sets_them(tmp_path):
    """Names are checked only when the file's tolerances are used; values
    always are."""
    file = _dump(tmp_path, _set("tolerances", {"gaps": 1e-3})(_base_dict()))
    with pytest.raises(modelfile.ModelFileError, match=r"\$\.tolerances: .*gaps"):
        modelfile.load_model(file)
    assert modelfile.load_model(file, tol=DEFAULT).tol == DEFAULT


def test_file_tolerances_apply_through_the_cli_under_tol(tmp_path, capsys):
    """DEFAULT, then the file's tolerances, then --tol."""
    file = _dump(tmp_path, _set("tolerances", {"peripheral": 0.5})(_base_dict()))
    assert cli.main(["ess", "--model", file]) == 2
    assert "error: eigenvalue 1 has multiplicity 2" in capsys.readouterr().err
    assert cli.main(["ess", "--model", TWO_TEMP, "--tol", "peripheral=0.5"]) == 2
    capsys.readouterr()
    assert cli.main(["ess", "--model", file, "--tol", "peripheral=1e-8"]) == 0


def test_cli_checks_the_file_tolerance_names(tmp_path, capsys):
    file = _dump(tmp_path, _set("tolerances", {"gaps": 1e-3})(_base_dict()))
    assert cli.main(["classify", "--model", file]) == 2
    assert cli.main(["classify", "--model", file, "--tol", "gap=1e-3"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    assert all(e.startswith("error: $.tolerances: ") and "gaps" in e
               for e in errors)


def test_integral_floats_and_scalar_entries_load_to_the_same_model(tmp_path):
    doc = _base_dict()
    doc["schema_version"] = 1.0
    doc["system"]["dim"] = 2.0
    doc["system"]["H_S"] = [[0, 0], [0, 1]]
    m = modelfile.load_model(_dump(tmp_path, doc))
    ref = fixtures.two_temperature_qubit()
    assert m.dim_sys == 2
    for l in m.labels:
        assert np.array_equal(m.channels[l].superop, ref.channels[l].superop)


def test_bundled_models_load(rng):
    for name in ("two_temperature_qubit", "equilibrium_qubit", "tri_broken_qubit"):
        m = modelfile.load_model(MODELS / f"{name}.json")
        assert m.dim_sys == 2


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_jsonable_and_canonical_json():
    blob = output.jsonable({"z": 1 + 2j, "arr": np.arange(3.0),
                            "bad": float("nan")})
    assert blob["z"] == [1.0, 2.0]
    assert blob["arr"] == [0.0, 1.0, 2.0]
    assert blob["bad"] == "nan"
    s1 = output.canonical_json({"b": 1, "a": 2})
    s2 = output.canonical_json({"a": 2, "b": 1})
    assert s1 == s2


def test_write_csv_full_precision(tmp_path):
    p = tmp_path / "x.csv"
    output.write_csv(p, ["a", "b"], [[1 / 3, 2 / 3]])
    text = p.read_text().splitlines()
    assert text[0] == "a,b"
    a, b = map(float, text[1].split(","))
    assert a == 1 / 3 and b == 2 / 3


# ---------------------------------------------------------------------------
# command line interface (in process)
# ---------------------------------------------------------------------------

def test_tolerance_override_parsing():
    assert cli._parse_tol(["herm=0.5", "gap=1e-3"]) == {"herm": 0.5, "gap": 1e-3}
    for bad in ("nonsense=1", "herm=abc", "herm", "tp=nan", "gap=inf", "gap=0",
                "psd=-1e-9"):
        with pytest.raises(SystemExit) as exc:
            cli._parse_tol([bad])
        assert exc.value.code == 2


def test_bad_tolerance_override_exits_2_naming_it(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--model", TWO_TEMP, "--tol", "tp=nan"])
    assert exc.value.code == 2
    assert "error: --tol.tp: expected a finite number" in capsys.readouterr().err


def test_cli_validate(capsys, tmp_path):
    out = str(tmp_path / "v")
    assert cli.main(["validate", "--model", TWO_TEMP, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "PASS channels_completely_positive" in text
    assert "FAIL" not in text
    doc = json.loads(Path(out + ".json").read_text())
    assert all(doc["verdicts"].values())
    assert doc["digest"]


def test_each_probe_is_decomposed_and_certified_once(monkeypatch, capsys):
    """build_model takes one Kraus decomposition and one Choi certificate per
    probe, and `mris validate` reports the certificates the build kept
    without taking one of its own."""
    calls = []
    for name in ("interaction_kraus_atoms", "choi_verify"):
        original = getattr(quantum, name)

        def counted(*a, _name=name, _fn=original, **k):
            calls.append(_name)
            return _fn(*a, **k)
        for module in (quantum, models, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    m = fixtures.two_temperature_qubit()
    assert calls == ["interaction_kraus_atoms", "choi_verify"] * m.chain.n
    calls.clear()
    assert cli.main(["validate", "--model", TWO_TEMP]) == 0
    assert calls == ["interaction_kraus_atoms", "choi_verify"] * m.chain.n
    assert "FAIL" not in capsys.readouterr().out


def test_cli_validate_reports_time_reversal(capsys, tmp_path):
    """TRI is a property of the model, not a pass/fail check: a model file
    without it still validates."""
    for name, holds in (("two_temperature_qubit", True), ("tri_broken_qubit", False)):
        out = str(tmp_path / name)
        assert cli.main(["validate", "--model", str(MODELS / f"{name}.json"),
                         "--out", out]) == 0
        tri = json.loads(Path(out + ".json").read_text())["results"]["time_reversal"]
        assert tri["holds"] is holds
        assert (tri["max_residual"] <= 1e-10) is holds


def test_cli_classify_and_ess(capsys):
    assert cli.main(["classify", "--model", TWO_TEMP]) == 0
    assert cli.main(["ess", "--model", TWO_TEMP]) == 0
    text = capsys.readouterr().out
    assert "PASS fixed_point" in text
    assert "PASS marginal_is_chain_stationary" in text


def test_cli_simulate_deterministic_across_threads(capsys, tmp_path):
    """204,800 trajectory-steps: by default the run is split over every
    usable core (on a host with two or more, where a fork is safe), and its
    totals are those of one process, at any chunk size."""
    argv = ["simulate", "--model", TWO_TEMP, "--steps", "200", "--traj", "1024",
            "--seed", "7", "--stationary"]
    a, b, c = (str(tmp_path / x) for x in "abc")
    assert cli.main(argv + ["--out", a, "--threads", "1"]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    assert cli.main(argv + ["--out", c, "--chunk", "17"]) == 0
    assert Path(a + ".csv").read_bytes() == Path(b + ".csv").read_bytes()
    assert Path(a + ".csv").read_bytes() == Path(c + ".csv").read_bytes()
    assert json.loads(Path(b + ".json").read_text())["params"]["threads"] is None


def test_cli_cumulant_outputs(capsys, tmp_path):
    out = str(tmp_path / "c")
    assert cli.main(["cumulant", "--model", TWO_TEMP, "--grid-points", "11",
                     "--out", out]) == 0
    csv_lines = Path(out + ".csv").read_text().splitlines()
    assert csv_lines[0] == "a,e"
    assert len(csv_lines) == 12
    plot = Path(out + "_plot.py").read_text()
    assert "matplotlib" in plot and "c.csv" in plot


def test_cli_report_bytes_reproducible(tmp_path):
    a, b = str(tmp_path / "r1"), str(tmp_path / "r2")
    cli.main(["cumulant", "--model", TWO_TEMP, "--grid-points", "7", "--out", a])
    cli.main(["cumulant", "--model", TWO_TEMP, "--grid-points", "7", "--out", b])
    assert Path(a + ".json").read_bytes() == Path(b + ".json").read_bytes()


def test_cli_ratefn(capsys):
    assert cli.main(["ratefn", "--model", TWO_TEMP, "--points", "9",
                     "--alpha-range", "0.3"]) == 0
    text = capsys.readouterr().out
    assert "PASS transform_finite_on_grid" in text


def test_cli_linresp_requires_equilibrium(capsys):
    assert cli.main(["linresp", "--model", TWO_TEMP]) == 2
    assert "equilibrium" in capsys.readouterr().err


def test_cli_linresp_equilibrium(capsys):
    assert cli.main(["linresp", "--model", EQUILIBRIUM]) == 0
    text = capsys.readouterr().out
    assert "PASS onsager_symmetric" in text
    assert "PASS green_kubo_within_1pct" in text


@pytest.fixture
def solves(monkeypatch):
    """Counts of the bordered solves and the steady-state decompositions."""
    calls = {"solve": 0, "decompose": 0}
    for name, key in (("_bordered_solve", "solve"), ("ess_decompose", "decompose")):
        def counting(*args, _f=getattr(extended, name), _key=key, **kwargs):
            calls[_key] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(extended, name, counting)
    return calls


@pytest.mark.parametrize("argv", [
    *(["ess", "--model", p] for p in BUNDLED),
    ["linresp", "--model", EQUILIBRIUM],
    *(["simulate", "--model", p, "--steps", "20", "--traj", "64", "--threads", "1",
       "--stationary"] for p in BUNDLED),
], ids=lambda argv: f"{argv[0]}-{Path(argv[2]).stem}")
def test_one_steady_state_solve_and_decomposition_per_run(argv, solves, capsys):
    """The model solves and decomposes its steady state once, and every
    figure of a run (kappa_1, route (a)'s A^{-1}, the stationary ensemble)
    is read off that one solve."""
    assert cli.main(argv) == 0
    assert solves == {"solve": 1, "decompose": 1}


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: Path(p).stem)
def test_classify_solves_no_steady_state(path, solves, capsys):
    """Classification reads the spectrum alone."""
    assert cli.main(["classify", "--model", path]) == 0
    assert solves == {"solve": 0, "decompose": 0}


def test_classify_then_ess_solves_the_steady_state_once(solves):
    model = modelfile.load_model(TWO_TEMP)
    extended.classify_generator(model.generator, model.tol)
    model.ess()
    assert solves == {"solve": 1, "decompose": 1}


def test_the_kept_steady_state_is_decomposed_once_and_read_only(solves):
    model = fixtures.equilibrium_qubit()
    assert models.check_equilibrium(model) == models.check_equilibrium(model)
    assert solves == {"solve": 1, "decompose": 1}
    ss = model.steady_state
    decomp = ss.decomposition
    kept = [ss.state.blocks, ss.coords, ss.inverse, decomp.pi_plus, *decomp.rho_plus.values()]
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.fixture
def infinite_temperature(tmp_path):
    """equilibrium_qubit with both probes at beta = 0: every entropy
    increment is 0, and so is every steady entropy rate."""
    doc = json.loads(Path(EQUILIBRIUM).read_text())
    for probe in doc["probes"].values():
        probe["beta"] = 0
    return _dump(tmp_path, doc)


def test_cli_simulate_zero_spread_at_its_target_passes(infinite_temperature, capsys, tmp_path):
    out = str(tmp_path / "s")
    assert cli.main(["simulate", "--model", infinite_temperature, "--steps", "100",
                     "--traj", "50", "--out", out]) == 0
    for probe in json.loads(Path(out + ".json").read_text())["results"]["per_probe"].values():
        assert (probe["stderr"], probe["mean_rate"], probe["z"]) == (0.0, 0.0, 0.0)
    assert "PASS entropy_rates_within_5_stderr" in capsys.readouterr().out


def test_cli_simulate_zero_spread_off_its_target_fails(infinite_temperature, monkeypatch,
                                                       capsys, tmp_path):
    """Totals shifted by a constant keep zero spread, but their rate is no
    longer the target: z is infinite and the run fails."""
    from mris import trajectories

    sample_entropy_process = trajectories.sample_entropy_process

    def shifted(*args, **kwargs):
        sample = sample_entropy_process(*args, **kwargs)
        sample.svec += 1.0
        return sample

    monkeypatch.setattr(trajectories, "sample_entropy_process", shifted)
    out = str(tmp_path / "s")
    assert cli.main(["simulate", "--model", infinite_temperature, "--steps", "100",
                     "--traj", "50", "--out", out]) == 1
    for probe in json.loads(Path(out + ".json").read_text())["results"]["per_probe"].values():
        assert (probe["stderr"], probe["mean_rate"], probe["z"]) == (0.0, 0.01, "inf")
    assert "FAIL entropy_rates_within_5_stderr" in capsys.readouterr().out


@pytest.fixture
def no_transport(tmp_path):
    """Qubit probes with H_E = 0 under the hopping coupling: the model is at
    equilibrium and irreducible, and every kinetic, Green-Kubo and covariance
    entry is exactly 0."""
    labels = ("hot", "cold")
    chain = MarkovChain(labels=labels, pi=[0.5, 0.5], P=[[0.5, 0.5], [0.5, 0.5]])
    probes = {l: models.ProbeSpec(h_env=np.zeros((2, 2)), beta=1.0, tau=1.0,
                                  coupling=fixtures._hopping_coupling(0.5)) for l in labels}
    model = models.build_model(
        fixtures.QUBIT_H, chain, probes, {l: np.eye(2) / 2 for l in labels},
        tri=models.TimeReversalData(np.eye(2), {l: np.eye(2) for l in labels}))
    path = str(tmp_path / "no_transport.json")
    modelfile.write_model_file(model, path)
    return path


def test_cli_linresp_without_transport_passes(no_transport, capsys, tmp_path):
    """K and Green-Kubo are both exactly 0, so Green-Kubo reproduces K
    exactly: its relative error is 0, not a division by zero."""
    out = str(tmp_path / "l")
    assert cli.main(["linresp", "--model", no_transport, "--out", out]) == 0
    results = json.loads(Path(out + ".json").read_text())["results"]
    for name in ("kinetic_matrix", "green_kubo", "covariance"):
        assert not np.any(results[name]), name
    assert results["green_kubo_rel_err"] == 0.0
    assert "PASS green_kubo_within_1pct" in capsys.readouterr().out


def test_cli_linresp_green_kubo_against_zero_kinetic_fails(no_transport, monkeypatch,
                                                           capsys, tmp_path):
    """A nonzero Green-Kubo matrix against K = 0 is infinitely wrong."""
    from mris import fluctuations

    green_kubo = fluctuations.green_kubo

    def shifted(*args, **kwargs):
        gk = green_kubo(*args, **kwargs)
        gk.matrix = gk.matrix + 1e-3
        return gk

    monkeypatch.setattr(fluctuations, "green_kubo", shifted)
    out = str(tmp_path / "l")
    assert cli.main(["linresp", "--model", no_transport, "--out", out]) == 1
    assert json.loads(Path(out + ".json").read_text())["results"]["green_kubo_rel_err"] == "inf"
    assert "FAIL green_kubo_within_1pct" in capsys.readouterr().out


@pytest.mark.parametrize("zeroed, ratios", [("every", ["nan", "nan"]), ("last", [1.0, "inf"])])
def test_cli_adiabatic_zero_plateau_ratios(zeroed, ratios, monkeypatch, capsys, tmp_path):
    """At beta = 0 under a constant schedule every plateau is exactly 0: the
    ratios are 0/0, written as nan, and equal plateaus do not decrease.  A
    zero plateau after a nonzero one gives an infinite ratio."""
    from mris import adiabatic

    evolve = adiabatic.adiabatic_evolve

    def last_zeroed(model, sched, n):
        run = evolve(model, sched, n)
        run.plateau_error = 0.0 if n == 256 else 1.0
        return run

    path = str(tmp_path / "flat.json")
    modelfile.write_model_file(fixtures.two_temperature_qubit(
        beta=(0.0, 0.0), p_matrix=[[0.5, 0.5], [0.5, 0.5]]), path)
    if zeroed == "last":
        monkeypatch.setattr(adiabatic, "adiabatic_evolve", last_zeroed)
    out = str(tmp_path / "a")
    assert cli.main(["adiabatic", "--model", path, "--p-end", "[[0.5,0.5],[0.5,0.5]]",
                     "--out", out]) == 1
    results = json.loads(Path(out + ".json").read_text())["results"]
    assert results["ratios"] == ratios
    if zeroed == "every":
        assert results["plateau_errors"] == [0.0, 0.0, 0.0]
    assert "FAIL tracking_error_decreases" in capsys.readouterr().out


def test_cli_adiabatic_inline_matrix(capsys):
    assert cli.main(["adiabatic", "--model", TWO_TEMP,
                     "--p-end", "[[0.2, 0.8], [0.5, 0.5]]",
                     "--steps", "16,32"]) == 0
    assert "PASS tracking_error_decreases" in capsys.readouterr().out


@pytest.mark.parametrize("p_end", [
    "[[0.2, 0.8], [0.5]]", "[[0.2, 0.8], [0.5, 0.5]", '"a"', "NaN",
    "[[NaN, 1], [0.5, 0.5]]", "[[0.2, 0.8]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "[[true, 0], [0.5, 0.5]]", "@/nope/p_end.json"])
def test_cli_adiabatic_malformed_p_end_exits_2(p_end, capsys):
    assert cli.main(["adiabatic", "--model", TWO_TEMP, "--p-end", p_end,
                     "--steps", "16,32"]) == 2
    assert capsys.readouterr().err.startswith("error: --p-end")


def test_cli_adiabatic_p_end_from_file(tmp_path, capsys):
    p = tmp_path / "p_end.json"
    p.write_text("[[0.2, 0.8], [0.5, 0.5]]")
    assert cli.main(["adiabatic", "--model", TWO_TEMP, "--p-end", f"@{p}",
                     "--steps", "16,32"]) == 0


@pytest.mark.parametrize("steps", ["16,x", "16", "16,16", "0,16", "-4,16", ""])
def test_cli_adiabatic_steps_must_compare_two_counts(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["adiabatic", "--model", TWO_TEMP,
                  "--p-end", "[[0.2, 0.8], [0.5, 0.5]]", "--steps", steps])
    assert exc.value.code == 2
    assert "argument --steps: expected" in capsys.readouterr().err


def test_cli_adiabatic_step_counts_below_4_are_a_usage_error(capsys):
    """A sweep needs at least 4 steps: the parser says so, not the sweep,
    and its help names the bound the sweep checks."""
    from mris import adiabatic
    assert adiabatic._MIN_STEPS == 4
    with pytest.raises(SystemExit) as exc:
        cli.main(["adiabatic", "--model", TWO_TEMP,
                  "--p-end", "[[0.2, 0.8], [0.5, 0.5]]", "--steps", "2,3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --steps: expected at least two distinct comma-separated step counts >= 4" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["adiabatic", "--help"])
    assert exc.value.code == 0
    assert "each >= 4" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv, option", [
    (["ratefn", "--model", TWO_TEMP, "--points", "0"], "--points"),
    (["ratefn", "--model", TWO_TEMP, "--alpha-range", "nan"], "--alpha-range"),
    (["cumulant", "--model", EQUILIBRIUM, "--grid-points", "-3"], "--grid-points"),
    (["simulate", "--model", TWO_TEMP, "--steps", "5", "--traj", "1"], "--traj"),
    (["ratefn", "--model", TWO_TEMP, "--alpha-range", "inf"], "--alpha-range"),
    (["ratefn", "--model", TWO_TEMP, "--points", "2.5"], "--points"),
], ids=["points", "alpha-range", "grid-points", "traj", "inf", "not-int"])
def test_cli_numeric_options_are_usage_errors(argv, option):
    """An out-of-range number is refused before any analysis runs: exit 2,
    the option named, no traceback and no numpy warning."""
    proc = subprocess.run([sys.executable, "-m", "mris.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"argument {option}: expected" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout == ""


def test_cli_simulate_negative_seed_exits_2(capsys):
    assert cli.main(["simulate", "--model", TWO_TEMP, "--steps", "5",
                     "--traj", "4", "--seed", "-1"]) == 2
    assert "error: seed -1 outside [0, 2**128 - n_traj]" in capsys.readouterr().err


def test_cli_missing_model_file(capsys):
    assert cli.main(["validate", "--model", "/nope/missing.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_reducible_generator_is_an_error_not_a_crash():
    proc = subprocess.run([sys.executable, "-m", "mris.cli", "ess",
                           "--model", TWO_TEMP, "--tol", "peripheral=0.5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error: eigenvalue 1 has multiplicity 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_reports_chain_errors(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ChainError("stationary eigenvector could not be normalized")

    monkeypatch.setattr(cli, "classify_chain", broken)
    assert cli.main(["classify", "--model", TWO_TEMP]) == 2
    assert "error: stationary eigenvector" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mris.cli", "validate",
                           "--model", TWO_TEMP],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# (arguments, modules it must load, packages it must not load) per process:
# a bare ``import mris`` loads no submodule ("mris." bans every one), and
# each subcommand loads only the analysis module it runs.  No process loads
# scipy or a JSON-Schema validator.
_NEVER = ("scipy", "jsonschema", "referencing", "attrs", "attr")
_SAMPLER = ("mris.trajectories", "numpy.random")
_POOL = ("concurrent.futures", "mris.workers", "mmap")
_MODEL_ONLY = _SAMPLER + _POOL + ("mris.fluctuations", "mris.adiabatic")
FOOTPRINTS = {
    "import": (None, (), ("mris.",)),
    "validate": (["--model", TWO_TEMP], (), _MODEL_ONLY),
    "classify": (["--model", TWO_TEMP], (), _MODEL_ONLY),
    "ess": (["--model", EQUILIBRIUM], (), _MODEL_ONLY),
    "simulate": (["--model", TWO_TEMP, "--steps", "20", "--traj", "8"],
                 _SAMPLER, _POOL + ("mris.fluctuations", "mris.adiabatic")),
    "cumulant": (["--model", EQUILIBRIUM, "--grid-points", "3"],
                 ("mris.fluctuations",), _SAMPLER + _POOL + ("mris.adiabatic",)),
    "ratefn": (["--model", TWO_TEMP, "--points", "3"],
               ("mris.fluctuations",), _SAMPLER + _POOL + ("mris.adiabatic",)),
    "linresp": (["--model", EQUILIBRIUM],
                ("mris.fluctuations",), _SAMPLER + _POOL + ("mris.adiabatic",)),
    "adiabatic": (["--model", TWO_TEMP, "--p-end", "[[0.2, 0.8], [0.5, 0.5]]",
                   "--steps", "8,16"],
                  ("mris.adiabatic",),
                  _SAMPLER + _POOL + ("mris.fluctuations",)),
}
_FOOTPRINT_SCRIPT = """\
import contextlib, io, sys
sys.path.insert(0, {src!r})
import mris
argv = {argv!r}
if argv:
    from mris import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("case", list(FOOTPRINTS))
def test_import_footprint(case):
    """A fresh process that runs one subcommand through cli.main (or only
    imports the package) loads what it runs and none of what it does not."""
    args, needed, banned = FOOTPRINTS[case]
    argv = None if args is None else [case] + args
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT.format(src=src, argv=argv)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"mris", *needed} | ({"mris.cli"} if argv else set()) <= loaded
    hits = sorted(m for m in loaded for b in _NEVER + banned
                  if m == b or m.startswith(b if b.endswith(".") else b + "."))
    assert hits == []


# the public names of the package, by defining module, as they were when
# ``mris/__init__.py`` imported every submodule eagerly, less adjoint_matrix
# (in the real generator layout the dual map is ``g.matrix.T``)
PUBLIC_NAMES = {
    "adiabatic": "AdiabaticError AdiabaticResult AdiabaticSchedule "
                 "adiabatic_evolve schedule_generator",
    "chains": "ChainClassification ChainError MarkovChain classify_chain "
              "sample_path stationary_vector",
    "extended": "EssDecomposition ExtendedGenerator ExtendedObservable "
                "ExtendedState GeneratorClassification GeneratorError "
                "NotIrreducibleError build_generator "
                "classify_generator deformed_generator ess_decompose evolve "
                "expectation find_ess initial_extended_state",
    "fluctuations": "FluctuationError GreenKuboResult KineticMatrix "
                    "RateFunctionResult SymmetryReport clt_covariance e_of_alpha "
                    "entropy_rate_function gc_symmetry_report green_kubo "
                    "kinetic_coefficients rate_function translation_symmetry_report",
    "modelfile": "ModelFileError load_model model_to_dict parse_model_dict "
                 "write_model_file",
    "models": "ModelError MrisModel ProbeSpec TimeReversalData UnravelingEntry "
              "build_model check_equilibrium check_tri entropy_flux_observable "
              "flux_extended flux_observable one_step_balance "
              "temperature_deform unraveling",
    "quantum": "QuantumChannel QuantumError channel_from_kraus choi_matrix "
               "choi_verify entropy_vn interaction_kraus_atoms partial_trace_env "
               "propagator reduced_map relative_entropy spectral_projections "
               "tensor thermal_state trace_norm",
    "tolerances": "DEFAULT Tolerances",
    "trajectories": "AutocorrResult EntropySample ErgodicEstimate "
                    "ExactDistribution NumericalCorruption RealBasisError "
                    "TrajectoryConfig TrajectoryError empirical_cumulant "
                    "enumerate_full_statistics ergodic_average "
                    "flux_autocorrelation sample_entropy_process simulate_states",
}


def test_public_names_resolve_lazily_to_their_definitions():
    import mris

    listed = dir(mris)
    for module, names in PUBLIC_NAMES.items():
        source = importlib.import_module(f"mris.{module}")
        assert getattr(mris, module) is source
        for name in names.split():
            assert name in listed
            assert getattr(mris, name) is getattr(source, name)
    assert sum(len(n.split()) for n in PUBLIC_NAMES.values()) == len(mris.__all__)
    for module in ("cli", "fixtures", "output"):
        assert getattr(mris, module) is importlib.import_module(f"mris.{module}")
    assert mris.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mris.no_such_name


@pytest.mark.parametrize("argv, cause", [
    (["linresp", "--model", TWO_TEMP],
     "error: kinetic coefficients are defined at equilibrium"),
    (["adiabatic", "--model", TWO_TEMP, "--p-end", "[[0, 1], [1, 0]]"],
     "error: instantaneous generator at s=1.000 is irreducible_periodic"),
    (["simulate", "--model", TWO_TEMP, "--steps", "5", "--traj", "4",
      "--seed", "-1"],
     "error: seed -1 outside [0, 2**128 - n_traj]"),
    (["ratefn", "--model", TWO_TEMP, "--alpha-range", "1000"],
     "error: tilted generator is not finite at alpha=[1000. 1000.]"),
    (["ratefn", "--model", EQUILIBRIUM, "--alpha-range", "340"],
     "error: bordered matrix lam (1 + r r^T) - M is singular at alpha=[238. 238.]"),
], ids=["FluctuationError", "AdiabaticError", "TrajectoryError", "overflowing-tilt",
        "singular-border"])
def test_errors_of_handler_imported_modules_exit_2(argv, cause):
    """The analysis modules are imported by their handlers, after main set
    up its error handling; their typed errors still exit 2."""
    proc = subprocess.run([sys.executable, "-m", "mris.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(cause)
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_ratefn_at_a_wide_alpha_range_reports_its_verdicts():
    """At --alpha-range 300 the kernel products stay finite (bordered at the
    scale of lam): the run ends with its FAIL verdicts and exit 1, not a
    typed error, and no warning."""
    proc = subprocess.run([sys.executable, "-m", "mris.cli", "ratefn", "--model", TWO_TEMP,
                           "--alpha-range", "300"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["FAIL maximizers_interior",
                                        "FAIL transform_finite_on_grid"]
    assert proc.stderr == ""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("tomllib", "tomli")),
    reason="no tomllib or tomli to read [project.scripts] from pyproject.toml")
def test_installed_script_name():
    proc = subprocess.run(["mris", "classify", "--model", TWO_TEMP],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASS chain_consistent_with_generator" in proc.stdout
