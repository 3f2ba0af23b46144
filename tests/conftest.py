import os
import sys
from pathlib import Path

import numpy as np
import pytest

import mris
from mris import fixtures

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(scope="session", autouse=True)
def console_scripts(tmp_path_factory):
    """Put the ``[project.scripts]`` of pyproject.toml on PATH.

    The suite runs from the source tree without installing the package, so
    no console script exists. Each declared ``name = "module:func"`` gets the
    wrapper pip would generate: it runs this interpreter on the ``mris`` tree
    the tests import (whatever PYTHONPATH says) and exits with ``func()``.
    The wrapper directory goes first on PATH, ahead of any installed copy.
    Without a TOML parser nothing is generated (the script test skips).
    """
    if tomllib is None:
        yield
        return
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    bindir = tmp_path_factory.mktemp("bin")
    src = str(Path(mris.__file__).resolve().parent.parent)
    for name, target in scripts.items():
        module, func = target.split(":")
        script = bindir / name
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n")
        script.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield


def _child_left():
    """What a child process of this one is left as, running or not yet
    reaped (reaping one), or None where there is none."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    return (f"child process {pid} was left unreaped" if pid
            else "a child process is still running")


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fail the run if any child process is left at its end, running or
    not yet reaped: the samplers' workers must not outlive their call."""
    yield
    left = _child_left()
    if left:
        pytest.fail(left)


@pytest.fixture(autouse=True)
def no_child_process_left_by_the_test():
    """Fail the test after which a child process is left, so that a leak
    names the test that made it."""
    yield
    left = _child_left()
    if left:
        pytest.fail(left)


@pytest.fixture(scope="session")
def canonical():
    """Two-temperature qubit workhorse (hot/cold probes, mixing chain)."""
    return fixtures.two_temperature_qubit()


@pytest.fixture(scope="session")
def equilibrium():
    return fixtures.equilibrium_qubit(beta=1.0)


@pytest.fixture(scope="session")
def tri_broken():
    return fixtures.tri_broken_qubit()


@pytest.fixture(scope="session")
def decoupled():
    return fixtures.decoupled_qubit()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
