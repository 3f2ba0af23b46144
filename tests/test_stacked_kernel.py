"""The stacked tilt kernel and the lockstep Legendre ascent.

A stack of tilts must give, item by item, the bits of one call per tilt;
the lockstep ascent must agree with the sequential, warm-started ascent it
replaced (copied below as the reference).
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mris import extended, fixtures, fluctuations, modelfile
from test_frozen_formulas import FROZEN_MODELS

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
BUNDLED = ("two_temperature_qubit", "equilibrium_qubit", "tri_broken_qubit")
KERNEL_FIELDS = ("lam", "matrix", "r", "l", "q", "dm_r", "l_dm", "l_d2m_r")


def _model(name):
    if name == "random_11":
        return fixtures.random_model(11, n_labels=3)
    return FROZEN_MODELS[name]()


def _bundled(name):
    return modelfile.load_model(MODEL_DIR / f"{name}.json")


@pytest.mark.parametrize("K", [1, 7, 25])
@pytest.mark.parametrize("name", sorted(FROZEN_MODELS) + ["random_11"])
def test_stacked_kernel_is_bitwise_the_scalar_kernel(name, K):
    model = _model(name)
    alphas = np.random.default_rng(K).uniform(-1.5, 2.5, size=(K, model.chain.n))
    tilted = extended._tilted_stack(model, alphas)
    with_derivs = extended._tilted_stack(model, alphas, derivatives=True)
    kernel = fluctuations._perron(model, alphas)
    e, grad, hess = kernel.derivatives()
    values = fluctuations.e_of_alpha(model, alphas)
    assert len(values) == K and all(type(v) is float for v in values)
    for k, a in enumerate(alphas):
        assert tilted[k].tobytes() == extended._tilted_stack(model, a).tobytes()
        assert (with_derivs[k].tobytes()
                == extended._tilted_stack(model, a, derivatives=True).tobytes())
        one = fluctuations._perron(model, a)
        for field in KERNEL_FIELDS:
            got, want = np.asarray(getattr(kernel, field)[k]), np.asarray(getattr(one, field))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
        e1, grad1, hess1 = one.derivatives()
        assert e[k] == e1
        assert grad[k].tobytes() == grad1.tobytes()
        assert hess[k].tobytes() == hess1.tobytes()
        assert values[k] == fluctuations.e_of_alpha(model, a)


def test_e_of_alpha_on_repeated_and_empty_stacks(canonical):
    """Duplicate rows of a stack, and repeated calls, give equal values; an
    empty stack gives none."""
    alphas = np.array([[0.11, -0.4], [0.7, 0.2], [0.11, -0.4]])
    values = fluctuations.e_of_alpha(canonical, alphas)
    assert values[0] == values[2] != values[1]
    assert fluctuations.e_of_alpha(canonical, alphas) == values
    assert fluctuations.e_of_alpha(canonical, np.zeros((0, 2))) == []


def test_an_overflowing_point_in_a_stack_names_its_own_alpha(canonical):
    alphas = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, -800.0], [1000.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (fluctuations._perron, fluctuations.e_of_alpha):
            with pytest.raises(fluctuations.FluctuationError,
                               match=r"^tilted generator is not finite at alpha=\[   0\. -800\.\]"):
                route(canonical, alphas)
        with pytest.raises(extended.GeneratorError,
                           match=r"not finite at alpha=\[   0\. -800\.\]"):
            extended._tilted_stack(canonical, alphas)
        # finite generators: the kernel products overflow at the last one only
        kernel = fluctuations._perron(canonical, np.array([[0.2, 0.2], [255.0, 255.0],
                                                           [300.0, 300.0], [241.0, 120.5]]))
        with pytest.raises(fluctuations.FluctuationError,
                           match=r"^Hessian of e is not finite at alpha=\[241\.  120\.5\]"):
            kernel.derivatives()


# ---------------------------------------------------------------------------
# the sequential, warm-started ascent that the lockstep ascent replaced, with
# the per-point rules of _ascend (flat below 1e-12, the gain stop)
# ---------------------------------------------------------------------------

def _reference_ascend(model, s, basis, x0, box):
    def evaluate(x):
        e, g, h = fluctuations._perron(model, -basis @ x).derivatives()
        return float(x @ s) - e, s + basis.T @ g, basis.T @ h @ basis

    grad_tol = fluctuations.GRAD_TOL
    x = np.clip(np.asarray(x0, dtype=float), -box, box)
    f, g, h = evaluate(x)
    for _ in range(100):
        curv, vecs = np.linalg.eigh(h)
        coef = vecs.T @ g
        flat = np.abs(curv) <= 1e-12 * max(1.0, np.abs(curv).max())
        step = vecs[:, ~flat] @ (coef[~flat] / curv[~flat])
        slope = vecs[:, flat] @ coef[flat]
        if np.abs(slope).max(initial=0.0) > grad_tol:
            step = step + slope * (2 * box / np.abs(slope).max())
        elif (np.linalg.norm(coef[~flat]) <= grad_tol / 100
              and (coef[~flat] ** 2 / np.abs(curv[~flat])).sum() <= 1e-13 * max(1.0, abs(f))):
            break
        t = 1.0
        while t > 1e-12:
            cand = np.clip(x + t * step, -box, box)
            fc, gc, hc = evaluate(cand)
            if fc > f or (fc >= f - 1e-13 * max(1.0, abs(f))
                          and np.linalg.norm(gc) < np.linalg.norm(g)):
                break
            t /= 2
        else:
            break
        if np.array_equal(cand, x):
            break
        x, f, g, h = cand, fc, gc, hc
    clamped_out = np.any((np.abs(x) >= box) & (g * np.sign(x) > grad_tol))
    return x, f, g, bool(clamped_out)


def _reference_legendre(model, s_grid, basis, box=50.0):
    n_pts = s_grid.shape[0]
    values, unbounded = np.empty(n_pts), np.zeros(n_pts, dtype=bool)
    converged = np.zeros(n_pts, dtype=bool)
    warm = np.zeros(basis.shape[1])
    for p, s in enumerate(s_grid):
        x, f, g, clamped = _reference_ascend(model, s, basis, warm, box)
        norm = np.linalg.norm(g)
        converged[p] = not clamped and norm <= fluctuations.GRAD_TOL
        values[p] = math.inf if clamped else f if converged[p] else math.nan
        unbounded[p] = clamped
        if converged[p]:
            warm = x
    return values, unbounded, converged


def _cli_grid(model, alpha_range, points=21):
    """The s-grid of mris ratefn."""
    ones = np.ones(model.chain.n)
    s = [-ones @ fluctuations._grad_e(model, -a * ones)
         for a in np.linspace(-alpha_range, alpha_range, points)]
    return np.sort(s)


def _bench_grids(model):
    """The scalar and vector s-grids of the benchmark's rate-function
    operation: central differences of e on a ray, and minus the stencil
    gradient at a 3 x 3 grid of tilts."""
    ones, h = np.ones(model.chain.n), 1e-5

    def e(a):
        return fluctuations.e_of_alpha(model, a)

    scalar = np.sort([-(e((-a + h) * ones) - e((-a - h) * ones)) / (2 * h)
                      for a in np.linspace(-0.45, 0.45, 21)])
    basis = np.eye(model.chain.n) * h
    vector = np.array([[-(e(-t + b) - e(-t - b)) / (2 * h) for b in basis]
                       for t in (np.array([a, b]) for a in (-0.2, 0.0, 0.2)
                                 for b in (-0.2, 0.0, 0.2))])
    return scalar, vector


def _s_grid(model, grid):
    if grid.startswith("cli-"):
        return _cli_grid(model, float(grid[4:]))
    if grid == "s-3-3":
        return np.linspace(-3.0, 3.0, 25)
    scalar, vector = _bench_grids(model)
    return scalar if grid == "bench-scalar" else vector


@pytest.mark.parametrize("grid", ["cli-0.45", "cli-3", "cli-10", "bench-scalar",
                                  "bench-vector", "s-3-3"])
@pytest.mark.parametrize("name", BUNDLED)
def test_lockstep_ascent_agrees_with_the_sequential_reference(name, grid):
    """Flags agree wherever the reference converges, and so do the values
    to 1e-11."""
    model = _bundled(name)
    s_grid = _s_grid(model, grid)
    if s_grid.ndim == 1:
        res = fluctuations.entropy_rate_function(model, s_grid)
        basis, s_rows = np.ones((model.chain.n, 1)), s_grid[:, None]
    else:
        res = fluctuations.rate_function(model, s_grid)
        basis, s_rows = np.eye(model.chain.n), s_grid
    values, unbounded, converged = _reference_legendre(model, s_rows, basis)
    assert converged.any()
    assert np.array_equal(res.unbounded[converged], unbounded[converged])
    assert np.array_equal(res.converged[converged], converged[converged])
    assert np.abs(res.values[converged] - values[converged]).max() <= 1e-11


def test_rate_function_grid_takes_few_stacked_eigensolves(monkeypatch):
    """The 21 points of the CLI grid ascend together: each Newton iteration
    and each round of step-halving is one eig over the points still moving."""
    model = _bundled("two_temperature_qubit")
    s_grid = _cli_grid(model, 0.45)
    eig = np.linalg.eig
    calls = []

    def counting_eig(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    res = fluctuations.entropy_rate_function(model, s_grid)
    assert res.converged.all()
    assert len(calls) <= 25


# I(2) on tri_broken_qubit, lim_x [2 x - ebar(-x)] from a 150-digit mpmath
# eigensolve of the float pieces at x = 40, 60, 80
TAIL_SUP = 1.938054609695742489799852


def test_a_sup_approached_in_an_exponential_tail_is_reached():
    """s = 2 is the edge of the range that tri_broken_qubit reaches: the sup
    is approached as x grows, with gradient and curvature shrinking
    together.  Both ascents reach it, to within the remainder the 1e-12
    flat threshold leaves in such a tail (about one curvature of 1e-12), not
    just a point whose gradient is below GRAD_TOL / 100 (which fell 4.7e-11
    and 9.5e-11 short)."""
    model = _bundled("tri_broken_qubit")
    s_grid = np.linspace(-3.0, 3.0, 25)
    assert s_grid[20] == 2.0
    res = fluctuations.entropy_rate_function(model, s_grid)
    values, _, converged = _reference_legendre(model, s_grid[:, None],
                                               np.ones((model.chain.n, 1)))
    assert res.converged[20] and converged[20]
    assert abs(res.values[20] - TAIL_SUP) <= 2e-12
    assert abs(values[20] - TAIL_SUP) <= 2e-12
