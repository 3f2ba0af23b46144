from pathlib import Path

import numpy as np
import pytest

from mris import extended, fixtures, fluctuations, modelfile, models, trajectories


def test_cumulant_vanishes_at_origin(canonical, equilibrium):
    assert abs(fluctuations.e_of_alpha(canonical, np.zeros(2))) < 1e-12
    assert abs(fluctuations.e_of_alpha(equilibrium, np.zeros(2))) < 1e-12


def test_cumulant_values_are_cached(canonical):
    alpha = np.array([0.37, -0.11])
    v1 = fluctuations.e_of_alpha(canonical, alpha)
    cache = canonical.caches["cumulant_values"]
    size = len(cache)
    v2 = fluctuations.e_of_alpha(canonical, alpha)
    assert v1 == v2
    assert len(cache) == size


def test_cumulant_on_a_period_two_chain():
    """On a periodic chain -lambda shares the spectral radius with the Perron
    root lambda; e(alpha) must take the positive one."""
    m = fixtures.two_temperature_qubit(p_matrix=[[0.0, 1.0], [1.0, 0.0]])
    assert abs(fluctuations.e_of_alpha(m, np.zeros(2))) < 1e-12
    alpha = np.array([0.3, -0.1])
    spr = np.abs(np.linalg.eigvals(extended.deformed_generator(m, alpha).matrix)).max()
    assert abs(fluctuations.e_of_alpha(m, alpha) - np.log(spr)) < 1e-12


def test_cumulant_on_primitive_models_is_the_largest_modulus_root(canonical, tri_broken):
    for model in (canonical, tri_broken):
        for alpha in ([0.0, 0.0], [0.3, -0.1], [-0.8, 1.2]):
            w = np.linalg.eigvals(extended.deformed_generator(model, alpha).matrix)
            lam = w[np.argmax(np.abs(w))]
            assert fluctuations.e_of_alpha(model, alpha) == np.log(lam.real)


def test_gradient_at_zero_is_beta_weighted_steady_flux(canonical):
    r_plus, _ = canonical.ess()
    grad = fluctuations._grad_e(canonical, np.zeros(2))
    for k, label in enumerate(canonical.labels):
        jbar = extended.expectation(r_plus, models.flux_extended(canonical, label))
        beta = canonical.probes[label].beta
        assert abs(grad[k] - beta * jbar) < 1e-8


def test_gc_symmetry_holds_with_time_reversal(canonical):
    rep = fluctuations.gc_symmetry_report(canonical)
    assert rep.holds
    assert rep.max_residual <= 1e-8
    assert len(rep.entries) >= 10


def test_gc_symmetry_fails_without_time_reversal(tri_broken):
    rep = fluctuations.gc_symmetry_report(tri_broken)
    assert not rep.holds
    assert rep.max_residual > 1e-4


def test_translation_symmetry_for_temperature_deformations(equilibrium):
    deformed = models.temperature_deform(equilibrium, np.array([0.1, -0.2]))
    rep = fluctuations.translation_symmetry_report(deformed)
    assert rep.holds
    assert rep.max_residual <= 1e-8


def test_translation_symmetry_detects_non_equilibrium_origin(tri_broken):
    rep = fluctuations.translation_symmetry_report(tri_broken)
    assert not rep.holds
    assert rep.max_residual > 1e-3


# ---------------------------------------------------------------------------
# central limit covariance
# ---------------------------------------------------------------------------

def test_clt_covariance_is_symmetric_psd(canonical):
    c = fluctuations.clt_covariance(canonical)
    np.testing.assert_allclose(c, c.T, atol=1e-10)
    # PSD up to the finite-difference noise of the stencil
    assert np.linalg.eigvalsh(c).min() > -1e-5


def test_clt_covariance_has_a_conservation_null_direction(canonical):
    """Total energy drawn from the probes telescopes, so the beta-weighted
    combination of entropy currents carries no diffusive fluctuation."""
    c = fluctuations.clt_covariance(canonical)
    beta_inv = np.array([1.0 / canonical.probes[l].beta for l in canonical.labels])
    assert np.abs(c @ beta_inv).max() < 1e-4
    assert np.linalg.eigvalsh(c).max() > 1e-2  # but it is not the zero matrix


def test_clt_covariance_equals_autocovariance_lag_sum(canonical):
    """The asymptotic covariance of S_n / sqrt(n) must match the stationary
    increment autocovariances summed over all lags: c(0) + sum_k (c(k) + c(k)^T)."""
    m = len(canonical.labels)
    acc = np.zeros((m, m))
    c0 = np.zeros((m, m))
    for i, w in enumerate(canonical.labels):
        for j, v in enumerate(canonical.labels):
            r = trajectories.flux_autocorrelation(canonical, w, v, max_lag=600)
            acc[i, j] = r.values[0] + r.values[1:].sum()
            c0[i, j] = r.values[0]
    lag_sum = acc + acc.T - c0
    assert np.abs(fluctuations._hessian_e(canonical) - lag_sum).max() < 1e-6
    assert np.abs(fluctuations.clt_covariance(canonical) - lag_sum).max() < 1e-5


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def _mean_svec(model):
    return -fluctuations._grad_e(model, np.zeros(model.chain.n))


def test_rate_function_vanishes_at_the_mean(canonical):
    sbar = _mean_svec(canonical)
    res = fluctuations.rate_function(canonical, [sbar])
    assert not res.unbounded[0]
    assert abs(res.values[0]) < 1e-9
    assert np.abs(res.maximizers[0]).max() < 1e-4


def test_rate_function_positive_away_from_the_mean(canonical):
    # points taken from the gradient image, so they are reachable by design;
    # the conservation constraint makes arbitrary displacements escape the
    # domain, see test_clt_covariance_has_a_conservation_null_direction
    grid = [-fluctuations._grad_e(canonical, -np.asarray(a))
            for a in ([0.25, 0.1], [-0.3, 0.2], [0.6, 0.6])]
    res = fluctuations.rate_function(canonical, grid)
    assert not res.unbounded.any()
    assert (res.values > 1e-8).all()


def test_rate_function_gc_pair_identity(canonical):
    """I(-s) = I(s) + 1 . s on reachable points, the large-deviation face of
    the e(1 - alpha) = e(alpha) symmetry."""
    probe_alphas = [np.array([0.3, 0.2]), np.array([-0.2, 0.6]),
                    np.array([0.45, 0.45])]
    s_pts = [-fluctuations._grad_e(canonical, -a) for a in probe_alphas]
    both = s_pts + [-s for s in s_pts]
    res = fluctuations.rate_function(canonical, both)
    assert not res.unbounded.any()
    n = len(s_pts)
    for k in range(n):
        lhs = res.values[n + k] - res.values[k]
        assert abs(lhs - s_pts[k].sum()) < 1e-7


def test_rate_function_flags_unreachable_targets(canonical):
    res = fluctuations.rate_function(canonical, [np.array([50.0, 50.0])])
    assert res.unbounded[0]
    assert np.isinf(res.values[0])


def test_entropy_rate_function_scalar(canonical):
    r_plus, _ = canonical.ess()
    ep = extended.expectation(r_plus, models.entropy_flux_observable(canonical))
    res = fluctuations.entropy_rate_function(canonical, [ep, -ep, ep + 0.01])
    assert abs(res.values[0]) < 1e-9
    # scalar pair identity at the physical rate
    assert abs(res.values[1] - res.values[0] - ep) < 1e-7
    assert res.values[2] > 0


@pytest.mark.parametrize("m", range(1, 9))
def test_stored_alpha_points_are_the_seeded_draws(m):
    """The symmetry reports' alpha points, stored up to six labels and drawn
    beyond, are bitwise the per-row draws of the seeded generators."""
    rng = np.random.default_rng(20240817)
    want = [lvl * np.ones(m) for lvl in (0.0, 0.25, 0.5, 0.75, 1.0)] + \
        [rng.uniform(-1.0, 2.0, size=m) for _ in range(10)]
    got = fluctuations._default_alpha_grid(m)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    rng = np.random.default_rng(20240818)
    want = np.array([rng.uniform(-0.5, 1.0, size=m) for _ in range(2)])
    got = fluctuations._seeded_draws(fluctuations._TRANSLATION_DRAWS, 20240818,
                                     -0.5, 1.0, 2 * m).reshape(2, m)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# kinetic coefficients, fluctuation-dissipation, Green-Kubo
# ---------------------------------------------------------------------------

def test_kinetic_coefficients_require_equilibrium(canonical):
    with pytest.raises(fluctuations.FluctuationError, match="equilibrium"):
        fluctuations.kinetic_coefficients(canonical)


def test_kinetic_coefficients_need_a_positive_temperature():
    with pytest.raises(fluctuations.FluctuationError, match="positive inverse temperature"):
        fluctuations.kinetic_coefficients(fixtures.equilibrium_qubit(beta=0.0))


def test_kinetic_matrix_properties(equilibrium):
    kin = fluctuations.kinetic_coefficients(equilibrium)
    # Onsager reciprocity
    assert np.abs(kin.matrix - kin.matrix.T).max() < 1e-6
    # both routes to the same response
    assert kin.discrepancy < 1e-5
    # energy conservation kills row and column sums
    assert np.abs(kin.row_sums).max() < 1e-6
    assert np.abs(kin.col_sums).max() < 1e-6


@pytest.mark.parametrize("beta, coupling", [(1.0, 0.5), (0.4, 0.9), (2.0, 0.3), (1.3, 0.05)])
def test_exact_response_matches_the_hessian_route(beta, coupling):
    """Route (a), one bordered sensitivity solve, and route (b),
    Hess e(0) / (2 beta^2), agree to round-off."""
    kin = fluctuations.kinetic_coefficients(
        fixtures.equilibrium_qubit(beta=beta, coupling_strength=coupling))
    assert kin.discrepancy <= 1e-12
    assert np.abs(kin.route_b).max() > 1e-6


@pytest.mark.parametrize("alpha", [[1000.0, 0.0], [0.0, -800.0]])
def test_overflowing_tilt_is_a_typed_error(canonical, alpha):
    """exp(-alpha . delta) overflows: both spectral routes name alpha
    instead of handing a non-finite matrix to the eigensolver."""
    for route in (fluctuations.e_of_alpha, fluctuations._perron):
        with pytest.raises(fluctuations.FluctuationError,
                           match=r"not finite at alpha=\["):
            route(canonical, np.array(alpha))


@pytest.mark.parametrize("t", [255.0, 300.0])
def test_overflowing_kernel_product_is_a_typed_error(canonical, t):
    """The tilted generator is still finite at alpha = t (1, 1), but the
    kernel's products with it overflow: alpha is named, no warning leaks."""
    kernel = fluctuations._perron(canonical, t * np.ones(2))
    with pytest.raises(fluctuations.FluctuationError,
                       match=rf"^Hessian of e is not finite at alpha=\[{t:.0f}\. {t:.0f}\.\]"):
        kernel.derivatives()


def test_kernel_rejects_a_tilt_of_the_wrong_length(canonical):
    """One entry for two labels would broadcast to alpha = (0.3, 0.3)."""
    with pytest.raises(extended.GeneratorError,
                       match=r"alpha must have one entry per label, got shape \(1,\)"):
        fluctuations._perron(canonical, np.array([0.3]))


def test_rate_function_rejects_rows_of_the_wrong_length(canonical):
    with pytest.raises(fluctuations.FluctuationError,
                       match=r"s must have one entry per label, got rows of shape \(3,\)"):
        fluctuations.rate_function(canonical, [[0.1, 0.2, 0.3]])


def test_fluctuation_dissipation(equilibrium):
    kin = fluctuations.kinetic_coefficients(equilibrium)
    c = fluctuations.clt_covariance(equilibrium)
    assert np.abs(kin.matrix - c / (2 * kin.beta_bar ** 2)).max() < 1e-6


def test_green_kubo_extrapolation(equilibrium):
    kin = fluctuations.kinetic_coefficients(equilibrium)
    gk = fluctuations.green_kubo(equilibrium)
    scale = np.abs(kin.matrix).max()
    assert np.abs(gk.matrix - kin.matrix).max() < 0.01 * scale
    assert set(gk.per_epsilon) == set(gk.epsilon_list)
    # regularized estimates approach the limit as eps shrinks
    errs = [np.abs(gk.per_epsilon[e] - kin.matrix).max()
            for e in sorted(gk.epsilon_list, reverse=True)]
    assert errs[-1] < errs[0]


# ---------------------------------------------------------------------------
# the exact perturbation kernel
# ---------------------------------------------------------------------------

BUNDLED = ("two_temperature_qubit", "equilibrium_qubit", "tri_broken_qubit")
MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


KERNEL_MODELS = {
    **{name: lambda name=name: modelfile.load_model(MODEL_DIR / f"{name}.json")
       for name in BUNDLED},
    "random_model_7_4": lambda: fixtures.random_model(7, n_labels=4),
    "period_two": lambda: fixtures.two_temperature_qubit(
        p_matrix=[[0.0, 1.0], [1.0, 0.0]]),
}


def _stencil(model, alpha, h=2e-3):
    """Richardson-extrapolated central differences of e_of_alpha: gradient
    and Hessian, independent of the kernel."""
    basis = np.eye(len(alpha))

    def e(a):
        return fluctuations.e_of_alpha(model, a)

    def grad(k):
        return np.array([(e(alpha + k * b) - e(alpha - k * b)) / (2 * k)
                         for b in basis])

    def hess(k):
        return np.array([[(e(alpha + k * (bi + bj)) - e(alpha + k * (bi - bj))
                           - e(alpha - k * (bi - bj)) + e(alpha - k * (bi + bj)))
                          / (4 * k ** 2) for bj in basis] for bi in basis])

    return ((4 * grad(h / 2) - grad(h)) / 3, (4 * hess(h / 2) - hess(h)) / 3)


@pytest.mark.parametrize("name", list(KERNEL_MODELS))
def test_kernel_derivatives_match_richardson_differences(name):
    model = KERNEL_MODELS[name]()
    rng = np.random.default_rng(5)
    m = model.chain.n
    for alpha in [np.zeros(m), 0.5 * np.ones(m)] + \
            [rng.uniform(-0.5, 1.0, size=m) for _ in range(2)]:
        e, grad, hess = fluctuations._perron(model, alpha).derivatives()
        want_grad, want_hess = _stencil(model, alpha)
        assert abs(e - fluctuations.e_of_alpha(model, alpha)) < 1e-13
        assert np.abs(grad - want_grad).max() <= 1e-8, (name, alpha)
        assert np.abs(hess - want_hess).max() <= 1e-6, (name, alpha)
        assert np.array_equal(fluctuations._grad_e(model, alpha), grad)


def test_green_kubo_closed_form_matches_the_lag_sum(equilibrium):
    """Each Abel-regularized entry equals the explicit 2000-lag sum of the
    analytic flux autocorrelations; the eps -> 0 limit matches route (a)."""
    gk = fluctuations.green_kubo(equilibrium)
    labels = equilibrium.labels
    corr = np.array([[trajectories.flux_autocorrelation(
        equilibrium, a, b, max_lag=2000).values for b in labels] for a in labels])
    lags = np.arange(1, 2001)
    for eps, mat in gk.per_epsilon.items():
        tail = corr[:, :, 1:] @ np.exp(-eps * lags)
        want = (corr[:, :, 0] + tail + tail.T) / (2 * gk.beta_bar ** 2)
        assert np.abs(mat - want).max() <= 1e-10, eps
    kin = fluctuations.kinetic_coefficients(equilibrium)
    assert np.abs(gk.matrix - kin.matrix).max() <= 1e-4 * np.abs(kin.matrix).max()


def test_rate_functions_converge_on_the_bundled_grids():
    """The CLI's scalar grid and a 3x3 vector grid, with s-points from the
    exact gradient and (as perfbench/ops.py builds them) from central
    differences, converge on every bundled model."""
    for name in BUNDLED:
        model = modelfile.load_model(MODEL_DIR / f"{name}.json")
        ones = np.ones(model.chain.n)
        tilts = [np.array([a, b]) for a in (-0.2, 0.0, 0.2) for b in (-0.2, 0.0, 0.2)]
        exact_vec = [-fluctuations._grad_e(model, -t) for t in tilts]
        stencil_vec = [-_stencil(model, -t, h=2e-5)[0] for t in tilts]
        scalar = [-ones @ fluctuations._grad_e(model, -a * ones)
                  for a in np.linspace(-0.45, 0.45, 21)]
        for res in (fluctuations.rate_function(model, exact_vec),
                    fluctuations.rate_function(model, stencil_vec),
                    fluctuations.entropy_rate_function(model, np.sort(scalar))):
            assert res.converged.all(), name
            assert res.grad_norm.max() <= 1e-8, name
            assert np.isfinite(res.values).all() and not res.unbounded.any()
    res = fluctuations.rate_function(fixtures.two_temperature_qubit(),
                                     [np.array([50.0, 50.0])])
    assert res.unbounded[0] and not res.converged[0]


def test_rate_function_is_infinite_off_the_conservation_hyperplane(canonical):
    """sum_v S_v / beta_v is a bounded system-energy change, so e is flat
    along 1/beta and I(s) = inf unless s . (1/beta) = 0: an offset from a
    reachable point must be followed to the box, not reported as a value."""
    beta_inv = np.array([1.0 / canonical.probes[l].beta for l in canonical.labels])
    reachable = -fluctuations._grad_e(canonical, -np.array([0.25, 0.1]))
    for offset in (1e-6, 1e-2):
        res = fluctuations.rate_function(canonical, [reachable + offset * beta_inv])
        assert res.unbounded[0] and np.isinf(res.values[0])


def test_rate_function_reports_nan_where_the_ascent_does_not_converge(
        canonical, monkeypatch):
    r_plus, _ = canonical.ess()
    ep = extended.expectation(r_plus, models.entropy_flux_observable(canonical))
    monkeypatch.setattr(fluctuations, "GRAD_TOL", 0.0)
    res = fluctuations.entropy_rate_function(canonical, [ep + 0.01])
    assert not res.converged[0] and not res.unbounded[0]
    assert np.isnan(res.values[0])
