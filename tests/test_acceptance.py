"""End-to-end acceptance checks, one per shipped guarantee, each printing a
single PASS line with its headline metric and asserting its runtime budget.

The statistical checks pin seeds; the per-trajectory streams are keyed by
seed + trajectory index, so widely spaced base seeds keep samples disjoint.
"""

import itertools
import math
import time

import numpy as np

from mris import (adiabatic, chains, extended, fixtures, fluctuations, models,
                  trajectories)
from mris.chains import MarkovChain
from mris.quantum import QuantumChannel, choi_verify
from mris.trajectories import TrajectoryConfig


def _done(tag, started, budget, detail):
    dt = time.perf_counter() - started
    assert dt < budget, f"{tag} exceeded its {budget}s budget ({dt:.1f}s)"
    print(f"PASS {tag}: {detail} [{dt:.2f}s < {budget}s]")


def test_acceptance_01_cptp_random_models():
    t0 = time.perf_counter()
    worst_choi, worst_tp = 0.0, 0.0
    for seed in range(20):
        m = fixtures.random_model(seed)
        for l in m.labels:
            cert = choi_verify(m.channels[l])
            worst_choi = min(worst_choi, cert["min_choi_eig"])
            worst_tp = max(worst_tp, cert["tp_residual"])
    assert worst_choi >= -1e-10
    assert worst_tp <= 1e-12
    _done("01 cptp_random_models", t0, 5.0,
          f"min choi eig {worst_choi:.2e}, tp residual {worst_tp:.2e}")


def test_acceptance_02_path_enumeration_matches_duality():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    g = m.generator
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for case in range(5):
        a = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        x = extended.ExtendedObservable(
            m.labels, np.stack([(b + b.conj().T) / 2 for b in a]))
        for n in range(1, 5):
            # exhaustive path sum over w_0 ... w_{n+1}
            total = 0.0
            for word in itertools.product(range(2), repeat=n + 2):
                weight = m.chain.pi[word[0]]
                for u, v in zip(word, word[1:]):
                    weight *= m.chain.P[u, v]
                if weight == 0.0:
                    continue
                path = [m.labels[i] for i in word[:n + 1]]
                states = trajectories.simulate_states(m, path)
                total += weight * np.trace(
                    states[n] @ x.block(m.labels[word[n + 1]])).real
            rn = extended.evolve(g, m.initial_state(), n)
            worst = max(worst, abs(extended.expectation(rn, x) - total))
    assert worst <= 1e-10
    _done("02 path_enumeration_duality", t0, 10.0, f"max residual {worst:.2e}")


def test_acceptance_03_deformed_enumeration_matches_duality():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    rng = np.random.default_rng(20240802)
    alphas = [rng.uniform(-1.0, 2.0, size=2) for _ in range(5)]
    ident = extended.identity_observable(m.labels, 2)
    worst = 0.0
    for n in range(1, 5):
        dist = trajectories.enumerate_full_statistics(m, n, keep_words=False)
        for alpha in alphas:
            g_a = extended.deformed_generator(m, alpha)
            spectral = extended.expectation(
                extended.evolve(g_a, m.initial_state(), n), ident)
            worst = max(worst, abs(dist.deformed_expectation(alpha) - spectral))
    assert worst <= 1e-9
    _done("03 deformed_duality", t0, 30.0, f"max residual {worst:.2e}")


def test_acceptance_04_ergodic_time_average():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    r_plus, _ = m.ess()
    cfg = TrajectoryConfig(n_steps=10_000, n_traj=100, seed=57,
                           initial="stationary")
    zs = []
    for l in m.labels:
        x = models.flux_extended(m, l)
        exact = extended.expectation(r_plus, x)
        est = trajectories.ergodic_average(m, x, cfg)
        zs.append((est.mean - exact) / est.stderr)
    assert max(abs(z) for z in zs) <= 3.0
    _done("04 ergodic_time_average", t0, 60.0,
          "z = " + ", ".join(f"{z:+.2f}" for z in zs))


def test_acceptance_05_entropy_rate_lln():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    r_plus, _ = m.ess()
    n, t = 2000, 500
    sample = trajectories.sample_entropy_process(
        m, TrajectoryConfig(n_steps=n, n_traj=t, seed=5, initial="stationary"))
    zs = []
    for k, l in enumerate(m.labels):
        target = -m.probes[l].beta * extended.expectation(
            r_plus, models.flux_extended(m, l))
        rates = sample.svec[:, k] / n
        z = (rates.mean() - target) / (rates.std(ddof=1) / math.sqrt(t))
        zs.append(z)
    assert max(abs(z) for z in zs) <= 3.0
    _done("05 entropy_rate_lln", t0, 60.0,
          "z = " + ", ".join(f"{z:+.2f}" for z in zs))


def test_acceptance_06_clt_covariance():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    n, t = 5000, 2000
    sample = trajectories.sample_entropy_process(
        m, TrajectoryConfig(n_steps=n, n_traj=t, seed=2, initial="stationary"))
    emp = np.cov((sample.svec / math.sqrt(n)).T, ddof=1)
    analytic = fluctuations.clt_covariance(m)
    rel = np.linalg.norm(emp - analytic) / np.linalg.norm(analytic)
    assert rel <= 0.10
    _done("06 clt_covariance", t0, 300.0, f"relative Frobenius {rel:.3f}")


def test_acceptance_07_gc_symmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    grid = [rng.uniform(-1.0, 2.0, size=2) for _ in range(15)]
    rep = fluctuations.gc_symmetry_report(fixtures.two_temperature_qubit(),
                                          alpha_grid=grid)
    assert rep.holds and rep.max_residual <= 1e-8
    broken = fluctuations.gc_symmetry_report(fixtures.tri_broken_qubit(),
                                             alpha_grid=grid)
    assert broken.max_residual > 1e-4
    _done("07 gc_symmetry", t0, 10.0,
          f"residual {rep.max_residual:.2e}, negative control "
          f"{broken.max_residual:.2e}")


def test_acceptance_08_rate_function_pair():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    probe_alphas = [np.array([0.3, 0.2]), np.array([-0.2, 0.5]),
                    np.array([0.45, 0.45]), np.array([0.1, -0.15])]
    s_pts = [-fluctuations._grad_e(m, -a) for a in probe_alphas]
    res = fluctuations.rate_function(m, s_pts + [-s for s in s_pts])
    assert not res.unbounded.any()
    k = len(s_pts)
    worst = max(abs(res.values[k + i] - res.values[i] - s_pts[i].sum())
                for i in range(k))

    r_plus, _ = m.ess()
    ep = extended.expectation(r_plus, models.entropy_flux_observable(m))
    s_scalar = [0.5 * ep, ep, 1.5 * ep, 2.5 * ep]
    scal = fluctuations.entropy_rate_function(m, s_scalar + [-s for s in s_scalar])
    worst_scal = max(abs(scal.values[len(s_scalar) + i] - scal.values[i] - s)
                     for i, s in enumerate(s_scalar))
    assert worst <= 1e-6
    assert worst_scal <= 1e-6
    _done("08 rate_function_pair", t0, 60.0,
          f"vector {worst:.2e}, scalar {worst_scal:.2e}")


def test_acceptance_09_equilibrium_characterization():
    t0 = time.perf_counter()
    eq = models.check_equilibrium(fixtures.equilibrium_qubit())
    assert eq["max_residual"] <= 1e-10
    assert abs(eq["entropy_production_rate"]) <= 1e-10
    assert max(abs(v) for v in eq["steady_fluxes"].values()) <= 1e-10
    neq = models.check_equilibrium(fixtures.two_temperature_qubit())
    assert neq["entropy_production_rate"] > 1e-4
    _done("09 equilibrium_characterization", t0, 5.0,
          f"residual {eq['max_residual']:.2e}, two-temperature ep "
          f"{neq['entropy_production_rate']:.2e}")


def test_acceptance_10_entropy_balance():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    path = chains.sample_path(m.chain, 1000, seed=4)
    states = trajectories.simulate_states(m, path)
    worst_res, worst_ep = 0.0, 0.0
    for k in range(1, 1001):
        label = path[k]
        rep = models.one_step_balance(m.u[label], m.rho_env[label],
                                      states[k - 1])
        worst_res = max(worst_res, rep["balance_residual"])
        worst_ep = min(worst_ep, rep["ep"])
    assert worst_res <= 1e-10
    assert worst_ep >= -1e-12
    _done("10 entropy_balance", t0, 10.0,
          f"balance residual {worst_res:.2e}, min ep {worst_ep:.2e}")


def test_acceptance_11_linear_response():
    t0 = time.perf_counter()
    eq = fixtures.equilibrium_qubit()
    kin = fluctuations.kinetic_coefficients(eq)
    cov = fluctuations.clt_covariance(eq)
    onsager = float(np.abs(kin.matrix - kin.matrix.T).max())
    fdr = float(np.abs(kin.matrix - cov / (2 * kin.beta_bar ** 2)).max())
    assert onsager <= 1e-6
    assert fdr <= 1e-6
    assert kin.discrepancy <= 1e-5
    _done("11 linear_response", t0, 60.0,
          f"onsager {onsager:.2e}, fdr {fdr:.2e}, routes {kin.discrepancy:.2e}")


def test_acceptance_12_green_kubo():
    t0 = time.perf_counter()
    eq = fixtures.equilibrium_qubit()
    kin = fluctuations.kinetic_coefficients(eq)
    gk = fluctuations.green_kubo(eq)
    rel = float(np.abs(gk.matrix - kin.matrix).max() / np.abs(kin.matrix).max())
    assert rel <= 0.01

    sample = trajectories.sample_entropy_process(
        eq, TrajectoryConfig(n_steps=4000, n_traj=400, seed=10_000,
                             initial="stationary", keep_increments=True))
    worst_z = 0.0
    for w in eq.labels:
        for v in eq.labels:
            ana = trajectories.flux_autocorrelation(eq, w, v, max_lag=5)
            emp = trajectories.flux_autocorrelation(sample, w, v, max_lag=5)
            worst_z = max(worst_z, float(
                np.abs((emp.values - ana.values) / emp.stderr).max()))
    assert worst_z <= 3.0
    _done("12 green_kubo", t0, 120.0,
          f"extrapolation {rel:.2e}, empirical lags worst |z| {worst_z:.2f}")


def test_acceptance_13_translation_symmetry():
    t0 = time.perf_counter()
    base = fixtures.equilibrium_qubit()
    deformed = models.temperature_deform(base, np.array([0.1, -0.2]))
    rep = fluctuations.translation_symmetry_report(deformed)
    assert len(rep.entries) == 16
    assert rep.holds and rep.max_residual <= 1e-8
    _done("13 translation_symmetry", t0, 10.0,
          f"max residual {rep.max_residual:.2e} on 4x4 grid")


def test_acceptance_14_adiabatic_scaling():
    t0 = time.perf_counter()
    m = fixtures.two_temperature_qubit()
    sched = adiabatic.AdiabaticSchedule(
        m.chain.P, np.array([[0.2, 0.8], [0.5, 0.5]]))
    plateaus = [adiabatic.adiabatic_evolve(m, sched, n).plateau_error
                for n in (64, 128, 256)]
    ratios = [plateaus[0] / plateaus[1], plateaus[1] / plateaus[2]]
    assert all(1.5 <= r <= 2.5 for r in ratios)
    _done("14 adiabatic_scaling", t0, 120.0,
          "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


# ---------------------------------------------------------------------------
# classification suite
# ---------------------------------------------------------------------------

def _identity_channel():
    return QuantumChannel(2, [np.eye(2, dtype=complex)])


def _unitary_channel(theta):
    return QuantumChannel(2, [np.diag([1.0, np.exp(1j * theta)])])


def _pos_improving_channel(q, theta):
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    ks = [np.sqrt(1 - q) * u]
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            ks.append(np.sqrt(q / 2) * e)
    return QuantumChannel(2, ks)


def _constant_channel(populations):
    lam = np.asarray(populations, dtype=float)
    ks = []
    for i in range(2):
        for j in range(2):
            k = np.zeros((2, 2), dtype=complex)
            k[i, j] = np.sqrt(lam[i])
            ks.append(k)
    return QuantumChannel(2, ks)


def _averaged_channel(chain, channels):
    ks = []
    for w, l in enumerate(chain.labels):
        ks.extend(np.sqrt(chain.pi[w]) * k for k in channels[l].kraus)
    return QuantumChannel(2, ks)


def test_acceptance_15_classification_suite():
    t0 = time.perf_counter()
    prim = MarkovChain(("a", "b"), [4 / 7, 3 / 7], [[0.7, 0.3], [0.4, 0.6]])
    cyc = MarkovChain(("a", "b"), [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    idp = MarkovChain(("a", "b"), [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    one = MarkovChain(("a",), [1.0], [[1.0]])
    pos = MarkovChain(("a", "b"), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])

    pi_a = _pos_improving_channel(0.25, 0.4)
    pi_b = _pos_improving_channel(0.35, 1.1)

    suite = [
        ("identity channels, mixing chain", prim,
         {"a": _identity_channel(), "b": _identity_channel()}, "reducible", None),
        ("identity channels, cyclic chain", cyc,
         {"a": _identity_channel(), "b": _identity_channel()}, "reducible", None),
        ("two-temperature workhorse",
         fixtures.two_temperature_qubit().generator, None, "primitive", 1),
        ("equilibrium workhorse",
         fixtures.equilibrium_qubit().generator, None, "primitive", 1),
        ("cyclic chain, positivity-improving pair", cyc,
         {"a": pi_a, "b": pi_b}, "irreducible_periodic", 2),
        ("frozen chain, positivity-improving pair", idp,
         {"a": pi_a, "b": pi_b}, "reducible", None),
        ("single probe, constant channel", one,
         {"a": _constant_channel([0.7, 0.3])}, "primitive", 1),
        ("single probe, unitary conjugation", one,
         {"a": _unitary_channel(0.7)}, "reducible", None),
        ("decoupled interaction",
         fixtures.decoupled_qubit().generator, None, "reducible", None),
        ("flat chain, identity with positivity-improving partner", pos,
         {"a": _identity_channel(), "b": _pos_improving_channel(0.3, 0.9)},
         "primitive", 1),
        ("flat chain, identity pair", pos,
         {"a": _identity_channel(), "b": _identity_channel()}, "reducible", None),
        ("mixing chain, distinct constant channels", prim,
         {"a": _constant_channel([0.7, 0.3]), "b": _constant_channel([0.2, 0.8])},
         "primitive", 1),
    ]

    for name, chain_or_gen, channels, want_kind, want_period in suite:
        if channels is None:
            g = chain_or_gen
            chain = g.chain
        else:
            chain = chain_or_gen
            g = extended.build_generator(chain, channels)
        cls = extended.classify_generator(g)
        assert cls.kind == want_kind, (name, cls.kind, want_kind)
        if want_period is not None:
            assert cls.period == want_period, (name, cls.period)

        # an irreducible lift needs an irreducible driving chain, and has a
        # steady state that one bordered solve finds
        if cls.kind != "reducible":
            assert chains.classify_chain(chain).irreducible, name
            _, resid = extended.find_ess(g)
            assert resid <= 1e-10, (name, resid)

        # positivity-improving chain: the lift and the averaged single-step
        # channel are primitive together
        if channels is not None and chain.P.min() > 0:
            avg = _averaged_channel(chain, channels)
            g_avg = extended.build_generator(
                MarkovChain(("avg",), [1.0], [[1.0]]), {"avg": avg})
            avg_primitive = extended.classify_generator(g_avg).kind == "primitive"
            assert avg_primitive == (cls.kind == "primitive"), name

    _done("15 classification_suite", t0, 30.0, "12/12 verdicts as constructed")
