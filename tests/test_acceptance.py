"""Acceptance suite: one test per criterion, pinned tolerances, one printed
pass line each.  Shared evolutions are module-scoped fixtures so the
conservation criterion inspects exactly the runs used by the others."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lindbladrate.output import OutputTable, emit_csv
from lindbladrate.linalg import vectorize
from lindbladrate.model import (
    assemble_generator,
    reduce_from_tripartite,
    validate_model,
)
from lindbladrate.qubit import (
    PRESETS,
    DepolarizingParams,
    dephasing_model,
    depolarizing_model,
    depolarizing_stationary,
    h_of_t,
    h_of_u,
    stationary_channel_traces,
)
from lindbladrate.solver import evolve, memory_kernel_at, stationary_projector, stationary_state
from lindbladrate.stochastic import run_ensemble

from conftest import lindblad_superop_oracle, random_density, random_rate_model
from test_stochastic import direct_walk_generator

RHO_PLUS_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
RHO_UP = np.diag([1.0, 0.0]).astype(complex)
DEPOL = DepolarizingParams(1.0, 0.1, 0.1, 0.9)
ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "acceptance_artifacts"

_evolutions: dict[str, object] = {}


def _register(name, result):
    _evolutions[name] = result
    return result


def _report(num, slug):
    print(f"ACCEPTANCE {num:02d} {slug}: PASS")


@pytest.fixture(scope="module")
def fig2_evolution():
    model, _ = dephasing_model(PRESETS["fig2"])
    return _register("fig2", evolve(model, RHO_PLUS_X, np.linspace(0.0, 100.0, 201)))


@pytest.fixture(scope="module")
def fig1_upper_evolution():
    model, _ = dephasing_model(PRESETS["fig1-upper"])
    return _register("fig1-upper", evolve(model, RHO_PLUS_X, np.linspace(0.0, 20.0, 200)))


@pytest.fixture(scope="module")
def fig1_lower_evolution():
    model, _ = dephasing_model(PRESETS["fig1-lower"])
    return _register("fig1-lower", evolve(model, RHO_PLUS_X, np.linspace(0.0, 20.0, 201)))


@pytest.fixture(scope="module")
def fig2_long_evolution():
    model, _ = dephasing_model(PRESETS["fig2"])
    return _register("fig2-long", evolve(model, RHO_PLUS_X, np.array([0.0, 200.0])))


@pytest.fixture(scope="module")
def depol_evolution():
    model, _ = depolarizing_model(DEPOL)
    return _register("depolarizing", evolve(model, RHO_UP, np.linspace(0.0, 100.0, 21)))


@pytest.fixture(scope="module")
def fig2_mc_runs():
    _, walk = dephasing_model(PRESETS["fig2"])
    grid = np.linspace(0.0, 20.0, 101)
    runs = {n: run_ensemble(walk, RHO_PLUS_X, grid, n, master_seed=7) for n in (500, 5000, 50000, 100000)}
    return grid, runs


def _mc_h_and_se(acc):
    h = acc.system_estimate()[:, 0, 1].real / 0.5
    se = acc.system_standard_error()[0][:, 0, 1] / 0.5
    return h, se


def test_criterion_01_fig2_stationary_coherence(fig2_evolution):
    h_end = fig2_evolution.system[-1, 0, 1].real / 0.5
    closed = (0.1 - 0.9) * (1.0 - 0.1) / 1.1
    assert abs(h_end - closed) <= 1e-6
    assert abs(h_end - (-0.654)) <= 1e-3
    _report(1, "fig2-stationary-coherence")


def test_criterion_02_fig1_upper_decoupled_decay(fig1_upper_evolution):
    grid = fig1_upper_evolution.times
    assert grid.shape[0] == 200
    h_engine = fig1_upper_evolution.system[:, 0, 1].real / 0.5
    expected = 0.1 * np.exp(-0.1 * grid) + 0.9 * np.exp(-grid)
    assert np.abs(h_engine - expected).max() <= 1e-7
    assert np.all(np.diff(h_engine) < 0)
    assert h_engine[-1] < 0.02
    _report(2, "fig1-upper-decoupled-decay")


def test_criterion_03_fig1_lower_negative_dip_and_bound(fig1_lower_evolution):
    h_engine = fig1_lower_evolution.system[:, 0, 1].real / 0.5
    assert h_engine.min() < -1e-3
    assert np.abs(h_engine).max() <= 1.0 + 1e-10
    _report(3, "fig1-lower-negative-dip")


def test_criterion_04_fig2_channel_traces(fig2_long_evolution):
    expected = stationary_channel_traces(1.0, 0.1)
    np.testing.assert_allclose(expected, [0.909090909, 0.090909090], atol=1e-8)
    model, _ = dephasing_model(PRESETS["fig2"])
    proj = stationary_projector(model)
    y0 = np.concatenate([p * vectorize(RHO_PLUS_X) for p in (0.1, 0.9)])
    stacked_inf = (proj.projector @ y0).reshape(2, 4)
    spectral_traces = np.array([stacked_inf[r][[0, 3]].sum().real for r in range(2)])
    assert np.abs(spectral_traces - expected).max() <= 1e-6
    integrated = fig2_long_evolution.channel_traces()[-1]
    assert np.abs(integrated - expected).max() <= 1e-6
    _report(4, "fig2-channel-traces")


def test_criterion_05_monte_carlo_convergence(fig2_mc_runs):
    grid, runs = fig2_mc_runs
    h_exact = h_of_t(PRESETS["fig2"], grid)

    # visual artifact: n = 500 noisy tracking of the closed form
    h500, se500 = _mc_h_and_se(runs[500])
    ARTIFACT_DIR.mkdir(exist_ok=True)
    table = OutputTable(["t", "h_mc", "h_exact", "se"], np.stack([grid, h500, h_exact, se500], axis=1))
    emit_csv(table, str(ARTIFACT_DIR / "fig2_mc_n500.csv"))
    assert np.all(np.abs(h500 - h_exact) <= 6.0 * se500 + 1e-12)

    # n = 1e5 matches the deterministic curve within 4 standard errors
    h_big, se_big = _mc_h_and_se(runs[100000])
    assert np.all(np.abs(h_big - h_exact) <= 4.0 * se_big + 1e-12)

    # standard errors scale as 1/sqrt(n) within 20%
    scaled = {}
    for n in (500, 5000, 50000):
        _, se = _mc_h_and_se(runs[n])
        scaled[n] = np.median(se[1:]) * np.sqrt(n)
    values = list(scaled.values())
    for a in values:
        for b in values:
            assert abs(a / b - 1.0) <= 0.2
    _report(5, "monte-carlo-convergence")


def test_criterion_06_depolarizing_stationary_populations(depol_evolution):
    closed = depolarizing_stationary(DEPOL, RHO_UP)
    assert closed.pop_plus == pytest.approx(0.19 / 1.1, abs=1e-15)

    assert abs(depol_evolution.system[-1, 0, 0].real - closed.pop_plus) <= 1e-6
    model, walk = depolarizing_model(DEPOL)
    spectral = stationary_state(model, RHO_UP)
    assert abs(spectral[0, 0].real - closed.pop_plus) <= 1e-6
    assert np.abs(spectral - closed.matrix()).max() <= 1e-6

    grid = np.linspace(0.0, 100.0, 11)
    acc = run_ensemble(walk, RHO_UP, grid, 20000, master_seed=11)
    se_re, _ = acc.system_standard_error()
    mc_pop = acc.system_estimate()[-1, 0, 0].real
    assert abs(mc_pop - closed.pop_plus) <= 4.0 * se_re[-1, 0, 0]
    _report(6, "depolarizing-stationary-populations")


def test_criterion_07_markovian_reduction_oracle():
    rng = np.random.default_rng(1905)
    grid = np.array([0.0, 0.35, 1.1, 2.4])
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        model = random_rate_model(rng, d=d, k=1)
        rho0 = random_density(rng, d)
        result = _register(f"markov-{trial}", evolve(model, rho0, grid))
        oracle_gen = lindblad_superop_oracle(
            model.hamiltonians[0], model.basis.ops, model.blocks[0, 0]
        )
        for i, t in enumerate(grid):
            expected = scipy.linalg.expm(t * oracle_gen) @ vectorize(rho0)
            assert np.abs(vectorize(result.system[i]) - expected).max() <= 1e-10
    _report(7, "markovian-reduction-oracle")


def test_criterion_08_random_lindblad_reduction():
    rng = np.random.default_rng(1931)
    grid = np.array([0.0, 0.5, 1.5, 3.0])
    for trial in range(20):
        model = random_rate_model(rng, d=2, k=2, coupled=False)
        gens = [lindblad_superop_oracle(model.hamiltonians[r], model.basis.ops, model.blocks[r, r]) for r in range(2)]
        rho0 = random_density(rng, 2)
        result = _register(f"decoupled-{trial}", evolve(model, rho0, grid))
        for i, t in enumerate(grid):
            mixture = sum(w * (scipy.linalg.expm(t * g) @ vectorize(rho0)) for w, g in zip(model.weights, gens))
            assert np.abs(vectorize(result.system[i]) - mixture).max() <= 1e-10
    _report(8, "random-lindblad-reduction")


def test_criterion_09_cp_validator():
    for name in ("fig1-upper", "fig1-lower", "fig2"):
        model, _ = dephasing_model(PRESETS[name])
        assert validate_model(model).passed
    model, _ = depolarizing_model(DEPOL)
    assert validate_model(model).passed

    # hand-crafted indefinite block with eigenvalue exactly -0.1
    from lindbladrate.model import LindbladRateModel, OperatorBasis
    from lindbladrate.qubit import SIGMA_X, SIGMA_Y

    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    crafted = rot @ np.diag([1.0, -0.1]) @ rot.T
    bad = LindbladRateModel.from_blocks(
        OperatorBasis(np.array([SIGMA_X, SIGMA_Y])), [1.0], crafted[None]
    )
    report = validate_model(bad)
    assert not report.passed
    (failure,) = report.failures()
    assert abs(failure.min_eigenvalue - (-0.1)) <= 1e-12
    _report(9, "cp-validator")


def test_criterion_10_conservation_suite(
    fig2_evolution, fig1_upper_evolution, fig1_lower_evolution, fig2_long_evolution, depol_evolution
):
    assert len(_evolutions) >= 5
    for name, result in _evolutions.items():
        assert result.trace_residual.max() < 1e-8, name
        assert result.hermiticity_residual.max() < 1e-10, name
    for name in ("fig2", "fig1-upper", "fig1-lower", "fig2-long", "depolarizing"):
        assert _evolutions[name].min_eigenvalue.min() >= -1e-8, name
    _report(10, "conservation-suite")


def test_criterion_11_kernel_identity():
    p = PRESETS["fig1-upper"]
    model, _ = dephasing_model(p)
    for u in (0.5, 1.0, 2.0, 4.0):
        h = h_of_u(p, u)
        sample = memory_kernel_at(model, u)
        for v in (1, 2):  # both coherence components
            assert abs(sample.kernel[v, v] * h - (u * h - 1.0)) <= 1e-8
    _report(11, "kernel-identity")


def test_criterion_12_tripartite_roundtrip():
    rng = np.random.default_rng(2007)
    from lindbladrate.model import OperatorBasis
    from lindbladrate.stochastic import StochasticModel, convert_walk_to_rate_model
    from lindbladrate.qubit import SIGMA_X, SIGMA_Y, SIGMA_Z

    basis = OperatorBasis(np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]) / np.sqrt(2))
    for _ in range(5):
        # random Walk-class model: trace-preserving Kraus pairs from isometries
        kraus_maps = []
        for _ in range(2):
            mat = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(mat)
            kraus_maps.append([q[:2], q[2:]])
        diss = []
        for _ in range(2):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            diss.append(x @ x.conj().T / 4)
        rates = np.array([[0.0, rng.uniform(0.2, 2.0)], [rng.uniform(0.2, 2.0), 0.0]])
        weights = rng.uniform(0.2, 1.0, size=2)
        walk = StochasticModel(
            basis=basis,
            hamiltonian=np.zeros((2, 2)),
            dissipator_blocks=np.stack(diss),
            hop_rates=rates,
            kraus_maps=kraus_maps,
            weights=weights / weights.sum(),
        )
        converted = convert_walk_to_rate_model(walk, basis)
        entries = [(r * 2 + rp, r * 2 + rp, converted.blocks[r, rp]) for r in range(2) for rp in range(2)]
        reduced = reduce_from_tripartite(entries, 2, basis, weights=converted.weights)
        gen = assemble_generator(reduced, validate=False).matrix
        direct = direct_walk_generator(walk)
        assert np.abs(gen - direct).max() <= 1e-12
    _report(12, "tripartite-roundtrip")
