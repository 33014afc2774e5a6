import numpy as np
import pytest

from lindbladrate.model import validate_model
from lindbladrate.qubit import (
    PRESETS,
    DephasingParams,
    DepolarizingParams,
    cp_bound_check,
    dephasing_kernel,
    dephasing_model,
    dephasing_stationary,
    depolarizing_model,
    depolarizing_stationary,
    h_of_t,
    h_of_u,
    stationary_channel_traces,
)
from lindbladrate.solver import evolve, stationary_state

RHO_PLUS_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

ALL_PARAMS = [
    PRESETS["fig1-upper"],
    PRESETS["fig1-lower"],
    PRESETS["fig2"],
    DephasingParams(0.25, 0.6, 0.8, 0.45, 0.35, 0.65),
]


def random_params(rng) -> DephasingParams:
    g = rng.uniform(0.0, 2.0, size=4)
    p_a = rng.uniform(0.0, 1.0)
    return DephasingParams(g[0], g[1], g[2], g[3], p_a, 1.0 - p_a)


class TestHofU:
    def test_large_u_limit(self):
        for p in ALL_PARAMS:
            u = 1e9
            assert u * h_of_u(p, u) == pytest.approx(1.0, abs=1e-6)

    def test_decoupled_form(self):
        p = PRESETS["fig1-upper"]
        for u in (0.2, 1.0, 3.0):
            expected = p.p_a / (u + p.gamma_a) + p.p_b / (u + p.gamma_b)
            assert h_of_u(p, u) == pytest.approx(expected, abs=1e-14)

    def test_fig2_small_u_limit(self):
        p = PRESETS["fig2"]
        for u in (1e-7, 1e-9):
            assert u * h_of_u(p, u) == pytest.approx(-0.6545454545454545, abs=1e-6)

    def test_pole_raises(self):
        p = PRESETS["fig2"]
        with pytest.raises(ZeroDivisionError):
            h_of_u(p, 0.0)


class TestHofT:
    def test_normalization_at_zero(self):
        for p in ALL_PARAMS:
            assert h_of_t(p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fig1_lower_attains_negative_values(self):
        p = PRESETS["fig1-lower"]
        t = np.linspace(0.0, 20.0, 400)
        assert h_of_t(p, t).min() < -1e-3

    def test_fig2_stationary_value(self):
        p = PRESETS["fig2"]
        expected = (p.p_a - p.p_b) * (p.gamma_ab - p.gamma_ba) / (p.gamma_ab + p.gamma_ba)
        assert expected == pytest.approx(-0.6545454545454545, abs=1e-12)
        assert h_of_t(p, 200.0) == pytest.approx(expected, abs=1e-10)

    def test_repeated_root_branch(self):
        # gamma_a = gamma_b = g, no hops: double root at -g
        p = DephasingParams(0.8, 0.8, 0.0, 0.0, 0.3, 0.7)
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(h_of_t(p, t), np.exp(-0.8 * t), atol=1e-12)

    def test_inverse_laplace_consistency(self):
        # numerical Laplace transform of h(t) matches h(u)
        for p in ALL_PARAMS:
            t = np.linspace(0.0, 200.0, 400001)
            ht = h_of_t(p, t)
            for u in (0.5, 1.5):
                numeric = np.trapezoid(ht * np.exp(-u * t), t)
                assert numeric == pytest.approx(h_of_u(p, u), abs=1e-6)


class TestCpBound:
    def test_presets_satisfy_bound(self):
        grid = np.linspace(0.0, 50.0, 2000)
        for name in PRESETS:
            ok, max_h = cp_bound_check(PRESETS[name], grid)
            assert ok
            assert max_h == pytest.approx(1.0, abs=1e-12)  # attained at t = 0

    def test_random_parameter_sweep(self, rng):
        grid = np.linspace(0.0, 30.0, 600)
        for _ in range(100):
            ok, max_h = cp_bound_check(random_params(rng), grid)
            assert ok
            assert max_h <= 1.0 + 1e-10


class TestDephasingKernel:
    def test_markov_limit_constant(self):
        p = DephasingParams(0.7, 0.0, 0.0, 0.0, 1.0, 0.0)
        for u in (0.1, 1.0, 10.0):
            assert dephasing_kernel(p, u) == pytest.approx(0.7, abs=1e-12)

    def test_large_u_laurent_limit(self):
        # K(u) -> s - c where s, c are the h(u) series coefficients
        for p in ALL_PARAMS:
            s = p.gamma_a + p.gamma_b + p.gamma_ab + p.gamma_ba
            c = p.p_a * p.gamma_b + p.p_b * p.gamma_a + (p.p_a - p.p_b) * (p.gamma_ab - p.gamma_ba)
            assert dephasing_kernel(p, 1e8) == pytest.approx(s - c, abs=1e-5)

    def test_identity_against_extracted_kernel(self):
        from lindbladrate.solver import memory_kernel_at

        p = PRESETS["fig1-upper"]
        model, _ = dephasing_model(p)
        for u in (0.5, 1.0, 2.0, 4.0):
            h = h_of_u(p, u)
            kappa = memory_kernel_at(model, u).kernel[1, 1]
            assert abs(kappa * h - (u * h - 1.0)) < 1e-10
            # closed-form kernel carries the opposite sign convention of the
            # extracted superoperator's coherence eigenvalue
            assert dephasing_kernel(p, u) == pytest.approx(-kappa, abs=1e-10)


class TestDephasingModel:
    def test_decoupled_solution(self):
        p = PRESETS["fig1-upper"]
        model, _ = dephasing_model(p)
        grid = np.linspace(0.0, 20.0, 100)
        result = evolve(model, RHO_PLUS_X, grid)
        expected = 0.1 * np.exp(-0.1 * grid) + 0.9 * np.exp(-grid)
        np.testing.assert_allclose(result.system[:, 0, 1].real / 0.5, expected, atol=1e-10)

    def test_populations_constant(self, rng):
        for p in ALL_PARAMS:
            model, _ = dephasing_model(p)
            rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
            result = evolve(model, rho0, np.linspace(0.0, 10.0, 21))
            np.testing.assert_allclose(result.system[:, 0, 0].real, 0.7, atol=1e-10)
            np.testing.assert_allclose(result.system[:, 1, 1].real, 0.3, atol=1e-10)

    def test_cp_validation_passes_for_nonnegative_rates(self, rng):
        for _ in range(20):
            model, _ = dephasing_model(random_params(rng))
            assert validate_model(model).passed

    def test_h_matches_evolution_all_parameter_sets(self):
        grid = np.linspace(0.0, 20.0, 201)
        for p in ALL_PARAMS:
            model, _ = dephasing_model(p)
            result = evolve(model, RHO_PLUS_X, grid)
            engine_h = result.system[:, 0, 1].real / 0.5
            assert np.abs(engine_h - h_of_t(p, grid)).max() < 1e-7

    def test_channel_traces_reach_hop_balance(self):
        p = PRESETS["fig2"]
        model, _ = dephasing_model(p)
        t_end = 50.0 / (p.gamma_ab + p.gamma_ba)
        result = evolve(model, RHO_PLUS_X, np.array([0.0, t_end]))
        np.testing.assert_allclose(
            result.channel_traces()[-1], stationary_channel_traces(p.gamma_ab, p.gamma_ba), atol=1e-6
        )


class TestDephasingStationary:
    def test_fig2_value(self):
        out = dephasing_stationary(PRESETS["fig2"], RHO_PLUS_X)
        assert out.coh_plus.real / 0.5 == pytest.approx(-0.6545454545454545, abs=1e-12)
        assert out.pop_plus == pytest.approx(0.5)

    def test_balanced_weights_zero(self):
        p = DephasingParams(0.0, 0.0, 1.3, 0.2, 0.5, 0.5)
        assert dephasing_stationary(p, RHO_PLUS_X).coh_plus == 0.0

    def test_symmetric_rates_zero(self):
        p = DephasingParams(0.0, 0.0, 0.7, 0.7, 0.2, 0.8)
        assert dephasing_stationary(p, RHO_PLUS_X).coh_plus == 0.0

    def test_self_dynamics_kills_coherence(self):
        p = DephasingParams(0.3, 0.0, 1.0, 0.1, 0.1, 0.9)
        assert dephasing_stationary(p, RHO_PLUS_X).coh_plus == 0.0

    def test_no_hops_rejected(self):
        with pytest.raises(ValueError):
            dephasing_stationary(DephasingParams(0.1, 0.2, 0.0, 0.0, 0.5, 0.5), RHO_PLUS_X)

    def test_per_channel_stationary_coherences(self):
        # each auxiliary matrix freezes at (P_R - P_other) * trace_R(inf) * coh(0)
        p = PRESETS["fig2"]
        model, _ = dephasing_model(p)
        result = evolve(model, RHO_PLUS_X, np.array([0.0, 200.0]))
        traces = stationary_channel_traces(p.gamma_ab, p.gamma_ba)
        expected_a = (p.p_a - p.p_b) * traces[0] * 0.5
        expected_b = (p.p_b - p.p_a) * traces[1] * 0.5
        assert result.stacked[-1, 0, 0, 1].real == pytest.approx(expected_a, abs=1e-8)
        assert result.stacked[-1, 1, 0, 1].real == pytest.approx(expected_b, abs=1e-8)


class TestDepolarizing:
    PARAMS = DepolarizingParams(1.0, 0.1, 0.1, 0.9)

    def test_jump_action(self):
        _, walk = depolarizing_model(self.PARAMS)
        jump = walk.jump_superoperator(0)
        rho = np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, 0.3]], dtype=complex)
        out = (jump @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(out, np.diag([0.3, 0.7]), atol=1e-14)

    def test_channel_coherence_decay(self):
        model, _ = depolarizing_model(self.PARAMS)
        grid = np.linspace(0.0, 5.0, 11)
        result = evolve(model, RHO_PLUS_X, grid)
        # channel a keeps its share of the coherence, damped at its escape rate
        expected = self.PARAMS.p_a * 0.5 * np.exp(-self.PARAMS.gamma_ba * grid)
        np.testing.assert_allclose(result.stacked[:, 0, 0, 1].real, expected, atol=1e-10)

    def test_cp_validation(self):
        model, _ = depolarizing_model(self.PARAMS)
        assert validate_model(model).passed

    def test_symmetric_weights_give_maximally_mixed(self, rng):
        p = DepolarizingParams(0.9, 0.4, 0.5, 0.5)
        for _ in range(5):
            rho0 = np.diag(rng.dirichlet([1, 1])).astype(complex)
            out = depolarizing_stationary(p, rho0)
            assert out.pop_plus == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_closed_form(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        out = depolarizing_stationary(self.PARAMS, rho0)
        assert out.pop_plus == pytest.approx(0.19 / 1.1, abs=1e-15)
        assert out.coh_plus == 0.0

    def test_solver_matches_closed_form(self):
        model, _ = depolarizing_model(self.PARAMS)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        expected = depolarizing_stationary(self.PARAMS, rho0).matrix()
        result = evolve(model, rho0, np.linspace(0.0, 150.0, 16))
        assert np.abs(result.system[-1] - expected).max() < 1e-6
        assert np.abs(stationary_state(model, rho0) - expected).max() < 1e-6
