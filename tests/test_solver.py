import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from lindbladrate.linalg import devectorize, vectorize
from lindbladrate.model import (
    LindbladRateModel,
    OperatorBasis,
    StackedGenerator,
    assemble_generator,
    dissipator_superop,
    embed_channels,
    sum_channels,
)
from lindbladrate.qubit import (
    PRESETS,
    SIGMA_Z,
    DephasingParams,
    DepolarizingParams,
    dephasing_model,
    depolarizing_model,
    depolarizing_stationary,
    h_of_u,
)
from lindbladrate import solver
from lindbladrate.solver import (
    DefectiveSpectrumError,
    SingularSolveError,
    SolverError,
    evolve,
    homogeneity_check,
    memory_kernel_at,
    stationary_projector,
    stationary_state,
)

from conftest import apply_rate_equation, lindblad_superop_oracle, random_density, random_rate_model

RHO_PLUS_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# vec-index sectors for d = 2 (column stacking): populations live at 0 and 3,
# coherences at 1 (lower) and 2 (upper)
POP, COH = (0, 3), (1, 2)


def _free_model():
    basis = OperatorBasis(np.array([SIGMA_Z]))
    return LindbladRateModel.from_blocks(basis, [1.0], np.zeros((1, 1, 1)))


class TestEvolve:
    def test_zero_model_constant(self, rng):
        rho0 = random_density(rng, 2)
        result = evolve(_free_model(), rho0, np.linspace(0, 5, 11))
        for state in result.system:
            np.testing.assert_allclose(state, rho0, atol=1e-12)

    def test_single_channel_dephasing_rate_convention(self):
        # bare coefficient a_zz = gamma on V = sigma_z decays coherences at 2*gamma
        gamma = 0.37
        basis = OperatorBasis(np.array([SIGMA_Z]))
        model = LindbladRateModel.from_blocks(basis, [1.0], np.array([[[gamma]]]))
        grid = np.linspace(0, 4, 41)
        result = evolve(model, RHO_PLUS_X, grid)
        gen = assemble_generator(model).matrix
        for i, t in enumerate(grid):
            oracle = scipy.linalg.expm(t * gen) @ vectorize(RHO_PLUS_X)
            np.testing.assert_allclose(vectorize(result.system[i]), oracle, atol=1e-10)
            assert result.system[i][0, 1] == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-10)

    def test_fig1_lower_goes_negative(self):
        model, _ = dephasing_model(PRESETS["fig1-lower"])
        result = evolve(model, RHO_PLUS_X, np.linspace(0, 20, 201))
        h = result.system[:, 0, 1].real / 0.5
        assert h.min() < -1e-3
        assert np.abs(h).max() <= 1.0 + 1e-10

    def test_exact_and_rk_paths_agree(self, rng):
        cases = [
            dephasing_model(PRESETS["fig1-lower"])[0],
            dephasing_model(PRESETS["fig2"])[0],
            depolarizing_model(DepolarizingParams(1.0, 0.1, 0.1, 0.9))[0],
            random_rate_model(rng, d=2, k=2),
        ]
        grid = np.linspace(0, 8, 33)
        for model in cases:
            # DOP853 on the elementwise equations of motion: shares no code with evolve
            shape = (model.num_channels, model.dim, model.dim)
            rho0 = random_density(rng, 2)
            exact = evolve(model, rho0, grid)
            sol = scipy.integrate.solve_ivp(
                lambda _t, y: apply_rate_equation(model, y.reshape(shape)).ravel(),
                (grid[0], grid[-1]),
                np.stack([w * rho0 for w in model.weights]).ravel(),
                method="DOP853",
                t_eval=grid,
                rtol=1e-10,
                atol=1e-12,
            )
            assert sol.success
            rk_system = sol.y.T.reshape(-1, *shape).sum(axis=1)
            assert np.abs(exact.system - rk_system).max() < 1e-7

    def test_expm_fallback_steps_once_per_new_grid_time(self, monkeypatch):
        # Jordan blocks leave no reliable eigenbasis, so the exact path steps
        # with expm, carrying the state across blocks; a diagonalizable
        # generator never calls it
        expm = scipy.linalg.expm
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
        monkeypatch.setattr(solver, "_BLOCK_ROWS", 4)
        jordan = scipy.linalg.block_diag([[-1.0, 1.0], [0.0, -1.0]], [[-2.0, 1.0], [0.0, -2.0]]).astype(complex)
        y0 = np.array([0.3, 0.7, -0.2, 0.4 + 0.1j])
        grid = np.linspace(0, 5, 11)

        def propagate(gen):
            blocks = list(solver._propagate_blocks(gen, y0, grid))
            assert [len(t) for t, _ in blocks] == [4, 4, 3]
            assert np.array_equal(np.concatenate([t for t, _ in blocks]), grid)
            return np.concatenate([ys for _, ys in blocks])

        ys = propagate(jordan)
        assert len(calls) == grid.size - 1
        for t, y in zip(grid, ys):
            np.testing.assert_allclose(y, expm(t * jordan) @ y0, rtol=0, atol=1e-15)
        calls.clear()
        diagonalizable = np.diag([0.0, -1.0, -2.0 + 1.0j, -2.0 - 1.0j])
        ys = propagate(diagonalizable)
        assert calls == []
        np.testing.assert_allclose(ys, y0 * np.exp(np.multiply.outer(grid, np.diag(diagonalizable))), atol=1e-15)

    def test_trace_drift_refused(self):
        # rounding in the zero eigenvalues (~7e-18 on fig2) grows with t
        model, _ = dephasing_model(PRESETS["fig2"])
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert evolve(model, rho0, [0.0, 1e3]).trace_residual.max() < 1e-13
        with pytest.raises(SolverError, match=r"drifts from 1 by 9\.689e-01 at t = 5e\+17"):
            evolve(model, rho0, [0.0, 5e17, 1e18])

    def test_conservation_diagnostics(self, rng):
        model = random_rate_model(rng, d=2, k=3)
        result = evolve(model, random_density(rng, 2), np.linspace(0, 10, 51))
        assert result.trace_residual.max() < 1e-8
        assert result.hermiticity_residual.max() < 1e-10
        assert result.min_eigenvalue.min() > -1e-8
        for snapshot in result.stacked:
            for mat in snapshot:
                assert np.linalg.norm(mat - mat.conj().T) < 1e-10
                assert np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0] > -1e-8

    def test_decoupled_equals_weighted_exponentials(self, rng):
        for _ in range(3):
            model = random_rate_model(rng, d=2, k=2, coupled=False)
            gens = [lindblad_superop_oracle(model.hamiltonians[r], model.basis.ops, model.blocks[r, r]) for r in range(2)]
            rho0 = random_density(rng, 2)
            grid = np.linspace(0, 5, 11)
            result = evolve(model, rho0, grid)
            for i, t in enumerate(grid):
                mix = sum(
                    w * (scipy.linalg.expm(t * g) @ vectorize(rho0)) for w, g in zip(model.weights, gens)
                )
                np.testing.assert_allclose(vectorize(result.system[i]), mix, atol=1e-10)

    def test_grid_validation(self, rng):
        model = random_rate_model(rng, d=2, k=1)
        rho0 = random_density(rng, 2)
        with pytest.raises(ValueError):
            evolve(model, rho0, np.linspace(1.0, 2.0, 5))
        with pytest.raises(ValueError):
            evolve(model, rho0, np.array([0.0, 2.0, 1.0]))


class TestSystemState:
    def test_initial_state_recovered(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        rho0 = random_density(rng, 2)
        result = evolve(model, rho0, np.linspace(0, 1, 5))
        np.testing.assert_allclose(result.system[0], rho0, atol=1e-12)

    def test_fig2_stationary_coherence(self):
        model, _ = dephasing_model(PRESETS["fig2"])
        result = evolve(model, RHO_PLUS_X, np.linspace(0, 100, 51))
        coh = result.system[-1][0, 1].real / 0.5
        assert coh == pytest.approx(-0.72 / 1.1, abs=1e-9)


class TestStationaryProjector:
    def test_idempotent_and_annihilating(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        gen = assemble_generator(model)
        proj = stationary_projector(model)
        assert np.linalg.norm(proj.projector @ proj.projector - proj.projector) < 1e-8
        assert np.linalg.norm(gen.matrix @ proj.projector) < 1e-8 * np.linalg.norm(gen.matrix)

    def test_single_channel_unique_steady_state_rank_one(self, rng):
        model = random_rate_model(rng, d=2, k=1)
        proj = stationary_projector(model)
        svals = np.linalg.svd(proj.reduced_map, compute_uv=False)
        assert svals[0] > 1e-6
        assert svals[1] < 1e-10
        rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
        out_a = devectorize(proj.reduced_map @ vectorize(rho_a))
        out_b = devectorize(proj.reduced_map @ vectorize(rho_b))
        np.testing.assert_allclose(out_a, out_b, atol=1e-9)

    def test_fig2_coherence_component(self):
        model, _ = dephasing_model(PRESETS["fig2"])
        proj = stationary_projector(model)
        expected = (0.1 - 0.9) * (1.0 - 0.1) / 1.1
        for v in COH:
            assert proj.reduced_map[v, v].real == pytest.approx(expected, abs=1e-9)

    def test_fig1_lower_coherence_block_vanishes(self):
        model, _ = dephasing_model(PRESETS["fig1-lower"])
        proj = stationary_projector(model)
        assert np.abs(proj.reduced_map[np.ix_(COH, COH)]).max() < 1e-9

    def test_defective_zero_sector_refused(self):
        jordan = np.zeros((4, 4), dtype=complex)
        jordan[0, 1] = 1.0
        jordan[2, 2] = jordan[3, 3] = -1.0
        gen = StackedGenerator(jordan, 1, 2, np.array([1.0]))
        with pytest.raises(DefectiveSpectrumError):
            stationary_projector(gen)


class TestHomogeneity:
    def test_generic_single_channel_fails(self, rng):
        report = homogeneity_check(random_rate_model(rng, d=2, k=1))
        assert not report.holds

    def test_fig2_fails_in_coherence_sector(self):
        model, _ = dephasing_model(PRESETS["fig2"])
        report = homogeneity_check(model)
        assert not report.holds
        assert report.coherence_residual_norm > 0.5
        assert report.sector_norms["coherence<-coherence"] > 0.5
        assert report.sector_norms["coherence<-population"] < 1e-9

    def test_no_zero_mode_generator_holds(self):
        gen = StackedGenerator(-np.eye(8, dtype=complex), 2, 2, np.array([0.5, 0.5]))
        report = homogeneity_check(gen)
        assert report.holds
        assert report.coherence_residual_norm < 1e-12


def reduced_resolvent(model, u):
    """The ``d**2 x d**2`` map ``(1| (u - G)^{-1} |P)`` from the solver's LU solves."""
    gen = assemble_generator(model)
    return solver._reduced_solves(gen, u, embed_channels(gen.weights, np.eye(gen.dim * gen.dim)))[0]


class TestReducedResolvent:
    def test_large_u_asymptotics(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        for u in (1e4, 1e6):
            res = reduced_resolvent(model, u)
            assert np.linalg.norm(u * res - np.eye(4)) < 10.0 / u * np.linalg.norm(
                assemble_generator(model).matrix
            )

    def test_dephasing_coherence_equals_h(self):
        p = PRESETS["fig1-lower"]
        model, _ = dephasing_model(p)
        for u in (0.3, 1.0, 2.5):
            res = reduced_resolvent(model, u)
            for v in COH:
                assert res[v, v] == pytest.approx(h_of_u(p, u), abs=1e-10)

    def test_dephasing_population_sector_is_1_over_u(self):
        model, _ = dephasing_model(PRESETS["fig1-lower"])
        for u in (0.3, 1.0, 2.5):
            res = reduced_resolvent(model, u)
            for v in POP:
                assert res[v, v] == pytest.approx(1.0 / u, abs=1e-12)

    def test_resolvent_identity_via_full_space_composition(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        gen = assemble_generator(model)
        u, v = 0.9 + 0.2j, 2.1 - 0.4j
        lhs = reduced_resolvent(model, u) - reduced_resolvent(model, v)
        eye = np.eye(8)
        cols = np.linalg.solve(v * eye - gen.matrix, embed_channels(gen.weights, np.eye(4)))
        cols = np.linalg.solve(u * eye - gen.matrix, cols)
        rhs = (v - u) * sum_channels(cols, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestMemoryKernel:
    def test_markovian_limit_is_dissipator(self, rng):
        for _ in range(3):
            model = random_rate_model(rng, d=2, k=1)
            model.system_hamiltonian = model.hamiltonians[0].copy()
            dissipator = dissipator_superop(model.basis, model.blocks[0, 0])
            samples = [memory_kernel_at(model, u) for u in (0.5, 1.3, 3.7)]
            for sample in samples:
                assert np.abs(sample.kernel - dissipator).max() < 1e-9

    def test_dephasing_identity(self):
        p = PRESETS["fig1-upper"]
        model, _ = dephasing_model(p)
        for u in (0.5, 1.0, 2.0, 4.0):
            sample = memory_kernel_at(model, u)
            h = h_of_u(p, u)
            for v in COH:
                assert abs(sample.kernel[v, v] * h - (u * h - 1.0)) < 1e-8

    def test_singular_at_h_zero(self):
        p = PRESETS["fig1-upper"]
        model, _ = dephasing_model(p)
        u_zero = -(p.p_a * p.gamma_b + p.p_b * p.gamma_a)  # root of h's numerator
        assert abs(h_of_u(p, u_zero)) < 1e-14
        with pytest.raises(SingularSolveError):
            memory_kernel_at(model, u_zero)

    def test_shift_flag_set_when_homogeneity_fails(self):
        # trace preservation forces a nonzero stationary map, so every valid
        # model extracts through the shifted relation
        model, _ = dephasing_model(PRESETS["fig2"])
        sample = memory_kernel_at(model, 1.0)
        assert sample.shifted
        assert not homogeneity_check(model).holds


class TestStationaryState:
    def test_depolarizing_closed_form(self, rng):
        p = DepolarizingParams(1.0, 0.1, 0.1, 0.9)
        model, _ = depolarizing_model(p)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        expected = depolarizing_stationary(p, rho0).matrix()
        np.testing.assert_allclose(stationary_state(model, rho0), expected, atol=1e-9)

    def test_fig2_normalized_coherence(self):
        model, _ = dephasing_model(PRESETS["fig2"])
        rho_inf = stationary_state(model, RHO_PLUS_X)
        assert rho_inf[0, 1].real / 0.5 == pytest.approx(-0.6545454545454545, abs=1e-9)

    def test_unital_single_channel_fixed_point(self):
        model, _ = dephasing_model(DephasingParams(0.0, 0.5, 0.0, 0.2, 0.0, 1.0))
        rho_inf = stationary_state(model, np.eye(2) / 2)
        np.testing.assert_allclose(rho_inf, np.eye(2) / 2, atol=1e-9)

    def test_cross_check_against_long_time_evolution(self):
        # exercised internally; also verify directly at t = 200
        model, _ = dephasing_model(PRESETS["fig2"])
        rho_inf = stationary_state(model, RHO_PLUS_X)
        result = evolve(model, RHO_PLUS_X, np.array([0.0, 200.0]))
        np.testing.assert_allclose(result.system[-1], rho_inf, atol=1e-8)

    def test_zero_generator_everything_stationary(self, rng):
        rho0 = random_density(rng, 2)
        np.testing.assert_allclose(stationary_state(_free_model(), rho0), rho0, atol=1e-12)

    def test_rho0_must_be_a_density_of_the_model(self):
        model, _ = dephasing_model(PRESETS["fig2"])
        analysis = stationary_projector(model)
        near_psd = np.array([[0.5, 0.500001], [0.500001, 0.5]])  # eigenvalue -1e-6
        for bad, match in ((np.eye(3) / 3, r"state must be \(2, 2\)"), (np.eye(2), "trace"), (near_psd, "negative")):
            for source in (model, analysis):
                with pytest.raises(ValueError, match=match):
                    stationary_state(source, bad)
        within_tol = np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]])  # eigenvalue -1e-9, inside PSD_TOL
        np.testing.assert_allclose(stationary_state(analysis, within_tol).trace(), 1.0, atol=1e-12)


class TestSharedAnalysis:
    """One ``stationary_projector`` serves every spectral call of a command."""

    @staticmethod
    def _models(rng):
        fig2, _ = dephasing_model(PRESETS["fig2"])
        random44 = random_rate_model(rng, d=4, k=4)
        random44.system_hamiltonian = random44.hamiltonians[0].copy()
        return {"fig2": (fig2, (1.5, 2.0, 4.5)), "random(4,4)": (random44, (0.5, 1.3, 3.7))}

    def test_kernel_from_shared_projector_is_bit_identical(self, rng):
        for name, (model, points) in self._models(rng).items():
            analysis = stationary_projector(model)
            for u in points:
                shared, fresh = memory_kernel_at(analysis, u), memory_kernel_at(model, u)
                assert np.array_equal(shared.kernel, fresh.kernel), (name, u)
                assert (shared.shifted, shared.condition, shared.rank, shared.residual) == (
                    fresh.shifted,
                    fresh.condition,
                    fresh.rank,
                    fresh.residual,
                ), (name, u)

    def test_stationary_and_homogeneity_from_shared_projector(self, rng):
        for name, (model, _) in self._models(rng).items():
            analysis = stationary_projector(model)
            rho0 = random_density(rng, model.dim)
            assert np.array_equal(stationary_state(analysis, rho0), stationary_state(model, rho0)), name
            assert np.array_equal(homogeneity_check(analysis).reduced_map, homogeneity_check(model).reduced_map)

    def test_kernel_refuses_analysis_without_model(self, rng):
        analysis = stationary_projector(assemble_generator(random_rate_model(rng, d=2, k=2)))
        with pytest.raises(TypeError, match="model"):
            memory_kernel_at(analysis, 1.0)

    def test_corrupted_reduced_map_fails_cross_check(self, rng):
        for name, (model, _) in self._models(rng).items():
            analysis = stationary_projector(model)
            analysis.reduced_map = analysis.reduced_map + 1e-3
            with pytest.raises(SolverError, match="long-time"):
                stationary_state(analysis, random_density(rng, model.dim))

    def test_slowest_rate_matches_eigvals(self, rng):
        for d, k in ((2, 1), (2, 2), (3, 2), (4, 4)):
            model = random_rate_model(rng, d=d, k=k)
            analysis = stationary_projector(model)
            vals = np.linalg.eigvals(assemble_generator(model).matrix)
            nonzero = vals[np.abs(vals) >= 1e-9 * analysis.scale]
            assert analysis.zero_dimension == vals.size - nonzero.size
            assert analysis.slowest_rate() == pytest.approx(np.max(nonzero.real), rel=1e-9, abs=1e-12)

    def test_slowest_rate_none_when_everything_is_stationary(self):
        assert stationary_projector(_free_model()).slowest_rate() is None
