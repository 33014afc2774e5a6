import numpy as np
import pytest

from lindbladrate.linalg import choi_matrix, devectorize, psd_check, trace_vector, vectorize
from lindbladrate.model import (
    LindbladRateModel,
    MarkovDecayError,
    ModelFieldError,
    ModelStructureError,
    OperatorBasis,
    assemble_generator,
    build_from_correlations,
    embed_channels,
    reduce_from_tripartite,
    sum_channels,
    validate_model,
)
from lindbladrate.qubit import PRESETS, SIGMA_X, SIGMA_Z, DephasingParams, dephasing_model
from lindbladrate.solver import evolve
from lindbladrate.stochastic import StochasticModel, convert_walk_to_rate_model

from conftest import (
    apply_rate_equation,
    lindblad_superop_oracle,
    random_basis,
    random_density,
    random_hermitian,
    random_psd,
    random_rate_model,
)


class TestOperatorBasis:
    def test_pauli_basis_expand(self, rng, pauli):
        sx, sy, sz = pauli
        basis = OperatorBasis(np.array([np.eye(2, dtype=complex), sx, sy, sz]))
        target = 0.3 * sx - 1.2j * sy + 0.5 * np.eye(2)
        coeffs, resid = basis.expand(target)
        np.testing.assert_allclose(coeffs, [0.5, 0.3, -1.2j, 0.0], atol=1e-12)
        assert resid < 1e-12

    def test_partial_basis_residual(self, pauli):
        sx, _, sz = pauli
        basis = OperatorBasis(np.array([sz]))
        _, resid = basis.expand(sx)
        assert resid > 1.0

    def test_rejects_dependent_operators(self, pauli):
        _, _, sz = pauli
        with pytest.raises(ValueError):
            OperatorBasis(np.array([sz, 2.0 * sz]))


class TestValidateModel:
    def test_dephasing_rates_pass(self):
        model, _ = dephasing_model(DephasingParams(0.3, 1.0, 0.7, 0.2, 0.4, 0.6))
        assert validate_model(model).passed

    def test_negative_eigenvalue_reported(self, pauli):
        sx, sy, _ = pauli
        basis = OperatorBasis(np.array([sx, sy]))
        bad = np.diag([1.0, -1.0]).astype(complex)
        model = LindbladRateModel.from_blocks(basis, [1.0], bad[None])
        report = validate_model(model)
        assert not report.passed
        (failure,) = report.failures()
        assert failure.tag == (0, 0)
        assert failure.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_free_evolution_passes(self, pauli):
        _, _, sz = pauli
        basis = OperatorBasis(np.array([sz]))
        model = LindbladRateModel.from_blocks(basis, [1.0], np.zeros((1, 1, 1)))
        assert validate_model(model).passed

    @pytest.mark.parametrize("offdiagonal, passes", [(1e-12j, True), (1e-3j, False)], ids=["rounding", "anti-hermitian"])
    def test_hermiticity_judged_once_relative_to_max_1_norm(self, pauli, offdiagonal, passes):
        # the rounding case used to pass the report's own check and then raise
        # "matrix is not Hermitian" from the PSD check's stricter one
        sx, sy, _ = pauli
        block = np.array([[1e-3, offdiagonal], [offdiagonal, 1e-3]])
        report = validate_model(LindbladRateModel.from_blocks(OperatorBasis(np.array([sx, sy])), [1.0], block[None]))
        assert report.passed is passes
        assert report.blocks[0].is_psd == passes
        assert report.blocks[0].hermiticity_residual == pytest.approx(2 * np.sqrt(2) * abs(offdiagonal))


class TestAssembleGenerator:
    def test_single_channel_matches_direct_lindbladian(self, rng):
        # full and partial bases (m < d**2) in d = 2 and d = 3
        for d, m in [(2, 4), (2, 2), (3, 9), (3, 5)]:
            for _ in range(5):
                basis = random_basis(rng, d, m)
                a = random_psd(rng, basis.size)
                h = random_hermitian(rng, d)
                model = LindbladRateModel.from_blocks(basis, [1.0], a[None], hamiltonians=h[None])
                gen = assemble_generator(model).matrix
                oracle = lindblad_superop_oracle(h, basis.ops, a)
                np.testing.assert_allclose(gen, oracle, atol=1e-12, err_msg=f"d={d}, m={m}")

    def test_decoupled_blocks_give_block_diagonal(self, rng):
        model = random_rate_model(rng, d=2, k=3, coupled=False)
        gen = assemble_generator(model).matrix
        n = 4
        for r in range(3):
            for rp in range(3):
                if r != rp:
                    assert np.abs(gen[r * n : (r + 1) * n, rp * n : (rp + 1) * n]).max() == 0.0

    def test_dephasing_coefficients_by_hand(self):
        # Channel-major blocks; in each 4x4 block only the vec diagonal is hit:
        # populations (vec 0, 3) hop without sign, coherences (vec 1, 2) decay
        # at gamma_R plus escape and pick up a sign flip on feeds.
        p = PRESETS["fig1-lower"]
        g_a, g_b, g_ab, g_ba = p.gamma_a, p.gamma_b, p.gamma_ab, p.gamma_ba
        expected = np.zeros((8, 8))
        for v in (0, 3):  # populations
            expected[v, v] = -g_ba
            expected[v, 4 + v] = +g_ab
            expected[4 + v, 4 + v] = -g_ab
            expected[4 + v, v] = +g_ba
        for v in (1, 2):  # coherences
            expected[v, v] = -(g_a + g_ba)
            expected[v, 4 + v] = -g_ab
            expected[4 + v, 4 + v] = -(g_b + g_ab)
            expected[4 + v, v] = -g_ba
        model, _ = dephasing_model(p)
        np.testing.assert_allclose(assemble_generator(model).matrix, expected, atol=1e-14)

    def test_generator_matches_elementwise_oracle(self, rng):
        models = [random_rate_model(rng, d=d, k=k) for d, k in [(2, 2), (3, 3), (4, 2)]]
        partial = random_basis(rng, 3, 5)
        models.append(
            LindbladRateModel.from_blocks(
                partial,
                [0.4, 0.6],
                [random_psd(rng, 5), random_psd(rng, 5)],
                {(0, 1): random_psd(rng, 5), (1, 0): random_psd(rng, 5)},
                hamiltonians=[random_hermitian(rng, 3), random_hermitian(rng, 3)],
            )
        )
        for model in models:
            k, d = model.num_channels, model.dim
            gen = assemble_generator(model).matrix
            for _ in range(5):
                stacked = np.stack([random_density(rng, d) for _ in range(k)])
                image = gen @ vectorize(stacked).ravel()
                oracle = apply_rate_equation(model, stacked)
                np.testing.assert_allclose(
                    devectorize(image.reshape(k, d * d)),
                    oracle,
                    atol=1e-12,
                    err_msg=f"d={d}, K={k}, m={model.basis.size}",
                )

    def test_total_trace_functional_annihilated(self, rng):
        model = random_rate_model(rng, d=2, k=3)
        gen = assemble_generator(model)
        tau = np.tile(trace_vector(2), 3)
        assert np.linalg.norm(tau @ gen.matrix) < 1e-10 * max(1.0, np.linalg.norm(gen.matrix))
        for _ in range(100):
            x = rng.normal(size=12) + 1j * rng.normal(size=12)
            assert abs(tau @ gen.matrix @ x) < 1e-10 * np.linalg.norm(x) * np.linalg.norm(gen.matrix)

    def test_hermiticity_preserved(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        gen = assemble_generator(model).matrix
        for _ in range(20):
            stacked = np.stack([random_hermitian(rng, 2), random_hermitian(rng, 2)])
            image = devectorize((gen @ vectorize(stacked).ravel()).reshape(2, 4))
            for mat in image:
                assert np.linalg.norm(mat - mat.conj().T) < 1e-12 * max(1.0, np.linalg.norm(mat))

    def test_single_channel_propagator_is_cp(self, rng):
        import scipy.linalg

        model = random_rate_model(rng, d=2, k=1)
        assert validate_model(model).passed
        gen = assemble_generator(model).matrix
        for t in (0.1, 0.5, 2.0):
            prop = scipy.linalg.expm(t * gen)
            ok, min_eig = psd_check(choi_matrix(prop), tol=1e-10)
            assert ok, f"Choi minimum eigenvalue {min_eig} at t={t}"


def initial_stacked_state(model, rho):
    """The weighted embedding ``|P) rho`` as ``(K, d, d)`` matrices."""
    return devectorize(embed_channels(model.weights, vectorize(rho)).reshape(model.num_channels, -1))


class TestInitialStackedState:
    def test_weighted_embedding(self):
        model, _ = dephasing_model(DephasingParams(0.0, 0.0, 1.0, 0.1, 0.1, 0.9))
        state = initial_stacked_state(model, np.eye(2) / 2)
        np.testing.assert_allclose(state[0], 0.05 * np.eye(2))
        np.testing.assert_allclose(state[1], 0.45 * np.eye(2))
        # evolve starts from this stacked state
        np.testing.assert_allclose(evolve(model, np.eye(2) / 2, [0.0]).stacked[0], state, atol=1e-15)

    def test_single_channel_copies_state(self, rng):
        model = random_rate_model(rng, d=2, k=1)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(initial_stacked_state(model, rho)[0], rho)

    def test_total_trace_one(self, rng):
        model = random_rate_model(rng, d=2, k=3)
        rho = random_density(rng, 2)
        assert np.trace(initial_stacked_state(model, rho).sum(axis=0)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_trace(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        with pytest.raises(ValueError, match="trace"):
            evolve(model, np.eye(2), [0.0])

    def test_rejects_negative_state(self, rng):
        model = random_rate_model(rng, d=2, k=2)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            evolve(model, np.diag([1.5, -0.5]).astype(complex), [0.0])


class TestChannelMaps:
    @pytest.mark.parametrize("shape", [(4,), (9, 5), (4, 2, 3)])
    def test_sum_inverts_embed(self, rng, shape):
        # (1|P) = sum_R P_R = 1 whenever the weights are normalized; with
        # |x| <= 1 per part and K <= 3 the rounding stays below 2K ulps of 1
        for k in (1, 2, 3):
            weights = rng.uniform(0.1, 1.0, size=k)
            weights /= weights.sum()
            x = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
            y = embed_channels(weights, x)
            assert y.shape == (k * shape[0], *shape[1:])
            err = sum_channels(y, k) - x
            assert max(np.abs(err.real).max(), np.abs(err.imag).max()) <= 1e-15

    def test_channel_major_layout(self, rng):
        x = rng.normal(size=(4, 3))
        y = embed_channels([0.25, 0.75], x)
        np.testing.assert_array_equal(y[:4], 0.25 * x)
        np.testing.assert_array_equal(y[4:], 0.75 * x)
        np.testing.assert_array_equal(sum_channels(y, 2), y[:4] + y[4:])


class TestReduceFromTripartite:
    def _diagonal_b(self, rng, k, m):
        b = np.zeros((k * k, k * k, m, m), dtype=complex)
        for u in range(k * k):
            b[u, u] = random_psd(rng, m)
        return b

    def test_diagonal_blocks_copied(self, rng):
        basis = random_basis(rng, 2)
        b = self._diagonal_b(rng, 2, basis.size)
        model = reduce_from_tripartite(b, 2, basis)
        for r in range(2):
            for rp in range(2):
                np.testing.assert_array_equal(model.blocks[r, rp], b[r * 2 + rp, r * 2 + rp])

    def test_off_diagonal_rejected(self, rng):
        basis = random_basis(rng, 2)
        b = self._diagonal_b(rng, 2, basis.size)
        b[0, 3] = 0.1 * np.eye(basis.size)
        b[3, 0] = 0.1 * np.eye(basis.size)
        with pytest.raises(ModelStructureError, match=r"\(0, 0\)"):
            reduce_from_tripartite(b, 2, basis)

    def test_psd_joint_index_gives_psd_blocks(self, rng):
        basis = random_basis(rng, 2)
        m = basis.size
        k = 2
        # Gram construction: PSD in the joint (pair, basis) index, then zero
        # the pair-off-diagonal parts (principal blocks stay PSD).
        x = rng.normal(size=(k * k * m, k * k * m)) + 1j * rng.normal(size=(k * k * m, k * k * m))
        big = (x @ x.conj().T).reshape(k * k, m, k * k, m).transpose(0, 2, 1, 3)
        b = np.zeros_like(big)
        for u in range(k * k):
            b[u, u] = big[u, u]
        model = reduce_from_tripartite(b, k, basis)
        for tag in np.ndindex(k, k):
            ok, min_eig = psd_check(model.blocks[tag], tol=1e-10)
            assert ok, f"block {tag} min eigenvalue {min_eig}"


class TestBuildFromCorrelations:
    def test_zero_correlations(self, rng, pauli):
        basis = OperatorBasis(np.array([pauli[2]]))
        tau = np.linspace(0.0, 10.0, 201)
        chi = np.zeros((2, 2, 201, 1, 1), dtype=complex)
        blocks = build_from_correlations(chi, tau, np.zeros((2, 2)), basis)
        assert np.abs(blocks).max() == 0.0

    def test_exponential_half_line_integral(self, pauli):
        basis = OperatorBasis(np.array([pauli[2]]))
        c, tau_c = 0.35, 0.7
        tau = np.linspace(0.0, 20.0 * tau_c, 4001)
        chi = (c * np.exp(-tau / tau_c)).reshape(1, 1, -1, 1, 1).astype(complex)
        blocks = build_from_correlations(chi, tau, np.zeros((2, 2)), basis)
        assert blocks[0, 0, 0, 0] == pytest.approx(2 * c * tau_c, rel=1e-6)

    def test_lorentzian_with_rotating_operator(self, pauli):
        omega, c, tau_c = 1.3, 0.2, 0.9
        basis = OperatorBasis(np.array([[[0.0, 0.0], [1.0, 0.0]]]).astype(complex))
        tau = np.linspace(0.0, 25.0 * tau_c, 8001)
        chi = (c * np.exp(-tau / tau_c)).reshape(1, 1, -1, 1, 1).astype(complex)
        blocks = build_from_correlations(chi, tau, omega * pauli[2] / 2, basis)
        expected = 2 * c * tau_c / (1 + omega**2 * tau_c**2)
        assert blocks[0, 0, 0, 0] == pytest.approx(expected, rel=1e-6)

    def test_trapezoid_quadrature_option(self, pauli):
        basis = OperatorBasis(np.array([pauli[2]]))
        c, tau_c = 0.35, 0.7
        tau = np.linspace(0.0, 20.0 * tau_c, 4001)
        chi = (c * np.exp(-tau / tau_c)).reshape(1, 1, -1, 1, 1).astype(complex)
        blocks = build_from_correlations(chi, tau, np.zeros((2, 2)), basis, quadrature="trapezoid")
        assert blocks[0, 0, 0, 0] == pytest.approx(2 * c * tau_c, rel=1e-5)

    def test_undecayed_correlations_flagged(self, pauli):
        basis = OperatorBasis(np.array([pauli[2]]))
        tau = np.linspace(0.0, 1.0, 101)
        chi = np.exp(-tau).reshape(1, 1, -1, 1, 1).astype(complex)
        with pytest.raises(MarkovDecayError):
            build_from_correlations(chi, tau, np.zeros((2, 2)), basis)

    def test_basis_projection_failure(self, pauli):
        sx, _, sz = pauli
        basis = OperatorBasis(np.array([sx]))  # rotates out of span under H = sz
        tau = np.linspace(0.0, 30.0, 601)
        chi = np.exp(-tau).reshape(1, 1, -1, 1, 1).astype(complex)
        with pytest.raises(ValueError, match="span"):
            build_from_correlations(chi, tau, sz.astype(complex), basis)



_Z_BASIS = OperatorBasis(np.array([SIGMA_Z]))


def _walk(**changes) -> StochasticModel:
    """The fig2 walk, with ``changes`` to its fields."""
    fields = {
        "basis": _Z_BASIS,
        "hamiltonian": np.zeros((2, 2)),
        "dissipator_blocks": np.zeros((2, 1, 1)),
        "hop_rates": [[0.0, 1.0], [0.1, 0.0]],
        "kraus_maps": [[SIGMA_Z], [SIGMA_Z]],
        "weights": [0.1, 0.9],
    }
    return StochasticModel(**{**fields, **changes})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: _walk(hop_rates=[[0.0, 1.0], [0.1]]), "hop_rates[1]"),
        (lambda: LindbladRateModel(_Z_BASIS, [0.5, 0.6], np.zeros((2, 2, 1, 1))), "weights"),
        (
            lambda: LindbladRateModel.from_blocks(
                _Z_BASIS, [0.5, 0.5], np.zeros((2, 1, 1)), hamiltonians=[np.zeros((2, 2)), [[0, 1], [0, 0]]]
            ),
            "hamiltonians[1]",
        ),
        (lambda: reduce_from_tripartite(np.zeros((1, 1, 1, 1)), 1, _Z_BASIS, weights=[0.5, 0.5]), "weights"),
        (lambda: build_from_correlations(np.zeros((1, 1, 3, 1, 1)), [1.0, 2.0, 3.0], np.zeros((2, 2)), _Z_BASIS), "tau"),
        (lambda: convert_walk_to_rate_model(_walk(kraus_maps=[[SIGMA_Z], [SIGMA_X]]), _Z_BASIS), "kraus_maps[1]"),
    ],
    ids=[
        "walk-ragged-hop-row",
        "rate-weights-sum",
        "from-blocks-hamiltonian",
        "tripartite-weights-count",
        "correlations-tau-start",
        "walk-kraus-outside-basis",
    ],
)
def test_constructors_name_the_field(build, field):
    with pytest.raises(ModelFieldError) as refused:
        build()
    assert refused.value.field == field
    assert str(refused.value) == f"{field}: {refused.value.reason}"
