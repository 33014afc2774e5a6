import numpy as np
import pytest
import scipy.linalg

from lindbladrate.linalg import (
    _kron,
    choi_matrix,
    coefficient_superop,
    devectorize,
    eig_factor,
    hamiltonian_superop,
    kraus_superop,
    min_eigenvalue,
    psd_check,
    trace_vector,
    vectorize,
)
from lindbladrate.qubit import SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_hermitian, vec_oracle


class TestVectorize:
    def test_identity(self):
        np.testing.assert_array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_column_convention(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(vectorize(x), [0, 0, 1, 0])

    def test_roundtrip_bit_exact(self, rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(devectorize(vectorize(x)), x)

    def test_matches_longhand_convention(self, rng):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(vectorize(x), vec_oracle(x))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            vectorize(np.ones((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.ones((3, 5)))

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_batched_roundtrip_bit_exact(self, rng, lead):
        x = rng.normal(size=(*lead, 3, 3)) + 1j * rng.normal(size=(*lead, 3, 3))
        v = vectorize(x)
        assert v.shape == (*lead, 9)
        assert np.array_equal(devectorize(v), x)
        assert np.array_equal(vectorize(devectorize(v)), v)
        for idx in np.ndindex(lead):
            assert np.array_equal(v[idx], vec_oracle(x[idx]))

    def test_devectorize_keeps_real_dtype(self, rng):
        v = rng.normal(size=(2, 4))
        out = devectorize(v)
        assert out.dtype == np.float64
        assert np.array_equal(out[1], v[1].reshape(2, 2).T)


class TestMinEigenvalue:
    def test_batched_matches_per_matrix(self, rng):
        mats = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        batched = min_eigenvalue(mats)
        assert batched.shape == (4,)
        for m, lam in zip(mats, batched):
            assert lam == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-12)

    def test_uses_hermitian_part(self):
        # the anti-Hermitian part is dropped: (M + M^dag) / 2 = diag(1, -2)
        m = np.array([[1.0, 3.0], [-3.0, -2.0]])
        assert float(min_eigenvalue(m)) == pytest.approx(-2.0)


class TestSandwich:
    """``vec(A X B) = (B.T kron A) vec(X)``, the column-stacking identity, on ``_kron``."""

    def test_identity_pair(self):
        np.testing.assert_allclose(_kron(np.eye(2).T, np.eye(2)), np.eye(4))

    def test_sigma_z_flips_offdiagonals(self):
        s = _kron(SIGMA_Z.T, SIGMA_Z)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(devectorize(s @ vectorize(x)), [[1, -2], [-3, 4]], atol=1e-14)

    def test_random_triple_product(self, rng):
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = devectorize(_kron(b.T, a) @ vectorize(x))
            np.testing.assert_allclose(lhs, a @ x @ b, atol=1e-12)


class TestPsdCheck:
    def test_indefinite(self):
        ok, min_eig = psd_check(np.diag([1.0, -1.0]))
        assert not ok
        assert min_eig == pytest.approx(-1.0)

    def test_zero_matrix(self):
        ok, min_eig = psd_check(np.zeros((3, 3)))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-15)

    def test_gram_construction(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        ok, min_eig = psd_check(np.outer(v, v.conj()))
        assert ok
        assert min_eig >= -1e-12

    def test_non_hermitian_is_not_psd(self):
        # used to raise "matrix is not Hermitian" instead of answering
        ok, min_eig = psd_check(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not ok
        assert min_eig == pytest.approx(0.5)

    def test_hermitian_within_rounding_is_psd(self):
        # residual 2.8e-12 is below 1e-10 * max(1, |M|); it used to be
        # judged against 1e-10 * |M| = 1.4e-13 and raise
        ok, min_eig = psd_check(np.array([[1e-3, 1e-12j], [1e-12j, 1e-3]]))
        assert ok
        assert min_eig == pytest.approx(1e-3)


class TestEigFactor:
    def test_jordan_block_refused_naming_residual(self):
        with pytest.raises(np.linalg.LinAlgError, match=r"residual \S+ exceeds EIG_TOL = 1e-11"):
            eig_factor(np.array([[-1.0, 1.0], [0.0, -1.0]]))

    def test_singular_eigenvectors_refused(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", lambda g: (np.zeros(2), np.array([[1.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(np.linalg.LinAlgError, match="residual inf exceeds EIG_TOL"):
            eig_factor(np.zeros((2, 2)))


class TestSuperopHelpers:
    def test_hamiltonian_superop_action(self, rng):
        h = random_hermitian(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = devectorize(hamiltonian_superop(h) @ vectorize(x))
        np.testing.assert_allclose(out, -1j * (h @ x - x @ h), atol=1e-12)

    def test_choi_of_kraus_map(self, rng):
        pauli_pair = [SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)]
        random_triple = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        for kraus in (pauli_pair, random_triple):
            choi = choi_matrix(kraus_superop(kraus))
            expected = sum(np.outer(vec_oracle(k), vec_oracle(k).conj()) for k in kraus)
            np.testing.assert_allclose(choi, expected, atol=1e-14)
            ok, _ = psd_check(choi)
            assert ok

    def test_trace_preserving_generator(self, rng):
        # dephasing dissipator annihilates the trace functional
        gen = kraus_superop([SIGMA_Z]) - np.eye(4)
        tau = trace_vector(2)
        prop = scipy.linalg.expm(2.3 * gen)
        for _ in range(10):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            out = devectorize(prop @ vectorize(x))
            assert abs(np.trace(out) - np.trace(x)) < 1e-10
        assert np.linalg.norm(tau @ gen) < 1e-12

    def test_choi_reshuffle_is_involution(self, rng):
        s = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        np.testing.assert_array_equal(choi_matrix(choi_matrix(s)), s)

    def test_choi_reshuffle_batches_leading_axes(self, rng):
        s = rng.normal(size=(2, 3, 9, 9)) + 1j * rng.normal(size=(2, 3, 9, 9))
        batched = choi_matrix(s)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(batched[idx], choi_matrix(s[idx]))

    def test_coefficient_superop_matches_sandwich_sum(self, rng):
        ops = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        coeffs = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
        superops = coefficient_superop(ops, coeffs)
        for b in range(2):
            expected = sum(coeffs[b, a, g] * _kron(ops[g].conj(), ops[a]) for a in range(5) for g in range(5))
            np.testing.assert_allclose(superops[b], expected, atol=1e-12)


class TestKron:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bits_match_numpy_kron(self, rng, d):
        real = rng.normal(size=(d, d))
        real[0, 0] = -0.0
        cplx = random_hermitian(rng, d) + 1j * rng.normal(size=(d, d))
        cplx[0, 1] = complex(-0.0, -0.0)
        eye = np.eye(d)
        for a in (real, cplx, eye, -eye):
            for b in (real, cplx, eye, cplx.T):
                got, want = _kron(a, b), np.kron(a, b)
                assert got.shape == want.shape and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                for part in (np.real, np.imag):
                    np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(want)))
