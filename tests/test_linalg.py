import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindbladrate
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
from lindbladrate.qubit import PRESETS, SIGMA_X, SIGMA_Y, SIGMA_Z, dephasing_model
from lindbladrate.solver import evolve

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


def _eigvalsh_bits(m):
    """The reference: ``eigvalsh`` of the Hermitian part, as bits."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))[..., 0].view(np.int64)


def _edge_sets():
    """2 x 2 batches named by what makes them hard, 2000 rows each."""
    rng = np.random.default_rng(2222)
    g = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
    herm = 0.5 * (g + g.conj().swapaxes(-1, -2))
    off = np.zeros((2, 2), dtype=bool)
    off[0, 1] = off[1, 0] = True

    def with_offdiagonal(values):
        m = herm.copy()
        m[:, 1, 0] = values
        m[:, 0, 1] = np.conj(values)
        return m

    equal, opposite = herm.copy(), herm.copy()
    equal[:, 1, 1] = equal[:, 0, 0]
    opposite[:, 1, 1] = -opposite[:, 0, 0]
    a21 = herm[:, 1, 0]
    sets = {
        "equal-diagonal": equal,
        "opposite-diagonal": opposite,
        "zero-offdiagonal": np.where(off, 0, herm),
        "real-offdiagonal": with_offdiagonal(a21.real),
        "imaginary-offdiagonal": with_offdiagonal(1j * a21.imag),
        "tiny-offdiagonal": with_offdiagonal(a21 * 10.0 ** rng.uniform(-20, -8, 2000)),
        "zero-matrix": np.zeros((50, 2, 2), dtype=complex),
        "real": g.real,
        "non-hermitian": g,
        "subnormal": g * 2.0**-1060,
        "per-entry-wide": g * 10.0 ** rng.uniform(-150, 150, (2000, 2, 2)),
    }
    for exponent in (140, -140, 200, -200):
        sets[f"scale-1e{exponent:+d}"] = g * 10.0**exponent
    return sets


EDGE_SETS = _edge_sets()


@st.composite
def _batches(draw):
    """Complex ``(n, 2, 2)`` batches with entries ``s * 2**k``, and an off-diagonal
    that is complex, real, imaginary or zero throughout the batch."""
    low, high = draw(st.sampled_from([(-8, 8), (-170, 170), (-1074, 1020)]))
    n = draw(st.integers(1, 16))
    entries = st.builds(lambda s, k: s * 2.0**k, st.floats(-1.0, 1.0), st.integers(low, high))
    m = draw(hnp.arrays(np.float64, (n, 2, 2, 2), elements=entries)).view(np.complex128)[..., 0]
    kind = draw(st.sampled_from(["complex", "real", "imaginary", "zero"]))
    if kind == "real":
        m.imag[:, [0, 1], [1, 0]] = 0.0
    elif kind == "imaginary":
        m.real[:, [0, 1], [1, 0]] = 0.0
    elif kind == "zero":
        m[:, [0, 1], [1, 0]] = 0.0
    return m


class TestMinEigenvalue2x2:
    """Batches of 2 x 2 matrices take a replay of LAPACK's n = 2 path; its
    bits must be eigvalsh's."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(m=_batches())
    def test_any_batch_matches_eigvalsh_bits(self, m):
        assert np.array_equal(min_eigenvalue(m).view(np.int64), _eigvalsh_bits(m))

    @pytest.mark.parametrize("m", list(EDGE_SETS.values()), ids=list(EDGE_SETS))
    def test_edge_set_matches_eigvalsh_bits(self, m):
        assert np.array_equal(min_eigenvalue(m).view(np.int64), _eigvalsh_bits(m))

    def test_preset_evolutions_to_t_200_match_eigvalsh_bits(self):
        grid = np.linspace(0.0, 200.0, 4001)
        states = [
            np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
            np.array([[0.5, -0.5j], [0.5j, 0.5]]),
            np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]]),
        ]
        for name in PRESETS:
            rate_model, _ = dephasing_model(PRESETS[name])
            for rho0 in states:
                result = evolve(rate_model, rho0, grid)
                assert np.array_equal(result.min_eigenvalue.view(np.int64), _eigvalsh_bits(result.system)), name

    def test_batches_keep_their_shape(self, rng):
        m = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        out = min_eigenvalue(m)
        assert out.shape == (3, 5)
        assert np.array_equal(out.view(np.int64), _eigvalsh_bits(m))
        assert min_eigenvalue(m[:0]).shape == (0, 5)

    @staticmethod
    def _spy(monkeypatch):
        """Record the matrices that reach ``np.linalg.eigvalsh``."""
        seen = []
        original = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append(np.array(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return seen

    def test_ordinary_rows_never_reach_eigvalsh(self, rng, monkeypatch):
        v = rng.standard_normal((5000, 2, 3)) + 1j * rng.standard_normal((5000, 2, 3))
        rho = v @ v.conj().swapaxes(-1, -2)
        expected = _eigvalsh_bits(rho)
        seen = self._spy(monkeypatch)
        assert np.array_equal(min_eigenvalue(rho).view(np.int64), expected)
        assert seen == []

    FALLBACK_ROWS = {
        # zheevd scales A: max |a_ij| above RMAX = 2**485 or below RMIN = 2**-485
        "zheevd-scales-up": [[1e200, 3e199j], [-3e199j, 2e200]],
        "zheevd-scales-down": [[1e-200, 3e-201j], [-3e-201j, 2e-200]],
        # inside zheevd's range, but dsterf scales T below SSFMIN = 2**-405
        "dsterf-scales": [[1e-130, 3e-131j], [-3e-131j, 2e-130]],
        # |beta| = |a21| below 2**-969: zlarfg rescales the reflector
        "zlarfg-rescales": [[0.0, 1e-300j], [-1e-300j, 1.0]],
        # |e| <= eps sqrt|d1| sqrt|d2|: dsterf's first split test
        "split-first-test": [[1.0, 1e-17], [1e-17, 2.0]],
        # d1 = 0 fails the first test; e**2 underflows and meets the second
        "split-second-test": [[0.0, 1e-170], [1e-170, 1.0]],
        "zero": [[0.0, 0.0], [0.0, 0.0]],
        "nan": [[np.nan, 0.3], [0.3, 1.0]],
        "infinite-offdiagonal": [[1.0, np.inf], [np.inf, 1.0]],
        # dropped by the Hermitian part only after turning it into NaN
        "infinite-imaginary-diagonal": [[complex(1.0, np.inf), 0.3], [0.3, 1.0]],
    }

    @pytest.mark.parametrize("row", list(FALLBACK_ROWS.values()), ids=list(FALLBACK_ROWS))
    def test_rows_the_replay_cannot_follow_reach_eigvalsh(self, rng, monkeypatch, row):
        m = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
        m[4] = row
        with np.errstate(invalid="ignore"):
            expected = _eigvalsh_bits(m)
            seen = self._spy(monkeypatch)
            got = min_eigenvalue(m)
        assert np.array_equal(got.view(np.int64), expected)
        assert len(seen) == 1 and seen[0].shape == (1, 2, 2)

    def test_single_matrix_stays_on_eigvalsh(self, monkeypatch):
        seen = self._spy(monkeypatch)
        min_eigenvalue(np.array([[1.0, 0.5j], [-0.5j, 2.0]]))
        assert len(seen) == 1 and seen[0].shape == (2, 2)


# Under these, OpenBLAS runs other kernels and numpy other loops (some of the
# CSV pins move); the replay must still give eigvalsh's bits.
_ALTERNATIVE_ENVIRONMENTS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-without-avx2-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"},
}
_COMPARE_IN_CHILD = """
import json
import numpy as np
from lindbladrate.linalg import min_eigenvalue

rng = np.random.default_rng(11)
g = rng.standard_normal((20000, 2, 2)) + 1j * rng.standard_normal((20000, 2, 2))
v = rng.standard_normal((20000, 2, 3)) + 1j * rng.standard_normal((20000, 2, 3))
sets = [g, v @ v.conj().swapaxes(-1, -2), g * 10.0 ** rng.uniform(-150, 150, (20000, 2, 2))]
rows = mismatches = 0
for m in sets:
    reference = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))[:, 0]
    mismatches += int(np.count_nonzero(min_eigenvalue(m).view(np.int64) != reference.view(np.int64)))
    rows += len(m)
print(json.dumps({"rows": rows, "mismatches": mismatches}))
"""


@pytest.mark.parametrize(
    "extra_env", list(_ALTERNATIVE_ENVIRONMENTS.values()), ids=list(_ALTERNATIVE_ENVIRONMENTS)
)
def test_2x2_path_matches_eigvalsh_under_other_kernels(extra_env):
    # the environment is set on the child only; both sides of the comparison run there
    src = os.path.dirname(os.path.dirname(lindbladrate.__file__))
    env = dict(os.environ, PYTHONPATH=src, **extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", _COMPARE_IN_CHILD], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(proc.stdout) == {"rows": 60000, "mismatches": 0}


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_norm_refused(self):
        # |gen| overflows to inf, and inf <= EIG_TOL * inf used to accept the
        # singular eigenvector matrix, then end in an UnboundLocalError
        with pytest.raises(np.linalg.LinAlgError, match="residual nan exceeds EIG_TOL"):
            eig_factor(np.array([[0, 1e308], [0, 0]]))


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
