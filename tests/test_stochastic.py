import dataclasses
import functools
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from lindbladrate import _kernels
from lindbladrate._rng import draw_u64, mix64, stream_key, to_unit
from lindbladrate.config import parse_config
from lindbladrate.linalg import kraus_superop, trace_vector, vectorize
from lindbladrate.model import CPValidationError, OperatorBasis, assemble_generator
from lindbladrate.qubit import (
    PRESETS,
    SIGMA_X,
    SIGMA_Z,
    DephasingParams,
    DepolarizingParams,
    dephasing_model,
    depolarizing_model,
)
from lindbladrate.solver import evolve
from lindbladrate.stochastic import StochasticModel, _build_kit, convert_walk_to_rate_model, run_ensemble

from conftest import (
    CounterStream,
    TrajectoryState,
    init_channel,
    random_basis,
    random_density,
    random_psd,
    sample_sojourn,
    select_next_channel,
    step_trajectory,
)
from test_output_bytes import _STATE, _WALK_RARE, CONFIG_PINNED

RHO_PLUS_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def direct_walk_generator(walk: StochasticModel) -> np.ndarray:
    """Stacked generator written straight from the jump-process equations."""
    k, n = walk.num_channels, walk.dim**2
    gen = np.zeros((k * n, k * n), dtype=complex)
    for r in range(k):
        block = walk.self_generator(r) - walk.escape_rates()[r] * np.eye(n)
        gen[r * n : (r + 1) * n, r * n : (r + 1) * n] = block
        for rp in range(k):
            if rp != r:
                gen[r * n : (r + 1) * n, rp * n : (rp + 1) * n] = walk.hop_rates[r, rp] * kraus_superop(
                    walk.kraus_maps[rp]
                )
    return gen


class TestRngStreams:
    def test_array_streams_match_scalar_streams(self, rng):
        # the kernel draws for a whole block through uint64 arrays; each
        # element must equal the Python-int reference bit for bit
        xs = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        assert mix64(xs).tolist() == [mix64(int(x)) for x in xs]
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        idx = np.concatenate([np.arange(50), rng.integers(0, 2**64, size=50, dtype=np.uint64)]).astype(np.uint64)
        keys = stream_key(seed, idx)
        assert keys.tolist() == [stream_key(seed, int(i)) for i in idx]
        ctrs = rng.integers(0, 2**20, size=idx.size).astype(np.uint64)
        units = to_unit(draw_u64(keys, ctrs))
        assert units.dtype == np.float64
        assert units.tolist() == [to_unit(draw_u64(int(k), int(c))) for k, c in zip(keys, ctrs)]

    def test_streams_are_open_unit_interval(self):
        stream = CounterStream(123, 5)
        draws = np.array([stream.uniform() for _ in range(10000)])
        assert draws.min() > 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.02

    def test_distinct_trajectories_have_distinct_keys(self):
        keys = {stream_key(7, i) for i in range(10000)}
        assert len(keys) == 10000


class TestConvertWalk:
    def test_dephasing_reproduces_auxiliary_equations(self):
        p = PRESETS["fig1-lower"]
        rate_model, walk = dephasing_model(p)
        converted = convert_walk_to_rate_model(walk, rate_model.basis)
        np.testing.assert_allclose(converted.blocks, rate_model.blocks, atol=1e-14)
        gen = assemble_generator(converted).matrix
        np.testing.assert_allclose(gen, direct_walk_generator(walk), atol=1e-12)

    def test_zero_rates_block_diagonal(self):
        _, walk = dephasing_model(DephasingParams(0.2, 0.9, 0.0, 0.0, 0.3, 0.7))
        model = convert_walk_to_rate_model(walk, walk.basis)
        assert np.abs(model.blocks[0, 1]).max() == 0.0
        assert np.abs(model.blocks[1, 0]).max() == 0.0

    def test_depolarizing_population_equations(self):
        # populations couple pairwise with swapped indices; coefficients read
        # off the jump-process equations by hand
        p = DepolarizingParams(1.3, 0.4, 0.25, 0.75)
        rate_model, walk = depolarizing_model(p)
        gen = assemble_generator(convert_walk_to_rate_model(walk, rate_model.basis)).matrix
        np.testing.assert_allclose(gen, direct_walk_generator(walk), atol=1e-12)
        # d Pi_a^+ = -gamma_ba Pi_a^+ + gamma_ab Pi_b^-  (vec index 0; 4+3 in channel b)
        assert gen[0, 0] == pytest.approx(-p.gamma_ba)
        assert gen[0, 4 + 3] == pytest.approx(p.gamma_ab)
        assert gen[3, 3] == pytest.approx(-p.gamma_ba)
        assert gen[3, 4 + 0] == pytest.approx(p.gamma_ab)
        # coherences decay without feeding: row of vec index 1 in channel a
        assert gen[1, 1] == pytest.approx(-p.gamma_ba)
        assert np.abs(gen[1, 4:]).max() < 1e-14

    def test_kraus_outside_basis_rejected(self):
        _, walk = depolarizing_model(DepolarizingParams(1.0, 0.1, 0.1, 0.9))
        bad_basis = OperatorBasis(np.array([SIGMA_Z]))
        with pytest.raises(ValueError, match="not expandable"):
            convert_walk_to_rate_model(walk, bad_basis)

    def test_basis_change_congruence(self):
        p = PRESETS["fig1-lower"]
        rate_model, walk = dephasing_model(p)
        enlarged = OperatorBasis(np.array([np.eye(2, dtype=complex), SIGMA_Z]))
        converted = convert_walk_to_rate_model(walk, enlarged)
        np.testing.assert_allclose(
            assemble_generator(converted).matrix, direct_walk_generator(walk), atol=1e-12
        )


class TestSamplingPrimitives:
    def test_init_channel_degenerate(self):
        stream = CounterStream(1, 0)
        assert all(init_channel([1.0, 0.0], stream) == 0 for _ in range(100))

    def test_init_channel_frequencies(self):
        stream = CounterStream(99, 0)
        draws = np.array([init_channel([0.1, 0.9], stream) for _ in range(100000)])
        freq_a = np.mean(draws == 0)
        sigma = np.sqrt(0.1 * 0.9 / 100000)
        assert abs(freq_a - 0.1) < 3 * sigma

    def test_init_channel_symmetric(self):
        stream = CounterStream(7, 1)
        draws = np.array([init_channel([0.5, 0.5], stream) for _ in range(100000)])
        assert abs(np.mean(draws) - 0.5) < 3 * np.sqrt(0.25 / 100000)

    def test_sojourn_mean_and_ks(self):
        rates = np.array([[0.0, 0.0], [1.0, 0.0]])  # escape from 0 at rate 1
        stream = CounterStream(2024, 0)
        samples = np.array([sample_sojourn(0, rates, stream) for _ in range(100000)])
        assert abs(samples.mean() - 1.0) < 0.01
        assert scipy.stats.kstest(samples, "expon", args=(0.0, 1.0)).pvalue > 0.01

    def test_sojourn_never_jumps_sentinel(self):
        rates = np.zeros((2, 2))
        assert sample_sojourn(0, rates, CounterStream(1, 0)) == np.inf

    def test_select_next_two_channels_deterministic(self):
        rates = np.array([[0.0, 2.0], [0.5, 0.0]])
        stream = CounterStream(3, 0)
        assert all(select_next_channel(0, rates, stream) == 1 for _ in range(50))

    def test_select_next_multinomial(self):
        # from channel 0: rates to 1, 2, 3 are 2, 1, 1 -> probs 0.5, 0.25, 0.25
        rates = np.zeros((4, 4))
        rates[1, 0], rates[2, 0], rates[3, 0] = 2.0, 1.0, 1.0
        stream = CounterStream(11, 0)
        draws = np.array([select_next_channel(0, rates, stream) for _ in range(100000)])
        for dest, prob in [(1, 0.5), (2, 0.25), (3, 0.25)]:
            freq = np.mean(draws == dest)
            assert abs(freq - prob) < 3 * np.sqrt(prob * (1 - prob) / 100000)
        assert not np.any(draws == 0)


class TestDrawTables:
    """The kit's channel-draw tables: cumulative probabilities, 1.0 from the last positive one on."""

    @staticmethod
    def _kit(weights, hop_rates):
        k = len(weights)
        basis = OperatorBasis(np.array([SIGMA_Z]))
        walk = StochasticModel(basis, np.zeros((2, 2)), np.zeros((k, 1, 1)), hop_rates, [[np.eye(2)]] * k, weights)
        return _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 1.0, 3))

    def test_zero_weight_channel_is_never_drawn(self):
        # was [0.5, 0.99999999996, 1.0]: a trajectory started in channel 2,
        # of weight 0, with probability 4e-11
        kit = self._kit([0.5, 0.5 - 4e-11, 0.0], np.zeros((3, 3)))
        assert kit.weights_cum.tolist() == [0.5, 1.0, 1.0]
        # the kernel's initial draw at the largest uniform below 1
        assert np.searchsorted(kit.weights_cum, np.nextafter(1.0, 0.0)) == 1

    def test_transfer_rows(self):
        rates = np.zeros((4, 4))
        rates[1, 0], rates[2, 0] = 2.0, 1.0  # 0 -> 1 and 0 -> 2, never 0 -> 3
        rates[0, 1] = 0.5  # 1 -> 0 only; 2 and 3 never leave
        kit = self._kit([0.25] * 4, rates)
        assert kit.trans_cum.tolist() == [[0.0, 2.0 / 3.0, 1.0, 1.0], [1.0] * 4, [0.0] * 4, [0.0] * 4]

    def test_rows_are_the_running_sums_of_the_rates(self, rng):
        # the running sum in destination order, as the per-entry loop it replaced added it
        rates = rng.uniform(size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.6)
        np.fill_diagonal(rates, 0.0)
        kit = self._kit([0.2] * 5, rates)
        for src in range(5):
            cum, table = 0.0, []
            for dest in range(5):
                cum += rates[dest, src] / rates[:, src].sum() if rates[dest, src] > 0 else 0.0
                table.append(cum)
            positive = np.flatnonzero(rates[:, src] > 0)
            if positive.size:
                table[positive[-1] :] = [1.0] * (5 - positive[-1])
            assert kit.trans_cum[src].tolist() == table


class TestStepTrajectory:
    def test_dephasing_jump_flips_coherence(self):
        _, walk = dephasing_model(PRESETS["fig2"])
        state = TrajectoryState(1, RHO_PLUS_X.copy(), 0.0)
        stream = CounterStream(5, 0)
        new_state, events = step_trajectory(state, walk, stream, horizon=1e9)
        assert events[0].kind == "jump"
        assert events[0].source == 1 and events[0].target == 0
        np.testing.assert_allclose(np.diag(new_state.matrix), [0.5, 0.5], atol=1e-12)
        assert new_state.matrix[0, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_depolarizing_jump_swaps_populations(self):
        _, walk = depolarizing_model(DepolarizingParams(1.0, 1.0, 0.5, 0.5))
        rho = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        state = TrajectoryState(0, rho, 0.0)
        new_state, events = step_trajectory(state, walk, CounterStream(6, 0), horizon=1e9)
        np.testing.assert_allclose(new_state.matrix, np.diag([0.2, 0.8]), atol=1e-12)

    def test_no_escape_reaches_horizon(self):
        _, walk = dephasing_model(DephasingParams(0.5, 0.5, 0.0, 0.0, 0.5, 0.5))
        state = TrajectoryState(0, RHO_PLUS_X.copy(), 0.0)
        new_state, events = step_trajectory(state, walk, CounterStream(7, 0), horizon=3.0)
        assert events[0].kind == "horizon"
        assert new_state.time == 3.0
        assert new_state.matrix[0, 1] == pytest.approx(0.5 * np.exp(-0.5 * 3.0), abs=1e-12)

    def test_source_channel_map_applied(self):
        # asymmetric jump maps: leaving channel 0 flips coherence sign,
        # leaving channel 1 leaves the state untouched
        basis = OperatorBasis(np.array([SIGMA_Z]))
        walk = StochasticModel(
            basis=basis,
            hamiltonian=np.zeros((2, 2)),
            dissipator_blocks=np.zeros((2, 1, 1)),
            hop_rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
            kraus_maps=[[SIGMA_Z], [np.eye(2, dtype=complex)]],
            weights=np.array([0.5, 0.5]),
        )
        state = TrajectoryState(0, RHO_PLUS_X.copy(), 0.0)
        out, events = step_trajectory(state, walk, CounterStream(8, 0), horizon=1e9)
        assert events[0].source == 0
        assert out.matrix[0, 1] == pytest.approx(-0.5)  # sigma_z map of the source
        back, events2 = step_trajectory(out, walk, CounterStream(8, 1), horizon=1e9)
        assert back.matrix[0, 1] == pytest.approx(-0.5)  # identity map of channel 1

    def test_trajectory_state_invariants(self):
        _, walk = dephasing_model(PRESETS["fig1-lower"])
        stream = CounterStream(9, 0)
        state = TrajectoryState(init_channel(walk.weights, stream), RHO_PLUS_X.copy(), 0.0)
        for _ in range(200):
            state, _ = step_trajectory(state, walk, stream, horizon=1e9)
            assert abs(np.trace(state.matrix) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (state.matrix + state.matrix.conj().T))[0] > -1e-10

    def test_occupation_sojourns_are_markov(self):
        # one long realization; completed sojourns per channel pass KS
        _, walk = dephasing_model(PRESETS["fig2"])
        stream = CounterStream(1234, 0)
        state = TrajectoryState(init_channel(walk.weights, stream), RHO_PLUS_X.copy(), 0.0)
        sojourns = {0: [], 1: []}
        horizon = 4000.0
        while state.time < horizon:
            prev_channel, prev_time = state.channel, state.time
            state, events = step_trajectory(state, walk, stream, horizon)
            if events[0].kind == "jump":
                sojourns[prev_channel].append(state.time - prev_time)
        esc = {0: 0.1, 1: 1.0}
        for channel, rate in esc.items():
            samples = np.asarray(sojourns[channel])
            assert samples.size > 200
            p_value = scipy.stats.kstest(samples, "expon", args=(0.0, 1.0 / rate)).pvalue
            assert p_value > 0.01, f"channel {channel} sojourn KS p={p_value}"


def replay_trajectory(walk, rho0, grid, master_seed, index):
    """Trajectory ``index`` at each grid time, from ``step_trajectory`` and its own stream.

    Returns the per-time channels and conditional states (d, d).
    """
    stream = CounterStream(master_seed, index)
    state = TrajectoryState(init_channel(walk.weights, stream), rho0.copy(), 0.0)
    states, channels = [], []
    d = walk.dim
    for t in grid:
        while True:
            probe = CounterStream(0, 0)
            probe.key, probe.counter = stream.key, stream.counter
            nxt, events = step_trajectory(state, walk, probe, horizon=1e18)
            if events[0].kind == "jump" and nxt.time <= t:
                stream.key, stream.counter = probe.key, probe.counter
                state = nxt
                continue
            break
        prop = scipy.linalg.expm((t - state.time) * walk.self_generator(state.channel))
        states.append((prop @ vectorize(state.matrix)).reshape(d, d, order="F"))
        channels.append(state.channel)
    return channels, states


def assert_same_sums(acc, other):
    assert np.array_equal(acc.channel_sums, other.channel_sums)
    assert np.array_equal(acc.channel_sq_re, other.channel_sq_re)
    assert np.array_equal(acc.channel_sq_im, other.channel_sq_im)


def count_calls(monkeypatch, name):
    """A list that collects the size of the first argument of each later call of ``np.<name>``."""
    sizes = []
    func = getattr(np, name)

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return func(x, *args, **kwargs)

    monkeypatch.setattr(np, name, counting)
    return sizes


def assert_only_window_tables_exponentiated(monkeypatch, kit):
    """A block exponentiates at most K * d**2 * width factors per window, once."""
    k, n2 = kit.eigvals.shape
    width = max(1, _kernels.WINDOW_BYTES // (16 * _kernels.BLOCK_SIZE * n2))
    windows = -(-kit.grid.size // width)
    sizes = count_calls(monkeypatch, "exp")
    _kernels._run_block(kit, 0, 300, 4)
    assert 0 < len(sizes) <= windows
    assert max(sizes) <= k * n2 * width
    assert sum(sizes) <= windows * k * n2 * width


def config_walk(name):
    """The walk of the pinned ``traj <name>`` command of ``test_output_bytes``, with its state, on its grid."""
    [config] = [config for command, (config, _) in CONFIG_PINNED.items() if command.split()[:2] == ["traj", name]]
    run = parse_config(json.dumps(config))
    return run.model.build()[1], run.initial_state, run.grid


def diagonal_walk(d, k, hop_scale, seed):
    """A random walk whose self-generators are diagonal in the vec basis:
    diagonal Hamiltonian, dissipators in the diagonal matrix units, unitary
    jump maps."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=k)
    hops = hop_scale * rng.uniform(0.1, 1.0, size=(k, k))
    np.fill_diagonal(hops, 0.0)
    walk = StochasticModel(
        basis=OperatorBasis(np.eye(d * d).reshape(d, d, d, d)[np.arange(d), np.arange(d)].astype(complex)),
        hamiltonian=np.diag(rng.normal(size=d)),
        dissipator_blocks=np.stack([random_psd(rng, d, 0.3) for _ in range(k)]),
        hop_rates=hops,
        kraus_maps=[[np.linalg.qr(random_psd(rng, d) + 1j * np.eye(d))[0]] for _ in range(k)],
        weights=weights / weights.sum(),
    )
    return walk, random_density(rng, d), np.linspace(0.0, 6.0, 19)


PLAIN_CASES = {
    **{
        name: functools.partial(config_walk, name)
        for name in ("walk-plain", "walk-mixed", "walk-plain-slow", "walk-qutrit")
    },
    **{
        name: lambda name=name: (dephasing_model(PRESETS[name])[1], RHO_PLUS_X, np.linspace(0.0, 10.0, 41))
        for name in ("fig2", "fig1-lower", "fig1-upper")
    },
    **{
        f"diagonal-d{d}-k{k}-hops{scale}": functools.partial(diagonal_walk, d, k, scale, 10 * d + k)
        for d, k, scale in [(2, 1, 0.0), (2, 2, 0.3), (2, 3, 2.0), (3, 2, 0.0), (3, 2, 2.0), (3, 3, 0.3)]
    },
}

WALK_CASES = {
    "fig2": (dephasing_model(PRESETS["fig2"])[1], RHO_PLUS_X),
    "depolarizing": (
        depolarizing_model(DepolarizingParams(1.0, 0.5, 0.3, 0.7))[1],
        np.diag([0.8, 0.2]).astype(complex),
    ),
}
WALKS = pytest.mark.parametrize("walk, rho0", list(WALK_CASES.values()), ids=list(WALK_CASES))


class TestRunEnsemble:
    def test_kernel_matches_step_trajectory_single_run(self):
        # n trajectories of one block: subtracting the sums of the first i
        # trajectories from those of the first i + 1 isolates trajectory i
        grid = np.linspace(0.0, 12.0, 25)
        n = 6
        for walk, rho0 in WALK_CASES.values():
            sums = [np.zeros_like(run_ensemble(walk, rho0, grid, 1, 77).channel_sums)]
            sums += [run_ensemble(walk, rho0, grid, i, 77).channel_sums for i in range(1, n + 1)]
            k, d = walk.num_channels, walk.dim
            for index in range(n):
                channels, states = replay_trajectory(walk, rho0, grid, 77, index)
                own = (sums[index + 1] - sums[index]).reshape(k, grid.size, d, d).transpose(0, 1, 3, 2)
                for g in range(grid.size):
                    np.testing.assert_allclose(own[channels[g], g], states[g], atol=1e-10)
                    others = np.delete(own[:, g], channels[g], axis=0)
                    assert np.abs(others).max(initial=0.0) < 1e-12

    def test_block_order_fixes_the_bits(self):
        # three blocks, the last one short: the totals are the block partials
        # added to zeros in block order, signs of zero included
        _, walk = dephasing_model(PRESETS["fig2"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 10.0, 21))
        size = _kernels.BLOCK_SIZE
        n = 3 * size - 5
        partials = [_kernels._run_block(kit, lo, min(lo + size, n), 11) for lo in range(0, n, size)]
        expected = [np.zeros_like(a) for a in partials[0]]
        for partial in partials:
            for total, part in zip(expected, partial):
                total += part
        for got, want in zip(_kernels.run_blocks(kit, n, 11), expected):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    @WALKS
    def test_window_size_does_not_change_bits(self, monkeypatch, walk, rho0):
        # every cell sums its trajectories in index order whatever the window
        grid = np.linspace(0.0, 10.0, 41)
        acc = run_ensemble(walk, rho0, grid, 1500, 5)
        point_bytes = 16 * _kernels.BLOCK_SIZE * walk.dim**2
        for points in (1, 7):
            monkeypatch.setattr(_kernels, "WINDOW_BYTES", points * point_bytes)
            assert_same_sums(acc, run_ensemble(walk, rho0, grid, 1500, 5))

    @WALKS
    def test_cells_sum_trajectories_in_index_order(self, walk, rho0):
        # each trajectory run alone gives its own samples exactly (0 + x = x);
        # a block must add them cell by cell in index order
        kit = _build_kit(walk, rho0, np.linspace(0.0, 10.0, 21))
        n = 40
        expected = [np.zeros_like(a) for a in _kernels._run_block(kit, 0, 1, 9)]
        for i in range(n):
            for total, part in zip(expected, _kernels._run_block(kit, i, i + 1, 9)):
                total += part
        for got, want in zip(_kernels.run_blocks(kit, n, 9), expected):
            assert np.array_equal(got, want)

    def test_pre_transfer_samples_take_the_window_table(self, monkeypatch):
        # fig1-upper never transfers, so every sample is taken at t0 = 0 and
        # its factors come from the per-window tables: at most K * d**2 * width
        # exponentials per window, not one set per trajectory and grid point
        _, walk = dephasing_model(PRESETS["fig1-upper"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 20.0, 201))
        assert not kit.escape.any()
        assert_only_window_tables_exponentiated(monkeypatch, kit)

    def test_still_channels_exponentiate_only_the_window_tables(self, monkeypatch):
        # fig2 transfers, but its self-generators are zero: a sample taken
        # after a transfer is the state at the segment start, with no factor
        _, walk = dephasing_model(PRESETS["fig2"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 20.0, 201))
        assert kit.escape.all() and not kit.eigvals.any()
        assert_only_window_tables_exponentiated(monkeypatch, kit)

    @pytest.mark.parametrize("case", list(PLAIN_CASES))
    def test_plain_channels_give_the_eigenbasis_path_bits(self, case):
        # a plain channel's factors are exactly I; written as a permutation
        # they send it through the eigenbasis products, which must give the
        # same bits: V = P and P^T permute exactly, and each factor multiplies
        # the same coordinate in the same operand order
        walk, rho0, grid = PLAIN_CASES[case]()
        kit = _build_kit(walk, rho0, grid)
        n2 = kit.eigvals.shape[1]
        plain = np.array([np.array_equal(v, np.eye(n2)) and np.array_equal(vi, np.eye(n2))
                          for v, vi in zip(kit.eigvecs, kit.eiginvs)])
        assert plain.any()
        perm = np.arange(n2)[::-1]
        vals, vecs, invs = kit.eigvals.copy(), kit.eigvecs.copy(), kit.eiginvs.copy()
        vals[plain] = vals[plain][:, perm]
        vecs[plain] = np.eye(n2)[:, perm]
        invs[plain] = np.eye(n2)[perm]
        disguised = dataclasses.replace(kit, eigvals=vals, eigvecs=vecs, eiginvs=invs)
        for got, want in zip(_kernels.run_blocks(kit, 1100, 13), _kernels.run_blocks(disguised, 1100, 13)):
            assert np.array_equal(got, want)

    def test_window_reduction_reads_only_the_rows_a_channel_wrote(self, monkeypatch):
        # the rare walk never transfers and starts 0.05 of its trajectories in
        # channel 0, whose windows reduce just the rows it wrote: about 0.52
        # of the buffer elements are squared, where the whole buffers hold 1.0
        config = {"model": _WALK_RARE, "initial_state": _STATE, "grid": {"stop": 20, "count": 201}}
        run = parse_config(json.dumps(config))
        kit = _build_kit(run.model.build()[1], run.initial_state, run.grid)
        k, n2 = kit.eigvals.shape
        nb = 300
        sizes = count_calls(monkeypatch, "square")
        _kernels._run_block(kit, 0, nb, 4)
        assert 0 < sum(sizes) <= 0.6 * k * nb * kit.grid.size * 2 * n2

    def test_shared_first_segments_square_one_row_per_window(self, monkeypatch):
        # fig1-upper never transfers, so every trajectory stays in its first
        # segment and takes its channel's one shared row per window: a window
        # squares that row once per channel, never a trajectory's buffer row
        _, walk = dephasing_model(PRESETS["fig1-upper"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 20.0, 201))
        k, n2 = kit.eigvals.shape
        width = max(1, _kernels.WINDOW_BYTES // (16 * _kernels.BLOCK_SIZE * n2))
        windows = -(-kit.grid.size // width)
        sizes = count_calls(monkeypatch, "square")
        _kernels._run_block(kit, 0, 300, 4)
        assert 0 < sum(sizes) <= windows * k * width * 2 * n2

    def test_plain_samples_exponentiate_each_distinct_eigenvalue_once(self, monkeypatch):
        # fig1-lower's eigenvalues are 0, -g, -g, 0: a sample after a transfer
        # takes one exp, not d**2, on top of the window tables
        _, walk = dephasing_model(PRESETS["fig1-lower"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 20.0, 201))
        k, n2 = kit.eigvals.shape
        nb = 300
        sizes = count_calls(monkeypatch, "exp")
        _kernels._run_block(kit, 0, nb, 4)
        assert 0 < sum(sizes) <= nb * kit.grid.size + k * n2 * kit.grid.size

    def test_trace_drift_raises_naming_trajectory(self):
        _, walk = dephasing_model(PRESETS["fig2"])
        kit = _build_kit(walk, RHO_PLUS_X, np.linspace(0.0, 10.0, 21))
        kit.jump_ops = 2.0 * kit.jump_ops
        with pytest.raises(FloatingPointError, match=r"trajectory \d+: .*trace drift"):
            _kernels.run_blocks(kit, 50, 3)

    def test_failing_dissipator_block_refused_as_evolve_refuses_it(self):
        # run_ensemble used to run this walk; evolve of its rate model refuses it
        walk = StochasticModel(
            basis=OperatorBasis(np.array([SIGMA_Z, SIGMA_X])),
            hamiltonian=np.zeros((2, 2)),
            dissipator_blocks=np.array([[[-0.5, 0.0], [0.0, 0.0]], np.zeros((2, 2))]),
            hop_rates=np.array([[0.0, 1.0], [0.1, 0.0]]),
            kraus_maps=[[SIGMA_Z], [SIGMA_Z]],
            weights=np.array([0.1, 0.9]),
        )
        grid = np.linspace(0.0, 1.0, 3)
        with pytest.raises(CPValidationError, match=r"failed CP validation \(blocks: \(0, 0\)\)") as refused:
            run_ensemble(walk, RHO_PLUS_X, grid, 10, 1)
        with pytest.raises(CPValidationError) as from_evolve:
            evolve(convert_walk_to_rate_model(walk, walk.basis), RHO_PLUS_X, grid)
        assert str(refused.value) == str(from_evolve.value)

    @pytest.mark.parametrize("seed", [-3, 2**64, 2**64 + 5, True, 1.5, "7"])
    def test_seed_outside_range_rejected(self, seed):
        _, walk = dephasing_model(PRESETS["fig2"])
        with pytest.raises(ValueError, match="master seed"):
            run_ensemble(walk, RHO_PLUS_X, np.linspace(0.0, 1.0, 3), 10, seed)

    def test_seed_edges_accepted(self):
        _, walk = dephasing_model(PRESETS["fig2"])
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert run_ensemble(walk, RHO_PLUS_X, np.linspace(0.0, 1.0, 3), 10, seed).count == 10

    def test_unit_trace_estimator(self):
        _, walk = dephasing_model(PRESETS["fig2"])
        grid = np.linspace(0.0, 5.0, 11)
        acc = run_ensemble(walk, RHO_PLUS_X, grid, 500, 21)
        traces = np.einsum("tii->t", acc.system_estimate())
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)

    def test_matches_deterministic_within_4se(self):
        p = PRESETS["fig2"]
        rate_model, walk = dephasing_model(p)
        grid = np.linspace(0.0, 15.0, 31)
        acc = run_ensemble(walk, RHO_PLUS_X, grid, 20000, 31415)
        det = evolve(rate_model, RHO_PLUS_X, grid)
        est = acc.system_estimate()
        se_re, se_im = acc.system_standard_error()
        diff_re = np.abs(est.real - det.system.real)
        diff_im = np.abs(est.imag - det.system.imag)
        assert np.all(diff_re <= 4 * se_re + 1e-12)
        assert np.all(diff_im <= 4 * se_im + 1e-12)

    def test_no_jumps_reduces_to_weighted_mixture(self):
        p = DephasingParams(0.4, 1.1, 0.0, 0.0, 0.3, 0.7)
        rate_model, walk = dephasing_model(p)
        grid = np.linspace(0.0, 6.0, 13)
        n = 4000
        acc = run_ensemble(walk, RHO_PLUS_X, grid, n, 99)
        # conditional states are deterministic per channel; only the channel
        # assignment is random (multinomial)
        counts = acc.channel_occupation()[0] * n
        for idx, t in enumerate(grid):
            expected = sum(
                counts[r]
                / n
                * (scipy.linalg.expm(t * walk.self_generator(r)) @ vectorize(RHO_PLUS_X)).reshape(
                    2, 2, order="F"
                )
                for r in range(2)
            )
            np.testing.assert_allclose(acc.system_estimate()[idx], expected, atol=1e-10)

    def test_channel_occupation_stationary(self):
        _, walk = dephasing_model(PRESETS["fig2"])
        grid = np.linspace(0.0, 120.0, 13)
        acc = run_ensemble(walk, RHO_PLUS_X, grid, 20000, 2718)
        occ = acc.channel_occupation()
        np.testing.assert_allclose(occ[0], [0.1, 0.9], atol=0.02)
        stat = np.array([1.0 / 1.1, 0.1 / 1.1])
        np.testing.assert_allclose(occ[-1], stat, atol=0.02)

    def test_depolarizing_jump_statistics(self):
        p = DepolarizingParams(1.0, 0.1, 0.1, 0.9)
        rate_model, walk = depolarizing_model(p)
        grid = np.linspace(0.0, 60.0, 7)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        acc = run_ensemble(walk, rho0, grid, 20000, 424242)
        det = evolve(rate_model, rho0, grid)
        se_re, _ = acc.system_standard_error()
        diff = np.abs(acc.system_estimate().real - det.system.real)
        assert np.all(diff <= 4 * se_re + 1e-12)


def test_self_generators_preserve_the_trace_by_construction(rng):
    # StochasticModel no longer checks this: Tr F[X] = 2 Tr(D X) for the D that
    # the generator's anticommutator uses, and a commutator is traceless,
    # whatever the block and the Hamiltonian
    for d, m in [(2, 1), (2, 4), (3, 5), (3, 9), (4, 7)]:
        basis = random_basis(rng, d, m)
        walk = StochasticModel(
            basis, np.zeros((d, d)), np.zeros((3, m, m)), np.zeros((3, 3)), [[np.eye(d)]] * 3, [0.2, 0.3, 0.5]
        )
        walk.dissipator_blocks = rng.normal(size=(3, m, m)) + 1j * rng.normal(size=(3, m, m))  # neither PSD nor Hermitian
        walk.hamiltonian = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # not Hermitian
        for r in range(3):
            gen = walk.self_generator(r)
            assert np.linalg.norm(trace_vector(d) @ gen) <= 1e-14 * np.linalg.norm(gen), (d, m, r)
