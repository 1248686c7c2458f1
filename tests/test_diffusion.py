import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from supraflow import (
    NoiseModel,
    NumericalError,
    SimulationConfig,
    StateMatrix,
    ValidationError,
    assemble_supra_laplacian,
    diffusion,
    ensemble_statistics,
    matrix_exponential,
    propagate_closed,
    simulate_ensemble,
)
from supraflow.diffusion import (
    _check_budget,
    _simulate,
    default_step,
    exponential_action,
    step_norm,
)
from conftest import connected_adjacency, global_random_state, random_network, single_layer_supra


def taylor_expm(a, terms=200):
    """Truncated Taylor series, the independent exponential oracle."""
    out = np.eye(len(a))
    term = np.eye(len(a))
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


@pytest.fixture
def taylor_calls(monkeypatch):
    """Shapes of the states each call of the Taylor action received."""
    from supraflow import diffusion

    real = diffusion._taylor_action
    calls = []

    def counted(a, mu, norm, x):
        calls.append(x.shape)
        return real(a, mu, norm, x)

    monkeypatch.setattr(diffusion, "_taylor_action", counted)
    return calls


def rk4_flow(lap, x0, t_end, step):
    """Classic fixed-step RK4 integration of dX/dt = -L X."""
    x = x0.copy()
    for _ in range(round(t_end / step)):
        k1 = -(lap @ x)
        k2 = -(lap @ (x + 0.5 * step * k1))
        k3 = -(lap @ (x + 0.5 * step * k2))
        k4 = -(lap @ (x + step * k3))
        x = x + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.abs(matrix_exponential(np.zeros((4, 4))) - np.eye(4)).max() < 1e-14

    def test_diagonal(self):
        d = np.diag([0.5, -1.0, 2.0])
        assert np.abs(matrix_exponential(d) - np.diag(np.exp([0.5, -1.0, 2.0]))).max() < 1e-12

    def test_symmetric_matches_taylor_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        a = (a + a.T) / 4
        assert np.abs(matrix_exponential(a) - taylor_expm(a)).max() < 1e-9

    def test_nonsymmetric_matches_taylor_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) / 2
        assert np.abs(matrix_exponential(a) - taylor_expm(a)).max() < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            matrix_exponential([[np.nan, 0.0], [0.0, 0.0]])

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            matrix_exponential(1e4 * np.eye(2))

    def test_large_norm_symmetric_takes_the_spectral_route(self, monkeypatch):
        def refuse(a):
            raise AssertionError("a symmetric matrix took the general expm route")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        _, supra = single_layer_supra(connected_adjacency(np.random.default_rng(5), 8))
        lap = supra.csr.toarray()
        # A rounding-sized asymmetry; scaled by 1e6 it is 1e-8 in absolute
        # terms but still 1e-14 relative to the largest entry.
        lap[0, 1] += 1e-14
        result = matrix_exponential(-1e6 * lap)
        assert np.abs(result - 1.0 / 8).max() < 1e-9


class TestExponentialAction:
    def test_vector_and_columns_match_taylor_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8)) / 2
        x = rng.standard_normal((8, 3))
        assert np.abs(exponential_action(a, x) - taylor_expm(a) @ x).max() < 1e-9
        assert np.abs(exponential_action(a, x[:, 0]) - taylor_expm(a) @ x[:, 0]).max() < 1e-9

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            exponential_action(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValidationError):
            exponential_action(np.zeros((2, 2)), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            exponential_action([[np.nan, 0.0], [0.0, 0.0]], np.ones(2))

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            exponential_action(1e4 * np.eye(2), np.ones(2))

    def test_stiff_operator_or_many_columns_take_the_dense_route(self, taylor_calls):
        rng = np.random.default_rng(3)
        mild = 0.01 * rng.standard_normal((50, 50))
        exponential_action(mild, rng.random((50, 2)))
        assert taylor_calls == [(50, 2)]
        stiff = exponential_action(400 * mild, rng.random((50, 2)))
        many = exponential_action(mild, rng.random((50, 800)))
        assert taylor_calls == [(50, 2)]
        assert stiff.shape == (50, 2) and many.shape == (50, 800)

    def test_an_array_costs_what_its_nonzeros_cost(self, taylor_calls):
        # A path-graph generator whose shifted 1-norm is about 122: times two
        # columns and n^2 work per product it would pass 4 n^3, while its 148
        # nonzeros keep the work far below, as an array or in CSR.
        _, supra = single_layer_supra(np.eye(50, k=1) + np.eye(50, k=-1))
        generator = -60.0 * supra.csr.toarray()
        x = np.random.default_rng(4).random((50, 2))
        sparse = exponential_action(scipy.sparse.csr_array(generator), x)
        assert taylor_calls == [(50, 2)]
        dense = matrix_exponential(generator) @ x
        assert np.abs(sparse - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.array_equal(exponential_action(generator, x), sparse)
        assert taylor_calls == [(50, 2)] * 2
        # Filled in, the operator does the dense exponential's work and goes dense.
        full = generator + 1e-3 * (np.ones((50, 50)) - 50 * np.eye(50))
        assert np.array_equal(
            exponential_action(scipy.sparse.csr_array(full), x), matrix_exponential(full) @ x
        )
        assert taylor_calls == [(50, 2)] * 2

    def test_leaves_the_global_random_state_alone(self):
        # Column sums of about 155 and one column: past the shifted 1-norm
        # times columns (about 63) beyond which a randomized norm estimate
        # would choose the step count.
        rng = np.random.default_rng(6)
        a = rng.random((200, 200))
        a *= 155 / a.sum(axis=0).mean()
        before = global_random_state()
        exponential_action(a, rng.random(200))
        assert global_random_state() == before

    def test_pathological_norm_reported(self):
        # The norm overflows to inf, which reads as stiff: the dense route reports it.
        with pytest.raises(NumericalError):
            exponential_action(np.full((3, 3), 1e300), np.ones(3))


class TestPropagateClosed:
    def test_zero_delta_is_exact_copy(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        x0 = np.array([[1.0], [0.0]])
        assert np.array_equal(propagate_closed(x0, supra, 0.0), x0)

    def test_two_node_analytic_solution(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        x0 = np.array([[1.0], [0.0]])
        for t in (0.1, 0.5, 1.0, 3.0):
            got = propagate_closed(x0, supra, t)
            exact = np.array([[(1 + np.exp(-2 * t)) / 2], [(1 - np.exp(-2 * t)) / 2]])
            assert np.abs(got - exact).max() < 1e-12

    def test_consensus_limit(self):
        rng = np.random.default_rng(2)
        _, supra = single_layer_supra(connected_adjacency(rng, 8))
        x0 = rng.random((8, 3))
        out = propagate_closed(x0, supra, 1e3)
        assert np.abs(out - x0.mean(axis=0)).max() < 1e-6

    def test_column_conservation(self):
        rng = np.random.default_rng(3)
        _, supra = single_layer_supra(connected_adjacency(rng, 7))
        x0 = rng.random((7, 2))
        out = propagate_closed(x0, supra, 0.7)
        assert np.abs(out.sum(axis=0) - x0.sum(axis=0)).max() < 1e-9

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        _, supra = single_layer_supra(connected_adjacency(rng, 6))
        x0 = rng.random((6, 2))
        once = propagate_closed(propagate_closed(x0, supra, 0.4), supra, 0.9)
        direct = propagate_closed(x0, supra, 1.3)
        assert np.abs(once - direct).max() < 1e-9

    def test_contraction_toward_consensus(self):
        rng = np.random.default_rng(5)
        _, supra = single_layer_supra(connected_adjacency(rng, 6))
        x0 = rng.random((6, 2))
        consensus = x0.mean(axis=0)
        previous = np.inf
        for t in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0):
            distance = np.linalg.norm(propagate_closed(x0, supra, t) - consensus)
            assert distance <= previous + 1e-12
            previous = distance

    def test_negative_delta_rejected(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            propagate_closed(np.zeros((2, 1)), supra, -0.1)

    def test_state_matrix_round_trip(self):
        network, supra = single_layer_supra([[0, 1], [1, 0]])
        snap = StateMatrix([[1.0], [0.0]], dict(network.node_index), timestamp=2.0)
        out = propagate_closed(snap, supra, 0.5)
        assert isinstance(out, StateMatrix)
        assert out.timestamp == 2.5


class TestPredictMean:
    """Closed propagation as the open system's point prediction."""

    def test_uniform_state_is_fixed_point(self):
        rng = np.random.default_rng(7)
        _, supra = single_layer_supra(connected_adjacency(rng, 5))
        x0 = np.ones((5, 2)) * np.array([0.3, 0.7])
        for t in (0.1, 1.0, 10.0):
            assert np.abs(propagate_closed(x0, supra, t) - x0).max() < 1e-9

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(8)
        _, supra = single_layer_supra(connected_adjacency(rng, 12))
        x0 = rng.random((12, 3))
        got = propagate_closed(x0, supra, 0.3)
        oracle = rk4_flow(supra.csr.toarray(), x0, 0.3, 1e-4)
        assert np.abs(got - oracle).max() < 1e-8

    def test_directed_layer_matches_rk4_oracle(self):
        # Directed adjacency: out-degree Laplacian, non-symmetric exponential
        # path; the uniform state stays a fixed point because rows sum to 0.
        rng = np.random.default_rng(9)
        w = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        np.fill_diagonal(w, 0.0)
        _, supra = single_layer_supra(w)
        assert np.abs(supra.csr.toarray() - supra.csr.toarray().T).max() > 1e-6
        x0 = rng.random((6, 2))
        got = propagate_closed(x0, supra, 0.4)
        oracle = rk4_flow(supra.csr.toarray(), x0, 0.4, 1e-4)
        assert np.abs(got - oracle).max() < 1e-8
        uniform = np.ones((6, 2)) * np.array([0.2, 0.5])
        assert np.abs(propagate_closed(uniform, supra, 2.0) - uniform).max() < 1e-9


def one_path(x0, supra, noise, config):
    """The single Euler-Maruyama path of ``simulate_ensemble(..., ensemble_size=1)``."""
    (path,) = simulate_ensemble(x0, supra, noise, config)
    return path


class TestSimulateOpen:
    def test_zero_noise_tracks_closed_flow(self):
        rng = np.random.default_rng(9)
        _, supra = single_layer_supra(connected_adjacency(rng, 5))
        x0 = rng.random((5, 2))
        dt = 1e-3
        path = one_path(
            x0, supra, NoiseModel(np.zeros((5, 2)), seed=0), SimulationConfig(dt=dt, horizon=1.0)
        )
        closed = propagate_closed(x0, supra, 1.0)
        bound = 5 * dt * np.linalg.norm(supra.csr.toarray(), 2) ** 2 * np.linalg.norm(x0)
        assert np.linalg.norm(path.states[-1] - closed) < bound

    def test_same_seed_same_path(self):
        rng = np.random.default_rng(10)
        _, supra = single_layer_supra(connected_adjacency(rng, 4))
        x0 = rng.random((4, 2))
        noise = NoiseModel(rng.random((4, 2)), seed=123)
        config = SimulationConfig(dt=0.01, horizon=0.5)
        a = one_path(x0, supra, noise, config)
        b = one_path(x0, supra, noise, config)
        assert np.array_equal(a.states, b.states)

    def test_brownian_variance_law(self):
        _, supra = single_layer_supra(np.zeros((3, 3)))
        sigma = np.array([[0.5, 1.0], [0.3, 0.8], [1.2, 0.2]])
        noise = NoiseModel(sigma, seed=42)
        config = SimulationConfig(dt=0.05, horizon=1.0, ensemble_size=3000)
        paths = simulate_ensemble(np.zeros((3, 2)), supra, noise, config)
        _, var = ensemble_statistics(paths)
        assert np.abs(var[-1] / sigma**2 - 1).max() < 0.08

    def test_horizon_not_multiple_of_dt(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        path = one_path(
            np.ones((2, 1)),
            supra,
            NoiseModel(np.zeros((2, 1)), seed=0),
            SimulationConfig(dt=0.4, horizon=1.0),
        )
        assert path.times[-1] == 1.0
        assert len(path.times) == 4  # 0, 0.4, 0.8, 1.0

    @pytest.mark.parametrize("stride", [1, 3, 4, 11])
    def test_a_stride_keeps_every_strideth_state_of_the_same_draws(self, stride):
        rng = np.random.default_rng(12)
        _, supra = single_layer_supra(connected_adjacency(rng, 5))
        x0 = rng.random((5, 2))
        sigma = 0.1 * rng.random((5, 2))
        config = SimulationConfig(dt=0.01, horizon=0.1)
        every, kept = np.random.default_rng(7), np.random.default_rng(7)
        times, (states,) = _simulate(x0, supra.csr, sigma, [every], config)
        strided_times, (strided,) = _simulate(x0, supra.csr, sigma, [kept], config, stride=stride)
        assert strided.tobytes() == states[::stride].tobytes()
        assert strided_times.tobytes() == times[::stride].tobytes()
        assert kept.bit_generator.state == every.bit_generator.state

    # "simulate_open" is the single-path route, now ``simulate_ensemble`` with
    # ``ensemble_size=1``; "simulate_ensemble" draws several paths at once.
    @pytest.mark.parametrize(
        "simulate, paths",
        [(one_path, 1), (simulate_ensemble, 3)],
        ids=["simulate_open", "simulate_ensemble"],
    )
    def test_large_dt_warns(self, simulate, paths):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="dt") as record:
            simulate(
                np.ones((2, 1)),
                supra,
                NoiseModel(np.zeros((2, 1)), seed=0),
                SimulationConfig(dt=1.0, horizon=2.0, ensemble_size=paths),
            )
        # The warning points at the caller, not into the library.
        assert record[0].filename == __file__

    def test_shape_mismatch_rejected(self):
        _, supra = single_layer_supra([[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            one_path(
                np.ones((2, 1)),
                supra,
                NoiseModel(np.zeros((3, 1)), seed=0),
                SimulationConfig(dt=0.1, horizon=1.0),
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SimulationConfig(dt=0.0, horizon=1.0)
        with pytest.raises(ValidationError):
            SimulationConfig(dt=0.1, horizon=-1.0)
        with pytest.raises(ValidationError):
            SimulationConfig(dt=0.1, horizon=1.0, ensemble_size=0)

    def test_kept_states_above_the_one_array_budget_rejected(self):
        # 100 paths of 10^6 kept 1000 x 10 states take 8 TB; the times, 8 MB.
        config = SimulationConfig(dt=1.0, horizon=1e6)
        with pytest.raises(ValidationError, match=r"kept states would take 8e\+12 bytes"):
            _check_budget((1000, 10), 100, config)

    def test_path_generators_count_against_the_budget(self, monkeypatch):
        # On one node, 10^7 paths keep 24 bytes each but hold about 1 KB of
        # seed sequence and generator: 1.048e10 bytes, rejected before the spawn.
        def refuse(*args):
            raise AssertionError("seeded a path before the budget check")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        _, supra = single_layer_supra(np.zeros((1, 1)))
        config = SimulationConfig(dt=1.0, horizon=1.0, ensemble_size=10**7)
        with pytest.raises(ValidationError, match=r"kept states would take 1\.048e\+10 bytes"):
            simulate_ensemble(np.ones((1, 1)), supra, NoiseModel(np.ones((1, 1))), config)


def reference_paths(x0, lap, sigma, rngs, config, stride=1):
    """Euler-Maruyama paths stepped one at a time, each as its own n x T
    state: the per-path loop the block stepping must reproduce bit for bit."""
    times = np.minimum(np.arange(config.n_steps + 1) * config.dt, config.horizon)
    paths = []
    for rng in rngs:
        x = x0.copy()
        kept = [x]
        for k in range(1, config.n_steps + 1):
            h = times[k] - times[k - 1]
            x = x - (lap @ x) * h + sigma * rng.standard_normal(x.shape) * math.sqrt(h)
            if k % stride == 0:
                kept.append(x)
        paths.append(np.array(kept))
    return times[::stride], paths


class TestEnsembleBlocks:
    def operator(self):
        rng = np.random.default_rng(20)
        network, constants = random_network(rng)
        supra = assemble_supra_laplacian(network, constants)
        x0 = rng.random((supra.n_nodes, 2))
        return supra, x0, 0.1 * rng.random(x0.shape)

    @pytest.mark.parametrize("paths", [1, 2, 3, 7])
    def test_paths_match_the_per_path_loop(self, paths):
        supra, x0, sigma = self.operator()
        config = SimulationConfig(dt=default_step(supra), horizon=0.2, ensemble_size=paths)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(paths)]
        times, expected = reference_paths(x0, supra.csr, sigma, rngs, config)
        run = simulate_ensemble(x0, supra, NoiseModel(sigma, seed=3), config)
        assert [p.states.tobytes() for p in run] == [e.tobytes() for e in expected]
        assert all(p.times.tobytes() == times.tobytes() for p in run)

    def test_the_ensemble_and_its_statistics_start_no_thread(self, monkeypatch):
        # Four usable CPUs, as the affinity set and the CPU count report them.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        started = []
        real_start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        supra, x0, sigma = self.operator()
        config = SimulationConfig(dt=default_step(supra), horizon=0.2, ensemble_size=4)
        paths = simulate_ensemble(x0, supra, NoiseModel(sigma, seed=3), config)
        ensemble_statistics(paths)
        assert len(paths) == 4
        assert started == []

    @pytest.mark.parametrize("stride", [1, 4])
    def test_one_strided_path_matches_the_per_path_loop(self, stride):
        # As the synthetic generator steps: one generator, every stride-th state kept.
        supra, x0, sigma = self.operator()
        config = SimulationConfig(dt=default_step(supra), horizon=0.2)
        times, (expected,) = reference_paths(
            x0, supra.csr, sigma, [np.random.default_rng(8)], config, stride
        )
        got_times, (got,) = _simulate(
            x0, supra.csr, sigma, [np.random.default_rng(8)], config, stride=stride
        )
        assert got.tobytes() == expected.tobytes()
        assert got_times.tobytes() == times.tobytes()


class TestDefaultStep:
    def test_is_a_tenth_over_the_row_sum_norm_capped_at_a_hundredth(self):
        network, constants = random_network(np.random.default_rng(6))
        supra = assemble_supra_laplacian(network, constants)
        assert default_step(supra) == min(0.01, 0.1 / step_norm(supra))
        _, stiff = single_layer_supra(10.0 * (np.ones((4, 4)) - np.eye(4)))
        assert step_norm(stiff) == 60.0
        assert default_step(stiff) == 0.1 / 60.0
        _, mild = single_layer_supra([[0, 0.5], [0.5, 0]])
        assert default_step(mild) == 0.01

    def test_zero_operator_steps_a_hundredth(self):
        _, supra = single_layer_supra(np.zeros((3, 3)))
        assert step_norm(supra) == 0.0
        assert default_step(supra) == 0.01

    def test_default_step_and_ensemble_form_no_dense_sum(self):
        network, constants = random_network(np.random.default_rng(7))
        supra = assemble_supra_laplacian(network, constants)
        x0 = np.ones((supra.n_nodes, 2))
        config = SimulationConfig(dt=default_step(supra), horizon=0.05, ensemble_size=2)
        simulate_ensemble(x0, supra, NoiseModel(sigma=0.01 * x0, seed=1), config)
        assert "matrix" not in vars(supra)


class TestEnsembleStatistics:
    def test_identical_paths_have_zero_variance(self):
        path = np.ones((3, 2, 2))
        mean, var = ensemble_statistics([path, path.copy()])
        assert np.array_equal(mean, path)
        assert np.abs(var).max() == 0.0

    def test_opposite_paths_have_zero_mean(self):
        v = np.random.default_rng(11).random((4, 3, 2))
        mean, _ = ensemble_statistics([v, -v])
        assert np.abs(mean).max() == 0.0

    def test_pure_noise_mean_obeys_clt_bound(self):
        _, supra = single_layer_supra(np.zeros((2, 2)))
        sigma = 0.7 * np.ones((2, 1))
        config = SimulationConfig(dt=0.1, horizon=1.0, ensemble_size=1000)
        paths = simulate_ensemble(np.zeros((2, 1)), supra, NoiseModel(sigma, seed=5), config)
        mean, _ = ensemble_statistics(paths)
        assert np.abs(mean[-1]).max() < 4 * 0.7 / np.sqrt(1000)

    @pytest.mark.parametrize("rows", [1, 7, 20])
    @pytest.mark.parametrize("count", [2, 3, 12])
    def test_gives_the_stacked_bits(self, monkeypatch, rows, count):
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal((20, 4, 2)) * 10.0 ** rng.integers(-3, 4) for _ in range(count)]
        # One path is a strided view of a larger array.
        arrays[1] = (rng.standard_normal((20, 8, 2)) * 10.0 ** rng.integers(-3, 4))[:, ::2]
        assert not arrays[1].flags.c_contiguous
        # Blocks of one row, of 7, 7 and 6 rows, and of all 20 rows.
        monkeypatch.setattr(diffusion, "STATISTICS_BLOCK_BYTES", rows * arrays[0][0].nbytes)
        mean, var = ensemble_statistics(arrays)
        stack = np.stack(arrays)
        assert mean.tobytes() == stack.mean(axis=0).tobytes()
        assert var.tobytes() == stack.var(axis=0, ddof=1).tobytes()

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValidationError):
            ensemble_statistics([np.zeros((2, 2, 2))])

    def test_holds_no_stack_of_the_paths(self, monkeypatch):
        paths = list(np.random.default_rng(12).random((12, 101, 50, 2)))
        block = 8 * paths[0][0].nbytes
        monkeypatch.setattr(diffusion, "STATISTICS_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            ensemble_statistics(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The mean, the variance, one block-sized deviation buffer and a few
        # small Python objects.
        assert peak < 2 * paths[0].nbytes + block + 4096

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ensemble_statistics([np.zeros((2, 2, 2)), np.zeros((3, 2, 2))])
