import multiprocessing
import os
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cardioem import driver, mechanics, physics
from cardioem.driver import (
    Discretization,
    SimConfig,
    SimulationError,
    path_seed,
    run_ensemble,
    run_simulation,
)
from cardioem.fem import FeSpace, assemble_mass, assemble_stiffness
from cardioem.mesh import (
    FiberField,
    TriMesh,
    serialize_mesh,
    structured_unit_square,
)
from cardioem.noise import NoiseCoeff
from cardioem.physics import ActivationParams


# the passive load is exactly zero and solves without iterating, so a body
# force makes the failing initial solve a real one
DOWNWARD = mechanics.MechParams(g=(0.0, -1.0))


def test_initial_mechanics_failure_carries_checkpoint():
    config = SimConfig(
        mesh_nx=4, mesh_ny=4, T=0.025, mech_tol=1e-30, mech=DOWNWARD
    )
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    assert info.value.step == 0
    # the initial state, with the unconverged mechanics solution
    checkpoint = info.value.checkpoint
    disc = Discretization.build(replace(config, mech_tol=1e-9))
    assert (checkpoint.n, checkpoint.t) == (0, 0.0)
    np.testing.assert_array_equal(checkpoint.electric.v, disc.v0)
    np.testing.assert_array_equal(checkpoint.gamma, disc.gamma0)
    assert len(checkpoint.mech.u) == len(disc.passive.mech.u)
    assert np.any(checkpoint.mech.u)


def test_h1_energy_uses_the_runs_own_mesh():
    # two meshes in one process: each run's u_h1sq must come from its own
    # P2 Gram matrix M + K
    for n in (4, 6):
        config = SimConfig(mesh_nx=n, mesh_ny=n, T=0.025, mech_refresh=1)
        result = run_simulation(config)
        u_space = FeSpace(config.build_mesh(), 2)
        block = assemble_mass(u_space) + assemble_stiffness(u_space)
        gram = sp.block_diag((block, block), format="csr")
        u = result.final.mech.u
        assert result.energy.u_h1sq[-1] > 0.0
        assert result.energy.u_h1sq[-1] == pytest.approx(
            float(u @ gram.dot(u)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# ensembles and the shared set-up

ENSEMBLE = SimConfig(
    mesh_nx=8, mesh_ny=8, T=0.25, mech_refresh=5, seed=7, n_modes=2,
    noise_v=NoiseCoeff("linear-clipped", 0.1),
    noise_w=NoiseCoeff("constant", 0.05),
)


def _assert_same_state(a, b):
    """Two `PathState`s equal bitwise."""
    assert (a.n, a.t) == (b.n, b.t)
    for name in ("v_i", "v_e", "v", "w"):
        np.testing.assert_array_equal(
            getattr(a.electric, name), getattr(b.electric, name)
        )
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.mech.u, b.mech.u)
    np.testing.assert_array_equal(a.mech.p, b.mech.p)


def _assert_same_path(a, b):
    np.testing.assert_array_equal(a.probes, b.probes)
    _assert_same_state(a.final, b.final)
    assert a.mech_residuals == b.mech_residuals
    for name, arr in a.energy.arrays().items():
        np.testing.assert_array_equal(arr, b.energy.arrays()[name])


def test_ensemble_paths_equal_single_runs():
    stats, results = run_ensemble(ENSEMBLE, 3)
    assert stats.n_paths == 3 and stats.failures == []
    singles = [
        run_simulation(replace(ENSEMBLE, seed=path_seed(ENSEMBLE.seed, k)))
        for k in range(3)
    ]
    for res, single in zip(results, singles):
        assert res.seed == single.seed
        _assert_same_path(res, single)
    traces = np.stack([r.probes for r in singles])
    np.testing.assert_array_equal(stats.mean, traces.mean(axis=0))
    np.testing.assert_array_equal(stats.variance, traces.var(axis=0))
    assert stats.energy_suprema == [r.energy.suprema() for r in singles]


def test_shared_set_up_must_come_from_the_same_config():
    disc = Discretization.build(ENSEMBLE)
    with pytest.raises(ValueError):
        run_simulation(replace(ENSEMBLE, dt=0.025), disc=disc)
    with pytest.raises(ValueError):
        run_simulation(replace(ENSEMBLE, mesh_nx=4), disc=disc)


def test_shared_set_up_accepts_an_equal_config_built_apart():
    # configs compare by value, K_i and K_e arrays included
    assert SimConfig() == SimConfig()
    other_ki = physics.ConductivityParams(K_i=[[0.02, 0.0], [0.0, 0.011]])
    assert SimConfig(conductivity=other_ki) != SimConfig()
    config = SimConfig(mesh_nx=4, mesh_ny=4, T=0.025, seed=3)
    disc = Discretization.build(SimConfig(mesh_nx=4, mesh_ny=4, T=0.025))
    _assert_same_path(run_simulation(config, disc=disc), run_simulation(config))
    with pytest.raises(ValueError):
        run_simulation(replace(config, conductivity=other_ki), disc=disc)


def test_equal_configs_built_apart_hash_equal():
    # K_i given as a list, with -0.0 off-diagonals: equal, so hashed alike
    signed_zero = physics.ConductivityParams(K_i=[[0.02, -0.0], [-0.0, 0.01]])
    configs = [SimConfig(), SimConfig(conductivity=signed_zero)]
    assert configs[0] == configs[1]
    assert hash(configs[0]) == hash(configs[1])
    assert len(set(configs)) == 1


# without active feedback gamma decays towards 0 from below, so every
# refresh sees the passive system
PASSIVE = replace(
    ENSEMBLE, activation=ActivationParams(beta_act=0.0),
    noise_v=NoiseCoeff(), noise_w=NoiseCoeff(),
)


def test_passive_refreshes_reuse_the_initial_solve(monkeypatch):
    config = PASSIVE
    solve = mechanics.solve_mechanics
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mechanics, "solve_mechanics", counted)
    result = run_simulation(config)
    gamma = result.final.gamma
    assert mechanics.is_passive(gamma) and np.any(gamma < 0.0)
    # with no body force the passive solution is the zero pair, taken
    # without a solve, and every refresh reuses it
    assert len(calls) == 0
    assert len(result.mech_residuals) == 1 + config.n_steps // 5

    mesh = config.build_mesh()
    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    fresh, _ = solve(
        mechanics.assemble_mechanics(
            u_space, p_space, gamma, FiberField.axis_aligned(mesh),
            config.mech, config.activation,
        ),
        tol=config.mech_tol,
    )
    np.testing.assert_array_equal(result.final.mech.u, fresh.u)
    np.testing.assert_array_equal(result.final.mech.p, fresh.p)


def test_passive_unloaded_run_builds_no_mechanics(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a passive run with no body force builds no mechanics")

    stiffness = driver.assemble_stiffness

    def p1_stiffness(space, *args, **kwargs):
        # the P2 stiffness is assembled only for the H1 Gram matrix
        if space.degree != 1:
            forbidden()
        return stiffness(space, *args, **kwargs)

    fe_space = driver.FeSpace

    def p1_space(mesh, degree=1):
        # the P2 space serves only the mechanics
        if degree != 1:
            forbidden()
        return fe_space(mesh, degree)

    monkeypatch.setattr(mechanics, "assemble_mechanics", forbidden)
    monkeypatch.setattr(mechanics, "mech_statics", forbidden)
    monkeypatch.setattr(driver, "assemble_stiffness", p1_stiffness)
    monkeypatch.setattr(driver, "FeSpace", p1_space)
    result = run_simulation(PASSIVE)
    assert mechanics.is_passive(result.final.gamma)
    assert result.times[-1] == pytest.approx(PASSIVE.T)
    assert np.all(np.isfinite(result.probes))
    assert not np.any(result.final.mech.u) and not np.any(result.final.mech.p)
    assert result.energy.u_h1sq == [0.0] * (PASSIVE.n_steps + 1)


def test_loaded_run_builds_the_statics_once(monkeypatch):
    # a body force makes the passive solve a real one, at set-up; the copy
    # that run_simulation makes of its Discretization, the H1 Gram matrix
    # and an ensemble's later paths all reuse the statics and the P2 space
    # built there
    statics = mechanics.mech_statics
    fe_space = driver.FeSpace
    calls, p2_spaces = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return statics(*args, **kwargs)

    def counted_space(mesh, degree=1):
        if degree == 2:
            p2_spaces.append(1)
        return fe_space(mesh, degree)

    monkeypatch.setattr(mechanics, "mech_statics", counted)
    monkeypatch.setattr(driver, "FeSpace", counted_space)
    config = replace(PASSIVE, mech=DOWNWARD, mech_refresh=1)
    result = run_simulation(config)
    assert len(calls) == 1 and len(p2_spaces) == 1
    assert result.energy.u_h1sq[-1] > 0.0
    calls.clear()
    p2_spaces.clear()
    run_ensemble(config, 2)
    assert len(calls) == 1 and len(p2_spaces) == 1


def perturbed_mesh(nx=6, ny=5, seed=2):
    m = structured_unit_square(nx, ny)
    v = np.array(m.vertices)
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    v[inner] += 0.2 / max(nx, ny) * np.random.default_rng(seed).uniform(
        -1.0, 1.0, (int(inner.sum()), 2)
    )
    return TriMesh(v, np.array(m.triangles))


def mesh_file_config(tmp_path, mesh):
    """PASSIVE on `mesh`, written to a mesh file."""
    path = tmp_path / "mesh.txt"
    path.write_text(serialize_mesh(mesh))
    return replace(PASSIVE, mesh_file=str(path))


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: replace(PASSIVE, mesh_nx=1, mesh_ny=1),
        lambda tmp: replace(PASSIVE, mesh_nx=3, mesh_ny=2),
        lambda tmp: replace(PASSIVE, mesh_nx=22, mesh_ny=22),
        lambda tmp: mesh_file_config(tmp, perturbed_mesh()),
        lambda tmp: mesh_file_config(tmp, perturbed_mesh(5, 7, seed=4)),
    ],
    ids=["1x1", "3x2", "22x22", "perturbed", "from-text"],
)
def test_zero_passive_u_has_the_p2_length_without_the_p2_space(make, tmp_path):
    config = make(tmp_path)
    disc = Discretization.build(config)
    assert "u_space" not in disc.built
    mesh = config.build_mesh()
    u = disc.passive.mech.u
    assert len(u) == 2 * FeSpace(mesh, 2).n_scalar
    assert not np.any(u)


def test_nan_activation_raises(monkeypatch):
    # a NaN gamma must end the run, never reuse the passive solution; the
    # checkpoint holds the finite gamma the step started from
    monkeypatch.setattr(
        physics, "g_act", lambda gamma, w, p: np.full_like(gamma, np.nan)
    )
    with pytest.raises(SimulationError, match="activation is not finite") as info:
        run_simulation(ENSEMBLE)
    assert info.value.step == 0
    np.testing.assert_array_equal(
        info.value.checkpoint.gamma, Discretization.build(ENSEMBLE).gamma0
    )


def test_checkpoint_is_the_state_the_failing_step_started_from(monkeypatch):
    # step k's activation update gives NaN: the checkpoint equals, bitwise,
    # the final state of the same config run for k steps, noise and a
    # refresh of the loaded mechanics included
    config = replace(ENSEMBLE, mech=DOWNWARD)
    k = 7
    short = run_simulation(replace(config, T=k * config.dt))
    assert short.n_steps == k
    g_act = physics.g_act
    calls = []

    def nan_from_step_k(gamma, w, p):
        calls.append(1)
        out = g_act(gamma, w, p)
        return np.full_like(out, np.nan) if len(calls) > k else out

    monkeypatch.setattr(physics, "g_act", nan_from_step_k)
    with pytest.raises(SimulationError, match="activation is not finite") as info:
        run_simulation(config)
    assert info.value.step == k
    checkpoint = info.value.checkpoint
    assert checkpoint.n == k
    assert np.any(checkpoint.mech.u)
    _assert_same_state(checkpoint, short.final)


def fail_path(monkeypatch, config, k_fail):
    """Make run_simulation raise for ensemble member k_fail."""
    run = driver.run_simulation
    bad_seed = path_seed(config.seed, k_fail)

    def flaky(cfg, *args, **kwargs):
        if cfg.seed == bad_seed:
            raise SimulationError("forced failure", 3)
        return run(cfg, *args, **kwargs)

    monkeypatch.setattr(driver, "run_simulation", flaky)


def test_failed_path_is_reported_and_skipped(monkeypatch):
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 1)
    fail_path(monkeypatch, ENSEMBLE, 1)
    with pytest.warns(UserWarning, match="path 1 failed"):
        stats, results = run_ensemble(ENSEMBLE, 3)
    assert stats.n_paths == 2
    assert stats.failures == [(1, "step 3: forced failure")]
    assert [r.seed for r in results] == [path_seed(ENSEMBLE.seed, k) for k in (0, 2)]
    traces = np.stack([r.probes for r in results])
    np.testing.assert_array_equal(stats.mean, traces.mean(axis=0))
    np.testing.assert_array_equal(stats.variance, traces.var(axis=0))
    assert len(stats.energy_suprema) == 2


def test_failed_path_in_a_worker_is_reported_and_skipped(monkeypatch):
    # two processes: path 1 fails in the forked worker, which sends its
    # error, checkpoint included, over the pipe
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    short = run_simulation(replace(ENSEMBLE, T=3 * ENSEMBLE.dt))
    run = driver.run_simulation
    bad_seed = path_seed(ENSEMBLE.seed, 1)

    def flaky(cfg, *args, **kwargs):
        if cfg.seed == bad_seed:
            assert os.getpid() != parent
            raise SimulationError("forced failure", 3, checkpoint=short.final)
        return run(cfg, *args, **kwargs)

    parent = os.getpid()
    monkeypatch.setattr(driver, "run_simulation", flaky)
    with pytest.warns(UserWarning, match="path 1 failed: step 3: forced failure"):
        stats, results = run_ensemble(ENSEMBLE, 3)
    assert multiprocessing.active_children() == []
    assert stats.n_paths == 2
    assert stats.failures == [(1, "step 3: forced failure")]
    assert [r.seed for r in results] == [path_seed(ENSEMBLE.seed, k) for k in (0, 2)]

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    worker = ctx.Process(
        target=driver._run_share,
        args=(ENSEMBLE, Discretization.build(ENSEMBLE), range(1, 2), sender),
    )
    worker.start()
    sender.close()
    assert receiver.poll(60)
    [(k, error)] = receiver.recv()
    worker.join(60)
    receiver.close()
    assert not worker.is_alive()
    assert (k, worker.exitcode, error.step) == (1, 0, 3)
    _assert_same_state(error.checkpoint, short.final)


def test_initial_mechanics_failure_fails_the_ensemble():
    config = replace(ENSEMBLE, mech_tol=1e-30, mech=DOWNWARD)
    with pytest.warns(UserWarning, match="initial mechanics solve failed"):
        with pytest.raises(SimulationError, match="all ensemble paths failed") as info:
            run_ensemble(config, 2)
    assert info.value.step == -1


def test_simulation_error_pickles_with_its_checkpoint():
    config = SimConfig(mesh_nx=4, mesh_ny=4, T=0.0125, solver_tol=1e-30)
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    error = info.value
    crossed = pickle.loads(pickle.dumps(error))
    assert type(crossed) is SimulationError
    assert (str(crossed), crossed.step) == (str(error), error.step)
    _assert_same_state(crossed.checkpoint, error.checkpoint)


def test_snapshot_iterations_outside_the_run_are_rejected():
    config = SimConfig(mesh_nx=4, mesh_ny=4, T=0.025, snapshot_iters=(0, 2))
    assert config.n_steps == 2
    with pytest.raises(ValueError, match=r"\[3, -1\] lie outside 0\.\.2"):
        replace(config, snapshot_iters=(0, 3, 2, -1))
    # a shorter run loses the iterations past its end
    with pytest.raises(ValueError, match=r"\[2\] lie outside 0\.\.1"):
        replace(config, T=0.0125)


# ---------------------------------------------------------------------------
# ensembles split over forked processes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the ensemble forks only where the platform has fork",
)


@needs_fork
def test_forked_ensemble_equals_the_serial_one(monkeypatch, tmp_path):
    # 5 paths over 3 processes: shares {0, 3}, {1, 4} and {2}; each path
    # records the process it ran in
    run = driver.run_simulation

    def recorded(cfg, *args, **kwargs):
        (tmp_path / str(cfg.seed)).write_text(str(os.getpid()))
        return run(cfg, *args, **kwargs)

    def pids():
        return [
            int((tmp_path / str(path_seed(ENSEMBLE.seed, k))).read_text())
            for k in range(5)
        ]

    monkeypatch.setattr(driver, "run_simulation", recorded)
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 1)
    serial_stats, serial = run_ensemble(ENSEMBLE, 5)
    assert pids() == [os.getpid()] * 5
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 3)
    stats, forked = run_ensemble(ENSEMBLE, 5)
    assert multiprocessing.active_children() == []
    where = pids()
    assert where[0] == where[3] == os.getpid()
    assert where[1] == where[4] and len(set(where)) == 3

    assert stats.n_paths == 5 and stats.failures == []
    for res, single in zip(forked, serial):
        assert res.seed == single.seed
        _assert_same_path(res, single)
    np.testing.assert_array_equal(stats.mean, serial_stats.mean)
    np.testing.assert_array_equal(stats.variance, serial_stats.variance)
    assert stats.energy_suprema == serial_stats.energy_suprema


@needs_fork
def test_dead_worker_raises_naming_its_paths_and_code(monkeypatch):
    # 4 paths over 2 processes: the worker runs paths 1 and 3 and dies
    parent = os.getpid()
    run = driver.run_simulation

    def dying(cfg, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return run(cfg, *args, **kwargs)

    monkeypatch.setattr(driver, "run_simulation", dying)
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    with pytest.raises(SimulationError, match=r"paths \[1, 3\] exited with code 3"):
        run_ensemble(ENSEMBLE, 4)
    assert multiprocessing.active_children() == []


@needs_fork
def test_failing_calling_process_terminates_its_workers(monkeypatch):
    # the calling process's own share raises while its worker still runs:
    # the worker is terminated, not waited for
    parent = os.getpid()

    def stuck_or_broken(cfg, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("broken path")

    monkeypatch.setattr(driver, "run_simulation", stuck_or_broken)
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="broken path"):
        run_ensemble(ENSEMBLE, 2)
    assert time.perf_counter() - start < 20
    assert multiprocessing.active_children() == []


@needs_fork
def test_zero_step_ensemble_starts_no_process(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a zero-step ensemble must not fork")

    fork_context = type(multiprocessing.get_context("fork"))
    monkeypatch.setattr(fork_context, "Process", forbidden)
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 3)
    stats, results = run_ensemble(replace(ENSEMBLE, T=0.0), 3)
    assert stats.n_paths == 3 and stats.failures == []
    assert [r.n_steps for r in results] == [0, 0, 0]
    assert multiprocessing.active_children() == []
