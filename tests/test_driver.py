import errno
import multiprocessing
import os
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cardioem import driver, electrics, fem, mechanics, physics
from cardioem.driver import (
    Discretization,
    MeshParams,
    RunParams,
    SimConfig,
    SimulationError,
    SolverParams,
    TimeParams,
    path_seed,
    run_batch,
    run_ensemble,
    run_simulation,
)
from cardioem.fem import FeSpace, assemble_mass, assemble_stiffness
from cardioem.mesh import FiberField, TriMesh, structured_unit_square
from cardioem.noise import NoiseParams
from cardioem.physics import ActivationParams
from test_mesh import serialize_mesh


# the passive load is exactly zero and solves without iterating, so a body
# force makes the failing initial solve a real one
DOWNWARD = mechanics.MechParams(gy=-1.0)


def with_end_time(config, T):
    return replace(config, time=replace(config.time, T=T))


def test_initial_mechanics_failure_carries_checkpoint():
    config = SimConfig(
        mesh=MeshParams(4, 4), time=TimeParams(T=0.025),
        solver=SolverParams(mech_tol=1e-30), mech=DOWNWARD,
    )
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    assert info.value.step == 0
    # the initial state, with the unconverged mechanics solution
    checkpoint = info.value.checkpoint
    disc = Discretization.build(replace(config, solver=SolverParams()))
    assert (checkpoint.n, checkpoint.t) == (0, 0.0)
    np.testing.assert_array_equal(checkpoint.electric.v, disc.v0)
    np.testing.assert_array_equal(checkpoint.gamma, disc.gamma0)
    assert len(checkpoint.mech.u) == len(disc.passive.mech.u)
    assert np.any(checkpoint.mech.u)


def test_h1_energy_uses_the_runs_own_mesh():
    # two meshes in one process: each run's u_h1sq must come from its own
    # P2 Gram matrix M + K
    for n in (4, 6):
        config = SimConfig(
            mesh=MeshParams(n, n), time=TimeParams(T=0.025),
            run=RunParams(mech_refresh=1),
        )
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

NOISY = NoiseParams(kind_v="linear-clipped", beta0_v=0.1, beta0_w=0.05, modes=2)
ENSEMBLE = SimConfig(
    mesh=MeshParams(8, 8), time=TimeParams(T=0.25),
    run=RunParams(seed=7, mech_refresh=5), noise=NOISY,
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
    assert a.snapshots.keys() == b.snapshots.keys()
    for it, snap in a.snapshots.items():
        _assert_same_state(snap, b.snapshots[it])


class CountingLayout(fem.BandLayout):
    """`fem.BandLayout` that records the order of each band layout built in
    this process."""

    made = []

    def __init__(self, A, q):
        CountingLayout.made.append(A.shape[0])
        super().__init__(A, q)


def _k_layouts(n):
    """The band layouts built for K on the P2 space of an n x n square."""
    return CountingLayout.made.count((2 * n + 1) ** 2)


def _active_refreshes(result):
    # a reused passive solution reports zero residuals, a solve does not
    return sum(res != (0.0, 0.0) for res in result.mech_residuals)


def test_ensemble_paths_equal_single_runs(monkeypatch):
    # on two CPUs the calling process runs paths 0 and 2, path 1 a forked
    # worker; paths 0 and 2 both reach active refreshes, so path 2 factors
    # K through the band layout that path 0 built in the shared set-up, and
    # must still equal its single run bitwise
    config = with_end_time(ENSEMBLE, 0.8125)
    monkeypatch.setattr(fem, "BandLayout", CountingLayout)
    monkeypatch.setattr(CountingLayout, "made", [])
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    stats, results = run_ensemble(config, 3)
    assert stats.n_paths == 3 and stats.failures == []
    assert _active_refreshes(results[0]) >= 2
    assert _active_refreshes(results[2]) >= 2
    assert _k_layouts(8) == 1
    singles = [
        run_simulation(config.with_seed(path_seed(config.run.seed, k)))
        for k in range(3)
    ]
    # each single run has a set-up of its own, and lays K out once
    assert _k_layouts(8) == 4
    for res, single in zip(results, singles):
        assert res.seed == single.seed
        _assert_same_path(res, single)
    traces = np.stack([r.probes for r in singles])
    np.testing.assert_array_equal(stats.mean, traces.mean(axis=0))
    np.testing.assert_array_equal(stats.variance, traces.var(axis=0))
    assert stats.energy_suprema == [r.energy.suprema() for r in singles]


# 12 x 12 and noisy: with these seeds path 0 solves its mechanics at 9 of
# its 12 refreshes, path 3 at 1 and path 2 at none
LOCKSTEP = SimConfig(
    mesh=MeshParams(12, 12), time=TimeParams(T=0.75),
    run=RunParams(seed=11, mech_refresh=5), noise=NOISY,
    snapshot_iters=(0, 31, 60),
)


def _path_configs(config, paths):
    return [config.with_seed(path_seed(config.run.seed, k)) for k in paths]


def test_a_path_is_bitwise_the_same_alone_and_in_any_batch():
    alone = {
        k: run_simulation(cfg)
        for k, cfg in zip((0, 2, 3), _path_configs(LOCKSTEP, (0, 2, 3)))
    }
    assert [_active_refreshes(alone[k]) for k in (0, 2, 3)] == [9, 0, 1]
    disc = Discretization.build(LOCKSTEP)
    for share in ([0, 2, 3], [5, 3, 0, 2]):
        for k, res in zip(share, run_batch(_path_configs(LOCKSTEP, share), disc)):
            if k in alone:
                _assert_same_path(res, alone[k])


def test_a_failing_path_leaves_its_batch_and_the_others_run_on(monkeypatch):
    # path 0 (row 1 of the batch) gets a NaN activation in step k, after
    # active refreshes: its checkpoint is bitwise the final state of a
    # k-step run, and paths 2 and 3 equal their single runs
    config = replace(LOCKSTEP, snapshot_iters=())
    share = [2, 0, 3]
    configs = _path_configs(config, share)
    k = 37
    short = run_simulation(with_end_time(configs[1], k * config.time.dt))
    singles = [run_simulation(cfg) for cfg in configs]
    g_act = physics.g_act
    calls = []

    def nan_in_row_1_at_step_k(gamma, w, p):
        calls.append(1)
        out = g_act(gamma, w, p)
        if len(calls) == k + 1:
            out[1] = np.nan
        return out

    monkeypatch.setattr(physics, "g_act", nan_in_row_1_at_step_k)
    outcomes = run_batch(configs, Discretization.build(config))
    error = outcomes[1]
    assert isinstance(error, SimulationError)
    assert error.step == k and "activation is not finite" in str(error)
    assert error.checkpoint.n == k and np.any(error.checkpoint.mech.u)
    _assert_same_state(error.checkpoint, short.final)
    for row in (0, 2):
        _assert_same_path(outcomes[row], singles[row])


def test_a_k_the_band_factor_refuses_fails_only_its_own_path(monkeypatch):
    # the first active refresh of the batch [2, 0, 3] is path 3's only one
    # (path 2 never solves, path 0 at 9 later refreshes); its K is made
    # negative definite, which the banded Cholesky refuses: path 3 fails
    # there with its checkpoint, and paths 2 and 0 run on to equal their
    # single runs
    config = replace(LOCKSTEP, snapshot_iters=())
    configs = _path_configs(config, (2, 0, 3))
    singles = [run_simulation(cfg) for cfg in configs]
    first = next(
        i for i, res in enumerate(singles[2].mech_residuals) if res != (0.0, 0.0)
    )
    step = first * config.run.mech_refresh - 1
    short = run_simulation(with_end_time(configs[2], step * config.time.dt))
    assemble = mechanics.assemble_mechanics
    calls = []

    def indefinite_first(*args, **kwargs):
        system = assemble(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            system.K.data *= -1.0
        return system

    monkeypatch.setattr(mechanics, "assemble_mechanics", indefinite_first)
    outcomes = run_batch(configs, Discretization.build(config))
    error = outcomes[2]
    assert isinstance(error, SimulationError)
    assert error.message == "mechanics solve failed" and error.step == step
    _assert_same_state(error.checkpoint, short.final)
    assert len(calls) == 1 + _active_refreshes(singles[1])
    for row in (0, 1):
        _assert_same_path(outcomes[row], singles[row])


def test_probe_values_of_a_batch_equal_the_per_probe_loop():
    # the per-probe loop that the batched gather replaced is the reference;
    # each value is a 3-term weighted sum, so they agree to a few ulps
    config = replace(
        ENSEMBLE,
        run=replace(ENSEMBLE.run, probes=((0.0, 0.5), (0.37, 0.61), (1.0, 0.5))),
    )
    disc = Discretization.build(config)
    v = np.random.default_rng(3).standard_normal((4, disc.space.n_scalar))
    ref = np.array([
        [float(row[disc.mesh.triangles[tri]] @ wts) for tri, wts in disc.probe_locs]
        for row in v
    ])
    out = driver._probe_values(disc.probe_tris, disc.probe_weights, v)
    atol = 4 * np.finfo(float).eps * np.abs(v).max()
    np.testing.assert_allclose(out, ref, rtol=0, atol=atol)


def test_k_ordering_is_computed_once_per_discretization(monkeypatch):
    # a body force factors K at set-up; the active refreshes of two paths
    # on that set-up all factor through the band layout built then, in the
    # P2 space's dof order, which the statics' u_order repeats
    config = SimConfig(
        mesh=MeshParams(6, 6), time=TimeParams(T=0.125),
        run=RunParams(mech_refresh=2), mech=DOWNWARD,
    )
    monkeypatch.setattr(fem, "BandLayout", CountingLayout)
    monkeypatch.setattr(CountingLayout, "made", [])
    disc = Discretization.build(config)
    assert _k_layouts(6) == 1
    layout = disc.u_space.band_layouts[13**2]
    first = run_simulation(config, disc=disc)
    second = run_simulation(config.with_seed(1), disc=disc)
    assert _active_refreshes(first) >= 4 and _active_refreshes(second) >= 4
    assert _k_layouts(6) == 1
    assert disc.u_space.band_layouts[13**2] is layout
    q = disc.u_space.dof_order
    np.testing.assert_array_equal(layout.q, q)
    np.testing.assert_array_equal(disc.statics.u_order, np.concatenate([q, 169 + q]))


def test_statics_build_b_in_k_order_once_with_the_ordering(monkeypatch):
    # the set-up's loaded solve builds the statics: one band layout of K,
    # and B and B^T already in its order; every active refresh of two paths
    # on that set-up solves with those same two matrices
    divergences = []
    assemble_divergence = mechanics.assemble_divergence

    def counted(*args):
        divergences.append(1)
        return assemble_divergence(*args)

    monkeypatch.setattr(mechanics, "assemble_divergence", counted)
    monkeypatch.setattr(fem, "BandLayout", CountingLayout)
    monkeypatch.setattr(CountingLayout, "made", [])
    solved_with = []
    solve_saddle = mechanics.solve_saddle

    def recording(K, B, *args, BT=None, **kwargs):
        solved_with.append((B, BT))
        return solve_saddle(K, B, *args, BT=BT, **kwargs)

    monkeypatch.setattr(mechanics, "solve_saddle", recording)
    config = SimConfig(
        mesh=MeshParams(6, 6), time=TimeParams(T=0.125),
        run=RunParams(mech_refresh=2), mech=DOWNWARD,
    )
    disc = Discretization.build(config)
    statics = disc.statics
    assert len(divergences) == 1 and _k_layouts(6) == 1
    first = run_simulation(config, disc=disc)
    second = run_simulation(config.with_seed(1), disc=disc)
    assert _active_refreshes(first) >= 4 and _active_refreshes(second) >= 4
    assert len(divergences) == 1 and _k_layouts(6) == 1
    assert len(solved_with) >= 9
    assert all(B is statics.B and BT is statics.BT for B, BT in solved_with)


def test_shared_set_up_must_come_from_the_same_config():
    disc = Discretization.build(ENSEMBLE)
    with pytest.raises(ValueError):
        run_simulation(
            replace(ENSEMBLE, time=replace(ENSEMBLE.time, dt=0.025)), disc=disc
        )
    with pytest.raises(ValueError):
        run_simulation(replace(ENSEMBLE, mesh=MeshParams(4, 8)), disc=disc)


def test_shared_set_up_accepts_an_equal_config_built_apart():
    # configs compare by value
    assert SimConfig() == SimConfig()
    other_ki = physics.ConductivityParams(ki_yy=0.011)
    assert SimConfig(conductivity=other_ki) != SimConfig()
    built_apart = SimConfig(mesh=MeshParams(4, 4), time=TimeParams(T=0.025))
    config = SimConfig(
        mesh=MeshParams(4, 4), time=TimeParams(T=0.025), run=RunParams(seed=3)
    )
    disc = Discretization.build(built_apart)
    _assert_same_path(run_simulation(config, disc=disc), run_simulation(config))
    with pytest.raises(ValueError):
        run_simulation(replace(config, conductivity=other_ki), disc=disc)


def test_equal_configs_built_apart_hash_equal():
    # a -0.0 off-diagonal equals the default 0.0, so it hashes alike
    signed_zero = physics.ConductivityParams(ki_xy=-0.0)
    configs = [SimConfig(), SimConfig(conductivity=signed_zero)]
    assert configs[0] == configs[1]
    assert hash(configs[0]) == hash(configs[1])
    assert len(set(configs)) == 1


# without active feedback gamma decays towards 0 from below, so every
# refresh sees the passive system
PASSIVE = replace(
    ENSEMBLE, activation=ActivationParams(beta_act=0.0), noise=NoiseParams(),
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
    assert len(result.mech_residuals) == 1 + config.time.n_steps // 5

    mesh = config.build_mesh()
    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    fresh, _ = solve(
        mechanics.assemble_mechanics(
            u_space, p_space, gamma, FiberField.axis_aligned(mesh),
            config.mech, config.activation,
        ),
        tol=config.solver.mech_tol,
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
    assert result.times[-1] == pytest.approx(PASSIVE.time.T)
    assert np.all(np.isfinite(result.probes))
    assert not np.any(result.final.mech.u) and not np.any(result.final.mech.p)
    assert result.energy.u_h1sq == [0.0] * (PASSIVE.time.n_steps + 1)


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
    config = replace(
        PASSIVE, mech=DOWNWARD, run=replace(PASSIVE.run, mech_refresh=1)
    )
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
    return replace(PASSIVE, mesh=MeshParams(file=str(path)))


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: replace(PASSIVE, mesh=MeshParams(1, 1)),
        lambda tmp: replace(PASSIVE, mesh=MeshParams(3, 2)),
        lambda tmp: replace(PASSIVE, mesh=MeshParams(22, 22)),
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


# a loaded 8x8 run with a stimulated first step (both split factors), the
# pressure mass factored at set-up, and four refreshes with loaded
# mechanics, each factoring K and a deformed system
LOADED_8X8 = SimConfig(
    mesh=MeshParams(8, 8), time=TimeParams(T=0.25),
    run=RunParams(mech_refresh=5), mech=DOWNWARD,
)


def test_shuffled_vertex_numbers_give_the_same_run_and_band(tmp_path):
    # the sweep order depends on the coordinates alone, so the 8x8 square
    # re-loaded with its vertices renumbered at random runs to the same
    # probes, and its P1 factors have a band no wider than that of the
    # square's own row-by-row numbering
    square = structured_unit_square(8, 8)
    new = np.random.default_rng(0).permutation(square.num_vertices)
    verts = np.empty_like(square.vertices)
    verts[new] = square.vertices
    path = tmp_path / "shuffled.txt"
    path.write_text(serialize_mesh(TriMesh(verts, new[square.triangles])))
    config = replace(LOADED_8X8, mesh=MeshParams(file=str(path)))
    disc = Discretization.build(config)
    shuffled = run_simulation(config, disc=disc)
    ref = run_simulation(LOADED_8X8)
    assert _active_refreshes(ref) == 5
    np.testing.assert_allclose(shuffled.probes, ref.probes, rtol=0, atol=1e-12)

    indptr, indices, _ = FeSpace(square).pattern
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    natural = int(np.abs(rows - indices).max())
    n = square.num_vertices
    kd = {size: layout.kd for size, layout in disc.space.band_layouts.items()}
    assert kd.keys() == {n, n - 1} and max(kd.values()) <= natural


@pytest.mark.parametrize(
    "conductivity",
    [physics.ConductivityParams(), physics.ConductivityParams(ke_yy=0.03)],
    ids=["split", "block"],
)
def test_no_run_calls_superlu_and_k_takes_the_banded_factor(
    monkeypatch, conductivity
):
    # every SPD matrix, K and the grounded 2n block of tensors that are not
    # proportional included, takes the banded factor: the set-up's loaded
    # solve and each of the 4 active refreshes factor K, of order 81 + 208,
    # through `factor_banded` of the P2 space; SuperLU is never called
    import scipy.sparse.linalg as spla

    def forbidden(*_args, **_kwargs):
        raise AssertionError("SuperLU must not be called")

    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(spla, "spilu", forbidden)
    factored = []
    factor_banded = fem.FeSpace.factor_banded

    def recording(space, A):
        factored.append((space.degree, A.shape[0]))
        return factor_banded(space, A)

    monkeypatch.setattr(fem.FeSpace, "factor_banded", recording)
    result = run_simulation(replace(LOADED_8X8, conductivity=conductivity))
    assert _active_refreshes(result) == 5
    assert [size for degree, size in factored if degree == 2] == [81 + 208] * 5
    assert {degree for degree, _ in factored} == {1, 2}


def test_importing_the_cli_does_not_load_the_sparse_solvers():
    # scipy.sparse.linalg (SuperLU and the Krylov solvers) costs about 2 MB
    # of resident memory to import; no module of the package needs it
    import subprocess
    import sys

    code = (
        "import sys, cardioem.io_cli; "
        "sys.exit('scipy.sparse.linalg' in sys.modules)"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0


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
    short = run_simulation(with_end_time(config, k * config.time.dt))
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


@pytest.mark.parametrize("nx", [8, 36])
def test_nan_conductivity_fails_the_electric_step(monkeypatch, nx):
    # a NaN can pass the banded factorization (at 36^2 the scalar band is
    # wider than LAPACK's block size); the step's residual check turns the
    # NaN solution into a stalled solve, which ends the run with the state
    # that the step started from
    config = replace(
        ENSEMBLE, mesh=MeshParams(nx, nx), time=TimeParams(T=0.125),
        noise=NoiseParams(), mech=DOWNWARD,
    )
    pull_back = electrics.conductivities_from_gradient
    calls = []

    def nan_after_set_up(space, grad_u, params):
        calls.append(1)
        M_i, M_e = pull_back(space, grad_u, params)
        return (M_i, M_e) if len(calls) == 1 else (M_i * np.nan, M_e * np.nan)

    monkeypatch.setattr(electrics, "conductivities_from_gradient", nan_after_set_up)
    with pytest.raises(SimulationError, match="electric solve stalled") as info:
        run_simulation(config)
    refresh = config.run.mech_refresh
    assert info.value.step == refresh and info.value.checkpoint.n == refresh


def batch_with_failure(run, bad_seed, error, check=lambda: None):
    """A `run_batch` that reports `error` for the path of `bad_seed`, after
    `check()`, and runs the other paths of the batch with `run`."""

    def flaky(cfgs, *args, **kwargs):
        good = [cfg for cfg in cfgs if cfg.run.seed != bad_seed]
        if len(good) < len(cfgs):
            check()
        outcomes = iter(run(good, *args, **kwargs) if good else [])
        return [
            error if cfg.run.seed == bad_seed else next(outcomes) for cfg in cfgs
        ]

    return flaky


def fail_path(monkeypatch, config, k_fail):
    """Make the batch of ensemble member k_fail report it as failed."""
    bad_seed = path_seed(config.run.seed, k_fail)
    flaky = batch_with_failure(
        driver.run_batch, bad_seed, SimulationError("forced failure", 3)
    )
    monkeypatch.setattr(driver, "run_batch", flaky)


def test_failed_path_is_reported_and_skipped(monkeypatch):
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 1)
    fail_path(monkeypatch, ENSEMBLE, 1)
    with pytest.warns(UserWarning, match="path 1 failed"):
        stats, results = run_ensemble(ENSEMBLE, 3)
    assert stats.n_paths == 2
    assert stats.failures == [(1, "step 3: forced failure")]
    seeds = [path_seed(ENSEMBLE.run.seed, k) for k in (0, 2)]
    assert [r.seed for r in results] == seeds
    traces = np.stack([r.probes for r in results])
    np.testing.assert_array_equal(stats.mean, traces.mean(axis=0))
    np.testing.assert_array_equal(stats.variance, traces.var(axis=0))
    assert len(stats.energy_suprema) == 2


def test_failed_path_in_a_worker_is_reported_and_skipped(monkeypatch):
    # two processes: path 1 fails in the forked worker, which sends its
    # error, checkpoint included, over the pipe
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    short = run_simulation(with_end_time(ENSEMBLE, 3 * ENSEMBLE.time.dt))
    bad_seed = path_seed(ENSEMBLE.run.seed, 1)

    def in_worker():
        assert os.getpid() != parent

    flaky = batch_with_failure(
        driver.run_batch, bad_seed,
        SimulationError("forced failure", 3, checkpoint=short.final), in_worker,
    )
    parent = os.getpid()
    monkeypatch.setattr(driver, "run_batch", flaky)
    with pytest.warns(UserWarning, match="path 1 failed: step 3: forced failure"):
        stats, results = run_ensemble(ENSEMBLE, 3)
    assert multiprocessing.active_children() == []
    assert stats.n_paths == 2
    assert stats.failures == [(1, "step 3: forced failure")]
    seeds = [path_seed(ENSEMBLE.run.seed, k) for k in (0, 2)]
    assert [r.seed for r in results] == seeds

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
    config = replace(ENSEMBLE, solver=SolverParams(mech_tol=1e-30), mech=DOWNWARD)
    with pytest.warns(UserWarning, match="initial mechanics solve failed"):
        with pytest.raises(SimulationError, match="all ensemble paths failed") as info:
            run_ensemble(config, 2)
    assert info.value.step == -1


def test_simulation_error_pickles_with_its_checkpoint():
    config = SimConfig(
        mesh=MeshParams(4, 4), time=TimeParams(T=0.0125),
        solver=SolverParams(tol=1e-30),
    )
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    error = info.value
    crossed = pickle.loads(pickle.dumps(error))
    assert type(crossed) is SimulationError
    assert (str(crossed), crossed.step) == (str(error), error.step)
    _assert_same_state(crossed.checkpoint, error.checkpoint)


def test_snapshot_iterations_outside_the_run_are_rejected():
    config = SimConfig(
        mesh=MeshParams(4, 4), time=TimeParams(T=0.025), snapshot_iters=(0, 2)
    )
    assert config.time.n_steps == 2
    with pytest.raises(ValueError, match=r"\[3, -1\] lie outside 0\.\.2"):
        replace(config, snapshot_iters=(0, 3, 2, -1))
    # a shorter run loses the iterations past its end
    with pytest.raises(ValueError, match=r"\[2\] lie outside 0\.\.1"):
        with_end_time(config, 0.0125)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TimeParams(dt=0.0), "dt must be positive"),
        (lambda: TimeParams(dt=-0.0125), "dt must be positive"),
        (lambda: TimeParams(T=-1.0), "T must be nonnegative"),
        (lambda: RunParams(mech_refresh=0), "mech_refresh must be at least 1"),
        (lambda: SolverParams(tol=0.0), "tol must be positive"),
        (lambda: SolverParams(tol=-1e-10), "tol must be positive"),
        (lambda: SolverParams(mech_tol=0.0), "mech_tol must be positive"),
    ],
    ids=[
        "dt-zero", "dt-negative", "T-negative", "mech_refresh-zero",
        "tol-zero", "tol-negative", "mech_tol-zero",
    ],
)
def test_each_section_validates_its_own_fields(build, message):
    # a bad value fails where it is built, also inside a SimConfig
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


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
    run = driver.run_batch

    def recorded(cfgs, *args, **kwargs):
        for cfg in cfgs:
            (tmp_path / str(cfg.run.seed)).write_text(str(os.getpid()))
        return run(cfgs, *args, **kwargs)

    def pids():
        return [
            int((tmp_path / str(path_seed(ENSEMBLE.run.seed, k))).read_text())
            for k in range(5)
        ]

    monkeypatch.setattr(driver, "run_batch", recorded)
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
    run = driver.run_batch

    def dying(cfgs, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return run(cfgs, *args, **kwargs)

    monkeypatch.setattr(driver, "run_batch", dying)
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 2)
    with pytest.raises(SimulationError, match=r"paths \[1, 3\] exited with code 3"):
        run_ensemble(ENSEMBLE, 4)
    assert multiprocessing.active_children() == []


@needs_fork
def test_failing_calling_process_terminates_its_workers(monkeypatch):
    # the calling process's own share raises while its worker still runs:
    # the worker is terminated, not waited for
    parent = os.getpid()

    def stuck_or_broken(cfgs, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("broken path")

    monkeypatch.setattr(driver, "run_batch", stuck_or_broken)
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
    stats, results = run_ensemble(with_end_time(ENSEMBLE, 0.0), 3)
    assert stats.n_paths == 3 and stats.failures == []
    assert [r.n_steps for r in results] == [0, 0, 0]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# forked shares bound to CPUs

can_bind = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or driver._usable_cpus() < 2,
    reason="binding a share to a CPU needs sched_setaffinity and two usable CPUs",
)


def restricted_to_last(n):
    """The last n CPUs of the test process's set, to which the process is
    restricted until the generator is closed."""
    own, restore = os.sched_getaffinity(0), os.sched_setaffinity
    cpus = sorted(own)[-n:]
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        restore(0, own)


@pytest.fixture
def two_cpus():
    yield from restricted_to_last(2)


@pytest.fixture
def three_cpus():
    yield from restricted_to_last(3)


def record_cpu_sets(monkeypatch, where):
    """Make each process that runs a batch write its CPU set to a file in
    `where` named by its pid; returns a reader of {pid: CPU set}."""
    where.mkdir()
    run = driver.run_batch

    def recorded(cfgs, *args, **kwargs):
        cpus = sorted(os.sched_getaffinity(0))
        (where / str(os.getpid())).write_text(",".join(map(str, cpus)))
        return run(cfgs, *args, **kwargs)

    monkeypatch.setattr(driver, "run_batch", recorded)
    return lambda: {
        int(f.name): {int(c) for c in f.read_text().split(",")}
        for f in where.iterdir()
    }


def assert_equals_serial(monkeypatch, stats, results, n_paths):
    """The ensemble of ENSEMBLE equals, bitwise, its run in one process."""
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 1)
    serial_stats, serial = run_ensemble(ENSEMBLE, n_paths)
    assert stats.n_paths == n_paths and stats.failures == []
    for res, single in zip(results, serial, strict=True):
        assert res.seed == single.seed
        _assert_same_path(res, single)
    np.testing.assert_array_equal(stats.mean, serial_stats.mean)
    np.testing.assert_array_equal(stats.variance, serial_stats.variance)


@needs_fork
@can_bind
def test_each_share_binds_to_its_cpu_when_the_shares_fill_the_set(
    monkeypatch, tmp_path, two_cpus
):
    # 3 paths on a set of 2 CPUs: the calling process runs paths 0 and 2
    # bound to the first CPU, the worker path 1 bound to the second, and
    # the calling process has its whole set back after the run
    seen = record_cpu_sets(monkeypatch, tmp_path / "cpus")
    stats, results = run_ensemble(ENSEMBLE, 3)
    assert multiprocessing.active_children() == []
    sets = seen()
    assert sets.pop(os.getpid()) == {two_cpus[0]}
    assert list(sets.values()) == [{two_cpus[1]}]
    assert os.sched_getaffinity(0) == set(two_cpus)
    assert_equals_serial(monkeypatch, stats, results, 3)


@needs_fork
@can_bind
def test_a_worker_the_platform_will_not_bind_runs_unbound(
    monkeypatch, tmp_path, two_cpus
):
    # the worker is refused; the calling process still binds for its share
    parent, bind = os.getpid(), os.sched_setaffinity

    def refused_in_worker(pid, cpus):
        if os.getpid() != parent:
            with open(tmp_path / "refused", "a") as fh:
                fh.write(f"{sorted(cpus)}\n")
            raise OSError(errno.EPERM, "not permitted")
        bind(pid, cpus)

    seen = record_cpu_sets(monkeypatch, tmp_path / "cpus")
    monkeypatch.setattr(os, "sched_setaffinity", refused_in_worker)
    stats, results = run_ensemble(ENSEMBLE, 3)
    assert multiprocessing.active_children() == []
    # the refused binding, then the refused restore of the whole set
    refused = (tmp_path / "refused").read_text().splitlines()
    assert refused == [str([two_cpus[1]]), str(two_cpus)]
    sets = seen()
    assert sets.pop(parent) == {two_cpus[0]}
    assert list(sets.values()) == [set(two_cpus)]
    assert os.sched_getaffinity(0) == set(two_cpus)
    assert_equals_serial(monkeypatch, stats, results, 3)


@needs_fork
@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or driver._usable_cpus() < 3,
    reason="fewer shares than CPUs needs sched_setaffinity and three usable CPUs",
)
def test_fewer_shares_than_cpus_bind_to_the_first_cpus(
    monkeypatch, tmp_path, three_cpus
):
    # 2 paths on a set of 3 CPUs: the shares run on the first two
    seen = record_cpu_sets(monkeypatch, tmp_path / "cpus")
    stats, results = run_ensemble(ENSEMBLE, 2)
    sets = seen()
    assert sets.pop(os.getpid()) == {three_cpus[0]}
    assert list(sets.values()) == [{three_cpus[1]}]
    assert os.sched_getaffinity(0) == set(three_cpus)
    assert_equals_serial(monkeypatch, stats, results, 2)


@needs_fork
@can_bind
def test_more_shares_than_cpus_run_unbound(monkeypatch, tmp_path, two_cpus):
    # 3 shares on 2 CPUs: binding would put two shares on one CPU
    seen = record_cpu_sets(monkeypatch, tmp_path / "cpus")
    monkeypatch.setattr(driver, "_usable_cpus", lambda: 3)
    stats, results = run_ensemble(ENSEMBLE, 3)
    sets = seen()
    assert len(sets) == 3 and all(s == set(two_cpus) for s in sets.values())
    assert_equals_serial(monkeypatch, stats, results, 3)


@pytest.mark.parametrize(
    "n_workers, cpus",
    [(1, [None]), (2, [1, 3]), (4, [1, 3, 6, 9]), (5, [None] * 5)],
    ids=["one-share", "fewer-than-cpus", "as-many-as-cpus", "more-than-cpus"],
)
def test_share_i_binds_to_the_ith_cpu_of_the_sorted_set(
    monkeypatch, n_workers, cpus
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 3, 6, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    assert driver._share_cpus(n_workers) == cpus


def test_shares_run_unbound_without_sched_setaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert driver._share_cpus(2) == [None, None]


@can_bind
def test_a_bound_share_runs_openblas_on_one_thread_and_gives_its_threads_back():
    # BLAS helper threads started in a share bound to one CPU would wait on
    # each other there; the block runs on one BLAS thread, and the caller's
    # thread counts, 2 here, are given back after it
    controls = driver._openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    before = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        with driver._bound_to(sorted(os.sched_getaffinity(0))[0]):
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), n in zip(controls, before):
            put(n)
