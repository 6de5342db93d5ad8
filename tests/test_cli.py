"""The top layer: run_simulation failure reporting and the command line."""

import dataclasses
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cardioem import driver, mechanics, physics
from cardioem.driver import (
    Discretization,
    SimConfig,
    SimulationError,
    path_seed,
    run_simulation,
)
from cardioem.io_cli import (
    CONFIG_KEYS,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from cardioem.noise import NoiseCoeff

SMALL = "mesh.nx = 4\nmesh.ny = 4\ntime.T = 0.025\n"
STALL = "mesh.nx = 4\nmesh.ny = 4\ntime.T = 0.0125\nsolver.tol = 1e-30\n"


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def assert_same_config(a, b, where="config"):
    # field by field: the ndarray conductivities break dataclass ==
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_same_config(x, y, f"{where}.{f.name}")
        elif isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f"{where}.{f.name}")
        else:
            assert x == y, f"{where}.{f.name}: {x!r} != {y!r}"


PERTURBED = SimConfig(
    mesh_nx=7, mesh_ny=5, T=0.5, dt=1 / 60,
    ionic=physics.IonicParams(k=-79.5, a=0.3, d1=0.2, d2=1.1),
    activation=physics.ActivationParams(eta1=0.1 + 0.2, mu=3.5, Gamma_t=0.15),
    conductivity=physics.ConductivityParams(
        K_i=np.array([[0.03, 0.004], [0.004, 1 / 70]]),
        K_e=np.array([[0.05, -0.003], [-0.003, 0.025]]),
        clamp_delta=0.7, clamp_tau=0.4,
    ),
    mech=mechanics.MechParams(alpha=2.5, g=(0.1, -0.2)),
    noise_v=NoiseCoeff("linear-clipped", 0.1, z_cap=1.5),
    noise_w=NoiseCoeff("constant", 0.05, z_cap=1.5),
    n_modes=3, seed=11, mech_refresh=4, probes=((0.25, 0.75), (1 / 3, 0.5)),
    stim_duration=0.02, solver_tol=1e-11, mech_tol=3e-10,
)


# numpy scalars, probe coordinates included, render as plain float reprs
NUMPY_PROBES = SimConfig(probes=((np.float64(0.25), np.float64(0.5)),))

BENCHMARK_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "benchmark" / "configs").glob("*.cfg")
)


@pytest.mark.parametrize(
    "config", [SimConfig(), PERTURBED, NUMPY_PROBES],
    ids=["default", "perturbed", "numpy-probes"],
)
def test_config_round_trips_through_its_serialization(config):
    assert "np.float64" not in serialize_config(config)
    assert_same_config(parse_config(serialize_config(config)), config)


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_benchmark_configs_parse_and_round_trip(path):
    config = parse_config(path.read_text())
    assert_same_config(parse_config(serialize_config(config)), config)


def test_default_config_hash_is_pinned():
    # floats render as plain reprs, so the hash is the same under numpy 1.x
    # and 2.x
    assert "np.float64" not in serialize_config(SimConfig())
    assert config_hash(SimConfig()) == "e883f932f7d2da66"


def test_every_config_field_is_reached_by_a_key():
    config = SimConfig()
    expected = set()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "snapshot_iters":
            continue
        if not dataclasses.is_dataclass(value):
            expected.add((f.name,))
            continue
        for g in dataclasses.fields(value):
            leaf = getattr(value, g.name)
            if isinstance(leaf, np.ndarray):
                expected |= {(f.name, g.name, i) for i in np.ndindex(leaf.shape)}
            elif isinstance(leaf, tuple):
                expected |= {(f.name, g.name, i) for i in range(len(leaf))}
            else:
                expected.add((f.name, g.name))
    reached = {path for paths in CONFIG_KEYS.values() for path in paths}
    assert reached == expected


NON_DEFAULT_TEXT = {
    "mesh.file": "square.msh",
    "noise.kind_v": "linear-clipped",
    "noise.kind_w": "linear-clipped",
    "run.probes": "0.25,0.75",
}


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_every_config_key_changes_the_hash(key):
    default = SimConfig()
    for step in CONFIG_KEYS[key][0]:
        default = getattr(default, step) if isinstance(step, str) else default[step]
    if key in NON_DEFAULT_TEXT:
        text = NON_DEFAULT_TEXT[key]
    elif isinstance(default, int):
        text = str(default + 1)
    else:
        text = repr(float(0.9 * default + 0.01))
    config = parse_config(f"{key} = {text}\n")
    assert f"{key} = {text}\n" in serialize_config(config)
    assert config_hash(config) != config_hash(SimConfig())


def test_unequal_noise_caps_are_rejected():
    # the file format has one noise.z_cap: configs that differed only in
    # noise_w.z_cap would share a hash
    with pytest.raises(ValueError, match="z_cap"):
        SimConfig(noise_v=NoiseCoeff(z_cap=1.5), noise_w=NoiseCoeff(z_cap=3.0))


def test_removed_mech_epsilon_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "mech.epsilon = 0.0\n")
    assert main(["mesh-info", "--config", cfg]) == 1
    assert "unknown key 'mech.epsilon'" in capsys.readouterr().err


def test_removed_beta_flag_exit_code(tmp_path, capsys):
    # the noise amplitudes are set by the noise.* config keys only
    cfg = write_config(tmp_path, SMALL)
    argv = ["run", "--config", cfg, "--out", str(tmp_path), "--beta", "0.1"]
    assert main(argv) == 1
    assert "--beta" in capsys.readouterr().err
    assert not (tmp_path / "probes.csv").exists()


def test_mms_prints_the_expected_orders(capsys):
    assert main(["mms"]) == 0
    out = capsys.readouterr().out
    orders = [float(line.split()[-1]) for line in out.splitlines() if "order" in line]
    # P1 Poisson, then the Taylor-Hood velocity and pressure
    assert orders == pytest.approx([2.0, 3.0, 2.0], abs=0.3)


def test_diagnose_writes_reports_whose_pressure_gaps_shrink(tmp_path):
    out = tmp_path / "out"
    assert main(["diagnose", "--config", "default", "--out", str(out)]) == 0
    header = f"seed=0 config={config_hash(SimConfig())}"
    assert (out / "diagnostics.txt").read_text().splitlines()[0] == header
    rows = (out / "eps_pressure.csv").read_text().splitlines()
    assert rows[:2] == [f"# {header}", "eps,pressure_gap"]
    eps, gaps = zip(*(map(float, row.split(",")) for row in rows[2:]))
    assert eps == (1e-1, 1e-2, 1e-3)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] >= 1e-5


def test_electric_stall_raises_with_checkpoint():
    config = SimConfig(mesh_nx=4, mesh_ny=4, T=0.0125, solver_tol=1e-30)
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    assert "electric solve stalled" in str(info.value)
    assert info.value.step == 0
    # the state the stalled step started from: the initial one
    checkpoint = info.value.checkpoint
    assert (checkpoint.n, checkpoint.t) == (0, 0.0)
    assert len(checkpoint.gamma) == 25
    disc = Discretization.build(config)
    np.testing.assert_array_equal(checkpoint.electric.v, disc.v0)
    np.testing.assert_array_equal(checkpoint.gamma, disc.gamma0)


def test_run_exit_code_on_runtime_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, STALL)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "mesh.nz = 4\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown key 'mesh.nz'" in capsys.readouterr().err


def test_mesh_info_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["mesh-info", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "vertices:  25" in out
    assert "triangles: 32" in out


def read_vtk_points_and_fields(path):
    """Points, scalar and vector fields of a file written by `write_vtk`."""
    points, fields, vectors = [], {}, {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    nv = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("POINTS"):
            nv = int(line.split()[1])
            for k in range(nv):
                points.append([float(t) for t in lines[i + 1 + k].split()])
            i += nv
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            vals = [float(lines[i + 2 + k]) for k in range(nv)]
            fields[name] = np.array(vals)
            i += nv + 1
        elif line.startswith("VECTORS"):
            name = line.split()[1]
            vals = [
                [float(t) for t in lines[i + 1 + k].split()] for k in range(nv)
            ]
            vectors[name] = np.array(vals)
            i += nv
        i += 1
    return np.array(points), fields, vectors


def test_snapshot_iterations_outside_the_run_exit_code(tmp_path, capsys):
    # SMALL has 2 steps: iterations 0..2 exist, 999 and -1 do not
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    args = ["run", "--config", cfg, "--out", str(out), "--snapshots", "0,999,-1"]
    assert main(args) == 1
    assert "snapshot iterations [999, -1] lie outside 0..2" in capsys.readouterr().err
    assert not out.exists()


def test_run_snapshot_round_trips_through_vtk(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    args = ["run", "--config", cfg, "--out", str(out), "--snapshots", "0,2"]
    assert main(args) == 0
    assert sorted(os.listdir(out)) == [
        "energy.csv", "probes.csv", "snapshot_00000.vtk", "snapshot_00002.vtk",
    ]

    config = replace(parse_config(SMALL), snapshot_iters=(0, 2))
    result = run_simulation(config)
    with open(out / "probes.csv") as fh:
        assert fh.readline() == f"# seed=0 config={config_hash(config)}\n"
    mesh = config.build_mesh()
    points, fields, vectors = read_vtk_points_and_fields(out / "snapshot_00002.vtk")
    snap = result.snapshots[2]
    assert (snap.n, snap.t) == (2, result.times[2])
    nv = mesh.num_vertices
    np.testing.assert_allclose(points[:, :2], mesh.vertices, rtol=1e-8, atol=0)
    expected = {
        "v": snap.electric.v, "v_e": snap.electric.v_e, "w": snap.electric.w,
        "gamma": snap.gamma, "p": snap.mech.p,
    }
    assert sorted(fields) == sorted(expected)
    for name, arr in fields.items():
        np.testing.assert_allclose(
            arr, expected[name][:nv], rtol=1e-8, atol=1e-300
        )
    n_s = len(snap.mech.u) // 2
    u = np.column_stack(
        [snap.mech.u[:n_s][:nv], snap.mech.u[n_s:][:nv], np.zeros(nv)]
    )
    np.testing.assert_allclose(vectors["u"], u, rtol=1e-8, atol=1e-300)


def test_ensemble_names_probe_files_by_path_index(tmp_path, monkeypatch, capsys):
    # path 1 fails: the files of the others keep their own path numbers
    cfg = write_config(tmp_path, SMALL + "run.seed = 5\n")
    run = driver.run_simulation
    seeds = [path_seed(5, k) for k in range(3)]

    def flaky(config, *args, **kwargs):
        if config.seed == seeds[1]:
            raise SimulationError("forced failure", 0)
        return run(config, *args, **kwargs)

    monkeypatch.setattr(driver, "run_simulation", flaky)
    out = tmp_path / "out"
    args = ["ensemble", "--config", cfg, "--out", str(out), "--paths", "3"]
    with pytest.warns(UserWarning, match="path 1 failed"):
        assert main(args) == 0
    assert "1 path(s) failed" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == [
        "ensemble_stats.csv", "probes_path000.csv", "probes_path002.csv",
    ]
    for k in (0, 2):
        with open(out / f"probes_path{k:03d}.csv") as fh:
            assert fh.readline().startswith(f"# seed={seeds[k]} ")
    with open(out / "ensemble_stats.csv") as fh:
        assert "paths=2" in fh.readline()
