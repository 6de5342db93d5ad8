"""The top layer: run_simulation failure reporting and the command line."""

import dataclasses
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cardioem import driver, mechanics, physics
from cardioem.driver import (
    Discretization,
    MeshParams,
    RunParams,
    SimConfig,
    SimulationError,
    SolverParams,
    TimeParams,
    path_seed,
    run_simulation,
)
from cardioem.io_cli import (
    CONFIG_KEYS,
    ConfigError,
    _parse_value,
    _render,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from cardioem.fem import FeSpace
from cardioem.mesh import structured_unit_square
from cardioem.noise import NoiseParams
from test_mesh import serialize_mesh

SMALL = "mesh.nx = 4\nmesh.ny = 4\ntime.T = 0.025\n"
STALL = "mesh.nx = 4\nmesh.ny = 4\ntime.T = 0.0125\nsolver.tol = 1e-30\n"


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


PERTURBED = SimConfig(
    mesh=MeshParams(7, 5), time=TimeParams(T=0.5, dt=1 / 60),
    ionic=physics.IonicParams(k=-79.5, a=0.3, d1=0.2, d2=1.1),
    activation=physics.ActivationParams(eta1=0.1 + 0.2, mu=3.5, Gamma_t=0.15),
    conductivity=physics.ConductivityParams(
        ki_xx=0.03, ki_xy=0.004, ki_yy=1 / 70,
        ke_xx=0.05, ke_xy=-0.003, ke_yy=0.025,
        clamp_delta=0.7, clamp_tau=0.4,
    ),
    mech=mechanics.MechParams(alpha=2.5, gx=0.1, gy=-0.2),
    noise=NoiseParams("linear-clipped", 0.1, "constant", 0.05, z_cap=1.5, modes=3),
    run=RunParams(
        seed=11, mech_refresh=4, stim_duration=0.02,
        probes=((0.25, 0.75), (1 / 3, 0.5)),
    ),
    solver=SolverParams(tol=1e-11, mech_tol=3e-10),
)


# numpy scalars, probe coordinates included, render as plain float reprs
NUMPY_PROBES = SimConfig(
    run=RunParams(probes=((np.float64(0.25), np.float64(0.5)),))
)

BENCHMARK_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "benchmark" / "configs").glob("*.cfg")
)


@pytest.mark.parametrize(
    "config", [SimConfig(), PERTURBED, NUMPY_PROBES],
    ids=["default", "perturbed", "numpy-probes"],
)
def test_config_round_trips_through_its_serialization(config):
    assert "np.float64" not in serialize_config(config)
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_benchmark_configs_parse_and_round_trip(path):
    config = parse_config(path.read_text())
    assert parse_config(serialize_config(config)) == config


def test_default_config_hash_is_pinned():
    # floats render as plain reprs, so the hash is the same under numpy 1.x
    # and 2.x
    assert "np.float64" not in serialize_config(SimConfig())
    assert config_hash(SimConfig()) == "e883f932f7d2da66"


SECTIONS = (
    "mesh", "time", "ionic", "activation", "conductivity", "mech", "noise",
    "run", "solver",
)


def test_every_config_key_is_a_section_field():
    # SimConfig is the nine sections and the snapshot iterations, which
    # only --snapshots sets; each key is `section.field` of the field it
    # sets, and each field of a section has its key
    config = SimConfig()
    assert [f.name for f in dataclasses.fields(config)] == [
        *SECTIONS, "snapshot_iters",
    ]
    section_fields = {
        (section, f.name)
        for section in SECTIONS
        for f in dataclasses.fields(getattr(config, section))
    }
    for key, target in CONFIG_KEYS.items():
        assert key == ".".join(target)
        assert target in section_fields
    assert set(CONFIG_KEYS.values()) == section_fields
    assert len(CONFIG_KEYS) == 39


NON_DEFAULT_TEXT = {
    "noise.kind_v": "linear-clipped",
    "noise.kind_w": "linear-clipped",
    "run.probes": "0.25,0.75",
}


def write_mesh(path, n):
    path.write_text(serialize_mesh(structured_unit_square(n, n)))
    return str(path)


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_every_config_key_changes_the_hash(tmp_path, key):
    section, name = CONFIG_KEYS[key]
    default = getattr(getattr(SimConfig(), section), name)
    if key == "mesh.file":
        # the hash reads the file's content, so the file must exist
        text = write_mesh(tmp_path / "square.msh", 4)
    elif key in NON_DEFAULT_TEXT:
        text = NON_DEFAULT_TEXT[key]
    elif isinstance(default, int):
        text = str(default + 1)
    else:
        text = repr(float(0.9 * default + 0.01))
    config = parse_config(f"{key} = {text}\n")
    assert f"{key} = {text}\n" in serialize_config(config)
    assert config_hash(config) != config_hash(SimConfig())


def test_config_hash_follows_the_mesh_file_content(tmp_path):
    # two meshes saved in turn at one path are told apart by the hash
    path = tmp_path / "square.msh"
    config = SimConfig(mesh=MeshParams(file=write_mesh(path, 4)))
    first = config_hash(config)
    write_mesh(path, 5)
    assert config_hash(config) != first
    write_mesh(path, 4)
    assert config_hash(config) == first


@pytest.mark.parametrize(
    "lines, keys",
    [
        ("mesh.nx = 7\n", "mesh.nx"),
        ("mesh.ny = 7\n", "mesh.ny"),
        ("mesh.ny = 7\nmesh.nx = 7\n", "mesh.nx, mesh.ny"),
    ],
    ids=["nx", "ny", "both"],
)
def test_mesh_size_beside_a_mesh_file_exit_code(tmp_path, capsys, lines, keys):
    # the file fixes the mesh, so the sizes could change only the hash
    mesh_file = write_mesh(tmp_path / "square.msh", 4)
    cfg = write_config(tmp_path, f"mesh.file = {mesh_file}\n{lines}")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {keys} cannot be used with 'mesh.file'" in err
    assert not out.exists()
    # without the file the sizes are accepted, and take effect
    assert parse_config(lines) != SimConfig()


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


def test_diagnose_with_a_missing_mesh_file_exit_code(tmp_path, capsys):
    # the reports' hash reads the mesh file, so a missing one stops the
    # command before its run and before any output is written
    cfg = write_config(tmp_path, f"mesh.file = {tmp_path / 'missing.msh'}\n")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 2
    assert "missing.msh" in capsys.readouterr().err
    assert not out.exists()


def test_electric_stall_raises_with_checkpoint():
    config = parse_config(STALL)
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
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "runtime failure" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "line, field",
    [
        ("solver.tol = -1", "tol"),
        ("solver.mech_tol = 0", "mech_tol"),
    ],
)
def test_tolerance_that_cannot_be_met_exit_code(tmp_path, capsys, line, field):
    # rejected with the config, before a solve could stall on it
    cfg = write_config(tmp_path, SMALL + line + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"{field} must be positive" in capsys.readouterr().err
    assert not out.exists()


# every float key that a run would take in and fail on, or run with, as nan
# or inf; solver.tol was the one such key that a dataclass already caught
NON_FINITE = [
    ("time.dt", "nan"),
    ("time.T", "nan"),
    ("time.T", "inf"),
    ("ionic.k", "nan"),
    ("ionic.k", "inf"),
    ("ionic.d2", "nan"),
    ("activation.mu", "nan"),
    ("activation.gamma_R", "nan"),
    ("conductivity.ki_xy", "nan"),
    ("mech.alpha", "nan"),
    ("noise.beta0_v", "nan"),
    ("solver.tol", "nan"),
    ("run.probes", "0.5,nan"),
]


@pytest.mark.parametrize("key, value", NON_FINITE)
def test_non_finite_config_number_is_refused(key, value):
    with pytest.raises(ConfigError, match=f"bad value for '{key}'.*not a finite"):
        parse_config(f"{key} = {value}\n")


@pytest.mark.parametrize("default", [False, True])
def test_bool_config_value_reads_true_or_false_only(default):
    # no config field is a bool yet; a bool reads the "true" and "false"
    # that `_render` writes and refuses anything else, "False" included,
    # which bool(text) read as True
    for value in (False, True):
        assert _parse_value(default, _render(value)) is value
    for text in ("False", "True", "0", "1", "yes", ""):
        with pytest.raises(ValueError, match="is not true or false"):
            _parse_value(default, text)


@pytest.mark.parametrize("key, value", NON_FINITE)
def test_non_finite_config_number_exit_code(tmp_path, capsys, key, value):
    # before, time.dt = nan failed to convert NaN to an integer, and
    # time.T = inf and ionic.k = nan were runtime failures (exit 2)
    cfg = write_config(tmp_path, f"mesh.nx = 4\nmesh.ny = 4\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bad value for '{key}'" in err and "not a finite number" in err
    assert not out.exists()


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeParams(dt=NAN),
        lambda: TimeParams(T=NAN),
        lambda: SolverParams(tol=NAN),
        lambda: physics.IonicParams(d2=NAN),
        lambda: physics.ActivationParams(eta1=NAN),
        lambda: physics.ActivationParams(mu=NAN),
        lambda: physics.ActivationParams(gamma_R=NAN),
        lambda: physics.ConductivityParams(ki_xx=NAN),
        lambda: physics.ConductivityParams(ki_xy=NAN),
        lambda: physics.ConductivityParams(ke_xy=NAN),
        lambda: mechanics.MechParams(alpha=NAN),
        lambda: NoiseParams(z_cap=NAN),
    ],
    ids=[
        "dt", "T", "tol", "d2", "eta1", "mu", "gamma_R", "ki_xx",
        "ki_xy", "ke_xy", "alpha", "z_cap",
    ],
)
def test_parameter_dataclasses_reject_nan(build):
    # each check is written so that a NaN fails it, without a warning
    with pytest.raises(ValueError, match="must"):
        build()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: TimeParams(T=math.inf), "T"),
        (lambda: TimeParams(dt=math.inf), "dt"),
        (lambda: RunParams(stim_duration=NAN), "stim_duration"),
        (lambda: RunParams(stim_duration=-1.0), "stim_duration"),
        (lambda: physics.IonicParams(k=NAN), "k"),
        (lambda: NoiseParams(beta0_v=NAN), "beta0_v"),
        (lambda: NoiseParams(beta0_w=math.inf), "beta0_w"),
    ],
    ids=[
        "T-inf", "dt-inf", "stim_duration-nan", "stim_duration-negative",
        "k-nan", "beta0-nan", "beta0-inf",
    ],
)
def test_python_api_refuses_what_the_config_parser_refuses(build, field):
    # the dataclasses check these themselves: T = inf would otherwise fail
    # later in n_steps, and a nan or negative stim_duration would silently
    # apply no stimulus
    with pytest.raises(ValueError, match=f"^{field} must"):
        build()


SQUARE = structured_unit_square(4, 4)


@pytest.mark.parametrize(
    "more_vertices, more_triangles, message",
    [
        ([[0.5, 2.0]], np.empty((0, 3), int), "vertex 25 belongs to no triangle"),
        (SQUARE.vertices + [2.0, 0.0], SQUARE.triangles + 25,
         "mesh has 2 connected components"),
    ],
    ids=["unused-vertex", "two-components"],
)
def test_mesh_the_grounded_solve_cannot_handle_exit_code(
    tmp_path, capsys, more_vertices, more_triangles, message
):
    # before, the unused vertex stopped the run at a singular factor (exit
    # 2), and the run on two components wrote wrong probes (exit 0)
    vertices = np.vstack([SQUARE.vertices, more_vertices])
    triangles = np.vstack([SQUARE.triangles, more_triangles])
    lines = [f"{len(vertices)} {len(triangles)}"]
    lines += [f"{x!r} {y!r}" for x, y in vertices.tolist()]
    lines += [f"{i} {j} {k}" for i, j, k in triangles.tolist()]
    mesh_file = tmp_path / "bad.msh"
    mesh_file.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, f"mesh.file = {mesh_file}\ntime.T = 0.025\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def check_snapshot_round_trips_through_vtk(tmp_path, text):
    """Run `text` with snapshots at 0 and 2 and compare the second file
    with the run's snapshot; returns the snapshot."""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    args = ["run", "--config", cfg, "--out", str(out), "--snapshots", "0,2"]
    assert main(args) == 0
    assert sorted(os.listdir(out)) == [
        "energy.csv", "probes.csv", "snapshot_00000.vtk", "snapshot_00002.vtk",
    ]

    config = replace(parse_config(text), snapshot_iters=(0, 2))
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
    # u at each vertex is the value of the P2 dof at that vertex's point
    dof_at = {
        tuple(p): k for k, p in enumerate(FeSpace(mesh, 2).dof_points.tolist())
    }
    dofs = [dof_at[tuple(p)] for p in mesh.vertices.tolist()]
    ux, uy = snap.mech.u.reshape(2, -1)[:, dofs]
    u = np.column_stack([ux, uy, np.zeros(nv)])
    np.testing.assert_allclose(vectors["u"], u, rtol=1e-8, atol=1e-300)
    return snap


def test_run_snapshot_round_trips_through_vtk(tmp_path):
    snap = check_snapshot_round_trips_through_vtk(tmp_path, SMALL)
    assert not np.any(snap.mech.u)


def test_loaded_run_snapshot_round_trips_through_vtk(tmp_path):
    # a body force gives a nonzero u, which must land on the right vertices
    snap = check_snapshot_round_trips_through_vtk(tmp_path, SMALL + "mech.gy = -1.0\n")
    assert np.abs(snap.mech.u).max() > 1e-3


def test_ensemble_names_probe_files_by_path_index(tmp_path, monkeypatch, capsys):
    # path 1 fails: the files of the others keep their own path numbers
    cfg = write_config(tmp_path, SMALL + "run.seed = 5\n")
    run = driver.run_batch
    seeds = [path_seed(5, k) for k in range(3)]

    def flaky(configs, *args, **kwargs):
        good = [c for c in configs if c.run.seed != seeds[1]]
        outcomes = iter(run(good, *args, **kwargs) if good else [])
        return [
            SimulationError("forced failure", 0) if c.run.seed == seeds[1]
            else next(outcomes)
            for c in configs
        ]

    monkeypatch.setattr(driver, "run_batch", flaky)
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
