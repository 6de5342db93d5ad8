"""Configuration files, result serialization, and the command line.

Config files are flat `key = value` text with dotted section keys and `#`
comments; unknown keys are rejected and unspecified keys take the shipped
defaults (the standard square-domain experiment).  Every output file embeds
the seed and a hash of the full configuration, so artifacts can be traced
back to the exact run that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from . import diagnostics, driver, mechanics, physics
from .mesh import boundary_edges, structured_unit_square
from .noise import NoiseCoeff


class ConfigError(ValueError):
    """Bad configuration input; message carries key and line context."""


# every recognised key: name -> (getter from SimConfig, parser from string)
def _float(s):
    return float(s)


def _int(s):
    return int(s)


def _str(s):
    return s


def _probes(s):
    pts = []
    for chunk in s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        xy = chunk.split(",")
        if len(xy) != 2:
            raise ValueError(f"bad probe point {chunk!r}")
        pts.append((float(xy[0]), float(xy[1])))
    return tuple(pts)


def _fmt_probes(pts):
    return "; ".join(f"{x!r},{y!r}" for x, y in pts)


_KEYS = {
    "mesh.nx": (lambda c: c.mesh_nx, _int),
    "mesh.ny": (lambda c: c.mesh_ny, _int),
    "mesh.file": (lambda c: c.mesh_file, _str),
    "time.T": (lambda c: c.T, _float),
    "time.dt": (lambda c: c.dt, _float),
    "ionic.k": (lambda c: c.ionic.k, _float),
    "ionic.a": (lambda c: c.ionic.a, _float),
    "ionic.d1": (lambda c: c.ionic.d1, _float),
    "ionic.d2": (lambda c: c.ionic.d2, _float),
    "activation.eta1": (lambda c: c.activation.eta1, _float),
    "activation.eta2": (lambda c: c.activation.eta2, _float),
    "activation.beta_act": (lambda c: c.activation.beta_act, _float),
    "activation.Gamma_l": (lambda c: c.activation.Gamma_l, _float),
    "activation.Gamma_t": (lambda c: c.activation.Gamma_t, _float),
    "activation.gamma_R": (lambda c: c.activation.gamma_R, _float),
    "activation.mu": (lambda c: c.activation.mu, _float),
    "conductivity.ki_xx": (lambda c: c.conductivity.K_i[0, 0], _float),
    "conductivity.ki_xy": (lambda c: c.conductivity.K_i[0, 1], _float),
    "conductivity.ki_yy": (lambda c: c.conductivity.K_i[1, 1], _float),
    "conductivity.ke_xx": (lambda c: c.conductivity.K_e[0, 0], _float),
    "conductivity.ke_xy": (lambda c: c.conductivity.K_e[0, 1], _float),
    "conductivity.ke_yy": (lambda c: c.conductivity.K_e[1, 1], _float),
    "conductivity.clamp_delta": (lambda c: c.conductivity.clamp_delta, _float),
    "conductivity.clamp_tau": (lambda c: c.conductivity.clamp_tau, _float),
    "mech.alpha": (lambda c: c.mech.alpha, _float),
    "mech.gx": (lambda c: c.mech.g[0], _float),
    "mech.gy": (lambda c: c.mech.g[1], _float),
    "mech.epsilon": (lambda c: c.mech.epsilon, _float),
    "noise.kind_v": (lambda c: c.noise_v.kind, _str),
    "noise.beta0_v": (lambda c: c.noise_v.beta0, _float),
    "noise.kind_w": (lambda c: c.noise_w.kind, _str),
    "noise.beta0_w": (lambda c: c.noise_w.beta0, _float),
    "noise.z_cap": (lambda c: c.noise_v.z_cap, _float),
    "noise.modes": (lambda c: c.n_modes, _int),
    "run.seed": (lambda c: c.seed, _int),
    "run.mech_refresh": (lambda c: c.mech_refresh, _int),
    "run.stim_duration": (lambda c: c.stim_duration, _float),
    "run.probes": (lambda c: c.probes, _probes),
    "solver.tol": (lambda c: c.solver_tol, _float),
    "solver.mech_tol": (lambda c: c.mech_tol, _float),
}


def default_config() -> driver.SimConfig:
    """The shipped square-domain experiment profile."""
    return driver.SimConfig()


def _build_config(values: dict) -> driver.SimConfig:
    base = default_config()
    get = lambda key, fallback: values.get(key, fallback)
    try:
        ionic = physics.IonicParams(
            k=get("ionic.k", base.ionic.k),
            a=get("ionic.a", base.ionic.a),
            d1=get("ionic.d1", base.ionic.d1),
            d2=get("ionic.d2", base.ionic.d2),
        )
        activation = physics.ActivationParams(
            eta1=get("activation.eta1", base.activation.eta1),
            eta2=get("activation.eta2", base.activation.eta2),
            beta_act=get("activation.beta_act", base.activation.beta_act),
            Gamma_l=get("activation.Gamma_l", base.activation.Gamma_l),
            Gamma_t=get("activation.Gamma_t", base.activation.Gamma_t),
            gamma_R=get("activation.gamma_R", base.activation.gamma_R),
            mu=get("activation.mu", base.activation.mu),
        )
        ki_xy = get("conductivity.ki_xy", 0.0)
        ke_xy = get("conductivity.ke_xy", 0.0)
        conductivity = physics.ConductivityParams(
            K_i=np.array(
                [
                    [get("conductivity.ki_xx", 0.02), ki_xy],
                    [ki_xy, get("conductivity.ki_yy", 0.01)],
                ]
            ),
            K_e=np.array(
                [
                    [get("conductivity.ke_xx", 0.04), ke_xy],
                    [ke_xy, get("conductivity.ke_yy", 0.02)],
                ]
            ),
            clamp_delta=get("conductivity.clamp_delta", base.conductivity.clamp_delta),
            clamp_tau=get("conductivity.clamp_tau", base.conductivity.clamp_tau),
        )
        mech = mechanics.MechParams(
            alpha=get("mech.alpha", base.mech.alpha),
            g=(get("mech.gx", 0.0), get("mech.gy", 0.0)),
            epsilon=get("mech.epsilon", base.mech.epsilon),
        )
        z_cap = get("noise.z_cap", base.noise_v.z_cap)
        noise_v = NoiseCoeff(
            kind=get("noise.kind_v", base.noise_v.kind),
            beta0=get("noise.beta0_v", base.noise_v.beta0),
            z_cap=z_cap,
        )
        noise_w = NoiseCoeff(
            kind=get("noise.kind_w", base.noise_w.kind),
            beta0=get("noise.beta0_w", base.noise_w.beta0),
            z_cap=z_cap,
        )
        return driver.SimConfig(
            mesh_nx=get("mesh.nx", base.mesh_nx),
            mesh_ny=get("mesh.ny", base.mesh_ny),
            mesh_file=get("mesh.file", base.mesh_file),
            T=get("time.T", base.T),
            dt=get("time.dt", base.dt),
            ionic=ionic,
            activation=activation,
            conductivity=conductivity,
            mech=mech,
            noise_v=noise_v,
            noise_w=noise_w,
            n_modes=get("noise.modes", base.n_modes),
            seed=get("run.seed", base.seed),
            mech_refresh=get("run.mech_refresh", base.mech_refresh),
            probes=get("run.probes", base.probes),
            stim_duration=get("run.stim_duration", base.stim_duration),
            solver_tol=get("solver.tol", base.solver_tol),
            mech_tol=get("solver.mech_tol", base.mech_tol),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def parse_config(text: str) -> driver.SimConfig:
    """Parse `key = value` lines into a validated SimConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][1](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    return _build_config(values)


def serialize_config(config: driver.SimConfig) -> str:
    """Complete `key = value` rendering; parse(serialize(c)) == c."""
    lines = []
    for key in sorted(_KEYS):
        value = _KEYS[key][0](config)
        if key == "run.probes":
            rendered = _fmt_probes(value)
        elif isinstance(value, float):
            # float() first: numpy >= 2 reprs np.float64 as "np.float64(x)"
            rendered = repr(float(value))
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(config: driver.SimConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# writers


def write_vtk(path, mesh, snapshot, seed: int, chash: str):
    """Legacy-ASCII VTK unstructured grid with nodal fields.

    Scalars are written on the vertices; the displacement becomes a
    3-component VECTORS array with zero z.  Values carry 9 significant
    digits.
    """
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    fmt = lambda x: f"{x:.9g}"
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(
            f"iteration={snapshot.iteration} t={snapshot.t:.9g} "
            f"seed={seed} config={chash}\n"
        )
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{fmt(x)} {fmt(y)} 0\n")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"3 {i} {j} {k}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {nv}\n")
        for name in ("v", "v_e", "w", "gamma", "p"):
            arr = getattr(snapshot, name if name != "gamma" else "gamma")
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for value in arr[:nv]:
                fh.write(fmt(value) + "\n")
        n_s = len(snapshot.u) // 2
        ux, uy = snapshot.u[:n_s][:nv], snapshot.u[n_s:][:nv]
        fh.write("VECTORS u double\n")
        for a, b in zip(ux, uy):
            fh.write(f"{fmt(a)} {fmt(b)} 0\n")


def read_vtk_points_and_fields(path):
    """Minimal reader for files produced by write_vtk (used by tests)."""
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


def write_probes(path, result) -> None:
    """CSV trace file: comment header, then t and one column per probe."""
    with open(path, "w") as fh:
        fh.write(f"# seed={result.seed} config={result.config_hash}\n")
        cols = ",".join(f"probe_{i}" for i in range(result.probes.shape[1]))
        fh.write(f"t,{cols}\n")
        for row in range(result.probes.shape[0]):
            vals = ",".join(f"{v:.17g}" for v in result.probes[row])
            fh.write(f"{result.times[row]:.17g},{vals}\n")


def write_energy(path, result) -> None:
    arrays = result.energy.arrays()
    names = list(arrays)
    with open(path, "w") as fh:
        fh.write(f"# seed={result.seed} config={result.config_hash}\n")
        fh.write("t," + ",".join(names) + "\n")
        for row in range(len(result.times)):
            vals = ",".join(f"{arrays[n][row]:.17g}" for n in names)
            fh.write(f"{result.times[row]:.17g},{vals}\n")


# ---------------------------------------------------------------------------
# command line


def _load_cli_config(args) -> driver.SimConfig:
    if not args.config or args.config == "default":
        config = default_config()
    else:
        try:
            with open(args.config) as fh:
                config = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.beta is not None:
        config = replace(
            config,
            noise_v=NoiseCoeff("constant", args.beta),
            noise_w=NoiseCoeff("constant", args.beta),
        )
    if getattr(args, "snapshots", None):
        iters = tuple(int(t) for t in args.snapshots.split(","))
        config = replace(config, snapshot_iters=iters)
    return config


def _out_dir(args) -> str:
    out = args.out or os.environ.get("CARDIOEM_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cardioem", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", default="", help="config file or 'default'")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="", help="output directory")
        p.add_argument(
            "--beta", type=float, default=None,
            help="override both noise amplitudes with a constant",
        )

    run = sub.add_parser("run", help="single simulation path")
    common(run)
    run.add_argument(
        "--snapshots", default="", help="comma-separated iterations to dump"
    )

    ens = sub.add_parser("ensemble", help="Monte Carlo ensemble")
    common(ens)
    ens.add_argument("--paths", type=int, required=True)

    mms = sub.add_parser("mms", help="manufactured-solution convergence")
    common(mms)

    diag = sub.add_parser("diagnose", help="energy/coercivity/pressure reports")
    common(diag)

    mi = sub.add_parser("mesh-info", help="report mesh counts")
    common(mi)
    return parser


def _cmd_run(args) -> int:
    config = _load_cli_config(args)
    out = _out_dir(args)
    result = driver.run_simulation(config)
    write_probes(os.path.join(out, "probes.csv"), result)
    write_energy(os.path.join(out, "energy.csv"), result)
    mesh = config.build_mesh()
    for it, snap in sorted(result.snapshots.items()):
        write_vtk(
            os.path.join(out, f"snapshot_{it:05d}.vtk"),
            mesh, snap, result.seed, result.config_hash,
        )
    print(
        f"run complete: {result.n_steps} steps, seed={result.seed}, "
        f"config={result.config_hash}, outputs in {out}"
    )
    return 0


def _cmd_ensemble(args) -> int:
    config = _load_cli_config(args)
    out = _out_dir(args)
    stats, results = driver.run_ensemble(config, args.paths)
    # results holds the surviving paths only: name each by its path index
    failed = {k for k, _ in stats.failures}
    survivors = [k for k in range(args.paths) if k not in failed]
    for k, res in zip(survivors, results):
        write_probes(os.path.join(out, f"probes_path{k:03d}.csv"), res)
    base = results[0]
    with open(os.path.join(out, "ensemble_stats.csv"), "w") as fh:
        fh.write(
            f"# seed={config.seed} config={config_hash(config)} "
            f"paths={stats.n_paths}\n"
        )
        heads = []
        for i in range(stats.mean.shape[1]):
            heads += [f"mean_{i}", f"var_{i}"]
        fh.write("t," + ",".join(heads) + "\n")
        for row in range(stats.mean.shape[0]):
            cells = []
            for i in range(stats.mean.shape[1]):
                cells += [
                    f"{stats.mean[row, i]:.17g}",
                    f"{stats.variance[row, i]:.17g}",
                ]
            fh.write(f"{base.times[row]:.17g}," + ",".join(cells) + "\n")
    if stats.failures:
        print(f"warning: {len(stats.failures)} path(s) failed", file=sys.stderr)
    print(f"ensemble complete: {stats.n_paths} paths, outputs in {out}")
    return 0


def _cmd_mms(args) -> int:
    poisson = diagnostics.mms_poisson_study()
    stokes = diagnostics.mms_stokes_study()
    print("poisson P1:  " + "  ".join(f"{e:.3e}" for e in poisson.errors["u"]))
    print(f"  L2 order {poisson.orders['u']:.2f}")
    print("stokes  u :  " + "  ".join(f"{e:.3e}" for e in stokes.errors["u"]))
    print(f"  L2 order {stokes.orders['u']:.2f}")
    print("stokes  p :  " + "  ".join(f"{e:.3e}" for e in stokes.errors["p"]))
    print(f"  L2 order {stokes.orders['p']:.2f}")
    return 0


def _cmd_diagnose(args) -> int:
    config = _load_cli_config(args)
    out = _out_dir(args)
    small = replace(
        config, mesh_nx=8, mesh_ny=8, T=min(config.T, 0.5), mech_refresh=1
    )
    result = driver.run_simulation(small)
    sup = result.energy.suprema()

    mesh = structured_unit_square(6, 6)
    gamma = np.zeros(mesh.num_vertices)
    coer = diagnostics.coercivity_estimate(mesh, gamma, config.mech.alpha)
    infsup = diagnostics.infsup_estimate(mesh)
    eps_cfg = replace(
        config, mesh_nx=6, mesh_ny=6, T=min(config.T, 0.25),
        noise_v=NoiseCoeff("constant", 0.0), noise_w=NoiseCoeff("constant", 0.0),
    )
    table = diagnostics.eps_pressure_study(eps_cfg, [1e-1, 1e-2, 1e-3])

    report = os.path.join(out, "diagnostics.txt")
    with open(report, "w") as fh:
        fh.write(f"seed={config.seed} config={config_hash(config)}\n")
        fh.write("energy suprema (short run, 8x8 mesh):\n")
        for name, val in sup.items():
            fh.write(f"  {name}: {val:.6e}\n")
        fh.write(f"coercivity lower bound (6x6): {coer:.6e}\n")
        fh.write(f"inf-sup estimate (6x6): {infsup:.6e}\n")
        fh.write("pseudo-compressible pressure gap:\n")
        for eps, gap in table:
            fh.write(f"  eps={eps:g}: {gap:.6e}\n")
    with open(os.path.join(out, "eps_pressure.csv"), "w") as fh:
        fh.write(f"# seed={config.seed} config={config_hash(config)}\n")
        fh.write("eps,pressure_gap\n")
        for eps, gap in table:
            fh.write(f"{eps:.17g},{gap:.17g}\n")
    print(f"diagnostics written to {report}")
    return 0


def _cmd_mesh_info(args) -> int:
    config = _load_cli_config(args)
    mesh = config.build_mesh()
    nb = len(boundary_edges(mesh))
    ne = len(mesh.edges())
    print(f"vertices:  {mesh.num_vertices}")
    print(f"triangles: {mesh.num_triangles}")
    print(f"edges:     {ne} ({nb} on the boundary)")
    print(f"area:      {mesh.areas().sum():.12g}")
    print(f"euler V-E+F: {mesh.num_vertices - ne + mesh.num_triangles}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ensemble": _cmd_ensemble,
    "mms": _cmd_mms,
    "diagnose": _cmd_diagnose,
    "mesh-info": _cmd_mesh_info,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
