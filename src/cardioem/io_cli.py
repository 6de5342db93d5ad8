"""Configuration files, result serialization, and the command line.

Config files are flat `key = value` text with dotted section keys and `#`
comments.  `CONFIG_KEYS` is the schema, one rule: every field of every
section of `driver.SimConfig` (`mesh`, `time`, `ionic`, `activation`,
`conductivity`, `mech`, `noise`, `run`, `solver`) is keyed
`section.field`, generated from its dataclass.  A value is read as the
type of the default it replaces, and a float must be finite; unspecified
keys keep the defaults of `SimConfig()` (the standard square-domain
experiment), and the dataclasses validate the result.  Unknown keys are
rejected, and so are `mesh.nx` and `mesh.ny` beside a `mesh.file`, which
they could not affect.  Every output file embeds the seed and a hash of
the full configuration, the mesh file's content included, so artifacts
can be traced back to the exact run that produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np

from . import diagnostics, driver
from .mesh import boundary_edges


class ConfigError(ValueError):
    """Bad configuration input; message carries key and line context."""


# every recognised key -> the (section, field) of SimConfig that it sets
CONFIG_KEYS = {
    f"{section}.{f.name}": (section, f.name)
    for section, params in vars(driver.SimConfig()).items()
    if is_dataclass(params)
    for f in fields(params)
}


def _finite(text: str) -> float:
    """`text` as a float, refused unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_value(default, text: str):
    """`text` read as the type of `default`; probe lists as "x,y; x,y".

    Every float must be finite: nan and inf are refused here, with the key
    named by the caller, not left to fail, or to pass, at run time.  A
    bool is `true` or `false`, nothing else.
    """
    if isinstance(default, float):
        return _finite(text)
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"{text!r} is not true or false")
        return text == "true"
    if not isinstance(default, tuple):
        return type(default)(text)
    pts = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        xy = chunk.split(",")
        if len(xy) != 2:
            raise ValueError(f"bad probe point {chunk!r}")
        pts.append((_finite(xy[0]), _finite(xy[1])))
    return tuple(pts)


def _render(value) -> str:
    if isinstance(value, tuple):
        return "; ".join(",".join(map(_render, pt)) for pt in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # float() first: numpy >= 2 reprs np.float64 as "np.float64(x)"
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> driver.SimConfig:
    """Parse `key = value` lines into a validated SimConfig."""
    base = driver.SimConfig()
    tree, seen = {}, set()  # tree: section -> {field: value}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        section, name = CONFIG_KEYS[key]
        try:
            value = _parse_value(getattr(getattr(base, section), name), val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
        tree.setdefault(section, {})[name] = value
    sizes = sorted(seen & {"mesh.nx", "mesh.ny"})
    if sizes and tree["mesh"].get("file"):
        raise ConfigError(
            f"{', '.join(sizes)} cannot be used with 'mesh.file', which fixes "
            "the mesh"
        )
    try:
        # one replace per section, so each `__post_init__` checks its
        # finished values, and SimConfig's checks them together
        return replace(base, **{
            section: replace(getattr(base, section), **values)
            for section, values in tree.items()
        })
    except ValueError as exc:
        raise ConfigError(str(exc))


def serialize_config(config: driver.SimConfig) -> str:
    """Complete `key = value` rendering; parse(serialize(c)) == c."""
    return "".join(
        f"{key} = {_render(getattr(getattr(config, section), name))}\n"
        for key, (section, name) in sorted(CONFIG_KEYS.items())
    )


def config_hash(config: driver.SimConfig) -> str:
    """Hash of the serialized config and of the mesh file's bytes, if any."""
    digest = hashlib.sha256(serialize_config(config).encode())
    if config.mesh.file:
        with open(config.mesh.file, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# writers


def write_vtk(path, mesh, snapshot, seed: int, chash: str):
    """Legacy-ASCII VTK unstructured grid of one `driver.PathState`.

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
            f"iteration={snapshot.n} t={snapshot.t:.9g} "
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
        electric, u = snapshot.electric, snapshot.mech.u
        scalars = {
            "v": electric.v, "v_e": electric.v_e, "w": electric.w,
            "gamma": snapshot.gamma, "p": snapshot.mech.p,
        }
        for name, arr in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for value in arr[:nv]:
                fh.write(fmt(value) + "\n")
        n_s = len(u) // 2
        ux, uy = u[:n_s][:nv], u[n_s:][:nv]
        fh.write("VECTORS u double\n")
        for a, b in zip(ux, uy):
            fh.write(f"{fmt(a)} {fmt(b)} 0\n")


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
        config = driver.SimConfig()
    else:
        try:
            with open(args.config) as fh:
                config = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "snapshots", None):
        iters = tuple(int(t) for t in args.snapshots.split(","))
        config = replace(config, snapshot_iters=iters)
    return config


def _out_dir(args) -> str:
    out = args.out or "."
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
    result = driver.run_simulation(config)
    out = _out_dir(args)
    write_probes(os.path.join(out, "probes.csv"), result)
    write_energy(os.path.join(out, "energy.csv"), result)
    mesh = config.build_mesh() if result.snapshots else None
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
    stats, results = driver.run_ensemble(config, args.paths)
    out = _out_dir(args)
    # results holds the surviving paths only: name each by its path index
    failed = {k for k, _ in stats.failures}
    survivors = [k for k in range(args.paths) if k not in failed]
    for k, res in zip(survivors, results):
        write_probes(os.path.join(out, f"probes_path{k:03d}.csv"), res)
    base = results[0]
    with open(os.path.join(out, "ensemble_stats.csv"), "w") as fh:
        fh.write(
            f"# seed={config.run.seed} config={config_hash(config)} "
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
    """Every report reads one activated 6x6 run with per-step mechanics.

    The run goes to t = 1.6 + 20 dt, past the onset of contraction, and
    keeps snapshots of the last 21 iterations, the window the
    pseudo-compressible study replays.
    """
    config = _load_cli_config(args)
    # hashed first: a config whose mesh file cannot be read fails before
    # the run, not halfway through writing the report
    chash = config_hash(config)
    n_window = 20
    dt = config.time.dt
    start = int(round(1.6 / dt))
    run_cfg = replace(
        config, mesh=driver.MeshParams(6, 6),
        time=replace(config.time, T=(start + n_window) * dt),
        run=replace(config.run, mech_refresh=1),
        snapshot_iters=tuple(range(start, start + n_window + 1)),
    )
    disc = driver.Discretization.build(run_cfg)
    result = driver.run_simulation(run_cfg, disc=disc)
    sup = result.energy.suprema()
    coer = diagnostics.coercivity_estimate(disc, result.final.gamma)
    infsup = diagnostics.infsup_estimate(disc)
    table = diagnostics.eps_pressure_study(disc, result, [1e-1, 1e-2, 1e-3])
    Mp = disc.statics.mass_p
    window = [result.snapshots[it].mech.p for it in run_cfg.snapshot_iters[1:]]
    p_norm = np.sqrt(sum(dt * float(p @ Mp.dot(p)) for p in window))

    t_end = result.times[-1]
    out = _out_dir(args)
    report = os.path.join(out, "diagnostics.txt")
    with open(report, "w") as fh:
        fh.write(f"seed={config.run.seed} config={chash}\n")
        fh.write(f"energy suprema (6x6 mesh, t <= {t_end:g}):\n")
        for name, val in sup.items():
            fh.write(f"  {name}: {val:.6e}\n")
        fh.write(f"coercivity lower bound (6x6, final gamma): {coer:.6e}\n")
        fh.write(f"inf-sup estimate (6x6): {infsup:.6e}\n")
        fh.write(
            f"pseudo-compressible pressure gap over "
            f"{result.times[start]:g} < t <= {t_end:g}:\n"
        )
        fh.write(
            f"  pressure norm {p_norm:.6e}, solver floor mech_tol * norm "
            f"{config.solver.mech_tol * p_norm:.6e}\n"
        )
        for eps, gap in table:
            fh.write(f"  eps={eps:g}: {gap:.6e}\n")
    with open(os.path.join(out, "eps_pressure.csv"), "w") as fh:
        fh.write(f"# seed={config.run.seed} config={chash}\n")
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
