"""Coupled simulation loop and Monte Carlo ensembles.

Operator ordering per step (fixed):

  1. advance (v_i, v_e, v, w) with the semi-implicit electric step; a
     step whose solve does not converge raises `SimulationError`,
  2. advance the activation field by explicit Euler using the fresh w,
  3. every `mech_refresh` steps, re-solve the mechanics with the current
     activation and rebuild the conductivity-dependent operators from the
     new displacement gradient; while the activation is nowhere positive
     (`mechanics.is_passive`) the system is bitwise the initial one, so the
     initial solution and its bidomain system are reused instead,
  4. record the probe values and the energies, whose mechanics terms are
     computed once per mechanics state; at the iterations in
     `snapshot_iters`, keep a copy of the path's state.

The state of a path after iteration n is one `PathState`: (v_i, v_e, v,
w), gamma and the current mechanics solution, at t = n dt.  A `SimResult`
holds the records, the copies taken at `snapshot_iters` (keyed by n), the
final `PathState` and the residuals of every mechanics solve.  A failing
run raises `SimulationError`, whose checkpoint is the `PathState` the
failing step started from: after a failure in step n (from t_n to
t_{n+1}) it equals, bitwise, the final state of the same config run for n
steps.  A failed set-up has the initial state as its checkpoint, with the
unconverged mechanics solution.

Everything before the first step that the seed does not change is a
`Discretization`, built once from the config: the mesh (`mesh_file`, or
the `mesh_nx` x `mesh_ny` unit square), spaces and fixed operators, the
probe locations and the stimulus load, v0 from the stimulus profile, the
activation gamma0 = -0.3 v0 / (2 - v0), and the mechanics solution at
gamma0 (the passive solution).  gamma0 is nowhere positive, so with no
body force the load is exactly zero and the passive solution is the zero
pair, taken without assembling or solving anything; only a body force
makes it an assembled solve.  A zero displacement leaves F = I, so the
passive bidomain system's conductivities are the constant tensors K_i and
K_e, assembled without a displacement gradient.  The P2 space of u, the
mechanics operators that do not depend on the activation
(`mechanics.MechStatics`) and the H1 Gram matrix are built on first use,
at the first solve with a load, so a run that never activates builds one
`FeSpace`, the P1 one, and none of the mechanics.  A run splits v0 into
(v_i, v_e) with a zero-mean extracellular part and starts w at zero.
An ensemble builds one Discretization and shares it across its paths.

An ensemble splits its paths over W = min(paths, usable CPUs) processes,
path k to share k mod W.  Shares 1..W-1 run in processes forked after the
set-up, which inherit the Discretization (a stepped one holds a SuperLU,
which does not pickle) and send their results back over a pipe; the
calling process runs share 0, so a tracer in it sees that share's layers.
A config with no steps, or a platform with no `fork`, runs serially: a
zero-step path costs less than a fork.  What is built on first use is
built once per process.

Runs are deterministic given the configuration: each noise stream is drawn
from a generator seeded by (seed, channel, mode), and ensemble member k
reseeds with (seed, k).
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import diagnostics, electrics, mechanics, physics
from .fem import (
    FeSpace,
    SaddleResult,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from .mesh import FiberField, TriMesh, load_mesh, structured_unit_square
from .noise import NoiseCoeff, NoisePath


class SimulationError(RuntimeError):
    """Aborted run: the failing step and a checkpoint.

    The checkpoint is the `PathState` that the failing step started from,
    so its `n` equals `step`; it is None where no single path failed.
    """

    def __init__(self, message, step, checkpoint=None):
        super().__init__(f"step {step}: {message}")
        self.message = message
        self.step = step
        self.checkpoint = checkpoint

    def __reduce__(self):
        # an ensemble worker sends its failed paths' errors to the parent
        return type(self), (self.message, self.step, self.checkpoint)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    mesh_nx: int = 22
    mesh_ny: int = 22
    mesh_file: str = ""
    T: float = 3.2
    dt: float = 0.0125
    ionic: physics.IonicParams = field(default_factory=physics.IonicParams)
    activation: physics.ActivationParams = field(
        default_factory=physics.ActivationParams
    )
    conductivity: physics.ConductivityParams = field(
        default_factory=physics.ConductivityParams
    )
    mech: mechanics.MechParams = field(default_factory=mechanics.MechParams)
    noise_v: NoiseCoeff = field(default_factory=NoiseCoeff)
    noise_w: NoiseCoeff = field(default_factory=NoiseCoeff)
    n_modes: int = 1
    seed: int = 0
    mech_refresh: int = 10
    probes: tuple = ((0.0, 0.5), (0.5, 0.5), (1.0, 0.5))
    stim_duration: float = 0.01
    solver_tol: float = 1e-10
    mech_tol: float = 1e-9
    snapshot_iters: tuple = ()  # iterations in 0..n_steps

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.mech_refresh < 1:
            raise ValueError("mech_refresh must be at least 1")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.noise_v.z_cap != self.noise_w.z_cap:
            raise ValueError("noise_v and noise_w must share one z_cap")
        outside = [it for it in self.snapshot_iters if not 0 <= it <= self.n_steps]
        if outside:
            raise ValueError(
                f"snapshot iterations {outside} lie outside 0..{self.n_steps}, "
                "the run's iterations"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def build_mesh(self) -> TriMesh:
        if self.mesh_file:
            with open(self.mesh_file) as fh:
                return load_mesh(fh.read())
        return structured_unit_square(self.mesh_nx, self.mesh_ny)


@dataclass(frozen=True)
class PathState:
    """The state of one path after iteration n, at time t = n dt."""

    n: int
    t: float
    electric: electrics.ElectricState
    gamma: np.ndarray
    mech: mechanics.MechState


@dataclass
class SimResult:
    """Probe traces, energies, path states, and reproduction data."""

    times: np.ndarray
    probes: np.ndarray  # (n_steps + 1, n_probes)
    energy: "diagnostics.EnergyRecord"
    snapshots: dict  # iteration -> a copy of the PathState there
    seed: int
    config_hash: str
    n_steps: int
    final: PathState
    mech_residuals: list  # (primal, constraint) of every mechanics solve


@dataclass
class EnsembleStats:
    """Pointwise probe statistics across paths plus energy suprema."""

    mean: np.ndarray
    variance: np.ndarray
    energy_suprema: list
    n_paths: int
    failures: list


# ---------------------------------------------------------------------------
# probes


def locate_point(mesh: TriMesh, point) -> tuple[int, np.ndarray]:
    """Containing triangle and barycentric weights of a point.

    Weights within 1e-12 of a vertex are snapped so probing at a mesh vertex
    reproduces nodal values exactly.
    """
    x, y = point
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rx = x - p[:, 0, 0]
    ry = y - p[:, 0, 1]
    l1 = (rx * d2[:, 1] - ry * d2[:, 0]) / det
    l2 = (ry * d1[:, 0] - rx * d1[:, 1]) / det
    l0 = 1.0 - l1 - l2
    lam = np.column_stack([l0, l1, l2])
    inside = np.all(lam >= -1e-12, axis=1)
    hits = np.where(inside)[0]
    if not hits.size:
        raise ValueError(f"point {point} lies outside the mesh")
    k = int(hits[0])
    weights = np.clip(lam[k], 0.0, 1.0)
    snap = weights > 1.0 - 1e-12
    if snap.any():
        weights = snap.astype(float)
    weights /= weights.sum()
    return k, weights


def _probe_values(mesh, locs, v):
    out = np.empty(len(locs))
    for i, (tri, wts) in enumerate(locs):
        out[i] = float(v[mesh.triangles[tri]] @ wts)
    return out


# ---------------------------------------------------------------------------
# path-independent set-up


class PassiveSolution(NamedTuple):
    """The mechanics solution at gamma <= 0, and the bidomain system of it."""

    mech: mechanics.MechState
    result: SaddleResult
    system: electrics.BidomainSystem


@dataclass(frozen=True)
class Discretization:
    """Everything a run builds before its first step that its seed leaves alone.

    Built once from a config by `build`: the mesh, fibers and spaces, the
    operators assembled before the first step, the probe locations, the
    stimulus load, the initial v0 and gamma0, and `passive`, the mechanics
    solution at gamma0 with the bidomain system built from it.  v0 lies in
    [0, 1), so gamma0 is nowhere positive, and `passive` is the solution at
    every activation that `mechanics.is_passive` accepts; with no body
    force it is the zero pair, reached without assembly, sized from the
    mesh's vertex and edge counts, and its bidomain system has the constant
    conductivities K_i and K_e.  `u_space` (the P2 space), `statics` and
    `h1_gram` are built on first use, at most once: the copies that
    `dataclasses.replace` makes share them through `built`.
    `run_ensemble` shares one across its paths, which differ only in the
    seed.
    """

    config: SimConfig
    mesh: TriMesh
    fibers: FiberField
    space: FeSpace  # P1: the potentials, the activation and the pressure
    mass: sp.csr_matrix
    lumped: np.ndarray  # row sums of the mass matrix
    stiff_unit: sp.csr_matrix
    probe_locs: list
    i_app: np.ndarray  # stimulus load while the stimulus is on
    v0: np.ndarray
    gamma0: np.ndarray
    passive: PassiveSolution | None  # None once a single run has dropped it
    # the operators built on first use, by name; `replace` passes the
    # same dict on, so every copy shares them
    built: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, config: SimConfig) -> "Discretization":
        """The set-up of `config`, on the config's own mesh.

        Raises `SimulationError` at step 0 when the initial mechanics solve
        fails.
        """
        mesh = config.build_mesh()
        space = FeSpace(mesh, degree=1)
        mass = assemble_mass(space)
        v0 = space.interpolate(electrics.initial_stimulus)
        # the stimulus profile is constant in time while active
        stim_profile = electrics.initial_stimulus(
            space.qpoints[:, :, 0], space.qpoints[:, :, 1]
        )
        disc = cls(
            config=config,
            mesh=mesh,
            fibers=FiberField.axis_aligned(mesh),
            space=space,
            mass=mass,
            lumped=np.asarray(mass.sum(axis=1)).ravel(),
            stiff_unit=assemble_stiffness(space),
            probe_locs=[locate_point(mesh, q) for q in config.probes],
            i_app=assemble_load(space, stim_profile),
            v0=v0,
            gamma0=-0.3 * v0 / (2.0 - v0),
            passive=None,
        )
        mech_state, mres = disc.solve_mechanics(disc.gamma0)
        if not mres.converged:
            raise SimulationError(
                "initial mechanics solve failed", 0,
                checkpoint=PathState(
                    0, 0.0, disc.initial_state(), disc.gamma0.copy(), mech_state
                ),
            )
        system = disc.bidomain_system(mech_state.u)
        return replace(disc, passive=PassiveSolution(mech_state, mres, system))

    @property
    def u_space(self) -> FeSpace:
        """The scalar P2 space, built on first use; u is a component-major
        vector over it."""
        if "u_space" not in self.built:
            self.built["u_space"] = FeSpace(self.mesh, degree=2)
        return self.built["u_space"]

    @property
    def statics(self) -> mechanics.MechStatics:
        """The activation-independent mechanics operators, built on first use."""
        if "statics" not in self.built:
            self.built["statics"] = mechanics.mech_statics(
                self.u_space, self.space, self.config.mech.alpha, self.mass
            )
        return self.built["statics"]

    @property
    def h1_gram(self) -> sp.csr_matrix:
        """The scalar P2 block M + K of the H1 energy, built on first use.

        So it is built after the first solve with a load, not before:
        allocated below the solve's temporaries it fragments the heap,
        which raised the peak memory of a default run by up to 6%.
        """
        if "h1_gram" not in self.built:
            self.built["h1_gram"] = self.statics.mass_u + assemble_stiffness(
                self.u_space
            )
        return self.built["h1_gram"]

    def initial_state(self) -> electrics.ElectricState:
        """v = v0 split into (v_i, v_e) with zero-mean v_e, and w = 0."""
        v_i, v_e = electrics.initial_split(self.v0, self.lumped)
        w = np.zeros_like(self.v0)
        return electrics.ElectricState(v_i, v_e, self.v0.copy(), w)

    def solve_mechanics(
        self, gamma: np.ndarray
    ) -> tuple[mechanics.MechState, SaddleResult]:
        """Assemble and solve the mechanics system at activation `gamma`.

        A passive `gamma` with no body force loads nothing, so the solution
        is the zero pair, returned with 0 iterations and nothing assembled.
        Its u has the P2 length 2 (n_vertices + n_edges), counted from the
        mesh without building the P2 space.
        """
        cfg = self.config
        if mechanics.is_passive(gamma) and not np.any(cfg.mech.g):
            n_u = self.mesh.num_vertices + self.mesh.num_edges
            res = SaddleResult(
                np.zeros(2 * n_u), np.zeros(self.space.n_scalar),
                True, 0, 0.0, 0.0,
            )
            return mechanics.MechState(res.u, res.p), res
        mech_sys = mechanics.assemble_mechanics(
            self.u_space, self.space, gamma, self.fibers, cfg.mech,
            cfg.activation, statics=self.statics,
        )
        return mechanics.solve_mechanics(mech_sys, tol=cfg.mech_tol)

    def bidomain_system(self, u: np.ndarray) -> electrics.BidomainSystem:
        """Bidomain operators with the conductivities pulled back through u.

        An all-zero u passes no gradient: F = I, and the conductivities
        are the constant tensors K_i and K_e.
        """
        grad_u = self.u_space.vector_grad_at_qp(u) if np.any(u) else None
        Mi, Me = electrics.conductivities_from_gradient(
            self.space, grad_u, self.config.conductivity
        )
        return electrics.assemble_bidomain(
            self.space, Mi, Me, self.config.dt, self.mass, self.lumped
        )


# ---------------------------------------------------------------------------
# the coupled loop


def run_simulation(
    config: SimConfig, disc: Discretization | None = None
) -> SimResult:
    """One path of `config`.

    A shared `disc` (from `Discretization.build` of a config that differs
    from `config` at most in the seed) replaces the set-up.
    """
    from .io_cli import config_hash  # local import to avoid a cycle

    shared = disc is not None
    if not shared:
        disc = Discretization.build(config)
    elif replace(config, seed=disc.config.seed) != disc.config:
        raise ValueError(
            "a shared Discretization must be built from this config, up to "
            "its seed"
        )
    passive = disc.passive
    if not shared:
        # hold the passive solution only while it is the current one, so a
        # single run keeps no second grounded LU alive beside an active one
        disc = replace(disc, passive=None)
    mesh, space, mass, locs = disc.mesh, disc.space, disc.mass, disc.probe_locs
    n_steps = config.n_steps

    mech, mres, system = passive
    path = PathState(0, 0.0, disc.initial_state(), disc.gamma0.copy(), mech)
    mech_residuals = [(mres.res_primal, mres.res_constraint)]

    noise = NoisePath(config.seed, config.dt, n_steps, config.n_modes)
    incr_v = noise.increments("v")
    incr_w = noise.increments("w")

    probes = np.empty((n_steps + 1, len(locs)))
    probes[0] = _probe_values(mesh, locs, path.electric.v)
    times = config.dt * np.arange(n_steps + 1)

    i_app_zero = np.zeros_like(disc.i_app)

    energy = diagnostics.EnergyRecord()
    mech_terms = diagnostics.mech_energy(mech, disc)
    diagnostics.append_energy(
        energy, path.electric, path.gamma, mech_terms, mass, disc.stiff_unit,
        space, config.dt,
    )

    snapshots = {}
    chash = config_hash(config)
    if 0 in config.snapshot_iters:
        snapshots[0] = copy.deepcopy(path)

    for n in range(n_steps):
        i_app_vec = disc.i_app if path.t < config.stim_duration else i_app_zero
        electric, info = electrics.step_bidomain(
            system,
            path.electric,
            config.ionic,
            i_app_vec,
            incr_v[n],
            incr_w[n],
            config.noise_v,
            config.noise_w,
            tol=config.solver_tol,
        )
        if not info.converged:
            raise SimulationError(
                f"electric solve stalled (relres {info.relres:.2e})", n,
                checkpoint=path,
            )

        gamma = path.gamma + config.dt * physics.g_act(
            path.gamma, electric.w, config.activation
        )
        if not np.all(np.isfinite(gamma)):
            raise SimulationError("activation is not finite", n, checkpoint=path)

        mech = path.mech
        if (n + 1) % config.mech_refresh == 0:
            if passive is not None and mechanics.is_passive(gamma):
                mech, mres, system = passive
            else:
                mech, mres = disc.solve_mechanics(gamma)
                if not mres.converged:
                    raise SimulationError(
                        "mechanics solve failed", n, checkpoint=path
                    )
                system = disc.bidomain_system(mech.u)
                if not shared:
                    passive = None
            mech_residuals.append((mres.res_primal, mres.res_constraint))
            mech_terms = diagnostics.mech_energy(mech, disc)

        path = PathState(n + 1, float(times[n + 1]), electric, gamma, mech)
        probes[n + 1] = _probe_values(mesh, locs, electric.v)
        diagnostics.append_energy(
            energy, electric, gamma, mech_terms, mass, disc.stiff_unit, space,
            config.dt,
        )
        if path.n in config.snapshot_iters:
            snapshots[path.n] = copy.deepcopy(path)

    return SimResult(
        times=times,
        probes=probes,
        energy=energy,
        snapshots=snapshots,
        seed=config.seed,
        config_hash=chash,
        n_steps=n_steps,
        final=path,
        mech_residuals=mech_residuals,
    )


def path_seed(base_seed: int, k: int) -> int:
    """Sub-seed of ensemble member k, derived by hashing (seed, k)."""
    return int(np.random.SeedSequence((int(base_seed), int(k))).generate_state(1)[0])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(config: SimConfig, disc: Discretization, paths, conn=None):
    """[(k, SimResult or SimulationError)] of the ensemble paths k in `paths`.

    A worker process passes the sending end of its pipe as `conn`, and the
    list goes over it instead of being returned.
    """
    out = []
    for k in paths:
        cfg_k = replace(config, seed=path_seed(config.seed, k))
        try:
            out.append((k, run_simulation(cfg_k, disc=disc)))
        except SimulationError as exc:
            out.append((k, exc))
    if conn is None:
        return out
    conn.send(out)
    conn.close()


def run_ensemble(config: SimConfig, n_paths: int) -> tuple[EnsembleStats, list]:
    """Run n_paths independent paths and aggregate probe statistics.

    The paths share one `Discretization`, built here.  They are split over
    W = min(n_paths, usable CPUs) processes: path k goes to share k mod W.
    Shares 1..W-1 each run in a process forked after the set-up, which so
    inherits the Discretization instead of receiving a pickled copy (a
    stepped one holds a SuperLU, which cannot be pickled), and which sends
    its results back over a pipe.  The calling process runs share 0 itself,
    so it does a share of the work and a tracer in it sees the layers of
    its own paths.  W is 1, and nothing is forked, where the platform has
    no `fork` or the config has no steps: a zero-step path only copies the
    initial state, which costs less than a fork.  The operators built on
    first use (the P2 space, the mechanics statics, the grounded LU) are
    built once per process.

    A path's results do not depend on the process that ran it.  Failed
    paths are reported in stats.failures and skipped with a warning, in
    path order; statistics are over the surviving paths.  A worker that
    dies (a signal, an exit without its results) raises `SimulationError`
    naming its paths and exit code; the workers are always reaped, and
    terminated first when the calling process fails.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    try:
        disc = Discretization.build(config)
    except SimulationError as exc:
        warnings.warn(f"all {n_paths} paths failed in their shared set-up: {exc}")
        raise SimulationError("all ensemble paths failed", -1) from exc
    n_workers = 1
    if config.n_steps > 0 and "fork" in multiprocessing.get_all_start_methods():
        n_workers = min(n_paths, _usable_cpus())
    shares = [range(i, n_paths, n_workers) for i in range(n_workers)]
    outcomes = {}
    workers = []  # (process, receiving end of its pipe, its paths)
    try:
        if n_workers > 1:
            ctx = multiprocessing.get_context("fork")
            for paths in shares[1:]:
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_run_share, args=(config, disc, paths, sender)
                )
                proc.start()
                workers.append((proc, receiver, paths))
                # the worker holds the only sending end, so its death is EOF
                sender.close()
        outcomes.update(_run_share(config, disc, shares[0]))
        for proc, receiver, paths in workers:
            # receive before joining: a worker blocks on a full pipe
            try:
                outcomes.update(receiver.recv())
                received = True
            except EOFError:
                received = False
            proc.join()
            if not received or proc.exitcode != 0:
                raise SimulationError(
                    f"the worker of ensemble paths {list(paths)} exited with "
                    f"code {proc.exitcode}", -1,
                )
    finally:
        for proc, receiver, _ in workers:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            receiver.close()

    results, failures = [], []
    for k in range(n_paths):
        outcome = outcomes[k]
        if isinstance(outcome, SimulationError):
            failures.append((k, str(outcome)))
            warnings.warn(f"path {k} failed: {outcome}")
        else:
            results.append(outcome)
    if not results:
        raise SimulationError("all ensemble paths failed", -1)

    traces = np.stack([r.probes for r in results])
    stats = EnsembleStats(
        mean=traces.mean(axis=0),
        variance=traces.var(axis=0),
        energy_suprema=[r.energy.suprema() for r in results],
        n_paths=len(results),
        failures=failures,
    )
    return stats, results
