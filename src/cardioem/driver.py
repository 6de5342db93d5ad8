"""Coupled simulation loop and Monte Carlo ensembles.

Operator ordering per step (fixed):

  1. advance (v_i, v_e, v, w) with the semi-implicit electric step; a
     path whose solve does not converge fails with a `SimulationError`,
  2. advance the activation field by explicit Euler using the fresh w,
  3. every `run.mech_refresh` steps, re-solve the mechanics with the current
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
path ends in a `SimulationError` (`run_simulation` raises it, `run_batch`
returns it in the path's place), whose checkpoint is the `PathState` the
failing step started from: after a failure in step n (from t_n to
t_{n+1}) it equals, bitwise, the final state of the same config run for n
steps.  A failed set-up has the initial state as its checkpoint, with the
unconverged mechanics solution.

Everything before the first step that the seed does not change is a
`Discretization`, built once from the config: the mesh (`mesh.file`, or
the `mesh.nx` x `mesh.ny` unit square), spaces and fixed operators, the
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

Paths run in lockstep batches (`run_batch`); `run_simulation` is a batch
of one.  The state of a batch has a leading path axis.  Per step the
batch shares one call each of the electric step (ionic current, noise,
right-hand sides, w update), the activation update, the probes and the
energies.  What differs between paths once their activations do stays
per path: the electric solve with the path's own bidomain system, the
mechanics refresh, and failure handling, so a failing path leaves its
batch and the others go on.  No operation mixes rows, so a path's
results are bitwise the same in any batch.

An ensemble splits its paths over W = min(paths, usable CPUs) processes,
path k to share k mod W, and each share runs as one batch; the usable
CPUs are those of the process's CPU set.  Shares 1..W-1 run in processes
forked after the set-up, which inherit the Discretization with all that
is built on it, and send their results back over a pipe; the calling
process runs share 0.  With W >= 2, share i runs bound to the i-th CPU
of the sorted set, so no two shares take turns on one CPU while another
idles: a scheduler that does not balance load across the set (a cpuset
with `sched_load_balance` 0) keeps each process on the CPU it started
on.  The binding acts on the thread that runs the share (Linux's
`sched_setaffinity(0, ...)`), so it gives each share one CPU only where
BLAS runs single-threaded, as the benchmark and CI set it; helper
threads that BLAS started before the binding keep their CPU set.  The
calling thread binds only for its own share and gets its CPU set back
after it; a share that the platform does not let bind runs unbound.  No
operation depends on its process or CPU, so every path is bitwise the
same either way.
A config with no steps, or a platform with no `fork`, runs serially: a
zero-step path costs less than a fork.  What is built on first use is
built once per process.

Runs are deterministic given the configuration: each noise stream is drawn
from a generator seeded by (seed, channel, mode), and ensemble member k
reseeds with (seed, k).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from contextlib import contextmanager, suppress
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
from .noise import NoiseParams, NoisePath


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
class MeshParams:
    """The mesh: `file`, in the format of `mesh.load_mesh`, or without one
    the nx x ny structured unit square."""

    nx: int = 22
    ny: int = 22
    file: str = ""


@dataclass(frozen=True)
class TimeParams:
    """The end time T and the step dt of a run."""

    T: float = 3.2
    dt: float = 0.0125

    def __post_init__(self):
        physics.require_finite(self, "dt", "T")
        # each check is written to fail on NaN too
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.T >= 0:
            raise ValueError("T must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class RunParams:
    """The seed, the mechanics refresh period in steps, how long the
    stimulus is on, and the probe points."""

    seed: int = 0
    mech_refresh: int = 10
    stim_duration: float = 0.01
    probes: tuple = ((0.0, 0.5), (0.5, 0.5), (1.0, 0.5))

    def __post_init__(self):
        physics.require_finite(self, "stim_duration")
        if not self.stim_duration >= 0:
            raise ValueError("stim_duration must be nonnegative")
        if self.mech_refresh < 1:
            raise ValueError("mech_refresh must be at least 1")


@dataclass(frozen=True)
class SolverParams:
    """Relative tolerances of the electric step and the mechanics solve."""

    tol: float = 1e-10
    mech_tol: float = 1e-9

    def __post_init__(self):
        # a tolerance <= 0 can never be met: reject it here, not as a
        # stalled solve at run time
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.mech_tol > 0:
            raise ValueError("mech_tol must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run: one section per group of
    config keys (`io_cli`), and the iterations whose state a run keeps."""

    mesh: MeshParams = field(default_factory=MeshParams)
    time: TimeParams = field(default_factory=TimeParams)
    ionic: physics.IonicParams = field(default_factory=physics.IonicParams)
    activation: physics.ActivationParams = field(
        default_factory=physics.ActivationParams
    )
    conductivity: physics.ConductivityParams = field(
        default_factory=physics.ConductivityParams
    )
    mech: mechanics.MechParams = field(default_factory=mechanics.MechParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    run: RunParams = field(default_factory=RunParams)
    solver: SolverParams = field(default_factory=SolverParams)
    snapshot_iters: tuple = ()  # iterations in 0..n_steps

    def __post_init__(self):
        n_steps = self.time.n_steps
        outside = [it for it in self.snapshot_iters if not 0 <= it <= n_steps]
        if outside:
            raise ValueError(
                f"snapshot iterations {outside} lie outside 0..{n_steps}, "
                "the run's iterations"
            )

    def with_seed(self, seed: int) -> "SimConfig":
        """This config with its run seeded by `seed`."""
        return replace(self, run=replace(self.run, seed=seed))

    def build_mesh(self) -> TriMesh:
        if self.mesh.file:
            with open(self.mesh.file) as fh:
                return load_mesh(fh.read())
        return structured_unit_square(self.mesh.nx, self.mesh.ny)


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
    """Pointwise probe statistics across paths plus energy suprema.

    `mean` and `variance` are (n_steps + 1, n_probes) over the paths that
    did not fail.  `variance` is the population variance, ddof = 0: the
    squared deviations are divided by the path count, not by one less.
    The `var_i` columns of `ensemble_stats.csv` hold it.
    """

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


def _probe_values(tris, weights, v):
    """(k, n_probes) values at the probes (`Discretization.probe_tris`) of
    the k rows of v."""
    return (v[:, tris] * weights).sum(axis=-1)


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
    operators assembled before the first step, the probe locations (also
    as arrays of their triangles' vertices and weights), the stimulus
    load, the initial v0 and gamma0, and `passive`, the mechanics
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
    probe_tris: np.ndarray  # (n_probes, 3): the vertices of each probe's triangle
    probe_weights: np.ndarray  # (n_probes, 3): its barycentric weights
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
        locs = [locate_point(mesh, q) for q in config.run.probes]
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
            probe_locs=locs,
            probe_tris=mesh.triangles[[tri for tri, _ in locs]],
            probe_weights=np.array([wts for _, wts in locs]),
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
        if mechanics.is_passive(gamma) and not (cfg.mech.gx or cfg.mech.gy):
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
        return mechanics.solve_mechanics(mech_sys, tol=cfg.solver.mech_tol)

    def bidomain_system(self, u: np.ndarray) -> electrics.BidomainSystem:
        """Bidomain operators with the conductivities pulled back through u.

        An all-zero u passes no gradient: F = I, and the conductivities
        are the constant tensors K_i and K_e.
        """
        cond = self.config.conductivity
        grad_u = self.u_space.vector_grad_at_qp(u) if np.any(u) else None
        Mi, Me = electrics.conductivities_from_gradient(self.space, grad_u, cond)
        return electrics.assemble_bidomain(
            self.space, Mi, Me, self.config.time.dt, self.mass, self.lumped,
            ratio=cond.ratio,
        )


# ---------------------------------------------------------------------------
# the coupled loop


def run_simulation(
    config: SimConfig, disc: Discretization | None = None
) -> SimResult:
    """One path of `config`: a batch of one (`run_batch`).

    A shared `disc` (from `Discretization.build` of a config that differs
    from `config` at most in the seed) replaces the set-up.  A failing
    path raises its `SimulationError`.
    """
    [outcome] = run_batch([config], disc)
    if isinstance(outcome, SimulationError):
        raise outcome
    return outcome


@dataclass
class _Lane:
    """What one path of a batch holds apart from its rows of the batch state."""

    passive: PassiveSolution | None  # while the path may still reuse it
    mech: mechanics.MechState
    system: electrics.BidomainSystem
    mech_terms: tuple
    mech_residuals: list
    energy: "diagnostics.EnergyRecord"
    snapshots: dict

    def refresh(self, disc: Discretization, gamma, shared: bool) -> str | None:
        """The mechanics refresh at activation `gamma`; a failure message or None.

        While `gamma` is passive the path reuses its passive solution; a
        single run (not `shared`) drops that at its first active solve.
        """
        if self.passive is not None and mechanics.is_passive(gamma):
            mech, mres, system = self.passive
        else:
            mech, mres = disc.solve_mechanics(gamma)
            if not mres.converged:
                return "mechanics solve failed"
            system = disc.bidomain_system(mech.u)
            if not shared:
                self.passive = None
        self.mech, self.system = mech, system
        self.mech_residuals.append((mres.res_primal, mres.res_constraint))
        self.mech_terms = diagnostics.mech_energy(mech, disc)
        return None


def run_batch(configs, disc: Discretization | None = None) -> list:
    """The paths of `configs`, stepped in lockstep (module docstring); a
    SimResult or a SimulationError for each, in order.

    The configs differ at most in the seed.  A shared `disc` (from
    `Discretization.build` of such a config) replaces the set-up; without
    one the set-up is built here, and a failing set-up raises.
    """
    from .io_cli import config_hash  # local import to avoid a cycle

    shared = disc is not None
    if not shared:
        disc = Discretization.build(configs[0])
    for cfg in configs:
        if cfg.with_seed(disc.config.run.seed) != disc.config:
            raise ValueError(
                "a shared Discretization must be built from this config, up "
                "to its seed"
            )
    passive = disc.passive
    if not shared:
        # hold the passive solution only while it is the current one, so a
        # single run keeps no second grounded factor alive beside an active one
        disc = replace(disc, passive=None)
    config = disc.config
    space, mass = disc.space, disc.mass
    n_steps, dt = config.time.n_steps, config.time.dt
    times = dt * np.arange(n_steps + 1)
    i_app_zero = np.zeros_like(disc.i_app)

    mres = passive.result
    mech_terms = diagnostics.mech_energy(passive.mech, disc)
    lanes = [
        _Lane(passive, passive.mech, passive.system, mech_terms,
              [(mres.res_primal, mres.res_constraint)],
              diagnostics.EnergyRecord(), {})
        for _ in configs
    ]
    del passive  # each lane holds it while it may reuse it
    outcomes = [None] * len(configs)
    probes = np.empty((len(configs), n_steps + 1, len(disc.probe_tris)))
    noises = [
        NoisePath(cfg.run.seed, dt, n_steps, config.noise.modes) for cfg in configs
    ]
    incr_v = np.stack([noise.increments("v") for noise in noises])
    incr_w = np.stack([noise.increments("w") for noise in noises])

    # the batch state: row r is path live[r]
    live = list(range(len(configs)))
    init = disc.initial_state()
    electric = electrics.ElectricState(
        *(np.tile(a, (len(live), 1)) for a in vars(init).values())
    )
    gamma = np.tile(disc.gamma0, (len(live), 1))

    def path_state(n, r):
        """The state of row r after iteration n, in arrays of its own."""
        rows = (a[r].copy() for a in vars(electric).values())
        return PathState(
            n, float(times[n]), electrics.ElectricState(*rows), gamma[r].copy(),
            lanes[live[r]].mech,
        )

    def record(n):
        """The probes, energies and snapshots of iteration n."""
        probes[live, n] = _probe_values(
            disc.probe_tris, disc.probe_weights, electric.v
        )
        diagnostics.append_energy(
            [lanes[j].energy for j in live], electric, gamma,
            [lanes[j].mech_terms for j in live], mass, disc.stiff_unit, space,
            dt,
        )
        if n in config.snapshot_iters:
            for r, j in enumerate(live):
                lanes[j].snapshots[n] = path_state(n, r)

    record(0)
    for n in range(n_steps):
        i_app_vec = disc.i_app if times[n] < config.run.stim_duration else i_app_zero
        stepped, info = electrics.step_bidomain(
            [lanes[j].system for j in live], electric, config.ionic, i_app_vec,
            incr_v[live, n], incr_w[live, n], config.noise, tol=config.solver.tol,
        )
        new_gamma = gamma + dt * physics.g_act(gamma, stepped.w, config.activation)
        finite = np.isfinite(new_gamma).all(axis=1)
        refresh = (n + 1) % config.run.mech_refresh == 0
        if refresh:
            # the old systems are done with: free them before the first
            # mechanics solve, whose temporaries set the peak memory
            for j in live:
                lanes[j].system = None

        keep = []
        for r, j in enumerate(live):
            if not info.converged[r]:
                message = f"electric solve stalled (relres {info.relres[r]:.2e})"
            elif not finite[r]:
                message = "activation is not finite"
            elif refresh:
                message = lanes[j].refresh(disc, new_gamma[r], shared)
            else:
                message = None
            if message is None:
                keep.append(r)
            else:
                # the checkpoint is the state the failing step started from
                outcomes[j] = SimulationError(
                    message, n, checkpoint=path_state(n, r)
                )

        electric, gamma = stepped, new_gamma
        if len(keep) < len(live):
            live = [live[r] for r in keep]
            electric = electrics.ElectricState(
                *(a[keep] for a in vars(electric).values())
            )
            gamma = gamma[keep]
            if not live:
                break
        record(n + 1)

    for r, j in enumerate(live):
        lane = lanes[j]
        outcomes[j] = SimResult(
            times, probes[j], lane.energy, lane.snapshots, configs[j].run.seed,
            config_hash(configs[j]), n_steps, path_state(n_steps, r),
            lane.mech_residuals,
        )
    return outcomes


def path_seed(base_seed: int, k: int) -> int:
    """Sub-seed of ensemble member k, derived by hashing (seed, k)."""
    return int(np.random.SeedSequence((int(base_seed), int(k))).generate_state(1)[0])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_cpus(n_workers: int) -> list:
    """The CPU that each of `n_workers` shares runs bound to: the i-th of
    the sorted CPU set for share i, or None for all of them with one
    share, more shares than CPUs, or no `sched_setaffinity`."""
    if n_workers > 1 and hasattr(os, "sched_setaffinity"):
        own = sorted(os.sched_getaffinity(0))
        if n_workers <= len(own):
            return own[:n_workers]
    return [None] * n_workers


@contextmanager
def _bound_to(cpu):
    """The block run with the calling thread on `cpu` alone, and the
    thread's CPU set given back after it.

    Without a `cpu`, or where the platform refuses to bind, the block runs
    unbound.
    """
    if cpu is None:
        yield
        return
    own = os.sched_getaffinity(0)
    try:
        with suppress(OSError):
            os.sched_setaffinity(0, {cpu})
        yield
    finally:
        with suppress(OSError):
            os.sched_setaffinity(0, own)


def _run_share(
    config: SimConfig, disc: Discretization, paths, conn=None, cpu=None
):
    """[(k, SimResult or SimulationError)] of the ensemble paths k in `paths`,
    run as one batch (`run_batch`).

    A worker process passes the sending end of its pipe as `conn`, and the
    list goes over it instead of being returned.  With a `cpu`, the batch
    runs with the calling thread bound to that CPU (`_bound_to`), and the
    thread gets its CPU set back after it; where the platform refuses, the
    batch runs unbound, with the same results.
    """
    configs = [config.with_seed(path_seed(config.run.seed, k)) for k in paths]
    with _bound_to(cpu):
        out = list(zip(paths, run_batch(configs, disc)))
    if conn is None:
        return out
    conn.send(out)
    conn.close()


def run_ensemble(config: SimConfig, n_paths: int) -> tuple[EnsembleStats, list]:
    """Run n_paths independent paths and aggregate probe statistics.

    The paths share one `Discretization`, built here, and run in shares
    over processes as the module docstring says: each share is one
    lockstep batch (`run_batch`), and the calling process runs share 0, so
    a tracer in it sees the layers of its own paths.  With 2 to as many
    shares as CPUs in the process's set, share i runs bound to the i-th of
    them (`_share_cpus`, `_run_share`), and the calling thread has its own
    CPU set back when this returns.

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
    if config.time.n_steps > 0 and "fork" in multiprocessing.get_all_start_methods():
        n_workers = min(n_paths, _usable_cpus())
    shares = [range(i, n_paths, n_workers) for i in range(n_workers)]
    cpus = _share_cpus(n_workers)
    outcomes = {}
    workers = []  # (process, receiving end of its pipe, its paths)
    try:
        if n_workers > 1:
            ctx = multiprocessing.get_context("fork")
            for paths, cpu in zip(shares[1:], cpus[1:]):
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_run_share, args=(config, disc, paths, sender, cpu)
                )
                proc.start()
                workers.append((proc, receiver, paths))
                # the worker holds the only sending end, so its death is EOF
                sender.close()
        outcomes.update(_run_share(config, disc, shares[0], cpu=cpus[0]))
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
