"""Coupled simulation loop and Monte Carlo ensembles.

Operator ordering per step (fixed):

  1. advance (v_i, v_e, v, w) with the semi-implicit electric step,
  2. advance the activation field by explicit Euler using the fresh w,
  3. every `mech_refresh` steps, re-solve the mechanics with the current
     activation and rebuild the conductivity-dependent operators from the
     new displacement gradient,
  4. record probes and energies.

The initial state sets v from the stimulus profile, splits it into
(v_i, v_e) with a zero-mean extracellular part, starts w at zero and the
activation at -0.3 v0 / (2 - v0), and solves the mechanics once.

Runs are deterministic given the configuration: noise paths derive from
(seed, channel, mode, step) and ensemble member k reseeds with (seed, k).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, electrics, mechanics, physics
from .fem import FeSpace, assemble_load, assemble_mass, assemble_stiffness
from .mesh import FiberField, TriMesh, load_mesh, structured_unit_square
from .noise import NoiseCoeff, NoisePath


class SimulationError(RuntimeError):
    """Aborted run; carries the failing step and a state checkpoint."""

    def __init__(self, message, step, checkpoint=None):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.checkpoint = checkpoint


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
    snapshot_iters: tuple = ()
    record_steps: tuple = ()
    track_energy: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.mech_refresh < 1:
            raise ValueError("mech_refresh must be at least 1")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def build_mesh(self) -> TriMesh:
        if self.mesh_file:
            with open(self.mesh_file) as fh:
                return load_mesh(fh.read())
        return structured_unit_square(self.mesh_nx, self.mesh_ny)


@dataclass
class FieldSnapshot:
    """Named dof arrays of every unknown at one labelled iteration."""

    iteration: int
    t: float
    v: np.ndarray
    v_e: np.ndarray
    w: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    p: np.ndarray


@dataclass
class SimResult:
    """Probe traces, optional snapshots, energies, and reproduction data."""

    times: np.ndarray
    probes: np.ndarray  # (n_steps + 1, n_probes)
    probe_points: tuple
    energy: "diagnostics.EnergyRecord"
    snapshots: dict
    step_records: list
    seed: int
    config_hash: str
    n_steps: int
    dt: float
    final: dict
    ve_mean: np.ndarray = None  # |integral of v_e| per recorded state
    ve_norm: np.ndarray = None


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


def probe_trace(result: SimResult, point) -> np.ndarray:
    """Time series of v at one of the configured probe points."""
    for i, q in enumerate(result.probe_points):
        if np.allclose(q, point, atol=1e-12):
            return result.probes[:, i]
    raise ValueError(f"point {point} was not among the configured probes")


def _probe_values(mesh, locs, v):
    out = np.empty(len(locs))
    for i, (tri, wts) in enumerate(locs):
        out[i] = float(v[mesh.triangles[tri]] @ wts)
    return out


# ---------------------------------------------------------------------------
# the coupled loop


def run_simulation(config: SimConfig, mesh: TriMesh | None = None) -> SimResult:
    from .io_cli import config_hash  # local import to avoid a cycle

    mesh = mesh if mesh is not None else config.build_mesh()
    fibers = FiberField.axis_aligned(mesh)
    space = FeSpace(mesh, degree=1)
    u_space = FeSpace(mesh, degree=2, rank=1)
    p_space = FeSpace(mesh, degree=1)

    mass = assemble_mass(space)
    stiff_unit = assemble_stiffness(space)
    n_steps = config.n_steps

    # initial electric state
    v0 = space.interpolate(electrics.initial_stimulus)
    v_i, v_e = electrics.initial_split(v0, mass)
    w = np.zeros_like(v0)
    gamma = -0.3 * v0 / (2.0 - v0)
    state = electrics.ElectricState(v_i, v_e, v0.copy(), w)

    # initial mechanics solve and conductivity-dependent operators
    statics = mechanics.mech_statics(u_space, p_space, config.mech.alpha)
    mech_sys = mechanics.assemble_mechanics(
        u_space, p_space, gamma, fibers, config.mech, config.activation,
        statics=statics,
    )
    mech_state, mres = mechanics.solve_mechanics(mech_sys, tol=config.mech_tol)
    if not mres.converged:
        raise SimulationError(
            "initial mechanics solve failed", 0,
            checkpoint={"state": state, "gamma": gamma.copy()},
        )
    mech_residuals = [(mres.res_primal, mres.res_constraint)]

    def rebuild_bidomain():
        grad_u = u_space.vector_grad_at_qp(mech_state.u)
        Mi, Me = electrics.conductivities_from_gradient(
            space, grad_u, config.conductivity
        )
        return electrics.assemble_bidomain(space, Mi, Me, config.dt, mass)

    system = rebuild_bidomain()

    path = NoisePath(config.seed, config.dt, n_steps, config.n_modes)
    incr_v = path.increments("v") if n_steps else np.zeros((0, config.n_modes))
    incr_w = path.increments("w") if n_steps else np.zeros((0, config.n_modes))

    locs = [locate_point(mesh, q) for q in config.probes]
    probes = np.empty((n_steps + 1, len(locs)))
    probes[0] = _probe_values(mesh, locs, state.v)
    times = config.dt * np.arange(n_steps + 1)

    lumped = np.asarray(mass.sum(axis=1)).ravel()
    ve_mean = np.empty(n_steps + 1)
    ve_norm = np.empty(n_steps + 1)

    def track_compat(idx):
        ve_mean[idx] = abs(float(lumped @ state.v_e))
        ve_norm[idx] = float(np.linalg.norm(state.v_e))

    track_compat(0)

    # the stimulus profile is constant in time while active
    stim_profile = electrics.initial_stimulus(
        space.qpoints[:, :, 0], space.qpoints[:, :, 1]
    )
    i_app_active = assemble_load(space, stim_profile)
    i_app_zero = np.zeros_like(i_app_active)

    energy = diagnostics.EnergyRecord.empty()
    if config.track_energy:
        h1_gram = (statics.mass_u + assemble_stiffness(u_space)).tocsr()
        diagnostics.append_energy(
            energy, state, gamma, mech_state, mass, stiff_unit, h1_gram,
            space, config.dt,
        )

    snapshots = {}
    chash = config_hash(config)

    def take_snapshot(it):
        snapshots[it] = FieldSnapshot(
            iteration=it,
            t=float(times[it]),
            v=state.v.copy(),
            v_e=state.v_e.copy(),
            w=state.w.copy(),
            gamma=gamma.copy(),
            u=mech_state.u.copy(),
            p=mech_state.p.copy(),
        )

    if 0 in config.snapshot_iters:
        take_snapshot(0)

    step_records = []
    record_set = set(config.record_steps)

    for n in range(n_steps):
        t = float(times[n])
        i_app_vec = i_app_active if t < config.stim_duration else i_app_zero
        want_record = n in record_set
        out = electrics.step_bidomain(
            system,
            state,
            config.ionic,
            i_app_vec,
            incr_v[n],
            incr_w[n],
            config.noise_v,
            config.noise_w,
            tol=config.solver_tol,
            record=want_record,
        )
        state, info = out[0], out[1]
        if not info.converged:
            raise SimulationError(
                f"electric solve stalled (relres {info.relres:.2e})",
                n,
                checkpoint={"state": state, "gamma": gamma.copy()},
            )

        gamma_old = gamma
        gamma = gamma + config.dt * physics.g_act(gamma, state.w, config.activation)
        if want_record:
            rec = out[2]
            rec.gamma_before = gamma_old.copy()
            rec.gamma_after = gamma.copy()
            rec.gamma_rate = physics.g_act(
                gamma_old, state.w, config.activation
            )
            step_records.append((n, rec))

        if (n + 1) % config.mech_refresh == 0:
            mech_sys = mechanics.assemble_mechanics(
                u_space, p_space, gamma, fibers, config.mech, config.activation,
                statics=statics,
            )
            mech_state, mres = mechanics.solve_mechanics(
                mech_sys, tol=config.mech_tol
            )
            if not mres.converged:
                raise SimulationError(
                    "mechanics solve failed", n,
                    checkpoint={"state": state, "gamma": gamma.copy()},
                )
            mech_residuals.append((mres.res_primal, mres.res_constraint))
            system = rebuild_bidomain()

        probes[n + 1] = _probe_values(mesh, locs, state.v)
        track_compat(n + 1)
        if config.track_energy:
            diagnostics.append_energy(
                energy, state, gamma, mech_state, mass, stiff_unit, h1_gram,
                space, config.dt,
            )
        if (n + 1) in config.snapshot_iters:
            take_snapshot(n + 1)

    return SimResult(
        times=times,
        probes=probes,
        probe_points=tuple(config.probes),
        energy=energy,
        snapshots=snapshots,
        step_records=step_records,
        seed=config.seed,
        config_hash=chash,
        n_steps=n_steps,
        dt=config.dt,
        final={
            "state": state,
            "gamma": gamma,
            "mech": mech_state,
            "mech_residuals": mech_residuals,
        },
        ve_mean=ve_mean,
        ve_norm=ve_norm,
    )


def path_seed(base_seed: int, k: int) -> int:
    """Sub-seed of ensemble member k, derived by hashing (seed, k)."""
    return int(np.random.SeedSequence((int(base_seed), int(k))).generate_state(1)[0])


def run_ensemble(
    config: SimConfig, n_paths: int, mesh: TriMesh | None = None
) -> tuple[EnsembleStats, list]:
    """Run n_paths independent paths and aggregate probe statistics.

    Failed paths are reported in stats.failures and skipped with a warning;
    statistics are over the surviving paths.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    mesh = mesh if mesh is not None else config.build_mesh()
    results, failures = [], []
    for k in range(n_paths):
        cfg_k = replace(config, seed=path_seed(config.seed, k))
        try:
            results.append(run_simulation(cfg_k, mesh=mesh))
        except SimulationError as exc:
            failures.append((k, str(exc)))
            warnings.warn(f"path {k} failed: {exc}")
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


def activation_time(result: SimResult, probe_index: int, level: float = 0.5):
    """First iteration at which a probe trace crosses `level`, or None."""
    above = np.where(result.probes[:, probe_index] >= level)[0]
    return int(above[0]) if above.size else None
