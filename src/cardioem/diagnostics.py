"""Runtime verification: energies, structural constants, limit studies.

These routines examine a run and its `driver.Discretization`: the
quadratic-form energies of each step, dense-matrix coercivity and inf-sup
probes on small meshes, the pseudo-compressible limit of the pressure
replayed over an activated window of a run, and manufactured-solution
convergence studies for the two solver stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import mechanics
from .fem import (
    FeSpace,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    component_dot,
    edge_quad_geometry,
    l2_error,
    l4_norm,
    solve_saddle,
)
from .mesh import structured_unit_square


# ---------------------------------------------------------------------------
# energies


@dataclass
class EnergyRecord:
    """Per-step energy history of one path.

    v_l2sq, w_l2sq, gamma_l2sq, u_h1sq, p_l2sq are instantaneous;
    cum_grad accumulates dt * (|grad v_i|^2 + |grad v_e|^2) and cum_v4
    accumulates dt * |v|^4_{L4}.
    """

    v_l2sq: list = field(default_factory=list)
    w_l2sq: list = field(default_factory=list)
    gamma_l2sq: list = field(default_factory=list)
    cum_grad: list = field(default_factory=list)
    cum_v4: list = field(default_factory=list)
    u_h1sq: list = field(default_factory=list)
    p_l2sq: list = field(default_factory=list)

    FIELDS = ("v_l2sq", "w_l2sq", "gamma_l2sq", "cum_grad", "cum_v4",
              "u_h1sq", "p_l2sq")

    def arrays(self) -> dict:
        return {name: np.asarray(getattr(self, name)) for name in self.FIELDS}

    def suprema(self) -> dict:
        return {
            name: (float(np.max(vals)) if len(vals) else 0.0)
            for name, vals in self.arrays().items()
        }


def mech_energy(mech_state, disc) -> tuple[float, float]:
    """(u . (M + K) u, p . M p) of one mechanics state of `disc`.

    M + K is `disc.h1_gram`, the scalar P2 block applied to each component
    of u, and M the P1 `disc.mass`.  An all-zero u has energy 0.0 and
    reads no Gram matrix, so a run that never loads the mechanics never
    builds one.  The terms change only when the mechanics state does, so
    a run computes them once per state and passes them to every
    `append_energy`.
    """
    u, p = mech_state.u, mech_state.p
    u_h1sq = float(u @ component_dot(disc.h1_gram, u)) if np.any(u) else 0.0
    return u_h1sq, float(p @ disc.mass.dot(p))


def append_energy(
    records: list,
    state,
    gamma: np.ndarray,
    mech_terms: list,
    mass,
    stiff_unit,
    scalar_space: FeSpace,
    dt: float,
):
    """Append one step's energies of a batch of paths, one record each.

    Row j of the arrays of the electric `state` and of `gamma` is the path
    of `records[j]`, whose `mech_energy` terms are `mech_terms[j]`.  The
    quadratic forms x . op x are taken per path over contiguous rows, and
    so is the L4 norm, so a path's energies do not depend on its batch.
    """
    k = len(records)
    forms = []  # field-major: k values per field
    for op, fields in (
        (mass, (state.v, state.w, gamma)), (stiff_unit, (state.v_i, state.v_e))
    ):
        if k == 1:
            # a product per field: scipy's product over a block of few
            # columns is slower than separate ones
            forms += [float(x[0] @ op.dot(x[0])) for x in fields]
        else:
            # one product over all rows; its column j is op x[j], bitwise
            x = np.concatenate(fields)
            ox = np.ascontiguousarray(op.dot(x.T).T)
            forms += [float(a @ b) for a, b in zip(x, ox)]
    v_l2sq, w_l2sq, gamma_l2sq, grad_vi_sq, grad_ve_sq = (
        forms[i * k:(i + 1) * k] for i in range(5)
    )
    for j, record in enumerate(records):
        record.v_l2sq.append(v_l2sq[j])
        record.w_l2sq.append(w_l2sq[j])
        record.gamma_l2sq.append(gamma_l2sq[j])
        prev_grad = record.cum_grad[-1] if record.cum_grad else 0.0
        record.cum_grad.append(prev_grad + dt * (grad_vi_sq[j] + grad_ve_sq[j]))
        prev_v4 = record.cum_v4[-1] if record.cum_v4 else 0.0
        record.cum_v4.append(prev_v4 + dt * l4_norm(scalar_space, state.v[j]) ** 4)
        record.u_h1sq.append(mech_terms[j][0])
        record.p_l2sq.append(mech_terms[j][1])


# ---------------------------------------------------------------------------
# dense structural probes (small meshes only)


_DENSE_LIMIT = 6000


def coercivity_estimate(disc, gamma: np.ndarray) -> float:
    """Smallest generalized eigenvalue of the elastic form vs the H1 Gram.

    Both forms are blockdiag of a scalar P2 block, the elastic one of the
    `K` that `assemble_mechanics` builds at `gamma` on the spaces of `disc`
    and the Gram one of `disc.h1_gram`, so the dense eigensolve runs on the
    scalar pencil.  Raises on meshes too large for dense work.
    """
    cfg = disc.config
    ndof = 2 * disc.u_space.n_scalar
    if ndof > _DENSE_LIMIT:
        raise ValueError(
            f"mesh too large for dense coercivity probe ({ndof} dofs)"
        )
    K = mechanics.assemble_mechanics(
        disc.u_space, disc.space, gamma, disc.fibers, cfg.mech,
        cfg.activation, statics=disc.statics,
    ).K
    vals = scipy.linalg.eigh(
        K.toarray(), disc.h1_gram.toarray(), eigvals_only=True,
        subset_by_index=[0, 0],
    )
    return float(vals[0])


def infsup_estimate(disc) -> float:
    """Discrete inf-sup constant of the velocity/pressure pair of `disc`.

    Smallest singular value of Mp^{-1/2} B H^{-1/2}, all dense, with H the
    H1 Gram matrix blockdiag(`disc.h1_gram`, `disc.h1_gram`).
    """
    if 2 * disc.u_space.n_scalar > _DENSE_LIMIT:
        raise ValueError("mesh too large for dense inf-sup probe")
    B = disc.statics.B.toarray()
    H = sp.block_diag((disc.h1_gram, disc.h1_gram)).toarray()
    Lh = scipy.linalg.cholesky(H, lower=True)
    Lp = scipy.linalg.cholesky(disc.statics.mass_p.toarray(), lower=True)
    S = scipy.linalg.solve_triangular(Lp, B, lower=True)
    S = scipy.linalg.solve_triangular(Lh, S.T, lower=True).T
    return float(np.linalg.svd(S, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# pseudo-compressible pressure limit


def eps_pressure_study(disc, result, eps_list) -> list:
    """Distance of the regularized pressure to the saddle pressure, per eps.

    `result` is a run of `disc` with `mech_refresh = 1` and snapshots at
    consecutive iterations, so every snapshot holds the saddle solution at
    its activation.  For each eps the pseudo-compressible stepper starts
    from the first snapshot's solution and steps through the activations of
    the later ones, assembled on the spaces, fibers and static operators of
    `disc`.  Returns (eps, gap) rows, where gap is the discrete L2-in-time
    norm (sum dt |p_eps - p|^2_Mp)^(1/2) over the later snapshots.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if sorted(eps_list, reverse=True) != list(eps_list):
        raise ValueError("eps_list must be decreasing")
    cfg = disc.config
    iters = sorted(result.snapshots)
    consecutive = len(iters) >= 2 and iters[-1] - iters[0] == len(iters) - 1
    if cfg.run.mech_refresh != 1 or not consecutive:
        raise ValueError(
            "the run needs mech_refresh = 1 and snapshots at two or more "
            "consecutive iterations"
        )
    first, *window = (result.snapshots[it] for it in iters)
    systems = [
        mechanics.assemble_mechanics(
            disc.u_space, disc.space, snap.gamma, disc.fibers, cfg.mech,
            cfg.activation, statics=disc.statics,
        )
        for snap in window
    ]
    Mp = disc.statics.mass_p

    rows = []
    for eps in eps_list:
        state = first.mech
        gap2 = 0.0
        for snap, system in zip(window, systems):
            state, res = mechanics.step_mechanics_regularized(
                state, system, cfg.time.dt, eps, tol=cfg.solver.mech_tol
            )
            if not res.converged:
                raise RuntimeError(
                    f"regularized mechanics step failed at eps={eps:g}"
                )
            dp = state.p - snap.mech.p
            gap2 += cfg.time.dt * float(dp @ Mp.dot(dp))
        rows.append((float(eps), float(np.sqrt(gap2))))
    return rows


# ---------------------------------------------------------------------------
# manufactured-solution convergence studies


@dataclass
class ConvergenceStudy:
    ns: list
    errors: dict
    orders: dict

    def order(self, name: str) -> float:
        e = np.asarray(self.errors[name])
        h = 1.0 / np.asarray(self.ns, dtype=float)
        return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def mms_poisson_study(ns=(8, 16, 32, 64)) -> ConvergenceStudy:
    """P1 pure-Neumann Poisson against u = cos(pi x) cos(pi y)."""
    exact = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    rhs_fn = lambda x, y: 2.0 * np.pi**2 * exact(x, y)
    errs = []
    for n in ns:
        mesh = structured_unit_square(n, n)
        space = FeSpace(mesh, degree=1)
        K = assemble_stiffness(space)
        M = assemble_mass(space)
        b = assemble_load(space, rhs_fn)
        m = np.asarray(M.sum(axis=1)).ravel()
        total = float(m.sum())
        # as `BidomainSystem.precondition` solves its block: take b along
        # the lumped m onto the range of K (the sum-zero vectors), solve
        # with the last dof grounded, and shift to zero mean
        rhs = b[:-1] - (float(b.sum()) / total) * m[:-1]
        uh = np.append(space.factor_banded(K[:-1, :-1]).solve(rhs), 0.0)
        uh -= float(m @ uh) / total
        errs.append(l2_error(space, uh, exact))
    study = ConvergenceStudy(list(ns), {"u": errs}, {})
    study.orders["u"] = study.order("u")
    return study


def mms_stokes_study(ns=(4, 8, 16), mu: float = 1.0, alpha: float = 1.0) -> ConvergenceStudy:
    """Taylor-Hood solve of the Robin Stokes-like block against smooth fields.

    Velocity is a divergence-free trig field, pressure a trig scalar; the
    mismatch of the Robin condition is absorbed into a boundary load.
    """
    pi = np.pi
    u_ex = lambda x, y: (np.sin(pi * x) * np.cos(pi * y),
                         -np.cos(pi * x) * np.sin(pi * y))
    p_ex = lambda x, y: np.cos(pi * x) * np.cos(pi * y)

    def grad_u(x, y):
        return np.array(
            [
                [pi * np.cos(pi * x) * np.cos(pi * y),
                 -pi * np.sin(pi * x) * np.sin(pi * y)],
                [pi * np.sin(pi * x) * np.sin(pi * y),
                 -pi * np.cos(pi * x) * np.cos(pi * y)],
            ]
        )

    def f_ex(x, y):
        u1, u2 = u_ex(x, y)
        return (
            2.0 * mu * pi**2 * u1 - pi * np.sin(pi * x) * np.cos(pi * y),
            2.0 * mu * pi**2 * u2 - pi * np.cos(pi * x) * np.sin(pi * y),
        )

    errs_u, errs_p = [], []
    for n in ns:
        mesh = structured_unit_square(n, n)
        u_space = FeSpace(mesh, degree=2)
        p_space = FeSpace(mesh, degree=1)
        K = assemble_stiffness(u_space, mu * np.eye(2))
        K = K + assemble_boundary_mass(u_space, alpha)
        B = (-assemble_divergence(u_space, p_space)).tocsr()
        f = assemble_load(u_space, f_ex)

        # the Robin traction mu grad(u) n - p n + alpha u at every edge
        # quadrature point, one component per row: (2, n_edges, nq)
        pts, normals, _ = edge_quad_geometry(mesh)
        x, y = pts[..., 0], pts[..., 1]
        nrm = normals.T[:, :, None]
        G = mu * grad_u(x, y)
        tr = G[:, 0] * nrm[0] + G[:, 1] * nrm[1]
        tr -= p_ex(x, y) * nrm
        tr += alpha * np.asarray(u_ex(x, y))
        f += assemble_boundary_load(u_space, np.moveaxis(tr, 0, -1))

        schur = p_space.factor_banded(assemble_mass(p_space)).solve
        res = solve_saddle(
            K, B, f, schur, lambda: u_space.factor_banded(K).solve, tol=1e-11
        )
        errs_u.append(l2_error(u_space, res.u, u_ex))
        errs_p.append(l2_error(p_space, res.p, p_ex))
    study = ConvergenceStudy(list(ns), {"u": errs_u, "p": errs_p}, {})
    study.orders["u"] = study.order("u")
    study.orders["p"] = study.order("p")
    return study
