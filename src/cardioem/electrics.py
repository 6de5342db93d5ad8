"""Semi-implicit time step for the degenerate bidomain pair.

Each step solves the symmetric 2x2 block system

    [[M/dt + A_i, -M/dt  ], [v_i]   [rhs_i]
     [-M/dt,      M/dt+A_e]] [v_e] = [rhs_e]

where A_i and A_e are the stiffness matrices of the pulled-back
conductivities (`conductivities_from_gradient`), held only inside the
block; in the undeformed configuration those are the constant tensors K_i
and K_e.  The block's kernel is the constant pair (c, c).  The kernel is
removed by keeping v_e inside the zero-integral subspace: the
conjugate-gradient solve runs on the orthogonally projected operator,
which is the algebraic counterpart of testing the extracellular row
against zero-mean functions only.  Diffusion is implicit; reaction,
stimulus, and noise are explicit, and each noise channel is one
evaluation of its coefficient times the step's mode-weighted increment.

The CG is preconditioned by an exact solve with the projected operator on
the zero-mean subspace, so a step takes one iteration, and that iteration
from zero (where `fem.solve_cg` always starts) is already the solution.
With its last v_e dof removed (grounded) the block is symmetric positive
definite and has one sparse LU (`fem.factor_spd`), factored on first use,
once per BidomainSystem; the driver assembles a new system only at a
mechanics refresh.  A preconditioner solve takes off the part of the
residual along (0, lumped), which the block cannot reach, solves the
grounded block, and shifts v_i and v_e by one constant so that v_e has
zero lumped mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import physics
from .fem import FeSpace, assemble_stiffness, factor_spd, solve_cg
from .noise import NoiseCoeff, eval_coeff


def initial_stimulus(x, y):
    """Half-circle stimulus profile centered at (0, 0.5); values in (0, 1)."""
    r = np.sqrt(np.asarray(x, dtype=float) ** 2 + (np.asarray(y, dtype=float) - 0.5) ** 2)
    return 1.0 - 1.0 / (1.0 + np.exp(-50.0 * (r - 0.18)))


@dataclass
class ElectricState:
    """Nodal P1 coefficient vectors of the electric unknowns."""

    v_i: np.ndarray
    v_e: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass
class BidomainSystem:
    """Assembled operators for one conductivity configuration."""

    space: FeSpace
    mass: sp.csr_matrix
    dt: float
    block: sp.csr_matrix
    lumped: np.ndarray  # row sums of the mass matrix (integrals of phi_j)

    def projector(self):
        """Orthogonal projector removing the weighted-mean of the e-half."""
        n = self.space.n_scalar
        m = self.lumped
        mm = float(m @ m)

        def proj(x):
            out = x.copy()
            xe = out[n:]
            xe -= m * (float(m @ xe) / mm)
            return out

        return proj

    @cached_property
    def _grounded_lu(self):
        # without its last dof the block is SPD: the constant pair (c, c)
        # that spans its kernel is not grounded
        return factor_spd(self.block[:-1, :-1])

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The z with lumped . z_e = 0 and P block z = r, for zero-mean r."""
        n = self.space.n_scalar
        m = self.lumped
        total = float(m.sum())
        # the range of the block is the sum-zero vectors: take off
        # lam (0, lumped), the part that P maps to zero
        rhs = r[:-1].copy()
        rhs[n:] -= (float(r.sum()) / total) * m[:-1]
        z = np.empty(len(r))
        z[:-1] = self._grounded_lu.solve(rhs)
        z[-1] = 0.0
        z -= float(m @ z[n:]) / total
        return z


def assemble_bidomain(
    space: FeSpace,
    cond_i,
    cond_e,
    dt: float,
    mass: sp.csr_matrix,
    lumped: np.ndarray,
) -> BidomainSystem:
    """Build the block operator from the conductivity tensors.

    `cond_i` and `cond_e` are per-quad-point tensors or constant 2x2 ones,
    as `assemble_stiffness` takes them; `lumped` holds the row sums of
    `mass`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    Mdt = (mass / dt).tocsr()
    block = sp.bmat(
        [
            [Mdt + assemble_stiffness(space, cond_i), -Mdt],
            [-Mdt, Mdt + assemble_stiffness(space, cond_e)],
        ],
        format="csr",
    )
    return BidomainSystem(space, mass, dt, block, lumped)


def conductivities_from_gradient(
    space: FeSpace, grad_u: np.ndarray | None, params: physics.ConductivityParams
):
    """Pulled-back tensors (M_i, M_e) = F^-1 (K_i, K_e) F^-T for a P1 space.

    grad_u is a (ne, nq, 2, 2) displacement gradient, which gives
    per-quad-point tensors, or None for the undeformed configuration.
    There F = I, and the result is the constant 2x2 pair (K_i, K_e),
    pulled back through the one identity F^-1 so that its bits are those
    of every point of a zero gradient.  Both tensors share one clamp and
    one F^-1.
    """
    if grad_u is None:
        grad_u = np.zeros((2, 2))
    Finv = physics.inverse_deformation(grad_u, params)
    return physics.pull_back(Finv, params.K_i), physics.pull_back(Finv, params.K_e)


def enforce_zero_mean(v_e: np.ndarray, lumped: np.ndarray) -> np.ndarray:
    """Shift by a constant so the mass-weighted mean vanishes.

    `lumped` holds the row sums of the mass matrix, the integrals of the
    basis functions (`BidomainSystem.lumped`).
    """
    total = float(lumped.sum())
    return v_e - (float(lumped @ v_e) / total)


@dataclass
class StepInfo:
    converged: bool
    iterations: int
    relres: float


def _mode_sum(dW) -> float:
    """sum_k dW_k / (k+1) over the modes k of one step's increments."""
    dW = np.atleast_1d(dW)
    return float(dW @ (1.0 / np.arange(1, len(dW) + 1)))


def step_bidomain(
    system: BidomainSystem,
    state: ElectricState,
    ionic: physics.IonicParams,
    i_app: np.ndarray,
    dW_v: np.ndarray,
    dW_w: np.ndarray,
    coeff_v: NoiseCoeff,
    coeff_w: NoiseCoeff,
    tol: float = 1e-10,
    maxit: int | None = None,
):
    """Advance (v_i, v_e, v, w) by one semi-implicit step.

    dW_v / dW_w hold one increment per noise mode; mode k's increment is
    scaled by 1/(k+1), so the noise term of a channel is one evaluation of
    its coefficient times sum_k dW_k / (k+1).  Returns (new_state,
    StepInfo); on solver failure the state is returned unchanged with
    converged=False.
    """
    M, dt = system.mass, system.dt
    v, w = state.v, state.w

    ion = physics.i_ion(v, w, ionic)
    noise_v = eval_coeff(coeff_v, v) * _mode_sum(dW_v)
    noise_w = eval_coeff(coeff_w, v) * _mode_sum(dW_w)

    base = M.dot(v / dt - ion + noise_v / dt)
    rhs = np.concatenate([base + i_app, -base + i_app])

    res = solve_cg(
        system.block,
        rhs,
        tol=tol,
        maxit=maxit,
        constraint=system.projector(),
        precondition=system.precondition,
    )
    info = StepInfo(res.converged, res.iterations, res.relres)
    if not res.converged:
        return state, info

    n = system.space.n_scalar
    v_i_new = res.x[:n]
    v_e_new = enforce_zero_mean(res.x[n:], system.lumped)
    v_new = v_i_new - v_e_new
    w_new = w + dt * physics.h_kin(v, w, ionic) + noise_w
    return ElectricState(v_i_new, v_e_new, v_new, w_new), info


def initial_split(v0: np.ndarray, lumped: np.ndarray):
    """Split v0 into (v_i, v_e) with v_i - v_e = v0 and zero-mean v_e.

    `lumped` holds the row sums of the mass matrix.
    """
    v_e = enforce_zero_mean(-0.5 * v0, lumped)
    v_i = v0 + v_e
    return v_i, v_e
