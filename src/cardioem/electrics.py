"""Semi-implicit time step for the degenerate bidomain pair.

Each step solves the symmetric 2x2 block system

    [[M/dt + A_i, -M/dt  ], [v_i]   [rhs_i]
     [-M/dt,      M/dt+A_e]] [v_e] = [rhs_e]

where A_i and A_e are the stiffness matrices of the pulled-back
conductivities (`conductivities_from_gradient`); in the undeformed
configuration those are the constant tensors K_i and K_e.  The block's
kernel is the constant pair (c, c).  The kernel is removed by keeping v_e
inside the zero-integral subspace: the conjugate-gradient solve runs on
the orthogonally projected operator, which is the algebraic counterpart
of testing the extracellular row against zero-mean functions only.
Diffusion is implicit; reaction, stimulus, and noise are explicit, and
each noise channel is one evaluation of its amplitude
(`noise.NoiseParams`) times the step's mode-weighted increment.

Each path's step is one `fem.solve_cg` iteration from zero, whose
residual check keeps the `solver.tol` contract.  A step with applied
current, or any step on the general path, runs the CG on the projected 2n
block with an exact preconditioner (below); the block is built on first
use.  A source-free step with proportional tensors solves the scalar SPD
system for v alone (below), with that system's factor as the exact
preconditioner.

A preconditioner solve takes off the part of the residual along
(0, lumped), which the block cannot reach, solves the block with the last
v_e dof grounded, and shifts v_i and v_e by one constant so that v_e has
zero lumped mean.  Its factors are banded Cholesky factors in the
space's vertex order (`fem.FeSpace.factor_banded`), factored on first use,
at most once per BidomainSystem; the driver assembles a new system only
at a mechanics refresh.  The grounded solve takes one of two forms:

* in general, one factor of the grounded 2n block, which is symmetric
  positive definite: the constant pair that spans the kernel is not
  grounded.  Its band holds the v_i and v_e dofs of each vertex side by
  side, so it is 2 kd + 1 wide for a scalar band kd;
* when K_e = lambda K_i (`physics.ConductivityParams.ratio`), both tensors
  are pulled back through the same F, so A_e = lambda A_i and the block
  splits exactly into two scalar systems.  With D = M/dt, s = b_i + b_e
  and v = v_i - v_e, the sum of the two rows is A_i v + (1 + lambda) A_i
  v_e = s, and the first row then reads
  (D + lambda/(1 + lambda) A_i) v = b_i - s/(1 + lambda).  So v comes from
  an SPD scalar solve.  The row sum is (1 + lambda) A_i y = s for
  y = v_e + v/(1 + lambda), a pure-Neumann solve with its last dof
  grounded (s sums to zero); then v_e = y - v/(1 + lambda) and
  v_i = v + v_e, up to the constant that the final shift fixes.  The two
  solves are independent, and no product with A_i is needed.  This is the
  same solution, not an approximation; each scalar factor holds about a
  quarter of the block's band storage ((kd + 1) n entries against
  (2 kd + 2)(2n - 1)).

  The step's right-hand side is (b + i_app, -b + i_app), the reaction and
  the noise entering both rows with opposite signs, so its row sum is
  2 i_app.  On a step without applied current s = 0, y is a constant (the
  kernel of A_i on a connected mesh, which `mesh.TriMesh` requires), and
  v_e = -v/(1 + lambda) up to the shift: v_i + lambda v_e stays constant,
  the classical monodomain reduction for equal anisotropy ratios.  Such a
  step solves (D + lambda/(1 + lambda) A_i) v = b and nothing else, and
  the grounded factor of (1 + lambda) A_i is built only when a step with
  applied current first uses the system: in a run whose stimulus ends
  before the first refresh, once, for the initial system.

A refresh pulls the conductivities back entry by entry on contiguous
arrays over the quadrature points (`conductivities_from_gradient`).

`step_bidomain` advances a batch of paths, one state row and one system
per path: the reaction, noise, right-hand sides (one sparse product) and
gating update are computed once per batch, each solve per path, and no
operation mixes rows, so a path's bits do not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import physics
from .fem import FeSpace, assemble_stiffness, solve_cg
from .noise import NoiseParams


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
    """Assembled operators for one conductivity configuration.

    `ratio` is lambda when A_e = lambda A_i, and `stiff_e` is then None;
    otherwise `stiff_e` holds A_e.
    """

    space: FeSpace
    mass: sp.csr_matrix
    dt: float
    lumped: np.ndarray  # row sums of the mass matrix (integrals of phi_j)
    stiff_i: sp.csr_matrix
    stiff_e: sp.csr_matrix | None = None
    ratio: float | None = None

    @cached_property
    def block(self) -> sp.csr_matrix:
        """The 2n block, built on first use: only a step with applied
        current or on the general path reads it."""
        Mdt = (self.mass / self.dt).tocsr()
        A_i = self.stiff_i
        A_e = self.stiff_e if self.ratio is None else self.ratio * A_i
        return sp.bmat([[Mdt + A_i, -Mdt], [-Mdt, Mdt + A_e]], format="csr")

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
        return self.space.factor_banded(self.block[:-1, :-1])

    def _v_sum(self) -> sp.csr_matrix:
        # the sum on the data of the space's pattern, which the mass and
        # A_i share, as the sparse sum mass / dt + c A_i forms it
        lam = self.ratio
        A = self.stiff_i
        if self.mass.nnz != A.nnz:
            raise ValueError("the mass is not on the space's pattern")
        data = self.mass.data * (1.0 / self.dt) + (lam / (1.0 + lam)) * A.data
        return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)

    @cached_property
    def v_matrix(self) -> sp.csr_matrix:
        """D + lam/(1+lam) A_i, the SPD matrix of the scalar step, kept
        from its first use."""
        return self._v_sum()

    @cached_property
    def _lu_v(self):
        # a scalar step builds `v_matrix` first, and this factors it; a
        # sourced step factors a sum that is not kept: at 44^2 one held
        # through step 0's factorizations raised the peak memory of a run
        A = self.__dict__.get("v_matrix")
        return self.space.factor_banded(self._v_sum() if A is None else A)

    @cached_property
    def _lu_e(self):
        # (1+lam) A_i without its last dof is SPD, the constants that span
        # its kernel not being grounded
        return self.space.factor_banded(
            ((1.0 + self.ratio) * self.stiff_i)[:-1, :-1]
        )

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The z with lumped . z_e = 0 and P block z = r, for zero-mean r.

        Two scalar solves when `ratio` is set, else the grounded-block
        solve (module docstring).
        """
        n = self.space.n_scalar
        m = self.lumped
        total = float(m.sum())
        # the range of the block is the sum-zero vectors: take off
        # mu (0, lumped), the part that P maps to zero
        mu = float(r.sum()) / total
        z = np.empty(len(r))
        z[-1] = 0.0
        if self.ratio is None:
            rhs = r[:-1].copy()
            rhs[n:] -= mu * m[:-1]
            z[:-1] = self._grounded_lu.solve(rhs)
        else:
            # the two scalar solves of the module docstring
            lam = self.ratio
            s = r[:n] + r[n:]
            s -= mu * m
            v = self._lu_v.solve(r[:n] - s / (1.0 + lam))
            z[n:-1] = self._lu_e.solve(s[:-1])
            z[n:] -= v / (1.0 + lam)
            z[:n] = v + z[n:]
        z -= float(m @ z[n:]) / total
        return z

    def solve(self, b: np.ndarray, i_app: np.ndarray, source: bool, tol: float):
        """(v_i, v_e, CgResult) of the step whose rows are (b + i_app, -b + i_app).

        v_e has zero lumped mean.  Without a `source` (i_app all zero),
        proportional tensors make the step the scalar solve for v, rebuilt
        into v_e = -v/(1 + lambda) and v_i = v + v_e.  Either CG is held to
        one iteration: its preconditioner is an exact solve, so that
        iteration is the direct solve and its recursive residual the true
        one, which a second iteration would only push below round-off.
        """
        if self.ratio is not None and not source:
            res = solve_cg(
                self.v_matrix, b, np.copy, self._lu_v.solve, tol=tol, maxit=1
            )
            v_e = enforce_zero_mean(-res.x / (1.0 + self.ratio), self.lumped)
            return res.x + v_e, v_e, res
        res = solve_cg(
            self.block, np.concatenate([b + i_app, -b + i_app]),
            self.projector(), self.precondition, tol=tol, maxit=1,
        )
        n = self.space.n_scalar
        return res.x[:n], enforce_zero_mean(res.x[n:], self.lumped), res


def assemble_bidomain(
    space: FeSpace,
    cond_i,
    cond_e,
    dt: float,
    mass: sp.csr_matrix,
    lumped: np.ndarray,
    ratio: float | None = None,
) -> BidomainSystem:
    """Build the system's operators from the conductivity tensors.

    `cond_i` and `cond_e` are per-quad-point tensors or constant 2x2 ones,
    as `assemble_stiffness` takes them; `lumped` holds the row sums of
    `mass`.  A `ratio` lambda says that `cond_e` is lambda `cond_i`, as
    `conductivities_from_gradient` returns them for proportional tensors:
    then one stiffness matrix A_i is assembled, A_e = lambda A_i, and the
    system solves its block as two scalar systems, or as one when the step
    has no applied current.  The 2n block is built on its first use.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A_i = assemble_stiffness(space, cond_i)
    A_e = assemble_stiffness(space, cond_e) if ratio is None else None
    return BidomainSystem(space, mass, dt, lumped, A_i, A_e, ratio)


def conductivities_from_gradient(
    space: FeSpace, grad_u: np.ndarray | None, params: physics.ConductivityParams
):
    """Pulled-back tensors (M_i, M_e) = F^-1 (K_i, K_e) F^-T for a P1 space.

    grad_u is a (ne, nq, 2, 2) displacement gradient, which gives
    per-quad-point tensors, or None for the undeformed configuration.
    There F = I, and the result is the constant 2x2 pair (K_i, K_e),
    pulled back through the one identity F^-1 so that its bits are those
    of every point of a zero gradient.  Both tensors share one clamp and
    one F^-1, entry by entry (`physics.inverse_entries`).  When
    K_e = lambda K_i (`params.ratio`), M_e is lambda M_i.
    """
    if grad_u is None:
        grad_u = np.zeros((2, 2))
    finv = physics.inverse_entries(physics.entries(grad_u), params)

    def pulled_back(K):
        m00, m01, m11 = physics.pull_back_entries(finv, K)
        return physics.entry_tensor(m00, m01, m01, m11)

    M_i = pulled_back(params.K_i)
    lam = params.ratio
    if lam is not None:
        return M_i, lam * M_i
    return M_i, pulled_back(params.K_e)


def enforce_zero_mean(v_e: np.ndarray, lumped: np.ndarray) -> np.ndarray:
    """Shift by a constant so the mass-weighted mean vanishes.

    `lumped` holds the row sums of the mass matrix, the integrals of the
    basis functions (`BidomainSystem.lumped`).
    """
    total = float(lumped.sum())
    return v_e - (float(lumped @ v_e) / total)


@dataclass
class StepInfo:
    """Per-path `converged` and `relres`, and the iterations of the batch."""

    converged: np.ndarray
    iterations: int
    relres: np.ndarray


def _mode_sum(dW) -> np.ndarray:
    """sum_k dW_k / (k+1) over the modes k of each row of increments."""
    dW = np.asarray(dW, dtype=float)
    return (dW * (1.0 / np.arange(1, dW.shape[-1] + 1))).sum(axis=-1)


def step_bidomain(
    systems,
    state: ElectricState,
    ionic: physics.IonicParams,
    i_app: np.ndarray,
    dW_v: np.ndarray,
    dW_w: np.ndarray,
    noise: NoiseParams,
    tol: float = 1e-10,
):
    """Advance a batch of paths, (v_i, v_e, v, w) each, by one semi-implicit step.

    Row j of the arrays of `state`, and of dW_v / dW_w (one increment per
    noise mode), is path j, which steps with `systems[j]`; the systems
    share space, mass and dt, and the applied current `i_app` is common.
    Mode k's increment is scaled by 1/(k+1), so a channel's noise term is
    one evaluation of its amplitude (`noise.amplitude`) times
    sum_k dW_k / (k+1).  Returns (new_state, StepInfo); a path whose solve
    does not converge keeps its row of `state`, with converged False.
    """
    dt, M = systems[0].dt, systems[0].mass
    v, w = state.v, state.w

    ion = physics.i_ion(v, w, ionic)
    noise_v = noise.amplitude("v", v) * _mode_sum(dW_v)[:, None]
    noise_w = noise.amplitude("w", v) * _mode_sum(dW_w)[:, None]
    # one sparse product over the (n, k) columns, whose column j is bitwise
    # M times path j's; then contiguous rows again
    base = np.ascontiguousarray(M.dot((v / dt - ion + noise_v / dt).T).T)

    # without applied current the two rows of a path's right-hand side sum
    # to zero, and proportional tensors make its step the scalar solve
    source = bool(np.any(i_app))
    v_i, v_e = np.empty_like(v), np.empty_like(v)
    info = StepInfo(np.zeros(len(systems), dtype=bool), 0, np.empty(len(systems)))
    for j, system in enumerate(systems):
        v_i[j], v_e[j], res = system.solve(base[j], i_app, source, tol)
        info.converged[j], info.relres[j] = res.converged, res.relres
        info.iterations += res.iterations
    w_new = w + dt * physics.h_kin(v, w, ionic) + noise_w
    new = ElectricState(v_i, v_e, v_i - v_e, w_new)
    if not info.converged.all():
        for a, old in zip(vars(new).values(), vars(state).values()):
            a[~info.converged] = old[~info.converged]
    return new, info


def initial_split(v0: np.ndarray, lumped: np.ndarray):
    """Split v0 into (v_i, v_e) with v_i - v_e = v0 and zero-mean v_e.

    `lumped` holds the row sums of the mass matrix.
    """
    v_e = enforce_zero_mean(-0.5 * v0, lumped)
    v_i = v0 + v_e
    return v_i, v_e
