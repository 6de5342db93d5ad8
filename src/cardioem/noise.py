"""Reproducible Wiener increments and the noise amplitudes.

Each (seed, channel, mode) stream is one generator, seeded by hashing that
tuple, whose first n draws are the n increments of the stream.  So ensemble
members get disjoint streams, a path of n steps is the first n rows of any
longer path (restarts are exact), and a mode's stream does not depend on
how many modes are drawn.  Each increment is N(0, dt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import require_finite

_CHANNELS = {"v": 0, "w": 1}


@dataclass(frozen=True)
class NoisePath:
    """Seeded increment streams for the potential and gating channels.

    With modes > 1 the stream carries one increment per mode and step.
    The increments are unscaled: `electrics.step_bidomain` weights mode k's
    increment by 1/(k+1), so the summed amplitudes remain square-summable,
    and multiplies their sum by one evaluation of the channel's amplitude
    (`NoiseParams.amplitude`).
    """

    seed: int
    dt: float
    n_steps: int
    modes: int = 1

    def increments(self, channel: str) -> np.ndarray:
        """(n_steps, modes) array of N(0, dt) draws of channel "v" or "w"."""
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        out = np.empty((self.n_steps, self.modes))
        for m in range(self.modes):
            ss = np.random.SeedSequence((int(self.seed), _CHANNELS[channel], m))
            out[:, m] = np.random.Generator(np.random.PCG64(ss)).standard_normal(
                self.n_steps
            )
        return np.sqrt(self.dt) * out


@dataclass(frozen=True)
class NoiseParams:
    """Noise amplitudes of the potential ("v") and gating ("w") channels,
    and the number of increment modes.

    Each channel's amplitude is a function beta of the potential v, of
    its channel's kind:
    kind "constant": beta(z) = beta0.
    kind "linear-clipped": beta(z) = clip(beta0 z, +-beta0 z_cap), which is
    Lipschitz with constant beta0 and of linear growth, so both conditions
    |beta(z)|^2 <= C (1 + |z|^2) and |beta(z1) - beta(z2)| <= sqrt(C) |z1-z2|
    hold with C = beta0^2 max(1, z_cap^2).  The channels share one z_cap.
    """

    kind_v: str = "constant"
    beta0_v: float = 0.0
    kind_w: str = "constant"
    beta0_w: float = 0.0
    z_cap: float = 2.0
    modes: int = 1

    def __post_init__(self):
        for kind in (self.kind_v, self.kind_w):
            if kind not in ("constant", "linear-clipped"):
                raise ValueError(f"unknown noise coefficient kind {kind!r}")
        require_finite(self, "beta0_v", "beta0_w", "z_cap")
        if not self.z_cap > 0:
            raise ValueError("z_cap must be positive")
        if self.modes < 1:
            raise ValueError("modes must be at least 1")

    def amplitude(self, channel: str, z):
        """Amplitude beta(z) of channel "v" or "w" at field value(s) z."""
        kind = getattr(self, f"kind_{channel}")
        beta0 = getattr(self, f"beta0_{channel}")
        z = np.asarray(z, dtype=float)
        if kind == "constant":
            return np.full_like(z, beta0)
        cap = abs(beta0) * self.z_cap
        return np.clip(beta0 * z, -cap, cap)
