import numpy as np
import pytest

from cardioem.electrics import ElectricState, assemble_bidomain, step_bidomain
from cardioem.fem import FeSpace, assemble_mass
from cardioem.mesh import structured_unit_square
from cardioem.noise import NoiseParams, NoisePath
from cardioem.physics import ConductivityParams, IonicParams


def test_same_seed_identical_sequences():
    a = NoisePath(42, 0.0125, 200).increments("v")
    b = NoisePath(42, 0.0125, 200).increments("v")
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = NoisePath(1, 0.0125, 50).increments("v")
    b = NoisePath(2, 0.0125, 50).increments("v")
    assert not np.array_equal(a, b)


def test_shorter_path_is_a_prefix_of_a_longer_one():
    # a restart that draws fewer steps sees exactly the same increments
    long = NoisePath(7, 0.05, 100, modes=2).increments("w")
    for n in (1, 17, 99):
        assert np.array_equal(NoisePath(7, 0.05, n, modes=2).increments("w"),
                              long[:n])


def test_mode_streams_do_not_depend_on_the_number_of_modes():
    one = NoisePath(7, 0.05, 100, modes=1).increments("v")
    three = NoisePath(7, 0.05, 100, modes=3).increments("v")
    five = NoisePath(7, 0.05, 100, modes=5).increments("v")
    assert np.array_equal(three[:, :1], one)
    assert np.array_equal(five[:, :3], three)


def test_zero_steps_give_an_empty_column_per_mode():
    inc = NoisePath(3, 0.0125, 0, modes=4).increments("v")
    assert inc.shape == (0, 4)


def test_statistics_mean_and_variance():
    n, dt = 100_000, 0.0125
    seq = NoisePath(123, dt, n).increments("v")[:, 0]
    assert abs(seq.mean()) < 4 * np.sqrt(dt / n)
    assert abs(seq.var() - dt) < 0.05 * dt


def test_channels_decorrelated():
    n, dt = 100_000, 0.0125
    a = NoisePath(9, dt, n).increments("v")[:, 0]
    b = NoisePath(9, dt, n).increments("w")[:, 0]
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.02


def test_modes_decorrelated():
    n, dt = 50_000, 0.0125
    inc = NoisePath(9, dt, n, modes=2).increments("v")
    assert abs(np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]) < 0.03


def test_rejects_bad_dt():
    for dt in (0.0, -0.0125):
        with pytest.raises(ValueError):
            NoisePath(0, dt, 10).increments("v")


def test_noise_path_shape_and_determinism():
    p = NoisePath(seed=5, dt=0.01, n_steps=40, modes=3)
    inc = p.increments("v")
    assert inc.shape == (40, 3)
    assert np.array_equal(inc, NoisePath(5, 0.01, 40, 3).increments("v"))


# ---------------------------------------------------------------------------
# coefficients


def test_constant_coefficient():
    c = NoiseParams(beta0_v=0.5)
    assert c.amplitude("v", 0.0) == 0.5
    assert c.amplitude("v", -17.3) == 0.5
    assert np.all(c.amplitude("v", np.linspace(-5, 5, 11)) == 0.5)


def test_zero_amplitude_reduction():
    c = NoiseParams()
    for channel in ("v", "w"):
        assert np.all(c.amplitude(channel, np.linspace(-3, 3, 7)) == 0.0)


def test_linear_clipped():
    # each channel reads its own kind and beta0, and both share z_cap
    c = NoiseParams(kind_w="linear-clipped", beta0_w=1.0, z_cap=2.0)
    assert c.amplitude("w", 3.0) == 2.0
    assert c.amplitude("w", -3.0) == -2.0
    assert c.amplitude("w", 0.5) == 0.5
    assert c.amplitude("v", 3.0) == 0.0


def gating_noise(noise):
    """`w_after(dW)`: w after one electric step from rest (v = w = 0) with
    the gating increments dW, which is the gating noise alone."""
    space = FeSpace(structured_unit_square(1, 1), 1)
    mass = assemble_mass(space)
    cond = ConductivityParams()
    lumped = np.asarray(mass.sum(axis=1)).ravel()
    system = assemble_bidomain(space, cond.K_i, cond.K_e, 0.0125, mass, lumped)
    zero = np.zeros(space.n_scalar)
    rows = np.zeros((1, space.n_scalar))
    rest = ElectricState(rows, rows, rows, rows)

    def w_after(dW):
        # a batch of one path
        new, info = step_bidomain(
            [system], rest, IonicParams(), zero, np.zeros((1, len(dW))),
            dW[None], noise,
        )
        assert info.converged
        return new.w[0]

    return w_after


def test_mode_scaling():
    # the step scales mode k's increment by 1/(k+1)
    w_after = gating_noise(NoiseParams(beta0_w=0.6))
    assert w_after(np.array([1.0])) == pytest.approx(0.6)
    assert w_after(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.2)


def test_unknown_kind_rejected():
    for channel in ("v", "w"):
        with pytest.raises(ValueError, match="unknown noise coefficient kind"):
            NoiseParams(**{f"kind_{channel}": "quadratic"})


def test_fewer_than_one_mode_rejected():
    with pytest.raises(ValueError, match="^modes must be at least 1"):
        NoiseParams(modes=0)


@pytest.mark.parametrize("kind,beta0", [("constant", 0.5), ("linear-clipped", 1.0)])
def test_growth_and_lipschitz_conditions(kind, beta0):
    c = NoiseParams(kind, beta0, z_cap=2.0)
    Cb = beta0**2 * max(1.0, c.z_cap**2)
    rng = np.random.default_rng(2)
    z = rng.uniform(-10, 10, size=2000)
    vals = c.amplitude("v", z)
    assert np.all(vals**2 <= Cb * (1 + z**2) + 1e-12)
    z1 = rng.uniform(-10, 10, size=2000)
    z2 = rng.uniform(-10, 10, size=2000)
    lhs = np.abs(c.amplitude("v", z1) - c.amplitude("v", z2))
    assert np.all(lhs <= np.sqrt(Cb) * np.abs(z1 - z2) + 1e-12)


def test_mode_amplitudes_square_summable():
    w_after = gating_noise(NoiseParams(beta0_w=1.0))
    amps = np.array([w_after(e)[0] for e in np.eye(200)])
    partial = np.cumsum(amps**2)
    assert partial[-1] < np.pi**2 / 6 + 1e-6
