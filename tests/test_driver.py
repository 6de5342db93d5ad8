import pytest

from cardioem.driver import SimConfig, SimulationError, run_simulation
from cardioem.fem import FeSpace, assemble_mass, assemble_stiffness
from cardioem.mesh import structured_unit_square


def test_initial_mechanics_failure_carries_checkpoint():
    config = SimConfig(mesh_nx=4, mesh_ny=4, T=0.025, mech_tol=1e-30)
    with pytest.raises(SimulationError) as info:
        run_simulation(config)
    assert info.value.step == 0
    checkpoint = info.value.checkpoint
    assert set(checkpoint) == {"state", "gamma"}
    assert len(checkpoint["gamma"]) == 25


def test_h1_energy_uses_the_runs_own_mesh():
    # two meshes in one process: each run's u_h1sq must come from its own
    # P2 Gram matrix M + K
    for n in (4, 6):
        mesh = structured_unit_square(n, n)
        config = SimConfig(mesh_nx=n, mesh_ny=n, T=0.025, mech_refresh=1)
        result = run_simulation(config, mesh=mesh)
        u_space = FeSpace(mesh, 2, rank=1)
        gram = assemble_mass(u_space) + assemble_stiffness(u_space)
        u = result.final["mech"].u
        assert result.energy.u_h1sq[-1] > 0.0
        assert result.energy.u_h1sq[-1] == pytest.approx(
            float(u @ gram.dot(u)), rel=1e-12
        )
