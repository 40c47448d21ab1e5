import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nudgelab.errors import VacuumError
from nudgelab.field import (
    FluidState,
    Grid1D,
    SupBounds,
    Trajectory,
    data_norm,
    initial_regularity_norm,
    load_trajectory,
    noslip_seminorm_sq,
    norms,
    save_trajectory,
)


def make_state(rho, mom, t=0.0):
    return FluidState(t, np.asarray(rho, dtype=float), np.asarray(mom, dtype=float))


def test_grid_basics():
    g = Grid1D(10, 2.0)
    assert g.dx == pytest.approx(0.2)
    centers = g.cell_centers()
    assert centers[0] == pytest.approx(0.1)
    assert centers[-1] == pytest.approx(1.9)
    assert np.array_equal(centers, (np.arange(10) + 0.5) * g.dx)
    assert g.cell_centers() is centers
    with pytest.raises(ValueError):
        centers[0] = 0.0
    with pytest.raises(ValueError):
        Grid1D(4, 1.0)
    with pytest.raises(ValueError):
        Grid1D(16, -1.0)
    with pytest.raises(ValueError):
        Grid1D(16, 1.0, boundary="periodic")


def test_velocity_examples():
    assert np.allclose(make_state([1, 1], [0, 0]).velocity(), [0, 0])
    assert np.allclose(make_state([2, 4], [2, 2]).velocity(), [1.0, 0.5])
    with pytest.raises(VacuumError) as exc:
        make_state([1.0, 0.0], [0, 0])
    assert exc.value.cell == 1


def test_state_validation_and_immutability():
    with pytest.raises(ValueError):
        make_state([1.0, np.nan], [0, 0])
    with pytest.raises(ValueError):
        make_state([1.0, 1.0], [0.0, 0.0, 0.0])
    s = make_state([1.0, 2.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        s.rho[0] = 3.0


@pytest.mark.parametrize("field", ["rho", "mom"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_non_finite_is_not_vacuum(field, bad):
    # the finiteness check comes first, even with a vacuum cell present
    rho, mom = [1.0, 0.0], [0.0, 0.0]
    (rho if field == "rho" else mom)[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        make_state(rho, mom)


def test_norms_zero_and_mass():
    g = Grid1D(16, 1.0)
    s = make_state(np.full(16, 2.5), np.zeros(16))
    n = norms(g, s, s)
    assert n.l2_u_diff == n.linf_u_diff == n.h1_u_diff == n.l2_rho_diff == 0.0
    assert n.mass == pytest.approx(2.5 * 1.0, rel=1e-14)


def test_norms_constant_velocity_difference():
    g = Grid1D(32, 2.0)
    c = 0.7
    a = make_state(np.ones(32), np.full(32, c))
    b = make_state(np.ones(32), np.zeros(32))
    n = norms(g, a, b)
    assert n.l2_u_diff == pytest.approx(c * np.sqrt(g.length), rel=1e-14)
    assert n.linf_u_diff == pytest.approx(c)


def test_norms_shape_error():
    g = Grid1D(16, 1.0)
    with pytest.raises(ValueError):
        norms(g, make_state(np.ones(8), np.zeros(8)), make_state(np.ones(8), np.zeros(8)))


@settings(max_examples=50)
@given(data=st.lists(st.floats(-5, 5), min_size=16, max_size=16))
def test_norms_difference_symmetry(data):
    g = Grid1D(16, 1.0)
    u = np.array(data)
    a = make_state(np.ones(16), u)
    b = make_state(np.ones(16), np.zeros(16))
    nab, nba = norms(g, a, b), norms(g, b, a)
    assert nab.l2_u_diff == pytest.approx(nba.l2_u_diff, abs=1e-14)
    assert nab.linf_u_diff == pytest.approx(nba.linf_u_diff, abs=1e-14)
    assert nab.h1_u_diff == pytest.approx(nba.h1_u_diff, abs=1e-14)
    assert nab.l2_rho_diff == pytest.approx(nba.l2_rho_diff, abs=1e-14)


def test_seminorm_hand_value():
    # three interior quotients plus the two wall quotients
    g = Grid1D(8, 1.0)
    u = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    dx = g.dx
    expected = dx * ((1 / dx) ** 2 * 2 + 0.0 * 5 + (2 * 0.0 / dx) ** 2 + 0.0)
    assert noslip_seminorm_sq(g, u) == pytest.approx(expected)


@pytest.mark.parametrize("n", [64, 128])
def test_discrete_poincare(n):
    # the lowest no-slip mode saturates the Poincare constant pi/length
    g = Grid1D(n, 1.0)
    u = np.sin(np.pi * g.cell_centers() / g.length)
    l2 = np.sqrt(g.dx * np.sum(u**2))
    semi = np.sqrt(noslip_seminorm_sq(g, u))
    assert semi >= (np.pi / g.length) * l2 * (1.0 - 5.0 / n)


def make_traj():
    g = Grid1D(8, 1.0)
    times = [0.0, 0.5, 1.0]
    rho = np.stack([np.full(8, 1.0 + 0.1 * i) for i in range(3)])
    mom = np.stack([np.full(8, 0.2 * i) for i in range(3)])
    return Trajectory(g, times, rho, mom, SupBounds(1.2, 0.4, 0.0))


def test_trajectory_validation():
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.0], np.ones((2, 8)), np.zeros((2, 8)), SupBounds(1, 0, 0))
    with pytest.raises(VacuumError):
        Trajectory(g, [0.0], np.zeros((1, 8)), np.zeros((1, 8)), SupBounds(1, 0, 0))


@pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_trajectory_rejects_non_finite_times(times):
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        Trajectory(g, times, np.ones((2, 8)), np.zeros((2, 8)), SupBounds(1, 0, 0))


def test_load_trajectory_rejects_a_nan_time_row(tmp_path):
    x = Grid1D(8, 1.0).cell_centers()
    path = tmp_path / "traj.csv"
    with open(path, "w") as fh:
        fh.write("# length=1 forcing_max=0\nt,x,rho,mom\n")
        for t in ("0", "nan"):
            fh.writelines(f"{t},{xj:.17g},1,0\n" for xj in x)
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        load_trajectory(path)


def test_trajectory_state_at():
    traj = make_traj()
    # exact hits reproduce stored rows bitwise
    assert np.array_equal(traj.state_at(0.5).rho, traj.rho[1])
    assert np.array_equal(traj.state_at(1.0).mom, traj.mom[2])
    mid = traj.state_at(0.25)
    assert np.allclose(mid.rho, 1.05)
    assert np.allclose(mid.mom, 0.1)
    with pytest.raises(ValueError):
        traj.state_at(1.5)
    assert traj.covers(0.0, 1.0)
    assert not traj.covers(-0.5, 1.0)


def test_trajectory_point_values():
    traj = make_traj()
    r, u = traj.point_values(np.array([0.0, 0.25, 1.0]), np.array([0, 3, 7]))
    assert r[0] == 1.0 and r[2] == pytest.approx(1.2)
    assert u[1] == pytest.approx(0.1 / 1.05)


def test_data_norm_components():
    traj = make_traj()
    # first snapshot is uniform with zero velocity: W1inf surrogate is
    # |r| + 1/r + 0 + 0 + 0 = 2
    assert initial_regularity_norm(traj) == pytest.approx(2.0)
    assert data_norm(traj) == pytest.approx(2.0 + 1.2 + 0.4 + 0.0 + 1.0)


@pytest.mark.parametrize("suffix", ["csv", "bin"])
def test_trajectory_round_trip(tmp_path, suffix):
    traj = make_traj()
    path = tmp_path / f"traj.{suffix}"
    save_trajectory(path, traj)
    loaded = load_trajectory(path)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.rho, traj.rho)
    assert np.array_equal(loaded.mom, traj.mom)
    assert loaded.grid == traj.grid
    assert loaded.sup_bounds.forcing_max == traj.sup_bounds.forcing_max
