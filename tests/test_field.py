import numpy as np
import pytest

from nudgelab.errors import VacuumError
from nudgelab.field import (
    FluidState,
    Grid1D,
    Trajectory,
    ghost_pad,
    load_trajectory,
    noslip_seminorm_sq,
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
    return Trajectory(g, times, rho, mom)


def test_trajectory_validation():
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.0], np.ones((2, 8)), np.zeros((2, 8)))
    with pytest.raises(VacuumError):
        Trajectory(g, [0.0], np.zeros((1, 8)), np.zeros((1, 8)))


def test_trajectory_holds_float_arrays_without_a_copy():
    g = Grid1D(8, 1.0)
    times, rho, mom = np.array([0.0, 1.0]), np.ones((2, 8)), np.zeros((2, 8))
    traj = Trajectory(g, times, rho, mom)
    assert traj.times is times and traj.rho is rho and traj.mom is mom
    assert not (times.flags.writeable or rho.flags.writeable or mom.flags.writeable)
    # lists of rows are stacked
    rows = [np.ones(8), 2.0 * np.ones(8)]
    stacked = Trajectory(g, [0.0, 1.0], rows, [np.zeros(8)] * 2)
    assert stacked.rho.shape == (2, 8) and not stacked.rho.flags.writeable
    assert rows[0].flags.writeable


@pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_trajectory_rejects_non_finite_times(times):
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        Trajectory(g, times, np.ones((2, 8)), np.zeros((2, 8)))


def test_load_trajectory_rejects_a_nan_time_row(tmp_path):
    x = Grid1D(8, 1.0).cell_centers()
    path = tmp_path / "traj.csv"
    with open(path, "w") as fh:
        fh.write("# length=1 forcing_max=0 rho_max=1 speed_max=0\nt,x,rho,mom\n")
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
    # NaN is outside the range, not a non-finite state, with one snapshot or many
    one = Trajectory(traj.grid, [0.5], traj.rho[1:2], traj.mom[1:2])
    for t in (traj, one):
        with pytest.raises(ValueError, match="outside trajectory range"):
            t.state_at(np.nan)
    assert np.array_equal(one.state_at(0.5).mom, traj.mom[1])


def test_trajectory_fields_at_rows_match_state_at():
    traj = make_traj()
    ts = [0.0, 0.25, 0.5, 0.8, 1.0]
    rho, mom = traj.fields_at(ts)
    assert rho.shape == mom.shape == (5, 8)
    for row, t in enumerate(ts):
        state = traj.state_at(t)
        assert np.array_equal(rho[row], state.rho) and np.array_equal(mom[row], state.mom)
    with pytest.raises(ValueError, match=r"time 1\.5 outside trajectory range \[0, 1\]"):
        traj.fields_at([0.5, 1.5])


def test_ghost_pad_and_seminorm_act_on_the_last_axis():
    g = Grid1D(16, 1.0)
    rng = np.random.default_rng(3)
    rho, u = rng.uniform(0.5, 2.0, (4, 16)), rng.normal(size=(4, 16))
    rows = noslip_seminorm_sq(g, u)
    rp, mp = ghost_pad(rho, u)
    assert rows.shape == (4,) and rp.shape == mp.shape == (4, 18)
    for i in range(4):
        assert rows[i] == noslip_seminorm_sq(g, u[i])
        rp_i, mp_i = ghost_pad(rho[i], u[i])
        assert np.array_equal(rp[i], rp_i) and np.array_equal(mp[i], mp_i)
    assert np.array_equal(mp[:, 0], -u[:, 0]) and np.array_equal(rp[:, -1], rho[:, -1])


def test_trajectory_point_values():
    traj = make_traj()
    r, u = traj.point_values(np.array([0.0, 0.25, 1.0]), np.array([0, 3, 7]))
    assert r[0] == 1.0 and r[2] == pytest.approx(1.2)
    assert u[1] == pytest.approx(0.1 / 1.05)
    # the range rule of fields_at: a NaN time raises like a time past the end
    for ts in ([np.nan, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.point_values(np.array(ts), np.array([0, 3]))


def test_trajectory_round_trip(tmp_path):
    # the file holds the rows and the grid length; the run's sup bounds are
    # statistics of the run, which observe writes to observed_meta.json
    traj = make_traj()
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert path.read_text().splitlines()[:2] == ["# length=1", "t,x,rho,mom"]
    loaded = load_trajectory(path)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.rho, traj.rho)
    assert np.array_equal(loaded.mom, traj.mom)
    assert loaded.grid == traj.grid
    # a file whose comment line also carries the bounds, as earlier versions
    # wrote it, loads the same trajectory
    lines = path.read_text().splitlines(keepends=True)
    old = tmp_path / "old.csv"
    old.write_text("# length=1 forcing_max=0.3 rho_max=1.25 speed_max=0.4\n" + "".join(lines[1:]))
    legacy = load_trajectory(old)
    assert legacy.grid == traj.grid
    for f in ("times", "rho", "mom"):
        assert np.array_equal(getattr(legacy, f), getattr(traj, f))
