import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nudgelab.field import ROW_BLOCK, Grid1D, Trajectory
from nudgelab.sampler import (
    MAX_STORED_CELLS,
    MeasurementSet,
    SpaceTimeDecomposition,
    build_decomposition,
    interpolation_error,
    sample,
    sampled_blocks,
)


def constant_trajectory(n=72, length=1.0, rho_fn=None, u=0.0, times=(0.0, 1.0)):
    g = Grid1D(n, length)
    x = g.cell_centers()
    rho = rho_fn(x) if rho_fn else np.ones(n)
    rows = np.stack([rho for _ in times])
    mom = np.stack([rho * u for _ in times])
    return Trajectory(g, list(times), rows, mom)


def test_single_cell_when_delta_covers_cylinder():
    dec = build_decomposition(math.hypot(1.0, 1.0), 1.0, 1.0)
    assert dec.n_time_slabs == 1 and dec.n_space_blocks == 1
    assert dec.n_cells == 1


def test_counts_example():
    dec = build_decomposition(0.2, 1.0, 1.0)
    assert dec.n_time_slabs == 8
    assert dec.n_space_blocks == 8
    assert dec.n_cells == 64


def test_cover_is_exact_partition():
    dec = build_decomposition(0.2, 1.0, 1.0)
    assert dec.time_breaks[0] == 0.0 and dec.time_breaks[-1] == 1.0
    assert dec.space_breaks[0] == 0.0 and dec.space_breaks[-1] == 1.0
    assert np.all(np.diff(dec.time_breaks) > 0.0)
    assert np.all(np.diff(dec.space_breaks) > 0.0)


def test_capacity_error():
    # 141,422 slabs x 64 read blocks: over the guard, refused before sampling
    dec = build_decomposition(1e-5, 1.0, 1.0)
    assert dec.n_time_slabs * 64 > MAX_STORED_CELLS
    traj = constant_trajectory(n=64)
    with pytest.raises(ValueError, match="sampling stores 9051008 cells"):
        sampled_blocks(dec, traj.grid)
    with pytest.raises(ValueError, match="sampling stores"):
        sample(traj, dec)
    # 2,829 x 141,422 cells, far over the guard, of which 32 blocks are read
    dec = build_decomposition(1e-5, 0.02, 1.0)
    assert dec.n_cells > MAX_STORED_CELLS
    assert sampled_blocks(dec, Grid1D(32, 1.0)).size == 32
    # breakpoints alone beyond the guard
    with pytest.raises(ValueError, match="breakpoints"):
        build_decomposition(1e-7, 1e-6, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.01, max_value=3.0),
    duration=st.floats(min_value=0.05, max_value=4.0),
    length=st.floats(min_value=0.05, max_value=4.0),
    placement=st.sampled_from(["center", "jittered"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_properties(delta, duration, length, placement, seed):
    dec = build_decomposition(delta, duration, length, placement=placement, seed=seed)
    diam = math.hypot(
        float(np.max(np.diff(dec.time_breaks))),
        float(np.max(np.diff(dec.space_breaks))),
    )
    assert diam <= delta
    # control points inside their own cells per the membership convention
    assert np.all(
        dec.time_slab_index(dec.t_star)
        == np.arange(dec.n_time_slabs)[:, None]
    )
    assert np.all(
        dec.space_block_index(dec.x_star)
        == np.arange(dec.n_space_blocks)[None, :]
    )


def test_membership_convention():
    dec = build_decomposition(1.2, 1.0, 1.0)  # 2x2 cells
    assert dec.n_time_slabs == 2
    # internal breakpoints belong to the upper cell, the end to the last one
    assert dec.time_slab_index(0.5) == 1
    assert dec.time_slab_index(0.0) == 0
    assert dec.time_slab_index(1.0) == 1
    with pytest.raises(ValueError):
        dec.time_slab_index(-0.1)
    with pytest.raises(ValueError):
        dec.space_block_index(1.1)


def test_sample_constant_field():
    traj = constant_trajectory()
    ms = sample(traj, build_decomposition(0.3, 1.0, 1.0))
    assert np.all(ms.r_sample == 1.0)
    assert np.all(ms.U_sample == 0.0)


def test_sample_exact_hit():
    # control point at a snapshot time and a cell center reads the stored value
    g = Grid1D(9, 1.0)
    rho = np.linspace(1.0, 2.0, 9)
    traj = Trajectory(
        g, [0.0, 0.5, 1.0], np.stack([rho, rho + 1.0, rho]), np.zeros((3, 9)),
    )
    dec = SpaceTimeDecomposition(math.hypot(1, 1), 1.0, 1.0, 1, 1)
    assert dec.t_star[0, 0] == 0.5 and dec.x_star[0, 0] == g.cell_centers()[4]
    ms = sample(traj, dec)
    assert ms.r_sample[0, 0] == rho[4] + 1.0


def test_sample_linear_field_midpoints():
    # 72 cells align the 8 block midpoints exactly with cell centers
    traj = constant_trajectory(n=72, rho_fn=lambda x: x.copy())
    dec = build_decomposition(0.2, 1.0, 1.0)
    ms = sample(traj, dec)
    mid = 0.5 * (dec.space_breaks[:-1] + dec.space_breaks[1:])
    assert np.allclose(ms.r_sample, np.broadcast_to(mid, ms.r_sample.shape), atol=1e-15)


def test_sample_requires_coverage():
    traj = constant_trajectory(times=(0.0, 0.5))
    with pytest.raises(ValueError):
        sample(traj, build_decomposition(0.3, 1.0, 1.0))


def linear_measurement_set(m=8, h=None):
    dec = build_decomposition(0.2, 1.0, 1.0)
    mid_x = 0.5 * (dec.space_breaks[:-1] + dec.space_breaks[1:])
    shape = (dec.n_time_slabs, dec.n_space_blocks)
    r = np.broadcast_to(mid_x, shape).copy() + 1.0
    u = np.broadcast_to(mid_x, shape).copy()
    return MeasurementSet(dec, r, u)


def test_interpolant_reproduces_constants_and_control_points():
    traj = constant_trajectory()
    ms = sample(traj, build_decomposition(0.3, 1.0, 1.0))
    for t, x in [(0.0, 0.0), (0.37, 0.91), (1.0, 1.0)]:
        val = ms.interpolant_value(t, x)
        assert val.r == 1.0 and val.U == 0.0
    dec = ms.decomposition
    val = ms.interpolant_value(float(dec.t_star[0, 0]), float(dec.x_star[0, 0]))
    assert val.r == ms.r_sample[0, 0]


def test_interpolant_midpoint_error_linear_field():
    ms = linear_measurement_set()
    h = float(np.max(np.diff(ms.decomposition.space_breaks)))
    xs = np.linspace(0.0, 1.0, 501)
    errs = [abs(ms.interpolant_value(0.5, float(x)).U - x) for x in xs]
    assert max(errs) <= h / 2.0 + 1e-15


def test_interpolant_range_errors():
    ms = linear_measurement_set()
    with pytest.raises(ValueError):
        ms.interpolant_value(-0.1, 0.5)
    with pytest.raises(ValueError):
        ms.interpolant_value(0.5, 1.5)


def test_interpolant_linearity():
    dec = build_decomposition(0.4, 1.0, 1.0)
    shape = (dec.n_time_slabs, dec.n_space_blocks)
    rng = np.random.default_rng(11)
    u1, u2 = rng.normal(size=shape), rng.normal(size=shape)
    ones = np.ones(shape)
    ms1 = MeasurementSet(dec, ones, u1)
    ms2 = MeasurementSet(dec, ones, u2)
    combo = MeasurementSet(dec, ones, 2.0 * u1 - 0.5 * u2)
    for t, x in [(0.1, 0.2), (0.9, 0.95), (0.5, 0.5)]:
        expected = 2.0 * ms1.interpolant_value(t, x).U - 0.5 * ms2.interpolant_value(t, x).U
        assert combo.interpolant_value(t, x).U == pytest.approx(expected, abs=1e-14)


def test_interpolant_monotone_and_sup_bound():
    lo = constant_trajectory(rho_fn=lambda x: 1.0 + 0.2 * np.sin(2 * np.pi * x))
    hi = constant_trajectory(rho_fn=lambda x: 1.5 + 0.2 * np.sin(2 * np.pi * x))
    dec = build_decomposition(0.25, 1.0, 1.0)
    ms_lo, ms_hi = sample(lo, dec), sample(hi, dec)
    assert np.all(ms_lo.r_sample <= ms_hi.r_sample)
    assert np.max(np.abs(ms_lo.r_sample)) <= lo.rho.max()


def test_interpolation_error_constant_field():
    traj = constant_trajectory(times=(0.0, 0.5, 1.0))
    ms = sample(traj, build_decomposition(0.3, 1.0, 1.0))
    err = interpolation_error(ms, traj)
    assert err.sup_err_r == 0.0
    assert err.sup_err_U == 0.0


def test_interpolation_error_lipschitz_bound():
    # spatially linear density: Lipschitz constant 1, so sup error <= delta
    times = tuple(np.linspace(0.0, 1.0, 21))
    traj = constant_trajectory(n=128, rho_fn=lambda x: 1.0 + x, times=times)
    for delta in (0.3, 0.15):
        ms = sample(traj, build_decomposition(delta, 1.0, 1.0))
        err = interpolation_error(ms, traj)
        assert err.sup_err_r <= 1.0 * delta * (1.0 + 1e-12)


def test_interpolation_error_halves_with_delta(lite_observed):
    errs = {}
    for delta in (0.04, 0.02):
        ms = sample(lite_observed, build_decomposition(delta, 0.5, 1.0))
        e = interpolation_error(ms, lite_observed)
        errs[delta] = max(e.sup_err_r, e.sup_err_U)
    assert errs[0.02] <= 0.6 * errs[0.04]


@pytest.mark.parametrize("placement", ["center", "jittered"])
def test_interpolation_error_matches_dense_reference(placement):
    # snapshots before, inside and after the window, one exactly at t = T
    g = Grid1D(24, 1.0)
    x = g.cell_centers()
    times = np.array([-0.1, 0.0, 0.07, 0.13, 0.25, 0.31, 0.4, 0.5, 0.62])
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * (x[None, :] + times[:, None]))
    rho += 0.05 * np.random.default_rng(3).random(rho.shape)
    mom = rho * np.cos(3.0 * x[None, :] - times[:, None])
    traj = Trajectory(g, times, rho, mom)
    dec = build_decomposition(0.08, 0.5, 1.0, placement=placement, seed=11)
    ms = sample(traj, dec)
    err = interpolation_error(ms, traj)

    # the snapshots inside [0, T] and every slab midpoint, each read by
    # linear interpolation between the two snapshots around it
    tb = dec.time_breaks
    ts = np.concatenate((times[(times >= 0.0) & (times <= 0.5)], 0.5 * (tb[:-1] + tb[1:])))
    assert dec.n_time_slabs > 4  # more slabs than snapshots in the window
    hi = np.clip(np.searchsorted(times, ts), 1, times.size - 1)
    w = ((ts - times[hi - 1]) / (times[hi] - times[hi - 1]))[:, None]
    rho_ts = (1.0 - w) * rho[hi - 1] + w * rho[hi]
    u_ts = ((1.0 - w) * mom[hi - 1] + w * mom[hi]) / rho_ts
    slab = dec.time_slab_index(ts)
    cols = np.searchsorted(ms.blocks, dec.space_block_index(x))
    r_ref = ms.r_sample[slab[:, None], cols[None, :]]
    u_ref = ms.U_sample[slab[:, None], cols[None, :]]
    assert err.sup_err_r == np.max(np.abs(r_ref - rho_ts))
    assert err.sup_err_U == np.max(np.abs(u_ref - u_ts))
    assert err.sup_err_r > 0.0 and err.sup_err_U > 0.0


def test_interpolation_error_checks_a_slab_between_snapshots():
    # two snapshots, 0 and 1, around slabs of width 1/8: only the slab
    # midpoints see the samples of the inner slabs
    g = Grid1D(8, 1.0)
    x = g.cell_centers()
    rho = np.stack([np.full(8, 1.0), np.full(8, 2.0)])
    traj = Trajectory(g, [0.0, 1.0], rho, np.zeros((2, 8)))
    dec = build_decomposition(0.15, 1.0, 1.0)
    ms = sample(traj, dec)
    r_bad = ms.r_sample.copy()
    r_bad[dec.n_time_slabs // 2] += 0.5  # corrupt an inner slab's samples
    bad = MeasurementSet(dec, r_bad, ms.U_sample, ms.blocks)
    assert interpolation_error(bad, traj).sup_err_r > 0.4
    assert interpolation_error(ms, traj).sup_err_r <= 0.5 / dec.n_time_slabs + 1e-12


def test_stored_columns_are_the_blocks_holding_grid_centers():
    dec = build_decomposition(0.1, 1.0, 1.0)  # 15 blocks of width 1/15
    for n, expected in [
        (8, [0, 2, 4, 6, 8, 10, 12, 14]),
        (9, [0, 2, 4, 5, 7, 9, 10, 12, 14]),
        (72, list(range(15))),
    ]:
        ms = sample(constant_trajectory(n=n), dec)
        centers = Grid1D(n, 1.0).cell_centers()
        assert ms.blocks.tolist() == expected
        assert ms.blocks.tolist() == sorted(set(dec.space_block_index(centers).tolist()))
        assert ms.r_sample.shape == (dec.n_time_slabs, len(expected))


@pytest.mark.parametrize("placement", ["center", "jittered"])
def test_sample_matches_dense_reference_when_every_block_is_read(placement):
    times = tuple(np.linspace(0.0, 1.0, 7))
    traj = constant_trajectory(
        n=72, rho_fn=lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), u=0.25, times=times
    )
    dec = build_decomposition(0.2, 1.0, 1.0, placement=placement, seed=3)
    ms = sample(traj, dec)
    assert ms.blocks.tolist() == list(range(dec.n_space_blocks))
    # the dense tiling: every control point read off the trajectory
    cells = np.clip(np.round(dec.x_star / traj.grid.dx - 0.5).astype(int), 0, 71)
    r_ref, u_ref = traj.point_values(dec.t_star.ravel(), cells.ravel())
    assert np.array_equal(ms.r_sample, r_ref.reshape(cells.shape))
    assert np.array_equal(ms.U_sample, u_ref.reshape(cells.shape))


def splitmix64_uniform(seed, n):
    """Draw n of the SplitMix64 stream keyed by ``seed``, on Python ints:
    an independent reference for the sampler's jitter."""
    mask, golden = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    key = mix(seed + golden)
    return (mix(key + (n + 1) * golden) >> 11) / 2.0**53


def test_jittered_subset_matches_full_tiling():
    dec = build_decomposition(0.1, 1.0, 1.0, placement="jittered", seed=2024)
    subset = [0, 3, 4, dec.n_space_blocks - 1]
    t_sub, x_sub = dec.control_points(subset)
    assert np.array_equal(t_sub, dec.t_star[:, subset])
    assert np.array_equal(x_sub, dec.x_star[:, subset])
    # the point of slab k in block i takes draws 2c and 2c + 1, c = i K + k
    K, tb, xb = dec.n_time_slabs, dec.time_breaks, dec.space_breaks
    u_t = np.array([splitmix64_uniform(2024, 2 * (3 * K + k)) for k in range(K)])
    u_x = np.array([splitmix64_uniform(2024, 2 * (3 * K + k) + 1) for k in range(K)])
    assert np.array_equal(t_sub[:, 1], tb[:-1] + u_t * np.diff(tb))
    assert np.array_equal(x_sub[:, 1], xb[3] + u_x * (xb[4] - xb[3]))
    other = build_decomposition(0.1, 1.0, 1.0, placement="jittered", seed=2025)
    assert not np.array_equal(other.t_star, dec.t_star)
    # any slab range over any block subset is the whole tiling's slice
    # (empty ranges too), on a tiling of 142 x 142 cells and at the top seed
    rng = np.random.default_rng(8)
    for seed in (2024, 2**64 - 1):
        dec = build_decomposition(1e-2, 1.0, 1.0, placement="jittered", seed=seed)
        t_all, x_all = dec.control_points(np.arange(dec.n_space_blocks))
        for _ in range(40):
            lo, hi = sorted(rng.integers(0, dec.n_time_slabs + 1, 2).tolist())
            blocks = np.sort(rng.choice(dec.n_space_blocks, rng.integers(1, 20), replace=False))
            t, x = dec.control_points(blocks, slice(lo, hi))
            assert t.shape == x.shape == (hi - lo, blocks.size)
            assert np.array_equal(t, t_all[lo:hi, blocks])
            assert np.array_equal(x, x_all[lo:hi, blocks])
        k, i = dec.n_time_slabs - 1, dec.n_space_blocks - 1
        c = i * dec.n_time_slabs + k
        tb, xb = dec.time_breaks, dec.space_breaks
        assert t_all[k, i] == tb[k] + splitmix64_uniform(seed, 2 * c) * (tb[k + 1] - tb[k])
        assert x_all[k, i] == xb[i] + splitmix64_uniform(seed, 2 * c + 1) * (xb[i + 1] - xb[i])


def test_unsampled_block_raises():
    dec = build_decomposition(0.1, 1.0, 1.0)  # 15 blocks of width 1/15
    ms = sample(constant_trajectory(n=8), dec)  # the even blocks
    assert ms.interpolant_value(0.5, 0.05).r == 1.0
    with pytest.raises(ValueError, match="not sampled"):
        ms.interpolant_value(0.5, 0.1)
    with pytest.raises(ValueError, match="not sampled"):
        ms.values_at_time(0.5, Grid1D(72, 1.0))
    r, _ = ms.values_at_time(0.5, Grid1D(8, 1.0))
    assert r.tolist() == [1.0] * 8
    ones = np.ones((dec.n_time_slabs, 2))
    for blocks in ([3, 1], [2, 2], [-1, 0], [14, 15]):
        with pytest.raises(ValueError, match="blocks must be increasing"):
            MeasurementSet(dec, ones, ones, blocks)


def test_time_slab_index_is_right_closed():
    # tb[k] <= t < tb[k + 1], with t == duration in the last slab
    rng = np.random.default_rng(5)
    probes = 0
    for k, duration in [(1, 1.0), (2, 0.3), (3, 1.0), (7, 0.7), (64, 1.0), (1415, 1.0),
                        (2176, 1.0), (3001, 0.123), (11314, 1.0)]:
        dec = SpaceTimeDecomposition(1e9, duration, 1.0, k, 1)
        tb = dec.time_breaks
        ts = np.concatenate([
            tb, np.nextafter(tb, -np.inf)[1:], np.nextafter(tb, np.inf)[:-1],
            rng.uniform(0.0, duration, 500),
        ])
        slab = dec.time_slab_index(ts)
        end = ts == duration
        assert end.sum() == 1 and (slab[end] == k - 1).all()
        inner, at = ts[~end], slab[~end]
        assert ((tb[at] <= inner) & (inner < tb[at + 1])).all()
        probes += ts.size
        for t in (np.nextafter(0.0, -1.0), -1.0, np.nextafter(duration, np.inf), np.nan):
            with pytest.raises(ValueError, match="time outside"):
                dec.time_slab_index(t)
    assert probes > 50_000


def test_nan_lies_outside_every_cell():
    dec = build_decomposition(0.1, 1.0, 1.0)  # 15 slabs of 15 blocks
    ms = sample(constant_trajectory(n=8), dec)
    nan = float("nan")
    calls = [
        lambda: dec.time_slab_index(nan),
        lambda: dec.space_block_index(nan),
        lambda: dec.space_block_index(np.array([0.5, nan])),
        lambda: ms.interpolant_value(nan, 0.5),
        lambda: ms.interpolant_value(0.5, nan),
        lambda: ms.values_at_time(np.array([0.2, nan, 0.7]), Grid1D(8, 1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="outside"):
            call()


def test_values_at_time_rows_are_the_scalar_reads():
    # the array form is the scalar form stacked, on every break and between
    g = Grid1D(24, 1.0)
    x = g.cell_centers()
    times = np.linspace(0.0, 1.0, 9)
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * (x[None, :] - times[:, None]))
    traj = Trajectory(g, times, rho, 0.1 * rho)
    dec = build_decomposition(0.07, 1.0, 1.0, placement="jittered", seed=9)
    ms = sample(traj, dec)
    ts = np.concatenate([dec.time_breaks, np.random.default_rng(1).uniform(0.0, 1.0, 50)])
    r, u = ms.values_at_time(ts, g)
    rows = [ms.values_at_time(t, g) for t in ts.tolist()]
    assert r.shape == u.shape == (ts.size, g.n_cells)
    assert (r != r[0]).any()  # the rows differ from slab to slab
    assert (r == np.stack([row[0] for row in rows])).all()
    assert (u == np.stack([row[1] for row in rows])).all()
    # a scalar time gives one row, the interpolant at each cell center
    assert rows[3][0].tolist() == [ms.interpolant_value(ts[3], xi).r for xi in x]


def random_truth(n=256, rows=1201):
    """A truth on n cells over [-0.2, 1], its fields drawn at random."""
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.1 * rng.random((rows, n))
    mom = 0.1 * rng.standard_normal((rows, n))
    times = np.linspace(-0.2, 1.0, rows)
    return Trajectory(Grid1D(n, 1.0), times, rho, mom)


@pytest.mark.parametrize("placement", ["center", "jittered"])
def test_sample_matches_the_one_shot_read_across_row_blocks(placement):
    # K = 1415 = 22 * ROW_BLOCK + 7 slabs: the block-wise read equals the
    # whole tiling read at once, bit for bit
    traj = random_truth()
    dec = build_decomposition(1e-3, 1.0, 1.0, placement=placement, seed=5)
    assert dec.n_time_slabs == 1415 and dec.n_time_slabs % ROW_BLOCK == 7
    ms = sample(traj, dec)
    t_star, x_star = dec.control_points(ms.blocks)
    cells = np.clip(np.round(x_star.ravel() / traj.grid.dx - 0.5).astype(int), 0, 255)
    ts = np.clip(t_star.ravel(), traj.times[0], traj.times[-1])
    r_ref, u_ref = traj.point_values(ts, cells)
    assert np.array_equal(ms.r_sample, r_ref.reshape(t_star.shape))
    assert np.array_equal(ms.U_sample, u_ref.reshape(t_star.shape))


@pytest.mark.parametrize("placement", ["center", "jittered"])
def test_slab_ranges_are_the_whole_sets_slabs(placement):
    # the tiling sampled one slab range after another, each range drawing
    # its own control points: each range is the whole set's rows, bit for
    # bit, with the whole set's window, reads outside a range raise, and
    # the interpolation error folds as a maximum over the ranges
    traj = random_truth(n=32, rows=301)
    dec = build_decomposition(1e-2, 1.0, 1.0, placement=placement, seed=5)
    whole = sample(traj, dec)
    edges = [0, 1, ROW_BLOCK + 3, dec.n_time_slabs - 2, dec.n_time_slabs]
    parts = [sample(traj, dec, slice(a, b)) for a, b in zip(edges, edges[1:])]
    grid = traj.grid
    for (a, b), part in zip(zip(edges, edges[1:]), parts):
        assert part.first_slab == a and part.blocks.tolist() == whole.blocks.tolist()
        assert part.window == whole.window == (0.0, dec.duration)
        assert np.array_equal(part.r_sample, whole.r_sample[a:b])
        assert np.array_equal(part.U_sample, whole.U_sample[a:b])
        inner = dec.time_breaks[a:b]
        r, u = part.values_at_time(inner, grid)
        r_whole, u_whole = whole.values_at_time(inner, grid)
        assert np.array_equal(r, r_whole) and np.array_equal(u, u_whole)
        for k in (a - 1, b):  # the slabs on either side
            if 0 <= k < dec.n_time_slabs:
                with pytest.raises(ValueError, match="outside the stored slabs"):
                    part.values_at_time(dec.time_breaks[k], grid)
    errors = [interpolation_error(part, traj) for part in parts]
    assert max(e.sup_err_r for e in errors) == interpolation_error(whole, traj).sup_err_r
    assert max(e.sup_err_U for e in errors) == interpolation_error(whole, traj).sup_err_U
    with pytest.raises(ValueError, match="sample arrays must have shape"):
        MeasurementSet(dec, whole.r_sample[:3], whole.U_sample[:3], whole.blocks, edges[-2])


@pytest.mark.parametrize("placement, held", [("center", 2), ("jittered", 2)])
def test_sample_holds_its_samples_and_row_block_transients(placement, held):
    # traced memory of sample(): the two stored (K, n_ref) arrays; every
    # other temporary, jittered control points included, spans ROW_BLOCK
    # slabs, not the tiling
    traj = random_truth()
    dec = build_decomposition(1e-3, 1.0, 1.0, placement=placement, seed=5)
    tracemalloc.start()
    try:
        ms = sample(traj, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = ms.r_sample.nbytes
    assert stored == 1415 * 256 * 8
    assert peak - held * stored < 2 * 2**20


def test_negative_seed_raises_at_construction():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        build_decomposition(0.1, 1.0, 1.0, "jittered", -1)
