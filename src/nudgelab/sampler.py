"""Space-time decomposition of the assimilation cylinder, control points, and
the piecewise-constant interpolation of sampled observations.

The cylinder [0, T] x [0, length] is tiled by a uniform tensor product of
time slabs and space blocks whose space-time diameter is at most delta.  One
control point per cell is chosen (cell centers, or uniformly jittered from a
seeded generator).  The nudged run reads the field only on the grid's cell
centers, so only the space blocks that hold a center are sampled: the
observed trajectory is read off at their control points, and the stored
samples define a piecewise-constant field on those blocks.  The nudged run
sees observations exclusively through the resulting MeasurementSet.

Membership convention: points lying on an internal breakpoint belong to the
cell on the right/above, and the final breakpoint belongs to the last cell,
so the tiling is an exact partition in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .field import Grid1D, Trajectory, row_blocks, save_series

__all__ = [
    "SpaceTimeDecomposition",
    "MeasurementSet",
    "Sample",
    "InterpolationError",
    "MAX_STORED_CELLS",
    "build_decomposition",
    "sampled_blocks",
    "sample",
    "interpolation_error",
    "save_measurements",
]

PLACEMENTS = ("center", "jittered")
# Memory guard: the most (slab, block) cells one measurement set may store.
MAX_STORED_CELLS = 5_000_000


def _cell_index(breaks: np.ndarray, values, label: str):
    """Index of the containing cell per the right-closed convention: a
    search over the inner breaks, so the last break falls in the last cell.
    A scalar gives a numpy integer, an array one index per value."""
    values = np.asarray(values, dtype=float)
    inside = (values >= breaks[0]) & (values <= breaks[-1])  # False for NaN
    if np.count_nonzero(inside) != inside.size:
        raise ValueError(f"{label} outside [{breaks[0]:g}, {breaks[-1]:g}]")
    return np.searchsorted(breaks[1:-1], values, side="right")


@dataclass(frozen=True)
class SpaceTimeDecomposition:
    """Uniform tensor tiling of [0, duration] x [0, length] into
    n_time_slabs x n_space_blocks cells, with one control point per cell.

    time_breaks and space_breaks are the np.linspace breakpoints of the two
    axes.  Control points are computed on request, for the blocks asked for
    only.  Jittered points of block i come from one generator keyed
    SeedSequence(seed, spawn_key=(i,)), so any subset of blocks gets the
    values of the full tiling.  The seed must be >= 0, whatever the
    placement.
    """

    delta: float
    duration: float
    length: float
    n_time_slabs: int
    n_space_blocks: int
    placement: str = "center"
    seed: int = 0
    time_breaks: np.ndarray = field(init=False, repr=False, compare=False)
    space_breaks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.n_time_slabs, self.n_space_blocks) < 1:
            raise ValueError("slab and block counts must be >= 1")
        for name, extent, count in (
            ("time_breaks", self.duration, self.n_time_slabs),
            ("space_breaks", self.length, self.n_space_blocks),
        ):
            breaks = np.linspace(0.0, extent, count + 1)
            breaks.setflags(write=False)
            object.__setattr__(self, name, breaks)

    @property
    def n_cells(self) -> int:
        return self.n_time_slabs * self.n_space_blocks

    @property
    def t_star(self) -> np.ndarray:
        """(K, M) control times of the whole tiling."""
        return self.control_points(np.arange(self.n_space_blocks))[0]

    @property
    def x_star(self) -> np.ndarray:
        """(K, M) control positions of the whole tiling."""
        return self.control_points(np.arange(self.n_space_blocks))[1]

    def time_slab_index(self, t):
        return _cell_index(self.time_breaks, t, "time")

    def space_block_index(self, x):
        return _cell_index(self.space_breaks, x, "position")

    def control_points(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Control times and positions of every slab over the given space
        blocks: two (K, len(blocks)) arrays, column j for block blocks[j]."""
        blocks = np.asarray(blocks, dtype=int)
        tb, xb = self.time_breaks, self.space_breaks
        shape = (self.n_time_slabs, blocks.size)
        if self.placement == "center":
            t_mid = 0.5 * (tb[:-1] + tb[1:])
            x_mid = 0.5 * (xb[blocks] + xb[blocks + 1])
            return np.broadcast_to(t_mid[:, None], shape), np.broadcast_to(x_mid, shape)
        draws = np.empty((2,) + shape)  # per block: K time draws, then K position draws
        for j, i in enumerate(blocks.tolist()):
            key = np.random.SeedSequence(self.seed, spawn_key=(i,))
            draws[:, :, j] = np.random.default_rng(key).uniform(size=(2, self.n_time_slabs))
        # t* = lo + draw * width on each axis, formed in place over the draws
        t_star, x_star = draws
        t_star *= np.diff(tb)[:, None]
        t_star += tb[:-1, None]
        x_star *= xb[blocks + 1] - xb[blocks]
        x_star += xb[blocks]
        return t_star, x_star


def _tiling_counts(delta: float, duration: float, length: float) -> tuple[int, int]:
    """Slab and block counts of the tiling with cell diameter at most delta.

    Slab and block widths target delta/sqrt(2) each; the counts are bumped
    if floating-point breakpoints would overshoot the diameter bound.  When
    delta already covers the whole cylinder a single cell is produced.  A
    slab or block count above MAX_STORED_CELLS raises ValueError on its own,
    whatever ``sampled_blocks`` would store.
    """
    if not (delta > 0.0 and duration > 0.0 and length > 0.0):
        raise ValueError("delta, duration, and length must be positive")
    if math.hypot(duration, length) <= delta:
        k, m = 1, 1
    else:
        half = delta / math.sqrt(2.0)
        # capped so that a ratio that overflows still reaches the guard below
        k = max(1, math.ceil(min(duration / half, MAX_STORED_CELLS + 1)))
        m = max(1, math.ceil(min(length / half, MAX_STORED_CELLS + 1)))
    while True:
        if max(k, m) > MAX_STORED_CELLS:
            raise ValueError(
                f"tiling needs over {MAX_STORED_CELLS} slabs or blocks, more "
                "breakpoints than a measurement set may store cells"
            )
        wt = float(np.max(np.diff(np.linspace(0.0, duration, k + 1))))
        wx = float(np.max(np.diff(np.linspace(0.0, length, m + 1))))
        if math.hypot(wt, wx) <= delta or (k == 1 and m == 1):
            return k, m
        if wt >= wx:
            k += 1
        else:
            m += 1


def build_decomposition(
    delta: float,
    duration: float,
    length: float,
    placement: str = "center",
    seed: int = 0,
) -> SpaceTimeDecomposition:
    """Uniform tensor decomposition with cell diameter at most delta.
    ``placement`` selects cell centers or a seeded uniform jitter.
    """
    k, m = _tiling_counts(delta, duration, length)
    return SpaceTimeDecomposition(delta, duration, length, k, m, placement, seed)


def sampled_blocks(dec: SpaceTimeDecomposition, grid: Grid1D) -> np.ndarray:
    """The space blocks that hold ``grid``'s cell centers, in increasing
    order: the blocks ``sample`` stores.

    Raises ValueError, before any sample array exists, when storing them
    over every time slab would take more than MAX_STORED_CELLS cells.
    """
    idx = dec.space_block_index(grid.cell_centers())  # sorted, as the centers are
    blocks = idx[np.diff(idx, prepend=-1) > 0]
    stored = dec.n_time_slabs * blocks.size
    if stored > MAX_STORED_CELLS:
        raise ValueError(
            f"sampling stores {stored} cells ({dec.n_time_slabs} slabs x "
            f"{blocks.size} blocks), exceeding {MAX_STORED_CELLS}"
        )
    return blocks


class Sample(NamedTuple):
    r: float
    U: float


@dataclass(frozen=True)
class InterpolationError:
    sup_err_r: float
    sup_err_U: float


@dataclass(frozen=True)
class MeasurementSet:
    """Sampled observed values, one (density, velocity) pair per stored cell.

    r_sample and U_sample are (K, len(blocks)) arrays whose column j holds
    the cells of space block blocks[j]; by default every block is stored.
    This is the only observed data the nudged run may read.
    """

    decomposition: SpaceTimeDecomposition
    r_sample: np.ndarray
    U_sample: np.ndarray
    blocks: np.ndarray | None = None

    def __post_init__(self):
        dec = self.decomposition
        n_blocks = dec.n_space_blocks
        blocks = np.arange(n_blocks) if self.blocks is None else np.asarray(self.blocks, dtype=int)
        if (
            blocks.ndim != 1
            or blocks.size == 0
            or (np.diff(blocks) <= 0).any()
            or blocks[0] < 0
            or blocks[-1] >= n_blocks
        ):
            raise ValueError(f"blocks must be increasing indices below {n_blocks}")
        shape = (dec.n_time_slabs, blocks.size)
        r = np.asarray(self.r_sample, dtype=float)
        u = np.asarray(self.U_sample, dtype=float)
        if r.shape != shape or u.shape != shape:
            raise ValueError(f"sample arrays must have shape {shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
            raise ValueError("samples must be finite")
        if np.any(r <= 0.0):
            raise ValueError("sampled densities must be positive")
        for arr in (r, u, blocks):
            arr.setflags(write=False)
        object.__setattr__(self, "r_sample", r)
        object.__setattr__(self, "U_sample", u)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_grid_columns", {})

    def _columns(self, x):
        """Stored column of the space block that holds each position."""
        block = self.decomposition.space_block_index(x)
        col = np.minimum(np.searchsorted(self.blocks, block), self.blocks.size - 1)
        if (self.blocks[col] != block).any():
            raise ValueError("a position lies in a space block that was not sampled")
        return col

    def interpolant_value(self, t: float, x: float) -> Sample:
        """Piecewise-constant field value at (t, x): the stored sample of
        the unique containing cell."""
        k = int(self.decomposition.time_slab_index(t))
        j = int(self._columns(x))
        return Sample(float(self.r_sample[k, j]), float(self.U_sample[k, j]))

    def values_at_time(self, t, grid: Grid1D):
        """Interpolant values (r, U) on ``grid``'s cell centers: one row for
        a scalar time t, one row per time for an array.  The stored column
        of each center is looked up once per grid."""
        cols = self._grid_columns.get(grid)
        if cols is None:
            cols = self._grid_columns[grid] = self._columns(grid.cell_centers())
        k = self.decomposition.time_slab_index(t)
        return self.r_sample[k].take(cols, axis=-1), self.U_sample[k].take(cols, axis=-1)


def sample(traj: Trajectory, dec: SpaceTimeDecomposition) -> MeasurementSet:
    """Read the observed trajectory at the control points of the blocks
    that hold ``traj.grid``'s cell centers (``sampled_blocks``).

    Space is resolved to the nearest grid cell, time by linear interpolation
    between adjacent snapshots.  The truth is read ``ROW_BLOCK`` slabs at a
    time into sample arrays allocated once, so no temporary of the read
    spans the tiling.  The truth must cover [0, duration]: a control time
    outside its snapshots raises ValueError (``Trajectory.point_values``).
    """
    grid = traj.grid
    blocks = sampled_blocks(dec, grid)
    t_star, x_star = dec.control_points(blocks)
    r, u = np.empty(t_star.shape), np.empty(t_star.shape)
    for rows in row_blocks(dec.n_time_slabs):
        cells = np.clip(
            np.round(x_star[rows] / grid.dx - 0.5).astype(int), 0, grid.n_cells - 1
        )
        r[rows], u[rows] = traj.point_values(t_star[rows], cells)
    return MeasurementSet(dec, r, u, blocks)


def interpolation_error(ms: MeasurementSet, traj: Trajectory) -> InterpolationError:
    """Sup-norm gap between the piecewise-constant field and the trajectory
    over all grid cells, at the snapshot times inside the assimilation
    window and at the midpoint of every time slab, so a slab narrower than
    the snapshot spacing is still checked.  The trajectory is read through
    ``Trajectory.fields_at``, the field through ``values_at_time``, the
    nudged run's own reader."""
    dec = ms.decomposition
    tb = dec.time_breaks
    inside = traj.times[(traj.times >= 0.0) & (traj.times <= dec.duration)]
    ts = np.concatenate((inside, 0.5 * (tb[:-1] + tb[1:])))
    err_r = err_u = 0.0
    for rows in row_blocks(ts.size):
        rho, mom = traj.fields_at(ts[rows])
        r_obs, u_obs = ms.values_at_time(ts[rows], traj.grid)
        err_r = max(err_r, float(np.abs(r_obs - rho).max()))
        err_u = max(err_u, float(np.abs(u_obs - mom / rho).max()))
    return InterpolationError(sup_err_r=err_r, sup_err_U=err_u)


def save_measurements(path, ms: MeasurementSet) -> None:
    """CSV export, one row per stored cell in (slab, block) row-major order:
    K x len(ms.blocks) rows, under a ``# delta=`` comment line; written one
    slab at a time."""
    dec, blocks = ms.decomposition, ms.blocks
    tb, xb = dec.time_breaks, dec.space_breaks
    t_star, x_star = dec.control_points(blocks)
    slabs = (
        np.column_stack((
            np.full(blocks.size, tb[k]), np.full(blocks.size, tb[k + 1]),
            xb[blocks], xb[blocks + 1], t_star[k], x_star[k],
            ms.r_sample[k], ms.U_sample[k],
        ))
        for k in range(dec.n_time_slabs)
    )
    header = ("t_lo", "t_hi", "x_lo", "x_hi", "t_star", "x_star", "r_sample", "U_sample")
    save_series(path, header, slabs, {"delta": dec.delta})
