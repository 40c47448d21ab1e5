"""Space-time decomposition of the assimilation cylinder, control points, and
the piecewise-constant interpolation of sampled observations.

The cylinder [0, T] x [0, length] is tiled by a uniform tensor product of
time slabs and space blocks whose space-time diameter is at most delta.  One
control point per cell is chosen (cell centers, or uniformly jittered by a
seeded counter-based generator, ``_uniforms``).  The nudged run reads the
field only on the grid's cell centers, so only the space blocks that hold a
center are sampled: the observed trajectory is read off at their control
points, and the stored samples define a piecewise-constant field on those
blocks.  The nudged run sees observations exclusively through the resulting
MeasurementSet.

Membership convention: points lying on an internal breakpoint belong to the
cell on the right/above, and the final breakpoint belongs to the last cell,
so the tiling is an exact partition in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .field import Grid1D, Trajectory, row_chunks

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
]

PLACEMENTS = ("center", "jittered")
# Size guard: the most (slab, block) cells sampled over the whole tiling, K
# slabs times the n_ref sampled blocks.  ``sample`` over every slab stores
# them all; a twin's slab window holds one block of slabs, about K n_ref
# (block span / T) cells, so it still grows with them.  A default twin grew
# its peak RSS over the import by 2.3 MiB at delta = 1e-3, by 13.6 MiB at
# 1e-4 (3.6M cells) and, with the guard lifted, by 127 MiB in 3.6 s at 1e-5
# (36.2M cells), on a 2-core Xeon host.
MAX_STORED_CELLS = 5_000_000


# SplitMix64 (Steele, Lea & Flood 2014): the Weyl increment and the two
# multipliers of its finalizer
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1, _MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64 = 2**64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array; array arithmetic
    wraps mod 2**64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_2)
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1), one per counter: draw n of the SplitMix64
    stream whose key is the finalizer of seed + GOLDEN, that is the
    finalizer of key + (n + 1) GOLDEN, as (z >> 11) 2**-53.  Each draw
    depends on its counter alone, so any subset of counters gets the values
    of the whole stream.  ``counters`` is a uint64 array, mixed in place."""
    key = _mix64(np.array([(seed + _GOLDEN) % _U64], dtype=np.uint64))
    z = counters
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += key
    _mix64(z)
    z >>= np.uint64(11)
    draws = z.astype(float)
    draws *= 2.0**-53
    return draws


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
    axes.  Control points are computed on request, for the slabs and blocks
    asked for only.  The jittered point of slab k in block i takes draws
    2 c and 2 c + 1 of the seed's counter-based stream (``_uniforms``), c =
    i K + k, for its time and its position, so any slab range over any
    subset of blocks gets the values of the whole tiling, and no draw is
    held between calls.  The seed must lie in [0, 2**64), whatever the
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
        if self.seed >= _U64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
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

    def control_points(self, blocks, slabs: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Control times and positions of the time slabs ``slabs`` (a slice,
        by default every slab) over the given space blocks: two (n,
        len(blocks)) arrays, row r for slab slabs.start + r, column j for
        block blocks[j].  Jittered points are drawn for these cells only."""
        blocks = np.asarray(blocks, dtype=int)
        first, stop, _ = slabs.indices(self.n_time_slabs)
        tb, xb = self.time_breaks[first:stop + 1], self.space_breaks
        shape = (stop - first, blocks.size)
        if self.placement == "center":
            t_mid = 0.5 * (tb[:-1] + tb[1:])
            x_mid = 0.5 * (xb[blocks] + xb[blocks + 1])
            return np.broadcast_to(t_mid[:, None], shape), np.broadcast_to(x_mid, shape)
        # counter of cell (k, i): i K + k; draw 2 c for its time, 2 c + 1 for its position
        cell = blocks.astype(np.uint64) * np.uint64(self.n_time_slabs)
        cell = cell + np.arange(first, stop, dtype=np.uint64)[:, None]
        counters = np.uint64(2) * cell + np.arange(2, dtype=np.uint64)[:, None, None]
        # t* = lo + draw * width on each axis, formed in place over the draws
        t_star, x_star = _uniforms(self.seed, counters)
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

    Raises ValueError, before any sample array exists, when they hold more
    than MAX_STORED_CELLS cells over every time slab: the cells ``sample``
    over every slab stores, and those a twin's one-block slab window is a
    fixed share of.
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

    r_sample and U_sample are (n, len(blocks)) arrays: row i holds slab
    first_slab + i, column j space block blocks[j]; by default every block
    is stored.  A set holds every slab or a run of n consecutive ones, a
    slab window, which a twin keeps while its nudged run moves through the
    slabs; reading a time in a slab it does not hold raises ValueError.
    This is the only observed data the nudged run may read.
    """

    decomposition: SpaceTimeDecomposition
    r_sample: np.ndarray
    U_sample: np.ndarray
    blocks: np.ndarray | None = None
    first_slab: int = 0

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
        r = np.asarray(self.r_sample, dtype=float)
        u = np.asarray(self.U_sample, dtype=float)
        first = int(self.first_slab)
        n = len(r) if r.ndim == 2 else 0
        if (
            r.shape != (n, blocks.size)
            or u.shape != r.shape
            or not 0 <= first < first + n <= dec.n_time_slabs
        ):
            raise ValueError(
                f"sample arrays must have shape (n, {blocks.size}) for n >= 1 slabs "
                f"from slab {first}, of {dec.n_time_slabs}"
            )
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
            raise ValueError("samples must be finite")
        if np.any(r <= 0.0):
            raise ValueError("sampled densities must be positive")
        for arr in (r, u, blocks):
            arr.setflags(write=False)
        object.__setattr__(self, "r_sample", r)
        object.__setattr__(self, "U_sample", u)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "first_slab", first)
        object.__setattr__(self, "_grid_columns", {})

    @property
    def window(self) -> tuple[float, float]:
        """The span of the tiling, (0, duration), on which the gains act
        (``dynamics.active``), whichever slabs the set holds."""
        return 0.0, self.decomposition.duration

    def _columns(self, x):
        """Stored column of the space block that holds each position."""
        block = self.decomposition.space_block_index(x)
        col = np.minimum(np.searchsorted(self.blocks, block), self.blocks.size - 1)
        if (self.blocks[col] != block).any():
            raise ValueError("a position lies in a space block that was not sampled")
        return col

    def _rows(self, t):
        """Stored row of the time slab that holds each time."""
        k = self.decomposition.time_slab_index(t) - self.first_slab
        # a row below 0 wraps to a huge unsigned value: one test, both ends
        if np.count_nonzero(k.view(np.uintp) >= len(self.r_sample)):
            raise ValueError("a time lies in a slab outside the stored slabs")
        return k

    def interpolant_value(self, t: float, x: float) -> Sample:
        """Piecewise-constant field value at (t, x): the stored sample of
        the unique containing cell."""
        k = int(self._rows(t))
        j = int(self._columns(x))
        return Sample(float(self.r_sample[k, j]), float(self.U_sample[k, j]))

    def values_at_time(self, t, grid: Grid1D):
        """Interpolant values (r, U) on ``grid``'s cell centers: one row for
        a scalar time t, one row per time for an array.  The stored column
        of each center is looked up once per grid."""
        cols = self._grid_columns.get(grid)
        if cols is None:
            cols = self._grid_columns[grid] = self._columns(grid.cell_centers())
        k = self._rows(t)
        return self.r_sample[k].take(cols, axis=-1), self.U_sample[k].take(cols, axis=-1)


def sample(traj: Trajectory, dec: SpaceTimeDecomposition, slabs: slice = slice(None)) -> MeasurementSet:
    """Read the observed trajectory at the control points of the blocks
    that hold ``traj.grid``'s cell centers (``sampled_blocks``), over the
    time slabs ``slabs`` (a slice, by default every slab): the measurement
    set of those slabs.

    Space is resolved to the nearest grid cell, time by linear interpolation
    between adjacent snapshots.  The truth is read a chunk of slabs at a
    time (``row_chunks`` over the stored blocks: at most ``CHUNK_CELLS``
    cells), each chunk's control points drawn then (``control_points`` over
    its slabs), into sample arrays allocated once, so no temporary of the
    read grows with the slabs.  The truth must cover the slabs' control
    times: one outside its snapshots raises ValueError
    (``Trajectory.point_values``).
    """
    grid = traj.grid
    blocks = sampled_blocks(dec, grid)
    first, stop, _ = slabs.indices(dec.n_time_slabs)
    shape = (stop - first, blocks.size)
    r, u = np.empty(shape), np.empty(shape)
    for rows in row_chunks(*shape):
        t_star, x_star = dec.control_points(blocks, slice(first + rows.start, first + rows.stop))
        cells = np.clip(np.round(x_star / grid.dx - 0.5).astype(int), 0, grid.n_cells - 1)
        r[rows], u[rows] = traj.point_values(t_star, cells)
    return MeasurementSet(dec, r, u, blocks, first)


def interpolation_error(ms: MeasurementSet, traj: Trajectory) -> InterpolationError:
    """Sup-norm gap between the piecewise-constant field and the trajectory
    over all grid cells, on the slabs ``ms`` holds: at the snapshot times in
    those slabs and at the midpoint of each, so a slab narrower than the
    snapshot spacing is still checked.  On a whole set that is every
    snapshot time inside the assimilation window; a maximum, it folds
    exactly over consecutive slab windows, whose snapshots and midpoints the
    trajectory must cover.  The trajectory is read through
    ``Trajectory.fields_at``, the field through ``values_at_time``, the
    nudged run's own reader, a chunk of times at a time (``row_chunks``
    over the grid's cells), so no temporary grows with the times."""
    dec = ms.decomposition
    tb = dec.time_breaks
    first, stop = ms.first_slab, ms.first_slab + len(ms.r_sample)
    times = traj.times[(traj.times >= 0.0) & (traj.times <= dec.duration)]
    slab = dec.time_slab_index(times)
    inside = times[(slab >= first) & (slab < stop)]
    ts = np.concatenate((inside, 0.5 * (tb[first:stop] + tb[first + 1:stop + 1])))
    err_r = err_u = 0.0
    for rows in row_chunks(ts.size, traj.grid.n_cells):
        rho, mom = traj.fields_at(ts[rows])
        r_obs, u_obs = ms.values_at_time(ts[rows], traj.grid)
        err_r = max(err_r, float(np.abs(r_obs - rho).max()))
        err_u = max(err_u, float(np.abs(u_obs - mom / rho).max()))
    return InterpolationError(sup_err_r=err_r, sup_err_U=err_u)

