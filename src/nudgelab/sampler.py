"""Space-time decomposition of the assimilation cylinder, control points, and
the piecewise-constant interpolation of sampled observations.

The cylinder [0, T] x [0, length] is tiled by a uniform tensor product of
time slabs and space blocks whose space-time diameter is at most delta.  One
control point per cell is chosen (cell centers, or uniformly jittered from a
seeded generator), the observed trajectory is read off at the control points
only, and the stored samples define a piecewise-constant field.  The nudged
run sees observations exclusively through the resulting MeasurementSet.

Membership convention: points lying on an internal breakpoint belong to the
cell on the right/above, and the final breakpoint belongs to the last cell,
so the tiling is an exact partition in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .field import Grid1D, Trajectory

__all__ = [
    "SpaceTimeDecomposition",
    "MeasurementSet",
    "Sample",
    "InterpolationError",
    "tiling_breaks",
    "build_decomposition",
    "sample",
    "interpolation_error",
    "save_measurements",
    "load_measurements",
]

PLACEMENTS = ("center", "jittered")


def _cell_index(breaks: np.ndarray, values, label: str):
    """Index of the containing cell per the right-closed convention."""
    values = np.asarray(values, dtype=float)
    if (values < breaks[0]).any() or (values > breaks[-1]).any():
        raise ValueError(f"{label} outside [{breaks[0]:g}, {breaks[-1]:g}]")
    idx = np.searchsorted(breaks, values, side="right") - 1
    return np.minimum(idx, breaks.size - 2)


@dataclass(frozen=True)
class SpaceTimeDecomposition:
    """Tensor tiling of [0, T] x [0, length] with one control point per cell.

    time_breaks and space_breaks hold the K+1 and M+1 breakpoints; t_star
    and x_star are (K, M) arrays of control-point coordinates, each lying in
    its own cell.
    """

    delta: float
    time_breaks: np.ndarray
    space_breaks: np.ndarray
    t_star: np.ndarray
    x_star: np.ndarray

    def __post_init__(self):
        tb = np.asarray(self.time_breaks, dtype=float)
        xb = np.asarray(self.space_breaks, dtype=float)
        if np.any(np.diff(tb) <= 0.0) or np.any(np.diff(xb) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        k, m = tb.size - 1, xb.size - 1
        ts = np.asarray(self.t_star, dtype=float)
        xs = np.asarray(self.x_star, dtype=float)
        if ts.shape != (k, m) or xs.shape != (k, m):
            raise ValueError("control point arrays must be (K, M)")
        diam = math.hypot(float(np.max(np.diff(tb))), float(np.max(np.diff(xb))))
        if diam > self.delta:
            raise ValueError(f"cell diameter {diam:g} exceeds delta {self.delta:g}")
        if np.any(_cell_index(tb, ts, "control time") != np.arange(k)[:, None]):
            raise ValueError("a control time lies outside its slab")
        if np.any(_cell_index(xb, xs, "control position") != np.arange(m)[None, :]):
            raise ValueError("a control position lies outside its block")
        for arr in (tb, xb, ts, xs):
            arr.setflags(write=False)
        object.__setattr__(self, "time_breaks", tb)
        object.__setattr__(self, "space_breaks", xb)
        object.__setattr__(self, "t_star", ts)
        object.__setattr__(self, "x_star", xs)

    @property
    def n_time_slabs(self) -> int:
        return self.time_breaks.size - 1

    @property
    def n_space_blocks(self) -> int:
        return self.space_breaks.size - 1

    @property
    def n_cells(self) -> int:
        return self.n_time_slabs * self.n_space_blocks

    def time_slab_index(self, t):
        return _cell_index(self.time_breaks, t, "time")

    def space_block_index(self, x):
        return _cell_index(self.space_breaks, x, "position")


def tiling_breaks(
    delta: float,
    duration: float,
    length: float,
    placement: str = "center",
    cell_cap: int = 5_000_000,
):
    """Time and space breakpoints of the tiling ``build_decomposition``
    produces, found without its (K, M) control-point arrays.

    Slab and block widths target delta/sqrt(2) each; the counts are bumped
    if floating-point breakpoints would overshoot the diameter bound.  When
    delta already covers the whole cylinder a single cell is produced.
    Raises CapacityError when the tiling needs more than ``cell_cap`` cells.
    """
    if not (delta > 0.0 and duration > 0.0 and length > 0.0):
        raise ValueError("delta, duration, and length must be positive")
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}")
    if math.hypot(duration, length) <= delta:
        k, m = 1, 1
    else:
        half = delta / math.sqrt(2.0)
        k = max(1, math.ceil(duration / half))
        m = max(1, math.ceil(length / half))
    while True:
        if k * m > cell_cap:
            raise CapacityError(
                f"decomposition needs {k * m} cells, exceeding the cap {cell_cap}"
            )
        tb = np.linspace(0.0, duration, k + 1)
        xb = np.linspace(0.0, length, m + 1)
        diam = math.hypot(float(np.max(np.diff(tb))), float(np.max(np.diff(xb))))
        if diam <= delta or (k == 1 and m == 1):
            return tb, xb
        if np.max(np.diff(tb)) >= np.max(np.diff(xb)):
            k += 1
        else:
            m += 1


def build_decomposition(
    delta: float,
    duration: float,
    length: float,
    placement: str = "center",
    seed: int | None = None,
    cell_cap: int = 5_000_000,
) -> SpaceTimeDecomposition:
    """Uniform tensor decomposition with cell diameter at most delta, on the
    breakpoints of ``tiling_breaks``.  ``placement`` selects cell centers or
    a seeded uniform jitter.
    """
    tb, xb = tiling_breaks(delta, duration, length, placement, cell_cap)
    k, m = tb.size - 1, xb.size - 1
    t_mid = 0.5 * (tb[:-1] + tb[1:])
    x_mid = 0.5 * (xb[:-1] + xb[1:])
    if placement == "center":
        t_star = np.broadcast_to(t_mid[:, None], (k, m)).copy()
        x_star = np.broadcast_to(x_mid[None, :], (k, m)).copy()
    else:
        rng = np.random.default_rng(seed)
        t_star = tb[:-1, None] + rng.uniform(size=(k, m)) * np.diff(tb)[:, None]
        x_star = xb[None, :-1] + rng.uniform(size=(k, m)) * np.diff(xb)[None, :]
    return SpaceTimeDecomposition(delta, tb, xb, t_star, x_star)


class Sample(NamedTuple):
    r: float
    U: float


@dataclass(frozen=True)
class InterpolationError:
    sup_err_r: float
    sup_err_U: float


@dataclass(frozen=True)
class MeasurementSet:
    """Sampled observed values, one (density, velocity) pair per cell.

    This is the only observed data the nudged run may read.
    """

    decomposition: SpaceTimeDecomposition
    r_sample: np.ndarray
    U_sample: np.ndarray

    def __post_init__(self):
        dec = self.decomposition
        shape = (dec.n_time_slabs, dec.n_space_blocks)
        r = np.asarray(self.r_sample, dtype=float)
        u = np.asarray(self.U_sample, dtype=float)
        if r.shape != shape or u.shape != shape:
            raise ValueError(f"sample arrays must have shape {shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
            raise ValueError("samples must be finite")
        if np.any(r <= 0.0):
            raise ValueError("sampled densities must be positive")
        r.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "r_sample", r)
        object.__setattr__(self, "U_sample", u)
        object.__setattr__(self, "_grid_blocks", {})

    def interpolant_value(self, t: float, x: float) -> Sample:
        """Piecewise-constant field value at (t, x): the stored sample of
        the unique containing cell."""
        k = int(self.decomposition.time_slab_index(t))
        i = int(self.decomposition.space_block_index(x))
        return Sample(float(self.r_sample[k, i]), float(self.U_sample[k, i]))

    def values_at_time(self, t: float, block_idx: np.ndarray):
        """Row of interpolant values at time t gathered onto precomputed
        space-block indices (the fast path used by the integrator)."""
        k = int(self.decomposition.time_slab_index(t))
        return self.r_sample[k, block_idx], self.U_sample[k, block_idx]

    def values_on_grid(self, t: float, grid: Grid1D):
        """Values at time t on the cell centers, block-indexed once per grid."""
        blocks = self._grid_blocks.get(grid)
        if blocks is None:
            blocks = self.decomposition.space_block_index(grid.cell_centers())
            self._grid_blocks[grid] = blocks
        return self.values_at_time(t, blocks)


def sample(traj: Trajectory, dec: SpaceTimeDecomposition) -> MeasurementSet:
    """Read the observed trajectory at every control point.

    Space is resolved to the nearest grid cell, time by linear interpolation
    between adjacent snapshots.
    """
    if not traj.covers(float(dec.time_breaks[0]), float(dec.time_breaks[-1])):
        raise ValueError("decomposition time range not covered by trajectory")
    grid = traj.grid
    cells = np.clip(
        np.round(dec.x_star.ravel() / grid.dx - 0.5).astype(int), 0, grid.n_cells - 1
    )
    ts = np.clip(dec.t_star.ravel(), traj.times[0], traj.times[-1])
    r, u = traj.point_values(ts, cells)
    shape = dec.t_star.shape
    return MeasurementSet(dec, r.reshape(shape), u.reshape(shape))


def interpolation_error(ms: MeasurementSet, traj: Trajectory) -> InterpolationError:
    """Sup-norm gap between the piecewise-constant field and the trajectory,
    evaluated on the lattice of snapshot times inside the assimilation
    window times all grid cells."""
    dec = ms.decomposition
    t0, t1 = float(dec.time_breaks[0]), float(dec.time_breaks[-1])
    mask = (traj.times >= t0) & (traj.times <= t1)
    times = traj.times[mask]
    if times.size == 0:
        raise ValueError("no snapshot times inside the decomposition window")
    slab = dec.time_slab_index(times)
    block = dec.space_block_index(traj.grid.cell_centers())
    r_interp = ms.r_sample[slab[:, None], block[None, :]]
    u_interp = ms.U_sample[slab[:, None], block[None, :]]
    rho = traj.rho[mask]
    vel = traj.mom[mask] / rho
    return InterpolationError(
        sup_err_r=float(np.max(np.abs(r_interp - rho))),
        sup_err_U=float(np.max(np.abs(u_interp - vel))),
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_measurements(path, ms: MeasurementSet) -> None:
    """CSV export, one row per cell in (slab, block) row-major order."""
    dec = ms.decomposition
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# delta={_fmt(dec.delta)}\n")
        fh.write("t_lo,t_hi,x_lo,x_hi,t_star,x_star,r_sample,U_sample\n")
        for k in range(dec.n_time_slabs):
            t_lo, t_hi = dec.time_breaks[k], dec.time_breaks[k + 1]
            for i in range(dec.n_space_blocks):
                fh.write(
                    ",".join(
                        _fmt(v)
                        for v in (
                            t_lo,
                            t_hi,
                            dec.space_breaks[i],
                            dec.space_breaks[i + 1],
                            dec.t_star[k, i],
                            dec.x_star[k, i],
                            ms.r_sample[k, i],
                            ms.U_sample[k, i],
                        )
                    )
                    + "\n"
                )


def load_measurements(path) -> MeasurementSet:
    path = Path(path)
    with open(path) as fh:
        meta = fh.readline()
        if not meta.startswith("# delta="):
            raise ValueError(f"{path}: missing measurement metadata line")
        delta = float(meta.split("=", 1)[1])
        header = fh.readline().strip()
        if header != "t_lo,t_hi,x_lo,x_hi,t_star,x_star,r_sample,U_sample":
            raise ValueError(f"{path}: unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    t_lo = np.unique(data[:, 0])
    x_lo = np.unique(data[:, 2])
    k, m = t_lo.size, x_lo.size
    if k * m != data.shape[0]:
        raise ValueError(f"{path}: rows do not form a tensor decomposition")
    tb = np.concatenate([t_lo, [data[:, 1].max()]])
    xb = np.concatenate([x_lo, [data[:, 3].max()]])
    dec = SpaceTimeDecomposition(
        delta,
        tb,
        xb,
        data[:, 4].reshape(k, m),
        data[:, 5].reshape(k, m),
    )
    return MeasurementSet(dec, data[:, 6].reshape(k, m), data[:, 7].reshape(k, m))
