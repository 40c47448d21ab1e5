"""Discrete 1D fields: grid geometry, flow states, trajectories, the no-slip
seminorm, and the package's one CSV table writer and reader.

The domain is an interval [0, length] split into n_cells uniform cells with
centers x_j = (j + 1/2) * dx and no-slip walls at both ends.  Wall treatment
is realized through ghost cells: velocity (and hence momentum, since density
is reflected evenly) is reflected oddly, density evenly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VacuumError

__all__ = [
    "Grid1D",
    "FluidState",
    "Trajectory",
    "ghost_pad",
    "noslip_seminorm_sq",
    "save_series",
    "load_series",
    "save_trajectory",
    "load_trajectory",
]

# trajectory rows evaluated or written together, which bounds the
# (rows, n_cells) temporaries: with 128 rows the gain sweep's peak RSS rose
# by 0.5 MiB
ROW_BLOCK = 64


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ROW_BLOCK rows that cover range(n)."""
    return [slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, length] with no-slip walls (the
    ghost cells of ``ghost_pad``)."""

    n_cells: int
    length: float

    def __post_init__(self):
        if int(self.n_cells) != self.n_cells or self.n_cells < 8:
            raise ValueError("n_cells must be an integer >= 8")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise ValueError("length must be finite and > 0")
        centers = (np.arange(self.n_cells) + 0.5) * self.dx
        centers.setflags(write=False)
        object.__setattr__(self, "_centers", centers)

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        """x_j = (j + 1/2) * dx, computed once per grid; shared and read-only."""
        return self._centers


def _frozen_array(values, n: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1D array")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected length {n}, got {arr.shape[0]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FluidState:
    """Density and momentum fields at one time instant.

    Immutable once constructed (the arrays are copied and marked read-only).
    Density must be strictly positive everywhere; a nonpositive cell raises
    VacuumError with the offending index.
    """

    time: float
    rho: np.ndarray
    mom: np.ndarray

    def __post_init__(self):
        rho = _frozen_array(self.rho)
        mom = _frozen_array(self.mom, rho.shape[0])
        if not (np.isfinite(rho).all() and np.isfinite(mom).all()):
            raise ValueError("state fields must be finite")
        if (rho <= 0.0).any():
            cell = int(rho.argmin())
            raise VacuumError(
                f"nonpositive density {rho[cell]:g} in cell {cell}",
                cell=cell,
                time=self.time,
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "mom", mom)

    @property
    def n_cells(self) -> int:
        return self.rho.shape[0]

    def velocity(self) -> np.ndarray:
        """u = mom / rho (density positivity is guaranteed at construction)."""
        return self.mom / self.rho


def ghost_pad(rho: np.ndarray, mom: np.ndarray):
    """Extend (rho, mom) by one ghost cell per wall on the last axis.

    Density is reflected evenly (zero normal gradient), momentum oddly, so
    that the interpolated wall velocity vanishes exactly.
    """
    rp = np.concatenate((rho[..., :1], rho, rho[..., -1:]), axis=-1)
    mp = np.concatenate((-mom[..., :1], mom, -mom[..., -1:]), axis=-1)
    return rp, mp


def noslip_seminorm_sq(grid: Grid1D, u: np.ndarray):
    """Squared discrete H^1_0 seminorm over the last axis: dx * sum of
    one-sided difference quotients, including the wall quotients 2*u/dx
    implied by odd ghosts."""
    dx = grid.dx
    interior = np.diff(u) / dx
    left = 2.0 * u[..., 0] / dx
    right = 2.0 * u[..., -1] / dx
    return dx * (np.sum(interior**2, axis=-1) + left**2 + right**2)


class Trajectory:
    """Time-ordered snapshots of one run, immutable once constructed.

    Snapshots are stored as stacked (n_snapshots, n_cells) arrays for fast
    interpolation and sampling.  Float arrays are taken as they are, not
    copied, and marked read-only: the caller hands them over and must not
    write to them through another reference.  Lists of rows are stacked.
    A run's sup bounds cover its unrecorded steps too, so they are not
    read from the rows: ``integrate`` returns them in its statistics.
    """

    def __init__(self, grid: Grid1D, times, rho, mom):
        times = np.asarray(times, dtype=float)
        rho = np.asarray(rho, dtype=float)
        mom = np.asarray(mom, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("need at least one snapshot")
        if not np.isfinite(times).all():
            raise ValueError("snapshot times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if rho.shape != (times.size, grid.n_cells) or mom.shape != rho.shape:
            raise ValueError("field arrays must be (n_snapshots, n_cells)")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(mom))):
            raise ValueError("trajectory fields must be finite")
        if np.any(rho <= 0.0):
            raise VacuumError("trajectory contains nonpositive density")
        for arr in (times, rho, mom):
            arr.setflags(write=False)
        self.grid = grid
        self.times = times
        self.rho = rho
        self.mom = mom

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    def snapshot(self, i: int) -> FluidState:
        return FluidState(float(self.times[i]), self.rho[i], self.mom[i])

    def _weights(self, ts):
        """Bracketing indices and weights; exact snapshot hits produce
        weights of exactly 0 or 1, so interpolation reproduces stored rows
        bit-for-bit.  A one-snapshot trajectory reads its only row.
        Times outside [times[0], times[-1]], NaN included, raise."""
        t0, t1 = self.times[0], self.times[-1]
        # min and max propagate NaN, which fails both comparisons
        if ts.size and not (t0 <= ts.min() and ts.max() <= t1):
            bad = ts[~((ts >= t0) & (ts <= t1))].flat[0]
            raise ValueError(f"time {bad:g} outside trajectory range [{t0:g}, {t1:g}]")
        if self.n_snapshots == 1:
            lo = np.zeros(np.shape(ts), dtype=int)
            return lo, lo, np.zeros(np.shape(ts))
        hi = np.searchsorted(self.times, ts)
        hi = np.clip(hi, 1, self.n_snapshots - 1)
        lo = hi - 1
        w = (ts - self.times[lo]) / (self.times[hi] - self.times[lo])
        return lo, hi, w

    def fields_at(self, ts):
        """(rho, mom) at times ts, linearly interpolated between stored
        snapshots: one row per time, or one field for a scalar time.
        Times outside the stored range, NaN included, raise."""
        lo, hi, w = self._weights(np.asarray(ts, dtype=float))
        w = w[..., None]
        rho = (1.0 - w) * self.rho[lo] + w * self.rho[hi]
        mom = (1.0 - w) * self.mom[lo] + w * self.mom[hi]
        return rho, mom

    def state_at(self, t: float) -> FluidState:
        """Snapshot at time t, linearly interpolated between stored ones."""
        return FluidState(t, *self.fields_at(t))

    def point_values(self, ts: np.ndarray, cells: np.ndarray):
        """Vectorized (rho, velocity) at times ts and cell indices cells.

        Times are linearly interpolated between snapshots, with the range
        rule of ``fields_at``; velocity is formed from the interpolated
        conserved fields.
        """
        cells = np.asarray(cells, dtype=int)
        lo, hi, w = self._weights(np.asarray(ts, dtype=float))
        rho = (1.0 - w) * self.rho[lo, cells] + w * self.rho[hi, cells]
        mom = (1.0 - w) * self.mom[lo, cells] + w * self.mom[hi, cells]
        return rho, mom / rho


# -- tables ----------------------------------------------------------------


def save_series(path, header, blocks, meta=None) -> None:
    """CSV table: an optional ``# key=value`` comment line from ``meta``, a
    one-line header, then the rows of each (rows, len(header)) array in
    ``blocks``.  Every float is written with 17 significant digits, so it
    reads back bit for bit.  Rows are formatted as Python floats, which
    gives the bytes of ``np.savetxt`` in less time."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v:.17g}" for k, v in meta.items()) + "\n")
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.writelines([line % tuple(row) for row in block.tolist()])


def load_series(path, header, meta=()) -> tuple[dict, np.ndarray]:
    """The table ``save_series`` wrote: the comment line's values of the
    keys ``meta`` names, as floats, and the columns as the rows of one
    array.  The header must match, every named key must be present, and a
    row must follow the header (no run writes an empty table)."""
    with open(path) as fh:
        line = fh.readline()
        found = {}
        if line.startswith("# "):
            found = dict(item.split("=", 1) for item in line[2:].split())
            line = fh.readline()
        missing = [k for k in meta if k not in found]
        if missing:
            raise ValueError(f"{path}: missing metadata {missing}")
        if line.strip() != ",".join(header):
            raise ValueError(f"{path}: unexpected header {line.strip()!r}")
        start = fh.tell()
        if not fh.readline():
            raise ValueError(f"{path}: no rows")
        fh.seek(start)
        columns = np.loadtxt(fh, delimiter=",", ndmin=2).T
    return {k: float(found[k]) for k in meta}, columns


TRAJECTORY_COLUMNS = ("t", "x", "rho", "mom")


def save_trajectory(path, traj: Trajectory) -> None:
    """CSV in long format (t, x, rho, mom), one row per snapshot and cell,
    under a comment line with the grid length; written ROW_BLOCK snapshots
    at a time."""
    n, x = traj.grid.n_cells, traj.grid.cell_centers()
    blocks = (
        np.column_stack((
            np.repeat(traj.times[rows], n), np.tile(x, traj.times[rows].size),
            traj.rho[rows].ravel(), traj.mom[rows].ravel(),
        ))
        for rows in row_blocks(traj.n_snapshots)
    )
    save_series(path, TRAJECTORY_COLUMNS, blocks, {"length": traj.grid.length})


def load_trajectory(path) -> Trajectory:
    """The trajectory ``save_trajectory`` wrote.  Other keys of the comment
    line, such as the sup bounds that older files carry, are ignored."""
    meta, (t, _, rho, mom) = load_series(path, TRAJECTORY_COLUMNS, ("length",))
    times = np.unique(t)
    n = t.size // times.size
    return Trajectory(
        Grid1D(n, meta["length"]),
        times,
        rho.reshape(times.size, n),
        mom.reshape(times.size, n),
    )
