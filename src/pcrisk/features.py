"""Per-cell feature construction: 11 variables x 10 histogram bins plus
5 neighborhood-presence and 5 neighborhood-count features (120 total),
and the binary conflict label.

Series arrive as one ingest.VariableSeries (sample cells and values as
arrays) per variable and are binned and counted as arrays. Histogram bins
are 10 equal widths between the min and max of each variable over every
sample, those of cells off the grid or the mask included, though such cells
get no row. A cell's bin value is the fraction of its own samples falling
in that bin, so missing months normalise by the samples the cell has. Bins
are half-open [lo, hi) except the last, which is closed so the dataset
maximum lands in bin 10.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import logging
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .artifacts import create, format_values, write_json
from .errors import InvalidInputError, MissingVariableError
from .grid import Grid, cell_of, neighbor_offsets
from .ingest import VARIABLES, ConflictEvent, VariableSeries, Window, decode_utf8, loadtxt_csv

log = logging.getLogger(__name__)

N_BINS = 10
NEIGHBOR_RADII = (1, 2, 3, 4, 5)

HIST_FEATURE_NAMES = tuple(f"{v}{b}" for v in VARIABLES for b in range(1, N_BINS + 1))
PRESENCE_FEATURE_NAMES = tuple(f"NBRP{j}" for j in NEIGHBOR_RADII)
COUNT_FEATURE_NAMES = tuple(f"NBRC{j}" for j in NEIGHBOR_RADII)
FEATURE_NAMES = HIST_FEATURE_NAMES + PRESENCE_FEATURE_NAMES + COUNT_FEATURE_NAMES
N_FEATURES = len(FEATURE_NAMES)  # 120

FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

_MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True)
class BinEdges:
    """Equal-width bin edges for one variable over the whole dataset."""

    variable: str
    lo: float
    hi: float
    n_bins: int = N_BINS

    def bins(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Every value's 0-based bin, over a float64 array, and the number
        of values clamped.

        A value with lo <= value < hi goes to bin
        floor(n_bins * (value - lo) / (hi - lo)), taken in exact arithmetic
        on the stored floats, so the bins are half-open; hi itself goes to
        the last bin. This holds for every finite lo < hi, including spans
        whose width underflows or overflows in float64. Values below lo or
        above hi are clamped into the first or last bin. Degenerate edges
        (constant variable) send all mass to bin 0. A NaN raises ValueError.
        """
        lo, hi, n = self.lo, self.hi, self.n_bins
        if hi <= lo:  # degenerate
            return np.zeros(len(values), dtype=np.int64), 0
        inside = ~((values < lo) | (values >= hi))  # NaN takes the rational path, which raises
        # Unless hi - lo or the product overflowed, q is within a relative
        # 4.01 * 2**-53 of the exact quotient (subnormal differences and
        # products are exact), so its floor is exact unless an integer lies
        # within that error; those few values are binned in rationals.
        with np.errstate(over="ignore", invalid="ignore"):
            q = (values - lo) * n / (hi - lo)
            i = np.floor(q)
            slack = q * 2.0 ** -50
            fast = inside & (hi - lo <= _MAX_FLOAT) & (q < n) & (
                ((i == 0) | (q - i > slack)) & (i + 1 - q > slack))
        out = np.where(fast, i, np.where(values < hi, 0, n - 1)).astype(np.int64)
        lo_q = Fraction(lo)
        span_q = Fraction(hi) - lo_q
        for k in np.flatnonzero(inside & ~fast):
            out[k] = n * (Fraction(float(values[k])) - lo_q) // span_q
        return out, int(np.count_nonzero((values < lo) | (values > hi)))


def fit_bin_edges(all_series: list[VariableSeries],
                  variables=VARIABLES) -> dict[str, BinEdges]:
    """Dataset-wide min/max per variable (all cells, all timestamps)."""
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for s in all_series:
        if s.variable not in variables or not len(s.samples):
            continue
        lo[s.variable] = min(lo.get(s.variable, np.inf), float(s.samples.min()))
        hi[s.variable] = max(hi.get(s.variable, -np.inf), float(s.samples.max()))
    out = {}
    for var in variables:
        if var not in lo:
            raise MissingVariableError(f"no samples for variable {var}")
        out[var] = BinEdges(variable=var, lo=lo[var], hi=hi[var])
    return out


def histogram_features(series: VariableSeries, edges: BinEdges,
                       rows: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, n_bins): row i holds the fraction of the samples with
    rows == i in each bin, all-zero if it has none; rows -1 are left out.

    Samples outside [lo, hi] (possible only when edges were fitted on a
    different dataset) are clamped into the boundary bin and counted in a
    warning.
    """
    if series.variable != edges.variable:
        raise InvalidInputError(
            f"edges fitted for {edges.variable}, series is {series.variable}")
    keep = rows >= 0
    bins, n_clamped = edges.bins(series.samples[keep])
    if n_clamped:
        log.warning("%d sample(s) of %s outside fitted range [%g, %g]; clamped",
                    n_clamped, series.variable, edges.lo, edges.hi)
    n = edges.n_bins
    counts = np.bincount(rows[keep] * n + bins, minlength=n_rows * n).reshape(n_rows, n)
    return counts / np.maximum(counts.sum(axis=1), 1)[:, None]


def neighbor_counts(conflict_counts: np.ndarray) -> np.ndarray:
    """(n_rows, n_cols, 5) conflict counts over the nested neighborhoods
    j=1..5 of every cell: the sum of the grid's per-cell counts over
    neighbor_offsets(j), where cells off the grid count 0."""
    n_rows, n_cols = conflict_counts.shape
    pad = max(NEIGHBOR_RADII)
    padded = np.zeros((n_rows + 2 * pad, n_cols + 2 * pad), dtype=np.int64)
    padded[pad:pad + n_rows, pad:pad + n_cols] = conflict_counts
    out = np.zeros((n_rows, n_cols, len(NEIGHBOR_RADII)), dtype=np.int64)
    for k, j in enumerate(NEIGHBOR_RADII):
        for dr, dc in neighbor_offsets(j):
            out[:, :, k] += padded[pad + dr:pad + dr + n_rows, pad + dc:pad + dc + n_cols]
    return out


def count_events_per_cell(grid: Grid, events: list[ConflictEvent],
                          window: Window) -> np.ndarray:
    """Events per cell within the window; events outside the grid or the
    country mask are logged and skipped."""
    kept = [ev for ev in events if window.contains(ev.date)]
    row, col = cell_of(grid, [ev.lat for ev in kept], [ev.lon for ev in kept]).T
    on_mask = (row >= 0) & grid.mask[row, col]  # mask[-1, -1] is a real cell: row >= 0 drops it
    counts = np.zeros((grid.n_rows, grid.n_cols), dtype=int)
    np.add.at(counts, (row[on_mask], col[on_mask]), 1)
    n_skipped = len(kept) - int(np.count_nonzero(on_mask))
    if n_skipped:
        log.warning("skipped %d event(s) outside the grid or country mask", n_skipped)
    return counts


@dataclass(frozen=True, eq=False)
class Dataset:
    """The feature table: one row per masked grid cell, row-major.

    cells is (n, 2) int (row, col), X is (n, 120) float in FEATURE_NAMES
    order and y holds the binary conflict labels.
    """

    cells: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx) -> "Dataset":
        """The rows at idx, in that order."""
        return Dataset(self.cells[idx], self.X[idx], self.y[idx])


_N_HIST = len(HIST_FEATURE_NAMES)
_VARIABLE_COL = {var: vi * N_BINS for vi, var in enumerate(VARIABLES)}


def assemble_dataset(grid: Grid, series: list[VariableSeries],
                     events: list[ConflictEvent], window: Window,
                     edges: dict[str, BinEdges] | None = None) -> Dataset:
    """The 120 features and the label of every masked grid cell, row-major.

    label = 1 iff at least one pastoral event falls in the cell within the
    window; neighbor features use the same window's per-cell event counts.
    A cell without samples of a variable gets all-zero bins for it, and
    samples of cells off the grid or the mask are not binned.
    """
    if edges is None:
        edges = fit_bin_edges(series)
    # C-ordered, as the parse returns cells (argwhere's are Fortran-ordered),
    # so that build-dataset can cache the table's own arrays
    cells = np.ascontiguousarray(np.argwhere(grid.mask))
    row_of = np.full(grid.mask.shape, -1, dtype=np.int64)
    row_of[grid.mask] = np.arange(len(cells))
    X = np.zeros((len(cells), N_FEATURES))
    seen = set()
    for s in series:
        if s.variable in seen:
            raise InvalidInputError(f"duplicate series for variable {s.variable}")
        seen.add(s.variable)
        col = _VARIABLE_COL.get(s.variable)
        if col is None:
            continue
        r, c = s.cells.T
        on_grid = (r >= 0) & (r < grid.n_rows) & (c >= 0) & (c < grid.n_cols)
        rows = np.where(on_grid, row_of[r * on_grid, c * on_grid], -1)  # zeroed: in bounds
        X[:, col:col + N_BINS] = histogram_features(s, edges[s.variable], rows, len(cells))
    counts = count_events_per_cell(grid, events, window)
    nbr = neighbor_counts(counts)[grid.mask]
    X[:, _N_HIST:_N_HIST + len(NEIGHBOR_RADII)] = nbr > 0
    X[:, _N_HIST + len(NEIGHBOR_RADII):] = nbr
    return Dataset(cells=cells, X=X, y=(counts[grid.mask] > 0).astype(int))


def to_matrix(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of a dataset, not copied."""
    return ds.X, ds.y


# ---------------------------------------------------------------------------
# serialization
#
# dataset.csv is a header line, then one line per row: row, col and label,
# the repr() of each histogram value and each neighbor feature as an
# integer, comma-separated and unquoted.

_CSV_HEADER = ("row", "col", "label") + FEATURE_NAMES
_ROW_DTYPE = np.dtype([("head", np.int64, 3), ("hist", np.float64, _N_HIST),
                       ("counts", np.int64, N_FEATURES - _N_HIST)])
_WRITE_ROWS = 1024


def write_dataset_csv(ds: Dataset, path) -> bytes:
    """The header line, then one line per row of ds; returns the sha256
    digest of the bytes written. The bytes are encoded, hashed and written
    _WRITE_ROWS lines at a time, so no copy of the whole file is built."""
    X = np.asarray(ds.X, dtype=np.float64)
    table = np.empty((len(ds), len(_CSV_HEADER)), dtype=object)
    table[:, :2] = ds.cells.astype(str)
    table[:, 2] = ds.y.astype(str)
    table[:, 3:3 + _N_HIST] = format_values(X[:, :_N_HIST], repr)
    table[:, 3 + _N_HIST:] = format_values(X[:, _N_HIST:], lambda v: str(int(v)))
    header = ",".join(_CSV_HEADER) + "\n"
    blocks = ("".join(",".join(row) + "\n" for row in table[i:i + _WRITE_ROWS].tolist())
              for i in range(0, len(table), _WRITE_ROWS))
    digest = hashlib.sha256()
    with create(path, binary=True) as fh:
        for text in itertools.chain([header], blocks):
            data = text.encode()
            fh.write(data)
            digest.update(data)
    return digest.digest()


def _parses(text: str, dtype) -> bool:
    """Whether text is one line holding dtype's fields."""
    try:
        return len(loadtxt_csv([text], dtype)) == 1
    except ValueError:
        return False


def _fault_at_line(path, lines: list[str]) -> InvalidInputError:
    """The error naming the first of lines (file line 2 on) that is blank or
    does not parse on its own, and the field at fault."""
    for lineno, line in enumerate(lines, start=2):
        line = line.removesuffix("\r")
        fields = line.split(",") if line else []
        if len(fields) != len(_CSV_HEADER):
            return InvalidInputError(f"{path} line {lineno}: expected "
                                     f"{len(_CSV_HEADER)} fields, got {len(fields)}")
        if _parses(line, _ROW_DTYPE):
            continue
        for k, (name, field) in enumerate(zip(_CSV_HEADER, fields)):
            is_float = 3 <= k < 3 + _N_HIST
            if not _parses(field, np.float64 if is_float else np.int64):
                return InvalidInputError(f"{path} line {lineno}: {name} {field!r} is not "
                                         f"{'a number' if is_float else 'a 64-bit integer'}")
    return InvalidInputError(f"{path}: unreadable dataset")


def read_dataset_csv(path, data: bytes | None = None) -> Dataset:
    """Inverse of write_dataset_csv. The file must be UTF-8 without blank
    or comment lines; a line may end in CR LF. A malformed line or a
    non-finite feature raises InvalidInputError naming the file and line.
    data, if given, is the file's bytes, already read."""
    if data is None:
        data = Path(path).read_bytes()
    header, *lines = decode_utf8(path, data).split("\n")
    if header.removesuffix("\r").split(",") != list(_CSV_HEADER):
        raise InvalidInputError(f"unexpected dataset header in {path}")
    if lines[-1:] == [""]:
        lines.pop()  # the newline that ends the last line
    try:
        rows = loadtxt_csv(lines, _ROW_DTYPE)
    except ValueError:
        rows = None
    if rows is None or len(rows) != len(lines):  # a blank line was skipped
        raise _fault_at_line(path, lines)
    hist = rows["hist"]
    for i, k in np.argwhere(~np.isfinite(hist))[:1]:
        raise InvalidInputError(f"{path} line {i + 2}: non-finite "
                                f"{HIST_FEATURE_NAMES[k]} {float(hist[i, k])!r}")
    head = rows["head"]
    return Dataset(cells=head[:, :2].copy(), X=np.hstack([hist, rows["counts"]]),
                   y=head[:, 2].copy())


# The parse cache: dataset.csv.cache beside a dataset.csv holds the parse of
# that file as .npy arrays, in order: the sha256 digest of the file's bytes
# (32 uint8), then cells, X and y. build-dataset writes it with the table;
# the first reader of a dataset.csv whose cache is missing or stale writes
# it anew, and later readers of the same bytes load it. Whatever follows the
# four arrays is not read.


def cache_path(path) -> Path:
    """Where the parse of the dataset.csv at path is cached."""
    path = Path(path)
    return path.with_name(path.name + ".cache")


def _cached_parse(cache: Path, digest: bytes) -> Dataset | None:
    """The Dataset cached for the dataset.csv bytes with this sha256 digest,
    or None if the cache is missing, stale or damaged."""
    read = np.lib.format.read_array
    try:
        with cache.open("rb") as fh:
            key = read(fh, allow_pickle=False)
            if key.dtype != np.uint8 or key.tobytes() != digest:
                return None
            cells, X, y = (read(fh, allow_pickle=False) for _ in range(3))
    except (OSError, ValueError, MemoryError):
        # missing, truncated, not .npy, an object array (which needs pickle),
        # or a damaged header claiming more rows than memory can hold
        return None
    ds = Dataset(cells=cells, X=X, y=y)
    return ds if _has_parse_layout(ds) else None


def _has_parse_layout(ds: Dataset) -> bool:
    """Whether ds's arrays have the dtypes, shapes and order of a parse:
    C-ordered int64 cells of shape (n, 2), float64 X of shape (n, 120) and
    int64 y of shape (n,)."""
    cells, X, y = ds.cells, ds.X, ds.y
    if y.ndim != 1:
        return False
    n = len(y)
    return ((cells.dtype, X.dtype, y.dtype) == (np.int64, np.float64, np.int64)
            and (cells.shape, X.shape, y.shape) == ((n, 2), (n, N_FEATURES), (n,))
            and all(a.flags.c_contiguous for a in (cells, X, y)))


def _write_cache(cache: Path, digest: bytes, ds: Dataset) -> None:
    """ds as the cache of the dataset.csv bytes with this sha256 digest.
    The file is written under a temporary name and renamed into place, so a
    reader never sees it half written; a failed write is logged and leaves
    the cache as it was."""
    arrays = [np.frombuffer(digest, dtype=np.uint8), ds.cells, ds.X, ds.y]
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for a in arrays:
                np.lib.format.write_array(fh, a, allow_pickle=False)
        os.replace(tmp, cache)
    except OSError as exc:
        log.warning("parse cache %s not written (%s)", cache, exc.strerror or exc)
        with contextlib.suppress(OSError):
            tmp.unlink()


def cache_written_table(path, digest: bytes, ds: Dataset) -> None:
    """Cache ds as the parse of the dataset.csv at path, which
    write_dataset_csv(ds, path) has just written with this sha256 digest.

    ds's own arrays are the cache only when read_dataset_csv would return
    them bit for bit: they have the parse's layout, every histogram value
    is finite, and every neighbor feature is an integer in the int64 range
    other than -0.0 (written as 0). Otherwise any cache is removed, so the
    next reader parses the text and raises what the parse raises.
    """
    cache = cache_path(path)
    if _has_parse_layout(ds):
        hist, counts = ds.X[:, :_N_HIST], ds.X[:, _N_HIST:]
        integral = (counts == np.trunc(counts)) & (counts >= -2.0 ** 63) & (counts < 2.0 ** 63)
        negative_zero = (counts == 0) & np.signbit(counts)
        if np.isfinite(hist).all() and integral.all() and not negative_zero.any():
            _write_cache(cache, digest, ds)
            return
    cache.unlink(missing_ok=True)


def load_dataset(path) -> tuple[Dataset, bytes]:
    """read_dataset_csv(path), parsed at most once per content of the file,
    and the sha256 digest of the bytes it came from.

    If the cache beside the file holds a parse for that digest, with int64
    cells of shape (n, 2), float64 X of shape (n, 120) and int64 y of shape
    (n,), that parse is returned. Otherwise the same bytes, not a second
    read of the file that may since have changed, are parsed by
    read_dataset_csv, with its errors, and the parse is cached. A cache
    that is stale, damaged or cannot be written costs only the parse.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:  # a directory, say
        raise InvalidInputError(f"dataset {path} cannot be read ({exc.strerror or exc})") from None
    digest = hashlib.sha256(data).digest()
    cache = cache_path(path)
    ds = _cached_parse(cache, digest)
    if ds is None:
        ds = read_dataset_csv(path, data)
        _write_cache(cache, digest, ds)
    return ds, digest


def write_bin_edges_json(edges: dict[str, BinEdges], path) -> None:
    d = {var: {"lo": e.lo, "hi": e.hi, "n_bins": e.n_bins} for var, e in edges.items()}
    write_json(path, d, indent=2)

