"""Conflict-event and environmental-series ingestion, plus a synthetic
desk-scale country generator.

Event CSVs follow the ACLED export shape (header row, configurable column
names, ISO-8601 dates). Series CSVs use either the canonical cell-indexed
layout ``cell_row,cell_col,variable,timestamp,value`` or a ``lat,lon,...``
variant that is mapped through the grid. Keyword rules for pastoral
filtering live in a JSON file so the rule set stays user-auditable.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .artifacts import read_json
from .errors import (
    DuplicateTimestampError,
    InvalidInputError,
    OutOfBoundsError,
    SchemaError,
)
from .grid import Grid, cell_of

log = logging.getLogger(__name__)

#: canonical variable order; histogram features follow this ordering
VARIABLES = (
    "LAI", "GRN", "SSW", "SST", "LNDEV",
    "WS10M_MAX", "WS10M_MIN", "RH2M", "PRECTOTCORR", "T2M_MAX", "T2M_MIN",
)


@dataclass(frozen=True)
class Window:
    """Inclusive study window [start, end]."""

    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.start > self.end:
            raise InvalidInputError(f"inverted window: {self.start} > {self.end}")

    def contains(self, day: dt.date) -> bool:
        return self.start <= day <= self.end

    @property
    def months(self) -> int:
        return (self.end.year - self.start.year) * 12 + (self.end.month - self.start.month) + 1


@dataclass(frozen=True)
class ConflictEvent:
    date: dt.date
    lat: float
    lon: float
    country: str
    notes: str


@dataclass(frozen=True)
class EventSchema:
    """Maps logical event fields to CSV column names (ACLED defaults)."""

    date: str = "event_date"
    lat: str = "latitude"
    lon: str = "longitude"
    country: str = "country"
    notes: str = "notes"


@dataclass(frozen=True, eq=False)
class VariableSeries:
    """Every sample of one variable: samples[i] was observed in the cell
    (row, col) = cells[i]. cells is (k, 2) int64 and samples (k,) float64;
    a cell may hold any number of samples, including none."""

    variable: str
    cells: np.ndarray
    samples: np.ndarray


# ---------------------------------------------------------------------------
# reading CSV files


def decode_utf8(path, data: bytes) -> str:
    """data, the bytes of the file path, as text; bytes that are not UTF-8
    raise InvalidInputError naming their line. A newline never splits a
    UTF-8 sequence, so the line where the decoder stops holds them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InvalidInputError(f"{path} line {lineno}: not UTF-8 ({exc.reason})") from None


def loadtxt_csv(source, dtype, **kwargs) -> np.ndarray:
    """np.loadtxt of comma-separated fields with no quote or comment
    character, as a 1-d array of dtype parsed in C; floats round as float()
    rounds them. Blank lines are skipped, without the warning loadtxt gives
    when every line is blank. kwargs go to np.loadtxt."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1, **kwargs)


def _read_fault(path: Path, exc: Exception) -> InvalidInputError:
    """The input fault behind exc, a csv.Error or UnicodeDecodeError met
    while reading path: for bytes that are not UTF-8, decode_utf8 raises it
    naming their line; else it names the line where the record that a
    strict csv reader could not read begins. Files are decoded in blocks,
    so exc itself does not know the line."""
    text = decode_utf8(path, path.read_bytes())
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    start = 1
    try:
        for _ in reader:
            start = reader.line_num + 1
    except csv.Error as bad:
        return InvalidInputError(f"{path} line {start}: {bad}")
    return InvalidInputError(f"{path}: {exc}")


@contextmanager
def _open_csv(path: Path):
    """path opened for csv reading; a csv.Error or UnicodeDecodeError while
    it is open becomes an InvalidInputError naming the line. Readers of it
    pass strict=True, so a stray or unclosed quote is such an error rather
    than a field that runs on over the following lines."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield fh
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _read_fault(path, exc) from None


# ---------------------------------------------------------------------------
# event parsing and pastoral filtering


def parse_events(path, schema: EventSchema = EventSchema()) -> list[ConflictEvent]:
    """Parse a conflict-event CSV.

    Rows with unparseable coordinates or dates, or too few fields, are
    logged and skipped, never silently dropped. A missing mapped column
    raises SchemaError; quoting that breaks the csv grammar raises
    InvalidInputError naming the line where its record starts.
    """
    path = Path(path)
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh, strict=True)
        if reader.fieldnames is None:
            log.warning("events file %s is empty", path)
            return []
        for col in (schema.date, schema.lat, schema.lon, schema.country, schema.notes):
            if col not in reader.fieldnames:
                raise SchemaError(f"events file {path} lacks mapped column {col!r}")
        events = []
        n_skipped = 0
        for row in reader:
            try:
                if row[schema.notes] is None:  # csv.DictReader fills a short row with None
                    raise ValueError(f"row has no {schema.notes!r} field")
                events.append(ConflictEvent(
                    date=dt.date.fromisoformat(row[schema.date].strip()),
                    lat=float(row[schema.lat]),
                    lon=float(row[schema.lon]),
                    country=row[schema.country].strip(),
                    notes=row[schema.notes],
                ))
            except (ValueError, AttributeError, TypeError) as exc:
                n_skipped += 1
                log.warning("skipping %s line %d: %s", path.name, reader.line_num, exc)
    if not events and n_skipped == 0:
        log.warning("events file %s has a header but no rows", path)
    if n_skipped:
        log.warning("skipped %d unparseable event rows in %s", n_skipped, path.name)
    return events


@dataclass(frozen=True)
class KeywordRules:
    """Case-insensitive include/exclude patterns over the notes column.

    Patterns are regular expressions; plain substrings work as-is. An empty
    include, or a pattern that does not compile, raises InvalidInputError
    naming the key.
    """

    include: tuple
    exclude: tuple = ()

    def __post_init__(self):
        if not self.include:
            raise InvalidInputError("'include' must hold at least one pattern")
        for key in ("include", "exclude"):
            try:
                compiled = tuple(re.compile(p, re.IGNORECASE) for p in getattr(self, key))
            except re.error as exc:
                raise InvalidInputError(
                    f"{key!r} pattern {exc.pattern!r} does not compile ({exc})") from None
            object.__setattr__(self, f"_{key}", compiled)

    def matches(self, notes: str) -> bool:
        if not any(rx.search(notes) for rx in self._include):
            return False
        return not any(rx.search(notes) for rx in self._exclude)


def default_keyword_rules() -> KeywordRules:
    return load_keyword_rules(resources.files("pcrisk.data") / "default_keyword_rules.json")


def load_keyword_rules(path) -> KeywordRules:
    """Rules from a JSON object with an 'include' list and an optional
    'exclude' list of regular expressions; a fault in the file raises
    SchemaError or InvalidInputError naming the file and the key."""
    d = read_json(path, "keyword rules")
    if not isinstance(d, dict):
        raise SchemaError(f"keyword rules {path} must hold a JSON object")
    rules = {}
    for key in ("include", "exclude"):
        patterns = d.get(key, [])
        if not (isinstance(patterns, list) and all(isinstance(p, str) for p in patterns)):
            raise SchemaError(f"keyword rules {path}: {key!r} must be a list of strings")
        rules[key] = tuple(patterns)
    try:
        return KeywordRules(**rules)
    except InvalidInputError as exc:
        raise InvalidInputError(f"keyword rules {path}: {exc}") from None


def filter_pastoral(events, window: Window, rules: KeywordRules | None = None) -> list[ConflictEvent]:
    """The events inside the window whose notes match the include rules
    and none of the exclude rules."""
    if rules is None:
        rules = default_keyword_rules()
    return [ev for ev in events if window.contains(ev.date) and rules.matches(ev.notes)]


# ---------------------------------------------------------------------------
# series parsing

_CANONICAL_COLS = ("cell_row", "cell_col", "variable", "timestamp", "value")
_LATLON_COLS = ("lat", "lon", "variable", "timestamp", "value")
_VAR_INDEX = {var: vi for vi, var in enumerate(VARIABLES)}

#: bytes that the C parse reads otherwise than csv.reader, int() and float():
#: a quote, NUL, and the separators \x1c-\x1f, which numpy skips around a
#: number but int() and float() reject
_SLOW_BYTES = b'"\x00\x1c\x1d\x1e\x1f'
#: width of the variable field in the C parse; a field that fills it may be cut
_VAR_WIDTH = 16
_EPOCH = dt.date(1970, 1, 1).toordinal()
#: bytewise bounds of a YYYY-MM-DD timestamp in the C parse's 11-byte field
_STAMP_LO, _STAMP_HI = (np.frombuffer(b, dtype=np.uint8) for b in (b"0000-00-00\0",
                                                                   b"9999-99-99\0"))


def parse_series(path, grid: Grid | None = None,
                 cell_km: float | None = None) -> list[VariableSeries]:
    """Parse a series CSV into one record per variable that has rows, in
    VARIABLES order, its samples sorted by cell and then timestamp.

    Accepts the cell-indexed layout or the lat/lon layout (the latter
    requires a grid to map coordinates through cell_of); both need a
    'variable' column. Rows of other variables are skipped and counted in
    a warning. A field that does not parse raises InvalidInputError naming
    the file and line; a timestamp repeated in one cell of a cell-indexed
    file or at one point of a lat/lon file, or a non-finite value, raises
    an error naming the cell or point and the variable; a lat/lon point
    outside the grid's bbox, one naming the file and the point. Distinct
    lat/lon points in one cell pool their samples. cell_km is the edge of
    the cells that a cell-indexed file's rows and cols number; such a file
    read for a grid of other cells raises SchemaError.

    Plain files are parsed in C (_parse_series_c); any other file goes
    through csv.reader row by row, with the same result.
    """
    path = Path(path)
    by_cell_layout, keys, values, n_skipped = (_parse_series_c(path, grid)
                                               or _parse_series_rows(path, grid))
    if by_cell_layout and None not in (grid, cell_km) and grid.cell_km != cell_km:
        raise SchemaError(f"series file {path} has the cell-indexed layout, which numbers "
                          f"{cell_km:g} km cells; it cannot be read at {grid.cell_km:g} km")
    if n_skipped:
        log.warning("skipped %d row(s) of unknown variables in %s", n_skipped, path.name)
    values = np.array(values)
    if not _rows_sorted(keys):  # lexsort is stable, so sorted keys keep their order
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
    place = "cell ({},{})" if by_cell_layout else "point ({}, {})"
    for bad, error, what in (((keys[1:] == keys[:-1]).all(axis=1), DuplicateTimestampError,
                              "timestamp repeated"),
                             (~np.isfinite(values), InvalidInputError, "non-finite value")):
        if bad.any():
            vi, a, b, day = keys[bad.argmax()].tolist()
            raise error(f"{path}: {place.format(a, b)} variable {VARIABLES[int(vi)]} at "
                        f"{dt.date.fromordinal(int(day))}: {what}")
    if not by_cell_layout:  # variable indices and day ordinals are exact in float64
        cells = cell_of(grid, keys[:, 1], keys[:, 2])
        for lat, lon in keys[cells[:, 0] < 0, 1:3].tolist()[:1]:
            raise OutOfBoundsError(f"{path}: point ({lat}, {lon}) outside grid bbox")
        # the points of one cell pool their samples, ordered by point within a timestamp
        keys = np.hstack([keys[:, :1], cells, keys[:, 3:]]).astype(np.int64)
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
    bounds = np.searchsorted(keys[:, 0], np.arange(len(VARIABLES) + 1))
    return [VariableSeries(var, keys[a:b, 1:3], values[a:b])
            for var, a, b in zip(VARIABLES, bounds[:-1], bounds[1:]) if b > a]


def _series_columns(path: Path, cols: list[str], grid: Grid | None) -> tuple[bool, list[int]]:
    """Whether a series header names the cell-indexed layout, and the
    positions of its five columns in _CANONICAL_COLS or _LATLON_COLS order."""
    col = {name: i for i, name in enumerate(cols)}
    by_cell_layout = all(c in col for c in _CANONICAL_COLS)
    if not by_cell_layout and not all(c in col for c in _LATLON_COLS):
        raise SchemaError(
            f"series file {path} needs columns {_CANONICAL_COLS} or {_LATLON_COLS}")
    if not by_cell_layout and grid is None:
        raise SchemaError(f"series file {path} uses lat/lon layout; a grid is required")
    return by_cell_layout, [col[c] for c in (_CANONICAL_COLS if by_cell_layout else _LATLON_COLS)]


def _parse_series_rows(path: Path, grid: Grid | None) -> tuple:
    """(by_cell_layout, keys, values, n_skipped) of a series file, read row
    by row with a strict csv.reader. keys is (n, 4): the variable index, row
    and col (int64) or lat and lon (float64), and day ordinal of each kept
    sample, in file order; values holds their values."""
    keys: list = []
    values: list[float] = []
    days: dict[str, int] = {}  # timestamp field -> day ordinal
    n_skipped = 0
    with _open_csv(path) as fh:
        reader = csv.reader(fh, strict=True)
        cols = next(reader, [])
        by_cell_layout, (i_a, i_b, i_var, i_ts, i_val) = _series_columns(path, cols, grid)
        convert = int if by_cell_layout else float
        for rec in reader:
            if not rec:
                continue  # blank line
            try:
                vi = _VAR_INDEX.get(rec[i_var].strip())
                if vi is None:
                    n_skipped += 1
                    continue
                a, b = convert(rec[i_a]), convert(rec[i_b])
                stamp = rec[i_ts]
                day = days.get(stamp)
                if day is None:
                    day = days[stamp] = dt.date.fromisoformat(stamp.strip()).toordinal()
                values.append(float(rec[i_val]))
                keys += (vi, a, b, day)
            except IndexError:
                raise InvalidInputError(f"{path} line {reader.line_num}: expected "
                                        f"{len(cols)} fields, got {len(rec)}") from None
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {reader.line_num}: {exc}") from None
    try:
        keys = np.array(keys, dtype=np.int64 if by_cell_layout else np.float64).reshape(-1, 4)
    except OverflowError:
        raise InvalidInputError(f"{path}: cell index out of range") from None
    return by_cell_layout, keys, values, n_skipped


def _parse_series_c(path: Path, grid: Grid | None) -> tuple | None:
    """What _parse_series_rows returns, from one np.loadtxt pass in C; None
    for a file that pass might read otherwise. It takes ASCII files without
    _SLOW_BYTES or lines beyond the csv field size limit, whose kept rows'
    timestamps are all dates written YYYY-MM-DD."""
    data = path.read_bytes()
    if (not data.isascii() or any(b in data for b in _SLOW_BYTES)
            or _has_long_line(data, csv.field_size_limit())):
        return None
    del data
    with path.open(encoding="ascii", newline=None) as fh:  # csv.reader's line ends
        cols = fh.readline().removesuffix("\n").split(",")
        by_cell_layout, usecols = _series_columns(path, cols, grid)
        coord = np.int64 if by_cell_layout else np.float64
        dtype = np.dtype([("a", coord), ("b", coord), ("var", f"S{_VAR_WIDTH}"),
                          ("ts", "S11"), ("value", np.float64)])
        try:
            rows = loadtxt_csv(fh, dtype, usecols=usecols)
        except ValueError:
            return None
    # the file groups rows by variable, so look up the head of each run
    var = rows["var"]
    head = np.ones(len(var), dtype=bool)
    head[1:] = var[1:] != var[:-1]
    starts = np.flatnonzero(head)
    names = var[starts].tolist()
    if any(len(name) == _VAR_WIDTH for name in names):
        return None
    vi = np.repeat(np.array([_VAR_INDEX.get(name.decode().strip(), -1) for name in names],
                            dtype=np.int64), np.diff(starts, append=len(var)))
    kept = vi >= 0
    n_skipped = len(rows) - int(np.count_nonzero(kept))
    if n_skipped:
        rows, vi = rows[kept], vi[kept]
    stamps = np.ascontiguousarray(rows["ts"]).view(np.uint8).reshape(-1, 11)
    if not ((_STAMP_LO <= stamps) & (stamps <= _STAMP_HI)).all():
        return None
    try:  # numpy checks the month and the day of the month
        day = rows["ts"].astype("M8[D]").view(np.int64) + _EPOCH
    except ValueError:
        return None
    if not (day >= 1).all():  # year 0
        return None
    keys = np.column_stack((vi, rows["a"], rows["b"], day))  # int64, or float64 for lat/lon
    return by_cell_layout, keys, rows["value"], n_skipped


def _has_long_line(data: bytes, limit: int) -> bool:
    """Whether a line of data holds more than limit bytes."""
    start = 0
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _rows_sorted(keys: np.ndarray) -> bool:
    """Whether the rows of keys are in lexicographic order."""
    before, after = keys[:-1], keys[1:]
    in_order = np.ones(len(before), dtype=bool)
    for j in reversed(range(keys.shape[1])):
        in_order = (before[:, j] < after[:, j]) | ((before[:, j] == after[:, j]) & in_order)
    return bool(in_order.all())


# ---------------------------------------------------------------------------
# synthetic country generator

#: per-variable (cell-mean low, cell-mean high, seasonal amplitude, monthly noise sd)
VARIABLE_PROFILES = {
    "LAI": (0.5, 4.5, 0.6, 0.3),
    "GRN": (0.15, 0.85, 0.08, 0.04),
    "SSW": (30.0, 70.0, 5.0, 4.0),
    "SST": (18.0, 40.0, 4.0, 1.5),
    "LNDEV": (1.0, 8.0, 1.0, 0.5),
    "WS10M_MAX": (4.0, 16.0, 2.0, 1.0),
    "WS10M_MIN": (0.5, 6.0, 1.0, 0.5),
    "RH2M": (25.0, 85.0, 8.0, 4.0),
    "PRECTOTCORR": (20.0, 250.0, 40.0, 15.0),
    "T2M_MAX": (22.0, 42.0, 3.0, 1.5),
    "T2M_MIN": (8.0, 26.0, 3.0, 1.5),
}

# variables that cannot physically go negative / above 1
_FLOOR_ZERO = {"LAI", "GRN", "SSW", "LNDEV", "WS10M_MAX", "WS10M_MIN", "RH2M", "PRECTOTCORR"}
_CAP_ONE = {"GRN"}


@dataclass(frozen=True)
class PlantedEffect:
    """Ground truth planted into a synthetic country.

    Cells are split into a risk stratum (fraction risk_fraction) and a
    background stratum. The planted variable's cell-level mean is drawn
    near low_mean inside the stratum and near high_mean outside, so the
    stratum is recoverable from the data. Conflict probability follows
    base_rate outside the stratum and the odds-ratio-scaled rate inside.
    """

    variable: str = "SSW"
    odds_ratio: float = 20.0
    risk_fraction: float = 0.3
    base_rate: float = 0.05
    low_mean: float = 22.0
    high_mean: float = 62.0
    regime_sd: float = 3.0
    extra_events_rate: float = 1.5  # Poisson rate on top of the first event

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise InvalidInputError(f"unknown planted variable {self.variable!r}")
        for f in fields(self):  # bounded, so that every sample drawn stays finite
            value = getattr(self, f.name)
            if f.name != "variable" and not abs(value) <= 1e300:
                raise InvalidInputError(f"planted {f.name} {value} lies outside [-1e300, 1e300]")
        if not 0.0 <= self.base_rate < 1.0:
            raise InvalidInputError("base_rate must be in [0, 1)")
        if self.odds_ratio <= 0:
            raise InvalidInputError("odds_ratio must be positive")
        if not 0.0 <= self.risk_fraction <= 1.0:
            raise InvalidInputError("risk_fraction must be in [0, 1]")
        if self.regime_sd < 0:
            raise InvalidInputError("regime_sd must be non-negative")
        if not 0.0 <= self.extra_events_rate <= 100.0:  # one Python object per event
            raise InvalidInputError("extra_events_rate must be in [0, 100]")

    @property
    def risk_rate(self) -> float:
        """Conflict probability inside the risk stratum."""
        if self.base_rate == 0.0:
            return 0.0
        odds = self.odds_ratio * self.base_rate / (1.0 - self.base_rate)
        return odds / (1.0 + odds)


def synth_country(seed: int, grid: Grid, months: int,
                  planted: PlantedEffect = PlantedEffect(),
                  start: dt.date = dt.date(2015, 1, 1),
                  country: str = "Synthia",
                  ) -> tuple[list[VariableSeries], list[ConflictEvent]]:
    """Generate seasonal series for all 11 variables plus planted conflicts.

    Each variable's record holds every masked cell's months, cell by cell
    in row-major order. Deterministic for a fixed seed: draws follow a
    fixed order (stratum, then per-variable cell means and monthly values,
    then events).
    """
    if months < 1:
        raise InvalidInputError("months must be >= 1")
    rng = np.random.default_rng(seed)
    cells = np.argwhere(grid.mask)
    n = len(cells)
    t = np.arange(months, dtype=float)
    sample_cells = np.repeat(cells, months, axis=0)
    sample_cells.flags.writeable = False  # shared by every variable's record

    in_stratum = rng.random(n) < planted.risk_fraction

    series: list[VariableSeries] = []
    for var in VARIABLES:
        lo, hi, amp, sd = VARIABLE_PROFILES[var]
        if var == planted.variable:
            means = np.where(
                in_stratum,
                rng.normal(planted.low_mean, planted.regime_sd, size=n),
                rng.normal(planted.high_mean, planted.regime_sd, size=n),
            )
        else:
            means = rng.uniform(lo, hi, size=n)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
        noise = rng.normal(0.0, sd, size=(n, months))
        seasonal = amp * np.sin(2.0 * math.pi * t[None, :] / 12.0 + phases[:, None])
        values = means[:, None] + seasonal + noise
        if var in _FLOOR_ZERO:
            values = np.maximum(values, 0.0)
        if var in _CAP_ONE:
            values = np.minimum(values, 1.0)
        series.append(VariableSeries(var, sample_cells, values.ravel()))

    p_hot, p_cold = planted.risk_rate, planted.base_rate
    bounds = zip(*(b.tolist() for b in grid.cell_bounds(cells)))
    events: list[ConflictEvent] = []
    for hot, (lat_s, lon_w, lat_n, lon_e) in zip(in_stratum.tolist(), bounds):
        if rng.random() >= (p_hot if hot else p_cold):
            continue
        n_events = 1 + rng.poisson(planted.extra_events_rate)
        for _ in range(n_events):
            y, m = divmod(start.month - 1 + int(rng.integers(0, months)), 12)
            events.append(ConflictEvent(
                date=dt.date(start.year + y, m + 1, 15),
                lat=float(rng.uniform(lat_s, lat_n)),
                lon=float(rng.uniform(lon_w, lon_e)),
                country=country,
                notes="Herders clashed with farmers over access to grazing land.",
            ))
    return series, events

