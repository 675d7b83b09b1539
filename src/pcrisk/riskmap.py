"""Risk-surface rendering: per-cell conflict probabilities to GeoJSON
polygons, a binary PGM raster, and a flat CSV.

Rendering is a pure function of the surface, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import create, write_boxes_geojson, write_table
from .errors import InvalidInputError, ValidationError
from .grid import Grid

#: 5-stop linear color scale, low risk to high risk
COLOR_STOPS = ("#2c7bb6", "#abd9e9", "#ffffbf", "#fdae61", "#d7191c")


@dataclass(frozen=True)
class RiskSurface:
    """Per-cell conflict probabilities on a grid."""

    grid: Grid
    values: np.ndarray  # (n_rows, n_cols) floats in [0, 1] on the mask, read-only
    model_id: str = ""

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.n_rows, self.grid.n_cols):
            raise InvalidInputError("values shape must match the grid")
        masked = values[self.grid.mask]
        if masked.size and (np.min(masked) < 0.0 or np.max(masked) > 1.0):
            raise ValidationError("risk values must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def risk_color(risk: float) -> str:
    """Linear interpolation through the 5 color stops."""
    if not 0.0 <= risk <= 1.0:
        raise ValidationError(f"risk {risk} outside [0, 1]")
    segments = len(COLOR_STOPS) - 1
    pos = risk * segments
    i = min(int(pos), segments - 1)
    t = pos - i
    c0 = _hex_to_rgb(COLOR_STOPS[i])
    c1 = _hex_to_rgb(COLOR_STOPS[i + 1])
    rgb = tuple(int(round(a + t * (b - a))) for a, b in zip(c0, c1))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _hex_to_rgb(h: str) -> tuple[int, int, int]:
    return (int(h[1:3], 16), int(h[3:5], 16), int(h[5:7], 16))


def surface_from_rows(grid: Grid, cells: np.ndarray, scores,
                      model_id: str = "") -> RiskSurface:
    """Scatter per-cell scores into a full-grid surface (unmasked cells 0);
    cells is a dataset's (n, 2) array of (row, col)."""
    values = np.zeros((grid.n_rows, grid.n_cols))
    values[cells[:, 0], cells[:, 1]] = scores
    return RiskSurface(grid=grid, values=values, model_id=model_id)


def render_geojson(surface: RiskSurface, path) -> None:
    """One polygon feature per masked cell with row, col, risk and color
    properties, and the model id and cell size as collection properties.

    Rings are counterclockwise (lon, lat), per RFC 7946. The file holds what
    json.dumps(sort_keys=True) gives for that document, but the document is
    never built: artifacts.write_boxes_geojson encodes each distinct
    coordinate, row, col, risk and color once and joins each feature from a
    fixed template. A model scores many cells alike, so each distinct risk
    is also colored once.
    """
    g = surface.grid
    cells = np.argwhere(g.mask)
    risks = surface.values[g.mask]
    color = {risk: risk_color(risk) for risk in set(risks.tolist())}
    write_boxes_geojson(path, {"model_id": surface.model_id, "cell_km": g.cell_km},
                        g.cell_bounds(cells),
                        {"row": cells[:, 0], "col": cells[:, 1], "risk": risks,
                         "color": np.array([color[r] for r in risks.tolist()], dtype=str)})


def render_pgm(surface: RiskSurface, path) -> None:
    """Binary (P5) graymap, one pixel per cell, intensity round(255 * risk),
    northernmost grid row first; cells outside the mask render black."""
    g = surface.grid
    shades = np.rint(255.0 * np.where(g.mask, surface.values, 0.0)).astype(np.uint8)
    with create(path, binary=True) as fh:
        fh.write(f"P5\n{g.n_cols} {g.n_rows}\n255\n".encode("ascii"))
        fh.write(shades[::-1].tobytes())


def render_csv(surface: RiskSurface, path) -> None:
    """row,col,risk for every masked cell."""
    g = surface.grid
    write_table(path, ["row", "col", "risk"],
                ([row, col, risk] for (row, col), risk in
                 zip(np.argwhere(g.mask).tolist(), surface.values[g.mask].tolist())))
