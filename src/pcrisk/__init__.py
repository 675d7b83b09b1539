"""pcrisk: grid-based pastoral-conflict risk engine.

Pipeline stages: grid construction, event/series ingestion (or synthetic
generation), 120-feature assembly per cell, univariate and exact-test
hypothesis evaluation, an eight-classifier benchmark, and risk-map export.
"""

__version__ = "0.1.0"

from .grid import BBox, Grid, build_grid, cell_of  # noqa: F401
from .ingest import (  # noqa: F401
    VARIABLES,
    ConflictEvent,
    PlantedEffect,
    VariableSeries,
    Window,
    synth_country,
)
from .features import (  # noqa: F401
    FEATURE_NAMES,
    BinEdges,
    Dataset,
    assemble_dataset,
    fit_bin_edges,
)
from .stats import ContingencyTable, ExactTestResult, MeanDiffResult  # noqa: F401
from .hypotheses import HypothesisPredicate, Tree, train_cart  # noqa: F401
