"""Black-box leakage audit for synthetic tabular data.

The pipeline samples a synthetic table, encodes it into a shared numeric
representation fitted on the synthetic data alone, clusters the encoded rows
with DBSCAN, extracts one medoid per cluster, and measures how close those
medoids sit to the real table. Attack success rate and coverage over a
threshold grid summarize how much of the real data the generator leaks.
"""

__version__ = "0.1.0"

from .errors import (
    CmlaError,
    ConfigError,
    CurveError,
    DegenerateGeometryError,
    LineageError,
    LoadError,
    OrderingError,
    SchemaError,
    StageError,
)
from .tables import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    DataTable,
    TableSchema,
    load_csv,
    write_csv,
)
from .encoding import (
    EncodedMatrix,
    EncodingModel,
    PcaModel,
    encode,
    fit_encoding,
    fit_pca,
    with_pca,
)
from .clustering import (
    ClusterLabeling,
    DbscanParams,
    Medoid,
    MedoidSet,
    auto_eps,
    dbscan,
    extract_medoids,
)
from .metrics import (
    DistanceRecord,
    DminSummary,
    MetricCurves,
    ThresholdGrid,
    asr_curve,
    default_grid,
    summarize_dmin,
)
from .harness import (
    GeneratorSpec,
    HarnessScenario,
    RealRecipe,
    load_scenario,
    make_real,
    sample_synthetic,
)
from .report import (
    LeakageReport,
    build_report,
    emit_curves_csv,
    format_summary_row,
    heatmap_cell,
    write_heatmap_csv,
)

__all__ = [
    "__version__",
    "CmlaError", "ConfigError", "CurveError", "DegenerateGeometryError",
    "LineageError", "LoadError", "OrderingError", "SchemaError", "StageError",
    "CATEGORICAL", "NUMERIC", "ColumnSpec", "DataTable", "TableSchema",
    "load_csv", "write_csv",
    "EncodedMatrix", "EncodingModel", "PcaModel", "encode",
    "fit_encoding", "fit_pca", "with_pca",
    "ClusterLabeling", "DbscanParams", "Medoid", "MedoidSet",
    "auto_eps", "dbscan", "extract_medoids",
    "DistanceRecord", "DminSummary", "MetricCurves", "ThresholdGrid",
    "asr_curve", "default_grid", "summarize_dmin",
    "GeneratorSpec", "HarnessScenario", "RealRecipe", "load_scenario",
    "make_real", "sample_synthetic",
    "LeakageReport", "build_report", "emit_curves_csv", "format_summary_row",
    "heatmap_cell", "write_heatmap_csv",
]
