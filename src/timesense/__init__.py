"""timesense: classify subjective passage of time from wearable physiology.

Library layout mirrors the processing pipeline: ingest -> dsp -> features ->
pipeline -> classifiers -> selection / explain -> evaluate, with a thin CLI.
"""

from .model import (
    FEATURE_NAMES,
    Dataset,
    EvaluationReport,
    SessionRecord,
    SessionSetting,
    TimeSeries,
)

__version__ = "0.1.0"

__all__ = [
    "FEATURE_NAMES",
    "Dataset",
    "EvaluationReport",
    "SessionRecord",
    "SessionSetting",
    "TimeSeries",
    "__version__",
]
