"""Wind-power ramp event classification with gradient boosted regression trees.

The pipeline: load a power series (`load_series`), label S-step-ahead ramp
classes against operator thresholds (`build_dataset`), split it
(`stratified_split`), train a from-scratch multi-class GBRT (`train`, or
`fit_horizons` for every horizon's grid search and final fit on one
process pool), and score it against persistence and majority baselines
with accuracy, overall F1 and rare-event F1 (`evaluate_horizons`).
Everything else is imported from its module.
"""

from .errors import ConfigError, DataError, ModelFormatError, TrainingError, WindRampError
from .evaluation import ParamGrid, evaluate_horizons, fit_horizons, stratified_split
from .gbrt import GbrtModel, HyperParams, load_model, save_model, train
from .labeling import HorizonSpec, LabeledDataset, ThresholdSet, build_dataset
from .series import ColumnSchema, WindPowerSeries, load_series, write_series
from .synthetic import generate_series

__version__ = "0.1.0"

__all__ = [
    "ColumnSchema",
    "ConfigError",
    "DataError",
    "GbrtModel",
    "HorizonSpec",
    "HyperParams",
    "LabeledDataset",
    "ModelFormatError",
    "ParamGrid",
    "ThresholdSet",
    "TrainingError",
    "WindPowerSeries",
    "WindRampError",
    "build_dataset",
    "evaluate_horizons",
    "fit_horizons",
    "generate_series",
    "load_model",
    "load_series",
    "save_model",
    "stratified_split",
    "train",
    "write_series",
]
