"""Batch pipeline with four commands: prepare, train, evaluate and predict.

Configuration comes from a JSON file (``--config``) with flags overriding
individual fields. ``resolve_config`` merges the two over the defaults and
checks each value once there, whichever source it came from; the commands
read the values as checked. Every run writes the resolved configuration next
to its outputs. ``train`` and ``evaluate`` rebuild each horizon's labeled dataset
from the series in memory; ``prepare`` writes only the class-distribution
report. ``train`` runs every horizon's grid and final fits on one pool of
``--workers`` processes, then writes the outputs in horizon order. It
records each split as (seed, test fraction, dataset sha256) beside the
model, and ``evaluate`` refuses to score a model whose series has changed
since. Exit codes: 0 success, 2 config error, 3 data error, 4 training or
model error. Errors print one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, gbrt, labeling, series
from .errors import ConfigError, DataError, ModelFormatError, TrainingError, WindRampError

CONFIG_VERSION = 1

_DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "data": {
        "path": None,
        "timestamp_column": "timestamp",
        "power_column": "power_mw",
        "delimiter": ",",
        "site_id": "",
    },
    "resolution_s": 600,
    "rated_capacity_mw": None,
    "threshold_fraction": 0.5,
    "thresholds_mw": None,
    "horizons": [1, 2, 3, 4, 5, 6],
    "lag_count": 36,
    "test_fraction": 0.2,
    "seed": 0,
    "workers": 1,
    "out": "out",
    "hyperparams": {},
    "grid": None,
}


def _read_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _object("config", doc, _DEFAULT_CONFIG)
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")
    return doc


def _parse_grid_spec(text: str) -> dict:
    """'50,100,200x2,4,6[x3]' -> grid dict; 'default' -> ParamGrid()'s choices."""
    if text == "default":
        default = evaluation.ParamGrid()
        return {"n_estimators": list(default.n_estimators_choices), "max_depth": list(default.max_depth_choices)}
    parts = text.split("x")
    if len(parts) not in (2, 3):
        raise ValueError("expected N_EST_CHOICESxDEPTH_CHOICES[xFOLDS], e.g. 50,100,200x2,4,6")
    grid = {key: [int(v) for v in part.split(",")] for key, part in zip(("n_estimators", "max_depth"), parts)}
    if len(parts) == 3:
        grid["folds"] = int(parts[2])
    return grid


# flags whose text stands for a list or a grid; each parser raises ValueError
_FLAG_PARSERS = {
    "thresholds_mw": lambda text: [float(v) for v in text.split(",")],
    "horizons": lambda text: [int(v) for v in text.split(",")],
    "grid": _parse_grid_spec,
}


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- flags. Each flag's dest is the config key it
    sets. Every value is checked once here, whichever source it came from, and
    stored as the type the commands read."""
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))
    if args.config:
        doc = _read_config_file(args.config)
        cfg["data"].update(_object("data", doc.pop("data", {}), cfg["data"]))
        cfg.update(doc)

    flags = vars(args)
    # in _DEFAULT_CONFIG's order: --threshold-mw lands after --threshold-fraction clears it
    for key in (*cfg["data"], *cfg):
        value = flags.get(key)
        if value is None:
            continue
        if key in _FLAG_PARSERS:
            try:
                value = _FLAG_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"bad {key} flag {value!r}: {exc}") from exc
        if key == "threshold_fraction":
            cfg["thresholds_mw"] = None
        (cfg["data"] if key in cfg["data"] else cfg)[key] = value

    _validate_config(cfg)
    return cfg


def _object(key: str, value, known) -> dict:
    """``value`` when it is a JSON object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"unknown {key} key(s): {', '.join(unknown)}")
    return value


def _number(key: str, value, kind: type, valid=lambda v: True, rule: str = ""):
    """A config value as ``kind`` (int or float). Strings, booleans, for int
    fractional numbers, and values for which ``valid`` is false raise a
    ConfigError naming ``key``. ``valid`` sees the value as given, so a bound
    on a float key also keeps a huge integer from overflowing ``float()``."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not valid(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return kind(value)


def _numbers(key: str, values, kind: type, valid=lambda v: True, rule: str = "") -> list:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a non-empty list of numbers, got {values!r}")
    return [_number(key, v, kind, valid, rule) for v in values]


_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: 0 < v <= sys.float_info.max, "finite and > 0")

# key -> (type, condition on the value, the condition in words)
_SCALARS = {
    "resolution_s": (int, *_AT_LEAST_1),
    "rated_capacity_mw": (float, *_POSITIVE),
    "threshold_fraction": (float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "lag_count": (int, *_AT_LEAST_1),
    "test_fraction": (float, lambda v: 0 < v < 1, "in (0, 1)"),
    "seed": (int, lambda v: v >= 0, ">= 0"),
}


def _validate_config(cfg: dict) -> None:
    """Check every value of the merged config, storing each as its type."""
    if not cfg["data"]["path"]:
        raise ConfigError("no input data path given (config data.path or --data)")
    for key, value in (*((f"data.{k}", v) for k, v in cfg["data"].items()), ("out", cfg["out"])):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    if len(cfg["data"]["delimiter"]) != 1:
        raise ConfigError(f"data.delimiter must be one character, got {cfg['data']['delimiter']!r}")
    if cfg["rated_capacity_mw"] is None:
        raise ConfigError("rated capacity is required (config rated_capacity_mw or --capacity-mw)")
    for key, (kind, valid, rule) in _SCALARS.items():
        cfg[key] = _number(key, cfg[key], kind, valid, rule)
    if cfg["workers"] is not None:
        cfg["workers"] = _number("workers", cfg["workers"], int, *_AT_LEAST_1)
    cfg["horizons"] = _numbers("horizons", cfg["horizons"], int, *_AT_LEAST_1)
    if len(set(cfg["horizons"])) != len(cfg["horizons"]):
        raise ConfigError(f"horizons must be distinct, got {cfg['horizons']}")
    if cfg["thresholds_mw"] is not None:
        cfg["thresholds_mw"] = thresholds = _numbers("thresholds_mw", cfg["thresholds_mw"], float, *_POSITIVE)
        if thresholds != sorted(set(thresholds)):
            raise ConfigError(f"thresholds_mw must be strictly increasing, got {thresholds}")
    hyperparams = _object("hyperparams", cfg["hyperparams"], (f.name for f in dataclasses.fields(gbrt.HyperParams)))
    gbrt.HyperParams(**hyperparams)  # checks each value, naming its key
    grid = cfg["grid"]
    if grid is not None:
        _object("grid", grid, ("n_estimators", "max_depth", "folds"))
        cfg["grid"] = {
            "n_estimators": _numbers("grid.n_estimators", grid.get("n_estimators"), int),
            "max_depth": _numbers("grid.max_depth", grid.get("max_depth"), int),
            "folds": _number("grid.folds", grid.get("folds", evaluation.ParamGrid.folds), int,
                             lambda v: v >= 2, ">= 2"),
        }


def _thresholds(cfg: dict) -> labeling.ThresholdSet:
    if cfg["thresholds_mw"]:
        return labeling.ThresholdSet(tuple(cfg["thresholds_mw"]))
    return labeling.ThresholdSet.from_fraction(cfg["threshold_fraction"], cfg["rated_capacity_mw"])


def _load_series(cfg: dict) -> tuple[series.WindPowerSeries, series.LoadReport]:
    data = cfg["data"]
    schema = series.ColumnSchema(
        timestamp=data["timestamp_column"],
        power=data["power_column"],
        delimiter=data["delimiter"],
    )
    return series.load_series(
        data["path"],
        schema,
        resolution_s=cfg["resolution_s"],
        rated_capacity_mw=cfg["rated_capacity_mw"],
        site_id=data["site_id"],
    )


def _out_dirs(cfg: dict) -> dict[str, Path]:
    root = Path(cfg["out"])
    dirs = {name: root / name for name in ("models", "reports")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    dirs["root"] = root
    return dirs


def _write_resolved_config(cfg: dict, root: Path) -> None:
    (root / "config.resolved.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _split_path(dirs: dict, s: int) -> Path:
    return dirs["models"] / f"horizon_{s}.split.json"


def _model_path(dirs: dict, s: int) -> Path:
    return dirs["models"] / f"horizon_{s}.model.json"


def _build_dataset(cfg: dict, wps: series.WindPowerSeries, thresholds, s: int) -> labeling.LabeledDataset:
    horizon = labeling.HorizonSpec(steps_ahead=s, lag_count=cfg["lag_count"])
    return labeling.build_dataset(wps, horizon, thresholds)


def _dataset_sha256(ds: labeling.LabeledDataset) -> str:
    digest = hashlib.sha256()
    for arr in (ds.features, ds.targets, ds.anchor_ts):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _distribution_doc(cfg: dict, wps: series.WindPowerSeries, thresholds) -> dict:
    doc = {"site_id": wps.site_id, "thresholds_mw": list(thresholds.thresholds_mw), "horizons": {}}
    for s in cfg["horizons"]:
        ds = _build_dataset(cfg, wps, thresholds, s)
        dist = labeling.class_distribution(ds)
        doc["horizons"][str(s)] = {
            "rows": len(ds),
            "classes": {str(c): {"count": cnt, "percentage": pct} for c, (cnt, pct) in dist.items()},
        }
    return doc


def _distribution_text(doc: dict) -> str:
    lines = []
    for s, block in doc["horizons"].items():
        lines.append(f"Horizon S={s} ({block['rows']} examples)")
        lines.append(f"{'Class':>6} {'Count':>10} {'Percentage':>11}")
        for c, entry in block["classes"].items():
            lines.append(f"{c:>6} {entry['count']:>10} {entry['percentage']:>10.2f}%")
        lines.append("")
    return "\n".join(lines)


def cmd_prepare(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    _write_resolved_config(cfg, dirs["root"])
    wps, report = _load_series(cfg)
    thresholds = _thresholds(cfg)
    doc = _distribution_doc(cfg, wps, thresholds)
    (dirs["reports"] / "distribution.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (dirs["reports"] / "distribution.txt").write_text(_distribution_text(doc), encoding="utf-8")
    print(
        f"wrote class distributions for {len(cfg['horizons'])} horizons to {dirs['reports']} "
        f"(rows read {report.rows_read}, dropped {report.rows_dropped}, "
        f"gaps {report.gaps}, segments {report.segments})"
    )
    return 0


def cmd_train(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    _write_resolved_config(cfg, dirs["root"])
    seed = cfg["seed"]
    fixed = gbrt.HyperParams(**cfg["hyperparams"])
    grid = cfg["grid"] and evaluation.ParamGrid(
        tuple(cfg["grid"]["n_estimators"]), tuple(cfg["grid"]["max_depth"]), cfg["grid"]["folds"]
    )
    wps, _ = _load_series(cfg)
    thresholds = _thresholds(cfg)
    # keep only each horizon's train part and dataset digest, not the datasets
    parts, digests = [], []
    for s in cfg["horizons"]:
        ds = _build_dataset(cfg, wps, thresholds, s)
        parts.append(evaluation.stratified_split(ds, cfg["test_fraction"], seed)[0])
        digests.append(_dataset_sha256(ds))
        del ds
    fits = evaluation.fit_horizons(parts, grid, fixed, seed=seed, workers=cfg["workers"])
    for s, train_ds, digest, (params, table, model) in zip(cfg["horizons"], parts, digests, fits):
        if grid:
            (dirs["reports"] / f"grid_horizon_{s}.json").write_text(
                json.dumps(
                    {
                        "best": {"n_estimators": params.n_estimators, "max_depth": params.max_depth},
                        "table": [cell.to_dict() for cell in table],
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
        gbrt.save_model(model, _model_path(dirs, s))
        _split_path(dirs, s).write_text(
            json.dumps(
                {"seed": seed, "test_fraction": cfg["test_fraction"], "dataset_sha256": digest},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        print(
            f"horizon S={s}: trained n_estimators={params.n_estimators} "
            f"max_depth={params.max_depth} on {len(train_ds)} rows -> {_model_path(dirs, s)}"
        )
    return 0


def _resplit(dirs: dict, s: int, ds: labeling.LabeledDataset):
    """Re-run the split recorded by ``train`` on the rebuilt dataset."""
    path = _split_path(dirs, s)
    if not path.exists():
        raise DataError(f"split record {path} missing; run `windramp train` first")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        seed, test_fraction = int(record["seed"]), float(record["test_fraction"])
        recorded_sha = str(record["dataset_sha256"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed split record {path}: {exc}") from exc
    if recorded_sha != _dataset_sha256(ds):
        raise DataError(
            f"horizon S={s}: the dataset rebuilt from the series differs from the one "
            "the model was trained on; the series or labeling config changed since "
            "`windramp train`"
        )
    return evaluation.stratified_split(ds, test_fraction, seed)


def cmd_evaluate(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    wps, _ = _load_series(cfg)
    thresholds = _thresholds(cfg)

    def horizons():
        for s in cfg["horizons"]:
            model_path = _model_path(dirs, s)
            if not model_path.exists():
                raise DataError(f"model {model_path} missing; run `windramp train` first")
            model = gbrt.load_model(model_path)
            train_ds, test_ds = _resplit(dirs, s, _build_dataset(cfg, wps, thresholds, s))
            yield model, train_ds, test_ds

    reports = evaluation.evaluate_horizons(wps, horizons())
    # metrics document stays deterministic; wall-clock goes to its own file
    metrics_doc = {"models": [rep.to_dict() for rep in reports]}
    timing_doc = {
        "seconds_per_example": {rep.model_name: rep.test_seconds_per_example for rep in reports}
    }
    (dirs["reports"] / "evaluation.json").write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (dirs["reports"] / "timing.json").write_text(
        json.dumps(timing_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    table = evaluation.format_report_table(reports)
    (dirs["reports"] / "evaluation.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def _read_feature_rows(source: str, lag_count: int) -> np.ndarray:
    try:
        text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read feature rows from {source}: {exc}") from exc
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if line_no == 1 and any(not _is_number(c) for c in cells):
            continue  # header row
        if len(cells) != lag_count:
            raise DataError(
                f"line {line_no}: expected {lag_count} values per row, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
    if not rows:
        raise DataError("no feature rows in input")
    return np.asarray(rows, dtype=np.float64)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def cmd_predict(model_path: str, source: str) -> int:
    model = gbrt.load_model(model_path)
    X = _read_feature_rows(source, model.n_features)
    proba = model.predict_proba(X)
    classes = np.argmax(proba, axis=1) + 1
    for c, p in zip(classes, proba):
        print(json.dumps({"class": int(c), "proba": [round(float(v), 6) for v in p]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windramp",
        description="Wind-power ramp class prediction with gradient boosted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", dest="path", help="delimited input series file")
        p.add_argument("--timestamp-column")
        p.add_argument("--power-column")
        p.add_argument("--delimiter")
        p.add_argument("--site-id")
        p.add_argument("--resolution-s", type=int)
        p.add_argument("--capacity-mw", dest="rated_capacity_mw", type=float)
        p.add_argument("--threshold-fraction", type=float)
        p.add_argument("--threshold-mw", dest="thresholds_mw",
                       help="absolute threshold(s), comma-separated")
        p.add_argument("--horizons", help="comma-separated steps-ahead list, e.g. 1,2,3")
        p.add_argument("--lags", dest="lag_count", type=int, help="length of the lag feature window")
        p.add_argument("--test-fraction", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int,
                       help="processes running grid and final fits at once (default 1); "
                            "outputs do not depend on it")
        p.add_argument("--grid", help="grid spec N_ESTSxDEPTHS[xFOLDS] or 'default'")
        p.add_argument("--out", help="output directory")

    for name, descr in (
        ("prepare", "write the class-distribution report and the resolved config"),
        ("train", "train one model per horizon (grid search when configured)"),
        ("evaluate", "score models against persistence and majority baselines"),
    ):
        add_common(sub.add_parser(name, help=descr))

    p = sub.add_parser("predict", help="classify feature rows with a saved model")
    p.add_argument("model", help="model file written by `windramp train`")
    p.add_argument("input", help="CSV of lag-feature rows ('-' for stdin)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args.model, args.input)
        commands = {"prepare": cmd_prepare, "train": cmd_train, "evaluate": cmd_evaluate}
        return commands[args.command](resolve_config(args))
    except ConfigError as exc:
        _error_line("config", exc)
        return 2
    except DataError as exc:
        _error_line("data", exc)
        return 3
    except (TrainingError, ModelFormatError) as exc:
        _error_line("training", exc)
        return 4
    except WindRampError as exc:
        _error_line("error", exc)
        return 1


def _error_line(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
