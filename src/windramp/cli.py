"""Batch pipeline: prepare, train, evaluate, predict, distribution.

Configuration comes from a JSON file (``--config``) with flags overriding
individual fields; every run writes the resolved configuration next to its
outputs. ``train`` and ``evaluate`` rebuild each horizon's labeled dataset
from the series in memory; ``prepare`` writes only the class-distribution
report. ``train`` records each split as (seed, test fraction, dataset
sha256) beside the model, and ``evaluate`` refuses to score a model whose
series has changed since. Exit codes: 0 success, 2 config error, 3 data
error, 4 training or model error. Errors print one JSON line to stderr.
"""

from __future__ import annotations

import argparse
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")
    return doc


def _parse_grid_spec(text: str) -> dict:
    """'50,100,200x2,4,6' -> grid dict; 'default' -> the standard grid."""
    if text == "default":
        return {"n_estimators": [50, 100, 200], "max_depth": [2, 4, 6], "folds": 3}
    parts = text.split("x")
    if len(parts) not in (2, 3):
        raise ConfigError(
            f"bad --grid {text!r}; expected N_EST_CHOICESxDEPTH_CHOICES[xFOLDS], "
            "e.g. 50,100,200x2,4,6"
        )
    try:
        n_est = [int(v) for v in parts[0].split(",")]
        depths = [int(v) for v in parts[1].split(",")]
        folds = int(parts[2]) if len(parts) == 3 else 3
    except ValueError as exc:
        raise ConfigError(f"bad --grid {text!r}: {exc}") from exc
    return {"n_estimators": n_est, "max_depth": depths, "folds": folds}


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- flags, validated."""
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))
    if getattr(args, "config", None):
        file_cfg = _read_config_file(args.config)
        for key, value in file_cfg.items():
            if key == "data" and isinstance(value, dict):
                cfg["data"].update(value)
            else:
                cfg[key] = value

    if getattr(args, "data", None):
        cfg["data"]["path"] = args.data
    for flag, key in (
        ("timestamp_column", "timestamp_column"),
        ("power_column", "power_column"),
        ("delimiter", "delimiter"),
        ("site_id", "site_id"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg["data"][key] = value
    if getattr(args, "resolution_s", None) is not None:
        cfg["resolution_s"] = args.resolution_s
    if getattr(args, "capacity_mw", None) is not None:
        cfg["rated_capacity_mw"] = args.capacity_mw
    if getattr(args, "threshold_fraction", None) is not None:
        cfg["threshold_fraction"] = args.threshold_fraction
        cfg["thresholds_mw"] = None
    if getattr(args, "threshold_mw", None) is not None:
        try:
            cfg["thresholds_mw"] = [float(v) for v in args.threshold_mw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --threshold-mw {args.threshold_mw!r}") from exc
    if getattr(args, "horizons", None) is not None:
        try:
            cfg["horizons"] = [int(v) for v in args.horizons.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --horizons {args.horizons!r}") from exc
    if getattr(args, "lags", None) is not None:
        cfg["lag_count"] = args.lags
    if getattr(args, "test_fraction", None) is not None:
        cfg["test_fraction"] = args.test_fraction
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        cfg["workers"] = args.workers
    if getattr(args, "grid", None) is not None:
        cfg["grid"] = _parse_grid_spec(args.grid)
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if not cfg["data"]["path"]:
        raise ConfigError("no input data path given (config data.path or --data)")
    if cfg["rated_capacity_mw"] is None:
        raise ConfigError("rated capacity is required (config rated_capacity_mw or --capacity-mw)")
    if not (float(cfg["rated_capacity_mw"]) > 0):
        raise ConfigError(f"rated_capacity_mw must be > 0, got {cfg['rated_capacity_mw']}")
    horizons = cfg["horizons"]
    if not horizons or len(set(horizons)) != len(horizons) or any(s < 1 for s in horizons):
        raise ConfigError(f"horizons must be distinct integers >= 1, got {horizons}")
    if cfg["thresholds_mw"] is None and not (0 < float(cfg["threshold_fraction"]) <= 1):
        raise ConfigError(
            f"threshold_fraction must be in (0, 1], got {cfg['threshold_fraction']}"
        )
    if int(cfg["lag_count"]) < 1:
        raise ConfigError(f"lag_count must be >= 1, got {cfg['lag_count']}")
    if not (0 < float(cfg["test_fraction"]) < 1):
        raise ConfigError(f"test_fraction must be in (0, 1), got {cfg['test_fraction']}")
    if cfg["workers"] is not None and int(cfg["workers"]) < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg['workers']}")


def _thresholds(cfg: dict) -> labeling.ThresholdSet:
    if cfg["thresholds_mw"]:
        return labeling.ThresholdSet(tuple(cfg["thresholds_mw"]))
    return labeling.ThresholdSet.from_fraction(
        float(cfg["threshold_fraction"]), float(cfg["rated_capacity_mw"])
    )


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
        resolution_s=int(cfg["resolution_s"]),
        rated_capacity_mw=float(cfg["rated_capacity_mw"]),
        site_id=data.get("site_id", ""),
    )


def _hyperparams(cfg: dict) -> gbrt.HyperParams:
    return gbrt.HyperParams(**cfg.get("hyperparams", {}))


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
    horizon = labeling.HorizonSpec(steps_ahead=int(s), lag_count=int(cfg["lag_count"]))
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


def cmd_distribution(cfg: dict, as_json: bool) -> int:
    wps, _ = _load_series(cfg)
    doc = _distribution_doc(cfg, wps, _thresholds(cfg))
    print(json.dumps(doc, indent=2, sort_keys=True) if as_json else _distribution_text(doc))
    return 0


def cmd_train(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    _write_resolved_config(cfg, dirs["root"])
    seed = int(cfg["seed"])
    workers = cfg["workers"]
    workers = None if workers is None else int(workers)
    fixed = _hyperparams(cfg)
    wps, _ = _load_series(cfg)
    thresholds = _thresholds(cfg)
    for s in cfg["horizons"]:
        s = int(s)
        ds = _build_dataset(cfg, wps, thresholds, s)
        train_ds, _ = evaluation.stratified_split(ds, float(cfg["test_fraction"]), seed)
        params = fixed
        if cfg["grid"]:
            grid = evaluation.ParamGrid(
                n_estimators_choices=tuple(cfg["grid"]["n_estimators"]),
                max_depth_choices=tuple(cfg["grid"]["max_depth"]),
                folds=int(cfg["grid"].get("folds", 3)),
            )
            params, table = evaluation.grid_search(train_ds, grid, fixed, seed=seed, workers=workers)
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
        model = gbrt.train(train_ds, params, workers=workers)
        gbrt.save_model(model, _model_path(dirs, s))
        _split_path(dirs, s).write_text(
            json.dumps(
                {
                    "seed": seed,
                    "test_fraction": float(cfg["test_fraction"]),
                    "dataset_sha256": _dataset_sha256(ds),
                },
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
            s = int(s)
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
    text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
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
        p.add_argument("--data", help="delimited input series file")
        p.add_argument("--timestamp-column", dest="timestamp_column")
        p.add_argument("--power-column", dest="power_column")
        p.add_argument("--delimiter")
        p.add_argument("--site-id", dest="site_id")
        p.add_argument("--resolution-s", dest="resolution_s", type=int)
        p.add_argument("--capacity-mw", dest="capacity_mw", type=float)
        p.add_argument("--threshold-fraction", dest="threshold_fraction", type=float)
        p.add_argument("--threshold-mw", dest="threshold_mw",
                       help="absolute threshold(s), comma-separated")
        p.add_argument("--horizons", help="comma-separated steps-ahead list, e.g. 1,2,3")
        p.add_argument("--lags", type=int, help="length of the lag feature window")
        p.add_argument("--test-fraction", dest="test_fraction", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--grid", help="grid spec N_ESTSxDEPTHS[xFOLDS] or 'default'")
        p.add_argument("--out", help="output directory")

    for name, descr in (
        ("prepare", "write the class-distribution report and the resolved config"),
        ("train", "train one model per horizon (grid search when configured)"),
        ("evaluate", "score models against persistence and majority baselines"),
        ("distribution", "print per-horizon class distributions"),
    ):
        p = sub.add_parser(name, help=descr)
        add_common(p)
        if name == "distribution":
            p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("predict", help="classify feature rows with a saved model")
    p.add_argument("model", help="model file written by `windramp train`")
    p.add_argument("input", help="CSV of lag-feature rows ('-' for stdin)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args.model, args.input)
        cfg = resolve_config(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "distribution":
            return cmd_distribution(cfg, args.json)
        raise ConfigError(f"unknown command {args.command!r}")
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
