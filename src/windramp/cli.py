"""Batch pipeline with four commands: prepare, train, evaluate and predict.

Configuration comes from a JSON file (``--config``) with flags overriding
individual fields. One table, ``_SETTINGS``, declares each setting once:
key, flag, default, reader and check. ``resolve_config`` reads each flag's
text with its key's reader, then checks every value with its key's check,
whichever source it came from. The resolved ``data`` object is passed to
``series.load_series`` as its keywords. One helper, ``_horizon_datasets``,
loads that series once and builds each horizon's labeled dataset in memory,
as ``prepare``, ``train`` and ``evaluate`` take it, indexing that one series
without copying its lag windows. Every report is a JSON document, written
once as it was built (sorted keys, 2-space indent):

- ``prepare`` writes ``reports/distribution.json`` (rows and class counts
  per horizon), then ``config.resolved.json``, and prints one summary line
  of what it read.
- ``train`` runs every horizon's grid and final fits on one pool of
  ``--workers`` processes. Then, per horizon S in order, it writes (with a
  grid) ``reports/grid_horizon_S.json``, the winning pair and the CV table,
  and ``models/horizon_S.model.json``, and prints one line. Then it writes
  ``config.resolved.json``, and last ``models/manifest.json``, which maps
  each "S" to ``{"model_sha256", "split_sha256"}``: the sha256 of the model
  file, and of the series' powers followed by the train part's and then the
  test part's window starts and targets. A failed run leaves the last config
  and manifest.
- ``evaluate`` first refuses (exit 3) a manifest that is missing or not a
  JSON object, or a horizon it does not list. It splits by its own ``seed``
  and ``test_fraction`` and refuses a horizon whose entry differs from the
  loaded model's and the dealt rows': the model file, the series' powers,
  a labeling setting or a split setting changed since ``train``. It
  writes ``reports/evaluation.json`` (the deterministic scores) and
  ``reports/timing.json`` (wall-clock seconds per example). It prints the
  comparison table, which is rendered from those two and not stored.
- ``predict`` prints one JSON line (class and probabilities) per row.

Exit codes: 0 success, 2 config error (a bad command line too, and an
output path that cannot be written), 3 data error, 4 training or model
error. Errors print one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import evaluation, gbrt, labeling, series
from .errors import ConfigError, DataError, ModelFormatError, TrainingError, WindRampError, check_number

CONFIG_VERSION = 1


def _read_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _object("config", doc, ["version", "data", *(key for key in _SETTINGS if "." not in key)])
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")
    doc["data"] = _object("data", doc.get("data", {}), [key.partition(".")[2] for key in _SETTINGS if "." in key])
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


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- flags, as the types the commands read. A
    flag's dest is the last part of its key (``data.path`` -> ``path``)."""
    doc = _read_config_file(args.config) if args.config else {"data": {}}
    flags = vars(args)
    if flags["threshold_fraction"] is not None:  # the flag also overrides the file's absolute thresholds
        doc.pop("thresholds_mw", None)
    cfg = {"version": CONFIG_VERSION, "data": {}}
    for key, setting in _SETTINGS.items():
        section, _, name = key.rpartition(".")
        value = (doc[section] if section else doc).get(name, copy.deepcopy(setting.default))
        text = flags.get(name)
        if text is not None:
            try:
                value = setting.read(text)
            except ValueError as exc:
                raise ConfigError(f"bad {key} flag {text!r}: {exc}") from exc
        (cfg[section] if section else cfg)[name] = setting.check(key, value)
    return cfg


def _object(key: str, value, known) -> dict:
    """``value`` when it is a JSON object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"unknown {key} key(s): {', '.join(unknown)}")
    return value


def _number(kind: type, valid, rule: str):
    """The check of a number key: ``check_number`` with these rules."""
    return lambda key, value: check_number(key, value, kind, valid, rule)


def _numbers(kind: type, valid, rule: str):
    """The check of a key holding a non-empty list of numbers."""
    def checked(key: str, values) -> list:
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{key} must be a non-empty list of numbers, got {values!r}")
        return [check_number(key, v, kind, valid, rule) for v in values]
    return checked


def _must_be(valid, rule: str, check=lambda key, value: value):
    """``check``, then ``valid`` on the value it returns (``rule`` in words,
    as in "delimiter must be one character")."""
    def checked(key: str, value):
        value = check(key, value)
        if not valid(value):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
        return value
    return checked


def _optional(check):
    """``check``, letting null stand for its key's documented meaning."""
    return lambda key, value: None if value is None else check(key, value)


def _required(message: str, check):
    """``check``, refusing a missing or empty value with ``message``."""
    def checked(key: str, value):
        if value is None or value == "":
            raise ConfigError(message)
        return check(key, value)
    return checked


def _hyperparams(key: str, value) -> dict:
    gbrt.HyperParams(**_object(key, value, gbrt.HYPERPARAM_RULES))  # checks each value, naming its field
    return value


def _grid(key: str, grid) -> dict:
    """Grid choices obey the rules of the HyperParams fields they set."""
    _object(key, grid, ("n_estimators", "max_depth", "folds"))
    checked = {name: _numbers(*gbrt.HYPERPARAM_RULES[name])(f"{key}.{name}", grid.get(name))
               for name in ("n_estimators", "max_depth")}
    folds = check_number(f"{key}.folds", grid.get("folds", evaluation.ParamGrid.folds), int, lambda v: v >= 2, ">= 2")
    return {**checked, "folds": folds}


_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: 0 < v <= sys.float_info.max, "finite and > 0")
_string = _must_be(lambda v: isinstance(v, str), "a string")

# a setting's flag (None: config file only), its default (copied for each resolve), the reader of the
# flag's text (raises ValueError), the check of a value from either source, and the flag's help
_Setting = namedtuple("_Setting", "flag default read check help", defaults=[None])

# every setting, in the order flags apply; "data." keys live in the config's "data" object
_SETTINGS = {
    "data.path": _Setting("--data", None, str, _required("no input data path given (config data.path or --data)",
                                                         _string), "delimited input series file"),
    "data.timestamp_column": _Setting("--timestamp-column", "timestamp", str, _string),
    "data.power_column": _Setting("--power-column", "power_mw", str, _string),
    "data.delimiter": _Setting("--delimiter", ",", str, _must_be(lambda v: len(v) == 1 and v not in "\r\n",
                                                                 "one character other than a line break", _string)),
    "resolution_s": _Setting("--resolution-s", 600, int, _number(int, *_AT_LEAST_1)),
    "rated_capacity_mw": _Setting("--capacity-mw", None, float, _required(
        "rated capacity is required (config rated_capacity_mw or --capacity-mw)", _number(float, *_POSITIVE))),
    "threshold_fraction": _Setting("--threshold-fraction", 0.5, float,
                                   _number(float, lambda v: 0 < v <= 1, "in (0, 1]")),
    "thresholds_mw": _Setting("--threshold-mw", None, lambda text: [float(v) for v in text.split(",")],
                              _optional(_must_be(lambda v: v == sorted(set(v)), "strictly increasing",
                                                 _numbers(float, *_POSITIVE))),
                              "absolute threshold(s), comma-separated"),
    "horizons": _Setting("--horizons", [1, 2, 3, 4, 5, 6], lambda text: [int(v) for v in text.split(",")],
                         _must_be(lambda v: len(set(v)) == len(v), "distinct", _numbers(int, *_AT_LEAST_1)),
                         "comma-separated steps-ahead list, e.g. 1,2,3"),
    "lag_count": _Setting("--lags", 36, int, _number(int, *_AT_LEAST_1), "length of the lag feature window"),
    "test_fraction": _Setting("--test-fraction", 0.2, float, _number(float, lambda v: 0 < v < 1, "in (0, 1)")),
    "seed": _Setting("--seed", 0, int, _number(int, lambda v: v >= 0, ">= 0")),
    "workers": _Setting("--workers", 1, int, _number(int, *_AT_LEAST_1),
                        "fit processes run at once (default 1, capped at the core count); outputs do not depend on it"),
    "hyperparams": _Setting(None, {}, None, _hyperparams),
    "grid": _Setting("--grid", None, _parse_grid_spec, _optional(_grid),
                     "grid spec N_ESTSxDEPTHS[xFOLDS] or 'default'"),
    "out": _Setting("--out", "out", str, _string, "output directory"),
}


def _horizon_datasets(cfg: dict):
    """Load the configured series once. Returns its ``LoadReport`` and an
    iterator of each horizon's ``(S, labeled dataset)``, built as it is taken.
    A dataset holds all that scoring reads of the series, persistence too."""
    wps, report = series.load_series(**cfg["data"], resolution_s=cfg["resolution_s"],
                                     rated_capacity_mw=cfg["rated_capacity_mw"])
    thresholds = (labeling.ThresholdSet(tuple(cfg["thresholds_mw"])) if cfg["thresholds_mw"]
                  else labeling.ThresholdSet.from_fraction(cfg["threshold_fraction"], cfg["rated_capacity_mw"]))
    return report, ((s, labeling.build_dataset(wps, labeling.HorizonSpec(s, cfg["lag_count"]), thresholds))
                    for s in cfg["horizons"])


def _write(path: Path, write) -> None:
    """``write(path)``, refusing an unusable output path (an OSError) with a
    ConfigError that names it: the path comes from the config's ``out``."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _out_dirs(cfg: dict) -> dict[str, Path]:
    root = Path(cfg["out"])
    dirs = {name: root / name for name in ("models", "reports")}
    for d in dirs.values():
        _write(d, lambda path: path.mkdir(parents=True, exist_ok=True))
    dirs["root"] = root
    return dirs


def _write_json(path: Path, doc) -> None:
    _write(path, lambda path: path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"))


def _model_path(dirs: dict, s: int) -> Path:
    return dirs["models"] / f"horizon_{s}.model.json"


def _split(cfg: dict, s: int, ds: labeling.LabeledDataset):
    """``(train part, test part, split_sha256)`` of horizon S's dataset split
    by the config's seed and test_fraction; a part left empty is refused. The
    digest is the sha256 of the series' powers, then the train part's and the
    test part's window starts and targets: it binds every window, target and
    lag count (for a fixed S, another L deals another number of starts)."""
    train_ds, test_ds = evaluation.stratified_split(ds, cfg["test_fraction"], cfg["seed"])
    if not (len(train_ds) and len(test_ds)):
        raise DataError(f"horizon S={s}: test_fraction {cfg['test_fraction']} leaves the "
                        f"{'train' if len(test_ds) else 'test'} part of {len(train_ds) + len(test_ds)} rows empty")
    digest = hashlib.sha256(ds.powers)  # a dataset's arrays are C-contiguous: hashed in place, not copied
    for part in (train_ds, test_ds):
        digest.update(part.starts)
        digest.update(part.targets)
    return train_ds, test_ds, digest.hexdigest()


def _manifest_entry(model: gbrt.GbrtModel, split: str) -> dict:
    """A horizon's manifest entry. The model document round-trips, so its digest is that of the model file."""
    return {"model_sha256": hashlib.sha256(gbrt.serialize_model(model).encode()).hexdigest(), "split_sha256": split}


def cmd_prepare(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    report, datasets = _horizon_datasets(cfg)
    doc = {"horizons": {}}
    for s, ds in datasets:
        dist = labeling.class_distribution(ds)
        doc["thresholds_mw"] = list(ds.thresholds.thresholds_mw)  # the config's, for every horizon
        doc["horizons"][str(s)] = {
            "rows": len(ds),
            "classes": {str(c): {"count": cnt, "percentage": pct} for c, (cnt, pct) in dist.items()},
        }
    _write_json(dirs["reports"] / "distribution.json", doc)
    _write_json(dirs["root"] / "config.resolved.json", cfg)
    print(
        f"wrote class distributions for {len(cfg['horizons'])} horizons to {dirs['reports']} "
        f"(rows read {report.rows_read}, dropped {report.rows_dropped}, "
        f"gaps {report.gaps}, segments {report.segments})"
    )
    return 0


def cmd_train(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    fixed = gbrt.HyperParams(**cfg["hyperparams"])
    grid = cfg["grid"] and evaluation.ParamGrid(
        tuple(cfg["grid"]["n_estimators"]), tuple(cfg["grid"]["max_depth"]), cfg["grid"]["folds"]
    )
    _, datasets = _horizon_datasets(cfg)
    # keep only each horizon's train part and split digest, not the datasets
    parts, digests = [], []
    for s, ds in datasets:
        train_ds, test_ds, digest = _split(cfg, s, ds)
        del ds, test_ds
        parts.append(train_ds)
        digests.append(digest)
    fits = evaluation.fit_horizons(parts, grid, fixed, seed=cfg["seed"], workers=cfg["workers"])
    manifest = {}
    for s, train_ds, digest, (params, table, model) in zip(cfg["horizons"], parts, digests, fits):
        if grid:
            _write_json(dirs["reports"] / f"grid_horizon_{s}.json", {
                "best": {"n_estimators": params.n_estimators, "max_depth": params.max_depth},
                "table": table,
            })
        _write(_model_path(dirs, s), lambda path: gbrt.save_model(model, path))
        manifest[str(s)] = _manifest_entry(model, digest)
        print(
            f"horizon S={s}: trained n_estimators={params.n_estimators} "
            f"max_depth={params.max_depth} on {len(train_ds)} rows -> {_model_path(dirs, s)}"
        )
    _write_json(dirs["root"] / "config.resolved.json", cfg)
    _write_json(dirs["models"] / "manifest.json", manifest)
    return 0


def _read_manifest(dirs: dict, horizons) -> dict:
    """``train``'s manifest, refused when missing, not a JSON object or without one of ``horizons``."""
    path = dirs["models"] / "manifest.json"
    if not path.exists():
        raise DataError(f"manifest {path} missing; run `windramp train` first")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad JSON and UTF-8
        raise DataError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"malformed manifest {path}: expected a JSON object; re-run `windramp train`")
    for s in horizons:
        if str(s) not in manifest:
            raise DataError(f"horizon S={s} is not in {path}; the last `windramp train` did not fit it")
    return manifest


def cmd_evaluate(cfg: dict) -> int:
    dirs = _out_dirs(cfg)
    manifest = _read_manifest(dirs, cfg["horizons"])
    _, datasets = _horizon_datasets(cfg)

    def horizons():
        for s, ds in datasets:
            model = gbrt.load_model(_model_path(dirs, s))
            train_ds, test_ds, digest = _split(cfg, s, ds)
            del ds
            if manifest[str(s)] != _manifest_entry(model, digest):
                raise DataError(f"horizon S={s} differs from the manifest: the model file, the series, a labeling "
                                "setting or a split setting (seed, test_fraction) changed since `windramp train`")
            yield model, train_ds, test_ds

    doc, seconds = evaluation.evaluate_horizons(horizons())
    # the metrics document stays deterministic; wall-clock goes to its own file
    _write_json(dirs["reports"] / "evaluation.json", doc)
    _write_json(dirs["reports"] / "timing.json", {"seconds_per_example": seconds})
    print(evaluation.format_report_table(doc, seconds), end="")
    return 0


def _read_feature_rows(source: str, lag_count: int) -> np.ndarray:
    try:  # stdin and a file alike: bytes, decoded once, skipping a byte-order mark
        text = (sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()).decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read feature rows from {source}: {exc}") from exc
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        cells = line.strip().split(",")
        values = [_float(c) for c in cells]
        if cells == [""] or line_no == 1 and values.count(None) == len(values):
            continue  # a blank line, or a header row: no cell of it is a number
        if len(cells) != lag_count:
            raise DataError(f"line {line_no}: expected {lag_count} values per row, got {len(cells)}")
        series.check_cells(line_no, *cells)
        bad = [c for c, v in zip(cells, values) if v is None or not math.isfinite(v)]
        if bad:
            raise DataError(f"line {line_no}: {bad[0]!r} is not a finite number")
        rows.append(values)
    if not rows:
        raise DataError("no feature rows in input")
    return np.asarray(rows, dtype=np.float64)


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def cmd_predict(model_path: str, source: str) -> int:
    model = gbrt.load_model(model_path)
    X = _read_feature_rows(source, model.n_features)
    proba = model.predict_proba(X)
    classes = np.argmax(proba, axis=1) + 1
    for c, p in zip(classes, proba):
        print(json.dumps({"class": int(c), "proba": [round(float(v), 6) for v in p]}))
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ConfigError (one JSON line, exit 2)
    instead of a usage block; its subcommand parsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="windramp",
        description="Wind-power ramp class prediction with gradient boosted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in (
        ("prepare", "write the class-distribution report and the resolved config"),
        ("train", "train one model per horizon (grid search when configured)"),
        ("evaluate", "score models against persistence and majority baselines"),
    ):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", help="JSON config file")
        for key, setting in _SETTINGS.items():
            if setting.flag:
                p.add_argument(setting.flag, dest=key.rpartition(".")[2], help=setting.help)

    p = sub.add_parser("predict", help="classify feature rows with a saved model")
    p.add_argument("model", help="model file written by `windramp train`")
    p.add_argument("input", help="CSV of lag-feature rows ('-' for stdin)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
