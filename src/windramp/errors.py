"""Exception hierarchy and the one number check shared across the package.

The CLI maps these onto its exit codes: ConfigError -> 2, DataError -> 3,
TrainingError and ModelFormatError -> 4.
"""


class WindRampError(Exception):
    """Base class for all windramp errors."""


class ConfigError(WindRampError):
    """Invalid configuration, flags, or parameter values."""


class DataError(WindRampError):
    """Malformed, inconsistent, or insufficient input data."""


class TrainingError(WindRampError):
    """A model cannot be trained from the given dataset."""


class ModelFormatError(WindRampError):
    """A model document is malformed, truncated, or has the wrong version."""


def check_number(key: str, value, kind: type, valid, rule: str):
    """``value`` as ``kind`` (int or float) when ``valid`` holds for it, else a
    ConfigError naming ``key`` and ``rule``, the condition in words. Strings,
    booleans and, for int, fractional numbers are refused. ``valid`` sees the
    value as given, so a bound keeps a huge integer from overflowing ``float()``.
    Callers: ``gbrt.HyperParams`` for its fields and ``cli``'s settings table."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not valid(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return kind(value)
