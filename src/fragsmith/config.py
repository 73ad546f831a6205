"""Pipeline configuration: key=value file, FRAGSMITH_* env overrides,
then command-line flags, in increasing precedence; and the one reader of
every text file the package reads."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, get_args, get_type_hints

ENV_PREFIX = "FRAGSMITH_"
_DATA_DIR = Path(__file__).parent / "data"


class ConfigError(ValueError):
    pass


class UnreadableFileError(OSError):
    """A text file that cannot be opened or holds a byte that is not UTF-8."""


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(PATH:LINE, line)`` for every line of the UTF-8 text file
    ``path``, without its newline; a line ends at ``\\n``, ``\\r\\n`` or
    ``\\r``. Raises UnreadableFileError as ``cannot read PATH: <reason>``
    when the file cannot be opened, and as ``PATH:LINE: not UTF-8 ...`` at
    the first line holding a byte that does not decode."""
    try:
        # An undecodable byte b is read as the lone surrogate U+DC00 + b,
        # which a valid line never holds and ``str.encode`` rejects.
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise UnreadableFileError(
                        f"{path}:{lineno}: not UTF-8: byte {byte:#04x} at column {exc.start + 1}"
                    ) from None
            yield f"{path}:{lineno}", line.rstrip("\n")


def read_data_lines(path: str | Path | None, shipped: str) -> Iterator[tuple[str, str]]:
    """Yield ``(PATH:LINE, line)`` for every line of ``path`` that is not
    blank and does not start with ``#``. Without a path, read the
    package's data file ``shipped``. The file is read on every call."""
    for where, line in read_lines(_DATA_DIR / shipped if path is None else path):
        if line.strip() and not line.lstrip().startswith("#"):
            yield where, line


@dataclass
class PipelineConfig:
    seed: int = 0
    k: int | None = None  # None: compute from the library
    alpha: float = 1.5
    shards: int = 50000  # records per shard
    out: str = "out"
    vocab: str | None = None  # saved vocab file
    groups: str | None = None  # functional-group file
    templates: str | None = None
    invalid_as_zero: bool = False
    special_pairing: str = "mnemonic"


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, raw: str, target_type) -> object:
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    return raw


# Each key's value type; ``X | None`` keys take an ``X``.
_FIELD_TYPES = {
    name: (get_args(hint) or (hint,))[0]
    for name, hint in get_type_hints(PipelineConfig).items()
}


def load_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file (# comments allowed)."""
    values: dict = {}
    for where, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw, _FIELD_TYPES[key])
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return values


def env_overrides(environ=None) -> dict:
    env = os.environ if environ is None else environ
    values: dict = {}
    for name in _FIELD_TYPES:
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is not None:
            values[name] = _coerce(name, raw, _FIELD_TYPES[name])
    return values


def resolve_config(
    config_path: str | Path | None = None,
    flag_values: dict | None = None,
    environ=None,
) -> PipelineConfig:
    cfg = PipelineConfig()
    layers = []
    if config_path is not None:
        layers.append(load_config_file(config_path))
    layers.append(env_overrides(environ))
    if flag_values:
        layers.append({k: v for k, v in flag_values.items() if v is not None})
    for layer in layers:
        for key, value in layer.items():
            if key in _FIELD_TYPES:
                setattr(cfg, key, value)
    for key, ok, allowed in (
        ("k", cfg.k is None or cfg.k >= 1, ">= 1"),
        ("alpha", 0 < cfg.alpha < math.inf, "a finite number > 0"),
        ("shards", cfg.shards >= 1, ">= 1"),
        ("special_pairing", cfg.special_pairing in ("mnemonic", "paper"), "'mnemonic' or 'paper'"),
    ):
        if not ok:
            raise ConfigError(f"{key} must be {allowed}, got {getattr(cfg, key)!r}")
    return cfg
