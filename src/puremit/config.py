"""Experiment configuration files.

Plain ``key = value`` lines with ``#`` comments. The keys are the fields
of ``ExperimentConfig``, and a key a file leaves out takes the field's
default. A noise model is two dotted keys, its ``kind`` and its
``strength`` (``noise.kind``, ``machinery_noise.strength``). Kind
``none`` takes strength 0 only, since no other strength would be applied.
``shots`` is a positive integer or the word ``exact``. Parsing and
serialization round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .channels import NO_NOISE, NOISE_KINDS, NoiseModel
from .observables import ObservableFormatError, parse_observable
from .resources import SCHEME_KINDS


class ConfigError(ValueError):
    """Malformed configuration; message names the offending line or key."""


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str
    circuit: str
    observable: str
    m: int = 2
    shots: int | None = None  # None means exact evaluation
    trials: int = 1
    seed: int = 0
    noise: NoiseModel = NO_NOISE
    machinery_noise: NoiseModel = NO_NOISE
    dual_noise: NoiseModel | None = None
    output: str | None = None

    def __post_init__(self):
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from {SCHEME_KINDS}"
            )
        if self.m < 1:
            raise ConfigError(f"M must be >= 1, got {self.m}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            parse_observable(self.observable)
        except ObservableFormatError as exc:
            raise ConfigError(f"field 'observable': {exc}") from None


def _is_noise(f) -> bool:
    """Whether a field holds a noise model; annotations here are strings."""
    return "NoiseModel" in f.type


_REQUIRED = ("scheme", "circuit", "observable")
_KNOWN = {
    key
    for f in fields(ExperimentConfig)
    for key in ((f"{f.name}.kind", f"{f.name}.strength") if _is_noise(f) else (f.name,))
}


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"field {key!r}: {value!r} is not an integer") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"field {key!r}: {value!r} is not a number") from None


def _noise_from(values: dict, prefix: str) -> NoiseModel | None:
    """The model ``prefix.kind`` and ``prefix.strength`` set; None if neither is."""
    kind = values.get(f"{prefix}.kind")
    strength = values.get(f"{prefix}.strength")
    if kind is None and strength is None:
        return None
    if kind is None:
        raise ConfigError(f"field {prefix}.strength given without {prefix}.kind")
    if kind not in NOISE_KINDS:
        raise ConfigError(
            f"field {prefix}.kind: unknown noise kind {kind!r}; choose from {NOISE_KINDS}"
        )
    s = _to_float(f"{prefix}.strength", strength) if strength is not None else 0.0
    if kind == "none" and s != 0.0:
        raise ConfigError(f"field {prefix}.strength: {prefix}.kind = none takes 0, got {s!r}")
    try:
        return NoiseModel(kind, s)
    except ValueError as exc:
        raise ConfigError(f"field {prefix}.strength: {exc}") from None


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for key {key!r}")
        values[key] = value
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"{source}: missing required key {key!r}")
    try:
        # shots, converted here, is passed on as it stands
        shots = values.get("shots")
        if shots is not None:
            values["shots"] = None if shots.lower() == "exact" else _to_int("shots", shots)
        # only the fields the file sets; the rest take their defaults
        given = {}
        for f in fields(ExperimentConfig):
            if _is_noise(f):
                model = _noise_from(values, f.name)
                if model is not None:
                    given[f.name] = model
            elif f.name in values:
                value = values[f.name]
                given[f.name] = _to_int(f.name, value) if f.type == "int" else value
        return ExperimentConfig(**given)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def set_fields(config: ExperimentConfig):
    """(name, value) per set field in field order, shots ``exact`` when unset."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "shots" and value is None:
            value = "exact"
        if value is not None:
            yield f.name, value


def format_config(config: ExperimentConfig) -> str:
    """A line per set field (``set_fields``), a noise model two."""
    lines = []
    for name, value in set_fields(config):
        if isinstance(value, NoiseModel):
            lines += [f"{name}.kind = {value.kind}", f"{name}.strength = {value.strength!r}"]
        else:
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))
