"""Run configuration and observation-stream parsing.

Config files are flat `key = value` text: `#` starts a comment, list values
are comma-separated, compound list items use colons (`point:mass` for
reference atoms, `lo:hi:mass` for density pieces). Observation files carry
one numeral per line. Both formats are deliberately diff-able.

validate_config is the single gate: it fills defaults, cross-checks the
partition family against the reference measure, stamps a digest, and builds
the command's one prototype estimator, which runs every constructor check.
build_estimator hands out fresh() copies of that prototype, so the family,
the cell masses and the cell averages are built once per config. Anything
validate_config accepts will run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, ParseError
from .estimator import MixtureEstimator, default_weights
from .partition import PartitionFamily, countable_tail_family, dyadic_family, mixed_family
from .reference import ReferenceMeasure, example3_rule
from .sources import SOURCE_KINDS

__all__ = [
    "ObservationRecord",
    "RunConfig",
    "parse_observations",
    "parse_config",
    "validate_config",
    "load_config",
    "build_family",
    "build_reference",
    "build_estimator",
    "build_source",
    "PRETRANSFORMS",
]

DEFAULT_LEVELS = 6
DEFAULT_MAX_ORDER = 2
DEFAULT_CHECKPOINTS = tuple(2**k for k in range(8, 15))
DEFAULT_SEEDS = tuple(range(20))

_NEAR_ONE = math.nextafter(1.0, 0.0)


def _logistic(x: float) -> float:
    # mathematically lands in (0,1); clamp the float saturation at the top
    if x >= 0:
        v = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        v = e / (1.0 + e)
    return min(v, _NEAR_ONE)


PRETRANSFORMS = {
    "identity": lambda x: x,
    "logistic": _logistic,
}


@dataclass(frozen=True)
class ObservationRecord:
    """One parsed input value and where it came from."""

    value: float
    line: int


def parse_observations(lines: Iterable[str]) -> Iterator[ObservationRecord]:
    """Yield records from line-oriented text; constant memory.

    Integer-looking numerals parse to int (countable supports need exact
    naturals), everything else to float. Blank and `#` lines are skipped.
    """
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"not a numeral: {text!r}", line=lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"not a finite number: {text!r}", line=lineno)
        yield ObservationRecord(value, lineno)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; produced by validate_config, then immutable."""

    family: str = "dyadic"
    lower: float = 0.0
    upper: float = 1.0
    atoms: tuple = ()
    levels: int = DEFAULT_LEVELS
    max_order: int = DEFAULT_MAX_ORDER
    weights: Optional[tuple] = None
    eta_atoms: Optional[tuple] = None  # ((point, mass), ...)
    eta_pieces: Optional[tuple] = None  # ((lo, hi, mass), ...)
    eta_countable: Optional[str] = None
    source: Optional[str] = None
    atom_point: float = -1.0
    atom_mass: float = 0.5
    eta_atom_mass: float = 0.5
    continuous: str = "uniform"
    ratio: float = 0.5
    stay: float = 0.9
    breaks: Optional[tuple] = None
    densities: Optional[tuple] = None
    n: int = 2**14
    seed: int = 0
    seeds: tuple = DEFAULT_SEEDS
    checkpoints: tuple = DEFAULT_CHECKPOINTS
    pretransform: str = "identity"
    r: Optional[str] = None  # validate_config: identity, or cell:0 on countable
    digest: str = field(default="", compare=False)


_FLOAT_KEYS = {"lower", "upper", "atom_point", "atom_mass", "eta_atom_mass", "ratio", "stay"}
_INT_KEYS = {"levels", "max_order", "n", "seed"}
_STR_KEYS = {"family", "eta_countable", "source", "continuous", "pretransform", "r"}
_FLOAT_LIST_KEYS = {"atoms", "weights", "breaks", "densities"}
_INT_LIST_KEYS = {"seeds", "checkpoints"}
_COMPOUND_KEYS = {"eta_atoms": 2, "eta_pieces": 3}


def _parse_scalar(key: str, text: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value for {key}: {text!r}") from None
    return text


def parse_config(text: str) -> dict:
    """Raw `key = value` lines to a typed dict; unknown keys are errors."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _FLOAT_LIST_KEYS:
                out[key] = tuple(float(v) for v in val.split(",")) if val else ()
            elif key in _INT_LIST_KEYS:
                out[key] = tuple(int(v) for v in val.split(","))
            elif key in _COMPOUND_KEYS:
                width = _COMPOUND_KEYS[key]
                items = []
                if val:
                    for item in val.split(","):
                        parts = item.split(":")
                        if len(parts) != width:
                            raise ConfigError(
                                f"line {lineno}: {key} items need {width} colon-separated fields"
                            )
                        items.append(tuple(float(p) for p in parts))
                out[key] = tuple(items)
            elif key in _STR_KEYS | _FLOAT_KEYS | _INT_KEYS:
                out[key] = _parse_scalar(key, val, lineno)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    return out


def build_family(config: RunConfig) -> PartitionFamily:
    try:
        if config.family == "dyadic":
            return dyadic_family(config.lower, config.upper, config.levels)
        if config.family == "countable":
            return countable_tail_family(config.levels)
        if config.family == "mixed":
            return mixed_family(config.atoms, config.lower, config.upper, config.levels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown family kind {config.family!r}")


def build_reference(config: RunConfig) -> ReferenceMeasure:
    atoms = config.eta_atoms
    pieces = config.eta_pieces
    countable = config.eta_countable
    if atoms is None and pieces is None and countable is None:
        # matched defaults per family kind
        if config.family == "dyadic":
            pieces = ((config.lower, config.upper, 1.0),)
        elif config.family == "countable":
            countable = "harmonic-gap"
        else:
            share = 0.5 / len(config.atoms) if config.atoms else 0.0
            atoms = tuple((a, share) for a in config.atoms)
            pieces = ((config.lower, config.upper, 0.5),)
    rule = None
    if countable not in (None, "none"):
        if countable != "harmonic-gap":
            raise ConfigError(f"unknown countable reference rule {countable!r}")
        rule = example3_rule()
    try:
        return ReferenceMeasure(
            atoms=atoms or (), pieces=pieces or (), countable=rule
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_source(config: RunConfig):
    if config.source is None:
        raise ConfigError("config has no source")
    kind = {"binary-markov": "binary-markov-embedded"}.get(config.source, config.source)
    cls = SOURCE_KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown source kind {config.source!r}")
    try:
        if kind == "uniform-iid":
            return cls()
        if kind == "piecewise-density-iid":
            kwargs = {}
            if config.breaks is not None:
                kwargs["breaks"] = config.breaks
            if config.densities is not None:
                kwargs["densities"] = config.densities
            return cls(**kwargs)
        if kind == "mixed-atom":
            return cls(
                atom_point=config.atom_point,
                atom_mass=config.atom_mass,
                eta_atom_mass=config.eta_atom_mass,
                continuous=config.continuous,
            )
        if kind == "countable-geometric":
            return cls(ratio=config.ratio)
        return cls(stay=config.stay)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@lru_cache(maxsize=1)
def _prototype(config: RunConfig) -> MixtureEstimator:
    # RunConfig is frozen and leaves digest out of equality, so the validated
    # config and its stamped copy share this entry
    return MixtureEstimator(
        build_family(config),
        build_reference(config),
        weights=config.weights,
        max_order=config.max_order,
    )


def build_estimator(config: RunConfig) -> MixtureEstimator:
    """An estimator that has seen no data; shares the config's prototype."""
    return _prototype(config).fresh()


def _canonical(config: RunConfig) -> str:
    def fmt(v):
        if isinstance(v, float):
            return "%.12g" % v
        if isinstance(v, tuple):
            return ",".join(fmt(x) for x in v)
        return str(v)

    keys = sorted(k for k in config.__dataclass_fields__ if k != "digest")
    return "\n".join(f"{k}={fmt(getattr(config, k))}" for k in keys)


def validate_config(config: RunConfig) -> RunConfig:
    """Fill defaults, cross-check everything, stamp the digest.

    Idempotent; every violated invariant is reported by name. An accepted
    config always yields a constructible estimator.
    """
    if config.levels < 1:
        raise ConfigError("levels must be >= 1")
    if config.max_order < 0:
        raise ConfigError("max_order must be >= 0")
    if config.pretransform not in PRETRANSFORMS:
        raise ConfigError(f"unknown pretransform {config.pretransform!r}")
    if config.n < 1:
        raise ConfigError("n must be >= 1")
    if not config.seeds:
        raise ConfigError("seeds must be nonempty")
    if not config.checkpoints or any(
        a >= b for a, b in zip(config.checkpoints, config.checkpoints[1:])
    ):
        raise ConfigError("checkpoints must be strictly increasing and nonempty")

    source = build_source(config) if config.source is not None else None
    normalized = replace(
        config,
        source=source.kind if source is not None else None,
        weights=(
            tuple(float(w) for w in config.weights)
            if config.weights is not None
            else tuple(float(w) for w in default_weights(config.levels))
        ),
    )
    if source is not None and normalized.family == "dyadic" and config.family == "dyadic":
        # family default follows the source when it needs a different shape
        if source.kind == "countable-geometric":
            normalized = replace(normalized, family="countable")
        elif source.kind == "mixed-atom":
            normalized = replace(normalized, family="mixed", atoms=(config.atom_point,))
    if (
        source is not None
        and config.eta_atoms is None
        and config.eta_pieces is None
        and config.eta_countable is None
    ):
        # absent eta keys default to the source's matched reference, made
        # explicit so the digest pins the effective measure
        ref = source.reference()
        normalized = replace(
            normalized,
            eta_atoms=ref.atoms if ref.atoms else None,
            eta_pieces=ref.pieces if ref.pieces else None,
            eta_countable="harmonic-gap" if ref.countable is not None else None,
        )

    if normalized.r is None:
        # the identity is unbounded on {1, 2, ...}; a cell indicator is not
        normalized = replace(
            normalized, r="cell:0" if normalized.family == "countable" else "identity"
        )

    # constructing checks every cell's reference mass, the weight shape and
    # positivity, and leaves no deferred failures
    reference = _prototype(normalized).reference
    if source is not None and reference != source.reference():
        raise ConfigError("reference measure does not match the source's")
    return replace(
        normalized,
        digest=hashlib.sha256(_canonical(normalized).encode()).hexdigest()[:12],
    )


def load_config(text: str) -> RunConfig:
    """Parse and validate config text in one step."""
    raw = parse_config(text)
    try:
        config = RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return validate_config(config)
