"""Run configuration files: strict parsing, validation, and serialization.

Configs are YAML with a fixed nested schema; unknown keys anywhere are
rejected with the offending key path, so typos fail fast instead of being
silently ignored.  parse -> serialize -> parse is an identity on the
validated dataclasses.

Each key is declared once, as a field of its `*Section` dataclass: the
field's default is the key's default (no default: a required key) and its
metadata holds the key's check.  A key that sets a library parameter takes
its default from the library's own dataclass (`ModelConfig`, `GridSpec`,
`StepperConfig`).  `_parse` reads every section from those fields and
`run_config_to_dict` writes them back.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .models import MAX_TRUNCATION_ORDER, MODEL_KINDS, NONLINEARITY_MODES, ModelConfig
from .spectral import GridSpec, SpectralField, extremes, field_from_modes, from_physical, with_zero_mean
from .stepper import SCHEMES, StepperConfig

# The file of each output format, in the order a run writes them.
OUTPUT_FILES = {"csv": "timeseries.csv", "json": "report.json", "plot": "decay_plot.csv"}
OUTPUT_FORMATS = tuple(OUTPUT_FILES)

# The key that holds the data of each initial_data kind.
INITIAL_DATA_KEYS = {"modes": "modes", "file": "path"}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _type_name(value) -> str:
    return type(value).__name__


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {_type_name(value)}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    # YAML allows integer keys, and an int and a str do not compare.
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _get(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {_type_name(value)}")
    return value


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {_type_name(value)}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: {value!r} not one of {', '.join(choices)}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean, got {_type_name(value)}")
    return value


def _within(check, ok, rule: str):
    """`check`, then refuse a value for which `ok` is false: 'must be {rule}'."""

    def checked(value, path: str):
        value = check(value, path)
        if not ok(value):
            raise ConfigError(f"{path}: must be {rule}, got {value}")
        return value

    return checked


def _as_list(item_check, what: str = "a non-empty list"):
    """A non-empty list, each item checked at `path[i]`; parsed to a tuple."""

    def checked(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected {what}")
        return tuple(item_check(v, f"{path}[{i}]") for i, v in enumerate(value))

    return checked


def _as_wavenumber(value, path: str, dim: int) -> int | tuple[int, int]:
    """A mode's k in its file form: an int (or one-item list) in 1D, a pair in 2D."""
    if dim == 1:
        if isinstance(value, list):
            if len(value) != 1:
                raise ConfigError(f"{path}: expected one wavenumber for dim=1")
            value = value[0]
        return _as_int(value, path)
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected a pair [k1, k2] for dim=2")
    return tuple(_as_int(ki, f"{path}[{i}]") for i, ki in enumerate(value))


def _key(check, **default):
    """Declare one config key: its check, and its default if it is optional."""
    return field(metadata={"check": check}, **default)


@dataclass(frozen=True, kw_only=True)
class ModelSection:
    kind: str = _key(partial(_as_str, choices=MODEL_KINDS))
    mode: str = _key(partial(_as_str, choices=NONLINEARITY_MODES), default=ModelConfig.mode)
    truncation_order: int = _key(
        _within(
            _within(_as_int, lambda n: n >= 0, ">= 0"),
            lambda n: n <= MAX_TRUNCATION_ORDER,
            f"<= {MAX_TRUNCATION_ORDER}",
        ),
        default=ModelConfig.truncation_order,
    )


@dataclass(frozen=True, kw_only=True)
class GridSection:
    dim: int = _key(_within(_as_int, lambda d: d in (1, 2), "1 or 2"), default=1)
    modes: int = _key(_as_int)
    padding: float = _key(_as_number, default=GridSpec.padding_factor)
    phys_points: int | None = _key(_as_int, default=None)


@dataclass(frozen=True, kw_only=True)
class StepperSection:
    scheme: str = _key(partial(_as_str, choices=SCHEMES))
    dt: float = _key(_as_number)
    t_end: float = _key(_as_number)
    sample_every: int = _key(_as_int, default=StepperConfig.sample_every)
    max_steps: int = _key(_as_int, default=StepperConfig.max_steps)
    allow_large_dt: bool = _key(_as_bool, default=StepperConfig.allow_large_dt)


@dataclass(frozen=True, kw_only=True)
class ModeEntry:
    k: int | tuple[int, int] = _key(None)  # its form depends on grid.dim: _as_wavenumber
    amplitude: float = _key(_as_number)
    phase: float = _key(_as_number, default=0.0)


@dataclass(frozen=True, kw_only=True)
class InitialDataSection:
    kind: str = _key(partial(_as_str, choices=tuple(INITIAL_DATA_KEYS)))
    modes: tuple[ModeEntry, ...] = _key(None, default=())  # entries need grid.dim
    path: str | None = _key(_as_str, default=None)


@dataclass(frozen=True, kw_only=True)
class OutputsSection:
    directory: str = _key(_as_str, default="out")
    formats: tuple[str, ...] = _key(
        _as_list(partial(_as_str, choices=OUTPUT_FORMATS)), default=OUTPUT_FORMATS
    )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    # Fields in the order run_config_to_dict writes them.
    model: ModelSection
    grid: GridSection
    stepper: StepperSection
    outputs: OutputsSection = OutputsSection()
    initial_data: InitialDataSection


# A worker count's check, of the sweep.workers key and of sweep's --workers.
as_worker_count = _within(_as_int, lambda n: n >= 1, ">= 1")


@dataclass(frozen=True, kw_only=True)
class SweepSection:
    amplitudes: tuple[float, ...] = _key(
        _as_list(_within(_as_number, lambda a: a > 0, "positive"), "a non-empty list of amplitudes")
    )
    workers: int = _key(as_worker_count, default=4)


@dataclass(frozen=True, kw_only=True)
class SweepConfig(SweepSection):
    base: RunConfig


def _parse(cls, raw, path: str, /, **context_checks):
    """Validate a raw mapping into the section dataclass `cls`.

    Keys are checked in field order with each field's own check, unless
    `context_checks` gives one that depends on the rest of the config.
    """
    m = _as_mapping(raw, path)
    keys = fields(cls)
    _reject_unknown(m, [f.name for f in keys], path)
    values = {}
    for f in keys:
        if f.name in m or f.default is MISSING:
            check = context_checks.get(f.name, f.metadata["check"])
            values[f.name] = check(_get(m, f.name, path), f"{path}.{f.name}")
    return cls(**values)


def _parse_stepper(raw, path: str) -> StepperSection:
    section = _parse(StepperSection, raw, path)
    dt, t_end = section.dt, section.t_end
    # The stepper takes round(t_end / dt) fixed steps, so any other t_end
    # would silently end the run early or late; 1e-9 absorbs the rounding
    # of decimal inputs such as 5.0 / 1e-4.
    if dt > 0:
        steps = t_end / dt
        if not (math.isfinite(steps) and math.isclose(round(steps) * dt, t_end, rel_tol=1e-9)):
            raise ConfigError(
                f"{path}.t_end: {t_end!r} is not a whole number of steps of dt = {dt!r}"
            )
    return section


def _refuse(message: str):
    """A check that refuses any value of its key with `message`."""

    def check(value, path: str):
        raise ConfigError(message)

    return check


def _parse_initial_data(raw, path: str, dim: int) -> InitialDataSection:
    m = _as_mapping(raw, path)
    entry = partial(_parse, ModeEntry, k=partial(_as_wavenumber, dim=dim))
    checks = {"modes": _as_list(entry, "a non-empty list of mode entries")}
    # Each kind requires its own data key and refuses the other kind's.
    for kind, key in INITIAL_DATA_KEYS.items():
        if kind != m.get("kind"):
            checks[key] = _refuse(f"{path}: key {key!r} is only valid with kind: {kind}")
    section = _parse(InitialDataSection, m, path, **checks)
    _get(m, INITIAL_DATA_KEYS[section.kind], path)
    return section


def parse_run_config(raw, path: str = "") -> RunConfig:
    """Validate a raw mapping into a RunConfig; `path` prefixes diagnostics."""
    prefix = f"{path}." if path else ""
    m = _as_mapping(raw, path or "<config>")
    _reject_unknown(m, [f.name for f in fields(RunConfig)], path or "<config>")
    grid = _parse(GridSection, _get(m, "grid", path or "<config>"), f"{prefix}grid")
    outputs = m.get("outputs")
    return RunConfig(
        model=_parse(ModelSection, _get(m, "model", path or "<config>"), f"{prefix}model"),
        grid=grid,
        stepper=_parse_stepper(_get(m, "stepper", path or "<config>"), f"{prefix}stepper"),
        initial_data=_parse_initial_data(
            _get(m, "initial_data", path or "<config>"), f"{prefix}initial_data", grid.dim
        ),
        outputs=OutputsSection()
        if outputs is None
        else _parse(OutputsSection, outputs, f"{prefix}outputs"),
    )


def sweep_member_dirname(amplitude: float) -> str:
    """Output directory name of one sweep member, relative to the sweep's."""
    return f"amplitude_{amplitude:g}"


def parse_sweep_config(raw) -> SweepConfig:
    m = _as_mapping(raw, "<config>")
    _reject_unknown(m, {"sweep", "base"}, "<config>")
    sweep = _parse(SweepSection, _get(m, "sweep", "<config>"), "sweep")
    first_index = {}
    for i, a in enumerate(sweep.amplitudes):
        name = sweep_member_dirname(a)
        if name in first_index:
            raise ConfigError(
                f"sweep.amplitudes[{i}]: {a!r} would write the same directory {name}/ "
                f"as sweep.amplitudes[{first_index[name]}]"
            )
        first_index[name] = i
    base = parse_run_config(_get(m, "base", "<config>"), "base")
    return SweepConfig(amplitudes=sweep.amplitudes, workers=sweep.workers, base=base)


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads YAML 1.2 floats and refuses a
    repeated key.

    PyYAML follows YAML 1.1, whose floats need a dot and a signed
    exponent, so `dt: 1e-4` would load as the string "1e-4".  It also
    lets the last of a mapping's repeated keys win, so a second `dt:` in
    a stepper mapping would replace the first without a word.
    """

    def compose_mapping_node(self, anchor):
        """SafeLoader's mapping node, refusing a scalar key that it repeats.

        Keys are compared as their resolved tag and text, so `dt` and
        "dt" are one key, 1 and 1.0 two.  Merge keys (<<) are skipped: the
        keys they bring in may be overridden.  A non-scalar key is left to
        PyYAML's own `found unhashable key` error.
        """
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = (key_node.tag, key_node.value)
                if key in seen:
                    raise yaml.composer.ComposerError(
                        "while composing a mapping",
                        node.start_mark,
                        f"found duplicate key {key_node.value!r}",
                        key_node.start_mark,
                    )
                seen.add(key)
        return node


# YAML 1.2's core-schema float, tried after SafeLoader's own resolvers, so
# integers, YAML 1.1 floats, .inf and .nan resolve as before.
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def _yaml_error_line(err: yaml.YAMLError) -> str:
    """PyYAML's message in one line: what went wrong and where, without
    the stream name and the quoted snippet that its str() spreads over
    several lines."""
    if isinstance(err, yaml.MarkedYAMLError) and err.problem_mark is not None:
        what = ", ".join(part for part in (err.context, err.problem) if part)
        mark = err.problem_mark
        return f"{what} at line {mark.line + 1}, column {mark.column + 1}"
    if isinstance(err, yaml.reader.ReaderError):
        return f"{str(err).splitlines()[0]} at position {err.position}"
    return " ".join(str(err).split())


def load_yaml(path: str | Path) -> dict:
    """The file's bytes go to PyYAML, which decodes UTF-8 and UTF-16 itself
    and reports a byte it cannot decode as a YAMLError."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    try:
        raw = yaml.load(data, Loader=_Loader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {_yaml_error_line(err)}") from err
    if raw is None:
        raise ConfigError(f"config file {path} is empty")
    return raw


def load_run_config(path: str | Path) -> RunConfig:
    return parse_run_config(load_yaml(path))


def load_sweep_config(path: str | Path) -> SweepConfig:
    return parse_sweep_config(load_yaml(path))


def _to_raw(value):
    """File form of a parsed value: sections become mappings without their
    unset (None) and empty keys, and tuples become lists."""
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {k: _to_raw(v) for k, v in items if v is not None and v != ()}
    if isinstance(value, tuple):
        return [_to_raw(v) for v in value]
    return value


def run_config_to_dict(cfg: RunConfig) -> dict:
    """Serialize back to the file schema; inverse of parse_run_config."""
    return _to_raw(cfg)


def build_grid(cfg: RunConfig) -> GridSpec:
    g = cfg.grid
    # The largest even P whose P^d samples numpy can index: it indexes an
    # array's bytes with an intp, and a run's largest array, the 2D
    # transform workspace, takes a little over 32 bytes a sample.
    samples = np.iinfo(np.intp).max // 64
    limit = samples if g.dim == 1 else math.isqrt(samples)
    limit -= limit % 2
    if g.phys_points is not None:
        key, too_many = "grid.phys_points", g.phys_points > limit
    else:  # 2M+1 alone first: a huge int does not convert to a float
        n = 2 * g.modes + 1
        key, too_many = "grid.padding", n > limit or g.padding * n > limit
    if too_many:
        raise ConfigError(
            f"{key}: P above {limit} points per axis, whose P^{g.dim} samples numpy cannot index"
        )
    try:
        return GridSpec.create(
            g.dim, g.modes, padding_factor=g.padding, phys_points_per_axis=g.phys_points
        )
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def build_model(cfg: RunConfig, grid: GridSpec) -> ModelConfig:
    return ModelConfig(cfg.model.kind, grid, cfg.model.mode, cfg.model.truncation_order)


def build_stepper(cfg: RunConfig) -> StepperConfig:
    try:
        return StepperConfig(**asdict(cfg.stepper))
    except ValueError as err:
        raise ConfigError(f"stepper: {err}") from err


def build_initial_field(cfg: RunConfig, grid: GridSpec, config_dir: Path | None = None) -> SpectralField:
    """Construct the initial slope field from the config's initial_data."""
    section = cfg.initial_data
    if section.kind == "modes":
        entries = [(e.k, e.amplitude, e.phase) for e in section.modes]
        try:
            return field_from_modes(grid, entries)
        except ValueError as err:
            raise ConfigError(f"initial_data.modes: {err}") from err
    fpath = Path(section.path)
    if config_dir is not None and not fpath.is_absolute():
        fpath = config_dir / fpath
    # Anything that does not load as real numbers, such as a structured or
    # string array, or an empty text file (a numpy warning, made an error
    # here), is one config error.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = np.load(fpath) if fpath.suffix == ".npy" else np.loadtxt(fpath)
        if np.iscomplexobj(samples):
            raise ConfigError(f"initial_data.path: {fpath} holds complex samples")
        samples = np.asarray(samples, dtype=float)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"initial_data.path: cannot load {fpath}: {err}") from err
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"initial_data.path: {fpath} holds non-finite samples")
    try:
        samples = samples.reshape(grid.phys_shape)
    except ValueError as err:
        raise ConfigError(
            f"initial_data.path: {samples.size} samples do not fill grid "
            f"{grid.phys_shape}"
        ) from err
    f = from_physical(samples, grid)
    # A zero-mean field written as text with 11 significant digits has a
    # mean of at most 5e-11 max|v|, which this admits; the mean is then
    # pinned to zero.
    mean = abs(f.mean_value)
    if mean > 1e-10 * (1.0 + extremes(grid, samples)[2]):
        raise ConfigError(
            f"initial_data.path: samples have mean {f.mean_value:.3e}; "
            "the slope field must have zero mean"
        )
    return with_zero_mean(f)
