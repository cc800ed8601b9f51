"""Run configuration files: strict parsing, validation, and serialization.

Configs are YAML with a fixed nested schema; unknown keys anywhere are
rejected with the offending key path, so typos fail fast instead of being
silently ignored.  parse -> serialize -> parse is an identity on the
validated dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .models import MODEL_KINDS, NONLINEARITY_MODES, DEFAULT_TRUNCATION_ORDER, ModelConfig
from .spectral import GridSpec, SpectralField, field_from_modes, from_physical, with_zero_mean
from .stepper import SCHEMES, StepperConfig

OUTPUT_FORMATS = ("csv", "json", "plot")


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _type_name(value) -> str:
    return type(value).__name__


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {_type_name(value)}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _get(mapping: dict, key: str, path: str, required: bool = True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    return mapping[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_type_name(value)}")
    return float(value)


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


@dataclass(frozen=True)
class ModelSection:
    kind: str
    mode: str = "full"
    truncation_order: int = DEFAULT_TRUNCATION_ORDER


@dataclass(frozen=True)
class GridSection:
    dim: int = 1
    modes: int = 32
    phys_points: int | None = None
    padding: float = 2.0


@dataclass(frozen=True)
class StepperSection:
    scheme: str
    dt: float
    t_end: float
    sample_every: int = 1
    max_steps: int = 10_000_000
    allow_large_dt: bool = False


@dataclass(frozen=True)
class ModeEntry:
    k: tuple[int, ...]
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class InitialDataSection:
    kind: str  # "modes" | "file"
    modes: tuple[ModeEntry, ...] = ()
    path: str | None = None


@dataclass(frozen=True)
class OutputsSection:
    directory: str = "out"
    formats: tuple[str, ...] = OUTPUT_FORMATS


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection
    grid: GridSection
    stepper: StepperSection
    initial_data: InitialDataSection
    outputs: OutputsSection = OutputsSection()


@dataclass(frozen=True)
class SweepConfig:
    amplitudes: tuple[float, ...]
    base: RunConfig
    workers: int = 4


def _parse_model(raw, path: str) -> ModelSection:
    m = _as_mapping(raw, path)
    _reject_unknown(m, {"kind", "mode", "truncation_order"}, path)
    kind = _as_str(_get(m, "kind", path), f"{path}.kind", MODEL_KINDS)
    mode = _as_str(
        _get(m, "mode", path, required=False, default="full"),
        f"{path}.mode",
        NONLINEARITY_MODES,
    )
    order = _as_int(
        _get(m, "truncation_order", path, required=False, default=DEFAULT_TRUNCATION_ORDER),
        f"{path}.truncation_order",
    )
    if order < 0:
        raise ConfigError(f"{path}.truncation_order: must be >= 0, got {order}")
    return ModelSection(kind, mode, order)


def _parse_grid(raw, path: str) -> GridSection:
    m = _as_mapping(raw, path)
    _reject_unknown(m, {"dim", "modes", "phys_points", "padding"}, path)
    dim = _as_int(_get(m, "dim", path, required=False, default=1), f"{path}.dim")
    if dim not in (1, 2):
        raise ConfigError(f"{path}.dim: must be 1 or 2, got {dim}")
    modes = _as_int(_get(m, "modes", path), f"{path}.modes")
    phys = _get(m, "phys_points", path, required=False)
    if phys is not None:
        phys = _as_int(phys, f"{path}.phys_points")
    padding = _as_number(
        _get(m, "padding", path, required=False, default=2.0), f"{path}.padding"
    )
    return GridSection(dim, modes, phys, padding)


def _parse_stepper(raw, path: str) -> StepperSection:
    m = _as_mapping(raw, path)
    _reject_unknown(
        m, {"scheme", "dt", "t_end", "sample_every", "max_steps", "allow_large_dt"}, path
    )
    scheme = _as_str(_get(m, "scheme", path), f"{path}.scheme", SCHEMES)
    dt = _as_number(_get(m, "dt", path), f"{path}.dt")
    t_end = _as_number(_get(m, "t_end", path), f"{path}.t_end")
    # The stepper takes round(t_end / dt) fixed steps, so any other t_end
    # would silently end the run early or late; 1e-9 absorbs the rounding
    # of decimal inputs such as 5.0 / 1e-4.
    if dt > 0:
        steps = t_end / dt
        if not (math.isfinite(steps) and math.isclose(round(steps) * dt, t_end, rel_tol=1e-9)):
            raise ConfigError(
                f"{path}.t_end: {t_end!r} is not a whole number of steps of dt = {dt!r}"
            )
    return StepperSection(
        scheme=scheme,
        dt=dt,
        t_end=t_end,
        sample_every=_as_int(
            _get(m, "sample_every", path, required=False, default=1),
            f"{path}.sample_every",
        ),
        max_steps=_as_int(
            _get(m, "max_steps", path, required=False, default=10_000_000),
            f"{path}.max_steps",
        ),
        allow_large_dt=_as_bool(
            _get(m, "allow_large_dt", path, required=False, default=False),
            f"{path}.allow_large_dt",
        ),
    )


def _parse_mode_entry(raw, path: str, dim: int) -> ModeEntry:
    m = _as_mapping(raw, path)
    _reject_unknown(m, {"k", "amplitude", "phase"}, path)
    kraw = _get(m, "k", path)
    if dim == 1:
        if isinstance(kraw, list):
            if len(kraw) != 1:
                raise ConfigError(f"{path}.k: expected one wavenumber for dim=1")
            kraw = kraw[0]
        k = (_as_int(kraw, f"{path}.k"),)
    else:
        if not isinstance(kraw, list) or len(kraw) != 2:
            raise ConfigError(f"{path}.k: expected a pair [k1, k2] for dim=2")
        k = tuple(_as_int(ki, f"{path}.k[{i}]") for i, ki in enumerate(kraw))
    return ModeEntry(
        k=k,
        amplitude=_as_number(_get(m, "amplitude", path), f"{path}.amplitude"),
        phase=_as_number(
            _get(m, "phase", path, required=False, default=0.0), f"{path}.phase"
        ),
    )


def _parse_initial_data(raw, path: str, dim: int) -> InitialDataSection:
    m = _as_mapping(raw, path)
    _reject_unknown(m, {"kind", "modes", "path"}, path)
    kind = _as_str(_get(m, "kind", path), f"{path}.kind", ("modes", "file"))
    if kind == "modes":
        entries = _get(m, "modes", path)
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{path}.modes: expected a non-empty list of mode entries")
        if "path" in m:
            raise ConfigError(f"{path}: key 'path' is only valid with kind: file")
        modes = tuple(
            _parse_mode_entry(e, f"{path}.modes[{i}]", dim) for i, e in enumerate(entries)
        )
        return InitialDataSection(kind="modes", modes=modes)
    if "modes" in m:
        raise ConfigError(f"{path}: key 'modes' is only valid with kind: modes")
    return InitialDataSection(kind="file", path=_as_str(_get(m, "path", path), f"{path}.path"))


def _parse_outputs(raw, path: str) -> OutputsSection:
    if raw is None:
        return OutputsSection()
    m = _as_mapping(raw, path)
    _reject_unknown(m, {"directory", "formats"}, path)
    directory = _as_str(
        _get(m, "directory", path, required=False, default="out"), f"{path}.directory"
    )
    fraw = _get(m, "formats", path, required=False, default=list(OUTPUT_FORMATS))
    if not isinstance(fraw, list) or not fraw:
        raise ConfigError(f"{path}.formats: expected a non-empty list")
    formats = tuple(
        _as_str(f, f"{path}.formats[{i}]", OUTPUT_FORMATS) for i, f in enumerate(fraw)
    )
    return OutputsSection(directory, formats)


def parse_run_config(raw, path: str = "") -> RunConfig:
    """Validate a raw mapping into a RunConfig; `path` prefixes diagnostics."""
    prefix = f"{path}." if path else ""
    m = _as_mapping(raw, path or "<config>")
    _reject_unknown(
        m, {"model", "grid", "stepper", "initial_data", "outputs"}, path or "<config>"
    )
    grid = _parse_grid(_get(m, "grid", path or "<config>"), f"{prefix}grid")
    return RunConfig(
        model=_parse_model(_get(m, "model", path or "<config>"), f"{prefix}model"),
        grid=grid,
        stepper=_parse_stepper(_get(m, "stepper", path or "<config>"), f"{prefix}stepper"),
        initial_data=_parse_initial_data(
            _get(m, "initial_data", path or "<config>"), f"{prefix}initial_data", grid.dim
        ),
        outputs=_parse_outputs(m.get("outputs"), f"{prefix}outputs"),
    )


def sweep_member_dirname(amplitude: float) -> str:
    """Output directory name of one sweep member, relative to the sweep's."""
    return f"amplitude_{amplitude:g}"


def parse_sweep_config(raw) -> SweepConfig:
    m = _as_mapping(raw, "<config>")
    _reject_unknown(m, {"sweep", "base"}, "<config>")
    sw = _as_mapping(_get(m, "sweep", "<config>"), "sweep")
    _reject_unknown(sw, {"amplitudes", "workers"}, "sweep")
    araw = _get(sw, "amplitudes", "sweep")
    if not isinstance(araw, list):
        raise ConfigError("sweep.amplitudes: expected a list of amplitudes")
    if not araw:
        raise ConfigError("sweep.amplitudes: amplitude grid is empty")
    amplitudes = tuple(
        _as_number(a, f"sweep.amplitudes[{i}]") for i, a in enumerate(araw)
    )
    first_index = {}
    for i, a in enumerate(amplitudes):
        if a <= 0:
            raise ConfigError(f"sweep.amplitudes[{i}]: must be positive, got {a}")
        name = sweep_member_dirname(a)
        if name in first_index:
            raise ConfigError(
                f"sweep.amplitudes[{i}]: {a!r} would write the same directory {name}/ "
                f"as sweep.amplitudes[{first_index[name]}]"
            )
        first_index[name] = i
    workers = _as_int(_get(sw, "workers", "sweep", required=False, default=4), "sweep.workers")
    if workers < 1:
        raise ConfigError(f"sweep.workers: must be >= 1, got {workers}")
    base = parse_run_config(_get(m, "base", "<config>"), "base")
    return SweepConfig(amplitudes, base, workers)


def load_yaml(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    if raw is None:
        raise ConfigError(f"config file {path} is empty")
    return raw


def load_run_config(path: str | Path) -> RunConfig:
    return parse_run_config(load_yaml(path))


def load_sweep_config(path: str | Path) -> SweepConfig:
    return parse_sweep_config(load_yaml(path))


def run_config_to_dict(cfg: RunConfig) -> dict:
    """Serialize back to the file schema; inverse of parse_run_config."""
    out: dict = {
        "model": {
            "kind": cfg.model.kind,
            "mode": cfg.model.mode,
            "truncation_order": cfg.model.truncation_order,
        },
        "grid": {
            "dim": cfg.grid.dim,
            "modes": cfg.grid.modes,
            "padding": cfg.grid.padding,
        },
        "stepper": {
            "scheme": cfg.stepper.scheme,
            "dt": cfg.stepper.dt,
            "t_end": cfg.stepper.t_end,
            "sample_every": cfg.stepper.sample_every,
            "max_steps": cfg.stepper.max_steps,
            "allow_large_dt": cfg.stepper.allow_large_dt,
        },
        "outputs": {
            "directory": cfg.outputs.directory,
            "formats": list(cfg.outputs.formats),
        },
    }
    if cfg.grid.phys_points is not None:
        out["grid"]["phys_points"] = cfg.grid.phys_points
    if cfg.initial_data.kind == "modes":
        out["initial_data"] = {
            "kind": "modes",
            "modes": [
                {
                    "k": e.k[0] if cfg.grid.dim == 1 else list(e.k),
                    "amplitude": e.amplitude,
                    "phase": e.phase,
                }
                for e in cfg.initial_data.modes
            ],
        }
    else:
        out["initial_data"] = {"kind": "file", "path": cfg.initial_data.path}
    return out


def serialize_run_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(run_config_to_dict(cfg), sort_keys=False)


def build_grid(cfg: RunConfig) -> GridSpec:
    try:
        return GridSpec.create(
            cfg.grid.dim,
            cfg.grid.modes,
            padding_factor=cfg.grid.padding,
            phys_points_per_axis=cfg.grid.phys_points,
        )
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def build_model(cfg: RunConfig, grid: GridSpec) -> ModelConfig:
    return ModelConfig(cfg.model.kind, grid, cfg.model.mode, cfg.model.truncation_order)


def build_stepper(cfg: RunConfig) -> StepperConfig:
    try:
        return StepperConfig(
            dt=cfg.stepper.dt,
            scheme=cfg.stepper.scheme,
            t_end=cfg.stepper.t_end,
            sample_every=cfg.stepper.sample_every,
            max_steps=cfg.stepper.max_steps,
            allow_large_dt=cfg.stepper.allow_large_dt,
        )
    except ValueError as err:
        raise ConfigError(f"stepper: {err}") from err


def build_initial_field(cfg: RunConfig, grid: GridSpec, config_dir: Path | None = None) -> SpectralField:
    """Construct the initial slope field from the config's initial_data."""
    section = cfg.initial_data
    if section.kind == "modes":
        entries = [
            (e.k[0] if grid.dim == 1 else e.k, e.amplitude, e.phase)
            for e in section.modes
        ]
        try:
            return field_from_modes(grid, entries)
        except ValueError as err:
            raise ConfigError(f"initial_data.modes: {err}") from err
    fpath = Path(section.path)
    if config_dir is not None and not fpath.is_absolute():
        fpath = config_dir / fpath
    try:
        if fpath.suffix == ".npy":
            samples = np.load(fpath)
        else:
            samples = np.loadtxt(fpath)
    except Exception as err:
        raise ConfigError(f"initial_data.path: cannot load {fpath}: {err}") from err
    samples = np.asarray(samples, dtype=float)
    try:
        samples = samples.reshape(grid.phys_shape)
    except ValueError as err:
        raise ConfigError(
            f"initial_data.path: {samples.size} samples do not fill grid "
            f"{grid.phys_shape}"
        ) from err
    f = from_physical(samples, grid)
    mean = abs(f.mean_value)
    if mean > 1e-10 * (1.0 + float(np.max(np.abs(samples)))):
        raise ConfigError(
            f"initial_data.path: samples have mean {f.mean_value:.3e}; "
            "the slope field must have zero mean"
        )
    return with_zero_mean(f)
