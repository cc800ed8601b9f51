"""Tests for strict config parsing, serialization round trips, initial
field construction, and the command line interface.

CLI behaviour is exercised through main(argv) with captured output, so
exit codes, file contents, and printed summaries are all checked without
spawning subprocesses (one subprocess test covers the module entry point).
"""

import concurrent.futures
import copy
import csv
import errno
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from crystalsurf import __version__, cli, stepper
from crystalsurf.cli import (
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_USAGE,
    _json_safe,
    main,
)
from crystalsurf.config import (
    ConfigError,
    build_grid,
    build_initial_field,
    build_stepper,
    load_yaml,
    parse_run_config,
    parse_sweep_config,
    run_config_to_dict,
)
from crystalsurf.models import MAX_TRUNCATION_ORDER, SingularityError
from crystalsurf.diagnostics import (
    SERIES_COLUMNS,
    SOBOLEV_ORDERS,
    WIENER_ORDERS,
    DecayCertificate,
    RunReport,
    TimeSeries,
)
from crystalsurf.spectral import SpectralField, wiener_norm
from crystalsurf.stepper import NonFiniteStateError
from crystalsurf.theory import delta


def base_run_dict():
    return {
        "model": {"kind": "exp"},
        "grid": {"dim": 1, "modes": 8},
        "stepper": {"scheme": "etdrk4", "dt": 1e-3, "t_end": 0.05, "sample_every": 5},
        "initial_data": {"kind": "modes", "modes": [{"k": 1, "amplitude": 0.05}]},
        "outputs": {"directory": "out", "formats": ["csv", "json", "plot"]},
    }


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestStrictParsing:
    def test_valid_config_parses(self):
        cfg = parse_run_config(base_run_dict())
        assert cfg.model.kind == "exp"
        assert cfg.grid.modes == 8
        assert cfg.stepper.dt == 1e-3
        assert cfg.initial_data.modes[0].k == 1
        assert cfg.initial_data.modes[0].amplitude == 0.05

    def test_defaults_fill_in(self):
        raw = base_run_dict()
        del raw["outputs"]
        raw["grid"] = {"modes": 8}
        cfg = parse_run_config(raw)
        assert cfg.grid.dim == 1
        assert cfg.grid.phys_points is None
        assert cfg.grid.padding == 2.0
        assert cfg.model.mode == "full"
        assert cfg.model.truncation_order == 20
        assert cfg.stepper.max_steps == 10_000_000
        assert cfg.stepper.allow_large_dt is False
        assert cfg.outputs.directory == "out"
        assert cfg.outputs.formats == ("csv", "json", "plot")

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.update(bogus=1), r"<config>: unknown key\(s\) 'bogus'"),
            (lambda d: d["model"].update(extra=1), r"model: unknown key\(s\) 'extra'"),
            (lambda d: d["grid"].update(nx=4), r"grid: unknown key\(s\) 'nx'"),
            (lambda d: d["stepper"].update(cfl=0.5), r"stepper: unknown key\(s\) 'cfl'"),
            (
                lambda d: d["initial_data"].update(seed=1),
                r"initial_data: unknown key\(s\) 'seed'",
            ),
            (
                lambda d: d["initial_data"]["modes"][0].update(weight=1),
                r"initial_data\.modes\[0\]: unknown key\(s\) 'weight'",
            ),
            (lambda d: d["outputs"].update(fmt="csv"), r"outputs: unknown key\(s\) 'fmt'"),
        ],
    )
    def test_unknown_keys_rejected_with_path(self, mutate, match):
        raw = base_run_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            parse_run_config(raw)

    def test_unknown_key_error_lists_allowed_keys(self):
        raw = base_run_dict()
        raw["model"]["extra"] = 1
        with pytest.raises(ConfigError, match="allowed: kind, mode, truncation_order"):
            parse_run_config(raw)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "{1: a, foo: b}",
                "<config>: unknown key(s) 1, 'foo'; "
                "allowed: grid, initial_data, model, outputs, stepper",
            ),
            (
                "{model: {kind: exp, 7: x, y: 1}}",
                "model: unknown key(s) 7, 'y'; allowed: kind, mode, truncation_order",
            ),
        ],
        ids=["top-level", "section"],
    )
    def test_unknown_keys_of_mixed_types_rejected(self, text, message):
        """YAML allows integer keys next to string ones; both are named
        (failed before: sorting them raised a TypeError)."""
        raw = base_run_dict()
        for key, value in yaml.safe_load(text).items():
            if isinstance(value, dict):
                raw[key].update(value)
            else:
                raw[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_run_config(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d["model"].update(kind=5), "model.kind: expected a string"),
            (lambda d: d["stepper"].update(dt="small"), "stepper.dt: expected a number"),
            (lambda d: d["stepper"].update(dt=True), "stepper.dt: expected a number"),
            (lambda d: d["grid"].update(modes=True), "grid.modes: expected an integer"),
            (lambda d: d["grid"].update(modes=8.5), "grid.modes: expected an integer"),
            (
                lambda d: d["stepper"].update(allow_large_dt=1),
                "stepper.allow_large_dt: expected a boolean",
            ),
            (lambda d: d.update(grid=[1, 2]), "grid: expected a mapping"),
        ],
    )
    def test_type_mismatches_rejected(self, mutate, match):
        raw = base_run_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            parse_run_config(raw)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d["model"].pop("kind"), "model: missing required key 'kind'"),
            (lambda d: d["grid"].pop("modes"), "grid: missing required key 'modes'"),
            (lambda d: d["stepper"].pop("dt"), "stepper: missing required key 'dt'"),
            (lambda d: d.pop("initial_data"), "missing required key 'initial_data'"),
        ],
    )
    def test_missing_required_keys(self, mutate, match):
        raw = base_run_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            parse_run_config(raw)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d["model"].update(kind="heat"), "'heat' not one of exp, adl"),
            (lambda d: d["stepper"].update(scheme="rk4"), "'rk4' not one of etd1, etdrk4"),
            (
                lambda d: d["outputs"].update(formats=["csv", "svg"]),
                r"outputs.formats\[1\]: 'svg' not one of csv, json, plot",
            ),
            (lambda d: d["grid"].update(dim=3), "grid.dim: must be 1 or 2"),
            (
                lambda d: d["model"].update(truncation_order=-1),
                "truncation_order: must be >= 0",
            ),
        ],
    )
    def test_invalid_choices_rejected(self, mutate, match):
        raw = base_run_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            parse_run_config(raw)

    def test_truncation_order_up_to_the_cap(self):
        """The cap is accepted in either mode; one past it, or 10**20 (which
        hung `run` before its first step), is refused with its key path."""
        raw = base_run_dict()
        for mode in ("full", "truncated"):
            raw["model"].update(mode=mode, truncation_order=MAX_TRUNCATION_ORDER)
            assert parse_run_config(raw).model.truncation_order == MAX_TRUNCATION_ORDER
            for order in (MAX_TRUNCATION_ORDER + 1, 10**20):
                raw["model"]["truncation_order"] = order
                want = f"model.truncation_order: must be <= {MAX_TRUNCATION_ORDER}, got {order}"
                with pytest.raises(ConfigError) as exc:
                    parse_run_config(raw)
                assert str(exc.value) == want

    def test_wavenumber_shapes_per_dimension(self):
        raw = base_run_dict()
        raw["initial_data"]["modes"][0]["k"] = [2]
        assert parse_run_config(raw).initial_data.modes[0].k == 2
        raw["initial_data"]["modes"][0]["k"] = [1, 2]
        with pytest.raises(ConfigError, match="expected one wavenumber for dim=1"):
            parse_run_config(raw)
        raw["grid"] = {"dim": 2, "modes": 5}
        assert parse_run_config(raw).initial_data.modes[0].k == (1, 2)
        raw["initial_data"]["modes"][0]["k"] = 3
        with pytest.raises(ConfigError, match=r"expected a pair \[k1, k2\] for dim=2"):
            parse_run_config(raw)

    def test_modes_and_file_are_mutually_exclusive(self):
        raw = base_run_dict()
        raw["initial_data"]["path"] = "v0.npy"
        with pytest.raises(ConfigError, match="'path' is only valid with kind: file"):
            parse_run_config(raw)
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "v0.npy", "modes": []}
        with pytest.raises(ConfigError, match="'modes' is only valid with kind: modes"):
            parse_run_config(raw)
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file"}
        with pytest.raises(ConfigError, match="missing required key 'path'"):
            parse_run_config(raw)

    def test_empty_mode_list_rejected(self):
        raw = base_run_dict()
        raw["initial_data"]["modes"] = []
        with pytest.raises(ConfigError, match="non-empty list of mode entries"):
            parse_run_config(raw)

    def test_error_paths_carry_prefix(self):
        raw = base_run_dict()
        del raw["model"]["kind"]
        with pytest.raises(ConfigError, match="base.model: missing required key"):
            parse_run_config(raw, path="base")

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestSweepParsing:
    def sweep_dict(self):
        return {"sweep": {"amplitudes": [0.02, 0.05], "workers": 2}, "base": base_run_dict()}

    def test_valid_sweep(self):
        sweep = parse_sweep_config(self.sweep_dict())
        assert sweep.amplitudes == (0.02, 0.05)
        assert sweep.workers == 2
        assert sweep.base.model.kind == "exp"

    @pytest.mark.parametrize(
        "mutate, match",
        [
            pytest.param(
                lambda d: d["sweep"].update(amplitudes="all"),
                r"^sweep\.amplitudes: expected a non-empty list of amplitudes$",
                id="not-a-list",
            ),
            pytest.param(
                lambda d: d["sweep"].update(amplitudes=[]),
                r"^sweep\.amplitudes: expected a non-empty list of amplitudes$",
                id="empty",
            ),
            (
                lambda d: d["sweep"].update(amplitudes=[0.1, -0.2]),
                r"amplitudes\[1\]: must be positive",
            ),
            (
                # Both amplitudes format to amplitude_0.01; the second
                # member would overwrite the first.
                lambda d: d["sweep"].update(amplitudes=[0.01, 0.02, 0.010000001]),
                r"amplitudes\[2\]: .* same directory amplitude_0\.01/ "
                r"as sweep\.amplitudes\[0\]",
            ),
            (lambda d: d["sweep"].update(workers=0), "workers: must be >= 1"),
            (lambda d: d["sweep"].update(threads=2), r"sweep: unknown key\(s\) 'threads'"),
            (lambda d: d.pop("base"), "missing required key 'base'"),
        ],
    )
    def test_sweep_validation(self, mutate, match):
        raw = self.sweep_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            parse_sweep_config(raw)

    def test_workers_default(self):
        raw = self.sweep_dict()
        del raw["sweep"]["workers"]
        assert parse_sweep_config(raw).workers == 4


class TestRoundTrip:
    def variants(self):
        one_d = base_run_dict()
        one_d["initial_data"]["modes"].append({"k": 3, "amplitude": 0.01, "phase": 0.7})
        file_based = base_run_dict()
        file_based["initial_data"] = {"kind": "file", "path": "v0.npy"}
        two_d = base_run_dict()
        two_d["grid"] = {"dim": 2, "modes": 5, "phys_points": 24}
        two_d["initial_data"] = {
            "kind": "modes",
            "modes": [{"k": [1, 2], "amplitude": 0.03}],
        }
        every_key = {
            "model": {"kind": "adl", "mode": "truncated", "truncation_order": 7},
            "grid": {"dim": 2, "modes": 6, "padding": 3.0, "phys_points": 30},
            "stepper": {
                "scheme": "etd1",
                "dt": 0.002,
                "t_end": 0.1,
                "sample_every": 10,
                "max_steps": 5000,
                "allow_large_dt": True,
            },
            "initial_data": {
                "kind": "modes",
                "modes": [{"k": [2, -1], "amplitude": 0.02, "phase": 1.25}],
            },
            "outputs": {"directory": "results/every", "formats": ["json", "csv"]},
        }
        return [one_d, file_based, two_d, every_key]

    def test_parse_serialize_parse_identity(self):
        for raw in self.variants():
            cfg = parse_run_config(copy.deepcopy(raw))
            assert parse_run_config(run_config_to_dict(cfg)) == cfg
            dumped = yaml.safe_dump(run_config_to_dict(cfg), sort_keys=False)
            assert parse_run_config(yaml.safe_load(dumped)) == cfg


class TestLoadYaml:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_yaml(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [1,\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_yaml(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ConfigError, match="is empty"):
            load_yaml(p)

    def test_invalid_yaml_is_one_line_with_its_position(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [1,\n")
        with pytest.raises(ConfigError) as exc:
            load_yaml(p)
        assert str(exc.value) == (
            f"invalid YAML in {p}: while parsing a flow node, expected the node "
            "content, but found '<stream end>' at line 2, column 1"
        )

    def test_unicode_files_load_as_their_text(self, tmp_path):
        """A BOM-prefixed UTF-8 file and a UTF-16 one load the values of
        their text (failed before for UTF-16: the file was read as UTF-8)."""
        text = "a: 1\nb: caf\u00e9\n"
        p = tmp_path / "run.yaml"
        for encoding in ("utf-8", "utf-8-sig", "utf-16"):
            p.write_bytes(text.encode(encoding))
            assert load_yaml(p) == {"a": 1, "b": "caf\u00e9"}, encoding

    RUN_TEXT = """\
model: {kind: exp}
grid: {dim: 1, modes: 8}
stepper: {scheme: etdrk4, dt: DT, t_end: 0.05, sample_every: 5}
initial_data: {kind: modes, modes: [{k: 1, amplitude: 0.05}]}
"""

    @pytest.mark.parametrize(
        "text, value",
        [("1e-4", 1e-4), ("1E-4", 1e-4), ("+1e-3", 1e-3), ("5e-2", 0.05), ("5.0e-2", 0.05),
         ("1.0e-4", 1e-4), (".5e-3", 5e-4)],
    )
    def test_floats_in_exponent_form_load_as_numbers(self, tmp_path, text, value):
        """YAML 1.2 floats: PyYAML's YAML 1.1 resolver reads an exponent
        without a dot before it as a string; 1.0e-4 and .5e-3 were floats
        under YAML 1.1 already."""
        p = tmp_path / "run.yaml"
        p.write_text(self.RUN_TEXT.replace("DT", text))
        assert parse_run_config(load_yaml(p)).stepper.dt == value

    def test_sweep_amplitudes_in_exponent_form(self, tmp_path):
        p = tmp_path / "sweep.yaml"
        body = self.RUN_TEXT.replace("DT", "1e-3").replace("\n", "\n  ")
        p.write_text(f"sweep: {{amplitudes: [2e-2, 1e-1]}}\nbase:\n  {body}")
        assert parse_sweep_config(load_yaml(p)).amplitudes == (0.02, 0.1)

    def test_integers_stay_integers(self, tmp_path):
        p = tmp_path / "ints.yaml"
        p.write_text("a: 5\nb: -3\nc: 1_000\n")
        assert load_yaml(p) == {"a": 5, "b": -3, "c": 1000}

    # A second dt in the stepper's flow mapping, and a second model section:
    # PyYAML let the last one win, and the run went on with it.
    DUPLICATE_KEYS = [
        (
            RUN_TEXT.replace("DT", "1e-3").replace("5}", "5, dt: 2e-3}"),
            "found duplicate key 'dt' at line 3, column 67",
        ),
        (
            RUN_TEXT.replace("DT", "1e-3") + "model: {kind: adl}\n",
            "found duplicate key 'model' at line 5, column 1",
        ),
    ]

    @pytest.mark.parametrize("text, problem", DUPLICATE_KEYS, ids=["flow-dt", "section"])
    def test_repeated_key_is_refused_with_its_position(self, tmp_path, text, problem):
        p = tmp_path / "run.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_yaml(p)
        assert str(exc.value) == f"invalid YAML in {p}: while composing a mapping, {problem}"

    @pytest.mark.parametrize("text, problem", DUPLICATE_KEYS, ids=["flow-dt", "section"])
    def test_repeated_key_run_exits_one(self, tmp_path, capsys, text, problem):
        p = tmp_path / "run.yaml"
        p.write_text(text)
        out = tmp_path / "results"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"config error: invalid YAML in {p}: while composing a mapping, {problem}"
        ]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "base: &b {x: 1, y: 2}\nother: {<<: *b, y: 3}\n",
            "a: &a {x: 1}\nb: &b {y: 2}\nc:\n  <<: [*a, *b]\n  x: 3\n",
            # A merge source that overrides a key it merges itself, merged
            # again by a mapping built before it.
            "a:\n  base: &x\n    <<: {k: 1}\n    k: 2\nother:\n  <<: *x\n",
        ],
        ids=["merge", "merge-list", "nested-merge"],
    )
    def test_merge_keys_load_as_before(self, tmp_path, text):
        """A merge key (<<) brings in keys the mapping may override; that
        is no repeated key."""
        p = tmp_path / "merge.yaml"
        p.write_text(text)
        assert load_yaml(p) == yaml.safe_load(text)

    def test_unhashable_key_keeps_its_own_error(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("? [1]\n: 2\n")
        with pytest.raises(ConfigError) as exc:
            load_yaml(p)
        assert str(exc.value) == (
            f"invalid YAML in {p}: while constructing a mapping, found unhashable key "
            "at line 1, column 3"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("'1e-4'", "stepper.dt: expected a number, got str"),
            ('"small"', "stepper.dt: expected a number, got str"),
            ("small", "stepper.dt: expected a number, got str"),
            (".nan", "stepper.dt: expected a finite number, got nan"),
            (".inf", "stepper.dt: expected a finite number, got inf"),
            ("-.inf", "stepper.dt: expected a finite number, got -inf"),
        ],
    )
    def test_strings_and_non_finite_values_still_refused(self, tmp_path, text, message):
        p = tmp_path / "run.yaml"
        p.write_text(self.RUN_TEXT.replace("DT", text))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_run_config(load_yaml(p))


class TestBuildInitialField:
    def test_mode_superposition_amplitude(self):
        raw = base_run_dict()
        raw["initial_data"]["modes"] = [
            {"k": 1, "amplitude": 0.03},
            {"k": 2, "amplitude": 0.02},
        ]
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        v0 = build_initial_field(cfg, grid)
        assert wiener_norm(v0, 0.0) == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_points_up_to_what_numpy_can_index(self, dim):
        """The largest even P whose P^d samples numpy can index, at 64 bytes
        a sample, makes a grid; the next even P is refused."""
        samples = np.iinfo(np.intp).max // 64
        p = samples if dim == 1 else math.isqrt(samples)
        p -= p % 2
        raw = base_run_dict()
        raw["grid"] = {"dim": dim, "modes": 8, "phys_points": p}
        raw["initial_data"]["modes"][0]["k"] = [1] * dim
        assert build_grid(parse_run_config(raw)).phys_points_per_axis == p
        assert p**dim * 64 <= np.iinfo(np.intp).max < (p + 2) ** dim * 64
        raw["grid"]["phys_points"] = p + 2
        with pytest.raises(ConfigError, match=r"^grid\.phys_points: P above \d+ points per axis"):
            build_grid(parse_run_config(raw))

    @pytest.mark.parametrize("suffix", [".npy", ".txt"])
    def test_file_initial_data(self, tmp_path, suffix):
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": f"v0{suffix}"}
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        samples = 0.05 * np.sin(grid.nodes + 0.3)
        if suffix == ".npy":
            np.save(tmp_path / f"v0{suffix}", samples)
        else:
            np.savetxt(tmp_path / f"v0{suffix}", samples)
        v0 = build_initial_field(cfg, grid, config_dir=tmp_path)
        assert wiener_norm(v0, 0.0) == pytest.approx(0.05, rel=1e-8)
        assert v0.coeffs[grid.index_of(0)] == 0.0

    def test_file_with_wrong_sample_count(self, tmp_path):
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "v0.npy"}
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        np.save(tmp_path / "v0.npy", np.zeros(7))
        with pytest.raises(ConfigError, match="do not fill grid"):
            build_initial_field(cfg, grid, config_dir=tmp_path)

    @pytest.mark.parametrize("digits, loads", [(11, True), (10, False)])
    def test_file_mean_tolerance_admits_eleven_digit_text(self, tmp_path, digits, loads):
        """A file's mean may be up to 1e-10 (1 + max|v|): enough for a
        zero-mean field written as text with 11 significant digits
        (`%.10e`).  Each sample is then off by at most half a unit in its
        last digit, 5e-11 |v|, so the mean by at most 5e-11 max|v|, and the
        file loads even when every sample errs that far the same way; at
        10 digits that worst case, 5e-10 max|v|, is refused.  Measured on
        80 random zero-mean fields each of 1D and 2D M=8 and M=32, at
        amplitudes 0.05 to 10: 10-digit text left means of at most
        6.2e-12 (1 + max|v|), 9 digits 5.7e-11, 8 digits 9.1e-10."""
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "v0.txt"}
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        samples = np.sin(grid.nodes)
        samples += 0.5 * 10.0 ** (1 - digits) * np.max(np.abs(samples))
        np.savetxt(tmp_path / "v0.txt", samples)
        if loads:
            v0 = build_initial_field(cfg, grid, config_dir=tmp_path)
            assert v0.coeffs[grid.index_of(0)] == 0.0
        else:
            with pytest.raises(ConfigError, match="must have zero mean"):
                build_initial_field(cfg, grid, config_dir=tmp_path)

    def test_file_with_nonzero_mean(self, tmp_path):
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "v0.npy"}
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        np.save(tmp_path / "v0.npy", 0.05 * np.sin(grid.nodes) + 0.01)
        with pytest.raises(ConfigError, match="must have zero mean"):
            build_initial_field(cfg, grid, config_dir=tmp_path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("suffix", [".npy", ".txt"])
    def test_file_with_non_finite_samples(self, tmp_path, capsys, suffix, bad):
        """A NaN or inf sample is a config error, found before the transform
        (failed before the finiteness check: exit 3 at t = 0 after an
        amplitude warning)."""
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": f"v0{suffix}"}
        grid = build_grid(parse_run_config(raw))
        samples = 0.05 * np.sin(grid.nodes)
        samples[3] = bad
        if suffix == ".npy":
            np.save(tmp_path / f"v0{suffix}", samples)
        else:
            np.savetxt(tmp_path / f"v0{suffix}", samples)
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: initial_data.path: ")
        assert "non-finite" in lines[0]
        assert not out.exists()

    def test_file_with_complex_samples(self, tmp_path, capsys):
        """Complex samples are refused before the cast to float, which would
        drop their imaginary part (ran with a ComplexWarning and exit 0)."""
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "v0.npy"}
        grid = build_grid(parse_run_config(raw))
        np.save(tmp_path / "v0.npy", 0.05 * np.exp(1j * grid.nodes))
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: initial_data.path: ")
        assert lines[0].endswith("v0.npy holds complex samples")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, write",
        [
            ("v0.npy", lambda path: np.save(path, np.zeros(16, dtype=[("a", "f8"), ("b", "f8")]))),
            ("v0.npy", lambda path: np.save(path, np.array(["a"] * 16))),
            ("v0.txt", lambda path: path.write_text("")),
        ],
        ids=["structured-npy", "string-npy", "empty-txt"],
    )
    def test_file_that_is_not_plain_numbers(self, tmp_path, capsys, recwarn, name, write):
        """A file that does not load as real numbers is one config error
        naming the key and the file, with no numpy warning (a structured
        array raised a TypeError traceback, a string array printed an error
        without the key, and an empty text file printed numpy's warning
        before a sample-count error)."""
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": name}
        write(tmp_path / name)
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: initial_data.path: cannot load {tmp_path / name}: ")
        assert len(recwarn) == 0
        assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        raw = base_run_dict()
        raw["initial_data"] = {"kind": "file", "path": "absent.npy"}
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        with pytest.raises(ConfigError, match="cannot load"):
            build_initial_field(cfg, grid, config_dir=tmp_path)

    def test_unresolvable_mode_wrapped(self):
        raw = base_run_dict()
        raw["initial_data"]["modes"] = [{"k": 100, "amplitude": 0.05}]
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        with pytest.raises(ConfigError, match="initial_data.modes"):
            build_initial_field(cfg, grid)

    def test_builder_errors_carry_section_prefix(self):
        raw = base_run_dict()
        raw["grid"]["modes"] = 0
        with pytest.raises(ConfigError, match="grid: "):
            build_grid(parse_run_config(raw))
        raw = base_run_dict()
        raw["stepper"]["dt"] = -1.0
        with pytest.raises(ConfigError, match="stepper: dt must be positive"):
            build_stepper(parse_run_config(raw))


class TestCliRun:
    def test_successful_run_writes_bundle(self, tmp_path, capsys):
        config = write_config(tmp_path, base_run_dict())
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "verdict: True" in captured.out
        for name in ("timeseries.csv", "report.json", "decay_plot.csv"):
            assert (out / name).exists()

        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["admissible"] is True
        assert report["certificate"]["all_within_envelope"] is True
        assert report["lyapunov_monotone"] is True
        assert set(report["hr_decay_fits"]) == {"0", "1", "1.9"}
        parsed = parse_run_config(base_run_dict())
        assert report["config"] == run_config_to_dict(parsed)

        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header.split(",") == report["series"]["columns"]
        assert header.split(",") == [
            "t", "wiener_0", "wiener_1", "wiener_2", "wiener_4", "l2",
            "h0", "h1", "h1_9", "h2", "linf", "lyapunov",
            "min_one_plus_v", "max_one_plus_v",
        ]

    def test_csv_floats_round_trip_against_json(self, tmp_path):
        """The repr cells reproduce the doubles bit for bit."""
        config = write_config(tmp_path, base_run_dict())
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        lines = (out / "timeseries.csv").read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == len(report["series"]["rows"])
        for csv_row, json_row in zip(rows, report["series"]["rows"]):
            assert csv_row == json_row

    def test_inadmissible_without_strict_warns_and_runs(self, tmp_path, capsys):
        raw = base_run_dict()
        raw["initial_data"]["modes"][0]["amplitude"] = 0.2
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "past the decay threshold" in captured.err
        assert "not certified" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["admissible"] is False
        assert report["certificate"] is None
        envelope_cells = [
            line.split(",")[2]
            for line in (out / "decay_plot.csv").read_text().splitlines()[1:]
        ]
        assert all(cell == "nan" for cell in envelope_cells)

    def test_strict_refuses_inadmissible_data(self, tmp_path, capsys):
        raw = base_run_dict()
        raw["initial_data"]["modes"][0]["amplitude"] = 0.2
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--strict", "--out", str(out)]) == EXIT_INADMISSIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("aborting: --strict refuses inadmissible initial data: x0 = ")
        assert "is past the decay threshold (delta = -" in lines[0]
        assert not out.exists()

    def test_amplitude_past_exp_overflow_exits_three(self, tmp_path, capsys):
        """At |v0|_0 = 800, e^x overflows in delta_exp: the run warns with
        delta = -inf and stops at its first non-finite sample with exit 3,
        and --strict refuses the data with exit 2 (both ended in an
        OverflowError traceback from smallness_report before)."""
        raw = base_run_dict()
        raw["initial_data"]["modes"][0]["amplitude"] = 800.0
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        past = "800 is past the decay threshold (delta = -inf <= 0)"
        assert main(["run", config, "--out", str(out)]) == EXIT_SINGULAR
        assert capsys.readouterr().err.splitlines() == [
            f"warning: initial amplitude {past}; no envelope will be certified",
            "non-finite state at t = 0.005",
        ]
        assert not (out / "report.json").exists()
        assert main(["run", config, "--strict", "--out", str(out)]) == EXIT_INADMISSIBLE
        assert capsys.readouterr().err.splitlines() == [
            f"aborting: --strict refuses inadmissible initial data: x0 = {past}"
        ]

    @pytest.mark.parametrize(
        "stepper_keys, message",
        [
            ({"sample_every": 0}, "config error: stepper: sample_every must be >= 1"),
            ({"max_steps": 10}, "config error: stepper: run needs 50 steps, exceeding max_steps=10"),
        ],
    )
    def test_stepper_refusal_comes_before_the_inadmissibility_warning(
        self, tmp_path, capsys, stepper_keys, message
    ):
        """Every stepper rule is refused before the data are judged: one
        line, no warning (the warning and then the config error before)."""
        raw = base_run_dict()
        raw["initial_data"]["modes"][0]["amplitude"] = 0.5
        raw["stepper"].update(stepper_keys)
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_singular_adl_run_exits_three(self, tmp_path, capsys):
        raw = base_run_dict()
        raw["model"]["kind"] = "adl"
        raw["initial_data"]["modes"][0]["amplitude"] = 1.5
        config = write_config(tmp_path, raw)
        assert main(["run", config]) == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "singularity at t = 0" in err

    def test_stage_singularity_names_the_step(self, tmp_path, capsys):
        """1 + v0 >= 0.5 at t = 0, and a stage of the first ETDRK4 step goes
        singular: the message names that step, not t = 0."""
        raw = base_run_dict()
        raw["model"]["kind"] = "adl"
        raw["grid"]["modes"] = 16
        raw["initial_data"]["modes"][0]["amplitude"] = 0.5
        config = write_config(tmp_path, raw)
        assert main(["run", config]) == EXIT_SINGULAR
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(
            "singularity in the step from t = 0 to t = 0.001: adl nonlinearity singular: "
        )

    def test_overflowing_run_exits_three_without_report(self, tmp_path, capsys):
        """An exp run at amplitude 3 overflows: one line naming the time,
        exit 3, and no report of NaN rows."""
        raw = base_run_dict()
        raw["grid"]["modes"] = 16
        raw["stepper"].update(dt=0.01, t_end=1.0, allow_large_dt=True)
        raw["initial_data"]["modes"][0]["amplitude"] = 3.0
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_SINGULAR
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if "past the decay" not in line]
        assert len(lines) == 1
        assert lines[0].startswith("non-finite state at t = ")
        assert "positivity" not in captured.out
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("poison", [float("nan"), float("inf")])
    def test_non_finite_state_before_the_tail_exits_three(self, tmp_path, capsys, monkeypatch, poison):
        """A run that would fall below the exact-tail bound at t ~ 0.15 goes
        non-finite at t = 0.1; a NaN or inf state never counts as tail, so
        the run still stops at the next sample with exit 3 and no report."""
        pointwise = stepper._superlinear_pointwise

        def poisoned(cfg, v, out=None, time=None):
            if time is not None and time >= 0.1:
                return np.full_like(v, poison)
            return pointwise(cfg, v, out=out, time=time)

        monkeypatch.setattr(stepper, "_superlinear_pointwise", poisoned)
        raw = base_run_dict()
        raw["stepper"].update(t_end=0.3, sample_every=7)
        raw["initial_data"]["modes"][0]["k"] = 4
        out = tmp_path / "results"
        with np.errstate(invalid="ignore"):
            assert main(["run", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_SINGULAR
        assert capsys.readouterr().err.splitlines() == ["non-finite state at t = 0.105"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_unwritable_output_directory_exits_one(self, tmp_path, capsys, monkeypatch, below):
        """--out at an existing file, or below one, is a one-line error and
        exit 1, given before the run (failed before the target was checked
        up front: the run integrated first and mkdir failed after it)."""
        calls = []
        monkeypatch.setattr(cli, "execute_run", lambda *a: calls.append(a))
        config = write_config(tmp_path, base_run_dict())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot write output: ")
        assert calls == []
        assert blocker.read_text() == ""

    def test_t_end_off_the_step_grid_exits_one(self, tmp_path, capsys):
        """round(t_end / dt) steps would end this run at t = 0.051; the
        config is refused instead, before anything is written."""
        raw = base_run_dict()
        raw["stepper"].update(dt=0.003, t_end=0.05)
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "stepper.t_end: 0.05 is not a whole number of steps of dt = 0.003" in err
        assert not out.exists()

    @pytest.mark.parametrize("dt, t_end", [(1e-4, 5.0), (0.1, 0.3), (1e-3, 0.0)])
    def test_t_end_on_the_step_grid_accepted(self, dt, t_end):
        raw = base_run_dict()
        raw["stepper"].update(dt=dt, t_end=t_end)
        assert parse_run_config(raw).stepper.t_end == t_end

    def test_t_end_tolerance_absorbs_rounding_not_a_partial_step(self):
        """The whole-steps test allows a relative gap of 1e-9: decimal
        inputs leave gaps near 1e-16 (round(0.3 / 0.1) * 0.1 is 0.3 plus
        one ulp), while t_end = 1.000000005 at dt = 0.001 is off the step
        grid by a relative 5e-9 and is refused."""
        raw = base_run_dict()
        raw["stepper"].update(dt=0.001, t_end=1.000000005)
        with pytest.raises(ConfigError, match="is not a whole number of steps"):
            parse_run_config(raw)
        raw["stepper"].update(dt=1e-4, t_end=5.0)
        assert parse_run_config(raw).stepper.t_end == 5.0

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda d: d["grid"].update(padding=math.inf),
                "grid.padding: expected a finite number, got inf",
            ),
            (
                lambda d: d["stepper"].update(dt=math.nan),
                "stepper.dt: expected a finite number, got nan",
            ),
            (
                lambda d: d["stepper"].update(t_end=math.inf),
                "stepper.t_end: expected a finite number, got inf",
            ),
            (
                # An integer past the float range does not convert at all.
                lambda d: d["stepper"].update(t_end=10**400),
                f"stepper.t_end: expected a finite number, got {10**400}",
            ),
            (
                lambda d: d["initial_data"]["modes"][0].update(amplitude=math.nan),
                "initial_data.modes[0].amplitude: expected a finite number, got nan",
            ),
            (
                lambda d: d["initial_data"]["modes"][0].update(phase=-math.inf),
                "initial_data.modes[0].phase: expected a finite number, got -inf",
            ),
        ],
        ids=[
            "padding-inf", "dt-nan", "t_end-inf", "t_end-huge-int", "amplitude-nan", "phase-neg-inf"
        ],
    )
    def test_non_finite_number_exits_one(self, tmp_path, capsys, mutate, message):
        """YAML .inf and .nan load as floats; each is refused with its key
        path in one line, not a traceback or a path-less message."""
        raw = base_run_dict()
        mutate(raw)
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("phase", [0.0, 1.0])
    def test_zero_wavenumber_mode_exits_one(self, tmp_path, capsys, phase):
        """A k: 0 mode is a constant, not a sine: with phase 0 it used to run
        identically zero data to a passing verdict, with phase 1 it failed
        with a mean-coefficient message that named no key."""
        raw = base_run_dict()
        raw["initial_data"]["modes"] = [{"k": 0, "amplitude": 0.05, "phase": phase}]
        config = write_config(tmp_path, raw)
        out = tmp_path / "results"
        assert main(["run", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "config error: initial_data.modes: wavenumber 0 is the mean mode; "
            "a sine mode needs k != 0"
        ]
        assert not out.exists()

    def test_config_errors_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == EXIT_USAGE
        raw = base_run_dict()
        raw["model"]["kind"] = "heat"
        config = write_config(tmp_path, raw)
        assert main(["run", config]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_truncated_exp_order_past_170_runs(self, tmp_path, capsys):
        """171! overflows a float (failed before: a traceback).  The terms
        past order 170 are below 1e-309, so the series reads as at 170."""
        series = []
        for order in (170, 171):
            raw = base_run_dict()
            raw["model"].update(mode="truncated", truncation_order=order)
            out = tmp_path / f"order{order}"
            assert main(["run", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_OK
            series.append((out / "timeseries.csv").read_bytes())
        assert capsys.readouterr().err == ""
        assert series[0] == series[1]


class TestCliThreshold:
    @pytest.mark.parametrize(
        "kind, lo, hi, first_delta, table_len",
        [("exp", 0.104, 0.105, 1.0, 12), ("adl", 0.0251, 0.0252, 3.0, 4)],
    )
    def test_json_payload(self, capsys, kind, lo, hi, first_delta, table_len):
        assert main(["threshold", kind, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == kind
        assert lo < payload["root"] < hi
        blo, bhi = payload["bracket"]
        assert blo <= payload["root"] <= bhi
        assert payload["bracket_width"] <= 1e-12
        table = payload["table"]
        assert len(table) == table_len
        assert table[0] == {"x": 0.0, "delta": first_delta}
        deltas = [row["delta"] for row in table]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 0

    @pytest.mark.parametrize("kind", ["exp", "adl"])
    def test_rows_are_evaluated_at_their_printed_x(self, capsys, kind):
        """Row k is x = round(k * THRESHOLD_TABLE_STEP, 10) and delta(x)
        there (the exp row printed as 0.1 carried delta(0.09999999999999999),
        a sum of ten steps, before)."""
        assert main(["threshold", kind, "--json"]) == EXIT_OK
        table = json.loads(capsys.readouterr().out)["table"]
        assert [row["x"] for row in table] == [round(0.01 * k, 10) for k in range(len(table))]
        for row in table:
            assert row["delta"] == delta(kind, row["x"]), row

    def test_text_output(self, capsys):
        assert main(["threshold", "exp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "threshold root: 0.104835667585" in out
        assert "bracket:" in out


class TestCliValidate:
    def test_filtered_check_passes(self, capsys):
        assert main(["validate", "--filter", "binomial"]) == EXIT_OK
        assert "PASS  binomial_identities" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["validate", "--filter", "series", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["checks"][0]["name"] == "series_identities"

    def test_unmatched_filter_exits_one(self, capsys):
        assert main(["validate", "--filter", "nosuchcheck"]) == EXIT_USAGE
        assert "no checks match" in capsys.readouterr().err

    def test_injected_fault_is_detected(self, capsys, monkeypatch):
        """Breaking the quadrature norm, which `l2_norm` and the stacked
        Parseval check both call, must flip the Parseval check to FAIL and
        the exit code to failure; guards against a suite that cannot fail."""
        import crystalsurf.spectral as spectral_module

        def zeros(grid, samples):
            return np.zeros(samples.shape[: samples.ndim - grid.dim])

        monkeypatch.setattr(spectral_module, "l2_quadrature", zeros)
        assert main(["validate", "--filter", "parseval"]) == EXIT_USAGE
        assert "FAIL  parseval" in capsys.readouterr().out

    def test_zero_stacked_forward_fails_roundtrip(self, capsys, monkeypatch):
        """roundtrip transforms each grid's stack of samples back in one
        call; a forward that returns zero halves must fail it."""
        import crystalsurf.spectral as spectral_module

        def zeros(grid, samples, work=None):
            m = grid.modes_per_axis
            lead = samples.shape[: samples.ndim - grid.dim]
            return np.zeros(lead + grid.coeff_shape[:-1] + (m + 1,), dtype=np.complex128)

        monkeypatch.setattr(spectral_module, "_coeffs_from_phys", zeros)
        assert main(["validate", "--filter", "roundtrip"]) == EXIT_USAGE
        assert "FAIL  roundtrip" in capsys.readouterr().out

    def test_zero_stacked_inverse_fails_linf_bound(self, capsys, monkeypatch):
        """linf_bound transforms each grid's stack in one call; samples that
        fall below the largest coefficient modulus must fail it."""
        import crystalsurf.spectral as spectral_module

        def zeros(grid, half, work=None):
            return np.zeros(half.shape[: half.ndim - grid.dim] + grid.phys_shape)

        monkeypatch.setattr(spectral_module, "_phys_from_coeffs", zeros)
        assert main(["validate", "--filter", "linf"]) == EXIT_USAGE
        assert "FAIL  linf_bound" in capsys.readouterr().out

    def test_broken_wiener_weights_fail_interpolation(self, capsys, monkeypatch):
        """A weight table whose order-0 row drops every mode makes |f|_0
        read 0, so every instance with 0 < s < r must fail."""
        import crystalsurf.spectral as spectral_module

        weights = spectral_module._norm_weights

        def broken(grid, kind, orders):
            w = weights(grid, kind, orders).copy()
            w[[alpha == 0 for alpha in orders]] = 0.0
            return w

        monkeypatch.setattr(spectral_module, "_norm_weights", broken)
        assert main(["validate", "--filter", "interpolation"]) == EXIT_USAGE
        assert "FAIL  interpolation" in capsys.readouterr().out


class TestCliSweep:
    def sweep_config(self, tmp_path, amplitudes, workers=1):
        raw = {
            "sweep": {"amplitudes": amplitudes, "workers": workers},
            "base": base_run_dict(),
        }
        raw["base"]["stepper"]["t_end"] = 0.02
        return write_config(tmp_path, raw, name="sweep.yaml")

    def test_serial_sweep_aggregates_sorted(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, [0.05, 0.02])
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        aggregate = out / "sweep_aggregate.csv"
        assert aggregate.exists()
        lines = aggregate.read_text().splitlines()
        assert lines[0] == "x0,delta,fitted_rate,verdict,error"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        x0s = [float(r[0]) for r in rows]
        assert x0s == sorted(x0s)
        assert x0s[0] == pytest.approx(0.02, rel=1e-12)
        assert all(r[3] == "true" for r in rows)
        for amplitude in ("0.02", "0.05"):
            assert (out / f"amplitude_{amplitude}" / "report.json").exists()

    def test_amplitude_past_threshold_reports_false_verdict(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, [0.05, 0.2])
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep_aggregate.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.2, rel=1e-12)
        assert float(last[1]) < 0
        assert math.isnan(float(last[2]))
        assert last[3] == "false"

    def test_parallel_sweep_matches_serial(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, [0.03, 0.06], workers=2)
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        assert main(["sweep", config, "--workers", "1", "--out", str(serial_out)]) == EXIT_OK
        assert main(["sweep", config, "--out", str(parallel_out)]) == EXIT_OK
        serial = (serial_out / "sweep_aggregate.csv").read_text()
        parallel = (parallel_out / "sweep_aggregate.csv").read_text()
        assert serial == parallel

    def test_aggregate_floats_round_trip_against_reports(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, [0.04])
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        row = (out / "sweep_aggregate.csv").read_text().splitlines()[1].split(",")
        report = json.loads((out / "amplitude_0.04" / "report.json").read_text())
        assert float(row[0]) == report["x0"]
        assert float(row[1]) == report["delta"]
        assert float(row[2]) == report["certificate"]["fitted_rate"]

    def test_member_refused_by_dt_guard_does_not_abort(self, tmp_path, capsys):
        """Amplitude 20 makes the dt guard refuse dt = 0.01; that member is
        a failed row and the other two still run and aggregate."""
        raw = {
            "sweep": {"amplitudes": [0.01, 0.05, 20.0], "workers": 1},
            "base": base_run_dict(),
        }
        raw["base"]["stepper"].update(dt=0.01, t_end=0.1)
        config = write_config(tmp_path, raw, name="sweep.yaml")
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep_aggregate.csv").read_text().splitlines()
        assert lines[0] == "x0,delta,fitted_rate,verdict,error"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == pytest.approx([0.01, 0.05, 20.0], rel=1e-12)
        assert [r[3] for r in rows] == ["true", "true", "false"]
        assert math.isnan(float(rows[2][2]))
        assert "exceeds" in capsys.readouterr().out
        assert not (out / "amplitude_20").exists()

    def test_overflowing_member_is_a_failed_row(self, tmp_path, capsys):
        raw = {
            "sweep": {"amplitudes": [0.05, 3.0], "workers": 1},
            "base": base_run_dict(),
        }
        raw["base"]["grid"]["modes"] = 16
        raw["base"]["stepper"].update(dt=0.01, t_end=1.0, allow_large_dt=True)
        config = write_config(tmp_path, raw, name="sweep.yaml")
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        rows = [
            line.split(",")
            for line in (out / "sweep_aggregate.csv").read_text().splitlines()[1:]
        ]
        assert [r[3] for r in rows] == ["true", "false"]
        assert math.isnan(float(rows[1][2]))
        assert "non-finite state at t = " in capsys.readouterr().out

    def test_colliding_member_directories_exit_one(self, tmp_path, capsys):
        raw = {"sweep": {"amplitudes": [0.01, 0.010000001]}, "base": base_run_dict()}
        config = write_config(tmp_path, raw, name="sweep.yaml")
        out = tmp_path / "results"
        assert main(["sweep", config, "--workers", "1", "--out", str(out)]) == EXIT_USAGE
        assert "same directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unwritable_output_directory_exits_one(
        self, tmp_path, capsys, pool_sizes, workers, below
    ):
        """Refused before any member runs or a pool is built (failed at
        --workers 2 before the target was checked up front)."""
        config = self.sweep_config(tmp_path, [0.02, 0.05])
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        argv = ["sweep", config, "--workers", workers, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot write output: ")
        assert pool_sizes == []

    def test_step_count_past_max_steps_is_refused_before_any_member(
        self, tmp_path, capsys, pool_sizes
    ):
        """A base stepper whose 300 steps pass max_steps is one config error
        before any member runs (the sweep exited 0 before, every aggregate
        row reading the refusal)."""
        raw = {"sweep": {"amplitudes": [0.02, 0.2], "workers": 2}, "base": base_run_dict()}
        raw["base"]["stepper"].update(dt=0.001, t_end=0.3, max_steps=10)
        config = write_config(tmp_path, raw, name="sweep.yaml")
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "config error: stepper: run needs 300 steps, exceeding max_steps=10"
        ]
        assert not out.exists()
        assert pool_sizes == []

    def test_members_match_a_single_run_of_the_scaled_field(self, tmp_path, capsys):
        """Each member's files equal those of execute_run on the base field
        rescaled to the amplitude, byte for byte, once the report is marked
        as that member (passed before the payload carried coefficients too;
        it pins the outputs across that change)."""
        amplitudes = [0.01, 0.05, 0.2]
        config = self.sweep_config(tmp_path, amplitudes, workers=2)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        cfg = parse_sweep_config(load_yaml(config)).base
        grid = build_grid(cfg)
        v0 = build_initial_field(cfg, grid)
        x0 = wiener_norm(v0, 0.0)
        for a in amplitudes:
            alone = tmp_path / f"alone_{a:g}"
            report = cli.execute_run(cfg, SpectralField(grid, v0.coeffs * (a / x0)))
            report.sweep_member = {"amplitude": a, "scale": a / x0}
            cli.write_output_bundle(report, alone, cfg.outputs.formats)
            for name in ("report.json", "timeseries.csv", "decay_plot.csv"):
                member = out / f"amplitude_{a:g}" / name
                assert member.read_bytes() == (alone / name).read_bytes(), (a, name)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_member_reports_record_their_rescaling(self, tmp_path, capsys, workers):
        """A member's config echoes the base amplitude (0.05); its
        sweep_member block says which amplitude it ran and by what factor
        the base data was scaled.  The echo still parses, and a run
        report has no such block."""
        amplitudes = [0.01, 0.05, 0.08]
        config = self.sweep_config(tmp_path, amplitudes, workers=workers)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        base = parse_sweep_config(load_yaml(config)).base
        x0_base = wiener_norm(build_initial_field(base, build_grid(base)), 0.0)
        for a in amplitudes:
            report = json.loads((out / f"amplitude_{a:g}" / "report.json").read_text())
            assert report["sweep_member"] == {"amplitude": a, "scale": a / x0_base}
            assert list(report)[:3] == ["schema_version", "config", "sweep_member"]
            assert report["x0"] == pytest.approx(a, rel=1e-12)
            assert report["config"]["initial_data"]["modes"][0]["amplitude"] == 0.05
            assert parse_run_config(report["config"]) == base
        run_out = tmp_path / "runout"
        assert main(["run", write_config(tmp_path, base_run_dict()), "--out", str(run_out)]) == 0
        assert "sweep_member" not in json.loads((run_out / "report.json").read_text())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda b: b.update(initial_data={"kind": "file", "path": "absent.npy"}),
                "initial_data.path: cannot load",
            ),
            (lambda b: b["stepper"].update(sample_every=0), "sample_every must be >= 1"),
            (
                lambda b: b["initial_data"]["modes"][0].update(amplitude=0.0),
                "identically zero",
            ),
        ],
        ids=["missing_file", "sample_every_0", "zero_data"],
    )
    def test_base_errors_exit_one_before_the_pool(
        self, tmp_path, capsys, pool_sizes, mutate, message
    ):
        """A broken base fails in the parent process, before any pool is
        built (failed before the base was prepared there: the pool's
        workers met the error)."""
        raw = {"sweep": {"amplitudes": [0.02, 0.05], "workers": 2}, "base": base_run_dict()}
        mutate(raw["base"])
        config = write_config(tmp_path, raw, name="sweep.yaml")
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: ") and message in lines[0]
        assert pool_sizes == []
        assert not out.exists()

    def test_overflowing_scale_exits_one_before_the_pool(self, tmp_path, capsys, pool_sizes):
        """An amplitude whose scale a / x0 overflows is refused in the
        parent (failed before: the member ran on inf * 0 = nan data, its
        row read x0 = nan, and the sweep exited 0)."""
        config = self.sweep_config(tmp_path, [0.02, 1e308], workers=2)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep.amplitudes[1]: 1e+308 / base |v0|_0 0.05 overflows; cannot rescale"
        ]
        assert pool_sizes == []
        assert not out.exists()

    def test_member_past_exp_overflow_is_a_failed_row(self, tmp_path, capsys):
        """A member at |v0|_0 = 800, where delta_exp overflows to -inf, is
        a failed row of the aggregate, and the sweep exits 0 (its
        OverflowError lost the whole sweep before)."""
        config = self.sweep_config(tmp_path, [0.05, 800.0], workers=2)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_OK
        with open(out / "sweep_aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows[0][3:] == ["true", ""]
        assert float(rows[1][0]) == pytest.approx(800.0, rel=1e-12)
        assert rows[1][1:] == ["-inf", "nan", "false", "non-finite state at t = 0.005"]
        assert (out / "amplitude_0.05" / "report.json").exists()
        assert not (out / "amplitude_800").exists()

    def test_truncated_exp_order_past_170_sweeps(self, tmp_path, capsys):
        """A sweep on a truncated exp base of order 171 runs its members
        on the pool (failed before: the pool's remote OverflowError)."""
        raw = {"sweep": {"amplitudes": [0.02, 0.05], "workers": 2}, "base": base_run_dict()}
        raw["base"]["model"].update(mode="truncated", truncation_order=171)
        out = tmp_path / "sweepout"
        assert main(["sweep", write_config(tmp_path, raw, name="sweep.yaml"), "--out", str(out)]) == EXIT_OK
        with open(out / "sweep_aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["verdict"], row["error"]) for row in rows] == [("true", ""), ("true", "")]

    def test_singular_member_note_is_the_run_message(self, tmp_path, capsys):
        """The sweep notes a singular member with the line `run` prints
        (failed before one formatter served both: the note was shorter)."""
        raw = base_run_dict()
        raw["model"]["kind"] = "adl"
        raw["initial_data"]["modes"][0]["amplitude"] = 1.5
        assert main(["run", write_config(tmp_path, raw)]) == EXIT_SINGULAR
        run_line = capsys.readouterr().err.splitlines()[-1]
        assert run_line.startswith("singularity at t = 0")
        sweep = {"sweep": {"amplitudes": [0.02, 1.5], "workers": 1}, "base": base_run_dict()}
        sweep["base"]["model"]["kind"] = "adl"
        config = write_config(tmp_path, sweep, name="sweep.yaml")
        assert main(["sweep", config, "--out", str(tmp_path / "sweepout")]) == EXIT_OK
        assert f"  ({run_line})" in capsys.readouterr().out
        with open(tmp_path / "sweepout" / "sweep_aggregate.csv", newline="") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == ["", run_line]

    def test_aggregate_error_column_round_trips_failure_messages(self, tmp_path):
        """Failed members of an adl sweep write their one-line reasons to
        the aggregate: a singularity, and a max_steps refusal whose message
        holds a comma, so its cell is quoted."""
        raw = base_run_dict()
        raw["model"]["kind"] = "adl"
        cfg = parse_run_config(raw)
        v0 = build_initial_field(cfg, build_grid(cfg))
        x0 = wiener_norm(v0, 0.0)
        capped = copy.deepcopy(raw)
        capped["stepper"]["max_steps"] = 10
        members = [(raw, 0.02), (raw, 1.5), (capped, 0.03)]
        rows = [
            cli._sweep_worker(
                (cfg_dict, v0.coeffs, {"amplitude": a, "scale": a / x0}, tmp_path / f"m{a:g}")
            )
            for cfg_dict, a in members
        ]
        errors = [row["error"] for row in rows]
        assert errors[0] == ""
        assert errors[1].startswith("singularity at t = 0")
        assert errors[2] == "stepper: run needs 50 steps, exceeding max_steps=10"
        aggregate = tmp_path / "sweep_aggregate.csv"
        cli.write_sweep_aggregate(aggregate, rows)
        assert aggregate.read_text().splitlines()[3].endswith(f',"{errors[2]}"')
        with open(aggregate, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [row["error"] for row in read] == errors
        assert [row["verdict"] for row in read] == ["true", "false", "false"]
        assert [float(row["x0"]) for row in read] == [row["x0"] for row in rows]

    def test_non_finite_amplitude_exits_one(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, [0.05, math.inf])
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep.amplitudes[1]: expected a finite number, got inf"
        ]
        assert not out.exists()

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace the process pool by a serial fake that records its size."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    @pytest.mark.parametrize(
        "config_workers, flag, amplitudes, sizes",
        [
            (500, [], [0.03, 0.06], [2]),
            (2, ["--workers", "8"], [0.02, 0.03, 0.06], [3]),
            (2, [], [0.02, 0.03, 0.06], [2]),
            (4, [], [0.03], []),
            (4, ["--workers", "1"], [0.03, 0.06], []),
        ],
    )
    def test_pool_is_never_larger_than_the_member_count(
        self, tmp_path, capsys, pool_sizes, config_workers, flag, amplitudes, sizes
    ):
        """A pool starts all its workers at once, so it gets at most one per
        member; one worker runs the members in this process."""
        config = self.sweep_config(tmp_path, amplitudes, workers=config_workers)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, *flag, "--out", str(out)]) == EXIT_OK
        assert pool_sizes == sizes
        assert len((out / "sweep_aggregate.csv").read_text().splitlines()) == 1 + len(amplitudes)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_below_one_exits_one(self, tmp_path, capsys, pool_sizes, workers):
        config = self.sweep_config(tmp_path, [0.03, 0.06], workers=2)
        out = tmp_path / "sweepout"
        assert main(["sweep", config, "--workers", workers, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --workers: must be >= 1, got {workers}"
        ]
        assert pool_sizes == []
        assert not out.exists()

    def test_invalid_sweep_config_exits_one(self, tmp_path, capsys):
        raw = {"sweep": {"amplitudes": []}, "base": base_run_dict()}
        config = write_config(tmp_path, raw, name="sweep.yaml")
        assert main(["sweep", config]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep.amplitudes: expected a non-empty list of amplitudes"
        ]


# Each failure type main maps: an instance, its exit code and its line.
FAILURES = {
    "singular": (
        SingularityError("adl nonlinearity singular", time=0.25),
        EXIT_SINGULAR,
        "singularity at t = 0.25: adl nonlinearity singular",
    ),
    "non-finite": (NonFiniteStateError(0.5), EXIT_SINGULAR, "non-finite state at t = 0.5"),
    "value": (ValueError("dt too large"), EXIT_USAGE, "config error: dt too large"),
    "memory": (
        MemoryError("Unable to allocate 8 EiB"),
        EXIT_USAGE,
        "out of memory: Unable to allocate 8 EiB",
    ),
    "os": (
        OSError(errno.ENOSPC, "No space left on device"),
        EXIT_USAGE,
        "cannot write output: [Errno 28] No space left on device",
    ),
}


class TestMainOwnsExitCodes:
    """cmd_run and cmd_sweep raise; main turns each failure into its exit
    code and one stderr line (before, each command caught some types and a
    traceback ended the rest, and usage errors exited 2)."""

    @staticmethod
    def raiser(err):
        def fail(*args, **kwargs):
            raise err
        return fail

    def check(self, argv, err, code, line, capsys):
        """The command lets err through, and main maps it to code and line."""
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(type(err)):
            args.func(args)
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "callee, err, code, line",
        [
            ("execute_run", *FAILURES["singular"]),
            ("execute_run", *FAILURES["non-finite"]),
            ("execute_run", *FAILURES["value"]),
            ("execute_run", *FAILURES["memory"]),
            ("write_output_bundle", *FAILURES["os"]),
        ],
        ids=["singular", "non-finite", "value", "memory", "os"],
    )
    def test_run_failures(self, tmp_path, capsys, monkeypatch, callee, err, code, line):
        monkeypatch.setattr(cli, callee, self.raiser(err))
        out = tmp_path / "results"
        self.check(["run", write_config(tmp_path, base_run_dict()), "--out", str(out)],
                   err, code, line, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "callee, err, code, line",
        [
            ("load_sweep_config", *FAILURES["singular"]),
            ("load_sweep_config", *FAILURES["non-finite"]),
            ("load_sweep_config", *FAILURES["value"]),
            ("execute_run", *FAILURES["memory"]),
            ("write_output_bundle", *FAILURES["os"]),
            ("write_sweep_aggregate", *FAILURES["os"]),
        ],
        ids=["singular", "non-finite", "value", "memory", "os-member", "os-aggregate"],
    )
    def test_sweep_failures(self, tmp_path, capsys, monkeypatch, callee, err, code, line):
        """Singular, non-finite and refused members are rows, not exits,
        so those types are raised before any member runs."""
        monkeypatch.setattr(cli, callee, self.raiser(err))
        raw = {"sweep": {"amplitudes": [0.02, 0.05], "workers": 1}, "base": base_run_dict()}
        raw["base"]["stepper"]["t_end"] = 0.02
        config = write_config(tmp_path, raw, name="sweep.yaml")
        self.check(["sweep", config, "--out", str(tmp_path / "sweepout")], err, code, line, capsys)

    @pytest.mark.parametrize(
        "err, line",
        [
            (SingularityError("x"), "singularity: x"),
            (SingularityError("x", time=0.25), "singularity at t = 0.25: x"),
            (
                SingularityError("x", time=0.25, step_end=0.5),
                "singularity in the step from t = 0.25 to t = 0.5: x",
            ),
        ],
        ids=["untimed", "timed", "in-step"],
    )
    def test_failure_message_places_a_singularity(self, err, line):
        assert cli.failure_message(err) == line

    @pytest.mark.parametrize(
        "grid, line",
        [
            (
                {"dim": 1, "modes": 4, "padding": 1e300},
                "config error: grid.padding: P above 144115188075855870 points per axis, "
                "whose P^1 samples numpy cannot index",
            ),
            (
                {"dim": 2, "modes": 4, "padding": 1.7e308},
                "config error: grid.padding: P above 379625062 points per axis, "
                "whose P^2 samples numpy cannot index",
            ),
            (
                {"dim": 1, "modes": 4, "phys_points": 10**20},
                "config error: grid.phys_points: P above 144115188075855870 points per axis, "
                "whose P^1 samples numpy cannot index",
            ),
        ],
        ids=["padding-1d", "padding-2d", "phys_points"],
    )
    def test_grid_numpy_cannot_index_exits_one(self, tmp_path, capsys, grid, line):
        """A P whose P^d samples numpy cannot index is refused with the key
        that set it (was numpy's `Maximum allowed dimension exceeded`, or an
        OverflowError traceback for a padding near the float maximum)."""
        raw = base_run_dict()
        raw["grid"] = grid
        if grid["dim"] == 2:
            raw["initial_data"]["modes"][0]["k"] = [1, 0]
        out = tmp_path / "results"
        assert main(["run", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys, command):
        """A 0xff byte is an invalid-YAML line (failed before: a
        UnicodeDecodeError traceback)."""
        config = tmp_path / f"{command}.yaml"
        config.write_bytes(b"model: {kind: \xff}\n")
        out = tmp_path / "results"
        assert main([command, str(config), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"config error: invalid YAML in {config}: "
            "unacceptable character #x00ff: invalid start byte at position 14"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, prog",
        [
            ([], "crystalsurf"),
            (["frobnicate"], "crystalsurf"),
            (["--bogus", "threshold", "exp"], "crystalsurf"),
            (["run"], "crystalsurf run"),
            (["run", "run.yaml", "--strict=yes"], "crystalsurf run"),
            (["threshold", "heat"], "crystalsurf threshold"),
            (["validate", "--filter"], "crystalsurf validate"),
            (["sweep", "sweep.yaml", "--workers", "abc"], "crystalsurf sweep"),
        ],
        ids=["no-command", "unknown-command", "unknown-flag", "run-no-config",
             "run-flag-value", "threshold-choice", "validate-no-value", "sweep-workers"],
    )
    def test_usage_errors_exit_one_with_one_line(self, capsys, argv, prog):
        """Exit 2 is --strict's verdict on inadmissible data; a usage error
        is exit 1 like a config error (was argparse's 2, after the usage)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{prog}: error: ")

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["run", "-h"], ["sweep", "--help"]])
    def test_version_and_help_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


def per_cell_csv(names, rows) -> str:
    """The CSV writer's contract, formatted one cell at a time; a string
    holding a comma, a quote or a line break is quoted, its quotes doubled."""

    def cell(x):
        if isinstance(x, str):
            return '"' + x.replace('"', '""') + '"' if set(x) & set(',"\r\n') else x
        return str(x).lower() if isinstance(x, bool) else repr(float(x))

    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(map(cell, row)))
    return "\n".join(lines) + "\n"


# Doubles whose text is easy to get wrong: signed zero, the smallest
# subnormal and normal, the largest double, two whose repr is shorter
# than 17 digits and one whose repr is a 17-digit exponent form.
EDGE_CELLS = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16,
    1.2345678901234568e17,
]


def synthetic_report(n_rows, seed=0, non_finite=False, admissible=True):
    """A RunReport over an n-row series of random doubles, each column
    starting with EDGE_CELLS; with non_finite, some cells are nan, inf and
    -inf."""
    rng = np.random.default_rng(seed)

    def col():
        c = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        c[: len(EDGE_CELLS)] = EDGE_CELLS[:n_rows]
        return c

    series = TimeSeries(
        kind="exp",
        times=np.linspace(0.0, 1.0, n_rows),
        wiener={a: col() for a in WIENER_ORDERS},
        sobolev={a: col() for a in SOBOLEV_ORDERS},
        l2=col(),
        linf=col(),
        lyapunov=col(),
        min_one_plus_v=col(),
        max_one_plus_v=col(),
    )
    if non_finite and n_rows:
        series.l2[::3] = np.nan
        series.linf[1::4] = np.inf
        series.lyapunov[2::5] = -np.inf
    certificate = None
    if admissible:
        sample_ok = rng.random(n_rows) < 0.9
        certificate = DecayCertificate(
            slack=1e-6,
            envelope=col(),
            sample_ok=sample_ok,
            fitted_rate=float(rng.random()),
            verdict=bool(sample_ok.all()),
        )
    return RunReport(
        config_echo=run_config_to_dict(parse_run_config(base_run_dict())),
        x0=0.05,
        delta=0.5 if admissible else -0.3,
        admissible=admissible,
        series=series,
        certificate=certificate,
        lyapunov_monotone=True,
        positivity_ok=True,
        hr_decay_fits={0.0: 81.0, 1.0: math.inf, 1.9: math.nan}
        if admissible
        else {a: math.inf for a in (0.0, 1.0, 1.9)},
    )


class TestWriters:
    """The chunked writers give the bytes of the plain stdlib and per-cell
    formatting, including chunk boundaries and non-finite values."""

    @staticmethod
    def stdlib_json(report):
        return json.dumps(cli.report_payload(report), indent=2) + "\n"

    @pytest.mark.parametrize(
        "n_rows, non_finite, admissible",
        [
            (0, False, True),
            (1, False, True),
            (7, True, True),
            (cli._WRITE_CHUNK_ROWS, False, True),
            (cli._WRITE_CHUNK_ROWS + 1, True, False),
            (2 * cli._WRITE_CHUNK_ROWS + 37, True, True),
        ],
    )
    def test_report_json_equals_stdlib_indent_2(self, tmp_path, n_rows, non_finite, admissible):
        report = synthetic_report(n_rows, seed=n_rows, non_finite=non_finite, admissible=admissible)
        (path,) = cli.write_output_bundle(report, tmp_path, ["json"])
        text = path.read_text()
        assert text == self.stdlib_json(report)
        rows = json.loads(text)["series"]["rows"]
        assert len(rows) == n_rows
        if non_finite and n_rows > 2:
            assert {"nan", "inf", "-inf"} <= {x for row in rows for x in row if isinstance(x, str)}

    def test_file_columns_are_drawn_from_series_columns(self, tmp_path, monkeypatch):
        """timeseries.csv's header, report.json's series.columns and the
        first two names of decay_plot.csv are SERIES_COLUMNS, renamed with
        it, and timeseries.csv's column j is column j of series.table()."""
        report = synthetic_report(7, seed=4)
        renamed = tuple(f"col{j}" for j in range(len(SERIES_COLUMNS)))
        for names in (SERIES_COLUMNS, renamed):
            monkeypatch.setattr(cli, "SERIES_COLUMNS", names)
            cli.write_output_bundle(report, tmp_path, ("csv", "json", "plot"))
            with open(tmp_path / "timeseries.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == list(names)
            assert np.array(rows, dtype=float).tobytes() == report.series.table().tobytes()
            payload = json.loads((tmp_path / "report.json").read_text())
            assert payload["series"]["columns"] == list(names)
            plot_header = (tmp_path / "decay_plot.csv").read_text().split("\n", 1)[0]
            assert plot_header == f"{names[0]},{names[1]},envelope"

    def test_report_json_of_runs_equals_stdlib(self, tmp_path):
        """An admissible run longer than one write chunk, an inadmissible
        run and a sweep member's report."""
        raw = base_run_dict()
        raw["stepper"]["t_end"] = 0.6
        raw["stepper"]["sample_every"] = 1
        cfg = parse_run_config(raw)
        grid = build_grid(cfg)
        v0 = build_initial_field(cfg, grid)
        admissible = cli.execute_run(cfg, v0)
        assert len(admissible.series) > cli._WRITE_CHUNK_ROWS
        raw["initial_data"]["modes"][0]["amplitude"] = 0.2
        cfg_bad = parse_run_config(raw)
        inadmissible = cli.execute_run(cfg_bad, build_initial_field(cfg_bad, grid))
        assert not inadmissible.admissible
        member = cli.execute_run(cfg, SpectralField(grid, v0.coeffs * 0.2))
        member.sweep_member = {"amplitude": 0.01, "scale": 0.2}
        for report in (admissible, inadmissible, member):
            (path,) = cli.write_output_bundle(report, tmp_path, ["json"])
            assert path.read_text() == self.stdlib_json(report)

    def test_inadmissible_report_with_infinite_fits(self, tmp_path):
        report = synthetic_report(5, admissible=False)
        (path,) = cli.write_output_bundle(report, tmp_path, ["json"])
        assert path.read_text() == self.stdlib_json(report)
        payload = json.loads(path.read_text())
        assert payload["hr_decay_fits"] == {"0": "inf", "1": "inf", "1.9": "inf"}
        assert payload["certificate"] is None

    @pytest.mark.parametrize("n_rows", [0, 3, cli._WRITE_CHUNK_ROWS, 2 * cli._WRITE_CHUNK_ROWS + 5])
    def test_timeseries_and_decay_plot_csv_equal_per_cell_output(self, tmp_path, n_rows):
        for admissible in (True, False):
            report = synthetic_report(
                n_rows, seed=n_rows + 1, non_finite=True, admissible=admissible
            )
            cli.write_output_bundle(report, tmp_path, ("csv", "plot"))
            want = per_cell_csv(SERIES_COLUMNS, report.series.table())
            assert (tmp_path / "timeseries.csv").read_text() == want
            env = report.certificate.envelope if admissible else [math.nan] * n_rows
            want = per_cell_csv(["t", "wiener_0", "envelope"],
                                zip(report.series.times, report.series.wiener[0.0], env))
            assert (tmp_path / "decay_plot.csv").read_text() == want

    @pytest.mark.parametrize("n_rows", [7, 2 * cli._WRITE_CHUNK_ROWS + 5])
    def test_timeseries_cells_are_the_report_json_number_texts(self, tmp_path, n_rows):
        """Each timeseries.csv cell is the text of its number in report.json,
        a non-finite one the text of its string."""
        report = synthetic_report(n_rows, seed=n_rows + 2, non_finite=True)
        cli.write_output_bundle(report, tmp_path, ("csv", "json"))
        with open(tmp_path / "timeseries.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        text = (tmp_path / "report.json").read_text()
        series = json.loads(text, parse_float=str)["series"]
        assert header == series["columns"]
        assert rows == series["rows"]
        cells = {x for row in rows for x in row}
        assert {"nan", "inf", "-inf", "-0.0", "0.1", "1.2345678901234568e+17"} <= cells

    @pytest.mark.parametrize("formats", [("csv", "plot"), ("csv", "json", "plot")])
    def test_decay_plot_shares_the_timeseries_cells(self, tmp_path, formats):
        """decay_plot.csv's t and wiener_0 cells are timeseries.csv's strings;
        written alone it gives the same bytes."""
        report = synthetic_report(2 * cli._WRITE_CHUNK_ROWS + 5, seed=4, non_finite=True)
        cli.write_output_bundle(report, tmp_path, formats)
        with open(tmp_path / "timeseries.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        plot = (tmp_path / "decay_plot.csv").read_text()
        plot_rows = list(csv.reader(plot.splitlines()))
        assert plot_rows[0] == ["t", "wiener_0", "envelope"]
        assert [r[:2] for r in plot_rows[1:]] == [r[:2] for r in rows[1:]]
        alone = tmp_path / "alone"
        cli.write_output_bundle(report, alone, ("plot",))
        assert (alone / "decay_plot.csv").read_text() == plot

    def test_sweep_aggregate_csv_with_its_bool_column(self, tmp_path):
        """The verdict column is lowercase; the trailing error column is
        empty for members that ran and quoted where a message needs it."""
        rng = np.random.default_rng(3)
        errors = ["", 'dt=0.01 exceeds 2 x recommended 0.004; reduce "dt"', "", "run needs 5, no"]
        rows = [
            {"x0": float(x), "delta": float(d), "fitted_rate": r, "verdict": bool(x < 0.5),
             "error": e}
            for x, d, r, e in zip(
                rng.random(40), rng.standard_normal(40), [math.nan, 81.0] * 20, errors * 10
            )
        ]
        path = tmp_path / "sweep_aggregate.csv"
        cli.write_sweep_aggregate(path, rows)
        names = ["x0", "delta", "fitted_rate", "verdict", "error"]
        assert path.read_text() == per_cell_csv(names, ([r[k] for k in names] for r in rows))
        verdicts = {line.split(",")[3] for line in path.read_text().splitlines()[1:]}
        assert verdicts == {"true", "false"}
        with open(path, newline="") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == errors * 10


class TestJsonSafe:
    def test_non_finite_floats_become_strings(self):
        payload = {
            "a": float("nan"),
            "b": [float("inf"), -float("inf"), 1.5],
            "c": {"d": (2.0, float("nan"))},
            "e": "text",
            "f": 3,
        }
        safe = _json_safe(payload)
        assert safe == {
            "a": "nan",
            "b": ["inf", "-inf", 1.5],
            "c": {"d": [2.0, "nan"]},
            "e": "text",
            "f": 3,
        }
        json.dumps(safe)


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crystalsurf", "threshold", "exp"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "threshold root" in proc.stdout

    def test_import_leaves_the_process_pool_unloaded(self):
        """Only a sweep on more than one worker starts a process pool, so
        importing the CLI in a fresh interpreter does not load its module."""
        code = "import sys, crystalsurf.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
