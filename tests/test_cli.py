"""Tests for config handling, experiment dispatch and CSV reproducibility."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from afbm import __version__
from afbm.channel import (PathSpec, check_paths_feasible,
                          effective_channels, unit_power)
from afbm.filterbank import fold_gram
from afbm.metrics import SNR_LIMIT_DB, spectrum_psd
from afbm.transforms import ChirpPair
import afbm.cli as cli
from afbm.cli import (
    EXPERIMENTS,
    _write_table,
    main,
    read_config_file,
    resolve_config,
    run,
)


def write_config(tmp_path, data, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path

SMALL_WAVEFORM = {"L": 32, "P": 48, "N": 64, "K": 1}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# config parsing and resolution
# ---------------------------------------------------------------------------

def test_empty_config_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = resolve_config(read_config_file(path))
    assert cfg.experiment == "papr"
    wf = cfg.waveform
    assert (wf.dims.L, wf.dims.P, wf.dims.N, wf.K) == (128, 192, 256, 8)
    assert wf.filter.kind == "HERMITE" and wf.filter.overlap == 1.5
    assert abs(wf.chirps.c1 - 3 / 384) < 1e-15
    assert cfg.afdm.L_a == 128 and cfg.afdm.cpp_len == 2
    assert abs(cfg.afdm.chirps.c1 - 3 / 256) < 1e-15
    assert cfg.trials == 1000 and cfg.seed == 0
    assert len(cfg.paths) == 3


def test_config_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text('{\n  "experiment": "papr",,\n}')
    with pytest.raises(ValueError) as err:
        read_config_file(path)
    assert "line 2" in str(err.value)


def test_config_root_must_be_object(tmp_path):
    path = tmp_path / "list.cfg"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        read_config_file(path)


def test_resolve_config_validation():
    with pytest.raises(ValueError):
        resolve_config({"experiment": "latency"})
    with pytest.raises(ValueError):
        resolve_config({"trials": 0})
    with pytest.raises(ValueError):
        resolve_config({"seed": -4})
    with pytest.raises(ValueError):
        resolve_config({"waveform": {"L": 130}})
    with pytest.raises(ValueError):
        resolve_config({"waveform": {"P": 512}})   # P > N
    with pytest.raises(ValueError):
        resolve_config({"waveform": {"filter": "GAUSS"}})


def one_path(**fields):
    return {"channel": {"paths": [
        dict({"gain": 1.0, "delay": 0, "doppler": 0.0}, **fields)]}}


NAN = float("nan")


@pytest.mark.parametrize("data,name", [
    ({"trials": True}, "trials"),
    ({"seed": False}, "seed"),
    ({"waveform": {"K": 2.0}}, "waveform.K"),
    ({"snr_grid": [0, NAN]}, "snr_grid"),
    (one_path(delay=1.0), "delay"),
    ({"waveform": 5}, "waveform"),
    ({"afdm": 3}, "afdm"),
    ({"channel": []}, "channel"),
    ({"channel": {"paths": [3]}}, "channel.paths[0]"),
    ({"channel": {"paths": [{"gain": 1.0, "delay": 0}]}},
     "channel.paths[0].doppler"),
    ({"channel": {"f_max": "1"}}, "channel.f_max"),
    ({"waveform": {"c1": "0.1"}}, "waveform.c1"),
    ({"waveform": {"overlap": "1.5"}}, "waveform.overlap"),
    ({"channel": {"f_max": NAN}}, "channel.f_max"),
    ({"channel": {"f_max": 10 ** 400}}, "channel.f_max"),
    ({"waveform": {"overlap": NAN}}, "waveform.overlap"),
    ({"waveform": {"filter": 3}}, "waveform.filter"),
    ({"afdm": {"c1": -0.1}}, "afdm.c1"),
    ({"out": 5}, "out"),
    ({"channel": {"paths": []}}, "channel.paths"),
    (one_path(gain=True), "channel.paths[0].gain"),
    (one_path(doppler=True), "channel.paths[0].doppler"),
    ({"channel": {"f_max": True}}, "channel.f_max"),
    ({"waveform": {"overlap": True}}, "waveform.overlap"),
    (one_path(gain="1"), "channel.paths[0].gain"),
    ({"waveform": {"filter": "hermite"}}, "waveform.filter"),
    (one_path(gain=0.0), "channel.paths"),
    ({"waveform": {"overlap": 1e30}}, "waveform.overlap"),
    ({"waveform": {"overlap": 1e6}}, "waveform.overlap"),
    ({"snr_grid": [0, 4000]}, "snr_grid"),
    ({"snr_grid": [-4000]}, "snr_grid"),
    ({"snr_grid": [SNR_LIMIT_DB + 0.5]}, "snr_grid"),
    ({"waveform": {"c1": 1e308}}, "waveform.c1"),
    ({"waveform": {"c2": -1.0}}, "waveform.c2"),
    # the precoder has no chirp pair of its own: unknown keys
    ({"waveform": {"c1_pre": 1.0}}, "waveform.c1_pre"),
    ({"waveform": {"c2_pre": 2.5}}, "waveform.c2_pre"),
    ({"afdm": {"c1": 1.0}}, "afdm.c1"),
    ({"afdm": {"c2": -1e308}}, "afdm.c2"),
    ({"afdm": {"cpp_len": 200}}, "afdm.cpp_len = 200 must be < L = 128"),
    ({"channel": {"ell_max": 128, "f_max": 0.0}},
     "afdm.cpp_len = 128 (from channel.ell_max) must be < L = 128"),
], ids=["trials-bool", "seed-bool", "K-float", "snr-nan", "delay-float",
        "waveform-int", "afdm-int", "channel-list", "path-int",
        "path-no-doppler", "f_max-str", "c1-str", "overlap-str", "f_max-nan",
        "f_max-huge", "overlap-nan", "filter-int", "afdm-c1-negative",
        "out-int", "paths-empty", "gain-bool", "doppler-bool", "f_max-bool",
        "overlap-bool", "gain-str", "filter-lowercase", "zero-power",
        "overlap-1e30", "overlap-1e6", "snr-overflow", "snr-underflow",
        "snr-past-limit", "c1-1e308", "c2-minus-one", "c1_pre-one",
        "c2_pre-past-period", "afdm-c1-one", "afdm-c2-huge",
        "cpp_len-past-L", "ell_max-past-L"])
def test_resolve_config_rejects_values_of_the_wrong_type(
        data, name, tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match=re.escape(name)):
        resolve_config(data)
    # the command line fails the same way, before any output is written
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, data)
    assert main(["papr", "--config", str(path)]) == 1
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("gain,unscaled",
                         [(1e200, 1.0), ([1e300, 1e300], 1 + 1j)],
                         ids=["power-overflow", "complex-gain-overflow"])
def test_resolve_config_runs_gains_past_the_float_range(gain, unscaled):
    # a gain whose square overflows is normalised as the same gain times
    # 2^-1000, bit for bit, and as the gain at magnitude one
    def normalised(g):
        return unit_power(resolve_config(one_path(gain=g)).paths)[0].gain

    assert normalised(gain) == normalised(
        np.multiply(gain, 2.0 ** -1000).tolist())
    assert abs(normalised(gain) - unit_power(
        (PathSpec(unscaled, 0, 0.0),))[0].gain) < 1e-15


def test_oobe_refuses_a_band_that_fills_the_spectrum(tmp_path, capsys):
    # fig2 has P = N: no spectrum lies outside the AFBM band
    with pytest.raises(ValueError, match=re.escape("waveform.P")):
        resolve_config(dict(read_config_file(CONFIG_DIR / "fig2.cfg"),
                            experiment="oobe"))
    out = tmp_path / "out"
    assert main(["oobe", "--config", str(CONFIG_DIR / "fig2.cfg"),
                 "--out", str(out)]) == 1
    assert "waveform.P" in capsys.readouterr().err
    assert not out.exists()
    # the largest P whose +10 % probe stays below Nyquist still resolves
    resolve_config({"experiment": "oobe", "waveform": {"P": 232}})
    with pytest.raises(ValueError, match=re.escape("waveform.P")):
        resolve_config({"experiment": "oobe", "waveform": {"P": 236}})


def test_oobe_refuses_records_shorter_than_a_welch_segment(tmp_path, capsys):
    # K = 1 and one trial: 384 afbm and 260 afdm samples against 4*N = 1024
    cfg = write_config(tmp_path, {"waveform": {"K": 1}})
    out = tmp_path / "o1"
    assert main(["oobe", "--config", str(cfg), "--trials", "1",
                 "--out", str(out)]) == 1
    assert "trials" in capsys.readouterr().err
    assert not out.exists()
    # one trial of the smallest bundled oobe setup still resolves
    resolve_config(dict(read_config_file(CONFIG_DIR / "fig4.cfg"),
                        experiment="oobe", trials=1))


def test_resolve_config_rejects_wrong_types_from_a_config_file(tmp_path,
                                                               capsys):
    # JSON's NaN, true and 2.0 reach the resolver as float/bool values, and
    # a repeated key would silently keep its last value
    path, out = tmp_path / "bad.cfg", tmp_path / "out"
    for text, name in (
            ('{"snr_grid": [0, NaN]}', "snr_grid"),
            ('{"trials": true}', "trials"),
            ('{"waveform": {"N": 256.0}}', "waveform.N"),
            ('{"channel": {"xi": 1.0}}', "channel.xi"),
            ('{"afdm": {"cpp_len": 2.0}}', "afdm.cpp_len"),
            ('{"snr_grid": []}', "snr_grid"),
            ('{"trials": 3, "trials": 5}', "'trials'"),
            ('{"waveform": {"K": 1, "L": 64, "K": 2}}', "'K'")):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(name)):
            resolve_config(read_config_file(path))
        # the command line fails the same way, before any output is written
        assert main(["ber", "--config", str(path), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("data,message", [
    ({"waveform": {"overlp": 4}}, "unknown config key 'waveform.overlp'; "
                                  "did you mean 'waveform.overlap'?"),
    ({"chanel": {}},
     "unknown config key 'chanel'; did you mean 'channel'?"),
    ({"channel": {"paths": [{"gain": 1.0, "delay": 0, "dopler": 0.0}]}},
     "unknown config key 'channel.paths[0].dopler'; "
     "did you mean 'channel.paths[0].doppler'?"),
    ({"afdm": {"xyz": 1}}, "unknown config key 'afdm.xyz'"),
], ids=["overlp", "chanel", "dopler", "no-suggestion"])
def test_resolve_config_rejects_unknown_keys(data, message):
    with pytest.raises(ValueError) as err:
        resolve_config(data)
    assert str(err.value) == message


def test_unknown_key_fails_through_the_command_line(tmp_path, capsys):
    path = write_config(tmp_path, {"waveform": {"overlp": 4}})
    assert main(["orth", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1
    assert "waveform.overlp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resolve_config_accepts_every_documented_key():
    cfg = resolve_config({
        "waveform": {"c1": 0.01, "c2": 0.001},
        "afdm": {"cpp_len": 3, "c1": 0.015, "c2": 0.0}})
    assert cfg.waveform.chirps == ChirpPair(0.01, 0.001)
    assert cfg.afdm.cpp_len == 3 and cfg.afdm.chirps.c1 == 0.015
    for name in ("fig2", "fig3", "fig4"):
        resolve_config(read_config_file(CONFIG_DIR / f"{name}.cfg"))


def test_resolve_config_explicit_chirps_override_the_rule():
    cfg = resolve_config({"waveform": {"c1": 0.05, "c2": 0.001},
                          "afdm": {"c1": 0.02}})
    assert cfg.waveform.chirps == ChirpPair(0.05, 0.001)
    assert cfg.afdm.chirps.c1 == 0.02


def test_chirp_rates_are_held_within_one_period():
    # |c| < 1 holds every rate, c1 >= 0 as well; the message names the rule
    edge = 1 - 2 ** -53
    cfg = resolve_config({
        "waveform": {"c1": edge, "c2": -edge},
        "afdm": {"c1": edge, "c2": -edge}})
    assert cfg.waveform.chirps == ChirpPair(edge, -edge)
    assert cfg.afdm.chirps == ChirpPair(edge, -edge)
    with pytest.raises(ValueError, match=re.escape(
            "waveform.c1 must be a chirp rate with |c| < 1 and >= 0, "
            "got 1e+308")):
        resolve_config({"waveform": {"c1": 1e308}})
    with pytest.raises(ValueError, match=re.escape(
            "afdm.c2 must be a chirp rate with |c| < 1, got -1")):
        resolve_config({"afdm": {"c2": -1}})


def test_resolve_config_refuses_separate_precoding_chirps(tmp_path, capsys):
    # one chirp pair serves the precoder and the synthesis: a valid rate
    # under either former precoder key is an unknown key, named, and no
    # output is written
    out = tmp_path / "out"
    for key in ("c1_pre", "c2_pre"):
        data = {"waveform": {key: 0.03}}
        message = f"unknown config key 'waveform.{key}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve_config(data)
        assert main(["papr", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def _schema_leaves(schema: dict):
    """The name of every settable key of a schema section, a path's
    entries among them."""
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from _schema_leaves(rule)
        else:
            yield key
            yield from _schema_leaves(rule.entries or {})


def test_readme_rule_table_names_every_schema_key():
    # the keys column of the README's rule table and the schema name the
    # same keys, so a key removed from the code cannot linger in the docs
    # nor a new one be left out of them
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    table = readme.split("| Rule | Keys |\n", 1)[1].split("\n\n", 1)[0]
    documented = {name.split(".")[-1]
                  for row in table.splitlines() if row.startswith("| ")
                  for name in re.findall(r"`([^`]+)`", row.rsplit("|", 2)[1])}
    assert documented == set(_schema_leaves(cli._SCHEMA))


def test_config_hash_ignores_seed_and_out():
    base = resolve_config({"experiment": "orth"})
    other = resolve_config({"experiment": "orth", "seed": 9, "out": "x"})
    assert base.config_hash == other.config_hash
    changed = resolve_config({"experiment": "orth", "trials": 7})
    assert changed.config_hash != base.config_hash


# every CSV header carries these; a change orphans all earlier results
PINNED_HASHES = {
    "fig2": "2df1592de22cd2959ed7bb6cd9112d7d42251cf992d3352f68f6dd1acfe8ed17",
    "fig3": "2f3a72e5317094fb14c47bca12bbd1010d64b7404317cac1008325d006268d2f",
    "fig4": "1def3ed0dc84fde2f30ed1869fed546c817c378a299fb2b4ce715b4fbdb09cb8",
    None: "79e11d233337d5f6bd2531e11133d91df0229231ee3a73315a8275469ae4701a",
}


def test_config_hash_is_pinned():
    for name, digest in PINNED_HASHES.items():
        cfg = resolve_config(
            read_config_file(CONFIG_DIR / f"{name}.cfg") if name else {})
        assert cfg.config_hash == digest, name


def test_config_hash_stable_under_key_order():
    a = resolve_config({"experiment": "orth",
                        "waveform": {"L": 32, "P": 48, "N": 64}})
    b = resolve_config({"waveform": {"N": 64, "L": 32, "P": 48},
                        "experiment": "orth"})
    assert a.config_hash == b.config_hash


def test_complex_path_gain_accepted():
    cfg = resolve_config(
        {"channel": {"paths": [{"gain": [0.6, -0.8], "delay": 0,
                                "doppler": 0.0}]}})
    assert cfg.paths[0].gain == 0.6 - 0.8j


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def test_result_table_format(tmp_path):
    cfg = resolve_config({"experiment": "orth", "seed": 3})
    rows = [("sir", 150.0), ("count", 2)]
    path = tmp_path / "table.csv"
    _write_table(cfg, path, ("metric", "value"), rows, shape="2x2")
    assert path.read_text().splitlines() == [
        f"# config_hash={cfg.config_hash}", "# seed=3",
        f"# version={__version__}", "# experiment=orth", "# shape=2x2",
        "metric,value", "sir,150.0", "count,2"]
    # without columns the rows follow the header directly
    _write_table(cfg, path, (), iter(rows))
    assert path.read_text().splitlines()[4:] == ["sir,150.0", "count,2"]


def test_every_cell_is_written_by_one_rule(tmp_path):
    # a float, Python or numpy, is its shortest repr, an int or a str as it
    # stands, and the effchan grid's preformatted %.12g row passes through
    cfg = resolve_config({"experiment": "effchan"})
    grid_row = ",".join(["%.12g"] * 3) % (1 / 3, 2.0, 1e-13)
    rows = [(0.1, 1e-05, 1e16, -0.0), (7, "ber"),
            (np.float64(0.1), np.float64(1e16), np.float64(-0.0),
             np.int64(-3)),
            (grid_row,)]
    path = tmp_path / "cells.csv"
    _write_table(cfg, path, (), rows)
    assert path.read_text().splitlines()[4:] == [
        "0.1,1e-05,1e+16,-0.0", "7,ber", "0.1,1e+16,-0.0,-3",
        "0.333333333333,2,1e-13"]


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

def test_orth_experiment_runs(tmp_path):
    cfg = resolve_config({"experiment": "orth",
                          "waveform": SMALL_WAVEFORM,
                          "out": str(tmp_path / "orth")})
    rows = run(cfg)
    metrics = {row[0]: row[3] for row in rows}
    assert "sir_compensated" in metrics
    assert "sir_uncompensated" in metrics
    assert metrics["sir_compensated"] >= 60.0
    assert (tmp_path / "orth" / "results.csv").exists()


def test_effchan_experiment_writes_magnitude_grid(tmp_path, monkeypatch):
    # the grid is written at 12 significant digits: each value within
    # 5e-12 relative of |effective channel| as computed (AFBM's is the
    # first effective_channels call)
    totals = []

    def spy(*args):
        eff, refs = effective_channels(*args)
        totals.append(eff)
        return eff, refs

    monkeypatch.setattr(cli, "effective_channels", spy)
    cfg = resolve_config({"experiment": "effchan", "trials": 1,
                          "waveform": SMALL_WAVEFORM,
                          "out": str(tmp_path / "eff")})
    rows = run(cfg)
    names = [row[0] for row in rows]
    assert "path_separation_afbm" in names
    assert "path_separation_afdm" in names
    lines = (tmp_path / "eff" / "effchan_magnitude.csv").read_text()
    lines = lines.splitlines()
    assert "# shape=32x32" in lines and "# digits=12" in lines
    grid = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert len(grid) == 32 and all(len(values) == 32 for values in grid)
    np.testing.assert_allclose(np.array(grid, dtype=float),
                               np.abs(totals[0]), rtol=5e-12, atol=0)


def _floats(path) -> np.ndarray:
    """Every cell of a CSV table's numeric columns, parsed back."""
    body = [ln.split(",") for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")][1:]
    return np.array(body, dtype=float)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def test_every_other_table_round_trips_exactly(tmp_path, monkeypatch):
    # only effchan_magnitude.csv is rounded: results.csv, papr_*, psd_* and
    # ber.csv hold the shortest repr, which parses back to the same bits
    spectra = []

    def spy(*args):
        spectra.append(spectrum_psd(*args))
        return spectra[-1]

    monkeypatch.setattr(cli.metrics, "spectrum_psd", spy)
    runs = {"papr": {"trials": 25}, "oobe": {"trials": 12},
            "ber": {"trials": 3, "snr_grid": [0.0, 6.0]}}
    for experiment, data in runs.items():
        out = tmp_path / experiment
        rows = run(resolve_config({"experiment": experiment,
                                   "out": str(out), **data}))
        results = [ln.split(",") for ln in
                   (out / "results.csv").read_text().splitlines()
                   if not ln.startswith("#")][1:]
        assert [r[:2] for r in results] == [[m, c] for m, c, _, _ in rows]
        assert _same_bits([r[2:] for r in results],
                          [r[2:] for r in rows])
        for name in ("afbm", "afdm") if experiment == "papr" else ():
            curve = [r[2:] for r in rows if r[0] == f"papr_ccdf_{name}"]
            assert _same_bits(_floats(out / f"papr_{name}.csv"), curve)
        for name, psd in zip(("afbm", "afdm"),
                             spectra if experiment == "oobe" else ()):
            assert _same_bits(_floats(out / f"psd_{name}.csv"),
                              np.column_stack((psd.freq, psd.power_dbr)))
        if experiment == "ber":
            assert _same_bits(_floats(out / "ber.csv"),
                              [r[2:] for r in rows])
    assert len(spectra) == 2


def test_papr_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "papr", "trials": 25,
                          "out": str(tmp_path / "papr")})
    rows = run(cfg)
    assert (tmp_path / "papr" / "papr_afbm.csv").exists()
    assert (tmp_path / "papr" / "papr_afdm.csv").exists()
    names = [row[0] for row in rows]
    assert any(n.startswith("papr_at_ccdf") for n in names)


def test_oobe_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "oobe", "trials": 12,
                          "out": str(tmp_path / "oobe")})
    rows = run(cfg)
    assert (tmp_path / "oobe" / "psd_afbm.csv").exists()
    assert (tmp_path / "oobe" / "psd_afdm.csv").exists()
    metrics = {row[0]: row[3] for row in rows}
    assert metrics["oobe_floor_afbm"] < metrics["oobe_floor_afdm"]


def test_ber_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "ber", "trials": 3,
                          "snr_grid": [100.0],
                          "out": str(tmp_path / "ber")})
    rows = run(cfg)
    ber_rows = [row for row in rows if row[0] == "ber"]
    assert ber_rows and ber_rows[0][3] == 0.0
    assert (tmp_path / "ber" / "ber.csv").exists()


def test_ber_run_applies_the_configured_xi(tmp_path):
    # the declared bounds (ell_max 0, f_max 0) are feasible at xi = 31;
    # the default paths (delay 2, Doppler 1) are feasible at xi = 0 only
    with pytest.raises(ValueError, match="channel.paths: infeasible"):
        resolve_config({"experiment": "ber", "trials": 1, "snr_grid": [0.0],
                        "channel": {"ell_max": 0, "f_max": 0.0, "xi": 31},
                        "out": str(tmp_path / "ber")})


def test_effchan_rejects_paths_beyond_the_declared_bounds(tmp_path, capsys):
    # the declared bounds (ell_max 0, f_max 0) are feasible, the path is
    # not: 2 * 3 * (40 + 1) + 40 = 286 > P = 128; ber gates the same paths,
    # and neither run creates its output directory
    data = read_config_file(CONFIG_DIR / "fig2.cfg")
    data["channel"] = dict(data["channel"], ell_max=0, f_max=0.0, paths=[
        {"gain": 1.0, "delay": 40, "doppler": 3.0}])
    cfg = write_config(tmp_path, data)
    for experiment in ("effchan", "ber"):
        out = tmp_path / experiment
        code = main([experiment, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "channel.paths: infeasible" in capsys.readouterr().err
        assert not out.exists()
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        bundled = resolve_config(read_config_file(path))
        for size in (bundled.waveform.dims.P, bundled.afdm.L_a):
            check_paths_feasible(bundled.paths, bundled.xi, size)


@pytest.mark.parametrize("experiment,waveform,block", [
    ("effchan", {}, 128),
    ("ber", {"L": 8, "P": 8, "N": 8, "filter": "RECT", "overlap": 1}, 8),
], ids=["effchan-afdm-body", "ber-rect-frame"])
def test_a_delay_of_a_whole_block_is_refused_before_any_output(
        experiment, waveform, block, tmp_path, capsys):
    # at Doppler 0 the feasibility rule admits a delay equal to its grid;
    # a delay of the whole block a path counts in failed inside the runner:
    # the baseline's L = 128 body in effchan, and the 8-sample RECT frame
    # in ber, where P = 8 as well
    data = {"experiment": experiment, "waveform": waveform, "channel": {
        "paths": [{"gain": 1.0, "delay": block, "doppler": 0.0}]}}
    message = f"channel.paths: path delay {block} must be < M={block}"
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve_config(data)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(write_config(tmp_path, data)),
                 "--trials", "1", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    # one sample less resolves and runs
    data["channel"]["paths"][0]["delay"] = block - 1
    rows = run(resolve_config(dict(data, trials=1, out=str(out))))
    assert np.all(np.isfinite([row[2:] for row in rows]))


# two paths on one delay and Doppler whose gains cancel: the channel is zero
CANCELLING = [{"gain": 1.0, "delay": 0, "doppler": 0.0},
              {"gain": -1.0, "delay": 0, "doppler": 0.0}]


def test_paths_that_cancel_are_refused_before_any_output(tmp_path, capsys):
    # ber ran them to BER 0.5 from nan estimates, effchan failed in its
    # runner; now the config is refused like a zero total power
    cfg = write_config(tmp_path, {"channel": {"paths": CANCELLING}})
    for experiment in ("ber", "effchan", "papr"):
        out = tmp_path / experiment
        assert main([experiment, "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert "channel.paths: the paths cancel" in err
        assert not out.exists()


@pytest.mark.parametrize("paths", [
    CANCELLING + [{"gain": 0.5, "delay": 1, "doppler": 1.0}],
    [{"gain": g, "delay": 0, "doppler": 0.0} for g in (0.1, 0.2, -0.3)],
], ids=["partial", "near"])
def test_paths_that_nearly_cancel_run_to_finite_rows(paths, tmp_path):
    # only an exact cancellation is refused: 0.1 + 0.2 - 0.3 is 5.6e-17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for experiment in ("ber", "effchan"):
            rows = run(resolve_config({
                "experiment": experiment, "trials": 2,
                "channel": {"paths": paths},
                "out": str(tmp_path / experiment)}))
            assert np.all(np.isfinite([row[2:] for row in rows]))


def test_baseline_chirp_rule_binds_only_the_experiments_that_run_it(
        tmp_path, capsys):
    # the baseline's L = 64 point grid cannot hold 2 * 5 * 11 + 10 = 120,
    # the waveform's P = 192 can: orth and ber, which never run the
    # baseline, run; papr, oobe and effchan are refused before any output
    cfg = write_config(tmp_path, {"waveform": {"L": 64}, "channel": {
        "ell_max": 10, "f_max": 5.0,
        "paths": [{"gain": 1.0, "delay": 0, "doppler": 0.0}]}})
    for experiment in ("orth", "ber"):
        out = tmp_path / experiment
        assert main([experiment, "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        assert (out / "results.csv").exists()
    capsys.readouterr()
    for experiment in ("papr", "oobe", "effchan"):
        out = tmp_path / experiment
        assert main([experiment, "--config", str(cfg), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert "afdm (L = 64)" in err and "exceeds P = 64" in err
        assert not out.exists()


def _earlier_run(directory) -> dict:
    """A directory that an earlier run filled: its files and their bytes."""
    directory.mkdir()
    for name in ("results.csv", "psd_afdm.csv"):
        (directory / name).write_text(f"# an earlier {name}\n1.0,2.0\n")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_a_failed_run_removes_only_the_directories_it_created(
        tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise RuntimeError("runner failed")

    monkeypatch.setitem(cli._RUNNERS, "orth", fail)
    data = {"experiment": "orth", "waveform": SMALL_WAVEFORM}
    new = tmp_path / "new"
    with pytest.raises(RuntimeError, match="runner failed"):
        run(resolve_config({**data, "out": str(new / "run")}))
    assert not new.exists()
    assert main(["orth", "--out", str(new)]) == 1
    assert "runner failed" in capsys.readouterr().err
    assert not new.exists()
    # a directory that was there before, as a rerun into it finds it, is
    # left as it was: no runner writes, so no table of the failed run is in it
    kept = tmp_path / "kept"
    before = _earlier_run(kept)
    with pytest.raises(RuntimeError, match="runner failed"):
        run(resolve_config({**data, "out": str(kept)}))
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
    # nor is the afbm table of an oobe run interrupted during its afdm one
    spectra = []

    def interrupted(*args):
        if spectra:
            raise KeyboardInterrupt
        spectra.append(spectrum_psd(*args))
        return spectra[-1]

    monkeypatch.setattr(cli.metrics, "spectrum_psd", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(resolve_config({**data, "experiment": "oobe", "trials": 4,
                            "out": str(kept)}))
    assert len(spectra) == 1
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_a_non_finite_row_is_refused_and_nothing_is_left(tmp_path,
                                                         monkeypatch):
    def nan_row(cfg):
        table = ("x",), [(1.0,)], {}
        return [("sir_compensated", 0, float("nan"))], "", {"t.csv": table}

    monkeypatch.setitem(cli._RUNNERS, "orth", nan_row)
    out = tmp_path / "new" / "run"
    with pytest.raises(ValueError, match="sir_compensated is not finite"):
        run(resolve_config({"experiment": "orth", "out": str(out)}))
    assert not (tmp_path / "new").exists()
    # an existing directory keeps its earlier files, and gains neither the
    # runner's table nor results.csv
    kept = tmp_path / "kept"
    before = _earlier_run(kept)
    with pytest.raises(ValueError, match="sir_compensated is not finite"):
        run(resolve_config({"experiment": "orth", "out": str(kept)}))
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


@pytest.mark.parametrize("experiment,names", [
    ("papr", ["papr_afbm.csv", "papr_afdm.csv"]),
    ("oobe", ["psd_afbm.csv", "psd_afdm.csv"]),
    ("orth", []),
    ("effchan", ["effchan_magnitude.csv"]),
    ("ber", ["ber.csv"])])
def test_runners_compute_their_tables_and_touch_no_disk(experiment, names,
                                                        tmp_path):
    # a runner takes the config alone and returns its rows, its summary and
    # its tables; run writes those tables and results.csv, nothing else
    cfg = resolve_config({"experiment": experiment, "trials": 4,
                          "snr_grid": [0.0, 6.0], "waveform": SMALL_WAVEFORM,
                          "out": str(tmp_path / "out")})
    found, summary, tables = cli._RUNNERS[experiment](cfg)
    assert not (tmp_path / "out").exists()
    assert summary.startswith(f"{experiment}: ")
    assert found and all(len(row) == 3 for row in found)
    assert list(tables) == names
    assert all(len(table) == 3 and isinstance(table[2], dict)
               for table in tables.values())
    run(cfg)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        names + ["results.csv"])


def test_orth_builds_its_gram_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return fold_gram(*args)

    monkeypatch.setattr(cli.metrics, "fold_gram", counted)
    run(resolve_config({"experiment": "orth", "waveform": SMALL_WAVEFORM,
                        "out": str(tmp_path / "orth")}))
    assert len(calls) == 1


def test_reruns_are_byte_identical(tmp_path):
    data = {"experiment": "effchan", "trials": 1,
            "waveform": SMALL_WAVEFORM}
    cfg_a = resolve_config({**data, "out": str(tmp_path / "a")})
    cfg_b = resolve_config({**data, "out": str(tmp_path / "b")})
    run(cfg_a)
    run(cfg_b)
    body_a = (tmp_path / "a" / "results.csv").read_bytes()
    body_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert body_a == body_b


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------

def test_main_runs_orth_with_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"waveform": SMALL_WAVEFORM})
    code = main(["orth", "--config", str(cfg),
                 "--out", str(tmp_path / "run"), "--trials", "5"])
    assert code == 0
    assert (tmp_path / "run" / "results.csv").exists()
    out = capsys.readouterr().out
    assert "sir" in out.lower()


def test_main_applies_seed_override(tmp_path):
    cfg = write_config(tmp_path, {"waveform": SMALL_WAVEFORM,
                                  "experiment": "effchan", "trials": 1})
    code = main(["effchan", "--config", str(cfg),
                 "--out", str(tmp_path / "s"), "--seed", "42"])
    assert code == 0
    text = (tmp_path / "s" / "results.csv").read_text()
    assert "# seed=42" in text


def test_main_reports_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, {"trials": -1})
    code = main(["papr", "--config", str(cfg)])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_main_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as err:
        main(["latency"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_experiment_names_are_stable():
    assert EXPERIMENTS == ("papr", "oobe", "orth", "effchan", "ber")


# ---------------------------------------------------------------------------
# random configs over the schema
# ---------------------------------------------------------------------------

_PROTOTYPES = [("HERMITE", 0.5), ("HERMITE", 1), ("HERMITE", 1.5),
               ("HERMITE", 4), ("PHYDYAS", 1), ("PHYDYAS", 2), ("PHYDYAS", 4),
               ("RECT", 1)]


def _random_config(rng) -> dict:
    """A config drawn over the schema's keys and ranges: small grids, each
    optional key present or not, and now and then a value at or past the
    edge of its range (an odd or mismatched size, a rate near 1, a path
    gain or Doppler up to 1e308)."""
    def some(p=0.5):
        return rng.random() < p

    def wide(top=308):  # a magnitude over many decades, either sign
        return float(rng.choice([-1, 1]) * 10 ** rng.uniform(-300, top))

    N = 2 * int(rng.integers(2, 33))
    P = 2 * int(rng.integers(1, N // 2 + 1))
    wf = {"N": N, "P": P, "L": 4 * int(rng.integers(1, max(P // 4, 1) + 1)),
          "K": int(rng.integers(1, 4))}
    if some(0.1):
        wf[str(rng.choice(["L", "P", "N"]))] = int(rng.integers(1, 70))
    if some(0.8):
        kind = _PROTOTYPES[rng.integers(len(_PROTOTYPES))]
        wf["filter"], wf["overlap"] = kind
    elif some():
        wf["overlap"] = float(rng.uniform(0, 4))
    for key, choices in (("constellation", ["QPSK", "QAM16"]),
                         ("compensation", ["split", "tx"])):
        if some():
            wf[key] = str(rng.choice(choices))
    for key, low in (("c1", 0), ("c2", -1)):
        if some(0.3):
            edge = [rng.uniform(low, 1), low, 1 - 2 ** -52]
            wf[key] = float(rng.choice(edge))
    channel = {"ell_max": int(rng.integers(0, 6)),
               "f_max": float(rng.uniform(0, 4)) if some(0.9) else abs(wide())}
    if some(0.3):
        channel["xi"] = int(rng.integers(0, 3))
    if some():
        channel["paths"] = [
            {"gain": ([wide(), float(rng.standard_normal())] if some(0.2)
                      else wide() if some(0.2)
                      else float(rng.standard_normal())),
             "delay": int(rng.integers(0, 9)),
             "doppler": float(rng.uniform(-4, 4)) if some(0.9) else wide()}
            for _ in range(int(rng.integers(1, 4)))]
    afdm = {}
    if some(0.3):
        afdm["cpp_len"] = int(rng.integers(0, 7))
    for key, low in (("c1", 0), ("c2", -1)):
        if some(0.3):
            afdm[key] = float(rng.uniform(low, 1))
    data = {"experiment": str(rng.choice(EXPERIMENTS)), "waveform": wf,
            "channel": channel, "afdm": afdm,
            "trials": int(rng.integers(1, 4)),
            "seed": int(rng.integers(0, 2 ** 63))}
    if some(0.3):
        data["snr_grid"] = [float(rng.uniform(-SNR_LIMIT_DB, SNR_LIMIT_DB))
                            for _ in range(int(rng.integers(1, 4)))]
    return data


def test_random_configs_are_refused_or_run_to_finite_rows(tmp_path):
    # every config either fails resolve_config with a ValueError, before
    # any computation, or runs without a warning to finite result rows
    ran = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(1200):
            data = _random_config(np.random.default_rng([53, i]))
            data["out"] = str(tmp_path / str(i))
            try:
                cfg = resolve_config(data)
            except ValueError:
                continue
            rows = run(cfg)
            assert np.all(np.isfinite([row[2:] for row in rows])), data
            ran[cfg.experiment] = ran.get(cfg.experiment, 0) + 1
    assert set(ran) == set(EXPERIMENTS) and sum(ran.values()) > 150, ran
