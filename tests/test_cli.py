"""Tests for config handling, experiment dispatch and CSV reproducibility."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from afbm.channel import check_paths_feasible
from afbm.transforms import ChirpPair
from afbm.cli import (
    EXPERIMENTS,
    ResultTable,
    load_config,
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
    cfg = load_config(path)
    assert cfg.experiment == "papr"
    wf = cfg.waveform
    assert (wf.dims.L, wf.dims.P, wf.dims.N, wf.K) == (128, 192, 256, 8)
    assert wf.filter.kind == "HERMITE" and wf.filter.overlap == 1.5
    assert abs(wf.chirps_mod.c1 - 3 / 384) < 1e-15
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
], ids=["trials-bool", "seed-bool", "K-float", "snr-nan", "delay-float",
        "waveform-int", "afdm-int", "channel-list", "path-int",
        "path-no-doppler", "f_max-str", "c1-str", "overlap-str", "f_max-nan",
        "f_max-huge", "overlap-nan", "filter-int", "afdm-c1-negative",
        "out-int", "paths-empty", "gain-bool", "doppler-bool", "f_max-bool",
        "overlap-bool", "gain-str", "filter-lowercase", "zero-power"])
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


def test_resolve_config_rejects_wrong_types_from_a_config_file(tmp_path):
    # JSON's NaN, true and 2.0 reach the resolver as float/bool values
    for text in ('{"snr_grid": [0, NaN]}', '{"trials": true}',
                 '{"waveform": {"N": 256.0}}', '{"channel": {"xi": 1.0}}',
                 '{"afdm": {"cpp_len": 2.0}}', '{"snr_grid": []}'):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(path)


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
        "waveform": {"c1": 0.01, "c2": 0.0, "c1_pre": 0.02, "c2_pre": 0.001},
        "afdm": {"cpp_len": 3, "c1": 0.015, "c2": 0.0}})
    assert cfg.waveform.chirps_pre == ChirpPair(0.02, 0.001)
    assert cfg.afdm.cpp_len == 3 and cfg.afdm.chirps.c1 == 0.015
    for name in ("fig2", "fig3", "fig4"):
        load_config(CONFIG_DIR / f"{name}.cfg")


def test_resolve_config_explicit_chirps_override_the_rule():
    cfg = resolve_config({"waveform": {"c1": 0.05, "c2": 0.001},
                          "afdm": {"c1": 0.02}})
    assert cfg.waveform.chirps_mod == cfg.waveform.chirps_pre
    assert cfg.waveform.chirps_mod.c1 == 0.05
    assert cfg.waveform.chirps_mod.c2 == 0.001
    assert cfg.afdm.chirps.c1 == 0.02


def test_resolve_config_separate_precoding_chirps():
    cfg = resolve_config({"waveform": {"c1_pre": 0.03}})
    assert cfg.waveform.chirps_pre.c1 == 0.03
    assert abs(cfg.waveform.chirps_mod.c1 - 3 / 384) < 1e-15


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
        cfg = (load_config(CONFIG_DIR / f"{name}.cfg") if name
               else resolve_config({}))
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
    table = ResultTable(metadata={"seed": 3, "experiment": "orth"},
                        columns=("metric", "value"),
                        rows=[("sir", 150.0), ("count", 2)])
    path = tmp_path / "out" / "table.csv"
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "# experiment=orth"
    assert lines[2] == "metric,value"
    assert lines[3] == "sir,150.0"
    assert lines[4] == "count,2"


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

def test_orth_experiment_runs(tmp_path):
    cfg = resolve_config({"experiment": "orth",
                          "waveform": SMALL_WAVEFORM,
                          "out": str(tmp_path / "orth")})
    table = run(cfg)
    metrics = {row[0]: row[3] for row in table.rows}
    assert "sir_compensated" in metrics
    assert "sir_uncompensated" in metrics
    assert metrics["sir_compensated"] >= 60.0
    assert (tmp_path / "orth" / "results.csv").exists()


def test_effchan_experiment_writes_magnitude_grid(tmp_path):
    cfg = resolve_config({"experiment": "effchan", "trials": 1,
                          "waveform": SMALL_WAVEFORM,
                          "out": str(tmp_path / "eff")})
    table = run(cfg)
    names = [row[0] for row in table.rows]
    assert "path_separation_afbm" in names
    assert "path_separation_afdm" in names
    grid = (tmp_path / "eff" / "effchan_magnitude.csv").read_text()
    data_lines = [ln for ln in grid.splitlines()
                  if ln and not ln.startswith("#") and not ln[0].isalpha()]
    assert len(data_lines) == 32
    assert all(len(ln.split(",")) == 32 for ln in data_lines)


def test_papr_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "papr", "trials": 25,
                          "out": str(tmp_path / "papr")})
    table = run(cfg)
    assert (tmp_path / "papr" / "papr_afbm.csv").exists()
    assert (tmp_path / "papr" / "papr_afdm.csv").exists()
    names = [row[0] for row in table.rows]
    assert any(n.startswith("papr_at_ccdf") for n in names)


def test_oobe_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "oobe", "trials": 12,
                          "out": str(tmp_path / "oobe")})
    table = run(cfg)
    assert (tmp_path / "oobe" / "psd_afbm.csv").exists()
    assert (tmp_path / "oobe" / "psd_afdm.csv").exists()
    metrics = {row[0]: row[3] for row in table.rows}
    assert metrics["oobe_floor_afbm"] < metrics["oobe_floor_afdm"]


def test_ber_experiment_small(tmp_path):
    cfg = resolve_config({"experiment": "ber", "trials": 3,
                          "snr_grid": [100.0],
                          "out": str(tmp_path / "ber")})
    table = run(cfg)
    ber_rows = [row for row in table.rows if row[0] == "ber"]
    assert ber_rows and ber_rows[0][3] == 0.0
    assert (tmp_path / "ber" / "ber.csv").exists()


def test_ber_run_applies_the_configured_xi(tmp_path):
    # the declared bounds (ell_max 0, f_max 0) are feasible at xi = 31;
    # the default paths (delay 2, Doppler 1) are feasible at xi = 0 only
    cfg = resolve_config({"experiment": "ber", "trials": 1,
                          "snr_grid": [0.0],
                          "channel": {"ell_max": 0, "f_max": 0.0, "xi": 31},
                          "out": str(tmp_path / "ber")})
    with pytest.raises(ValueError, match="infeasible"):
        run(cfg)


def test_effchan_rejects_paths_beyond_the_declared_bounds(tmp_path, capsys):
    # the declared bounds (ell_max 0, f_max 0) are feasible, the path is
    # not: 2 * 3 * (40 + 1) + 40 = 286 > P = 128
    data = read_config_file(CONFIG_DIR / "fig2.cfg")
    data["channel"] = dict(data["channel"], ell_max=0, f_max=0.0, paths=[
        {"gain": 1.0, "delay": 40, "doppler": 3.0}])
    cfg = write_config(tmp_path, data)
    code = main(["effchan", "--config", str(cfg),
                 "--out", str(tmp_path / "eff")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err
    assert not (tmp_path / "eff" / "results.csv").exists()
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        bundled = load_config(path)
        for size in (bundled.waveform.dims.P, bundled.afdm.L_a):
            check_paths_feasible(bundled.paths, bundled.xi, size)


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
