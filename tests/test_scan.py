"""Config parsing, scan execution, presets, serialization, and the CLI.

Emission must be byte-deterministic and round-trip through float repr;
scan failures must abort with the completed-point diagnostics instead of
returning partial tables.
"""

import json

import numpy as np
import pytest

from slabpdc import scan
from slabpdc.amplitude import amplitude_farfield
from slabpdc.cli import main
from slabpdc.materials import DispersionRangeError
from slabpdc.scan import (PRESET_NAMES, ConfigError, ScanError, ScanRequest,
                          emit, load_config, preset, preset_text, run_scan,
                          scan_request_from_config)

SCAN_TEXT = """\
# ratio sweep used by several tests
frequency = 3.54e15 rad/s
crystal_length = 2 mm
scan_axis = n_imag
scan_start = 0.0
scan_stop = 1e-5
scan_count = 5
observables = rate_ratio_to_lossless
"""


# ---------------------------------------------------------------------------
# Pair-level parsing
# ---------------------------------------------------------------------------

def test_missing_equals_sign():
    with pytest.raises(ConfigError, match=r"line 2, col 1: expected"):
        load_config("crystal_length = 2 mm\nfrequency 3.54e15\n")


def test_empty_key_and_empty_value():
    with pytest.raises(ConfigError, match="empty key"):
        load_config(" = 5\n")
    with pytest.raises(ConfigError, match="has no value"):
        load_config("frequency =\n")


def test_unknown_key_with_position():
    with pytest.raises(ConfigError, match=r"unknown key 'birefringence'") \
            as info:
        load_config("# header\nbirefringence = 0.1\n")
    assert info.value.line == 2
    assert info.value.col == 1


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'n_imag'"):
        load_config("n_imag = 1e-6\nn_imag = 2e-6\n")


def test_comments_and_blank_lines_ignored():
    cfg = load_config("\n# full-line comment\nn_imag = 1e-6  # trailing\n")
    assert cfg.crystal.index(3.54e15).imag == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# Quantities and suffixes
# ---------------------------------------------------------------------------

def test_length_suffixes():
    assert load_config("crystal_length = 2 mm\n").crystal.length == 2e-3
    assert load_config("crystal_length = 2mm\n").crystal.length == 2e-3
    assert load_config("z_signal = 5e8 nm\n").z_signal == \
        pytest.approx(0.5)


def test_frequency_suffix():
    cfg = load_config("frequency = 3.54e15 rad/s\n")
    assert cfg.signal_frequency == 3.54e15
    assert cfg.pump_frequency == 7.08e15


def test_wrong_dimension_suffix_rejected():
    with pytest.raises(ConfigError, match="not a length"):
        load_config("frequency = 2 mm\n")
    with pytest.raises(ConfigError, match="suffix"):
        load_config("coupling = 1e-12 nm\n")
    with pytest.raises(ConfigError, match="unknown suffix"):
        load_config("crystal_length = 2 cm\n")


def test_bad_numbers():
    with pytest.raises(ConfigError, match="is not a number"):
        load_config("crystal_length = abc\n")
    with pytest.raises(ConfigError, match="finite"):
        load_config("n_imag = inf\n")


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def test_empty_text_gives_documented_defaults():
    cfg = load_config("")
    assert cfg.crystal.length == 2e-3
    assert cfg.signal_frequency == 3.54e15
    assert cfg.idler_frequency == 3.54e15
    assert cfg.pump_frequency == 7.08e15
    assert cfg.chi2.kind == "I"
    assert cfg.z_signal == 1.0 and cfg.z_idler == 1.0
    assert cfg.pump_z == -1e-3
    assert cfg.crystal.index(3.54e15).imag == 0.0


def test_frequency_exclusive_with_split_pair():
    with pytest.raises(ConfigError, match="not both"):
        load_config("frequency = 3.54e15\nsignal_frequency = 3.0e15\n"
                    "idler_frequency = 4.08e15\n")
    with pytest.raises(ConfigError, match="together"):
        load_config("signal_frequency = 3.0e15\n")


def test_split_pair_accepted():
    cfg = load_config("signal_frequency = 3.0e15\n"
                      "idler_frequency = 4.08e15\n")
    assert cfg.pump_frequency == pytest.approx(7.08e15)
    assert not cfg.degenerate


def test_absorption_keys():
    with pytest.raises(ConfigError, match="requires n_imag"):
        load_config("n_imag_pump = 1e-5\n")
    with pytest.raises(ConfigError, match=">= 0"):
        load_config("n_imag = -1e-6\n")


def test_split_absorption_is_exact_at_the_modes():
    cfg = load_config("n_imag = 2e-6\nn_imag_pump = 1.2e-5\n")
    assert cfg.crystal.index(3.54e15).imag == pytest.approx(2e-6,
                                                            rel=1e-12)
    assert cfg.crystal.index(7.08e15).imag == pytest.approx(1.2e-5,
                                                            rel=1e-12)
    # equal values collapse to the uniform path
    uni = load_config("n_imag = 2e-6\nn_imag_pump = 2e-6\n")
    assert uni.crystal.index(7.08e15).imag == pytest.approx(2e-6,
                                                            rel=1e-12)


def test_semantic_errors_become_config_errors():
    with pytest.raises(ConfigError, match="positive"):
        load_config("crystal_length = 0 mm\n")
    with pytest.raises(ConfigError, match="exit face"):
        load_config("z_signal = 0.5 mm\n")
    with pytest.raises(ConfigError, match="unknown material"):
        load_config("material = diamond\n")
    with pytest.raises(ConfigError, match="conversion"):
        load_config("conversion = III\n")


# ---------------------------------------------------------------------------
# Scan requests
# ---------------------------------------------------------------------------

def test_request_from_config_round_trip():
    req = scan_request_from_config(SCAN_TEXT)
    assert req.axis == "n_imag"
    assert req.range == (0.0, 1e-5, 5)
    assert req.observables == ("rate_ratio_to_lossless",)
    assert req.method == "farfield"
    assert req.echo["material"] == "bbo_ordinary"


def test_request_missing_scan_keys():
    with pytest.raises(ConfigError, match="missing.*scan_stop"):
        scan_request_from_config("scan_axis = n_imag\n")


def test_request_validation():
    base = load_config("")
    with pytest.raises(ValueError, match="axis"):
        ScanRequest(base=base, axis="bogus", range=(0, 1, 5),
                    observables=("rate_I",))
    with pytest.raises(ValueError, match=">= 2"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 1),
                    observables=("rate_I",))
    with pytest.raises(ValueError, match="start < stop"):
        ScanRequest(base=base, axis="n_imag", range=(1, 0, 5),
                    observables=("rate_I",))
    for bounds in ((0.0, np.inf), (np.nan, 1e-5), (-np.inf, 1e-5)):
        with pytest.raises(ValueError, match="finite"):
            ScanRequest(base=base, axis="n_imag", range=(*bounds, 3),
                        observables=("rate_I",))
    with pytest.raises(ValueError, match="observable"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables=())
    with pytest.raises(ValueError, match="unknown observable"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables=("rates",))
    with pytest.raises(ValueError, match="duplicate"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables=("rate_I", "rate_I"))
    with pytest.raises(ValueError, match="method"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables=("rate_I",), method="magic")
    with pytest.raises(ValueError, match="tol"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables=("rate_I",), tol=0.0)
    with pytest.raises(ValueError, match="sinc_profile"):
        ScanRequest(base=base, axis="delta_k", range=(0.1, 10, 5),
                    observables=("rate_I",))
    with pytest.raises(ValueError, match=">= 0"):
        ScanRequest(base=base, axis="n_imag", range=(-1e-6, 1e-5, 5),
                    observables=("rate_I",))
    with pytest.raises(ValueError, match="positive"):
        ScanRequest(base=base, axis="crystal_length", range=(0.0, 1e-3, 5),
                    observables=("rate_I",))


def test_non_integer_count_rejected():
    with pytest.raises(ConfigError, match="not an integer"):
        scan_request_from_config(SCAN_TEXT.replace("scan_count = 5",
                                                   "scan_count = 2.5"))


# ---------------------------------------------------------------------------
# Scan execution
# ---------------------------------------------------------------------------

def test_ratio_scan_rows():
    result = run_scan(scan_request_from_config(SCAN_TEXT))
    assert result.columns == ("rate_ratio_to_lossless_I",
                              "rate_ratio_to_lossless_II")
    assert len(result.rows) == 5
    ratios_I = [row[0] for row in result.rows]
    ratios_II = [row[1] for row in result.rows]
    assert ratios_I[0] == 1.0 and ratios_II[0] == 1.0
    assert all(a > b for a, b in zip(ratios_I, ratios_I[1:]))
    assert all(a > b for a, b in zip(ratios_II, ratios_II[1:]))
    # the two conversion types decay at distinct rates
    assert all(abs(a - b) > 1e-6 * a
               for a, b in zip(ratios_I[1:], ratios_II[1:]))


def test_ratio_scan_computes_lossless_amplitude_once(monkeypatch):
    # On the n_imag axis the lossless config is the same at every point.
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return amplitude_farfield(cfg)

    monkeypatch.setattr(scan, "amplitude_farfield", counted)
    result = run_scan(scan_request_from_config(SCAN_TEXT))
    count = len(result.rows)
    assert len(calls) == 2 * count + 2


def test_scan_determinism():
    a = run_scan(scan_request_from_config(SCAN_TEXT))
    b = run_scan(scan_request_from_config(SCAN_TEXT))
    assert a.rows == b.rows
    assert emit(a) == emit(b)


def test_scan_abort_diagnostics():
    text = """\
frequency = 3.54e15
scan_axis = frequency
scan_start = 3.3e15
scan_stop = 3.6e15
scan_count = 4
observables = rate_I
"""
    with pytest.raises(ScanError, match="axis point 3") as info:
        run_scan(scan_request_from_config(text))
    assert info.value.completed == 3
    assert isinstance(info.value.__cause__, DispersionRangeError)


def test_sinc_profile_on_delta_k_axis():
    text = """\
scan_axis = delta_k
scan_start = 1.5707963267948966
scan_stop = 4.71238898038469
scan_count = 3
observables = sinc_profile
"""
    result = run_scan(scan_request_from_config(text))
    # middle grid point sits at the first lossless sinc zero, x = pi
    assert result.rows[1][0] < 1e-12
    assert result.rows[0][0] > 1e-2


def test_amplitude_matrix_observable_emits_complex_entries():
    text = """\
conversion = II
scan_axis = n_imag
scan_start = 0.0
scan_stop = 1e-6
scan_count = 2
observables = amplitude_matrix
"""
    result = run_scan(scan_request_from_config(text))
    assert result.columns == ("amplitude_xx", "amplitude_xy",
                              "amplitude_yx", "amplitude_yy")
    assert isinstance(result.rows[0][0], complex)
    # type II: anti-diagonal entries only
    assert result.rows[0][0] == 0.0 and abs(result.rows[0][1]) > 0.0


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_preset_inventory():
    assert PRESET_NAMES == ("fig3", "fig4", "fig5", "fig6")
    with pytest.raises(ValueError, match="unknown preset"):
        preset("fig7")
    assert "scan_axis" in preset_text("fig5")


def test_preset_fig4_gain_curve():
    result = run_scan(preset("fig4"))
    gains = [row[0] for row in result.rows]
    assert len(gains) == 200
    assert gains[0] == 0.0
    assert all(a < b for a, b in zip(gains, gains[1:]))


def test_preset_fig3_minima_lifted_by_unbalanced_absorption():
    result = run_scan(preset("fig3"))
    vals = np.array([row[0] for row in result.rows])
    assert len(vals) == 400
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    floors = vals[1:-1][interior]
    assert floors.size >= 3
    # pump absorbing harder than the daughters: minima strictly above zero
    assert np.min(floors) > 1e-6


def test_preset_fig6_beats():
    result = run_scan(preset("fig6"))
    assert len(result.rows) == 400
    rates = np.array([row[result.columns.index("rate_I")]
                      for row in result.rows])
    interior = (rates[1:-1] > rates[:-2]) & (rates[1:-1] > rates[2:])
    assert int(np.count_nonzero(interior)) >= 3


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_csv_shape_and_round_trip():
    result = run_scan(scan_request_from_config(SCAN_TEXT))
    data = emit(result, format="csv").decode()
    lines = data.splitlines()
    assert len(lines) == 6 and data.endswith("\n")
    header = lines[0].split(",")
    assert header == ["n_imag", "rate_ratio_to_lossless_I",
                      "rate_ratio_to_lossless_II"]
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [result.axis_values[0], *result.rows[0]]


def test_json_document():
    result = run_scan(scan_request_from_config(SCAN_TEXT))
    doc = json.loads(emit(result, format="json").decode())
    assert doc["schema_version"] == 1
    assert doc["metadata"]["axis"] == "n_imag"
    assert doc["metadata"]["count"] == 5
    assert doc["metadata"]["config"]["material"] == "bbo_ordinary"
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["rate_ratio_to_lossless_I"] == 1.0


def test_complex_columns_expand_to_re_im():
    text = """\
scan_axis = n_imag
scan_start = 0.0
scan_stop = 1e-6
scan_count = 2
observables = amplitude_matrix
"""
    result = run_scan(scan_request_from_config(text))
    header = emit(result).decode().splitlines()[0].split(",")
    assert header[0] == "n_imag"
    assert header[1:3] == ["amplitude_xx_re", "amplitude_xx_im"]
    assert len(header) == 9


def test_emit_format_guard():
    result = run_scan(scan_request_from_config(SCAN_TEXT))
    with pytest.raises(ValueError, match="format"):
        emit(result, format="xml")
    # the text form is for axis-less results only
    with pytest.raises(ValueError, match="format"):
        emit(result, format="text")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_rate_text(tmp_path):
    cfg = _write_cfg(tmp_path, "frequency = 3.54e15\nn_imag = 1e-6\n")
    out = tmp_path / "rate.txt"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rate = ")
    assert float(lines[0].split("=")[1]) > 0.0
    assert lines[1].startswith("amplitude_xx = ")


def test_cli_rate_csv_and_json(tmp_path):
    cfg = _write_cfg(tmp_path, "n_imag = 1e-6\n")
    text = {}
    for fmt in ("text", "csv", "json"):
        out = tmp_path / f"rate.{fmt}"
        assert main(["rate", "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 0
        text[fmt] = out.read_text()
    header, row = text["csv"].splitlines()
    assert header.split(",")[0] == "rate"
    assert len(header.split(",")) == len(row.split(",")) == 9
    from_csv = dict(zip(header.split(","), map(float, row.split(","))))
    doc = json.loads(text["json"])
    assert doc["rate"] > 0.0 and doc["metadata"]["method"] == "farfield"
    assert "rows" not in doc
    from_json = {k: v for k, v in doc.items()
                 if k not in ("schema_version", "metadata")}
    # the text form keeps each complex entry whole: compare by parts
    from_text = {}
    for line in text["text"].splitlines():
        name, value = line.split(" = ")
        if name == "rate":
            from_text[name] = float(value)
        else:
            z = complex(value)
            from_text[name + "_re"], from_text[name + "_im"] = z.real, z.imag
    assert list(from_csv) == list(from_json) == list(from_text)
    assert from_csv == from_json == from_text
    assert from_csv["amplitude_xx_re"] != 0.0


def test_cli_scan_csv(tmp_path):
    cfg = _write_cfg(tmp_path, SCAN_TEXT)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_cli_preset_dump_config(tmp_path):
    out = tmp_path / "fig5.cfg"
    assert main(["preset", "fig5", "--dump-config",
                 "--out", str(out)]) == 0
    assert out.read_text() == preset_text("fig5")


def test_cli_validation_failures_exit_1(tmp_path):
    bad = _write_cfg(tmp_path, "birefringence = 0.1\n")
    assert main(["rate", "--config", bad]) == 1
    assert main(["rate", "--config", str(tmp_path / "absent.cfg")]) == 1
    no_scan = _write_cfg(tmp_path, "n_imag = 1e-6\n", name="plain.cfg")
    assert main(["scan", "--config", no_scan]) == 1
    for method in ("numeric", "farfield"):
        for tol in ("nan", "-1"):
            assert main(["rate", "--config", no_scan, "--method", method,
                         "--tol", tol]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["preset", "fig7"]) == 1
    assert main([]) == 1


def test_cli_version_exits_0():
    assert main(["--version"]) == 0


def test_cli_convergence_failure_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path,
                     "frequency = 3.54e15\nn_imag = 1e-6\n"
                     "z_signal = 0.1\nz_idler = 0.1\n")
    code = main(["rate", "--config", cfg, "--method", "numeric",
                 "--tol", "1e-14"])
    assert code == 2
