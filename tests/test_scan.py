"""Config parsing, scan execution, presets, serialization, and the CLI.

Emission must be byte-deterministic and round-trip through float repr;
scan failures must abort with the completed-point diagnostics instead of
returning partial tables.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from slabpdc import amplitude, radial, scan
from slabpdc.amplitude import amplitude_farfield, amplitude_numeric, rate
from slabpdc.cli import main
from slabpdc.materials import (CrystalSlab, DispersionRangeError,
                               MaterialDispersion)
from slabpdc.quadrature import ConvergenceError
from slabpdc.scan import (PRESET_NAMES, ConfigError, ScanError, ScanRequest,
                          ScanResult, emit, load_config, point_result, preset,
                          preset_text, run_scan, scan_request_from_config)

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
    # the pump's phase is referenced at the entry face: no key moves it
    with pytest.raises(ConfigError) as info:
        load_config("pump_z = -1 mm\n")
    assert str(info.value) == "line 1, col 1: unknown key 'pump_z'"
    # the pump's frequency is always signal + idler: no key sets it
    with pytest.raises(ConfigError) as info:
        load_config("frequency = 3.54e15\npump_frequency = 7.08e15\n")
    assert str(info.value) == "line 2, col 1: unknown key 'pump_frequency'"


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'n_imag'"):
        load_config("n_imag = 1e-6\nn_imag = 2e-6\n")


def test_first_bad_key_in_table_order_is_reported():
    # Values are read in the key table's order, not the text's: of two bad
    # values the one whose key comes first in the table is reported.
    text = "pump_field = y\nscan_count = 2.5\ncrystal_length = x\n"
    for lines in (text, "".join(reversed(text.splitlines(True)))):
        with pytest.raises(ConfigError, match="'crystal_length': 'x'") \
                as info:
            load_config(lines)
        assert info.value.line == lines.splitlines().index(
            "crystal_length = x") + 1


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
    for value in ("inf", "nan", "-inf", "1e400"):
        with pytest.raises(ConfigError, match="finite"):
            load_config(f"n_imag = {value}\n")
    # a value's position is its first character, past any blanks
    with pytest.raises(ConfigError, match=r"line 2, col 16: key "
                       r"'pump_field': value must be finite") as info:
        load_config("n_imag = 1e-6\n pump_field =  nan  # lost\n")
    assert (info.value.line, info.value.col) == (2, 16)
    with pytest.raises(ConfigError, match="'coupling' is not a length; "
                       "suffix 'mm' rejected") as info:
        load_config("# glued suffix\ncoupling=2mm\n")
    assert (info.value.line, info.value.col) == (2, 10)


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
    assert cfg.signal_frequency != cfg.idler_frequency


def test_absorption_keys():
    with pytest.raises(ConfigError, match="requires n_imag"):
        load_config("n_imag_pump = 1e-5\n")
    with pytest.raises(ConfigError, match=">= 0"):
        load_config("n_imag = -1e-6\n")


def test_split_absorption_is_exact_at_the_modes():
    # vacuum's table is unbounded: it interpolates its split all the same
    for material in ("bbo_ordinary", "vacuum"):
        cfg = load_config(f"material = {material}\nn_imag = 2e-6\n"
                          "n_imag_pump = 1.2e-5\n")
        assert cfg.crystal.index(3.54e15).imag == pytest.approx(2e-6,
                                                                rel=1e-12)
        assert cfg.crystal.index(7.08e15).imag == pytest.approx(1.2e-5,
                                                                rel=1e-12)
    # equal values collapse to the uniform path
    uni = load_config("n_imag = 2e-6\nn_imag_pump = 2e-6\n")
    assert uni.crystal.index(7.08e15).imag == pytest.approx(2e-6,
                                                            rel=1e-12)


def test_split_absorption_holds_at_every_frequency_point():
    # The step sits between the highest down-converted and the lowest pump
    # frequency of the whole sweep, so that every row sees its own config's
    # n'' (the base point's cut fell above the pump from 2.385e15 down).
    split = "n_imag = 1e-6\nn_imag_pump = 5e-5\n"
    axis = ("scan_axis = frequency\nscan_start = {}\nscan_stop = 3.54e15\n"
            "scan_count = 5\nobservables = rate_I\n")
    result = run_scan(scan_request_from_config(split + axis.format(2.0e15)))
    for x, (got,) in zip(result.axis_values, result.rows):
        want = rate(amplitude_farfield(load_config(
            split + f"frequency = {x!r}\n")))
        assert abs(got - want) <= 1e-10 * want
    # from scan_start = 1.77e15 the pump reaches the down-converted modes:
    # no step separates them
    for load in (load_config, scan_request_from_config):
        with pytest.raises(ConfigError, match="no absorption step") as info:
            load(split + axis.format(1.77e15))
        assert (info.value.line, info.value.col) == (2, 15)


def test_request_rejects_points_across_the_absorption_step():
    # Built in Python, a frequency sweep over a split-loss base keeps the
    # base point's step (at 5.31e15): from 2.385e15 down the pump would
    # take the down-converted modes' n'' (rate_I 2.83e-39 at 2.0e15, where
    # that point's own config gives 5.93e-36), so the request is refused.
    base = load_config("n_imag = 1e-6\nn_imag_pump = 5e-5\n")
    with pytest.raises(ValueError, match="absorption step .* does not lie "
                       "between the down-converted modes"):
        ScanRequest(base=base, axis="frequency", range=(2.0e15, 3.54e15, 5),
                    observables=("rate_I",))
    # points that keep to their side of the step pass, as do steps that a
    # config built for its own range, and materials without a step
    ScanRequest(base=base, axis="frequency", range=(2.7e15, 3.54e15, 5),
                observables=("rate_I",))
    ScanRequest(base=base, axis="crystal_length", range=(1e-3, 3e-3, 5),
                observables=("rate_I",))
    uniform = load_config("n_imag = 1e-6\n")
    ScanRequest(base=uniform, axis="frequency", range=(1.0e15, 3.54e15, 5),
                observables=("rate_I",))


def test_scan_keys_are_parsed_by_load_config(tmp_path):
    # a rate config carries scan keys at its peril: a malformed one is
    # rejected with its position, as in a sweep
    text = "n_imag = 1e-6\nscan_start = abc\n"
    with pytest.raises(ConfigError, match="'scan_start': 'abc' is not a "
                       "number") as info:
        load_config(text)
    assert (info.value.line, info.value.col) == (2, 14)
    assert main(["rate", "--config", _write_cfg(tmp_path, text)]) == 1
    with pytest.raises(ConfigError, match="not an integer"):
        load_config("scan_count = 2.5\n")
    cfg = load_config(SCAN_TEXT)
    assert (cfg.signal_frequency, cfg.crystal.length) == (3.54e15, 2e-3)


def test_scan_bounds_need_a_known_axis():
    # A bound's suffix is checked against its axis' dimension: with the
    # axis missing or unknown, the axis is what gets reported, at scan_axis
    # (plain bounds too) or, where there is none, at the suffixed bound.
    cases = [("scan_start = 2 mm\n", (1, 14), "'scan_start' has no "
              "scan_axis to give suffix 'mm' a dimension"),
             ("n_imag = 1e-6\nscan_stop = 3e15 rad/s\n", (2, 13),
              "'scan_stop' has no scan_axis to give suffix 'rad/s'"),
             ("scan_axis = bogus\nscan_start = 1 mm\n", (1, 13),
              "scan_axis must be one of .*got 'bogus'"),
             ("scan_axis = bogus\nscan_start = 0.0\n", (1, 13),
              "scan_axis must be one of .*got 'bogus'")]
    for text, position, message in cases:
        for load in (load_config, scan_request_from_config):
            with pytest.raises(ConfigError, match=message) as info:
                load(text + "scan_count = 3\nobservables = rate_I\n")
            assert (info.value.line, info.value.col) == position
    # a known axis still gives its bounds their dimension
    assert load_config("scan_axis = crystal_length\nscan_start = 1 mm\n")
    with pytest.raises(ConfigError, match="is not a length; suffix 'mm'"):
        load_config("scan_axis = frequency\nscan_start = 1 mm\n")


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


def test_tol_must_be_positive_and_finite():
    # An infinite tol would return an unchecked N = 16 head and write
    # "tol": Infinity into JSON; it is rejected where a route is entered.
    base = load_config("")
    for tol in (np.inf, np.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="positive and finite"):
            amplitude_numeric(base, tol=tol)
        for method in ("numeric", "farfield"):
            with pytest.raises(ValueError, match="positive and finite"):
                point_result(base, method=method, tol=tol)
            with pytest.raises(ValueError, match="positive and finite"):
                preset("fig4", method=method, tol=tol)
            with pytest.raises(ValueError, match="positive and finite"):
                ScanRequest(base=base, axis="n_imag", range=(0, 1e-5, 3),
                            observables=("rate_I",), method=method, tol=tol)


def test_request_validation():
    base = load_config("")
    with pytest.raises(ValueError, match="axis"):
        ScanRequest(base=base, axis="bogus", range=(0, 1, 5),
                    observables=("rate_I",))
    for count in (1, np.inf, np.nan):
        with pytest.raises(ValueError, match=">= 2"):
            ScanRequest(base=base, axis="n_imag", range=(0, 1, count),
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
    # a bare name is not a sequence of names, not its letters
    with pytest.raises(ValueError, match="sequence of observable names"):
        ScanRequest(base=base, axis="n_imag", range=(0, 1, 5),
                    observables="rate_I")
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
    # On the n_imag axis the lossless config is the same at every point, so
    # the numeric route computes it once per conversion type; point 0, at
    # n'' = 0, is that config too, and is not integrated again.
    calls = []

    def counted(cfg, modes, tol):
        calls.append(modes)
        return numeric_matrix(cfg, modes, tol)

    numeric_matrix = radial._numeric_matrix
    monkeypatch.setattr(radial, "_numeric_matrix", counted)
    result = run_scan(scan_request_from_config(SCAN_TEXT, method="numeric"))
    count = len(result.rows)
    assert len(calls) == 2 * count


def test_numeric_scan_checks_no_point_twice(monkeypatch):
    # The stack is checked once; a point's amplitude is computed from its
    # slice, without a config of its own to check again.
    def checks(count):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_point(*args)

        check_point = amplitude.check_point
        for module in (amplitude, scan):
            monkeypatch.setattr(module, "check_point", counted)
        text = SCAN_TEXT.replace("scan_count = 5", f"scan_count = {count}")
        result = run_scan(scan_request_from_config(text, method="numeric"))
        monkeypatch.undo()
        assert len(result.rows) == count
        return len(calls)

    assert checks(2) == checks(3)


@pytest.mark.parametrize("axis, start, stop, key", [
    ("crystal_length", "1 mm", "3 mm", "crystal_length"),
    ("frequency", "3.5e15", "3.54e15", "frequency"),
    ("n_imag", "1e-6", "3e-6", "n_imag"),
])
def test_numeric_cells_are_the_points_own_amplitudes(axis, start, stop, key):
    # Each point's amplitude is the one its own config gives, bit for bit:
    # its slab, frequencies and absorption reach every part of the engine.
    # The ratio columns also read the lossless stack, one point on the
    # n_imag axis: they are the ratios of the point's own rates.
    def config(**keys):
        return "".join(f"{key} = {value}\n" for key, value in
                       {"z_signal": 0.1, "z_idler": 0.1, **keys}.items())

    text = (config(n_imag=2e-6) + f"scan_axis = {axis}\n"
            f"scan_start = {start}\nscan_stop = {stop}\nscan_count = 2\n"
            "observables = amplitude_matrix, rate_ratio_to_lossless\n")
    result = run_scan(scan_request_from_config(text, method="numeric"))
    for x, row in zip(result.axis_values, result.rows):
        own = {"n_imag": 2e-6, key: x}
        assert list(row[:4]) == amplitude_numeric(
            load_config(config(**own))).matrix.ravel().tolist()
        for kind, ratio in zip(("I", "II"), row[4:]):
            lossy, lossless = (
                rate(amplitude_numeric(load_config(config(**keys))))
                for keys in ({**own, "conversion": kind},
                             {**own, "conversion": kind, "n_imag": 0.0}))
            assert ratio == lossy / lossless


def test_farfield_ratio_scan_kernel_calls_do_not_grow_with_points(
        monkeypatch):
    # The far field evaluates each column over the whole axis at once.
    def kernel_calls(count):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return path_leg(*args, **kwargs)

        monkeypatch.setattr(amplitude, "_path_leg", counted)
        text = SCAN_TEXT.replace("scan_count = 5", f"scan_count = {count}")
        result = run_scan(scan_request_from_config(text))
        monkeypatch.undo()
        assert len(result.rows) == count
        return len(calls)

    path_leg = amplitude._path_leg
    assert kernel_calls(5) == kernel_calls(50) > 0


def test_farfield_ratio_scan_shares_normal_channels_between_types(
        monkeypatch):
    # Both conversion types, and the lossless reference stacked after the
    # points, read one normal-incidence evaluation of one mode stack.
    built = {"_Modes": [], "_Channels": []}

    def counting(name, real):
        def counted(*args):
            built[name].append(args)
            return real(*args)
        return counted

    for name in built:
        monkeypatch.setattr(scan if name == "_Modes" else amplitude, name,
                            counting(name, getattr(amplitude, name)))
    run_scan(scan_request_from_config(SCAN_TEXT))
    assert len(built["_Modes"]) == len(built["_Channels"]) == 1
    # the 5 points and their one lossless reference on the n_imag axis
    (modes, kappa), = built["_Channels"]
    assert kappa == 0.0 and modes.n_s.shape == (6,)
    assert modes.n_s[5] == modes.n_s[0].real


@pytest.mark.parametrize("axis, start, stop", [
    ("n_imag", "0.0", "1e-5"), ("crystal_length", "1 mm", "3 mm"),
    ("frequency", "3.5e15", "3.54e15")])
def test_sweep_stacks_a_lossless_reference_only_for_ratios(
        monkeypatch, axis, start, stop):
    # The reference is one point on the n_imag axis and one per point on
    # the others; a sweep with no ratio column builds none.
    sizes = []

    def counted(*fields):
        sizes.append(np.broadcast(*fields).size)
        return modes(*fields)

    modes = amplitude._Modes
    monkeypatch.setattr(scan, "_Modes", counted)
    text = (f"n_imag = 1e-6\nscan_axis = {axis}\nscan_start = {start}\n"
            f"scan_stop = {stop}\nscan_count = 4\nobservables = ")
    for observables, size in (("rate_I, rate_II, amplitude_matrix", 4),
                              ("rate_I, rate_ratio_to_lossless",
                               5 if axis == "n_imag" else 8)):
        run_scan(scan_request_from_config(text + observables + "\n"))
        assert sizes.pop() == size and not sizes


@pytest.mark.parametrize("name, evals, checks, rates_calls", [
    ("fig3", 2, 1, 0), ("fig4", 1, 1, 0), ("fig5", 2, 1, 2),
    ("fig6", 2, 1, 2)])
def test_preset_sweeps_do_each_piece_once(monkeypatch, name, evals, checks,
                                          rates_calls):
    # One dispersion evaluation per distinct frequency (signal and idler
    # share theirs at the presets' degenerate split), one config check (the
    # stack's: the far field takes both conversion types from one pass, with
    # no config per type), and one rates() per type over the stack of the
    # points and their lossless reference. These counts do not depend on
    # the machine.
    from slabpdc import materials

    req = preset(name)
    calls = {"dispersion_eval": 0, "check_point": 0, "rates": 0,
             "replace": 0}

    def counting(fname, real):
        def counted(*args, **kwargs):
            calls[fname] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(materials, "dispersion_eval", counting(
        "dispersion_eval", materials.dispersion_eval))
    checked = counting("check_point", amplitude.check_point)
    for module in (amplitude, scan):
        monkeypatch.setattr(module, "check_point", checked)
    monkeypatch.setattr(scan, "rates", counting("rates", scan.rates))
    monkeypatch.setattr(scan, "replace", counting("replace", scan.replace))
    run_scan(req)
    assert calls == {"dispersion_eval": evals, "check_point": checks,
                     "rates": rates_calls, "replace": 0}


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
    for method, amplitude_of in (("farfield", amplitude_farfield),
                                 ("numeric", amplitude_numeric)):
        with pytest.raises(ScanError, match="axis point 3") as info:
            run_scan(scan_request_from_config(text, method=method))
        assert info.value.completed == 3
        assert isinstance(info.value.__cause__, DispersionRangeError)
        # the completed rows are kept, every observable filled in
        assert info.value.columns == ("rate_I",)
        assert len(info.value.rows) == 3
        for x, (got,) in zip(np.linspace(3.3e15, 3.6e15, 4).tolist(),
                             info.value.rows):
            want = rate(amplitude_of(load_config(f"frequency = {x!r}\n")))
            assert abs(got - want) <= 1e-10 * want


def test_numeric_scan_aborts_on_a_convergence_error(tmp_path, monkeypatch):
    # tol = 5e-11 is below the contour's rounding floor from L = 1.5 mm on
    # (the floor grows with the slab's phase): the sweep keeps the two
    # points before it, each its own config's amplitude bit for bit. The
    # retry over those points (kept so that an earlier stacked check is
    # found first) reuses their amplitudes: each slab is integrated once.
    text = """\
n_imag = 1e-6
scan_axis = crystal_length
scan_start = 0.5 mm
scan_stop = 3 mm
scan_count = 6
observables = amplitude_matrix
"""
    lengths = []

    def counted(cfg, modes, tol):
        lengths.append(modes.length)
        return numeric_matrix(cfg, modes, tol)

    numeric_matrix = radial._numeric_matrix
    monkeypatch.setattr(radial, "_numeric_matrix", counted)
    with pytest.raises(ScanError, match="axis point 2") as info:
        run_scan(scan_request_from_config(text, method="numeric", tol=5e-11))
    monkeypatch.undo()
    assert lengths == [5e-4, 1e-3, 1.5e-3]
    assert info.value.completed == 2
    assert isinstance(info.value.__cause__, ConvergenceError)
    assert "rounding floor" in str(info.value.__cause__)
    assert len(info.value.rows) == 2
    for x, row in zip(np.linspace(5e-4, 3e-3, 6).tolist(), info.value.rows):
        own = amplitude_numeric(
            load_config(f"n_imag = 1e-6\ncrystal_length = {x!r}\n"),
            tol=5e-11)
        assert list(row) == own.matrix.ravel().tolist()
    cfg = _write_cfg(tmp_path, text)
    assert main(["scan", "--config", cfg, "--method", "numeric",
                 "--tol", "5e-11"]) == 2


def test_numeric_ratio_scan_keeps_points_and_reference_on_retry(
        monkeypatch):
    # The failing pass integrates points 0 and 1 of Type I and fails at 2;
    # the retry over points 0 and 1 keeps those two and integrates their
    # lossless reference alone, then Type II: no amplitude twice, and every
    # ratio is its point's own.
    text = ("n_imag = 1e-6\nscan_axis = crystal_length\nscan_start = 0.5 mm\n"
            "scan_stop = 3 mm\nscan_count = 6\n"
            "observables = rate_ratio_to_lossless\n")
    calls = []

    def counted(cfg, modes, tol):
        calls.append((cfg.chi2.kind, modes.length, modes.n_s.imag))
        return numeric_matrix(cfg, modes, tol)

    numeric_matrix = radial._numeric_matrix
    monkeypatch.setattr(radial, "_numeric_matrix", counted)
    with pytest.raises(ScanError, match="axis point 2") as info:
        run_scan(scan_request_from_config(text, method="numeric", tol=5e-11))
    monkeypatch.undo()
    assert calls == [("I", 5e-4, 1e-6), ("I", 1e-3, 1e-6), ("I", 1.5e-3, 1e-6),
                     ("I", 5e-4, 0.0), ("I", 1e-3, 0.0),
                     ("II", 5e-4, 1e-6), ("II", 1e-3, 1e-6),
                     ("II", 5e-4, 0.0), ("II", 1e-3, 0.0)]
    for x, row in zip((5e-4, 1e-3), info.value.rows):
        for kind, ratio in zip(("I", "II"), row):
            lossy, lossless = (rate(amplitude_numeric(load_config(
                f"conversion = {kind}\nn_imag = {n}\n"
                f"crystal_length = {x!r}\n"), tol=5e-11)) for n in (1e-6, 0))
            assert ratio == lossy / lossless


@pytest.mark.parametrize("method", ["farfield", "numeric"])
@pytest.mark.parametrize("axis, start, stop", [
    ("crystal_length", 1e-3, 3e-3), ("n_imag", 1e-4, 1e-3)])
def test_failing_lossless_reference_fails_at_its_point(method, axis, start,
                                                       stop):
    # With n' = 0 the absorbing eps = -n''^2 is fine, and the lossless
    # reference's is 0: the stacked failure at m + j is reported at axis
    # point j (0 on the n_imag axis, whose reference is one point), with
    # the error of that point's own lossless config. On the n_imag axis the
    # numeric route fails first on the absorbing point 0 itself.
    base = replace(load_config(""), crystal=CrystalSlab(
        material=MaterialDispersion.constant(0.0, 1e-3)))
    req = ScanRequest(base=base, axis=axis, range=(start, stop, 4),
                      observables=("rate_I", "rate_ratio_to_lossless"),
                      method=method)
    with pytest.raises(ScanError, match=r"at axis point 0 .* after 0 "
                       r"completed rows: ") as info:
        run_scan(req)
    assert info.value.completed == 0 and info.value.rows == ()
    if method == "numeric" and axis == "n_imag":
        assert isinstance(info.value.__cause__, ConvergenceError)
    else:
        assert type(info.value.__cause__) is ZeroDivisionError
        assert str(info.value.__cause__) == "noise_factor singular at eps = 0"


def test_axis_free_reference_row_fails_in_one_pass(monkeypatch):
    # A crystal_length stack keeps its indices axis-free: a (2, 1) stack,
    # the points' over their lossless reference's, against the lengths. The
    # reference's eps = 0 (n' = 0) fails its whole row, so the first pass
    # reports it at axis point 0, as stacked point m would be, with no retry.
    base = replace(load_config(""), crystal=CrystalSlab(
        material=MaterialDispersion.constant(0.0, 1e-3)))
    req = ScanRequest(base=base, axis="crystal_length",
                      range=(1e-3, 3e-3, 4),
                      observables=("rate_ratio_to_lossless",))
    built = []

    def counted(*fields):
        built.append([np.shape(v) for v in fields])
        return modes(*fields)

    modes = amplitude._Modes
    monkeypatch.setattr(scan, "_Modes", counted)
    with pytest.raises(ScanError, match=r"at axis point 0 .* after 0 "
                       r"completed rows: noise_factor singular"):
        run_scan(req)
    assert built == [[(), (), (2, 1), (2, 1), (2, 1), (4,)]]


def test_reference_failure_is_found_in_one_retry(monkeypatch):
    # n' falls to 0 at 3.5e15 rad/s, axis point 1 of this frequency sweep:
    # only that point's lossless reference has eps = 0. Its stacked index
    # 5 + 1 maps back to point 1, so one retry over point 0 ends the scan;
    # the retry loop does not walk down from the stacked index.
    material = MaterialDispersion([1e15, 3.5e15, 8e15], [1.5, 0.0, 1.5],
                                  [1e-3, 1e-3, 1e-3])
    base = replace(load_config(""),
                   crystal=CrystalSlab(material=material))
    req = ScanRequest(base=base, axis="frequency",
                      range=(3.375e15, 3.875e15, 5),
                      observables=("rate_ratio_to_lossless",))
    built = []

    def counted(*fields):
        built.append(np.broadcast(*fields).size)
        return modes(*fields)

    modes = amplitude._Modes
    monkeypatch.setattr(scan, "_Modes", counted)
    with pytest.raises(ScanError, match=r"at axis point 1 .* after 1 "
                       r"completed rows: noise_factor singular") as info:
        run_scan(req)
    assert built == [10, 2]
    assert info.value.completed == 1 and len(info.value.rows) == 1


def test_detector_inside_slab_aborts_at_its_point():
    # L = 4 mm puts the exit face at z = 2 mm, on the signal detector
    text = """\
z_signal = 2 mm
scan_axis = crystal_length
scan_start = 1 mm
scan_stop = 5 mm
scan_count = 5
observables = rate_I, sinc_profile
"""
    with pytest.raises(ScanError, match="axis point 3") as info:
        run_scan(scan_request_from_config(text))
    assert info.value.completed == 3
    assert "(crystal_length = 0.004) after 3 completed rows" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)
    assert "exit face" in str(info.value.__cause__)
    assert len(info.value.rows) == 3
    assert info.value.columns == ("rate_I", "sinc_profile")


def test_scan_fails_at_the_first_failing_point_with_its_own_error():
    # The detector check fails from point 3 on, but every point is out of
    # the dispersion range, which point 0 meets first: the sweep must fail
    # there, with the error the point's own config raises.
    text = """\
frequency = 1e16
z_signal = 2 mm
scan_axis = crystal_length
scan_start = 1 mm
scan_stop = 5 mm
scan_count = 5
observables = rate_I
"""
    with pytest.raises(ScanError, match="axis point 0") as info:
        run_scan(scan_request_from_config(text))
    assert info.value.completed == 0 and info.value.rows == ()
    with pytest.raises(DispersionRangeError) as point:
        amplitude_farfield(load_config("frequency = 1e16\nz_signal = 2 mm\n"
                                       "crystal_length = 1 mm\n"))
    assert type(info.value.__cause__) is type(point.value)
    assert str(info.value.__cause__) == str(point.value)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("axis, start, stop, count", [
    pytest.param("n_imag", 0.0, 1e-4, 7, id="n_imag-0.0-0.0001"),
    pytest.param("crystal_length", 1.5e-3, 2.5e-3, 7,
                 id="crystal_length-0.0015-0.0025"),
    pytest.param("frequency", 3.3e15, 3.5e15, 7,
                 id="frequency-3300000000000000.0-3500000000000000.0"),
    # passes sinc zeros of the normal-incidence mismatch, where the
    # leading term is small and its rounding shows most
    pytest.param("frequency", 3.3e15, 3.54e15, 101,
                 id="frequency-sinc-zeros-101"),
])
def test_farfield_columns_match_per_point_amplitudes(kind, axis, start, stop,
                                                     count):
    # A cell is its point's own amplitude_farfield, bit for bit, and so
    # are the rates and their ratios to the point's lossless config; on the
    # crystal_length axis the prefactor divides an (m,) array of lengths
    # where a point divides one float, which may round an ulp apart.
    bound = 1e-15 if axis == "crystal_length" else 0.0
    degenerate = f"conversion = {kind}\nn_imag = 2e-6\nz_signal = 0.4\n" \
        "z_idler = 0.6\n"
    bases = [degenerate]
    if axis != "frequency":      # that axis sets the degenerate point
        bases.append(degenerate + "signal_frequency = 3.44e15\n"
                     "idler_frequency = 3.64e15\n")
    for base in bases:
        text = base + (f"scan_axis = {axis}\nscan_start = {start!r}\n"
                       f"scan_stop = {stop!r}\nscan_count = {count}\n"
                       "observables = amplitude_matrix, rate_I, rate_II, "
                       "rate_ratio_to_lossless\n")
        result = run_scan(scan_request_from_config(text))
        point = base.replace("n_imag = 2e-6\n", "") if axis == "n_imag" \
            else base
        for x, row in zip(result.axis_values, result.rows):
            cfg = load_config(point + f"{axis} = {x!r}\n")
            want = amplitude_farfield(cfg).matrix
            got = np.array(row[:4]).reshape(2, 2)
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
            for kind_r, got_rate, got_ratio in zip(("I", "II"), row[4:6],
                                                   row[6:]):
                own = point.replace(f"conversion = {kind}",
                                    f"conversion = {kind_r}") \
                    + f"{axis} = {x!r}\n"
                want_rate = rate(amplitude_farfield(load_config(own)))
                assert abs(got_rate - want_rate) <= bound * want_rate
                lossless = own.replace("n_imag = 2e-6\n", "").replace(
                    f"n_imag = {x!r}\n", "") + "n_imag = 0.0\n"
                want_ratio = want_rate / rate(amplitude_farfield(
                    load_config(lossless)))
                assert abs(got_ratio - want_ratio) <= 2 * bound * want_ratio


@pytest.mark.parametrize("drive, observable, column", [
    ("pump_field = 1e-300\n", "rate_ratio_to_lossless",
     "rate_ratio_to_lossless_I"),
    ("pump_field = 1e300\ncoupling = 1e10\n", "rate_I", "rate_I")])
def test_non_finite_cell_aborts_the_scan(tmp_path, drive, observable,
                                         column):
    # Rates that underflow to 0/0 or overflow make no silent NaN column:
    # the scan fails at the first such cell, and the CLI exits 1.
    text = (drive + "scan_axis = n_imag\nscan_start = 0.0\n"
            "scan_stop = 1e-5\nscan_count = 4\n"
            f"observables = {observable}\n")
    with np.errstate(all="ignore"):
        with pytest.raises(ScanError, match=f"at axis point 0 \\(n_imag = "
                           f"0.0\\).*{column} is not finite") as info:
            run_scan(scan_request_from_config(text))
        assert info.value.completed == 0 and info.value.rows == ()
        assert isinstance(info.value.__cause__, ValueError)
        assert main(["scan", "--config", _write_cfg(tmp_path, text)]) == 1


def test_non_finite_ratio_cell_gives_one_error(tmp_path, capsys):
    # The 0/0 of two underflowed rates makes no numpy warning ahead of the
    # scan's own error (warnings are errors here), and the CLI prints that
    # error alone.
    text = ("pump_field = 1e-300\nscan_axis = n_imag\nscan_start = 0.0\n"
            "scan_stop = 1e-5\nscan_count = 4\n"
            "observables = rate_ratio_to_lossless\n")
    with pytest.raises(ScanError, match="rate_ratio_to_lossless_I is not "
                       "finite: nan"):
        run_scan(scan_request_from_config(text))
    assert main(["scan", "--config", _write_cfg(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slabpdc: error:") and err.count("\n") == 1, err


def test_overflowing_gain_cell_gives_one_error():
    # eps = n^2 overflows from point 1 of this scan on: that cell is NaN,
    # and the scan fails there with no numpy warning ahead of its error
    # (warnings are errors here).
    text = ("scan_axis = n_imag\nscan_start = 0.0\nscan_stop = 1e200\n"
            "scan_count = 4\nobservables = a_factor_gain\n")
    with pytest.raises(ScanError, match=r"at axis point 1 .* after 1 "
                       r"completed rows: a_factor_gain is not finite: "
                       r"nan$") as info:
        run_scan(scan_request_from_config(text))
    assert info.value.rows == ((0.0,),)


def test_non_finite_cell_keeps_the_rows_before_it():
    # Both rates overflow first at the second point of this length sweep:
    # the error names the first column there, and the first row is kept.
    text = ("pump_field = 2e176\nn_imag = 1e-6\n"
            "scan_axis = crystal_length\nscan_start = 2 mm\n"
            "scan_stop = 3 mm\nscan_count = 5\n"
            "observables = rate_II, rate_I\n")
    with np.errstate(over="ignore"):
        with pytest.raises(ScanError, match=r"at axis point 1 "
                           r"\(crystal_length = 0\.00225\d*\) after 1 "
                           r"completed rows: rate_II is not finite: inf") \
                as info:
            run_scan(scan_request_from_config(text))
    assert info.value.completed == 1
    assert info.value.columns == ("rate_II", "rate_I")
    (row,) = info.value.rows
    assert all(map(np.isfinite, row)) and min(row) > 1e307


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


def _mp_gain(mp, n_s, n_i):
    """|A(n_s) A(n_i)|^2 - 1 at 40 digits, with A = 1 - (4 i/9) eps''
    (eps - 1)/eps of eps = n^2, the double indices taken as exact."""
    with mp.workdps(40):
        gain = mp.mpf(1)
        for n in (n_s, n_i):
            eps = mp.mpc(n) ** 2
            gain *= abs(1 - mp.mpc(0, 4) / 9 * eps.imag * (eps - 1) / eps) ** 2
        return gain - 1


def test_gain_column_matches_40_digit_values():
    # The column never forms 1 + tiny - 1 (|a|^2 - 1 was 5e-7 off on the
    # fig4 grid): within 1e-15 of 40-digit values, and +0.0 at a lossless
    # point. The fig4 grid, a split-frequency n_imag scan, and a frequency
    # scan, whose index moves in n' too.
    mp = pytest.importorskip("mpmath")
    split = ("signal_frequency = 3.44e15\nidler_frequency = 3.64e15\n"
             "scan_axis = n_imag\nscan_start = 0.0\nscan_stop = 2e-4\n"
             "scan_count = 9\nobservables = a_factor_gain\n")
    freq = ("n_imag = 3e-5\nscan_axis = frequency\nscan_start = 3.3e15\n"
            "scan_stop = 3.8e15\nscan_count = 7\n"
            "observables = a_factor_gain\n")
    for req in (preset("fig4"), scan_request_from_config(split),
                scan_request_from_config(freq)):
        result = run_scan(req)
        index = req.base.crystal.index
        assert len(result.rows) == req.range[2]
        for x, (got,) in zip(result.axis_values, result.rows):
            if req.axis == "n_imag":
                n_s, n_i = (complex(index(w).real, x) for w in (
                    req.base.signal_frequency, req.base.idler_frequency))
            else:
                n_s = n_i = index(x)
            want = _mp_gain(mp, n_s, n_i)
            if want == 0:
                assert repr(got) == "0.0"
            else:
                assert abs(got - want) <= 1e-15 * want


def test_gain_column_fails_at_the_first_bad_point():
    # One stacked check raises where the point-by-point calls, signal first,
    # would: at point 1 (a NaN idler), not at the zeros that follow.
    nan = float("nan")
    rows = [[1.6, 1.6, 0.0, 1.6], [1.6, nan, 1.6, 0.0]]    # signal, idler
    sweep = SimpleNamespace(count=4, index=lambda mode: np.array(
        rows[mode], dtype=complex))
    with pytest.raises(ValueError, match="noise_factor: eps is NaN") as info:
        scan._gain_columns(sweep)
    assert info.value.index == 1


def test_preset_fig3_minima_lifted_by_unbalanced_absorption():
    result = run_scan(preset("fig3"))
    vals = np.array([row[0] for row in result.rows])
    assert len(vals) == 400
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    floors = vals[1:-1][interior]
    assert floors.size >= 3
    # pump absorbing harder than the daughters: minima strictly above zero
    assert np.min(floors) > 1e-6


# First, middle and last cell of every preset column, and the column's
# largest magnitude, as computed point by point before the sweeps were
# stacked. Cells must stay within 1e-10 of that magnitude.
_PRESET_CELLS = {
    "fig3": {"sinc_profile": (0.5254369687305248, 0.0007708954464057436,
                              0.000188350337300433, 0.5254369687305248)},
    "fig4": {"a_factor_gain": (0.0, 1.1017542156377402e-06,
                               4.363061297363302e-06,
                               4.363061297363302e-06)},
    "fig5": {"rate_ratio_to_lossless_I": (1.0, 0.5581709824726281,
                                          0.33828841374461577, 1.0),
             "rate_ratio_to_lossless_II": (1.0, 0.564662799854258,
                                           0.3444533877571493, 1.0)},
    "fig6": {"rate_I": (1.0341606477095316e-35, 2.315897294701636e-35,
                        2.0686430070862425e-35, 7.35225690073667e-35),
             "rate_II": (1.0668361332511533e-35, 2.269600963946418e-35,
                         2.110802117820428e-35, 7.576785723772652e-35),
             "rate_ratio_to_lossless_I": (0.9204098669809199,
                                          0.927570895761807,
                                          0.926434100301554,
                                          0.9338623226876668),
             "rate_ratio_to_lossless_II": (0.9177034052133086,
                                           0.9294324316781778,
                                           0.9244917157179305,
                                           0.9337530538178492)},
}


@pytest.mark.parametrize("name", sorted(_PRESET_CELLS))
def test_preset_cells_frozen(name):
    result = run_scan(preset(name))
    n = len(result.rows)
    assert set(result.columns) == set(_PRESET_CELLS[name])
    for j, column in enumerate(result.columns):
        *cells, scale = _PRESET_CELLS[name][column]
        got = [result.rows[i][j] for i in (0, n // 2, n - 1)]
        for a, b in zip(got, cells):
            assert abs(a - b) <= 1e-10 * scale, (column, a, b)


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
    assert doc["schema_version"] == 3
    assert doc["metadata"]["axis"] == "n_imag"
    assert doc["metadata"]["count"] == 5
    assert doc["metadata"]["config"]["material"] == "bbo_ordinary"
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["rate_ratio_to_lossless_I"] == 1.0


def test_json_config_echo():
    # The experiment keys as resolved, in one fixed order, on every axis.
    axis = ("scan_axis = {}\nscan_start = {}\nscan_stop = {}\n"
            "scan_count = 2\nobservables = {}\n")
    default = {"material": "bbo_ordinary", "crystal_length": 0.002,
               "signal_frequency": 3.54e15, "idler_frequency": 3.54e15,
               "conversion": "I",
               "coupling": 1e-12, "pump_field": 1e5, "z_signal": 1.0,
               "z_idler": 1.0, "offset_x": 0.0, "offset_y": 0.0,
               "n_imag": None, "n_imag_pump": None}
    split = {**default, "crystal_length": 0.003, "signal_frequency": 3.44e15,
             "idler_frequency": 3.64e15, "conversion": "II",
             "n_imag": 2e-6, "n_imag_pump": 1.2e-5}
    for text, want in (
            (axis.format("n_imag", 0.0, 1e-6, "rate_I"), default),
            ("crystal_length = 3 mm\nconversion = II\n"
             "signal_frequency = 3.44e15\nidler_frequency = 3.64e15\n"
             "n_imag = 2e-6\nn_imag_pump = 1.2e-5\n"
             + axis.format("delta_k", 0.1, 1.0, "sinc_profile"), split),
            (axis.format("crystal_length", "1 mm", "3 mm", "rate_I"),
             default)):
        doc = json.loads(emit(run_scan(scan_request_from_config(text)),
                              format="json"))
        assert list(doc["metadata"]["config"].items()) == list(want.items())


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


def _rowwise_emit(result, format):
    """The row-by-row serializer that emit replaced: (name, float) pairs
    per row, cell by cell, then ``json.dumps(doc, indent=2)``. It is the
    oracle of emit's bytes."""
    flat = []
    for i, row in enumerate(result.rows):
        cells = ([] if result.axis is None
                 else [(result.axis, result.axis_values[i])])
        for name, v in zip(result.columns, row):
            if isinstance(v, complex):
                cells += [(name + "_re", float(v.real)),
                          (name + "_im", float(v.imag))]
            else:
                cells.append((name, float(v)))
        flat.append(cells)
    if format == "text":
        (row,) = result.rows
        return "".join(f"{name} = {v!r}\n"
                       for name, v in zip(result.columns, row)).encode()
    if format == "csv":
        lines = [",".join(name for name, _ in flat[0])]
        lines += [",".join(repr(v) for _, v in cells) for cells in flat]
        return ("\n".join(lines) + "\n").encode()
    doc = {"schema_version": 3, "metadata": result.metadata}
    if result.axis is None:
        (cells,) = flat
        doc.update(cells)
    else:
        doc["rows"] = [dict(cells) for cells in flat]
    return (json.dumps(doc, indent=2) + "\n").encode()


def _assert_emits_as_rowwise(result, formats=("csv", "json")):
    # every order of formats reads the cells cached by the first
    for format in (*formats, *formats[::-1]):
        assert emit(result, format=format) == _rowwise_emit(result, format)


def test_emit_bytes_match_rowwise_oracle():
    for name in PRESET_NAMES:
        _assert_emits_as_rowwise(run_scan(preset(name)))
    text = """\
n_imag = 1e-6
scan_axis = crystal_length
scan_start = 1.9 mm
scan_stop = 2.1 mm
scan_count = 7
observables = amplitude_matrix, rate_I
"""
    _assert_emits_as_rowwise(run_scan(scan_request_from_config(text)))
    cfg = load_config("conversion = II\nn_imag = 1e-6\n")
    _assert_emits_as_rowwise(point_result(cfg), ("csv", "json", "text"))


def test_emit_non_finite_and_escaped_names():
    nan, inf = float("nan"), float("inf")
    result = ScanResult(
        axis="n_imag", axis_values=(0.0, 1e-6, 2e-6),
        columns=("rate_I", 'loss_%s "q"', "amplitude_xx"),
        rows=((nan, inf, complex(nan, -inf)),
              (-inf, 0.5, complex(1.0, nan)),
              (1e-300, -0.0, complex(-inf, 2.0))),
        metadata={"tol": 1e-6, "config": {"n_imag": None, "name": "x%d"}})
    _assert_emits_as_rowwise(result)
    doc = emit(result, format="json").decode()
    assert "NaN" in doc and "-Infinity" in doc and "nan" not in doc
    assert "nan" in emit(result, format="csv").decode()
    point = ScanResult(axis=None, axis_values=(), columns=("rate", "a"),
                       rows=((inf, complex(nan, 1.0)),), metadata={})
    _assert_emits_as_rowwise(point, ("csv", "json", "text"))


def test_emit_without_rows():
    result = ScanResult(axis="n_imag", axis_values=(), columns=("rate_I",),
                        rows=(), metadata={"count": 0})
    doc = emit(result, format="json")
    assert doc == _rowwise_emit(result, "json")
    assert b'"rows": []' in doc and json.loads(doc)["rows"] == []
    assert emit(result, format="csv") == b"n_imag,rate_I\n"


def _dumped(result):
    """json.dumps(doc, indent=2) of the result's document, built from its
    rows: the layout emit's JSON must equal byte for byte."""
    names, texts = result.cells
    rows = [dict(zip(names, map(float, row))) for row in zip(*texts)]
    doc = {"schema_version": 3, "metadata": result.metadata}
    if result.axis is not None:
        doc["rows"] = rows
    elif rows:
        (row,) = rows
        doc.update(row)
    return (json.dumps(doc, indent=2) + "\n").encode()


def test_json_is_json_dumps_of_its_document():
    nan, inf = float("nan"), float("inf")
    results = [run_scan(preset(name)) for name in PRESET_NAMES]
    for text in ("", "conversion = II\nn_imag = 1e-6\n"):
        results.append(point_result(load_config(text)))
    results.append(point_result(load_config("z_signal = 0.1\n"
                                            "z_idler = 0.1\n"), "numeric"))
    meta = {"tool": "x%s", "config": {"\u00f1": None, "q": [1, "%d"]}}
    results += [
        ScanResult("n_imag", (), ("rate_I",), (), meta),          # no rows
        ScanResult(None, (), (), (), {}),                         # no names
        ScanResult(None, (), (), ((),), meta),
        ScanResult(None, (), ("rate",), (), {}),                  # no row
        ScanResult("n_imag", (0.0, 1.0), ("only",), ((2.0,), (-0.0,)), {}),
        ScanResult("n_imag", (0.0, nan, 2.0),
                   ('loss_%s "q"', "\u00f1_rate", "amp"),
                   ((nan, inf, complex(nan, -inf)),
                    (-inf, 0.5, complex(1.0, nan)),
                    (1e-300, -0.0, 1.0)), meta),
        ScanResult(None, (), ('100% "x"', "\u00e9"), ((inf, 2j),), meta),
    ]
    for result in results:
        assert emit(result, format="json") == _dumped(result)


def test_emit_splits_complex_per_column():
    # a column with one complex cell writes all its cells as _re/_im
    result = ScanResult(axis="n_imag", axis_values=(0.0, 1.0),
                        columns=("c",), rows=((1.0,), (2j,)), metadata={})
    assert emit(result, format="csv") == \
        b"n_imag,c_re,c_im\n0.0,1.0,0.0\n1.0,0.0,2.0\n"


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
    # the default far-field route covers split frequencies too
    for text in ("frequency = 3.54e15\nn_imag = 1e-6\n",
                 "signal_frequency = 3.44e15\nidler_frequency = 3.64e15\n"
                 "n_imag = 1e-6\n"):
        out = tmp_path / "rate.txt"
        assert main(["rate", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        name, value = lines[0].split(" = ")
        assert name == "rate"
        want = rate(amplitude_farfield(load_config(text)))
        assert float(value) == want > 0.0
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


@pytest.mark.parametrize("text", [
    pytest.param("conversion = I\n", id="I-lossless"),
    pytest.param("conversion = II\nn_imag = 1e-6\n", id="II-uniform-loss"),
    pytest.param(
        "conversion = I\nsignal_frequency = 3.44e15\n"
        "idler_frequency = 3.64e15\nn_imag = 2e-6\nn_imag_pump = 1.2e-5\n"
        "z_signal = 0.1\nz_idler = 0.1\n",
        id="I-split-split-loss"),
    pytest.param(
        "conversion = II\nsignal_frequency = 3.44e15\n"
        "idler_frequency = 3.64e15\nn_imag = 3e-6\nz_signal = 0.3\n"
        "z_idler = 0.3\n", id="II-split-uniform-loss"),
    pytest.param(
        "conversion = II\ncrystal_length = 0.1 mm\nz_signal = 0.15 mm\n"
        "z_idler = 0.15 mm\nn_imag = 5e-6\n", id="II-thin"),
    pytest.param(
        "n_imag = 1e-6\nz_signal = 0.1\nz_idler = 0.1\noffset_x = 2e-5\n",
        id="I-displaced"),
])
def test_rate_output_carries_the_library_amplitude(tmp_path, text):
    # point_result and `slabpdc rate` print amplitude_farfield's and
    # amplitude_numeric's floats bit for bit, in every format
    cfg = load_config(text)
    path = _write_cfg(tmp_path, text)
    routes = [("numeric", amplitude_numeric(cfg, 1e-6))]
    if cfg.collinear:
        routes.append(("farfield", amplitude_farfield(cfg)))
    for method, amp in routes:
        entries = amp.matrix.ravel().tolist()
        labels = ("xx", "xy", "yx", "yy")
        assert point_result(cfg, method).rows == ((rate(amp), *entries),)
        cells = {"rate": rate(amp)}
        for lab, z in zip(labels, entries):
            cells[f"amplitude_{lab}_re"] = z.real
            cells[f"amplitude_{lab}_im"] = z.imag
        out = {}
        for fmt in ("text", "csv", "json"):
            target = tmp_path / f"rate.{fmt}"
            assert main(["rate", "--config", path, "--method", method,
                         "--format", fmt, "--out", str(target)]) == 0
            out[fmt] = target.read_text()
        assert out["text"].splitlines() == [f"rate = {rate(amp)!r}"] + [
            f"amplitude_{lab} = {z!r}" for lab, z in zip(labels, entries)]
        header, row = out["csv"].splitlines()
        assert header.split(",") == list(cells)
        assert row.split(",") == [repr(v) for v in cells.values()]
        doc = json.loads(out["json"])
        assert [repr(doc[name]) for name in cells] == \
            [repr(v) for v in cells.values()]
    # a refused request raises the library's error, message, value and
    # estimate alike
    with pytest.raises(ConvergenceError) as lib:
        amplitude_numeric(cfg, 1e-13)
    with pytest.raises(ConvergenceError) as point:
        point_result(cfg, "numeric", 1e-13)
    assert str(point.value) == str(lib.value)
    assert point.value.error == lib.value.error
    assert np.array_equal(point.value.value, lib.value.value)


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
    for text in ("birefringence = 0.1\n", "pump_z = -1 mm\n",
                 "pump_frequency = 7.08e15\n"):
        bad = _write_cfg(tmp_path, text)
        assert main(["rate", "--config", bad]) == 1
    assert main(["rate", "--config", str(tmp_path / "absent.cfg")]) == 1
    no_scan = _write_cfg(tmp_path, "n_imag = 1e-6\n", name="plain.cfg")
    assert main(["scan", "--config", no_scan]) == 1
    for method in ("numeric", "farfield"):
        for tol in ("nan", "-1", "inf"):
            assert main(["rate", "--config", no_scan, "--method", method,
                         "--tol", tol]) == 1
    for tol in ("nan", "inf"):
        assert main(["preset", "fig4", "--tol", tol, "--format", "json"]) == 1
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


def test_cli_refused_contour_exits_2(tmp_path, capsys):
    # A 0.3 mm offset at 1 cm (q rho^2/z about 106): the contours refuse,
    # and rate writes the failure to stderr and nothing to stdout.
    cfg = _write_cfg(tmp_path,
                     "n_imag = 1e-6\nz_signal = 0.01\nz_idler = 0.01\n"
                     "offset_x = 3e-4\n")
    assert main(["rate", "--config", cfg, "--method", "numeric"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "convergence failure" in err


def test_cli_unwritable_out_exits_1(tmp_path, capsys):
    # An --out path in a directory that does not exist: one error line on
    # stderr naming the path, exit 1, nothing on stdout.
    out = tmp_path / "absent" / "fig4.csv"
    assert main(["preset", "fig4", "--out", str(out)]) == 1
    printed, err = capsys.readouterr()
    assert printed == "" and not out.exists()
    assert err.startswith(f"slabpdc: error: cannot write '{out}': ")
    assert len(err.splitlines()) == 1
