"""Command line behavior: exit codes, CSV shapes, atomic --out writes.

Everything runs in-process through main(argv) so stdout/stderr and exit
codes can be asserted without spawning an interpreter.
"""

import dataclasses
import hashlib
import os
import re
import stat

import numpy as np
import pytest

from dtlsim import solver
from dtlsim.cells import DetectorConfig
from dtlsim.cli import _atomic_write, main
from dtlsim.errors import NoConvergence
from dtlsim.imaging import gen_gaussian_image, read_pgm, write_pgm
from dtlsim.netlist import _DIRECTIVES

DIVIDER = """divider
v_1 in 0 6.0
r_1 in mid 1k
r_2 mid 0 2k
.dc v_1 0.0 6.0 1.0
"""

RC = """rc
v_s in 0 pwl(0 0 1n 1)
r_1 in out 1k
c_1 out 0 1u
.tran 1e-4 1e-5
"""


@pytest.fixture
def divider(tmp_path):
    p = tmp_path / "divider.cir"
    p.write_text(DIVIDER)
    return str(p)


@pytest.fixture
def rc(tmp_path):
    p = tmp_path / "rc.cir"
    p.write_text(RC)
    return str(p)


@pytest.fixture
def blob(tmp_path):
    # the image ``gen-gaussian --size 65`` writes
    p = tmp_path / "blob.pgm"
    write_pgm(p, gen_gaussian_image(65))
    return str(p)


# --- op -----------------------------------------------------------------

def test_op_csv(divider, capsys):
    assert main(["op", divider]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().split("\n")
    assert lines[0] == "name,value"
    assert lines[1] == "in,6.000000000"
    assert lines[2] == "mid,4.000000000"
    assert lines[3] == "i(v_1),-0.002000000"
    assert "operating point converged" in cap.err
    assert "dtlsim:" not in cap.out     # diagnostics stay on stderr


def test_op_missing_file_is_io_error(tmp_path, capsys):
    assert main(["op", str(tmp_path / "nope.cir")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_op_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.cir"
    p.write_text("t\nq_1 a b c qmod\n")
    assert main(["op", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("data, line", [
    (b"\xff* title\nr_1 a 0 1k\n", 1),
    (b"t\r\nv_1 a 0 1\r\nr_1 a 0 1k\r\n* caf\xe9\n", 4),
    (b"t\nv_1 a 0 1\n* \xe2\x82", 3),   # a cut multi-byte character
])
def test_non_utf8_netlist_is_parse_error_naming_line(tmp_path, capsys,
                                                     data, line):
    p = tmp_path / "bin.cir"
    p.write_bytes(data)
    assert main(["op", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"parse error: line {line}: byte 0x" in err
    assert "not valid UTF-8" in err


@pytest.mark.parametrize("card", ["v_1 in 0 1e999",
                                  "m_1 in in 0 0 nmod wl=-1"])
def test_op_out_of_range_card_is_parse_error(tmp_path, capsys, card):
    p = tmp_path / "bad.cir"
    p.write_text(f"t\nr_1 in 0 1k\n{card}\nv_2 in 0 1\n.model nmod mosfet\n")
    assert main(["op", str(p)]) == 2
    assert "parse error: line 3:" in capsys.readouterr().err


def test_long_number_is_cut_on_stderr(tmp_path, capsys):
    p = tmp_path / "bad.cir"
    p.write_text("t\nr_1 in 0 1e" + "9" * 5000 + "\nv_1 in 0 1\n")
    assert main(["op", str(p)]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 2: number '1e999" in err
    assert len(err) < 120


def test_op_solver_error_exit_code(divider, capsys, monkeypatch):
    def boom(*a, **k):
        raise NoConvergence("newton starved")
    monkeypatch.setattr(solver, "dc_operating_point", boom)
    assert main(["op", divider]) == 3
    assert "solver error" in capsys.readouterr().err


def test_op_floating_node_is_solver_error(tmp_path, capsys):
    p = tmp_path / "float.cir"
    p.write_text("t\nv_1 a 0 5\nr_1 a 0 1k\nr_2 b c 1k\n")
    assert main(["op", str(p)]) == 3
    assert "no DC path" in capsys.readouterr().err


# --- sweep -----------------------------------------------------------------

def test_sweep_uses_embedded_directive(divider, capsys):
    assert main(["sweep", divider]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "v_1,in,mid"
    assert len(lines) == 1 + 7            # 0..6 step 1
    assert lines[1] == "0.000000000,0.000000000,0.000000000"
    assert lines[-1] == "6.000000000,6.000000000,4.000000000"


def test_sweep_flags_override_directive(divider, capsys):
    assert main(["sweep", divider, "--stop", "3.0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 4            # 0..3 step 1 from the directive


def test_sweep_without_directive_or_flags(tmp_path, capsys):
    p = tmp_path / "plain.cir"
    p.write_text("t\nv_1 in 0 5\nr_1 in 0 1k\n")
    assert main(["sweep", str(p)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["sweep", str(p), "--source", "v_1", "--start", "0",
                 "--stop", "2", "--step", "1"]) == 0


def test_sweep_invalid_range_maps_to_usage_exit(divider, capsys):
    assert main(["sweep", divider, "--start", "5", "--stop", "1"]) == 1
    assert "invalid argument" in capsys.readouterr().err


def test_sweep_unknown_source_maps_to_usage_exit(divider, capsys):
    assert main(["sweep", divider, "--source", "v_nope", "--start", "0",
                 "--stop", "1", "--step", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "invalid argument" in err and "v_nope" in err
    assert "Traceback" not in err


def test_non_finite_ranges_map_to_usage_exit(divider, rc, capsys):
    assert main(["sweep", divider, "--source", "v_1", "--start=-inf",
                 "--stop", "1", "--step", "0.1"]) == 1
    assert main(["tran", rc, "--tstop", "inf", "--dt", "1e-6"]) == 1
    err = capsys.readouterr().err
    assert err.count("invalid argument") == 2
    assert "Traceback" not in err


# --- tran ------------------------------------------------------------------

def test_tran_uses_directive_and_starts_at_dc(rc, capsys):
    assert main(["tran", rc]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "time,in,out"
    assert len(lines) == 1 + 11
    assert lines[1].startswith("0.000000000,0.000000000,0.000000000")


def test_tran_method_flag(rc):
    assert main(["tran", rc, "--method", "trapezoidal"]) == 0
    assert main(["tran", rc, "--method", "euler"]) == 1   # not a choice


def test_tran_notes_the_steps_restarted_with_backward_euler(rc, capsys):
    # the source's 1 ns ramp ends inside the first 2 us step: that step
    # and the next restart; a backward-Euler run's note says nothing of it
    assert main(["tran", rc, "--method", "trapezoidal", "--dt", "2e-6"]) == 0
    trapezoidal = capsys.readouterr()
    assert trapezoidal.err == ("dtlsim: 50 timesteps, max 1 Newton iterations "
                               "per step, 2 restarted with backward Euler\n")
    assert main(["tran", rc, "--dt", "2e-6"]) == 0
    assert capsys.readouterr().err == (
        "dtlsim: 50 timesteps, max 1 Newton iterations per step\n")


def test_trapezoidal_rc_follows_its_closed_form(rc, capsys):
    # the RC's response to the 1 ns ramp from 0 to 1 V, tau = 1 ms: past
    # the ramp, 1 - (tau/tr)(1 - exp(-tr/tau)) exp(-(t - tr)/tau). Each
    # printed row lies within 1e-5 V of it (1.0e-3 V when the step across
    # the ramp ran as trapezoidal, backward Euler's own rows 9.0e-5 V)
    assert main(["tran", rc, "--method", "trapezoidal", "--dt", "2e-6"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "time,in,out"
    t, out = np.array([[float(x) for x in row.split(",")][::2]
                       for row in rows[1:]]).T
    tau, tr = 1e-3, 1e-9
    exact = 1.0 + tau / tr * np.expm1(-tr / tau) * np.exp(-(t - tr) / tau)
    exact[0] = 0.0
    assert len(t) == 51
    assert np.abs(out - exact).max() <= 1e-5, np.abs(out - exact).max()


def test_tran_without_directive(tmp_path, capsys):
    p = tmp_path / "plain.cir"
    p.write_text("t\nv_1 in 0 5\nr_1 in 0 1k\n")
    assert main(["tran", str(p)]) == 1
    assert main(["tran", str(p), "--tstop", "1e-5", "--dt", "1e-6"]) == 0


def test_tran_reports_memristor_state_column(tmp_path, capsys):
    p = tmp_path / "mem.cir"
    p.write_text("t\nv_1 a 0 2.0\nxmr_1 a 0 mem\n.model mem memristor\n"
                 ".tran 1e-5 1e-6\n")
    assert main(["tran", str(p)]) == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header == "time,a,w(xmr_1)"


# the 1 ns pulse train of the fuzz test's example, on a 1 us grid, and the
# netlists the CI runs from the installed package
FAST_PULSE = """fast
r_s0 n0 0 1000
v_1 n0 0 1
c_e0 n0 n1 1e-9
r_e1 n1 0 1000
v_e2 n2 n1 pulse(0 1 0.5n 0.1n 0.1n 0.5n 1n)
xmr_e3 n2 0 mem w0=0.5
.model mem memristor k=1e6
.tran 10u 1u
"""
CI_RC = ("rc\nv_1 in 0 pwl(0 0 1u 1)\nr_1 in out 1k\nc_1 out 0 1n\n"
         ".tran 10u 100n\n")
CI_DRIVE = ("drive\nv_s a 0 pulse(0 5 0 1u 1u 100u 200u)\nxmr_1 a 0 mem\n"
            ".model mem memristor k=1e9\n.tran 1m 1u\n")


def test_tran_notes_a_source_with_more_corners_than_steps(tmp_path, capsys):
    # four corners a period in each of 10 us of 1 ns periods, less the two
    # of the last period that fall past 10 us
    p = tmp_path / "fast.cir"
    p.write_text(FAST_PULSE)
    assert main(["tran", str(p)]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if "corners" in line]
    assert notes == ["dtlsim: source v_e2 has 39998 corners in [0, 1e-05] s "
                     "but the run has 10 steps, which see it only at their "
                     "own times"]
    for text, method in ((CI_RC, "trapezoidal"), (CI_DRIVE, "backward-euler")):
        p.write_text(text)
        assert main(["tran", str(p), "--method", method]) == 0
        assert "corners" not in capsys.readouterr().err
    assert main(["xor"]) == 0
    assert "corners" not in capsys.readouterr().err


# --- xor -------------------------------------------------------------------------

def test_xor_truth_table_summary(capsys):
    assert main(["xor"]) == 0
    out = capsys.readouterr().out
    assert "# phase 0: inputs=(0,0)" in out
    assert "# phase 2: inputs=(1,0)" in out
    assert "# truth table [0, 1, 1, 0] expected [0, 1, 1, 0] " \
           "agreement=1.000" in out


def test_xor_unsettled_phases_exit_5(capsys):
    # phases far shorter than the soma RC never settle; the truth table
    # degenerates and the command reports it in the exit code
    rv = main(["xor", "--phase", "1e-7", "--edge", "1e-9"])
    assert rv == 5
    assert "agreement" in capsys.readouterr().out


def test_xor_invalid_geometry_is_usage_exit():
    assert main(["xor", "--edge", "2e-3"]) == 1       # edge >= phase
    assert main(["xor", "--w0", "1.5"]) == 1


# --- detector -----------------------------------------------------------------------

def test_detector_band_summary(capsys):
    assert main(["detector"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("v_in,")
    band_lines = [l for l in out.strip().split("\n") if l.startswith("# band:")]
    assert len(band_lines) == 1
    assert "theta_low=0.29" in band_lines[0]
    assert "theta_high=0.45" in band_lines[0]


def test_detector_config2_widens_band(capsys):
    assert main(["detector", "--config", "2"]) == 0
    out = capsys.readouterr().out
    assert "theta_low=0.12" in out
    assert "theta_high=0.88" in out


def test_detector_no_band_exit_5(capsys):
    # collapsing the second stage supply kills the response entirely
    rv = main(["detector", "--vdd2", "0.05", "--vss2", "0.0"])
    cap = capsys.readouterr()
    assert rv == 5
    assert "band extraction failed" in cap.err
    assert cap.out.startswith("v_in,")   # sweep data still emitted


def test_detector_stdout_matches_out_file(tmp_path, capsys):
    out_file = tmp_path / "det.csv"
    assert main(["detector", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["detector"]) == 0
    stdout_text = capsys.readouterr().out
    assert out_file.read_text() == stdout_text


def test_detector_byte_deterministic(capsys):
    assert main(["detector"]) == 0
    first = capsys.readouterr().out
    assert main(["detector"]) == 0
    assert capsys.readouterr().out == first


# --- gen-gaussian ---------------------------------------------------------------------

def test_gen_gaussian_writes_readable_pgm(tmp_path):
    out = tmp_path / "g.pgm"
    assert main(["gen-gaussian", "--size", "65", "--out", str(out)]) == 0
    img = read_pgm(out)
    assert img.width == img.height == 65
    assert img.pixels[32, 32] == 255
    assert img == gen_gaussian_image(65)


def test_gen_gaussian_ascii_variant(tmp_path):
    out = tmp_path / "g2.pgm"
    assert main(["gen-gaussian", "--size", "33", "--ascii",
                 "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P2\n")
    assert read_pgm(out) == gen_gaussian_image(33)


def test_gen_gaussian_requires_out():
    assert main(["gen-gaussian", "--size", "33"]) == 1


def test_gen_gaussian_unwritable_dir_is_io_error(tmp_path, capsys):
    dest = tmp_path / "no" / "such" / "dir" / "g.pgm"
    assert main(["gen-gaussian", "--out", str(dest)]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err
    assert str(dest) in err
    assert ".dtlsim-tmp-" not in err


def test_out_onto_a_directory_names_it_and_leaves_no_temp_file(
        tmp_path, divider, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    for argv in (["gen-gaussian", "--size", "9"], ["sweep", str(divider)]):
        assert main([*argv, "--out", str(target)]) == 4
        err = capsys.readouterr().err
        assert f"i/o error: [Errno 21] Is a directory: '{target}'" in err
        assert ".dtlsim-tmp-" not in err
    assert not any(p.name.startswith(".dtlsim-tmp-")
                   for p in tmp_path.iterdir())


def test_writer_error_propagates_and_leaves_no_temp_file(tmp_path):
    # only an OSError is renamed to the target; anything else passes as is
    def half_written(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise ValueError("writer failed")
    target = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="^writer failed$"):
        _atomic_write(str(target), half_written)
    assert list(tmp_path.iterdir()) == []


def test_gen_gaussian_invalid_size():
    assert main(["gen-gaussian", "--size", "1", "--out", "x.pgm"]) == 1


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_gen_gaussian_non_finite_sigma_is_domain_exit(tmp_path, sigma, capsys):
    out = tmp_path / "g.pgm"
    assert main(["gen-gaussian", "--size", "9", "--sigma", sigma,
                 "--out", str(out)]) == 1
    assert "sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


# --- segment ------------------------------------------------------------------------

def test_segment_gaussian_reports_ring(tmp_path, capsys):
    img_path = tmp_path / "blob.pgm"
    write_pgm(img_path, gen_gaussian_image(65))
    resp_path = tmp_path / "resp.pgm"
    assert main(["segment", str(img_path), "--out", str(resp_path)]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().split("\n")
    assert lines[0] == "metric,value"
    metrics = dict(l.split(",") for l in lines[1:])
    assert set(metrics) == {"peak_radius", "thickness", "peak_brightness"}
    assert 15.0 < float(metrics["peak_radius"]) < 30.0
    assert float(metrics["thickness"]) > 0.0
    resp = read_pgm(resp_path)
    assert resp.width == resp.height == 65


def test_segment_constant_image_no_ring(tmp_path, capsys):
    img_path = tmp_path / "flat.pgm"
    write_pgm(img_path, gen_gaussian_image(33, sigma=1e6))  # ~constant 255
    assert main(["segment", str(img_path)]) == 5
    assert "empty analysis" in capsys.readouterr().err


def test_segment_checks_voltage_range_before_any_work(tmp_path, capsys,
                                                     monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the range check")
    monkeypatch.setattr(solver, "dc_sweep", no_sweep)
    img_path = tmp_path / "blob.pgm"
    write_pgm(img_path, gen_gaussian_image(9))
    order = "need v_high > v_low"
    for lo, hi, why in (("2", "1", order), ("1", "1", order),
                        ("nan", "1", order),
                        ("-inf", "1", "v_low must be finite, got -inf"),
                        ("0", "inf", "v_high must be finite, got inf"),
                        ("0", "nan", order)):
        # a missing image would be an i/o error: the range is checked first
        for image in (img_path, tmp_path / "missing.pgm"):
            assert main(["segment", str(image), f"--v-low={lo}",
                         f"--v-high={hi}"]) == 1
            assert f"invalid argument: {why}" in capsys.readouterr().err


def test_segment_truncated_image_is_io_error(tmp_path, capsys):
    p = tmp_path / "trunc.pgm"
    p.write_bytes(b"P5\n9 9\n255\n123")
    assert main(["segment", str(p)]) == 4
    assert "image error" in capsys.readouterr().err


def test_segment_over_long_header_number_is_image_error(tmp_path, capsys):
    p = tmp_path / "long.pgm"
    p.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n")
    assert main(["segment", str(p)]) == 4
    assert "image error: header number" in capsys.readouterr().err


# --- calibrate-xor --------------------------------------------------------------------

def test_calibrate_default_grid(capsys):
    assert main(["calibrate-xor"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "theta2,eps,theta3"
    assert lines[-1] == "# 95 valid combinations"
    assert len(lines) == 1 + 95 + 1


def test_calibrate_single_values(capsys):
    assert main(["calibrate-xor", "--theta2", "1.5", "--eps", "0.1",
                 "--theta3", "0.75"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "1.500000000,0.100000000,0.750000000"


def test_calibrate_empty_grid_exit_5(capsys):
    assert main(["calibrate-xor", "--theta2", "1.99", "--eps", "1.5"]) == 5
    assert "no (theta2, eps, theta3)" in capsys.readouterr().err


def test_calibrate_bad_grid_spec():
    assert main(["calibrate-xor", "--theta2", "1:2"]) == 1
    assert main(["calibrate-xor", "--theta2", "a:b:3"]) == 1
    assert main(["calibrate-xor", "--theta2", "1:2:0"]) == 1


def test_calibrate_grid_over_limit_is_usage_exit(monkeypatch, capsys):
    linspace = np.linspace

    def small_linspace(start, stop, count):
        assert count <= 10**6, "over-limit grid allocated"
        return linspace(start, stop, count)
    monkeypatch.setattr(np, "linspace", small_linspace)
    for flag in ("--theta2", "--eps", "--theta3"):
        assert main(["calibrate-xor", flag, "1:2:1000001"]) == 1
        assert "count <= 1000000" in capsys.readouterr().err


def test_calibrate_logic_high_must_be_positive_finite(capsys):
    for bad in ("nan", "inf", "0"):
        assert main(["calibrate-xor", "--logic-high", bad]) == 1
        err = capsys.readouterr().err
        assert "invalid argument" in err and "logic_high" in err


def test_calibrate_nonfinite_grid_is_usage_exit(monkeypatch, capsys):
    linspace = np.linspace

    def finite_linspace(start, stop, count):
        assert np.isfinite(stop - start), "non-finite grid reached linspace"
        return linspace(start, stop, count)
    monkeypatch.setattr(np, "linspace", finite_linspace)
    for flag in ("--theta2", "--eps", "--theta3"):
        for spec in ("nan", "-inf", "inf:1.9:3", "1:nan:3", "-1e308:1e308:3"):
            assert main(["calibrate-xor", f"{flag}={spec}"]) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "finite" in err
            assert "Warning" not in err


# --- pinned stdout --------------------------------------------------------------------

# sha256 of stdout, recorded before the command layer was reshaped around
# one analysis runner and one CSV writer; any byte that moves fails here
@pytest.mark.parametrize("argv, digest", [
    (["op", "{divider}"],
     "eac87252650f369160889fb6b1cc5b6b5df36ceab0364f29fc5c303226971316"),
    (["sweep", "{divider}"],
     "d773cac69abde4611b437a30f9e71c951c50406d626fa9273cba3ac564a8063d"),
    (["sweep", "{divider}", "--stop", "3.0"],
     "d31496e44087cf59e147afad64f5fb6c553af4faab331e07cb1c3974a61dfd61"),
    (["sweep", "{divider}", "--source", "v_1", "--start", "0.5",
      "--stop", "2.5", "--step", "0.25"],
     "b1857119bb3d5d981d429c59bf43cc059b46453faea671824673117cb4ff983a"),
    (["tran", "{rc}"],
     "153382308f50dde8fa2feb9fef4cc00385362606bdf84ab8cd6aa0d9cdc6a42c"),
    (["tran", "{rc}", "--dt", "2e-6"],
     "cc7008df62a636f1fa4f6c00174b3d206c11324a7d4b2d26a1112fe160c36569"),
    # re-pinned when trapezoidal steps across a source corner began to
    # restart with backward Euler; test_trapezoidal_rc_follows_its_closed_form
    # holds these rows to the analytic response
    (["tran", "{rc}", "--method", "trapezoidal", "--dt", "2e-6"],
     "9eda230200311e96f3adc2ea5f21971c20555b7e133ff0af0175c2dad31ea816"),
    (["calibrate-xor", "--theta2", "1.1:1.9:9", "--eps", "0.1",
      "--theta3", "0.55:0.95:9"],
     "0fde6ecca1be0bd4e9d8ee998de8069301d1e83a828133fd0a2e8d9f7b9a96f9"),
    (["calibrate-xor", "--theta2", "1.1:1.9:21", "--eps", "0.05:0.45:21",
      "--theta3", "0.55:0.95:21"],
     "90fdc8f3f8a15efa1f21555fdeb70c3d57a7a1d4da3a27501a085f586d26de5b"),
    # the paper's cells and the imaging pipeline; config 2 sweeps the
    # detector's first stage with its source-bulk junctions forward biased
    (["detector"],
     "85ad02b4bc29ebba8566159ee9d70faf4bbb6c4e6b8b450a9d0be2ee13d30e60"),
    (["detector", "--config", "2"],
     "9141c164bab8b683e83e89a99e66e1c2253b0c0996c09e3fbfee9aed19c42074"),
    (["xor"],
     "2ecbd8fc22fa2c006a2f075d664898c6698d568552ebe64a66ed16bf5607e433"),
    (["segment", "{blob}"],
     "f9565883d6716599030720d591042feb2225684f3552f03ff60af91826624ec7"),
    (["segment", "{blob}", "--config", "2"],
     "8040a43f5cf5907c55f1fab5f3d054eaa68d33576defa4456ea24b932a3cbc22"),
])
def test_stdout_is_pinned(divider, rc, blob, capsys, argv, digest):
    argv = [a.format(divider=divider, rc=rc, blob=blob) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def test_missing_directive_usage_messages(tmp_path, capsys):
    p = tmp_path / "plain.cir"
    p.write_text("t\nv_1 in 0 5\nr_1 in 0 1k\n")
    assert main(["sweep", str(p), "--start", "0"]) == 1
    assert capsys.readouterr().err == (
        "dtlsim: usage error: sweep needs --source/--start/--stop/--step "
        "or a .dc directive in the netlist\n")
    assert main(["tran", str(p), "--dt", "1e-6"]) == 1
    assert capsys.readouterr().err == (
        "dtlsim: usage error: tran needs --tstop/--dt or a .tran directive\n")


# --- non-finite and unbounded arguments -------------------------------------------------

@pytest.mark.parametrize("argv, name", [
    (["detector", "--vdd1", "nan"], "vdd1"),
    (["detector", "--vss2", "inf"], "vss2"),
    (["detector", "--stop", "nan"], "sweep_stop"),
    (["detector", "--step", "inf"], "sweep_step"),
    (["xor", "--phase", "nan"], "phase"),
    (["xor", "--vdd", "inf"], "vdd"),
    (["xor", "--edge", "nan"], "edge"),
    (["xor", "--load-cap", "nan"], "load_cap"),
    (["xor", "--dt", "nan"], "dt"),
])
def test_non_finite_cell_parameters_are_invalid_arguments(capsys, argv, name):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"dtlsim: invalid argument: {name} must be finite, got " \
                  f"{float(argv[-1])}\n"


def test_segment_non_finite_detector_arguments_are_invalid(tmp_path, capsys):
    img_path = tmp_path / "blob.pgm"
    write_pgm(img_path, gen_gaussian_image(9))
    assert main(["segment", str(img_path), "--w0", "nan"]) == 1
    assert "invalid argument: w0" in capsys.readouterr().err
    assert main(["segment", str(img_path), "--v-high", "nan"]) == 1
    assert "invalid argument: need v_high > v_low" in capsys.readouterr().err


def test_gen_gaussian_size_over_limit_is_domain_exit(tmp_path, capsys):
    out = tmp_path / "g.pgm"
    assert main(["gen-gaussian", "--size", "1000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid argument: size 1000000 exceeds the limit of 4096" in err
    assert not out.exists()


# --- parser level ----------------------------------------------------------------------

COMMANDS = ["op", "sweep", "tran", "xor", "detector", "gen-gaussian",
            "segment", "calibrate-xor"]


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    return capsys.readouterr().out


def _flags(help_text: str) -> set:
    return set(re.findall(r"^  (--[\w-]+)", help_text, re.M))


def test_help_shows_every_command_and_field_flag(capsys):
    # a command's flags are added only when it is parsed; its help still
    # shows one for every field of the table they are read from
    assert re.findall(r"^    (\S+) ", _help(capsys), re.M) == COMMANDS
    detector = {f"--{f.name.replace('_', '-')}"
                for f in dataclasses.fields(DetectorConfig)}
    for command in ("detector", "segment"):
        assert detector <= _flags(_help(capsys, command))
    for command, kind in (("sweep", ".dc"), ("tran", ".tran")):
        assert ({f"--{f}" for f in _DIRECTIVES[kind]}
                <= _flags(_help(capsys, command)))


def test_unknown_subcommand_and_empty_argv(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_out_files_are_written_atomically(tmp_path, divider):
    # no temp droppings next to the target after a successful write
    out = tmp_path / "op.csv"
    assert main(["op", divider, "--out", str(out)]) == 0
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name.startswith(".dtlsim-tmp-")]
    assert leftovers == []
    assert out.read_text().startswith("name,value\n")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_files_get_the_mode_of_a_new_file(tmp_path, divider, umask, mode):
    # the temp file is owner-only; the renamed file is 0o666 less the umask
    saved = os.umask(umask)
    try:
        assert main(["gen-gaussian", "--size", "9",
                     "--out", str(tmp_path / "g.pgm")]) == 0
        assert main(["op", divider, "--out", str(tmp_path / "op.csv")]) == 0
        assert os.umask(umask) == umask   # left as it was
    finally:
        os.umask(saved)
    for name in ("g.pgm", "op.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
