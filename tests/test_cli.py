"""Command-line surface: determinism, exit codes, published-value presets."""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pdqkd import cli, event_sim
from pdqkd.cli import main
from pdqkd.dataio import (_SCHEMA, EVENTS_HEADER, TALLY_HEADER, RunManifest, read_results,
                          read_tally, write_config, write_events, write_tally)
from pdqkd.event_sim import EVENT_DTYPE, EventLog, Tally
from pdqkd.link_model import E0
from pdqkd.photon_source import calibrate_eta_a
from pdqkd.presets import REFERENCE_RUNS, Y0_BOB, preset_manifest

# an event-log head: tag, 13 pulses sent (one in the N match cell), header
V2_HEAD = ("# pdqkd:events:v2\nsent_n_mismatch=12,sent_n_match=1,sent_t_mismatch=0,"
           f"sent_t_match=0\n{EVENTS_HEADER}\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_tally_and_summary(self, tmp_path, capsys):
        out = tmp_path / "tally.txt"
        code, stdout, _ = run_cli(capsys, "simulate", "--config", "paper50km",
                                  "--pulses", "200000", "--seed", "7",
                                  "--out", str(out))
        assert code == 0
        assert "Q_N" in stdout and out.exists()

    def test_same_seed_byte_identical_outputs(self, tmp_path, capsys):
        paths = [tmp_path / "a", tmp_path / "b"]
        for path, workers in zip(paths, ("1", "4")):
            code, _, _ = run_cli(capsys, "simulate", "--config", "paper50km",
                                 "--pulses", "300000", "--seed", "3",
                                 "--workers", workers,
                                 "--out", str(path) + ".tally",
                                 "--events", str(path) + ".events")
            assert code == 0
        assert (paths[0].with_suffix(".tally").read_bytes()
                == paths[1].with_suffix(".tally").read_bytes())
        assert (paths[0].with_suffix(".events").read_bytes()
                == paths[1].with_suffix(".events").read_bytes())

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # digests of the tally and CSV event log; any change to a simulated value fails here
        # (both were re-pinned when each pulse came to draw one uniform, through the run's
        # outcome table, and again when each block came to draw its cell counts, then its
        # clicked pulses)
        tally, events = tmp_path / "pin.tally", tmp_path / "pin.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", "paper0km", "--pulses", "20000",
                             "--seed", "7", "--out", str(tally), "--events", str(events))
        assert code == 0
        # numpy's Generator promises no stable stream across versions
        pinned_under = (f"pinned under numpy 2.4.6, running numpy {np.__version__}; "
                        "the samplers' streams may differ across numpy versions")
        assert hashlib.sha256(tally.read_bytes()).hexdigest() == (
            "34c1bdaaadf760309f2c0a9d9ece46383ba7f71f224556d9a954c62bba202351"), pinned_under
        assert hashlib.sha256(events.read_bytes()).hexdigest() == (
            "d617c2bd8bce0bc1914987a5acbdc0f65ee116b07a584f194a25e6cd0cf661b3"), pinned_under

    def test_tally_alone_builds_no_event_row(self, tmp_path, capsys, monkeypatch):
        # without --events, simulate stops each block at its cell counts: the row path never
        # runs, and the summary and tally equal those of the run that writes a log
        argv = ["simulate", "--config", "paper0km", "--pulses", "3e6", "--seed", "7",
                "--workers", "2", "--out"]
        code, with_log, _ = run_cli(capsys, *argv, str(tmp_path / "log.tally"),
                                    "--events", str(tmp_path / "log.csv"))
        assert code == 0

        def never(*args, **kwargs):
            raise AssertionError("simulate built event rows for a tally")

        for name in ("simulate_run", "_run_batch", "_block", "EventLog"):
            monkeypatch.setattr(event_sim, name, never)
        code, alone, _ = run_cli(capsys, *argv, str(tmp_path / "alone.tally"))
        assert code == 0
        events = f"events written : {tmp_path / 'log.csv'}\n"
        assert alone.replace("alone.tally", "log.tally") + events == with_log
        assert (tmp_path / "alone.tally").read_bytes() == (tmp_path / "log.tally").read_bytes()

    def test_retired_batch_size_override_changes_no_byte(self, tmp_path, capsys):
        def run(*extra):
            run_dir = tmp_path / str(len(extra))
            run_dir.mkdir()
            code, out, err = run_cli(capsys, "simulate", "--config", "paper0km",
                                     "--pulses", "20000", "--seed", "7", *extra,
                                     "--out", str(run_dir / "run.tally"),
                                     "--events", str(run_dir / "run.csv"))
            assert code == 0
            files = [(run_dir / name).read_bytes() for name in ("run.tally", "run.csv")]
            return out.replace(str(run_dir), ""), files, err.splitlines()

        out, files, err = run()
        retired_out, retired_files, warning = run("--set", "batch_size=7777")
        assert (retired_out, retired_files) == (out, files) and err == []
        assert len(warning) == 1 and warning[0].startswith("warning:")
        assert "batch_size" in warning[0]

    # both bases are equally likely, so the sift factor q is 1/2, and a dark-only detection
    # gets a random bit, so its error rate e0 is 1/2: each retired key reads at 1/2 alone
    @pytest.mark.parametrize("key, value, source", [
        pytest.param(key, value, source, id=source if key == "basis_bias" else f"{key} {source}")
        for key, value in (("basis_bias", "0.9"), ("e0", "0.2"), ("q", "0.7"))
        for source in ("--set", "file")])
    def test_retired_basis_bias_off_half_exits_2(self, tmp_path, capsys, key, value, source):
        if source == "file":
            path = tmp_path / "biased.cfg"
            path.write_text(f"{key} = {value}\n")
            argv = ["--config", str(path)]
        else:
            argv = ["--set", f"{key}={value}"]
        out = tmp_path / "t.tally"
        code, stdout, err = run_cli(capsys, "simulate", "--pulses", "1000", *argv,
                                    "--out", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert f"key {key}: value {float(value)!r} out of range [0.5, 0.5]" in err

    @pytest.mark.parametrize("command", ["simulate", "hbt", "car"])
    @pytest.mark.parametrize("pulses", ["200000.7", "0"])
    def test_bad_pulse_count_is_a_data_error(self, capsys, command, pulses):
        code, _, err = run_cli(capsys, command, "--pulses", pulses)
        assert code == 2 and "n_pulses" in err

    def test_invalid_override_exits_with_schema_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "paper50km",
                               "--set", "eta_a=1.5")
        assert code == 2
        assert "eta_a" in err

    def test_unknown_config_name(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "paper75km")
        assert code == 2
        assert "preset" in err

    def test_config_dir_env_lookup(self, tmp_path, capsys, monkeypatch):
        from pdqkd.dataio import write_config
        write_config(preset_manifest("paper50km"), tmp_path / "mine.cfg")
        monkeypatch.setenv("PDQKD_CONFIG_DIR", str(tmp_path))
        code, stdout, _ = run_cli(capsys, "simulate", "--config", "mine.cfg",
                                  "--pulses", "50000", "--seed", "1")
        assert code == 0
        assert "Q_N" in stdout


class TestEstimate:
    def test_paper50km_direct_tally(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "estimate", "--config", "paper50km",
            "--q-n", "2.43e-5", "--q-t", "2.50e-6",
            "--e-n", "0.0399", "--e-t", "0.0306")
        assert code == 0
        key_bits = float(stdout.split("key length     :")[1].split()[0])
        assert 0.5 * 89.8e3 <= key_bits <= 1.5 * 89.8e3

    def test_asymptotic_override_beats_finite(self, capsys):
        argv = ["estimate", "--config", "paper50km",
                "--q-n", "2.43e-5", "--q-t", "2.50e-6",
                "--e-n", "0.0399", "--e-t", "0.0306"]
        _, fin_out, _ = run_cli(capsys, *argv)
        _, asy_out, _ = run_cli(capsys, *argv, "--set", "u_alpha=0")
        fin = float(fin_out.split("key length     :")[1].split()[0])
        asy = float(asy_out.split("key length     :")[1].split()[0])
        assert asy >= fin

    @pytest.mark.parametrize("extra, header", [
        ([], "mode           : finite (u_alpha=5, N=60000000000)"),
        (["--set", "u_alpha=3"], "mode           : finite (u_alpha=3, N=60000000000)"),
        (["--set", "u_alpha=0"], "mode           : asymptotic (u_alpha=0, N=60000000000)"),
        (["--set", "u_alpha=3", "--set", "u_alpha=0"],
         "mode           : asymptotic (u_alpha=0, N=60000000000)"),
    ])
    def test_header_mode_follows_u_alpha(self, capsys, extra, header):
        code, stdout, _ = run_cli(capsys, "estimate", "--config", "paper50km",
                                  "--q-n", "2.43e-5", "--q-t", "2.50e-6",
                                  "--e-n", "0.0399", "--e-t", "0.0306", *extra)
        assert code == 0 and stdout.splitlines()[0] == header

    def test_zero_detection_warns_not_fails(self, tmp_path, capsys):
        code, stdout, err = run_cli(
            capsys, "estimate", "--config", "paper50km",
            "--q-n", "0", "--q-t", "0", "--e-n", "0", "--e-t", "0")
        assert code == 0
        assert "degenerate" in err
        assert "key length     : 0.0" in stdout

    def test_tally_file_input(self, tmp_path, capsys):
        tally_path = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", "paper50km",
                             "--pulses", "400000", "--seed", "12",
                             "--set", "eta_db=8.0", "--out", str(tally_path))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "estimate", "--config", "paper50km",
                                  "--tally", str(tally_path), "--set", "u_alpha=0")
        assert code == 0
        assert "key length" in stdout

    def test_events_input(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--config", "paper50km",
                             "--pulses", "200000", "--seed", "5",
                             "--set", "eta_db=8.0",
                             "--events", str(tmp_path / "ev.csv"))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "estimate", "--config", "paper50km",
                                  "--events", str(tmp_path / "ev.csv"),
                                  "--set", "u_alpha=0")
        assert code == 0
        assert "R " in stdout or "R    " in stdout

    def test_each_event_log_is_counted_once(self, tmp_path, capsys, monkeypatch):
        # a log is counted into its tally when the run makes it or the reader reads it; the
        # writer and tally_from_events reuse that tally
        made, check = [], Tally.__post_init__

        def counted(tally):
            made.append(tally)
            check(tally)

        monkeypatch.setattr(Tally, "__post_init__", counted)
        path = str(tmp_path / "ev.csv")
        code, _, _ = run_cli(capsys, "simulate", "--config", "paper50km", "--pulses", "200000",
                             "--seed", "5", "--set", "eta_db=8.0", "--events", path)
        assert (code, len(made)) == (0, 1)
        code, _, _ = run_cli(capsys, "estimate", "--config", "paper50km", "--events", path,
                             "--set", "u_alpha=0")
        assert (code, len(made)) == (0, 2)

    def test_corrupt_tally_file_is_a_data_error(self, tmp_path, capsys):
        # every field present and non-negative, but 1000 pulses sent out of 10
        path = tmp_path / "bad.tally"
        counts = {"n_pulses": 10, "sent_n_match": 1000, "det_n_match": 5000}
        row = ",".join(str(counts.get(name, 0)) for name in TALLY_HEADER.split(","))
        path.write_text(f"{TALLY_HEADER}\n{row}\n")
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", "--tally", str(path))
        assert code == 2 and "sum to n_pulses" in err

    @pytest.mark.parametrize("flag", ["--tally", "--events"])
    def test_zero_pulse_input_is_a_data_error(self, tmp_path, capsys, flag):
        # the readers accept a run of no pulses, so files round-trip; estimating from one
        # is a fault of the data, not of the command line
        path = tmp_path / "empty.csv"
        if flag == "--tally":
            write_tally(Tally(), path)
        else:
            write_events(EventLog(sent=(0, 0, 0, 0), rows=np.empty(0, EVENT_DTYPE)), path)
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", flag, str(path))
        assert code == 2 and f"{path}: holds no pulses" in err

    @pytest.mark.parametrize("name, row, where", [
        ("bad.csv", "7,3,0,0,0,0,9,0", "triggered must be 0 or 1, got 3 at record 0"),
        ("bad.csv", "0,0,0,0,1,300,0,0", "row 4"),
    ])
    def test_corrupt_event_log_is_a_data_error(self, tmp_path, capsys, name, row, where):
        path = tmp_path / name
        path.write_text(f"{V2_HEAD}{row}\n")
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", "--events", str(path))
        assert code == 2 and where in err

    @pytest.mark.parametrize("body, where", [
        ("# pdqkd:events:v1\n", "unsupported event log version '# pdqkd:events:v1'"),
        (f"# pdqkd:events:v2\n{EVENTS_HEADER}\n", "row 2: missing or malformed sent-count line"),
        ("# pdqkd:events:v2\nsent_n_mismatch=10,sent_n_match=x,sent_t_mismatch=0,sent_t_match=0\n",
         "row 2: missing or malformed sent-count line"),
        (f"{V2_HEAD}3,0,1,0,1,0,0,0\n4,0,1,0,1,1,0,0\n", "detections cannot exceed the pulses sent"),
        (f"{V2_HEAD}3,0,0,0,0,0,0,0\n5,0,0,0,0,0,0,0\n4,0,0,0,0,0,0,0\n",
         "row 6: pulse_id not strictly increasing at record 2"),
        (f"{V2_HEAD}3,0,0,0,0,0,0,0\n13,0,0,0,0,0,0,0\n",
         "row 5: pulse_id not below the 13 pulses sent at record 1"),
    ], ids=["v1 tag", "no sent line", "bad sent count", "cell overflow", "out of order",
            "beyond n_pulses"])
    def test_bad_event_log_exits_2(self, tmp_path, capsys, body, where):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", "--events", str(path))
        assert code == 2 and where in err

    def test_overfull_cell_names_its_record_and_line(self, tmp_path, capsys):
        # the N match cell sent one pulse, and its second detection is record 1, on line 5
        path = tmp_path / "bad.csv"
        path.write_text(f"{V2_HEAD}3,0,1,0,1,0,0,0\n4,0,1,0,1,1,0,0\n")
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", "--events", str(path))
        assert (code, err) == (2, f"error: {path}:row 5: detections cannot exceed the pulses "
                               "sent in their cell at record 1\n")

    @pytest.mark.parametrize("flag", ["--config", "--tally", "--events"])
    @pytest.mark.parametrize("head", [None, 100], ids=["v1 npy log", "its first 100 bytes"])
    def test_binary_input_file_exits_2(self, tmp_path, capsys, flag, head):
        # a packed log of the earlier per-pulse format, which is no longer read
        v1 = np.dtype([("pulse_id", "<u8")] + [(name, "u1") for name in (
            "triggered", "alice_basis", "alice_bit", "bob_basis", "bob_clicked", "bob_bit",
            "dark_origin", "double_click")])
        path = tmp_path / "old.npy"
        np.save(path, np.ones(1000, dtype=v1))
        path.write_bytes(path.read_bytes()[:head])
        argv = ["--config", "paper50km"] if flag != "--config" else []
        code, _, err = run_cli(capsys, "estimate", *argv, flag, str(path))
        assert code == 2 and f"{path}: not a readable text file" in err

    @pytest.mark.parametrize("flag", ["--tally", "--events"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "absent.csv"
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km", flag, str(path))
        assert code == 2 and f"{path}: not a readable text file" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km")
        assert code == 2

    def test_calibrate_eta_a_from_triggers(self, tmp_path, capsys):
        # a simulated tally, whose trigger count may land on the preset's mean, and the same
        # tally with its triggers doubled, whose calibrated eta_a cannot be the preset's
        simulated, doubled = tmp_path / "t.csv", tmp_path / "doubled.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", "paper50km",
                             "--pulses", "400000", "--seed", "12",
                             "--set", "eta_db=8.0", "--out", str(simulated))
        assert code == 0
        tally = read_tally(simulated)
        half = tally.n_triggers // 2
        write_tally(replace(tally, sent_n_match=tally.sent_n_match - half,
                            sent_n_mismatch=tally.sent_n_mismatch - half,
                            sent_t_match=tally.sent_t_match + half,
                            sent_t_mismatch=tally.sent_t_mismatch + half), doubled)
        for path in (simulated, doubled):
            triggers = read_tally(path).n_triggers
            manifest = preset_manifest("paper50km")
            eta_a = calibrate_eta_a(triggers / tally.n_pulses, manifest["mu0"],
                                    manifest["y0_alice"])
            argv = ["estimate", "--config", "paper50km", "--tally", str(path),
                    "--set", "u_alpha=0"]
            code, cal_out, _ = run_cli(capsys, *argv, "--calibrate-eta-a")
            assert code == 0
            # the same as handing the calibrated eta_a over by hand
            _, set_out, _ = run_cli(capsys, *argv, "--set", f"eta_a={eta_a!r}")
            assert cal_out == set_out
        assert triggers > 1.9 * tally.n_triggers
        _, preset_out, _ = run_cli(capsys, *argv)  # the doubled tally at the preset's eta_a
        assert cal_out != preset_out

    def test_calibrate_eta_a_honours_the_heralding_dark_count(self, tmp_path, capsys):
        # inverting 1 - exp(-mu0 eta_a) alone read this tally's eta_a as 0.0427
        out = tmp_path / "dark.tally"
        dark = ["--config", "paper0km", "--set", "y0_alice=0.05", "--set", "eta_db=0"]
        code, _, _ = run_cli(capsys, "simulate", *dark, "--pulses", "2e7", "--seed", "4",
                             "--out", str(out))
        assert code == 0
        manifest = preset_manifest("paper0km")
        rate = read_tally(out).n_triggers / 2e7
        eta_a = calibrate_eta_a(rate, manifest["mu0"], 0.05)
        sigma = math.sqrt(rate * (1.0 - rate) / 2e7) / (manifest["mu0"] * (1.0 - rate))
        assert abs(eta_a - manifest["eta_a"]) <= 4.0 * sigma
        argv = ["estimate", *dark, "--tally", str(out)]
        _, cal_out, _ = run_cli(capsys, *argv, "--calibrate-eta-a")
        _, set_out, _ = run_cli(capsys, *argv, "--set", f"eta_a={eta_a!r}")
        assert cal_out == set_out

    def test_calibrate_eta_a_without_triggers_fails(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--config", "paper50km",
                               "--q-n", "2.43e-5", "--q-t", "2.50e-6",
                               "--e-n", "0.0399", "--e-t", "0.0306",
                               "--calibrate-eta-a")
        assert code == 2
        assert "trigger" in err and "calibrate --trigger-rate" in err


class TestScanAndReproduce:
    def test_reproduce_fig4_inflection_in_band(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, stdout, _ = run_cli(capsys, "reproduce", "fig4", "--out", str(out))
        assert code == 0
        line = [l for l in stdout.splitlines() if l.startswith("R_N reaches 0")][0]
        cutoff = float(line.split(":")[1].split("dB")[0])
        assert 31.2 <= cutoff <= 32.2
        rows = read_results(out)
        rates = [r.r for r in rows]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        # the total rate survives past the non-trigger branch cutoff
        assert any(r.r > 0 and r.r_n == 0 for r in rows)

    def test_reproduce_table1_prints_deviations(self, capsys):
        code, stdout, _ = run_cli(capsys, "reproduce", "table1")
        assert code == 0
        assert "paper50km" in stdout and "rel.dev" in stdout

    def test_reproduce_table1_rejects_out(self, tmp_path, capsys):
        # table1 only prints; an --out that writes nothing must not pass silently
        out = tmp_path / "t.csv"
        code, stdout, err = run_cli(capsys, "reproduce", "table1", "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert "--out" in err

    @pytest.mark.parametrize("name", ["paper0km", "paper25km"])
    def test_short_distance_dark_count_from_published_qber(self, name):
        # E_N Q_N = e_d Q_N + (E0 - e_d) Y0 B, solved for Y0 with the shared
        # e_d and the run's own published Q_N, E_N and heralding fraction
        run = REFERENCE_RUNS[name]
        manifest = preset_manifest(name)
        e_d = manifest["e_d"]
        b = (1.0 - manifest["y0_alice"]) * math.exp(-run.mu0 * run.eta_a)
        y0 = (run.e_n - e_d) * run.q_n / ((E0 - e_d) * b)
        assert manifest["y0_bob"] == float(f"{y0:.2g}")

    def test_paper50km_keeps_calibrated_dark_count(self):
        assert preset_manifest("paper50km")["y0_bob"] == Y0_BOB

    @pytest.mark.parametrize("argv, losses", [
        (["scan-loss", "--config", "paper50km", "--from", "0", "--to", "1", "--step", "0.6"],
         [0.0, 0.6]),
        (["scan-loss", "--config", "paper50km", "--from", "0", "--to", "0.3", "--step", "0.1"],
         [0.0, 0.1, 0.2, 0.30000000000000004]),
        (["reproduce", "fig4"], [0.1 * i for i in range(351)]),
    ], ids=["step past --to", "step onto --to", "fig4"])
    def test_grid_ends_at_or_before_to(self, tmp_path, capsys, argv, losses):
        out = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert [row.loss_db for row in read_results(out)] == losses

    @pytest.mark.parametrize("argv", [
        ["scan-loss", "--config", "paper50km", "--step", "nan"],
        ["scan-loss", "--config", "paper50km", "--step", "inf"],
        ["scan-loss", "--config", "paper50km", "--to", "inf"],
        ["scan-loss", "--config", "paper50km", "--from", "nan"],
        ["scan-loss", "--config", "paper50km", "--from=-inf"],
    ], ids=["step nan", "step inf", "to inf", "from nan", "from -inf"])
    def test_non_finite_grid_is_a_data_error(self, tmp_path, capsys, argv):
        out = tmp_path / "grid.csv"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert "must be finite" in err

    def test_negative_grid_start_is_a_data_error(self, tmp_path, capsys):
        # a loss below 0 dB is a gain, which db_to_linear rejects; the grid rejects it first
        out = tmp_path / "grid.csv"
        code, stdout, err = run_cli(capsys, "scan-loss", "--config", "paper50km", "--from=-1",
                                    "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert "need 0 <= --from <= --to" in err

    # a point costs about 2 KB, so these would fill memory, or overflow, if they were built
    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "0.0003"])
    def test_oversized_grid_is_a_data_error(self, tmp_path, capsys, step):
        out = tmp_path / "grid.csv"
        code, stdout, err = run_cli(capsys, "scan-loss", "--config", "paper50km",
                                    "--step", step, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert "exceeds the limit of 100,000" in err

    def test_scan_without_errors_is_rejected_before_scanning(self, tmp_path, capsys):
        # the default config has e_d = 0 and y0_bob = 0: E_N Q_N is zero at every loss
        out = tmp_path / "none.csv"
        code, stdout, err = run_cli(capsys, "scan-loss", "--from", "0", "--to", "2",
                                    "--step", "1", "--out", str(out))
        assert code == 3 and stdout == "" and not out.exists()
        assert all(name in err for name in ("e_d", "y0_bob", "u_alpha=0"))
        code, stdout, _ = run_cli(capsys, "scan-loss", "--from", "0", "--to", "2",
                                  "--step", "1", "--set", "u_alpha=0")
        assert code == 0 and "(3 points)" in stdout

    def test_scan_without_key_on_its_grid_says_so(self, capsys):
        code, stdout, err = run_cli(capsys, "scan-loss", "--config", "paper50km",
                                    "--from", "40", "--to", "41", "--step", "0.5")
        assert (code, err) == (0, "")
        assert stdout.count(": below the grid (rate zero everywhere)\n") == 2

    def test_scan_single_point_matches_estimate(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, stdout, _ = run_cli(capsys, "scan-loss", "--config", "paper50km",
                                  "--from", "30.4", "--to", "30.4", "--step", "1",
                                  "--out", str(out))
        assert code == 0
        row = read_results(out)[0]
        _, est_out, _ = run_cli(
            capsys, "estimate", "--config", "paper50km",
            "--q-n", repr(row.q_n), "--q-t", repr(row.q_t),
            "--e-n", repr(row.e_n), "--e-t", repr(row.e_t))
        key_bits = float(est_out.split("key length     :")[1].split()[0])
        assert key_bits == pytest.approx(row.key_bits, rel=0.10)


class TestVirtualExperiments:
    def test_hbt_reports_g2(self, capsys):
        code, stdout, _ = run_cli(capsys, "hbt", "--mu0", "0.2", "--pulses", "2000000",
                                  "--seed", "1", "--detector-eff", "0.15")
        assert code == 0
        g2 = float(stdout.split("g2(0)          :")[1].split()[0])
        assert g2 == pytest.approx(1.0, abs=0.1)

    def test_hbt_on_a_thermal_source(self, capsys):
        # a single thermal mode doubles the zero-delay bin; about 900 coincidences there
        code, stdout, _ = run_cli(capsys, "hbt", "--source", "thermal", "--mu0", "0.2",
                                  "--pulses", "2000000", "--seed", "1", "--detector-eff", "0.15")
        assert code == 0
        g2 = float(stdout.split("g2(0)          :")[1].split()[0])
        assert g2 == pytest.approx(2.0, abs=0.35)

    def test_hbt_on_a_many_mode_source(self, capsys):
        code, stdout, _ = run_cli(capsys, "hbt", "--source", "multimode", "--k-modes",
                                  "100000000", "--mu0", "0.5", "--pulses", "1e5")
        assert code == 0 and "g2(0)" in stdout

    def test_hbt_without_zero_delay_coincidences_has_an_uncertainty(self, capsys):
        # 0 zero-delay and 2 off-zero coincidences: g2(0) reads 0, but the counts allow more
        code, stdout, _ = run_cli(capsys, "hbt", "--source", "multimode", "--pulses", "1e4")
        g2, _, sigma = stdout.split("g2(0)          :")[1].split()[:3]
        assert code == 0 and float(g2) == 0.0 and float(sigma) > 0.0

    def test_car_then_calibrate_round_trip(self, capsys):
        code, stdout, _ = run_cli(capsys, "car", "--mu0", "0.1", "--pulses", "8000000",
                                  "--seed", "2", "--set", "eta_a=0.2", "--set", "eta_s_db=0.0",
                                  "--signal-eff", "0.2")
        assert code == 0
        mu0 = float(stdout.split("mu0 (inverted) :")[1].split()[0])
        assert mu0 == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("argv, digest", [
        (["hbt", "--source", "thermal", "--mu0", "0.1"],
         "1792adad78a1a5aa5caceb55e0657aef18c6f81e22164c9a9bdf1a9465025c5f"),
        (["hbt", "--source", "poisson", "--mu0", "2", "--detector-eff", "0.5"],
         "d98cc05bf3ea3b59d1318a95bf332d209bb4fddf368c7348634aadeceba1a70b"),
        (["hbt", "--source", "multimode", "--mu0", "0.5"],
         "67f6722d4da2e1dd203e79307c8c76abf7d88c1cb22a6e911e2844246a7c9590"),
        (["car", "--mu0", "0.1", "--set", "eta_a=0.2", "--signal-eff", "0.2"],
         "d7ba61b17317c5b91c01be10149976ba406faa3a7701602fb10aa0a63571a960"),
    ], ids=["hbt-thermal", "hbt-poisson", "hbt-multimode", "car"])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        # digests of the report over three blocks, so that pairs across the block edges
        # count; any change to a drawn or counted value fails here, with one worker or two
        pinned_under = (f"pinned under numpy 2.4.6, running numpy {np.__version__}; "
                        "the samplers' streams may differ across numpy versions")
        for workers in ("1", "2"):
            code, stdout, _ = run_cli(capsys, *argv, "--pulses", "3e6", "--seed", "11",
                                      "--workers", workers)
            assert code == 0
            assert hashlib.sha256(stdout.encode()).hexdigest() == digest, pinned_under

    def test_car_without_coincidences_prints_no_estimate(self, capsys):
        code, stdout, _ = run_cli(capsys, "car", "--config", "paper50km", "--pulses", "1000")
        assert code == 0 and "coincidences   : 0\n" in stdout and "mu0" not in stdout

    def test_calibrate_trigger_rate(self, capsys):
        code, stdout, _ = run_cli(capsys, "calibrate", "--trigger-rate", "0.0665",
                                  "--mu0", "2.329")
        assert code == 0
        eta_a = float(stdout.split("eta_a          :")[1].split()[0])
        assert eta_a == pytest.approx(0.0295, abs=2e-4)
        # the inversion takes no heralding dark count, and its help says so
        code, stdout, _ = run_cli(capsys, "calibrate", "--help")
        assert code == 0 and "y0_alice = 0" in " ".join(stdout.split())

    def test_calibrate_requires_one_mode(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate")
        assert code == 2


class TestHelp:
    def test_help_documents_config_keys_with_units(self, capsys):
        code, stdout, _ = run_cli(capsys, "--help")
        assert code == 0
        for key in ("mu0", "eta_s_db", "eta_a", "y0_bob", "e_d", "f", "u_alpha", "n_pulses"):
            assert key in stdout
        assert "dB" in stdout and "linear" in stdout

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "nonsense-command")
        assert code == 1

    @pytest.mark.parametrize("command", ["simulate", "hbt", "car"])
    def test_zero_workers_is_a_usage_error(self, capsys, command):
        code, stdout, err = run_cli(capsys, command, "--pulses", "1000", "--workers", "0")
        assert (code, stdout, err) == (1, "", "error: workers must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv", [
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--workers", "2"],
        ["scan-loss", "--config", "paper50km", "--workers", "2"],
        ["reproduce", "table1", "--workers", "0"],
        ["simulate", "--pulses", "1000", "--events", "x.csv", "--events-format", "npy"],
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--mode", "asymptotic"],
        ["scan-loss", "--config", "paper50km", "--mode", "finite"],
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--pulses", "1e9"],
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--triggers", "3.99e9"],
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--u-alpha", "0"],
        ["reproduce", "fig4", "--step", "0.5"],
        ["reproduce", "fig4", "--vacuum-credit", "calibrated"],
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306", "--vacuum-credit", "zero"],
        ["scan-loss", "--config", "paper50km", "--vacuum-credit", "zero"],
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err

    def test_hbt_without_off_zero_coincidences(self, capsys):
        code, _, err = run_cli(capsys, "hbt", "--pulses", "1000")
        assert code == 3 and "off-zero" in err

    @pytest.mark.parametrize("pulses", ["1", "5"])
    def test_hbt_delay_without_pulse_pairs(self, capsys, pulses):
        # every pulse clicks both arms, so only the empty delay-5 bin is undefined
        code, _, err = run_cli(capsys, "hbt", "--pulses", pulses, "--mu0", "30",
                               "--detector-eff", "0.9")
        assert code == 3 and "no pulse pairs" in err

    def test_numeric_error_exit_code(self, capsys):
        # a dark source gives no beam-splitter singles: g2 is undefined
        code, _, err = run_cli(capsys, "hbt", "--mu0", "0", "--pulses", "1000",
                               "--seed", "1")
        assert code == 3
        assert "singles" in err or "g2" in err


# direct published rates, so that estimate reads no input file
DIRECT = ["--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6", "--e-n", "0.0399",
          "--e-t", "0.0306"]


@pytest.mark.parametrize("argv, digests", [
    (["reproduce", "fig4", "--out", "fig4.csv"],
     ("4aa1b59ac8c3a589c8e37f66515972335127f93bdb1abe2cc3a8b6fb87e33a53",
      "fef72d426ccc07dd8690d8a3efba4b9f13618d2ed4e0a1d31f4107882c495c72")),
    (["estimate", *DIRECT, "--out", "est.csv"],
     ("f5f83b6834ce0a9ce9c2ad0b27bad32559ce23df3a425908f6fb4fae47c62c7d",
      "72dfb81e338bbec6ef5c57a0731be03b02e55eb6ad6b3e44a1e8d0ef861e8c07")),
    (["estimate", "--config", "paper0km", "--q-n", "2.13e-4", "--q-t", "2.21e-5",
      "--e-n", "0.0212", "--e-t", "0.0197"],
     ("13719600566c1eba13932903db0b8474e8ef62f8ed3e6f0660cc24d63ec59f30", None)),
    (["estimate", "--config", "paper25km", "--q-n", "1.02e-4", "--q-t", "1.02e-5",
      "--e-n", "0.0315", "--e-t", "0.0281"],
     ("bb26239f6d3ce4284147bda726399a58e1dd7c5ffacca2ff05258339ba343f46", None)),
    (["estimate", *DIRECT[:6], "--e-n", "0.3", "--e-t", "0.3", "--out", "clamped.csv"],
     ("8180b833df0bcb053f0a1930288091ac47ea1a85eec52c23e40d8f4ef657026b",
      "a69cabd59392860ea3de3f5c9bd3f6a582acb990683d57f7d3e5e4d37cb02d5c")),
    (["scan-loss", "--config", "paper25km", "--out", "scan25.csv"],
     ("fa2b7ec4251041805423b6c4bd45a862937d14fc176215afa2751ac20b272ff7",
      "f5e170ea0e0b52a5c242e089a1eb40bf114b5c338d6c0ecd3100b37351931603")),
    (["estimate", "--config", "paper50km", "--events", "ev.csv", "--calibrate-eta-a"],
     ("ecf0fa1933f5cb6bbfdcdb23b42da065ec378598a23d880d48eef0f646fdd722", None)),
    (["estimate", "--config", "paper50km", "--events", "ev.csv", "--calibrate-eta-a", "--set",
      "u_alpha=0"],
     ("db109b474a857bdf1fb04015861fab2d6d6aa5b1f140b07983a995fb7a2da49e", None)),
], ids=["fig4", "paper50km", "paper0km", "paper25km", "fully clamped", "scan-loss",
        "events calibrated", "events calibrated asymptotic"])
def test_estimator_output_bytes_pinned(tmp_path, capsys, monkeypatch, argv, digests):
    # digests of the stdout and the results table on the published rates, a fully clamped
    # estimate and a 25 km scan, and of an estimate from a simulated event log with eta_a
    # recalibrated from it; any change to an estimated value, a clamp flag or the layout of
    # either fails here (the estimates were re-pinned when the vacuum credit went: each
    # digest is that of the credit-free estimate from before)
    monkeypatch.chdir(tmp_path)
    if "ev.csv" in argv:
        assert run_cli(capsys, "simulate", "--config", "paper50km", "--set", "eta_db=3",
                       "--seed", "1", "--pulses", "2e6", "--events", "ev.csv")[0] == 0
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == digests[0]
    if digests[1] is not None:
        assert hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest() == digests[1]


@pytest.mark.parametrize("key", [key for key, row in _SCHEMA.items() if row[1] is not None])
def test_schema_range_ends_are_the_libraries_ends(capsys, key):
    # each finite end of a key's range is a value the parameter classes take, and the value
    # just beyond it is refused by name with exit 2, never by a class with exit 1
    kind, bounds = _SCHEMA[key][:2]
    for end, beyond in zip(bounds, (-math.inf, math.inf)):
        if not math.isfinite(end):
            continue
        manifest = RunManifest(values={key: kind(end)})
        for to_params in (manifest.to_source_params, manifest.to_link_params,
                          manifest.to_protocol_params, manifest.to_sim_config):
            to_params()
        outside = end + (1 if beyond > 0 else -1) if kind is int else math.nextafter(end, beyond)
        code, stdout, err = run_cli(capsys, "estimate", *DIRECT, "--set", f"{key}={outside!r}")
        assert (code, stdout) == (2, "") and err.startswith(f"error: key {key}: value ")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--set", "eta_a"], "override 'eta_a' must look like key=value"),
    (["simulate", "--pulses", "1000", "--seed", "-1"],
     "key seed: value -1 out of range [0, 18446744073709551615]"),
    (["simulate", "--pulses", "1000", "--seed", "18446744073709551616"],
     "key seed: value 18446744073709551616 out of range [0, 18446744073709551615]"),
    (["estimate", *DIRECT[:-2]], "direct input needs all four rates; missing --e-t"),
    (["estimate", "--config", "paper50km", "--e-n", "0.03"],
     "direct input needs all four rates; missing --q-n, --q-t, --e-t"),
    (["estimate", "--config", "paper50km", "--tally", "t.tally", "--e-n", "0.3"],
     "provide exactly one input: --tally, --events, or the direct --q-n/--q-t/--e-n/--e-t "
     "rates"),
    (["calibrate", "--trigger-rate", "0.0665"], "--trigger-rate needs --mu0"),
], ids=["--set without =", "seed -1", "seed 2**64", "three direct rates", "one QBER alone",
        "a QBER beside a tally", "trigger rate without mu0"])
def test_malformed_or_incomplete_input_is_a_data_error(capsys, argv, message):
    # Philox takes a 64-bit key, so a seed outside [0, 2**64 - 1] would run as another seed;
    # any direct rate counts as an input, so a QBER given beside a tally is never dropped (the
    # two inputs are refused before the tally is read)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--pulses", "1000", "--out"],
    ["simulate", "--pulses", "1000", "--events"],
    ["estimate", *DIRECT, "--out"],
    ["scan-loss", "--config", "paper50km", "--to", "1", "--out"],
    ["reproduce", "fig4", "--out"],
], ids=["simulate --out", "simulate --events", "estimate --out", "scan-loss --out",
        "reproduce fig4 --out"])
def test_unwritable_output_path_is_a_data_error(tmp_path, capsys, argv):
    # the run completes; the file it cannot write is a fault of the data, not a traceback
    path = tmp_path / "no-such-directory" / "out.csv"
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and err.startswith(f"error: {path}: not a writable file")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, work", [
    (["simulate", "--pulses", "1000", "--out"], (event_sim, "simulate_tally")),
    (["simulate", "--pulses", "1000", "--out", "ok.tally", "--events"],
     (event_sim, "simulate_run")),
    (["estimate", *DIRECT, "--out"], (cli, "key_rate")),
    (["scan-loss", "--config", "paper50km", "--to", "1", "--out"], (cli, "scan_loss")),
    (["reproduce", "fig4", "--out"], (cli, "scan_loss")),
], ids=["simulate --out", "simulate --events", "estimate --out", "scan-loss --out",
        "reproduce fig4 --out"])
def test_output_paths_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    # an unwritable path exits 2 before the run, estimate or scan starts, and leaves no file
    def never(*args, **kwargs):
        raise AssertionError("the work started before the output paths were checked")

    monkeypatch.setattr(*work, never)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "no-such-directory" / "out.csv"
    code, stdout, err = run_cli(capsys, *argv, str(path))
    assert (code, stdout, err) == (2, "", f"error: {path}: not a writable file\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("events", ["out.tally", "sub/../out.tally", "link.tally"],
                         ids=["same name", "other spelling", "symlink"])
def test_two_outputs_naming_one_file_is_a_data_error(tmp_path, capsys, monkeypatch, events):
    # the event log would overwrite the tally that simulate reports as written
    def never(*args, **kwargs):
        raise AssertionError("the run started before the output paths were checked")

    monkeypatch.setattr(event_sim, "simulate_run", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.tally").symlink_to(tmp_path / "out.tally")
    code, stdout, err = run_cli(capsys, "simulate", "--pulses", "1000", "--out", "out.tally",
                                "--events", events)
    assert (code, stdout) == (2, "")
    assert err == f"error: {events}: names the same file as another output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tally", "sub"]


@pytest.mark.parametrize("argv, target, work", [
    (["simulate", "--pulses", "1000", "--config", "in.cfg", "--out"], "in.cfg",
     (event_sim, "simulate_tally")),
    (["simulate", "--pulses", "1000", "--config", "in.cfg", "--events"], "in.cfg",
     (event_sim, "simulate_run")),
    (["estimate", "--config", "paper50km", "--tally", "in.tally", "--out"], "in.tally",
     (cli, "key_rate")),
    (["estimate", "--config", "paper50km", "--events", "in.csv", "--out"], "in.csv",
     (cli, "key_rate")),
    (["estimate", *DIRECT[2:], "--config", "in.cfg", "--out"], "in.cfg", (cli, "key_rate")),
    (["scan-loss", "--to", "1", "--config", "in.cfg", "--out"], "in.cfg", (cli, "scan_loss")),
], ids=["simulate config", "simulate events", "estimate tally", "estimate events",
        "estimate config", "scan-loss config"])
def test_an_output_naming_an_input_is_a_data_error(tmp_path, capsys, monkeypatch, argv, target,
                                                   work):
    # writing the output would overwrite the file the command reads, which then no longer
    # reads back as its kind; the check also sees through another spelling of the path
    def never(*args, **kwargs):
        raise AssertionError("the work started before the output paths were checked")

    monkeypatch.chdir(tmp_path)
    write_config(preset_manifest("paper50km"), "in.cfg")
    write_tally(Tally(n_pulses=10, sent_n_match=10, det_n_match=3, err_n=1), "in.tally")
    write_events(EventLog(sent=(0, 1, 0, 0), rows=np.empty(0, EVENT_DTYPE)), "in.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(*work, never)
    (tmp_path / "sub").mkdir()
    path = f"sub/../{target}"
    code, stdout, err = run_cli(capsys, *argv, path)
    assert (code, stdout) == (2, "")
    assert err == f"error: {path}: names the same file as an input\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class TestOneParser:
    """The parser is built on the first call of a process and serves every later one, so no
    call may leave anything in it that the next call sees."""

    SIM = ["simulate", "--config", "paper0km", "--pulses", "20000", "--seed", "7"]

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()

    def _alone(self, capsys, *argv):
        """The output of ``argv`` as the first call of a process."""
        cli.build_parser.cache_clear()
        alone = run_cli(capsys, *argv)
        cli.build_parser.cache_clear()
        return alone

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_set_does_not_reach_the_next_call(self, capsys):
        alone = self._alone(capsys, *self.SIM)
        assert run_cli(capsys, *self.SIM, "--set", "mu0=0.2") != alone
        assert run_cli(capsys, *self.SIM) == alone

    def test_usage_error_leaves_nothing_behind(self, capsys):
        # the --set is parsed before the bad --workers fails the call
        alone = self._alone(capsys, *self.SIM)
        assert run_cli(capsys, *self.SIM, "--set", "mu0=0.2", "--workers", "x")[0] == 1
        assert run_cli(capsys, *self.SIM) == alone

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_is_the_same_on_every_call(self, capsys, argv):
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run_cli(capsys, *argv) == first


def test_a_call_leaves_no_setting_to_the_next(capsys, monkeypatch):
    # calls share one process: --set and --mu0 must not outlive their call
    seen = []

    def spy(source, signal_eff, config, workers):
        seen.append((source.mu0, source.eta_a, config.seed))
        return real(source, signal_eff, config, workers=workers)

    real = event_sim.simulate_car
    monkeypatch.setattr(event_sim, "simulate_car", spy)
    base = ["car", "--config", "paper50km", "--pulses", "1000"]
    assert run_cli(capsys, *base, "--set", "eta_a=0.2", "--set", "seed=7", "--mu0", "0.1")[0] == 0
    assert run_cli(capsys, *base)[0] == 0
    preset = preset_manifest("paper50km")
    assert seen == [(0.1, 0.2, 7), (preset["mu0"], preset["eta_a"], preset["seed"])]


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--config", "paper50km", "--pulses", "1000", "--set", "eta_db=inf"], "eta_db"),
    (["simulate", "--config", "paper50km", "--pulses", "1000", "--set", "mu0=inf"], "mu0"),
    (["hbt", "--pulses", "1000", "--mu0", "inf"], "mu0"),
    (["estimate", *DIRECT, "--set", "u_alpha=inf"], "u_alpha"),
    (["estimate", *DIRECT, "--set", "f=inf"], "f"),
], ids=["simulate eta_db", "simulate mu0", "hbt --mu0", "estimate u_alpha", "estimate f"])
def test_non_finite_config_value_is_a_data_error(capsys, argv, key):
    # a bound of inf is no licence for the value inf: the run would print a key of 0
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: key {key}: expected a finite number, got inf\n")


# run in a fresh interpreter where any import of scipy, at module level or inside a function,
# raises: the library and the command line need numpy and the standard library only
NO_SCIPY_CHILD = """\
import sys
sys.modules["scipy"] = None
from pdqkd.cli import main
for argv in {argvs!r}:
    assert main(argv) == 0, argv
del sys.modules["scipy"]
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, loaded
"""


def test_commands_never_import_scipy(tmp_path):
    argvs = [
        ["estimate", "--config", "paper50km", "--q-n", "2.43e-5", "--q-t", "2.50e-6",
         "--e-n", "0.0399", "--e-t", "0.0306"],
        ["reproduce", "table1"],
        ["simulate", "--config", "paper50km", "--pulses", "1e5", "--seed", "1"],  # one block
        ["hbt", "--source", "multimode", "--pulses", "1e4"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD.format(argvs=argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
