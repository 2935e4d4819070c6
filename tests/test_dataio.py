"""Round-trip identities and failure reporting of the file formats."""

import numpy as np
import pytest

from pdqkd.dataio import (EVENTS_HEADER, RESULTS_HEADER, TALLY_HEADER, ResultsRow,
                          RunManifest, read_config, read_events, read_results, read_tally,
                          tally_from_events, write_config, write_events,
                          write_results, write_tally)
from pdqkd.errors import ConfigError, DataFormatError, ParameterError
from pdqkd.event_sim import EVENT_DTYPE, EventLog, SimConfig, Tally, simulate_run
from pdqkd.presets import preset_manifest


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        manifest = read_config(path)
        assert manifest == RunManifest(values={})
        assert manifest["u_alpha"] == 5.0 and manifest["f"] == 1.2

    def test_write_read_write_is_byte_identical(self, tmp_path):
        manifest = preset_manifest("paper50km")
        p1, p2 = tmp_path / "a.cfg", tmp_path / "b.cfg"
        write_config(manifest, p1)
        write_config(read_config(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_is_deterministic_and_old_header_lines_are_comments(self, tmp_path):
        # configs once carried '# version' and '# created' lines; they still read
        manifest = preset_manifest("paper50km")
        new, old = tmp_path / "new.cfg", tmp_path / "old.cfg"
        write_config(manifest, new)
        head, _, body = new.read_text().partition("\n")
        assert head == "# pdqkd:config:v1" and "#" not in body
        old.write_text(f"{head}\n# version = 1\n# created = 2024-07-17T09:30:00+00:00\n{body}")
        assert read_config(old) == manifest
        write_config(read_config(old), old)
        assert old.read_bytes() == new.read_bytes()

    def test_paper_config_round_trips_values(self, tmp_path):
        manifest = preset_manifest("paper50km")
        path = tmp_path / "p50.cfg"
        write_config(manifest, path)
        back = read_config(path)
        assert back.values == manifest.values
        assert back.to_source_params().mu == pytest.approx(0.028, rel=1e-12)
        assert back["eta_db"] == 30.4

    def test_unknown_key_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu0 = 1.0\nwavelength = 1556\n")
        with pytest.raises(ConfigError, match="unknown keys: wavelength"):
            read_config(path)

    def test_range_error_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta_a = 1.5\n")
        with pytest.raises(ConfigError, match="eta_a"):
            read_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu0 = 1.0\nthis line has no separator\n")
        with pytest.raises(ConfigError, match=":2:"):
            read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("mu0 = 1.0\nmu0 = 2.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config(path)

    def test_retired_keys_warn_once_and_are_ignored(self, tmp_path, capsys):
        # configs written before the engine fixed its batches hold all four retired keys
        manifest = preset_manifest("paper50km")
        path = tmp_path / "old.cfg"
        write_config(manifest, path)
        path.write_text(path.read_text() + "batch_size = 4000000\nbasis_bias = 0.5\n"
                        "e0 = 0.5\nq = 0.5\n")
        assert read_config(path) == manifest
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 4 and all(w.startswith("warning:") for w in warnings)
        assert [w.split()[3] for w in warnings] == ["batch_size", "basis_bias", "e0", "q"]

    @pytest.mark.parametrize("line", ["basis_bias = 0.9", "batch_size = 0"])
    def test_retired_key_outside_its_old_reading_is_an_error(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"mu0 = 0.1\n{line}\n")
        with pytest.raises(ConfigError, match=f":2: key {line.split()[0]}"):
            read_config(path)

    def test_overrides_validate(self):
        manifest = RunManifest(values={})
        with pytest.raises(ConfigError, match="unknown"):
            manifest.with_overrides({"nope": "1"})
        with pytest.raises(ConfigError, match="eta_a"):
            manifest.with_overrides({"eta_a": "2.0"})
        bumped = manifest.with_overrides({"mu0": "2.5", "seed": "42"})
        assert bumped["mu0"] == 2.5 and bumped["seed"] == 42

    @pytest.mark.parametrize("key", ["mu0", "eta_s_db", "eta_db", "f", "u_alpha"])
    def test_non_finite_value_is_an_error(self, tmp_path, key):
        # the keys without an upper bound; a file line fails as its override does
        for text in ("inf", "-inf", "nan"):
            with pytest.raises(ConfigError, match=f"key {key}: expected a finite number"):
                RunManifest(values={}).with_overrides({key: text})
        path = tmp_path / "inf.cfg"
        path.write_text(f"{key} = inf\n")
        with pytest.raises(ConfigError, match=f":1: key {key}: expected a finite number"):
            read_config(path)


class TestEvents:
    @staticmethod
    def _sample_log(n=10_000):
        manifest = preset_manifest("paper50km")
        source = manifest.to_source_params()
        from pdqkd.link_model import LinkParams, db_to_linear
        link = LinkParams(eta=db_to_linear(8.0), y0=1.6e-6, e_d=0.012)
        tally, log = simulate_run(source, link, SimConfig(n_pulses=n, seed=99))
        return tally, log

    def test_empty_stream_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_events(EventLog(sent=(0, 0, 0, 0), rows=np.empty(0, dtype=EVENT_DTYPE)), path)
        lines = path.read_text().splitlines()
        assert lines[2] == EVENTS_HEADER and len(lines) == 3
        assert len(read_events(path)) == 0

    def test_csv_round_trip_10k(self, tmp_path):
        _, log = self._sample_log()
        path = tmp_path / "events.csv"
        write_events(log, path)
        assert read_events(path) == log

    def test_log_holds_the_detections_and_sent_cells(self):
        tally, log = self._sample_log()
        assert len(log) == tally.detections_n + tally.detections_t > 0
        assert log.sent == (tally.sent_n_mismatch, tally.sent_n_match,
                            tally.sent_t_mismatch, tally.sent_t_match)
        # the log was counted when made, and its rows cannot change under its tally
        assert log.tally == tally and not log.rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            log.rows["bob_bit"] = 0

    def test_pipeline_identity(self, tmp_path):
        manifest = preset_manifest("paper50km")
        source = manifest.to_source_params()
        from pdqkd.link_model import LinkParams, db_to_linear
        link = LinkParams(eta=db_to_linear(8.0), y0=1.6e-6, e_d=0.012)
        tally, log = simulate_run(source, link, SimConfig(n_pulses=20_000, seed=5))
        path = tmp_path / "ev.csv"
        write_events(log, path)
        assert tally_from_events(read_events(path)) == tally

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# pdqkd:events:v2\nsent_n_mismatch=5,sent_n_match=0,sent_t_mismatch=0,"
                        f"sent_t_match=0\n{EVENTS_HEADER}\n1,0,0\n")
        with pytest.raises(DataFormatError, match="row 4"):
            read_events(path)

    def test_out_of_order_rejected(self, tmp_path):
        rows = np.zeros(2, dtype=EVENT_DTYPE)
        rows["pulse_id"] = [5, 3]
        with pytest.raises(DataFormatError, match="increasing"):
            write_events(EventLog(sent=(10, 0, 0, 0), rows=rows), tmp_path / "x.csv")
        # the log itself refuses bad ids, naming the record in its message and in ``row``
        for ids, message in (([5, 3], "pulse_id not strictly increasing at record 1"),
                             ([3, 10], "pulse_id not below the 10 pulses sent at record 1")):
            rows["pulse_id"] = ids
            with pytest.raises(DataFormatError) as info:
                EventLog(sent=(10, 0, 0, 0), rows=rows)
            assert str(info.value) == message and info.value.row == 1

    def test_bad_flag_or_overfull_cell_rejected_when_made(self):
        rows = np.zeros(3, dtype=EVENT_DTYPE)
        rows["pulse_id"] = [0, 1, 2]
        rows["bob_bit"][2] = 2
        with pytest.raises(DataFormatError) as info:
            EventLog(sent=(10, 0, 0, 0), rows=rows)
        assert str(info.value) == "bob_bit must be 0 or 1, got 2 at record 2"
        assert info.value.row == 2
        # three detections in the N match cell, which sent two pulses
        rows["bob_bit"][2] = 0
        with pytest.raises(DataFormatError, match="detections cannot exceed the pulses sent"):
            EventLog(sent=(8, 2, 0, 0), rows=rows)
        # the N match cell sent one pulse, so its second record, record 1, is the first too many
        with pytest.raises(DataFormatError) as info:
            EventLog(sent=(9, 1, 0, 0), rows=rows)
        assert str(info.value) == ("detections cannot exceed the pulses sent in their cell "
                                   "at record 1")
        assert info.value.row == 1

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_first_bad_flag_is_named_by_field_then_record(self, contiguous):
        # bob_bit is bad at record 1 and triggered at record 2: the earlier field is named
        # first, as a check of one field after another would, on a strided view too
        rows = np.zeros(6 if contiguous else 12, dtype=EVENT_DTYPE)
        rows = rows if contiguous else rows[::2]
        rows["pulse_id"] = range(6)
        rows["bob_bit"][1], rows["triggered"][2] = 5, 2
        with pytest.raises(DataFormatError) as info:
            EventLog(sent=(10, 0, 0, 0), rows=rows)
        assert str(info.value) == "triggered must be 0 or 1, got 2 at record 2"
        assert info.value.row == 2

    def test_out_of_order_reported_on_its_line(self, tmp_path):
        # tag, sent counts and header take lines 1-3, so record 2 sits on line 6
        path = tmp_path / "bad.csv"
        path.write_text("# pdqkd:events:v2\nsent_n_mismatch=9,sent_n_match=0,sent_t_mismatch=0,"
                        f"sent_t_match=0\n{EVENTS_HEADER}\n"
                        "1,0,0,0,1,0,0,0\n4,0,0,0,1,0,0,0\n2,0,0,0,1,0,0,0\n")
        with pytest.raises(DataFormatError) as info:
            read_events(path)
        assert info.value.row == 6 and "at record 2" in str(info.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sent_n_mismatch=0,sent_n_match=0,sent_t_mismatch=0,sent_t_match=0\n"
                        "pulse,stuff\n")
        with pytest.raises(DataFormatError, match="header"):
            read_events(path)

    def test_not_an_event_log_rejected(self, tmp_path):
        rows = np.zeros(1, dtype=[("pulse_id", "<u8")])
        with pytest.raises(DataFormatError, match="EventLog"):
            write_events(EventLog(sent=(1, 0, 0, 0), rows=rows), tmp_path / "x.csv")
        # a log's parts that were never made into an EventLog are not one
        parts = ((1, 0, 0, 0), np.zeros(1, dtype=EVENT_DTYPE))
        with pytest.raises(DataFormatError, match="events must be an EventLog"):
            write_events(parts, tmp_path / "x.csv")
        with pytest.raises(DataFormatError, match="events must be an EventLog"):
            tally_from_events(parts)
        assert not (tmp_path / "x.csv").exists()


class TestTallyFile:
    def test_round_trip(self, tmp_path):
        manifest = preset_manifest("paper50km")
        from pdqkd.link_model import LinkParams, db_to_linear
        link = LinkParams(eta=db_to_linear(8.0), y0=1.6e-6, e_d=0.012)
        tally, _ = simulate_run(manifest.to_source_params(), link,
                                SimConfig(n_pulses=30_000, seed=6))
        path = tmp_path / "tally.txt"
        write_tally(tally, path)
        assert read_tally(path) == tally

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n_pulses,bogus\n10,3\n")
        with pytest.raises(DataFormatError, match="bogus"):
            read_tally(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n_pulses\n10\n")
        with pytest.raises(DataFormatError, match="missing"):
            read_tally(path)

    def test_multiple_rows_rejected(self, tmp_path):
        from pdqkd.dataio import TALLY_HEADER
        path = tmp_path / "bad.csv"
        zeros = ",".join("0" for _ in TALLY_HEADER.split(","))
        path.write_text(f"{TALLY_HEADER}\n{zeros}\n{zeros}\n")
        with pytest.raises(DataFormatError, match="one tally row"):
            read_tally(path)


class TestResults:
    @staticmethod
    def _row(loss=10.0):
        return ResultsRow(loss_db=loss, q_n=2.43e-5, q_t=2.5e-6, e_n=0.0399,
                          e_t=0.0306, y1_low=5.627e-4, e1_up=0.0574,
                          r_n=1.94e-6, r_t=2.4e-7, r=2.19e-6, key_bits=1.3e5,
                          clamped_e1=True)

    def test_single_row_round_trip(self, tmp_path):
        path = tmp_path / "res.csv"
        write_results([self._row()], path)
        back = read_results(path)
        assert back == [self._row()]

    def test_full_precision_round_trip(self, tmp_path):
        # exact float fidelity (stronger than the 12-digit floor)
        row = ResultsRow(loss_db=31.7, q_n=1 / 3, q_t=2.5000000001e-6, e_n=0.1,
                         e_t=0.2, y1_low=np.nextafter(5e-4, 1), e1_up=0.3,
                         r_n=1e-300, r_t=0.0, r=1e-300, key_bits=0.1 + 0.2)
        path = tmp_path / "res.csv"
        write_results([row], path)
        assert read_results(path) == [row]

    def test_scan_emits_monotone_rate_column(self, tmp_path):
        from pdqkd.decoy_estimator import scan_loss
        manifest = preset_manifest("paper50km")
        scan = scan_loss(manifest.to_source_params(), manifest.to_link_params(),
                         manifest.to_protocol_params(),
                         [float(x) for x in np.arange(0.0, 35.5, 0.5)],
                         manifest["n_pulses"])
        rows = [ResultsRow.from_result(p.loss_db, p.result) for p in scan.points]
        path = tmp_path / "scan.csv"
        write_results(rows, path)
        rates = [r.r for r in read_results(path)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_results([], tmp_path / "nowhere.csv")

    def test_version_checked(self, tmp_path):
        path = tmp_path / "res.csv"
        path.write_text("# pdqkd:results:v999\nwhatever\n")
        with pytest.raises(DataFormatError, match="version"):
            read_results(path)


@pytest.mark.parametrize("reader, error", [
    (read_config, ConfigError), (read_tally, DataFormatError),
    (read_events, DataFormatError), (read_results, DataFormatError),
])
def test_binary_file_is_a_format_error(tmp_path, reader, error):
    path = tmp_path / "packed.npy"
    np.save(path, np.arange(10))
    with pytest.raises(error, match="not a readable text file") as info:
        reader(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("reader, writer, value", [
    (read_tally, write_tally, Tally(n_pulses=10, sent_n_match=10, det_n_match=3, err_n=1)),
    (read_events, write_events, EventLog(sent=(0, 10, 0, 0), rows=np.array(
        [(1, 0, 0, 1, 0, 1, 0, 0), (4, 0, 1, 0, 1, 1, 0, 0), (6, 0, 0, 0, 0, 0, 1, 0)],
        dtype=EVENT_DTYPE))),
    (read_results, write_results, [TestResults._row(), TestResults._row(12.5)]),
], ids=["tally", "events", "results"])
def test_table_reader_policy(tmp_path, reader, writer, value):
    path = tmp_path / "table.csv"
    writer(value, path)
    lines = path.read_text().splitlines()
    # blank lines, whitespace-only ones too, read as if they were not there
    path.write_text("\n \n".join(lines) + "\n\n\n")
    assert reader(path) == value
    # an error names the file's own line, also below a leading blank line
    path.write_text("\n" + "\n".join(lines[:-1] + ["1,x"]) + "\n")
    with pytest.raises(DataFormatError, match="expected") as info:
        reader(path)
    assert info.value.row == len(lines) + 1
    # the header's fields in another order do not read, nor do the records under it (a
    # tally read them until every table came to require its header exactly)
    at = next(i for i, line in enumerate(lines)
              if line in (TALLY_HEADER, EVENTS_HEADER, RESULTS_HEADER))
    flipped = lines[:at] + [",".join(reversed(line.split(","))) for line in lines[at:]]
    path.write_text("\n".join(flipped) + "\n")
    with pytest.raises(DataFormatError, match="header") as info:
        reader(path)
    assert info.value.row == at + 1


@pytest.mark.parametrize("writer, value", [
    (write_config, RunManifest(values={})), (write_tally, Tally()),
    (write_events, EventLog(sent=(0, 0, 0, 0), rows=np.empty(0, dtype=EVENT_DTYPE))),
    (write_results, [TestResults._row()]),
])
def test_unwritable_path_is_a_format_error(tmp_path, writer, value):
    path = tmp_path / "no-such-directory" / "out.csv"
    with pytest.raises(DataFormatError, match="not a writable file") as info:
        writer(value, path)
    assert info.value.path == str(path)
