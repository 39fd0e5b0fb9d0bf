"""Unit tests for the control-plane write-ahead journal."""

import json

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import Record, records_from_rows
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.service.bench import synth_trace
from repro.service.ledger import LedgerError, MultiplexedLedger, read_ledger
from repro.service.loop import ClusterBFTService
from repro.service.tenants import parse_trace
from repro.telemetry import Telemetry


def small_config(seed: int = 7) -> SystemConfig:
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, slots_per_node=2),
        bft=ClusterBFTConfig(f=1, replication=4),
        seed=seed,
    )


INPUTS = {"in": records_from_rows([(1, 10), (2, None), (1, 30)])}
SCRIPT = "A = LOAD 'in' AS (k:int, v:int);\nSTORE A INTO 'out';\n"


class TestValueCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, 3, 2.5, "s"):
            assert wal.value_from_json(wal.value_to_json(value)) == value

    def test_nested_tuple_round_trip(self):
        value = (1, ("a", None), 2.5)
        assert wal.value_from_json(wal.value_to_json(value)) == value

    def test_bag_is_canonically_ordered(self):
        # Bags carry no order; the codec sorts by encoded form so two
        # permutations serialize identically.
        a = wal.value_to_json([(2, "y"), (1, "x")])
        b = wal.value_to_json([(1, "x"), (2, "y")])
        assert a == b
        assert wal.value_from_json(a) == [(1, "x"), (2, "y")]

    def test_record_round_trip(self):
        record = Record((1, "x", (2, [("a",), ("b",)])))
        restored = wal.record_from_json(wal.record_to_json(record))
        assert restored == record

    def test_nested_record_round_trips_as_record(self):
        # Record.__eq__ is type-strict: a nested Record must come back
        # as a Record, not be coerced to a plain tuple (distinct tags).
        inner = Record((1, "x"))
        restored = wal.value_from_json(wal.value_to_json(inner))
        assert isinstance(restored, Record)
        assert restored == inner
        assert wal.value_to_json(inner) != wal.value_to_json((1, "x"))
        outer = Record((0, inner, (2, 3)))
        assert wal.record_from_json(wal.record_to_json(outer)) == outer

    def test_records_round_trip(self):
        records = records_from_rows([(1, 2), (3, None)])
        assert wal.records_from_json(wal.records_to_json(records)) == records

    def test_unsupported_type_raises(self):
        with pytest.raises(wal.JournalError):
            wal.value_to_json(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(wal.JournalError):
            wal.value_from_json({"x": []})


class TestConfigCodec:
    def test_round_trip(self):
        config = small_config(seed=99)
        restored = wal.config_from_json(wal.config_to_json(config))
        assert restored == config

    def test_broken_config_raises_journal_error(self):
        data = wal.config_to_json(small_config())
        del data["bft"]
        with pytest.raises(wal.JournalError):
            wal.config_from_json(data)


class TestWriter:
    def test_header_then_records_then_read_back(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        journal.append(wal.RUN_START, script_id="script0001")
        journal.append(wal.ATTEMPT_START, attempt=0)
        journal.close()
        records, warnings = wal.read_journal(path)
        assert warnings == []
        assert [r["kind"] for r in records] == [
            wal.HEADER,
            wal.RUN_START,
            wal.ATTEMPT_START,
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]
        header = records[0]
        assert header["schema"] == wal.SCHEMA_VERSION
        assert header["script_sha256"] == wal.script_sha256(SCRIPT)
        assert wal.records_from_json(header["inputs"]["in"]) == INPUTS["in"]

    def test_append_after_close_raises(self, tmp_path):
        journal = wal.Journal.create(
            str(tmp_path / "run.wal"), small_config(), SCRIPT, INPUTS
        )
        journal.close()
        assert journal.closed
        with pytest.raises(wal.JournalError):
            journal.append(wal.RUN_START)

    def test_crash_hook_fires_after_durability(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(
            path, small_config(), SCRIPT, INPUTS, crash_hook=wal.crash_at(2)
        )
        journal.append(wal.RUN_START)
        with pytest.raises(wal.ControlTierCrash):
            journal.append(wal.ATTEMPT_START, attempt=0)
        # The record that triggered the crash is on disk (write-ahead).
        journal.close()
        records, _ = wal.read_journal(path)
        assert records[-1]["kind"] == wal.ATTEMPT_START

    def test_last_seq_tracks_appends(self, tmp_path):
        journal = wal.Journal.create(
            str(tmp_path / "run.wal"), small_config(), SCRIPT, INPUTS
        )
        assert journal.last_seq == 0  # the header
        journal.append(wal.RUN_START)
        assert journal.last_seq == 1

    def test_create_refuses_existing_path(self, tmp_path):
        path = str(tmp_path / "run.wal")
        wal.Journal.create(path, small_config(), SCRIPT, INPUTS).close()
        with pytest.raises(wal.JournalError, match="already exists"):
            wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        # The existing journal is untouched (no silent truncation).
        records, _ = wal.read_journal(path)
        assert records[0]["kind"] == wal.HEADER

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        journal.append(wal.RUN_START, script_id="script0001")
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "attempt_sta')  # crash mid-append
        reopened = wal.Journal.reopen(path, next_seq=2)
        reopened.append(wal.RESUME, start_attempt=0)
        reopened.close()
        # The resume record must not merge into the partial line: the
        # journal stays readable, with the torn record simply gone.
        records, warnings = wal.read_journal(path)
        assert warnings == []
        assert [r["kind"] for r in records] == [
            wal.HEADER,
            wal.RUN_START,
            wal.RESUME,
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]


def write_journal(tmp_path, extra_lines=()):
    path = str(tmp_path / "run.wal")
    journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
    journal.append(wal.RUN_START, script_id="script0001")
    journal.close()
    return append_lines(path, extra_lines)


def write_ledger(tmp_path, extra_lines=()):
    path = str(tmp_path / "svc.ledger")
    ledger = MultiplexedLedger.create(path, '{"name": "t"}')
    ledger.append("admit", run="script0001", tenant="alice")
    ledger.close()
    return append_lines(path, extra_lines)


def append_lines(path, lines):
    with open(path, "a") as handle:
        handle.writelines(lines)
    return path


def rewrite_header(path, **changes):
    with open(path) as handle:
        lines = handle.readlines()
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)


#: (writer, reader, error, resume) for each durable log: both share one
#: reader and must fail the same way, each with its own error class.
LOGS = [
    pytest.param(
        (write_journal, wal.read_journal, wal.JournalError, resume_run),
        id="journal",
    ),
    pytest.param(
        (write_ledger, read_ledger, LedgerError, MultiplexedLedger.resume),
        id="ledger",
    ),
]


class TestReader:
    def test_torn_tail_is_tolerated(self, tmp_path):
        path = write_journal(tmp_path, ['{"kind": "attempt_start", "se'])
        records, warnings = wal.read_journal(path)
        assert [r["kind"] for r in records] == [wal.HEADER, wal.RUN_START]
        assert any("truncated" in w for w in warnings)

    @pytest.mark.parametrize("log", LOGS)
    def test_corrupt_middle_raises(self, tmp_path, log):
        write, read, error, _ = log
        path = write(
            tmp_path, ["garbage not json\n", '{"kind": "attempt_start", "seq": 2}\n']
        )
        with pytest.raises(error, match="corrupt"):
            read(path)

    def test_seq_gap_raises(self, tmp_path):
        path = write_journal(tmp_path, ['{"kind": "attempt_start", "seq": 5}\n'])
        with pytest.raises(wal.JournalError, match="seq gap"):
            wal.read_journal(path)

    def test_tampered_script_raises(self, tmp_path):
        path = write_journal(tmp_path)
        with open(path) as handle:
            script = json.loads(handle.readline())["script"]
        rewrite_header(path, script=script + "-- tampered\n")
        with pytest.raises(wal.JournalError, match="hash mismatch"):
            wal.read_journal(path)

    @pytest.mark.parametrize("log", LOGS)
    def test_wrong_schema_raises(self, tmp_path, log):
        write, read, error, _ = log
        path = write(tmp_path)
        rewrite_header(path, schema="repro.journal/v999")
        with pytest.raises(error, match="schema"):
            read(path)

    @pytest.mark.parametrize("log", LOGS)
    def test_empty_file_raises(self, tmp_path, log):
        _, read, error, _ = log
        path = tmp_path / "empty.log"
        path.write_text("")
        with pytest.raises(error, match="empty"):
            read(str(path))

    @pytest.mark.parametrize("log", LOGS)
    def test_missing_file_raises(self, tmp_path, log):
        _, read, error, _ = log
        with pytest.raises(error):
            read(str(tmp_path / "absent.log"))

    @pytest.mark.parametrize("log", LOGS)
    @pytest.mark.parametrize(
        "header, extra",
        [
            ("not json\n", []),  # only line, unparseable: nothing survives
            ("[1]\n", []),  # valid JSON, not an object
            (None, ["[1]\n"]),  # a non-object record after a good header
            (None, ['"s"\n', '{"kind": "x", "seq": 3}\n']),
        ],
        ids=["not-json-header", "list-header", "list-tail", "string-middle"],
    )
    def test_malformed_records_raise_the_log_error(self, tmp_path, log, header, extra):
        # Reading and resuming a malformed log must fail with the log's
        # own ReproError (a one-line CLI diagnostic), never a stray
        # JSONDecodeError or AttributeError.
        write, read, error, resume = log
        path = write(tmp_path, extra)
        if header is not None:
            with open(path, "w") as handle:
                handle.write(header)
        with pytest.raises(error):
            read(path)
        with pytest.raises(error):
            resume(path)


class TestAppendTraceEvents:
    """Every durable append past the header lands one trace event with
    the record's kind and seq (the ledger's also carry the run tag)."""

    def test_journaled_run_emits_one_event_per_record(self, tmp_path):
        path = str(tmp_path / "run.wal")
        config = small_config()
        journal = wal.Journal.create(path, config, SCRIPT, INPUTS, block_bytes=2048)
        telemetry = Telemetry.recording()
        controller = ClusterBFTController(
            config, block_bytes=2048, telemetry=telemetry, journal=journal
        )
        controller.load_input("in", INPUTS["in"])
        controller.run_assured(SCRIPT)
        records, _ = wal.read_journal(path)
        events = telemetry.sink.events("journal.append")
        # The header is written before the controller binds its tracer.
        assert [(e["attrs"]["kind"], e["attrs"]["seq"]) for e in events] == [
            (r["kind"], r["seq"]) for r in records[1:]
        ]
        assert len(events) > 3

    def test_service_ledger_events_carry_the_run(self, tmp_path):
        path = str(tmp_path / "svc.ledger")
        trace = parse_trace(synth_trace(tenants=2, jobs_per_tenant=2, seed=5))
        ledger = MultiplexedLedger.create(path, trace.text)
        telemetry = Telemetry.recording()
        ClusterBFTService(trace, telemetry=telemetry, ledger=ledger).run()
        records, _ = read_ledger(path)
        events = telemetry.sink.events("ledger.append")
        assert [
            (e["attrs"]["kind"], e["attrs"]["seq"], e["attrs"]["run"]) for e in events
        ] == [(r["kind"], r["seq"], r.get("run", "")) for r in records[1:]]
        assert any(e["attrs"]["run"] for e in events)
        assert not telemetry.sink.events("journal.append")
