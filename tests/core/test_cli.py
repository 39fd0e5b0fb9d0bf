"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

import repro
from repro.cli import _parse_cell, load_csv, main

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

#: Two MapReduce jobs, so a checkpoint lands mid-attempt.
TWO_JOB_SCRIPT = SCRIPT.replace("STORE C INTO 'out';", """\
H = GROUP C BY n;
D = FOREACH H GENERATE group AS n, COUNT(C) AS m;
STORE D INTO 'out';""")

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_EXAMPLES = os.path.join(os.path.dirname(_SRC), "examples")
_RUN = ("-m", "repro", "run", "{script}", "--input", "in={csv}",
        "--nodes", "8", "--timeout", "30")
_CKPT_RUN = ("-m", "repro", "run", "{two_job}", "--input", "in={csv}",
             "--nodes", "8", "--checkpoints", "--checkpoint-density", "1.0",
             "-n", "0")
_GEO = os.path.join(_EXAMPLES, "geo_migration.py")


class SigkillCase(NamedTuple):
    """One real-SIGKILL entry point.  Arguments may name {script},
    {two_job}, {csv}, {wal} (the journal or ledger) and {out} (the
    outputs artifact)."""

    command: tuple
    reference_args: tuple  # appended for the uninterrupted run only
    kill_at: int | str  # a seq, or the WAL kind whose first record is it
    resume: tuple
    compared: str  # "out" or "wal"
    twin: tuple | None = None  # checkpoint-free run with equal outputs


_RESUME = ("-m", "repro", "resume", "{wal}", "--outputs-json", "{out}")

SIGKILL_CASES = {
    "run": SigkillCase(
        (*_RUN, "--journal", "{wal}"), ("--outputs-json", "{out}"), 5,
        _RESUME, "out",
    ),
    "checkpoint": SigkillCase(
        (*_CKPT_RUN, "--journal", "{wal}"), ("--outputs-json", "{out}"),
        "checkpoint", _RESUME, "out",
        twin=("-m", "repro", "run", "{two_job}", "--input", "in={csv}",
              "--nodes", "8", "--outputs-json", "{out}"),
    ),
    "serve": SigkillCase(
        ("-m", "repro", "serve", os.path.join(_EXAMPLES, "tenants.json"),
         "--ledger", "{wal}"), (), 30,
        ("-m", "repro", "serve", "--resume", "--ledger", "{wal}"), "wal",
    ),
    "geo": SigkillCase(
        (_GEO, "run", "{wal}"), ("{out}",), "reconfig",
        (_GEO, "resume", "{wal}", "{out}"), "out",
    ),
}


@pytest.fixture
def workspace(tmp_path):
    script = tmp_path / "job.pig"
    script.write_text(SCRIPT)
    csv = tmp_path / "data.csv"
    csv.write_text("1,10\n1,20\n2,\n2,30\n")
    return script, csv


class TestCsvParsing:
    def test_cell_types(self):
        assert _parse_cell("42") == 42
        assert _parse_cell("4.5") == 4.5
        assert _parse_cell("abc") == "abc"
        assert _parse_cell("") is None
        assert _parse_cell("  7 ") == 7

    def test_load_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,a\n2,\n\n3,c\n")
        records = load_csv(str(path))
        assert len(records) == 3
        assert records[1].fields == (2, None)


class TestRunCommand:
    def test_assured_run(self, workspace, capsys):
        script, csv = workspace
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--timeout", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "assured   : True" in out
        assert "out (2 records)" in out

    def test_plain_run(self, workspace, capsys):
        script, csv = workspace
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--mode", "plain",
             "--nodes", "8"]
        )
        assert code == 0
        assert "assured   : False" in capsys.readouterr().out

    def test_single_mode(self, workspace, capsys):
        script, csv = workspace
        assert main(
            ["run", str(script), "--input", f"in={csv}", "--mode", "single",
             "--nodes", "8"]
        ) == 0

    def test_bad_input_spec(self, workspace):
        script, csv = workspace
        with pytest.raises(SystemExit):
            main(["run", str(script), "--input", "no-equals-sign"])

    def test_output_truncation(self, workspace, capsys):
        script, csv = workspace
        main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--show-output", "1"]
        )
        assert "1 more" in capsys.readouterr().out


class TestExplainCommand:
    def test_explain_shows_plan_and_jobs(self, workspace, capsys):
        script, csv = workspace
        code = main(["explain", str(script), "--input", f"in={csv}"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Logical plan:" in out
        assert "Verification points:" in out
        assert "Job graph:" in out
        assert "group" in out


class TestJournalAndResume:
    def run_args(self, workspace, *extra):
        script, csv = workspace
        return ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
                "--timeout", "30", *extra]

    def test_journaled_run_then_resume_completed(self, workspace, tmp_path, capsys):
        journal = tmp_path / "run.wal"
        code = main(self.run_args(workspace, "--journal", str(journal)))
        assert code == 0
        assert journal.exists()
        assert "journal   : " in capsys.readouterr().out

        code = main(["resume", str(journal)])
        out = capsys.readouterr().out
        assert code == 0
        assert "journal   : complete" in out
        assert "assured   : True" in out

    @pytest.mark.parametrize("case", list(SIGKILL_CASES))
    def test_resume_after_sigkill_byte_identical(self, case, workspace, tmp_path):
        """Real crash: the process SIGKILLs itself right after a journal
        or ledger record becomes durable (REPRO_JOURNAL_KILL_AT seam),
        then resuming must republish exactly the uninterrupted run's
        bytes — outputs for runs, the whole ledger for the service."""
        spec = SIGKILL_CASES[case]
        script, csv = workspace
        two_job = tmp_path / "two_job.pig"
        two_job.write_text(TWO_JOB_SCRIPT)
        env = dict(os.environ, PYTHONPATH=_SRC)

        def python(args, wal, out, **extra_env):
            argv = [sys.executable] + [
                arg.format(script=script, csv=csv, two_job=two_job,
                           wal=wal, out=out)
                for arg in args
            ]
            return subprocess.run(argv, env=dict(env, **extra_env),
                                  capture_output=True, text=True)

        ref = {"wal": tmp_path / "ref.wal", "out": tmp_path / "ref.json"}
        proc = python(spec.command + spec.reference_args, **ref)
        assert proc.returncode == 0, proc.stderr
        kill_at = spec.kill_at
        if isinstance(kill_at, str):
            with open(ref["wal"]) as handle:
                records = [json.loads(line) for line in handle]
            kill_at = next(r["seq"] for r in records if r.get("kind") == kill_at)

        crash = {"wal": tmp_path / "crash.wal", "out": tmp_path / "resumed.json"}
        proc = python(spec.command, **crash, REPRO_JOURNAL_KILL_AT=str(kill_at))
        assert proc.returncode == -9  # SIGKILL, not a clean exit
        proc = python(spec.resume, **crash)
        assert proc.returncode == 0, proc.stderr
        assert crash[spec.compared].read_bytes() == ref[spec.compared].read_bytes()

        if spec.twin is not None:
            # The checkpoint tier is invisible until a crash.
            plain = tmp_path / "plain.json"
            assert python(spec.twin, wal=None, out=plain).returncode == 0
            assert plain.read_bytes() == ref["out"].read_bytes()

    def test_journal_requires_assured_mode(self, workspace, tmp_path):
        with pytest.raises(SystemExit, match="assured"):
            main(self.run_args(
                workspace, "--mode", "plain",
                "--journal", str(tmp_path / "x.wal"),
            ))

    def test_resume_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wal"
        bad.write_text("this is not a journal\n")
        assert main(["resume", str(bad)]) == 2
        assert "repro resume:" in capsys.readouterr().err

    def test_exhaustion_exits_3_with_diagnostic(self, workspace, tmp_path, capsys):
        script, csv = workspace
        journal = tmp_path / "exhausted.wal"
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--timeout", "0.05", "--journal", str(journal)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "rerun escalation exhausted" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

        # Resuming the (complete) exhausted journal reports the same
        # explicit verdict and exit code.
        assert main(["resume", str(journal)]) == 3
        assert "rerun escalation exhausted" in capsys.readouterr().err

    def test_outputs_json_is_deterministic(self, workspace, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.run_args(workspace, "--outputs-json", str(a))) == 0
        assert main(self.run_args(workspace, "--outputs-json", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()
