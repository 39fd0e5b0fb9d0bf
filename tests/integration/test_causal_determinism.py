"""Causal tracing and alert evaluation must be pure observation.

Extends the traced-vs-untraced invariant of test_trace_determinism to
the causal layer: protocol send/recv events and context propagation add
records to the trace but never touch the event loop or the RNG, so a
causal-traced run is byte-identical (outputs, audit, metrics, event
count) to an untraced one — including across a SIGKILL and `repro
resume`.  Alert evaluation is a pure function of the records, so
firings are identical across same-seed runs and between streamed and
in-memory traces.
"""

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.hashing import digest_of
from repro.core.controller import ClusterBFTController
from repro.telemetry import Telemetry
from repro.workloads import FOLLOWER_ANALYSIS, follower_edges

SEED = 20131209
EDGES = 2_000


def run_once(telemetry=None, seed=SEED):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, slots_per_node=2),
        bft=ClusterBFTConfig(f=1, replication=2, verification_points=1),
        seed=seed,
    )
    controller = ClusterBFTController(config, telemetry=telemetry)
    controller.load_input("twitter/followers", follower_edges(EDGES))
    result = controller.run_assured(FOLLOWER_ANALYSIS)
    return controller, result


def result_fingerprint(controller, result):
    return {
        "outputs": {
            path: digest_of(records).value
            for path, records in sorted(result.outputs.items())
        },
        "latency": result.latency,
        "attempts": result.attempts,
        "assured": result.assured,
        "verdicts": [(o.sid, o.status, sorted(o.winners)) for o in result.outcomes],
        "metrics": result.metrics,
        "audit": controller.audit.render(),
        "events_processed": controller.loop.events_processed,
    }


class TestCausalTracingIsInvisible:
    def test_causal_on_vs_untraced(self):
        plain = result_fingerprint(*run_once(telemetry=None))
        causal = result_fingerprint(*run_once(telemetry=Telemetry.recording(causal=True)))
        assert plain == causal

    def test_causal_on_vs_causal_off(self):
        off = result_fingerprint(*run_once(telemetry=Telemetry.recording()))
        on = result_fingerprint(*run_once(telemetry=Telemetry.recording(causal=True)))
        assert off == on

    def test_same_seed_causal_traces_byte_identical(self):
        from repro.telemetry.export import to_jsonl

        first = Telemetry.recording(causal=True)
        second = Telemetry.recording(causal=True)
        run_once(telemetry=first)
        run_once(telemetry=second)
        assert to_jsonl(first.export_records()) == to_jsonl(second.export_records())

    def test_causal_trace_is_a_superset_of_plain_trace(self):
        """Turning causal on only *adds* records; the plain record
        stream (spans, samples, metrics) is unchanged."""
        plain = Telemetry.recording()
        causal = Telemetry.recording(causal=True)
        run_once(telemetry=plain)
        run_once(telemetry=causal)
        protocol = ("net.send", "net.recv", "net.lost", "digest.send", "digest.recv")

        def stripped(records):
            return [
                {k: v for k, v in r.items() if k not in ("id", "parent")}
                for r in records
                if r.get("name") not in protocol
            ]

        assert stripped(causal.export_records()) == stripped(plain.export_records())


class TestAlertDeterminism:
    def test_firings_identical_across_same_seed_runs(self):
        from repro.telemetry.slo import evaluate

        first = Telemetry.recording(causal=True)
        second = Telemetry.recording(causal=True)
        run_once(telemetry=first)
        run_once(telemetry=second)
        assert evaluate(first.export_records()) == evaluate(second.export_records())

    def test_streamed_trace_yields_same_firings_as_memory(self, tmp_path):
        from repro.telemetry.export import read_jsonl
        from repro.telemetry.slo import evaluate, firing_rows

        memory = Telemetry.recording(causal=True)
        run_once(telemetry=memory)
        memory.finalize()

        path = tmp_path / "streamed.jsonl"
        streamed = Telemetry.streaming(str(path), causal=True)
        run_once(telemetry=streamed)
        streamed.finalize()

        assert firing_rows(evaluate(read_jsonl(str(path)))) == firing_rows(
            evaluate(memory.export_records())
        )


class TestSigkillResumeWithCausalTrace:
    def test_causally_traced_crash_resumes_to_untraced_bytes(self, tmp_path):
        """A run that streams a causal trace, journals, and is SIGKILLed
        mid-write must `repro resume` to byte-identical outputs of an
        untraced, uninterrupted reference run — and leave a readable
        trace prefix behind."""
        import os
        import subprocess
        import sys

        import repro
        from repro.cli import main

        script = tmp_path / "job.pig"
        script.write_text(
            "A = LOAD 'in' AS (k:int, v:int);\n"
            "B = FILTER A BY v IS NOT NULL;\n"
            "G = GROUP B BY k;\n"
            "C = FOREACH G GENERATE group AS k, COUNT(B) AS n;\n"
            "STORE C INTO 'out';\n"
        )
        csv = tmp_path / "data.csv"
        csv.write_text("1,10\n1,20\n2,\n2,30\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        base = [sys.executable, "-m", "repro", "run", str(script),
                "--input", f"in={csv}", "--nodes", "8", "--timeout", "30"]

        ref_json = tmp_path / "ref.json"
        proc = subprocess.run(
            base + ["--journal", str(tmp_path / "ref.wal"),
                    "--outputs-json", str(ref_json)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

        crash_wal = tmp_path / "crash.wal"
        crash_trace = tmp_path / "crash.jsonl"
        proc = subprocess.run(
            base + ["--journal", str(crash_wal),
                    "--trace", str(crash_trace), "--causal"],
            env=dict(env, REPRO_JOURNAL_KILL_AT="5"),
            capture_output=True, text=True,
        )
        assert proc.returncode == -9  # SIGKILL, not a clean exit

        resumed_json = tmp_path / "resumed.json"
        assert main(
            ["resume", str(crash_wal), "--outputs-json", str(resumed_json)]
        ) == 0
        assert resumed_json.read_bytes() == ref_json.read_bytes()

        # The streamed causal prefix survives the kill and reconstructs.
        from repro.telemetry.causal import build_causal
        from repro.telemetry.export import read_jsonl_lenient

        records, _warnings = read_jsonl_lenient(str(crash_trace))
        assert records, "expected a trace prefix from the killed run"
        build_causal(records)  # must not raise on the partial stream


class TestCausalDoubleRunAcrossProcesses:
    def test_causal_artifacts_byte_identical_across_processes(self, tmp_path):
        """Two `repro run --causal` processes with different hash seeds
        write byte-identical traces, causal analyses, flow exports and
        alert firings; the analysis finds no orphans, and the traced
        outputs equal an untraced run's."""
        import os
        import random
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = os.path.join(
            os.path.dirname(src), "examples", "follower_analysis.pig"
        )
        rng = random.Random(7)
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "".join(f"{rng.randrange(50)},{rng.randrange(500)}\n" for _ in range(2000))
        )

        def repro_cli(hash_seed, *args):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *map(str, args)],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        run = ["run", script, "--input", f"twitter/followers={edges}"]
        artifacts = {}
        for hash_seed in ("1", "2"):
            trace = tmp_path / f"causal-{hash_seed}.jsonl"
            flow = tmp_path / f"flow-{hash_seed}.json"
            outputs = tmp_path / f"outputs-{hash_seed}.json"
            repro_cli(hash_seed, *run, "--trace", trace, "--causal",
                      "--outputs-json", outputs)
            analysis = repro_cli(hash_seed, "trace", trace, "--causal",
                                 "--chrome-flow", flow)
            alerts = repro_cli(hash_seed, "alerts", trace, "--format", "json")
            artifacts[hash_seed] = (trace.read_bytes(), analysis,
                                    flow.read_bytes(), alerts,
                                    outputs.read_bytes())
        assert artifacts["1"] == artifacts["2"]
        assert "0 orphans" in artifacts["1"][1]

        plain = tmp_path / "outputs-plain.json"
        repro_cli("3", *run, "--outputs-json", plain)
        assert plain.read_bytes() == artifacts["1"][4]
