"""Host-time benchmark of the ClusterBFT reproduction.

    python3 perfbench/run.py --workload follower --seed 1 --seconds 25 --trace 0

Run from a checkout: the program is imported from ``src/`` beside this
directory.  With ``--trace 0`` the workload runs for ``--seconds`` of
timed submissions (at least its ``min_rounds``) with no
instrumentation and reports the end-to-end metrics, the host ones from
the fastest round.  With ``--trace 1`` it runs ``min_rounds`` rounds
untraced, replays them with every layer's entry points wrapped, checks
that the replay reproduced the simulated metrics and outputs exactly,
and reports the per-layer metrics.  The last line of standard output
is one JSON object; the lines before it are the same metrics for
people.

Exit codes: 0 correct; 1 a wrong or unassured output, or a traced
replay that diverged; 2 the program source is missing; 3 a workload
lost its shape (see ``workloads.ShapeError``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
MIB = float(1 << 20)


def _import_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def measure(workload, seconds: float) -> tuple[list, float]:
    """Closed loop of rounds until ``seconds`` of timed submissions and
    at least ``min_rounds`` rounds; returns the rounds and the peak
    resident memory (MiB) at the end of the first ``min_rounds``."""
    rounds = []
    timed = 0.0
    peak_rss = 0.0
    while len(rounds) < workload.min_rounds or timed < seconds:
        rounds.append(workload.round(len(rounds)))
        timed += rounds[-1].host_s
        if len(rounds) == workload.min_rounds:
            # ru_maxrss is in KiB on Linux.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, peak_rss


def end_to_end(rounds: list, window: list, peak_rss: float) -> dict:
    """Host metrics are those of the fastest round.  On a shared host,
    load from outside the process only ever slows a round down, and
    slow spells last from seconds to minutes, so the fastest round is
    the steadiest estimate of the program's own speed; the median
    mostly measures the neighbours.  Simulated metrics are over the
    first ``min_rounds`` rounds, so they are exact per seed."""
    latencies = [latency for r in window for latency in r.latencies]
    jobs = sum(r.jobs for r in window)
    return {
        "setup_s": (min(r.setup_s for r in rounds), "s"),
        "records_per_s": (max(r.records / r.host_s for r in rounds), "records/s"),
        "jobs_per_s": (max(r.jobs / r.host_s for r in rounds), "jobs/s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "sim_latency_s_p50": (statistics.median(latencies), "sim_s"),
        "sim_latency_s_max": (max(latencies), "sim_s"),
        "sim_cpu_s": (sum(r.sim_cpu_s for r in window) / jobs, "sim_s"),
        "sim_hdfs_write_mb": (sum(r.sim_hdfs_write for r in window) / jobs / MIB, "MiB"),
    }


def traced_replay(workload, reference: list) -> tuple[dict, bool]:
    """Replay ``reference``'s rounds with every layer wrapped; return
    the per-layer metrics and whether the replay was neutral."""
    from perfbench import layers

    before = layers.bound_entry_points()
    tracer = layers.Tracer()
    counts = {"records_in": 0, "records_hashed": 0, "bytes_hashed": 0, "shuffle_bytes": 0}

    def on_pipeline(args, result):
        counts["records_in"] += len(args[0])
        for tap in result[1]:
            counts["records_hashed"] += tap.record_count
            counts["bytes_hashed"] += tap.bytes_hashed

    def on_map_task(args, result):
        if result.partitions:
            counts["shuffle_bytes"] += result.bytes_out

    tracer.observers["dataflow.pipeline"] = on_pipeline
    tracer.observers["mapreduce.map_task"] = on_map_task
    workload.reset()
    with layers.installed(tracer):
        replay = [
            workload.round(index, region=tracer.region, check=False)
            for index in range(len(reference))
        ]
    restored = layers.bound_entry_points() == before
    neutral = restored and [r.exact() for r in replay] == [r.exact() for r in reference]

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    metrics["unattributed.self_s"] = (tracer.unattributed_s, "s")
    executions = tracer.calls["mapreduce.map_task"] + tracer.calls["mapreduce.reduce_task"]
    queue_waits = [wait for r in replay for wait in r.queue_waits]
    metrics.update(
        {
            "dataflow.pipeline.records_in": (counts["records_in"], "records"),
            "mapreduce.task_executions_per_task": (
                executions / sum(r.distinct_tasks for r in replay),
                "ratio",
            ),
            "mapreduce.shuffle_bytes": (counts["shuffle_bytes"], "bytes"),
            "common.hashing.records_hashed": (counts["records_hashed"], "records"),
            "common.hashing.bytes_hashed": (counts["bytes_hashed"], "bytes"),
            "storage.dfs.bytes_written": (sum(r.dfs_bytes_written for r in replay), "bytes"),
            "simulation.events": (sum(r.events for r in replay), "count"),
            "core.attempts_per_job": (
                statistics.fmean(a for r in replay for a in r.attempts),
                "ratio",
            ),
            "core.reused_jobs": (sum(r.reused for r in replay), "count"),
            "core.checkpoint_commits": (sum(r.checkpoints for r in replay), "count"),
            "core.journal.bytes": (sum(r.journal_bytes for r in replay), "bytes"),
            "service.ledger.appends": (sum(r.ledger_appends for r in replay), "count"),
            "service.queue_wait_sim_s_p50": (
                statistics.median(queue_waits) if queue_waits else 0.0,
                "sim_s",
            ),
            "trace.host_s": (tracer.host_s, "s"),
            "trace.overhead_s": (
                tracer.host_s - sum(r.setup_s + r.host_s for r in reference),
                "s",
            ),
        }
    )
    return metrics, neutral


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOAD_CLASSES, ShapeError

    if args.workload not in WORKLOAD_CLASSES:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOAD_CLASSES)}")
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work_dir)
        if args.trace:
            rounds, _ = measure(workload, 0.0)
            metrics, neutral = traced_replay(workload, rounds)
        else:
            rounds, peak_rss = measure(workload, args.seconds)
            metrics = end_to_end(rounds, rounds[: workload.min_rounds], peak_rss)
            neutral = True
    except ShapeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there
    window = rounds[: workload.min_rounds]
    attempted = sum(r.jobs for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and neutral
    # Printed for people only: a BENCHMARK.json metric must never be 0.
    report = {
        "failed_frac": (failed / attempted, "ratio"),
        "rejected_frac": (
            sum(r.rejected for r in window) / sum(r.jobs + r.rejected for r in window),
            "ratio",
        ),
        "rounds": (len(rounds), "count"),
        "round_records_per_s": ([round(r.records / r.host_s, 1) for r in rounds], "records/s"),
        "round_setup_s": ([round(r.setup_s, 5) for r in rounds], "s"),
        "sim_latency_samples": (sum(len(r.latencies) for r in window), "count"),
    }
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{args.workload} {name} = {value} {unit}")
    if not neutral:
        print("traced replay diverged from the untraced run", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
