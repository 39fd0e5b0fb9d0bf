"""``repro chaos`` — run chaos campaigns from the command line.

Examples::

    # every non-weakened scenario, three seeds, report to stdout
    python -m repro chaos run --seeds 3

    # the CI campaign: streamed traces and a report file
    python -m repro chaos run --seeds 2 \\
        --report chaos-report.json --trace-dir chaos-traces

    # a hand-picked subset
    python -m repro chaos run --scenarios crash,equivocate --seeds 1,7

    # list scenarios and campaigns
    python -m repro chaos list

Exit status: 0 when every invariant held in every cell, 1 otherwise.
"""

from __future__ import annotations

from repro.chaos.runner import render_report, run_campaign
from repro.chaos.scenarios import CAMPAIGNS, SCENARIOS, resolve_scenarios
from repro.common.atomic_io import write_text
from repro.common.errors import ReproError


def add_chaos_parser(sub) -> None:
    chaos = sub.add_parser(
        "chaos", help="fault-injection campaigns with invariant checking"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    run = chaos_sub.add_parser("run", help="run a campaign")
    run.add_argument(
        "--scenarios",
        "--campaign",
        dest="scenarios",
        default="default",
        help=f"campaign name ({', '.join(CAMPAIGNS)}) or comma-joined "
        "scenario names",
    )
    run.add_argument(
        "--seeds",
        default="3",
        help="seed sweep: a count N (seeds 1..N) or a comma-joined list",
    )
    run.add_argument(
        "--report",
        metavar="OUT.json",
        default=None,
        help="write the JSON report here (default: stdout summary only)",
    )
    run.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="stream one JSONL telemetry trace per cell into DIR",
    )

    chaos_sub.add_parser("list", help="list scenarios and campaigns")


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        count = int(text)
    except ValueError:
        raise SystemExit(f"--seeds needs a count or a comma list, got {text!r}")
    if count < 1:
        raise SystemExit("--seeds count must be >= 1")
    return list(range(1, count + 1))


def _cmd_chaos_list() -> int:
    print("Campaigns:")
    for name, members in CAMPAIGNS.items():
        print(f"  {name:<10} {', '.join(members)}")
    print("\nScenarios:")
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        print(f"  {name:<16} {scenario.description}")
    return 0


def _cmd_chaos_run(args) -> int:
    try:
        scenarios = resolve_scenarios(args.scenarios)
    except ReproError as exc:
        raise SystemExit(str(exc))
    seeds = _parse_seeds(args.seeds)
    report = run_campaign(scenarios, seeds, trace_dir=args.trace_dir)
    rendered = render_report(report)
    if args.report:
        try:
            write_text(args.report, rendered)
        except OSError as exc:
            raise SystemExit(f"cannot write report: {exc}")
        print(f"report    : {args.report}")
    summary = report["summary"]
    print(
        f"cells     : {summary['total']} "
        f"({summary['passed']} passed, {summary['failed']} failed)"
    )
    for cell in report["cells"]:
        status = "ok  " if cell["passed"] else "FAIL"
        extras = []
        if cell["reruns"]:
            extras.append(f"reruns={cell['reruns']}")
        if cell["quarantined"]:
            extras.append(f"quarantined={','.join(cell['quarantined'])}")
        if cell["evicted"]:
            extras.append(f"evicted={','.join(cell['evicted'])}")
        if cell.get("migrations"):
            extras.append(f"migrated={','.join(cell['migrations'])}")
        if cell["crashes_detected"]:
            extras.append(f"crashed={','.join(cell['crashes_detected'])}")
        if any(cell.get("exhausted", ())):
            extras.append("exhausted")
        sweep = cell.get("crash_sweep")
        if sweep:
            extras.append(
                f"ctl-crashes={sweep['crash_points']} "
                f"resumed={sweep['resumed_assured']}"
            )
            if sweep["checkpoint_records"]:
                extras.append(
                    f"ckpts={sweep['checkpoint_records']} "
                    f"ckpt-replayed={sweep['checkpoints_replayed']}"
                )
        suffix = f"  [{' '.join(extras)}]" if extras else ""
        print(f"  {status} {cell['scenario']:<16} seed={cell['seed']}{suffix}")
        for violation in cell["violations"]:
            print(f"       {violation['invariant']}: {violation['detail']}")
    if not args.report:
        print(rendered, end="")
    return 0 if summary["failed"] == 0 else 1


def cmd_chaos(args) -> int:
    if args.chaos_command == "list":
        return _cmd_chaos_list()
    return _cmd_chaos_run(args)
