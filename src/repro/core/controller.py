"""ClusterBFT controller: the end-to-end assured-execution facade.

Wires the whole system together (paper Fig. 2): the trusted control
tier (request handler, job initiator, verifier, execution tracker,
resource manager, fault analyzer) around the untrusted computation tier
(cluster + MapReduce engine).

Execution model
---------------

``run_assured`` submits ``r`` replicas of every job in the compiled
graph.  Replica chains run *optimistically*: replica k of a downstream
job starts as soon as replica k of its upstream jobs finished — digest
comparison is offline, off the critical path (paper §3.3 "Approximate,
offline redundancy").  When a sub-graph's verification fails or times
out, the script is re-run with an escalated replication degree and
timeout, **reusing the outputs of already-verified sub-graphs** — this
is the recomputation saving that variable-grain clustering buys
(paper Table 3: rescheduled ClusterBFT runs beat final-output-only
verification by ~23%).

A verified job's output is only *committed* (reused across attempts,
published to the user-visible store path) when its output stream is
covered by a verification point — see
:func:`repro.core.request_handler.output_coverage`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.common.config import SystemConfig
from repro.common.errors import ReproError, VerificationExhausted
from repro.common.ids import NodeId
from repro.common.records import Record, encode_record
from repro.common.rng import RngRegistry
from repro.compiler.mr_compiler import CompileOptions
from repro.core import journal as wal
from repro.core.audit import (
    COMMIT,
    EVICTION,
    EXHAUSTED,
    FAULT,
    QUARANTINE,
    RECONFIG,
    RERUN,
    SUBMIT,
    TIMEOUT_CAP,
    VERDICT,
    AuditLog,
)
from repro.core.fault_analyzer import FaultAnalyzer
from repro.core.gauges import publish_suspicion
from repro.core.request_handler import (
    PreparedScript,
    RequestHandler,
    job_has_verification,
    output_coverage,
)
from repro.core.suspicion import SuspicionTracker
from repro.core.verifier import (
    FAILED,
    OMISSION,
    TIMEOUT,
    VERIFIED,
    ReplicaFault,
    VerificationOutcome,
    Verifier,
)
from repro.dataflow.plan import LogicalPlan, VertexId
from repro.faults.injection import FaultPlan
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import JobRun, MapReduceEngine
from repro.mapreduce.metrics import RunMetrics, publish_run
from repro.mapreduce.scheduler import ClusterBFTScheduler, TaskScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS
from repro.telemetry import DISABLED, Telemetry


@dataclass
class ScriptResult:
    """Outcome of one script execution."""

    script_id: str
    assured: bool  # all final outputs verified by an f+1 digest quorum
    outputs: dict[str, list[Record]]
    latency: float
    attempts: int
    metrics: RunMetrics
    outcomes: list[VerificationOutcome] = field(default_factory=list)
    marked_vertices: list[VertexId] = field(default_factory=list)
    reused_jobs: int = 0  # jobs skipped on reruns thanks to commits
    #: Verdict-time checkpoint commits (``ClusterBFTConfig.checkpoints``).
    checkpoint_commits: int = 0
    #: Rerun escalation ran out of ``max_reruns`` without assurance.
    exhausted: bool = False


class _Attempt:
    """Book-keeping for one attempt (one replication degree)."""

    def __init__(self, script_id: str, index: int, pending: list[int]) -> None:
        self.script_id = script_id
        self.index = index
        #: job index -> sid, in submission (``pending``) order.
        self.sids = {job: f"{script_id}.a{index}.j{job}" for job in pending}
        self.jobs = {sid: job for job, sid in self.sids.items()}
        #: Verdict-time settlements (checkpoint tier): sid -> what
        #: ``_settle_sid`` returned, merged at the attempt boundary.
        self.staged: dict[str, tuple[bool, str | None]] = {}
        self.verifier: Verifier | None = None
        self.span = None
        self.outcomes: dict[str, VerificationOutcome] = {}
        self.expected_verdicts: set[str] = set()
        self.plain_jobs_pending: set[tuple[int, int]] = set()
        #: Subset of plain_jobs_pending producing user-visible outputs.
        self.plain_final_pending: set[tuple[int, int]] = set()
        self.runs: list[JobRun] = []
        self.runs_by_job: dict[int, list[JobRun]] = {}
        #: (job_index, replica) -> nodes of the whole unverified replica
        #: chain up to (and including) that job.  This is the paper's
        #: "job cluster": the replication unit is the sub-graph since the
        #: last verified point, so a digest mismatch implicates every
        #: node that touched the chain, not just the last job's nodes.
        self.chain_nodes: dict[tuple[int, int], set[str]] = {}
        self.deps: dict[int, set[int]] = {}
        self.force_end = False

    def done(self) -> bool:
        if self.force_end:
            return True
        verdicts_in = all(sid in self.outcomes for sid in self.expected_verdicts)
        if self.expected_verdicts:
            # Verification is the completion signal: plain intermediate
            # jobs either fed the verified chains already or belong to
            # loser replicas nobody waits for.  Final outputs without
            # their own verification point (rare) must still land.
            return verdicts_in and not self.plain_final_pending
        return not self.plain_jobs_pending

    def replica_path(self, replica: int, logical: str) -> str:
        return f"__run/{self.script_id}/a{self.index}/r{replica}/{logical}"


class _Run:
    """Per-run context the assured phases share.

    ``state`` is the durable part: the :class:`~repro.core.journal.ResumeState`
    an ``attempt_end`` record snapshots and a resume restores (fresh for
    a new run).  The rest lives only as long as the run.
    """

    def __init__(
        self,
        prepared: PreparedScript,
        state: wal.ResumeState,
        journal: wal.Journal | None,
        resumed: bool,
        start: float,
    ) -> None:
        graph = prepared.job_graph
        self.prepared = prepared
        self.cfg = prepared.config
        self.state = state
        self.journal = journal
        self.resumed = resumed
        self.start = start
        self.span = None
        self.order = graph.topological_order()
        self.deps = graph.dependencies()
        self.verifiable = {
            i for i in self.order if job_has_verification(graph.jobs[i])
        }
        self.final_jobs = [
            i for i, job in enumerate(graph.jobs) if not job.output_is_temp
        ]
        self.metrics = RunMetrics()
        self.outcomes: list[VerificationOutcome] = []
        self.runs: list[JobRun] = []
        self.last_attempt: _Attempt | None = None
        self.checkpointed = 0

    def assured(self) -> bool:
        """Every verifiable job VERIFIED and every final output
        committed — vacuously false when nothing is verifiable."""
        state = self.state
        return (
            bool(self.verifiable)
            and self.verifiable <= state.verified_ok
            and all(i in state.verified_jobs for i in self.final_jobs)
        )

    def rerun_closure(self) -> list[int]:
        """Jobs that must run again: every verifiable job not yet
        VERIFIED, plus (transitively) the uncommitted upstream jobs
        feeding them.  Committed sub-graphs are reused — the paper's
        variable-grain recomputation saving."""
        needed = self.verifiable - self.state.verified_ok
        frontier = sorted(needed)
        while frontier:
            job_index = frontier.pop()
            for dep in self.deps[job_index]:
                if dep not in self.state.verified_jobs and dep not in needed:
                    needed.add(dep)
                    frontier.append(dep)
        return [i for i in self.order if i in needed]

    def escalated_timeout(self, current: float) -> float:
        """Next attempt's verifier timeout: doubled, clamped to the
        configured ``max_verifier_timeout`` ceiling.  Used for both the
        live escalation and the journaled ``next_timeout`` so a resumed
        run restores exactly the value an uninterrupted run would have
        used."""
        doubled = current * 2
        cap = self.cfg.max_verifier_timeout
        if cap is not None and doubled > cap:
            return cap
        return doubled


class _WaitWhile:
    """Wait condition yielded by ``_assured_steps``: the run cannot make
    control-tier progress while ``predicate()`` holds.  The single-run
    wrapper blocks the event loop on it; the service tier polls it while
    other tenants' runs keep the loop busy."""

    __slots__ = ("predicate",)

    def __init__(self, predicate) -> None:
        self.predicate = predicate

    def block(self, loop: EventLoop) -> None:
        loop.run_while(self.predicate)

    def pending(self, loop: EventLoop) -> bool:
        return self.predicate()


class _WaitUntil:
    """Wait condition: the run resumes once the sim clock reaches
    ``deadline`` (the digest-flush window after the drain)."""

    __slots__ = ("deadline",)

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def block(self, loop: EventLoop) -> None:
        loop.run_until(self.deadline)

    def pending(self, loop: EventLoop) -> bool:
        return loop.now < self.deadline


class ClusterBFTController:
    """Owns the simulated deployment and runs scripts on it."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        fault_plan: FaultPlan | None = None,
        scheduler: TaskScheduler | None = None,
        block_bytes: int = 1 << 20,
        replicate_frontend: bool = False,
        telemetry: Telemetry | None = None,
        journal: wal.Journal | None = None,
    ) -> None:
        self.config = (config or SystemConfig()).validate()
        self.rng = RngRegistry(self.config.seed)
        self.loop = EventLoop()
        # The deterministic event loop is the telemetry clock source:
        # spans and events carry simulated seconds, so a traced run is
        # byte-identical to an untraced one (the tracer never schedules
        # loop events and never draws randomness).
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.telemetry.bind_clock(lambda: self.loop.now)
        self.telemetry.observe_loop(self.loop)
        self.dfs = TrustedDFS(block_bytes=block_bytes)
        self.cluster = Cluster(
            self.config.cluster, fault_plan, self.rng.stream("cluster")
        )
        self.dfs.set_placement_nodes(self.cluster.node_ids())
        self.scheduler = scheduler or ClusterBFTScheduler()
        self.engine = MapReduceEngine(
            self.loop,
            self.dfs,
            self.cluster,
            self.scheduler,
            self.config.cost,
            self.rng.stream("engine"),
            telemetry=self.telemetry,
        )
        self.suspicion = SuspicionTracker()
        self.fault_analyzer = FaultAnalyzer(f=self.config.bft.f)
        self.audit = AuditLog(tracer=self.telemetry.tracer)
        # Durable control-plane journal (write-ahead log): pure host-side
        # I/O — never schedules loop events, never draws randomness — so
        # attaching one leaves the simulation byte-identical.
        self.journal = journal
        if journal is not None:
            journal.bind_tracer(self.telemetry.tracer)
        #: Extra key/values merged into audit (and journal) records that
        #: attribute shared-state changes — the service tier sets this to
        #: ``{"tenant": ...}`` around each run step so evictions and
        #: quarantines name the tenant whose traffic triggered them.
        #: Empty outside the service tier (records are byte-identical).
        self.audit_context: dict[str, object] = {}
        self._script_counter = 0
        # §6.4: drop the implicit-trust assumption for the control tier —
        # request handling is ordered through 3f+1 PBFT replicas, adding
        # one consensus round of latency per script submission.
        self.frontend = None
        if replicate_frontend:
            from repro.bft.service import ReplicatedService

            self.frontend = ReplicatedService(
                f=self.config.bft.f,
                handler=lambda payload: ("accepted", payload),
                loop=self.loop,
                rng=self.rng.stream("frontend"),
                telemetry=self.telemetry,
            )

    # ------------------------------------------------------------------
    # data management
    # ------------------------------------------------------------------

    def load_input(self, path: str, records: list[Record]) -> None:
        """Stage an input data-set into the trusted DFS."""
        if self.dfs.exists(path):
            self.dfs.delete(path)
        self.dfs.write_file(path, records)

    def read_output(self, path: str) -> list[Record]:
        return self.dfs.read(path)

    def _input_sizes(self, plan: LogicalPlan) -> dict[str, int]:
        sizes = {}
        for path in plan.load_paths().values():
            if not self.dfs.exists(path):
                raise ReproError(f"input {path!r} not loaded")
            sizes[path] = self.dfs.file_info(path).size_bytes
        return sizes

    def _next_script_id(self) -> str:
        self._script_counter += 1
        return f"script{self._script_counter:04d}"

    def _compile_options(self) -> CompileOptions:
        reducers = min(4, max(1, len(self.cluster) // 2))
        return CompileOptions(num_reducers=reducers)

    # ------------------------------------------------------------------
    # execution modes
    # ------------------------------------------------------------------

    def prepare(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
        replication: int | None = None,
    ) -> PreparedScript:
        """Request handler step (paper §4.1): parse, mark, instrument and
        compile ``script`` against the inputs staged in this DFS.
        ``replication`` overrides the configured degree."""
        cfg = self.config.bft
        if replication is not None:
            cfg = replace(cfg, replication=replication).validate()
        plan = self._to_plan(script)
        return RequestHandler(cfg).prepare(
            plan,
            self._input_sizes(plan),
            explicit_points=explicit_points,
            include_output_points=include_output_points,
            compile_options=self._compile_options(),
        )

    def run_plain(self, script: str | LogicalPlan) -> ScriptResult:
        """Baseline: unreplicated, uninstrumented run ("Pure Pig")."""
        prepared = self.prepare(
            script, explicit_points=[], include_output_points=False
        )
        return self._run_unverified(prepared, mode="plain")

    def run_single(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
    ) -> ScriptResult:
        """One replica with digest computation but no replication — the
        "Single Execution" series of paper Fig. 9/10."""
        prepared = self.prepare(script, explicit_points, include_output_points)
        return self._run_unverified(prepared, mode="single")

    def run_assured(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
        replication: int | None = None,
        strict: bool = False,
    ) -> ScriptResult:
        """Full ClusterBFT execution with verification and reruns.

        With ``strict`` the controller raises
        :class:`~repro.common.errors.VerificationExhausted` (carrying the
        best-effort result) instead of returning an unassured result when
        the rerun escalation runs out of ``max_reruns``.
        """
        prepared = self.prepare(
            script, explicit_points, include_output_points, replication
        )
        return self._run_assured(prepared, strict=strict)

    def resume_assured(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState,
        strict: bool = False,
    ) -> ScriptResult:
        """Continue a journaled run from its last settled attempt
        boundary.  Callers (see :mod:`repro.core.recovery`) must already
        have re-staged the journal's inputs and committed outputs into
        this controller's DFS; the rerun-escalation loop picks up with
        the restored replication degree/timeout and re-executes only the
        unsettled sub-graphs."""
        return self._run_assured(prepared, resume=resume, strict=strict)

    def _to_plan(self, script: str | LogicalPlan) -> LogicalPlan:
        if isinstance(script, LogicalPlan):
            return script
        from repro.dataflow.piglatin import parse_script

        return parse_script(script)

    # ------------------------------------------------------------------
    # unverified execution (baselines)
    # ------------------------------------------------------------------

    def _run_unverified(self, prepared: PreparedScript, mode: str) -> ScriptResult:
        """One unreplicated replica chain: ``mode`` is ``"plain"`` or
        ``"single"`` (traced and metered under that label)."""
        script_id = self._next_script_id()
        start = self.loop.now
        jobs = len(prepared.job_graph.jobs)
        run_span = self.telemetry.tracer.begin(
            "run",
            start=start,
            script_id=script_id,
            mode=mode,
            replication=1,
            jobs=jobs,
        )
        metrics = RunMetrics()
        attempt = _Attempt(script_id, 0, list(range(jobs)))
        self._submit_attempt(
            prepared, attempt, replication=1, verified_paths={}, verifier=None
        )
        self.loop.run_while(lambda: not attempt.done())
        for run in attempt.runs:
            metrics.absorb_job(run.metrics)
        outputs = self._publish_outputs(prepared, {}, attempt)
        metrics.latency = self.loop.now - start
        run_span.end(latency=metrics.latency, assured=False)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode=mode)
        return ScriptResult(
            script_id=script_id,
            assured=False,
            outputs=outputs,
            latency=metrics.latency,
            attempts=1,
            metrics=metrics,
            marked_vertices=list(prepared.marked_vertices),
        )

    # ------------------------------------------------------------------
    # assured execution
    # ------------------------------------------------------------------

    def _run_assured(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState | None = None,
        strict: bool = False,
    ) -> ScriptResult:
        """Single-run driver: block the event loop through every wait
        condition the assured state machine yields.  Event-for-event
        identical to the pre-generator controller — the service tier
        (:mod:`repro.service`) drives the same generator cooperatively
        to multiplex runs instead."""
        steps = self._assured_steps(prepared, resume=resume, strict=strict)
        try:
            while True:
                next(steps).block(self.loop)
        except StopIteration as stop:
            return stop.value

    def _assured_steps(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState | None = None,
        strict: bool = False,
        journal: wal.Journal | None = None,
        script_id: str | None = None,
        span_attrs: dict | None = None,
    ):
        """Generator form of assured execution: a driver over the named
        phases (DESIGN.md §11a).

        Yields a wait condition (:class:`_WaitWhile` / :class:`_WaitUntil`)
        whenever the control tier must let simulated time pass; the
        caller decides how — ``run_while`` for an exclusive run,
        condition polling from the service tick for multiplexed runs.
        Returns the :class:`ScriptResult` via ``StopIteration.value``.

        ``journal`` overrides ``self.journal`` so each multiplexed run
        can write its own stream of a shared ledger; ``script_id`` lets
        the service allocate ids at admission time; ``span_attrs`` adds
        attribution (e.g. tenant) to the run span.
        """
        if journal is None:
            journal = self.journal
        run = self._open_run(prepared, resume, journal, script_id, span_attrs)
        attempts = range(run.state.start_attempt, run.cfg.max_reruns + 1)
        if run.resumed and not run.rerun_closure():
            # A restored snapshot may already cover the full commit set —
            # e.g. a crash landed between the final attempt's
            # ``attempt_end`` and ``run_end``, leaving start_attempt past
            # max_reruns.  The restored state alone decides assurance:
            # an empty range must never read as exhaustion.
            run.state.reused += len(run.order)
            attempts = range(0)
        for index in attempts:
            pending = self._plan_attempt(run, index)
            if not pending:
                break  # nothing left to run: the settled state decides
            attempt = yield from self._run_attempt(run, index, pending)
            self._settle_attempt(run, attempt)
            if run.assured() or not run.verifiable:
                # Done — or nothing to verify (outputs not instrumented):
                # run once, publish best-effort, report unassured.
                break
            self._escalate(run, index)
        return (yield from self._close_run(run, strict))

    # ------------------------------------------------------------------
    # assured phases
    # ------------------------------------------------------------------

    def _open_run(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState | None,
        journal: wal.Journal | None,
        script_id: str | None,
        span_attrs: dict | None,
    ) -> _Run:
        """Open run: allocate the run state (or adopt the restored one),
        begin the run span, journal ``run_start`` and audit the submit."""
        cfg = prepared.config
        jobs = len(prepared.job_graph.jobs)
        points = len(prepared.marked_vertices)
        state = resume
        if state is None:
            state = wal.ResumeState(
                script_id=self._next_script_id() if script_id is None else script_id,
                start_attempt=0,
                attempts_used=0,
                replication=cfg.replication,
                timeout=cfg.verifier_timeout,
            )
        run = _Run(prepared, state, journal, resume is not None, self.loop.now)
        tracer = self.telemetry.tracer
        run.span = tracer.begin(
            "run",
            start=run.start,
            script_id=state.script_id,
            mode="assured",
            replication=cfg.replication,
            jobs=jobs,
            points=points,
            **(span_attrs or {}),
        )
        if journal is not None and resume is None:
            # Write-ahead: the run exists in the journal before any job
            # is submitted.  ``marked``/``include_output_points`` let a
            # recovery re-prepare the exact same instrumented plan.
            journal.append(
                wal.RUN_START,
                script_id=state.script_id,
                jobs=jobs,
                replication=cfg.replication,
                points=points,
                marked=list(prepared.marked_vertices),
                include_output_points=prepared.include_output_points,
            )
            journal.run_started = True
        self.audit.record(
            run.start,
            SUBMIT,
            state.script_id,
            jobs=jobs,
            replication=cfg.replication,
            points=points,
            **self.audit_context,
        )
        if self.frontend is not None:
            # The submission is ordered by the replicated request handler
            # before any job starts; its consensus round is on the
            # critical path (part of the latency Fig. 14 measures).
            request = (state.script_id, jobs)
            if self.telemetry.causal and tracer.enabled:
                # Anchor the ordering round's Request send (and the whole
                # pre-prepare/prepare/commit cascade behind it) to this
                # run's root span.
                tracer.push_context(run.span.span_id)
                try:
                    self.frontend.call(request)
                finally:
                    tracer.pop_context()
            else:
                self.frontend.call(request)
        return run

    def _plan_attempt(self, run: _Run, index: int) -> list[int]:
        """Plan attempt: the jobs attempt ``index`` must execute — all of
        them on a fresh run's first attempt, else the rerun closure
        (committed sub-graphs are reused)."""
        state = run.state
        state.attempts_used += 1
        if index == 0 and not run.resumed:
            return list(run.order)
        # Resumed first attempts also take the closure path: commits
        # replayed from the journal are reused, never re-executed.
        pending = run.rerun_closure()
        reused = len(run.order) - len(pending)
        state.reused += reused
        if index > 0:
            run.metrics.reruns += 1
            self.audit.record(
                self.loop.now,
                RERUN,
                state.script_id,
                attempt=index,
                replication=state.replication,
                jobs_rerun=len(pending),
                jobs_reused=reused,
                **self.audit_context,
            )
        return pending

    def _run_attempt(self, run: _Run, index: int, pending: list[int]):
        """Run attempt: journal ``attempt_start``, submit the replica
        chains, wait for the verdicts (settling each one at verdict time
        on the checkpoint tier) and return the finished attempt."""
        state = run.state
        tracer = self.telemetry.tracer
        if run.journal is not None:
            run.journal.append(
                wal.ATTEMPT_START,
                script_id=state.script_id,
                attempt=index,
                replication=state.replication,
                timeout=state.timeout,
                jobs=list(pending),
            )
        attempt = run.last_attempt = _Attempt(state.script_id, index, pending)
        attempt.span = tracer.begin(
            "attempt",
            parent=run.span,
            start=self.loop.now,
            script_id=state.script_id,
            attempt=index,
            replication=state.replication,
            timeout=state.timeout,
            jobs=len(pending),
        )
        span_parent = attempt.span.span_id if tracer.enabled else None

        def on_verdict(outcome: VerificationOutcome) -> None:
            attempt.outcomes[outcome.sid] = outcome
            if run.cfg.checkpoints and outcome.status == VERIFIED:
                # Verdict-time commit: a crash mid-attempt then resumes
                # from the last verified sub-graph.  TIMEOUT/FAILED sids
                # produce no commit, so they wait for the boundary.
                attempt.staged[outcome.sid] = self._settle_sid(
                    run, attempt, outcome, checkpoint=True
                )

        attempt.verifier = verifier = Verifier(
            self.loop,
            run.cfg.f,
            self.config.cost,
            state.timeout,
            on_verdict=on_verdict,
            on_late_fault=lambda sid, fault: self._on_late_fault(
                sid, fault, run.journal
            ),
            telemetry=self.telemetry,
            span_parent=span_parent,
        )
        self._submit_attempt(
            run.prepared,
            attempt,
            replication=state.replication,
            verified_paths=state.verified_paths,
            verifier=verifier,
            journal=run.journal,
            span_parent=span_parent,
        )
        # Global fail-safe: if stalled unverified jobs never finish,
        # end the attempt once every verification deadline has passed.
        self.loop.schedule(
            state.timeout + 4 * self.config.cost.digest_network_seconds,
            lambda: setattr(attempt, "force_end", True),
            label=f"attempt-deadline:{state.script_id}:{index}",
        )
        yield _WaitWhile(lambda: not attempt.done())
        # The force-end deadline can beat a verdict's delivery event;
        # pull any internally-decided outcomes so reruns see them.
        for sid in sorted(attempt.expected_verdicts - set(attempt.outcomes)):
            decided = verifier.outcome(sid)
            if decided is not None:
                attempt.outcomes[sid] = decided
        for job_run in attempt.runs:
            outcome = attempt.outcomes.get(job_run.sid)
            sid_verified = outcome is not None and outcome.status == VERIFIED
            if job_run.state != "done" and (
                not sid_verified or job_run.has_omitted_task()
            ):
                # Cancel runs that can never verify; keep the late
                # replicas of verified sids running — their digests
                # still feed offline fault attribution.
                self.engine.cancel(job_run)
        run.runs.extend(attempt.runs)
        run.metrics.verification_comparisons += verifier.total_comparisons
        return attempt

    def _settle_attempt(self, run: _Run, attempt: _Attempt) -> None:
        """Settle attempt: apply the outcomes to suspicion and isolation,
        settle every sid with a verdict into the run state, and journal
        the ``attempt_end`` snapshot of that state."""
        outcomes = list(attempt.outcomes.values())
        run.outcomes.extend(outcomes)
        self._apply_outcomes(attempt, outcomes, run.journal)
        state = run.state
        for job_index, sid in attempt.sids.items():
            if sid in attempt.staged:
                # Settled at verdict time (checkpoint tier): merge the
                # staged effects at the same point the boundary applies
                # its own, so rerun closures and assurance are identical.
                ok, target = attempt.staged[sid]
                if target is not None:
                    run.checkpointed += 1
            elif sid in attempt.outcomes:
                ok, target = self._settle_sid(
                    run, attempt, attempt.outcomes[sid], checkpoint=False
                )
            else:
                continue
            if ok:
                state.verified_ok.add(job_index)
            if target is not None:
                logical = run.prepared.job_graph.jobs[job_index].output_path
                state.verified_paths[logical] = target
                state.verified_jobs.add(job_index)
        attempt.span.end(
            verdicts={
                status: sum(1 for o in outcomes if o.status == status)
                for status in (VERIFIED, FAILED, TIMEOUT)
            },
            comparisons=attempt.verifier.total_comparisons,
        )
        if run.journal is not None:
            # The settled attempt boundary (fsync'd): everything
            # recovery needs to rebuild the control tier's state.
            # next_replication/next_timeout are the deterministic
            # escalation values — written *before* the escalation
            # branch runs (write-ahead).
            run.journal.append(
                wal.ATTEMPT_END,
                script_id=state.script_id,
                attempt=attempt.index,
                attempts_used=state.attempts_used,
                next_replication=state.replication + run.cfg.rerun_extra_replicas,
                next_timeout=run.escalated_timeout(state.timeout),
                verified_jobs=sorted(state.verified_jobs),
                verified_ok=sorted(state.verified_ok),
                verified_paths=dict(sorted(state.verified_paths.items())),
                reused=state.reused,
                suspicion={
                    node_id: [node.jobs_executed, node.faults_associated]
                    for node_id, node in sorted(self.suspicion.nodes.items())
                },
                analyzer={
                    "observations": self.fault_analyzer.observations,
                    "saturated_at": self.fault_analyzer.saturated_at,
                    "disjoint": [sorted(s) for s in self.fault_analyzer.disjoint],
                    "overlapping": [
                        sorted(s) for s in self.fault_analyzer.overlapping
                    ],
                },
                evicted=sorted(
                    node_id
                    for node_id, node in self.cluster.nodes.items()
                    if node.excluded
                ),
                quarantined=sorted(self.scheduler.quarantined),
            )

    def _settle_sid(
        self,
        run: _Run,
        attempt: _Attempt,
        outcome: VerificationOutcome,
        checkpoint: bool,
    ) -> tuple[bool, str | None]:
        """Settle one sid's verdict: journal and audit it, cross-check a
        VERIFIED sid's stored outputs, and commit the winner — as a
        ``commit`` at the attempt boundary or, on the checkpoint tier, a
        ``checkpoint`` at verdict time.

        Returns ``(verified_ok, committed target)`` for the caller to
        apply to the run state: the boundary applies it at once, the
        checkpoint tier stages it to the boundary (the in-flight
        attempt's path map must not change under it, keeping a
        checkpointed uninterrupted run event-for-event identical to a
        checkpoint-free one).
        """
        sid = outcome.sid
        journal = run.journal
        if journal is not None:
            journal.append(
                wal.VERDICT,
                sid=sid,
                status=outcome.status,
                winners=sorted(outcome.winners),
                faulty_replicas=sorted(fault.replica for fault in outcome.faults),
            )
        self.audit.record(
            self.loop.now,
            VERDICT,
            sid,
            status=outcome.status,
            winners=tuple(sorted(outcome.winners)),
            faulty_replicas=tuple(fault.replica for fault in outcome.faults),
            **self.audit_context,
        )
        if outcome.status != VERIFIED:
            return False, None
        job_index = attempt.jobs[sid]
        spec = run.prepared.job_graph.jobs[job_index]
        if output_coverage(spec) is None:
            return True, None
        # Equivocation defense: digests cover the *computed* stream, so a
        # node may verify yet persist different bytes.  Cross-check the
        # winners' stored outputs before trusting any of them; no
        # majority leaves the sid unsettled for the rerun escalation.
        winner = self._cross_checked_winner(
            attempt, outcome, job_index, spec, journal
        )
        if winner is None:
            return False, None
        source = attempt.replica_path(winner, spec.output_path)
        target = f"__run/{attempt.script_id}/verified/{spec.output_path}"
        if journal is not None:
            # The record carries the full winning content (fsync'd):
            # recovery re-stages it into a fresh DFS without
            # re-executing the job.
            content = wal.records_to_json(self.dfs.read(source))
            if checkpoint:
                journal.append(
                    wal.CHECKPOINT,
                    sid=sid,
                    job_index=job_index,
                    path=spec.output_path,
                    target=target,
                    winner=winner,
                    content=content,
                )
            else:
                journal.append(
                    wal.COMMIT,
                    sid=sid,
                    job_index=job_index,
                    path=spec.output_path,
                    target=target,
                    winner=winner,
                    content=content,
                )
        self._copy_file(source, target)
        # A checkpoint is audited as a COMMIT with a marker, so coverage
        # checks over committed sids keep seeing one uniform kind.
        marker = {"checkpoint": True} if checkpoint else {}
        self.audit.record(
            self.loop.now,
            COMMIT,
            sid,
            path=spec.output_path,
            winner=winner,
            **marker,
            **self.audit_context,
        )
        if checkpoint and self.telemetry.enabled:
            self.telemetry.tracer.event(
                "checkpoint.commit", sid=sid, path=spec.output_path
            )
            self.telemetry.metrics.counter("checkpoint_commits").inc()
        return True, target

    def _escalate(self, run: _Run, index: int) -> None:
        """Escalate: the next attempt runs with more replicas and a
        doubled (possibly capped) verifier timeout."""
        state = run.state
        state.replication += run.cfg.rerun_extra_replicas
        uncapped = state.timeout * 2
        state.timeout = run.escalated_timeout(state.timeout)
        if state.timeout < uncapped:
            # Liveness signal: escalation wanted to keep doubling but
            # hit the configured ceiling — audited, never silent.
            self.audit.record(
                self.loop.now,
                TIMEOUT_CAP,
                state.script_id,
                attempt=index,
                capped=state.timeout,
                uncapped=uncapped,
                **self.audit_context,
            )
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.event(
                "escalation",
                script_id=state.script_id,
                next_replication=state.replication,
                next_timeout=state.timeout,
            )

    def _close_run(self, run: _Run, strict: bool):
        """Close run: publish the outputs, stop the latency clock, drain
        late replicas for offline attribution, isolate, journal
        ``run_end`` and return the result."""
        state = run.state
        assured = run.assured()
        outputs = self._publish_outputs(
            run.prepared, state.verified_paths, run.last_attempt
        )
        metrics = run.metrics
        metrics.latency = self.loop.now - run.start
        exhausted = bool(run.verifiable) and not assured
        unsettled = [
            f"{state.script_id}.j{job_index}"
            for job_index in sorted(run.verifiable - state.verified_ok)
        ]
        if exhausted:
            self.audit.record(
                self.loop.now,
                EXHAUSTED,
                state.script_id,
                attempts=state.attempts_used,
                unsettled=tuple(unsettled),
                **self.audit_context,
            )
        run.span.end(
            end=self.loop.now,
            latency=metrics.latency,
            assured=assured,
            attempts=state.attempts_used,
            reused_jobs=state.reused,
            checkpoints=run.checkpointed,
        )
        # Drain the late replicas of verified sids (offline attribution):
        # happens after the latency clock stops — verification is not on
        # the critical path.  The drain is bounded: replicas that cannot
        # make progress (e.g. their partition was evicted) are cancelled.
        drain_deadline = self.loop.now + run.cfg.verifier_timeout
        yield _WaitWhile(
            lambda: self.loop.now < drain_deadline
            and any(r.is_active and not r.all_finished() for r in run.runs)
        )
        # Digest messages and verifier finalization trail task completion
        # by a few network hops — flush them, or late-replica faults
        # would never be attributed.
        yield _WaitUntil(
            self.loop.now + 10 * self.config.cost.digest_network_seconds + 0.5
        )
        for job_run in run.runs:
            if job_run.state != "done":
                self.engine.cancel(job_run)
        self._isolate(run.journal)
        for job_run in run.runs:
            metrics.absorb_job(job_run.metrics)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode="assured")
        if run.journal is not None:
            # Terminal record (fsync'd): a journal ending in run_end is
            # complete — resuming it replays the recorded result instead
            # of re-executing anything.  Closing here also enforces the
            # one-WAL-one-run contract.
            run.journal.append(
                wal.RUN_END,
                script_id=state.script_id,
                assured=assured,
                exhausted=exhausted,
                attempts=state.attempts_used,
                reused=state.reused,
                checkpoints=run.checkpointed,
                latency=metrics.latency,
                outputs={
                    logical: wal.records_to_json(records)
                    for logical, records in sorted(outputs.items())
                },
            )
            run.journal.close()
        result = ScriptResult(
            script_id=state.script_id,
            assured=assured,
            outputs=outputs,
            latency=metrics.latency,
            attempts=state.attempts_used,
            metrics=metrics,
            outcomes=run.outcomes,
            marked_vertices=list(run.prepared.marked_vertices),
            reused_jobs=state.reused,
            exhausted=exhausted,
            checkpoint_commits=run.checkpointed,
        )
        if exhausted and strict:
            error = VerificationExhausted(
                state.script_id, state.attempts_used, unsettled
            )
            error.result = result
            raise error
        return result

    # ------------------------------------------------------------------
    # attempt plumbing
    # ------------------------------------------------------------------

    def _submit_attempt(
        self,
        prepared: PreparedScript,
        attempt: _Attempt,
        replication: int,
        verified_paths: dict[str, str],
        verifier: Verifier | None,
        journal: wal.Journal | None = None,
        span_parent: int | None = None,
    ) -> None:
        graph = prepared.job_graph
        internal = graph.internal_paths()
        deps = graph.dependencies()
        pending = list(attempt.sids)
        pending_set = set(pending)
        attempt.deps = {i: {d for d in deps[i] if d in pending_set} for i in pending}

        submitted: set[tuple[int, int]] = set()
        done: set[tuple[int, int]] = set()

        for job_index, sid in attempt.sids.items():
            spec = graph.jobs[job_index]
            if verifier is not None and job_has_verification(spec):
                attempt.expected_verdicts.add(sid)
                # Register up front: the timeout clock must cover stalls
                # anywhere in the chain, including upstream jobs that
                # keep this sid's replicas from ever being submitted.
                verifier.register(sid, replication)
            else:
                for replica in range(replication):
                    attempt.plain_jobs_pending.add((job_index, replica))
                    if not spec.output_is_temp:
                        attempt.plain_final_pending.add((job_index, replica))

        def path_map_for(job_index: int, replica: int) -> dict[str, str]:
            spec = graph.jobs[job_index]
            mapping: dict[str, str] = {}
            for path in spec.input_paths():
                if path in verified_paths:
                    mapping[path] = verified_paths[path]
                elif path in internal:
                    mapping[path] = attempt.replica_path(replica, path)
            mapping[spec.output_path] = attempt.replica_path(
                replica, spec.output_path
            )
            return mapping

        def on_complete(run: JobRun, job_index: int, replica: int) -> None:
            done.add((job_index, replica))
            attempt.plain_jobs_pending.discard((job_index, replica))
            attempt.plain_final_pending.discard((job_index, replica))
            self.suspicion.record_job(run.nodes_used)
            chain = set(run.nodes_used)
            for dep in deps[job_index]:
                if dep in pending_set:
                    chain |= attempt.chain_nodes.get((dep, replica), set())
            attempt.chain_nodes[(job_index, replica)] = chain
            if verifier is not None and job_has_verification(run.spec):
                if journal is not None:
                    # Write-ahead: the digest receipt is journaled before
                    # the verifier acts on it.
                    journal.append(
                        wal.DIGEST,
                        sid=run.sid,
                        replica=replica,
                        nodes=sorted(chain),
                    )
                verifier.replica_completed(run.sid, replica, chain)
            submit_ready()

        def submit_ready() -> None:
            for job_index in pending:
                job_deps = {d for d in deps[job_index] if d in pending_set}
                for replica in range(replication):
                    key = (job_index, replica)
                    if key in submitted:
                        continue
                    if not all((d, replica) in done for d in job_deps):
                        continue
                    submitted.add(key)
                    sid = attempt.sids[job_index]
                    spec = graph.jobs[job_index]
                    run = JobRun(
                        job_id=f"{sid}.r{replica}",
                        sid=sid,
                        replica=replica,
                        spec=spec,
                        path_map=path_map_for(job_index, replica),
                        scope=f"{attempt.script_id}.a{attempt.index}",
                        digest_sink=verifier.on_report if verifier else None,
                        on_complete=lambda run, i=job_index, k=replica: on_complete(
                            run, i, k
                        ),
                        total_replicas=replication,
                        # Span attributes for trace analysis: the deps
                        # (restricted to this attempt's pending set) are
                        # what the critical-path computation follows.
                        trace_attrs={
                            "attempt": attempt.index,
                            "job_index": job_index,
                            "deps": sorted(job_deps),
                        },
                        span_parent=span_parent,
                    )
                    attempt.runs.append(run)
                    attempt.runs_by_job.setdefault(job_index, []).append(run)
                    self.engine.submit(run)

        submit_ready()

    # ------------------------------------------------------------------
    # outcome handling: suspicion, fault isolation, eviction
    # ------------------------------------------------------------------

    def _record_fault(
        self,
        sid: str,
        replica: int,
        kind: str,
        nodes,
        journal: wal.Journal | None,
        late: bool = False,
    ) -> None:
        """Attribute one faulty replica of ``sid``: journal it
        (write-ahead), audit it under the tenant attribution, charge its
        cluster's suspicion and — for commission and equivocation, which
        prove wrong content — feed the fault analyzer.  ``late`` marks a
        replica that disagreed after its sid's verdict."""
        nodes = sorted(nodes)
        if journal is not None:
            if late:
                journal.append(
                    wal.LATE_FAULT,
                    sid=sid,
                    replica=replica,
                    fault_kind=kind,
                    nodes=nodes,
                )
            else:
                journal.append(
                    wal.FAULT,
                    sid=sid,
                    replica=replica,
                    fault_kind=kind,
                    nodes=nodes,
                )
        late_marker = {"late": True} if late else {}
        self.audit.record(
            self.loop.now,
            FAULT,
            sid,
            replica=replica,
            fault_kind=kind,
            nodes=tuple(nodes),
            **late_marker,
            **self.audit_context,
        )
        self.suspicion.record_fault(set(nodes))
        if kind != OMISSION:
            self.fault_analyzer.observe(set(nodes))

    def _on_late_fault(
        self, sid: str, fault: ReplicaFault, journal: wal.Journal | None = None
    ) -> None:
        """A replica that finished after its sid's verdict disagreed with
        the winning digest vector."""
        self._record_fault(
            sid, fault.replica, fault.kind, fault.nodes, journal, late=True
        )
        self._maybe_reconfigure(journal)
        if self.telemetry.enabled:
            self._publish_suspicion_gauges()

    def _apply_outcomes(
        self,
        attempt: _Attempt,
        outcomes: list[VerificationOutcome],
        journal: wal.Journal | None,
    ) -> None:
        suspected: list[set[NodeId]] = []
        for outcome in outcomes:
            if outcome.status == VERIFIED:
                # Losers are *known* faulty clusters: quorum proved the
                # correct digests, these replicas disagreed.
                for fault in outcome.faults:
                    self._record_fault(
                        outcome.sid, fault.replica, fault.kind, fault.nodes, journal
                    )
            elif outcome.status == FAILED:
                # No quorum: every cluster is a suspect, none is proven.
                suspected.extend(set(fault.nodes) for fault in outcome.faults)
            elif outcome.status == TIMEOUT:
                # Suspect only the replicas that never reported.
                suspected.append(self._missing_replica_nodes(attempt, outcome))
        self._isolate(journal, suspected, exonerate=True)
        self._maybe_reconfigure(journal)
        if self.telemetry.enabled:
            self._publish_suspicion_gauges()

    def _missing_replica_nodes(
        self, attempt: _Attempt, outcome: VerificationOutcome
    ) -> set[NodeId]:
        """Nodes that touched a replica chain that never reported: the
        stalled job's own nodes plus the finished upstream chain."""
        nodes: set[NodeId] = set()
        for job_index, runs in attempt.runs_by_job.items():
            for run in runs:
                if run.sid == outcome.sid and run.replica in outcome.missing_replicas:
                    nodes |= run.nodes_used
                    for dep in attempt.deps.get(job_index, set()):
                        nodes |= attempt.chain_nodes.get((dep, run.replica), set())
        return nodes

    def _cross_checked_winner(
        self,
        attempt: _Attempt,
        outcome: VerificationOutcome,
        job_index: int,
        spec,
        journal: wal.Journal | None,
    ) -> int | None:
        """Content cross-check over the digest quorum's winner replicas.

        Groups the winners by the bytes they actually stored and commits
        the lowest replica of a strict majority.  Divergent winners are
        demoted to equivocation faults (their digests matched, their
        stored file did not), feeding suspicion and the fault analyzer.
        Returns ``None`` when no majority exists — the caller must leave
        the sid unsettled so the rerun escalation handles it.
        """
        groups: dict[tuple, list[int]] = {}
        for replica in sorted(outcome.winners):
            path = attempt.replica_path(replica, spec.output_path)
            if not self.dfs.exists(path):
                continue
            content = tuple(
                encode_record(r) for r in self.dfs.file_info(path).records()
            )
            groups.setdefault(content, []).append(replica)
        if not groups:
            return None
        readable = sum(len(replicas) for replicas in groups.values())
        majority: list[int] | None = None
        for replicas in groups.values():
            if len(replicas) * 2 > readable:
                majority = replicas
                break
        divergent = sorted(
            replica
            for replicas in groups.values()
            if replicas is not majority
            for replica in replicas
        )
        for replica in divergent:
            self._record_fault(
                outcome.sid,
                replica,
                "equivocation",
                attempt.chain_nodes.get((job_index, replica), set()),
                journal,
            )
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("equivocations_detected").inc()
        if divergent:
            # Equivocation is often the first region-level signal a
            # degrading zone gives off — check for migration here too,
            # not just at attempt boundaries.
            self._maybe_reconfigure(journal)
            if self.telemetry.enabled:
                self._publish_suspicion_gauges()
        if majority is None:
            return None
        return min(majority)

    def _isolate(
        self,
        journal: wal.Journal | None,
        suspected: Sequence[set[NodeId]] = (),
        exonerate: bool = False,
    ) -> None:
        """Resource-manager step: charge the ``suspected`` clusters
        (unproven — no quorum, or replicas that never reported); with
        ``exonerate`` (attempt boundaries) let a saturated fault analyzer
        clear every node outside its suspect set (paper §4.3); then
        evict nodes over the suspicion threshold and quarantine those
        over the quarantine threshold."""
        cfg = self.config.bft
        for nodes in suspected:
            self.suspicion.record_fault(nodes)
        if exonerate and self.fault_analyzer.saturated:
            cleared = self.suspicion.suspects() - self.fault_analyzer.suspects()
            if journal is not None:
                # The analyzer's conclusion, journaled before it acts.
                journal.append(
                    wal.ANALYZER,
                    suspects=sorted(self.fault_analyzer.suspects()),
                    cleared=sorted(cleared),
                )
            if cleared:
                self.suspicion.clear_faults(cleared)
        tiers = [(EVICTION, cfg.suspicion_threshold)]
        if cfg.quarantine_threshold is not None:
            tiers.append((QUARANTINE, cfg.quarantine_threshold))
        # Evictions first (eviction supersedes quarantine).  Sorted:
        # audit-entry order must not depend on set iteration (string
        # hashing is salted per process — byte-identical trace replays
        # need a canonical order).
        for kind, threshold in tiers:
            for node_id in sorted(self.suspicion.over_threshold(threshold)):
                node = self.suspicion.nodes[node_id]
                if (
                    node.jobs_executed < cfg.suspicion_min_jobs
                    or self.cluster.node(node_id).excluded
                    or (kind == QUARANTINE and self.scheduler.is_quarantined(node_id))
                ):
                    continue
                level = round(node.level, 3)
                if kind == EVICTION:
                    if journal is not None:
                        journal.append(
                            wal.EVICTION,
                            node=node_id,
                            suspicion=level,
                            jobs=node.jobs_executed,
                            **self.audit_context,
                        )
                    self.cluster.exclude(node_id)
                else:
                    if journal is not None:
                        journal.append(
                            wal.QUARANTINE,
                            node=node_id,
                            suspicion=level,
                            jobs=node.jobs_executed,
                            **self.audit_context,
                        )
                    self.scheduler.quarantine(node_id)
                self.audit.record(
                    self.loop.now,
                    kind,
                    node_id,
                    suspicion=level,
                    jobs=node.jobs_executed,
                    **self.audit_context,
                )

    # ------------------------------------------------------------------
    # online reconfiguration: region-level migration
    # ------------------------------------------------------------------

    def _region_suspicion(self, region: str) -> tuple[float, int]:
        """Aggregate suspicion of a region: total faults over total jobs
        across its nodes (0.0 before any node there executed a job)."""
        jobs = faults = 0
        for node_id in self.cluster.region_node_ids(region):
            state = self.suspicion.nodes.get(node_id)
            if state is None:
                continue
            jobs += state.jobs_executed
            faults += state.faults_associated
        return (faults / jobs if jobs else 0.0, jobs)

    def _schedulable_region_nodes(self, region: str) -> list[NodeId]:
        return [
            node_id
            for node_id in self.cluster.region_node_ids(region)
            if not self.cluster.node(node_id).excluded
            and not self.scheduler.is_quarantined(node_id)
        ]

    def _maybe_reconfigure(self, journal: wal.Journal | None = None) -> None:
        """Migrate replica sets out of any region whose aggregate
        suspicion crossed the threshold.

        Invoked after every fault application; a no-op (and therefore
        byte-identical to the seed) unless ``region_suspicion_threshold``
        is set on a multi-region cluster.  Never drains the last
        schedulable region — a fully-suspect cluster is the rerun
        escalation's problem, not the topology's.
        """
        cfg = self.config.bft
        threshold = cfg.region_suspicion_threshold
        if threshold is None or not self.cluster.config.regions:
            return
        regions = self.cluster.regions()
        for region in regions:
            nodes = self._schedulable_region_nodes(region)
            if not nodes:
                continue  # already migrated, quarantined or evicted
            level, jobs = self._region_suspicion(region)
            if jobs < cfg.region_min_jobs or level <= threshold:
                continue
            others_alive = any(
                self._schedulable_region_nodes(other)
                for other in regions
                if other != region
            )
            if not others_alive:
                continue
            self._migrate_region(region, level, jobs, nodes, journal)

    def _migrate_region(
        self,
        region: str,
        level: float,
        jobs: int,
        nodes: list[NodeId],
        journal: wal.Journal | None,
    ) -> None:
        """Quarantine a degrading region wholesale and re-dispatch its
        in-flight work; journaled write-ahead so a resumed run replays
        the same placement decision."""
        sids = sorted({run.sid for run in self.engine.runs if run.is_active})
        if journal is not None:
            journal.append(
                wal.RECONFIG,
                region=region,
                suspicion=round(level, 3),
                jobs=jobs,
                nodes=sorted(nodes),
                sids=sids,
                **self.audit_context,
            )
        for node_id in sorted(nodes):
            self.scheduler.quarantine(node_id)
        moved = 0
        for node_id in sorted(nodes):
            moved += self.engine.evacuate_node(node_id)
        self.audit.record(
            self.loop.now,
            RECONFIG,
            region,
            suspicion=round(level, 3),
            jobs=jobs,
            nodes=tuple(sorted(nodes)),
            tasks_moved=moved,
            **self.audit_context,
        )
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "region.migrated",
                region=region,
                suspicion=round(level, 3),
                nodes=len(nodes),
                tasks_moved=moved,
            )
            self.telemetry.metrics.counter("region_migrations").inc()

    def _publish_suspicion_gauges(self) -> None:
        """One gauge-publication path for every execution surface: the
        same series the isolation simulator emits (via the shared
        :func:`~repro.core.gauges.publish_suspicion`), so controller
        traces — including chaos-campaign cells — carry Fig. 12-style
        time-series too."""
        publish_suspicion(
            self.telemetry.metrics,
            self.suspicion,
            self.fault_analyzer,
            quarantined=len(self.scheduler.quarantined),
        )
        # Per-region aggregate suspicion (geo clusters only; flat
        # clusters declare no regions, so their gauge set is unchanged).
        for region in self.cluster.regions():
            level, _jobs = self._region_suspicion(region)
            self.telemetry.metrics.gauge("region_suspicion", region=region).set(level)

    # ------------------------------------------------------------------
    # output publication
    # ------------------------------------------------------------------

    def _copy_file(self, source: str, target: str) -> None:
        records = self.dfs.read(source)
        if self.dfs.exists(target):
            self.dfs.delete(target)
        self.dfs.write_file(target, records)

    def _publish_outputs(
        self,
        prepared: PreparedScript,
        verified_paths: dict[str, str],
        attempt: _Attempt | None,
    ) -> dict[str, list[Record]]:
        outputs: dict[str, list[Record]] = {}
        for job in prepared.job_graph.jobs:
            if job.output_is_temp:
                continue
            logical = job.output_path
            source = verified_paths.get(logical)
            if source is None and attempt is not None:
                # Unverified or unassured: best-effort replica 0 of the
                # last attempt (flagged by ScriptResult.assured = False).
                source = attempt.replica_path(0, logical)
            if source is None or not self.dfs.exists(source):
                outputs[logical] = []
                continue
            self._copy_file(source, logical)
            outputs[logical] = self.dfs.read(logical)
        return outputs
