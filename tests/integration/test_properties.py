"""Property-based integration tests.

Hypothesis drives randomized data through randomized plan shapes and
checks the system-level invariants:

* distributed execution ≡ the reference interpreter (as multisets, or
  exactly for ordered outputs);
* correct replicas always produce identical digest vectors;
* a tampered stream never produces the clean stream's digest.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.dataflow.interpreter import interpret
from repro.dataflow.piglatin import parse_script

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    ),
    min_size=0,
    max_size=80,
)

SCRIPTS = [
    # filter + group + count
    """
    A = LOAD 'in' AS (k:int, v:int);
    B = FILTER A BY v IS NOT NULL;
    G = GROUP B BY k;
    C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
    STORE C INTO 'out';
    """,
    # group + sum + order + limit
    """
    A = LOAD 'in' AS (k:int, v:int);
    B = FILTER A BY v IS NOT NULL;
    G = GROUP B BY k;
    C = FOREACH G GENERATE group AS k, SUM(B.v) AS total;
    O = ORDER C BY total DESC, k ASC;
    T = LIMIT O 4;
    STORE T INTO 'out';
    """,
    # self-join + distinct
    """
    A = LOAD 'in' AS (k:int, v:int);
    B = FILTER A BY v IS NOT NULL;
    J = JOIN A BY k, B BY v;
    P = FOREACH J GENERATE A::v AS x, B::k AS y;
    D = DISTINCT P;
    STORE D INTO 'out';
    """,
    # union + group
    """
    A = LOAD 'in' AS (k:int, v:int);
    B = FILTER A BY v > 0;
    C = FILTER A BY v < 0;
    U = UNION B, C;
    G = GROUP U BY k;
    S = FOREACH G GENERATE group AS k, COUNT(U) AS n;
    STORE S INTO 'out';
    """,
    # boolean filter + arithmetic + scalar functions + multi-key group
    """
    A = LOAD 'in' AS (k:int, v:int);
    B = FILTER A BY (v IS NULL OR v > -20) AND NOT (k == 3);
    C = FOREACH B GENERATE k, k % 3 AS m, ABS(v) AS a, v * 2 - k AS w,
        TRUNC(v / (k - 4), 1) AS t;
    G = GROUP C BY (k, m);
    S = FOREACH G GENERATE group AS km, COUNT(C) AS n, SUM(C.a) AS total,
        MAX(C.w) AS hi, MAX(C.t) AS top;
    STORE S INTO 'out';
    """,
]

CONFIG = SystemConfig(
    cluster=ClusterConfig(num_nodes=8, slots_per_node=3, heartbeat_period=0.5),
    bft=ClusterBFTConfig(f=1, replication=3, verification_points=1, verifier_timeout=120.0),
)


@st.composite
def script_and_rows(draw):
    index = draw(st.integers(min_value=0, max_value=len(SCRIPTS) - 1))
    rows = draw(rows_strategy)
    return SCRIPTS[index], rows, index


class TestEngineMatchesInterpreter:
    @given(script_and_rows())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_distributed_equals_reference(self, case):
        script, rows, index = case
        records = records_from_rows(rows)
        controller = ClusterBFTController(CONFIG, block_bytes=512)
        controller.load_input("in", records)
        result = controller.run_plain(script)
        reference = interpret(parse_script(script), inputs={"in": records})
        ordered = index == 1  # ORDER + LIMIT: order must match exactly
        if ordered:
            assert result.outputs["out"] == reference["out"]
        else:
            assert sorted((r.fields for r in result.outputs["out"]), key=repr) == sorted(
                (r.fields for r in reference["out"]), key=repr
            )


class TestReplicaDeterminism:
    @given(script_and_rows())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_assured_commits_reference_answer(self, case):
        script, rows, _ = case
        records = records_from_rows(rows)
        controller = ClusterBFTController(CONFIG, block_bytes=512)
        controller.load_input("in", records)
        result = controller.run_assured(script)
        assert result.assured, "correct replicas must always verify"
        assert result.attempts == 1
        reference = interpret(parse_script(script), inputs={"in": records})
        assert sorted((r.fields for r in result.outputs["out"]), key=repr) == sorted(
            (r.fields for r in reference["out"]), key=repr
        )


class TestDigestSoundness:
    @given(rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_tampering_always_changes_digest(self, rows):
        from repro.common.hashing import digest_of
        from repro.faults.behaviors import CommissionBehavior

        records = records_from_rows(rows)
        if not records:
            return
        behavior = CommissionBehavior(probability=1.0)
        corrupted = behavior.corrupt_records(list(records), random.Random(0))
        assert digest_of(records).value != digest_of(corrupted).value
