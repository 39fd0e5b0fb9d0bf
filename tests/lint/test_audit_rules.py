"""AUD001: shared-state mutations between yields of the cooperative
service generator must carry tenant audit attribution."""

from pathlib import Path

from repro.lint.flow.audit_rules import run_audit_check
from repro.lint.flow.callgraph import build_project
from tests.lint.test_wal_rules import deep_findings, mutate

ATTRIBUTED = '''\
class Controller:
    def _assured_steps(self, script):
        yield self.settle()

    def settle(self):
        self.audit.record(
            self.loop.now, "fault", "s0", replica=1, **self.audit_context
        )
        self.suspicion.record_fault({"n1"})
'''

SILENT_MUTATION = '''\
class Controller:
    def _assured_steps(self, script):
        yield self.settle()

    def settle(self):
        self.suspicion.record_fault({"n1"})
        self.fault_analyzer.observe({"n1"})
'''

UNATTRIBUTED_RECORD = '''\
class Controller:
    def _assured_steps(self, script):
        yield self.settle()

    def settle(self):
        self.audit.record(self.loop.now, "fault", "s0", replica=1)
        self.suspicion.record_fault({"n1"})
'''

OUTSIDE_WINDOW = '''\
class Controller:
    def run(self):
        # not reachable from _assured_steps: no attribution window
        self.suspicion.record_fault({"n1"})
'''


def graph_for(tmp_path, source):
    pkg = tmp_path / "proj"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "svc.py").write_text(source)
    return build_project([Path(pkg / "__init__.py"), Path(pkg / "svc.py")])


def test_attributed_mutation_is_clean(tmp_path):
    assert run_audit_check(graph_for(tmp_path, ATTRIBUTED)) == []


def test_silent_mutation_flagged_with_chain(tmp_path):
    (finding,) = run_audit_check(graph_for(tmp_path, SILENT_MUTATION))
    assert finding.rule == "AUD001"
    assert finding.symbol == "proj.svc.Controller.settle"
    assert finding.chain == (
        "proj.svc.Controller._assured_steps",
        "proj.svc.Controller.settle",
    )
    assert "suspicion.record_fault" in finding.message
    assert "fault_analyzer.observe" in finding.message


def test_unattributed_audit_record_flagged(tmp_path):
    # Both obligations are broken: the record drops the attribution AND
    # the mutation has no attributed record alongside it.
    findings = run_audit_check(graph_for(tmp_path, UNATTRIBUTED_RECORD))
    assert [f.rule for f in findings] == ["AUD001", "AUD001"]
    assert any("does not forward" in f.message for f in findings)
    assert any("cannot be traced" in f.message for f in findings)


def test_mutations_outside_the_window_are_not_flagged(tmp_path):
    assert run_audit_check(graph_for(tmp_path, OUTSIDE_WINDOW)) == []


def test_no_generator_no_findings(tmp_path):
    source = SILENT_MUTATION.replace("yield self.settle()", "return self.settle()")
    assert run_audit_check(graph_for(tmp_path, source)) == []


def test_real_tree_unattributed_fault_record_trips_aud001(real_tree):
    # The controller's one FAULT audit call sits in a phase helper; the
    # finding proves the phases stay reachable from the generator.
    mutate(
        real_tree,
        "core/controller.py",
        "            **late_marker,\n            **self.audit_context,\n",
        "            **late_marker,\n",
    )
    findings = deep_findings(real_tree, "AUD001")
    assert findings, "dropping the FAULT attribution must trip AUD001"
    assert {d.symbol for d in findings} == {
        "repro.core.controller.ClusterBFTController._record_fault"
    }
    assert all(
        d.chain[0] == "repro.core.controller.ClusterBFTController._assured_steps"
        for d in findings
    )
