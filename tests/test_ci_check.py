"""The CI checker passes only when exactly the known tier-1 failure fails."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_tier1", ROOT / ".github" / "check_tier1.py")
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

KEPT = '<testcase classname="tests.test_acceptance" name="test_criterion_2_herding_saturation">'
PASSED = '<testcase classname="tests.test_cli.TestExitCodes" name="test_linalg_error_exits_4"/>'
FAILED_KEPT = KEPT + '<failure message="x"/></testcase>'
SKIPPED = '<skipped type="pytest.skip" message="x"/></testcase>'
SKLEARN = ('<testcase classname="tests.test_classifier.TestSolver"'
           ' name="test_matches_reference_solver">')


def run(tmp_path, monkeypatch, *cases):
    report = tmp_path / "tier1.xml"
    report.write_text('<testsuites><testsuite name="pytest">' + "".join(cases)
                      + "</testsuite></testsuites>")
    monkeypatch.chdir(ROOT)
    return check_tier1.main([str(report)])


def test_only_the_kept_failure_passes(tmp_path, monkeypatch):
    assert run(tmp_path, monkeypatch, PASSED, FAILED_KEPT) == 0


@pytest.mark.parametrize("sklearn", [SKLEARN + SKIPPED, SKLEARN + "</testcase>"])
def test_the_sklearn_comparison_may_skip_or_run(tmp_path, monkeypatch, sklearn):
    assert run(tmp_path, monkeypatch, PASSED, sklearn, FAILED_KEPT) == 0


@pytest.mark.parametrize("cases", [
    (PASSED,),  # the kept test passed, or was deselected
    (KEPT + '<skipped message="x"/></testcase>',),
    (KEPT + "<failure/></testcase>",
     '<testcase classname="tests.test_cli.TestExitCodes" name="test_x"><failure/></testcase>'),
    (KEPT + "<failure/></testcase>",
     '<testcase classname="" name="tests.test_broken"><error message="collection"/></testcase>'),
    (),
    (PASSED.replace("/>", ">") + SKIPPED, FAILED_KEPT),  # any other skip
    (SKLEARN.replace("test_matches", "test_other") + SKIPPED, FAILED_KEPT),
])
def test_any_other_outcome_fails(tmp_path, monkeypatch, cases):
    assert run(tmp_path, monkeypatch, *cases) == 1


def test_ids_follow_pytest(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert (check_tier1.node_id("tests.test_cli.TestExitCodes", "test_a[1]")
            == "tests/test_cli.py::TestExitCodes::test_a[1]")
    assert check_tier1.node_id("tests.test_acceptance", "test_b") == "tests/test_acceptance.py::test_b"


def test_no_report_prints_usage(capsys):
    assert check_tier1.main([]) == 2
    assert capsys.readouterr().err.startswith("Usage: python3 .github/check_tier1.py")
