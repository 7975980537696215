"""Pass only when the tier-1 run failed exactly the tests it is known to fail.

Usage: python3 .github/check_tier1.py JUNIT_XML

Reads pytest's --junitxml report, run from the repository root. A test is
failing when its <testcase> holds a <failure> or an <error>, collection
errors included. The known failure must have run and failed: skipped or
missing, it counts as a mismatch.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from pathlib import Path

# Kept on purpose: criterion 2's saturation check contradicts its own decay check.
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_2_herding_saturation"}


def node_id(classname: str, name: str) -> str:
    """pytest's node id from a junit classname ("tests.test_cli.TestX") and name."""
    parts = classname.split(".") if classname else []
    for k in range(len(parts), 0, -1):
        module = "/".join(parts[:k]) + ".py"
        if Path(module).is_file():
            return "::".join([module, *parts[k:], name])
    return "::".join([*parts, name])


def failing_tests(report: Path) -> tuple[set[str], int]:
    """Ids of the failed or errored test cases, and the number of test cases."""
    cases = ET.parse(report).getroot().iter("testcase")
    failed, total = set(), 0
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node_id(case.get("classname", ""), case.get("name", "")))
    return failed, total


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed, total = failing_tests(Path(argv[0]))
    if total == 0:
        print("no test cases in the report", file=sys.stderr)
        return 1
    unexpected, missing = sorted(failed - EXPECTED_FAILURES), sorted(EXPECTED_FAILURES - failed)
    for test in unexpected:
        print(f"unexpected failure: {test}", file=sys.stderr)
    for test in missing:
        print(f"expected to fail but did not fail: {test}", file=sys.stderr)
    if unexpected or missing:
        return 1
    print(f"{total} test cases; failing exactly as expected: {', '.join(sorted(failed))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
