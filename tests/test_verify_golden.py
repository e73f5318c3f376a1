"""The verify report against the committed reports of tests/data.

A change that should leave the report as it is (a refactor or a speed-up)
must keep every check's name and status, the coverage line and the verdict,
and may move a check's largest deviation by at most 1e-15.

The files are a record to 1e-15, not a bit-exact one: on a 2-vCPU Xeon with
Python 3.11.7 and numpy 2.4.6, ``ctxsd verify`` prints one to three max_dev
values that differ from them by 1-2 ulps. Never regenerate them to absorb
an ulp move; a move beyond 1e-15 is a finding to report.
"""

from pathlib import Path

import pytest

from ctxsd.harness import verify_all

_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("points", [21, 51])
def test_verify_report_matches_the_committed_report(points):
    golden = (_DATA / f"verify_{points}.txt").read_text(encoding="utf-8").splitlines()
    report = verify_all(points)
    lines = report.render().splitlines()
    assert len(lines) == len(golden) == len(report.checks) + 3
    assert lines[0] == golden[0]
    for ch, line, want in zip(report.checks, lines[1:-2], golden[1:-2]):
        assert line.split()[:2] == want.split()[:2]  # status and name
        assert abs(ch.max_dev - float(want.split("max_dev=")[1])) <= 1e-15, (ch.name, ch.max_dev)
    assert lines[-2:] == golden[-2:]  # the coverage line and the verdict
