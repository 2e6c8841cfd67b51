"""Fixtures shared by the test modules.

`verify_run` runs `modequiv verify --fields 2 --report structured` once per
session, and the CLI and verify tests assert against that one run.  Its
stdout is pinned in tests/golden/verify_structured.json.  Only when the
output is meant to change, regenerate that file in a fresh process with

    PYTHONPATH=src python tests/test_golden.py verify
"""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

from modequiv import cli, verify
from modequiv.verify import Report, run_verification

VERIFY_ARGV = ["verify", "--fields", "2", "--report", "structured"]
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_structured.json"


@dataclass(frozen=True)
class VerifyRun:
    exit_code: int
    stdout: str
    report: Report


def run_verify() -> VerifyRun:
    """Run the CLI on VERIFY_ARGV, keeping the Report it printed."""
    reports = []

    def keep(cfg):
        reports.append(run_verification(cfg))
        return reports[-1]

    out = io.StringIO()
    with mock.patch.object(verify, "run_verification", keep), contextlib.redirect_stdout(out):
        code = cli.main(VERIFY_ARGV)
    return VerifyRun(code, out.getvalue(), reports[0])


@pytest.fixture(scope="session")
def verify_run() -> VerifyRun:
    return run_verify()


@pytest.fixture(scope="session")
def verify_golden() -> str:
    return VERIFY_GOLDEN.read_text()
