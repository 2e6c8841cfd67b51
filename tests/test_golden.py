"""Byte-for-byte pins of `modequiv check --report structured` on the fixtures
and of `modequiv verify --fields 2 --report structured`.

tests/golden/check_structured.json maps "kind fixture p" to the exit code
and stdout of `main(["check", kind, "--fixture", fixture, "--field", p,
"--report", "structured"])`, for every check kind on every fixture it
accepts (exit code other than 3) at p = 2 and 3, leaving out calls that took
over 2 s when the file was written (all calls in one process, in the order
below).  Only when the output is meant to change, regenerate it with

    PYTHONPATH=src python tests/test_golden.py

The verify output is compared by tests/test_cli.py against the one
session run of conftest.verify_run; regenerate its file with

    PYTHONPATH=src python tests/test_golden.py verify
"""

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

from modequiv.cli import CHECK_KINDS, EXIT_ERROR, main
from modequiv.families import FIXTURE_NAMES

GOLDEN = Path(__file__).parent / "golden" / "check_structured.json"
FIELDS = (2, 3)
SLOW_S = 2.0


def _run(key: str) -> dict:
    kind, name, p = key.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check", kind, "--fixture", name, "--field", p, "--report", "structured"])
    return {"exit": rc, "stdout": out.getvalue()}


def test_check_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden
    changed = [key for key in sorted(golden) if _run(key) != golden[key]]
    assert not changed


def _over_time(signum, frame):
    raise TimeoutError


def _write_check_golden():
    signal.signal(signal.SIGALRM, _over_time)
    cases = {}
    for kind in CHECK_KINDS:
        for name in FIXTURE_NAMES:
            for p in FIELDS:
                key = f"{kind} {name} {p}"
                signal.setitimer(signal.ITIMER_REAL, SLOW_S)
                try:
                    res = _run(key)
                except TimeoutError:
                    print(f"{key}: over {SLOW_S} s", file=sys.stderr)
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if res["exit"] != EXIT_ERROR:
                    cases[key] = res
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


def _write_verify_golden():
    from conftest import VERIFY_GOLDEN, run_verify

    VERIFY_GOLDEN.write_text(run_verify().stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["verify"]:
        _write_verify_golden()
    else:
        _write_check_golden()
