import json

import pytest

from modequiv.verify import (
    CLAIM_IDS,
    CLAIMS,
    FAIL,
    PASS,
    SKIPPED,
    Report,
    RunConfig,
    run_claim,
)


def test_claim_registry_covers_the_acceptance_list():
    assert CLAIM_IDS == (
        "tame-pair",
        "wild-pair",
        "indec-rdec",
        "r-distinct",
        "riso-not-tiso",
        "jordan-orbit",
        "two-generator-orbit",
        "band-scaling",
        "semidihedral-family",
        "c-families",
        "algebra-laws",
    )
    assert len(CLAIMS) == 11


def test_runconfig_validation():
    with pytest.raises(Exception):
        RunConfig(fields=(4,))
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    with pytest.raises(ValueError):
        RunConfig(report="yaml")


def test_budget_skips_are_reported_not_failed():
    cfg = RunConfig(fields=(5,), budget=1000)
    rec = run_claim("riso-not-tiso", cfg, 5)
    assert rec.status == SKIPPED
    assert "budget" in rec.detail


def test_semidihedral_skipped_at_p5_default_budget():
    rec = run_claim("semidihedral-family", RunConfig(fields=(5,)), 5)
    assert rec.status == SKIPPED


def test_structured_report_shape_and_exit_code(verify_run):
    # verify_run ran RunConfig(fields=(2,), report="structured") through the CLI
    report = verify_run.report
    payload = json.loads(report.to_structured())
    assert [rec["claim"] for rec in payload["claims"]] == list(CLAIM_IDS)
    statuses = {rec["claim"]: rec["status"] for rec in payload["claims"]}
    # the one documented defect at p=2
    assert statuses["indec-rdec"] == FAIL
    assert report.exit_code == 1
    text = report.to_text()
    for cid in CLAIM_IDS:
        assert cid in text


def test_report_exit_zero_without_failures(verify_run):
    records = verify_run.report.records
    passing = tuple(r for r in records if r.status == PASS)
    assert Report(passing).exit_code == 0
