import itertools
import json

import pytest

from modequiv import verify
from modequiv.equiv import EquivVerdict
from modequiv.errors import BudgetExceeded
from modequiv.modrep import IndecResult, IsoResult, Verdict
from modequiv.verify import (
    CLAIM_IDS,
    CLAIMS,
    FAIL,
    PASS,
    SKIPPED,
    UNDECIDED,
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


def test_undecided_detail_is_the_decisions_reason():
    rec = run_claim("indec-rdec", RunConfig(fields=(3,), budget=4), 3)
    assert rec.status == UNDECIDED
    assert rec.detail == "End space of dim 6, 2 modulo a square-zero ideal, exceeds budget 4"


_UNDECIDED = {
    "is_isomorphic": IsoResult(Verdict.UNDECIDED, note="cut short"),
    "is_indecomposable": IndecResult(Verdict.UNDECIDED, note="cut short"),
    "r_isomorphic": EquivVerdict(Verdict.UNDECIDED, note="cut short"),
    "r_distinct": EquivVerdict(Verdict.UNDECIDED, note="cut short"),
    "r_decomposable": EquivVerdict(Verdict.UNDECIDED, note="cut short"),
    "t_isomorphic": EquivVerdict(Verdict.UNDECIDED, note="cut short"),
}

# (claim, decision, call): every verdict a claim reads at p = 2, by the
# decision and the number of its call that is left Undecided.  algebra-laws
# calls is_isomorphic 100 times on conjugates, once on the reassembled
# decomposition, then twice per basis-independence check.
_READS = [
    ("tame-pair", "is_isomorphic", 1),
    ("tame-pair", "r_isomorphic", 1),
    ("wild-pair", "is_isomorphic", 1),
    ("wild-pair", "r_isomorphic", 1),
    ("indec-rdec", "is_indecomposable", 1),
    ("indec-rdec", "r_decomposable", 1),
    ("r-distinct", "r_distinct", 1),
    ("r-distinct", "r_distinct", 2),
    ("riso-not-tiso", "r_isomorphic", 1),
    ("riso-not-tiso", "t_isomorphic", 1),
    ("two-generator-orbit", "is_isomorphic", 1),
    ("two-generator-orbit", "is_isomorphic", 2),
    ("band-scaling", "is_isomorphic", 1),
    ("semidihedral-family", "is_indecomposable", 1),
    ("semidihedral-family", "is_isomorphic", 1),
    ("semidihedral-family", "t_isomorphic", 1),
    ("c-families", "t_isomorphic", 1),
    ("algebra-laws", "is_isomorphic", 1),
    ("algebra-laws", "is_isomorphic", 101),
    ("algebra-laws", "is_isomorphic", 102),
    ("algebra-laws", "is_isomorphic", 103),
    ("algebra-laws", "r_isomorphic", 1),
    ("algebra-laws", "t_isomorphic", 1),
]


@pytest.mark.parametrize("claim,decision,call", _READS)
def test_an_undecided_decision_is_undecided_not_fail(claim, decision, call, monkeypatch):
    real, calls = getattr(verify, decision), itertools.count(1)

    def cut(*args):
        return _UNDECIDED[decision] if next(calls) == call else real(*args)

    monkeypatch.setattr(verify, decision, cut)
    if claim == "algebra-laws":
        # skips the twist laws, which read no verdict and take seconds
        monkeypatch.setattr(verify, "enumerate_automorphisms", _budget_exceeded)
    rec = run_claim(claim, RunConfig(fields=(2,)), 2)
    assert next(calls) == call + 1
    assert rec.status == UNDECIDED
    assert rec.detail.endswith("cut short")


def _budget_exceeded(*args):
    raise BudgetExceeded("not enumerated")
