import json
import os
import subprocess
import sys

import pytest

import modequiv
from modequiv import equiv, verify
from modequiv.algebra import (
    enumerate_proper_subalgebras,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from modequiv.cli import main, parse_inputs
from modequiv.errors import SchemaError
from modequiv.families import fixture, jordan, k_module
from modequiv.linalg import Mat
from modequiv.modrep import IsoResult, Verdict, restrict
from modequiv.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    module_from_dict,
    module_loads,
    module_to_dict,
)


# -- serialization -------------------------------------------------------------


def test_algebra_round_trip_all_kinds():
    from modequiv.algebra import make_dihedral_algebra, make_free_univariate

    for alg in (
        make_rsz_algebra(3, 2),
        make_free_univariate(5),
        make_dihedral_algebra(2, 1, 0, 3),
        make_semidihedral_algebra(2),
    ):
        assert algebra_from_dict(algebra_to_dict(alg)) == alg


def test_module_round_trip():
    mods = [m for name in ("tame3", "wild6", "semidih2") for m in fixture(name, 2)[1]]
    # restrictions to W = 0 live over the rsz algebra on no generators
    for m in (*fixture("tame3", 2)[1], *fixture("wild6", 3)[1], k_module(0, 2, 3)):
        zero = enumerate_proper_subalgebras(m.algebra, "all")[0]
        assert zero.dim_w == 0
        mods.append(restrict(m, zero))
    for m in mods:
        again = module_from_dict(module_to_dict(m))
        assert again.algebra == m.algebra
        assert again.dim == m.dim
        assert again.action == m.action


def test_module_from_nested_rows():
    data = {
        "algebra": {"field": 2, "kind": "rsz", "generators": 2},
        "dim": 2,
        "action": [[[0, 0], [1, 0]], [0, 0, 0, 0]],
    }
    m = module_from_dict(data)
    assert m.action[0] == Mat.basis(2, 2, 1, 2)
    assert m.action[1].is_zero()


def test_module_schema_errors():
    base = {
        "algebra": {"field": 2, "kind": "rsz", "generators": 2},
        "dim": 2,
        "action": [[0, 0, 1, 0], [0] * 4],
    }
    bad_shape = dict(base, action=[[0, 0, 1, 0, 0, 0], [0] * 4])
    with pytest.raises(SchemaError):
        module_from_dict(bad_shape)
    bad_count = dict(base, action=[[0, 0, 1, 0]])
    with pytest.raises(SchemaError):
        module_from_dict(bad_count)
    with pytest.raises(SchemaError):
        module_from_dict({"dim": 2})
    with pytest.raises(SchemaError):
        module_loads("not json")
    for bad in _MALFORMED_MODULES:
        with pytest.raises(SchemaError):
            module_from_dict(bad)


_SD2 = algebra_to_dict(make_semidihedral_algebra(2))
_SD2_MODULE = {"algebra": _SD2, "dim": 1, "action": [[0], [0]]}
# each of these once crashed with a TypeError or IndexError instead of a SchemaError
_MALFORMED_MODULES = [
    {"algebra": {"field": 2, "kind": "rsz", "generators": 2}, "dim": 2, "action": 7},
    dict(_SD2_MODULE, algebra=dict(_SD2, products=0)),
    dict(_SD2_MODULE, algebra=dict(_SD2, products=_SD2["products"][:6])),
    dict(_SD2_MODULE, algebra=dict(_SD2, unit=7)),
    dict(_SD2_MODULE, algebra=dict(_SD2, unit=-1)),
    dict(_SD2_MODULE, algebra=dict(_SD2, radical=[1, 2, 3, 4, 5, 9])),
    dict(_SD2_MODULE, algebra=dict(_SD2, relations=_SD2["relations"] + [[[1, [0, 5]]]])),
]


def test_module_with_violated_relation_raises():
    from modequiv.errors import RelationViolated

    data = {
        "algebra": {"field": 2, "kind": "rsz", "generators": 2},
        "dim": 2,
        "action": [[1, 0, 0, 0], [0] * 4],
    }
    with pytest.raises(RelationViolated):
        module_from_dict(data)


def test_semidihedral_table_shortcut_and_full_table():
    short = algebra_from_dict({"field": 2, "kind": "table", "name": "semidihedral"})
    assert short == make_semidihedral_algebra(2)
    full = algebra_from_dict(algebra_to_dict(make_semidihedral_algebra(3)))
    assert full == make_semidihedral_algebra(3)


# -- CLI ------------------------------------------------------------------------


def test_cli_iso_fixture_refs(capsys):
    assert main(["check", "iso", "wild6.M1", "wild6.M2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NO")


def test_cli_riso_all_scope(capsys):
    assert main(["check", "riso", "wild6.M1", "wild6.M2", "--scope", "all"]) == 0
    assert capsys.readouterr().out.startswith("YES")


def test_cli_self_iso_identity_witness(capsys):
    code = main(["check", "iso", "tame3.M1", "tame3.M1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "YES" in out and "witness" in out


def test_cli_file_inputs(tmp_path, capsys):
    m = jordan(1, 2, 3)
    f1 = tmp_path / "m1.json"
    f1.write_text(json.dumps(module_to_dict(m)))
    f2 = tmp_path / "m2.json"
    f2.write_text(json.dumps(module_to_dict(jordan(2, 2, 3))))
    assert main(["check", "iso", str(f1), str(f1)]) == 0
    capsys.readouterr()
    assert main(["check", "iso", str(f1), str(f2)]) == 1


def test_cli_undecided_exit_code(tmp_path, capsys):
    # wild6 at p=2: dim Hom and dim End are all 11, so no dimension
    # obstruction decides and a unit budget leaves the pair undecided
    _, (m1, m2) = fixture("wild6", 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(json.dumps(module_to_dict(m1)))
    p2.write_text(json.dumps(module_to_dict(m2)))
    assert main(["check", "iso", str(p1), str(p2), "--budget", "1"]) == 2


def test_cli_input_errors(tmp_path, capsys):
    assert main(["check", "iso", "missing.json", "also-missing.json"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "iso", str(bad), str(bad)]) == 3
    short = tmp_path / "short.json"
    short.write_text(
        json.dumps(
            {
                "algebra": {"field": 2, "kind": "rsz", "generators": 2},
                "dim": 2,
                "action": [[0, 0, 1, 0, 0], [0] * 4],
            }
        )
    )
    assert main(["check", "iso", str(short), str(short)]) == 3
    assert main(["check", "iso", "wild6.M1"]) == 3  # wrong arity
    assert main(["check", "iso", "wild6.M9", "wild6.M1"]) == 3
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_SD2_MODULE))
    capsys.readouterr()
    for i, data in enumerate(_MALFORMED_MODULES):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(data))
        assert main(["check", "tiso", str(path), str(good)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_tiso_free_algebra_past_the_budget_is_an_input_error(tmp_path, capsys):
    # k[X] at p = 65537 has p(p-1) > 2^20 affine automorphisms
    paths = []
    for lam in (0, 1):
        path = tmp_path / f"j{lam}.json"
        path.write_text(json.dumps(module_to_dict(jordan(lam, 2, 65537))))
        paths.append(str(path))
    assert main(["check", "tiso", *paths]) == 3
    assert "candidate space 4295032832 exceeds budget" in capsys.readouterr().err


def test_cli_indec_and_rdecomp(capsys):
    assert main(["check", "indec", "rdec4.M1"]) == 0
    capsys.readouterr()
    assert main(["check", "rdistinct", "rdist4.M1", "rdist4.M2"]) == 0
    capsys.readouterr()
    # documented defect: the printed fixture is not R-decomposable
    assert main(["check", "rdecomp", "rdec4.M1"]) == 1


def test_cli_undecided_relation_names_the_subalgebra_and_the_reason(capsys):
    assert main(["check", "rdecomp", "rdec4.M1", "--field", "3", "--budget", "4"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "UNDECIDED  End space of dim 6, 2 modulo a square-zero ideal, exceeds budget 4",
        "checked: 13",
        'witness: {"subalgebra": "W<1,0,1; 0,1,0>", "subalgebra_index": 3}',
    ]


def test_cli_undecided_twist_scan_names_the_automorphism(capsys, monkeypatch):
    monkeypatch.setattr(
        equiv, "_iso_from_hom", lambda *a: IsoResult(Verdict.UNDECIDED, note="search cut short")
    )
    argv = ["check", "tiso", "tame3.M1", "tame3.M1", "--report", "structured"]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "undecided" and payload["note"] == "search cut short"
    assert payload["witness"]["automorphism"].startswith("gen-matrix")


def test_cli_tiso_structured_witness(capsys):
    code = main(
        ["check", "tiso", "tame3.M1", "tame3.M1", "--report", "structured"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "yes"
    assert "automorphism" in payload["witness"]


def test_cli_torbit_and_resfn(tmp_path, capsys):
    files = []
    for i, lam in enumerate(range(3)):
        f = tmp_path / f"j{i}.json"
        f.write_text(json.dumps(module_to_dict(jordan(lam, 2, 3))))
        files.append(str(f))
    assert main(["check", "torbit", *files]) == 0
    payload_line = capsys.readouterr().out
    assert main(["check", "resfn", "tame3.M1", "--scope", "maximal"]) == 0
    out = capsys.readouterr().out
    assert "s0" in out


def test_cli_decompose(capsys):
    assert main(["check", "decompose", "tame3.M1"]) == 0
    out = capsys.readouterr().out
    assert "[3]" in out  # indecomposable: a single summand of dim 3


def test_cli_rtiso(capsys):
    assert main(["check", "rtiso", "tame3.M1", "tame3.M2"]) == 0


def test_cli_verify_structured_deterministic(verify_run, verify_golden):
    # the golden file was written by another process: equal bytes pin the
    # output across processes as well as across runs
    assert verify_run.exit_code in (0, 1)
    assert verify_run.stdout == verify_golden
    payload = json.loads(verify_run.stdout)
    claims = {(rec["claim"], rec["field"]) for rec in payload["claims"]}
    from modequiv.verify import CLAIM_IDS

    assert claims == {(cid, 2) for cid in CLAIM_IDS}
    assert all(rec["elapsed_ms"] is None for rec in payload["claims"])


def test_cli_verify_timing_flag(capsys, monkeypatch):
    # one cheap claim is enough to see the timings printed
    monkeypatch.setattr(verify, "CLAIM_IDS", ("tame-pair",))
    assert main(["verify", "--fields", "2", "--report", "structured", "--timing"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert any(rec["elapsed_ms"] is not None for rec in payload["claims"])


def test_cli_import_does_not_load_the_claim_suite():
    # `modequiv check` processes import the CLI module; only `verify` needs the claims
    src = os.path.dirname(os.path.dirname(modequiv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import modequiv.cli, sys; assert 'modequiv.verify' not in sys.modules"
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_cli_verify_has_no_seed_option(capsys):
    assert main(["verify", "--fields", "2", "--seed", "1"]) == 3


def test_cli_fixture_flag(capsys):
    assert main(["check", "iso", "--fixture", "wild6"]) == 1
    capsys.readouterr()
    assert main(["check", "riso", "--fixture", "wild6", "--scope", "all"]) == 0
    capsys.readouterr()
    assert main(["check", "indec", "--fixture", "rdec4"]) == 0
    capsys.readouterr()
    # mixing the flag with positional inputs is an input error
    assert main(["check", "iso", "wild6.M1", "--fixture", "wild6"]) == 3
    # no inputs at all is an input error too
    assert main(["check", "iso"]) == 3


def test_parse_inputs_mixed(tmp_path):
    f = tmp_path / "k.json"
    f.write_text(json.dumps(module_to_dict(k_module(0, 1, 2))))
    mods = parse_inputs(["tame3.M1", str(f)], field=2)
    assert mods[0].dim == 3 and mods[1].dim == 2
    with pytest.raises(SchemaError):
        parse_inputs(["tame3.M7"], field=2)
