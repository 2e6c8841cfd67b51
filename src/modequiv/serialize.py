"""JSON file schemas for algebras, modules, and verdicts.

Algebra: {"field": p, "kind": "rsz"|"free_univariate"|"dihedral"|"table",
kind-specific fields}.  Module: {"algebra": {...}, "dim": n, "action":
[one row-major integer array per generator]}.  Matrices are written flat
(row-major); nested row lists are accepted on input.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import (
    DIHEDRAL,
    FREE_UNIVARIATE,
    RSZ,
    TABLE,
    Algebra,
    NcPoly,
    _make_rsz,
    algebra_validate,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from .errors import ModEquivError, SchemaError
from .linalg import Mat, check_prime
from .modrep import Module, module_validate


def algebra_to_dict(a: Algebra) -> dict:
    out = {"field": a.p, "kind": a.kind}
    if a.kind == RSZ:
        out["generators"] = a.num_generators
    elif a.kind == DIHEDRAL:
        out["k"] = a.dihedral_k
        out["eps1"], out["eps2"] = a.dihedral_eps
    elif a.kind == TABLE:
        out["basis"] = list(a.basis_labels)
        out["words"] = [list(w) for w in a.basis_words]
        out["unit"] = a.unit_index
        out["radical"] = list(a.radical_basis)
        out["products"] = a.table.tolist()
        out["relations"] = [
            [[c, list(w)] for c, w in rel.terms] for rel in a.relations
        ]
        out["generators"] = len(a.generators)
    return out


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        raise SchemaError("algebra must be an object")
    try:
        p = int(data["field"])
        kind = data["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"algebra needs 'field' and 'kind': {exc}") from exc
    try:
        if kind == RSZ:
            g = int(data["generators"])
            # W = 0 restrictions live over the rsz algebra on no generators
            return _make_rsz(0, check_prime(p)) if g == 0 else make_rsz_algebra(g, p)
        if kind == FREE_UNIVARIATE:
            return make_free_univariate(p)
        if kind == DIHEDRAL:
            return make_dihedral_algebra(
                int(data["k"]), int(data["eps1"]), int(data["eps2"]), p
            )
        if kind == TABLE:
            if data.get("name") == "semidihedral":
                return make_semidihedral_algebra(p)
            if "products" not in data:
                raise SchemaError("table algebra needs 'products' or a known 'name'")
            words = tuple(tuple(int(i) for i in w) for w in data["words"])
            d = len(words)
            labels = tuple(str(s) for s in data.get("basis", range(d)))
            n_gens = int(data.get("generators", 1 + max(max(w, default=0) for w in words)))
            relations = tuple(
                NcPoly(p, [(int(c), tuple(int(i) for i in w)) for c, w in rel])
                for rel in data.get("relations", [])
            )
            unit, radical = int(data["unit"]), tuple(int(i) for i in data["radical"])
            table = np.array(data["products"], dtype=np.int64) % p
            letters = {i for rel in relations for _, w in rel.terms for i in w}.union(*words)
            if (len(labels), table.shape) != (d, (d, d, d)) or not (
                {unit, *radical} <= set(range(d)) and letters <= set(range(n_gens))
            ):
                raise SchemaError(
                    f"a table on {d} basis words needs {d} labels, ({d}, {d}, {d}) products, "
                    f"unit and radical indices below {d} and generator indices below {n_gens}"
                )
            alg = Algebra(
                p,
                TABLE,
                tuple(labels[words.index((i,))] for i in range(n_gens)),
                relations,
                basis_labels=labels,
                basis_words=words,
                unit_index=unit,
                radical_basis=radical,
                table=table,
            )
            return algebra_validate(alg)
    except ModEquivError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} algebra: {exc}") from exc
    raise SchemaError(f"unknown algebra kind {kind!r}")


def _mat_from_entries(entries, n: int, p: int) -> Mat:
    arr = np.array(entries, dtype=np.int64)
    if arr.ndim == 1:
        if arr.size != n * n:
            raise SchemaError(f"action matrix needs {n * n} entries, got {arr.size}")
        arr = arr.reshape(n, n)
    elif arr.shape != (n, n):
        raise SchemaError(f"action matrix must be {n}x{n}, got shape {arr.shape}")
    return Mat(p, arr)


def module_to_dict(m: Module) -> dict:
    return {
        "algebra": algebra_to_dict(m.algebra),
        "dim": m.dim,
        "action": m.actions.reshape(len(m.actions), m.dim * m.dim).tolist(),
    }


def module_from_dict(data: dict) -> Module:
    if not isinstance(data, dict):
        raise SchemaError("module must be an object")
    try:
        alg = algebra_from_dict(data["algebra"])
        n = int(data["dim"])
        action_data = data["action"]
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"module needs 'algebra', 'dim', 'action': {exc}") from exc
    if n < 0:
        raise SchemaError(f"dim must be >= 0, got {n}")
    if not isinstance(action_data, list):
        raise SchemaError(f"action must be a list of matrices, got {type(action_data).__name__}")
    if len(action_data) != alg.num_generators:
        raise SchemaError(
            f"{alg.num_generators} generators need {alg.num_generators} action "
            f"matrices, got {len(action_data)}"
        )
    try:
        action = [_mat_from_entries(entries, n, alg.p) for entries in action_data]
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed action matrix: {exc}") from exc
    mod = module_validate(alg, action, name=str(data.get("name", "")))
    return mod if action else mod.with_dim(n)


def module_loads(text: str) -> Module:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return module_from_dict(data)
