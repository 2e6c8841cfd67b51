"""Spans and counts around the entry points of modequiv's layers.

The wrappers live here, not in the program: `install` replaces every
attribute of every loaded `modequiv` module that refers to a traced
function, so callers that look the name up at call time (module globals and
`from .x import f` copies alike) go through the wrapper.  Spans are kept as
per-name aggregates in memory: calls, total time and self time, where self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time

# metric name -> (defining module, function name); several functions may
# share one span name, as the restriction relations do
SPANS = {
    "linalg.nullspace": [("linalg", "_nullspace")],
    "linalg.batch_invertible": [("linalg", "_batch_invertible")],
    "linalg.tensor_combine": [("linalg", "tensor_combine")],
    "linalg.inverse_table": [("linalg", "inverse_table")],
    "linalg.solve": [("linalg", "_solve")],
    "algebra.enumerate_automorphisms": [("algebra", "enumerate_automorphisms")],
    "algebra.enumerate_proper_subalgebras": [("algebra", "enumerate_proper_subalgebras")],
    "algebra.compose": [("algebra", "compose")],
    "modrep.hom_space": [("modrep", "hom_space")],
    "modrep.twist": [("modrep", "twist")],
    "modrep.restrict": [("modrep", "restrict")],
    "modrep.is_isomorphic": [("modrep", "is_isomorphic")],
    "modrep.is_indecomposable": [("modrep", "is_indecomposable")],
    "modrep.decompose": [("modrep", "decompose")],
    "equiv.t_isomorphic": [("equiv", "t_isomorphic")],
    "equiv.t_orbit": [("equiv", "t_orbit")],
    "equiv.r_relations": [
        ("equiv", "r_isomorphic"),
        ("equiv", "r_distinct"),
        ("equiv", "r_decomposable"),
        ("equiv", "restriction_function"),
        ("equiv", "rt_isomorphic"),
    ],
    "serialize.module_from_dict": [("serialize", "module_from_dict")],
    "cli.main": [("cli", "main")],
}


def _nullspace_cells(args, _res):
    rows, cols = args[0].shape
    return {"cells": rows * cols}


def _batch_matrices(args, _res):
    return {"matrices": args[0].shape[0]}


def _table_entries(args, _res):
    return {"entries": args[0]}


def _hom_unknowns(args, _res):
    m1, m2 = args[0], args[1]
    return {"unknowns": (m1.dim or 0) * (m2.dim or 0)}


def _iso_counts(_args, res):
    return {"searched": res.searched, "undecided": int(res.verdict.is_undecided)}


def _t_iso_counts(_args, res):
    return {"autos_checked": res.checked}


def _r_checked(_args, res):
    checked = len(res.items) if hasattr(res, "items") else res.checked
    return {"subalgebras_checked": checked}


COUNTERS = {
    "linalg.nullspace": _nullspace_cells,
    "linalg.batch_invertible": _batch_matrices,
    "linalg.inverse_table": _table_entries,
    "modrep.hom_space": _hom_unknowns,
    "modrep.is_isomorphic": _iso_counts,
    "equiv.t_isomorphic": _t_iso_counts,
    "equiv.r_relations": _r_checked,
}


def _candidate_space(algebra):
    p, kind = algebra.p, algebra.kind
    if kind == "rsz":
        return p ** (algebra.num_generators**2)
    if kind == "table":
        return p ** (len(algebra.radical_basis) * len(algebra.generators))
    if kind == "free_univariate":
        return p * (p - 1)
    return 2 * (p - 1)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child time]

    def count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, counter=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
            if counter is not None:
                for key, n in counter(args, res).items():
                    self.count(f"{name}.{key}", n)
            return res

        traced.__wrapped__ = fn
        return traced

    def in_span(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def install(self):
        """Wrap every traced function in every loaded modequiv module."""
        mods = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "modequiv"}
        replace: dict[int, object] = {}
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                mod = mods.get(f"modequiv.{mod_name}")
                if mod is None:
                    continue
                fn = getattr(mod, attr)
                if name == "algebra.enumerate_automorphisms":
                    replace[id(fn)] = self._autos_span(fn)
                else:
                    replace[id(fn)] = self.span(name, fn, COUNTERS.get(name))
        iso_from_hom = mods["modequiv.modrep"]._iso_from_hom
        replace[id(iso_from_hom)] = self._witness_search_counter(iso_from_hom)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, attr, replace[id(value)])

    def _autos_span(self, cached):
        """Count cache misses of the lru-cached enumeration and the size of
        the candidate space each miss walks."""
        traced = self.span("algebra.enumerate_automorphisms", cached)

        def counted(algebra, *args, **kwargs):
            misses = cached.cache_info().misses
            res = traced(algebra, *args, **kwargs)
            if cached.cache_info().misses != misses:
                self.count("algebra.enumerate_automorphisms.misses", 1)
                self.count("algebra.enumerate_automorphisms.candidates", _candidate_space(algebra))
            return res

        return counted

    def _witness_search_counter(self, fn):
        """Automorphisms of t_isomorphic that passed the Hom-dimension test
        and reached the invertible-element search."""

        def counted(*args, **kwargs):
            if self.in_span("equiv.t_isomorphic"):
                self.count("equiv.t_isomorphic.autos_searched", 1)
            return fn(*args, **kwargs)

        return counted
