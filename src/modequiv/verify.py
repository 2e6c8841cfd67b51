"""The claim-verification harness behind `modequiv verify`.

Eleven claims, each decided exactly over the configured prime fields.  A
claim runs at every configured field; enumeration spaces beyond the budget
yield SKIPPED, and a refuted statement yields FAIL with the witness in the
detail column.  Every verdict a claim reads goes through _expect, so a
decision left Undecided within the budget yields UNDECIDED, never FAIL,
with what was compared and the decision's own reason in the detail.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    Subalgebra,
    _coefficient_rows,
    _compose_rows,
    algebra_validate,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from .equiv import (
    r_decomposable,
    r_distinct,
    r_isomorphic,
    t_isomorphic,
    t_orbit,
)
from .errors import (
    BudgetExceeded,
    RelationViolated,
    UndecidedError,
)
from .families import INFINITY, b_blowup, band_module, c2, c3, fixture, jordan, k_module
from .linalg import Mat, check_prime, rand_invertible, rand_mat
from .modrep import (
    Verdict,
    _module_trusted,
    _twist_arrays,
    conjugate,
    decompose,
    direct_sum,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    module_validate,
    restrict,
    socle_dim,
    trivial_module,
    twist,
)
PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"
SKIPPED = "SKIPPED"
_LAW_CHUNK = 4096  # automorphism pairs per array comparison in algebra-laws


class ClaimFailure(Exception):
    """A claim's asserted statement was refuted by the computation."""


@dataclass(frozen=True)
class RunConfig:
    fields: tuple[int, ...] = (2, 3, 5)
    budget: int = DEFAULT_BUDGET
    report: str = "text"
    timing: bool = False

    def __post_init__(self):
        for p in self.fields:
            check_prime(p)
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.report not in ("text", "structured"):
            raise ValueError(f"report must be 'text' or 'structured', got {self.report!r}")


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    field: int
    status: str
    detail: str
    elapsed_ms: float


@dataclass(frozen=True)
class Report:
    records: tuple[ClaimRecord, ...]
    timing: bool = False

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == FAIL for r in self.records) else 0

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            lines.append(
                f"{r.status:9s} {r.claim:22s} p={r.field}  [{r.elapsed_ms:8.1f} ms]  {r.detail}"
            )
        counts = {s: sum(1 for r in self.records if r.status == s) for s in (PASS, FAIL, UNDECIDED, SKIPPED)}
        lines.append(
            f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[UNDECIDED]} undecided, {counts[SKIPPED]} skipped"
        )
        return "\n".join(lines)

    def to_structured(self) -> str:
        payload = {
            "claims": [
                {
                    "claim": r.claim,
                    "field": r.field,
                    "status": r.status,
                    "detail": r.detail,
                    "elapsed_ms": round(r.elapsed_ms, 1) if self.timing else None,
                }
                for r in self.records
            ]
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- claim implementations ---------------------------------------------------


def _expect(res, want: Verdict, failure, undecided: str = ""):
    """res, if its verdict is `want`.  An Undecided raises UndecidedError
    with `undecided` (what was compared) and res.note (why), whichever are
    given; any other verdict raises ClaimFailure with `failure`, a message
    or a function of res giving one."""
    if res.verdict.is_undecided:
        raise UndecidedError(f"{undecided}: {res.note}" if undecided else res.note)
    if res.verdict is not want:
        raise ClaimFailure(failure(res) if callable(failure) else failure)
    return res


def _claim_tame_pair(cfg: RunConfig, p: int) -> str:
    _, (m1, m2) = fixture("tame3", p)
    if (socle_dim(m1), socle_dim(m2)) != (1, 2):
        raise ClaimFailure(f"socle dims {(socle_dim(m1), socle_dim(m2))} != (1, 2)")
    iso = is_isomorphic(m1, m2, cfg.budget)
    _expect(iso, Verdict.NO, "expected non-isomorphic pair, got yes", "isomorphism")
    riso = r_isomorphic(m1, m2, "all", cfg.budget)
    _expect(riso, Verdict.YES, "restriction-isomorphism verdict no", "restriction comparison")
    if riso.checked != p + 2:
        raise ClaimFailure(f"expected {p + 2} proper subalgebras, saw {riso.checked}")
    for m in (m1, m2):
        for s in enumerate_proper_subalgebras(m.algebra, "maximal"):
            parts = decompose(restrict(m, s), cfg.budget)
            dims = sorted(part.dim for part in parts)
            if dims != [1, 2]:
                raise ClaimFailure(f"{m.name} at {s.label()}: summand dims {dims}")
            one = min(parts, key=lambda part: part.dim)
            if one.actions.any():
                raise ClaimFailure(f"{m.name} at {s.label()}: 1-dim part not trivial")
    return f"iso=no, R-iso=yes over {riso.checked} subalgebras, all maximal restrictions split 1+2"


def _claim_wild_pair(cfg: RunConfig, p: int) -> str:
    _, (m1, m2) = fixture("wild6", p)
    iso = is_isomorphic(m1, m2, cfg.budget)
    _expect(iso, Verdict.NO, "expected non-isomorphic pair", "plain isomorphism undecided")
    riso = r_isomorphic(m1, m2, "all", cfg.budget)
    _expect(riso, Verdict.YES, "restriction-isomorphism verdict no", "restriction comparison")
    expected = sum(1 for _ in enumerate_proper_subalgebras(m1.algebra, "all"))
    if p == 2 and riso.checked != 15:
        raise ClaimFailure(f"expected 15 proper subalgebras at p=2, saw {riso.checked}")
    return f"iso=no, R-iso=yes over {riso.checked}/{expected} proper subalgebras"


def _claim_indec_rdec(cfg: RunConfig, p: int) -> str:
    _, (m,) = fixture("rdec4", p)
    _expect(is_indecomposable(m, cfg.budget), Verdict.YES, "expected an indecomposable module")
    maximal = enumerate_proper_subalgebras(m.algebra, "maximal")
    if len(maximal) != p * p + p + 1:
        raise ClaimFailure(f"expected {p * p + p + 1} maximal subalgebras, saw {len(maximal)}")
    rdec = r_decomposable(m, cfg.budget)
    _expect(
        rdec,
        Verdict.YES,
        lambda r: f"restriction to {r.witness[1].label()} is indecomposable (its pencil is the "
        f"2n-dimensional two-generator family member), refuting R-decomposability",
    )
    return f"indecomposable and R-decomposable over {rdec.checked} maximal subalgebras"


def _claim_r_distinct(cfg: RunConfig, p: int) -> str:
    _, (m1, m2) = fixture("rdist4", p)
    rmax = r_distinct(m1, m2, "maximal", cfg.budget)
    _expect(
        rmax,
        Verdict.YES,
        lambda r: f"restrictions isomorphic at {r.witness[1].label()}",
        "scope=maximal",
    )
    rall = r_distinct(m1, m2, "all", cfg.budget)
    _expect(rall, Verdict.NO, "scope=all verdict yes, expected no at W=0", "scope=all")
    _, s, _ = rall.witness
    if s.dim_w != 0:
        raise ClaimFailure(f"scope=all witness {s.label()}, expected W=0")
    return (
        f"R-distinct at scope=maximal ({rmax.checked} subalgebras); scope=all fails "
        f"only at the forced W=0 degeneracy"
    )


def _claim_riso_not_tiso(cfg: RunConfig, p: int) -> str:
    _, (m1, m2) = fixture("rnott6", p)
    riso = r_isomorphic(m1, m2, "all", cfg.budget)
    _expect(riso, Verdict.YES, "R-isomorphism verdict no", "restriction comparison")
    tiso = t_isomorphic(m1, m2, cfg.budget)
    refuted = "pair is twist-isomorphic, refuting the separation"
    _expect(tiso, Verdict.NO, refuted, "twist comparison")
    n_autos = len(enumerate_automorphisms(m1.algebra, cfg.budget))
    if p == 2 and n_autos != 168:
        raise ClaimFailure(f"expected 168 automorphisms at p=2, saw {n_autos}")
    return f"R-iso=yes over {riso.checked} subalgebras, T-iso=no after {tiso.checked} automorphisms"


def _claim_jordan_orbit(cfg: RunConfig, p: int) -> str:
    details = []
    for n in (1, 2, 3):
        fam = [jordan(lam, n, p) for lam in range(p)]
        res = t_orbit(fam[0], fam[1:], cfg.budget)
        if len(res.partition) != 1:
            raise ClaimFailure(f"n={n}: {len(res.partition)} twist classes, expected 1")
        if not res.closed:
            raise ClaimFailure(f"n={n}: {len(res.unmatched_reps)} twists leave the family")
        details.append(f"n={n}: {len(fam)} members, {len(res.orbit_reps)} orbit reps, closed")
    return "; ".join(details)


def _claim_two_generator_orbit(cfg: RunConfig, p: int) -> str:
    details = []
    alg = make_rsz_algebra(2, p)
    swap = next(
        f for f in enumerate_automorphisms(alg, cfg.budget) if f.payload == ((0, 1), (1, 0))
    )
    for n in (1, 2):
        fam = [k_module(lam, n, p) for lam in range(p)] + [k_module(INFINITY, n, p)]
        res = t_orbit(fam[0], fam[1:], cfg.budget)
        if len(res.partition) != 1:
            raise ClaimFailure(f"n={n}: {len(res.partition)} twist classes, expected 1")
        sw = is_isomorphic(k_module(0, n, p), twist(k_module(INFINITY, n, p), swap), cfg.budget)
        what = f"n={n}: swap"
        _expect(sw, Verdict.YES, f"{what} does not carry the infinity member to lambda=0", what)
        details.append(f"n={n}: {len(fam)} members in one class (closure: {res.closed})")
    _, (m1, m2) = fixture("tame3", p)
    res = t_orbit(m1, [m2], cfg.budget, closure=False)
    if len(res.partition) != 2:
        raise ClaimFailure("tame dim-3 modules fell into one twist class")
    details.append("tame dim-3 pair: twist classes = iso classes (2)")
    return "; ".join(details)


def _claim_band_scaling(cfg: RunConfig, p: int) -> str:
    alg = make_dihedral_algebra(1, 1, 1, p)
    autos = {f.payload: f for f in enumerate_automorphisms(alg, cfg.budget)}
    for lam in range(1, p):
        for a in range(1, p):
            f = autos[(False, a)]
            target = band_module((a * a * lam) % p, p)
            res = is_isomorphic(twist(band_module(lam, p), f), target, cfg.budget)
            what = f"twist by Y->{a}Y of B({lam})"
            _expect(res, Verdict.YES, f"{what} is not B({a * a * lam % p})", what)
    base = band_module(1, p)
    try:
        b_blowup(base.action[0], base.action[1], 2, alg)
        blowup_note = "m=2 blow-up validates"
    except RelationViolated as exc:
        blowup_note = f"m=2 blow-up rejected ({exc}); convention gap documented, no verdict attached"
    return f"scaling twists match the a^2-parameter law on {p - 1} parameters; {blowup_note}"


def _claim_semidihedral(cfg: RunConfig, p: int) -> str:
    alg = algebra_validate(make_semidihedral_algebra(p))
    yy = alg.table[2, 2]
    expect = np.zeros(7, dtype=np.int64)
    expect[5] = 1
    if not np.array_equal(yy, expect):
        raise ClaimFailure("y*y is not the xyx basis element")
    autos = enumerate_automorphisms(alg, cfg.budget)
    images_x = autos.payloads[:, 0]
    bad = images_x[(images_x[:, 2] != 0) | (images_x[:, 1] == 0)]
    if len(bad):
        raise ClaimFailure(f"automorphism breaks the forced shape: {tuple(bad[0].tolist())}")
    family = [
        module_validate(alg, [Mat.basis(2, 2, 1, p), Mat.basis(2, 2, 1, p, value=lam)])
        for lam in range(p)
    ] + [module_validate(alg, [Mat.zeros(2, 2, p), Mat.basis(2, 2, 1, p)])]
    for k, m in enumerate(family):
        res = is_indecomposable(m, cfg.budget)
        _expect(res, Verdict.YES, "family member decomposes", f"member {k}")
    for i, j in itertools.combinations(range(len(family)), 2):
        res = is_isomorphic(family[i], family[j], cfg.budget)
        _expect(res, Verdict.NO, f"family members {i} and {j} are isomorphic", f"members {i}, {j}")
    _, (m1, m2) = fixture("semidih2", p)
    tiso = t_isomorphic(m1, m2, cfg.budget)
    _expect(tiso, Verdict.NO, "the two family endpoints are twist-isomorphic", "twist comparison")
    return (
        f"table associative; {len(autos)} automorphisms, all with zero y-coefficient and "
        f"a unit x-coefficient in f(x); {len(family)} family members pairwise distinct; "
        f"endpoints not twist-isomorphic after {tiso.checked} automorphisms"
    )


def _claim_c_families(cfg: RunConfig, p: int) -> str:
    alg = make_rsz_algebra(3, p)
    base = c2(1, 1, p)
    pairs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    for a, b in pairs:
        m = module_validate(
            alg,
            [
                Mat.basis(2, 2, 1, p),
                Mat.basis(2, 2, 1, p, value=a),
                Mat.basis(2, 2, 1, p, value=b),
            ],
        )
        res = t_isomorphic(m, base, cfg.budget)
        what = f"c2({a},{b})"
        _expect(res, Verdict.YES, f"{what} is not twist-isomorphic to the basepoint", what)
    triples = list(itertools.product(range(1, p), repeat=3))
    mods = [c3(a, b, g, p) for a, b, g in triples]
    res = t_orbit(mods[0], mods[1:], cfg.budget, closure=False)
    if len(res.partition) != 1:
        classes = [
            "{" + ", ".join(str(triples[int(l[1:])]) for l in cls) + "}"
            for cls in res.partition.classes
        ]
        raise ClaimFailure(
            f"{len(triples)} admissible triples split into {len(res.partition)} twist "
            f"classes {' vs '.join(classes)} (square class of alpha*beta is an obstruction "
            f"over F_{p})"
        )
    return f"{len(pairs)} c2 parameter pairs reach the basepoint; {len(triples)} c3 triples in one class"


def _corpus(p: int, budget: int) -> dict:
    rsz2 = make_rsz_algebra(2, p)
    groups: dict = {}
    tame = fixture("tame3", p)[1]
    groups[rsz2] = tame + [
        k_module(0, 1, p),
        k_module(1 % p, 1, p),
        k_module(INFINITY, 1, p),
        k_module(0, 2, p),
        trivial_module(rsz2, 2),
    ]
    rsz3 = make_rsz_algebra(3, p)
    groups[rsz3] = (
        fixture("wild6", p)[1]
        + fixture("rdec4", p)[1]
        + fixture("rdist4", p)[1]
        + fixture("rnott6", p)[1]
        + [c2(1, 1, p)]
    )
    free = make_free_univariate(p)
    groups[free] = [jordan(lam, n, p) for lam in range(min(p, 2)) for n in (1, 2, 3)]
    groups[band_module(1, p).algebra] = [band_module(1, p)]
    sd = make_semidihedral_algebra(p)
    groups[sd] = fixture("semidih2", p)[1]
    return groups


def _claim_algebra_laws(cfg: RunConfig, p: int) -> str:
    rng = np.random.default_rng(p)
    groups = _corpus(p, cfg.budget)
    mods = [m for group in groups.values() for m in group]

    # rank-nullity and product associativity on random matrices
    for _ in range(100):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rand_mat(rows, cols, p, rng)
        if a.rank() + len(a.kernel_basis()) != a.cols:
            raise ClaimFailure("rank-nullity fails")
        b = rand_mat(cols, int(rng.integers(1, 7)), p, rng)
        c = rand_mat(b.cols, int(rng.integers(1, 7)), p, rng)
        if (a @ b) @ c != a @ (b @ c):
            raise ClaimFailure("matrix product is not associative")

    # conjugation soundness across the corpus
    trials = 0
    while trials < 100:
        m = mods[trials % len(mods)]
        if m.dim == 0:
            trials += 1
            continue
        pmat = rand_invertible(m.dim, p, rng)
        res = is_isomorphic(m, conjugate(m, pmat), cfg.budget)
        _expect(res, Verdict.YES, f"conjugate of {m!r} not recognized as isomorphic", f"{m!r}")
        trials += 1
    for m in groups[make_rsz_algebra(2, p)][:2]:
        pmat = rand_invertible(m.dim, p, rng)
        conj = conjugate(m, pmat)
        res = r_isomorphic(m, conj, "all", cfg.budget)
        _expect(res, Verdict.YES, "restriction relation is finer than isomorphism", f"{m!r}")
        res = t_isomorphic(m, conj, cfg.budget)
        _expect(res, Verdict.YES, "twist relation is finer than isomorphism", f"{m!r}")

    # twist(twist(m, f), g) == twist(m, compose(f, g)) on all automorphism pairs
    # where few (at p=2), else on seeded draws, off m twisted by the whole group
    pair_cap = 40000
    pair_counts = []
    for alg, group in groups.items():
        try:
            autos = enumerate_automorphisms(alg, cfg.budget)
        except BudgetExceeded:
            continue
        m = group[0]
        n_autos = len(autos)
        if n_autos**2 <= pair_cap:
            first, then = np.divmod(np.arange(n_autos**2), n_autos)
        else:
            first = rng.integers(0, n_autos, size=2000)
            then = rng.integers(0, n_autos, size=2000)
        rows = _coefficient_rows(alg, autos.payloads)
        twisted = _twist_arrays(alg, m.actions, rows)
        for start in range(0, len(first), _LAW_CHUNK):
            i, j = first[start : start + _LAW_CHUNK], then[start : start + _LAW_CHUNK]
            lhs = _twist_arrays(alg, twisted[i], rows[j])
            rhs = _twist_arrays(alg, m.actions, _compose_rows(alg, rows[i], rows[j]))
            bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2, 3)))
            if bad.size:
                f, g = autos[int(i[bad[0]])], autos[int(j[bad[0]])]
                raise ClaimFailure(f"twist law fails for {f.describe()} then {g.describe()}")
        pair_counts.append(len(first))
        end_dim = hom_space(m, m).dim
        for actions in twisted[:: max(1, n_autos // 500)]:
            tw = _module_trusted(alg, actions)
            if hom_space(tw, tw).dim != end_dim:
                raise ClaimFailure("twisting changed the endomorphism dimension")

    # hom additivity on random same-algebra triples
    for _ in range(100):
        alg = list(groups)[int(rng.integers(0, len(groups)))]
        group = groups[alg]
        m1 = group[int(rng.integers(0, len(group)))]
        m2 = group[int(rng.integers(0, len(group)))]
        target = group[int(rng.integers(0, len(group)))]
        lhs = hom_space(direct_sum(m1, m2), target).dim
        if lhs != hom_space(m1, target).dim + hom_space(m2, target).dim:
            raise ClaimFailure("hom dimensions are not additive over direct sums")

    # decomposition reassembly across the corpus
    for m in mods:
        if m.dim == 0:
            continue
        parts = decompose(m, cfg.budget)
        if sum(part.dim for part in parts) != m.dim:
            raise ClaimFailure("summand dimensions do not add up")
    sample = groups[make_rsz_algebra(2, p)][0]
    parts = decompose(direct_sum(sample, sample), cfg.budget)
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    res = is_isomorphic(direct_sum(sample, sample), total, cfg.budget)
    _expect(res, Verdict.YES, "decomposition does not reassemble up to isomorphism", "reassembly")

    # restriction is independent of the basis chosen for W
    rsz_algs = [make_rsz_algebra(2, p), make_rsz_algebra(3, p)]
    checks = 0
    while checks < 100:
        alg = rsz_algs[checks % 2]
        group = groups[alg]
        subs = [s for s in enumerate_proper_subalgebras(alg, "all") if s.dim_w > 0]
        s = subs[int(rng.integers(0, len(subs)))]
        change = rand_invertible(s.dim_w, p, rng)
        rebased = Subalgebra.from_basis(alg, change @ s.w_basis)
        m1 = group[int(rng.integers(0, len(group)))]
        m2 = group[int(rng.integers(0, len(group)))]
        # an Undecided at either basis is UNDECIDED, unequal verdicts a FAIL
        what = s.label()
        first = is_isomorphic(restrict(m1, s), restrict(m2, s), cfg.budget)
        _expect(first, first.verdict, "", what)
        res = is_isomorphic(restrict(m1, rebased), restrict(m2, rebased), cfg.budget)
        _expect(res, first.verdict, f"restriction verdict depends on the basis of {what}", what)
        checks += 1

    return (
        f"rank-nullity, conjugation, twist laws ({'+'.join(str(c) for c in pair_counts)} pairs), "
        f"hom additivity, decomposition, and basis-independence hold over "
        f"{len(mods)} corpus modules"
    )


CLAIMS = {
    "tame-pair": _claim_tame_pair,
    "wild-pair": _claim_wild_pair,
    "indec-rdec": _claim_indec_rdec,
    "r-distinct": _claim_r_distinct,
    "riso-not-tiso": _claim_riso_not_tiso,
    "jordan-orbit": _claim_jordan_orbit,
    "two-generator-orbit": _claim_two_generator_orbit,
    "band-scaling": _claim_band_scaling,
    "semidihedral-family": _claim_semidihedral,
    "c-families": _claim_c_families,
    "algebra-laws": _claim_algebra_laws,
}

CLAIM_IDS = tuple(CLAIMS)


def run_claim(claim_id: str, cfg: RunConfig, p: int) -> ClaimRecord:
    func = CLAIMS[claim_id]
    start = time.perf_counter()
    try:
        detail = func(cfg, p)
        status = PASS
    except ClaimFailure as exc:
        status, detail = FAIL, str(exc)
    except UndecidedError as exc:
        status, detail = UNDECIDED, str(exc)
    except BudgetExceeded as exc:
        status, detail = SKIPPED, str(exc)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ClaimRecord(claim_id, p, status, detail, elapsed)


def run_verification(cfg: RunConfig | None = None) -> Report:
    cfg = cfg or RunConfig()
    records = []
    for claim_id in CLAIM_IDS:
        for p in cfg.fields:
            records.append(run_claim(claim_id, cfg, p))
    return Report(tuple(records), timing=cfg.timing)
