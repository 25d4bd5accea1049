"""End-to-end acceptance checks, one per criterion, each with a time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its runtime.
"""

import math
import random
import time

import numpy as np
from click.testing import CliRunner

from bruhat_satake import cli, flagfq, ordcoh, padic, roots, satake, weyl

A = weyl.Family.TYPE_A
C = weyl.Family.TYPE_C


def conclude(name: str, budget: float, started: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{name}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s){detail}")
    assert ok, f"{name} failed {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_double_cosets():
    started = time.perf_counter()
    ok = True
    for family in (A, C):
        for n in range(1, 5):
            kind = weyl.GroupKind(family, n)
            blocks = weyl.double_coset_partition(kind)  # exhaustive two-sided orbits
            reps = weyl.double_cosets(kind)
            ok = ok and len(blocks) == n + 1 == len(reps)
            by_perm = {perm: i for i, block in enumerate(blocks) for perm in block}
            seen_blocks = set()
            for k, rep in enumerate(reps):
                transpositions = list(range(1, 2 * n + 1))
                for i in range(1, k + 1):
                    transpositions[i - 1], transpositions[n + i - 1] = (
                        transpositions[n + i - 1],
                        transpositions[i - 1],
                    )
                ok = ok and rep.perm == tuple(transpositions)
                seen_blocks.add(by_perm[rep.perm])
            ok = ok and len(seen_blocks) == n + 1
            ok = ok and sum(len(b) for b in blocks) == len(weyl.all_elements(kind))
    conclude("criterion 1 (double cosets)", 10.0, started, ok)


def test_criterion_2_dimension_identities():
    started = time.perf_counter()
    ok = True
    for family in (A, C):
        for n in range(1, 5):
            kind = weyl.GroupKind(family, n)
            w0 = weyl.longest_element(kind)
            for w in weyl.all_elements(kind):
                d = roots.cell_dim_by_roots(w)
                ok = ok and roots.unipotent_intersection_dim(w) == d
                ok = ok and roots.standard_unipotent_intersection_dim(w) == d
                ok = ok and roots.schubert_cell_dim(w) == roots.cell_dim_by_roots(w * w0)
                if not ok:
                    break
            for k, rep in enumerate(weyl.double_cosets(kind)):
                closed = k * (2 * n - k) if family is A else k * (2 * n - k + 1) // 2
                ok = ok and roots.schubert_cell_dim(rep) == closed
    conclude("criterion 2 (dimension identities)", 10.0, started, ok)


def test_criterion_3_finite_field_censuses():
    started = time.perf_counter()
    census_a = flagfq.cell_census(weyl.type_a(2), 2)
    census_c = flagfq.cell_census(weyl.type_c(2), 2)
    ok = census_a == {0: 1, 1: 18, 2: 16} and sum(census_a.values()) == 35
    ok = ok and census_c == {0: 1, 1: 6, 2: 8} and sum(census_c.values()) == 15
    for family in (A, C):
        for n in (1, 2):
            for q in (2, 3):
                kind = weyl.GroupKind(family, n)
                census = flagfq.cell_census(kind, q)
                ok = ok and sum(census.values()) == flagfq.flag_size(kind, q)
                ok = ok and census[n] == q ** roots.cell_dim_formula(kind, n)
    conclude("criterion 3 (finite-field censuses)", 30.0, started, ok)


def test_criterion_4_covering_lemmas():
    started = time.perf_counter()
    ok = True
    for kind, order in ((weyl.type_a(2), 20160), (weyl.type_c(2), 720)):
        cover = flagfq.cover_lemma_check(kind, 2)
        finding = flagfq.finding_j_check(kind, 2)
        ok = ok and cover["ok"] and cover["group_order"] == order
        ok = ok and finding["ok"]
    conclude("criterion 4 (covering lemmas)", 120.0, started, ok)


def test_criterion_5_satake_factorization():
    started = time.perf_counter()
    ok = True
    shapes = [(satake.SatakeCase.UNITARY, n) for n in (1, 2, 3)]
    shapes += [(satake.SatakeCase.REAL, n) for n in (1, 2)]
    for case, n in shapes:
        report = satake.verify_determinant_factorization(case, n, twist=True)
        ok = ok and report["verdict"] and report["first_difference"] is None

    expansion = satake.unitary_n1_expansion()
    ok = ok and expansion["verdict"]
    ring = satake.unitary_m_ring(1)
    explicit = satake.linear_factor(ring, satake.variable("W1", ring)) * satake.linear_factor(
        ring, satake.monomial(ring, 1, {"v": 2, "Z1": -1})
    )
    explicit_json = [satake.poly_to_json(c) for c in explicit.coeffs]
    ok = ok and expansion["expected"] == explicit_json
    ok = ok and expansion["factorization"]["lhs"] == explicit_json
    ok = ok and expansion["factorization"]["rhs"] == explicit_json
    conclude("criterion 5 (Satake factorization)", 60.0, started, ok)


def test_criterion_6_contract_lemma():
    started = time.perf_counter()
    rng = random.Random(20260819)
    kinds = [weyl.type_a(1), weyl.type_a(2), weyl.type_c(1), weyl.type_c(2)]
    ok = True
    for _ in range(500):
        kind = rng.choice(kinds)
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, 4)
        k = rng.randint(0, 4)
        shift = 1 if kind.family is A else 2
        g = padic.random_congruence_element(kind, p, m, rng)
        gk = g
        for _ in range(k):
            gk = gk * padic.gamma(kind, p)
        ok = ok and padic.h_invariant(gk) >= shift * k + 1
        p_part, g1_part = padic.factor_P_Gamma1(g, m)
        ok = ok and (p_part * g1_part).rows == g.rows
        if kind.family is C:
            J = padic._symplectic_form_q(kind.n)
            for factor in (p_part, g1_part):
                gt = padic._transpose(factor.rows)
                ok = ok and padic._mat_mul(padic._mat_mul(gt, J), factor.rows) == J
        if not ok:
            break
    conclude("criterion 6 (contract lemma)", 30.0, started, ok)


def test_criterion_7_cohomology_and_projectors():
    started = time.perf_counter()
    ok = True
    rings = (ordcoh.Lambda(2, 2), ordcoh.Lambda(3, 2))
    for lam in rings:
        for d in range(0, 9):
            coh = ordcoh.koszul_cohomology(d, lam)
            ok = ok and coh.ranks == tuple(math.comb(d, i) for i in range(d + 1))
        for d in range(1, 9):
            for i, mat in enumerate(ordcoh.cores_kunneth(d, 2, lam)):
                diag = np.diag(mat)
                ok = ok and (mat == np.diag(diag)).all() and len(set(diag.tolist())) <= 1
                entry = int(diag[0]) if diag.size else 0
                power = 2 * (d - i)
                if power >= lam.r:
                    ok = ok and entry == 0  # p^power * unit vanishes mod p^r
                else:
                    ok = ok and entry % lam.p**power == 0
                    ok = ok and (entry // lam.p**power) % lam.p != 0
        for d in range(1, 9):
            ok = ok and ordcoh.ordinary_part_of_hecke_gamma(d, lam) == (0,) * d + (1,)

    for lam in rings:
        rng = np.random.default_rng(97 + lam.p)
        mod = lam.modulus
        for _ in range(200):
            size = int(rng.integers(1, 6))
            U = rng.integers(0, mod, size=(size, size)).astype(np.int64)
            e, n = ordcoh.ordinary_limit(U, lam)
            ok = ok and ((e @ e) % mod == e).all()
            ok = ok and ((e @ U) % mod == (U @ e) % mod).all()
            eye = np.eye(size, dtype=np.int64)
            mixed = (e @ U @ e + (eye - e)) % mod
            ok = ok and ordcoh.rank_mod_p(mixed, lam.p) == size
            if not ok:
                break
    conclude("criterion 7 (cohomology and projectors)", 60.0, started, ok)


def test_criterion_8_cli_determinism():
    started = time.perf_counter()
    runner = CliRunner()
    commands = [
        ["weyl", "cosets", "--kind", "A", "--n", "3"],
        ["cells", "dims", "--kind", "C", "--n", "2", "--format", "csv"],
        ["flag", "census", "--kind", "A", "--n", "2", "--q", "2"],
        ["flag", "check-finding-j", "--kind", "C", "--n", "1", "--q", "2"],
        ["satake", "verify", "--kind", "A", "--n", "2"],
        ["padic", "h", "--kind", "C", "--n", "2", "--p", "3", "--m", "2",
         "--seed", "7", "--count", "10"],
        ["padic", "factor", "--kind", "A", "--n", "2", "--p", "2",
         "--seed", "3", "--count", "5"],
        ["ordcoh", "ordinary", "--d", "3"],
    ]
    ok = True
    for args in commands:
        first = runner.invoke(cli.main, args, catch_exceptions=False)
        second = runner.invoke(cli.main, args, catch_exceptions=False)
        ok = ok and first.exit_code == 0 == second.exit_code
        ok = ok and first.stdout_bytes == second.stdout_bytes
    conclude("criterion 8 (CLI determinism)", 60.0, started, ok)
