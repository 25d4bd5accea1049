"""Command line reporting over the library.

Reports are canonical JSON (sorted keys, no whitespace, one trailing
newline) or CSV with a fixed column order, so runs with identical
arguments and seeds are byte-identical.  Exit status: 0 when every check
in the report passed, 1 when a verification failed, 2 for invalid
configuration (guard violations included).  Set BRUHAT_SATAKE_OUTPUT_DIR
or pass --output-dir to also write the report to a deterministically
named file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import flagfq, ordcoh, padic, roots, satake, weyl

SCHEMA = "bruhat-satake/1"


def _group_kind(kind: str, n: int) -> weyl.GroupKind:
    return weyl.type_a(n) if kind == "A" else weyl.type_c(n)


def _render(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    rows = report["rows"]
    buf = io.StringIO()
    fields = list(rows[0].keys()) if rows else ["empty"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def _filename(command: str, params: dict, fmt: str) -> str:
    tokens = [command.replace(" ", "-")]
    for key in sorted(params):
        value = params[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        tokens.append(f"{key}={value}")
    return "_".join(tokens) + "." + fmt


def _fail(message) -> None:
    """Report an invalid configuration on one stderr line and exit 2."""
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(command: str, params: dict, build, fmt: str, output_dir: str | None, name_params=None):
    try:
        body = build()
    except ValueError as exc:
        _fail(exc)
    report = {"schema": SCHEMA, "command": command, "params": params, **body}
    data = _render(report, fmt)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    if output_dir:
        path = Path(output_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / _filename(command, name_params if name_params is not None else params, fmt)).write_bytes(data)
    sys.exit(0 if report["ok"] else 1)


def _common(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Report format.",
    )(fn)
    fn = click.option(
        "--output-dir",
        envvar="BRUHAT_SATAKE_OUTPUT_DIR",
        default=None,
        help="Directory for the report file; defaults to $BRUHAT_SATAKE_OUTPUT_DIR.",
    )(fn)
    return fn


def _kind_n(fn):
    fn = click.option("--kind", type=click.Choice(["A", "C"]), required=True, help="A or C.")(fn)
    fn = click.option("--n", type=int, required=True, help="Levi rank n.")(fn)
    return fn


@click.group()
def main():
    """Exact checks for parabolic cosets, Schubert cells, Satake identities,
    p-adic coset invariants, and ordinary Koszul cohomology."""


# ------------------------------------------------------------------- weyl


@main.group("weyl")
def weyl_group():
    """Weyl group combinatorics."""


@weyl_group.command("cosets")
@_kind_n
@_common
def weyl_cosets(kind, n, fmt, output_dir):
    """List the parabolic double coset representatives sigma_k."""

    def build():
        gk = _group_kind(kind, n)
        reps = weyl.double_cosets(gk)
        rows = [
            {
                "k": k,
                "perm": "".join(str(x) for x in rep.perm) if 2 * n < 10 else str(list(rep.perm)),
                "tau": weyl.tau(rep),
                "length": weyl.length(rep),
            }
            for k, rep in enumerate(reps)
        ]
        return {"rows": rows, "count": len(reps), "ok": len(reps) == n + 1}

    _emit("weyl cosets", {"kind": kind, "n": n}, build, fmt, output_dir)


# ------------------------------------------------------------------- cells


@main.group("cells")
def cells_group():
    """Schubert cell dimensions."""


@cells_group.command("dims")
@_kind_n
@_common
def cells_dims(kind, n, fmt, output_dir):
    """Cell dimensions of the coset representatives against the closed forms."""

    def build():
        gk = _group_kind(kind, n)
        rows = []
        ok = True
        for k, rep in enumerate(weyl.double_cosets(gk)):
            by_roots = roots.schubert_cell_dim(rep)
            closed = roots.cell_dim_formula(gk, k)
            unip = roots.unipotent_intersection_dim(rep * weyl.longest_element(gk))
            agree = by_roots == closed == unip
            ok = ok and agree
            rows.append(
                {
                    "tau": k,
                    "dim_by_roots": by_roots,
                    "dim_closed_form": closed,
                    "dim_unipotent": unip,
                    "agree": agree,
                }
            )
        return {"rows": rows, "ok": ok}

    _emit("cells dims", {"kind": kind, "n": n}, build, fmt, output_dir)


# -------------------------------------------------------------------- flag


@main.group("flag")
def flag_group():
    """Finite flag variety checks."""


@flag_group.command("census")
@_kind_n
@click.option("--q", type=int, required=True, help="Field size.")
@_common
def flag_census(kind, n, q, fmt, output_dir):
    """Point counts of the flag variety by cell invariant tau."""

    def build():
        gk = _group_kind(kind, n)
        census = flagfq.cell_census(gk, q)
        total = sum(census.values())
        expected = flagfq.flag_size(gk, q)
        rows = [{"tau": t, "points": census[t]} for t in sorted(census)]
        open_dim = roots.cell_dim_formula(gk, n)
        return {
            "rows": rows,
            "total": total,
            "expected_total": expected,
            "open_cell_points": census[n],
            "open_cell_expected": q**open_dim,
            "ok": total == expected and census[n] == q**open_dim,
        }

    _emit("flag census", {"kind": kind, "n": n, "q": q}, build, fmt, output_dir)


@flag_group.command("check-cover")
@_kind_n
@click.option("--q", type=int, required=True, help="Field size.")
@_common
def flag_check_cover(kind, n, q, fmt, output_dir):
    """Closure order and translated big-cell cover, exhaustively."""

    def build():
        gk = _group_kind(kind, n)
        closure = flagfq.closure_order_check(gk, q)
        cover = flagfq.cover_lemma_check(gk, q)
        rows = [
            {"check": "tau_constant_on_orbits", "ok": closure["tau_constant_on_orbits"]},
            {"check": "orbits_match_tau_fibers", "ok": closure["orbits_match_tau_fibers"]},
            {"check": "lower_inclusions", "ok": cover["lower_inclusions"]},
            {"check": "upper_inclusions", "ok": cover["upper_inclusions"]},
            {"check": "translates_cover_group", "ok": cover["translates_cover_group"]},
        ]
        return {
            "rows": rows,
            "points": closure["points"],
            "group_order": cover["group_order"],
            "ok": closure["ok"] and cover["ok"],
        }

    _emit("flag check-cover", {"kind": kind, "n": n, "q": q}, build, fmt, output_dir)


@flag_group.command("check-finding-j")
@_kind_n
@click.option("--q", type=int, required=True, help="Field size.")
@_common
def flag_check_finding_j(kind, n, q, fmt, output_dir):
    """Every Borel orbit meets a coordinate frame transversally."""

    def build():
        gk = _group_kind(kind, n)
        res = flagfq.finding_j_check(gk, q)
        rows = [
            {"check": "every_orbit_admits_J", "ok": res["every_orbit_admits_J"]},
            {"check": "open_cell_admits_full_J", "ok": res["open_cell_admits_full_J"]},
        ]
        return {
            "rows": rows,
            "points": res["points"],
            "borel_orbits": res["borel_orbits"],
            "ok": res["ok"],
        }

    _emit("flag check-finding-j", {"kind": kind, "n": n, "q": q}, build, fmt, output_dir)


# ------------------------------------------------------------------ satake


@main.group("satake")
def satake_group():
    """Satake transform identities."""


@satake_group.command("verify")
@_kind_n
@click.option("--twist/--no-twist", default=True, show_default=True, help="Include formal central units.")
@_common
def satake_verify(kind, n, twist, fmt, output_dir):
    """Expand both sides of the determinant factorization and compare.

    Kind A is the split unitary identity, kind C the real one.
    """

    def build():
        case = satake.SatakeCase.UNITARY if kind == "A" else satake.SatakeCase.REAL
        report = satake.verify_determinant_factorization(case, n, twist=twist)
        rows = [
            {"x_power": j, "equal": lhs == rhs}
            for j, (lhs, rhs) in enumerate(zip(report["lhs"], report["rhs"]))
        ]
        return {
            "rows": rows,
            "case": report["case"],
            "degree": report["degree"],
            "lhs": report["lhs"],
            "rhs": report["rhs"],
            "first_difference": report["first_difference"],
            "ok": report["verdict"],
        }

    _emit("satake verify", {"kind": kind, "n": n, "twist": twist}, build, fmt, output_dir)


# ------------------------------------------------------------------- padic


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def _matrix_text(matrix, matrix_file):
    """The JSON text of --matrix or --matrix-file (read once), or None."""
    if matrix and matrix_file:
        raise ValueError("pass --matrix or --matrix-file, not both")
    if not matrix_file:
        return matrix
    try:
        return Path(matrix_file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read --matrix-file {matrix_file}: {exc.strerror}") from None


def _entry(x) -> Fraction:
    """One matrix entry, exactly: a JSON integer or an 'a/b' string."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x.strip()):
        num, _, den = x.strip().partition("/")
        if den and int(den) == 0:
            raise ValueError(f"matrix entry {x!r} has a zero denominator")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"matrix entries must be integers or 'a/b' strings, got {type(x).__name__} {json.dumps(x)}")


def _load_matrix(kind, n, p, text):
    if text is None:
        return None
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("the matrix JSON is nested too deeply") from None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("the matrix must be a JSON list of rows")
    return padic.block_matrix(_group_kind(kind, n), p, [[_entry(x) for x in row] for row in rows])


def _padic_setup(kind, n, p, m, seed, count, matrix, matrix_file):
    """Check the options shared by the padic commands and read the matrix once.

    Returns the report params, the file-name params (with a digest of the
    matrix text in place of the matrix) and the matrix text or None.
    """
    try:
        if m < 1:
            raise ValueError(f"--m must be at least 1, got {m}")
        if count < 1:
            raise ValueError(f"--count must be at least 1, got {count}")
        text = _matrix_text(matrix, matrix_file)
    except ValueError as exc:
        _fail(exc)
    params = {"kind": kind, "n": n, "p": p, "m": m, "seed": seed, "count": count}
    name_params = dict(params)
    if text is not None:
        name_params["digest"] = hashlib.sha256(text.encode()).hexdigest()[:12]
    return params, name_params, text


def _h_str(h):
    if h == math.inf:
        return "+inf"
    if h == -math.inf:
        return "-inf"
    return int(h)


def _mat_strs(rows):
    return [[str(x) for x in row] for row in rows]


def _matrix_options(fn):
    fn = click.option("--matrix", default=None, help="JSON rows; entries int or 'a/b' strings.")(fn)
    fn = click.option("--matrix-file", default=None, help="File containing the JSON rows.")(fn)
    return fn


@main.group("padic")
def padic_group():
    """p-adic parabolic coset invariants."""


@padic_group.command("h")
@_kind_n
@click.option("--p", type=int, required=True, help="Residue prime.")
@click.option("--m", type=int, default=1, show_default=True, help="Congruence exponent.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the sampled suite.")
@click.option("--count", type=int, default=50, show_default=True, help="Samples when no matrix is given.")
@_matrix_options
@_common
def padic_h(kind, n, p, m, seed, count, matrix, matrix_file, fmt, output_dir):
    """The invariant h(g) = min v_p(D^{-1}C), or a seeded invariance suite."""
    params, name_params, text = _padic_setup(kind, n, p, m, seed, count, matrix, matrix_file)

    def build():
        g = _load_matrix(kind, n, p, text)
        if g is not None:
            h = padic.h_invariant(g)
            rows = [{"h": _h_str(h), "in_P_Gamma1": h >= m}]
            return {"rows": rows, "ok": True}
        gk = _group_kind(kind, n)
        rng = random.Random(seed)
        gam = padic.gamma(gk, p)
        shift = 1 if gk.family is weyl.Family.TYPE_A else 2
        rows = []
        ok = True
        for idx in range(count):
            g = padic.random_congruence_element(gk, p, m, rng)
            h = padic.h_invariant(g)
            par = padic.random_parabolic_element(gk, p, rng)
            passed = (
                h >= m
                and padic.h_invariant(par * g) == h
                and padic.h_invariant(g * gam) == h + shift
            )
            ok = ok and passed
            rows.append({"sample": idx, "h": _h_str(h), "passed": passed})
        return {"rows": rows, "ok": ok}

    _emit("padic h", params, build, fmt, output_dir, name_params=name_params)


@padic_group.command("factor")
@_kind_n
@click.option("--p", type=int, required=True, help="Residue prime.")
@click.option("--m", type=int, default=1, show_default=True, help="Congruence exponent.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the sampled suite.")
@click.option("--count", type=int, default=20, show_default=True, help="Samples when no matrix is given.")
@_matrix_options
@_common
def padic_factor(kind, n, p, m, seed, count, matrix, matrix_file, fmt, output_dir):
    """Split g into its parabolic and congruence factors."""
    params, name_params, text = _padic_setup(kind, n, p, m, seed, count, matrix, matrix_file)

    def build():
        g = _load_matrix(kind, n, p, text)
        if g is not None:
            p_part, g1_part = padic.factor_P_Gamma1(g, m)
            ok = (p_part * g1_part).rows == g.rows
            rows = [{"h": _h_str(padic.h_invariant(g)), "reassembled": ok}]
            return {
                "rows": rows,
                "p_part": _mat_strs(p_part.rows),
                "gamma1_part": _mat_strs(g1_part.rows),
                "ok": ok,
            }
        gk = _group_kind(kind, n)
        rng = random.Random(seed)
        rows = []
        ok = True
        for idx in range(count):
            g = padic.random_congruence_element(gk, p, m, rng)
            p_part, g1_part = padic.factor_P_Gamma1(g, m)
            passed = (p_part * g1_part).rows == g.rows and padic.in_level(
                g1_part, padic.Level(padic.LevelFlavor.GAMMA1, m)
            )
            ok = ok and passed
            rows.append({"sample": idx, "passed": passed})
        return {"rows": rows, "ok": ok}

    _emit("padic factor", params, build, fmt, output_dir, name_params=name_params)


# ------------------------------------------------------------------ ordcoh


@main.group("ordcoh")
def ordcoh_group():
    """Koszul cohomology and ordinary parts."""


@ordcoh_group.command("ranks")
@click.option("--d", type=int, required=True, help="Number of Z_p factors.")
@click.option("--p", type=int, default=2, show_default=True, help="Coefficient prime.")
@click.option("--r", type=int, default=2, show_default=True, help="Coefficient exponent.")
@_common
def ordcoh_ranks(d, p, r, fmt, output_dir):
    """Betti numbers of H^*(Z_p^d, Z/p^r)."""

    def build():
        lam = ordcoh.Lambda(p, r)
        coh = ordcoh.koszul_cohomology(d, lam)
        diffs = ordcoh.koszul_differentials(d, lam, [1] * d)
        rows = [{"degree": i, "rank": rank} for i, rank in enumerate(coh.ranks)]
        binomial = tuple(math.comb(d, i) for i in range(d + 1))
        trivial_vanish = all((mat == 0).all() for mat in diffs)
        return {
            "rows": rows,
            "trivial_weights_vanish": trivial_vanish,
            "ok": coh.ranks == binomial and trivial_vanish,
        }

    _emit("ordcoh ranks", {"d": d, "p": p, "r": r}, build, fmt, output_dir)


@ordcoh_group.command("ordinary")
@click.option("--d", type=int, required=True, help="Number of Z_p factors.")
@click.option("--p", type=int, default=2, show_default=True, help="Coefficient prime.")
@click.option("--r", type=int, default=2, show_default=True, help="Coefficient exponent.")
@click.option("--a", type=int, default=2, show_default=True, help="Level exponent p^a.")
@_common
def ordcoh_ordinary(d, p, r, a, fmt, output_dir):
    """Mod-p ranks of the ordinary projectors of the Hecke operator."""

    def build():
        lam = ordcoh.Lambda(p, r)
        got = ordcoh.ordinary_part_of_hecke_gamma(d, lam, a=a)
        expected = (0,) * d + (1,)
        rows = [
            {"degree": i, "ordinary_rank": rank, "expected": exp}
            for i, (rank, exp) in enumerate(zip(got, expected))
        ]
        return {"rows": rows, "ok": got == expected}

    _emit("ordcoh ordinary", {"a": a, "d": d, "p": p, "r": r}, build, fmt, output_dir)


if __name__ == "__main__":
    main()
