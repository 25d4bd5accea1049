"""Command line reporting over the library.

Reports are canonical JSON (sorted keys, no whitespace, one trailing
newline) or CSV with a fixed column order, so runs with identical
arguments and seeds are byte-identical.  Exit status: 0 when every check
in the report passed, 1 when a verification failed, 2 for invalid
configuration (guard violations included).  Set BRUHAT_SATAKE_OUTPUT_DIR
or pass --output-dir to also write the report to a deterministically
named file.  Each command is one body function of its parsed options that
returns the report body, registered once by ``_report``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
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
    """Build the report body, print the report, write its file and exit with
    its status.  This is the one place where a ``ValueError`` becomes exit 2.
    ``name_params`` (``params`` when None) name the file and are read only
    after ``build`` has run."""
    if output_dir:
        try:
            Path(output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail(f"cannot use {output_dir} as the output directory: {exc.strerror}")
    try:
        body = build()
    except ValueError as exc:
        _fail(exc)
    report = {"schema": SCHEMA, "command": command, "params": params, **body}
    data = _render(report, fmt)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    if output_dir:
        path = Path(output_dir) / _filename(command, name_params if name_params is not None else params, fmt)
        try:
            path.write_bytes(data)
        except OSError as exc:
            _fail(f"cannot write the report to {path}: {exc.strerror}")
    sys.exit(0 if report["ok"] else 1)


# ----------------------------------------------------------------- options
# Each option is declared once; a command lists the ones it takes, in the
# order its --help shows them.

KIND_N = (
    click.Option(["--n"], type=int, required=True, help="Levi rank n."),
    click.Option(["--kind"], type=click.Choice(["A", "C"]), required=True, help="A or C."),
)
Q = click.Option(["--q"], type=int, required=True, help="Field size.")
TWIST = click.Option(["--twist/--no-twist"], default=True, show_default=True, help="Include formal central units.")
D_P_R = (
    click.Option(["--d"], type=int, required=True, help="Number of Z_p factors."),
    click.Option(["--p"], type=int, default=2, show_default=True, help="Coefficient prime."),
    click.Option(["--r"], type=int, default=2, show_default=True, help="Coefficient exponent."),
)
A_LEVEL = click.Option(["--a"], type=int, default=2, show_default=True, help="Level exponent p^a.")
COMMON = (
    click.Option(["--output-dir"], envvar="BRUHAT_SATAKE_OUTPUT_DIR",
                 help="Directory for the report file; defaults to $BRUHAT_SATAKE_OUTPUT_DIR."),
    click.Option(["--format", "fmt"], type=click.Choice(["json", "csv"]), default="json", show_default=True,
                 help="Report format."),
)


@click.group()
def main():
    """Exact checks for parabolic cosets, Schubert cells, Satake identities,
    p-adic coset invariants, and ordinary Koszul cohomology."""
    # Every kernel is integer, so numpy never calls BLAS.  One OpenBLAS thread
    # spares the process the worker thread OpenBLAS starts when numpy loads,
    # which only a command body, run after this, can do.  A value the user
    # set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


main.add_command(click.Group("weyl", help="Weyl group combinatorics."))
main.add_command(click.Group("cells", help="Schubert cell dimensions."))
main.add_command(click.Group("flag", help="Finite flag variety checks."))
main.add_command(click.Group("satake", help="Satake transform identities."))
main.add_command(click.Group("padic", help="p-adic parabolic coset invariants."))
main.add_command(click.Group("ordcoh", help="Koszul cohomology and ordinary parts."))


def _command(group: str, name: str, run, options, body) -> None:
    main.commands[group].add_command(click.Command(name, callback=run, params=[*options, *COMMON], help=body.__doc__))


def _report(group: str, name: str, *options: click.Option):
    """Register ``body`` as the command ``group name``: it is called with the
    parsed ``options`` as keywords, which are also the report's ``params``."""

    def register(body):
        def run(fmt, output_dir, **params):
            _emit(f"{group} {name}", params, lambda: body(**params), fmt, output_dir)

        _command(group, name, run, options, body)
        return body

    return register


def _check_rows(result: dict, *checks: str) -> list[dict]:
    return [{"check": check, "ok": result[check]} for check in checks]


# ------------------------------------------------------------- weyl, cells


@_report("weyl", "cosets", *KIND_N)
def weyl_cosets(kind, n):
    """List the parabolic double coset representatives sigma_k.

    They must have the taus 0..n, and their double cosets must fill W."""
    gk = _group_kind(kind, n)
    weyl.check_order(gk)
    reps = weyl.double_cosets(gk)
    rows = [{"k": k, "perm": "".join(map(str, w.perm)) if 2 * n < 10 else str(list(w.perm)),
             "tau": weyl.tau(w), "length": weyl.length(w)} for k, w in enumerate(reps)]
    taus_ok = [row["tau"] for row in rows] == list(range(n + 1))
    fill = sum(map(weyl.double_coset_size, reps)) == weyl.order(gk)
    return {"rows": rows, "count": len(reps), "ok": taus_ok and fill}


@_report("cells", "dims", *KIND_N)
def cells_dims(kind, n):
    """Cell dimensions of the coset representatives against the closed forms."""
    gk = _group_kind(kind, n)
    weyl.check_order(gk)
    rows = []
    for k, rep in enumerate(weyl.double_cosets(gk)):
        by_roots = roots.schubert_cell_dim(rep)
        closed = roots.cell_dim_formula(gk, k)
        unip = roots.unipotent_intersection_dim(rep * weyl.longest_element(gk))
        rows.append({"tau": k, "dim_by_roots": by_roots, "dim_closed_form": closed, "dim_unipotent": unip,
                     "agree": by_roots == closed == unip})
    return {"rows": rows, "ok": all(row["agree"] for row in rows)}


# -------------------------------------------------------------------- flag


@_report("flag", "census", *KIND_N, Q)
def flag_census(kind, n, q):
    """Point counts of the flag variety by cell invariant tau."""
    gk = _group_kind(kind, n)
    census = flagfq.cell_census(gk, q)
    total = sum(census.values())
    expected = flagfq.flag_size(gk, q)
    open_points = q ** roots.cell_dim_formula(gk, n)
    strata = all(census.get(k, 0) == flagfq.stratum_size(gk, k, q) for k in range(n + 1))
    return {
        "rows": [{"tau": t, "points": census[t]} for t in sorted(census)],
        "total": total,
        "expected_total": expected,
        "open_cell_points": census[n],
        "open_cell_expected": open_points,
        "ok": total == expected and census[n] == open_points and strata,
    }


@_report("flag", "check-cover", *KIND_N, Q)
def flag_check_cover(kind, n, q):
    """Closure order and translated big-cell cover, exhaustively."""
    gk = _group_kind(kind, n)
    cover = flagfq.cover_lemma_check(gk, q)  # first, so its group guard refuses before the closure sweep
    closure = flagfq.closure_order_check(gk, q)
    rows = _check_rows(closure, "tau_constant_on_orbits", "orbits_match_tau_fibers")
    rows += _check_rows(cover, "lower_inclusions", "upper_inclusions", "translates_cover_group")
    ok = closure["ok"] and cover["ok"]
    return {"rows": rows, "points": closure["points"], "group_order": cover["group_order"], "ok": ok}


@_report("flag", "check-finding-j", *KIND_N, Q)
def flag_check_finding_j(kind, n, q):
    """Every Borel orbit meets a coordinate frame transversally."""
    res = flagfq.finding_j_check(_group_kind(kind, n), q)
    rows = _check_rows(res, "every_orbit_admits_J", "open_cell_admits_full_J")
    return {"rows": rows, "points": res["points"], "borel_orbits": res["borel_orbits"], "ok": res["ok"]}


# ------------------------------------------------------------------ satake


@_report("satake", "verify", *KIND_N, TWIST)
def satake_verify(kind, n, twist):
    """Expand both sides of the determinant factorization and compare.

    Kind A is the split unitary identity, kind C the real one.
    """
    case = satake.SatakeCase.UNITARY if kind == "A" else satake.SatakeCase.REAL
    report = satake.verify_determinant_factorization(case, n, twist=twist)
    rows = [{"x_power": j, "equal": lhs == rhs} for j, (lhs, rhs) in enumerate(zip(report["lhs"], report["rhs"]))]
    shown = {key: report[key] for key in ("case", "degree", "lhs", "rhs", "first_difference")}
    return {"rows": rows, **shown, "ok": report["verdict"]}


# ------------------------------------------------------------------- padic
# The two padic commands also take a matrix, so they share one more layer:
# their options, the input checks, the matrix parse, the seeded generator
# and a file name that carries a digest of the matrix text.


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


def _load_matrix(kind, n, p, text):
    if text is None:
        return None
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("the matrix JSON is nested too deeply") from None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("the matrix must be a JSON list of rows")
    return padic.block_matrix(_group_kind(kind, n), p, rows)


def _padic_text(n, p, m, count, matrix, matrix_file):
    """Check the padic options and read the matrix text once, or None for a
    sampled suite, whose work estimate is checked here."""
    if m < 1:
        raise ValueError(f"--m must be at least 1, got {m}")
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    text = _matrix_text(matrix, matrix_file)
    # p^m has more than m (bit length of |p|, less 1) bits, so a long p^m
    # is refused before it is computed
    if text is None and (
        padic.suite_work(n, m * (abs(p).bit_length() - 1), count) >= padic.SUITE_WORK_GUARD
        or padic.suite_work(n, (p**m).bit_length(), count) > padic.SUITE_WORK_GUARD
    ):
        raise ValueError(
            f"the work estimate of {count} samples at n = {n} and modulus p^m exceeds the guard"
            f" SUITE_WORK_GUARD = {padic.SUITE_WORK_GUARD}"
        )
    return text


PADIC = (
    click.Option(["--p"], type=int, required=True, help="Residue prime."),
    click.Option(["--m"], type=int, default=1, show_default=True, help="Congruence exponent."),
    click.Option(["--seed"], type=int, default=0, show_default=True, help="Seed for the sampled suite."),
)
MATRIX = (
    click.Option(["--matrix-file"], help="File containing the JSON rows."),
    click.Option(["--matrix"], help="JSON rows; entries int or 'a/b' strings."),
)


def _padic(name: str, count: int):
    """Register ``body(g, gk, p, m, count, rng)`` as ``padic name``; ``g`` is the
    parsed matrix, or None for the suite of ``count`` samples drawn from ``rng``."""
    count_option = click.Option(["--count"], type=int, default=count, show_default=True,
                                help="Samples when no matrix is given.")

    def register(body):
        def run(kind, n, p, m, seed, count, matrix_file, matrix, fmt, output_dir):
            params = {"kind": kind, "n": n, "p": p, "m": m, "seed": seed, "count": count}
            name_params = dict(params)  # a given matrix adds its digest, read after build

            def build():
                text = _padic_text(n, p, m, count, matrix, matrix_file)
                if text is not None:
                    import hashlib  # only a given matrix needs a digest

                    name_params["digest"] = hashlib.sha256(text.encode()).hexdigest()[:12]
                g = _load_matrix(kind, n, p, text)
                return body(g, _group_kind(kind, n), p, m, count, random.Random(seed))

            _emit(f"padic {name}", params, build, fmt, output_dir, name_params=name_params)

        _command("padic", name, run, (*KIND_N, *PADIC, count_option, *MATRIX), body)
        return body

    return register


def _h_str(h):
    return "+inf" if h == math.inf else "-inf" if h == -math.inf else int(h)


@_padic("h", count=50)
def padic_h(g, gk, p, m, count, rng):
    """The invariant h(g) = min v_p(D^{-1}C), or a seeded invariance suite."""
    if g is not None:
        h = padic.h_invariant(g)
        return {"rows": [{"h": _h_str(h), "in_P_Gamma1": h >= m}], "ok": True}
    gam = padic.gamma(gk, p)
    shift = 1 if gk.family is weyl.Family.TYPE_A else 2
    rows = []
    for idx in range(count):
        g = padic.random_congruence_element(gk, p, m, rng)
        h = padic.h_invariant(g)
        par = padic.random_parabolic_element(gk, p, rng)
        passed = h >= m and padic.h_invariant(par * g) == h and padic.h_invariant(g * gam) == h + shift
        rows.append({"sample": idx, "h": _h_str(h), "passed": passed})
    return {"rows": rows, "ok": all(row["passed"] for row in rows)}


def _block_upper_triangular(g) -> bool:
    """The lower-left n x n block of g is zero."""
    return not any(any(row[: g.n]) for row in g.num[g.n :])


@_padic("factor", count=20)
def padic_factor(g, gk, p, m, count, rng):
    """Split g into its parabolic and congruence factors."""
    if g is not None:
        h = padic.h_invariant(g)
        p_part, g1_part = padic.factor_P_Gamma1(g, m, h=h)
        reassembled = p_part * g1_part == g
        return {
            "rows": [{"h": _h_str(h), "reassembled": reassembled}],
            "p_part": [[str(x) for x in row] for row in p_part.rows],
            "gamma1_part": [[str(x) for x in row] for row in g1_part.rows],
            "ok": reassembled and _block_upper_triangular(p_part),
        }
    rows = []
    for idx in range(count):
        g = padic.random_congruence_element(gk, p, m, rng)
        p_part, g1_part = padic.factor_P_Gamma1(g, m)
        passed = p_part * g1_part == g and _block_upper_triangular(p_part) and padic.in_level(g1_part, m)
        rows.append({"sample": idx, "passed": passed})
    return {"rows": rows, "ok": all(row["passed"] for row in rows)}


# ------------------------------------------------------------------ ordcoh


@_report("ordcoh", "ranks", *D_P_R)
def ordcoh_ranks(d, p, r):
    """Betti numbers of H^*(Z_p^d, Z/p^r)."""
    lam = ordcoh.Lambda(p, r)
    ranks = ordcoh.koszul_cohomology(d)
    diffs = ordcoh.koszul_differentials(d, lam, [1] * d)
    trivial_vanish = not any(any(row) for mat in diffs for row in mat)
    return {
        "rows": [{"degree": i, "rank": rank} for i, rank in enumerate(ranks)],
        "trivial_weights_vanish": trivial_vanish,
        "ok": ranks == tuple(math.comb(d, i) for i in range(d + 1)) and trivial_vanish,
    }


@_report("ordcoh", "ordinary", *D_P_R, A_LEVEL)
def ordcoh_ordinary(d, p, r, a):
    """Mod-p ranks of the ordinary projectors of the Hecke operator."""
    got = ordcoh.ordinary_part_of_hecke_gamma(d, ordcoh.Lambda(p, r), a=a)
    expected = (0,) * d + (1,)
    rows = [{"degree": i, "ordinary_rank": rank, "expected": exp} for i, (rank, exp) in enumerate(zip(got, expected))]
    return {"rows": rows, "ok": got == expected}


if __name__ == "__main__":
    main()
