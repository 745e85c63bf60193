"""Command line front end.

Subcommands: topple, check, count, tables, biject, verify, polybernoulli.
All numeric output is exact decimal; table output is text, CSV, or JSON;
fixed arguments (including a fixed --seed) produce byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import bijections, characterize, engine, families, harness, polybernoulli
from .core import (
    format_configuration,
    format_permutation,
    parse_configuration,
    parse_permutation,
    record_class,
)
from .families import CallanWord, CapExceeded

_POSITIVE = click.IntRange(min=1)


def _decimal(value: int) -> str:
    """
    The exact decimal digits of ``value``. Python's int-to-str digit limit
    (3.10.7+) still bounds the integers that options parse, so it is lifted
    only here, for output.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class _Cli(click.Group):
    """
    The one error boundary: a domain error from any subcommand becomes one
    Error: line. So does a ``MemoryError``, as a last resort: it keeps the
    traceback off the terminal but bounds no computation, so an input that
    outgrows memory (such as a large Stirling triangle) still runs until
    the allocation fails or the host stops it.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, CapExceeded) as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:
            raise click.ClickException("out of memory") from exc


@click.group(cls=_Cli)
@click.version_option(version="0.1.0", prog_name="chiptopple")
def cli() -> None:
    """Chip toppling on a path with a doubled site: dynamics, counting, tables."""


# ---------------------------------------------------------------------------
# topple
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--config", "literal", required=True, help='Configuration literal, e.g. "1,(2,3),4".')
@click.option("--random", "use_random", is_flag=True, help="Use the seeded random schedule.")
@click.option("--seed", type=int, default=None, help="Random-schedule seed; implies --random [default: 0].")
@click.option("--trace", is_flag=True, help="Print the pass trace as JSON (pass schedule only).")
def topple(literal: str, use_random: bool, seed: int | None, trace: bool) -> None:
    """Stabilize a configuration and print the resultant permutation."""
    config = parse_configuration(literal)
    if use_random or seed is not None:
        if trace:
            raise click.UsageError("--trace needs the pass schedule; drop --random and --seed")
        final, _ = engine.stabilize_random(config, 0 if seed is None else seed)
    else:
        final = engine.resultant(config)
    perm, empty_site = final
    click.echo(f"resultant: {format_permutation(perm)}, empty-site: {empty_site}")
    if trace:
        # one pass at a time: a snapshot's fields, in order, are its JSON keys; tuples dump as lists
        snapshots = map(json.dumps, map(vars, engine.stabilize_passes(config)))
        click.echo(f"[{next(snapshots)}", nl=False)
        for snapshot in snapshots:
            click.echo(f", {snapshot}", nl=False)
        click.echo("]")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@cli.group()
def check() -> None:
    """Closed-form toppleability predicates."""


@check.command("config")
@click.option("--config", "literal", required=True, help="Configuration literal.")
def check_config(literal: str) -> None:
    """Does the configuration topple to the sorted arrangement?"""
    config = parse_configuration(literal)
    click.echo("true" if characterize.is_p_toppleable(config) else "false")


@check.command("rp")
@click.option("--perm", required=True, help="Permutation literal.")
@click.option("--r", "r", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
def check_rp(perm: str, r: int, p: int) -> None:
    """Is the permutation toppleable with chip r added at site p?"""
    pi = parse_permutation(perm)
    click.echo("true" if characterize.is_rp_toppleable(pi, r, p) else "false")


@check.command("all-r")
@click.option("--perm", required=True, help="Permutation literal.")
@click.option("--p", "p", type=int, required=True)
def check_all_r(perm: str, p: int) -> None:
    """Is the permutation toppleable for every added chip at site p?"""
    pi = parse_permutation(perm)
    click.echo("true" if characterize.is_all_r_toppleable(pi, p) else "false")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

@cli.group()
def count() -> None:
    """Exact counts, by formula or enumeration."""


@count.command("toppleable")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option(
    "--method",
    type=click.Choice(["formula", "simulate", "characterize"]),
    default="formula",
    show_default=True,
)
@click.option("--jobs", type=_POSITIVE, default=1, show_default=True)
def count_toppleable(n: int, p: int, method: str, jobs: int) -> None:
    """Configurations in S(n,p) toppling to the sorted arrangement."""
    if method == "formula":
        value = polybernoulli.count_toppleable_configs(n, p)
    else:
        value = harness.brute_count_toppleable(n, p, method, jobs)
    click.echo(_decimal(value))


@count.command("rp")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option(
    "--method",
    type=click.Choice(["delta", "c_sum", "brute"]),
    default="delta",
    show_default=True,
)
@click.option("--jobs", type=_POSITIVE, default=1, show_default=True)
def count_rp(n: int, p: int, r: int, method: str, jobs: int) -> None:
    """Permutations of 1..n toppleable with chip r at site p."""
    if method == "brute":
        value = harness.brute_T(n, p, r, jobs)
    else:
        value = polybernoulli.count_rp_toppleable(n, p, r, method)
    click.echo(_decimal(value))


@count.command("all-r")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option(
    "--method", type=click.Choice(["formula", "brute"]), default="formula", show_default=True
)
@click.option("--jobs", type=_POSITIVE, default=1, show_default=True)
def count_all_r(n: int, p: int, method: str, jobs: int) -> None:
    """Permutations of 1..n toppleable for every added chip at site p."""
    if method == "brute":
        value = harness.brute_all_r_toppleable(n, p, jobs)
    else:
        value = polybernoulli.count_all_r_toppleable(n, p)
    click.echo(_decimal(value))


@count.command("class")
@click.option("--i", "i", type=int, required=True, help="Left-record count of the prefix.")
@click.option("--j", "j", type=int, required=True, help="Right-record count of the suffix.")
def count_class(i: int, j: int) -> None:
    """Configurations toppling to any one resultant of record class (i,j)."""
    click.echo(_decimal(polybernoulli.count_resultant_class(i, j)))


@count.command("npi")
@click.option("--perm", required=True, help="Resultant permutation literal.")
@click.option("--r", type=int, required=True)
@click.option("--p", type=int, required=True)
def count_npi(perm: str, r: int, p: int) -> None:
    """Permutations toppling to the given resultant with chip r at site p."""
    pi = parse_permutation(perm)
    click.echo(_decimal(polybernoulli.count_N_pi(pi, r, p)))


@count.command("family")
@click.option(
    "--family",
    type=click.Choice(sorted(families.FAMILIES)),
    required=True,
)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--underlined", "-u", type=int, default=None)
@click.option("--overlined", "-o", type=int, default=None)
@click.option("--first", type=int, default=None, help="First letter for callan_first.")
@click.option("--list", "list_members", is_flag=True, help="Stream the members, one per line.")
def count_family_cmd(
    family: str,
    n: int | None,
    k: int | None,
    underlined: int | None,
    overlined: int | None,
    first: int | None,
    list_members: bool,
) -> None:
    """Count (or list) a recognizable permutation family."""
    supplied = {"n": n, "k": k, "underlined": underlined, "overlined": overlined, "first": first}
    params = {}
    for name in families.FAMILIES[family][0]:
        if supplied[name] is None:
            raise click.UsageError(f"--{name} is required for family {family}")
        params[name] = supplied[name]

    if list_members:
        for member in families.enumerate_family(family, **params):
            click.echo(format_permutation(member))
    else:
        click.echo(_decimal(families.count_family(family, **params)))


@count.command("ao")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option(
    "--mode",
    type=click.Choice(["all", "unique_sink_anywhere", "unique_sink_fixed_vertex"]),
    default="all",
    show_default=True,
)
def count_ao(n: int, k: int, mode: str) -> None:
    """Acyclic orientations of the complete bipartite graph, brute force."""
    click.echo(_decimal(families.count_acyclic_orientations(n, k, mode)))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _emit_table(header: list[str], rows: list[list[object]], fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps([dict(zip(header, row)) for row in rows], indent=2))
        return
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        click.echo(buffer.getvalue().rstrip("\n"))
        return
    widths = [
        max(len(str(cell)) for cell in [name] + [row[idx] for row in rows])
        for idx, name in enumerate(header)
    ]
    click.echo("  ".join(name.ljust(widths[idx]) for idx, name in enumerate(header)))
    for row in rows:
        click.echo("  ".join(str(cell).ljust(widths[idx]) for idx, cell in enumerate(row)))


@cli.command()
@click.option(
    "--which",
    type=click.Choice(["1a", "1b", "2", "resultant-fibers", "T-array", "T-counts", "Npi"]),
    required=True,
)
@click.option("--n", type=click.IntRange(min=0), default=None)
@click.option("--p", type=_POSITIVE, default=None)
@click.option("--r", type=_POSITIVE, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text", show_default=True
)
def tables(which: str, n: int | None, p: int | None, r: int | None, fmt: str) -> None:
    """Rebuild one of the published tables (exact values)."""
    if n == 0 and which in ("2", "T-counts"):
        raise click.ClickException(f"table {which} needs --n >= 1")
    if which in ("1a", "1b"):
        size = 5 if n is None else n
        fn = polybernoulli.b_number if which == "1a" else polybernoulli.c_number
        header = ["n\\k"] + [str(k) for k in range(size + 1)]
        rows = [[i] + [fn(i, k) for k in range(size + 1)] for i in range(size + 1)]
        _emit_table(header, rows, fmt)
        return
    if which == "2":
        size = 6 if n is None else n
        header = ["n\\p"] + [str(pp) for pp in range(1, size + 1)]
        rows = []
        for nn in range(1, size + 1):
            row: list[object] = [nn]
            row.extend(
                polybernoulli.count_toppleable_configs(nn, pp) for pp in range(1, nn + 1)
            )
            row.extend("" for _ in range(size - nn))
            rows.append(row)
        _emit_table(header, rows, fmt)
        return
    if which == "resultant-fibers":
        if n is None or p is None:
            raise click.UsageError("resultant-fibers needs --n (resultant size) and --p")
        grouped = harness.group_by_resultant(n - 1, p)
        harness.fiber_classes(
            {perm: len(members) for perm, members in grouped.items()}, lambda perm: record_class(perm, p)
        )
        rows = [
            [
                format_permutation(perm),
                len(grouped[perm]),
                " ".join(sorted(map(format_configuration, grouped[perm]))),
            ]
            for perm in sorted(grouped)
        ]
        _emit_table(["resultant", "count", "configurations"], rows, fmt)
        return
    if which == "T-array":
        if n is None or p is None:
            raise click.UsageError("T-array needs --n (resultant size) and --p")
        table = harness.resultant_table(n, p)
        header = ["i\\j"] + [str(j) for j in range(1, p + 1)]
        rows = [[i] + list(row) for i, row in enumerate(table.counts, start=1)]
        _emit_table(header, rows, fmt)
        return
    if which == "T-counts":
        if n is None:
            raise click.UsageError("T-counts needs --n")
        header = ["p\\r"] + [str(rr) for rr in range(1, n + 2)]
        rows = [
            [pp] + [polybernoulli.count_rp_toppleable(n, pp, rr) for rr in range(1, n + 2)]
            for pp in range(1, n + 1)
        ]
        _emit_table(header, rows, fmt)
        return
    if which == "Npi":
        if n is None or p is None or r is None:
            raise click.UsageError("Npi needs --n (resultant size), --p and --r")
        fibers = harness.resultant_counts_marked(n, p, r)
        rows = [
            [
                format_permutation(perm[: n - p]),
                format_permutation(perm[n - p :]),
                count_value,
            ]
            for perm, count_value in sorted(fibers.items())
        ]
        _emit_table(["prefix", "suffix", "count"], rows, fmt)
        return
    raise AssertionError(which)


# ---------------------------------------------------------------------------
# biject
# ---------------------------------------------------------------------------

@cli.group()
def biject() -> None:
    """Run the explicit bijections in either direction."""


@biject.command("callan-to-vesz")
@click.option("--word", required=True, help="Callan word literal (permutation literal).")
@click.option("--underlined", "-u", type=int, required=True)
@click.option("--overlined", "-o", type=int, required=True)
def biject_callan(word: str, underlined: int, overlined: int) -> None:
    values = parse_permutation(word)
    cw = CallanWord(values=values, underlined=underlined, overlined=overlined)
    click.echo(format_permutation(bijections.callan_to_vesztergombi(cw)))


@biject.command("vesz-to-callan")
@click.option("--perm", required=True, help="Vesztergombi permutation literal.")
@click.option("--underlined", "-u", type=int, required=True)
@click.option("--overlined", "-o", type=int, required=True)
def biject_vesz(perm: str, underlined: int, overlined: int) -> None:
    sigma = parse_permutation(perm)
    word = bijections.vesztergombi_to_callan(sigma, underlined, overlined)
    click.echo(format_permutation(word.values))


@biject.command("phi")
@click.option("--config", "literal", required=True, help="Configuration literal.")
@click.option("--perm", default=None, help="Resultant; computed when omitted.")
def biject_phi(literal: str, perm: str | None) -> None:
    config = parse_configuration(literal)
    if perm is None:
        pi, _ = engine.resultant(config)
    else:
        pi = parse_permutation(perm)
    reduced = bijections.phi(config, pi, verify=perm is not None)
    click.echo(format_configuration(reduced))


@biject.command("phi-inverse")
@click.option("--config", "literal", required=True, help="Reduced configuration literal.")
@click.option("--perm", required=True, help="Target resultant literal.")
@click.option("--p", type=int, default=None, help="Doubled site; inferred when omitted.")
def biject_phi_inverse(literal: str, perm: str, p: int | None) -> None:
    reduced = parse_configuration(literal)
    pi = parse_permutation(perm)
    config = bijections.phi_inverse(reduced, pi, p)
    click.echo(format_configuration(config))


# ---------------------------------------------------------------------------
# verify / polybernoulli
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--n-max", type=_POSITIVE, default=5, show_default=True)
@click.option("--jobs", type=_POSITIVE, default=1, show_default=True)
@click.option("--seeds", type=_POSITIVE, default=5, show_default=True, help="Seeds per configuration in the schedule check.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
def verify(n_max: int, jobs: int, seeds: int, fmt: str) -> None:
    """Re-derive every counting identity by brute force and report."""
    report = harness.verify_identities(n_max=n_max, jobs=jobs, seeds=seeds)
    click.echo(report.to_json() if fmt == "json" else report.format_text())
    if not report.ok:
        sys.exit(1)


@cli.command("polybernoulli")
@click.argument("kind", type=click.Choice(["B", "C"]))
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option(
    "--method",
    type=click.Choice(list(polybernoulli.METHODS)),
    default="closed",
    show_default=True,
)
def polybernoulli_cmd(kind: str, n: int, k: int, method: str) -> None:
    """One poly-Bernoulli number, exact."""
    fn = polybernoulli.poly_bernoulli_B if kind == "B" else polybernoulli.poly_bernoulli_C
    click.echo(_decimal(fn(n, k, method)))


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
