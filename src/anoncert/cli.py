"""Command-line entry point.

Exit codes: 0 success, 1 assertion or vector failure, 2 usage error.
"""

from __future__ import annotations

import json
import sys

import click

from .curve import OPENSSL_CURVES, generate_keypair, get_curve
from .harness import PRESETS, RunReport, ScenarioConfig, run_scenario
from .oracle import run_oracle_suite
from .rng import SystemRng
from .vectors import verify_published_vectors

NAMED_CURVES = list(OPENSSL_CURVES)


@click.group()
def main():
    """Anonymous-certificate issuance toolkit."""


@main.command()
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def vectors(as_json):
    """Verify the published key-expansion test vectors per relation."""
    results = verify_published_vectors()
    if as_json:
        click.echo(json.dumps([r.__dict__ for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"[{status}] {r.curve_id}: {r.relation}")
            if not r.passed:
                click.echo(f"       expected {r.expected}")
                click.echo(f"       computed {r.computed}")
    sys.exit(0 if all(r.passed for r in results) else 1)


@main.command()
@click.option("--curve", "curve_id", type=click.Choice(NAMED_CURVES),
              default=None, help="Curve to run on.")
@click.option("--voters", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
              help="Case-study preset; sets the curve.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
@click.option("--dump-dir", type=click.Path(file_okay=False), default=None,
              help="Write every protocol message as a hex dump here.")
def demo(curve_id, voters, seed, preset, as_json, dump_dir):
    """Run a seeded end-to-end issuance and voting scenario."""
    if preset is not None:
        curve_id = PRESETS[preset]
    elif curve_id is None:
        curve_id = NAMED_CURVES[0]
    cfg = ScenarioConfig(curve_id=curve_id, num_voters=voters, rng_seed=seed)
    report = run_scenario(cfg, dump_dir=dump_dir)
    if as_json:
        click.echo(report.to_json())
    else:
        _print_report(report)
    ok = (report.successes == cfg.num_voters
          and report.assertions.get("ra_view_separation")
          and report.assertions.get("ca_view_separation")
          and report.assertions.get("all_invariants"))
    sys.exit(0 if ok else 1)


def _print_report(report: RunReport):
    cfg = report.config
    click.echo(f"curve={cfg.curve_id} voters={cfg.num_voters} "
               f"seed={cfg.rng_seed}")
    click.echo(f"successes: {report.successes}/{cfg.num_voters}")
    for v in report.voters:
        if v.status != "ok":
            click.echo(f"  {v.ee_id}: {v.error}")
    click.echo("tally: " + ", ".join(f"{c}={n}"
                                     for c, n in sorted(report.tally.items())))
    for key in ("ra_view_separation", "ca_view_separation", "all_invariants"):
        status = "PASS" if report.assertions.get(key) else "FAIL"
        click.echo(f"[{status}] {key}")
    click.echo(f"elapsed: {report.elapsed_seconds:.2f}s")


@main.command()
@click.option("--curve", "curve_id", type=click.Choice(NAMED_CURVES),
              required=True)
@click.option("--json", "as_json", is_flag=True)
def keygen(curve_id, as_json):
    """Generate a fresh keypair on the chosen curve."""
    params = get_curve(curve_id)
    pair = generate_keypair(params, SystemRng())
    if as_json:
        click.echo(json.dumps({
            "curve_id": curve_id,
            "private": pair.private.to_hex(),
            "public_x": f"{pair.public.x:064X}",
            "public_y": f"{pair.public.y:064X}",
        }, indent=2))
    else:
        click.echo(f"curve:   {curve_id}")
        click.echo(f"private: {pair.private.to_hex()}")
        click.echo(f"public:  {pair.public.to_hex()}")


@main.command()
@click.option("--json", "as_json", is_flag=True)
def oracle(as_json):
    """Run the exhaustive desk-curve oracle suite."""
    report = run_oracle_suite()
    if as_json:
        click.echo(json.dumps({
            "group_order": report.group_order,
            "scalar_table_ok": report.scalar_table_ok,
            "group_laws_ok": report.group_laws_ok,
            "homomorphism_ok": report.homomorphism_ok,
            "uniform_expansion_ok": report.uniform_expansion_ok,
            "failures": report.failures,
        }, indent=2))
    else:
        click.echo(f"group order: {report.group_order}")
        for name in ("scalar_table_ok", "group_laws_ok",
                     "homomorphism_ok", "uniform_expansion_ok"):
            status = "PASS" if getattr(report, name) else "FAIL"
            click.echo(f"[{status}] {name}")
        for failure in report.failures:
            click.echo(f"  {failure}")
    sys.exit(0 if report.all_ok else 1)


if __name__ == "__main__":
    main()
