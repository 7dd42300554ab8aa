"""Command-line entry point.

Exit codes: 0 success, 1 assertion or vector failure, 2 usage error.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import click

from .curve import CURVES, generate_keypair, get_curve
from .harness import RunReport, ScenarioConfig, run_scenario
from .oracle import CHECKS, run_oracle_suite
from .rng import SystemRng
from .vectors import verify_published_vectors

NAMED_CURVES = [c.curve_id for c in CURVES.values() if c.openssl_curve]


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
              default=NAMED_CURVES[0], show_default=True,
              help="Curve to run on.")
@click.option("--voters", type=click.IntRange(min=1), default=10,
              show_default=True)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0,
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
@click.option("--dump-dir", type=click.Path(file_okay=False), default=None,
              help="Hex-dump every protocol message into this empty directory.")
def demo(curve_id, voters, seed, as_json, dump_dir):
    """Run a seeded end-to-end issuance and voting scenario."""
    cfg = ScenarioConfig(curve_id=curve_id, num_voters=voters, rng_seed=seed)
    start = time.monotonic()
    try:
        report = run_scenario(cfg, dump_dir=dump_dir)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--dump-dir") from None
    if as_json:
        click.echo(report.to_json())
    else:
        _print_report(report)
        click.echo(f"elapsed: {time.monotonic() - start:.2f}s")
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
        click.echo(json.dumps(asdict(report), indent=2))
    else:
        click.echo(f"group order: {report.group_order}")
        for name in CHECKS:
            status = "PASS" if getattr(report, name) else "FAIL"
            click.echo(f"[{status}] {name}")
        for failure in report.failures:
            click.echo(f"  {failure}")
    sys.exit(0 if report.all_ok else 1)


if __name__ == "__main__":
    main()
