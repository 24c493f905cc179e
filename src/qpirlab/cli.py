"""Batch experiment runner.

Every command emits flat report rows (one assertion each, tagged with the
tolerance it was judged against), writes them as JSON and CSV when an output
path is given, and exits 1 if any assertion failed, and only then; an option
value the library refuses exits 2, naming the option, and so does a run past
a cap, with the library's message.  All protocol physics is deterministic;
the seed only fixes randomized fixtures such as the sampled databases at n = 8.

The global qubit cap can be overridden with the ``QPIRLAB_QUBIT_CAP``
environment variable; commands estimate the register bill before allocating
and fail fast with the offending figure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .adversaries import (adversary_by_name, gamma_family, measure_speciousness,
                          purification_attack, purified_honest)
from .bounds import (
    chain_rule_check,
    epsilon_prime,
    extraction_attack,
    nayak_argument,
    nayak_bound,
    reconstruction_bound,
)
from .config import CapExceeded, QubitCapExceeded
from .privacy import privacy_lower_bound, verify_theorem_bound
from .protocols import build_baseline, build_counterexample, build_kerenidis, database_bits
from .runtime import communication, spec_to_json

TOL = 1e-9


@contextmanager
def _usage(option: str):
    """A ``ValueError`` the library raises for ``option``'s value, as a
    usage error (exit 2) naming the option; exit 1 stays a failed check."""
    try:
        yield
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{option}'") from exc


def _finite(low: float, high: float):
    """The callback that passes a finite float in [``low``, ``high``] and
    refuses anything else: ``click.FloatRange`` lets NaN and infinity
    through, and NaN fails every comparison."""
    def check(ctx, param, value: float) -> float:
        if not (math.isfinite(value) and low <= value <= high):
            raise click.BadParameter(f"{value!r} is not a finite value in [{low:g}, {high:g}]")
        return value
    return check


def _build(protocol: str, n: int, cleanup: bool = False, database=None):
    """``protocol``'s instance.  Only kerenidis has a cleanup phase, and the
    counterexample takes no database; either option given to a protocol
    without it is a usage error, and so is a size the protocol refuses."""
    if cleanup and protocol in ("send-db", "send-index", "counterexample"):
        raise click.UsageError(f"--cleanup does not apply to protocol {protocol!r}")
    if database is not None and protocol == "counterexample":
        raise click.UsageError(f"--database does not apply to protocol {protocol!r}")
    with _usage("--n"):
        if protocol == "kerenidis":
            return build_kerenidis(n, cleanup=cleanup, database=database)
        if protocol in ("send-db", "send-index"):
            return build_baseline(protocol, n, database=database)
        if protocol == "counterexample":
            return build_counterexample(n)
    raise click.UsageError(f"unknown protocol {protocol!r}")


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    rows = [dict(sorted((k, _plain(v)) for k, v in r.items())) for r in rows]
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        base = path.with_suffix("") if path.suffix in (".json", ".csv") else path
        Path(str(base) + ".json").write_text(json.dumps(rows, indent=1))
        with open(str(base) + ".csv", "w", newline="") as fh:
            _write_csv(rows, fh)
    if fmt == "json":
        click.echo(json.dumps(rows, indent=1))
    else:
        buf = io.StringIO()
        _write_csv(rows, buf)
        click.echo(buf.getvalue().rstrip("\n"))


def _write_csv(rows: list[dict], fh) -> None:
    keys = sorted({k for r in rows for k in r})
    writer = csv.DictWriter(fh, fieldnames=keys)
    writer.writeheader()
    for r in rows:
        writer.writerow(r)


def _finish(rows: list[dict], out, fmt) -> None:
    _emit(rows, out, fmt)
    failed = [r for r in rows if r.get("ok") is False]
    if failed:
        click.echo(f"FAIL: {len(failed)} of {len(rows)} assertions failed", err=True)
        sys.exit(1)
    click.echo(f"ok: {len(rows)} rows", err=True)


_common = [
    click.option("--out", default=None, help="Path stem for the JSON and CSV reports."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


class _CapsAreUsageErrors(click.Group):
    """Each command, nested ones too, exits 2 on a cap the run would pass."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CapExceeded as exc:
            hint = " (raise QPIRLAB_QUBIT_CAP to override)" if isinstance(
                exc, QubitCapExceeded) else ""
            raise click.UsageError(f"{exc}{hint}") from exc


@click.group(cls=_CapsAreUsageErrors)
def main():
    """Simulation lab for anchored-privacy analysis of QPIR protocols."""


@main.command()
@click.option("--protocol", default="kerenidis")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--cleanup", is_flag=True)
@click.option("--databases", type=click.IntRange(min=1), default=None,
              help="Distinct random databases to sample (exhaustive when omitted and n <= 4).")
@click.option("--seed", type=int, default=7)
@_with_common
def correctness(protocol, n, cleanup, databases, seed, out, fmt):
    """Decode probability for every (database, index) pair."""
    if databases is None and n <= 4:
        labels = range(1 << n)
        seed = None  # exhaustive: no database was drawn
    else:
        # refuse a bad size before drawing from its 2**n databases
        _build(protocol, n, cleanup=cleanup,
               database=None if protocol == "counterexample" else (0,) * n)
        with _usage("--databases"):  # more than the 2**n databases
            labels = np.random.default_rng(seed).choice(1 << n, databases or 64, replace=False)
    dbs = [database_bits(int(d), n) for d in labels]
    rows = []
    for db in dbs:
        inst = _build(protocol, n, cleanup=cleanup,
                      database=db if protocol != "counterexample" else None)
        tr = inst.run(input_state=inst.input_with_client(db, inst.client_uniform_state()),
                      keep_states=False)
        for i in range(1, n + 1):
            bit, prob = inst.decode(tr, i)
            ok = bit == db[i - 1] and prob >= 1 - TOL
            rows.append({"protocol": protocol, "n": n, "cleanup": cleanup, "seed": seed,
                         "db": "".join(map(str, db)), "i": i, "bit": bit,
                         "probability": prob, "tolerance": TOL, "ok": ok})
    _finish(rows, out, fmt)


@main.command()
@click.option("--protocol", default="kerenidis")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--adversary", "adversary_name", default=None,
              help="honest-purified | purify-db | gamma:<t> | gamma-lossy:<t>")
@click.option("--mode", type=click.Choice(["anchored", "full"]), default="anchored")
@click.option("--target", type=float, default=TOL, callback=_finite(0, math.inf),
              help="Privacy error the protocol is verified against.")
@_with_common
def privacy(protocol, n, adversary_name, mode, target, out, fmt):
    """Certified privacy-error lower bound against a (possibly adversarial)
    server; fails when it exceeds the target."""
    inst = _build(protocol, n)
    with _usage("--adversary"):
        adv = adversary_by_name(inst, adversary_name) if adversary_name else None
    report = privacy_lower_bound(inst, adv, mode)
    rows = [dict(r, tolerance=TOL, ok=None) for r in report.as_rows()]
    rows.append({"protocol": report.protocol, "adversary": report.adversary,
                 "mode": mode, "eps_lower": report.eps_lower, "target": target,
                 "tolerance": TOL, "ok": report.eps_lower <= target + TOL})
    _finish(rows, out, fmt)


@main.command("spec")
@click.option("--protocol", default="kerenidis")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--cleanup", is_flag=True)
@click.option("--database", default=None, help="Bit string for the classical fast path.")
@click.option("--out", default=None)
def spec_dump(protocol, n, cleanup, database, out):
    """Emit a protocol's register table and per-step operator descriptors in
    the serialized text form."""
    with _usage("--database"):
        db = database_bits(database, n) if database else None
    inst = _build(protocol, n, cleanup=cleanup, database=db)
    text = spec_to_json(inst.spec)
    if out:
        Path(out).write_text(text)
    click.echo(text)


@main.group()
def attack():
    """Mount the adversarial analyses."""


@attack.command()
@click.option("--n", type=click.IntRange(min=1), default=2)
@click.option("--protocol", default="kerenidis")
@click.option("--threshold", type=float, default=0.05, callback=_finite(0, math.inf))
@_with_common
def purify(n, protocol, threshold, out, fmt):
    """Input-purification attack: asserts the purified server's view leaks
    the index (max pairwise view distance above the threshold)."""
    inst = _build(protocol, n)
    adv = purification_attack(inst)
    report = privacy_lower_bound(inst, adv, "anchored")
    advantage = max((r.distance for r in report.rows), default=0.0)
    rows = [dict(r, tolerance=TOL, ok=None) for r in report.as_rows()]
    rows.append({"protocol": inst.spec.name, "adversary": adv.name,
                 "advantage": advantage, "threshold": threshold,
                 "eps_lower": report.eps_lower, "tolerance": TOL,
                 "ok": advantage > threshold})
    _finish(rows, out, fmt)


def _attack(inst, mode: str, database: str | None):
    """The reconstruction attack on ``inst`` in ``mode``, with the bit
    string ``database``; an argument the attack refuses is a usage error."""
    with _usage("--database"):
        bits = database_bits(database, inst.n) if database else None
    try:
        return extraction_attack(inst, mode, database=bits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@attack.command()
@click.option("--protocol", default="kerenidis")
@click.option("--n", type=click.IntRange(min=1), default=2)
@click.option("--mode", type=click.Choice(["classical-per-a", "coherent-reference"]),
              default="coherent-reference")
@click.option("--database", default=None, help="Bit string (classical-per-a mode).")
@_with_common
def reconstruct(protocol, n, mode, database, out, fmt):
    """Sequential database-reconstruction attack plus the leakage chain-rule
    consistency check."""
    inst = _build(protocol, n)
    trace = _attack(inst, mode, database)
    check = chain_rule_check(inst, trace)
    rows = [dict(r, tolerance=TOL, ok=None) for r in trace.as_rows()]
    rows.append(dict(check.as_dict(), tolerance=TOL, ok=check.consistent))
    _finish(rows, out, fmt)


@main.group()
def bounds():
    """Closed-form bound evaluators and numeric consistency checks."""


@bounds.command()
@click.option("--delta", type=float, required=True, callback=_finite(0, 1))
@click.option("--eps", type=float, required=True, callback=_finite(0, 1))
@click.option("--n", type=click.IntRange(min=1), required=True)
@_with_common
def nayak(delta, eps, n, out, fmt):
    """Communication lower bound (1 - H(1 - delta - 2 sqrt(eps(2-eps)))) n."""
    arg = nayak_argument(delta, eps)
    rows = [{"delta": delta, "eps": eps, "n": n, "entropy_argument": arg,
             "argument_in_range": 0.0 <= arg <= 1.0,
             "value": nayak_bound(delta, eps, n), "tolerance": 0.0, "ok": True}]
    _finish(rows, out, fmt)


@bounds.command("chain-rule")
@click.option("--protocol", default="kerenidis")
@click.option("--n", type=click.IntRange(min=1), default=2)
@click.option("--mode", type=click.Choice(["classical-per-a", "coherent-reference"]),
              default="coherent-reference")
@click.option("--database", default=None)
@_with_common
def chain_rule(protocol, n, mode, database, out, fmt):
    """Attack success against the interactive-leakage ceiling."""
    inst = _build(protocol, n)
    trace = _attack(inst, mode, database)
    check = chain_rule_check(inst, trace)
    rows = [dict(check.as_dict(), tolerance=TOL, ok=check.consistent)]
    _finish(rows, out, fmt)


@bounds.command()
@click.option("--n", type=click.IntRange(min=1), default=2)
@click.option("--thetas", default="0.1,0.2,0.4")
@click.option("--tolerance", type=float, default=1e-6, callback=_finite(0, math.inf))
@_with_common
def theorem32(n, thetas, tolerance, out, fmt):
    """Certificate eps_hat <= eps_honest + 3 sqrt(2 gamma_hat) for the lossy
    rotation family."""
    with _usage("--n"):
        inst = build_kerenidis(n)
    with _usage("--thetas"):
        adversaries = [gamma_family(inst, float(t), lossy=True) for t in thetas.split(",")]
    rows = verify_theorem_bound(inst, adversaries, tolerance=tolerance)
    _finish([dict(row.as_dict(), tolerance=tolerance) for row in rows], out, fmt)


@main.command()
@click.argument("which", type=click.Choice(["all"]))
@click.option("--sizes", default="1,2,4")
@_with_common
def suite(which, sizes, out, fmt):
    """The full qualitative battery at desk scale."""
    with _usage("--sizes"):
        ns = [int(s) for s in sizes.split(",")]
        for n in ns:
            build_kerenidis(n)  # refuse a bad size before the battery runs
    rows: list[dict] = []

    def row(**kw):
        kw.setdefault("tolerance", TOL)
        rows.append(kw)

    for n in ns:
        # correctness, exhaustive
        for d in range(1 << n):
            db = database_bits(d, n)
            inst = build_kerenidis(n, database=db)
            tr = inst.run(input_state=inst.client_uniform_state(), keep_states=False)
            for i in range(1, n + 1):
                bit, prob = inst.decode(tr, i)
                row(check="correctness", n=n, db="".join(map(str, db)), i=i,
                    probability=prob, ok=bit == db[i - 1] and prob >= 1 - TOL)
        # communication closed forms
        levels = n.bit_length() - 1
        for cleanup in (False, True):
            inst = build_kerenidis(n, cleanup=cleanup, database=(0,) * n)
            bill = communication(inst.spec)
            want_total = (4 * levels + 1) * (2 if cleanup else 1)
            want_rounds = (2 * levels + 1) * (2 if cleanup else 1)
            row(check="communication", n=n, cleanup=cleanup, total=bill.total,
                rounds=bill.rounds,
                ok=bill.total == want_total and bill.rounds == want_rounds)
        # anchored privacy against the honest server (classical fast path,
        # one instance per database value)
        if n >= 2:
            worst = 0.0
            for d in range(1 << n):
                worst = max(worst,
                            privacy_lower_bound(build_kerenidis(n, database=d)).eps_lower)
            row(check="anchored-privacy-honest", n=n, eps_lower=worst, ok=worst <= TOL)

    if 2 in ns:
        inst = build_kerenidis(2)
        rep = privacy_lower_bound(inst, purification_attack(inst))
        adv_dist = max(r.distance for r in rep.rows)
        row(check="purification-attack", n=2, advantage=adv_dist,
            threshold=0.05, ok=adv_dist > 0.05)

        for t in verify_theorem_bound(inst, [gamma_family(inst, th, lossy=True)
                                             for th in (0.1, 0.2, 0.4)],
                                      tolerance=1e-6):
            row(check="theorem32", tolerance=1e-6, **t.as_dict())

        cx = build_counterexample(2)
        honest_eps = privacy_lower_bound(cx).eps_lower
        pur = purified_honest(cx)
        spec_gamma = measure_speciousness(cx, pur).gamma_hat
        broken_eps = privacy_lower_bound(cx, pur).eps_lower
        row(check="counterexample-honest", eps_lower=honest_eps, ok=honest_eps <= TOL)
        row(check="counterexample-specious", eps_lower=broken_eps,
            gamma_hat=spec_gamma, threshold=0.1,
            ok=broken_eps > 0.1 and spec_gamma <= TOL)

        for proto, mode, db in (("send-db", "classical-per-a", (1, 0)),
                                ("send-index", "classical-per-a", (1, 0)),
                                ("kerenidis", "coherent-reference", None)):
            inst2 = _build(proto, 2)
            trace = extraction_attack(inst2, mode, database=db)
            check = chain_rule_check(inst2, trace)
            row(check="chain-rule", protocol=proto, mode=mode,
                success=trace.overall, ceiling=check.ceiling, ok=check.consistent)

    # formula evaluators
    row(check="nayak", n=16, value=nayak_bound(0, 0, 16),
        ok=abs(nayak_bound(0, 0, 16) - 16.0) < 1e-12)
    v = reconstruction_bound(10, 1e-6, 1e-10)
    row(check="reconstruction-bound", n=10, value=v, ok=v > 0.5)
    eps_grid = np.linspace(0.0, 0.5, 101)
    dev = max(abs(epsilon_prime(e) - math.sqrt(2 * e * (2 - 2 * e))) for e in eps_grid)
    row(check="epsilon-prime-identity", deviation=dev, tolerance=1e-12, ok=dev <= 1e-12)

    _finish(rows, out, fmt)


if __name__ == "__main__":
    main()
