"""Command-line surface: seeded, reproducible experiments with JSON/CSV output.

Exit codes: 0 success, 2 parameter error, 3 attack/unlock budget exhausted.
Reports rerun with identical flags and seed are byte-identical; wall-clock
timings go to stderr, never into report files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import secrets as _entropy
import sys

from . import analysis
from .attack import brute_force_attack, correlate_vaults, count_matching_polynomials, report_to_dict
from .coding import Secret, capacity_bits
from .presets import PRESETS, get_preset, reference_lines, vault_params
from .seeds import substream
from .simulate import (
    RecaptureModel,
    gen_template,
    recapture,
    template_from_json,
    template_to_json,
)
from .unlock import result_to_dict, unlock
from .vault import (
    VaultParams,
    lock,
    truth_to_json,
    vault_from_json,
    vault_to_json,
)

def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_seed(args) -> int:
    if args.seed is None:
        seed = _entropy.randbits(32)
        _log(f"seed: {seed} (generated; pass --seed {seed} to replay)")
        return seed
    return args.seed


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# lock


def _resolve_secret(args, params: VaultParams, seed: int) -> Secret:
    if args.secret_hex and args.secret_file:
        raise ValueError("give at most one of --secret-hex and --secret-file")
    text = args.secret_hex
    if args.secret_file:
        text = _read(args.secret_file).strip()
    if text:
        return Secret.from_hex(text, args.bits)
    if args.preset:
        bits = get_preset(args.preset).secret_bits
    else:
        bits = min(128, capacity_bits(params.k, params.crc))
    if args.bits is not None:
        bits = args.bits
    secret = Secret.random(bits, substream(seed, "secret"))
    _log(f"secret: generated {bits} random bits = {secret.hex}")
    return secret


def cmd_lock(args) -> int:
    seed = _resolve_seed(args)
    if not args.preset and (args.k is None or args.t is None or args.r is None):
        raise ValueError("without --preset, --k, --t and --r are required")
    params = vault_params(
        get_preset(args.preset) if args.preset else None,
        q=args.q, k=args.k, t=args.t, r=args.r, d=args.d, quiz_n=args.quiz_n,
        width=args.width, height=args.height, grid=args.grid,
        crc=None if args.crc is None else args.crc == "on",
    )
    template = template_from_json(_read(args.template))
    secret = _resolve_secret(args, params, seed)
    vault, truth = lock(template, secret, params, seed)
    _write(args.vault, vault_to_json(vault))
    if args.truth:
        _write(args.truth, truth_to_json(truth))
    _log(f"locked: {vault.r} points, grid={vault.grid}, quiz_n={vault.quiz_n}")
    return 0


# ---------------------------------------------------------------------------
# unlock / attack


def cmd_unlock(args) -> int:
    seed = _resolve_seed(args)
    vault = vault_from_json(_read(args.vault))
    template = template_from_json(_read(args.template))
    result = unlock(
        vault,
        template,
        mode=args.mode,
        D=args.D,
        bits=args.bits,
        crc_encoded=True if args.crc_encoded else None,
        tau=args.tau,
        budget=args.budget,
        seed=seed,
        workers=args.workers,
    )
    _write(args.output, json.dumps(result_to_dict(result)) + "\n")
    _log(f"elapsed_ms: {int(result.elapsed_s * 1000)}")
    return 0 if result.success else 3


def cmd_attack(args) -> int:
    seed = _resolve_seed(args)
    vault = vault_from_json(_read(args.vault))
    D = args.D
    t_assumed = args.assume_t
    if args.preset:
        preset = get_preset(args.preset)
        if D is None:
            D = preset.D
        if t_assumed is None:
            t_assumed = preset.t
    report = brute_force_attack(
        vault,
        mode=args.mode,
        D=D,
        bits=args.bits,
        budget=args.budget,
        t_assumed=t_assumed,
        workers=args.workers,
        seed=seed,
        exhaustive=args.exhaustive,
    )
    _write(args.output, json.dumps(report_to_dict(report)) + "\n")
    _log(f"elapsed_ms: {int(report.elapsed_s * 1000)}")
    return 0 if report.success else 3


# ---------------------------------------------------------------------------
# estimate / sweep


def _annotate_estimate(est: analysis.ComplexityEstimate, preset_name: str | None) -> None:
    _log(
        f"secret capacity at k={est.k}: {capacity_bits(est.k, False)} bits plain, "
        f"{capacity_bits(est.k, True)} bits with crc"
    )
    if preset_name:
        for line in reference_lines(get_preset(preset_name), est):
            _log(line)


def cmd_estimate(args) -> int:
    if args.preset:
        preset = get_preset(args.preset)
        row = dict(r=preset.r, t=preset.t, k=preset.k, D=preset.D, q=preset.q,
                   quiz_n=preset.quiz_n)
    else:
        if args.r is None or args.t is None or args.k is None:
            raise ValueError("without --preset, --r, --t and --k are required")
        row = dict(r=args.r, t=args.t, k=args.k)
        if args.q is not None:
            row["q"] = args.q
    for name in ("D", "quiz_n", "mu"):
        flag = getattr(args, name)
        if flag is not None:
            row[name] = flag
    est = analysis.estimate(**row)
    _write(args.output, analysis.to_csv([est]))
    _annotate_estimate(est, args.preset)
    return 0


def cmd_sweep(args) -> int:
    d_values = args.D if args.D else [None]
    rows = []
    skipped = 0
    grid = itertools.product(args.q, args.r, args.t, args.k, d_values, args.quiz_n)
    for q, r, t, k, D, quiz_n in grid:
        if not (k <= t <= r) or (D is not None and D > t):
            skipped += 1
            continue
        row = dict(r=r, t=t, k=k, q=q, quiz_n=quiz_n, mu=args.mu)
        if D is not None:
            row["D"] = D
        rows.append(row)
    if skipped:
        _log(f"skipped {skipped} grid points violating k <= t <= r (and D <= t)")
    seed = _resolve_seed(args) if args.empirical_runs > 0 else (args.seed or 0)
    estimates = analysis.sweep(
        rows, empirical_runs=args.empirical_runs, seed=seed, workers=args.workers
    )
    _write(args.output, analysis.to_csv(estimates))
    return 0


# ---------------------------------------------------------------------------
# simulate / spurious / correlate


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if args.recapture:
        template = template_from_json(_read(args.recapture))
        model = RecaptureModel(
            jitter_sigma=args.jitter_sigma,
            miss_rate=args.miss_rate,
            spurious_rate=args.spurious_rate,
            angle_sigma=args.angle_sigma,
        )
        out = recapture(template, model, seed)
    else:
        out = gen_template(
            count=args.count,
            width=args.width,
            height=args.height,
            d_min=args.d_min,
            theta_steps=args.theta_steps,
            seed=seed,
        )
    _write(args.output, template_to_json(out))
    _log(f"template: {len(out)} minutiae in {out.width}x{out.height}")
    return 0


def cmd_spurious(args) -> int:
    vault = vault_from_json(_read(args.vault))
    k = args.k if args.k is not None else vault.k
    count = count_matching_polynomials(vault, args.t_hits, k=k)
    _write(
        args.output,
        json.dumps({"q": vault.q, "k": k, "t_hits": args.t_hits, "count": count}) + "\n",
    )
    return 0


def cmd_correlate(args) -> int:
    vaults = [vault_from_json(_read(path)) for path in args.vaults]
    points = correlate_vaults(vaults, args.eps)
    payload = {
        "eps": args.eps,
        "count": len(points),
        "points": [{"x": x, "y": y} for x, y in points],
    }
    _write(args.output, json.dumps(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # once per process: costs more than a small lock or unlock
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyvault",
        description="Fuzzy fingerprint vault laboratory: lock, unlock, attack, estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed; generated and printed when omitted")

    def add_workers(p):
        p.add_argument("--workers", type=int, default=1, help="worker processes")

    p = sub.add_parser("lock", help="build a vault from a template and a secret")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--template", required=True, help="template JSON file")
    p.add_argument("--secret-hex")
    p.add_argument("--secret-file", help="file containing the secret as hex text")
    p.add_argument("--bits", type=int, help="secret bit length (default: 8*len(bytes))")
    p.add_argument("-o", "--vault", required=True, help="output vault JSON file")
    p.add_argument("--truth", help="optional ground-truth sidecar output")
    for name in ("q", "k", "t", "r", "quiz-n", "width", "height"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int)
    p.add_argument("--d", type=float)
    p.add_argument("--crc", choices=("on", "off"))
    p.add_argument("--grid", choices=("random", "hex"))
    add_seed(p)
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("unlock", help="recover the secret with a fresh template")
    p.add_argument("--vault", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--mode", choices=("threshold", "crc"), default="threshold")
    p.add_argument("--D", type=int,
                   help="vault hits a candidate needs, in either mode (default k+3)")
    p.add_argument("--bits", type=int, help="secret bit length for decoding")
    p.add_argument("--crc-encoded", action="store_true",
                   help="vault polynomial carries a CRC coefficient")
    p.add_argument("--tau", type=float, help="match tolerance in pixels (default d/2)")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("-o", "--output", help="report JSON (default stdout)")
    add_seed(p)
    add_workers(p)
    p.set_defaults(func=cmd_unlock)

    p = sub.add_parser("attack", help="brute-force an intercepted vault")
    p.add_argument("--vault", required=True)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="supplies the threshold D and the assumed genuine count")
    p.add_argument("--mode", choices=("threshold", "crc"), default="threshold")
    p.add_argument("--D", type=int, help="vault hits a candidate needs, in either mode "
                   "(default: the preset's D, else k+3)")
    p.add_argument("--bits", type=int, help="secret bit length (required for crc mode)")
    p.add_argument("--budget", type=int)
    p.add_argument("--assume-t", type=int,
                   help="assumed genuine count used to size the default budget")
    p.add_argument("--exhaustive", action="store_true",
                   help="iterate k-subsets lexicographically (tiny vaults only)")
    p.add_argument("-o", "--output", help="report JSON (default stdout)")
    add_seed(p)
    add_workers(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("estimate", help="one analytic complexity row (CSV)")
    p.add_argument("--preset", choices=sorted(PRESETS))
    for name in ("r", "t", "k", "D", "q", "quiz-n"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("-o", "--output", help="CSV output (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="complexity table over a parameter grid (CSV)")
    p.add_argument("--r", type=_int_list, required=True, help="comma-separated values")
    p.add_argument("--t", type=_int_list, required=True)
    p.add_argument("--k", type=_int_list, required=True)
    p.add_argument("--D", type=_int_list, default=[])
    p.add_argument("--q", type=_int_list, default=[65537])
    p.add_argument("--quiz-n", dest="quiz_n", type=_int_list, default=[0])
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--empirical-runs", type=int, default=0,
                   help="Monte Carlo attack runs per desk-scale row")
    p.add_argument("-o", "--output", help="CSV output (default stdout)")
    add_seed(p)
    add_workers(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="generate a synthetic template or recapture one")
    p.add_argument("--count", type=int, default=38)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--d-min", dest="d_min", type=float, default=11.0)
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=0)
    p.add_argument("--recapture", help="re-scan this template file with noise instead")
    p.add_argument("--jitter-sigma", type=float, default=2.0)
    p.add_argument("--miss-rate", type=float, default=0.1)
    p.add_argument("--spurious-rate", type=float, default=3.0)
    p.add_argument("--angle-sigma", type=float, default=math.pi / 32)
    p.add_argument("-o", "--output", help="template JSON (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spurious", help="exhaustively count polynomials hitting the vault")
    p.add_argument("--vault", required=True)
    p.add_argument("--t-hits", dest="t_hits", type=int, required=True)
    p.add_argument("--k", type=int, help="polynomial length (default: vault k)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spurious)

    p = sub.add_parser("correlate", help="intersect coordinates across vaults")
    p.add_argument("--vaults", nargs="+", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
