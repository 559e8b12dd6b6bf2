"""Command-line entry point.

Subcommands: ``gen`` writes an instance to disk, ``run`` executes an
experiment config, ``certify`` checks a matrix property, ``adversarial``
writes an indistinguishable instance pair, ``report`` aggregates result
CSVs.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversarial import build_indistinguishable_pair, save_pair
from .core import (
    SCALARS,
    Dims,
    Ensemble,
    build_instance,
    load_matrix,
    rng_from,
    sample_ensemble,
    save_instance,
    save_matrix_addressed,
)
from .harness import (
    ExperimentConfig,
    derive_seed,
    disjoint_subsets,
    make_noise,
    make_signal,
    read_csv,
    recompute_pass,
    run_experiment,
    summarize,
)
from .ripcert import certificate_to_json, certify_l2_rip, certify_linf_rip, certify_pi

__all__ = ["main"]

_ENSEMBLES = {"gaussian": Ensemble.GAUSSIAN_SCALED, "rademacher": Ensemble.RADEMACHER_SCALED}


def _cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dims = Dims(n=args.n, d=args.d, k=args.k)
    x = sample_ensemble(dims, _ENSEMBLES[args.ensemble], args.seed)
    truth = make_signal(dims.d, dims.k, rng_from(args.seed, 1), "constant", args.signal_magnitude)
    noise = make_noise(dims.n, {"kind": args.noise, "sigma": args.sigma}, derive_seed(args.seed, 2))
    inst = build_instance(x, truth, noise, dims.k)

    matrix_path = save_matrix_addressed(x, out)
    inst_path = out / f"instance-{args.seed}.json"
    save_instance(inst, inst_path, matrix_path)
    print(json.dumps({"matrix": str(matrix_path), "instance": str(inst_path)}))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{args.config}: not JSON: {exc}") from None
    cfg.output = args.out or cfg.output
    _, summary = run_experiment(cfg)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    needed = ["alpha"] if args.kind == "pi" else ["eps", "s"]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        args.usage_error(f"--kind {args.kind} requires {' and '.join(missing)}")
    x = load_matrix(args.matrix)
    if args.kind == "pi":
        cert = certify_pi(x, args.alpha)
    else:
        fn = certify_l2_rip if args.kind == "l2-rip" else certify_linf_rip
        cert = fn(x, args.eps, args.s, mode=args.mode, trials=args.trials, seed=args.seed)
    print(certificate_to_json(cert))
    return 0


def _cmd_adversarial(args: argparse.Namespace) -> int:
    dims = Dims(n=args.n, d=args.d, k=args.k)
    x = sample_ensemble(dims, _ENSEMBLES[args.ensemble], args.seed)
    half = max(dims.k // 2, 1)
    s, t = disjoint_subsets(dims.d, half, half, rng_from(args.seed, 1))
    pair = build_indistinguishable_pair(x, s, t, args.base_magnitude)
    p1, p2, pm = save_pair(pair, x, args.out_dir, stem=f"pair-{args.seed}")
    print(json.dumps({"member1": str(p1), "member2": str(p2), "matrix": str(pm)}))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records, source = [], {}
    for path in args.csv:
        for r in read_csv(path):
            trial = (r.experiment, r.n, r.d, r.k, r.seed)  # the seed alone does not depend on n
            if trial in source:
                where = f"{r.experiment} n={r.n} d={r.d} k={r.k} seed={r.seed}"
                raise ValueError(f"{path} repeats a trial of {source[trial]}: {where}")
            source[trial] = path
            records.append(r)
    bad = [r for r in records if r.passed != recompute_pass(r)]
    if bad:
        print(f"warning: {len(bad)} records have inconsistent pass flags", file=sys.stderr)
    by_exp: dict[str, list] = {}
    for r in records:
        by_exp.setdefault(r.experiment, []).append(r)
    print(f"{'experiment':<22} {'grid':>4} {'n':>6} {'d':>6} {'k':>4} {'trials':>6} {'pass':>6} {'rate':>7} {'med_err':>12}")
    for exp in sorted(by_exp):
        summary = summarize(by_exp[exp])
        for g in summary["grids"]:
            med = g["median_error"]
            print(
                f"{exp:<22} {g['grid_index']:>4} {g['n']:>6} {g['d']:>6} {g['k']:>4} "
                f"{g['trials']:>6} {g['passes']:>6} {g['pass_rate']:>7.3f} "
                f"{med if med is None else f'{med:.6g}':>12}"
            )
        if "masking_scaling" in summary:
            ms = summary["masking_scaling"]
            print(
                f"  scaling: k={ms['k']} n={ms['n']} medians={[f'{m:.4g}' for m in ms['median_v_linf']]} "
                f"slope(log k)={ms['slope_vs_log_k']:.3f} slope(log sqrt k)={ms['slope_vs_log_sqrt_k']:.3f}"
            )
    return 0


def scalar(parse, wanted: str):
    """An argparse type: the text as ``parse`` reads it, held to the scalar rule's ``wanted``.

    A value the rule rejects is a usage error naming the option.
    """

    def read(text: str):
        value = parse(text)
        if not SCALARS[wanted](value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value!r}")
        return value

    read.__name__ = parse.__name__  # argparse's name for it when parse fails: "invalid int value: 'x'"
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linfrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    design = argparse.ArgumentParser(add_help=False)  # the design and output options gen and adversarial share
    design.add_argument("--n", type=scalar(int, "a positive integer"), required=True)
    design.add_argument("--d", type=scalar(int, "a positive integer"), required=True)
    design.add_argument("--k", type=scalar(int, "a positive integer"), required=True)
    design.add_argument("--ensemble", choices=sorted(_ENSEMBLES), default="gaussian")
    design.add_argument("--seed", type=scalar(int, "a nonnegative integer"), default=0)
    design.add_argument("--out-dir", default=".")

    p = sub.add_parser("gen", parents=[design], help="generate and write a recovery instance")
    p.add_argument("--noise", choices=["zero", "gaussian"], default="gaussian")
    p.add_argument("--sigma", type=scalar(float, "a finite nonnegative number"), default=1.0)
    p.add_argument("--signal-magnitude", type=scalar(float, "a finite number"), default=1.0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="CSV output path (replaces the config's output)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("certify", help="certify a matrix property")
    p.add_argument("matrix")
    p.add_argument("--kind", choices=["l2-rip", "linf-rip", "pi"], required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=scalar(int, "a nonnegative integer"), default=0)
    p.set_defaults(fn=_cmd_certify, usage_error=p.error)

    p = sub.add_parser("adversarial", parents=[design], help="write an indistinguishable instance pair")
    p.add_argument("--base-magnitude", type=scalar(float, "a finite number"), default=1.0)
    p.set_defaults(fn=_cmd_adversarial)

    p = sub.add_parser("report", help="aggregate result CSVs")
    p.add_argument("csv", nargs="+")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"linfrec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
