"""Command-line interface.

Subcommands: ``simulate`` (write fuzzy measured data), ``update`` (run the
fuzzy updating pipeline and write a result bundle), ``bayes`` (run the
Metropolis-Hastings baseline), ``report`` (re-render tables and curves from
a bundle). Exit codes: 0 success, 1 configuration (including command-line
usage errors), 2 numerical failure, 3 I/O. ``update --verbose`` logs one
line per alpha level to stderr through the ``ffemu`` logger.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, bayes, report, scenarios
from .errors import ConfigurationError, FfemuError
from .model import read_json
from .objective import save_measured
from .pipeline import load_run_config, run_ffemu

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _resolve_truth(ref: str) -> dict:
    if ref == "bundled-fuzzy":
        return scenarios.bundled_truth_spec("fuzzy")
    if ref == "bundled-crisp":
        return scenarios.bundled_truth_spec("crisp")
    return read_json(ref)


def cmd_simulate(args) -> int:
    model = scenarios.resolve_model(args.model)
    truth = _resolve_truth(args.truth)
    from .fuzzy import default_levels

    measured = scenarios.simulate_from_truth_spec(model, truth, default_levels(args.levels))
    save_measured(measured, args.out)
    freqs = [f"{np.sqrt(t.b) / (2 * np.pi):.6g}" for t in measured.eigenvalue_tfns]
    kind = "crisp" if measured.is_crisp else "fuzzy"
    print(f"wrote {measured.n_modes} {kind} modes to {args.out}")
    print("center frequencies (Hz): " + ", ".join(freqs))
    return EXIT_OK


def cmd_update(args) -> int:
    config = load_run_config(args.config, seed_override=args.seed)
    logger = logging.getLogger("ffemu")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        result = run_ffemu(config.run)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    out = Path(args.out)
    report.write_bundle(out, config.run, result)
    summary = report.load_summary(out)
    print(report.render_tables(summary, report.load_bayes_summary(out)))
    print(f"\nresult bundle written to {out}")
    return EXIT_OK


def cmd_bayes(args) -> int:
    config = load_run_config(args.config, seed_override=args.seed)
    if config.bayes is None:
        raise ConfigurationError(f"{args.config}: no 'bayes' section")
    measured_eigs = config.run.measured.center_eigenvalues()
    chain = bayes.mh_sample(config.bayes, config.run.model, measured_eigs)
    summary = bayes.summarize(chain)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bayes.write_chain_csv(chain, out / "chain.csv")
    posterior_eigs = config.run.model.modal(summary.mean).eigenvalues
    payload = {
        "mean": [float(v) for v in summary.mean],
        "sd": [float(v) for v in summary.sd],
        "cov_percent": [float(v) for v in summary.cov_percent],
        "acceptance_rate": float(chain.acceptance_rate),
        "n_samples": int(chain.samples.shape[0]),
        "posterior_eigenvalues": [float(v) for v in posterior_eigs],
    }
    with open(out / report.BAYES_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    labels = report.parameter_labels(config.run.model)
    print(f"{'param':>8} {'mean':>12} {'sd':>12} {'c.o.v. %':>9}")
    for i, label in enumerate(labels):
        print(
            f"{label:>8} {summary.mean[i]:12.6g} {summary.sd[i]:12.6g} "
            f"{summary.cov_percent[i]:9.2f}"
        )
    print(f"acceptance rate: {chain.acceptance_rate:.3f}")
    print(f"chain and summary written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    summary = report.load_summary(args.bundle)
    bayes_summary = report.load_bayes_summary(args.bundle)
    if not summary.get("parameters"):
        print("bundle contains no parameter data", file=sys.stderr)
        return EXIT_NUMERICAL
    report.regenerate_curves(args.bundle, summary)
    print(report.render_tables(summary, bayes_summary))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_CONFIG``.

    argparse exits with 2 by default, which this CLI reserves for
    numerical failures.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffemu",
        description="Fuzzy finite element model updating of mass-spring structures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate fuzzy measured modal data")
    p.add_argument("--model", default="bundled", help="model JSON path or 'bundled'")
    p.add_argument(
        "--truth",
        default="bundled-fuzzy",
        help="truth spec JSON path, 'bundled-fuzzy', or 'bundled-crisp'",
    )
    p.add_argument("--levels", type=int, default=10, help="number of alpha levels")
    p.add_argument("--out", required=True, help="output measured-data JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("update", help="run fuzzy model updating")
    p.add_argument("--config", required=True, help="run-configuration JSON path")
    p.add_argument("--out", default="ffemu_results", help="result bundle directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--verbose", action="store_true", help="per-level progress on stderr")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("bayes", help="run the Metropolis-Hastings baseline")
    p.add_argument("--config", required=True, help="run-configuration JSON path")
    p.add_argument("--out", default="ffemu_results", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("report", help="render tables and curves from a result bundle")
    p.add_argument("--bundle", required=True, help="result bundle directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FfemuError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
