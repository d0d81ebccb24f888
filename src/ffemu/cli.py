"""Command-line interface.

Subcommands: ``simulate`` (write fuzzy measured data, the vertex images of
a truth spec's parameter triangles), ``update`` (run the fuzzy updating
pipeline and print what ``report`` prints for its bundle), ``bayes`` (run
the Metropolis-Hastings baseline), ``report`` (re-render tables and curves
from a bundle). ``update`` and ``bayes`` hand their results to
``ffemu.report``, which writes every bundle file and renders what they
print, so neither builds a payload or a table. Exit codes: 0 success, 1
configuration (including command-line usage errors), 2 numerical failure,
3 I/O. ``update --verbose`` logs one line per alpha level to stderr
through the ``ffemu`` logger. The Metropolis-Hastings sampler
(``ffemu.bayes``) is imported by ``bayes`` only, and the run pipeline
(``ffemu.pipeline``, with ``ffemu.optim``) and the bundled scenarios
(``ffemu.scenarios``) by the commands that call them, so ``report`` loads
none of the four.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import __version__, report
from .errors import ConfigurationError, FfemuError, check, in_file
from .model import read_json, resolve_model
from .objective import eigenvalue_to_hz, save_measured

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


_BUNDLED_TRUTHS = {"bundled-fuzzy": "fuzzy", "bundled-crisp": "crisp"}


def cmd_simulate(args) -> int:
    from . import scenarios
    from .pipeline import simulate_from_truth_spec

    model = resolve_model(args.model)
    kind = _BUNDLED_TRUTHS.get(args.truth)
    with in_file(args.truth):
        truth = read_json(args.truth) if kind is None else scenarios.bundled_truth_spec(kind)
        measured = simulate_from_truth_spec(model, truth)
    save_measured(measured, args.out)
    freqs = [f"{f:.6g}" for f in eigenvalue_to_hz(measured.eigenvalue_tfns[:, 1])]
    kind = "crisp" if measured.is_crisp else "fuzzy"
    print(f"wrote {measured.n_modes} {kind} modes to {args.out}")
    print("center frequencies (Hz): " + ", ".join(freqs))
    return EXIT_OK


def _load_run(args):
    """The run config at ``args.config``, its seed replaced by ``--seed`` when
    one is given (``dataclasses.replace`` re-runs the run's checks)."""
    from .pipeline import load_run_config

    run = load_run_config(args.config)
    return run if args.seed is None else dataclasses.replace(run, seed=args.seed)


def cmd_update(args) -> int:
    from .pipeline import run_ffemu

    run = _load_run(args)
    logger = logging.getLogger("ffemu")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        result = run_ffemu(run)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    out = Path(args.out)
    report.write_bundle(out, run, result)
    print(report.render_bundle(out))
    print(f"\nresult bundle written to {out}")
    return EXIT_OK


def cmd_bayes(args) -> int:
    from . import bayes  # the sampler is loaded by this command only

    run = _load_run(args)
    chain = bayes.mh_sample(run)
    out = report.write_chain_bundle(args.out, run, chain)
    print(report.render_chain(out, run))
    print(f"chain and summary written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    print(report.render_bundle(args.bundle, curves=True))
    return EXIT_OK


def _seed(text: str) -> int:
    """A ``--seed`` value, under the run config's rule for ``seed``."""
    try:
        seed = int(text)
    except ValueError:
        seed = text  # no integer: the rule names the text as given
    try:
        check(seed, "seed", "integer", at_least=0)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return seed


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
    p.add_argument("--out", required=True, help="output measured-data JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("update", help="run fuzzy model updating")
    p.add_argument("--config", required=True, help="run-configuration JSON path")
    p.add_argument("--out", default="ffemu_results", help="result bundle directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument("--verbose", action="store_true", help="per-level progress on stderr")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("bayes", help="run the Metropolis-Hastings baseline")
    p.add_argument("--config", required=True, help="run-configuration JSON path")
    p.add_argument("--out", default="ffemu_results", help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
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
