"""Command-line interface.

Three subcommands over the scan layer:

    slabpdc rate   --config exp.cfg [--method numeric] [--tol 1e-6]
    slabpdc scan   --config exp.cfg [--format json] [--out rows.json]
    slabpdc preset fig5 [--format csv] [--out fig5.csv]

``rate`` evaluates one biphoton amplitude and prints the coincidence rate
plus the four matrix entries: an axis-less one-point result, written by
the same :func:`slabpdc.scan.emit` as the sweeps (text is one
``name = value`` line per column; JSON inlines the row after
``metadata``). ``scan`` runs the sweep defined by the config's scan keys.
``preset`` runs a bundled figure-reproduction sweep (fig3, fig4, fig5,
fig6); ``--dump-config`` prints its config text instead of running it, as
a starting point for edits.

Exit codes: 0 on success, 1 on any validation or usage error, 2 when the
numeric route's contours are refused or miss tol (ConvergenceError).
"""

from __future__ import annotations

import argparse
import sys

from .materials import ConvergenceError
from .scan import (PRESET_NAMES, ConfigError, ScanError, emit, load_config,
                   point_result, preset, preset_text, run_scan,
                   scan_request_from_config, __version__)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p, formats):
    p.add_argument("--method", choices=("farfield", "numeric"),
                   default="farfield",
                   help="amplitude evaluation route (default farfield)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative tolerance for the numeric route")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help=f"output format (default {formats[0]})")
    p.add_argument("--out", metavar="PATH",
                   help="write output to PATH instead of stdout")


def build_parser():
    parser = _Parser(prog="slabpdc",
                     description="Biphoton amplitudes and coincidence "
                                 "rates for an absorbing planar crystal.")
    parser.add_argument("--version", action="version",
                        version=f"slabpdc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_rate = sub.add_parser("rate", help="one amplitude and its rate")
    p_rate.add_argument("--config", required=True, metavar="PATH",
                        help="experiment config file")
    _add_common(p_rate, ("text", "csv", "json"))

    p_scan = sub.add_parser("scan", help="run the sweep in the config")
    p_scan.add_argument("--config", required=True, metavar="PATH",
                        help="config file with scan keys")
    _add_common(p_scan, ("csv", "json"))

    p_preset = sub.add_parser("preset", help="bundled figure sweeps")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--dump-config", action="store_true",
                          help="print the preset's config text and exit")
    _add_common(p_preset, ("csv", "json"))
    return parser


def _write(data, out):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _read_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc


def _cmd_rate(args):
    cfg = load_config(_read_config(args.config))
    return emit(point_result(cfg, args.method, args.tol), format=args.format)


def _cmd_sweep(args):
    if args.command == "scan":
        req = scan_request_from_config(_read_config(args.config),
                                       method=args.method, tol=args.tol)
    elif args.dump_config:
        return preset_text(args.name).encode()
    else:
        req = preset(args.name, method=args.method, tol=args.tol)
    return emit(run_scan(req), format=args.format)


_COMMANDS = {"rate": _cmd_rate, "scan": _cmd_sweep, "preset": _cmd_sweep}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        data = _COMMANDS[args.command](args)
    except (ConvergenceError, ScanError, ValueError) as exc:
        cause = exc.__cause__ if isinstance(exc, ScanError) else exc
        if isinstance(cause, ConvergenceError):
            print(f"slabpdc: convergence failure: {exc}", file=sys.stderr)
            return 2
        print(f"slabpdc: error: {exc}", file=sys.stderr)
        return 1
    try:
        _write(data, args.out)
    except OSError as exc:
        print(f"slabpdc: error: cannot write '{args.out or '<stdout>'}': "
              f"{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
