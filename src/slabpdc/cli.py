"""Command-line interface.

Three subcommands over the scan layer:

    slabpdc rate   --config exp.cfg [--method numeric] [--tol 1e-6]
    slabpdc scan   --config exp.cfg [--format json] [--out rows.json]
    slabpdc preset fig5 [--format csv] [--out fig5.csv]

``rate`` evaluates one biphoton amplitude and prints the coincidence rate
plus the four matrix entries. ``scan`` runs the sweep defined by the
config's scan keys. ``preset`` runs a bundled figure-reproduction sweep
(fig3, fig4, fig5, fig6); ``--dump-config`` prints its config text instead
of running it, as a starting point for edits.

Exit codes: 0 on success, 1 on any validation or usage error, 2 when the
numeric quadrature fails to converge.
"""

from __future__ import annotations

import argparse
import sys

from .amplitude import amplitude_farfield, amplitude_numeric, rate
from .quadrature import ConvergenceError
from .scan import (_SCHEMA_VERSION, PRESET_NAMES, ConfigError, ScanError,
                   emit, load_config, preset, preset_text, run_scan,
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
    if args.method == "farfield":
        amp = amplitude_farfield(cfg)
    else:
        amp = amplitude_numeric(cfg, tol=args.tol)
    r = rate(amp)
    entries = [("amplitude_xx", complex(amp.matrix[0, 0])),
               ("amplitude_xy", complex(amp.matrix[0, 1])),
               ("amplitude_yx", complex(amp.matrix[1, 0])),
               ("amplitude_yy", complex(amp.matrix[1, 1]))]
    if args.format == "text":
        lines = [f"rate = {r!r}"]
        lines += [f"{name} = {v!r}" for name, v in entries]
        data = ("\n".join(lines) + "\n").encode()
    elif args.format == "csv":
        header = ["rate"]
        row = [repr(r)]
        for name, v in entries:
            header += [name + "_re", name + "_im"]
            row += [repr(v.real), repr(v.imag)]
        data = (",".join(header) + "\n" + ",".join(row) + "\n").encode()
    else:
        import json
        doc = {"schema_version": _SCHEMA_VERSION,
               "metadata": {"method": args.method, "tol": args.tol},
               "rate": r}
        for name, v in entries:
            doc[name + "_re"] = v.real
            doc[name + "_im"] = v.imag
        data = (json.dumps(doc, indent=2) + "\n").encode()
    _write(data, args.out)
    return 0


def _cmd_scan(args):
    req = scan_request_from_config(_read_config(args.config),
                                   method=args.method, tol=args.tol)
    result = run_scan(req)
    _write(emit(result, format=args.format), args.out)
    return 0


def _cmd_preset(args):
    if args.dump_config:
        _write(preset_text(args.name).encode(), args.out)
        return 0
    req = preset(args.name, method=args.method, tol=args.tol)
    result = run_scan(req)
    _write(emit(result, format=args.format), args.out)
    return 0


_COMMANDS = {"rate": _cmd_rate, "scan": _cmd_scan, "preset": _cmd_preset}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"slabpdc: convergence failure: {exc}", file=sys.stderr)
        return 2
    except ScanError as exc:
        cause = exc.__cause__
        if isinstance(cause, ConvergenceError):
            print(f"slabpdc: convergence failure: {exc}", file=sys.stderr)
            return 2
        print(f"slabpdc: error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"slabpdc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
