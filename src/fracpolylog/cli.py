"""Command line front end.

Subcommands: eval (one point), monodromy (evaluate on a chosen sheet),
jump (cut discontinuity vs closed form), table (grid sweep), selfcheck
(bundled validation suite).

Exit codes are a stable contract: 0 success, 1 usage or parse failure,
2 domain error, 3 convergence failure.  Data goes to stdout, diagnostics
to stderr.  Numbers are printed with 17 significant digits so they
round-trip through float64.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
from dataclasses import dataclass, fields

from .domain import CoverPoint, format_word, parse_word, reduce_word, m_alpha_k
from .errors import ConvergenceError, DomainError, FracpolylogError, UnsupportedError
from .evaluators import (
    ToleranceConfig,
    eval_appell,
    eval_auto,
    eval_auto_many,
    eval_hankel,
    eval_jonquiere,
    eval_mittag_leffler,
    eval_negint_closed,
    eval_on_cut,
    eval_series,
    eval_zeta_series,
)
from .kernel import TWO_PI, Order
from .monodromy import eval_cover, transport
from .validation import reports_to_jsonl, run_selfcheck, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3

ENV_CONFIG = "FRACPOLYLOG_CONFIG"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for domain
    # errors here, so route usage problems through our own exception
    def error(self, message: str):
        raise UsageError(message)


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def parse_complex(text: str) -> complex:
    """Literals of the form a, bi, a+bi, a-bi; i alone means 1i.
    Whitespace is ignored, so '1 + 2i' works too."""
    s = "".join(text.split())
    if not s:
        raise UsageError("empty complex literal")
    try:
        return complex(float(s), 0.0)
    except ValueError:
        pass
    if s[-1] not in "iI":
        raise UsageError(f"cannot parse complex literal {text!r}")
    body = s[:-1]
    split = -1
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
    re_text, im_text = (body[:split], body[split:]) if split > 0 else ("", body)
    try:
        re_val = float(re_text) if re_text else 0.0
        if im_text in ("", "+"):
            im_val = 1.0
        elif im_text == "-":
            im_val = -1.0
        else:
            im_val = float(im_text)
    except ValueError:
        raise UsageError(f"cannot parse complex literal {text!r}") from None
    return complex(re_val, im_val)


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be a:b:n, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"grid spec must be a:b:n with numeric fields, got {text!r}") from None
    if count < 1:
        raise UsageError("grid point count must be >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * k for k in range(count)]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CliConfig:
    tolerances: ToleranceConfig
    output_format: str = ""  # empty: per-command default

    def format_or(self, default: str) -> str:
        return self.output_format or default


# each tolerance field with the type its default gives it (int or float)
_TOL_FIELDS = {f.name: type(f.default) for f in fields(ToleranceConfig)}


def _parse_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return pairs


def load_config(args: argparse.Namespace) -> CliConfig:
    values: dict[str, object] = {}
    output_format = ""

    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        for key, text in _parse_config_file(path).items():
            if key == "output_format":
                if text not in ("json", "csv", "plain"):
                    raise UsageError(f"output_format must be json, csv or plain, got {text!r}")
                output_format = text
            elif key in _TOL_FIELDS:
                try:
                    values[key] = _TOL_FIELDS[key](text)
                except ValueError:
                    raise UsageError(f"bad value for {key}: {text!r}") from None
            else:
                raise UsageError(f"unknown config key {key!r}")

    for key in _TOL_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "format", None):
        output_format = args.format

    try:
        tolerances = ToleranceConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return CliConfig(tolerances=tolerances, output_format=output_format)


# ---------------------------------------------------------------------------
# rendering


def _render_json(obj) -> str:
    # hand-rolled so floats keep 17 significant digits
    if isinstance(obj, dict):
        inner = ", ".join(f'"{k}": {_render_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    text = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _complex_obj(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _render_plain(obj, prefix: str = "") -> list[str]:
    lines: list[str] = []
    for key, value in obj.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            lines.append(f"{label} = {fmt17(value['re'])} + {fmt17(value['im'])}i")
        elif isinstance(value, dict):
            lines.extend(_render_plain(value, prefix=label + "."))
        elif isinstance(value, float):
            lines.append(f"{label} = {fmt17(value)}")
        else:
            lines.append(f"{label} = {value}")
    return lines


def _emit_record(record: dict, cfg: CliConfig) -> None:
    if cfg.format_or("json") == "plain":
        print("\n".join(_render_plain(record)))
    else:
        print(_render_json(record))


# ---------------------------------------------------------------------------
# subcommands


_METHOD_MAP = {
    "auto": eval_auto,
    "series": eval_series,
    "appell": eval_appell,
    "hankel": eval_hankel,
    "jonquiere": eval_jonquiere,
    "ml": eval_mittag_leffler,
    "mittagleffler": eval_mittag_leffler,
    "zeta": eval_zeta_series,
    "zetaseries": eval_zeta_series,
    "negint": eval_negint_closed,
}


def cmd_eval(args: argparse.Namespace, cfg: CliConfig) -> int:
    a = Order.of(parse_complex(args.alpha))
    z = parse_complex(args.z)
    tol = cfg.tolerances

    if args.side:
        if z.imag != 0.0:
            raise UsageError("--side applies to real z on the cut (1, inf)")
        result = eval_on_cut(a, z.real, args.side, tol)
    else:
        result = _METHOD_MAP[args.method](a, z, tol)

    _emit_record(
        {
            "alpha": _complex_obj(a.alpha),
            "z": _complex_obj(z),
            "value": _complex_obj(result.value),
            "err_estimate": result.err_estimate,
            "method": result.method,
        },
        cfg,
    )
    return EXIT_OK


def cmd_monodromy(args: argparse.Namespace, cfg: CliConfig) -> int:
    a = Order.of(parse_complex(args.alpha))
    z = parse_complex(args.z)
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    vec = transport(word, a)
    result = eval_cover(a, CoverPoint(z=z, word=word), cfg.tolerances)
    _emit_record(
        {
            "alpha": _complex_obj(a.alpha),
            "z": _complex_obj(z),
            "word": format_word(reduce_word(word)),
            "vector": {
                "li": _complex_obj(vec.li_coeff),
                "m": {str(k): _complex_obj(c) for k, c in sorted(vec.m_coeffs.items())},
            },
            "value": _complex_obj(result.value),
            "err_estimate": result.err_estimate,
            "method": result.method,
        },
        cfg,
    )
    return EXIT_OK


def cmd_jump(args: argparse.Namespace, cfg: CliConfig) -> int:
    a = Order.of(parse_complex(args.alpha))
    x = float(args.x)
    tol = cfg.tolerances
    above = eval_on_cut(a, x, "above", tol)
    below = eval_on_cut(a, x, "below", tol)
    measured = above.value - below.value
    closed = (1.0 - cmath.exp(TWO_PI * 1j * a.alpha)) * m_alpha_k(a, complex(x), 0)
    _emit_record(
        {
            "alpha": _complex_obj(a.alpha),
            "x": x,
            "jump": _complex_obj(measured),
            "closed_form": _complex_obj(closed),
            "difference": abs(measured - closed),
            "err_estimate": above.err_estimate + below.err_estimate,
        },
        cfg,
    )
    return EXIT_OK


_SKIP_TOKENS = {
    "branch point": "AtBranchPoint",
    "branch cut": "OnBranchCut",
}


def _skip_reason(exc: Exception) -> str:
    text = str(exc)
    for needle, token in _SKIP_TOKENS.items():
        if needle in text:
            return token
    if isinstance(exc, UnsupportedError):
        return "Unsupported"
    if isinstance(exc, ConvergenceError):
        return "NoConvergence"
    return "Skipped"


def cmd_table(args: argparse.Namespace, cfg: CliConfig) -> int:
    a = Order.of(parse_complex(args.alpha))
    re_grid = parse_grid(args.z_re)
    im_grid = parse_grid(args.z_im)
    tol = cfg.tolerances

    rows: list[tuple] = []
    for im in im_grid:
        # one grid row per call: its Jonquiere points share a kernel call
        results = eval_auto_many(a, [complex(re, im) for re in re_grid], tol)
        for re, result in zip(re_grid, results):
            if isinstance(result, FracpolylogError):
                rows.append((re, im, None, None, _skip_reason(result)))
            else:
                rows.append((re, im, result.value, result.err_estimate, result.method))

    if cfg.format_or("csv") == "json":
        for re, im, value, err, method in rows:
            record = {"z": {"re": re, "im": im}, "method": method}
            if value is not None:
                record["value"] = _complex_obj(value)
                record["err"] = err
            else:
                record["skipped"] = True
            print(_render_json(record))
    else:
        print("z_re,z_im,val_re,val_im,err,method")
        for re, im, value, err, method in rows:
            if value is None:
                print(f"{fmt17(re)},{fmt17(im)},,,,{method}")
            else:
                print(
                    f"{fmt17(re)},{fmt17(im)},{fmt17(value.real)},{fmt17(value.imag)},"
                    f"{fmt17(err)},{method}"
                )
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace, cfg: CliConfig) -> int:
    reports = run_selfcheck(cfg.tolerances)
    if args.filter:
        reports = [r for r in reports if args.filter in r.name]
        if not reports:
            # an empty match would otherwise report vacuous success
            raise UsageError(f"no check name contains {args.filter!r}")
    if args.json:
        text = reports_to_jsonl(reports)
        if text:
            print(text)
    else:
        print(summarize(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CONVERGENCE


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="key=value config file (or set $" + ENV_CONFIG + ")")
    shared.add_argument("--format", choices=("json", "csv", "plain"), help="output format")
    for name, kind in _TOL_FIELDS.items():
        shared.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)

    parser = _Parser(prog="fracpolylog", description="Fractional polylogarithm toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate Li_alpha(z)")
    p_eval.add_argument("--alpha", required=True)
    p_eval.add_argument("--z", required=True)
    p_eval.add_argument("--method", default="auto", choices=sorted(_METHOD_MAP))
    p_eval.add_argument("--side", choices=("above", "below"))
    p_eval.set_defaults(run=cmd_eval)

    p_mono = sub.add_parser("monodromy", parents=[shared], help="evaluate on another sheet")
    p_mono.add_argument("--alpha", required=True)
    p_mono.add_argument("--z", required=True)
    p_mono.add_argument("--word", required=True, help='path word, e.g. "c1 c0^-2"')
    p_mono.set_defaults(run=cmd_monodromy)

    p_jump = sub.add_parser("jump", parents=[shared], help="cut discontinuity at x > 1")
    p_jump.add_argument("--alpha", required=True)
    p_jump.add_argument("--x", required=True, type=float)
    p_jump.set_defaults(run=cmd_jump)

    p_table = sub.add_parser("table", parents=[shared], help="grid sweep")
    p_table.add_argument("--alpha", required=True)
    p_table.add_argument("--z-re", dest="z_re", required=True, help="a:b:n inclusive grid")
    p_table.add_argument("--z-im", dest="z_im", required=True, help="c:d:m inclusive grid")
    p_table.set_defaults(run=cmd_table)

    p_check = sub.add_parser("selfcheck", parents=[shared], help="run the validation suite")
    p_check.add_argument("--json", action="store_true", help="JSON-lines reports")
    p_check.add_argument("--filter", help="only checks whose name contains this text")
    p_check.set_defaults(run=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        return args.run(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
