"""Command-line front end: file input, verdict reports, batch crosschecks.

Matrices come in as JSON ({"rows": d, "cols": n, "entries": [[...], ...]})
or as whitespace-separated text with one row per line ('#' starts a comment
line; '-' reads stdin).  Each command returns what it decided; ``main``
times it and writes one report, as JSON (default) or readable text.
Witnesses are included verbatim so a skeptical consumer can recheck them,
and ``--verify`` does that recheck with the brute-force oracles right away.
The exit code is 1 on an input error, reported as one ``error:`` line, and
when a report holds a disagreement with an oracle; a reader that closes
stdout early gets 141 and no ``error:`` line.  The oracles and the
built-in families are imported only by the commands that run them, so
``check`` without ``--verify`` loads no oracle code.
"""

import argparse
import json
import os
import re
import sys
import time

from .configuration import affine_dim, parse_configuration, regularize
from .engine import (
    full_decomposition,
    hypersurface_class,
    is_self_dual,
    is_strongly_self_dual,
    lawrence_strong_parity,
    smooth_certificate,
)
from .exceptions import GuardExceeded
from .gale import gale_dual, is_facial
from .intlinalg import _excerpt, imat
from .verdict import Verdict


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _ints(tokens, refusal) -> list:
    """The tokens as ints, each an optional sign and ASCII digits, spaces
    around them allowed (``int`` alone also reads ``1_0`` and other
    scripts' digits).  The first other token raises ``ValueError(refusal(
    position, shown))``, ``shown`` its repr cut to a few dozen characters;
    an integer past the int-to-str digit limit keeps ``int``'s own message."""
    out = []
    for k, token in enumerate(tokens):
        if not _INTEGER.fullmatch(token):
            raise ValueError(refusal(k, _excerpt(token)))
        out.append(int(token))
    return out


def _int_option(text: str) -> int:
    """The ``type`` of the integer options: one token read as :func:`_ints`
    reads it; argparse reports the refusal (exit 2)."""
    try:
        return _ints([text], lambda _, token: f"expects an integer, got {token}")[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _option_ints(tokens, option: str, shape: str) -> list:
    return _ints(tokens, lambda _, token: f"{option} expects {shape}, got {token}")


def read_matrix(path: str):
    """Load a matrix from a JSON or plain-text file ('-' reads stdin).  A
    leading UTF-8 byte order mark, which some editors write, is dropped."""
    if path == "-":
        text = sys.stdin.read().removeprefix("\ufeff")
    else:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    text = text.strip()
    if not text:
        raise ValueError(f"empty matrix file: {path}")
    if text.startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("the JSON nests too deeply to be a matrix") from None
        if not isinstance(doc, dict) or "entries" not in doc:
            raise ValueError(
                'a JSON matrix is an object with an "entries" field: '
                '{"rows": d, "cols": n, "entries": [[...], ...]}'
            )
        m = imat(doc["entries"])
        for key, size in zip(("rows", "cols"), m.shape):
            # JSON true and 3.0 compare equal to 1 and 3 but are no sizes
            if key in doc and (type(doc[key]) is not int or doc[key] != size):
                raise ValueError(f"'{key}' field disagrees with the entries")
        return m
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(
            _ints(line.split(), lambda j, tok: f"non-integer entry {tok} at ({len(rows)},{j})")
        )
    return imat(rows)


def matrix_doc(m) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": m.tolist()}


def _emit(report: dict, fmt: str):
    """Write a report.  Its integers may run past the interpreter's int-to-str
    digit limit, where it has one; the limit is lifted while the report is
    written and put back afterwards, so input parsing still keeps it."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is None:
        _write(report, fmt)
        return
    sys.set_int_max_str_digits(0)
    try:
        _write(report, fmt)
    finally:
        sys.set_int_max_str_digits(previous)


def _write(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    verdict = report.get("verdict")
    if verdict is not None:
        print(f"verdict: {verdict}")
    if report.get("criterion"):
        print(f"criterion: {report['criterion']}")
    for key, val in report.items():
        if key in ("verdict", "criterion", "config_echo", "timings"):
            continue
        print(f"{key}: {json.dumps(val)}")
    if "timings" in report:
        print(f"elapsed: {report['timings']['total_ms']:.1f} ms")


def _report(start, config, verdict, extra: dict) -> dict:
    rep = {}
    if verdict is not None:
        rep["verdict"] = verdict.value
        rep["criterion"] = verdict.criterion
        rep["witness"] = verdict.witness
    rep.update(extra)
    if config is not None:
        rep["config_echo"] = matrix_doc(config.weights)
    rep["timings"] = {"total_ms": (time.perf_counter() - start) * 1000.0}
    return rep


def _oracle_verify_self_dual(c, verdict: Verdict):
    from .oracle import ENUMERATION_GUARD, self_dual_via_flats, self_dual_via_sigma

    # a verdict by any other criterion means c has no repeats and no apexes
    if verdict.criterion == "join-decomposition":
        return {"status": "skipped", "reason": "oracle covers repeat-free non-pyramidal input"}
    if c.npoints > ENUMERATION_GUARD:
        return {"status": "skipped", "reason": "enumeration guard"}
    # the verdict read the circuit basis; the referee reads the canonical one
    flats = self_dual_via_flats(gale_dual(c))
    # the sigma test needs a regular presentation; regularize keeps the
    # relations, so it answers for the input
    sigma = self_dual_via_sigma(regularize(c))
    agree = flats == sigma == verdict.value
    return {"status": "ok" if agree else "DISAGREEMENT", "flats": flats, "sigma": sigma}


# Each command takes the parsed arguments and the configuration read from
# the command's matrix file (None for a command without one), and returns
# (configuration to echo, verdict, extra report fields); main reports them.


def cmd_gale(args, c):
    b = gale_dual(c)
    return c, None, {
        "gale_matrix": matrix_doc(b.matrix),
        "affine_dim": affine_dim(c),
        "zero_rows": list(b.zero_rows()),
    }


def cmd_check(args, c):
    extra = {}
    if args.property == "self-dual":
        v = is_self_dual(c)
        if args.verify:
            extra["oracle"] = _oracle_verify_self_dual(c, v)
    elif args.property == "strong":
        v = is_strongly_self_dual(c)
        if args.verify:
            from .oracle import strong_via_points

            try:
                ok = strong_via_points(c)
            except GuardExceeded:
                extra["oracle"] = {"status": "skipped", "reason": "certifying grid guard"}
            else:
                status = "ok" if ok == v.value else "DISAGREEMENT"
                extra["oracle"] = {"status": status, "points": ok}
    else:  # facial
        if not args.subset:
            raise ValueError("check facial requires --subset i,j,k (zero-based)")
        subset = _option_ints(args.subset.split(","), "--subset", "comma-separated integers")
        v = is_facial(c, subset)
        extra["subset"] = subset
        if args.verify:
            from .oracle import facial_via_separation

            ok = facial_via_separation(c, subset)
            extra["oracle"] = {"status": "ok" if ok == v.value else "DISAGREEMENT", "separation": ok}
    return c, v, extra


def cmd_decompose(args, c):
    return c, None, full_decomposition(c).as_json()


def cmd_circuits(args, c):
    from .oracle import enumerate_circuits

    circuits = enumerate_circuits(c)
    return c, None, {
        "circuits": [{"support": list(x.support), "relation": list(x.relation)} for x in circuits]
    }


def cmd_flats(args, c):
    from .oracle import enumerate_flats

    flats = enumerate_flats(gale_dual(c))
    return c, None, {
        "flats": [{"generators": list(f.generators), "closure": list(f.closure)} for f in flats]
    }


def cmd_smooth(args, c):
    v = smooth_certificate(c)
    return c, v, {"certificate": "SmoothCertified" if v.value else "NotCertified"}


def cmd_classify(args, c):
    return c, None, {"hypersurface_class": hypersurface_class(c).value}


def _parse_alphas(text):
    return _option_ints(text.replace(",", " ").split(), "--alphas", "comma-separated integers")


def cmd_generate(args, _):
    from . import families

    extra = {}
    if args.family == "segre":
        c = families.segre(args.m)
        extra["m"] = args.m
    elif args.family == "lawrence":
        if not args.rows:
            raise ValueError('generate lawrence requires --rows "a b c; d e f"')
        block = imat([
            _option_ints(part.split(), "--rows", "integer rows separated by ';'")
            for part in args.rows.split(";")
        ])
        c = families.lawrence(block)
        parity = lawrence_strong_parity(block)
        extra["block"] = matrix_doc(block)
        extra["parity_verdict"] = parity.value
        extra["parity_witness"] = parity.witness
    elif args.family == "family-alpha":
        c = families.family_alpha(args.alpha)
        extra["alpha"] = args.alpha
    elif args.family == "family-dim":
        alphas = _parse_alphas(args.alphas)
        c = families.family_dim(len(alphas), alphas)
    else:  # family-codim
        alphas = _parse_alphas(args.alphas)
        c = families.family_codim(args.m, len(alphas), alphas)
    doc = matrix_doc(c.weights)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        extra["written"] = args.output
    return c, None, {"matrix": doc, "affine_dim": affine_dim(c), **extra}


def cmd_oracle(args, _):
    from .oracle import crosscheck

    rep = crosscheck(seed=args.seed, count=args.count)
    return None, None, {
        "seed": args.seed,
        "count": args.count,
        "self_dual_instances": rep["self_dual_instances"],
        "agreements": rep["count"] - len(rep["disagreements"]),
        "disagreements": rep["disagreements"],
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toricdual",
        description="Exact self-duality tests for projective toric varieties "
        "given by lattice point configurations.",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    # accepted after the subcommand as well; SUPPRESS keeps the top-level
    # value when the subcommand copy is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gale", parents=[common], help="print the canonical Gale dual matrix")
    sp.add_argument("matrix", help="matrix file (JSON or text), '-' for stdin")
    sp.set_defaults(func=cmd_gale)

    sp = sub.add_parser("check", parents=[common], help="decide a property and report a witness")
    sp.add_argument("property", choices=("self-dual", "strong", "facial"))
    sp.add_argument("matrix")
    sp.add_argument("--subset", help="zero-based column indices i,j,k for facial checks")
    sp.add_argument(
        "--verify",
        action="store_true",
        help="recheck the verdict with the brute-force oracle",
    )
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("decompose", parents=[common], help="repeat/apex/core join decomposition")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("circuits", parents=[common], help="enumerate minimal affine dependencies")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_circuits)

    sp = sub.add_parser("flats", parents=[common], help="enumerate flats of the Gale dual rows")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_flats)

    sp = sub.add_parser("smooth-certificate", parents=[common], help="one-sided vertex-chart smoothness certificate")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("classify-hypersurface", parents=[common], help="classify n = dim + 2 configurations")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_classify)

    # no abbreviations: the removed --r must not read as --rows
    sp = sub.add_parser("generate", parents=[common], allow_abbrev=False, help="emit one of the built-in families")
    sp.add_argument(
        "family",
        choices=("segre", "lawrence", "family-alpha", "family-dim", "family-codim"),
    )
    sp.add_argument("--m", type=_int_option, default=2, help="segre block size / codimension")
    sp.add_argument("--alpha", type=_int_option, default=1, help="parameter for family-alpha")
    sp.add_argument("--alphas", default="1,-1", help="comma-separated nonzero integers summing to 0; r is their count")
    sp.add_argument("--rows", help='lawrence block, rows separated by ";": "1 1 1" or "1 0; 2 1"')
    sp.add_argument("--output", help="also write the matrix JSON to this file")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("oracle", parents=[common], help="randomized cross-validation sweeps")
    sp.add_argument("mode", choices=("crosscheck",))
    sp.add_argument("--seed", type=_int_option, default=0, help="seed for reproducible corpora")
    sp.add_argument("--count", type=_int_option, default=50, help="number of random instances")
    sp.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    """Run one command and write its report.  Exit 1 on an input error (one
    ``error:`` line on stderr) or when the report holds a disagreement with
    an oracle; 141 (128 + SIGPIPE), silently, when the reader closes stdout
    before the report is written; 0 otherwise."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        c = parse_configuration(read_matrix(args.matrix)) if "matrix" in args else None
        report = _report(start, *args.func(args, c))
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # later writes, and the flush at interpreter exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # InapplicableInput, GuardExceeded and JSONDecodeError are ValueErrors
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    disagreed = report.get("oracle", {}).get("status") == "DISAGREEMENT"
    return 1 if disagreed or report.get("disagreements") else 0


if __name__ == "__main__":
    sys.exit(main())
