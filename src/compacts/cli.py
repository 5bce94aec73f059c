"""Command-line surface: parse and check compacts, run scenarios, evaluate
chains, verify snapshots, print trust tables.

Exit codes: 0 success, 1 parse error (including a .cpt file that is not UTF-8,
a non-decimal digit, an integer literal outside i64 and a condition nested
deeper than parser.MAX_CONDITION_DEPTH), 2 well-formedness error, 3 chain
verification failure, 64 usage error (bad invocation, unreadable file), 65
data format error (a scenario, chain snapshot, network config or report that
is not UTF-8 JSON of its documented shape, a network config whose target is
below fileformats.MIN_TARGET, that repeats a peer id or a principal id or
whose gossip_seed or max_rounds is a boolean, a scenario round that is
negative, boolean or not below the config's max_rounds, a scenario event from
an emitter not on the roster, or a report trust row not of the schema's
types). Every command is deterministic given its file inputs
and flags; randomness only enters through --seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import fileformats
from .fileformats import DataFormatError
from .governance import Organization, UnrosteredEmitter, ruleset_from_spec
from .incremental import fold_chain as evaluate  # the name per-layer tracing wraps
from .lang import ParseError, check_well_formedness, parse_compact
from .ledger import verify_chain
from .network import run_network
from .trust import trust_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_WELL_FORMEDNESS = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64
EXIT_DATA = 65

# eval and verify-chain verify a snapshot without a target, roster or rules
STRUCTURE_ONLY = "structure only: target, signatures and admission not checked"


class _Exit(Exception):
    """Ends a command with an exit code; a non-empty message goes to stderr."""

    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _Exit(EXIT_PARSE, f"{path}: not UTF-8: {exc}") from exc


def _load_spec(path: str):
    """Parse and check a compact. On an error, prints the diagnostics and
    raises _Exit with EXIT_PARSE or EXIT_WELL_FORMEDNESS."""
    text = _read_text(path)
    try:
        spec = parse_compact(text)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: error: {exc.message}", file=sys.stderr)
        raise _Exit(EXIT_PARSE) from exc
    diagnostics = check_well_formedness(spec)
    if any(d.severity == "error" for d in diagnostics):
        for diag in diagnostics:
            print(diag.render(path), file=sys.stderr)
        raise _Exit(EXIT_WELL_FORMEDNESS)
    return spec, diagnostics


def cmd_parse(args: argparse.Namespace) -> int:
    spec, diagnostics = _load_spec(args.spec)
    for diag in diagnostics:
        print(diag.render(args.spec), file=sys.stderr)
    print(f"{args.spec}: ok ({len(spec.norms)} norms)", file=sys.stderr)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    spec, _ = _load_spec(args.spec)
    scenario = fileformats.read_scenario(args.scenario)
    config, roles = fileformats.read_network_config(args.net)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, gossip_seed=args.seed)
    if any(sub.round >= config.max_rounds for sub in scenario):
        raise _Exit(EXIT_DATA, f"{args.scenario}: a round is past max_rounds={config.max_rounds}")
    org = Organization.make(spec.context, roles)
    rules = ruleset_from_spec(spec)

    result = run_network(scenario, config, rules=rules, org=org)
    chain = result.active_chain  # run_network adopts only chains it verified
    state = evaluate(chain, spec, org)
    report = fileformats.build_report(state, chain, trust_report(state), network=result)
    fileformats.write_report(report, args.out)
    if args.chain_out:
        fileformats.write_chain(chain, args.chain_out)
    print(
        f"{spec.name}: {len(report['instances'])} instances, "
        f"{len(report['facts'])} facts, converged={result.converged}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    spec, _ = _load_spec(args.spec)
    chain = fileformats.read_chain(args.chain)
    bad = verify_chain(chain)
    if bad is not None:
        print(f"chain invalid at block {bad.index}: {bad.rejection}", file=sys.stderr)
        return EXIT_VERIFY
    roles: dict[str, list[str]] = {}
    if args.net:
        _, roles = fileformats.read_network_config(args.net)
    org = Organization.make(spec.context, roles)
    state = evaluate(chain, spec, org)
    report = fileformats.build_report(state, chain, trust_report(state))
    fileformats.write_report(report, args.out)
    print(f"{spec.name}: {len(report['instances'])} instances (chain {STRUCTURE_ONLY})", file=sys.stderr)
    return EXIT_OK


def cmd_verify_chain(args: argparse.Namespace) -> int:
    chain = fileformats.read_chain(args.chain)
    bad = verify_chain(chain)
    if bad is not None:
        print(f"first bad block: {bad.index} ({bad.rejection})", file=sys.stderr)
        return EXIT_VERIFY
    print(f"ok: {len(chain.blocks)} blocks ({STRUCTURE_ONLY})", file=sys.stderr)
    return EXIT_OK


def cmd_trust(args: argparse.Namespace) -> int:
    report = fileformats.read_report(args.report)
    rows = report.get("trust", [])
    for row in rows:
        print(
            f"{row['principal']}\t{row['norm_id']}\t"
            f"s={row['satisfied']}\tv={row['violated']}\t{row['score']:.6f}"
        )
    if not rows:
        print("no trust evidence", file=sys.stderr)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compacts",
        description="Declarative violable contracts over a simulated permissioned ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and check a compact")
    p.add_argument("spec", help="path to a .cpt file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("run", help="run a scenario end to end and write a report")
    p.add_argument("--spec", required=True)
    p.add_argument("--scenario", required=True, help="JSON Lines event submissions")
    p.add_argument("--net", required=True, help="network config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the gossip seed")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--chain-out", default=None, help="also write the active chain snapshot")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate an existing chain snapshot")
    p.add_argument("--chain", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--net", default=None, help="network config JSON (for the role map)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-chain", help="verify a chain snapshot")
    p.add_argument("chain", help="chain snapshot JSON")
    p.set_defaults(func=cmd_verify_chain)

    p = sub.add_parser("trust", help="print the trust table of a report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_trust)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _Exit as exc:
        if str(exc):
            print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnrosteredEmitter as exc:
        print(f"error: emitter {exc} is not on the network roster", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
