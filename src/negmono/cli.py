"""Command-line front end.

Subcommands: ``measure`` (single-state report), ``sweep`` (alpha grid for
one relation on one state), ``campaign`` (seeded Monte Carlo verification)
and ``oracle-check`` (roof optimizer vs two-qubit closed forms).

Exit codes: 0 all evaluated relations satisfied, 2 violations found,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .harness import (
    CampaignConfig,
    analyze,
    builtin_state,
    campaign_config_from_dict,
    emit_report,
    run_campaign,
    sweep,
)
from .measures import Bipartition, two_qubit_tangle_and_toa
from .relations import RelationId
from .roof import Direction, RoofConfig, optimize_roof
from .states import haar_random_mixed, read_state_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for relation violations, so route usage problems to status 1
    def error(self, message):
        raise _UsageError(message)


def _load_state(spec: str):
    if spec.endswith(".json"):
        psi, norm = read_state_json(spec)
        if abs(norm - 1.0) > 1e-12:
            print(f"note: input normalized (factor {norm:.12g})", file=sys.stderr)
        return psi
    return builtin_state(spec)


def _parse_alphas(text: str) -> tuple[float, ...]:
    return tuple(float(a) for a in text.split(",") if a)


def _attach_alpha_values(argv: list[str]) -> list[str]:
    """``--alphas -0.5,-1`` as ``--alphas=-0.5,-1``: argparse reads a value
    that starts with "-" as an option unless it is one plain negative
    number, so a negative grid would lose its flag's argument."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--alphas", "--alpha"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse_relations(text: str) -> tuple[RelationId, ...]:
    return tuple(RelationId(r.strip()) for r in text.split(",") if r.strip())


def _parse_k(text: str):
    return "auto" if text == "auto" else float(text)


def _roof_flags(args) -> dict:
    """The roof fields given on the command line, by RoofConfig name."""
    given = {"cardinality": args.cardinality, "restarts": args.restarts, "seed": args.roof_seed}
    return {name: value for name, value in given.items() if value is not None}


def _add_roof_args(p):
    # unset flags leave the config file's roof, or the library default
    defaults = RoofConfig()
    p.add_argument("--restarts", type=int, default=None,
                   help=f"roof optimizer restarts (library default {defaults.restarts})")
    p.add_argument("--cardinality", type=int, default=None,
                   help="decomposition size (library default min(rank^2, 16))")
    p.add_argument("--roof-seed", type=int, default=None,
                   help=f"roof optimizer seed (library default {defaults.seed})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="negmono", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="SCREN / SCRENoA vectors of one state")
    p.add_argument("state", help="builtin name (bell, ghz3, w4, aharonov, product:2,2) or a .json file")
    p.add_argument("--sort-values", action="store_true")
    _add_roof_args(p)

    p = sub.add_parser("sweep", help="one relation over an alpha grid on one state")
    p.add_argument("state")
    p.add_argument("--relation", required=True, type=RelationId)
    p.add_argument("--alphas", "--alpha", required=True, type=_parse_alphas,
                   help="comma-separated finite grid, e.g. 1,2,3 or -0.5,-1")
    p.add_argument("--k", default="auto", type=_parse_k)
    p.add_argument("--sort-values", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    _add_roof_args(p)

    p = sub.add_parser("campaign", help="seeded Monte Carlo relation verification")
    p.add_argument("--config", default=None, help="JSON file mirroring the campaign config")
    p.add_argument("--dims", default=None, help="e.g. 2,2,2,2")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alphas", "--alpha", type=_parse_alphas, default=None,
                   help="comma-separated finite grid, e.g. 1,2,3 or -0.5,-1")
    p.add_argument("--relations", "--relation", type=_parse_relations, default=None)
    p.add_argument("--k", type=_parse_k, default=None)
    p.add_argument("--sort-values", dest="sort_values", action="store_true", default=None)
    p.add_argument("--no-sort-values", dest="sort_values", action="store_false")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    _add_roof_args(p)

    p = sub.add_parser("oracle-check", help="roof optimizer vs two-qubit closed forms")
    p.add_argument("--samples", type=int, default=25, help="states per rank class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=16,
                   help="restarts per roof call (default: %(default)s, as the oracle "
                        "equivalence test's MIN searches use)")

    return parser


def _cmd_measure(args) -> int:
    psi = _load_state(args.state)
    result = analyze(psi, RoofConfig(**_roof_flags(args)), sort_values=args.sort_values)
    dims = "x".join(str(d) for d in psi.dims)
    print(f"state: {args.state}  dims: {dims}")
    print(f"scren    lhs={result.scren.lhs:.12g}  values="
          f"[{', '.join(format(v, '.12g') for v in result.scren.values)}]")
    print(f"screnoa  lhs={result.screnoa.lhs:.12g}  values="
          f"[{', '.join(format(v, '.12g') for v in result.screnoa.values)}]")
    return 0


def _cmd_sweep(args) -> int:
    psi = _load_state(args.state)
    reports = sweep(
        psi, args.relation, args.alphas, args.k,
        sort_values=args.sort_values, roof_config=RoofConfig(**_roof_flags(args)),
    )
    emit_report(reports, args.format, args.out)
    return 2 if any(r.satisfied is False for r in reports) else 0


def _cmd_campaign(args) -> int:
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"campaign config must be a JSON object, got {base!r}")
    overrides = {
        "dims": tuple(int(d) for d in args.dims.split(",")) if args.dims else None,
        "samples": args.samples,
        "seed": args.seed,
        "alphas": args.alphas,
        "relations": [r.value for r in args.relations] if args.relations else None,
        "k_policy": args.k,
        "sort_values": args.sort_values,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    # flags override the file's roof fields; a roof that is not an object
    # is left for campaign_config_from_dict to reject
    roof = base.get("roof", {})
    if isinstance(roof, dict):
        base["roof"] = {**roof, **_roof_flags(args)}
    config = campaign_config_from_dict(base)
    report = run_campaign(config)
    emit_report(report, args.format, args.out)
    evaluated = sum(s.evaluated for s in report.stats)
    print(
        f"campaign: {config.samples} samples, {evaluated} evaluations, "
        f"{report.total_violations} violations",
        file=sys.stderr,
    )
    return 2 if report.total_violations else 0


def _cmd_oracle_check(args) -> int:
    # a run that compares nothing, or against no usable bound, must not PASS
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not 0.0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    cut = Bipartition.split(2, (0,))
    worst = 0.0
    for rank_label, env in (("rank-2", 2), ("full-rank", 4)):
        for i in range(args.samples):
            rho = haar_random_mixed((2, 2), env, np.random.SeedSequence((args.seed, env, i)))
            tangle, toa = two_qubit_tangle_and_toa(rho)
            cfg = RoofConfig(cardinality=4, restarts=args.restarts, seed=args.seed + i,
                             value_floor=6e-4, squared_tolerance=5e-7)
            lo = optimize_roof(rho, cut, cfg).value ** 2
            hi = optimize_roof(rho, cut, RoofConfig(
                cardinality=4, restarts=args.restarts, seed=args.seed + i,
                direction=Direction.MAX, squared_tolerance=5e-7)).value ** 2
            worst = max(worst, abs(lo - tangle), abs(hi - toa))
        print(f"{rank_label}: worst |roof - closed form| so far = {worst:.3e}")
    ok = worst <= args.tolerance
    print(f"oracle-check: {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, tol {args.tolerance:g})")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_alpha_values(sys.argv[1:] if argv is None else list(argv)))
        handler = {
            "measure": _cmd_measure,
            "sweep": _cmd_sweep,
            "campaign": _cmd_campaign,
            "oracle-check": _cmd_oracle_check,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
