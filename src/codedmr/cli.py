"""Command-line front end.

Subcommands: plan, load, simulate, sweep, bound, gap, table.
Exit codes: 0 success, 1 infeasible configuration, 2 parse/config error,
3 internal consistency failure (simulation disagrees with the formula).
Each ``cmd_*`` returns its output, a dict (written as indented JSON) or a
str, and ``main`` writes it to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import allocation, analytics, assignment as fa, presets, simulator
from .model import (
    MAX_PRECISION,
    STRATEGIES,
    DomainError,
    InternalConsistencyError,
    format_both,
    format_decimal,
    format_rational,
    load_config,
    parse_rational,
    fractions_from_csv,
    validate_profile,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

LARGE_COUNT_DISPLAY = 10 ** 9
# `sweep` refuses grids with more points than this
SWEEP_POINT_CAP = 10_000
# `plan` lists sub-batches only up to this many; past it, only the count
PLAN_LISTING_CAP = 2 ** 16
# `plan` reports a larger minimal file count only symbolically
PLAN_FILE_COUNT_CAP = 2 ** 62

SWEEP_COLUMNS = ("mbar", "L_even", "L_computation", "L_shuffle",
                 "L_hom_optimal", "note")


def _precision(text: str) -> int:
    """argparse type for --precision: a digit count in 0..MAX_PRECISION."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    if value > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be at most MAX_PRECISION={MAX_PRECISION}, got {text!r}")
    return value


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, shared by the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    config = _flag("--config", required=True,
                   help="path to a profile/assignment JSON file")
    precision = _flag("--precision", type=_precision, default=6,
                      help="decimal digits in rendered values (default 6)")
    strategy = _flag("--strategy", choices=STRATEGIES,
                     help="overrides the strategy in the config")
    out = _flag("--out", help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="codedmr",
        description="Plan, evaluate, and simulate coded MapReduce shuffles "
                    "on heterogeneous nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", parents=[config, out],
                   help="file allocation plan plus minimal instance sizes")

    sub.add_parser("load", parents=[config, precision, strategy, out],
                   help="analytic load report for one assignment")

    p_sim = sub.add_parser("simulate", parents=[config, precision, strategy, out],
                           help="run Map/Shuffle/Reduce and measure the load")
    p_sim.add_argument("--files", type=int, help="file count N (default minimal)")
    p_sim.add_argument("--functions", type=int, help="function count Q (default minimal)")
    p_sim.add_argument("--iv-bits", type=int, default=32,
                       help="bits per intermediate value (default 32)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="seed for synthetic intermediate values")
    p_sim.add_argument("--transcript", help="write per-message JSONL records here")

    p_sweep = sub.add_parser("sweep", parents=[precision, out],
                             help="CSV of loads across scaled profiles")
    p_sweep.add_argument("--preset", choices=sorted(presets.SWEEP_COEFFS),
                         help="named coefficient vector")
    p_sweep.add_argument("--coeffs", help='explicit coefficients, e.g. "0.9,1,1.1"')
    p_sweep.add_argument("--step", default="0.01", help="grid step (default 0.01)")
    p_sweep.add_argument("--mbar-min", dest="mbar_min", help="grid start")
    p_sweep.add_argument("--mbar-max", dest="mbar_max", help="grid end")

    sub.add_parser("bound", parents=[config, precision, strategy, out],
                   help="cut-set lower bound with maximizing subset")

    sub.add_parser("gap", parents=[config, precision, out],
                   help="multiplicative gap to the equivalent homogeneous optimum")

    p_table = sub.add_parser("table", parents=[out],
                             help="benchmark table reproduction")
    p_table.add_argument("--preset", choices=("table1", "table2"), required=True)
    p_table.add_argument("--json", action="store_true",
                         help="emit JSON instead of a text table")

    return parser


def _configured(args):
    """The config's profile and plan, and the strategy and assignment chosen
    by ``--strategy``, else the config's strategy, else its custom w."""
    profile, custom, declared = load_config(args.config)
    plan = allocation.build_plan(profile)
    strategy = args.strategy or declared or ("custom" if custom is not None else None)
    if strategy is None:
        raise ValueError('config must declare "strategy" or "w"')
    return profile, plan, strategy, fa.assignment_for(strategy, profile, plan, custom)


def _file_count_fields(plan) -> dict:
    value = allocation.minimal_file_count(plan)
    if value > PLAN_FILE_COUNT_CAP:
        fields = {"minimal_files": None, "minimal_files_overflow": True}
    else:
        fields = {"minimal_files": value}
    fields["minimal_files_symbolic"] = allocation.format_factored(value)
    fields["minimal_files_estimate"] = format_rational(
        allocation.file_count_estimate(plan))
    return fields


def cmd_plan(args) -> dict:
    profile, custom, _ = load_config(args.config)
    plan = allocation.build_plan(profile)
    count = allocation.subbatch_count(plan.l, plan.P)
    if count > PLAN_LISTING_CAP:
        listing = {"subbatch": None, "subbatch_count": count}
    else:
        table = allocation.subbatch_fractions(plan.l, plan.P)
        # entries of equal value mostly share one Fraction, and hashing a
        # Fraction costs more than formatting it, so look objects up by id
        # and format each distinct value once
        objects = {id(frac): frac for frac in table.values()}
        texts = {frac: format_rational(frac) for frac in set(objects.values())}
        names = {key: texts[frac] for key, frac in objects.items()}
        listing = {"subbatch": [
            {"owner": owner, "subset": psi, "fraction": names[id(frac)]}
            for (owner, psi), frac in table.items()]}
    functions = {}
    for strategy in STRATEGIES:
        if strategy == "custom" and custom is None:
            continue
        try:
            functions[strategy] = fa.minimal_function_count(
                fa.assignment_for(strategy, profile, plan, custom))
        except DomainError:
            functions[strategy] = None
    return {
        "profile": profile.to_json(),
        "plan": {**plan.to_json(), **listing},
        **_file_count_fields(plan),
        "minimal_functions": functions,
    }


def cmd_load(args) -> dict:
    profile, plan, strategy, w = _configured(args)
    report = analytics.build_load_report(profile, plan, w)
    return {
        "profile": profile.to_json(),
        "strategy": strategy,
        "w": w.to_json(),
        "report": report.to_json(args.precision),
    }


def cmd_simulate(args) -> dict:
    profile, _, strategy, w = _configured(args)
    instance, _, report = simulator.simulate(
        profile, w, N=args.files, Q=args.functions, T=args.iv_bits,
        seed=args.seed, log_messages=bool(args.transcript))
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            for record in report.message_log or []:
                fh.write(json.dumps(record) + "\n")
    return {
        "profile": profile.to_json(),
        "strategy": strategy,
        "instance": {"N": instance.N, "Q": instance.Q, "T": instance.T,
                     "seed": instance.seed},
        # simulate raises unless the measured load equals the analytic one
        "analytic_load": format_both(report.measured_load, args.precision),
        "report": report.to_json(args.precision),
    }


def _strategy_loads(profile) -> dict[str, Fraction | None]:
    """Even load from the general formula, computation- and shuffle-aware
    loads from their closed forms; shuffle-aware is None at total load 1."""
    plan = allocation.build_plan(profile)
    even = fa.even_assignment(profile.K)
    return {
        "even": analytics.achievable_load(profile, plan, even).total,
        "computation": analytics.load_computation_aware(profile, plan),
        "shuffle": (analytics.load_shuffle_aware(profile, plan)
                    if profile.total > 1 else None),
    }


def _sweep_grid(args, coeffs) -> list[Fraction]:
    step = parse_rational(args.step)
    if step <= 0:
        raise ValueError("--step must be positive")
    total = sum(coeffs, Fraction(0))
    cmax = max(coeffs)
    lo = parse_rational(args.mbar_min) if args.mbar_min else Fraction(1) / total
    hi = parse_rational(args.mbar_max) if args.mbar_max else Fraction(1) / cmax
    first = -((-lo) // step)  # ceil(lo / step)
    count = max(0, hi // step - first + 1)
    if count > SWEEP_POINT_CAP:
        raise DomainError(
            f"sweep grid has {count} points, above the cap {SWEEP_POINT_CAP}; "
            "use a larger --step or a narrower --mbar-min/--mbar-max range")
    return [t * step for t in range(first, first + count)]


def cmd_sweep(args) -> str:
    if bool(args.preset) == bool(args.coeffs):
        raise ValueError("sweep needs exactly one of --preset or --coeffs")
    coeffs = (presets.SWEEP_COEFFS[args.preset] if args.preset
              else fractions_from_csv(args.coeffs))
    if min(coeffs) <= 0:
        raise ValueError("--coeffs must be positive")
    precision = args.precision
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, restval="")
    writer.writeheader()
    for mbar in _sweep_grid(args, coeffs):
        row = {"mbar": format_decimal(mbar, precision)}
        try:
            profile = validate_profile([mbar * c for c in coeffs])
        except DomainError as exc:
            writer.writerow({**row, "note": f"skipped: {exc}"})
            continue
        notes = []
        for strategy, load in _strategy_loads(profile).items():
            if load is None:
                notes.append("shuffle-aware undefined at total load 1")
            else:
                row[f"L_{strategy}"] = format_decimal(load, precision)
        try:
            row["L_hom_optimal"] = format_decimal(
                analytics.homogeneous_optimal(len(coeffs), mbar), precision)
        except DomainError:
            notes.append("homogeneous optimum undefined at this point")
        writer.writerow({**row, "note": "; ".join(notes)})
    return buf.getvalue()


def cmd_bound(args) -> dict:
    profile, _, strategy, w = _configured(args)
    bound, witness = analytics.lower_bound(profile, w)
    return {
        "profile": profile.to_json(),
        "strategy": strategy,
        "lower_bound": format_both(bound, args.precision),
        "witness": sorted(witness),
    }


def cmd_gap(args) -> dict:
    profile, _, _ = load_config(args.config)
    ratio, regime = analytics.gap_to_homogeneous(profile)
    return {
        "profile": profile.to_json(),
        "mbar": format_both(profile.mean, args.precision),
        "regime": regime,
        "gap_to_homogeneous": format_both(ratio, args.precision),
        "within_bound": bool(ratio < analytics.HOMOGENEOUS_GAP_BOUND),
    }


# Published values of other schemes on the same benchmarks, for context only.
REPORTED_TABLE1 = [
    ("cascaded baseline", "0.528", "0.497"),
    ("non-cascaded baseline", "0.357", "0.185"),
    ("this scheme, non-cascaded baseline's assignment", "0.349", "0.208"),
]

REPORTED_TABLE2 = {
    "K=3": [
        ("homogeneous baseline, m=[2/3 x3]", "3", "3"),
        ("3-node optimal-tradeoff baseline", "15", "3"),
    ],
    "K=12 profile-1": [
        ("homogeneous baseline, m=[1/4 x12]", "220", "12"),
        ("cascaded baseline", "54", "54"),
        ("non-cascaded baseline", "54", "42"),
    ],
    "K=12 profile-2": [
        ("homogeneous baseline, m=[1/3 x12]", "495", "12"),
        ("cascaded baseline", "48", "48"),
        ("non-cascaded baseline", "48", "36"),
    ],
}

SCHEMES = {"even": "Even FA", "computation": "Computation-aware FA",
           "shuffle": "Shuffle-aware FA"}


def _table1_data() -> dict:
    m1 = _strategy_loads(presets.profile_k12_m1())
    m2 = _strategy_loads(presets.profile_k12_m2())
    rows = [{
        "scheme": label,
        "m1": format_decimal(m1[key], 3),
        "m2": format_decimal(m2[key], 3),
        "m1_exact": format_rational(m1[key]),
        "m2_exact": format_rational(m2[key]),
        "status": "computed",
    } for key, label in SCHEMES.items()]
    rows += [{"scheme": label, "m1": v1, "m2": v2,
              "status": "reported, not reproduced"}
             for label, v1, v2 in REPORTED_TABLE1]
    return {"title": "Communication load, K=12 benchmark profiles",
            "rows": rows}


def _table2_data() -> dict:
    sections = []
    for section, profile in (("K=3", presets.profile_k3_hetero()),
                             ("K=12 profile-1", presets.profile_k12_m1()),
                             ("K=12 profile-2", presets.profile_k12_m2())):
        plan = allocation.build_plan(profile)
        min_n = allocation.minimal_file_count(plan)
        min_files = (allocation.format_factored(min_n)
                     if min_n >= LARGE_COUNT_DISPLAY else str(min_n))
        rows = [
            {"scheme": scheme, "files": files, "functions": functions,
             "status": "reported, not reproduced"}
            for scheme, files, functions in REPORTED_TABLE2[section]
        ]
        for strategy in ("computation", "shuffle"):
            w = fa.assignment_for(strategy, profile, plan)
            rows.append({"scheme": SCHEMES[strategy], "files": min_files,
                         "functions": str(fa.minimal_function_count(w)),
                         "status": "computed"})
        sections.append({"section": section, "rows": rows})
    return {"title": "Least numbers of input files and output functions",
            "sections": sections}


# per preset: the function that builds its data and the (key, title)
# columns of its text form
TABLES = {
    "table1": (_table1_data, [("scheme", "Scheme"), ("m1", "m1"),
                              ("m2", "m2"), ("status", "Status")]),
    "table2": (_table2_data, [("scheme", "Scheme"), ("files", "Files N"),
                              ("functions", "Functions Q"), ("status", "Status")]),
}


def cmd_table(args) -> dict | str:
    build, columns = TABLES[args.preset]
    data = build()
    if args.json:
        return data
    text = data["title"] + "\n"
    # table1's rows are one section without a heading
    for section in data.get("sections") or [{"section": "", "rows": data["rows"]}]:
        rows = section["rows"]
        widths = {key: max(len(title), *(len(str(row.get(key, ""))) for row in rows))
                  for key, title in columns}
        lines = [section["section"]] if section["section"] else []
        lines.append("  ".join(title.ljust(widths[key]) for key, title in columns))
        lines.append("  ".join("-" * widths[key] for key, _ in columns))
        for row in rows:
            lines.append("  ".join(
                str(row.get(key, "")).ljust(widths[key]) for key, _ in columns))
        text += "\n" + "\n".join(lines) + "\n"
    return text


def _render(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` renders it, byte for
    byte: a dict with str keys, a list or tuple, a str, an int, a bool or
    None, nested. Any other value or key type raises TypeError. ``pad`` is
    the line break and indent that ``value`` is nested at."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return _rows((value,), pad)[0]
    if not isinstance(value, (list, tuple)):
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    inner = pad + "  "
    kinds = set(map(type, value))
    items = (list(map(int.__repr__, value)) if kinds == {int}
             else _rows(value, inner) if kinds == {dict}
             else [_render(item, inner) for item in value])
    # the brackets go on the end items, so one join builds the whole text
    # and a long listing is not copied a second time to add them
    items[0] = "[" + inner + items[0]
    items[-1] += pad + "]"
    return ("," + inner).join(items)


def _rows(rows, pad: str) -> list[str]:
    """Each dict of ``rows`` rendered at ``pad``, through one %-template per
    run of rows with the same keys in the same order. Within the call, each
    value of type exactly int or str, and each tuple of exactly-int items,
    is rendered once; a bool is never a key, since ``False == 0`` and
    ``(1, True) == (1, 1)``."""
    inner = pad + "  "
    texts: dict[tuple, str] = {}
    keys = template = None
    out = []
    for row in rows:
        if tuple(row) != keys:
            keys = tuple(row)
            # encode_basestring_ascii raises TypeError naming a non-str key
            template = ("{" + inner + ("," + inner).join(
                encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                for key in keys) + pad + "}") if keys else "{}"
        values = []
        for item in row.values():
            kind = type(item)
            if kind is int or kind is str or (
                    kind is tuple and set(map(type, item)) == {int}):
                text = texts.get((kind, item))
                if text is None:
                    text = texts[kind, item] = _render(item, inner)
            else:
                text = _render(item, inner)
            values.append(text)
        out.append(template % tuple(values))
    return out


COMMANDS = {
    "plan": cmd_plan,
    "load": cmd_load,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "bound": cmd_bound,
    "gap": cmd_gap,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = COMMANDS[args.command](args)
        # the newline is written on its own, so plan's MBs are not copied
        parts = (output,) if isinstance(output, str) else (_render(output), "\n")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
        else:
            sys.stdout.writelines(parts)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:  # DomainError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
