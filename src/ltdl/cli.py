"""Command-line front end: constructions and verification suites with JSON
reports.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
parameter error, 3 resource budget exceeded.  Reports are byte-deterministic
for a fixed config and version; wall-clock timing is only included with
--timing (it is null otherwise, keeping the default reports reproducible).
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager
from functools import cache, partial
from math import comb

from . import __version__
from .depth0 import (
    blowup_chart,
    build_P,
    checked_depth_sequence,
    deformation_factors,
    gl_linear_shadow_check,
    iterated_chart,
    special_fiber_components,
    stratum_membership,
    un_special_fiber,
)
from .dl_variety import (
    base_points_moebius,
    dl_equation,
    dl_points,
    line_census,
    orbit_check,
    rational_level,
)
from .errors import (
    BudgetError,
    IntegralityError,
    ParameterError,
    PrecisionError,
    VerificationError,
    check_entry,
)
from .ffield import MAX_DEGREE, field_for_order
from .formal_modules import (
    default_degree,
    lubin_tate_module,
    universal_module,
    verify_module_axioms,
)
from .gl_characters import (
    CorrespondenceData,
    GLGroup,
    correspondence_report,
    dixon_table,
    steinberg,
)
from .linalg import MAX_GROUP_ORDER, group_order, index_vectors

SCHEMA_VERSION = 1
# size limits, each checked once in RunConfig.validate()
CHART_QN_BOUND = 64
CHART_MONOMIAL_BOUND = 2000
DL_QN_BOUND = 2 ** 20
AMBIENT_FIELD_BOUND = 4096
POINT_BUDGET = 10 ** 8


def _common_flags(parser):
    parser.add_argument("--q", type=int, default=None, help="residue field size")
    parser.add_argument("--n", type=int, default=None, help="height / rank")
    parser.add_argument("--m", type=int, default=None, help="extension degree for points")
    parser.add_argument("--N", dest="prec_n", type=int, default=None,
                        help="p-adic precision (default 8)")
    parser.add_argument("--D", dest="prec_d", type=int, default=None,
                        help="series degree bound (default q^n + q)")
    parser.add_argument("--out", default=None, help="report output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="include wall-clock timing in the report (and, for "
                             "verify-all, seconds per suite in results.profile)")


def build_parser():
    parser = argparse.ArgumentParser(prog="ltdl")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    fg = top.add_parser("formal-group", help="build a module and dump F, [a]")
    _common_flags(fg)
    fg.add_argument("--universal", action="store_true", default=None)

    d0 = top.add_parser("depth0", help="deformation-space computations")
    d0_sub = d0.add_subparsers(dest="subcommand", required=True)
    for name in ("equation", "chart", "strata"):
        sub = d0_sub.add_parser(name)
        _common_flags(sub)
        if name == "chart":
            sub.add_argument("--depth-sequence", default=None,
                             help="comma-separated strictly decreasing sequence")

    dl = top.add_parser("dl", help="Deligne-Lusztig variety computations")
    dl_sub = dl.add_subparsers(dest="subcommand", required=True)
    for name in ("equation", "count"):
        sub = dl_sub.add_parser(name)
        _common_flags(sub)
        if name == "count":
            sub.add_argument("--list", action="store_true", default=None,
                             help="dump points (csv format supported)")

    ch = top.add_parser("chars", help="GL_n(F_q) character theory")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True)
    for name in ("table", "steinberg", "correspondence"):
        sub = ch_sub.add_parser(name)
        _common_flags(sub)

    va = top.add_parser("verify-all", help="run every verification suite")
    _common_flags(va)
    return parser


def load_config_file(path, parser):
    """The flags that the `key=value` lines of the config file at `path` set
    on `parser`, the running command's subparser: `--key=value`, or for a
    switch (a flag that stores true) the bare `--key` when the value is true
    and nothing when it is false."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc.strerror}") from None
    switches = {flag for action in parser._actions if action.nargs == 0 and action.const is True
                for flag in action.option_strings}
    flags = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise ParameterError("config file: argument --config: a config file names no other")
        flag = "--" + key
        if flag not in switches:
            flags.append(f"{flag}={value}")
        elif value.lower() not in ("true", "false"):
            raise ParameterError(f"config file: argument {flag}: {value!r} is not true or false")
        elif value.lower() == "true":
            flags.append(flag)
    return flags


def with_config_file(parser, argv, args):
    """`args` with the flags of its `--config` file: the running command's
    subparser parses them, then the command line's flags of `argv` again,
    so that flags > file > defaults follows from argparse's last-wins rule.

    The command line has parsed on its own, so a flag that the subparser
    refuses now comes from the file: a key that is no flag of this command,
    or a value that its flag does not take.  It is a ParameterError with
    argparse's message, which names the flag.
    """
    words = [args.command] + ([args.subcommand] if getattr(args, "subcommand", None) else [])
    for word in words:
        parser = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)).choices[word]
    # the parsers above the command's take no flag but --help and --version,
    # which exit, so argv starts with the command's words
    flags = load_config_file(args.config, parser) + argv[len(words):]
    parser.exit_on_error = False  # a refused flag raises ArgumentError
    try:
        extra = parser.parse_known_args(flags, args)[1]
    except argparse.ArgumentError as exc:
        raise ParameterError(f"config file: {exc}") from None
    if extra:
        raise ParameterError(f"config file: unrecognized arguments: {' '.join(extra)}")
    return args


class RunConfig:
    DEFAULTS = {"q": 2, "n": 2, "m": 2, "format": "json",
                "timing": False, "universal": False, "list": False,
                "out": None, "depth_sequence": None}

    def __init__(self, args):
        self.command = args.command
        self.subcommand = getattr(args, "subcommand", None)
        self.values = merged = {**self.DEFAULTS,
                                **{k: v for k, v in vars(args).items() if v is not None}}
        self.q, self.n, self.m = merged["q"], merged["n"], merged["m"]
        self.prec_n = 8 if merged.get("prec_n") is None else merged["prec_n"]
        self.prec_d = merged.get("prec_d")  # None = default q^n + q
        self.validate()

    def validate(self):
        """Refuse the config before any handler runs: a ParameterError (exit
        2) for a parameter out of range, then a BudgetError (exit 3) for a
        size limit of the run.  Library functions keep only the limits of
        their representation."""
        q, n, m = self.q, self.n, self.m
        if q < 2 or n < 1:
            raise ParameterError("need q >= 2 and n >= 1")
        field = field_for_order(q)  # raises ParameterError if q is not a prime power
        if self.command in ("formal-group", "depth0", "verify-all"):
            if q ** n > CHART_QN_BOUND:
                raise ParameterError(
                    f"q^n = {q ** n} exceeds the chart bound {CHART_QN_BOUND}")
            monomials = comb(self.degree() + n - 1, n)
            if monomials > CHART_MONOMIAL_BOUND:
                raise ParameterError(
                    f"{monomials} monomials at degree {self.degree()} in {n} "
                    f"variables exceed the chart budget {CHART_MONOMIAL_BOUND}")
        if self.command == "dl" and q ** n > DL_QN_BOUND:
            raise ParameterError(f"q^n = {q ** n} exceeds {DL_QN_BOUND}")
        if self.command == "dl" and m < 1:
            raise ParameterError(f"extension degree m = {m} must be >= 1")
        if self.command == "verify-all" and group_order(q, n) > MAX_GROUP_ORDER:
            raise ParameterError("|GL_n(F_q)| exceeds the character-table budget")
        if self.prec_n < 1 or (self.prec_d is not None and self.prec_d < 2):
            raise ParameterError("invalid precision parameters")
        self.depth_sequence = None
        seq_text = self.values.get("depth_sequence")
        if self.command == "depth0" and self.subcommand == "chart" and seq_text:
            self.depth_sequence = checked_depth_sequence(seq_text, n)
        if self.command == "dl" and self.subcommand == "count":
            # the census walks P^{n-1}(F_{q^m}) in tables of F_{q^m}
            if field.f * m > MAX_DEGREE:
                raise BudgetError(f"ambient field degree {field.f * m} exceeds {MAX_DEGREE}")
            if q ** m > AMBIENT_FIELD_BOUND:
                raise BudgetError(f"ambient field size {q ** m} exceeds {AMBIENT_FIELD_BOUND}")
            if q ** (m * n) > POINT_BUDGET:
                raise BudgetError("projective enumeration over budget")
        if self.command == "chars" and group_order(q, n) > MAX_GROUP_ORDER:
            raise BudgetError(f"|GL_{n}(F_{q})| exceeds {MAX_GROUP_ORDER}")

    def echo(self):
        keys = ["q", "n", "m", "prec_n", "prec_d", "format", "timing",
                "universal", "list", "depth_sequence"]
        return {k: self.values.get(k) for k in keys}

    def degree(self):
        return self.prec_d if self.prec_d is not None else default_degree(self.q, self.n)


def make_report(config, results, checks):
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": config.command + (f" {config.subcommand}" if config.subcommand else ""),
        "config": config.echo(),
        "results": results,
        "checks": checks,
        "timing_seconds": None,
    }


def prefixed(prefix, checks):
    """Library check records, each name put under `prefix`."""
    return [{**c, "name": prefix + c["name"]} for c in checks]


def identity_entry(checks, name, call, details=lambda value: ""):
    """Run `call`, a library call that raises VerificationError when its
    identity fails, and record the entry `name`: a pass with details(value)
    when it returns, a fail with the error's message when it raises.

    Returns the value, or None after a raise.  Any other exception passes
    through: to exit codes 2 and 3, or to the verify-all suite around it.
    """
    try:
        value = call()
    except VerificationError as exc:
        checks.append(check_entry(name, False, exc))
        return None
    checks.append(check_entry(name, True, details(value)))
    return value


def not_run(entry):
    """The details of an entry that needs the value of the entry named
    `entry`, which failed."""
    return f"not run: {entry} failed"


def after(entry, value, call):
    """`call(value)` as a call for `identity_entry`, where `value` is what the
    entry named `entry` returned.  When that entry failed (None), the call
    raises a VerificationError naming it instead of rebuilding the value."""
    def run():
        if value is None:
            raise VerificationError(not_run(entry))
        return call(value)
    return run


def chart_details(chart):
    return f"valuation {chart.valuation}"


# -- command implementations -----------------------------------------------------


def run_formal_group(cfg):
    builder = universal_module if cfg.values.get("universal") else lubin_tate_module
    module = builder(cfg.q, cfg.n, N=cfg.prec_n, D=cfg.degree())
    report_checks = prefixed("axiom_", verify_module_axioms(module))
    table = module.scalar_table()
    results = {
        "F": module.F.to_json(),
        "scalars": {str(k): s.to_json() for k, s in sorted(table.items(), key=lambda t: str(t[0]))},
    }
    return results, report_checks


def run_depth0(cfg):
    module = lubin_tate_module(cfg.q, cfg.n, N=cfg.prec_n, D=cfg.degree())
    checks = []
    results = {}
    if cfg.subcommand == "equation":
        factors = deformation_factors(module)
        P = identity_entry(checks, "lowest_degree_qn_minus_1",
                           partial(build_P, module, factors))
        census = special_fiber_components(module, factors=factors)
        if P is not None:
            results["P"] = P.to_json()
        results["components"] = census["components"]
        results["multiplicity"] = census["multiplicity"]
        checks.append(check_entry("component_census",
                                  census["all_scalar_checks_pass"],
                                  f"{census['components']} components"))
    elif cfg.subcommand == "chart":
        factors = deformation_factors(module)
        chart = identity_entry(checks, "chart_multiplicity",
                               partial(blowup_chart, module, factors), chart_details)
        if chart is not None:
            results.update(chart.to_json())
            results["valuations"] = [chart.valuation]
        census = special_fiber_components(module, factors=factors)
        results["components"] = census["components"]
        seq = cfg.depth_sequence
        if seq:
            vals = identity_entry(checks, "iterated_multiplicities", after(
                "chart_multiplicity", chart, partial(iterated_chart, module, seq)), str)
            if vals is not None:
                results["valuations"] = results["iterated_valuations"] = vals
        un = identity_entry(checks, "un_equals_dl", after(
            "chart_multiplicity", chart, partial(un_special_fiber, module)))
        results["un_equation_matches_dl"] = un is not None
    elif cfg.subcommand == "strata":
        rows = []
        ok_all = True
        for a in index_vectors(module.field, cfg.n):
            trailing = cfg.n
            while trailing and a[trailing - 1] == 0:
                trailing -= 1
            for j in range(1, cfg.n):
                member = stratum_membership(module, a, j)
                expected = trailing <= j
                if member != expected:
                    ok_all = False
                rows.append({"a": list(a), "j": j, "member": member,
                             "expected": expected})
        results["strata"] = rows
        checks.append(check_entry("stratum_membership_matches_support", ok_all))
    return results, checks


def run_dl(cfg):
    q, n, m = cfg.q, cfg.n, cfg.m
    checks = []
    results = {"q": q, "n": n}
    if cfg.subcommand == "equation":
        inst = identity_entry(checks, "prime_field_coefficients",
                              partial(dl_equation, q, n))
        if inst is not None:
            results["equation"] = inst.equation.to_json()
            results["num_forms"] = len(inst.forms)
    elif cfg.subcommand == "count":
        results["m"] = m
        base, residues, lines = line_census(q, n, m)
        results["count"] = len(residues) * residues[0]
        if cfg.values.get("list"):
            points = identity_entry(checks, "points_on_variety",
                                    partial(dl_points, q, n, m, lines))
            if points is not None:
                results["points"] = [list(p) for p in points]
        results["base_count"] = base
        checks.append(check_entry("moebius_matches_enumeration",
                                  base == base_points_moebius(q, n, m)))
    return results, checks


def run_chars(cfg):
    q, n = cfg.q, cfg.n
    checks = []
    results = {"q": q, "n": n}
    if cfg.subcommand == "table":
        table = identity_entry(checks, "degree_squares_sum",
                               partial(dixon_table, GLGroup(q, n)))
        if table is not None:
            results["table"] = table.to_json()
    elif cfg.subcommand == "steinberg":
        st = identity_entry(checks, "steinberg_norm_one",
                            partial(steinberg, GLGroup(q, n)))
        if st is not None:
            results["steinberg"] = st.to_json()
        results["degree"] = q ** (n * (n - 1) // 2)
    elif cfg.subcommand == "correspondence":
        rep = correspondence_report(q, n)
        results["orbits"] = rep["orbits"]
        results["cuspidal_part"] = rep["cuspidal_part"]
        checks.extend(prefixed("corr_", rep["checks"]))
    return results, checks


@contextmanager
def suite(name, checks, seconds):
    """One verify-all suite: a raise inside becomes the failing check
    `<name>.error` with the message as its details, and the checks already
    recorded, like the suites after it, still land in the report.  Its
    wall-clock seconds go to seconds[name]."""
    started = time.perf_counter()
    try:
        yield
    except (VerificationError, PrecisionError, IntegralityError, BudgetError,
            ParameterError) as exc:
        checks.append(check_entry(f"{name}.error", False, exc))
    finally:
        seconds[name] = round(time.perf_counter() - started, 4)


def run_verify_all(cfg):
    q, n = cfg.q, cfg.n
    checks = []
    results = {"q": q, "n": n, "N": cfg.prec_n, "D": cfg.degree()}
    # one GL_n(F_q) per run, built by the first suite that needs it; a group
    # that fails to build is the error of each suite that needs it
    gl_group = cache(partial(GLGroup, q, n))
    seconds = {}

    module = None
    with suite("formal_module", checks, seconds):
        module = lubin_tate_module(q, n, N=cfg.prec_n, D=cfg.degree())
        checks.extend(prefixed("formal_module.", verify_module_axioms(module)))

    with suite("depth0", checks, seconds):
        if module is None:
            raise VerificationError("no formal module: the formal_module suite failed")
        # each P_a, P and the chart are built once and shared by the checks;
        # after P or the chart failed, the entries that need it fail naming it
        factors = deformation_factors(module)
        census = special_fiber_components(module, factors=factors)
        checks.append(check_entry(
            "depth0.component_census", census["all_scalar_checks_pass"],
            f"{census['components']} components of multiplicity {census['multiplicity']}"))
        P = identity_entry(checks, "depth0.equation_lowest_degree",
                           partial(build_P, module, factors))
        chart = identity_entry(checks, "depth0.chart_multiplicity", after(
            "depth0.equation_lowest_degree", P, partial(blowup_chart, module, factors)),
            chart_details)
        if n >= 3:
            identity_entry(checks, "depth0.iterated_multiplicities", after(
                "depth0.chart_multiplicity", chart,
                partial(iterated_chart, module, list(range(n, 1, -1)))), str)
        identity_entry(checks, "depth0.un_equals_dl", after(
            "depth0.chart_multiplicity", chart, partial(un_special_fiber, module)))
        if P is None:
            checks.append(check_entry("depth0.gl_linear_shadow", False,
                                      not_run("depth0.equation_lowest_degree")))
        else:
            checks.append(check_entry(
                "depth0.gl_linear_shadow",
                gl_linear_shadow_check(module, gl_group().generators, P=P)))

    with suite("dl", checks, seconds):
        # every check runs on DL(F_{q^m}) at its first non-empty level
        m, (base, residues, lines) = rational_level(q, n)
        count = len(residues) * residues[0]
        checks.append(check_entry(f"dl.base_points_m{m}", base == base_points_moebius(q, n, m),
                                  f"count {count}, base {base}"))
        orbit, failure = orbit_check(q, n, m, gl_group().generators, lines[0], count)
        checks.append(check_entry("dl.action_invariance", failure is None,
                                  failure or f"orbit size {len(orbit)}"))

    with suite("chars", checks, seconds):
        rep = correspondence_report(q, n, CorrespondenceData(gl_group()))
        checks.extend(prefixed("chars.", rep["checks"]))
        results["cuspidal_part"] = rep["cuspidal_part"]
    results["suites"] = ["formal_module", "depth0", "dl", "chars"]
    if cfg.values.get("timing"):
        results["profile"] = {"suites": seconds}
    return results, checks


HANDLERS = {
    "formal-group": run_formal_group,
    "depth0": run_depth0,
    "dl": run_dl,
    "chars": run_chars,
    "verify-all": run_verify_all,
}


def emit(report, cfg):
    if cfg.values.get("format") == "csv" and "points" in report.get("results", {}):
        lines = [",".join(f"x{i + 1}" for i in range(cfg.n))]
        lines += [",".join(map(str, p)) for p in report["results"]["points"]]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = cfg.values.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.config:
            args = with_config_file(parser, argv, args)
        cfg = RunConfig(args)
        try:
            results, checks = HANDLERS[cfg.command](cfg)
        except VerificationError as exc:
            results, checks = {}, [check_entry("verification", False, exc)]
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    report = make_report(cfg, results, checks)
    elapsed = time.monotonic() - started
    if cfg.values.get("timing"):
        report["timing_seconds"] = round(elapsed, 3)
    print(f"ltdl: {cfg.command} finished in {elapsed:.2f}s", file=sys.stderr)
    emit(report, cfg)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
