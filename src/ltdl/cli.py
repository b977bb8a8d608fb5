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
from functools import partial
from math import comb, factorial, lcm

from . import __version__
from .cyclo import euler_phi
from .depth0 import (
    blowup_chart,
    build_P,
    checked_depth_sequence,
    deformation_factors,
    iterated_chart,
    special_fiber_components,
    stratum_membership,
    un_special_fiber,
)
from .dl_variety import (
    base_points_moebius,
    dl_equation,
    dl_points,
    last_dl_level,
    line_census,
    rational_level,
)
from .errors import (
    BudgetError,
    IntegralityError,
    ParameterError,
    VerificationError,
    check_entry,
)
from .ffield import MAX_FIELD_SIZE, prime_power
from .formal_modules import correction_rounds, default_degree, lubin_tate_module
from .gl_characters import (
    CorrespondenceData,
    GLGroup,
    class_function_json,
    correspondence_report,
    dixon_table,
    steinberg,
)
from .linalg import group_order, index_vectors

SCHEMA_VERSION = 1
# the one size limit: RunConfig.validate() refuses a run whose estimated
# work, in microseconds of one core, exceeds it
WORK_BUDGET = 3_400_000


def build_parser():
    parser = argparse.ArgumentParser(prog="ltdl")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)
    # every command's parser shares the one set of common flag actions
    common = argparse.ArgumentParser(add_help=False)
    flag = common.add_argument
    flag("--q", type=int, default=None, help="residue field size")
    flag("--n", type=int, default=None, help="height / rank")
    flag("--m", type=int, default=None, help="extension degree for points")
    flag("--N", dest="prec_n", type=int, default=None, help="p-adic precision (default 8)")
    flag("--D", dest="prec_d", type=int, default=None,
         help="series degree bound (default q^n + q)")
    flag("--out", default=None, help="report output path (default stdout)")
    flag("--format", choices=["json", "csv"], default=None)
    flag("--config", default=None, help="key=value config file")
    flag("--timing", action="store_true", default=None,
         help="include wall-clock timing in the report (and, for "
              "verify-all, seconds per suite in results.profile)")

    top.add_parser("formal-group", parents=[common], help="build a module and dump F, [a]")
    subs = {}
    for command, text, names in [
            ("depth0", "deformation-space computations", "equation chart strata"),
            ("dl", "Deligne-Lusztig variety computations", "equation count"),
            ("chars", "GL_n(F_q) character theory", "table steinberg correspondence")]:
        sub = top.add_parser(command, help=text).add_subparsers(dest="subcommand", required=True)
        for name in names.split():
            subs[f"{command} {name}"] = sub.add_parser(name, parents=[common])
    subs["depth0 chart"].add_argument("--depth-sequence", default=None,
                                      help="comma-separated strictly decreasing sequence")
    subs["dl count"].add_argument("--list", action="store_true", default=None,
                                  help="dump points (csv format supported)")
    top.add_parser("verify-all", parents=[common], help="run every verification suite")
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
    DEFAULTS = {"q": 2, "n": 2, "m": 2, "format": "json", "timing": False, "list": False,
                "out": None, "depth_sequence": None}

    def __init__(self, args):
        self.command = args.command
        self.subcommand = getattr(args, "subcommand", None)
        self.name = args.command + (f" {self.subcommand}" if self.subcommand else "")
        self.values = merged = {**self.DEFAULTS,
                                **{k: v for k, v in vars(args).items() if v is not None}}
        self.q, self.n, self.m = merged["q"], merged["n"], merged["m"]
        self.prec_n = 8 if merged.get("prec_n") is None else merged["prec_n"]
        self.prec_d = merged.get("prec_d")  # None = default q^n + q
        self.validate()

    def validate(self):
        """Refuse the config before any handler runs: a ParameterError (exit
        2) for a malformed parameter, then a BudgetError (exit 3) for a field
        beyond the field tables or an estimated work over WORK_BUDGET.  It
        builds no field or group and enumerates nothing."""
        q, n, m = self.q, self.n, self.m
        if q < 2 or n < 1:
            raise ParameterError("need q >= 2 and n >= 1")
        if self.command == "dl" and m < 1:
            raise ParameterError(f"extension degree m = {m} must be >= 1")
        if q > MAX_FIELD_SIZE:  # before factoring q by trial division
            raise BudgetError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
        self.p, self.f = prime_power(q)
        # every estimate counts each of the q^n - 1 forms, 1/4 us or more, or
        # (the DL equation's) the n! terms of Delta, 1 us or more
        if n >= (4 * WORK_BUDGET).bit_length():
            raise BudgetError(f"the q^n - 1 forms at n = {n} exceed the work budget")
        if self.command in ("formal-group", "depth0", "verify-all") and self.degree() <= q ** n:
            raise ParameterError(f"degree bound {self.degree()} must exceed q^n = {q ** n}")
        if self.prec_n < 1 or (self.prec_d is not None and self.prec_d < 2):
            raise ParameterError("invalid precision parameters")
        seq_text = self.values["depth_sequence"]  # a flag of depth0 chart alone
        self.depth_sequence = checked_depth_sequence(seq_text, n) if seq_text else None
        if self.command == "verify-all" and n >= 3:  # its iterated chart, n down to 2
            self.depth_sequence = list(range(n, 1, -1))
        # the levels m of the DL census, each at m >= n walked in the tables
        # of F_{q^m}
        self.levels = {"dl count": [m], "verify-all": range(n, last_dl_level(q, n) + 1)}.get(
            self.name, [])
        for k in self.levels[-1:]:  # the largest F_{q^m} built, q^m not formed past the limit
            if q ** min(k, MAX_FIELD_SIZE.bit_length()) > MAX_FIELD_SIZE:
                raise BudgetError(f"ambient field size {q}^{k} exceeds {MAX_FIELD_SIZE}")
        self.work = 0  # in microseconds: the WORK terms, summed until past the budget
        for name in WORK[self.name].split():
            if self.work <= WORK_BUDGET:
                self.work += WORK_TERMS[name](self)
        if self.work > WORK_BUDGET:
            at = f"q={q}, n={n}" + (f", m={m}" if self.name == "dl count" else "")
            seconds = f"{self.work / 10 ** 6:.3g} s" if self.work < 10 ** 15 else "1e9 s"
            raise BudgetError(f"{self.name} at {at}: estimated work of {seconds} or more "
                              f"exceeds the {WORK_BUDGET / 10 ** 6:g} s budget")

    def echo(self):
        keys = "q n m prec_n prec_d format timing list depth_sequence"
        return {k: self.values.get(k) for k in keys.split()}

    def degree(self):
        return self.prec_d if self.prec_d is not None else default_degree(self.q, self.n)


def holds(ok, details=""):
    """The call of an entry that a comparison decides: `details` when `ok`,
    else a VerificationError with them."""
    if not ok:
        raise VerificationError(details)
    return details


def strata_rows(module, factors):
    """For a in F_q^n - 0 and 0 < j < n, whether P_a, read from the class
    factors `factors`, lies in (X_1, ..., X_j), next to whether the support
    of a ends by j."""
    return [{"a": list(a), "j": j, "member": stratum_membership(module, a, j, factors),
             "expected": not any(a[j:])}
            for a in index_vectors(module.field, module.n) for j in range(1, module.n)]


def dl_level(cfg):
    """(m, base count, point count, residue-0 lines) of the line census of
    P^{n-1}(F_{q^m}): at the first level with a point in verify-all, at --m
    in dl count."""
    m, (base, residues, lines) = (rational_level(cfg.q, cfg.n) if cfg.command == "verify-all"
                                  else (cfg.m, line_census(cfg.q, cfg.n, cfg.m)))
    return m, base, len(residues) * residues[0], lines


# the values that the entries of a run share, each built from the run's
# values and config
BUILDS = {
    "module": lambda v, cfg: lubin_tate_module(cfg.q, cfg.n, N=cfg.prec_n, D=cfg.degree()),
    "factors": lambda v, cfg: deformation_factors(v["module"]),
    "census": lambda v, cfg: special_fiber_components(v["module"], factors=v["factors"]),
    "strata": lambda v, cfg: strata_rows(v["module"], v["factors"]),
    "level": lambda v, cfg: dl_level(cfg),
    "m": lambda v, cfg: v["level"][0],
    "points": lambda v, cfg: dl_points(cfg.q, cfg.n, v["m"], v["level"][3]),
    "equation": lambda v, cfg: dl_equation(cfg.q, cfg.n),
    "group": lambda v, cfg: GLGroup(cfg.q, cfg.n),
    "correspondence": lambda v, cfg: correspondence_report(
        cfg.q, cfg.n, CorrespondenceData(v["group"])),
}


class Run(dict):
    """The values of one run, by name: each build of BUILDS, made on first
    use (one that raised is made again where it is next needed), and the
    value of each entry that passed, under its report name.  `get` and `in`
    build nothing."""

    def __init__(self, cfg):
        super().__init__()
        self.cfg, self.seconds = cfg, {}

    def __missing__(self, key):
        self[key] = value = BUILDS[key](self, self.cfg)
        return value


def census_entry(v, _):
    census = v["census"]
    return partial(holds, census["all_scalar_checks_pass"],
                   f"{census['components']} components of multiplicity {census['multiplicity']}")


def base_points_entry(v, _):
    m, base, count, _ = v["level"]
    return partial(holds, base == base_points_moebius(v.cfg.q, v.cfg.n, m),
                   f"count {count}, base {base}")


def action_invariance_entry(v, _):
    # GL_n(F_q) acts simply transitively on DL(F_{q^m}) iff the census counts
    # |GL_n(F_q)| points: P(xg) = P(x), so the group keeps the variety; a
    # point has F_q-independent coordinates (P(x) != 0), so xg = x forces
    # g = I and every orbit has |GL_n(F_q)| points; P(zx) = z^{q^n-1} P(x)
    # gives the mu_{q^n-1}-invariance; and `line_points` puts exactly g
    # points on each residue-0 line, so g * residues[0] counts them all.
    count, group = v["level"][2], group_order(v.cfg.q, v.cfg.n)
    return partial(holds, count == group, f"orbit size {count}" if count == group
                   else f"count {count}, |GL_n(F_q)| {group}")


# Each suite is one ordered table of rows (name, make, needs, details).  An
# entry's make(values, needed) builds the arguments of its library call and
# returns the call; `needed` is the value of the entry that `needs` names, or
# None when it names none.  The entry passes with
# details(value) ("" without details), or fails with the message of a
# VerificationError.  A row without make builds the value of its name there
# (the report reads it); its details are the library's own check records.
# `{m}` in a name is the run's DL level.
SUITES = {
    "formal_module": [("module", None, None, None)],
    "depth0": [
        ("census", None, None, None),
        ("component_census", census_entry, None, str),
        ("equation_lowest_degree", lambda v, _: partial(build_P, v["module"], v["factors"]),
         None, None),
        ("chart_multiplicity", lambda v, _: partial(blowup_chart, v["module"], v["factors"]),
         None, lambda chart: f"valuation {chart.valuation}"),
        ("iterated_multiplicities", lambda v, chart: partial(
            iterated_chart, v["module"], v.cfg.depth_sequence, chart), "chart_multiplicity", str),
        ("un_equals_dl", lambda v, chart: partial(un_special_fiber, v["module"], chart),
         "chart_multiplicity", None),
        ("stratum_membership_matches_support", lambda v, _: partial(
            holds, all(row["member"] == row["expected"] for row in v["strata"])), None, None),
    ],
    "dl": [
        ("equation", None, None, None),
        ("points", None, None, None),
        ("base_points_m{m}", base_points_entry, None, str),
        ("action_invariance", action_invariance_entry, None, str),
    ],
    "chars": [
        ("degree_squares_sum", lambda v, _: partial(dixon_table, v["group"]), None, None),
        ("steinberg_norm_one", lambda v, _: partial(steinberg, v["group"]), None, None),
        ("correspondence", None, None, lambda report: report["checks"]),
    ],
}

# the rows that each command runs, by name; a subcommand's lie in one suite
SLICES = {
    "formal-group": "module",
    "depth0 equation": "component_census equation_lowest_degree",
    "depth0 chart": "census chart_multiplicity iterated_multiplicities un_equals_dl",
    "depth0 strata": "stratum_membership_matches_support",
    "dl equation": "equation",
    "dl count": "points base_points_m{m}",
    "chars table": "degree_squares_sum",
    "chars steinberg": "steinberg_norm_one",
    "chars correspondence": "correspondence",
    "verify-all": "module component_census chart_multiplicity iterated_multiplicities "
                  "un_equals_dl base_points_m{m} action_invariance correspondence",
}


# -- the work estimate ---------------------------------------------------------------
# Closed-form terms in microseconds of one core, calibrated on fresh-process
# runs (the README's "Size limits" says what each counts): Q = q^n, D the
# series degree bound, a W(F_q)/p^N coefficient product costs 3 (f + 1) / 4.
# The module's recursion, checks and report, the chart's class factors P_a, the
# walks of P^{n-1}(F_{q^m}) (none at m < n) with the embedding of F_q and the
# tables of F_{q^m}, F_q's tables and the DL equation's Moore power, the
# group's closure and classes, the Dixon lift, and the table's report.
WORK_TERMS = {
    "module": lambda c: module_work(c.q, c.n, c.f, c.degree(), c.prec_n),
    "factors": lambda c: (comb(c.degree() + c.n - 1, c.n) * ((c.q ** c.n - 1) // (c.q - 1))
                          * (c.f + 1) // 5),
    "census": lambda c: sum((c.q ** (m * c.n) - 1) // (c.q ** m - 1) * (c.q ** c.n + 11) // 4
                            + c.q + tables_work(c.p, c.f * m) for m in c.levels if m >= c.n),
    "moore": lambda c: tables_work(c.p, c.f) + moore_work(c.q, c.n),
    "group": lambda c: group_order(c.q, c.n) * c.q ** c.n // 2,
    "lift": lambda c: 3 * c.q ** (3 * c.n) // (4 * c.n),
    "report": lambda c: c.q ** (2 * c.n) * euler_phi(  # E: p^a >= n, times lcm(q^i - 1)
        min(c.p ** a for a in range(c.n) if c.p ** a >= c.n)
        * lcm(*(c.q ** i - 1 for i in range(1, c.n + 1)))),
}


def module_work(q, n, f, D, N):
    """The module: F's J + 1 rounds (J = `correction_rounds`), each forming
    L^Q as `TruncatedSeries.__pow__` does, 1 per term pair of each product;
    the q - 2 Teichmuller checks [p](zeta X) = zeta [p](X), each zeta^Q by
    squaring (bit length + set bits - 2 products) and 4 more products of
    W(F_q)/p^N coefficients, at 2f - 1 each; the report, 6 N^2 per
    coefficient of F (its monomials in the J + 1 degrees = 1 mod Q - 1) and
    of the scalars."""
    Q, J = q ** n, correction_rounds(q, n, D)
    g = Q - 1

    # L^a has the d + 1 monomials of each degree d = a + ig, so L^a L^b has
    # sum_{s <= S} sum_{i <= s} (a + 1 + ig)(b + 1 + (s - i)g) term pairs
    def pairs(a, b):
        S = (D - 1 - a - b) // g
        return 0 if S < 0 else ((a + 1) * (b + 1) * (S + 1) * (S + 2) // 2
                                + g * (a + b + 2) * S * (S + 1) * (S + 2) // 6
                                + g * g * (S - 1) * S * (S + 1) * (S + 2) // 24)

    power, r, a, e = 0, 0, 1, Q  # square-and-multiply: the result L^r, the base L^a
    while e:
        if e & 1:
            power, r = power + (pairs(r, a) if r else 0), r + a
        e >>= 1
        if e:
            power, a = power + pairs(a, a), 2 * a
    coefficients = 2 * (J + 1) + g * J * (J + 1) // 2 + q + J + 1
    teichmuller = (q - 2) * (Q.bit_length() + bin(Q).count("1") + 2) * (2 * f - 1)
    return (J + 1) * power + teichmuller + 6 * N * N * coefficients


def tables_work(p, degree):
    """The log and Zech tables of F_{p^degree}: 3 + degree / 2 per element,
    as the walk of the generator's powers steps once per coordinate."""
    return p ** degree * (6 + degree) // 2


def moore_work(q, n):
    """The DL equation's power: Delta^{q-1} by
    `TruncatedSeries.__pow__`, 1 per term pair of each square and product;
    its report, 2n + 2 per term.  Delta^k has at most C(n! + k - 1, k) terms
    (k-fold products of Delta's n! monomials), counted past k = 2 if in budget."""
    def terms(k):
        low = comb(factorial(n) + min(k, 2) - 1, min(k, 2))
        return low if low > WORK_BUDGET else comb(factorial(n) + k - 1, k)

    e = q - 1  # bit i: the result times Delta^{2^i}; each square below the top bit
    return (2 * n + 2) * terms(e) + sum(
        terms(2 ** i) * (terms(e % 2 ** i) * (e >> i & 1) + terms(2 ** i) * (e >> i > 1))
        for i in range(e.bit_length()))


# the terms of each command's work, in the order they are summed
WORK = {"formal-group": "module", "dl equation": "moore", "dl count": "census",
        **dict.fromkeys(("depth0 equation", "depth0 chart", "depth0 strata"), "module factors"),
        "chars table": "group lift report", "chars steinberg": "group",
        "chars correspondence": "group lift",
        "verify-all": "module factors census group lift"}


def run_suites(cfg):
    """The values and checks of the command of `cfg`: each suite with a row
    in the command's slice runs those rows in table order, its seconds going
    to the values' `seconds`.  An entry that needs a failed entry fails with
    "not run: <entry> failed" instead of running; a raise that no entry
    records is the failing check `<suite>.error` and ends its suite, and the
    suites after it still run."""
    dropped = {"iterated_multiplicities": not cfg.depth_sequence,
               "points": not cfg.values.get("list")}
    names = {name for name in SLICES[cfg.name].split() if not dropped.get(name)}
    values, checks = Run(cfg), []
    for suite, table in SUITES.items():
        rows = [row for row in table if row[0] in names]
        if not rows:
            continue
        started, failed = time.perf_counter(), set()
        try:
            for name, make, needs, details in rows:
                if make is None:
                    value = values[name]
                    checks += [{**c, "name": f"{suite}.{c['name']}"}
                               for c in (details(value) if details else [])]
                    continue
                name, needs = f"{suite}.{name.format_map(values)}", needs and f"{suite}.{needs}"
                call = (partial(holds, False, f"not run: {needs} failed") if needs in failed
                        else make(values, values.get(needs)))
                try:
                    values[name] = call()
                except VerificationError as exc:
                    failed.add(name)
                    checks.append(check_entry(name, False, exc))
                else:
                    checks.append(check_entry(name, True,
                                              details(values[name]) if details else ""))
        except (VerificationError, IntegralityError, BudgetError, ParameterError) as exc:
            checks.append(check_entry(f"{suite}.error", False, exc))
        values.seconds[suite] = round(time.perf_counter() - started, 4)
    return values, checks


# -- each command's results, read off the values of its run ------------------------


def formal_group_results(cfg, v):
    if "module" not in v:
        return {}
    table = sorted(v["module"].scalar_table().items(), key=lambda t: str(t[0]))
    return {"F": v["module"].F.to_json(), "scalars": {str(k): s.to_json() for k, s in table}}


def depth0_results(cfg, v):
    results = {}
    if "census" in v:
        results["components"] = v["census"]["components"]
        if cfg.subcommand == "equation":
            results["multiplicity"] = v["census"]["multiplicity"]
    if "depth0.equation_lowest_degree" in v:
        results["P"] = v["depth0.equation_lowest_degree"].to_json()
    if "depth0.chart_multiplicity" in v:
        chart = v["depth0.chart_multiplicity"]
        results.update(chart.to_json(), valuations=[chart.valuation])
    if "depth0.iterated_multiplicities" in v:
        results["valuations"] = results["iterated_valuations"] = (
            v["depth0.iterated_multiplicities"])
    if cfg.subcommand == "chart":
        results["un_equation_matches_dl"] = "depth0.un_equals_dl" in v
    if "strata" in v:
        results["strata"] = v["strata"]
    return results


def dl_results(cfg, v):
    results = {"q": cfg.q, "n": cfg.n}
    if "equation" in v:
        results.update(equation=v["equation"].to_json(), num_forms=cfg.q ** cfg.n - 1)
    if "level" in v:
        results.update(zip(("m", "base_count", "count"), v["level"][:3]))
    if "points" in v:
        results["points"] = [list(p) for p in v["points"]]
    return results


def chars_results(cfg, v):
    results = {"q": cfg.q, "n": cfg.n}
    if "chars.degree_squares_sum" in v:
        results["table"] = v["chars.degree_squares_sum"].to_json()
    if cfg.subcommand == "steinberg":
        results["degree"] = cfg.q ** (cfg.n * (cfg.n - 1) // 2)
    if "chars.steinberg_norm_one" in v:
        results["steinberg"] = class_function_json(1, [(x,) for x in v["chars.steinberg_norm_one"]])
    if "correspondence" in v:
        results.update(orbits=v["correspondence"]["orbits"],
                       cuspidal_part=v["correspondence"]["cuspidal_part"])
    return results


def verify_all_results(cfg, v):
    results = {"q": cfg.q, "n": cfg.n, "N": cfg.prec_n, "D": cfg.degree(),
               "suites": list(SUITES)}
    if "correspondence" in v:
        results["cuspidal_part"] = v["correspondence"]["cuspidal_part"]
    if cfg.values.get("timing"):
        results["profile"] = {"suites": v.seconds}
    return results


HANDLERS = {
    "formal-group": formal_group_results,
    "depth0": depth0_results,
    "dl": dl_results,
    "chars": chars_results,
    "verify-all": verify_all_results,
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
        values, checks = run_suites(cfg)
        results = HANDLERS[cfg.command](cfg, values)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    report = {"schema_version": SCHEMA_VERSION, "version": __version__, "command": cfg.name,
              "config": cfg.echo(), "results": results, "checks": checks,
              "timing_seconds": round(elapsed, 3) if cfg.values.get("timing") else None}
    print(f"ltdl: {cfg.command} finished in {elapsed:.2f}s", file=sys.stderr)
    emit(report, cfg)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
