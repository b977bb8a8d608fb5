"""Known answers for the benchmark workloads, computed with plain integer
arithmetic (never through ltdl), and the gate that holds a report to them.

Every answer is a closed form from the mathematics the report claims to
verify: Moebius counts over the lattice of F_q-subspaces, the number of
cuspidal representations of GL_n(F_q), Frobenius orbits of characters of
F_{q^n}^x, and the shape of the Lubin-Tate formal group law.
"""

import json
import re
from math import gcd

AXIOMS = ("linear_part", "symmetry", "unit_section", "associativity", "scalar_one",
          "scalar_linear_terms", "scalar_hom_mul", "scalar_hom_add", "height")


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def base_point_count(q, n, m):
    """Points of P^{n-1}(F_{q^m}) on no F_q-rational hyperplane.

    Moebius inversion over the lattice of F_q-subspaces U of the dual space:
    mu(0, U) = (-1)^k q^(k(k-1)/2) for dim U = k, and U kills q^(m(n-k))
    vectors of F_{q^m}^n.  Dividing by |F_{q^m}^x| gives projective points.
    """
    vectors = sum((-1) ** k * q ** (k * (k - 1) // 2) * gaussian_binomial(n, k, q)
                  * q ** (m * (n - k)) for k in range(n + 1))
    return vectors // (q ** m - 1)


def mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def cuspidal_count(q, n):
    """(1/n) sum_{d | n} mu(d) q^(n/d): cuspidal irreducibles of GL_n(F_q)."""
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def generic_thetas(q, n):
    """j mod q^n - 1 whose orbit under j -> qj has exactly n elements."""
    order = q ** n - 1
    out = set()
    for j in range(order):
        orbit = {j}
        k = (j * q) % order
        while k not in orbit:
            orbit.add(k)
            k = (k * q) % order
        if len(orbit) == n:
            out.add(j)
    return out


def _leading_int(text):
    found = re.match(r"\s*(\d+)", text)
    return int(found.group(1)) if found else None


def _verify_answers(q, n, report):
    checks = {c["name"]: c for c in report.get("checks", [])}
    results = report.get("results", {})
    items = []

    census = checks.get("depth0.component_census")
    expect = (q ** n - 1) // (q - 1)
    got = _leading_int(census["details"]) if census else None
    items.append(("component_census", got == expect, f"{got} components, expected {expect}"))

    if n >= 3:
        chart = checks.get("depth0.iterated_multiplicities")
        expect = [q ** s - 1 for s in range(n, 1, -1)]
        try:
            got = json.loads(chart["details"]) if chart else None
        except ValueError:
            got = chart["details"]
        items.append(("iterated_multiplicities", got == expect, f"{got}, expected {expect}"))

    bases = [(int(name[len("dl.base_points_m"):]), c) for name, c in checks.items()
             if re.fullmatch(r"dl\.base_points_m\d+", name)]
    items.append(("dl_base_points_present", bool(bases), f"{len(bases)} base-point checks"))
    for m, c in sorted(bases):
        found = re.search(r"base (\d+)", c["details"])
        got = int(found.group(1)) if found else None
        expect = base_point_count(q, n, m)
        items.append((f"base_points_m{m}", got == expect, f"base {got}, Moebius {expect}"))

    cusp = results.get("cuspidal_part", [])
    pis = {e.get("pi") for e in cusp}
    expect = cuspidal_count(q, n)
    items.append(("cuspidal_count", len(pis) == expect, f"{len(pis)} distinct pi, expected {expect}"))
    thetas = {e.get("theta") for e in cusp}
    expect_thetas = generic_thetas(q, n)
    items.append(("theta_set", thetas == expect_thetas,
                  f"{len(thetas)} thetas, expected the {len(expect_thetas)} with orbit size {n}"))
    sign = (-1) ** (n - 1)
    bad = [e for e in cusp if e.get("mult") != sign]
    items.append(("multiplicity_sign", bool(cusp) and not bad,
                  f"{len(bad)} of {len(cusp)} multiplicities differ from {sign}"))
    return items


def _formal_answers(q, report):
    checks = {c["name"]: c for c in report.get("checks", [])}
    results = report.get("results", {})
    items = []
    missing = [a for a in AXIOMS if "axiom_" + a not in checks]
    items.append(("axioms_present", not missing, f"missing {missing}"))

    F = results.get("F", {})
    ring = F.get("coeff_ring", {})
    N, f = ring.get("N"), ring.get("f")
    one = [[1] + [0] * (f - 1)] + [[0] * f] * (N - 1) if N and f else None
    terms = {tuple(t["exps"]): t["coeff"] for t in F.get("terms", [])}
    linear = {e: c for e, c in terms.items() if sum(e) <= 1}
    items.append(("linear_part", linear == {(1, 0): one, (0, 1): one},
                  f"degree <= 1 terms {sorted(linear)}"))
    asym = [e for e, c in terms.items() if terms.get(e[::-1]) != c]
    items.append(("symmetric_terms", bool(terms) and not asym,
                  f"{len(asym)} of {len(terms)} terms without a mirror"))

    teich = set()
    for key in results.get("scalars", {}):
        found = re.fullmatch(r"\('teich', (\d+)\)", key)
        if found:
            teich.add(int(found.group(1)))
    items.append(("teichmuller_scalars", teich == set(range(2, q)),
                  f"{len(teich)} Teichmuller scalars, expected {q - 2}"))
    return items


def _dl_answers(q, n, m, report):
    results = report.get("results", {})
    base = base_point_count(q, n, m)
    count = base * gcd(q ** n - 1, q ** m - 1)
    return [("base_count", results.get("base_count") == base,
             f"{results.get('base_count')}, Moebius {base}"),
            ("count", results.get("count") == count,
             f"{results.get('count')}, expected base * gcd = {count}")]


def known_answers(kind, params, report):
    """[(label, ok, details)] for one report of a workload of this kind."""
    if kind == "verify":
        return _verify_answers(params["q"], params["n"], report)
    if kind == "formal":
        return _formal_answers(params["q"], report)
    if kind == "dl":
        return _dl_answers(params["q"], params["n"], params["m"], report)
    raise ValueError(f"unknown workload kind {kind!r}")


class Verdict:
    """Accounting for one invocation: every check the report names, every
    check it omits, every known answer and the exit status."""

    def __init__(self, kind, params, exit_code, report_text):
        try:
            report = json.loads(report_text) if report_text.strip() else {}
        except ValueError:
            report = {}
        checks = report.get("checks", [])
        self.omitted = [o.get("check") for o in report.get("results", {}).get("omitted_checks", [])]
        self.failed_checks = [c["name"] for c in checks if c.get("status") == "fail"]
        if report:
            try:
                answers = known_answers(kind, params, report)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                answers = [("report_shape", False, f"{type(exc).__name__}: {exc}")]
        else:
            answers = [("report_present", False, "no JSON report on stdout")]
        self.mismatches = [f"{label}: {details}" for label, ok, details in answers if not ok]
        self.exit_code = exit_code
        # checks run = report checks + known answers + the exit status
        self.attempted = len(checks) + len(answers) + 1
        self.failed = len(self.failed_checks) + len(self.mismatches) + (exit_code != 0)

    @property
    def named(self):
        return self.attempted + len(self.omitted)

    @property
    def failure_numerator(self):
        return self.failed + len(self.omitted)
