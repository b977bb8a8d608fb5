"""Fresh-process time-to-verdict benchmark for the ltdl CLI.

Closed loop, one client: each invocation is a fresh interpreter running
`python -m ltdl.cli ...` on the source under test, and the next one starts
only after the previous one has exited.  A fresh process is required, since
ltdl caches fields, embeddings and Q x Q tables for the life of a process,
and every CLI user pays for building them.

Usage, from the repository root:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --self-test

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
one traced process (see trace_child.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The inputs are fixed (q, n, m) configurations because the program is
deterministic; --seed permutes the order of workloads and of the
invocations within a run.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from answers import Verdict, base_point_count, gaussian_binomial
from trace_child import TARGETS


class Workload(NamedTuple):
    kind: str
    params: dict
    argv: list


# why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {
    "verify-q2n3": Workload("verify", {"q": 2, "n": 3}, ["verify-all", "--q", "2", "--n", "3"]),
    "verify-q5n2": Workload("verify", {"q": 5, "n": 2}, ["verify-all", "--q", "5", "--n", "2"]),
    "formal-q64n1": Workload("formal", {"q": 64, "n": 1},
                             ["formal-group", "--q", "64", "--n", "1"]),
    "dl-q16n2m2": Workload("dl", {"q": 16, "n": 2, "m": 2},
                           ["dl", "count", "--q", "16", "--n", "2", "--m", "2"]),
}
# quick configuration for --self-test only
SELF_TEST = Workload("verify", {"q": 2, "n": 2}, ["verify-all", "--q", "2", "--n", "2"])
SETUP_ARGV = ["--version"]  # imports every ltdl module, then exits
KNOWN_DEFECT = ["verify-all", "--q", "4", "--n", "1"]
SETUP_PROBES = 9  # shuffled among the timed invocations, so they span the run
# a second timed invocation narrows the spread between runs; the machine's
# slow drift, which both invocations of a run share, stays
MIN_INVOCATIONS = 2
RUN_LIMIT_S = 170.0  # hard stop for one benchmark process

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"),
              ("check_pass_share", "ratio"))


def _per_layer():
    out = []
    for name, *_ in TARGETS:
        out += [(f"{name}_s", "s", "lower"), (f"{name}_self_s", "s", "lower")]
    out += [("formal_modules.F_terms", "count", "higher"),
            ("depth0.gl_elements_visited", "count", "lower"),
            ("dl_variety.twisted_count_calls", "count", "lower"),
            ("ffield.tables_calls", "count", "lower"),
            ("gl_characters.num_classes", "count", "higher"),
            ("gl_characters.exponent", "count", "higher")]
    for m in (1, 2):
        out += [(f"dl_variety.points_enumerated.m{m}", "count", "lower"),
                (f"dl_variety.points_found.m{m}", "count", "higher"),
                (f"dl_variety.hit_ratio.m{m}", "ratio", "higher"),
                (f"dl_variety.action_triples.m{m}", "count", "lower")]
    out.append(("tracing_overhead_s", "s", "lower"))
    return tuple(out)


PER_LAYER = _per_layer()


class Sample(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Runner:
    """Spawns one child at a time and times it from spawn to exit."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, args):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, out.decode(), err[0].decode())

    def ltdl(self, argv):
        return self.spawn(["-m", "ltdl.cli", *argv])

    def traced(self, run_id, argv):
        return self.spawn([str(self.root / "bench" / "trace_child.py"), run_id, *argv])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Tally:
    """Sums Verdicts over the invocations of one run."""

    def __init__(self):
        self.attempted = self.failed = self.named = self.numerator = 0
        self.omitted = set()
        self.problems = []

    def add(self, verdict):
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.named += verdict.named
        self.numerator += verdict.failure_numerator
        self.omitted.update(verdict.omitted)
        self.problems += [f"check failed: {c}" for c in verdict.failed_checks]
        self.problems += [f"known-answer mismatch: {m}" for m in verdict.mismatches]
        if verdict.exit_code != 0:
            self.problems.append(f"exit code {verdict.exit_code}")

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.named += other.named
        self.numerator += other.numerator

    def describe(self):
        share = self.numerator / self.named
        return (f"check_failure_share {share:.6f} ratio ({self.numerator} of {self.named} "
                f"checks named; {self.failed} failed, {len(self.omitted)} distinct omitted: "
                f"{sorted(self.omitted)})")


def _known_defect(runner):
    s = runner.ltdl(KNOWN_DEFECT)
    first = s.stderr.strip().splitlines()[:1]
    return {"invocation": "verify-all --q 4 --n 1", "exit": s.exit_code,
            "stderr": first[0] if first else ""}


def measure(runner, name, wl, rng, seconds):
    """Untraced run: timed invocations plus set-up probes, in seeded order."""
    runner.ltdl(SETUP_ARGV)  # warm-up: writes bytecode caches, not timed
    tasks = ["setup"] * SETUP_PROBES + ["defect"] + ["invoke"] * MIN_INVOCATIONS
    rng.shuffle(tasks)
    samples, setups, tally, defect = [], [], Tally(), None
    started = time.monotonic()

    def invoke():
        s = runner.ltdl(wl.argv)
        samples.append(s)
        tally.add(Verdict(wl.kind, wl.params, s.exit_code, s.stdout))

    for task in tasks:
        if task == "setup":
            setups.append(runner.ltdl(SETUP_ARGV).wall)
        elif task == "defect":
            defect = _known_defect(runner)
        else:
            invoke()
    # more invocations while one more is expected to end within the budget
    while time.monotonic() - started + statistics.mean(s.wall for s in samples) <= seconds:
        invoke()

    values = {"wall_s": [s.wall for s in samples], "cpu_s": [s.cpu for s in samples],
              "peak_rss_mb": [s.rss_mb for s in samples], "setup_s": setups}
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["check_pass_share"] = 1.0 - tally.numerator / tally.named
    print(f"workload {name}: {len(samples)} timed invocation(s) of ltdl {' '.join(wl.argv)}")
    for key, unit in END_TO_END:
        if key in values:
            q1, med, q3 = quartiles(values[key])
            print(f"  {key:18s} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n={len(values[key])}")
    print(f"  {tally.describe()}")
    print(f"  check_pass_share   {metrics['check_pass_share']:.6f} ratio")
    for problem in tally.problems:
        print(f"  PROBLEM {problem}")
    print(f"  known_defects: {json.dumps(defect)}")
    return metrics, tally


def layer_times(spans):
    """Inclusive and self seconds per span name.

    Self time is a span's duration minus the time its child spans cover.  A
    span nested inside a span of the same name adds no inclusive time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    inclusive, own = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        own[s["name"]] += duration - covered[i]
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] != s["name"]:
            parent = spans[parent]["parent"]
        if parent is None:
            inclusive[s["name"]] += duration
    return inclusive, own


def trace(runner, name, wl, rng, run_id):
    """One untraced and one traced fresh process, in seeded order."""
    runner.ltdl(SETUP_ARGV)  # warm-up: writes bytecode caches, not timed
    order = ["plain", "traced"]
    rng.shuffle(order)
    tally, plain, traced, child = Tally(), None, None, {}
    for kind in order:
        if kind == "plain":
            plain = runner.ltdl(wl.argv)
            tally.add(Verdict(wl.kind, wl.params, plain.exit_code, plain.stdout))
            continue
        traced = runner.traced(run_id, wl.argv)
        try:
            child = json.loads(traced.stdout)
        except ValueError:
            child = {}
        tally.add(Verdict(wl.kind, wl.params, child.get("exit", traced.exit_code),
                          child.get("report", "")))
    inclusive, own = layer_times(child.get("spans", []))
    counters = child.get("counters", {})
    metrics = {}
    for target, *_ in TARGETS:
        metrics[f"{target}_s"] = inclusive.get(target, 0.0)
        metrics[f"{target}_self_s"] = own.get(target, 0.0)
    for key, unit, _ in PER_LAYER:
        if unit == "count":
            metrics[key] = counters.get(key, 0)
    for m in (1, 2):
        enumerated = counters.get(f"dl_variety.points_enumerated.m{m}", 0)
        found = counters.get(f"dl_variety.points_found.m{m}", 0)
        metrics[f"dl_variety.hit_ratio.m{m}"] = found / enumerated if enumerated else 0.0
    metrics["tracing_overhead_s"] = traced.wall - plain.wall

    layers = [t for t, *_ in TARGETS if inclusive.get(t)]
    print(f"workload {name}: traced run {run_id}, traced total {traced.wall:.4f} s, "
          f"untraced wall {plain.wall:.4f} s")
    for target in sorted(layers, key=lambda t: -inclusive[t]):
        print(f"  {target + '_s':42s} {inclusive[target]:10.4f} s  self {own[target]:10.4f} s")
    if layers:
        print(f"  largest span: {max(layers, key=lambda t: inclusive[t])}_s")
    for m in (1, 2):
        enumerated = counters.get(f"dl_variety.points_enumerated.m{m}", 0)
        if enumerated:
            print(f"  dl_variety m={m}: {counters.get(f'dl_variety.points_found.m{m}', 0)} "
                  f"points found of {enumerated} enumerated (q^(m*n), computed)")
    # the metrics of a wrapped name missing from the code under test, or of a
    # counter that could not be read, read 0 and are listed here
    print(f"  absent: {child.get('absent', []) + child.get('hook_errors', [])}")
    print(f"  {tally.describe()}")
    for problem in tally.problems:
        print(f"  PROBLEM {problem}")
    return metrics, tally


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_benchmark(root, names, seed, seconds, traced):
    rng = random.Random(seed)
    names = list(names)
    rng.shuffle(names)
    total, metrics, units = Tally(), {}, {}
    spec = ([(k, u) for k, u, _ in PER_LAYER] if traced else list(END_TO_END))
    prefix = len(names) > 1
    for name in names:
        wl = WORKLOADS[name]
        runner = Runner(root)  # the time limit holds for each workload
        if traced:
            got, tally = trace(runner, name, wl, rng, f"{name}:{seed}")
        else:
            got, tally = measure(runner, name, wl, rng, seconds)
        for key, unit in spec:
            full = f"{name}.{key}" if prefix else key
            metrics[full], units[full] = got[key], unit
        total.merge(tally)
    return result_line(total, metrics, units)


# -- self-test --------------------------------------------------------------------


def _doctored(report, change):
    out = json.loads(json.dumps(report))
    change(out)
    return json.dumps(out)


def self_test(root):
    failures = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    print("self-test: known answers")
    for q, n, m in [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 4), (5, 2, 2), (16, 2, 2)]:
        product = 1
        for i in range(n):
            product *= q ** m - q ** i
        expect(base_point_count(q, n, m) == product // (q ** m - 1),
               f"Moebius base count at ({q},{n},{m}) equals prod (q^m - q^i)/(q^m - 1)")
    expect(gaussian_binomial(4, 2, 2) == 35, "[4 choose 2]_2 = 35")

    print("self-test: the gate on the fixture report of verify-all --q 2 --n 2")
    fixture_text = (root / "bench" / "fixtures" / "verify-q2n2.json").read_text()
    fixture = json.loads(fixture_text)
    clean = Verdict("verify", SELF_TEST.params, 0, fixture_text)
    expect(clean.failed == 0 and not clean.omitted, "the fixture passes the gate")

    def fail_check(r):
        r["checks"][0]["status"] = "fail"

    def census(r):
        c = next(c for c in r["checks"] if c["name"] == "depth0.component_census")
        c["details"] = "4" + c["details"][1:]

    def drop_pi(r):
        r["results"]["cuspidal_part"] = r["results"]["cuspidal_part"][:-1]

    def flip_sign(r):
        r["results"]["cuspidal_part"][0]["mult"] *= -1

    def base(r):
        c = next(c for c in r["checks"] if c["name"] == "dl.base_points_m2")
        c["details"] = c["details"].replace("base 2", "base 3")

    def omit(r):
        r["checks"] = [c for c in r["checks"] if c["name"] != "dl.twisted_sum_m2"]
        r["results"]["omitted_checks"] = [{"check": "dl.twisted_sum_m2", "reason": "budget"}]

    for label, change in [("a failing check", fail_check), ("a wrong census", census),
                          ("a missing cuspidal pi", drop_pi), ("a wrong sign", flip_sign),
                          ("a wrong base count", base)]:
        v = Verdict("verify", SELF_TEST.params, 0, _doctored(fixture, change))
        expect(v.failed > 0, f"the gate rejects {label}")
    v = Verdict("verify", SELF_TEST.params, 0, _doctored(fixture, omit))
    expect(v.failure_numerator == clean.failure_numerator + 1,
           "an omitted check counts in check_failure_share")
    v = Verdict("verify", SELF_TEST.params, 2, "")
    expect(v.failed == 2, "a crash without a report fails the exit and the report")

    print("self-test: end-to-end and traced runs of verify-all --q 2 --n 2")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    expect({w["name"] for w in declared["workloads"]} <= set(WORKLOADS),
           "every workload of BENCHMARK.json is defined")
    runner = Runner(root)
    rng = random.Random(0)
    metrics, tally = measure(runner, "self-test", SELF_TEST, rng, 1)
    line = json.loads(result_line(tally, metrics, dict(END_TO_END)))
    for entry in declared["end_to_end"]:
        got = line["metrics"].get(entry["name"], {})
        expect(got.get("unit") == entry["unit"] and isinstance(got.get("value"), float),
               f"end-to-end {entry['name']} printed with unit {entry['unit']}")
    expect(line["correct"] and line["failed"] == 0, "verify-all --q 2 --n 2 passes the gate")
    metrics, tally = trace(runner, "self-test", SELF_TEST, rng, "self-test:0")
    units = {k: u for k, u, _ in PER_LAYER}
    declared_layer = {e["name"]: e["unit"] for e in declared["per_layer"]}
    expect(declared_layer == units, "BENCHMARK.json per_layer matches the traced metrics")
    expect(set(metrics) == set(units), "every per-layer metric is reported")
    expect(metrics["formal_modules.verify_module_axioms_s"] > 0
           and metrics["dl_variety.twisted_count_calls"] == 6,
           "the traced run records spans and counters")
    expect(tally.failed == 0, "the traced report passes the gate")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ltdl" / "cli.py").is_file():
        print(f"error: no ltdl source under {root / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(run_benchmark(root, names, args.seed, args.seconds, args.trace == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
