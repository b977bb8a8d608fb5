"""Traced ltdl invocation: one fresh process that wraps the public layer
functions, runs the CLI entry point in-process and prints one JSON object
with the exit code, the report, the spans and the counters.

Usage (from the repository root, with src on PYTHONPATH):
    python3 bench/trace_child.py RUN_ID ltdl-argument...

Spans stay in memory until the run ends.  A span holds its name, start,
end, parent index and the run id.  A wrapped name that no longer exists in
the code under test is listed under "absent" instead of failing the run.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

MODULES = ("ffield", "witt", "cyclo", "series", "linalg", "formal_modules", "depth0",
           "dl_variety", "gl_characters", "cli")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _f_terms(counters, fn, args, kwargs, result):
    counters["formal_modules.F_terms"] = len(result.F.terms)


def _gl_visited(counters, fn, args, kwargs, result):
    key = "depth0.gl_elements_visited"
    counters[key] = counters.get(key, 0) + len(_bound(fn, args, kwargs)["matrices"])


def _calls(key):
    def hook(counters, fn, args, kwargs, result):
        counters[key] = counters.get(key, 0) + 1
    return hook


def _group_shape(counters, fn, args, kwargs, result):
    group = args[0]
    counters["gl_characters.num_classes"] = group.num_classes
    counters["gl_characters.exponent"] = group.exponent


def _dl_points(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = a["m"]
    found = result if isinstance(result, int) else len(result)
    enumerated = f"dl_variety.points_enumerated.m{m}"
    counters[enumerated] = counters.get(enumerated, 0) + a["q"] ** (m * a["n"])
    counters[f"dl_variety.points_found.m{m}"] = (
        counters.get(f"dl_variety.points_found.m{m}", 0) + found)


def _action_triples(counters, fn, args, kwargs, result):
    key = f"dl_variety.action_triples.m{_bound(fn, args, kwargs)['m']}"
    counters[key] = counters.get(key, 0) + result


# (span name, module, attribute path, counter hook)
TARGETS = (
    ("formal_modules.lubin_tate_module", "formal_modules", "lubin_tate_module", _f_terms),
    ("formal_modules.verify_module_axioms", "formal_modules", "verify_module_axioms", None),
    ("formal_modules.scalar_table", "formal_modules", "FormalModule.scalar_table", None),
    ("depth0.special_fiber_components", "depth0", "special_fiber_components", None),
    ("depth0.build_P", "depth0", "build_P", None),
    ("depth0.blowup_chart", "depth0", "blowup_chart", None),
    ("depth0.iterated_chart", "depth0", "iterated_chart", None),
    ("depth0.un_special_fiber", "depth0", "un_special_fiber", None),
    ("depth0.gl_linear_shadow", "depth0", "gl_linear_shadow_check", _gl_visited),
    ("linalg.invertible_matrices", "linalg", "invertible_matrices", None),
    ("dl_variety.twisted_sum", "dl_variety", "twisted_sum_check", None),
    ("dl_variety.twisted_count", "dl_variety", "twisted_count",
     _calls("dl_variety.twisted_count_calls")),
    ("dl_variety.dl_points", "dl_variety", "dl_points", _dl_points),
    ("dl_variety.base_points", "dl_variety", "base_points", None),
    ("dl_variety.fiber_structure", "dl_variety", "fiber_structure_check", None),
    ("dl_variety.action_invariance", "dl_variety", "action_invariance_check", _action_triples),
    ("ffield.tables", "ffield", "FieldDesc.tables", _calls("ffield.tables_calls")),
    ("gl_characters.GLGroup", "gl_characters", "GLGroup.__init__", _group_shape),
    ("gl_characters.dixon_table", "gl_characters", "dixon_table", None),
    ("gl_characters.steinberg", "gl_characters", "steinberg", None),
    ("gl_characters.correspondence_report", "gl_characters", "correspondence_report", None),
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counters = {}
        self.hook_errors = []

    def span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = {"name": name, "start": time.perf_counter(), "end": None,
                      "parent": self.stack[-1] if self.stack else None, "run": self.run_id}
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result
        return traced


def install(tracer, modules):
    """Wrap every target; returns the span names whose target is missing."""
    absent = []
    for name, module_name, path, hook in TARGETS:
        owner = modules[module_name]
        *owner_path, attr = path.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            absent.append(name)
            continue
        wrapped = tracer.span(name, original, hook)
        if owner_path:
            setattr(owner, attr, wrapped)
            continue
        # rebind the name wherever a module imported it (from x import f)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "ltdl"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return absent


def main(argv):
    run_id, cli_argv = argv[0], argv[1:]
    modules = {name: importlib.import_module(f"ltdl.{name}") for name in MODULES}
    tracer = Tracer(run_id)
    absent = install(tracer, modules)
    main_span = tracer.span("cli.main", modules["cli"].main)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = main_span(cli_argv)
    json.dump({"exit": exit_code, "report": buffer.getvalue(), "spans": tracer.spans,
               "counters": tracer.counters, "absent": absent,
               "hook_errors": tracer.hook_errors}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
