"""Per-layer tracing for the benchmark's traced rounds.

The tracer replaces omp_sharp's public functions, at the names their callers
import, with wrappers that record one span per call: layer, start, end, the
enclosing span and the job it belongs to.  Spans stay in memory and are
written once, when the run ends.  The wrappers are installed only for traced
rounds, so untraced rounds run the program's own functions.
"""

import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict


def _iterations(args, kwargs, result):
    return {"iterations": len(result.iterations)}


def _subsets(args, kwargs, result):
    A = kwargs.get("A", args[0] if args else None)
    K = kwargs.get("K", args[1] if len(args) > 1 else None)
    return {"subsets": math.comb(len(A[0]), K)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(kwargs.get("text", args[0] if args else ""))}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


#: (module, attribute, layer, counter): every name through which a caller
#: reaches a layer.  ``cli.main`` is the name the benchmark itself calls.
TARGETS = [
    ("omp_sharp.cli", "main", "cli", None),
    ("omp_sharp.cli", "write_experiment_outputs", "experiments", None),
    ("omp_sharp.omp", "run_omp", "omp.run_omp", _iterations),
    ("omp_sharp.experiments", "run_omp", "omp.run_omp", _iterations),
    ("omp_sharp.cli", "run_omp", "omp.run_omp", _iterations),
    ("omp_sharp.omp", "least_squares", "linalg.least_squares", None),
    ("omp_sharp.linalg", "least_squares", "linalg.least_squares", None),
    ("omp_sharp.rip", "exact_ric", "rip.exact_ric", _subsets),
    ("omp_sharp.experiments", "exact_ric", "rip.exact_ric", _subsets),
    ("omp_sharp.cli", "exact_ric", "rip.exact_ric", _subsets),
    ("omp_sharp.instances", "exact_ric", "rip.exact_ric", _subsets),
    ("omp_sharp.instances", "random_matrix_with_ric", "instances.random_matrix_with_ric", None),
    ("omp_sharp.instances", "sample_l2_noise", "instances.noise", None),
    ("omp_sharp.instances", "sample_linf_noise", "instances.noise", None),
    ("omp_sharp.instances", "lemma1_gap", "instances.lemma1_gap", None),
    ("omp_sharp.cli", "parse_matrix_text", "serialize.parse_matrix_text", _text_bytes),
    ("omp_sharp.serialize", "parse_matrix_text", "serialize.parse_matrix_text", _text_bytes),
    ("omp_sharp.omp", "OmpTrace.to_json_dict", "serialize.trace_json", None),
    ("omp_sharp.cli", "dumps_json", "serialize.trace_json", _result_bytes),
    ("omp_sharp.experiments", "write_csv", "serialize.write_csv", _file_bytes),
]

#: Per-layer metrics: name -> (unit, better).  Counts and busy times are per
#: traced round, so they do not grow with the number of rounds a run fits.
METRICS = {
    "omp.run_omp.calls": ("count", "lower"),
    "omp.run_omp.busy_s": ("s", "lower"),
    "omp.run_omp.iterations": ("count", "lower"),
    "omp.run_omp.us_per_iteration": ("us", "lower"),
    "linalg.least_squares.calls": ("count", "lower"),
    "linalg.least_squares.busy_s": ("s", "lower"),
    "rip.exact_ric.calls": ("count", "lower"),
    "rip.exact_ric.busy_s": ("s", "lower"),
    "rip.exact_ric.subsets": ("count", "higher"),
    "rip.exact_ric.subsets_per_s": ("1/s", "higher"),
    "instances.random_matrix_with_ric.busy_s": ("s", "lower"),
    "instances.noise.busy_s": ("s", "lower"),
    "instances.lemma1_gap.busy_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "serialize.parse_matrix_text.busy_s": ("s", "lower"),
    "serialize.parse_matrix_text.bytes": ("bytes", "lower"),
    "serialize.trace_json.busy_s": ("s", "lower"),
    "serialize.trace_json.bytes": ("bytes", "lower"),
    "serialize.write_csv.busy_s": ("s", "lower"),
    "serialize.write_csv.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a traced round."""

    def __init__(self):
        self.spans = []  # [span_id, parent_id, job, layer, start, end, counters]
        self.missing = []
        self._stack = []
        self._job = None
        self._originals = []

    def _wrap(self, layer, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span_id, parent, tracer._job, layer, time.perf_counter(), None, None]
            tracer.spans.append(record)
            tracer._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                record[6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attribute, layer, counter in TARGETS:
            try:
                owner, name = _resolve(module_name, attribute)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                if (module_name, attribute) not in self.missing:
                    self.missing.append((module_name, attribute))
                    print(f"trace: {module_name}.{attribute} not found; not traced",
                          file=sys.stderr)
                continue
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, counter))

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []

    def job(self, job_id, fn):
        """Run ``fn`` as the root span, layer "job", of job ``job_id``."""
        self._job = job_id
        try:
            return self._wrap("job", fn, None)()
        finally:
            self._job = None

    def layer_metrics(self, rounds, overhead_pct):
        """Per-layer metrics, each count and time divided by the traced rounds."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child_time = defaultdict(float)
        counts = defaultdict(float)
        for span_id, parent, _, layer, start, end, counters in self.spans:
            calls[layer] += 1
            busy[layer] += end - start
            if parent is not None:
                child_time[parent] += end - start
            for key, value in (counters or {}).items():
                counts[f"{layer}.{key}"] += value
        own = defaultdict(float)
        for span_id, _, _, layer, start, end, _ in self.spans:
            own[layer] += (end - start) - child_time[span_id]
        per_round = 1.0 / max(rounds, 1)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        values = {
            "omp.run_omp.calls": calls["omp.run_omp"] * per_round,
            "omp.run_omp.busy_s": busy["omp.run_omp"] * per_round,
            "omp.run_omp.iterations": counts["omp.run_omp.iterations"] * per_round,
            "omp.run_omp.us_per_iteration": 1e6 * rate(busy["omp.run_omp"],
                                                       counts["omp.run_omp.iterations"]),
            "linalg.least_squares.calls": calls["linalg.least_squares"] * per_round,
            "linalg.least_squares.busy_s": busy["linalg.least_squares"] * per_round,
            "rip.exact_ric.calls": calls["rip.exact_ric"] * per_round,
            "rip.exact_ric.busy_s": busy["rip.exact_ric"] * per_round,
            "rip.exact_ric.subsets": counts["rip.exact_ric.subsets"] * per_round,
            "rip.exact_ric.subsets_per_s": rate(counts["rip.exact_ric.subsets"],
                                                busy["rip.exact_ric"]),
            "instances.random_matrix_with_ric.busy_s":
                busy["instances.random_matrix_with_ric"] * per_round,
            "instances.noise.busy_s": busy["instances.noise"] * per_round,
            "instances.lemma1_gap.busy_s": busy["instances.lemma1_gap"] * per_round,
            "experiments.self_s": own["experiments"] * per_round,
            "serialize.parse_matrix_text.busy_s": busy["serialize.parse_matrix_text"] * per_round,
            "serialize.parse_matrix_text.bytes":
                counts["serialize.parse_matrix_text.bytes"] * per_round,
            "serialize.trace_json.busy_s": busy["serialize.trace_json"] * per_round,
            "serialize.trace_json.bytes": counts["serialize.trace_json.bytes"] * per_round,
            "serialize.write_csv.busy_s": busy["serialize.write_csv"] * per_round,
            "serialize.write_csv.bytes": counts["serialize.write_csv.bytes"] * per_round,
            "cli.self_s": own["cli"] * per_round,
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["span", "parent", "job", "layer", "start", "end", "counters"],
                "untraced_names": [f"{m}.{a}" for m, a in self.missing],
                "spans": self.spans,
            }, fh)
