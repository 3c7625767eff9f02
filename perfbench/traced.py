"""Run ``shopmission.cli.main(argv)`` in this process, optionally traced.

Usage (the repository's ``src`` must be on PYTHONPATH):

    python3 perfbench/traced.py {plain|traced} REPORT.json -- CLI ARGS...

``plain`` runs the CLI untouched; ``traced`` first wraps the public functions
of each layer module and records a span around every call. Either way the
report holds the import time of ``shopmission.cli``, the wall time of
``main(argv)`` and its exit code; a traced report adds per-function call
counts, self times and a few counts taken from arguments and results.
The process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every function wrapped in a traced run. Names that a
# module no longer defines are skipped; the call-count check in run.py then
# reports a missing function as zero calls.
TARGETS = [
    ("txmodel", "ingest_receipts"),
    ("txmodel", "build_histories"),
    ("txmodel", "Dataset.fingerprint"),
    ("features", "compute_q95"),
    ("features", "basket_sm_features"),
    ("features", "customer_sm_features"),
    ("kmeans", "kmeans_fit"),
    ("validity", "select_k"),
    ("validity", "between_variance_ratio"),
    ("validity", "davies_bouldin"),
    ("pipeline", "run_sm"),
    ("pipeline", "SegmentationReport.write"),
    ("pipeline", "SmPipelineModel.to_json"),
    ("cli", "write_manifest"),
]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        calls = Counter()
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts)}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_ingest(counts, args, kwargs, dataset):
    counts["baskets"] += dataset.n_baskets
    # Peak RSS of this process so far: at this point, ingest's own peak.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts["rss_after_ingest_mb"] = max(
        counts["rss_after_ingest_mb"], peak_kb / 1024.0
    )


def _after_fit(fn):
    def record(counts, args, kwargs, result):
        counts["restarts"] += _bound(fn, args, kwargs)["n_init"]
        counts["best_iters"] += result[0].iterations_run

    return record


def install(tracer: Tracer) -> None:
    """Wrap every target on its defining module or class and on every
    ``shopmission`` module that imported the function by name."""
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "shopmission" or name.startswith("shopmission.")
    }
    for module_name, attr in TARGETS:
        module = modules.get(f"shopmission.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, method):
            continue
        span_name = f"{module_name}.{attr}"
        if owner_name:
            setattr(owner, method, tracer.wrap(span_name, owner.__dict__[method]))
            continue
        original = getattr(module, method)
        hook = {
            "ingest_receipts": _after_ingest,
            "kmeans_fit": _after_fit(original),
        }.get(method)
        wrapper = tracer.wrap(span_name, original, hook)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


def main(argv) -> int:
    mode, report_path, sep, *cli_argv = argv
    if mode not in ("plain", "traced") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import shopmission
    import shopmission.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if mode == "traced":
        install(tracer)
    t1 = time.perf_counter()
    code = shopmission.cli.main(cli_argv)
    main_s = time.perf_counter() - t1
    report = {
        "package_file": shopmission.__file__,
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
    }
    if mode == "traced":
        report.update(tracer.summary())
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
