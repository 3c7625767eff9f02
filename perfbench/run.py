"""Benchmark of the shopmission CLI on fixed-seed synthetic receipts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program measured is the checkout's
own ``src`` tree. Set-up (not timed as work) generates the workload's
``syngen`` datasets from ``--seed``.

``--trace 0`` runs the workload's CLI command as a child process in a closed
loop with one client for ``--seconds`` seconds, after one discarded warm-up
run, and reports the end-to-end metrics named in BENCHMARK.json.
``norm_wall_s`` is each timed run's wall time divided by a host-speed probe
timed around it (see probe.py): the median per dataset, averaged over the
workload's datasets; ``setup_s`` is normalized the same way.
``--trace 1`` runs ``shopmission.cli.main(argv)`` in child processes, plain
and traced in alternating order (at least two pairs), and reports the
per-layer metrics. Every run's outputs are checked; a run that exits
non-zero or fails its check counts in ``failed``.

The last line of standard output is the JSON result; machine facts and
diagnostics go to standard error. perfbench/selftest.py runs the same code
on tiny datasets.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

WINDOW = ["--window-start", "2025-01-01", "--window-end", "2025-03-31"]
CLI = [sys.executable, "-m", "shopmission.cli"]
CHILD_TIMEOUT_S = 150
# Timed CLI runs per dataset in a --trace 0 run, at least.
MIN_RUNS_PER_DATASET = 2
# The probe's time on an idle host (2-core Xeon VM, Python 3.11, numpy 2.4):
# norm_wall_s reads as wall seconds at that speed.
PROBE_REF_S = 0.1
# Customers per generated dataset at size "tiny" (self-test only).
TINY_CUSTOMERS = 150

# Planted-truth gates, as in the acceptance suite.
BASKET_PURITY_MIN = 0.90
CUSTOMER_PURITY_MIN = 0.85
PLANTED_K = 6
SM_ASSIGNMENTS = ["sm_baskets_assignments.csv", "sm_customers_assignments.csv"]
DATASET_SEED_STEP = 1_000_003


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------- host speed


class HostProbe:
    """perfbench/probe.py in a helper process, timed on request.

    It runs apart from this process because numpy would make this process
    larger than some CLI children, and a child's peak RSS counts the pages
    it shares with this process before it execs.
    """

    def __init__(self, env, cwd):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )

    def time_s(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the host-speed probe exited")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------- children


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


def run_child(cmd, env, cwd, log_path):
    """Run one child to completion; returns (wall_s, peak_rss_mb, exit_code).

    Peak RSS comes from the child's own rusage via wait4, not from
    RUSAGE_CHILDREN, which is a high-water mark over all children.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            env=env, cwd=cwd,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_tail(log_path, lines=5) -> str:
    text = Path(log_path).read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def machine_facts(env, cwd) -> dict:
    """Checks that children import shopmission from this checkout's src."""
    probe = (
        "import json, platform, numpy, shopmission\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'package_file': shopmission.__file__,"
        " 'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child interpreter probe failed: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout)
    package = Path(facts.pop("package_file")).resolve()
    if not package.is_relative_to(SRC.resolve()):
        raise SystemExit(f"shopmission resolves to {package}, not under {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f
                 if ln.startswith("model name")), cpu,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **facts}


# ---------------------------------------------------------------- checks


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_two_columns(path, key, value) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        return {row[key]: row[value] for row in csv.DictReader(f)}


def read_assignment(path) -> dict:
    return read_two_columns(path, "entity_id", "cluster")


def purity(found: dict, truth: dict) -> float:
    """(1/n) * sum over found clusters of the largest overlap with a truth
    class; computed here, independently of shopmission.validity."""
    if found.keys() != truth.keys():
        raise CheckFailed(
            f"assignment covers {len(found)} entities, truth {len(truth)}"
        )
    overlap = Counter((c, truth[e]) for e, c in found.items())
    best = Counter()
    for (cluster, _), n in overlap.items():
        best[cluster] = max(best[cluster], n)
    return sum(best.values()) / len(found)


def require_purity(found, truth, minimum, what):
    value = purity(found, truth)
    if value < minimum:
        raise CheckFailed(f"{what} purity {value:.4f} < {minimum}")


def sm_facts(data, out) -> dict:
    found = {name: read_assignment(out / name) for name in SM_ASSIGNMENTS}
    require_purity(
        found[SM_ASSIGNMENTS[0]],
        read_two_columns(data / "ground_truth_baskets.csv", "basket_id", "archetype"),
        BASKET_PURITY_MIN, "basket archetype",
    )
    require_purity(
        found[SM_ASSIGNMENTS[1]],
        read_two_columns(data / "ground_truth_customers.csv", "customer_id", "mission"),
        CUSTOMER_PURITY_MIN, "customer mission",
    )
    model = json.loads((out / "sm_model.json").read_text())
    return {
        "sha256": {name: sha256(out / name) for name in SM_ASSIGNMENTS},
        "q95": model["q95"],
        "inertia": [model["basket_model"]["inertia"],
                    model["customer_model"]["inertia"]],
    }


def select_k_facts(data, out) -> dict:
    # k_sweep.csv is parsed, never hashed: its davies_bouldin column is
    # free to change format.
    with open(out / "k_sweep.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    ks = [int(r["k"]) for r in rows]
    if ks != list(range(2, 13)):
        raise CheckFailed(f"k_sweep.csv has k = {ks}, expected 2..12")
    recommended = json.loads((out / "k_recommendation.json").read_text())
    if recommended["recommended_k"] != PLANTED_K:
        raise CheckFailed(
            f"recommended_k {recommended['recommended_k']} != {PLANTED_K}"
        )
    return {
        "recommended_k": recommended["recommended_k"],
        "k": ks,
        "inertia": [float(r["inertia"]) for r in rows],
    }


def compare_reference(facts: dict, ref: dict, rel_tol: float):
    """sha256, q95, k and recommended_k exactly; inertias within rel_tol."""
    for key, want in ref.items():
        got = facts[key]
        if key == "inertia":
            ok = len(got) == len(want) and all(
                abs(g - w) <= rel_tol * abs(w) for g, w in zip(got, want)
            )
        else:
            ok = got == want
        if not ok:
            raise CheckFailed(f"{key}: got {got}, reference {want}")


# ---------------------------------------------------------------- workloads


def work_dir(name) -> Path:
    """Scratch directory inside the checkout for datasets and outputs."""
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))


def remove_work_dir(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def syngen(data, seed, customers, env, cwd, log):
    cmd = CLI + ["syngen", "--out", str(data), "--seed", str(seed),
                 "--customers", str(customers)]
    _, _, code = run_child(cmd, env, cwd, log)
    if code != 0:
        raise SystemExit(f"syngen failed: {cli_tail(log)}")


def dataset_args(data):
    return ["--receipts", str(data / "receipts.csv"),
            "--categories", str(data / "categories.csv")] + WINDOW


def sm_argv(data, out):
    return ["sm"] + dataset_args(data) + [
        "--k-b", "6", "--k-sm", "9", "--seed", "42", "--out", str(out)]


def select_k_argv(data, out):
    return ["select-k"] + dataset_args(data) + [
        "--target", "basket", "--k-min", "2", "--k-max", "12",
        "--out", str(out)]


@dataclass
class Workload:
    name: str
    customers: int  # per generated dataset
    datasets: int  # drawn from the seed; timed runs take them in turn
    setup_reps: int  # set-ups per --trace 0 run; setup_s is their median
    argv: object
    facts: object
    calls: dict  # traced run: span name -> required call count


WORKLOADS = {
    w.name: w
    for w in [
        Workload("sm-2k", 2000, 1, 3, sm_argv, sm_facts,
                 {"txmodel.ingest_receipts": 1, "kmeans.kmeans_fit": 2}),
        # The summed Lloyd iterations, and so the work, differ by about 8%
        # between datasets; three datasets per run average that out.
        Workload("select-k-500", 500, 3, 3, select_k_argv, select_k_facts,
                 {"kmeans.kmeans_fit": 11,
                  "validity.between_variance_ratio": 11,
                  "validity.davies_bouldin": 11}),
    ]
}


class Bench:
    """One benchmark run: datasets, child runs, checks and the tally."""

    def __init__(self, workload: Workload, seed: int, size: str, work: Path,
                 reference):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.env = child_env(work)
        self.log = work / "cli.log"
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        # reference.json at its reference seed, else None: other seeds get
        # the planted-truth checks only.
        self.reference = reference
        self.datasets = []

    def fresh_dir(self, stem) -> Path:
        self.runs += 1
        return self.work / f"{stem}{self.runs}"

    def check(self, exit_code, index, out, extra=None) -> bool:
        """Count one program run on dataset ``index``; False (and counted
        failed) if it exited non-zero or its outputs fail the check."""
        self.attempted += 1
        try:
            if exit_code != 0:
                raise CheckFailed(f"exit code {exit_code}: {cli_tail(self.log)}")
            facts = self.workload.facts(self.datasets[index], out)
            if self.reference is not None:
                compare_reference(
                    facts, self.reference[self.size][self.workload.name][index],
                    self.reference["inertia_rel_tol"])
            if extra is not None:
                extra()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"{self.workload.name}: check failed: {exc}", file=sys.stderr)
            return False
        return True

    def setup(self) -> float:
        """Generate the workload's datasets, replacing any earlier ones;
        returns the time taken. Dataset i is drawn from seed + i * 1000003."""
        n = TINY_CUSTOMERS if self.size == "tiny" else self.workload.customers
        for data in self.datasets:
            shutil.rmtree(data, ignore_errors=True)
        self.datasets = [self.fresh_dir("data")
                         for _ in range(self.workload.datasets)]
        t0 = time.perf_counter()
        for i, data in enumerate(self.datasets):
            syngen(data, self.seed + i * DATASET_SEED_STEP, n, self.env,
                   self.work, self.log)
        return time.perf_counter() - t0

    def run_cli(self, index) -> tuple:
        out = self.fresh_dir("out")
        wall, rss, code = run_child(
            CLI + self.workload.argv(self.datasets[index], out),
            self.env, self.work, self.log)
        self.check(code, index, out)
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss

    def run_in_process(self, mode) -> dict:
        """One in-process CLI run on the first dataset."""
        out = self.fresh_dir("out")
        report_path = self.fresh_dir("report")
        cmd = [sys.executable, str(HERE / "traced.py"), mode,
               str(report_path), "--"] + self.workload.argv(self.datasets[0], out)
        wall, _, code = run_child(cmd, self.env, self.work, self.log)
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text())
        extra = self.check_calls(report) if mode == "traced" else None
        self.check(code, 0, out, extra=extra)
        shutil.rmtree(out, ignore_errors=True)
        report["wall_s"] = wall
        return report

    def check_calls(self, report):
        def check():
            package = Path(report["package_file"]).resolve()
            if not package.is_relative_to(SRC.resolve()):
                raise CheckFailed(f"traced run imported {package}")
            calls = report["calls"]
            for name, want in self.workload.calls.items():
                if calls.get(name, 0) != want:
                    raise CheckFailed(
                        f"traced run: {calls.get(name, 0)} calls of {name}, "
                        f"expected {want}")

        return check


# ---------------------------------------------------------------- metrics

LAYER_SPANS = {
    "txmodel.ingest_s": ["txmodel.ingest_receipts"],
    "txmodel.build_histories_s": ["txmodel.build_histories"],
    "txmodel.fingerprint_s": ["txmodel.Dataset.fingerprint"],
    "features.q95_s": ["features.compute_q95"],
    "features.basket_sm_s": ["features.basket_sm_features"],
    "features.customer_sm_s": ["features.customer_sm_features"],
    "kmeans.fit_s": ["kmeans.kmeans_fit"],
    "validity.select_k_self_s": ["validity.select_k"],
    "validity.metrics_s": ["validity.between_variance_ratio",
                           "validity.davies_bouldin"],
    "pipeline.run_sm_self_s": ["pipeline.run_sm"],
    "pipeline.write_s": ["pipeline.SegmentationReport.write",
                         "pipeline.SmPipelineModel.to_json"],
    "cli.manifest_s": ["cli.write_manifest"],
}


def layer_metrics(report: dict, rows: int) -> dict:
    """Per-layer figures of one traced run; times are self times."""
    self_s = report["self_s"]
    counts = report["counts"]
    m = {name: sum(self_s.get(s, 0.0) for s in spans)
         for name, spans in LAYER_SPANS.items()}
    m["txmodel.rows_per_s"] = rows / m["txmodel.ingest_s"]
    m["txmodel.baskets"] = counts.get("baskets", 0)
    m["txmodel.rss_after_ingest_mb"] = counts.get("rss_after_ingest_mb", 0.0)
    m["kmeans.fits"] = report["calls"].get("kmeans.kmeans_fit", 0)
    m["kmeans.restarts"] = counts.get("restarts", 0)
    m["kmeans.best_iters"] = counts.get("best_iters", 0)
    m["cli.import_s"] = report["import_s"]
    # The traced process's own wall minus everything its spans cover:
    # interpreter start, argument parsing and untraced CLI code.
    m["cli.other_s"] = (report["wall_s"] - report["import_s"]
                        - sum(self_s.values()))
    return m


def normalized(walls, probes) -> list:
    """Each wall time divided by the mean of the probe times just before and
    after it, in seconds at the probe's reference speed."""
    return [PROBE_REF_S * w / ((before + after) / 2)
            for w, before, after in zip(walls, probes, probes[1:])]


def end_to_end(bench: Bench, seconds: int) -> dict:
    """Set-ups, a warm-up and the timed closed loop, each timed against the
    host-speed probe."""
    workload = bench.workload
    n = workload.datasets
    probe = HostProbe(bench.env, bench.work)
    try:
        probe.time_s()  # warm-up, discarded
        setup_probes = [probe.time_s()]
        setups = []
        for _ in range(workload.setup_reps):
            setups.append(bench.setup())
            setup_probes.append(probe.time_s())
        bench.run_cli(0)  # warm-up, discarded
        probes = [probe.time_s()]
        samples = []
        start = time.perf_counter()
        while (len(samples) < MIN_RUNS_PER_DATASET * n
               or time.perf_counter() - start < seconds):
            samples.append(bench.run_cli(len(samples) % n))
            probes.append(probe.time_s())
    finally:
        probe.close()
    walls = [w for w, _ in samples]
    print(f"{workload.name}: set-ups (s): {' '.join(f'{t:.3f}' for t in setups)}; "
          f"probe around them (s): {' '.join(f'{p:.4f}' for p in setup_probes)}",
          file=sys.stderr)
    print(f"{workload.name}: timed runs (s), datasets in turn: "
          f"{' '.join(f'{w:.3f}' for w in walls)}; probe around them (s): "
          f"{' '.join(f'{p:.4f}' for p in probes)}", file=sys.stderr)
    wall = normalized(walls, probes)
    rss = [r for _, r in samples]

    def per_dataset(values):
        """Median on each dataset, averaged over the datasets."""
        return statistics.mean(statistics.median(values[i::n]) for i in range(n))

    return {
        "norm_wall_s": per_dataset(wall),
        "peak_rss_mb": per_dataset(rss),
        "setup_s": statistics.median(normalized(setups, setup_probes)),
    }


def per_layer(bench: Bench, seconds: int) -> dict:
    """Plain and traced in-process runs in alternating order, at least two
    pairs, on the first dataset."""
    bench.setup()
    bench.run_cli(0)  # warm-up, discarded
    plain, traced = [], []
    pairs = 0
    start = time.perf_counter()
    while pairs < 2 or time.perf_counter() - start < seconds:
        order = ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain")
        pairs += 1
        for mode in order:
            report = bench.run_in_process(mode)
            if "main_s" in report:
                (plain if mode == "plain" else traced).append(report)
    with open(bench.datasets[0] / "receipts.csv", "rb") as f:
        rows = sum(1 for _ in f) - 1
    per_run = [layer_metrics(r, rows) for r in traced if "self_s" in r]
    if not per_run or not plain:
        raise SystemExit("no traced run produced a report")
    values = {name: statistics.median(m[name] for m in per_run)
              for name in per_run[0]}
    values["trace.overhead_s"] = (
        statistics.median(r["main_s"] for r in traced)
        - statistics.median(r["main_s"] for r in plain))
    return values


def benchmark(workload: Workload, seed: int, seconds: int, trace: bool,
              size: str = "full") -> dict:
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    if seed != reference["reference_seed"]:
        reference = None
    work = work_dir(workload.name)
    try:
        bench = Bench(workload, seed, size, work, reference)
        facts = machine_facts(bench.env, work)
        print(f"machine: {json.dumps(facts)}", file=sys.stderr)
        if trace:
            values, wanted = per_layer(bench, seconds), spec["per_layer"]
        else:
            values, wanted = end_to_end(bench, seconds), spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        return {"correct": bench.failed == 0, "attempted": bench.attempted,
                "failed": bench.failed, "metrics": metrics}
    finally:
        remove_work_dir(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "shopmission" / "__init__.py").is_file():
        print(f"error: no shopmission package under {SRC}", file=sys.stderr)
        return 2
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
