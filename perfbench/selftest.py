"""Self-test of the benchmark at tiny dataset sizes (about a minute):

    python3 perfbench/selftest.py

1. Runs every workload with --trace 0 and --trace 1 at the reference seed
   and prints each metric by name with its unit; every program run must
   pass its output check and the traced runs their call-count check.
2. Flips one basket's cluster in an sm output and shows that the output
   check counts that run as failed.

Exits 0 when both parts behave as stated.
"""

from __future__ import annotations

import json
import sys

import run


def run_workloads(seed) -> bool:
    ok = True
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.benchmark(workload, seed, 1, trace, size="tiny")
            print(f"{name} --trace {int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:30s} {value['value']:14.6g} {value['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    return ok


def flipped_assignment_fails(seed, reference) -> bool:
    workload = run.WORKLOADS["sm-2k"]
    work = run.work_dir("selftest")
    try:
        bench = run.Bench(workload, seed, "tiny", work, reference)
        bench.setup()
        out = bench.fresh_dir("out")
        _, _, code = run.run_child(
            run.CLI + workload.argv(bench.datasets[0], out),
            bench.env, work, bench.log)
        clean = bench.check(code, 0, out)
        path = out / run.SM_ASSIGNMENTS[0]
        lines = path.read_bytes().split(b"\r\n")  # csv module line ends
        entity, cluster = lines[1].decode().split(",")
        lines[1] = f"{entity},{(int(cluster) + 1) % 6}".encode()
        path.write_bytes(b"\r\n".join(lines))
        flipped = bench.check(code, 0, out)
        print(f"clean output passes: {clean}; flipped assignment of "
              f"{entity} passes: {flipped}; failed={bench.failed} of "
              f"attempted={bench.attempted} "
              f"(error rate {bench.failed / bench.attempted:.2f})")
        return clean and not flipped and bench.failed == 1
    finally:
        run.remove_work_dir(work)


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())
    seed = reference["reference_seed"]
    ok = run_workloads(seed)
    ok = flipped_assignment_fails(seed, reference) and ok
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
