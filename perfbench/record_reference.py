"""Write perfbench/reference.json: the output digests of every workload at
the reference seed, at both sizes, from the checkout's current program.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json

import run

REFERENCE_SEED = 1
# Lets k-means reorder its float reductions without a digest change.
INERTIA_REL_TOL = 1e-9


def record(workload, size) -> list:
    """The output facts of each of the workload's datasets."""
    work = run.work_dir(workload.name)
    try:
        bench = run.Bench(workload, REFERENCE_SEED, size, work, None)
        bench.setup()
        facts = []
        for data in bench.datasets:
            out = bench.fresh_dir("out")
            _, _, code = run.run_child(
                run.CLI + workload.argv(data, out), bench.env, work, bench.log)
            if code != 0:
                raise SystemExit(f"{workload.name}: {run.cli_tail(bench.log)}")
            facts.append(workload.facts(data, out))
        return facts
    finally:
        run.remove_work_dir(work)


def main():
    doc = {"reference_seed": REFERENCE_SEED, "inertia_rel_tol": INERTIA_REL_TOL}
    for size in ("tiny", "full"):
        doc[size] = {name: record(w, size) for name, w in run.WORKLOADS.items()}
    run.REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
