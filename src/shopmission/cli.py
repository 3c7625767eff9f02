"""Command-line front end for batch segmentation runs.

Exit codes: 0 success, 1 validation/data error, 2 usage error. Diagnostics
go to stderr; data only to files or stdout. Every output directory gets a
run manifest recording inputs, config and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import date, datetime
from pathlib import Path

from . import __version__
from .features import FeatureError
from .kmeans import KMeansError
from . import features as feat
from .pipeline import (
    DEFAULT_DOMINANCE_THRESHOLD,
    PipelineError,
    SmPipelineModel,
    load_expert_bounds,
    run_pps,
    run_rfm,
    run_sm,
    score,
    write_assignment_csv,
)
from .syngen import SyngenError, default_config, generate
from .txmodel import AnalysisWindow, TxError, ingest_receipts
from .validity import ValidityError, crosstab, purity, select_k


class InputError(Exception):
    """A malformed config file, assignment file or window date."""


# Missing or unreadable files fail with OSError; every other data error is
# one of the named classes. Other exceptions are bugs and keep their
# traceback.
DATA_ERRORS = (
    InputError,
    TxError,
    FeatureError,
    KMeansError,
    ValidityError,
    PipelineError,
    SyngenError,
    OSError,
)

CONFIG_KEYS = {
    "tol": float,
    "n_init": int,
    "max_iter": int,
    "dominance_threshold": float,
    "value_weight": float,
    "standardize_rfm": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def load_config(path) -> dict:
    """Flat ``key = value`` config file; # starts a comment."""
    config = {}
    with open(path, encoding="utf-8") as f:
        try:
            lines = list(f)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            config[key] = CONFIG_KEYS[key](value.strip("\"'"))
        except ValueError:
            raise InputError(
                f"{path}:{line_no}: bad value {value!r} for {key}"
            ) from None
    return config


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, args_snapshot, inputs, seed=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "args": args_snapshot,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "created_at": datetime.now().isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _parse_date(text, flag) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise InputError(f"{flag}: bad date {text!r}") from None


def _load_dataset(args):
    window = AnalysisWindow(
        start=_parse_date(args.window_start, "--window-start"),
        end=_parse_date(args.window_end, "--window-end"),
    )
    return ingest_receipts(args.receipts, args.categories, window)


def _fit_kwargs(config):
    kwargs = {}
    for key in ("tol", "n_init", "max_iter"):
        if key in config:
            kwargs[key] = config[key]
    return kwargs


def _warn_unconverged(fit, converged):
    if not converged:
        print(
            f"warning: {fit} k-means fit stopped at max_iter before "
            "converging",
            file=sys.stderr,
        )


def _read_assignment_csv(path) -> dict:
    """entity_id -> cluster label (a string) from an assignment file: an
    ``entity_id,cluster`` header, then one row of two non-empty fields per
    entity. Line numbers in messages are physical lines of the file."""
    assignment = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != ["entity_id", "cluster"]:
                raise InputError(
                    f"{path}: expected header entity_id,cluster, got {header}"
                )
            for row in reader:
                if not row:
                    continue  # blank line
                where = f"{path}: line {reader.line_num}"
                if len(row) != 2:
                    raise InputError(f"{where}: need 2 fields, got {len(row)}")
                eid, cluster = row
                if not eid or not cluster:
                    raise InputError(f"{where}: empty entity id or cluster")
                if eid in assignment:
                    raise InputError(f"{where}: duplicate entity id {eid!r}")
                assignment[eid] = cluster
        except csv.Error as exc:
            raise InputError(
                f"{path}: line {reader.line_num}: malformed CSV: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return assignment


def cmd_syngen(args, config):
    cfg = default_config(
        n_customers=args.customers,
        seed=args.seed,
        n_categories=args.n_categories,
        baskets_range=(args.baskets_min, args.baskets_max),
    )
    generate(cfg, args.out)
    write_manifest(
        args.out,
        "syngen",
        {
            "customers": args.customers,
            "n_categories": args.n_categories,
            "baskets_min": args.baskets_min,
            "baskets_max": args.baskets_max,
        },
        [],
        seed=args.seed,
    )
    print(f"wrote synthetic dataset to {args.out}", file=sys.stderr)
    return 0


def cmd_ingest(args, config):
    dataset = _load_dataset(args)
    summary = {
        "n_baskets": dataset.n_baskets,
        "n_customers": len(dataset.customer_ids),
        "n_categories": len(dataset.categories),
        "dropped_outside_window": dataset.dropped_outside_window,
        "total_value": dataset.total_value_cents / 100.0,
        "fingerprint": dataset.fingerprint(),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_rfm(args, config):
    dataset = _load_dataset(args)
    bounds = None
    if args.mode == "expert":
        if not args.bounds_file:
            raise PipelineError("expert mode requires --bounds-file")
        bounds = load_expert_bounds(args.bounds_file)
    report = run_rfm(
        dataset,
        k=args.k,
        seed=args.seed,
        mode=args.mode,
        bounds=bounds,
        standardize=config.get("standardize_rfm", True),
        **_fit_kwargs(config),
    )
    _warn_unconverged("rfm", report.metrics.get("converged", True))
    out = Path(args.out)
    report.write(out, "rfm")
    inputs = [args.receipts, args.categories]
    if args.bounds_file:
        inputs.append(args.bounds_file)
    write_manifest(
        out,
        "rfm",
        {
            "k": args.k,
            "mode": args.mode,
            "window": [args.window_start, args.window_end],
            "config": config,
        },
        inputs,
        seed=args.seed,
    )
    return 0


def cmd_pps(args, config):
    dataset = _load_dataset(args)
    report = run_pps(
        dataset,
        k=args.k,
        seed=args.seed,
        dominance_threshold=config.get(
            "dominance_threshold", DEFAULT_DOMINANCE_THRESHOLD
        ),
        **_fit_kwargs(config),
    )
    _warn_unconverged("pps", report.metrics["converged"])
    out = Path(args.out)
    report.write(out, "pps")
    write_manifest(
        out,
        "pps",
        {
            "k": args.k,
            "window": [args.window_start, args.window_end],
            "config": config,
        },
        [args.receipts, args.categories],
        seed=args.seed,
    )
    return 0


def cmd_sm(args, config):
    dataset = _load_dataset(args)
    model, basket_report, customer_report = run_sm(
        dataset,
        k_b=args.k_b,
        k_sm=args.k_sm,
        seed=args.seed,
        value_weight=config.get("value_weight", 1.0),
        dominance_threshold=config.get(
            "dominance_threshold", DEFAULT_DOMINANCE_THRESHOLD
        ),
        **_fit_kwargs(config),
    )
    _warn_unconverged("stage-1 basket", model.basket_model.converged)
    _warn_unconverged("stage-2 customer", model.customer_model.converged)
    out = Path(args.out)
    basket_report.write(out, "sm_baskets")
    customer_report.write(out, "sm_customers")
    with open(out / "sm_model.json", "w") as f:
        f.write(model.to_json())
    write_manifest(
        out,
        "sm",
        {
            "k_b": args.k_b,
            "k_sm": args.k_sm,
            "window": [args.window_start, args.window_end],
            "config": config,
        },
        [args.receipts, args.categories],
        seed=args.seed,
    )
    return 0


def cmd_select_k(args, config):
    dataset = _load_dataset(args)
    if args.target == "pps":
        matrix = feat.pps_features(dataset)
    elif args.target == "basket":
        q = feat.compute_q95(dataset)
        matrix = feat.basket_sm_features(
            dataset,
            dataset.category_ids,
            q,
            config.get("value_weight", 1.0),
        )
    else:  # rfm
        matrix = feat.rfm_features(dataset)
    sweep = select_k(
        matrix,
        (args.k_min, args.k_max),
        seed=args.seed,
        policy=args.policy,
        **_fit_kwargs(config),
    )
    for row in sweep.rows:
        _warn_unconverged(f"k={row.k}", row.converged)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep.to_csv(out / "k_sweep.csv")
    with open(out / "k_recommendation.json", "w") as f:
        json.dump(
            {"recommended_k": sweep.recommended_k, "policy": sweep.policy}, f
        )
    write_manifest(
        out,
        "select_k",
        {
            "target": args.target,
            "k_min": args.k_min,
            "k_max": args.k_max,
            "policy": args.policy,
            "window": [args.window_start, args.window_end],
            "config": config,
        },
        [args.receipts, args.categories],
        seed=args.seed,
    )
    print(f"recommended k: {sweep.recommended_k}", file=sys.stderr)
    return 0


def cmd_compare(args, config):
    assignments = [_read_assignment_csv(p) for p in args.assignments]
    names = [Path(p).stem for p in args.assignments]
    n = len(assignments)
    matrix = [
        [purity(assignments[i], assignments[j]) for j in range(n)]
        for i in range(n)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "purity_matrix.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([""] + names)
        for name, row in zip(names, matrix):
            writer.writerow([name] + [repr(v) for v in row])
    write_manifest(
        out, "compare", {"assignments": [str(p) for p in args.assignments]},
        args.assignments,
    )
    for name, row in zip(names, matrix):
        print(name, " ".join(f"{v:.4f}" for v in row))
    return 0


def cmd_score(args, config):
    model = SmPipelineModel.from_json(Path(args.model).read_bytes())
    dataset = _load_dataset(args)
    labels = score(model, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_assignment_csv(
        out / "scored_assignments.csv", dataset.customer_ids, labels
    )
    write_manifest(
        out,
        "score",
        {"model": str(args.model), "window": [args.window_start, args.window_end]},
        [args.model, args.receipts, args.categories],
    )
    return 0


def cmd_report(args, config):
    assignment_i = _read_assignment_csv(args.assignments[0])
    assignment_ii = _read_assignment_csv(args.assignments[1])
    table = crosstab(assignment_i, assignment_ii)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "crosstab.csv")
    with open(out / "crosstab.json", "w") as f:
        f.write(table.to_json_payload())
    write_manifest(
        out, "report", {"assignments": [str(p) for p in args.assignments]},
        args.assignments,
    )
    return 0


def _add_dataset_args(parser):
    parser.add_argument("--receipts", required=True)
    parser.add_argument("--categories", required=True)
    parser.add_argument("--window-start", required=True)
    parser.add_argument("--window-end", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shopmission",
        description="Customer segmentation from receipt-level transaction "
        "data: RFM, product-structure and shopping-mission clusterings.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("syngen", help="generate a synthetic planted dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--customers", type=int, default=1000)
    p.add_argument("--n-categories", type=int, default=8)
    p.add_argument("--baskets-min", type=int, default=8)
    p.add_argument("--baskets-max", type=int, default=16)
    p.set_defaults(func=cmd_syngen)

    p = sub.add_parser("ingest", help="validate a dataset and print a summary")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rfm", help="RFM segmentation")
    _add_dataset_args(p)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["kmeans", "expert"], default="kmeans")
    p.add_argument("--bounds-file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rfm)

    p = sub.add_parser("pps", help="purchased-product-structure segmentation")
    _add_dataset_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pps)

    p = sub.add_parser("sm", help="two-stage shopping-mission segmentation")
    _add_dataset_args(p)
    p.add_argument("--k-b", type=int, required=True, help="basket archetypes")
    p.add_argument("--k-sm", type=int, required=True, help="customer segments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sm)

    p = sub.add_parser("select-k", help="sweep k and recommend a cluster count")
    _add_dataset_args(p)
    p.add_argument(
        "--target", choices=["pps", "basket", "rfm"], default="basket"
    )
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument(
        "--policy",
        choices=["db_min", "variance_elbow", "report_only"],
        default="db_min",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_k)

    p = sub.add_parser(
        "compare", help="N x N purity matrix over assignment files"
    )
    p.add_argument("--assignments", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("score", help="assign new data with a trained SM model")
    _add_dataset_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "report", help="crosstab heatmap payload from two assignment files"
    )
    p.add_argument(
        "--assignments",
        action="append",
        required=True,
        help="give exactly twice: rows then columns",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and len(args.assignments) != 2:
        parser.error("report needs exactly two --assignments")
    config = {}
    if args.config:
        try:
            config = load_config(args.config)
        except DATA_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args, config)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
