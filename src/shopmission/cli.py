"""Command-line front end for batch segmentation runs.

Exit codes: 0 success, 1 validation/data error, 2 usage error. Diagnostics
go to stderr; data only to files or stdout. Every output directory gets a
run manifest recording inputs, config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from datetime import date
from pathlib import Path

from . import NUMBERS, ShopmissionError, __version__, features as feat, number
from .pipeline import (
    ASSIGNMENT_COLUMNS,
    PipelineError,
    SmPipelineModel,
    load_expert_bounds,
    rfm_matrix,
    run_pps,
    run_rfm,
    run_rfm_expert,
    run_sm,
    score,
    stage1_matrix,
    write_assignment_csv,
)
from .txmodel import (
    AnalysisWindow, ValidationError, ingest_receipts, naming, read_pairs,
    write_csv, write_text,
)
from .validity import POLICIES, crosstab, purity, select_k


class InputError(ShopmissionError):
    """A malformed config file, window date or list of input files."""


# ``NUMBERS`` gives each key its kind and domain.
CONFIG_KEYS = ("tol", "n_init", "max_iter", "dominance_threshold",
               "value_weight", "standardize_rfm")
# The words of a boolean key, in any case.
BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def load_config(path) -> dict:
    """Flat ``key = value`` config file; # starts a comment."""
    config = {}
    with naming(path), open(path, encoding="utf-8") as f:
        lines = list(f)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{line_no}: unknown key {key!r}")
        if key in config:
            raise InputError(f"{path}:{line_no}: duplicate key {key!r}")
        text, kind = value.strip("\"'"), NUMBERS[key][0]
        try:
            # int() and float() alone would read other scripts' digits and
            # "_" separators.
            if not text.isascii() or "_" in text:
                raise ValueError(text)
            parsed = BOOLEANS[text.lower()] if kind is bool else kind(text)
        except (ValueError, KeyError):
            raise InputError(
                f"{path}:{line_no}: bad value {value!r} for {key}"
            ) from None
        try:
            config[key] = number(key, parsed)
        except ValueError as exc:
            raise InputError(f"{path}:{line_no}: {exc}") from None
    return config


def _sha256(path) -> str:
    # Imported here: OpenSSL maps a few MB, needed only for the manifest.
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# File-valued options; each file's sha256 goes into the manifest's "inputs".
INPUT_OPTIONS = (
    "receipts", "categories", "bounds_file", "model", "assignments",
)


def write_manifest(out_dir, args, config):
    """Write ``manifest.json`` from the parsed args of a run. ``args`` holds
    the options that the subcommand itself declares (``args.own``), plus the
    analysis window of a dataset command and, if it also takes a seed, the
    config."""
    options = {name: getattr(args, name) for name in args.own}
    if "receipts" in args:
        options["window"] = [args.window_start, args.window_end]
        if "seed" in args:
            options["config"] = config
    inputs = []
    for name in INPUT_OPTIONS:
        value = getattr(args, name, None)
        if value:  # an empty --bounds-file names no file
            inputs += value if isinstance(value, list) else [value]
    manifest = {
        "command": args.command.replace("-", "_"),
        "args": options,
        "inputs": {p: _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    write_text(out_dir / "manifest.json", text)


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
    dataset = ingest_receipts(args.receipts, args.categories, window)
    if not dataset.n_baskets:
        with naming(args.receipts):
            raise ValidationError(
                f"no basket inside the window {window.start}..{window.end} "
                f"({dataset.dropped_outside_window} dropped outside it)"
            )
    return dataset


FIT_KEYS = ("tol", "n_init", "max_iter")


def _settings(config, *keys):
    """Those of ``keys`` that the config file sets, with their values, as
    keyword arguments: a key it leaves out keeps the default of the function
    it feeds."""
    return {key: config[key] for key in keys if key in config}


def _warn_unconverged(fit, converged):
    if not converged:
        warnings.warn(
            f"{fit} k-means fit stopped at max_iter before converging"
        )


# Each command's step gets the parsed args and the config and reads its own
# inputs. It computes everything, then returns a function that writes the
# command's files into the --out directory (None for ingest, which has no
# --out). The dataset lives only in the step's frame, so it is freed before
# the manifest's hashing loads OpenSSL.


def cmd_syngen(args, config):
    # Imported here so that no other command loads the generator.
    from .syngen import default_config, generate

    cfg = default_config(
        n_customers=args.customers,
        seed=args.seed,
        n_categories=args.n_categories,
        baskets_range=(args.baskets_min, args.baskets_max),
    )

    def write(out):
        generate(cfg, out)
        print(f"wrote synthetic dataset to {args.out}", file=sys.stderr)

    return write


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


def cmd_rfm(args, config):
    dataset = _load_dataset(args)
    if args.mode == "kmeans":
        if args.bounds_file:
            raise PipelineError("kmeans mode takes no --bounds-file")
        if args.k is None:
            raise PipelineError("kmeans mode requires k")
        report = run_rfm(
            dataset, args.k, args.seed,
            **_settings(config, "standardize_rfm", *FIT_KEYS),
        )
        _warn_unconverged("rfm", report.metrics["converged"])
    else:
        if args.k is not None:
            raise PipelineError(
                "expert mode takes no --k: the bounds file sets the segments"
            )
        if not args.bounds_file:
            raise PipelineError("expert mode requires --bounds-file")
        report = run_rfm_expert(dataset, load_expert_bounds(args.bounds_file))
    return lambda out: report.write(out, "rfm")


def cmd_pps(args, config):
    dataset = _load_dataset(args)
    report = run_pps(
        dataset, args.k, args.seed,
        **_settings(config, "dominance_threshold", *FIT_KEYS),
    )
    _warn_unconverged("pps", report.metrics["converged"])
    return lambda out: report.write(out, "pps")


def cmd_sm(args, config):
    model, basket_report, customer_report = run_sm(
        _load_dataset(args), args.k_b, args.k_sm, args.seed,
        **_settings(config, "value_weight", "dominance_threshold", *FIT_KEYS),
    )
    _warn_unconverged("stage-1 basket", model.basket_model.converged)
    _warn_unconverged("stage-2 customer", model.customer_model.converged)

    def write(out):
        basket_report.write(out, "sm_baskets")
        customer_report.write(out, "sm_customers")
        write_text(out / "sm_model.json", model.to_json())

    return write


def cmd_select_k(args, config):
    dataset = _load_dataset(args)
    # Each target sweeps the matrix that the command it advises fits.
    if args.target == "pps":
        matrix = feat.pps_features(dataset)
    elif args.target == "basket":
        matrix = stage1_matrix(dataset, **_settings(config, "value_weight"))[1]
    else:  # rfm
        matrix = rfm_matrix(dataset, **_settings(config, "standardize_rfm"))[1]
    sweep = select_k(
        matrix, (args.k_min, args.k_max), args.seed, args.policy,
        **_settings(config, *FIT_KEYS),
    )
    for row in sweep.rows:
        _warn_unconverged(f"k={row['k']}", row["converged"])

    def write(out):
        sweep.to_csv(out / "k_sweep.csv")
        write_text(
            out / "k_recommendation.json",
            json.dumps(
                {"recommended_k": sweep.recommended_k, "policy": sweep.policy}
            ),
        )
        print(f"recommended k: {sweep.recommended_k}", file=sys.stderr)

    return write


def _naming_both(*paths):
    """``naming`` for an error about two assignment files together."""
    return naming(", ".join(map(str, paths)))


def cmd_compare(args, config):
    paths = args.assignments
    names = [Path(p).stem for p in paths]
    for name, path in zip(names, paths):
        other = paths[names.index(name)]
        if Path(other).resolve() != Path(path).resolve():
            with _naming_both(other, path):
                raise InputError(f"both are {name!r} in purity_matrix.csv")
    assignments = [read_pairs(p, ASSIGNMENT_COLUMNS) for p in paths]

    def pair_purity(i, j):
        with _naming_both(paths[i], paths[j]):
            return purity(assignments[i], assignments[j])

    n = len(assignments)
    matrix = [[pair_purity(i, j) for j in range(n)] for i in range(n)]

    def write(out):
        rows = ([name] + row for name, row in zip(names, matrix))
        write_csv(out / "purity_matrix.csv", [""] + names, rows)
        for name, row in zip(names, matrix):
            print(name, " ".join(f"{v:.4f}" for v in row))

    return write


def cmd_score(args, config):
    # Read before the dataset, so that a bad model is reported first.
    with naming(args.model), open(args.model, "rb") as f:
        model = SmPipelineModel.from_json(f.read())
    dataset = _load_dataset(args)
    ids, labels = dataset.customer_ids, score(model, dataset)
    return lambda out: write_assignment_csv(
        out / "scored_assignments.csv", ids, labels
    )


def cmd_report(args, config):
    assignments = [read_pairs(p, ASSIGNMENT_COLUMNS) for p in args.assignments]
    with _naming_both(*args.assignments):
        table = crosstab(*assignments)

    def write(out):
        table.to_csv(out / "crosstab.csv")
        write_text(out / "crosstab.json", table.to_json_payload())

    return write


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def run(args, config) -> int:
    """Run the parsed subcommand's step, and only after it has succeeded
    make the --out directory, write the step's files and the manifest into
    it. Each ``warnings.warn`` of the step prints as one ``warning:`` line."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        write = args.step(args, config)
    if "out" in args:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write(out)
        write_manifest(out, args, config)
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


def _command(
    sub, name, help, step, *options, dataset=False, seed=False, out=True,
):
    """Add subcommand ``name`` with its own ``options`` (from ``_arg``), whose
    names the manifest records as ``own``, and the shared dataset, --seed
    and --out flags it takes."""
    p = sub.add_parser(name, help=help)
    if dataset:
        for flag in (
            "--receipts", "--categories", "--window-start", "--window-end"
        ):
            p.add_argument(flag, required=True)
    own = [p.add_argument(*flags, **kwargs).dest for flags, kwargs in options]
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", required=True)
    p.set_defaults(step=step, own=own)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shopmission",
        description="Customer segmentation from receipt-level transaction "
        "data: RFM, product-structure and shopping-mission clusterings.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _command(
        sub, "syngen", "generate a synthetic planted dataset", cmd_syngen,
        _arg("--customers", type=int, default=1000),
        _arg("--n-categories", type=int, default=8),
        _arg("--baskets-min", type=int, default=8),
        _arg("--baskets-max", type=int, default=16),
        seed=True,
    )
    _command(
        sub, "ingest", "validate a dataset and print a summary", cmd_ingest,
        dataset=True, out=False,
    )
    _command(
        sub, "rfm", "RFM segmentation", cmd_rfm,
        _arg("--k", type=int),
        _arg("--mode", choices=["kmeans", "expert"], default="kmeans"),
        _arg("--bounds-file"),
        dataset=True, seed=True,
    )
    _command(
        sub, "pps", "purchased-product-structure segmentation", cmd_pps,
        _arg("--k", type=int, required=True),
        dataset=True, seed=True,
    )
    _command(
        sub, "sm", "two-stage shopping-mission segmentation", cmd_sm,
        _arg("--k-b", type=int, required=True, help="basket archetypes"),
        _arg("--k-sm", type=int, required=True, help="customer segments"),
        dataset=True, seed=True,
    )
    _command(
        sub, "select-k", "sweep k and recommend a cluster count", cmd_select_k,
        _arg("--target", choices=["pps", "basket", "rfm"], default="basket"),
        _arg("--k-min", type=int, default=2),
        _arg("--k-max", type=int, default=12),
        _arg("--policy", choices=POLICIES, default="db_min"),
        dataset=True, seed=True,
    )
    _command(
        sub, "compare", "N x N purity matrix over assignment files",
        cmd_compare,
        _arg("--assignments", action="append", required=True),
    )
    _command(
        sub, "score", "assign new data with a trained SM model", cmd_score,
        _arg("--model", required=True),
        dataset=True,
    )
    _command(
        sub, "report", "crosstab heatmap payload from two assignment files",
        cmd_report,
        _arg(
            "--assignments",
            action="append",
            required=True,
            help="give exactly twice: rows then columns",
        ),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and len(args.assignments) != 2:
        parser.error("report needs exactly two --assignments")
    # Missing or unreadable files fail with OSError and bad input with a
    # ShopmissionError; any other exception is a bug and keeps its traceback.
    try:
        config = load_config(args.config) if args.config else {}
        return run(args, config)
    except (ShopmissionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
