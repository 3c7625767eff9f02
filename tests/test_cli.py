import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import WINDOW, mutated_lines
import shopmission
from shopmission import cli
from shopmission.cli import InputError, load_config, main
from shopmission.features import FeatureMatrix, rfm_features
from shopmission.pipeline import _zscore, run_pps
from shopmission.txmodel import ingest_receipts
from shopmission.validity import between_variance_ratio, select_k

WINDOW_ARGS = [
    "--window-start", "2025-01-01",
    "--window-end", "2025-03-31",
]


def dataset_args(data_dir):
    return [
        "--receipts", str(data_dir / "receipts.csv"),
        "--categories", str(data_dir / "categories.csv"),
        *WINDOW_ARGS,
    ]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    assert main([
        "syngen", "--out", str(out), "--seed", "5", "--customers", "200",
        "--baskets-min", "12", "--baskets-max", "20",
    ]) == 0
    return out


def subprocess_env(**extra):
    """This environment plus ``extra``, with the package importable."""
    src = str(Path(shopmission.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
        **extra,
    )


def write_truth_assignments(data_dir, path):
    with open(data_dir / "ground_truth_customers.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["entity_id", "cluster"])
        for row in rows:
            writer.writerow([row["customer_id"], row["mission"]])


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sm", "--definitely-not-a-flag"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_ingest_summary_on_stdout(data_dir, capsys):
    assert main(["ingest", *dataset_args(data_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_customers"] == 200
    assert summary["dropped_outside_window"] == 0


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main([
        "ingest",
        "--receipts", str(tmp_path / "nope.csv"),
        "--categories", str(tmp_path / "nope2.csv"),
        *WINDOW_ARGS,
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_sm_command_writes_reports_and_manifest(data_dir, tmp_path, capsys):
    out = tmp_path / "sm"
    rc = main([
        "sm", *dataset_args(data_dir),
        "--k-b", "6", "--k-sm", "9", "--seed", "42", "--out", str(out),
    ])
    assert rc == 0
    assert "warning:" not in capsys.readouterr().err
    for name in (
        "sm_baskets_assignments.csv",
        "sm_customers_assignments.csv",
        "sm_customers_shares.csv",
        "sm_model.json",
        "manifest.json",
    ):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sm"
    assert manifest["seed"] == 42
    assert len(manifest["inputs"]) == 2


def test_compare_identical_clusterings_unit_diagonal(data_dir, tmp_path, capsys):
    truth_csv = tmp_path / "truth.csv"
    write_truth_assignments(data_dir, truth_csv)
    out = tmp_path / "cmp"
    rc = main([
        "compare",
        "--assignments", str(truth_csv),
        "--assignments", str(truth_csv),
        "--out", str(out),
    ])
    assert rc == 0
    with open(out / "purity_matrix.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert float(rows[1][1]) == 1.0
    assert float(rows[2][2]) == 1.0


def test_select_k_command(data_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "select-k", *dataset_args(data_dir),
        "--target", "basket", "--k-min", "4", "--k-max", "8",
        "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads((out / "k_recommendation.json").read_text())
    assert rec["recommended_k"] == 6
    with open(out / "k_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "k", "inertia", "between_variance_ratio", "davies_bouldin"
    ]
    assert [int(row[0]) for row in rows[1:]] == [4, 5, 6, 7, 8]
    for row in rows[1:]:
        for cell in row:
            float(cell)


@pytest.mark.parametrize("standardize", ["on", "off"])
def test_rfm_sweep_uses_the_rfm_feature_space(data_dir, tmp_path, standardize):
    # select-k --target rfm sweeps the matrix rfm fits: z-scored RFM
    # features unless standardize_rfm is off.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"standardize_rfm = {standardize}\n")
    out = tmp_path / "sweep"
    assert main([
        "--config", str(cfg), "select-k", *dataset_args(data_dir),
        "--target", "rfm", "--k-min", "2", "--k-max", "6", "--seed", "3",
        "--out", str(out),
    ]) == 0
    matrix = rfm_features(ingest_receipts(
        data_dir / "receipts.csv", data_dir / "categories.csv", WINDOW
    ))
    if standardize == "on":
        matrix = _zscore(matrix)
    sweep = select_k(matrix, (2, 6), seed=3)
    sweep.to_csv(tmp_path / "want.csv")
    assert (out / "k_sweep.csv").read_bytes() == (
        tmp_path / "want.csv"
    ).read_bytes()
    rec = json.loads((out / "k_recommendation.json").read_text())
    assert rec["recommended_k"] == sweep.recommended_k


def test_sweep_rows_are_the_metrics_of_the_same_fit(data_dir, tmp_path):
    # A sweep fits k at seed + k; pps --k 4 --seed 9 makes the same fit as
    # the k=4 row of a sweep at seed 5.
    sweep, pps = tmp_path / "sweep", tmp_path / "pps"
    assert main([
        "select-k", *dataset_args(data_dir), "--target", "pps",
        "--k-min", "3", "--k-max", "5", "--seed", "5", "--out", str(sweep),
    ]) == 0
    assert main([
        "pps", *dataset_args(data_dir), "--k", "4", "--seed", "9",
        "--out", str(pps),
    ]) == 0
    metrics = json.loads((pps / "pps_metrics.json").read_text())
    with open(sweep / "k_sweep.csv", newline="") as f:
        row = [r for r in csv.DictReader(f) if r["k"] == "4"][0]
    assert {key: str(metrics[key]) for key in row} == row


@pytest.mark.parametrize("command", [
    ["sm", "--k-b", "6", "--k-sm", "9"],
    ["select-k", "--target", "basket", "--k-max", "4"],
])
def test_sm_and_select_k_leave_numpy_ma_unloaded(data_dir, tmp_path, command):
    # np.quantile and np.unique import numpy.ma; these commands use neither.
    # The k-means++ draws are computed without numpy.random, which would
    # load secrets and OpenSSL. Only the syngen command loads the generator.
    script = (
        "import sys\n"
        "from shopmission.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules,\n"
        "      'numpy.random' in sys.modules,\n"
        "      'shopmission.syngen' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *command, *dataset_args(data_dir),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=subprocess_env(), check=True,
    )
    assert result.stdout == "0 False False False\n"


def test_importing_the_cli_leaves_openssl_unloaded():
    # hashlib maps OpenSSL; only the fingerprint and the manifest need it.
    script = "import sys, shopmission.cli\nprint('_hashlib' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=subprocess_env(), check=True,
    )
    assert result.stdout == "False\n"


OPENSSL_ORDER_SCRIPT = """\
import sys, weakref
from shopmission import cli, validity

def loaded():
    return "_hashlib" in sys.modules

def spy(module, name, record):
    fn = getattr(module, name)
    def wrapper(*args, **kwargs):
        record()
        return fn(*args, **kwargs)
    setattr(module, name, wrapper)

def ingest(*args):
    dataset = ingest_receipts(*args)
    datasets.append(weakref.ref(dataset))
    return dataset

datasets, metrics, manifest = [], [], []
ingest_receipts, cli.ingest_receipts = cli.ingest_receipts, ingest
for name in ("between_variance_ratio", "davies_bouldin"):
    spy(validity, name, lambda: metrics.append(loaded()))
spy(cli, "write_manifest", lambda: manifest.append(
    (loaded(), [ref() is not None for ref in datasets])))
code = cli.main(sys.argv[1:])
print(code, any(metrics), len(metrics), manifest, loaded())
"""


@pytest.mark.parametrize("command, expected", [
    # OpenSSL comes with the fingerprint, after both fits' metrics.
    (["sm", "--k-b", "6", "--k-sm", "9"], "0 False 4 [(True, [False])] True"),
    # Only the manifest loads it, once the dataset is freed.
    (["select-k", "--target", "basket", "--k-max", "4"],
     "0 False 6 [(False, [False])] True"),
    (["score", "--model", "MODEL"], "0 False 0 [(False, [False])] True"),
], ids=["sm", "select-k", "score"])
def test_openssl_loads_after_the_big_arrays_are_freed(
    data_dir, trained_model, tmp_path, command, expected
):
    # hashlib maps a few MB of OpenSSL; loaded while the feature matrices or
    # the dataset are alive, it adds to the run's peak RSS.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained_model), encoding="utf-8")
    command = [str(model) if arg == "MODEL" else arg for arg in command]
    result = subprocess.run(
        [sys.executable, "-c", OPENSSL_ORDER_SCRIPT, *command,
         *dataset_args(data_dir), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=subprocess_env(), check=True,
    )
    assert result.stdout == expected + "\n"


def test_outputs_do_not_depend_on_the_locale(data_dir, tmp_path):
    # A category id outside ASCII reaches the headers and cluster labels of
    # the output files; under the C locale with UTF-8 mode off, Python's
    # default file encoding is ASCII.
    data = tmp_path / "data"
    data.mkdir()
    for name in ("receipts.csv", "categories.csv"):
        text = (data_dir / name).read_text(encoding="utf-8")
        (data / name).write_text(text.replace("K00", "Kč0"), encoding="utf-8")
    environments = {
        "c": subprocess_env(
            LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
        ),
        "utf8": subprocess_env(PYTHONUTF8="1"),
    }
    for command in (["pps", "--k", "4"], ["sm", "--k-b", "6", "--k-sm", "9"]):
        outs = []
        for name, env in environments.items():
            out = tmp_path / name / command[0]
            result = subprocess.run(
                [sys.executable, "-m", "shopmission.cli", *command,
                 *dataset_args(data), "--out", str(out)],
                capture_output=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        c_out, utf8_out = outs
        files = sorted(p.name for p in utf8_out.iterdir())
        assert sorted(p.name for p in c_out.iterdir()) == files
        for file in files:
            assert (c_out / file).read_bytes() == (utf8_out / file).read_bytes()


def test_unconverged_fits_warn_on_stderr(data_dir, tmp_path, capsys):
    # With max_iter = 1 no fit converges, and each prints one line, in fit
    # order: a sweep's lines come before its recommendation.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iter = 1\n")
    sweep = ["--k-min", "2", "--k-max", "5"]
    commands = [
        (["sm", "--k-b", "6", "--k-sm", "9", "--seed", "42"],
         ["stage-1 basket", "stage-2 customer"]),
        (["rfm", "--k", "4"], ["rfm"]),
        (["pps", "--k", "4"], ["pps"]),
    ] + [
        (["select-k", "--target", target, *sweep], ["k=2", "k=3", "k=4", "k=5"])
        for target in ("pps", "basket", "rfm")
    ]
    for i, (command, fits) in enumerate(commands):
        out = tmp_path / f"run{i}"
        rc = main([
            "--config", str(cfg), *command, *dataset_args(data_dir),
            "--out", str(out),
        ])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        if command[0] == "select-k":
            assert err.pop().startswith("recommended k: ")
        assert err == [
            f"warning: {fit} k-means fit stopped at max_iter before converging"
            for fit in fits
        ]
    # The files of the sm run record both stopped fits.
    out = tmp_path / "run0"
    model = json.loads((out / "sm_model.json").read_text())
    assert model["basket_model"]["converged"] is False
    assert model["customer_model"]["converged"] is False
    metrics = json.loads((out / "sm_baskets_metrics.json").read_text())
    assert metrics["converged"] is False


def test_program_warnings_are_one_line_each(data_dir, tmp_path):
    # One basket archetype leaves every customer on the same vector, so
    # run_sm warns that it reduces k_sm. The runner prints that as one
    # ``warning:`` line, without Python's file:line prefix, category and
    # source line, whatever -W asks.
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shopmission.cli", "sm",
         *dataset_args(data_dir), "--k-b", "1", "--k-sm", "3",
         "--out", str(tmp_path / "sm")],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "warning: stage 2 has only 1 distinct customer vectors; "
        "reducing k_sm from 3 to 1"
    ]
    assert "UserWarning" not in result.stderr
    assert "warnings.warn" not in result.stderr


def test_validity_warning_goes_through_the_runner(
    data_dir, tmp_path, capsys, monkeypatch
):
    # between_variance_ratio warns when the total sum of squares is zero;
    # a step that meets it prints one ``warning:`` line like any other.
    flat = FeatureMatrix(ids=["a", "b"], X=np.zeros((2, 1)), schema=["x"])

    def flat_pps(*args, **kwargs):
        assert between_variance_ratio(flat, [0, 1]) == 0.0
        return run_pps(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pps", flat_pps)
    assert main([
        "pps", *dataset_args(data_dir), "--k", "3",
        "--out", str(tmp_path / "pps"),
    ]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: total sum of squares is zero; between-variance ratio "
        "undefined, returning 0.0"
    ]


def test_rfm_expert_mode_via_cli(data_dir, tmp_path):
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"recency_days": [30], "frequency": [0.1]}))
    out = tmp_path / "rfm"
    rc = main([
        "rfm", *dataset_args(data_dir),
        "--mode", "expert", "--bounds-file", str(bounds), "--out", str(out),
    ])
    assert rc == 0
    shares = (out / "rfm_shares.csv").read_text().splitlines()[1:]
    total = sum(float(line.split(",")[-1]) for line in shares)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_score_command_round_trip(data_dir, tmp_path):
    sm_out = tmp_path / "sm"
    assert main([
        "sm", *dataset_args(data_dir),
        "--k-b", "6", "--k-sm", "9", "--seed", "42", "--out", str(sm_out),
    ]) == 0
    score_out = tmp_path / "scored"
    rc = main([
        "score", *dataset_args(data_dir),
        "--model", str(sm_out / "sm_model.json"), "--out", str(score_out),
    ])
    assert rc == 0
    scored = (score_out / "scored_assignments.csv").read_text()
    trained = (sm_out / "sm_customers_assignments.csv").read_text()
    assert scored.splitlines()[1:] == trained.splitlines()[1:]


@pytest.fixture(scope="module")
def trained_model(data_dir, tmp_path_factory):
    """The parsed ``sm_model.json`` of an sm run on ``data_dir``."""
    out = tmp_path_factory.mktemp("sm_model")
    assert main([
        "sm", *dataset_args(data_dir),
        "--k-b", "6", "--k-sm", "9", "--out", str(out),
    ]) == 0
    return json.loads((out / "sm_model.json").read_text())


def _set(*keys_and_value):
    """An edit of a model document: set the item at ``keys`` to ``value``."""
    *keys, last, value = keys_and_value

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


def _duplicate_first_category(doc):
    # The basket model's schema and centers grow with the id list, so only
    # the duplicate itself is wrong.
    first = doc["category_ids"][0]
    doc["category_ids"].append(first)
    basket_model = doc["basket_model"]
    basket_model["feature_schema"].insert(-1, f"cat:{first}")
    for row in basket_model["centers"]:
        row.insert(-1, 0.0)


def _drop_last_basket_cluster(doc):
    # A consistent basket model of one cluster fewer: the customer model
    # still has a column for the dropped archetype.
    doc["basket_model"]["k"] -= 1
    doc["basket_model"]["centers"].pop()


@pytest.mark.parametrize("edit, message", [
    (_set("value_weight", "abc"),
     "value_weight must be a finite number >= 0, got 'abc'"),
    (_set("value_weight", -1.0),
     "value_weight must be a finite number >= 0, got -1.0"),
    (_set("value_weight", True),
     "value_weight must be a finite number >= 0, got True"),
    (_set("value_weight", float("inf")),
     "value_weight must be a finite number >= 0, got inf"),
    (_set("q95", float("inf")), "q95 must be a finite number > 0, got inf"),
    (_set("q95", 0), "FeatureError: q95 must be a finite number > 0, got 0"),
    (_set("dataset_fingerprint", 5),
     "dataset_fingerprint must be a string, got 5"),
    (_set("basket_model", "seed", -5), "seed must be an int >= 0, got -5"),
    (_set("basket_model", "seed", True), "seed must be an int >= 0, got True"),
    (_set("customer_model", "inertia", "abc"),
     "inertia must be a finite number >= 0, got 'abc'"),
    (_set("customer_model", "inertia", False),
     "inertia must be a finite number >= 0, got False"),
    (_set("customer_model", "iterations_run", None),
     "iterations_run must be an int >= 1, got None"),
    (_set("basket_model", "iterations_run", 0),
     "iterations_run must be an int >= 1, got 0"),
    (_set("basket_model", "converged", "no"),
     "converged must be a boolean, got 'no'"),
    (_set("customer_model", "centers", 0, 0, float("nan")),
     "KMeansError: center must be a finite number, got nan"),
    (_set("basket_model", "centers", 1, 2, float("-inf")),
     "KMeansError: center must be a finite number, got -inf"),
    (_set("basket_model", "k", 6.0),
     "KMeansError: k must be an int >= 1, got 6.0"),
    (_set("customer_model", "centers", 0, [0.5]),
     "KMeansError: model center rows have lengths [1, 6]"),
    (_set("basket_model", "feature_schema", 5),
     "KMeansError: model feature_schema must be a list of strings, got 5"),
    (_set("customer_model", "feature_schema", "ab"),
     "KMeansError: model feature_schema must be a list of strings, got 'ab'"),
    (_set("customer_model", "feature_schema", 0, 1),
     "KMeansError: model feature_schema must be a list of strings, "
     "got [1, 'archetype:1', "),
    (_set("category_ids", 0, ["K00"]),
     "category_ids must be a list of distinct strings"),
    (_duplicate_first_category,
     "category_ids must be a list of distinct strings"),
    (_drop_last_basket_cluster,
     "customer_model feature_schema must be ['archetype:0', 'archetype:1', "
     "'archetype:2', 'archetype:3', 'archetype:4']"),
    (_set("basket_model", "feature_schema", -1, "spend"),
     "basket_model feature_schema must be ['cat:K00', 'cat:K01', "),
    (_set("category_ids", 0, "K99"),
     "basket_model feature_schema must be ['cat:K99', 'cat:K01', "),
], ids=[
    "weight-text", "weight-negative", "weight-bool", "weight-inf", "q95-inf",
    "q95-zero", "fingerprint-number", "seed-negative", "seed-bool",
    "inertia-text", "inertia-bool", "iterations-null", "iterations-zero",
    "converged-text",
    "customer-center-nan", "basket-center-inf", "basket-k-float",
    "customer-center-row-short", "basket-schema-number",
    "customer-schema-text", "customer-schema-entry",
    "category-id-list",
    "category-id-repeated",
    "customer-schema-vs-basket-k", "basket-schema-column",
    "basket-schema-vs-category-ids",
])
def test_score_rejects_a_broken_model(
    data_dir, tmp_path, capsys, trained_model, edit, message
):
    doc = json.loads(json.dumps(trained_model))
    edit(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main([
        "score", *dataset_args(data_dir),
        "--model", str(model), "--out", str(tmp_path / "out"),
    ])
    err = assert_one_error_line(code, capsys, message)
    assert err.startswith(f"error: {model}: not a valid SM model: ")
    assert not (tmp_path / "out").exists()


def test_score_loads_a_model_file_with_an_inertia_history(
    data_dir, tmp_path, trained_model
):
    # Model files of earlier versions carry each cluster model's inertia
    # after every Lloyd iteration, one more entry than iterations_run,
    # between iterations_run and converged. Loading ignores the key.
    doc = json.loads(json.dumps(trained_model))
    for name in ("basket_model", "customer_model"):
        model = doc[name]
        history = [model["inertia"]] * (model["iterations_run"] + 1)
        items = list(model.items())
        at = [key for key, _ in items].index("converged")
        doc[name] = dict(items[:at] + [("inertia_history", history)]
                         + items[at:])
    scored = []
    for name, model_doc in (("old", doc), ("new", trained_model)):
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(model_doc))
        assert main([
            "score", *dataset_args(data_dir),
            "--model", str(model), "--out", str(tmp_path / name),
        ]) == 0
        scored.append((tmp_path / name / "scored_assignments.csv").read_text())
    assert scored[0] == scored[1]
    assert "inertia_history" in (tmp_path / "old.json").read_text()


def test_report_command_emits_crosstab(data_dir, tmp_path):
    truth_csv = tmp_path / "truth.csv"
    write_truth_assignments(data_dir, truth_csv)
    out = tmp_path / "report"
    rc = main([
        "report",
        "--assignments", str(truth_csv),
        "--assignments", str(truth_csv),
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "crosstab.json").read_text())
    values = payload["values"]
    for i, row in enumerate(values):
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
        assert row[i] == 1.0


def test_report_requires_exactly_two_assignment_files(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--assignments", "one.csv", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_file_parsing_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults\n"
        "tol = 1e-8\n"
        "n_init = 4\n"
        "dominance_threshold = 0.4\n"
        "standardize_rfm = off\n"
    )
    parsed = load_config(cfg)
    assert parsed == {
        "tol": 1e-8,
        "n_init": 4,
        "dominance_threshold": 0.4,
        "standardize_rfm": False,
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_knob = 3\n")
    with pytest.raises(InputError, match="unknown key"):
        load_config(bad)


@pytest.mark.parametrize("key", ["tol", "dominance_threshold", "value_weight"])
@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_config_rejects_non_finite_floats(tmp_path, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    message = f": line 1: {key} must be a finite number( >=? 0)?, got {float(value)}$"
    with pytest.raises(InputError, match=message):
        load_config(cfg)


def test_config_boolean_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    for word, value in [("1", True), ("TRUE", True), ("Yes", True),
                        ("on", True), ("0", False), ("False", False),
                        ("NO", False), ("Off", False)]:
        cfg.write_text(f"standardize_rfm = {word}\n")
        assert load_config(cfg) == {"standardize_rfm": value}


# Each case keeps the id that its text and its former message gave it.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "standardize_rfm = ture\n",
            "run.cfg: line 1: bad value 'ture' for standardize_rfm",
            id="standardize_rfm = ture\n-run.cfg:1: bad value 'ture' for "
               "standardize_rfm"),
        pytest.param(
            "# tuned\nn_init = 0\ntol = -1\n",
            "run.cfg: line 2: n_init must be an int >= 1, got 0",
            id="# tuned\nn_init = 0\ntol = -1\n-run.cfg:2: n_init must be an "
               "int >= 1, got 0"),
        pytest.param(
            "tol = -1\n", "run.cfg: line 1: tol must be a finite number > 0, got -1.0",
            id="tol = -1\n-run.cfg:1: tol must be a finite number > 0, got -1.0"),
        pytest.param(
            "tol = 0\n", "run.cfg: line 1: tol must be a finite number > 0, got 0.0",
            id="tol = 0\n-run.cfg:1: tol must be a finite number > 0, got 0.0"),
        pytest.param(
            "max_iter = -3\n", "run.cfg: line 1: max_iter must be an int >= 1, got -3",
            id="max_iter = -3\n-run.cfg:1: max_iter must be an int >= 1, got -3"),
    ],
)
def test_config_values_are_checked_when_read(
    data_dir, tmp_path, capsys, text, message
):
    # Expert RFM runs no k-means fit, so only the config reader can reject
    # these before they reach manifest.json.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"recency_days": [30]}')
    code = main([
        "--config", str(cfg), "rfm", *dataset_args(data_dir),
        "--mode", "expert", "--bounds-file", str(bounds),
        "--out", str(tmp_path / "out"),
    ])
    assert_one_error_line(code, capsys, message)
    assert not (tmp_path / "out").exists()


def test_config_rejects_a_repeated_key(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1\nn_init = 2\n# again\ntol = 2\n")
    code = main([
        "--config", str(cfg), "pps", *dataset_args(data_dir), "--k", "3",
        "--out", str(tmp_path / "out"),
    ])
    assert_one_error_line(code, capsys, f"{cfg}: line 4: duplicate key 'tol'")
    assert not (tmp_path / "out").exists()


def test_config_value_weight_is_non_negative(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("value_weight = 0\ndominance_threshold = -0.5\n")
    assert load_config(cfg) == {"value_weight": 0.0, "dominance_threshold": -0.5}
    cfg.write_text("value_weight = -1e-9\n")
    message = "value_weight must be a finite number >= 0, got -1e-09"
    with pytest.raises(InputError, match=message):
        load_config(cfg)


ASSIGNMENTS_HEADER = "entity_id,cluster\n"
RECEIPTS_HEADER = (
    "basket_id,customer_id,timestamp,product_id,category_id,unit_price,"
    "quantity,promo_flag\n"
)

def one_category_model(basket_centers, customer_centers) -> bytes:
    """An SM model file over one category K00 and one cluster per stage,
    with the given centers."""
    def cluster_model(schema, centers):
        return {"k": 1, "feature_schema": schema, "seed": 0, "inertia": 0.0,
                "iterations_run": 1, "centers": centers}

    return json.dumps({
        "q95": 1.0, "value_weight": 1.0, "category_ids": ["K00"],
        "dataset_fingerprint": "",
        "basket_model": cluster_model(["cat:K00", "value"], basket_centers),
        "customer_model": cluster_model(["archetype:0"], customer_centers),
    }).encode()


# (file name, bytes, command tail after the dataset arguments, message).
# Each command reads one malformed side input, or receipts.csv in place of
# the dataset's; "{}" stands for its path.
MALFORMED_INPUTS = [
    ("run.cfg", b"n_init = 0\n", ["pps", "--k", "3"],
     "n_init must be an int >= 1, got 0"),
    ("run.cfg", b"n_init = 2.5\n", ["pps", "--k", "3"],
     "run.cfg: line 1: bad value '2.5' for n_init"),
    ("run.cfg", b"# tuned\ntol 1e-3\n", ["pps", "--k", "3"],
     "run.cfg: line 2: expected key = value"),
    ("run.cfg", b"tol = \xff\n", ["pps", "--k", "3"], "not valid UTF-8"),
    ("bounds.json", b"[1, 2]", ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "expected a JSON object"),
    ("bounds.json", b'{"monetary": ["a", 1]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bin_edge must be a finite number, got 'a'"),
    ("bounds.json", b'{"frequency": [NaN]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bin_edge must be a finite number, got nan"),
    ("bounds.json", b'{"recency_days": 30}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bin edges for 'recency_days' must be a list of numbers, got 30"),
    ("bounds.json", b'{"recency": [30]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "unknown RFM dimension 'recency'"),
    ("bounds.json", b"{not json", ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "not valid JSON"),
    ("model.json", b"{}", ["score", "--model", "{}"], "not a valid SM model"),
    ("model.json", b"\xff", ["score", "--model", "{}"], "not a valid SM model"),
    # Options the mode would ignore: the file is never parsed, and the
    # bins, not --k, set the expert segments.
    ("bounds.json", b"{not json",
     ["rfm", "--mode", "kmeans", "--k", "3", "--bounds-file", "{}"],
     "kmeans mode takes no --bounds-file"),
    ("bounds.json", b'{"recency_days": [30]}',
     ["rfm", "--mode", "expert", "--k", "7", "--bounds-file", "{}"],
     "expert mode takes no --k"),
    # Each converts as a float: tol = inf would stop every fit after one
    # iteration, and a NaN threshold would label every cluster General.
    # Under the id that its former message gave it.
    pytest.param("run.cfg", b"tol = inf\n", ["pps", "--k", "3"],
                 "run.cfg: line 1: tol must be a finite number > 0, got inf",
                 id="run.cfg-tol = inf\n-command14-run.cfg:1: tol must be a "
                    "finite number > 0, got inf"),
    ("run.cfg", b"dominance_threshold = nan\n", ["sm", "--k-b", "6", "--k-sm", "9"],
     "run.cfg: line 1: dominance_threshold must be a finite number, got nan"),
    ("run.cfg", b"value_weight = -1\n", ["sm", "--k-b", "6", "--k-sm", "9"],
     "run.cfg: line 1: value_weight must be a finite number >= 0, got -1.0"),
    # 73 x 137 x 1 cells, one more than MAX_EXPERT_SEGMENTS.
    ("bounds.json",
     json.dumps({"recency_days": list(range(72)),
                 "frequency": list(range(136))}).encode(),
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bounds.json: the bin edges make 10001 RFM segments, more than 10000"),
    # Checks on the receipts that pass every row but fail the dataset.
    ("receipts.csv",
     (RECEIPTS_HEADER + "b1,c1,2025-02-01,p1,K00,0.00,3,0\n").encode(),
     ["pps", "--k", "2"], "basket 'b1' has non-positive total value"),
    ("receipts.csv",
     (RECEIPTS_HEADER + f"b1,c1,2025-02-01,p1,K00,0.02,{2**52},0\n").encode(),
     ["pps", "--k", "2"], "total value reaches 2**53 cents"),
    ("receipts.csv",
     (RECEIPTS_HEADER + "b1,c1,2024-12-31,p1,K00,1.00,1,0\n").encode(),
     ["pps", "--k", "2"],
     "no basket inside the window 2025-01-01..2025-03-31 "
     "(1 dropped outside it)"),
    # Too few baskets in the window for the q95 value axis.
    ("receipts.csv",
     (RECEIPTS_HEADER + "b1,c1,2025-02-01,p1,K00,1.00,1,0\n").encode(),
     ["sm", "--k-b", "2", "--k-sm", "2"],
     "need at least 20 baskets for the 95% quantile, got 1"),
    ("receipts.csv",
     (RECEIPTS_HEADER + "b1,c1,2025-02-01,p1,K00,1.00,1,0\n").encode(),
     ["select-k", "--target", "basket"],
     "need at least 20 baskets for the 95% quantile, got 1"),
    # A category that the trained model (``{model}``) lacks.
    ("categories.csv",
     ("category_id,label\n"
      + "".join(f"K{i:02d},Label {i}\n" for i in (*range(8), 99))).encode(),
     ["score", "--model", "{model}"],
     "dataset has categories unknown to the model: ['K99']"),
    # A repeated JSON key, as in the config file.
    ("bounds.json", b'{"recency_days": [1], "recency_days": [5, 30]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bounds.json: duplicate key 'recency_days'"),
    ("model.json", b'{"basket_model": {"k": 6, "k": 6}}',
     ["score", "--model", "{}"],
     "not a valid SM model: PipelineError: duplicate key 'k'"),
    # int() and float() would read these as 3 and 0.001.
    ("run.cfg", "n_init = \u0663\n".encode(), ["pps", "--k", "3"],
     "run.cfg: line 1: bad value '\u0663' for n_init"),
    ("run.cfg", b"tol = 1_0e-4\n", ["pps", "--k", "3"],
     "run.cfg: line 1: bad value '1_0e-4' for tol"),
    # Cluster centers that np.array would convert to 0.5 and 1.0.
    ("model.json", one_category_model([["0.5", "1"]], [[1.0]]),
     ["score", "--model", "{}"],
     "not a valid SM model: KMeansError: center must be a finite number, "
     "got '0.5'"),
    ("model.json", one_category_model([[0.5, 1.0]], [[True]]),
     ["score", "--model", "{}"],
     "not a valid SM model: KMeansError: center must be a finite number, "
     "got True"),
]
# The rows whose fault is in the options, not in the file's content; every
# other row's error line names the file first.
OPTION_FAULTS = {
    "kmeans mode takes no --bounds-file",
    "expert mode takes no --k",
}
MALFORMED_ASSIGNMENTS = [
    (ASSIGNMENTS_HEADER + "x,1\nx,2\ny\n", "line 3: duplicate entity id 'x'"),
    (ASSIGNMENTS_HEADER + "x,1\ny\n", "line 3: need 2 fields, got 1"),
    (ASSIGNMENTS_HEADER + "x,1\n\ny,\n", "line 4: empty entity id or cluster"),
    (ASSIGNMENTS_HEADER + "x,1,extra\n", "line 2: need 2 fields, got 3"),
    (ASSIGNMENTS_HEADER + "x," + "1" * 200_000 + "\n",
     "line 2: malformed CSV: field larger than field limit"),
    (ASSIGNMENTS_HEADER + 'x,1\ny,"2',
     "line 3: malformed CSV: unexpected end of data"),
    ("id,cluster\nx,1\n", "expected header entity_id,cluster"),
    (ASSIGNMENTS_HEADER + "x,\xe9\n", "not valid UTF-8"),
]


def assert_one_error_line(code, capsys, message):
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    return err


@pytest.mark.parametrize("name, content, command, message", MALFORMED_INPUTS)
def test_malformed_side_input_is_one_line_error(
    data_dir, trained_model, tmp_path, capsys, name, content, command, message
):
    path = tmp_path / name
    path.write_bytes(content)
    model = tmp_path / "trained_model.json"
    model.write_text(json.dumps(trained_model))
    placeholders = {"{}": str(path), "{model}": str(model)}
    argv = [placeholders.get(arg, arg) for arg in command]
    argv[1:1] = dataset_args(data_dir)
    if name == "run.cfg":
        argv[:0] = ["--config", str(path)]
    if name in ("receipts.csv", "categories.csv"):
        argv[argv.index("--" + path.stem) + 1] = str(path)
    argv += ["--out", str(tmp_path / "out")]
    err = assert_one_error_line(main(argv), capsys, message)
    named = err.startswith(f"error: {path}")
    assert named == (message not in OPTION_FAULTS), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", MALFORMED_ASSIGNMENTS)
@pytest.mark.parametrize("command", ["compare", "report"])
def test_malformed_assignment_file_is_one_line_error(
    tmp_path, capsys, command, text, message
):
    good = tmp_path / "good.csv"
    good.write_text(ASSIGNMENTS_HEADER + "x,1\ny,2\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.encode("latin-1"))
    code = main([
        command, "--assignments", str(good), "--assignments", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert_one_error_line(code, capsys, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "report"])
def test_assignments_over_different_entities_name_both_files(
    tmp_path, capsys, command
):
    first = tmp_path / "first.csv"
    first.write_text(ASSIGNMENTS_HEADER + "x,1\ny,2\n")
    second = tmp_path / "second.csv"
    second.write_text(ASSIGNMENTS_HEADER + "x,1\nz,2\nw,1\n")
    code = main([
        command, "--assignments", str(first), "--assignments", str(second),
        "--out", str(tmp_path / "out"),
    ])
    err = assert_one_error_line(
        code, capsys,
        "assignments cover different entity sets "
        "(1 only in first, 2 only in second)",
    )
    assert err.startswith(f"error: {first}, {second}: "), err
    assert not (tmp_path / "out").exists()


def test_compare_files_sharing_a_name_is_one_line_error(tmp_path, capsys):
    first = tmp_path / "o1" / "sm_customers_assignments.csv"
    second = tmp_path / "y" / "sm_customers_assignments.csv"
    for path in (first, second):
        path.parent.mkdir()
        path.write_text(ASSIGNMENTS_HEADER + "x,1\ny,2\n")
    code = main([
        "compare", "--assignments", str(first), "--assignments", str(second),
        "--out", str(tmp_path / "out"),
    ])
    err = assert_one_error_line(
        code, capsys,
        "both are 'sm_customers_assignments' in purity_matrix.csv",
    )
    assert err.startswith(f"error: {first}, {second}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "window, message",
    [
        (["--window-start", "2025-13-01", "--window-end", "2025-03-31"],
         "--window-start: bad date '2025-13-01'"),
        (["--window-start", "2025-01-01", "--window-end", "March"],
         "--window-end: bad date 'March'"),
        (["--window-start", "2025-03-31", "--window-end", "2025-01-01"],
         "must be after start"),
    ],
)
def test_bad_window_is_one_line_error(data_dir, tmp_path, capsys, window, message):
    code = main([
        "ingest",
        "--receipts", str(data_dir / "receipts.csv"),
        "--categories", str(data_dir / "categories.csv"),
        *window,
    ])
    assert_one_error_line(code, capsys, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pps", "--k", "3", "--seed", "-1"], "seed must be an int >= 0, got -1"),
        (["syngen", "--seed", "-1"], "seed must be an int >= 0, got -1"),
        (["syngen", "--baskets-max", str(10**20)], "bad baskets range"),
        (["select-k", "--target", "basket", "--k-min", "5", "--k-max", "3"],
         "k range [5, 3] must be non-empty"),
        # The sweep fits k with seed + k; the given seed is what is checked.
        (["select-k", "--k-max", "4", "--seed", "-2"],
         "seed must be an int >= 0, got -2"),
        (["select-k", "--target", "pps", "--k-max", "4", "--seed", "-1"],
         "seed must be an int >= 0, got -1"),
        (["select-k", "--k-max", "4", "--seed", "-3"],
         "seed must be an int >= 0, got -3"),
    ],
)
def test_bad_seed_and_range_are_one_line_errors(
    data_dir, tmp_path, capsys, argv, message
):
    if argv[0] != "syngen":
        argv = argv[:1] + dataset_args(data_dir) + argv[1:]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert_one_error_line(code, capsys, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        ([], "kmeans mode requires k"),
        (["--mode", "expert"], "expert mode requires --bounds-file"),
    ],
)
def test_rfm_mode_without_its_option_is_one_line_error(
    data_dir, tmp_path, capsys, options, message
):
    code = main([
        "rfm", *dataset_args(data_dir), *options,
        "--out", str(tmp_path / "out"),
    ])
    assert_one_error_line(code, capsys, message)
    assert not (tmp_path / "out").exists()


def test_score_reads_the_model_before_the_dataset(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("{}")
    code = main([
        "score",
        "--receipts", str(tmp_path / "nope.csv"),
        "--categories", str(tmp_path / "nope2.csv"),
        *WINDOW_ARGS,
        "--model", str(model), "--out", str(tmp_path / "out"),
    ])
    assert_one_error_line(code, capsys, "not a valid SM model")
    assert not (tmp_path / "out").exists()


def test_value_error_inside_the_program_is_not_a_data_error(
    data_dir, tmp_path, monkeypatch
):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad data")

    monkeypatch.setattr(cli, "run_pps", broken)
    with pytest.raises(ValueError, match="a bug, not bad data"):
        main([
            "pps", *dataset_args(data_dir), "--k", "3",
            "--out", str(tmp_path / "out"),
        ])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--customers", "0"], "n_customers must be an int >= 1, got 0"),
        (["--n-categories", "3"], "at least 4 categories"),
        (["--baskets-min", "0"], "baskets_min must be an int >= 1, got 0"),
        (["--baskets-min", "9", "--baskets-max", "4"], "bad baskets range"),
    ],
)
def test_syngen_bad_config_is_one_line_error(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["syngen", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_ingest_rejects_category_row_without_label(data_dir, tmp_path, capsys):
    categories = tmp_path / "categories.csv"
    categories.write_text(
        (data_dir / "categories.csv").read_text().rstrip("\r\n") + "\r\nK08\r\n"
    )
    args = dataset_args(data_dir)
    args[args.index("--categories") + 1] = str(categories)
    assert main(["ingest", *args]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {categories}: line 10: need 2 fields, got 1\n"


@pytest.mark.parametrize("command", ["ingest", "sm"])
def test_malformed_category_table_error_names_the_file(
    data_dir, tmp_path, capsys, command
):
    categories = tmp_path / "categories.csv"
    categories.write_text('category_id,label\nK00,"Category K00\n')
    args = dataset_args(data_dir)
    args[args.index("--categories") + 1] = str(categories)
    argv = [command, *args]
    if command == "sm":
        argv += ["--k-b", "6", "--k-sm", "9", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {categories}: line 2: malformed CSV: unexpected end of data\n"
    )
    assert not (tmp_path / "out").exists()


FUZZ_RECEIPTS = [
    "basket_id,customer_id,timestamp,product_id,category_id,unit_price,quantity,promo_flag",
    "b1,c1,2025-02-01T10:00:00,p1,K00,2.50,1,0",
    "b1,c1,2025-02-01T10:00:00,p2,K01,1.00,2,1",
    "b2,c2,2025-03-15,p1,K02,0.30,3,0",
    "b3,c1,2025-01-20,p3,K00,12.00,1,0",
    "b4,c3,2024-12-31,p1,K01,4.00,1,0",
]
FUZZ_CATEGORIES = ["category_id,label", "K00,Fresh", "K01,Dairy", "K02,Bakery"]


def csv_bytes(lines):
    return ("\n".join(lines) + "\n").encode()


def file_bytes(lines):
    return st.just(csv_bytes(lines)) | mutated_lines(lines)


@pytest.mark.parametrize("command", [["ingest"], ["pps", "--k", "2"]])
def test_no_basket_inside_the_window_is_one_line_error(
    tmp_path, capsys, command
):
    (tmp_path / "receipts.csv").write_bytes(
        csv_bytes([FUZZ_RECEIPTS[0], FUZZ_RECEIPTS[-1]])
    )
    (tmp_path / "categories.csv").write_bytes(csv_bytes(FUZZ_CATEGORIES))
    argv = [command[0], *dataset_args(tmp_path), *command[1:]]
    if command[0] != "ingest":
        argv += ["--out", str(tmp_path / "out")]
    assert_one_error_line(
        main(argv), capsys,
        "no basket inside the window 2025-01-01..2025-03-31 "
        "(1 dropped outside it)",
    )
    assert not (tmp_path / "out").exists()


def test_z_suffix_and_basic_format_dates_are_read(tmp_path, capsys):
    # The readers are datetime.fromisoformat and date.fromisoformat, which
    # read both forms from Python 3.11 on, the oldest version supported.
    (tmp_path / "receipts.csv").write_bytes(csv_bytes(
        [FUZZ_RECEIPTS[0], "b1,c1,2025-02-01T08:00:00Z,p1,K00,2.50,1,0"]
    ))
    (tmp_path / "categories.csv").write_bytes(csv_bytes(FUZZ_CATEGORIES))
    args = dataset_args(tmp_path)
    args[args.index("--window-start") + 1] = "20250101"
    assert main(["ingest", *args]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_baskets"] == 1 and summary["total_value"] == 2.5


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(receipts=file_bytes(FUZZ_RECEIPTS), categories=file_bytes(FUZZ_CATEGORIES))
# The only basket lies outside the window.
@example(
    receipts=csv_bytes([FUZZ_RECEIPTS[0], FUZZ_RECEIPTS[-1]]),
    categories=csv_bytes(FUZZ_CATEGORIES),
)
def test_ingest_cli_on_mutated_files_exits_0_or_1(tmp_path, capsys, receipts, categories):
    (tmp_path / "receipts.csv").write_bytes(receipts)
    (tmp_path / "categories.csv").write_bytes(categories)
    code = main(["ingest", *dataset_args(tmp_path)])
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["n_baskets"] >= 1
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
