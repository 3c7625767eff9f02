import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutated_lines
import shopmission
from shopmission import cli
from shopmission.cli import InputError, load_config, main

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


@pytest.mark.parametrize("command", [
    ["sm", "--k-b", "6", "--k-sm", "9"],
    ["select-k", "--target", "basket", "--k-max", "4"],
])
def test_sm_and_select_k_leave_numpy_ma_unloaded(data_dir, tmp_path, command):
    # np.quantile and np.unique import numpy.ma; these commands use neither.
    script = (
        "import sys\n"
        "from shopmission.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(shopmission.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", script, *command, *dataset_args(data_dir),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "0 False\n"


def test_unconverged_fits_warn_on_stderr(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iter = 1\n")
    out = tmp_path / "sm"
    rc = main([
        "--config", str(cfg), "sm", *dataset_args(data_dir),
        "--k-b", "6", "--k-sm", "9", "--seed", "42", "--out", str(out),
    ])
    assert rc == 0
    warnings = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("warning:")
    ]
    assert len(warnings) == 2
    assert "stage-1 basket" in warnings[0] and "max_iter" in warnings[0]
    model = json.loads((out / "sm_model.json").read_text())
    assert model["basket_model"]["converged"] is False
    assert model["customer_model"]["converged"] is False
    metrics = json.loads((out / "sm_baskets_metrics.json").read_text())
    assert metrics["converged"] is False


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


ASSIGNMENTS_HEADER = "entity_id,cluster\n"

# (file name, bytes, command tail after the dataset arguments, message).
# Each command reads one malformed side input; "{}" stands for its path.
MALFORMED_INPUTS = [
    ("run.cfg", b"n_init = 0\n", ["pps", "--k", "3"],
     "n_init must be >= 1, got 0"),
    ("run.cfg", b"n_init = 2.5\n", ["pps", "--k", "3"],
     "run.cfg:1: bad value '2.5' for n_init"),
    ("run.cfg", b"# tuned\ntol 1e-3\n", ["pps", "--k", "3"],
     "run.cfg:2: expected key = value"),
    ("run.cfg", b"tol = \xff\n", ["pps", "--k", "3"], "not valid UTF-8"),
    ("bounds.json", b"[1, 2]", ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "expected a JSON object"),
    ("bounds.json", b'{"monetary": ["a", 1]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "bin edges for 'monetary' must be a list of finite numbers"),
    ("bounds.json", b'{"frequency": [NaN]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"], "finite numbers"),
    ("bounds.json", b'{"recency_days": 30}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"], "finite numbers"),
    ("bounds.json", b'{"recency": [30]}',
     ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "unknown RFM dimension 'recency'"),
    ("bounds.json", b"{not json", ["rfm", "--mode", "expert", "--bounds-file", "{}"],
     "not valid JSON"),
    ("model.json", b"{}", ["score", "--model", "{}"], "not a valid SM model"),
    ("model.json", b"\xff", ["score", "--model", "{}"], "not a valid SM model"),
]
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


@pytest.mark.parametrize("name, content, command, message", MALFORMED_INPUTS)
def test_malformed_side_input_is_one_line_error(
    data_dir, tmp_path, capsys, name, content, command, message
):
    path = tmp_path / name
    path.write_bytes(content)
    argv = [str(path) if arg == "{}" else arg for arg in command]
    argv[1:1] = dataset_args(data_dir)
    if name == "run.cfg":
        argv[:0] = ["--config", str(path)]
    argv += ["--out", str(tmp_path / "out")]
    assert_one_error_line(main(argv), capsys, message)


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
        (["pps", "--k", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["syngen", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["syngen", "--baskets-max", str(10**20)], "bad baskets range"),
    ],
)
def test_bad_seed_and_range_are_one_line_errors(
    data_dir, tmp_path, capsys, argv, message
):
    if argv[0] != "syngen":
        argv = argv[:1] + dataset_args(data_dir) + argv[1:]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert_one_error_line(code, capsys, message)


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
        (["--customers", "0"], "at least 1 customer, got 0"),
        (["--n-categories", "3"], "at least 4 categories"),
        (["--baskets-min", "0"], "bad baskets range"),
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
    assert err == "error: line 10: category row needs 2 fields, got 1\n"


FUZZ_RECEIPTS = [
    "basket_id,customer_id,timestamp,product_id,category_id,unit_price,quantity,promo_flag",
    "b1,c1,2025-02-01T10:00:00,p1,K00,2.50,1,0",
    "b1,c1,2025-02-01T10:00:00,p2,K01,1.00,2,1",
    "b2,c2,2025-03-15,p1,K02,0.30,3,0",
    "b3,c1,2025-01-20,p3,K00,12.00,1,0",
    "b4,c3,2024-12-31,p1,K01,4.00,1,0",
]
FUZZ_CATEGORIES = ["category_id,label", "K00,Fresh", "K01,Dairy", "K02,Bakery"]


def file_bytes(lines):
    return st.just(("\n".join(lines) + "\n").encode()) | mutated_lines(lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(receipts=file_bytes(FUZZ_RECEIPTS), categories=file_bytes(FUZZ_CATEGORIES))
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
