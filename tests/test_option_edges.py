"""Every option and config value gives a result or one ``error:`` line.

Each example runs one subcommand through ``cli.main`` on a tiny syngen
dataset, with its numeric options and the config keys drawn at the edges:
0, negatives, k above the distinct-row count, huge integers, NaN and
+-inf. The run must exit 0, 1 or 2 without a traceback and print at most
one ``error:`` line. A failed run leaves no ``--out`` directory, and on
exit 0 every file under ``--out`` reads back through ``test_roundtrip``'s
readers.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW
from shopmission.cli import CONFIG_KEYS, main
from shopmission.txmodel import AnalysisWindow, ingest_receipts
from test_roundtrip import OutputChecker

# Half of the draws are small valid counts. The dataset has 10 customers
# and about 25 baskets, so 12 and 60 exceed the distinct rows of one
# matrix or both.
EDGE_INTS = st.integers(1, 4) | st.sampled_from([-7, -1, 0, 12, 60, 2**63])
# syngen's sizes stay small, so that a valid draw writes a tiny dataset.
SYNGEN_OPTIONS = {
    "--customers": [-1, 0, 1, 5],
    "--n-categories": [-1, 0, 1, 3, 4, 6],
    "--baskets-min": [-1, 0, 1, 3],
    "--baskets-max": [-1, 0, 1, 3, 2**63],
}
# Per config key: (plain values, edge values), drawn half and half. n_init
# and max_iter stay small, so that no example runs for long.
CONFIG_VALUES = {
    "tol": (["1e-4", "0.5"], ["0", "-1", "1e-300", "1e308", "nan", "inf"]),
    "n_init": (["1", "3"], ["0", "-1", "2.5"]),
    "max_iter": (["2", "20"], ["0", "-1", "1"]),
    "dominance_threshold": (["0.3", "-1"], ["1e308", "nan", "inf", "-inf"]),
    "value_weight": (["0", "2"], ["-1", "1e-300", "1e308", "nan", "-inf"]),
    "standardize_rfm": (["on", "off"], ["maybe", ""]),
}
# Plain windows, then edge ones, drawn half and half.
WINDOWS = (
    [(str(WINDOW.start), str(WINDOW.end)), ("20250101", "20250331")],
    [
        ("2025-03-25", "2025-03-31"),  # a few baskets
        ("2025-02-01", "2025-02-01"),  # empty
        ("2025-03-01", "2025-01-01"),  # reversed
    ],
)


def plain_or_edge(values):
    plain, edge = values
    return st.sampled_from(plain) | st.sampled_from(edge)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The dataset, a bounds file, an SM model and two assignment files."""
    base = tmp_path_factory.mktemp("option_edges")
    data = base / "data"
    assert main([
        "syngen", "--out", str(data), "--seed", "11", "--customers", "10",
        "--baskets-min", "2", "--baskets-max", "3",
    ]) == 0
    dataset = [
        "--receipts", str(data / "receipts.csv"),
        "--categories", str(data / "categories.csv"),
    ]
    window = [
        "--window-start", str(WINDOW.start), "--window-end", str(WINDOW.end),
    ]
    assert main(["sm", *dataset, *window, "--k-b", "3", "--k-sm", "2",
                 "--out", str(base / "sm")]) == 0
    assert main(["pps", *dataset, *window, "--k", "2",
                 "--out", str(base / "pps")]) == 0
    bounds = base / "bounds.json"
    bounds.write_text('{"recency_days": [30], "monetary": [2.0]}')
    return {
        "data": data,
        "dataset": dataset,
        "bounds": str(bounds),
        "model": str(base / "sm" / "sm_model.json"),
        "assignments": [
            "--assignments", str(base / "sm" / "sm_customers_assignments.csv"),
            "--assignments", str(base / "pps" / "pps_assignments.csv"),
        ],
    }


def optional(flag, values):
    """argv for ``flag`` with one of ``values``, or nothing."""
    return st.none() | values.map(lambda v: [flag, str(v)])


@st.composite
def command(draw, inputs):
    """(subcommand, argv after it) with options drawn at their edges."""
    name = draw(st.sampled_from([
        "syngen", "ingest", "rfm", "pps", "sm", "select-k", "score",
        "compare", "report",
    ]))
    parts = []
    if name == "syngen":
        parts += [
            optional(flag, st.sampled_from(values))
            for flag, values in SYNGEN_OPTIONS.items()
        ]
    elif name in ("compare", "report"):
        return name, list(inputs["assignments"])
    else:
        start, end = draw(plain_or_edge(WINDOWS))
        parts.append(st.just([
            *inputs["dataset"], "--window-start", start, "--window-end", end,
        ]))
    if name == "rfm":
        parts += [
            optional("--mode", st.sampled_from(["kmeans", "expert"])),
            optional("--k", EDGE_INTS),
            optional("--bounds-file", st.just(inputs["bounds"])),
        ]
    elif name == "pps":
        parts.append(EDGE_INTS.map(lambda k: ["--k", str(k)]))
    elif name == "sm":
        parts += [
            EDGE_INTS.map(lambda k: ["--k-b", str(k)]),
            EDGE_INTS.map(lambda k: ["--k-sm", str(k)]),
        ]
    elif name == "select-k":
        parts += [
            optional("--target", st.sampled_from(["pps", "basket", "rfm"])),
            optional("--k-min", EDGE_INTS),
            optional("--k-max", EDGE_INTS),
            optional(
                "--policy",
                st.sampled_from(["db_min", "variance_elbow", "report_only"]),
            ),
        ]
    elif name == "score":
        parts.append(st.just(["--model", inputs["model"]]))
    if name in ("syngen", "rfm", "pps", "sm", "select-k"):
        parts.append(optional("--seed", EDGE_INTS))
    argv = [arg for part in parts for arg in (draw(part) or [])]
    return name, argv


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_outputs(out, name, argv, data):
    """Read back every file that a successful run wrote under ``out``; the
    run read the dataset in ``data``, or wrote it there for syngen."""
    window = WINDOW
    if name == "syngen":
        data = out
    elif "--window-start" in argv:
        flag = argv.index
        window = AnalysisWindow(
            date.fromisoformat(argv[flag("--window-start") + 1]),
            date.fromisoformat(argv[flag("--window-end") + 1]),
        )
    dataset = ingest_receipts(
        data / "receipts.csv", data / "categories.csv", window
    )
    customers = dataset.customer_ids
    OutputChecker(dataset, {
        "rfm_assignments.csv": customers,
        "pps_assignments.csv": customers,
        "sm_customers_assignments.csv": customers,
        "sm_baskets_assignments.csv": dataset.basket_ids,
        "scored_assignments.csv": customers,
    }).check_dir(out, name.replace("-", "_"))


def test_config_draws_cover_every_key():
    assert sorted(CONFIG_VALUES) == sorted(CONFIG_KEYS)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_every_option_value_gives_a_result_or_one_error_line(inputs, data):
    name, argv = data.draw(command(inputs), label="command")
    # Up to two keys, so that some configs hold no bad value.
    config = data.draw(st.lists(
        st.sampled_from(sorted(CONFIG_VALUES)), max_size=2, unique=True,
    ).flatmap(lambda keys: st.fixed_dictionaries({
        key: plain_or_edge(CONFIG_VALUES[key]) for key in keys
    })), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        head = []
        if config:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            head = ["--config", str(path)]
        tail = [] if name == "ingest" else ["--out", str(out)]
        code, stdout, stderr = run([*head, name, *argv, *tail])

        assert code in (0, 1, 2), stderr
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if "error:" in line]
        assert len(errors) == (code != 0), stderr
        if code == 1:
            assert errors[0].startswith("error: "), stderr
        if code:
            assert not out.exists()
        elif name == "ingest":
            assert json.loads(stdout)["n_baskets"] >= 1
        else:
            check_outputs(out, name, argv, inputs["data"])
