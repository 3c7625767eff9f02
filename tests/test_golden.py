"""Golden outputs: the sha256 of every file each command writes under --out
(``manifest.json`` aside, as it names temporary paths) and of its stdout,
on a tiny fixed syngen set. A refactor that keeps behaviour keeps every
digest; a change that alters an output must re-record the digests it
alters, and only those."""

import contextlib
import hashlib
import io
import json

import pytest

from shopmission.cli import main

SYNGEN = ["--seed", "3", "--customers", "40", "--baskets-min", "4",
          "--baskets-max", "8"]
WINDOW = ["--window-start", "2025-01-01", "--window-end", "2025-03-31"]
BOUNDS = {"recency_days": [20.0, 45.0], "frequency": [5.0],
          "monetary": [150.0, 400.0]}


def commands(data, out):
    """(name, argv) of every run, in an order where each run finds the
    files that the runs before it wrote."""
    dataset = ["--receipts", str(data / "receipts.csv"),
               "--categories", str(data / "categories.csv"), *WINDOW]
    sk = ["--k-min", "2", "--k-max", "5", "--seed", "4"]
    assignments = [
        "--assignments", str(out / "sm" / "sm_customers_assignments.csv"),
        "--assignments", str(out / "pps" / "pps_assignments.csv"),
    ]
    return [
        ("ingest", ["ingest", *dataset]),
        ("sm", ["sm", *dataset, "--k-b", "4", "--k-sm", "3", "--seed", "7"]),
        ("rfm", ["rfm", *dataset, "--k", "3", "--seed", "2"]),
        ("rfm_expert", ["rfm", *dataset, "--mode", "expert",
                        "--bounds-file", str(out / "bounds.json")]),
        ("pps", ["pps", *dataset, "--k", "3", "--seed", "5"]),
        ("select_k_basket", ["select-k", *dataset, "--target", "basket", *sk]),
        ("select_k_pps", ["select-k", *dataset, "--target", "pps", *sk,
                          "--policy", "variance_elbow"]),
        ("select_k_rfm", ["select-k", *dataset, "--target", "rfm", *sk]),
        ("select_k_rfm_raw", ["--config", str(out / "raw.cfg"), "select-k",
                              *dataset, "--target", "rfm", *sk]),
        ("compare", ["compare", *assignments, "--assignments",
                     str(out / "rfm" / "rfm_assignments.csv")]),
        ("report", ["report", *assignments]),
        ("score", ["score", *dataset,
                   "--model", str(out / "sm" / "sm_model.json")]),
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(tmp_path) -> dict:
    """name -> {file name or "<stdout>": sha256} over every command."""
    data = tmp_path / "data"
    out = tmp_path / "out"
    out.mkdir()
    (out / "bounds.json").write_text(json.dumps(BOUNDS), encoding="utf-8")
    (out / "raw.cfg").write_text("standardize_rfm = off\n", encoding="utf-8")
    runs = [("syngen", ["syngen", *SYNGEN, "--out", str(data)])]
    runs += [
        (name, argv if name == "ingest" else argv + ["--out", str(out / name)])
        for name, argv in commands(data, out)
    ]
    digests = {}
    for name, argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, name
        files = {"<stdout>": digest(stdout.getvalue().encode("utf-8"))}
        directory = data if name == "syngen" else out / name
        if name != "ingest":
            files.update(
                (p.name, digest(p.read_bytes()))
                for p in sorted(directory.iterdir())
                if p.name != "manifest.json"
            )
        digests[name] = files
    return digests


GOLDEN = {
    "compare": {
        "<stdout>":
            "adb6f19d9d2b5796dff65ab1dccaf5bf2b482360e114eb1aa5c0062332ab25b3",
        "purity_matrix.csv":
            "51b188edede9639902c3968965afd59f456976e4bce475ff1dddb353253092f3",
    },
    "ingest": {
        "<stdout>":
            "e44e00430a8006355295e068a41b9092ff45b5231023aedcc7f331fdef0b28ce",
    },
    "pps": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pps_assignments.csv":
            "e7e047f10e700e9d8125e6093c44ce5e4a2ba0fcf62cc2e96b4d5fb2656c34f9",
        "pps_centers.csv":
            "deb3782017232eba453b9b3f511b5b4b0018e2964a561c7bf8861a08336af8b5",
        "pps_metrics.json":
            "43e2ece174fb94b591f0e3d621143455d0a7afbf038ef6470484d7b3113e4192",
        "pps_shares.csv":
            "9cf960d66601f2207003b19556374eebdc4233240444bb40ad0635f2429be740",
    },
    "report": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "crosstab.csv":
            "da39840456b8ee2edd82c24ec2816e19fd37784dbe97fd92f777c298276b0910",
        "crosstab.json":
            "d0c3e8d0fdb11a0b2f02002e1e7b044a4f4db7a33a276ca7e2c9a567cd8a9093",
    },
    "rfm": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rfm_assignments.csv":
            "6f36a27a11cfde2aefffa894455cae5ea246b420012e95fde1dd89ae695ac19f",
        "rfm_centers.csv":
            "ca471ff99ea22a3be73ff95e3013617fab75d270dad0181142d1e15e1fcbf40a",
        "rfm_metrics.json":
            "b77112e6269f84ca1d372750d7801e97b36e1bcd532188b2b9420139f220f8f5",
        "rfm_shares.csv":
            "8490724694dab6945b13dbf7749e9cfb99864e829923f95381bca5fa44ed6d15",
    },
    "rfm_expert": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rfm_assignments.csv":
            "967d8118d3ce24976eff56c6c1c2498f910efb538e69c7b1524a9baeb16edabc",
        "rfm_centers.csv":
            "9eb7c2a052d825311a71e47689876b12d75d01bf9275ccb980af25fe839f5a43",
        "rfm_metrics.json":
            "e7243f05e4cfe72d8022b9be959330c17271b05ea8abd61fd9d079017a2f892c",
        "rfm_shares.csv":
            "dcb345950496db20a831923ed7d5b8473f926f297389d3db393838a59188e558",
    },
    "score": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "scored_assignments.csv":
            "9a8ffc728bd2dad45fc61babdc136a6b572a6769157351fb5b17cbb76ad8d1e0",
    },
    "select_k_basket": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k_recommendation.json":
            "d5231e9daca4027f4cff9bef818b286f7c16e0e3152504aecf8b790752a6bca5",
        "k_sweep.csv":
            "a341516da9dc3bce5b77e145fe45b5bf040022bb8a49c84a1ada18b138afc86c",
    },
    "select_k_pps": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k_recommendation.json":
            "5ca3ac20b407933c8a88579f8a6e8b81507da24c2e685674c1c262e16b3a3249",
        "k_sweep.csv":
            "40d242de517b553dffb928f8f7d51e7464f567af080474702cd26b8a182dd79e",
    },
    # The rfm sweep runs on the features rfm fits: z-scored by default,
    # raw under standardize_rfm = off.
    "select_k_rfm": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k_recommendation.json":
            "ecf0f3b23c2f2d1b503ce2c9e4c890aa3fe3300dcc9aa6f3ac32bbbdbeeee730",
        "k_sweep.csv":
            "0a3ae12f2aa39561124ca16fa983982f0099a7429d747f2373ea0018a961e672",
    },
    "select_k_rfm_raw": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k_recommendation.json":
            "dafab3b95b252246d93b48a5c7d41aa6d9dfdb4688b9e8bbed92a882aa4793ec",
        "k_sweep.csv":
            "66e8561289fb753a244b3a469d1d5f8dd8074dffb07cbb61f6f2360b5c2134c3",
    },
    "sm": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sm_baskets_assignments.csv":
            "72a0073f7f8c9dc621f62fc328a7aa8baa1a508c54bffda29b22f21695adc2e2",
        "sm_baskets_centers.csv":
            "c26674fdc16ff9b11cb13a065b88b75e883dee1cb40549f834f91acf013f6784",
        "sm_baskets_metrics.json":
            "6f4317f06262aefb3d2846807a0d829d9e7458d25826d25de7e3e3baa8a369a3",
        "sm_baskets_shares.csv":
            "1bf45d2655a59c167a2edf34cc144cca0401a603f1f6bbe945a621bfd363f9f2",
        "sm_customers_assignments.csv":
            "9a8ffc728bd2dad45fc61babdc136a6b572a6769157351fb5b17cbb76ad8d1e0",
        "sm_customers_centers.csv":
            "a8967f685c0cb1f048ee08b10508d736714c9b0dc007580a80c2efa40222efeb",
        "sm_customers_metrics.json":
            "89b7a0deed6ee1524b45968aa283ac28feec4da473f27873acfd450a6b336d77",
        "sm_customers_shares.csv":
            "347c934c8b71c257c70babbd9e5136ae8724f4d5ac5d21f685b693b673a993c4",
        "sm_model.json":
            "73a941227299de439125d62622bdf55850077fa32e340d047ad6e403026033db",
    },
    "syngen": {
        "<stdout>":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "categories.csv":
            "7c3f3da1f0b10e52ab15fd960a34622d5fbee4b1d5000e062c295628f5d37081",
        "ground_truth_baskets.csv":
            "f07a6d87b5f0687e2b28d1390a02f1a4ac8369b94ff4bdb71e2934fc12c5f15f",
        "ground_truth_customers.csv":
            "9dacd196b2f026ecc644e429121db59fd930bbfab27f0fef4b22a49404dc4781",
        "receipts.csv":
            "f6c70910d3f503a836d9ae6641abdcbb743d464d24fe63c6c955e0afa69da67e",
    },
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(digests, name):
    assert digests[name] == GOLDEN[name]


def test_golden_covers_every_run(digests):
    assert sorted(digests) == sorted(GOLDEN)
