import hashlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import WINDOW
from shopmission.cli import main
from shopmission import features as feat
from shopmission.syngen import (
    Archetype,
    GeneratorConfig,
    MissionProfile,
    RfmPersona,
    SyngenError,
    default_config,
    generate,
    load_truth,
)
from shopmission.txmodel import ParseError, ValidationError, ingest_receipts


def single_archetype_config(seed=0, concentration=float("inf")):
    archetypes = [Archetype("only", (0.5, 0.3, 0.2), np.log(10.0), 0.0)]
    return GeneratorConfig(
        archetypes=archetypes,
        missions=[MissionProfile("mono", (1.0,))],
        personas=[RfmPersona("plain", (20, 30))],
        n_customers=5,
        seed=seed,
        concentration=concentration,
    )


def test_config_invariant_violations():
    with pytest.raises(SyngenError, match="sum to 1"):
        Archetype("bad", (0.5, 0.6), 1.0, 0.1)
    with pytest.raises(SyngenError, match="sum to 1"):
        MissionProfile("bad", (0.5, 0.6))
    with pytest.raises(SyngenError, match="baskets_min must be an int >= 1, got 0"):
        RfmPersona("bad", (0, 3))
    cfg = single_archetype_config()
    with pytest.raises(SyngenError, match="n_categories"):
        GeneratorConfig(
            archetypes=[*cfg.archetypes, Archetype("pair", (0.5, 0.5), 1.0, 0.1)],
            missions=[MissionProfile("duo", (0.5, 0.5))],
            personas=cfg.personas,
            n_customers=5,
            seed=0,
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        # Each case keeps the id its position in an older, longer list gave
        # it; the ids still name the rule each case checks.
        pytest.param({"n_customers": 0},
                     "n_customers must be an int >= 1, got 0",
                     id="changes0-n_customers must be an int >= 1, got 0"),
        pytest.param({"missions": []},
                     "at least one archetype, mission and persona",
                     id="changes5-at least one archetype, mission and persona"),
        pytest.param({"concentration": float("nan")},
                     "concentration must be a finite number > 0, got nan",
                     id="changes6-concentration must be positive"),
        # n_categories is the mixtures' length, checked by its NUMBERS row
        pytest.param({"archetypes": [Archetype("one", (1.0,), 1.0, 0.1)]},
                     "n_categories must be an int >= 2, got 1",
                     id="changes7-need at least 2 categories"),
        pytest.param({"missions": [MissionProfile("pair", (0.5, 0.5))]},
                     "mission 'pair' weights length != n_archetypes",
                     id="changes8-mission 'pair' weights length != n_archetypes"),
        pytest.param({"seed": True}, "seed must be an int >= 0, got True",
                     id="changes10-seed must be an int >= 0, got True"),
        pytest.param({"seed": 1.5}, "seed must be an int >= 0, got 1.5",
                     id="changes11-seed must be an int >= 0, got 1.5"),
        pytest.param({"archetypes": ["a"]},
                     "archetypes must hold Archetype entries, got 'a'",
                     id="archetype-entry"),
        pytest.param({"missions": [1]},
                     "missions must hold MissionProfile entries, got 1",
                     id="mission-entry"),
        pytest.param({"personas": [("x",)]},
                     re.escape("personas must hold RfmPersona entries, "
                               "got ('x',)"),
                     id="persona-entry"),
    ],
)
def test_generator_config_rejects_bad_values(changes, message):
    with pytest.raises(SyngenError, match=message):
        replace(single_archetype_config(), **changes)


def test_profile_and_persona_values_checked():
    # sums to 1, so only the sign check catches it
    with pytest.raises(SyngenError,
                       match="share must be a finite number >= 0, got -0.5"):
        MissionProfile("bad", (1.5, -0.5))
    with pytest.raises(SyngenError,
                       match="active_fraction must be a finite number > 0, got 0.0"):
        RfmPersona("bad", (1, 2), active_fraction=0.0)
    with pytest.raises(SyngenError,
                       match="value_scale must be a finite number > 0, got 0.0"):
        RfmPersona("bad", (1, 2), value_scale=0.0)
    with pytest.raises(SyngenError,
                       match="value_sigma must be a finite number >= 0, got nan"):
        Archetype("bad", (0.5, 0.5), 1.0, float("nan"))


def test_persona_comparisons_past_the_table():
    with pytest.raises(SyngenError, match="active_fraction must be <= 1, got 1.5"):
        RfmPersona("bad", (1, 2), active_fraction=1.5)
    with pytest.raises(SyngenError, match="persona 'bad' has bad baskets range"):
        RfmPersona("bad", (3, 2))
    persona = RfmPersona("ok", (np.int64(2), np.uint8(3)), np.float32(0.5))
    assert persona.baskets_range == (2, 3)
    assert [type(n) for n in persona.baskets_range] == [int, int]
    assert type(persona.active_fraction) is float


@pytest.mark.parametrize("baskets_range", [5, (1, 2, 3)])
def test_baskets_range_must_be_a_pair(baskets_range):
    message = (f"persona 'frequent' baskets_range must be a list of 2 numbers, "
               f"got {baskets_range!r}")
    with pytest.raises(SyngenError, match=f"^{re.escape(message)}$"):
        default_config(baskets_range=baskets_range)


@pytest.mark.parametrize("shares, message", [
    pytest.param(5, "archetype 'x' mixture must be a list of numbers, got 5",
                 id="number"),
    pytest.param(("0.5", "0.5"), "share must be a finite number >= 0, got '0.5'",
                 id="text"),
    pytest.param((True, False), "share must be a finite number >= 0, got True",
                 id="boolean"),
    pytest.param((float("nan"), 1.0),
                 "share must be a finite number >= 0, got nan", id="nan"),
])
def test_archetype_mixture_is_a_list_of_shares(shares, message):
    with pytest.raises(SyngenError, match=f"^{re.escape(message)}$"):
        Archetype("x", shares, 1.0, 0.1)


def test_mission_weights_are_kept_as_checked_floats():
    message = "mission 'm' weights must be a list of numbers, got None"
    with pytest.raises(SyngenError, match=f"^{re.escape(message)}$"):
        MissionProfile("m", None)
    mission = MissionProfile("m", [np.float32(0.5), 0, np.int64(0), 0.5])
    assert mission.archetype_weights == (0.5, 0.0, 0.0, 0.5)
    assert {type(w) for w in mission.archetype_weights} == {float}


def test_config_n_categories_is_the_mixture_length():
    assert [f.name for f in fields(GeneratorConfig)] == [
        "archetypes", "missions", "personas", "n_customers", "seed",
        "concentration",
    ]
    cfg = single_archetype_config()
    assert cfg.n_categories == 3
    with pytest.raises(AttributeError):
        cfg.n_categories = 4


def test_focused_mixture_is_normalised_left_to_right():
    # The eight shares add left to right to 0x1.ffffffffffffdp-1; Python
    # 3.12's compensated sum() gives 1.0, which would change every share.
    focused = default_config(n_categories=8).archetypes[3]
    assert focused.name == "focused-1"
    assert [m.hex() for m in focused.mixture] == (
        ["0x1.d41d41d41d421p-7", "0x1.cccccccccccd0p-1"]
        + ["0x1.d41d41d41d421p-7"] * 6
    )


def test_default_config_needs_four_categories():
    with pytest.raises(SyngenError, match="at least 4 categories, .* got 3"):
        default_config(n_categories=3)
    assert default_config(n_categories=4).n_categories == 4


def test_zero_noise_identical_ratios(tmp_path):
    generate(single_archetype_config(), tmp_path)
    dataset = ingest_receipts(
        tmp_path / "receipts.csv", tmp_path / "categories.csv", WINDOW
    )
    assert dataset.category_ids == ["K00", "K01", "K02"]
    ratios = set()
    for spend in dataset.spend_cents.tolist():
        total = sum(spend)
        ratios.add(tuple(round(cents / total, 2) for cents in spend))
    # rounding to cents wiggles the ratios by <1%, nothing more
    assert ratios == {(0.5, 0.3, 0.2)}


def test_same_seed_byte_identical_output(tmp_path):
    cfg = default_config(n_customers=50, seed=21)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    generate(cfg, d1)
    generate(default_config(n_customers=50, seed=21), d2)
    for name in (
        "receipts.csv",
        "categories.csv",
        "ground_truth_baskets.csv",
        "ground_truth_customers.csv",
    ):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emitted_data_passes_ingestion(small_planted):
    out, _, truth, dataset = small_planted
    assert dataset.dropped_outside_window == 0
    assert dataset.n_baskets == len(truth.basket_archetype)
    assert load_truth(out) == truth


CUSTOMERS_HEADER = "customer_id,mission,persona\r\n"


@pytest.mark.parametrize("name, text, error, message", [
    ("ground_truth_baskets.csv", "basket_id,mission\r\nb1,x\r\n", ParseError,
     "expected header basket_id,archetype, got ['basket_id', 'mission']"),
    ("ground_truth_customers.csv", "customer_id,mission\r\nc1,x\r\n",
     ParseError,
     "expected header customer_id,mission,persona, got "
     "['customer_id', 'mission']"),
    ("ground_truth_baskets.csv", 'basket_id,archetype\r\nb1,"x', ParseError,
     "line 2: malformed CSV: unexpected end of data"),
    ("ground_truth_customers.csv", CUSTOMERS_HEADER + 'c1,m,"x', ParseError,
     "line 2: malformed CSV: unexpected end of data"),
    ("ground_truth_customers.csv", CUSTOMERS_HEADER + "c1,m\r\n", ParseError,
     "line 2: need 3 fields, got 2"),
    ("ground_truth_customers.csv", CUSTOMERS_HEADER + "c1,,p\r\n", ParseError,
     "line 2: empty customer id or mission or persona"),
    ("ground_truth_customers.csv", CUSTOMERS_HEADER + "c1,m,\r\n", ParseError,
     "line 2: empty customer id or mission or persona"),
    ("ground_truth_customers.csv",
     CUSTOMERS_HEADER + "c1,m,p\r\n\r\nc1,m,q\r\n", ValidationError,
     "line 4: duplicate customer id 'c1'"),
], ids=[
    "basket-header", "customer-header", "basket-quote", "customer-quote",
    "customer-fields", "empty-mission", "empty-persona", "repeated-customer",
])
def test_load_truth_rejects_a_malformed_file(tmp_path, name, text, error,
                                             message):
    generate(default_config(n_customers=5, seed=1), tmp_path)
    path = tmp_path / name
    path.write_bytes(text.encode())
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_truth(tmp_path)


def test_load_truth_skips_blank_lines(tmp_path):
    truth = generate(default_config(n_customers=5, seed=1), tmp_path)
    for name in ("ground_truth_baskets.csv", "ground_truth_customers.csv"):
        path = tmp_path / name
        header, *rows = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join([header, b"", *rows, b""]))
    assert load_truth(tmp_path) == truth


def test_archetype_separation(small_planted):
    _, _, truth, dataset = small_planted
    q = feat.compute_q95(dataset)
    matrix = feat.basket_sm_features(dataset, dataset.category_ids, q)
    by_arch = {}
    for i, bid in enumerate(matrix.ids):
        by_arch.setdefault(truth.basket_archetype[bid], []).append(matrix.X[i])
    names = sorted(by_arch)
    centers = {a: np.mean(by_arch[a], axis=0) for a in names}
    stds = {
        a: np.sqrt(((by_arch[a] - centers[a]) ** 2).sum(axis=1).mean())
        for a in names
    }
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dist = np.sqrt(((centers[a] - centers[b]) ** 2).sum())
            assert dist > 3 * max(stds[a], stds[b]), (a, b)


def test_empirical_mixtures_converge(tmp_path):
    cfg = default_config(n_customers=1000, seed=33, baskets_range=(8, 16))
    truth = generate(cfg, tmp_path)
    dataset = ingest_receipts(
        tmp_path / "receipts.csv", tmp_path / "categories.csv", WINDOW
    )
    assert dataset.n_baskets >= 5000
    archetype_by_name = {a.name: a for a in cfg.archetypes}
    spend = {a.name: np.zeros(cfg.n_categories) for a in cfg.archetypes}
    for bid, cents in zip(dataset.basket_ids, dataset.spend_cents):
        spend[truth.basket_archetype[bid]] += cents
    for name, totals in spend.items():
        empirical = totals / totals.sum()
        expected = np.asarray(archetype_by_name[name].mixture)
        assert np.abs(empirical - expected).sum() < 0.05


def test_truth_label_counts_match_entities(small_planted):
    _, _, truth, dataset = small_planted
    assert len(truth.basket_archetype) == dataset.n_baskets
    assert len(truth.customer_mission) == len(dataset.customer_ids)
    assert len(truth.customer_persona) == len(dataset.customer_ids)


def test_benchmark_dataset_is_pinned(tmp_path):
    # select-k-500's first reference dataset: any change to a draw or to
    # the text of a line shows here.
    digests = {
        "receipts.csv":
            "f65e989373b74a22ecbd5c56af31c2b7ac03e81508360750bbf38adf320e67e7",
        "ground_truth_baskets.csv":
            "372ccfc08f7ba0b7046be79607d770998f58c8c25692c2f798a412467c9e2fac",
        "ground_truth_customers.csv":
            "f56a4b932737a698746b1120edd401491fd8df3f577d6bb93ef0ea62d84798ca",
        "categories.csv":
            "7c3f3da1f0b10e52ab15fd960a34622d5fbee4b1d5000e062c295628f5d37081",
    }
    generate(default_config(n_customers=500, seed=1), tmp_path / "api")
    assert main([
        "syngen", "--out", str(tmp_path / "cli"), "--seed", "1",
        "--customers", "500",
    ]) == 0
    for name, digest in digests.items():
        for out in ("api", "cli"):
            data = (tmp_path / out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (out, name)
