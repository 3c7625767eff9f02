from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from conftest import WINDOW
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
from shopmission.txmodel import ingest_receipts


def single_archetype_config(seed=0, concentration=float("inf")):
    archetypes = [Archetype("only", (0.5, 0.3, 0.2), np.log(10.0), 0.0)]
    return GeneratorConfig(
        n_categories=3,
        archetypes=archetypes,
        missions=[MissionProfile("mono", (1.0,))],
        personas=[RfmPersona("plain", (20, 30))],
        n_customers=5,
        window_start=date(2025, 1, 1),
        window_end=date(2025, 3, 31),
        seed=seed,
        concentration=concentration,
    )


def test_config_invariant_violations():
    with pytest.raises(SyngenError, match="sum to 1"):
        Archetype("bad", (0.5, 0.6), 1.0, 0.1)
    with pytest.raises(SyngenError, match="sum to 1"):
        MissionProfile("bad", (0.5, 0.6))
    with pytest.raises(SyngenError, match="baskets range"):
        RfmPersona("bad", (0, 3))
    cfg = single_archetype_config()
    with pytest.raises(SyngenError, match="n_categories"):
        GeneratorConfig(
            n_categories=4,
            archetypes=cfg.archetypes,
            missions=cfg.missions,
            personas=cfg.personas,
            n_customers=5,
            window_start=date(2025, 1, 1),
            window_end=date(2025, 3, 31),
            seed=0,
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n_customers": 0}, "at least 1 customer, got 0"),
        ({"mission_weights": [0.5, 0.5]}, "mission_weights has 2 entries, expected 1"),
        ({"persona_weights": [-1.0]}, "persona_weights must be non-negative"),
        ({"persona_weights": [float("nan")]}, "persona_weights must be non-negative"),
        ({"mission_weights": [0.5]}, "mission_weights must sum to 1"),
        ({"missions": []}, "at least one archetype, mission and persona"),
        ({"concentration": float("nan")}, "concentration must be positive"),
    ],
)
def test_generator_config_rejects_bad_values(changes, message):
    with pytest.raises(SyngenError, match=message):
        replace(single_archetype_config(), **changes)


def test_profile_and_persona_values_checked():
    # sums to 1, so only the sign check catches it
    with pytest.raises(SyngenError, match="weights must be non-negative"):
        MissionProfile("bad", (1.5, -0.5))
    with pytest.raises(SyngenError, match="value_scale must be positive"):
        RfmPersona("bad", (1, 2), value_scale=0.0)
    with pytest.raises(SyngenError, match="sigma >= 0"):
        Archetype("bad", (0.5, 0.5), 1.0, float("nan"))


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
    assert load_truth(out).basket_archetype == truth.basket_archetype


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
