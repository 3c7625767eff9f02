"""``syngen.generate`` against the per-row loop it replaced.

The oracle below is a test-only copy of that loop: it draws with
``rng.choice``, ``rng.dirichlet`` and one scalar ``rng.random()`` per
receipt line, and writes through ``csv.writer``. ``generate`` must make the
same draws in the same order, so all four files must be byte-identical and
the ground truth equal.
"""

import csv
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopmission.syngen import (
    WINDOW_END,
    WINDOW_START,
    Archetype,
    GeneratorConfig,
    GroundTruth,
    MissionProfile,
    RfmPersona,
    _dirichlet_sampler,
    default_config,
    generate,
)

OUTPUT_FILES = (
    "receipts.csv",
    "categories.csv",
    "ground_truth_baskets.csv",
    "ground_truth_customers.csv",
)

# --- Oracle: the per-row generator loop. ---


def oracle_generate(config, out_dir) -> GroundTruth:
    """The per-row generator loop that ``generate`` replaced."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    category_ids = [f"K{i:02d}" for i in range(config.n_categories)]
    window_days = (WINDOW_END - WINDOW_START).days
    n_missions, n_personas = len(config.missions), len(config.personas)

    truth = GroundTruth({}, {}, {})
    receipt_rows = []

    for ci in range(config.n_customers):
        customer_id = f"c{ci:05d}"
        mission = config.missions[
            rng.choice(n_missions, p=[1 / n_missions] * n_missions)
        ]
        persona = config.personas[
            rng.choice(n_personas, p=[1 / n_personas] * n_personas)
        ]
        truth.customer_mission[customer_id] = mission.name
        truth.customer_persona[customer_id] = persona.name

        lo, hi = persona.baskets_range
        n_baskets = int(rng.integers(lo, hi + 1))
        active_days = max(1, int(window_days * persona.active_fraction))
        day_offsets = sorted(rng.integers(0, active_days + 1, size=n_baskets))

        for bi, day in enumerate(day_offsets):
            basket_id = f"b{ci:05d}_{bi:03d}"
            arch_idx = rng.choice(
                len(config.archetypes), p=mission.archetype_weights
            )
            archetype = config.archetypes[arch_idx]
            truth.basket_archetype[basket_id] = archetype.name

            total = persona.value_scale * rng.lognormal(
                archetype.value_mu, archetype.value_sigma
            )
            mixture = np.asarray(archetype.mixture)
            if np.isinf(config.concentration):
                # zero noise: ratios are exactly the archetype mixture
                shares = mixture.copy()
            else:
                alpha = config.concentration * mixture
                # Dirichlet needs strictly positive alphas; zero-mixture
                # categories stay exactly zero.
                active = alpha > 0
                shares = np.zeros(config.n_categories)
                shares[active] = rng.dirichlet(alpha[active])
            spend_cents = np.round(shares * total * 100).astype(int)
            if spend_cents.sum() <= 0:
                spend_cents[int(np.argmax(shares))] = 100
            ts = datetime.combine(
                WINDOW_START + timedelta(days=int(day)),
                datetime.min.time(),
            ) + timedelta(hours=int(rng.integers(8, 21)))
            for j, cents in enumerate(spend_cents):
                if cents <= 0:
                    continue
                receipt_rows.append(
                    [
                        basket_id,
                        customer_id,
                        ts.isoformat(),
                        f"prod_{category_ids[j]}",
                        category_ids[j],
                        f"{cents // 100}.{cents % 100:02d}",
                        1,
                        int(rng.random() < 0.1),
                    ]
                )

    with open(out_dir / "receipts.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "basket_id",
                "customer_id",
                "timestamp",
                "product_id",
                "category_id",
                "unit_price",
                "quantity",
                "promo_flag",
            ]
        )
        writer.writerows(receipt_rows)

    with open(out_dir / "categories.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["category_id", "label"])
        for cid in category_ids:
            writer.writerow([cid, f"Category {cid}"])

    with open(
        out_dir / "ground_truth_baskets.csv", "w", newline="", encoding="utf-8"
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["basket_id", "archetype"])
        for bid in sorted(truth.basket_archetype):
            writer.writerow([bid, truth.basket_archetype[bid]])

    with open(
        out_dir / "ground_truth_customers.csv", "w", newline="", encoding="utf-8"
    ) as f:
        writer = csv.writer(f)
        writer.writerow(["customer_id", "mission", "persona"])
        for cid in sorted(truth.customer_mission):
            writer.writerow(
                [cid, truth.customer_mission[cid], truth.customer_persona[cid]]
            )

    return truth


def assert_matches_oracle(config, out):
    want = oracle_generate(config, out / "oracle")
    got = generate(config, out / "engine")
    for name in OUTPUT_FILES:
        assert (out / "engine" / name).read_bytes() == (
            out / "oracle" / name
        ).read_bytes(), name
    assert got == want
    return got


def custom_config(seed=11, concentration=5.0):
    """Zero archetype and mixture weights, a persona with a short active
    window and a value scale, and a tiny-value archetype whose
    baskets round to zero cents and fall back to one 1.00 line (in its
    first largest category when shares tie)."""
    archetypes = [
        Archetype("pair", (0.5, 0.5, 0.0), np.log(10.0), 0.3),
        Archetype("tiny", (0.4, 0.2, 0.4), np.log(0.004), 0.5),
        Archetype("single", (0.0, 0.0, 1.0), 1.0, 0.0),
    ]
    missions = [
        MissionProfile("m0", (0.0, 1.0, 0.0)),
        MissionProfile("m1", (0.3, 0.3, 0.4)),
        MissionProfile("m2", (0.5, 0.0, 0.5)),
    ]
    personas = [
        RfmPersona("p0", (1, 3)),
        RfmPersona("p1", (2, 5), 0.5, 2.5),
        RfmPersona("p2", (1, 1)),
    ]
    return GeneratorConfig(
        archetypes=archetypes,
        missions=missions,
        personas=personas,
        n_customers=80,
        seed=seed,
        concentration=concentration,
    )


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(default_config(n_customers=60, seed=seed), id=f"seed{seed}")
        for seed in (0, 1, 2)
    ]
    + [
        pytest.param(default_config(n_customers=40, seed=3, n_categories=4), id="4cats"),
        pytest.param(default_config(n_customers=40, seed=4, n_categories=12), id="12cats"),
        pytest.param(default_config(n_customers=60, seed=5, baskets_range=(1, 2)), id="baskets1-2"),
        pytest.param(
            default_config(n_customers=40, seed=6, concentration=float("inf")),
            id="zero-noise",
        ),
        pytest.param(
            custom_config(concentration=float("inf")), id="custom-zero-noise"
        ),
        # Every alpha is below 0.1: numpy's stick-breaking path.
        pytest.param(
            default_config(n_customers=40, seed=7, concentration=0.05),
            id="stick-breaking",
        ),
        pytest.param(
            custom_config(concentration=0.05), id="custom-stick-breaking"
        ),
        # The uniform archetypes' alphas are exactly 0.1 (0.8 / 8): the
        # gamma path, at its threshold.
        pytest.param(
            default_config(n_customers=40, seed=8, concentration=0.8),
            id="alpha-0.1",
        ),
    ],
)
def test_generate_matches_oracle(tmp_path, config):
    assert_matches_oracle(config, tmp_path)


def test_custom_config_reaches_every_branch(tmp_path):
    truth = assert_matches_oracle(custom_config(), tmp_path)
    with open(tmp_path / "engine" / "receipts.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    tiny = [r for r in rows if truth.basket_archetype[r["basket_id"]] == "tiny"]
    # a tiny basket is worth cents, so a 1.00 line is the zero-sum fallback
    assert any(r["unit_price"] == "1.00" for r in tiny)
    # zero-mixture categories stay empty
    pair = [r for r in rows if truth.basket_archetype[r["basket_id"]] == "pair"]
    assert {r["category_id"] for r in pair} == {"K00", "K01"}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_customers=st.integers(1, 30),
    n_categories=st.integers(4, 10),
    lo=st.integers(1, 6),
    extra=st.integers(0, 6),
    concentration=st.sampled_from([float("inf"), 0.05, 0.5, 0.8, 3.0, 80.0]),
)
def test_generate_matches_oracle_property(
    tmp_path_factory, seed, n_customers, n_categories, lo, extra, concentration
):
    config = default_config(
        n_customers=n_customers,
        seed=seed,
        n_categories=n_categories,
        baskets_range=(lo, lo + extra),
        concentration=concentration,
    )
    assert_matches_oracle(config, tmp_path_factory.mktemp("syngen"))


@pytest.mark.parametrize(
    "alpha, method",
    [
        pytest.param((4.0, 4.0, 4.0, 4.0), "standard_gamma", id="all-equal"),
        pytest.param(
            (1.0, 1.0, 9.0, 1.0, 1.0), "standard_gamma", id="one-large"
        ),
        pytest.param(
            (2.0, 1.0, 2.0), "standard_gamma", id="equal-not-adjacent"
        ),
        pytest.param((0.3, 0.7, 0.7, 0.3), "standard_gamma", id="below-one"),
        pytest.param(
            (0.1, 0.05, 0.1), "standard_gamma", id="max-exactly-0.1"
        ),
        pytest.param(
            (0.0, 3.0, 0.0, 0.0, 1.0), "standard_gamma", id="gamma-zeros"
        ),
        pytest.param((0.0999, 0.0999), "dirichlet", id="max-below-0.1"),
        pytest.param((0.09, 0.02, 0.05), "dirichlet", id="all-below-0.1"),
        pytest.param(
            (0.05, 0.0, 0.02, 0.0), "dirichlet", id="stick-breaking-zeros"
        ),
    ],
)
def test_dirichlet_sampler_makes_numpys_draws(alpha, method):
    alpha = np.array(alpha)
    want_rng = np.random.default_rng(2024)
    got_rng = np.random.default_rng(2024)
    # The sampler sees only the generator method of the path it should
    # take, so taking the other path fails.
    only = SimpleNamespace(**{method: getattr(got_rng, method)})
    draw = _dirichlet_sampler(only, alpha)
    for _ in range(2000):
        if method == "standard_gamma":
            want = want_rng.dirichlet(alpha).tolist()
        else:
            # Zero alphas change numpy's stick-breaking draws, so the
            # sampler draws over the positive alphas only.
            drawn = iter(want_rng.dirichlet(alpha[alpha > 0]).tolist())
            want = [next(drawn) if a > 0 else 0.0 for a in alpha]
        assert draw() == want
    # the generator state advanced by the same draws
    assert got_rng.random() == want_rng.random()
