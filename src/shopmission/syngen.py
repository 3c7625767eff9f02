"""Synthetic receipt generator with planted ground truth.

Each customer draws a mission profile (distribution over basket archetypes)
and an RFM persona (visit count, timing and spend scale), both uniformly.
Each basket draws an archetype, then category spends from a Dirichlet
perturbation of the archetype mixture and a total value from the
archetype's log-normal value distribution. Deterministic given the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate, groupby
from pathlib import Path

import numpy as np

from . import ShopmissionError, number, number_list
from .txmodel import (
    CATEGORY_COLUMNS, RECEIPT_COLUMNS, read_pairs, write_csv, write_text,
)

TRUTH_BASKET_COLUMNS = ["basket_id", "archetype"]
TRUTH_CUSTOMER_COLUMNS = ["customer_id", "mission", "persona"]
# Every visit falls on a day of this window, both ends included.
WINDOW_START = date(2025, 1, 1)
WINDOW_END = date(2025, 3, 31)
# The Dirichlet concentration of the per-basket share noise: a basket's
# shares are drawn over CONCENTRATION * its archetype's mixture.
CONCENTRATION = 80.0


class SyngenError(ShopmissionError):
    pass


def _check_unit_sum(owner, field, label):
    """Sets ``owner.field`` to a tuple of floats after ``Generator.choice``'s
    checks on ``p``: finite entries, none negative, and a sum of 1."""
    shares = tuple(number_list("share", getattr(owner, field), SyngenError, label))
    if not abs(sum(shares) - 1.0) <= 1e-9:
        raise SyngenError(f"{label} must sum to 1")
    object.__setattr__(owner, field, shares)


@dataclass(frozen=True)
class Archetype:
    name: str
    mixture: tuple  # category spend shares, unit sum
    value_mu: float  # log-normal location of basket value
    value_sigma: float

    def __post_init__(self):
        _check_unit_sum(self, "mixture", f"archetype {self.name!r} mixture")
        mu = number("value_mu", self.value_mu, SyngenError)
        sigma = number("value_sigma", self.value_sigma, SyngenError)
        object.__setattr__(self, "value_mu", mu)
        object.__setattr__(self, "value_sigma", sigma)


@dataclass(frozen=True)
class MissionProfile:
    name: str
    archetype_weights: tuple  # distribution over archetypes, unit sum

    def __post_init__(self):
        _check_unit_sum(self, "archetype_weights", f"mission {self.name!r} weights")


@dataclass(frozen=True)
class RfmPersona:
    name: str
    baskets_range: tuple  # inclusive (lo, hi) baskets per customer
    active_fraction: float = 1.0  # visits land in the first fraction of the window
    value_scale: float = 1.0

    def __post_init__(self):
        label = f"persona {self.name!r} baskets_range"
        lo, hi = number_list(("baskets_min", "baskets_max"), self.baskets_range,
                             SyngenError, label)
        # hi + 1 is an exclusive int64 bound of the generator's draw.
        if not lo <= hi < np.iinfo(np.int64).max:
            raise SyngenError(f"persona {self.name!r} has bad baskets range")
        fraction = number("active_fraction", self.active_fraction, SyngenError)
        if fraction > 1:
            raise SyngenError(f"active_fraction must be <= 1, got {fraction}")
        scale = number("value_scale", self.value_scale, SyngenError)
        object.__setattr__(self, "baskets_range", (lo, hi))
        object.__setattr__(self, "active_fraction", fraction)
        object.__setattr__(self, "value_scale", scale)


@dataclass
class GeneratorConfig:
    archetypes: list
    missions: list
    personas: list
    n_customers: int
    seed: int

    @property
    def n_categories(self) -> int:
        """The archetype mixtures' common length."""
        return len(self.archetypes[0].mixture)

    def __post_init__(self):
        self.n_customers = number("n_customers", self.n_customers, SyngenError)
        self.seed = number("seed", self.seed, SyngenError)
        if not (self.archetypes and self.missions and self.personas):
            raise SyngenError("need at least one archetype, mission and persona")
        for label, kind in (
            ("archetypes", Archetype), ("missions", MissionProfile),
            ("personas", RfmPersona),
        ):
            bad = [e for e in getattr(self, label) if not isinstance(e, kind)]
            if bad:
                raise SyngenError(
                    f"{label} must hold {kind.__name__} entries, got {bad[0]!r}"
                )
        number("n_categories", self.n_categories, SyngenError)
        for a in self.archetypes:
            if len(a.mixture) != self.n_categories:
                raise SyngenError(
                    f"archetype {a.name!r} mixture length != n_categories"
                )
        for m in self.missions:
            if len(m.archetype_weights) != len(self.archetypes):
                raise SyngenError(
                    f"mission {m.name!r} weights length != n_archetypes"
                )


@dataclass
class GroundTruth:
    basket_archetype: dict  # basket_id -> archetype name
    customer_mission: dict  # customer_id -> mission name
    customer_persona: dict  # customer_id -> persona name


def default_config(
    n_customers: int = 1000,
    seed: int = 0,
    n_categories: int = 8,
    baskets_range: tuple = (8, 16),
) -> GeneratorConfig:
    """Planted-structure default: 2 general archetypes at distinct value
    levels plus 4 focused ones, 3 mission profiles, 3 RFM personas."""
    n_categories = number("n_categories", n_categories, SyngenError)
    if n_categories < 4:
        raise SyngenError(
            f"the default config needs at least 4 categories, one per "
            f"focused archetype, got {n_categories}"
        )
    uniform = tuple(1 / n_categories for _ in range(n_categories))

    def focused(idx):
        mix = [0.1 / (n_categories - 1)] * n_categories
        mix[idx] = 0.9
        *_, total = accumulate(mix)  # left to right, as sum() is not on 3.12+
        return tuple(m / total for m in mix)

    archetypes = [
        Archetype("general-small", uniform, np.log(8.0), 0.15),
        Archetype("general-big", uniform, np.log(60.0), 0.15),
        Archetype("focused-0", focused(0), np.log(15.0), 0.2),
        Archetype("focused-1", focused(1), np.log(15.0), 0.2),
        Archetype("focused-2", focused(2), np.log(15.0), 0.2),
        Archetype("focused-3", focused(3), np.log(15.0), 0.2),
    ]
    missions = [
        MissionProfile("general", (0.5, 0.5, 0.0, 0.0, 0.0, 0.0)),
        MissionProfile("focused", (0.0, 0.0, 0.25, 0.25, 0.25, 0.25)),
        MissionProfile("mixed", (0.25, 0.25, 0.125, 0.125, 0.125, 0.125)),
    ]
    # Personas differ in visit frequency and timing only; a value scale
    # would blur the basket-value axis that separates the general archetypes.
    frequent = RfmPersona("frequent", baskets_range, 1.0, 1.0)
    lo, hi = frequent.baskets_range
    occasional = (max(1, lo // 2), max(2, hi // 2))
    personas = [
        frequent,
        RfmPersona("occasional", occasional, 1.0, 1.0),
        RfmPersona("lapsed", occasional, 0.35, 1.0),
    ]
    return GeneratorConfig(
        archetypes=archetypes,
        missions=missions,
        personas=personas,
        n_customers=n_customers,
        seed=seed,
    )


def _cdf(weights) -> list:
    """The cdf ``Generator.choice`` builds from ``p``: drawing from it with
    ``bisect_right(cdf, rng.random())`` uses the same double and search."""
    cdf = np.asarray(weights, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _dirichlet_sampler(rng, alpha):
    """A callable that returns one Dirichlet draw over ``alpha`` as a list,
    0.0 wherever an alpha is 0 (a category its archetype never buys).

    Where the largest alpha is at least 0.1, the draws are those of
    ``rng.dirichlet(alpha).tolist()``, made without numpy's per-call checks
    on ``alpha``: one scalar-shape ``standard_gamma`` call per run of
    adjacent equal alphas, then numpy's normalisation, a left-to-right sum
    (``sum()`` would compensate it) and one reciprocal. ``standard_gamma``
    returns 0.0 for a zero alpha without advancing the generator, so zero
    alphas take the same path. Below a largest alpha of 0.1 numpy draws by
    stick-breaking, where zero alphas change the draws, so the callable
    calls ``rng.dirichlet`` on the positive alphas only and puts the draws
    back in their places.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.max() < 0.1:
        dirichlet = rng.dirichlet
        active = alpha > 0
        positive = alpha[active]

        def stick_breaking():
            shares = np.zeros(len(alpha))
            shares[active] = dirichlet(positive)
            return shares.tolist()

        return stick_breaking
    gamma = rng.standard_gamma
    runs = [(v, len(list(g))) for v, g in groupby(alpha.tolist())]

    def draw():
        drawn = []
        for v, n in runs:
            if n == 1:
                drawn.append(gamma(v))
            else:
                drawn += gamma(v, n).tolist()
        acc = 0.0
        for g in drawn:
            acc += g
        inv = 1.0 / acc
        return [g * inv for g in drawn]

    return draw


class _PriceText(dict):
    """Integer cents -> price text, formatted on first use."""

    def __missing__(self, c):
        text = self[c] = f"{c // 100}.{c % 100:02d}"
        return text


def generate(config: GeneratorConfig, out_dir) -> GroundTruth:
    """Emit receipts.csv, categories.csv and the two ground-truth files.

    The files are byte-identical for a given config and seed. Per customer,
    the draws are: mission, persona, basket count, visit days; per basket:
    archetype, value, shares, hour, then one promo double per emitted line.

    Each archetype has one share sampler, built before the first draw:
    ``_dirichlet_sampler`` over ``CONCENTRATION * mixture``, zeros included,
    which keeps zero-mixture categories at exactly zero.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    random, integers = rng.random, rng.integers
    lognormal = rng.lognormal

    category_ids = [f"K{i:02d}" for i in range(config.n_categories)]
    product_fields = [f"prod_{cid},{cid}," for cid in category_ids]
    window_days = (WINDOW_END - WINDOW_START).days
    days = [
        (WINDOW_START + timedelta(days=d)).isoformat()
        for d in range(window_days + 1)
    ]
    hours = [f"T{h:02d}:00:00," for h in range(21)]
    prices = _PriceText()

    # Per archetype: name, value distribution and share sampler.
    archetypes = []
    for a in config.archetypes:
        alpha = CONCENTRATION * np.asarray(a.mixture, dtype=float)
        draw_shares = _dirichlet_sampler(rng, alpha)
        archetypes.append((a.name, a.value_mu, a.value_sigma, draw_shares))
    missions = [(m.name, _cdf(m.archetype_weights)) for m in config.missions]
    personas = [
        (
            p.name,
            p.baskets_range[0],
            p.baskets_range[1] + 1,
            max(1, int(window_days * p.active_fraction)) + 1,
            p.value_scale,
        )
        for p in config.personas
    ]
    mission_cdf = _cdf([1 / len(missions)] * len(missions))
    persona_cdf = _cdf([1 / len(personas)] * len(personas))

    truth = GroundTruth({}, {}, {})
    basket_archetype = truth.basket_archetype
    # No field of a generated row needs CSV quoting; rows end in "\r\n" as
    # csv.writer's do. Quantity is always 1, promo flag is 1 in 10 lines.
    lines = [",".join(RECEIPT_COLUMNS) + "\r\n"]
    append = lines.append
    line_ends = (",1,0\r\n", ",1,1\r\n")

    for ci in range(config.n_customers):
        customer_id = f"c{ci:05d}"
        basket_prefix = f"b{ci:05d}_"
        mission, arch_cdf = missions[bisect_right(mission_cdf, random())]
        persona, lo, hi, day_end, value_scale = personas[
            bisect_right(persona_cdf, random())
        ]
        truth.customer_mission[customer_id] = mission
        truth.customer_persona[customer_id] = persona

        n_baskets = int(integers(lo, hi))
        day_offsets = integers(0, day_end, size=n_baskets).tolist()
        day_offsets.sort()

        for bi, day in enumerate(day_offsets):
            basket_id = f"{basket_prefix}{bi:03d}"
            name, mu, sigma, draw_shares = archetypes[
                bisect_right(arch_cdf, random())
            ]
            basket_archetype[basket_id] = name

            total = value_scale * lognormal(mu, sigma)
            shares = draw_shares()
            # round() of a float is half-even, as np.round
            cents = [round(s * total * 100) for s in shares]
            if sum(cents) <= 0:
                cents[shares.index(max(shares))] = 100
            head = (f"{basket_id},{customer_id},{days[day]}"
                    f"{hours[integers(8, 21)]}")
            emitted = [j for j, c in enumerate(cents) if c > 0]
            for j, u in zip(emitted, random(len(emitted)).tolist()):
                append(
                    f"{head}{product_fields[j]}{prices[cents[j]]}"
                    f"{line_ends[u < 0.1]}"
                )

    write_text(out_dir / "receipts.csv", "".join(lines))
    write_csv(out_dir / "categories.csv", CATEGORY_COLUMNS,
              ([cid, f"Category {cid}"] for cid in category_ids))
    write_csv(out_dir / "ground_truth_baskets.csv", TRUTH_BASKET_COLUMNS,
              sorted(basket_archetype.items()))
    write_csv(out_dir / "ground_truth_customers.csv", TRUTH_CUSTOMER_COLUMNS,
              ((cid, mission, truth.customer_persona[cid])
               for cid, mission in sorted(truth.customer_mission.items())))

    return truth


def load_truth(out_dir) -> GroundTruth:
    """The ground truth that ``generate`` wrote to ``out_dir``."""
    out_dir = Path(out_dir)
    customers = read_pairs(
        out_dir / "ground_truth_customers.csv", TRUTH_CUSTOMER_COLUMNS
    )
    return GroundTruth(
        read_pairs(out_dir / "ground_truth_baskets.csv", TRUTH_BASKET_COLUMNS),
        {cid: mission for cid, (mission, _) in customers.items()},
        {cid: persona for cid, (_, persona) in customers.items()},
    )
