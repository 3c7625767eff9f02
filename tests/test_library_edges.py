"""Every number a library call takes gives a model or one error line.

The library counterpart of ``test_option_edges``: each example calls
``kmeans_fit``, ``select_k`` or ``run_sm`` on ``small_planted`` with its
numeric arguments drawn from in-range values, given as Python or numpy ints
and floats, and at most one argument drawn from out-of-range ints and
floats, floats where an int is due, booleans, NaN, +-inf and a string. The
call must raise a ``ShopmissionError`` of one line exactly when an argument
is out of range; otherwise it returns a model whose numbers are plain Python
ints and floats that survive a JSON round trip. ``syngen.default_config``
and the RFM matrix's ``standardize_rfm`` flag keep the same contract, and
``number_list`` gives exactly the numbers that ``number`` gives its entries.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopmission import (
    NUMBERS, ShopmissionError, features as feat, number, number_list,
)
from shopmission.kmeans import ClusterModel, kmeans_fit
from shopmission.pipeline import SmPipelineModel, rfm_matrix, run_rfm, run_sm
from shopmission.syngen import default_config
from shopmission.validity import POLICIES, select_k

NAN, INF = math.nan, math.inf
# Drawn by every argument that is out of range.
NOT_NUMBERS = [True, False, NAN, INF, -INF, "2"]
COUNT_BAD = [0, -1, 2.0, 2.5, np.float64(3.0), *NOT_NUMBERS]
# Per argument: (in-range values, out-of-range values). Counts stay small,
# so that no example runs for long.
ARGUMENTS = {
    "k": ([2, 3, np.int64(4)], COUNT_BAD),
    "k_sm": ([2, np.int32(3)], COUNT_BAD),
    "k_min": ([2, np.int64(2), np.uint8(3)], [1, *COUNT_BAD]),
    "k_max": ([3, np.int64(4)], [2**63, 3.5, *NOT_NUMBERS]),
    "seed": ([0, 7, np.int64(3), np.uint32(5), 2**70],
             [-1, 1.5, np.float64(2.0), *NOT_NUMBERS]),
    "max_iter": ([1, 20, np.int16(20)], COUNT_BAD),
    "n_init": ([1, 2, np.int64(2)], COUNT_BAD),
    "tol": ([1e-4, 0.5, 1, np.float32(0.01), np.int64(1)],
            [0, 0.0, -1e-9, *NOT_NUMBERS]),
    "value_weight": ([0, 1.0, 2, np.float64(0.5), np.int8(1)],
                     [-1, -1e-9, *NOT_NUMBERS]),
    "dominance_threshold": ([0.3, -1, 1e308, np.float64(0.5),
                             np.float32(0.25)], NOT_NUMBERS),
}
FIT = ["seed", "max_iter", "n_init", "tol"]
CALLS = {
    "kmeans_fit": ["k", *FIT],
    "select_k": ["k_min", "k_max", *FIT],
    "run_sm": ["k", "k_sm", "value_weight", "dominance_threshold", *FIT],
}


def check_plain(doc, fields):
    """Each of ``fields`` of ``doc`` is a plain int or float, and ``doc``
    reads back from JSON unchanged."""
    for name, kind in fields.items():
        assert type(doc[name]) is kind, (name, doc[name])
    assert json.loads(json.dumps(doc)) == doc


def check_cluster_model(model):
    doc = model.to_dict()
    check_plain(doc, {
        "k": int, "seed": int, "inertia": float, "iterations_run": int,
    })
    assert ClusterModel.from_dict(json.loads(json.dumps(doc))).to_dict() == doc


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_library_number_gives_a_model_or_one_error_line(
    small_planted, data
):
    _, _, _, dataset = small_planted
    call = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    bad = data.draw(st.none() | st.sampled_from(CALLS[call]), label="bad")
    args = {
        name: data.draw(st.sampled_from(ARGUMENTS[name][name == bad]),
                        label=name)
        for name in CALLS[call]
    }
    fit = {name: args.pop(name) for name in FIT[1:]}
    try:
        if call == "kmeans_fit":
            model, _ = kmeans_fit(
                feat.pps_features(dataset), args["k"], args["seed"], **fit
            )
        elif call == "select_k":
            policy = data.draw(st.sampled_from(POLICIES), label="policy")
            sweep = select_k(
                feat.pps_features(dataset), (args["k_min"], args["k_max"]),
                args["seed"], policy, **fit,
            )
        else:
            model, _, _ = run_sm(
                dataset, args.pop("k"), args.pop("k_sm"), **args, **fit
            )
    except ShopmissionError as exc:
        assert bad is not None, exc
        assert "\n" not in str(exc), exc
        return
    assert bad is None
    if call == "kmeans_fit":
        check_cluster_model(model)
    elif call == "select_k":
        for row in sweep.rows:
            check_plain(row, {"k": int, "seed": int, "inertia": float})
        assert sweep.recommended_k is None or type(sweep.recommended_k) is int
    else:
        text = model.to_json()
        assert SmPipelineModel.from_json(text).to_json() == text
        check_plain(json.loads(text), {"value_weight": float, "q95": float})
        check_cluster_model(model.basket_model)
        check_cluster_model(model.customer_model)


class Refused(Exception):
    pass


ENTRIES = (
    st.sampled_from([
        0, 1, -1, 2.5, -0.0, np.int64(3), np.uint8(7), np.float32(0.5),
        np.float64(-2.0), True, False, np.True_, "1", "", None, NAN, INF, -INF,
        2**1024, -(2**1024), np.int64(-5),
    ])
    | st.integers() | st.floats()
)
NOT_LISTS = [5, 2.5, None, "12", b"12", {1: 2}, {1.0}, range(2),
             np.array([1.0, 2.0])]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_number_list_gives_the_numbers_of_number_or_one_error(data):
    row = st.sampled_from(sorted(NUMBERS))
    names = data.draw(row | st.lists(row, min_size=1, max_size=3).map(tuple),
                      label="names")
    entries = st.lists(ENTRIES, max_size=4)
    values = data.draw(entries | entries.map(tuple) | st.sampled_from(NOT_LISTS),
                       label="values")
    one = isinstance(names, str)
    expected = Refused
    if isinstance(values, (list, tuple)) and (one or len(values) == len(names)):
        rows = [names] * len(values) if one else names
        try:
            expected = [number(n, v, Refused) for n, v in zip(rows, values)]
        except Refused:
            pass
    try:
        got = number_list(names, values, Refused, "values")
    except Refused as exc:
        assert expected is Refused, exc
        assert "\n" not in str(exc), exc
        return
    assert got == expected
    assert [type(n) for n in got] == [type(n) for n in expected]


# default_config's arguments; the basket bounds go in as one pair. The
# largest in-range baskets_min is below the smallest in-range baskets_max.
CONFIG_ARGUMENTS = {
    "n_customers": ([1, 50, np.int64(3), np.uint8(7)], COUNT_BAD),
    # The default config has one focused archetype per category of four.
    "n_categories": ([4, 8, np.int32(5)], [3, 1, 8.0, *COUNT_BAD]),
    "baskets_min": ([1, 3, np.int16(2)], COUNT_BAD),
    "baskets_max": ([4, 16, np.uint64(6), 2**63 - 2],
                    [0, -1, 2**63 - 1, 2**70, 8.0, np.float64(16.0),
                     *NOT_NUMBERS]),
    "seed": ARGUMENTS["seed"],
    # An infinite concentration selects the zero-noise share sampler.
    "concentration": ([80.0, 1, np.float32(0.5), np.int64(2), INF,
                       np.float64(INF)],
                      [0, -1.0, -1e-9, NAN, -INF, True, False, "80"]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_generator_number_gives_a_config_or_one_error_line(data):
    bad = data.draw(st.none() | st.sampled_from(sorted(CONFIG_ARGUMENTS)),
                    label="bad")
    args = {
        name: data.draw(st.sampled_from(values[name == bad]), label=name)
        for name, values in CONFIG_ARGUMENTS.items()
    }
    args["baskets_range"] = (args.pop("baskets_min"), args.pop("baskets_max"))
    try:
        config = default_config(**args)
    except ShopmissionError as exc:
        assert bad is not None, exc
        assert "\n" not in str(exc), exc
        return
    assert bad is None
    counts = [config.n_customers, config.n_categories, config.seed]
    counts += [n for persona in config.personas for n in persona.baskets_range]
    assert all(type(n) is int for n in counts), counts
    assert config.personas[0].baskets_range == args["baskets_range"]
    assert type(config.concentration) is float
    assert config.concentration == args["concentration"]


@pytest.mark.parametrize("call", ["rfm_matrix", "run_rfm"])
@pytest.mark.parametrize("value", [True, False, np.True_, np.False_,
                                   0, 1, "off", None, NAN])
def test_standardize_rfm_is_a_boolean_or_one_error_line(
    small_planted, call, value
):
    _, _, _, dataset = small_planted
    in_range = isinstance(value, (bool, np.bool_))
    try:
        if call == "rfm_matrix":
            raw, fitted = rfm_matrix(dataset, standardize_rfm=value)
        else:
            report = run_rfm(dataset, 3, standardize_rfm=value)
    except ShopmissionError as exc:
        assert not in_range, exc
        assert "\n" not in str(exc), exc
        return
    assert in_range
    if call == "rfm_matrix":
        # z-scored exactly when the flag is true
        assert (fitted is raw) == (not value)
    else:
        assert len(report.labels) == len(dataset.customer_ids)
