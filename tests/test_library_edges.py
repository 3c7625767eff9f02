"""Every number a library call takes gives a model or one error line.

The library counterpart of ``test_option_edges``: each example calls
``kmeans_fit``, ``select_k`` or ``run_sm`` on ``small_planted`` with its
numeric arguments drawn from in-range values, given as Python or numpy ints
and floats, and at most one argument drawn from out-of-range ints and
floats, floats where an int is due, booleans, NaN, +-inf and a string. The
call must raise a ``ShopmissionError`` of one line exactly when an argument
is out of range; otherwise it returns a model whose numbers are plain Python
ints and floats that survive a JSON round trip.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shopmission import ShopmissionError, features as feat
from shopmission.kmeans import ClusterModel, kmeans_fit
from shopmission.pipeline import SmPipelineModel, run_sm
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
