"""Customer segmentation toolkit for receipt-level retail transaction data.

Three segmentations over loyalty-card transaction data: RFM (recency,
frequency, monetary value), PPS (purchased-product-structure category
ratios) and the two-stage shopping-mission segmentation that first
clusters baskets into archetypes and then clusters customers by their
archetype ratios.
"""

import math
from contextlib import suppress
from numbers import Integral, Real

import numpy as np

__version__ = "0.1.0"


class ShopmissionError(Exception):
    """Bad input, reported as ``line N: <message>`` when ``line_no`` is given;
    ``txmodel.naming`` puts ``path: `` before that and sets ``path``."""

    path = None

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


# Each scalar a caller, a config file or a model file gives the package:
# (int, float or bool, its lowest value, whether that value is excluded).
NUMBERS = {
    "k": (int, 1, False),
    "seed": (int, 0, False),
    "n_init": (int, 1, False),
    "max_iter": (int, 1, False),
    "iterations_run": (int, 1, False),
    "tol": (float, 0, True),
    "value_weight": (float, 0, False),
    "dominance_threshold": (float, -math.inf, True),
    "q95": (float, 0, True),
    "inertia": (float, 0, False),
    "converged": (bool, None, None),
    "standardize_rfm": (bool, None, None),
    "n_customers": (int, 1, False),
    "n_categories": (int, 2, False),
    "baskets_min": (int, 1, False),
    "baskets_max": (int, 1, False),
    "concentration": (float, 0, True),
    "active_fraction": (float, 0, True),
    "value_scale": (float, 0, True),
    "value_mu": (float, -math.inf, True),
    "value_sigma": (float, 0, False),
    "share": (float, 0, False),
    "bin_edge": (float, -math.inf, True),
    "center": (float, -math.inf, True),
}


def number(name, value, error=ValueError):
    """``value`` as a plain ``int``, ``float`` or ``bool``, when it lies in
    ``name``'s domain in ``NUMBERS``; else raises ``error``. An int domain
    takes Python and numpy ints, a float domain those and any finite real
    number, a bool domain Python and numpy booleans only."""
    kind, low, excluded = NUMBERS[name]
    if kind is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise error(f"{name} must be a boolean, got {value!r}")
    accepted = Integral if kind is int else Real
    if isinstance(value, accepted) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int too large for a float
            plain = kind(value)
            if (low < plain if excluded else low <= plain) and plain < math.inf:
                return plain
    what = "an int" if kind is int else "a finite number"
    if low > -math.inf:
        what += f" {'>' if excluded else '>='} {low}"
    raise error(f"{name} must be {what}, got {value!r}")


def number_list(names, values, error, what):
    """The entries of the list or tuple ``values`` as ``number`` gives them:
    each under the row ``names``, or under its own row of a tuple ``names``.
    Raises ``error``, naming the list ``what`` if it has the wrong shape."""
    one = isinstance(names, str)
    if not isinstance(values, (list, tuple)) or not one and len(values) != len(names):
        count = "" if one else f"{len(names)} "
        raise error(f"{what} must be a list of {count}numbers, got {values!r}")
    rows = [names] * len(values) if one else names
    return [number(name, value, error) for name, value in zip(rows, values)]
