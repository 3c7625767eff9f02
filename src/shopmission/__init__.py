"""Customer segmentation toolkit for receipt-level retail transaction data.

Three segmentations over loyalty-card transaction data: RFM (recency,
frequency, monetary value), PPS (purchased-product-structure category
ratios) and the two-stage shopping-mission segmentation that first
clusters baskets into archetypes and then clusters customers by their
archetype ratios.
"""

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
