"""Charter-value segmentation of bank panels with regression trees.

The pipeline: load a bank-year panel, derive Tobin's Q and raw CAMELS proxy
ratios, rescale them onto a one-to-five risk scale, pick one proxy per group
by random-forest permutation importance, grow a CART tree on the six scored
factors, prune it by cross-validated cost complexity, and read alignment
verdicts off the extreme charter-value segments. Import from the modules.
"""

__version__ = "0.1.0"
