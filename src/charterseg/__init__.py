"""Charter-value segmentation of bank panels with regression trees.

The pipeline: load a bank-year panel, derive Tobin's Q and raw CAMELS proxy
ratios, rescale them onto a one-to-five risk scale, pick one proxy per group
by random-forest permutation importance, grow a CART tree on the six scored
factors, prune it by cross-validated cost complexity, and read alignment
verdicts off the extreme charter-value segments.
"""

from .analysis import (
    AlignmentVerdict,
    Evidence,
    GroupComparison,
    LeafPath,
    alignment_verdicts,
    extreme_leaves,
    group_comparison,
    leaf_share,
    path_rows,
)
from .config import RunConfig, SubsampleSpec, default_subsamples, load_config
from .errors import (
    ChartersegError,
    ConfigError,
    DegenerateInputError,
    DuplicateRowError,
    EmptyModelError,
    EmptySubsampleError,
    ParseError,
    SchemaError,
)
from .forest import (
    Forest,
    ForestParams,
    ImportanceReport,
    grow_forest,
    oob_predict,
    permutation_importance,
)
from .panel import (
    Countries,
    FullSample,
    Panel,
    SizeHalf,
    YearRange,
    compute_raw_proxies,
    filter_subsample,
    load_panel,
    summary_stats,
)
from .rescale import (
    DEFAULT_PROXY_SPECS,
    ProxySpec,
    ScoredMatrix,
    build_scored_matrix,
    quantile_rescale,
    threshold_rescale,
)
from .select import canonical_specs, select_proxies
from .stats import ks_two_sample, pearson
from .study import StudyResult, SubsampleResult, run_study, write_study
from .synthetic import PlantedLeaf, PlantedSplit, PlantedTreeSpec, generate_synthetic_panel, planted_matrix
from .tree import (
    PruneTrace,
    RegressionTree,
    SplitRule,
    TreeParams,
    best_split,
    cost_complexity_sequence,
    cv_prune,
    export_dot,
    export_json,
    grow,
    import_json,
    node_sse,
    prune_at,
)

__version__ = "0.1.0"
