"""Quantitative adverse-event signal detection with similarity-informed
Bayesian borrowing.

Submodule map:

- ``ontology``: concept graph, intrinsic information content, term similarity
- ``reports``: spontaneous reports, cumulative 2x2 contingency tables
- ``ic``: Monte Carlo posterior of the information component
- ``borrow``: neighbor pooling, robust mixture prior, conjugate update
- ``pipeline``: seeded batch screening across quarters and methods
- ``evaluate``: reference-set scoring, comparisons, bootstrap, sweeps
- ``synth``: ground-truth synthetic data generation
- ``cli``: the ``icborrow`` command
"""

from ._version import __version__
from .borrow import (
    BorrowSource,
    MapPrior,
    MixturePosterior,
    RobustPrior,
    borrow,
    mixture_posterior,
    random_effects_map,
)
from .errors import CycleError, NumericalError, ValidationError
from .evaluate import (
    Comparison,
    MetricsReport,
    ReferenceEntry,
    bootstrap,
    check_negative_controls,
    compare_methods,
    load_reference,
    parameter_sweep,
    quarterly_curves,
    score,
    sweep_points,
)
from .ic import IcPosterior, posterior_ic, signal_flag
from .ontology import Ontology, SimilarityMatrix, build_similarity, load_ontology
from .pipeline import (
    METHOD_HLGT,
    METHOD_IC,
    METHOD_SSM,
    PairResult,
    RunConfig,
    RunContext,
    run_quarters,
)
from .quarters import Quarter
from .reports import ContingencyTable, ReportStore, load_reports
from .synth import (
    PRESETS,
    ClusterSpec,
    PlantedSignal,
    Scenario,
    generate,
    verify_manifest,
)

__all__ = [
    "__version__",
    "BorrowSource",
    "ClusterSpec",
    "Comparison",
    "ContingencyTable",
    "CycleError",
    "IcPosterior",
    "MapPrior",
    "MetricsReport",
    "METHOD_HLGT",
    "METHOD_IC",
    "METHOD_SSM",
    "MixturePosterior",
    "NumericalError",
    "Ontology",
    "PairResult",
    "PlantedSignal",
    "PRESETS",
    "Quarter",
    "ReferenceEntry",
    "ReportStore",
    "RobustPrior",
    "RunConfig",
    "RunContext",
    "Scenario",
    "SimilarityMatrix",
    "ValidationError",
    "bootstrap",
    "borrow",
    "build_similarity",
    "check_negative_controls",
    "compare_methods",
    "generate",
    "load_ontology",
    "load_reference",
    "load_reports",
    "mixture_posterior",
    "parameter_sweep",
    "posterior_ic",
    "quarterly_curves",
    "random_effects_map",
    "run_quarters",
    "score",
    "signal_flag",
    "sweep_points",
    "verify_manifest",
]
