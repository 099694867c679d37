"""quantacode: rational frequency tables under register-width budgets.

Quantize a source distribution into integer frequencies f_i / t, bound the
coding-rate penalty D(p || f/t) in closed form, plan the register width W
needed for a target redundancy, and validate the predictions against the
measured rate of an integer range coder.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AlphabetNotMary,
    AlphabetTooSmall,
    CorruptStream,
    DenominatorTooSmall,
    DimensionMismatch,
    InstanceTooLarge,
    InvalidArgument,
    KappaMissing,
    NonPositiveProbability,
    NonPositiveTarget,
    PreconditionViolated,
    QuantacodeError,
    RatioNotLessThanOne,
    SumOutOfTolerance,
    SymbolOutOfRange,
    TableTooWide,
    TargetUnachievableWithinScan,
    WidthTooSmall,
    ZeroFrequency,
)
from .prob_model import (  # noqa: F401
    ErrorProfile,
    FrequencyTable,
    ProbabilityVector,
    error_profile,
    golden_pair,
    golden_surrogate,
    irrational_triple,
    memory_cost,
    parse_probability_vector,
    register_width,
    silver_pair,
    silver_surrogate,
)
from .approx import (  # noqa: F401
    RecordEntry,
    ScanResult,
    best_table_under_width,
    cf_convergents,
    record_scan,
    round_min_max,
    scan_rows,
)
from .bounds import (  # noqa: F401
    KAPPA_GENERIC,
    KAPPA_GOLDEN,
    BoundReport,
    Kappa,
    PrecisionPlan,
    build_bound_report,
    corollary1_width,
    corollary2_width,
    kl_divergence,
    lemma1_bound,
    plan_precision,
    second_order_width,
    theorem1_bound,
    theorem2_bound_binary,
    theorem2_bound_mary,
)
from .coder import (  # noqa: F401
    RateReport,
    decode,
    decode_framed,
    encode,
    encode_framed,
    entropy_bits,
    measure_rate,
    sample_symbols,
)
