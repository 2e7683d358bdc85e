"""dehnlab: filling areas and mean Dehn functions of abelian presentations.

Exact arbitrary-precision enumeration and counting at desk scale, seeded
Monte Carlo beyond it.
"""

__version__ = "0.1.0"

from .area import (
    AreaResult,
    WindingField,
    area_closed_at,
    area_exact_z2,
    area_lower_zr,
    area_open,
    area_oracle,
    area_upper_dc,
    closed_area_result,
    winding_field,
)
from .cogrowth import (
    PRINTED_F_LIMIT_Z2,
    SHARP_F_LIMIT_Z2,
    TruncatedSeries,
    a_coefficients,
    bartholdi_transform,
    closed_walk_series_z2,
    f_recurrence,
    grigorchuk_beta,
    series_rational_expand,
    sharp_ratio_report,
    sharp_sigma,
    sharp_sigma_forms,
)
from .combing import (
    GeodesicCombing,
    close_path,
    comb_between,
    make_combing,
)
from .counting import (
    RNG_ALGORITHM,
    AssumptionFunctions,
    CountTable,
    TailReport,
    assumption_functions,
    closed_walk_closed_form_z2,
    kolmogorov_bound,
    make_rng,
    nonbacktracking_counts,
    sample_words,
    tail_bound_1d,
    tail_bound_zr,
    tail_count_exact_1d,
    tail_report_exact_1d,
    tail_report_sampled_zr,
    walk_counts,
)
from .dehnstats import (
    BoundFit,
    DehnReport,
    bound_fit,
    dehn_exact,
    h_split_holds,
    h_split_holds_ceil,
    h_split_range,
    lazy_mean,
    mean_exact,
    nv_asymptotics_report,
    osmean_by_endpoint,
    osmean_exact,
    osmean_sampled,
    relation_check,
    smean_exact,
    smean_sampled,
)
from .errors import BudgetError, CapExceededError
from .presentation import (
    AbelianPresentation,
    CanonicalForm,
    SnfData,
    abelianize,
    builtin_presentation,
    cyclic,
    format_vertex,
    free_abelian,
    load_presentation,
    load_presentation_text,
    resolve_group,
    smith_normal_form,
)
from .words import (
    Word,
    ball_size,
    enumerate_words,
    free_reduce,
    lazy_count,
    length_A,
    sphere_size,
)
