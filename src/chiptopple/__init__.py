"""Labelled chip-toppling on a path with one doubled site.

The library covers the full pipeline: domain objects and conversions
(:mod:`chiptopple.core`), the toppling dynamics (:mod:`chiptopple.engine`),
closed-form toppleability tests (:mod:`chiptopple.characterize`), the
poly-Bernoulli counting kernel (:mod:`chiptopple.polybernoulli`),
recognizers for the permutation families those numbers count
(:mod:`chiptopple.families`), explicit bijections
(:mod:`chiptopple.bijections`), and an exhaustive verification harness
(:mod:`chiptopple.harness`) behind the ``chiptopple`` command line tool.
"""
from .core import (
    Configuration,
    Perm,
    format_configuration,
    format_permutation,
    inverse,
    lift,
    make_configuration,
    make_permutation,
    map_w,
    parse_configuration,
    parse_permutation,
    records,
    reverse_complement,
    split_at,
    unlift,
)
from .engine import resultant, stabilize_passes, stabilize_random
from .characterize import is_all_r_toppleable, is_p_toppleable, is_rp_toppleable
from .polybernoulli import (
    binomial_transform,
    count_all_r_toppleable,
    count_N_pi,
    count_resultant_class,
    count_rp_toppleable,
    count_toppleable_configs,
    forward_difference,
    poly_bernoulli_B,
    poly_bernoulli_C,
    stirling2,
)
from .families import (
    CallanWord,
    count_acyclic_orientations,
    count_family,
    enumerate_family,
    excedance_set,
    is_callan,
    is_p_resultant,
    is_vesztergombi,
    validate_r_placement,
)
from .bijections import (
    callan_to_vesztergombi,
    phi,
    phi_inverse,
    vesztergombi_to_callan,
)
from .harness import (
    ClassArray,
    VerifyReport,
    brute_T,
    brute_count_toppleable,
    enumerate_configurations,
    resultant_counts_marked,
    resultant_table,
    verify_identities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
