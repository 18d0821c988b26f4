"""ringlab: exact ideal classification over finite and arithmetic rings.

Builds finite commutative rings (modular, products, quotients, trivial
extensions, amalgamations), decides the r- / S-r- / S-prime / z0-ideal
predicates and their ring-level companions by exhaustive scan, provides
closed-form decision procedures over products of Z and Z_n, a bounded
polynomial-ring layer, and a registry that machine-checks the whole
proposition catalogue over a ring corpus.
"""

from .classify import (
    Verdict,
    has_ac,
    has_fac,
    has_property_A,
    is_pr_ideal,
    is_r_ideal,
    is_S_prime,
    is_S_r_ideal,
    is_S_uz_ring,
    is_S_z0_ideal,
    is_uz_ring,
    is_z0_ideal,
    s_idempotent_ideal_check,
)
from .corpus import CorpusSpec, Limits, default_corpus, load_corpus
from .dsl import parse_mcs, parse_ring
from .ideals import (
    Ideal,
    LocalizationResult,
    MulClosedSet,
    all_ideals,
    annihilator,
    colon,
    ideal_generate,
    ideal_pushforward,
    is_maximal,
    is_prime,
    jacobson_radical,
    localize,
    max_ideals,
    mcs_generate,
    min_primes_over,
    spec,
)
from .poly import (
    Poly,
    PolyIdealSpec,
    PolyVerdict,
    bounded_S_r_search,
    decide_content_S_r,
    poly_eval,
    poly_s_unit_check,
)
from .registry import counterexample_search, verify
from .rings import (
    FiniteRing,
    RingHom,
    ann_pushforward_check,
    check_hom,
    idempotent_power,
    is_isomorphism,
    make_product,
    make_quotient,
    make_zn,
)

__version__ = "0.1.0"
