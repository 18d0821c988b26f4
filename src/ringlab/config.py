"""Run-wide limits and tunables.

All caps are deliberate: operations refuse oversized constructions instead
of degrading, and every bounded search records the bound it ran with.
"""

import os

from .errors import ConfigError

SIZE_LIMIT_ENV = "RINGLAB_SIZE_LIMIT"
DEFAULT_SIZE_LIMIT = 256
# The add and mul tables are int16, so n elements take 2 * 2n^2 = 4n^2 bytes:
# 64 MiB at 4,096 elements, and 4.3 GB at 32,767, where int16 indices would
# wrap.  Each mask kernel call adds an n^2-byte boolean table on top.
SIZE_LIMIT_CEILING = 4096

# Polynomial searches: default working degree and a hard cap.
DEFAULT_DEGREE = 3
MAX_DEGREE = 8
# Coefficient tuples one enumeration may walk: the s-unit check, and the walk of degree
# <= 1 that finds the evaluation-kernel pair (the kernel verdict is a closed form).  A walk
# of |R|^(D+1) - 1 tuples past it is refused before its first tuple; the 16^5 - 1 tuples
# of degree <= 4 over Z16 fit.
POLY_SEARCH_BUDGET = 1 << 20

# Finite-annihilator-condition sweep: subsets of size <= this cap.  The first failing
# set is always a pair (classify.has_fac), so every cap >= 2 tests pairs only.
FAC_SUBSET_CAP = 3

# Seeded content-identity sweeps (documented fixed seed for reproducibility).
DM_SEED = 24103
DM_PAIRS = 1000
DM_MAX_DEGREE = 4

# Truncated-window oracle for arithmetic rings.
ARITH_ORACLE_BOUND = 10
# Values per coordinate of one oracle window, checked before any of its arrays is built.
# The default corpus's largest window has at most 25 values per coordinate.  The window is
# decided one coordinate at a time, so a coordinate of L values gets L x L membership tables
# (its regular values, and then the members of S, against its values) from two int64
# temporaries, 17L^2 bytes, 68 MiB at 2,048 values; no table spans the window's rows.
ORACLE_AXIS_CAP = 2048

# Per-ring cap on (ideal, m.c.s.) annotation combinations; beyond it the
# verifier subsamples deterministically with the recorded seed.
ANNOTATION_CAP = 4096
SUBSAMPLE_SEED = 49374
MCS_CANDIDATE_CAP = 24


def size_limit() -> int:
    """Element-count cap for ring constructions; env override allowed.

    The override must be an integer from 1 to SIZE_LIMIT_CEILING; anything
    else raises ConfigError naming the variable instead of being ignored.
    """
    raw = os.environ.get(SIZE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or not 1 <= value <= SIZE_LIMIT_CEILING:
        raise ConfigError(
            f"{SIZE_LIMIT_ENV}={raw!r}: expected an integer from 1 to {SIZE_LIMIT_CEILING}; the two "
            f"int16 tables of an n-element ring take 4n^2 bytes ({4 * SIZE_LIMIT_CEILING**2 >> 20} MiB "
            "at the ceiling, 4.3 GB at the int16 limit 32767) and each mask kernel call adds n^2 bytes"
        )
    return value
