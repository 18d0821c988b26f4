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
# The two caps of one oracle window, both checked before any of its arrays is built.  The
# default corpus's largest window has 441 rows and at most 25 values per coordinate.
# Rows: the sent rows are found one coordinate at a time, and the scans pair them, at most
# N of a window's N rows, with the witness (a Holds verdict) or with the window members of
# S (a Fails verdict).  Those members are at most 2N/21 rows at a bound of 10 or more, since
# a Fails verdict has an obstructing Z coordinate where S holds at most 1 and -1.  On a
# 2-core Xeon with Python 3.11 the Fails scan of Z x Z1560 ; ideal=(2,1) ; mcs=(units,all)
# (32,760 rows, 3,120 x 32,760 pairs) takes 0.66 s at 83 MB peak RSS, and that of
# Z x Z x Z ; ideal=(2,2,2) ; mcs=(units,all,all) at bound 15 (1,922 x 29,791 pairs) 0.19 s.
ORACLE_WINDOW_CAP = 1 << 15
# Values per coordinate: a coordinate of L values gets an L x L membership table from two
# int64 temporaries, 17L^2 bytes, 68 MiB at 2,048 values, and keeps an L x N boolean table
# over the N rows, 64 MiB at both caps.
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
