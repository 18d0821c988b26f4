"""Run-wide limits and tunables.

All caps are deliberate: operations refuse oversized constructions instead
of degrading, and every bounded search records the bound it ran with.
"""

# Element-count cap for ring constructions.  Each element is one byte in the rows of the
# add and mul tables, so a ring has at most 256 elements; the two tables then take 2n^2
# bytes, 128 KiB at the cap.
SIZE_LIMIT = 256

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
# Values per coordinate of one oracle window, checked before any of its lists is built.
# The default corpus's largest window has at most 25 values per coordinate.  The window is
# decided one coordinate at a time: a coordinate of L values tests each value against its
# regular values once per distinct gcd with the descriptor, and each candidate s of S
# against the gcd of the sent values, so no table spans the window's rows or its L x L pairs.
ORACLE_AXIS_CAP = 2048

# Per-ring cap on (ideal, m.c.s.) annotation combinations; beyond it the
# verifier subsamples deterministically with the recorded seed.
ANNOTATION_CAP = 4096
SUBSAMPLE_SEED = 49374
MCS_CANDIDATE_CAP = 24
