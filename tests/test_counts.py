"""The work one serial default-corpus verify does, counted call by call.

A fresh interpreter wraps the ring, lattice, context, oracle and DM entry points,
runs `verify` over the default corpus and prints the counts.  The counts are pinned,
and they must not depend on the hash seed; a change that moves one on purpose says
so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringlab

COUNT_SCRIPT = r"""
import json, sys
from ringlab import arith, ideals, poly, registry, rings
from ringlab.corpus import default_corpus

counts = {}


def counted(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def rebind(module, attr, name):
    # every ringlab module that imported the function by name calls the wrapper too
    original = getattr(module, attr)
    wrapped = counted(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ringlab") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


for cls, attr, name in (
    (rings.FiniteRing, "__init__", "rings_built"),
    (ideals.IdealLattice, "__init__", "lattices_built"),
    (ideals.IdealLattice, "sum", "lattice_sum"),
    (ideals.IdealLattice, "colon", "lattice_colon"),
    (ideals.IdealLattice, "product", "lattice_product"),
    (ideals.IdealLattice, "generate", "lattice_generate"),
    (ideals.IdealLattice, "least_in_coset", "coset_tables"),
    (registry.FiniteContext, "s_r", "context_s_r"),
):
    setattr(cls, attr, counted(name, getattr(cls, attr)))

intern = ideals.IdealLattice.intern


def counted_intern(self, mask):
    if mask not in self._interned:
        counts["ideals_interned"] = counts.get("ideals_interned", 0) + 1
    return intern(self, mask)


ideals.IdealLattice.intern = counted_intern
rebind(arith, "arith_oracle_check", "oracle_calls")
rebind(arith, "_oracle_check", "oracle_misses")
rebind(poly, "_dm_identity", "dm_identity_calls")
sweep = poly.dedekind_mertens_sweep


def counted_sweep(*args, **kwargs):
    # the products the DM sweep asks for, apart from the rest of the entry's
    before = counts.get("lattice_product", 0)
    try:
        return sweep(*args, **kwargs)
    finally:
        counts["dm_lattice_product"] = counts.get("dm_lattice_product", 0) + counts.get("lattice_product", 0) - before


registry.dedekind_mertens_sweep = counted_sweep
counts["records"] = len(registry.verify(None, default_corpus()))
print(json.dumps(counts, sort_keys=True))
"""

# The default corpus, verified serially in a fresh interpreter.
COUNTS = {
    "context_s_r": 24848,
    "coset_tables": 383,
    "dm_identity_calls": 46,
    "dm_lattice_product": 8,
    "ideals_interned": 893,
    "lattice_colon": 23942,
    "lattice_generate": 8086,
    "lattice_product": 723,
    "lattice_sum": 10953,
    "lattices_built": 156,
    "oracle_calls": 36,
    "oracle_misses": 24,
    "records": 19896,
    "rings_built": 459,
}


def _counts(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(Path(ringlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", COUNT_SCRIPT], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_default_corpus_work_counts(hash_seed):
    got = _counts(hash_seed)
    print(f"\nwork counts, PYTHONHASHSEED={hash_seed}:")
    for name, count in got.items():
        print(f"  {name:<20} {count:>7}")
    assert got == COUNTS
