import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringlab.dsl import parse_ring
from ringlab.errors import InvalidConstruction, NotAnIdealError, TypeMismatch
from ringlab.extensions import (
    BACKWARD,
    FORWARD,
    FiniteModule,
    S_FULL,
    S_ZERO,
    AmalgOverZ,
    amalg_hypotheses,
    amalg_ideal,
    amalg_mcs,
    amalg_transfer_check,
    amalgz_zero_transfer_check,
    is_domain,
    lift_mcs_triv,
    make_amalgamation,
    make_module_free,
    make_module_quotient,
    make_trivial_extension,
    module_ann,
    module_is_torsion_free,
    triv_equivalence_check,
    triv_ideal,
    triv_module_facts,
    zd_union_inside_module_ann,
)
from ringlab.ideals import all_ideals, ideal_generate, mcs_generate
from ringlab.rings import identity_hom, make_product, make_quotient, make_zn

from oracles import (
    find_isomorphism,
    j_members,
    ref_amalgz_is_regular,
    ref_amalgz_zero_transfer_check,
    ref_make_amalgamation,
    ref_make_module_free,
    ref_make_quotient,
    ref_make_trivial_extension,
    submodules,
    as_int16,
)


@pytest.fixture(scope="module")
def z2():
    return make_zn(2)


@pytest.fixture(scope="module")
def z4():
    return make_zn(4)


def test_free_module_over_itself(z2):
    M = make_module_free(z2, 1)
    assert M.size == 2
    assert module_is_torsion_free(M)


def test_quotient_module():
    R = make_zn(12)
    M = make_module_quotient(R, ideal_generate(R, [4]))
    assert M.size == 4
    assert not module_is_torsion_free(M)  # 4 * (coset of 1) = 0
    assert module_ann(M).members == ideal_generate(R, [4]).members


def test_free_module_rank_two():
    M = make_module_free(make_zn(3), 2)
    assert M.size == 9
    assert module_is_torsion_free(M)


def test_zd_union_readings(z4):
    M = make_module_free(z4, 1)
    # nonzero reading: union of Ann(a), a != 0, must land in Ann(M) = 0
    assert not zd_union_inside_module_ann(M)  # Ann(2) = {0,2} not inside {0}
    field_mod = make_module_free(make_zn(5), 1)
    assert zd_union_inside_module_ann(field_mod)
    assert not zd_union_inside_module_ann(field_mod, include_zero=True)


def test_trivial_extension_z2(z2):
    T = make_trivial_extension(z2, make_module_free(z2, 1))
    assert T.ring.size == 4
    i = T.pair_index(0, 1)
    assert T.ring.m(i, i) == 0
    assert not T.ring.is_reduced()


def test_trivial_extension_by_zero_module(z2):
    T = make_trivial_extension(z2, make_module_free(z2, 0))
    assert T.ring.size == 2
    assert find_isomorphism(T.ring, z2) is not None


def test_trivial_extension_units():
    z3 = make_zn(3)
    T = make_trivial_extension(z3, make_module_free(z3, 1))
    assert T.ring.size == 9
    assert len(T.ring.units) == 6  # (w, e) is a unit iff w is


def test_triv_ideal_always_for_full_module(z4):
    M = make_module_free(z4, 1)
    T = make_trivial_extension(z4, M)
    for gens in ([], [2]):
        A = ideal_generate(z4, gens)
        full = triv_ideal(T, A, range(M.size))
        assert len(full.members) == len(A.members) * M.size
        zero_sub = triv_ideal(T, ideal_generate(z4, []), frozenset({0}))
        assert zero_sub.members == {0}


def test_triv_ideal_gate(z4):
    M = make_module_free(z4, 1)
    T = make_trivial_extension(z4, M)
    with pytest.raises(NotAnIdealError) as err:
        triv_ideal(T, ideal_generate(z4, [2]), frozenset({0}))
    assert err.value.witness == (2, 1)


def test_triv_ideal_refuses_members_outside_the_module(z2):
    """On triv(Z2, free(1)) the code 2 is no module element; read as a pair code it is
    (1, 0), and {0, 1, 2} would come back as a set that is not an ideal."""
    T = make_trivial_extension(z2, make_module_free(z2, 1))
    for N in ({0, 1, 2}, {0, -1}):
        with pytest.raises(TypeMismatch):
            triv_ideal(T, ideal_generate(z2, []), N)


def test_triv_ideal_criterion_sweep(z2, z4):
    """A (x) N embeds as an ideal exactly when A*M lands inside N."""
    for R in (z2, z4):
        M = make_module_free(R, 1)
        T = make_trivial_extension(R, M)
        for A in all_ideals(R):
            for N in submodules(M):
                ok = all(as_int16(M.action)[a, m] in N for a in A.members for m in range(M.size))
                if ok:
                    triv_ideal(T, A, N)
                else:
                    with pytest.raises(NotAnIdealError):
                        triv_ideal(T, A, N)


def test_lift_mcs(z2):
    M = make_module_free(z2, 1)
    T = make_trivial_extension(z2, M)
    S = mcs_generate(z2, [])
    lifted0 = lift_mcs_triv(T, S, S_ZERO)
    assert lifted0.members == {T.pair_index(1, 0)}
    lifted_full = lift_mcs_triv(T, S, S_FULL)
    assert lifted_full.members == {T.pair_index(1, 0), T.pair_index(1, 1)}
    assert lifted0.members <= lifted_full.members


def test_lift_disjointness_mirrors_base(z4):
    M = make_module_free(z4, 1)
    T = make_trivial_extension(z4, M)
    full = range(M.size)
    for gens in ([], [2]):
        A = ideal_generate(z4, gens)
        big = triv_ideal(T, A, full)
        for S_gens in ([], [3], [2]):
            S = mcs_generate(z4, S_gens)
            lifted = lift_mcs_triv(T, S, S_ZERO)
            assert bool(S.members & A.members) == bool(lifted.members & big.members)


def _triv_hypotheses_met(T, A, S):
    """The three hypotheses P3.3 enforces; the literal zd-union reading is only reported."""
    return not A.mask & S.mask and all(triv_module_facts(T)[k] for k in ("torsion_free", "zd_union_in_ann"))


def test_triv_equivalence_field_base(z2):
    T = make_trivial_extension(z2, make_module_free(z2, 1))
    A, S = ideal_generate(z2, []), mcs_generate(z2, [])
    pattern = triv_equivalence_check(T, A, S)
    assert _triv_hypotheses_met(T, A, S)
    assert pattern == (True, True, True)


def test_triv_equivalence_rank_two():
    z3 = make_zn(3)
    T = make_trivial_extension(z3, make_module_free(z3, 2))
    A, S = ideal_generate(z3, []), mcs_generate(z3, [2])
    pattern = triv_equivalence_check(T, A, S)
    assert _triv_hypotheses_met(T, A, S)
    assert pattern == (True, True, True)


def test_triv_equivalence_hypothesis_gate(z4):
    T = make_trivial_extension(z4, make_module_free(z4, 1))
    A, S = ideal_generate(z4, [2]), mcs_generate(z4, [])
    triv_equivalence_check(T, A, S)
    assert not triv_module_facts(T)["torsion_free"]
    assert not _triv_hypotheses_met(T, A, S)


def test_amalgamation_along_zero(z4):
    J = ideal_generate(z4, [])
    am = make_amalgamation(z4, z4, identity_hom(z4), J)
    assert am.ring.size == 4
    assert find_isomorphism(am.ring, z4) is not None


def test_amalgamation_z4_along_2(z4):
    am = make_amalgamation(z4, z4, identity_hom(z4), ideal_generate(z4, [2]))
    assert am.ring.size == 8


def test_amalgamation_carrier_size_is_product():
    R = make_product(make_zn(2), make_zn(2))
    J = ideal_generate(R, [R.one])  # improper: the whole ring
    am = make_amalgamation(R, R, identity_hom(R), J)
    assert am.ring.size == 4 * 4


def test_amalg_transfer_backward(z4):
    am = make_amalgamation(z4, z4, identity_hom(z4), ideal_generate(z4, [2]))
    base, ext = amalg_transfer_check(am, ideal_generate(z4, [2]), mcs_generate(z4, []))
    assert amalg_hypotheses(am)[BACKWARD] == {"isomorphism": True}
    assert base.holds and ext.holds
    assert base.holds or not ext.holds  # extension S-r implies base S-r


def test_amalg_transfer_forward_gate(z4, z2):
    am = make_amalgamation(z4, z4, identity_hom(z4), ideal_generate(z4, [2]))
    amalg_transfer_check(am, ideal_generate(z4, [2]), mcs_generate(z4, []))
    assert not amalg_hypotheses(am)[FORWARD]["h1_domain"]
    am2 = make_amalgamation(z2, z2, identity_hom(z2), ideal_generate(z2, []))
    base2, ext2 = amalg_transfer_check(am2, ideal_generate(z2, []), mcs_generate(z2, []))
    assert all(amalg_hypotheses(am2)[FORWARD].values()) and (ext2.holds or not base2.holds)


def test_amalg_ideal_and_mcs_embed(z4):
    am = make_amalgamation(z4, z4, identity_hom(z4), ideal_generate(z4, [2]))
    A = amalg_ideal(am, ideal_generate(z4, [2]))
    assert len(A.members) == 2 * 2
    S = amalg_mcs(am, mcs_generate(z4, [3]))
    assert len(S.members) == 2 * 2


def _same_ring(built, ref):
    assert np.array_equal(as_int16(built.add), as_int16(ref.add)) and np.array_equal(as_int16(built.mul), as_int16(ref.mul)), ref.recipe
    assert (built.labels, built.recipe) == (ref.labels, ref.recipe)


def test_constructors_match_the_pair_loops():
    """Quotients by every ideal, free modules and trivial extensions up to 128
    elements, and amalgamations along every ideal, by id and by every
    projection, of the bases below against the element-pair loops; plus a
    256-element trivial extension and amalg(Z256, Z256, id, (0)), whose pair
    codes w * 256 + y pass the int16 range."""
    bases = [make_zn(n) for n in range(1, 13)] + [parse_ring(e) for e in ("Z2 x Z2", "Z2 x Z4", "Z2 x Z2 x Z2")]
    z16, z256 = make_zn(16), make_zn(256)
    amalgs = [(z256, z256, identity_hom(z256), ideal_generate(z256, []))]
    trivs = [(z16, make_module_free(z16, 1))]
    for R in bases:
        modules = []
        for A in all_ideals(R):
            Q, proj = make_quotient(R, A)
            ref_Q, ref_proj = ref_make_quotient(R, A)
            _same_ring(Q, ref_Q)
            assert proj.image == ref_proj.image
            modules.append(make_module_quotient(R, A))
            if R.size <= 8:
                amalgs += [(R, Q, proj, J) for J in all_ideals(Q)] + [(R, R, identity_hom(R), A)]
        for k in range(9):
            if R.size**k > 128:
                break
            M, ref_M = make_module_free(R, k), ref_make_module_free(R, k)
            assert np.array_equal(as_int16(M.add), as_int16(ref_M.add)) and np.array_equal(as_int16(M.action), as_int16(ref_M.action))
            assert (M.labels, M.recipe) == (ref_M.labels, ref_M.recipe)
            modules.append(M)
        trivs += [(R, M) for M in modules if R.size * M.size <= 128]
    for R, M in trivs:
        _same_ring(make_trivial_extension(R, M).ring, ref_make_trivial_extension(R, M).ring)
    for case in amalgs:
        am = make_amalgamation(*case)
        ref_ring, carrier = ref_make_amalgamation(*case)
        _same_ring(am.ring, ref_ring)
        assert [am.index_of(w, y) for w, y in carrier] == list(range(len(carrier)))
        assert np.count_nonzero(np.array(am.pos) >= 0) == len(carrier)
    assert (len(trivs), len(amalgs)) == (99, 131)


def test_is_domain(z2, z4):
    assert is_domain(z2)
    assert not is_domain(z4)
    assert not is_domain(make_zn(1))


def test_amalgz_regularity():
    az = AmalgOverZ(4, 2)
    assert j_members(az) == (0, 2)
    assert ref_amalgz_is_regular(az, (1, 3))  # 2*3 = 6 = 2 mod 4, nonzero
    assert not ref_amalgz_is_regular(az, (1, 2))  # 2*2 = 0 mod 4
    assert not ref_amalgz_is_regular(az, (0, 2))


def test_amalgz_zero_transfer():
    rep = amalgz_zero_transfer_check(AmalgOverZ(4, 2), ("units",), 10)
    assert rep.base_verdict.holds
    assert rep.ext_holds and rep.window_confirms
    assert rep.window_pairs_checked > 0
    assert all(rep.hypotheses.values())


def test_amalgz_with_zero_in_s():
    rep = amalgz_zero_transfer_check(AmalgOverZ(6, 3), ("all",), 6)
    assert not rep.hypotheses["disjoint"]
    assert not rep.base_verdict.holds


_AMALGZ_DESCS = [("units",), ("all",), ("fin", frozenset({1, -1})), ("fin", frozenset({1}))]


def test_amalgz_window_matches_the_pair_loop():
    """The closed-form pair count, and arith's oracle confirming the S-r verdict of (0),
    against the four-deep loop over the window: n <= 18, every divisor d >= 2 of n,
    four m.c.s. descriptors and five bounds (800 cases); bound 0 leaves no regular
    window element."""
    cases = [
        (AmalgOverZ(n, d), s, bound)
        for n in range(2, 19) for d in range(2, n + 1) if n % d == 0
        for s in _AMALGZ_DESCS for bound in (0, 1, 3, 6, 10)
    ]
    assert len(cases) == 800
    for case in cases:
        assert amalgz_zero_transfer_check(*case) == ref_amalgz_zero_transfer_check(*case), case


# -- module axioms against the loop-based scan ----------------------------------------


def loop_module_axioms(R, add, act) -> bool:
    """Reference: every module law on every pair or triple, by direct loops."""
    add, act = np.asarray(add), np.asarray(act)
    radd, rmul = as_int16(R.add), as_int16(R.mul)
    n = add.shape[0]
    idx = np.arange(n)
    if add.shape != (n, n) or add.min() < 0 or add.max() >= n:
        return False
    if not np.array_equal(add, add.T) or not np.array_equal(add[add], add[:, add]):
        return False
    if not np.array_equal(add[0], idx) or not (add == 0).any(axis=1).all():
        return False
    if act.shape != (R.size, n) or act.min() < 0 or act.max() >= n:
        return False
    if not np.array_equal(act[R.one], idx):
        return False
    if not np.array_equal(act[:, add], add[act[:, :, None], act[:, None, :]]):
        return False
    return all(
        np.array_equal(act[rmul[r, s]], act[r][act[s]]) and np.array_equal(act[radd[r, s]], add[act[r], act[s]])
        for r in range(R.size)
        for s in range(R.size)
    )


def module_accepts(R, add, act) -> bool:
    try:
        FiniteModule(R, add, act)
    except InvalidConstruction:
        return False
    return True


@st.composite
def perturbed_modules(draw):
    """A small module's tables after 1-2 entry edits, maybe relabelled."""
    R, k = draw(st.sampled_from([("Z2", 1), ("Z2", 2), ("Z2", 3), ("Z3", 1), ("Z3", 2), ("Z4", 1), ("Z6", 1), ("Z2 x Z2", 1), ("Z4", 2)]))
    M = make_module_free(parse_ring(R), k)
    n = M.size
    add, act = as_int16(M.add), as_int16(M.action)
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            add[i, j] = add[j, i] = draw(st.integers(0, n - 1))
        else:
            act[draw(st.integers(0, M.ring.size - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        perm = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.int16)
        relabelled = np.empty_like(add)
        relabelled[np.ix_(perm, perm)] = perm[add]
        add = relabelled
        act = perm[act][:, np.argsort(perm)]
    return M.ring, add, act


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_modules())
def test_module_check_matches_the_loop_scan_on_perturbed_modules(case):
    R, add, act = case
    assert module_accepts(R, add, act) == loop_module_axioms(R, add, act)


Z2_MOD = [[0, 1], [1, 0]]
Z3_MOD = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

# (ring, module addition, action, message of the first failing check)
MODULE_FAILURES = [
    ("Z2", [[0, 1], [1, 2]], [[0, 0], [0, 1]], "module addition table is not total"),
    ("Z2", [[0, 1], [0, 0]], [[0, 0], [0, 1]], "module addition is not an abelian group"),
    # commutative with zero and inverses, but (1+1)+2 = 2 and 1+(1+2) = 1
    ("Z2", [[0, 1, 2], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 1, 2]], "module addition is not an abelian group"),
    ("Z2", [[0, 1], [1, 1]], [[0, 0], [0, 1]], "module addition lacks zero or inverses"),
    ("Z2", Z2_MOD, [[0, 0], [0, 2]], "scalar action table is not total"),
    ("Z2", Z2_MOD, [[0, 0], [0, 0]], "1 does not act as identity"),
    ("Z3", Z3_MOD, [[0, 0, 0], [0, 1, 2], [0, 1, 1]], "action does not distribute over module addition"),
    # Z2[e] acting on Z2 with e acting as 1: additive in r, but (ee)m = 0 and e(em) = m
    ("triv(Z2, free(1))", Z2_MOD, [[0, 0], [0, 1], [0, 1], [0, 0]], "scalar action is not associative"),
    # the same on Z2^2 (index 2a + b) with e: (a, b) -> (a, 0), which is
    # associative on the first additive generator (0, 1) and not on (1, 0)
    ("triv(Z2, free(1))", [[i ^ j for j in range(4)] for i in range(4)],
     [[0, 0, 0, 0], [0, 0, 2, 2], [0, 1, 2, 3], [0, 1, 0, 1]], "scalar action is not associative"),
    # 2 acts as 1 on Z3: (1+1)m = m but m + m = 2m
    ("Z3", Z3_MOD, [[0, 0, 0], [0, 1, 2], [0, 1, 2]], "action does not distribute over ring addition"),
]


@pytest.mark.parametrize("ring, add, act, message", MODULE_FAILURES)
def test_each_module_axiom_failure_is_reported_by_name(ring, add, act, message):
    R = parse_ring(ring)
    with pytest.raises(InvalidConstruction, match=f"^{message}$"):
        FiniteModule(R, add, act)
    assert not loop_module_axioms(R, add, act)
