import random
import re
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from adinvar import (AlgebraError, BilinearForm, LieAlgebra, Subspace,
                     ad_invariant, center, check_jacobi,
                     derived_series, invariant_forms, is_subalgebra,
                     kernel_of, killing_form, lower_central_series,
                     orthogonal_complement, restrict_to_subalgebra,
                     totally_isotropic)
from adinvar.core import SeriesResult, View, _antisymmetric, _leibniz
from adinvar import build_gd, corpus_build, corpus_list, double_extend
from adinvar import linalg
from adinvar.derivations import derivation_algebra, skew_derivations
from conftest import (T_PLUS, a12_rep, conjugated_rep, conjugated_table,
                      dense_change, h3_rep, so3_block_reps, torus_reps)
from oracles import (_ad_invariant_loop, _apply_dense, _center_oracle, _derivation_loop,
                     _is_ideal_oracle, _is_subalgebra_oracle, _jacobi_loop, _skew_loop,
                     check_jacobi_triples, derivation_witnesses, operator_data, rank, skew_witnesses,
                     trace)


SPARSE = st.dictionaries(st.integers(0, 4), st.dictionaries(
    st.integers(0, 4), st.fractions(-4, 4, max_denominator=6), max_size=3), max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SPARSE, SPARSE, st.integers(2, 6))
def test_view_is_the_one_canonical_int_form_of_rational_data(data, other, k):
    """``View.of_rational`` leaves no zero entry, no empty output and no
    factor common to the scale and the entries; ``View.of`` of the same
    data on k times its scale, with or without zeros and empty outputs, is
    the same view, and keeps the dicts it is given when there is nothing
    to divide or drop; ``rational`` renders the nonzero data; ``common``
    brings views to the lcm of their scales, each times its own factor."""
    want = {key: nz for key, comps in data.items()
            if (nz := {p: c for p, c in comps.items() if c})}
    view = View.of_rational(data)
    ints, s = view
    assert s > 0 and gcd(s, *(x for comps in ints.values() for x in comps.values())) == 1
    assert all(comps and all(comps.values()) for comps in ints.values())
    assert view.rational() == want
    scaled = {key: {p: k * x for p, x in comps.items()} for key, comps in ints.items()}
    assert View.of(scaled, k * s) == view
    padded = {**{key: {**comps, 9: 0} for key, comps in scaled.items()}, 9: {}}
    assert View.of(padded, k * s) == view
    kept = View.of(ints, s)
    assert kept == view and kept.data is ints
    o = View.of_rational(other)
    a, b, t = View.common(view, o)
    assert t == lcm(s, o.scale) and (a is ints) == (t == s)
    assert View.of(a, t) == view and View.of(b, t) == o


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.lists(
    st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n), max_size=5))))
def test_subspace_is_one_view_of_its_reduced_echelon_rows(case):
    """A Subspace compares one field, the View of its reduced echelon rows:
    the rows and pivots it renders are those of ``linalg.rref``, its view
    is theirs, the order of the spanning vectors does not matter, and each
    row expands to its unit coordinates while a unit vector off the pivots,
    which lies outside, does not expand."""
    n, vectors = case
    sub = Subspace.span(vectors, n)
    rows, pivots = linalg.rref(vectors) if vectors else ([], [])
    assert [f.name for f in fields(Subspace) if f.compare] == ["int_rows"]
    assert isinstance(sub.int_rows, View) and sub.dim == len(rows)
    assert sub.rows == tuple(map(tuple, rows)) and sub.pivots == pivots
    assert sub.int_rows == View.of_rational({r: dict(enumerate(row)) for r, row in enumerate(rows)})
    assert sub == Subspace.span(vectors[::-1], n) and sub.contains_all(vectors)
    ints, s = sub.int_rows
    assert all(sub._expand(row) == {r: s} for r, row in ints.items())
    assert all(sub._expand({c: 1}) is None for c in range(n) if c not in pivots)


def test_bracket_heisenberg(h3):
    e = linalg.identity(3)
    assert h3.bracket(e[0], e[1]) == e[2]
    assert h3.bracket(e[1], e[0]) == [F(0), F(0), F(-1)]
    assert h3.bracket(e[0], e[0]) == [F(0)] * 3


def test_bracket_vector_linearity(h3):
    x = [F(2), F(3), F(0)]
    y = [F(-1), F(1), F(5)]
    assert h3.bracket(x, y) == [F(0), F(0), F(5)]  # (2*1 - 3*(-1)) e3
    assert h3.bracket(x, x) == [F(0)] * 3


def test_bracket_abelian():
    a = LieAlgebra.abelian(2)
    e = linalg.identity(2)
    assert a.bracket(e[0], e[1]) == [F(0), F(0)]


def test_bracket_dimension_mismatch(h3):
    with pytest.raises(AlgebraError):
        h3.bracket([F(1), F(0)], [F(0), F(1), F(0)])


def test_jacobi_clean(h3):
    assert check_jacobi(h3) == []
    assert check_jacobi(LieAlgebra.abelian(4)) == []


def test_jacobi_violation_located():
    bad = LieAlgebra(3, ("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = check_jacobi(bad)
    assert len(report) == 1
    i, j, k, s = report[0]
    assert (i, j, k) == (0, 1, 2)
    assert s == [F(0), F(0), F(-1)]  # cyclic sum is -e3


def test_antisymmetric_storage_enforced():
    with pytest.raises(AlgebraError):
        LieAlgebra(2, ("a", "b"), {(1, 0): {0: 1}})


def test_form_refuses_the_first_asymmetric_entry():
    """Equal entries pass whether or not they are one object; the first
    (i, j) with j < i, in row order, where the matrix differs from its
    transpose is named."""
    assert BilinearForm(((F(1, 2), F(2, 3)), (F(4, 6), 0))).matrix[1][0] == F(2, 3)
    for rows, at in ((((1, 2, 0), (3, 1, 5), (0, 4, 1)), "(1,0)"),
                     (((1, 2, 0), (2, 1, 5), (0, 4, 1)), "(2,1)")):
        with pytest.raises(AlgebraError, match=re.escape(f"form is not symmetric at {at}")):
            BilinearForm(rows)
    with pytest.raises(AlgebraError, match="not square"):
        BilinearForm(((1, 2), (2,)))


def test_ad_invariant():
    assert ad_invariant(LieAlgebra.abelian(3), BilinearForm.diagonal([1, 1, -1]))
    h3 = LieAlgebra(3, None, {(0, 1): {2: 1}})
    flat = BilinearForm.diagonal([1, 1, 1])
    # <[e1,e2],e3> = 1 while -<e2,[e1,e3]> = 0
    e = linalg.identity(3)
    assert flat.apply(h3.bracket(e[0], e[1]), e[2]) == 1
    assert flat.apply(e[1], h3.bracket(e[0], e[2])) == 0
    assert not ad_invariant(h3, flat)
    dbl = double_extend(a12_rep())
    assert ad_invariant(dbl.g, dbl.Q)


def test_signature_examples():
    assert BilinearForm.diagonal([1, 1]).signature == (0, 2, 0)
    assert BilinearForm.diagonal([-1, 1, 1]).signature == (1, 2, 0)
    dbl = double_extend(a12_rep())
    assert dbl.Q.signature == (2, 3, 0)


def test_center(h3):
    z = center(h3)
    assert z == Subspace.span([[0, 0, 1]], 3)
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    assert center(gd.L) == Subspace.span([[0, 0, 1]], 3)


def test_orthogonal_complement_oscillator_split():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    dbl = gd.double
    m = orthogonal_complement(dbl.h_sub, dbl.Q_minus)
    assert m.dim == 3
    # every member has the shape (h, x, ell h)
    for row in m.basis():
        h_part, dual = row[:dbl.nh], row[dbl.nh + dbl.nd:]
        assert dual == linalg.mat_vec(gd.rep.h_form.rows(), h_part)


def test_orthogonal_complement_involutive():
    dbl = double_extend(a12_rep())
    s = Subspace.span([linalg.identity(5)[0], linalg.identity(5)[2]], 5)
    assert orthogonal_complement(orthogonal_complement(s, dbl.Q), dbl.Q) == s


def test_ideal_and_subalgebra(h3):
    zspan = Subspace.span([[0, 0, 1]], 3)
    assert _is_ideal_oracle(h3, zspan)
    assert is_subalgebra(h3, zspan)
    line = Subspace.span([[1, 0, 0]], 3)
    assert is_subalgebra(h3, line)
    assert not _is_ideal_oracle(h3, line)
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    dbl = gd.double
    d_sub, hstar_sub = _blocks(dbl)
    assert is_subalgebra(dbl.g, dbl.h_sub)
    assert _is_ideal_oracle(dbl.g, d_sub.add(hstar_sub))


def _blocks(dbl):
    """The d and h* blocks of a double extension, as unit rows."""
    eye, hs = linalg.identity(dbl.g.dim), dbl.nh + dbl.nd
    return Subspace.span(eye[dbl.nh:hs], dbl.g.dim), Subspace.span(eye[hs:], dbl.g.dim)


def _test_subspaces(dbl, seed):
    """Subspaces of a double extension: the blocks and their sums, the
    centre, the lower central series, coordinate spans and seeded spans."""
    g = dbl.g
    eye = linalg.identity(g.dim)
    d_sub, hstar_sub = _blocks(dbl)
    subs = [dbl.h_sub, d_sub, hstar_sub, d_sub.add(hstar_sub),
            dbl.h_sub.add(hstar_sub), dbl.h_sub.add(d_sub), center(g),
            Subspace.span([], g.dim)]
    subs += list(lower_central_series(g).chain)
    subs += [Subspace.span([eye[a], eye[b]], g.dim)
             for a, b in combinations(range(g.dim), 2)]
    rng = random.Random(seed)
    for k in (1, 2, 3):
        subs.append(Subspace.span(
            [[F(rng.randint(-2, 2)) for _ in range(g.dim)] for _ in range(k)], g.dim))
    return subs


def _conjugated_sub(sub, p_inv):
    return Subspace.span([linalg.mat_vec(p_inv, r) for r in sub.basis()],
                         sub.ambient_dim)


@pytest.mark.parametrize("name", corpus_list())
def test_ideal_and_subalgebra_match_the_per_bracket_loop(name):
    """One elimination decides what one containment test per bracket did,
    on the subspaces of every corpus double, plain and under a dense
    change of basis (where the verdicts must also stay the same); the
    subspaces include ideals, subalgebras that are not ideals, and
    subspaces that are neither."""
    dbl = build_gd(corpus_build(name).rep).double
    p = dense_change(dbl.g.dim, len(name))
    p_inv = linalg.inverse(p)
    moved = LieAlgebra(dbl.g.dim, dbl.g.names, conjugated_table(dbl.g, p))
    kinds = set()
    for sub in _test_subspaces(dbl, len(name)):
        ideal, subalg = _is_ideal_oracle(dbl.g, sub), is_subalgebra(dbl.g, sub)
        assert subalg == _is_subalgebra_oracle(dbl.g, sub)
        other = _conjugated_sub(sub, p_inv)
        assert (is_subalgebra(moved, other) == _is_subalgebra_oracle(moved, other)
                == subalg)
        kinds.add("ideal" if ideal else "subalgebra" if subalg else "neither")
    assert kinds == {"ideal", "subalgebra", "neither"}


def test_totally_isotropic():
    form = BilinearForm.diagonal([-1, 1, 1])
    assert totally_isotropic(Subspace.span([[1, 0, 1]], 3), form)
    assert not totally_isotropic(Subspace.span([[1, 0, 0]], 3), form)
    assert totally_isotropic(Subspace.span([], 3), form)


def test_series_steps(h3):
    assert lower_central_series(h3).step == 2
    dbl = double_extend(a12_rep())
    ser = lower_central_series(dbl.g)
    assert ser.step == 3
    assert ser.dims == (5, 3, 2, 0)
    assert derived_series(dbl.g).step == 2


def test_series_contains_each_other():
    for rep in (a12_rep(), h3_rep([1, 1], T_PLUS, 1)):
        alg = double_extend(rep).g
        ds = derived_series(alg).chain
        ls = lower_central_series(alg).chain
        for i in range(min(len(ds), len(ls))):
            assert ls[i].contains_subspace(ds[i])


def test_series_stops_on_non_nilpotent():
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    ser = lower_central_series(so3)
    assert ser.step is None
    assert ser.dims == (3,)


def test_invariant_forms_abelian_full():
    forms = invariant_forms(LieAlgebra.abelian(3))
    assert len(forms) == 6


def test_invariant_forms_h3_degenerate(h3):
    forms = invariant_forms(h3)
    assert len(forms) == 3
    e3 = [F(0), F(0), F(1)]
    for f in forms:
        assert ad_invariant(h3, f)
        assert not f.nondegenerate
        assert linalg.mat_vec(f.rows(), e3) == [F(0)] * 3


def test_invariant_forms_a12_contains_source_form():
    dbl = double_extend(a12_rep())
    forms = invariant_forms(dbl.g)
    assert len(forms) == 4
    flat = [x for row in dbl.Q.matrix for x in row]
    span = [[x for row in f.matrix for x in row] for f in forms]
    assert rank(span + [flat]) == len(span)
    for f in forms:
        assert ad_invariant(dbl.g, f)


def test_kernel_of():
    ker = kernel_of([[F(0), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(-1), F(0)]])
    assert ker == Subspace.span([[1, 0, -1]], 3)


def test_restrict_to_subalgebra(h3):
    sub = Subspace.span([[1, 0, 0], [0, 0, 1]], 3)
    small = restrict_to_subalgebra(h3, sub)
    assert small.dim == 2 and not small.table
    with pytest.raises(AlgebraError):
        restrict_to_subalgebra(h3, Subspace.span([[1, 0, 0], [0, 1, 0]], 3))


def test_subspace_equality_is_canonical():
    a = Subspace.span([[2, 0, 2], [0, 3, 0]], 3)
    b = Subspace.span([[1, 3, 1], [1, 0, 1]], 3)
    assert a == b
    assert a.contains([F(3), F(3), F(3)])
    assert not a.contains([F(1), F(0), F(0)])


# ---------------------------------------------------------------------------
# the sparse kernels against their literal definitions
# ---------------------------------------------------------------------------

SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SPARSE_Q = st.one_of(st.just(F(0)), SMALL_Q)
# Entries of very different sizes and coprime denominators in one table:
# the integer sweeps scale each input by the lcm of all its denominators.
MIXED = (F(2**70, 3**40), F(-7, 12), F(1, 5), F(-3**40, 2**70))
MIXED_Q = st.one_of(SMALL_Q, st.sampled_from(MIXED))
KERNELS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def symmetric_forms(draw, n, values=SMALL_Q):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.one_of(st.just(F(0)), values))
    return BilinearForm(tuple(map(tuple, m)))


@st.composite
def algebra_and_form(draw):
    """Structure constants (Jacobi not enforced) with a symmetric form that
    is random, an invariant combination, or an invariant one with a nudge."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), SMALL_Q,
                                        min_size=1, max_size=2))
             for pair in chosen}
    alg = LieAlgebra(n, tuple(f"e{i+1}" for i in range(n)), table)
    kind = draw(st.sampled_from(["random", "invariant", "nudged"]))
    if kind == "random":
        return alg, draw(symmetric_forms(n)), kind
    m = [[F(0)] * n for _ in range(n)]
    for f in invariant_forms(alg):
        c = draw(SMALL_Q)
        m = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(m, f.matrix)]
    if kind == "nudged":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] += 1
        if i != j:
            m[j][i] += 1
    return alg, BilinearForm(tuple(map(tuple, m))), kind


@KERNELS
@given(algebra_and_form())
def test_ad_invariant_matches_triple_loop(case):
    alg, form, kind = case
    got = ad_invariant(alg, form)
    assert got == _ad_invariant_loop(alg, form)
    if kind == "invariant":
        assert got


@KERNELS
@given(algebra_and_form())
def test_killing_form_matches_trace_of_product(case):
    alg = case[0]
    ads = [alg.ad(i) for i in range(alg.dim)]
    assert killing_form(alg).matrix == tuple(
        tuple(trace(linalg.mat_mul(a, b)) for b in ads) for a in ads)


@KERNELS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    symmetric_forms(n),
    st.lists(SPARSE_Q, min_size=n - 1, max_size=n + 1),
    st.lists(SPARSE_Q, min_size=n - 1, max_size=n + 1))))
def test_apply_matches_dense_product(case):
    form, x, y = case
    got = form.apply(x, y)
    assert type(got) is F
    assert got == _apply_dense(form, x, y)


def test_apply_returns_fraction_on_integer_input():
    form = BilinearForm.diagonal([1, -1])
    assert type(form.apply([0, 0], [1, 1])) is F
    assert form.apply([1, 2], [3, 1]) == F(1)


def test_ad_invariant_corpus_doubles_and_corruptions():
    seen = []
    for name in corpus_list():
        dbl = double_extend(corpus_build(name).rep)
        if (dbl.g, dbl.Q) in seen:
            continue
        seen.append((dbl.g, dbl.Q))
        assert ad_invariant(dbl.g, dbl.Q) and _ad_invariant_loop(dbl.g, dbl.Q)
        # B + E_pp is invariant iff E_pp is, iff e_p occurs in no bracket;
        # so nudging Q[p][p] for a p in [g, g] must break invariance
        p = min(k for comps in dbl.g.table.values() for k in comps)
        m = [list(r) for r in dbl.Q.matrix]
        m[p][p] += 1
        bad = BilinearForm(tuple(map(tuple, m)))
        assert not ad_invariant(dbl.g, bad)
        assert not _ad_invariant_loop(dbl.g, bad)
    assert len(seen) > 1


# ---------------------------------------------------------------------------
# the two witness kernels against the loops they replaced
# ---------------------------------------------------------------------------

@st.composite
def sparse_data(draw, n, keys):
    """Sparse tensor data on the given basis tuples, zeros left out."""
    data = {}
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)):
        comps = draw(st.dictionaries(st.integers(0, n - 1), MIXED_Q, max_size=2))
        comps = {p: c for p, c in comps.items() if c}
        if comps:
            data[key] = comps
    return data


LOOPS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def kernel_cases(draw):
    n, nx, slots = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    op = draw(sparse_data(n, list(product(range(nx), range(n)))))
    tensor = draw(sparse_data(n, list(product(range(n), repeat=slots))))
    return n, nx, slots, op, tensor, draw(symmetric_forms(n, MIXED_Q))


@LOOPS
@given(kernel_cases())
def test_skew_witnesses_match_the_triple_loop(case):
    n, nx, _, op, _, form = case
    assert list(skew_witnesses(op, form)) == _skew_loop(op, form, n, nx)


@LOOPS
@given(kernel_cases())
def test_derivation_witnesses_match_the_slot_loop(case):
    n, nx, slots, op, tensor, _ = case
    assert (list(derivation_witnesses(op, tensor))
            == _derivation_loop(op, tensor, n, slots, nx))


@st.composite
def antisymmetric_cases(draw):
    """(n, nx, slots, op, S, nudged): S antisymmetric in its first two
    slots, drawn on the tuples with t_0 < t_1 and mirrored with the
    opposite sign, and S with one entry nudged, which is not.  slots = 1
    has no pair of slots: S and its nudge are any data."""
    n, nx, slots = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    op = draw(sparse_data(n, list(product(range(nx), range(n)))))
    keys = [t for t in product(range(n), repeat=slots) if slots == 1 or t[0] < t[1]]
    tensor = draw(sparse_data(n, keys)) if keys else {}
    if slots > 1:
        tensor.update({(t[1], t[0]) + t[2:]: {p: -c for p, c in comps.items()}
                       for t, comps in list(tensor.items())})
    key = draw(st.sampled_from(list(product(range(n), repeat=slots))))
    p, c = draw(st.integers(0, n - 1)), draw(MIXED_Q.filter(bool))
    comps = {**tensor.get(key, {})}
    comps[p] = comps.get(p, 0) + c
    nudged = {**tensor, key: {q: x for q, x in comps.items() if x}}
    return n, nx, slots, op, tensor, nudged


@LOOPS
@given(antisymmetric_cases())
def test_derivation_witnesses_half_sweep_and_fall_through(case):
    """On S antisymmetric in two slots the kernel computes half the tuples
    and mirrors the rest; with one entry nudged it computes them all.
    Both give the loop's witnesses in the loop's order."""
    n, nx, slots, op, tensor, nudged = case
    if slots > 1:
        assert _antisymmetric(tensor) and not _antisymmetric(nudged)
    for data in (tensor, nudged):
        assert (list(derivation_witnesses(op, data))
                == _derivation_loop(op, data, n, slots, nx))


@LOOPS
@given(algebra_and_form())
def test_kernels_on_brackets_and_their_operators(case):
    """ad(e_i) on the bracket is the Jacobi identity in Leibniz form; pi
    fields built by operator_data are the columns of their matrices."""
    alg, form, _ = case
    n = alg.dim
    ad = operator_data([alg.ad(i) for i in range(n)])
    assert ad == alg.bracket_data
    assert list(skew_witnesses(ad, form)) == _skew_loop(ad, form, n, n)
    bad = list(derivation_witnesses(ad, alg.bracket_data))
    assert bad == _derivation_loop(ad, alg.bracket_data, n, 2, n)
    assert (not bad) == (not check_jacobi(alg))


def test_kernels_stop_at_the_first_witness():
    """Verdicts read one witness; the rest of the sweep is never run."""
    op = {(0, 0): {0: F(1)}, (1, 0): {0: F(1)}}
    form = BilinearForm.diagonal([1])
    found = skew_witnesses(op, form)
    assert next(found) == (0, 0, 0)
    assert next(found) == (1, 0, 0)
    found = derivation_witnesses(op, {(0, 0): {0: F(1)}})
    assert next(found) == (0, 0, 0)


def _mirrored(entries):
    """Data antisymmetric in its first two slots, from its entries on the
    keys with t_0 < t_1."""
    data = {}
    for t, comps in entries.items():
        data[t] = {p: F(c) for p, c in comps.items()}
        data[(t[1], t[0]) + t[2:]] = {p: -F(c) for p, c in comps.items()}
    return data


# C_0 e_y has entries at e_1 and e_3 for every y, so from a stored key with
# (t_0, t_1) = (1, 3) it reaches y < 1, 1 < y < 3, y > 3 and y in {1, 3};
# C_1 is diagonal with distinct weights
BRANCH_OP = {**{(0, y): {1: F(y + 1), 3: F(2 * y - 3), 4: F(1, 2)} for y in range(5)},
             **{(1, y): {y: F(y + 1)} for y in range(5)}}
BRANCH_S = {
    "two slots": _mirrored({(1, 3): {0: 1, 2: -2}, (0, 2): {4: 3}}),
    "three slots": _mirrored({(1, 3, 2): {0: 1}, (0, 4, 4): {2: -1}, (2, 3, 1): {3: 2}}),
    "two slots, mirror nudged": {**_mirrored({(1, 3): {0: 1, 2: -2}}), (3, 1): {0: F(-1)}},
    "three slots, no mirror": {(1, 3, 2): {0: F(1)}, (4, 0, 1): {1: F(-2)}},
}


@pytest.mark.parametrize("name", BRANCH_S)
def test_derivation_witnesses_pin_the_branches_of_the_scatter(name):
    """Hand-built S whose keys the operator reaches from every side of the
    two first slots, antisymmetric (read by halves) or not (read whole):
    the witnesses, mirrors included, are the slot loop's."""
    tensor = BRANCH_S[name]
    slots = len(next(iter(tensor)))
    assert _antisymmetric(tensor) == ("mirror" not in name)
    found = list(derivation_witnesses(BRANCH_OP, tensor))
    assert found and found == _derivation_loop(BRANCH_OP, tensor, 5, slots, 2)
    assert {x for x, *_ in found} == {0, 1}


def test_derivation_witnesses_of_an_empty_s_and_an_operator_off_s():
    """An empty S has no witness; an operator C_x that meets neither the
    keys nor the values of S has none either, while one that does has the
    loop's."""
    assert list(derivation_witnesses(BRANCH_OP, {})) == []
    tensor = _mirrored({(1, 3): {0: 1, 2: -2}})
    op = {(0, 4): {4: F(1)}, (2, 0): {1: F(1)}}
    found = list(derivation_witnesses(op, tensor))
    assert found and found == _derivation_loop(op, tensor, 5, 2, 3)
    assert {x for x, *_ in found} == {2}


class _CountedGets(dict):
    """A dict that counts its ``get`` calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_leibniz_probes_the_tensor_once_per_stored_key():
    """On a sparse antisymmetric 3-slot S at n = 40 the kernel reads S from
    its stored entries: at most len(S) probes (those of the antisymmetry
    test), where a sweep of the tuples t_0 < t_1 makes about n^3/2."""
    n = 40
    rng = random.Random(4)
    entries = {}
    while len(entries) < 12:
        a, b = sorted(rng.sample(range(n), 2))
        entries[a, b, rng.randrange(n)] = {rng.randrange(n): rng.choice((1, -2, 3))}
    tensor = _CountedGets(View.of_rational(_mirrored(entries)).data)
    op = {(x, y): {rng.randrange(n): rng.choice((1, -1))} for x in range(3)
          for y in rng.sample(range(n), 8)}
    found = list(_leibniz(op, tensor))
    assert found and 0 < tensor.gets <= len(tensor)
    assert {(x, b, a, c) for x, a, b, c in found} == set(found)


# ---------------------------------------------------------------------------
# check_jacobi against the bracket loop it replaced
# ---------------------------------------------------------------------------

@st.composite
def bracket_tables(draw):
    """Structure constants on up to 6 basis vectors, Jacobi not enforced."""
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), MIXED_Q,
                                        min_size=1, max_size=3))
             for pair in chosen}
    return LieAlgebra(n, tuple(f"e{i+1}" for i in range(n)), table)


@KERNELS
@given(bracket_tables())
def test_check_jacobi_matches_the_bracket_loop(alg):
    got = check_jacobi(alg)
    assert got == _jacobi_loop(alg)
    assert all(type(x) is F for *_, s in got for x in s)


@st.composite
def failing_tables(draw):
    """Structure constants on 3 to 7 basis vectors, on at least two pairs,
    that fail Jacobi: the triple loop reports a violation."""
    n = draw(st.integers(3, 7))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=2, unique=True))
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), MIXED_Q.filter(bool),
                                        min_size=1, max_size=3))
             for pair in pairs}
    alg = LieAlgebra(n, None, table)
    assume(check_jacobi_triples(alg))
    return alg


@KERNELS
@given(failing_tables())
def test_check_jacobi_matches_the_triple_loop_on_failing_tables(alg):
    """The scatter gives the triple loop's witnesses, sums and order."""
    assert check_jacobi(alg) == check_jacobi_triples(alg)


def test_check_jacobi_on_conjugated_corpus_algebras():
    """d, h, the double and d + h* of every entry under a dense change of
    basis satisfy Jacobi; with one structure constant nudged, the two
    routes find the same violations with the same dense sums."""
    seen, nudged = [], 0
    for seed, name in enumerate(corpus_list()):
        rep = corpus_build(name).rep
        for alg in (rep.d, rep.h, double_extend(rep).g, build_gd(rep).L):
            if alg in seen:
                continue
            seen.append(alg)
            table = conjugated_table(alg, dense_change(alg.dim, seed))
            conj = LieAlgebra(alg.dim, alg.names, table)
            assert check_jacobi(conj) == _jacobi_loop(conj) == []
            if not table:
                continue
            (i, j), comps = min(table.items())
            k = min(comps)
            broken = LieAlgebra(alg.dim, alg.names,
                                {**table, (i, j): {**comps, k: comps[k] + 1}})
            bad = check_jacobi(broken)
            assert bad == _jacobi_loop(broken)
            nudged += bool(bad)
    assert nudged


# ---------------------------------------------------------------------------
# mixed denominators on identities that hold: every sum must cancel
# ---------------------------------------------------------------------------

def _mixed_change(n):
    """Unit upper-triangular P whose entries above the diagonal cycle
    through MIXED."""
    p = linalg.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            p[i][j] = MIXED[(i + j) % len(MIXED)]
    return p


def test_kernels_cancel_across_mixed_denominators():
    """so(3) with its invariant form and the gH double with Q, rewritten in
    the basis _mixed_change: Jacobi, ad-invariance and Leibniz hold, so
    each sum cancels across rows and keys with coprime denominators of very
    different sizes.  With one constant nudged the kernels give the literal
    loops' witnesses and violation vectors."""
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    dbl = double_extend(corpus_build("gH").rep)
    for alg, form in ((so3, BilinearForm.diagonal([1, 1, 1])), (dbl.g, dbl.Q)):
        n, p = alg.dim, _mixed_change(alg.dim)
        table = conjugated_table(alg, p)
        conj = LieAlgebra(n, alg.names, table)
        g = BilinearForm(tuple(map(tuple, linalg.mat_mul(
            linalg.transpose(p), linalg.mat_mul(form.rows(), p)))))
        dens = {x.denominator for comps in table.values() for x in comps.values()}
        assert len(dens) > 2 and max(dens) > 2**64
        br = conj.bracket_data
        assert check_jacobi(conj) == _jacobi_loop(conj) == []
        assert list(skew_witnesses(br, g)) == _skew_loop(br, g, n, n) == []
        assert list(derivation_witnesses(br, br)) == []
        assert _derivation_loop(br, br, n, 2, n) == []

        (i, j), comps = min(table.items())
        k = min(comps)
        broken = LieAlgebra(n, alg.names,
                            {**table, (i, j): {**comps, k: comps[k] + F(1, 7)}})
        bad = check_jacobi(broken)
        assert bad and bad == _jacobi_loop(broken)
        assert all(type(x) is F for *_, v in bad for x in v)
        bb = broken.bracket_data
        found = list(skew_witnesses(bb, g))
        assert found and found == _skew_loop(bb, g, n, n)
        found = list(derivation_witnesses(bb, bb))
        assert found and found == _derivation_loop(bb, bb, n, 2, n)


# ---------------------------------------------------------------------------
# the series against the span of the Fraction brackets
# ---------------------------------------------------------------------------

def _series_by_span(alg, lower):
    """Each term the Subspace.span of alg.bracket over the dense bases."""
    full = Subspace.full(alg.dim)
    chain = [full]
    while True:
        left = full if lower else chain[-1]
        nxt = Subspace.span([alg.bracket(u, v) for u in left.basis()
                             for v in chain[-1].basis()], alg.dim)
        if nxt == chain[-1]:
            return SeriesResult(tuple(chain), None)
        chain.append(nxt)
        if nxt.dim == 0:
            return SeriesResult(tuple(chain), len(chain) - 1)


def _assert_series_match(alg):
    """Both series equal the span route; returns the denominators seen in
    the rows of their terms."""
    dens = set()
    for series, lower in ((lower_central_series, True), (derived_series, False)):
        got = series(alg)
        assert got == _series_by_span(alg, lower)
        dens |= {x.denominator for sub in got.chain for row in sub.rows for x in row}
    return dens


def test_series_match_the_span_route():
    """Every corpus double and d + h*, plain and under a dense change of
    basis, and the closure algebras of their derivations and of their
    derivations skew for Q or the metric of d + h*."""
    seen, dens = [], set()
    for seed, name in enumerate(corpus_list()):
        rep = corpus_build(name).rep
        for r in (rep, conjugated_rep(rep, seed)):
            gd = build_gd(r)
            for alg, form in ((gd.double.g, gd.double.Q), (gd.L, gd.metric)):
                if alg in seen:
                    continue
                seen.append(alg)
                for a in (alg, derivation_algebra(alg).closure,
                          skew_derivations(alg, form).closure):
                    dens |= _assert_series_match(a)
    assert len(seen) > 20
    assert max(dens) > 1  # terms with non-unit denominators are covered


@LOOPS
@given(torus_reps())
def test_series_match_the_span_route_on_tori(rep):
    gd = build_gd(rep)
    _assert_series_match(gd.L)
    _assert_series_match(gd.double.g)


# ---------------------------------------------------------------------------
# subspace membership and the centre against their eliminating definitions
# ---------------------------------------------------------------------------

def _rank_contains(sub, vectors):
    """The basis stacked with all the vectors has rank dim sub."""
    stacked = sub.basis() + [list(map(F, v)) for v in vectors]
    return rank(stacked) == sub.dim


@st.composite
def subspaces_and_vectors(draw):
    """A span of up to 4 sparse vectors in Q^n (n <= 7), combinations of
    them (inside), and vectors drawn freely or as an inside vector nudged
    in one coordinate, pivot or not (mostly outside)."""
    n = draw(st.integers(1, 7))
    span = draw(st.lists(st.lists(SPARSE_Q, min_size=n, max_size=n), max_size=4))
    sub = Subspace.span(span, n)
    inside = [[sum((c * x for c, x in zip(cs, col)), F(0)) for col in zip(*span)]
              if span else [F(0)] * n
              for cs in draw(st.lists(st.lists(MIXED_Q, min_size=len(span),
                                               max_size=len(span)),
                                      min_size=1, max_size=3))]
    others = draw(st.lists(st.lists(MIXED_Q, min_size=n, max_size=n), max_size=2))
    for v in inside:
        c = draw(st.integers(0, n - 1))
        others.append(v[:c] + [v[c] + draw(MIXED_Q.filter(bool))] + v[c + 1:])
    return sub, inside, others


@KERNELS
@given(subspaces_and_vectors())
def test_contains_all_matches_the_rank_test(case):
    sub, inside, others = case
    assert sub.contains_all(inside) and _rank_contains(sub, inside)
    for v in others:
        assert sub.contains(v) == _rank_contains(sub, [v])
        assert sub.contains_all(inside + [v]) == _rank_contains(sub, inside + [v])
    n = sub.ambient_dim
    assert sub.contains_subspace(sub) and sub.contains_subspace(Subspace.span([], n))
    assert sub.contains_subspace(Subspace.full(n)) == (sub.dim == n)


def _algebras(rep):
    gd = build_gd(rep)
    return rep.d, rep.h, gd.L, gd.double.g


@pytest.mark.parametrize("name", corpus_list())
def test_center_matches_the_ad_nullspace_on_the_corpus(name):
    rep = corpus_build(name).rep
    for alg in _algebras(rep) + _algebras(conjugated_rep(rep, len(name))):
        assert center(alg) == _center_oracle(alg)


@KERNELS
@given(st.one_of(torus_reps(), so3_block_reps()), st.sampled_from([None, 5]))
def test_center_matches_the_ad_nullspace_on_generated_reps(rep, seed):
    if seed is not None:
        rep = conjugated_rep(rep, seed)
    for alg in _algebras(rep):
        assert center(alg) == _center_oracle(alg)


@KERNELS
@given(bracket_tables())
def test_center_matches_the_ad_nullspace_on_bracket_tables(alg):
    assert center(alg) == _center_oracle(alg)
