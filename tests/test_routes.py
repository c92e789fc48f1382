"""Every sparse construction route against the dense per-tuple evaluation it
replaced.

The oracles below are the former ``Tensor.from_function`` bodies: each
evaluates a dense vector on every basis tuple from the same formula.  The
routes must give equal ``Tensor``s (equal data, since zeros are pruned) on
the corpus, so(3), generated tori, so(3) acting on generated blocks and
every corpus builder under a dense change of basis of d.
"""

import sys
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import adinvar
from adinvar import (bi_invariant_curvature_check, build_gd,
                     build_hom_structure, corpus_build, corpus_list, curvature,
                     curvature_gd, levi_civita, levi_civita_gd, linalg,
                     nilmanifold_t_formula, verify_as)
from adinvar.geometry import Tensor
from adinvar.homstructure import _t_via_lambda, nabla_tilde_closed, t_tensor
from adinvar.linalg import Q1
from conftest import (conjugated_rep, so3_block_rep, so3_block_reps, so3_rep,
                      torus_rep, torus_reps)
from oracles import dense, vec_add, vec_scale, vec_sub


# ---------------------------------------------------------------------------
# the dense oracles

def levi_civita_oracle(alg, form):
    n = alg.dim
    binv = linalg.inverse(form.rows())
    basis = linalg.identity(n)

    def nabla(i, j):
        rhs = []
        bij = alg.basis_bracket(i, j)
        for k in range(n):
            t = form.apply(bij, basis[k])
            t -= form.apply(alg.basis_bracket(j, k), basis[i])
            t += form.apply(alg.basis_bracket(k, i), basis[j])
            rhs.append(t / 2)
        return linalg.mat_vec(binv, rhs)

    return Tensor.from_function(n, 2, nabla)


def levi_civita_gd_oracle(gd):
    alg = gd.L
    basis = linalg.identity(alg.dim)

    def nabla(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = alg.bracket(gd.embed_d(x1), gd.embed_d(x2))
        out = vec_sub(out, gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h1), x2)))
        out = vec_sub(out, gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h2), x1)))
        return vec_scale(Q1 / 2, out)

    return Tensor.from_function(alg.dim, 2, nabla)


def curvature_oracle(gamma, alg):
    basis = linalg.identity(alg.dim)

    def r(i, j, k):
        out = gamma.apply(basis[i], gamma.entry(j, k))
        out = vec_sub(out, gamma.apply(basis[j], gamma.entry(i, k)))
        return vec_sub(out, gamma.apply(alg.basis_bracket(i, j), basis[k]))

    return Tensor.from_function(alg.dim, 3, r)


def curvature_gd_oracle(gd):
    alg, rep = gd.L, gd.rep
    nd, nh = gd.nd, gd.nh
    n = nd + nh
    half, quarter = Q1 / 2, Q1 / 4
    ellinv = dense(gd.ell_inv, nh)
    bstar = [[linalg.mat_vec(ellinv, rep.beta(ea, eb)) for eb in linalg.identity(nd)]
             for ea in linalg.identity(nd)]
    pi_bstar = [[linalg.transpose(rep.pi_of(bstar[a][b])) for b in range(nd)]
                for a in range(nd)]
    pi_h = [linalg.transpose(m) for m in rep.mats]
    pi_hbr = [[linalg.transpose(rep.pi_of(rep.h.basis_bracket(p, q)))
               for q in range(nh)] for p in range(nh)]
    d_br = [[rep.d.basis_bracket(a, b) for b in range(nd)] for a in range(nd)]
    l_br = [[alg.basis_bracket(a, b) for b in range(nd)] for a in range(nd)]

    def comb(coeffs, vecs, size):
        out = linalg.zero_vector(size)
        for c, v in zip(coeffs, vecs):
            if c:
                out = [o + c * x for o, x in zip(out, v)]
        return out

    def r(i, j, k):
        di, dj, dk = i < nd, j < nd, k < nd
        if di and dj and dk:
            a, b, c = i, j, k
            out = gd.embed_d([half * x - quarter * (y + z) for x, y, z in zip(
                pi_bstar[a][b][c], pi_bstar[b][c][a], pi_bstar[c][a][b])])
            inner = comb(d_br[a][b], [l_br[q][c] for q in range(nd)], n)
            return vec_sub(out, vec_scale(quarter, inner))
        if di and dj:
            a, b, pih = i, j, pi_h[k - nd]
            hpart = vec_add(
                comb(pih[b], bstar[a], nh),
                comb(pih[a], [bstar[q][b] for q in range(nd)], nh))
            dpart = comb(d_br[a][b], pih, nd)
            return (vec_scale(quarter, dpart)
                    + vec_scale(-quarter, hpart))
        if di and not dj and dk:
            a, b, pih = i, k, pi_h[j - nd]
            out = vec_scale(-quarter, comb(pih[b], l_br[a], n))
            return vec_add(out, gd.embed_d(
                vec_scale(quarter, comb(d_br[a][b], pih, nd))))
        if not di and dj and dk:
            return vec_scale(-Q1, r(j, i, k))
        if di and not dj and not dk:
            out = comb(pi_h[k - nd][i], pi_h[j - nd], nd)
            return gd.embed_d(vec_scale(-quarter, out))
        if not di and dj and not dk:
            return vec_scale(-Q1, r(j, i, k))
        if not di and not dj and dk:
            return gd.embed_d(vec_scale(quarter, pi_hbr[i - nd][j - nd][k]))
        return linalg.zero_vector(n)

    return Tensor.from_function(n, 3, r)


def t_direct_oracle(gd):
    alg = gd.L
    basis = linalg.identity(alg.dim)

    def t(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = alg.bracket(gd.embed_d(x1), gd.embed_d(x2))
        out = vec_add(out, gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h1), x2)))
        out = vec_sub(out, gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h2), x1)))
        out = vec_scale(Q1 / 2, out)
        return vec_add(out, gd.embed_h(gd.rep.h.bracket(h1, h2)))

    return Tensor.from_function(alg.dim, 2, t)


def t_via_lambda_oracle(gd):
    g, hs = gd.double.g, gd.nh + gd.nd
    cols = gd.lambda_columns.rational()
    lam = [[cols[i].get(p, 0) for p in range(g.dim)] for i in range(gd.L.dim)]

    def t(i, j):
        w = g.bracket(lam[i], lam[j])  # (h | d | h*)
        hc = linalg.mat_vec(dense(gd.ell_inv, gd.nh), w[hs:])
        return vec_scale(Q1 / 2, w[gd.nh:hs] + hc)

    return Tensor.from_function(gd.L.dim, 2, t)


def nabla_tilde_oracle(gd):
    basis = linalg.identity(gd.L.dim)

    def nt(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h1), x2))
        return vec_add(out, gd.embed_h(gd.rep.h.bracket(h1, h2)))

    return Tensor.from_function(gd.L.dim, 2, nt)


def nilmanifold_oracle(gd):
    basis = linalg.identity(gd.L.dim)

    def t(i, j):
        v1, k1 = gd.split(basis[i])
        v2, k2 = gd.split(basis[j])
        out = vec_scale(Q1 / 2, gd.embed_d(vec_sub(
            linalg.mat_vec(gd.rep.pi_of(k1), v2),
            linalg.mat_vec(gd.rep.pi_of(k2), v1))))
        out = vec_add(out, vec_scale(Q1 / 2, gd.embed_h(
            linalg.mat_vec(dense(gd.ell_inv, gd.nh), gd.rep.beta(v1, v2)))))
        return vec_add(out, gd.embed_h(gd.rep.h.bracket(k1, k2)))

    return Tensor.from_function(gd.L.dim, 2, t)


# ---------------------------------------------------------------------------
# inputs

def _reps():
    reps = {name: lambda name=name: corpus_build(name).rep for name in corpus_list()}
    reps["so3"] = so3_rep
    # non-abelian h on two blocks of opposite signs: the form on d, <,>_h,
    # ell^-1 and the beta table all have their own denominators, and in
    # the second one the bracket of h (1/3, from h_3 = 3 L3) as well
    reps["so3 x2"] = lambda: so3_block_rep([F(1, 2), -3], F(2, 3))
    reps["so3 x2, dense"] = lambda: conjugated_rep(
        so3_block_rep([F(1, 2), -3], F(2, 3), h_units=(1, F(1, 2), 3)), 17)
    reps["torus"] = lambda: torus_rep([1, 2], [(2, 1), (0, -1), (3, 1), (1, 1)])
    for seed, name in enumerate(corpus_list()):
        reps[f"{name}, dense"] = (
            lambda name=name, seed=seed: conjugated_rep(corpus_build(name).rep, seed))
    return reps


REPS = _reps()


@lru_cache(maxsize=None)
def _gd(name):
    return build_gd(REPS[name]())


GD_ROUTES = {
    "levi_civita_gd": (levi_civita_gd, levi_civita_gd_oracle),
    "curvature_gd": (curvature_gd, curvature_gd_oracle),
    "t_direct": (t_tensor, t_direct_oracle),
    "t_via_lambda": (_t_via_lambda, t_via_lambda_oracle),
    "nabla_tilde_closed": (nabla_tilde_closed, nabla_tilde_oracle),
    "nilmanifold_t_formula": (nilmanifold_t_formula, nilmanifold_oracle),
}


def _check_gd_routes(gd):
    for name, (route, oracle) in GD_ROUTES.items():
        assert route(gd) == oracle(gd), name


def _check_koszul_and_definition(alg, form):
    gamma = levi_civita(alg, form)
    assert gamma == levi_civita_oracle(alg, form)
    assert curvature(gamma, alg) == curvature_oracle(gamma, alg)


@pytest.mark.parametrize("name", sorted(REPS))
def test_closed_form_routes_match_the_dense_oracles(name):
    _check_gd_routes(_gd(name))


@pytest.mark.parametrize("name", sorted(REPS))
def test_koszul_and_definition_match_the_dense_oracles(name):
    """On d + h* and on the double with both invariant forms, whose
    matrices have off-diagonal entries."""
    gd = _gd(name)
    _check_koszul_and_definition(gd.L, gd.metric)
    _check_koszul_and_definition(gd.double.g, gd.double.Q)
    _check_koszul_and_definition(gd.double.g, gd.double.Q_minus)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(torus_reps())
def test_routes_match_the_dense_oracles_on_generated_tori(rep):
    gd = build_gd(rep)
    _check_gd_routes(gd)
    _check_koszul_and_definition(gd.L, gd.metric)


def test_so3_on_two_blocks_is_naturally_reductive():
    gd = _gd("so3 x2")
    assert gd.rep.validate() == []
    assert gd.metric.signature == (3, 6, 0)
    assert verify_as(gd).all_pass
    assert curvature(levi_civita(gd.L, gd.metric), gd.L) == curvature_gd(gd)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(so3_block_reps(), st.sampled_from([None, 5, 11]))
def test_routes_match_the_dense_oracles_on_so3_blocks(rep, seed):
    """Non-abelian h, whose [h1,h2]* and pi([h1,h2])x/4 blocks the tori
    never reach, with rational scales of either sign, plain and under a
    dense change of basis of d."""
    if seed is not None:
        rep = conjugated_rep(rep, seed)
    gd = build_gd(rep)
    _check_gd_routes(gd)
    _check_koszul_and_definition(gd.L, gd.metric)
    _check_koszul_and_definition(gd.double.g, gd.double.Q_minus)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["gH", "so3", "torus", "rpq_2_2, dense", "a12, dense"]),
       st.data(), st.fractions(-3, 3, max_denominator=4).filter(bool))
def test_curvature_definition_matches_the_oracle_on_a_nudged_connection(
        name, data, delta):
    """The definition route is a formula in the connection, valid or not."""
    gd = _gd(name)
    alg = gd.L
    gamma = levi_civita(alg, gd.metric)
    i, j, p = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    moved = {idx: dict(comps) for idx, comps in gamma.data.items()}
    comps = moved.setdefault((i, j), {})
    comps[p] = comps.get(p, F(0)) + delta
    nudged = Tensor(alg.dim, 2, moved)
    assert curvature(nudged, alg) == curvature_oracle(nudged, alg)


def test_routes_build_no_tensor_from_a_function(monkeypatch):
    """The construction routes fill Tensor.data directly; from_function
    stays for the oracles and bi_invariant_curvature_check."""
    calls = []
    real = Tensor.from_function.__func__

    def counted(cls, *args):
        calls.append(args[:2])
        return real(cls, *args)

    # every adinvar binding of Tensor is this one class, so patching the
    # class attribute counts the calls through all of them
    assert all(getattr(mod, "Tensor", Tensor) is Tensor for key, mod in
               sys.modules.items() if key.split(".")[0] == "adinvar")
    monkeypatch.setattr(Tensor, "from_function", classmethod(counted))
    gd = build_gd(torus_rep([1, 2]))
    build_hom_structure(gd)
    curvature(levi_civita(gd.L, gd.metric), gd.L)
    nilmanifold_t_formula(gd)
    assert calls == []
    bi_invariant_curvature_check(gd.double.g, curvature(
        levi_civita(gd.double.g, gd.double.Q), gd.double.g))
    assert calls == [(gd.double.g.dim, 3)]  # the counter does count
