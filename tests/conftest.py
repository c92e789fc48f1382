import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from adinvar import BilinearForm, LieAlgebra, Representation, corpus, linalg

T_PLUS = ((0, -1), (1, 0))
T_MINUS = ((0, 1), (1, 0))
A_F3 = ((0, 1, 0), (1, 0, 1), (0, -1, 0))
SO3_BRACKETS = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}


def h3_algebra():
    return LieAlgebra(3, None, {(0, 1): {2: 1}})


def h3_rep(d_diag, mat, zsign):
    return Representation(
        LieAlgebra.abelian(1, names=("z",)), BilinearForm.diagonal([zsign]),
        LieAlgebra.abelian(2), BilinearForm.diagonal(d_diag), (mat,))


def a12_rep():
    return Representation(
        LieAlgebra.abelian(1, names=("e4",)), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(3), BilinearForm.diagonal([-1, 1, 1]), (A_F3,))


def so3_rep():
    return so3_block_rep([1], 1)


def so3_block_rep(scales, h_scale, perm=None, h_units=(1, 1, 1)):
    """so(3) acting block-diagonally on R^{3k}, k = len(scales): h has the
    basis h_i = u_i L_i for u = h_units, so [h_1, h_2] = (u_1 u_2 / u_3) h_3,
    and h_i rotates each block as u_i L_i does on R^3.  Block b carries
    scales[b] times the identity as its metric, and <,>_h is h_scale
    diag(u_i^2), the identity in the basis L_i.  perm, a list of
    (index, sign) pairs, rewrites d in the basis f_j = sign_j e_index_j,
    where pi becomes P^-1 pi P and the metric P^T g P."""
    gens = (((0, 0, 0), (0, 0, -1), (0, 1, 0)),
            ((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
            ((0, -1, 0), (1, 0, 0), (0, 0, 0)))
    n = 3 * len(scales)
    perm = perm or [(j, 1) for j in range(n)]
    mats = []
    for gen, u in zip(gens, h_units):
        block = [[0] * n for _ in range(n)]
        for b in range(len(scales)):
            for i, j in product(range(3), repeat=2):
                block[3 * b + i][3 * b + j] = u * gen[i][j]
        mats.append(tuple(tuple(si * sj * block[i][j] for j, sj in perm)
                          for i, si in perm))
    diag = [scales[i // 3] for i, _ in perm]
    return Representation(
        LieAlgebra(3, ("L1", "L2", "L3"),
                   {(i, j): {k: F(h_units[i] * h_units[j]) / h_units[k] * c
                             for k, c in comps.items()}
                    for (i, j), comps in SO3_BRACKETS.items()}),
        BilinearForm.diagonal([h_scale * u * u for u in h_units]),
        LieAlgebra.abelian(n), BilinearForm.diagonal(diag), tuple(mats))


@st.composite
def so3_block_reps(draw):
    """so3_block_rep for k in {1, 2}: a nonzero rational scale of either
    sign per block and for <,>_h, the basis of h scaled by one nonzero
    rational (so <,>_h stays a multiple of the identity), and a signed
    permutation of the basis of d."""
    k = draw(st.integers(1, 2))
    scale = st.fractions(-3, 3, max_denominator=5).filter(bool)
    scales = draw(st.lists(scale, min_size=k, max_size=k))
    order = draw(st.permutations(range(3 * k)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3 * k,
                          max_size=3 * k))
    return so3_block_rep(scales, draw(scale), list(zip(order, signs)),
                         (draw(scale),) * 3)


def torus_rep(weights, perm=None):
    """Abelian h of dimension m = len(weights) acting on R^{2m}: h_k rotates
    the k-th coordinate plane with its weight.  perm, a list of
    (index, sign) pairs, rewrites d in the basis f_j = sign_j e_index_j,
    where pi becomes P^-1 pi P and the metric stays the identity."""
    m = len(weights)
    perm = perm or [(j, 1) for j in range(2 * m)]
    mats = []
    for k, w in enumerate(weights):
        rot = [[0] * (2 * m) for _ in range(2 * m)]
        rot[2 * k][2 * k + 1], rot[2 * k + 1][2 * k] = -w, w
        mats.append(tuple(tuple(si * sj * rot[i][j] for j, sj in perm)
                          for i, si in perm))
    return Representation(
        LieAlgebra.abelian(m, names=tuple(f"k{i + 1}" for i in range(m))),
        BilinearForm.diagonal([1] * m),
        LieAlgebra.abelian(2 * m), BilinearForm.diagonal([1] * (2 * m)),
        tuple(mats))


@st.composite
def torus_reps(draw):
    """torus_rep for m <= 2, weights in {1, 2, 3}, a signed permutation."""
    m = draw(st.integers(1, 2))
    weights = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=m, max_size=m))
    order = draw(st.permutations(range(2 * m)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=2 * m,
                          max_size=2 * m))
    return torus_rep(weights, list(zip(order, signs)))


def two_torus_rep():
    """Abelian h of dimension two acting on R^4 by commuting rotations."""
    return torus_rep([1, 1])


def dense_change(n, seed):
    """P = L U for seeded unit-triangular L, U with entries in {+-1, +-1/2}."""
    rng = random.Random(seed)
    vals = (F(1), F(-1), F(1, 2), F(-1, 2))
    low, up = linalg.identity(n), linalg.identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j], up[j][i] = rng.choice(vals), rng.choice(vals)
    return linalg.mat_mul(low, up)


def conjugated_table(alg, p):
    """The structure constants of alg in the basis of the columns of p."""
    p_inv, cols = linalg.inverse(p), linalg.transpose(p)
    table = {}
    for a, b in combinations(range(alg.dim), 2):
        vec = linalg.mat_vec(p_inv, alg.bracket(cols[a], cols[b]))
        comps = {k: c for k, c in enumerate(vec) if c}
        if comps:
            table[(a, b)] = comps
    return table


def conjugated_rep(rep, seed):
    """rep with d rewritten in the dense basis P = dense_change(dim d, seed):
    brackets and metric moved, pi -> P^-1 pi P."""
    p = dense_change(rep.d.dim, seed)
    p_inv = linalg.inverse(p)
    d = LieAlgebra(rep.d.dim, rep.d.names, conjugated_table(rep.d, p))
    g = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(rep.d_form.rows(), p))
    mats = tuple(tuple(map(tuple, linalg.mat_mul(p_inv, linalg.mat_mul(rep.mat(k), p))))
                 for k in range(rep.h.dim))
    return replace(rep, d=d, d_form=BilinearForm(tuple(map(tuple, g))), mats=mats)


def mu_mats(gd):
    """The dense matrices of mu(h_k) on d + h*, read off the operator field
    gd.mu_data: column i of mu_mats(gd)[k] is mu(h_k) e_i."""
    n = gd.L.dim
    mats = [[[F(0)] * n for _ in range(n)] for _ in range(gd.nh)]
    for (k, i), col in gd.mu_data.rational().items():
        for p, c in col.items():
            mats[k][p][i] = c
    return tuple(tuple(map(tuple, m)) for m in mats)


SIGNS = st.sampled_from([1, -1])
SMALL_Q = st.fractions(-3, 3, max_denominator=4)
SEEDS = st.none() | st.integers(0, 99)


def _line_rep(draw, d, d_form, pi):
    """The one-dimensional h, with the form +-1, acting on (d, d_form) by
    pi; d rewritten by conjugated_rep for a drawn seed, or left as it is."""
    rep = Representation(LieAlgebra.abelian(1, names=("z",)),
                         BilinearForm.diagonal([draw(SIGNS)]), d, d_form,
                         (tuple(map(tuple, pi)),))
    seed = draw(SEEDS)
    return rep if seed is None else conjugated_rep(rep, seed)


@st.composite
def indefinite_abelian_reps(draw):
    """Abelian d of signature (p, q), 1 <= p, q <= 2, with a diagonal +-1
    form g in a drawn order, and pi = g^-1 S for a drawn nonzero
    antisymmetric rational S: g pi = S, so pi is skew, and every skew map
    of an abelian d is a derivation."""
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    g = draw(st.permutations([1] * p + [-1] * q))
    n = p + q
    pairs = list(combinations(range(n), 2))
    upper = draw(st.lists(SMALL_Q, min_size=len(pairs), max_size=len(pairs)).filter(any))
    s = [[F(0)] * n for _ in range(n)]
    for (i, j), c in zip(pairs, upper):
        s[i][j], s[j][i] = c, -c
    pi = [[g[i] * x for x in row] for i, row in enumerate(s)]  # g^-1 = g
    return _line_rep(draw, LieAlgebra.abelian(n), BilinearForm.diagonal(g), pi)


@st.composite
def nilpotent_reps(draw):
    """The 3-step nilpotent d of gH, gE and gF with its ad-invariant form,
    and pi a drawn nonzero rational combination of the six skew
    derivations of the derivation lemma, so again a skew derivation."""
    ders = list(corpus._lemma_derivations().values())
    coeffs = draw(st.lists(SMALL_Q, min_size=len(ders), max_size=len(ders)).filter(any))
    pi = [[sum(c * m[i][j] for c, m in zip(coeffs, ders)) for j in range(5)]
          for i in range(5)]
    return _line_rep(draw, corpus._a12_reference_basis(), corpus._a12_skew_metric(), pi)


@pytest.fixture
def h3():
    return h3_algebra()


@pytest.fixture
def oscillator_rep():
    return h3_rep([1, 1], T_PLUS, 1)
