"""Nilpotency and solvability of d + h* predicted from (d, pi) and checked
against the directly computed series.

The nilpotency test uses the obstruction space beta(d, D^{k-1}(d)): the
k-th lower central term upstairs equals exactly that space.  A D^k
containment test is vacuous when d is exactly k-step nilpotent, so the
effective criterion reads off D^{k-1}; both index readings are reported.
"""

from dataclasses import dataclass

from . import linalg
from .core import (Subspace, _bracket, center, derived_series, kernel_of,
                   lower_central_series, totally_isotropic)


class SeriesError(Exception):
    pass


@dataclass(frozen=True)
class StepReport:
    kind: str                 # "solvable" | "nilpotent"
    step_d: int
    step_gd_predicted: int
    step_gd_computed: int
    witness: Subspace         # beta-obstruction space inside d + h*
    naive_index_test: bool    # containment test with index k (vacuous)
    corrected_index_test: bool  # the test with index k-1 actually used

    @property
    def consistent(self):
        return self.step_gd_predicted == self.step_gd_computed


def _beta_obstruction(gd, left, right):
    """Span of beta(u, v) for u in left, v in right, inside d + h*: the h*
    part of [u, v] in ``gd.L``, which ``build_gd`` writes as ell^-1 beta,
    summed on the int views of the table and of both bases."""
    nd, n = gd.nd, gd.L.dim
    by_first = {}
    for (i, j), comps in gd.L.int_bracket_data[0].items():
        by_first.setdefault(i, []).append((j, comps))
    vecs = ({k: x for k, x in _bracket(by_first, u, v).items() if k >= nd}
            for u in left.int_rows[0].values() for v in right.int_rows[0].values())
    return Subspace(n, tuple(map(tuple, linalg._rref(vecs, n)[0])))


def predict_solvable_step(gd):
    """d k-step solvable: the extension gd is k-step iff beta vanishes on
    C^{k-1}(d), else (k+1)-step."""
    dser = derived_series(gd.rep.d)
    if dser.step is None:
        raise SeriesError("d is not solvable")
    k = dser.step
    ck1 = dser.chain[k - 1]
    obstruction = _beta_obstruction(gd, ck1, ck1)
    predicted = k if obstruction.dim == 0 else k + 1
    computed = derived_series(gd.L).step
    return StepReport("solvable", k, predicted, computed, obstruction,
                      obstruction.dim == 0, obstruction.dim == 0)


def predict_nilpotent_step(gd):
    """d k-step nilpotent: the extension gd is k-step iff D^{k-1}(d) lies
    in every ker pi(h); the vacuous D^k variant is evaluated alongside."""
    dser = lower_central_series(gd.rep.d)
    if dser.step is None:
        raise SeriesError("d is not nilpotent")
    k = dser.step
    full_d = Subspace.full(gd.nd)
    dk1 = dser.chain[k - 1]
    obstruction = _beta_obstruction(gd, full_d, dk1)
    # the intersection of the kernels is the kernel of the stacked pi rows
    stacked = [list(r) for m in gd.rep.mats for r in m]
    kernels = kernel_of(stacked) if stacked else full_d
    corrected = kernels.contains_subspace(dk1)
    naive_test = kernels.contains_subspace(dser.chain[k])
    predicted = k if corrected else k + 1
    computed = lower_central_series(gd.L).step
    return StepReport("nilpotent", k, predicted, computed, obstruction,
                      naive_test, corrected)


@dataclass(frozen=True)
class HeisenbergReport:
    kind: str              # "heisenberg" | "central_extension" | "abelian"
    heisenberg_dim: int    # 2s + 1 from rank(A) = 2s
    indecomposable: bool   # sufficient condition: ker A totally isotropic
    center_matches: bool   # center(G) = Rz + ker A


def heisenberg_recognizer(gd):
    """Classify d + h* for abelian d and one-dimensional h."""
    rep = gd.rep
    if rep.d.table or rep.h.dim != 1:
        raise SeriesError("recognizer needs abelian d and dim h = 1")
    a = rep.mat(0)
    ker = kernel_of(a)
    rk = rep.d.dim - ker.dim
    if rk == rep.d.dim:
        kind = "heisenberg"
    elif rk == 0:
        kind = "abelian"
    else:
        kind = "central_extension"
    indecomposable = kind == "central_extension" and totally_isotropic(
        ker, rep.d_form)
    expected = Subspace.span(
        [gd.embed_d(v) for v in ker.basis()] + [gd.embed_h([linalg.Q1])],
        gd.L.dim)
    center_matches = center(gd.L) == expected
    return HeisenbergReport(kind, rk + 1, indecomposable, center_matches)
