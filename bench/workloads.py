"""The three workloads of the adinvar benchmark.

Each workload turns a seed into inputs (``prepare``) and lists the
operations of one pass (``ops``).  An operation is timed on its own; its
output is then checked exactly against golden data or against a second
route through the program.  A failed check is counted, never raised.

* ``corpus``    -- ``adinvar corpus <name> --json`` for each of the 13
  registry entries, in seeded order; the merged report must hash to the
  ``corpus all --json`` digest.  Breadth at small dimension, full of
  duplicate builds.
* ``scaling``   -- the stage pipeline (validate -> double_extend ->
  build_gd -> connection -> curvature -> verify_as -> so_aut) on the torus
  family at m = 2, 3 (seeded weights, seeded signed permutation of d) and
  on so(3) acting on R^3.  The O(n^5) basis sweeps at the largest
  affordable dimension.
* ``cli_dense`` -- the registry builders (but for two near-copies of gH)
  under a seeded dense rational change of basis of d, written to files
  and run through seven CLI commands; basis-invariant fields must equal
  those of the unconjugated builder.  Dense rationals, raw-algebra routes
  and file parsing.

Every workload also carries reject operations: a copy of each input with
one seeded entry of ``pi`` perturbed, which must be refused with
``pi(..)_not_skew``.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("corpus", "scaling", "cli_dense")


@dataclass
class Op:
    """One timed call; ``check(result, state)`` returns None or a mismatch."""
    name: str
    run: object
    check: object
    reject: bool = False
    keep: str = None  # state key under which the result is kept for later ops


@dataclass
class Prepared:
    ops: list
    inputs: int       # construction inputs per pass, rejected copies included
    dims: dict        # input name -> dimensions, for provenance
    finish: object = None  # state -> None | mismatch, checked after a pass


# ---------------------------------------------------------------------------
# Exact helpers on the JSON interchange format, independent of the package.

def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def inverse(a):
    n = len(a)
    rows = [list(r) + e for r, e in zip(a, identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def change_basis(doc, p, p_inv):
    """The algebra file ``doc`` rewritten in the basis whose j-th vector has
    old coordinates ``p[.][j]``: brackets c' = P^-1 c(Pa, Pb), metric P^T B P.
    The result is in the layout ``dump_algebra_dict`` writes."""
    n = doc["dim"]
    table = {}
    for i, j, k, v in doc.get("brackets", []):
        comps = table.setdefault((i - 1, j - 1), {})
        comps[k - 1] = comps.get(k - 1, Fraction(0)) + Fraction(v)
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            vec = [Fraction(0)] * n
            for (i, j), comps in table.items():
                coef = p[i][a] * p[j][b] - p[j][a] * p[i][b]
                if coef:
                    for k, c in comps.items():
                        vec[k] += coef * c
            if any(vec):
                new = [sum((p_inv[r][k] * vec[k] for k in range(n)), Fraction(0))
                       for r in range(n)]
                brackets += [[a + 1, b + 1, k + 1, str(c)]
                             for k, c in enumerate(new) if c]
    out = {"dim": n, "names": list(doc.get("names") or
                                   [f"e{i + 1}" for i in range(n)]),
           "brackets": brackets}
    if "metric" in doc:
        g = [[Fraction(0)] * n for _ in range(n)]
        for i, j, v in doc["metric"]:
            g[i - 1][j - 1] = g[j - 1][i - 1] = Fraction(v)
        g = mat_mul(transpose(p), mat_mul(g, p))
        out["metric"] = [[i + 1, j + 1, str(g[i][j])]
                         for i in range(n) for j in range(i, n) if g[i][j]]
    return out


def conjugate_builder(builder, p):
    """The builder with d rewritten in basis P: pi -> P^-1 pi P."""
    p_inv = inverse(p)
    pis = [[[Fraction(x) for x in row] for row in m] for m in builder["pi"]]
    return {"d": change_basis(builder["d"], p, p_inv),
            "h": builder["h"],
            "pi": [[[str(x) for x in row] for row in mat_mul(p_inv, mat_mul(m, p))]
                   for m in pis]}


def perturb_builder(builder, rng):
    """A copy with one seeded entry of one pi matrix moved by a nonzero
    rational; against a nondegenerate metric this is never skew."""
    pis = [[list(row) for row in m] for m in builder["pi"]]
    k, n = rng.randrange(len(pis)), len(pis[0])
    p, q = rng.randrange(n), rng.randrange(n)
    pis[k][p][q] = str(Fraction(pis[k][p][q]) + rng.choice((1, -1, 2, Fraction(1, 2))))
    return dict(builder, pi=pis)


def signed_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        p[i][j] = Fraction(rng.choice((1, -1)))
    return p


def dense_basis_change(n, rng):
    """P = L U with seeded unit-triangular L, U: dense, det 1, small
    denominators, so every seed costs about the same."""
    vals = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    low, up = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = rng.choice(vals)
            up[j][i] = rng.choice(vals)
    return mat_mul(low, up)


def algebra_doc(dim, names=None, brackets=(), diag=None):
    doc = {"dim": dim, "names": list(names or [f"e{i + 1}" for i in range(dim)]),
           "brackets": [list(b) for b in brackets]}
    if diag is not None:
        doc["metric"] = [[i + 1, i + 1, str(x)] for i, x in enumerate(diag)]
    return doc


def torus_builder(weights):
    """Abelian h of dim m acting on R^{2m} by rotations with the given
    weights: the generalisation of the two-torus example."""
    m = len(weights)
    pis = []
    for k, w in enumerate(weights):
        mat = [["0"] * (2 * m) for _ in range(2 * m)]
        mat[2 * k][2 * k + 1], mat[2 * k + 1][2 * k] = str(-w), str(w)
        pis.append(mat)
    return {"d": algebra_doc(2 * m, diag=[1] * (2 * m)),
            "h": algebra_doc(m, [f"k{i + 1}" for i in range(m)], diag=[1] * m),
            "pi": pis}


def so3_builder():
    rot = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
           [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
           [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]
    return {"d": algebra_doc(3, diag=[1, 1, 1]),
            "h": algebra_doc(3, ["L1", "L2", "L3"],
                             [[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "-1"]],
                             diag=[1, 1, 1]),
            "pi": [[[str(x) for x in row] for row in m] for m in rot]}


def canonical_digest(adinvar, alg, form, p):
    """Digest of a built algebra rewritten in the basis given by ``p``."""
    doc = adinvar.io.dump_algebra_dict(alg, form)
    return digest(change_basis(doc, p, inverse(p)))


def failed_checks(report):
    return [c["name"] for c in report.get("checks", []) if not c["pass"]]


def names_not_skew(names):
    return any(n.startswith("pi(") and n.endswith("_not_skew") for n in names)


def expect_not_skew(rc, report):
    names = failed_checks(report)
    if rc != 1 or report.get("passed", True) or not names_not_skew(names):
        return f"not refused as pi(..)_not_skew: exit {rc}, failed {names}"
    return None


# gE and gF share d, h and every dimension with gH and differ only in the
# derivation; with them a pass of cli_dense takes twice as long and
# exercises nothing new, so they stay in corpus only.
CLI_DENSE_SKIP = ("gE", "gF")

# Report fields that a change of basis of d must leave unchanged, by command.
INVARIANT_FIELDS = {
    "gd": (),
    "check": ("dim", "metric_signature", "metric_nondegenerate",
              "metric_ad_invariant"),
    "geometry": ("ricci_charpoly",),
    "derivations": ("derivations_dim", "inner_dim", "derivations_profile",
                    "inner_profile", "skew_dim", "skew_profile"),
    "verify-as": (),
    "series": ("nilpotent", "solvable"),
    "so-aut": ("so_aut_dim",),
}


def invariant_fields(cmd, report):
    return {f: report.get(f) for f in INVARIANT_FIELDS[cmd]}


def parse_report(res):
    rc, out, err = res
    try:
        return rc, json.loads(out)
    except json.JSONDecodeError:
        return rc, {"unparsed": (out + err)[-200:]}


def check_accepted(res, cmd, want):
    rc, report = parse_report(res)
    if rc != 0 or report.get("passed") is not True:
        return f"exit {rc}, failed {failed_checks(report)}"
    got = invariant_fields(cmd, report)
    if got != want:
        return f"invariant fields {got} != {want}"
    return None


def check_refused(res):
    rc, report = parse_report(res)
    return expect_not_skew(rc, report)


def check_empty(result, state):
    return None if result == [] else f"violations {result}"


class Workload:
    """Inputs and operations of the workloads against an imported package."""

    def __init__(self, adinvar, golden, workdir):
        self.ad = adinvar
        self.golden = golden
        self.workdir = Path(workdir)

    def prepare(self, name, seed):
        return getattr(self, name)(seed)

    def cli(self, argv):
        """Run the adinvar command in process.  Terminal output is captured
        so that it is not timed.  Returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.ad.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def cli_op(self, name, argv, check, reject=False):
        return Op(name, lambda state: self.cli(argv),
                  lambda res, state: check(res), reject)

    def write(self, name, doc):
        path = self.workdir / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def registry_builders(self):
        dump = self.ad.io.dump_builder_dict
        return {name: dump(self.ad.corpus_build(name).rep)
                for name in self.ad.corpus_list()}

    # -- corpus ------------------------------------------------------------

    def corpus(self, seed):
        rng = random.Random(seed)
        builders = self.registry_builders()
        names = sorted(builders)
        rng.shuffle(names)
        ops = []
        for name in names:
            ops.append(Op(f"corpus {name}",
                          lambda state, n=name: self.cli(["corpus", n, "--json"]),
                          lambda res, state, n=name: self._corpus_entry(n, res, state)))
            bad = self.write(f"{name}_reject.json", perturb_builder(builders[name], rng))
            ops.append(self.cli_op(f"reject gd {name}", ["gd", bad, "--json"],
                                   check_refused, reject=True))
        dims = {n: {"d+h*": builders[n]["d"]["dim"] + builders[n]["h"]["dim"]}
                for n in names}
        return Prepared(ops, 2 * len(names), dims, self._corpus_merged)

    def _corpus_entry(self, name, res, state):
        rc, out, _ = res
        state.setdefault("corpus", {})[name] = out
        if rc != 0:
            return f"exit {rc}"
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != self.golden["corpus"]["entries"][name]:
            return f"report sha256 {got}"
        return None

    def _corpus_merged(self, state):
        """Merge the per-entry reports as ``corpus all`` does and compare the
        digest of the merged report with that of ``corpus all --json``."""
        checks = []
        for out in state.get("corpus", {}).values():
            try:
                checks += json.loads(out)["checks"]
            except (json.JSONDecodeError, KeyError):
                return "an entry report is not JSON"
        checks.sort(key=lambda c: (c["name"], str(c.get("witness", ""))))
        merged = {"command": "corpus", "checks": checks,
                  "passed": all(c["pass"] for c in checks)}
        text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != self.golden["corpus"]["report_sha256"]:
            return f"merged report sha256 {got}"
        return None

    # -- scaling -----------------------------------------------------------

    def scaling(self, seed):
        rng = random.Random(seed)
        inputs = []
        for m in (2, 3):
            weights = [rng.choice((1, 2, 3)) for _ in range(m)]
            perm = signed_permutation(2 * m, rng)
            want = self.golden["scaling"]["torus"][",".join(map(str, weights))]
            inputs.append((f"torus{m}", conjugate_builder(torus_builder(weights), perm),
                           inverse(perm), want))
        inputs.append(("so3", so3_builder(), identity(3), self.golden["scaling"]["so3"]))
        rng.shuffle(inputs)
        load = self.ad.io.load_builder_dict
        ops, dims = [], {}
        for label, builder, back, want in inputs:
            rep = load(builder)
            ops += self.stage_ops(label, rep, back, want)
            bad = load(perturb_builder(builder, rng))
            ops.append(Op(f"reject validate {label}", lambda state, r=bad: r.validate(),
                          lambda res, state: None if names_not_skew(res)
                          else f"violations {res}", reject=True))
            nd, nh = rep.d.dim, rep.h.dim
            dims[label] = {"d+h*": nd + nh, "double": nd + 2 * nh}
        return Prepared(ops, 2 * len(inputs), dims)

    def stage_ops(self, label, rep, back, want):
        """The stage pipeline on one representation.  ``back`` maps the
        seeded basis of d back to the canonical one, so that the built
        algebras can be compared with golden digests."""
        ad, nh = self.ad, rep.h.dim
        eye = identity(nh)
        gd_p, dbl_p = block_diag(back, eye), block_diag(eye, back, eye)

        def canonical(alg, form, p):
            return canonical_digest(ad, alg, form, p)

        def same(key):
            return lambda res, state: None if res == state[key] else f"differs from {key}"

        gd, lc, r = f"{label}.gd", f"{label}.lc", f"{label}.r"
        return [
            Op(f"{label} validate", lambda state: rep.validate(), check_empty),
            Op(f"{label} double_extend", lambda state: ad.double_extend(rep),
               lambda res, state: None if canonical(res.g, res.Q, dbl_p) == want["double"]
               else "double extension digest"),
            Op(f"{label} build_gd", lambda state: ad.build_gd(rep),
               lambda res, state: None if canonical(res.L, res.metric, gd_p) == want["gd"]
               else "d + h* digest", keep=gd),
            Op(f"{label} levi_civita",
               lambda state: ad.levi_civita(state[gd].L, state[gd].metric),
               lambda res, state: None, keep=lc),
            Op(f"{label} levi_civita_gd", lambda state: ad.levi_civita_gd(state[gd]),
               same(lc)),
            Op(f"{label} curvature", lambda state: ad.curvature(state[lc], state[gd].L),
               lambda res, state: None, keep=r),
            Op(f"{label} curvature_gd", lambda state: ad.curvature_gd(state[gd]), same(r)),
            Op(f"{label} verify_as", lambda state: ad.verify_as(state[gd]),
               lambda res, state: None if res.all_pass else "an axiom fails"),
            Op(f"{label} so_aut", lambda state: ad.so_aut(state[gd]),
               lambda res, state: None if res.dim == want["so_aut_dim"]
               else f"so_aut dim {res.dim}"),
        ]

    # -- cli_dense ---------------------------------------------------------

    def cli_dense(self, seed):
        rng = random.Random(seed)
        builders = self.registry_builders()
        names = sorted(n for n in builders if n not in CLI_DENSE_SKIP)
        rng.shuffle(names)
        ops, dims = [], {}
        for name in names:
            builder = builders[name]
            conj = conjugate_builder(builder, dense_basis_change(builder["d"]["dim"], rng))
            spec = self.write(f"{name}_builder.json", conj)
            bad = self.write(f"{name}_reject.json", perturb_builder(conj, rng))
            alg = str(self.workdir / f"{name}_gd.json")
            want = self.golden["cli_dense"][name]
            for cmd, argv in self.commands(spec, alg):
                ops.append(self.cli_op(
                    f"{cmd} {name}", argv,
                    lambda res, c=cmd, w=want.get(cmd): check_accepted(res, c, w)))
            for cmd in ("gd", "verify-as"):
                ops.append(self.cli_op(f"reject {cmd} {name}", [cmd, bad, "--json"],
                                       check_refused, reject=True))
            dims[name] = {"d+h*": builder["d"]["dim"] + builder["h"]["dim"]}
        return Prepared(ops, 2 * len(names), dims)

    @staticmethod
    def commands(spec, alg):
        """The seven accepted calls on one builder file, in order; the first
        writes the algebra file the next three read."""
        return (("gd", ["gd", spec, "--emit", alg, "--json"]),
                ("check", ["check", alg, "--json"]),
                ("geometry", ["geometry", alg, "--json"]),
                ("derivations", ["derivations", alg, "--json"]),
                ("verify-as", ["verify-as", spec, "--json"]),
                ("series", ["series", spec, "--json"]),
                ("so-aut", ["derivations", "--so-aut", spec, "--json"]))
