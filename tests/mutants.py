"""A catalogue of mutants of ``src/adinvar`` and the tests that must kill them.

Each entry replaces one exact snippet of one module.  The script applies
each mutant alone to a temporary copy of the project (``src/``, ``tests/``,
``bench/`` and ``pyproject.toml``), never to the working tree, runs the
entry's pytest selection there with ``-x``, and prints killed or
survived.  It exits 1 if a mutant survives that is not listed as
equivalent, or if a selection does not run.  Named entries run alone, so
a change can re-run the mutants of the code it touches without the whole
catalogue; a name that is not in the catalogue exits 2 before any run.

    python tests/mutants.py [NAME ...]

Pytest does not collect this file.  ``tests/test_mutants_catalogue.py``
checks that every snippet occurs exactly once in its module, so a change
that moves mutated code updates the catalogue with it.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str        # file under src/adinvar
    snippet: str       # occurs exactly once in the module
    replacement: str
    selection: tuple   # pytest node ids, run with -x, of which one must fail
    equivalent: str = ""  # why no test can kill it, when none can


EXT = "tests/test_extension.py::"
LIN = "tests/test_linalg.py::"
GEO = "tests/test_geometry.py::"
CLI = "tests/test_cli.py::"
BRANCHES = "tests/test_core.py::test_derivation_witnesses_pin_the_branches_of_the_scatter"
VIEW = GEO + "test_tensor_view_is_one_canonical_int_view"
VIEW_TYPE = "tests/test_core.py::test_view_is_the_one_canonical_int_form_of_rational_data"
SUBSPACE = "tests/test_core.py::test_subspace_is_one_view_of_its_reduced_echelon_rows"
READERS = GEO + "test_readers_match_the_fraction_oracles_on_the_corpus_and_dense_conjugates"
INT_BUILD = EXT + "test_int_construction_matches_the_fraction_assembly_on_builders"
ROUTES = "tests/test_routes.py::test_closed_form_routes_match_the_dense_oracles"
SIG = (LIN + "test_sparse_signature_matches_the_dense_oracle_and_sympy",
       LIN + "test_signature_pins_the_block_gcd_and_the_hyperbolic_column_update")

CATALOGUE = (
    # _action_faults sweeps each operator family once
    Mutant("action_faults-no_derivation_sweep", "extension.py",
           '    bad |= {("derivation", x) for x, *_ in _leibniz(op, alg.int_bracket_data[0])}\n',
           "", (EXT + "test_validate_reports_each_fault_of_a_family_in_order",)),
    Mutant("action_faults-derivation_before_skew", "extension.py",
           '(("skew", i), ("derivation", i))', '(("derivation", i), ("skew", i))',
           (EXT + "test_validate_matches_the_loops_on_nudged_pi",)),
    Mutant("action_faults-homomorphism_sign", "extension.py",
           "out[p * n + q] += s * c * x", "out[p * n + q] -= s * c * x",
           (EXT + "test_action_faults_scales_each_family_once",)),
    Mutant("action_faults-homomorphism_without_scale", "extension.py",
           "out = [t * x for x in _commutator_flat(ints[i], ints[j])]",
           "out = _commutator_flat(ints[i], ints[j])",
           (EXT + "test_sparse_assembly_matches_the_dense_one_on_generated_reps",)),
    # the two sweeps that validate leans on, and the integer construction
    Mutant("skew-no_transpose_term", "core.py",
           "if v + m.get(k, empty).get(j, 0)", "if v",
           ("tests/test_core.py::test_ad_invariant_corpus_doubles_and_corruptions",)),
    Mutant("jacobi-middle_case_sign", "core.py",
           "t = -x if a < c < b else x", "t = x",
           ("tests/test_core.py::test_check_jacobi_matches_the_triple_loop_on_failing_tables",)),
    Mutant("int_beta-one_scale_only", "extension.py",
           "return View.of(out, s * t)", "return View.of(out, s)",
           (EXT + "test_int_beta_is_the_cocycle_on_basis_pairs",)),
    Mutant("lambda_congruence-without_scale", "extension.py",
           "* t != row.get(j, 0) * u * u * w", "!= row.get(j, 0)",
           (EXT + "test_verify_gd_accepts_fractional_forms_under_a_dense_change_of_basis",)),
    Mutant("lambda_columns-ell_part_one_column_off", "extension.py",
           "{nh + nd + j: x for j, x in rows.get(k, {}).items()}",
           "{nh + nd + j - 1: x for j, x in rows.get(k, {}).items()}",
           (EXT + "test_lambda_is_isometry",)),
    Mutant("cm_relation-sign", "extension.py",
           "!= want.get(k, 0) * s * t", "!= -want.get(k, 0) * s * t",
           (EXT + "test_verify_gd_accepts_built_algebras",)),
    Mutant("cm_relation-without_int_beta_scale", "extension.py",
           "low.get(nd + k, 0) * v != ", "low.get(nd + k, 0) != ",
           (EXT + "test_verify_gd_accepts_fractional_forms_under_a_dense_change_of_basis",)),
    Mutant("loader-accepts_unknown_keys", "io.py",
           '    _known_keys(doc, ("dim", "names", "brackets", "metric"), where)\n', "",
           (CLI + "test_malformed_specs_exit_2_with_the_loader_message",)),
    Mutant("loader-repeated_entry_overwrites", "io.py",
           "comps[k - 1] = comps[k - 1] + c if k - 1 in comps else c", "comps[k - 1] = c",
           ("tests/test_io.py::test_repeated_bracket_entries_add_up",)),
    # the one view type: reduced once, scaled, brought to one scale, rendered
    Mutant("view-keeps_an_unreduced_view", "core.py",
           "if g == 1 and all(comps and all(comps.values()) for comps in data.values()):",
           "if all(comps and all(comps.values()) for comps in data.values()):", (VIEW_TYPE,)),
    Mutant("view-renders_over_the_wrong_scale", "core.py",
           "{p: Fraction(x, self.scale) for p, x in comps.items()}",
           "{p: Fraction(x, 2 * self.scale) for p, x in comps.items()}", (VIEW_TYPE,)),
    Mutant("view-common_misses_the_last_factor", "core.py",
           "data if s == scale else", "data if s in (scale, views[-1][1]) else", (VIEW_TYPE,)),
    Mutant("subspace-view_over_the_wrong_scale", "core.py",
           "for r, (row, p) in enumerate(zip(rows, pivots))}, big))",
           "for r, (row, p) in enumerate(zip(rows, pivots))}, 2 * big))", (SUBSPACE,)),
    # the byte-identity matrix of the reports
    Mutant("report-one_byte", "cli.py",
           'report["Q_signature"] = list(dbl.Q.signature)',
           'report["Q_Signature"] = list(dbl.Q.signature)',
           (CLI + "test_reports_match_the_recorded_digests",)),
    # the int views that the construction writes and the routes read
    Mutant("common-without_its_factor", "core.py",
           "{key: {p: x * (scale // s) for p, x in comps.items()}",
           "{key: {p: x for p, x in comps.items()}", (INT_BUILD,)),
    Mutant("assemble_double-coadjoint_sign", "extension.py",
           "table.setdefault((i, hs + k), {})[hs + m] = -c",
           "table.setdefault((i, hs + k), {})[hs + m] = c",
           (EXT + "test_int_construction_matches_the_fraction_assembly_on_generated_reps",)),
    Mutant("int_inverse-without_the_form_scale", "core.py",
           "linalg._inverse([b.get(i, {}) for i in range(n)], n, s)",
           "linalg._inverse([b.get(i, {}) for i in range(n)], n)",
           (LIN + "test_int_inverse_matches_sympy",)),
    Mutant("levi_civita-without_the_inverse_scale", "geometry.py",
           "2 * sb * sf * si", "2 * sb * sf",
           ("tests/test_routes.py::test_koszul_and_definition_match_the_dense_oracles",)),
    Mutant("t_via_lambda-scale_s4", "homstructure.py",
           "2 * s ** 3 * sg", "2 * s ** 4", (ROUTES,)),
    # linalg._in_basis and the (h | m) split of extension that reads it
    Mutant("coordinates-independence_by_rank", "linalg.py",
           "if pivots[:k] != list(range(k)):", "if len(pivots) < k:",
           (LIN + "test_coordinates_of_each_kind",)),
    Mutant("coordinates-closure_off_by_one", "linalg.py",
           "if len(pivots) > k:", "if len(pivots) > k + 1:",
           (LIN + "test_coordinates_of_each_kind",)),
    Mutant("split-h_slice_one_too_long", "extension.py",
           "{i: c for i, c in cs.items() if i < nh}", "{i: c for i, c in cs.items() if i <= nh}",
           (EXT + "test_kostant_form_and_canonical_connection_match_the_oracles",)),
    Mutant("split-drops_the_h_part", "extension.py",
           "{i: c for i, c in cs.items() if i < nh}", "{}",
           (EXT + "test_kostant_form_and_canonical_connection_match_the_oracles",)),
    Mutant("kostant_form-solve_sign", "extension.py",
           "[[-sum(x * irows.get(p, empty).get(b, 0) for p, x in mc.items())",
           "[[sum(x * irows.get(p, empty).get(b, 0) for p, x in mc.items())",
           (EXT + "test_kostant_form_and_canonical_connection_match_the_oracles",)),
    Mutant("kostant_form-block_row_from_b", "extension.py",
           "lifted[a * q:(a + 1) * q]", "lifted[b * q:(b + 1) * q]",
           (EXT + "test_kostant_form_and_canonical_connection_match_the_oracles",)),
    # the skew derivations solved inside the derivation algebra, the
    # integer kernel behind every nullspace, and the two halved sweeps
    Mutant("skew_part-row_skips_a_basis_matrix", "derivations.py",
           "    for t, flat in flats.items():\n",
           "    for t, flat in list(flats.items())[1:]:\n",
           ("tests/test_solvers.py::test_solvers_match_the_dense_systems_on_the_corpus",)),
    # the closure table of a matrix span, read at the pivots of its rows
    Mutant("span-coordinate_over_h_i_only", "derivations.py",
           "(big // h[i]) * (big // h[j])", "(big // h[i]) * big",
           ("tests/test_derivations.py::test_from_matrices_matches_pair_solves_on_corpus",)),
    Mutant("span-closure_without_lcm_scale", "derivations.py",
           "rest, f = [big * x for x in comm]", "rest, f = list(comm)",
           ("tests/test_derivations.py::test_from_matrices_matches_pair_solves_on_corpus",)),
    Mutant("span-pivot_off_by_one", "derivations.py",
           "if y := comm[p]:", "if y := comm[p - 1]:",
           ("tests/test_derivations.py::test_from_matrices_rejects_unclosed_space",)),
    # the row-incremental elimination and the rank bound of the series
    Mutant("echelon-no_back_elimination", "linalg.py",
           "                basis[k] = _eliminate(prow, row, c)\n",
           "                pass\n",
           (LIN + "test_rref_matches_sympy",)),
    Mutant("echelon-stop_one_row_early", "linalg.py",
           "if len(basis) == bound:", "if len(basis) == bound - 1:",
           (LIN + "test_echelon_stops_at_the_rank_bound",)),
    Mutant("bracket_span-bound_one_less", "core.py",
           "Subspace.of(left.ambient_dim, brackets, right.dim)",
           "Subspace.of(left.ambient_dim, brackets, right.dim - 1)",
           ("tests/test_core.py::test_series_match_the_span_route",)),
    Mutant("kernel-free_entry_sign", "linalg.py",
           "v = {f: m}", "v = {f: -m}",
           (LIN + "test_nullspace_matches_sympy",)),
    Mutant("killing_form-no_mirror", "core.py",
           "        m[j][i] = m[i][j]\n", "        pass\n",
           ("tests/test_core.py::test_killing_form_matches_trace_of_product",)),
    Mutant("killing_form-index_keyed_qp", "core.py",
           "at.setdefault((p, q), []).append((j, y))", "at.setdefault((q, p), []).append((j, y))",
           ("tests/test_core.py::test_killing_form_matches_trace_of_product",)),
    # the sparse signature: one gcd per block, the hyperbolic pair, the
    # Markowitz pivot
    Mutant("signature-gcd_per_row", "linalg.py",
           "        for row in w.values() if d > 1 else ():\n"
           "            for q, x in row.items():\n                row[q] = x // d\n",
           "        for row in w.values():\n            e = gcd(*row.values())\n"
           "            for q, x in row.items():\n                row[q] = x // e\n",
           SIG),
    Mutant("signature-hyperbolic_without_column_update", "linalg.py",
           "            for row in w.values():\n                if x := row.get(j):",
           "            for row in ():\n                if x := row.get(j):",
           SIG),
    Mutant("signature-first_nonzero_diagonal", "linalg.py",
           "k = min((i for i, row in w.items() if i in row), key=lambda i: len(w[i]), default=None)",
           "k = next((i for i, row in w.items() if i in row), None)",
           SIG,
           equivalent="by Sylvester's law of inertia every pivot order gives the same "
                      "signature; the Markowitz choice only keeps the fill small"),
    Mutant("bracket_span-pairs_by_identity", "core.py",
           "if left == right:", "if left is right:",
           ("tests/test_corpus.py::test_lower_central_series_brackets_each_pair_of_g_once",)),
    # geometry's torsion self-check
    Mutant("geometry-torsion_without_swap", "cli.py",
           "torsion_free = (gamma - swapped).int_data", "torsion_free = gamma.int_data",
           (CLI + "test_geometry_command",)),
    # the scatters of the two curvature routes, and the d-d block of
    # ricci_gd_closed
    Mutant("curvature-dj_di_scatter_key", "geometry.py",
           "add_scaled(data.setdefault((j, i, k), {}), -sb, v)",
           "add_scaled(data.setdefault((i, j, k), {}), -sb, v)",
           (GEO + "test_curvature_routes_match_the_dense_oracle_on_the_scaling_family",)),
    Mutant("curvature-dd_without_bracket_scale", "geometry.py",
           "add_scaled(data.setdefault((i, j, k), {}), sb, v)\n"
           "            add_scaled(data.setdefault((j, i, k), {}), -sb, v)",
           "add_scaled(data.setdefault((i, j, k), {}), 1, v)\n"
           "            add_scaled(data.setdefault((j, i, k), {}), -1, v)",
           (GEO + "test_curvature_routes_match_the_dense_oracle_on_conjugated_registry_builders",)),
    Mutant("curvature_gd-pib_bca_coefficient", "geometry.py",
           "add_scaled(data.setdefault((w, u, v), {}), -1, col)",
           "add_scaled(data.setdefault((w, u, v), {}), -2, col)",
           (GEO + "test_routes_agree_on_generated_nilpotent_data",)),
    Mutant("curvature_gd-pib_cab_coefficient", "geometry.py",
           "add_scaled(data.setdefault((v, w, u), {}), -1, col)",
           "add_scaled(data.setdefault((v, w, u), {}), 1, col)",
           (GEO + "test_routes_agree_on_generated_nilpotent_data",)),
    Mutant("curvature_gd-beta_star_target_dropped", "geometry.py",
           "            add_scaled(data.setdefault((u, v, w), {}), 2, col)\n", "",
           (GEO + "test_curvature_routes_match_the_dense_oracle_on_the_scaling_family",)),
    Mutant("curvature_gd-bracket_term_sign", "geometry.py",
           "add_scaled(data.setdefault((a, b, c), {}), -x, lc)",
           "add_scaled(data.setdefault((a, b, c), {}), x, lc)",
           (GEO + "test_routes_agree_on_generated_nilpotent_data",)),
    Mutant("ricci_gd_closed-dd_half", "geometry.py",
           "add_scaled(m[q], 2 * x * y,", "add_scaled(m[q], x * y,",
           (GEO + "test_routes_agree_on_generated_indefinite_abelian_data",)),
    Mutant("ricci_gd_closed-dd_transpose", "geometry.py",
           "add_scaled(m[q], 2 * x * y, _lowered(ops[nd + a].get(p, {}), g_rows))",
           "for r, z in _lowered(ops[nd + a].get(p, {}), g_rows).items():\n"
           "                        m[r][q] += 2 * x * y * z",
           (GEO + "test_routes_agree_on_generated_indefinite_abelian_data",),
           equivalent="gS is symmetric when every pi(h) is g-skew and ell^-1 is "
                      "symmetric, because (g pi_a pi_b)^T = g pi_b pi_a"),
    # the integer view of Tensor and the readers of R on ints
    Mutant("tensor-equality_ignores_the_scale", "geometry.py",
           "return (self.dim, self.slots, self.int_data) == (other.dim, other.slots, other.int_data)",
           "return self.int_data[0] == other.int_data[0]", (VIEW,)),
    Mutant("tensor-sub_weights_one_side", "geometry.py",
           "data = {idx: {p: x * t for p, x in comps.items()} for idx, comps in a.items()}",
           "data = {idx: dict(comps) for idx, comps in a.items()}", (VIEW,)),
    Mutant("charpoly-divides_by_s", "linalg.py",
           "coeffs.append(Fraction(c, s ** k))", "coeffs.append(Fraction(c, s))",
           (LIN + "test_det_and_charpoly_match_sympy",)),
    Mutant("ricci_operator-without_the_form_scale", "geometry.py",
           "Fraction(x * s, row[i] * r)", "Fraction(x, row[i] * r)", (READERS,)),
    Mutant("sectional-without_the_vector_scale", "geometry.py",
           "r * s * t ** 4 * qp.numerator", "r * s * qp.numerator", (READERS,)),
    # nabla~ and what build_hom_structure builds
    Mutant("nabla_tilde_closed-pi_sign", "homstructure.py",
           "gd_tensor(gd, ({}, 1), 2, 0, 2)", "gd_tensor(gd, ({}, 1), -2, 0, 2)",
           ("tests/test_homstructure.py::test_nabla_tilde_matches_closed_form",)),
    Mutant("nabla_tilde_closed-no_h_bracket", "homstructure.py",
           "gd_tensor(gd, ({}, 1), 2, 0, 2)", "gd_tensor(gd, ({}, 1), 2, 0, 0)",
           ("tests/test_homstructure.py::test_nabla_tilde_matches_closed_form",)),
    Mutant("build_hom_structure-builds_nabla_tilde_closed", "homstructure.py",
           "    return HomStructure(t_tensor(gd),",
           "    nabla_tilde_closed(gd)\n    return HomStructure(t_tensor(gd),",
           ("tests/test_corpus.py::test_hom_structure_builds_t_and_nabla_only",)),
    # derivation_witnesses reads its slot count off the tensor, and its
    # scatter reads an antisymmetric S by halves
    Mutant("derivation_witnesses-two_slots", "core.py",
           "slots = len(next(iter(tensor), ()))", "slots = 2",
           (BRANCHES, "tests/test_core.py::test_derivation_witnesses_match_the_slot_loop")),
    Mutant("leibniz-mirror_sign", "core.py",
           "hits.append(((o, y) + rest, -k * c))", "hits.append(((o, y) + rest, k * c))",
           (BRANCHES,)),
    Mutant("leibniz-mirror_slot_on_the_diagonal", "core.py",
           "if y < o:", "if y <= o:", (BRANCHES,)),
    Mutant("leibniz-no_mirror_witness", "core.py",
           "bad += [(t[1], t[0]) + t[2:] for t in bad] if half else []", "bad += []",
           (BRANCHES,)),
    Mutant("leibniz-no_action_on_the_value", "core.py",
           "for r, v in cx.get(p, empty).items():", "for r, v in ():", (BRANCHES,)),
    # names of a built algebra, the size cap, the degenerate-plane label
    Mutant("joined_names-no_fallback", "extension.py",
           "return names if len(set(names)) == len(names) else None",
           "return names if True else None",
           (CLI + "test_gd_and_extend_emit_loadable_files",)),
    Mutant("default_names-from_zero", "core.py",
           'f"e{i + 1}" for i in range(dim)', 'f"e{i}" for i in range(dim)',
           (CLI + "test_gd_and_extend_emit_loadable_files",)),
    # the Jacobi refusal of the construction data and the one renderer of
    # reports
    Mutant("validate-no_d_jacobi_refusal", "extension.py",
           '("d_not_lie_algebra", check_jacobi(self.d)),', '("d_not_lie_algebra", []),',
           (CLI + "test_gd_and_extend_refuse_each_invalid_part",)),
    Mutant("finish-report_without_default_str", "cli.py",
           "write_json(args.report, report, indent=2, sort_keys=True, default=str)",
           "write_json(args.report, report, indent=2, sort_keys=True)",
           (CLI + "test_written_reports_and_emitted_files_keep_their_layout",)),
    Mutant("builder_cap-counts_h_once", "io.py",
           "d_alg.dim + 2 * h_alg.dim) > MAX_DIM", "d_alg.dim + h_alg.dim) > MAX_DIM",
           ("tests/test_io.py::test_dimension_above_the_cap_refused_before_allocation",)),
    Mutant("builder_cap-off_by_one", "io.py",
           "d_alg.dim + 2 * h_alg.dim) > MAX_DIM", "d_alg.dim + 2 * h_alg.dim) > MAX_DIM + 1",
           ("tests/test_io.py::test_dimension_above_the_cap_refused_before_allocation",)),
    Mutant("geometry-degenerate_label", "cli.py",
           'planes[f"{i+1},{j+1}"] = "degenerate"', 'planes[f"{i+1},{j+1}"] = "0"',
           (CLI + "test_geometry_flags_degenerate_planes",)),
)


def run(mutant):
    """pytest's exit code on the entry's selection, with the mutant applied
    to a temporary copy of the project: 1 means killed, 0 survived."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, tmp / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "adinvar" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.selection], cwd=tmp, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode


def main(names):
    known = {m.name: m for m in CATALOGUE}
    if unknown := [name for name in names if name not in known]:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] or CATALOGUE
    bad = 0
    start = time.perf_counter()
    for m in chosen:
        code = run(m)
        verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        if code == 0 and m.equivalent:
            verdict += f" (equivalent: {m.equivalent})"
        elif code != 1:
            bad += 1
        print(f"{verdict:<10} {m.name}", flush=True)
    print(f"{len(chosen)} mutants, {bad} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
