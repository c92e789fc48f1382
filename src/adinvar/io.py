"""Interchange formats: algebra spec files and builder spec files.

All indices are 1-based in files (0-based internally) and all rationals are
serialized as strings, so a dump/load round trip is exact.  Loading does
not validate the Jacobi identity; the `check` command does that and the
builders insist on it.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

from .core import AlgebraError, BilinearForm, LieAlgebra
from .extension import Representation
from .linalg import Q0


class SpecFormatError(Exception):
    def __init__(self, message, where=None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")


_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")

# The largest dimension of an algebra file and of a builder's double h + d + h*.
# Checking the Jacobi identity costs about n^5 integer operations on a dense
# structure table: `adinvar check` on a dense 24-dimensional file takes about
# 0.7 s, on a 32-dimensional one about 3 s (2-core host, Python 3.11).
MAX_DIM = 24


def parse_rational(value, where=""):
    """An integer or a string 'n' or 'p/q' of ASCII digits, read off the
    match; decimals, exponents and other digits, such as '0.5', '1e3' and
    '١/٢', which Fraction would accept, are refused."""
    match = isinstance(value, str) and _RATIONAL.fullmatch(value.strip())
    if isinstance(value, (bool, float)) or isinstance(value, str) and not match:
        raise SpecFormatError(f"rational must be an integer or 'p/q' string, got {value!r}", where)
    try:
        return Fraction(int(match[1]), int(match[2] or 1)) if match else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecFormatError(f"bad rational {value!r}: {exc}", where)


def rational_str(x):
    return str(Fraction(x))


def _is_int(value):
    """JSON integer; true and false are refused although bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_algebra_dict(doc, where="algebra"):
    """(LieAlgebra, BilinearForm | None) from a spec dictionary.

    Repeated bracket entries add up; a repeated metric entry is an error.
    """
    if not isinstance(doc, dict):
        raise SpecFormatError("algebra spec must be an object", where)
    if "dim" not in doc or not _is_int(doc["dim"]) or doc["dim"] < 1:
        raise SpecFormatError("'dim' must be a positive integer", where)
    dim = doc["dim"]
    if dim > MAX_DIM:
        raise SpecFormatError(f"'dim' {dim} exceeds the largest supported dimension {MAX_DIM}",
                              where)
    names = doc.get("names")
    if names is not None:
        if (not isinstance(names, list) or len(names) != dim
                or not all(isinstance(s, str) for s in names)):
            raise SpecFormatError(f"'names' must be {dim} strings", where)
        first = {}
        for pos, name in enumerate(names):
            if name in first:
                raise SpecFormatError(f"name {name!r} repeats names[{first[name]}]",
                                      f"{where}.names[{pos}]")
            first[name] = pos
    for key in ("brackets", "metric"):
        if not isinstance(doc.get(key, []), list):
            raise SpecFormatError(f"'{key}' must be a list", where)
    table = {}
    for pos, item in enumerate(doc.get("brackets", [])):
        loc = f"{where}.brackets[{pos}]"
        if not (isinstance(item, list) and len(item) == 4):
            raise SpecFormatError("bracket entry must be [i, j, k, value]", loc)
        i, j, k, value = item
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_int(idx) or not 1 <= idx <= dim:
                raise SpecFormatError(f"index {label}={idx!r} out of 1..{dim}", loc)
        if not i < j:
            raise SpecFormatError(f"bracket indices must satisfy i < j, got ({i},{j})", loc)
        c = parse_rational(value, loc)
        if c != 0:
            comps = table.setdefault((i - 1, j - 1), {})
            comps[k - 1] = comps[k - 1] + c if k - 1 in comps else c
    try:
        alg = LieAlgebra(dim, names, table)
    except AlgebraError as exc:
        raise SpecFormatError(str(exc), where)
    form = None
    if "metric" in doc:
        m = [[Q0] * dim for _ in range(dim)]
        seen = {}
        for pos, item in enumerate(doc["metric"]):
            loc = f"{where}.metric[{pos}]"
            if not (isinstance(item, list) and len(item) == 3):
                raise SpecFormatError("metric entry must be [i, j, value]", loc)
            i, j, value = item
            for label, idx in (("i", i), ("j", j)):
                if not _is_int(idx) or not 1 <= idx <= dim:
                    raise SpecFormatError(f"index {label}={idx!r} out of 1..{dim}", loc)
            if not i <= j:
                raise SpecFormatError(f"metric indices must satisfy i <= j, got ({i},{j})", loc)
            if (i, j) in seen:
                raise SpecFormatError(
                    f"metric entry ({i},{j}) repeats metric[{seen[(i, j)]}]", loc)
            seen[(i, j)] = pos
            c = parse_rational(value, loc)
            m[i - 1][j - 1] = c
            m[j - 1][i - 1] = c
        form = BilinearForm(tuple(tuple(row) for row in m))
    return alg, form


def dump_algebra_dict(alg, form=None):
    doc = {"dim": alg.dim, "names": list(alg.names),
           "brackets": [[i + 1, j + 1, k + 1, rational_str(comps[k])]
                        for (i, j), comps in sorted(alg.table.items()) for k in sorted(comps)]}
    if form is not None:
        doc["metric"] = [[i + 1, j + 1, rational_str(x)] for i, row in enumerate(form.matrix)
                         for j, x in enumerate(row[i:], i) if x != 0]
    return doc


def read_json(path):
    """The JSON document at path; a path that cannot be opened, text that is
    not UTF-8 or not JSON (the int digit limit too), or nesting deeper than
    the parser can follow is a SpecFormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise SpecFormatError(f"not UTF-8: {exc}", str(path))
    except (OSError, ValueError) as exc:
        raise SpecFormatError(str(exc), str(path))
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or the integer digit limit
        raise SpecFormatError(f"invalid JSON: {exc}", str(path))
    except RecursionError:
        raise SpecFormatError("invalid JSON: nested too deeply", str(path))


def write_json(path, doc, **dump):
    """``json.dumps(doc, **dump)`` and a newline to path, or a SpecFormatError."""
    try:
        Path(path).write_text(json.dumps(doc, **dump) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(str(exc), str(path))


def load_algebra_file(path):
    return load_algebra_dict(read_json(path), where=str(path))


def _load_part(spec, key, base_dir, where):
    part = spec.get(key)
    if part is None:
        raise SpecFormatError(f"builder spec is missing '{key}'", where)
    if isinstance(part, str):
        return load_algebra_file(Path(base_dir) / part)
    return load_algebra_dict(part, where=f"{where}.{key}")


def load_builder_dict(spec, base_dir=".", where="builder"):
    """Representation from {"d": ..., "h": ..., "pi": [matrix, ...]}.

    'd' and 'h' are algebra specs (inline objects or file paths relative to
    the spec file) and must carry metrics; 'pi' is one d-matrix per h basis
    vector.  Every refusal starts with ``where`` (the file, when loaded
    from one), as those of ``load_algebra_dict`` do.
    """
    if not isinstance(spec, dict):
        raise SpecFormatError("builder spec must be an object", where)
    d_alg, d_form = _load_part(spec, "d", base_dir, where)
    h_alg, h_form = _load_part(spec, "h", base_dir, where)
    if (n := d_alg.dim + 2 * h_alg.dim) > MAX_DIM:
        raise SpecFormatError(f"the double h + d + h* has dimension {n}, above the "
                              f"largest supported dimension {MAX_DIM}", where)
    if d_form is None:
        raise SpecFormatError("'d' needs a metric", where)
    if h_form is None:
        raise SpecFormatError("'h' needs a metric", where)
    pi = spec.get("pi")
    if not isinstance(pi, list) or len(pi) != h_alg.dim:
        raise SpecFormatError(f"'pi' must list {h_alg.dim} matrices", where)
    mats = []
    for pos, mat in enumerate(pi):
        loc = f"{where}.pi[{pos}]"
        if (not isinstance(mat, list) or len(mat) != d_alg.dim
                or any(not isinstance(r, list) or len(r) != d_alg.dim for r in mat)):
            raise SpecFormatError(f"matrix must be {d_alg.dim}x{d_alg.dim}", loc)
        mats.append(tuple(tuple(parse_rational(x, loc) for x in row) for row in mat))
    return Representation(h_alg, h_form, d_alg, d_form, tuple(mats))


def load_builder_file(path):
    return load_builder_dict(read_json(path), base_dir=Path(path).parent,
                             where=str(path))


def dump_builder_dict(rep):
    return {
        "d": dump_algebra_dict(rep.d, rep.d_form),
        "h": dump_algebra_dict(rep.h, rep.h_form),
        "pi": [[[rational_str(x) for x in row] for row in m] for m in rep.mats],
    }
