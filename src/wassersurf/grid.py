"""Two-parameter grids, vector-valued surface fields, and their Coons fill.

Every surface flavor handled by this package (Euclidean graph, quantile
family of 1-D densities, diagonal covariance family) reduces to the same
discrete object: an ``ns x nt`` grid over the unit parameter square whose
nodes carry m-dimensional coordinate vectors.  Its edge nodes are the
boundary, data and never unknowns; optimizers only ever move interior nodes.
"""

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError


def whole_number(value, name: str) -> int:
    """``value`` as an int; raises ValueError for a fraction or a non-number, never truncates."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def required(doc: dict, key: str, name: str):
    """``doc[key]``; raises ValueError naming the key as ``name`` when it is absent."""
    if key not in doc:
        raise ValueError(f"{name} is required")
    return doc[key]


def check_keys(doc: dict, known, where: str = "") -> dict:
    """``doc`` if ``known`` has all its keys; ``where`` is the dotted prefix of their names."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {where + key!r}; "
                             f"{where.rstrip('.') or 'the top level'} takes {', '.join(known)}")
    return doc


def json_typed(value, kind: type, name: str):
    """``value`` if it is a ``kind``: list (a JSON array) or dict (an object); else ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'array' if kind is list else 'object'}")
    return value


def real_number(value, name: str) -> float:
    """``value`` as a float; raises ValueError for a string, a boolean or any other non-number.

    So does an integer beyond the float range, which JSON reads exactly.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None


def real_vector(values, name: str) -> np.ndarray:
    """The JSON array ``values`` as 1-D floats; entry n through ``real_number`` as ``name[n]``."""
    values = json_typed(values, list, name)
    return np.array([real_number(v, f"{name}[{n}]") for n, v in enumerate(values)], dtype=float)


@dataclass(frozen=True)
class Grid2:
    """Uniform tensor grid on [0, 1]^2 with ``ns`` x ``nt`` nodes."""

    ns: int
    nt: int

    def __post_init__(self):
        if self.ns < 2 or self.nt < 2:
            raise ValueError(
                f"grid needs at least 2 nodes per direction, got {self.ns}x{self.nt}"
            )

    @property
    def hs(self) -> float:
        return 1.0 / (self.ns - 1)

    @property
    def ht(self) -> float:
        return 1.0 / (self.nt - 1)

    @property
    def s_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ns)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nt)


@dataclass(eq=False)
class SurfaceField:
    """Grid of m-dimensional coordinate vectors, shape ``(ns, nt, m)``.

    Edge rows/columns (index 0 or last in either direction) are treated as
    fixed data by every operation that moves nodes.
    """

    grid: Grid2
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ShapeMismatchError(f"values must be (ns, nt, m), got shape {vals.shape}")
        if vals.shape[:2] != (self.grid.ns, self.grid.nt):
            raise ShapeMismatchError(
                f"values shape {vals.shape[:2]} does not match grid {self.grid.ns}x{self.grid.nt}"
            )
        if vals.shape[2] < 1:
            raise ShapeMismatchError("fields need at least one coordinate")
        if not np.all(np.isfinite(vals)):
            raise ValueError("surface values must be finite")
        self.values = vals

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def copy(self) -> "SurfaceField":
        return SurfaceField(self.grid, self.values.copy())


def edges_from_corner_vectors(c00, c10, c01, c11, grid: Grid2) -> SurfaceField:
    """Field whose edges linearly interpolate four corner vectors; its interior is zero.

    This is the shared construction for geodesic edges in coordinates where
    geodesics are straight lines (quantile values, sqrt-covariance entries).
    The edges are written s = 0, s = 1, t = 0, t = 1 in that order, so each
    corner node holds its t-edge's end, which equals the corner vector.
    """
    c00, c10, c01, c11 = (np.asarray(c, dtype=float) for c in (c00, c10, c01, c11))
    if not (c00.shape == c10.shape == c01.shape == c11.shape) or c00.ndim != 1:
        raise ShapeMismatchError("corner vectors must be 1-D and of equal length")
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[:, None]
    vals = np.zeros((grid.ns, grid.nt, len(c00)))
    vals[0] = (1.0 - t) * c00 + t * c01
    vals[-1] = (1.0 - t) * c10 + t * c11
    vals[:, 0] = (1.0 - s) * c00 + s * c10
    vals[:, -1] = (1.0 - s) * c01 + s * c11
    return SurfaceField(grid, vals)


def coons_init(f: SurfaceField) -> SurfaceField:
    """Transfinite (Coons) fill of the edges of ``f``, used as initial guess.

    The fill depends on the edge nodes of ``f`` alone, which come back bit for bit.
    The interior blends the two pairs of opposite edges and subtracts the
    bilinear interpolant of the corner nodes, which reproduces exactly any
    field of the form ``a + b*s + c*t + d*s*t``.  It is filled one row of
    fixed s at a time, so its temporaries are rows, not fields.
    """
    grid, v = f.grid, f.values
    s0, s1, t0, t1 = v[0], v[-1], v[:, 0], v[:, -1]
    t = grid.t_nodes[:, None]
    u = 1.0 - t
    c00, c01, c10, c11 = v[0, 0], v[0, -1], v[-1, 0], v[-1, -1]
    vals = v.copy()
    for i, s in enumerate(grid.s_nodes.tolist()[1:-1], 1):
        r = 1.0 - s  # r and u weigh the s = 0 and t = 0 sides
        vals[i, 1:-1] = (r * s0 + s * s1 + u * t0[i] + t * t1[i]
                         - (r * u * c00 + r * t * c01 + s * u * c10 + s * t * c11))[1:-1]
    return SurfaceField(grid, vals)


# ---------------------------------------------------------------------------
# serialization
#
# Both formats round-trip finite doubles bit-exactly: CSV prints 17
# significant digits, JSON uses Python's shortest-roundtrip float repr.
# Every CSV writer fills a %-template with one ``%.17g`` slot per value in a
# single C-level call (``_fill_g17``).  ``load_csv`` parses the body with
# numpy's C parser, which rounds correctly, and accepts a file only if its
# header is ``i,j,s,t,k,value``, every row has six numeric fields, the i/j/k
# columns are non-negative integers, no (i, j, k) appears twice, and every
# node of the ns x nt x m box the largest indices span has a row.  The s and
# t columns are parsed (as float32, see ``CSV_ROW``), so a non-numeric one is
# rejected, but not used: they follow from ns and nt.  The index columns are
# checked one at a time as views of the parsed rows, the int64 flat index is
# built and scattered ``CSV_BLOCK`` rows at a time, and the per-row
# diagnostics behind an error message are built only once a check has
# failed: 6.3x the field at 65^2 x 128, the rows being 5x.  ``save_json``
# writes the bytes ``json.dumps`` gives for the whole document,
# ``JSON_CHUNK`` values at a time, so its memory does not grow with the
# field.  ``load_json`` reads the file's bytes once and parses the
# ``values`` array ``JSON_BLOCK`` bytes at a time straight into the result,
# so no Python float per value is ever held: 3.7x the field (the bytes are
# about 2.6x); a document it cannot read that way goes through one
# ``json.loads``, with the same result or message.
# ---------------------------------------------------------------------------

CSV_HEADER = "i,j,s,t,k,value"
#: the row type ``load_csv`` parses into: float64 indices (numpy versions
#: disagree on whether an integer column takes text like ``1.0``) and value,
#: float32 for the s and t columns, which are parsed but never used
CSV_ROW = np.dtype([("i", "f8"), ("j", "f8"), ("s", "f4"), ("t", "f4"),
                    ("k", "f8"), ("value", "f8")])
INDEX_COLUMNS = ("i", "j", "k")
#: values per ``json.dumps`` call in ``save_json``; bounds its memory whatever the field size
JSON_CHUNK = 2048
#: bytes of the ``values`` array per ``json.loads`` call in ``load_json``
JSON_BLOCK = 1 << 16
#: rows per block of the flat index in ``load_csv``
CSV_BLOCK = 1 << 14
#: the types ``json.loads`` gives a JSON number
JSON_NUMBER_TYPES = frozenset((int, float))


def _fill_g17(template: str, values) -> str:
    """Fill the ``%.17g`` slots of ``template`` with ``values``, row-major."""
    return template % tuple(np.ravel(values).tolist())


def save_csv(f: SurfaceField, path) -> None:
    """Write a field as long-form CSV with header ``i,j,s,t,k,value``."""
    g = f.grid
    # one template per s-row; only its <i> and <s> fields change with the row
    row = "".join(
        f"<i>,{j},<s>,{t:.17g},{k},%.17g\n"
        for j, t in enumerate(g.t_nodes.tolist())
        for k in range(f.dim)
    )
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, s in enumerate(g.s_nodes.tolist()):
            template = row.replace("<i>", str(i)).replace("<s>", f"{s:.17g}")
            fh.write(_fill_g17(template, f.values[i]))


def _field_count_error(path) -> ValueError | None:
    """The first data line of ``path`` that does not have six fields, if any."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\r\n").split(",")
            if len(parts) != 6:
                return ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
    return None


def _index_error(path, rows) -> ValueError:
    """Why the i, j, k columns of ``rows`` are not the indices of a complete box."""
    idx = np.stack([rows[name] for name in INDEX_COLUMNS], axis=1)
    bad = ~(np.isfinite(idx) & (idx >= 0) & (idx == np.trunc(idx))).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        return ValueError(
            f"{path}: data row {r + 1} has (i, j, k) = ({', '.join(f'{x:g}' for x in idx[r])}); "
            "indices must be non-negative integers"
        )
    return ValueError(f"{path}: incomplete surface (missing grid entries)")


def _flat_index(rows, nt: int, m: int) -> np.ndarray:
    """The row-major node index ``(i*nt + j)*m + k`` of each of ``rows``, as int64.

    Built in place: every partial sum is a whole number below
    ns*nt*m <= n < 2**53, so adding a float64 column to it is exact.
    """
    flat = rows["i"].astype(np.int64)
    flat *= nt
    np.add(flat, rows["j"], out=flat, casting="unsafe")
    flat *= m
    np.add(flat, rows["k"], out=flat, casting="unsafe")
    return flat


def load_csv(path) -> SurfaceField:
    """Read a field from the long-form CSV format written by ``save_csv``."""
    with open(path) as fh:
        header, first = fh.readline(), fh.readline()
    if header.strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}' in {path}")
    if not first.strip():
        raise _field_count_error(path) or ValueError(f"{path}: no data rows after the header")
    try:
        rows = np.loadtxt(path, dtype=CSV_ROW, delimiter=",", skiprows=1, ndmin=1, comments=None)
    except ValueError as exc:
        raise _field_count_error(path) or ValueError(f"{path}: {exc}") from exc

    # Each index column is checked as a view: a NaN fails both comparisons,
    # and an index at or past the row count means a box with missing nodes.
    n = len(rows)
    sizes = []
    for name in INDEX_COLUMNS:
        col = rows[name]
        lo, hi = col.min(), col.max()
        if not (lo >= 0 and hi < n) or (np.trunc(col) != col).any():
            raise _index_error(path, rows)
        sizes.append(int(hi) + 1)
    ns, nt, m = sizes
    if ns * nt * m > n:
        raise ValueError(f"{path}: incomplete surface (missing grid entries)")
    # a block of rows at a time, so no full-length index is held beside the rows
    seen = np.zeros(ns * nt * m, dtype=bool)
    vals = np.empty(ns * nt * m)
    for start in range(0, n, CSV_BLOCK):
        block = rows[start:start + CSV_BLOCK]
        flat = _flat_index(block, nt, m)
        seen[flat] = True
        vals[flat] = block["value"]
    if np.count_nonzero(seen) < n:
        flat = _flat_index(rows, nt, m)
        counts = np.bincount(flat, minlength=ns * nt * m)
        r1, r2 = np.flatnonzero(flat == np.argmax(counts > 1))[:2]
        i, j, k = (int(rows[name][r1]) for name in INDEX_COLUMNS)
        raise ValueError(
            f"{path}: duplicate entry for (i, j, k) = ({i}, {j}, {k}) "
            f"at data rows {r1 + 1} and {r2 + 1}"
        )
    # n distinct flat indices in a box of at most n nodes: each node has one row
    try:
        return SurfaceField(Grid2(ns, nt), vals.reshape(ns, nt, m))
    except ValueError as exc:  # a one-node direction or a non-finite value
        raise ValueError(f"{path}: {exc}") from exc


def _json_sizes(doc) -> tuple:
    """``ns``, ``nt`` and ``dim`` of the JSON surface ``doc``; ValueError if it has none."""
    if not isinstance(doc, dict):
        raise ValueError(f"a JSON surface must be an object, got {type(doc).__name__}")
    missing = [key for key in ("ns", "nt", "dim", "values") if key not in doc]
    if missing:
        raise ValueError(f"a JSON surface needs keys ns, nt, dim and values; missing {missing}")
    return tuple(whole_number(doc[key], key) for key in ("ns", "nt", "dim"))


def _json_surface(ns: int, nt: int, dim: int, vals: np.ndarray) -> SurfaceField:
    if vals.size != ns * nt * dim:
        raise ValueError(
            f"values length {vals.size} does not match ns*nt*dim = {ns * nt * dim}"
        )
    return SurfaceField(Grid2(ns, nt), vals.reshape(ns, nt, dim))


def from_json_dict(doc: dict) -> SurfaceField:
    """The surface a parsed JSON document holds; ValueError says what is wrong with it."""
    ns, nt, dim = _json_sizes(doc)
    values = json_typed(doc["values"], list, "values")
    if not set(map(type, values)) <= JSON_NUMBER_TYPES:
        for n, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"values[{n}] must be a real number, got {value!r}")
    try:
        vals = np.asarray(values, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed JSON surface: {exc}") from exc
    return _json_surface(ns, nt, dim, vals)


def save_json(f: SurfaceField, path) -> None:
    """Write a field as ``{ns, nt, dim, values}`` with a row-major flat array."""
    head = json.dumps({"ns": f.grid.ns, "nt": f.grid.nt, "dim": f.dim, "values": []})
    flat = f.values.flat
    with open(path, "w") as fh:
        fh.write(head[:-2])
        for start in range(0, f.values.size, JSON_CHUNK):
            if start:
                fh.write(", ")
            fh.write(json.dumps(flat[start:start + JSON_CHUNK].tolist())[1:-1])
        fh.write("]}\n")


def _read_json_numbers(data: bytes, start: int, stop: int, out: np.ndarray) -> bool:
    """Fill ``out`` with the JSON numbers in ``data[start:stop]``, parsed block by block.

    Each block is about ``JSON_BLOCK`` bytes, cut at a comma.  False, with
    ``out`` partly written, unless the bytes are exactly ``out.size`` JSON
    numbers within the float range, separated by commas.
    """
    view, filled = memoryview(data), 0
    while True:
        cut = data.find(b",", start + JSON_BLOCK, stop)
        end = stop if cut < 0 else cut
        try:
            part = json.loads(b"".join((b"[", view[start:end], b"]")))
            if not part or not set(map(type, part)) <= JSON_NUMBER_TYPES:
                return False
            out[filled:filled + len(part)] = part
        except (ValueError, OverflowError):  # not JSON, more values than out holds, a huge int
            return False
        filled += len(part)
        if cut < 0:
            return filled == out.size
        start = cut + 1


def _load_json_blocks(data: bytes) -> SurfaceField | None:
    """The surface ``data`` holds, read with no Python float per value; None if it cannot be.

    Everything but the numbers comes from one ``json.loads`` of ``data`` with
    the bytes between its first ``[`` and last ``]`` replaced by ``[]``, which
    must give an object whose ``values`` is ``[]``; the bytes between are then
    the ``values`` array.  A field this returns, or an error it raises, is the
    one ``from_json_dict(json.loads(data))`` gives.
    """
    first, last = data.find(b"["), data.rfind(b"]")
    if not 0 <= first < last:
        return None
    try:
        doc = json.loads(data[:first] + b"[]" + data[last + 1:])
        ns, nt, dim = _json_sizes(doc)
    except ValueError:
        return None
    size = ns * nt * dim
    # each number takes a byte, and a comma parts each from the next
    if doc["values"] != [] or not 0 < 2 * size - 1 <= last - first - 1:
        return None
    vals = np.empty(size)
    if not _read_json_numbers(data, first + 1, last, vals):
        return None
    return _json_surface(ns, nt, dim, vals)


def load_json(path) -> SurfaceField:
    data = Path(path).read_bytes()
    try:
        field = _load_json_blocks(data)
        if field is None:
            # one json.loads of the whole text, decoded as json.loads decodes
            # bytes; the bytes are let go once decoded and the text once
            # parsed, so this holds no more than a json.loads of the text
            text = data.decode(json.detect_encoding(data), "surrogatepass")
            del data
            doc = json.loads(text)
            del text
            field = from_json_dict(doc)
        return field
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep for json
        raise ValueError(f"{path}: {exc}") from exc
