"""Two-parameter grids, vector-valued surface fields, and fixed boundary data.

Every surface flavor handled by this package (Euclidean graph, quantile
family of 1-D densities, diagonal covariance family) reduces to the same
discrete object: an ``ns x nt`` grid over the unit parameter square whose
nodes carry m-dimensional coordinate vectors.  The four edge curves are
data, never unknowns; optimizers only ever move interior nodes.
"""

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CornerMismatchError, ShapeMismatchError

#: absolute tolerance for corner agreement between adjacent boundary edges
CORNER_TOL = 1e-12


def whole_number(value, name: str) -> int:
    """``value`` as an int; raises ValueError for a fraction or a non-number, never truncates."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def real_number(value, name: str) -> float:
    """``value`` as a float; raises ValueError for a string, a boolean or any other non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


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


@dataclass(eq=False)
class BoundarySpec:
    """The four fixed edge curves of a surface field.

    ``edge_s0``/``edge_s1`` run along t at s=0 and s=1 (shape ``(nt, m)``);
    ``edge_t0``/``edge_t1`` run along s at t=0 and t=1 (shape ``(ns, m)``).
    Shared corners of adjacent edges must agree to within ``CORNER_TOL``
    in every coordinate; the s-edges' corner values are then snapped to the
    t-edges' (the ones ``apply_boundary`` writes last), so a field carrying
    this boundary matches all four edges bit-exactly.
    """

    edge_s0: np.ndarray
    edge_s1: np.ndarray
    edge_t0: np.ndarray
    edge_t1: np.ndarray

    def __post_init__(self):
        edges = {}
        for name in ("edge_s0", "edge_s1", "edge_t0", "edge_t1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ShapeMismatchError(f"{name} must be 2-D (length x m), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            edges[name] = arr
            setattr(self, name, arr)
        if edges["edge_s0"].shape != edges["edge_s1"].shape:
            raise ShapeMismatchError("edge_s0 and edge_s1 must have equal shapes")
        if edges["edge_t0"].shape != edges["edge_t1"].shape:
            raise ShapeMismatchError("edge_t0 and edge_t1 must have equal shapes")
        if edges["edge_s0"].shape[1] != edges["edge_t0"].shape[1]:
            raise ShapeMismatchError("s-edges and t-edges must share the coordinate dimension")
        corners = [
            ("(0,0)", "edge_s0", 0, self.edge_t0[0]),
            ("(0,1)", "edge_s0", -1, self.edge_t1[0]),
            ("(1,0)", "edge_s1", 0, self.edge_t0[-1]),
            ("(1,1)", "edge_s1", -1, self.edge_t1[-1]),
        ]
        for label, name, idx, corner in corners:
            edge = getattr(self, name)
            gap = float(np.max(np.abs(edge[idx] - corner)))
            if gap > CORNER_TOL:
                raise CornerMismatchError(
                    f"edges disagree at corner {label}: max gap {gap:.3e} > {CORNER_TOL:.1e}"
                )
            if gap > 0.0:
                edge = edge.copy()  # never write into the caller's array
                edge[idx] = corner
                setattr(self, name, edge)

    @property
    def ns(self) -> int:
        return self.edge_t0.shape[0]

    @property
    def nt(self) -> int:
        return self.edge_s0.shape[0]

    @property
    def dim(self) -> int:
        return self.edge_s0.shape[1]

    @classmethod
    def of_field(cls, f: SurfaceField) -> "BoundarySpec":
        """Extract the four edges of an existing field."""
        v = f.values
        return cls(v[0, :, :].copy(), v[-1, :, :].copy(), v[:, 0, :].copy(), v[:, -1, :].copy())


def edges_from_corner_vectors(c00, c10, c01, c11, grid: Grid2) -> BoundarySpec:
    """Boundary whose edges linearly interpolate four corner vectors.

    This is the shared construction for geodesic edges in coordinates where
    geodesics are straight lines (quantile values, sqrt-covariance entries):
    each edge interpolates its two corner vectors in the edge parameter, so
    corners are consistent by construction.
    """
    c00, c10, c01, c11 = (np.asarray(c, dtype=float) for c in (c00, c10, c01, c11))
    if not (c00.shape == c10.shape == c01.shape == c11.shape) or c00.ndim != 1:
        raise ShapeMismatchError("corner vectors must be 1-D and of equal length")
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[:, None]
    return BoundarySpec(
        edge_s0=(1.0 - t) * c00 + t * c01,
        edge_s1=(1.0 - t) * c10 + t * c11,
        edge_t0=(1.0 - s) * c00 + s * c10,
        edge_t1=(1.0 - s) * c01 + s * c11,
    )


def apply_boundary(f: SurfaceField, b: BoundarySpec) -> SurfaceField:
    """Return a copy of ``f`` with its four edges overwritten by ``b``.

    Interior values are untouched; applying the same boundary twice is a
    no-op after the first application.
    """
    if (b.ns, b.nt, b.dim) != (f.grid.ns, f.grid.nt, f.dim):
        raise ShapeMismatchError(
            f"boundary ({b.ns}x{b.nt}x{b.dim}) does not match field "
            f"({f.grid.ns}x{f.grid.nt}x{f.dim})"
        )
    vals = f.values.copy()
    vals[0, :, :] = b.edge_s0
    vals[-1, :, :] = b.edge_s1
    vals[:, 0, :] = b.edge_t0
    vals[:, -1, :] = b.edge_t1
    return SurfaceField(f.grid, vals)


def coons_init(b: BoundarySpec) -> SurfaceField:
    """Transfinite (Coons) fill of four edge curves, used as initial guess.

    The interior blends the two pairs of opposite edges and subtracts the
    bilinear corner interpolant, which reproduces exactly any field whose
    coordinates have the form ``a + b*s + c*t + d*s*t``.  The edges of the
    result equal ``b`` bit-for-bit.
    """
    grid = Grid2(b.ns, b.nt)
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    c00, c01 = b.edge_s0[0], b.edge_s0[-1]
    c10, c11 = b.edge_s1[0], b.edge_s1[-1]
    vals = (
        (1.0 - s) * b.edge_s0[None, :, :]
        + s * b.edge_s1[None, :, :]
        + (1.0 - t) * b.edge_t0[:, None, :]
        + t * b.edge_t1[:, None, :]
        - (
            (1.0 - s) * (1.0 - t) * c00
            + (1.0 - s) * t * c01
            + s * (1.0 - t) * c10
            + s * t * c11
        )
    )
    return apply_boundary(SurfaceField(grid, vals), b)


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
# t columns are parsed, so a non-numeric one is rejected, but not used: they
# follow from ns and nt.  The index columns are checked one at a time as
# views of the parsed array, and the per-row diagnostics behind an error
# message are built only once a check has failed.  ``save_json`` writes the
# bytes ``json.dumps`` gives for the whole document, ``JSON_CHUNK`` values
# at a time, so its memory does not grow with the field.
# ---------------------------------------------------------------------------

CSV_HEADER = "i,j,s,t,k,value"
#: values per ``json.dumps`` call in ``save_json``; bounds its memory whatever the field size
JSON_CHUNK = 2048


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
    idx = rows[:, (0, 1, 4)]
    bad = ~(np.isfinite(idx) & (idx >= 0) & (idx == np.trunc(idx))).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        return ValueError(
            f"{path}: data row {r + 1} has (i, j, k) = ({', '.join(f'{x:g}' for x in idx[r])}); "
            "indices must be non-negative integers"
        )
    return ValueError(f"{path}: incomplete surface (missing grid entries)")


def load_csv(path) -> SurfaceField:
    """Read a field from the long-form CSV format written by ``save_csv``."""
    with open(path) as fh:
        header, first = fh.readline(), fh.readline()
    if header.strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}' in {path}")
    if not first.strip():
        raise _field_count_error(path) or ValueError(f"{path}: no data rows after the header")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise _field_count_error(path) or ValueError(f"{path}: {exc}") from exc
    if rows.shape[1] != 6:
        raise _field_count_error(path) or ValueError(f"{path}: expected 6 fields per row")

    # Each index column is checked as a view: a NaN fails both comparisons,
    # and an index at or past the row count means a box with missing nodes.
    n = len(rows)
    sizes = []
    for col in (rows[:, 0], rows[:, 1], rows[:, 4]):
        lo, hi = col.min(), col.max()
        if not (lo >= 0 and hi < n) or (np.trunc(col) != col).any():
            raise _index_error(path, rows)
        sizes.append(int(hi) + 1)
    ns, nt, m = sizes
    if ns * nt * m > n:
        raise ValueError(f"{path}: incomplete surface (missing grid entries)")
    # every partial sum is a whole number below ns*nt*m <= n < 2**53: exact in float64
    flat = rows[:, 0] * nt
    flat += rows[:, 1]
    flat *= m
    flat += rows[:, 4]
    flat = flat.astype(np.int64)
    seen = np.zeros(ns * nt * m, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) < n:
        counts = np.bincount(flat, minlength=ns * nt * m)
        r1, r2 = np.flatnonzero(flat == np.argmax(counts > 1))[:2]
        i, j, k = (int(x) for x in rows[r1, (0, 1, 4)])
        raise ValueError(
            f"{path}: duplicate entry for (i, j, k) = ({i}, {j}, {k}) "
            f"at data rows {r1 + 1} and {r2 + 1}"
        )
    # n distinct flat indices in a box of at most n nodes: each node has one row
    vals = np.empty(ns * nt * m)
    vals[flat] = rows[:, 5]
    try:
        return SurfaceField(Grid2(ns, nt), vals.reshape(ns, nt, m))
    except ValueError as exc:  # a one-node direction or a non-finite value
        raise ValueError(f"{path}: {exc}") from exc


def from_json_dict(doc: dict) -> SurfaceField:
    if not isinstance(doc, dict):
        raise ValueError(f"a JSON surface must be an object, got {type(doc).__name__}")
    missing = [key for key in ("ns", "nt", "dim", "values") if key not in doc]
    if missing:
        raise ValueError(f"a JSON surface needs keys ns, nt, dim and values; missing {missing}")
    try:
        ns, nt, dim = (whole_number(doc[key], key) for key in ("ns", "nt", "dim"))
        vals = np.asarray(doc["values"], dtype=float)
    except TypeError as exc:  # e.g. null where a number belongs
        raise ValueError(f"malformed JSON surface: {exc}") from exc
    if vals.size != ns * nt * dim:
        raise ValueError(
            f"values length {vals.size} does not match ns*nt*dim = {ns * nt * dim}"
        )
    return SurfaceField(Grid2(ns, nt), vals.reshape(ns, nt, dim))


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


def load_json(path) -> SurfaceField:
    try:
        return from_json_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
