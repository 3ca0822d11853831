import json
import tracemalloc

import numpy as np
import pytest

import wassersurf as ws
from wassersurf import grid
from wassersurf.cli import main
from wassersurf.errors import ShapeMismatchError
from wassersurf.grid import CSV_HEADER, from_json_dict

# Coons fill of catenoid edge traces, 9x9 over [0.8, 2.1]^2: regression
# baseline for the interior gap to the analytic surface (the catenoid is
# not additively separable, so the fill cannot be exact).
CATENOID_COONS_GAP_9 = 0.053018863531085536


def plane_field(grid, a=2.0, b=3.0, m=1):
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    vals = np.repeat(a * s + b * t, m, axis=2)
    return ws.SurfaceField(grid, vals)


def test_grid_nodes_hit_endpoints_exactly():
    g = ws.Grid2(7, 5)
    assert g.s_nodes[0] == 0.0 and g.s_nodes[-1] == 1.0
    assert g.t_nodes[0] == 0.0 and g.t_nodes[-1] == 1.0
    assert g.hs == pytest.approx(1.0 / 6.0, abs=0.0)
    assert g.ht == 0.25


def test_grid_rejects_single_node_direction():
    with pytest.raises(ValueError):
        ws.Grid2(1, 5)


def test_surface_field_rejects_nonfinite():
    g = ws.Grid2(3, 3)
    vals = np.zeros((3, 3, 1))
    vals[1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        ws.SurfaceField(g, vals)


def test_surface_field_shape_check():
    with pytest.raises(ShapeMismatchError):
        ws.SurfaceField(ws.Grid2(3, 3), np.zeros((4, 3, 1)))


def test_coons_reproduces_plane_exactly():
    g = ws.Grid2(9, 9)
    exact = plane_field(g, a=2.0, b=3.0)
    fill = ws.coons_init(exact)
    assert np.max(np.abs(fill.values - exact.values)) <= 1e-14


def test_coons_constant_edges_give_constant_field():
    g = ws.Grid2(6, 8)
    c = np.array([1.5, -2.0, 0.25])
    vals = np.broadcast_to(c, (6, 8, 3)).copy()
    fill = ws.coons_init(ws.SurfaceField(g, vals))
    assert np.max(np.abs(fill.values - vals)) <= 1e-15


def test_coons_exact_on_bilinear_fields(rng):
    g = ws.Grid2(11, 7)
    s = g.s_nodes[:, None, None]
    t = g.t_nodes[None, :, None]
    coef = rng.standard_normal((4, 3))
    vals = coef[0] + coef[1] * s + coef[2] * t + coef[3] * s * t
    exact = ws.SurfaceField(g, vals)
    fill = ws.coons_init(exact)
    assert np.max(np.abs(fill.values - exact.values)) <= 1e-14


def test_coons_scherk_edges_are_reproduced_exactly():
    # Scherk surfaces are additively separable in (s, t); the bilinear
    # blend reproduces separable samples exactly, so the interior gap is
    # round-off rather than the O(h^2) a generic surface would show.
    g = ws.Grid2(9, 9)
    u = 0.5 * g.s_nodes
    uu, vv = np.meshgrid(u, u, indexing="ij")
    z = ws.evaluate(ws.Scherk(1.0), uu, vv).z
    exact = ws.SurfaceField(g, z[:, :, None])
    fill = ws.coons_init(exact)
    gap = np.max(np.abs(fill.values[1:-1, 1:-1] - exact.values[1:-1, 1:-1]))
    assert gap <= 1e-15


def test_coons_catenoid_gap_regression():
    g = ws.Grid2(9, 9)
    u = 0.8 + (2.1 - 0.8) * g.s_nodes
    uu, vv = np.meshgrid(u, u, indexing="ij")
    z = ws.evaluate(ws.Catenoid(0.0, 1.0, 1), uu, vv).z
    exact = ws.SurfaceField(g, z[:, :, None])
    fill = ws.coons_init(exact)
    gap = np.max(np.abs(fill.values[1:-1, 1:-1] - exact.values[1:-1, 1:-1]))
    assert gap > 1e-3
    assert gap == pytest.approx(CATENOID_COONS_GAP_9, rel=1e-12)


def test_coons_init_edges_equal_boundary_bit_for_bit():
    g = ws.Grid2(9, 9)
    u = 0.8 + 1.3 * g.s_nodes
    uu, vv = np.meshgrid(u, u, indexing="ij")
    z = ws.evaluate(ws.Catenoid(0.0, 1.0, 1), uu, vv).z
    b = ws.SurfaceField(g, z[:, :, None])
    fill = ws.coons_init(b).values
    assert np.array_equal(fill[0], b.values[0])
    assert np.array_equal(fill[-1], b.values[-1])
    assert np.array_equal(fill[:, 0], b.values[:, 0])
    assert np.array_equal(fill[:, -1], b.values[:, -1])


def test_coons_init_reads_only_the_edges(rng):
    g = ws.Grid2(7, 6)
    a = rng.standard_normal((7, 6, 3))
    b = a.copy()
    b[1:-1, 1:-1] = rng.standard_normal((5, 4, 3))
    fills = [ws.coons_init(ws.SurfaceField(g, v)).values for v in (a, b)]
    assert fills[0].tobytes() == fills[1].tobytes()
    assert not np.array_equal(fills[0][1:-1, 1:-1], a[1:-1, 1:-1])


# oracles whose graphs are positive in every coordinate over the window after
# the z offset, so to_cov_boundary takes them
POSITIVE_ORACLES = {
    "plane": (ws.Plane(2.0, 3.0, 1.0), ((0.2, 0.8), (0.2, 0.8)), 0.0),
    "scherk": (ws.Scherk(1.0), ((0.05, 0.45), (0.05, 0.45)), 2.0),
    "catenoid": (ws.Catenoid(0.0, 1.0, 1), ((0.8, 2.1), (0.8, 2.1)), 0.5),
    "helicoid": (ws.Helicoid(1.0, 2.0), ((0.5, 1.0), (0.5, 1.0)), 0.0),
}
GAUSSIAN_CORNERS = [{"type": "gaussian", "mean": 1.0, "std": 1.3},
                    {"type": "gaussian", "mean": -0.5, "std": 2.0},
                    {"type": "gaussian", "mean": 1.5, "std": 2.5}]
DENSITY_C00 = {
    "gaussian": {"type": "gaussian", "mean": 0.25, "std": 0.7},
    "mixture": {"type": "mixture", "components": [
        {"weight": 0.5, "mean": -1.5, "std": 0.6}, {"weight": 0.5, "mean": 1.5, "std": 0.6}]},
    "narrow_tabulated": {"type": "tabulated", "x": [0.0, 1e-10], "pdf": [1e308, 1e308]},
}


def _linear_edges(corners, grid):
    # the edges s = 0, s = 1, t = 0, t = 1, each interpolating its two corners
    c00, c10, c01, c11 = corners
    s, t = grid.s_nodes[:, None], grid.t_nodes[:, None]
    return ((1.0 - t) * c00 + t * c01, (1.0 - t) * c10 + t * c11,
            (1.0 - s) * c00 + s * c10, (1.0 - s) * c01 + s * c11)


def _extreme_corner_vectors(grid):
    # each corner holds +-0.0, +-1e-300 and +-1e300 among random entries; the
    # first entries pair -0.0 at c00 with a negative c10 and a positive c01,
    # so the two edges through (0,0) hold -0.0 and 0.0 there
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    corners = [np.concatenate([[first], rng.permutation(special), rng.standard_normal(4)])
               for first in (-0.0, -1.0, 1.0, 0.5)]
    return ws.edges_from_corner_vectors(*corners, grid), corners, _linear_edges(corners, grid)


def _density_corners(c00, grid):
    dens = [ws.parse_density(doc) for doc in (c00, *GAUSSIAN_CORNERS)]
    qg = ws.QuantileGrid(16)
    corners = [ws.quantiles(d, qg.nodes) for d in dens]
    return ws.boundary_from_corners(*dens, grid, qg), corners, _linear_edges(corners, grid)


def _cov_graph(case, grid):
    surf, window, z_offset = case
    v = ws.graph_field(surf, grid, window, z_offset).values
    corners = (v[0, 0], v[-1, 0], v[0, -1], v[-1, -1])
    edges = (v[0], v[-1], v[:, 0], v[:, -1])
    return ws.to_cov_boundary(surf, grid, window, z_offset)[0], corners, edges


PRODUCERS = {
    "edges_from_corner_vectors": _extreme_corner_vectors,
    **{f"boundary_from_corners-{name}": (lambda grid, doc=doc: _density_corners(doc, grid))
       for name, doc in DENSITY_C00.items()},
    **{f"to_cov_boundary-{name}": (lambda grid, case=case: _cov_graph(case, grid))
       for name, case in POSITIVE_ORACLES.items()},
}


@pytest.mark.parametrize("shape", [(7, 5), (4, 9)])
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_producers_give_edges_that_meet_exactly(producer, shape):
    # each producer's field holds its corner vectors at its corner nodes and its
    # edges bit for bit; the t-edges are written last, so where the s- and
    # t-edge differ at a corner in the sign of a zero, the node holds the t-edge's
    grid = ws.Grid2(*shape)
    f, corners, (s0, s1, t0, t1) = PRODUCERS[producer](grid)
    v = f.values
    for node, c in zip((v[0, 0], v[-1, 0], v[0, -1], v[-1, -1]), corners):
        assert np.array_equal(node, c)
    for got, want in ((v[0, 1:-1], s0[1:-1]), (v[-1, 1:-1], s1[1:-1]),
                      (v[:, 0], t0), (v[:, -1], t1)):
        assert got.tobytes() == want.tobytes()
    if not producer.startswith("to_cov_boundary"):
        assert not v[1:-1, 1:-1].any()
    assert ws.coons_init(f).values.shape == (*shape, len(corners[0]))
    if producer == "edges_from_corner_vectors":
        assert np.signbit(s0[0, 0]) != np.signbit(t0[0, 0])
        assert np.all(np.isin([1e-300, 1e300, -1e300], v[0, 0]))


def test_operations_are_pure_and_deterministic(rng):
    g = ws.Grid2(8, 6)
    vals = rng.standard_normal((8, 6, 2))
    f = ws.SurfaceField(g, vals)
    a1 = ws.coons_init(f)
    a2 = ws.coons_init(f)
    assert np.array_equal(a1.values, a2.values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_serialization_round_trips_bit_exactly(tmp_path, rng, fmt):
    g = ws.Grid2(6, 5)
    vals = rng.standard_normal((6, 5, 3))
    vals[0, 0, 0] = 1.0 / 3.0
    vals[1, 1, 1] = 1e-300
    vals[2, 2, 2] = 12345678.87654321
    f = ws.SurfaceField(g, vals)
    path = tmp_path / f"surface.{fmt}"
    if fmt == "csv":
        ws.save_csv(f, path)
        back = ws.load_csv(path)
    else:
        ws.save_json(f, path)
        back = ws.load_json(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_load_csv_rejects_incomplete(tmp_path):
    path = tmp_path / "surface.csv"
    path.write_text("i,j,s,t,k,value\n0,0,0,0,0,1.0\n1,1,1,1,0,2.0\n")
    with pytest.raises(ValueError):
        ws.load_csv(path)


# a complete 2x2x1 body; each case below edits one of its rows
GOOD_ROWS = ["0,0,0,0,0,1.5", "0,1,0,1,0,2.5", "1,0,1,0,0,3.5", "1,1,1,1,0,4.5"]


@pytest.mark.parametrize(
    "rows, match",
    [
        # a k = -1 row must not land in the last coordinate
        pytest.param(GOOD_ROWS[:3] + ["1,1,1,1,-1,4.5"], r"non-negative integers", id="negative"),
        pytest.param(GOOD_ROWS[:3] + ["1,0.5,1,1,0,4.5"], r"non-negative integers",
                     id="non-integer"),
        # a repeated row must not overwrite the earlier one
        pytest.param(GOOD_ROWS + ["0,0,0,0,0,9.5"],
                     r"duplicate entry for \(i, j, k\) = \(0, 0, 0\) at data rows 1 and 5",
                     id="duplicate"),
        # a complete box that is no surface: the field's own checks, named by the file
        pytest.param(GOOD_ROWS[:3] + ["1,1,1,1,0,nan"], r": surface values must be finite$",
                     id="nan-value"),
        pytest.param(GOOD_ROWS[:2],
                     r": grid needs at least 2 nodes per direction, got 1x2$", id="one-i-index"),
    ],
)
def test_load_csv_rejects_bad_index_rows(tmp_path, capsys, rows, match):
    path = tmp_path / "surface.csv"
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n")
    with pytest.raises(ValueError, match=match) as info:
        ws.load_csv(path)
    assert str(path) in str(info.value)
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}") and err.count("\n") == 1


def test_load_csv_fills_the_field_block_by_block(tmp_path, monkeypatch, rng):
    # rows in any order, over many blocks; a repeat in a later block is still found
    monkeypatch.setattr(grid, "CSV_BLOCK", 5)
    field = ws.SurfaceField(ws.Grid2(4, 3), rng.standard_normal((4, 3, 2)))
    ws.save_csv(field, tmp_path / "surface.csv")
    header, *rows = (tmp_path / "surface.csv").read_text().splitlines()
    rows = [rows[r] for r in rng.permutation(len(rows))]
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    assert ws.load_csv(path).values.tobytes() == field.values.tobytes()
    path.write_text("\n".join([header] + rows + [rows[2]]) + "\n")
    i, j, _, _, k, _ = rows[2].split(",")
    with pytest.raises(ValueError, match=rf"duplicate entry for \(i, j, k\) = \({i}, {j}, {k}\) "
                                         rf"at data rows 3 and {len(rows) + 1}"):
        ws.load_csv(path)


def test_load_csv_header_and_field_count_messages(tmp_path):
    bad_header = tmp_path / "header.csv"
    bad_header.write_text("i,j,k,value\n0,0,0,1.0\n")
    with pytest.raises(ValueError) as info:
        ws.load_csv(bad_header)
    assert str(info.value) == f"expected header '{CSV_HEADER}' in {bad_header}"
    cases = {
        "one_short_row": ([GOOD_ROWS[0], "0,1,0,1,2.5"] + GOOD_ROWS[2:], 3, 5),
        "one_long_row": ([GOOD_ROWS[0], "0,1,0,1,0,2.5,7"] + GOOD_ROWS[2:], 3, 7),
        "all_rows_short": ([row[2:] for row in GOOD_ROWS], 2, 5),
    }
    for name, (rows, lineno, n) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([CSV_HEADER] + rows) + "\n")
        with pytest.raises(ValueError) as info:
            ws.load_csv(path)
        assert str(info.value) == f"{path}:{lineno}: expected 6 fields, got {n}", name


@pytest.mark.parametrize("column", [2, 3], ids=["s", "t"])
def test_load_csv_rejects_non_numeric_s_or_t(tmp_path, capsys, column):
    # s and t are never used, but they are parsed: a file with text there is no surface
    parts = GOOD_ROWS[1].split(",")
    parts[column] = "abc"
    path = tmp_path / "surface.csv"
    path.write_text("\n".join([CSV_HEADER, GOOD_ROWS[0], ",".join(parts)] + GOOD_ROWS[2:]) + "\n")
    with pytest.raises(ValueError, match="'abc'"):
        ws.load_csv(path)
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1


# values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, the largest double, a non-terminating binary and an exponent form
JSON_SPECIALS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]


# 9x7x700 spans many chunks of the writer, with chunk ends inside s-rows
@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2, 4), (9, 7, 700)],
                         ids=["2x2x1", "3x2x4", "9x7x700"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_save_json_bytes_equal_json_dumps_of_the_document(tmp_path, rng, shape, order):
    vals = rng.standard_normal(shape)
    n = min(len(JSON_SPECIALS), vals.size)
    vals.flat[-n:] = JSON_SPECIALS[-n:]
    vals.flat[:n] = JSON_SPECIALS[:n]
    ns, nt, m = shape
    doc = {"ns": ns, "nt": nt, "dim": m, "values": vals.ravel().tolist()}
    path = tmp_path / "surface.json"
    ws.save_json(ws.SurfaceField(ws.Grid2(ns, nt), np.asarray(vals, order=order)), path)
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode()
    assert ws.load_json(path).values.tobytes() == vals.tobytes()


def traced_peak(fn, *args) -> int:
    """Largest traced allocation total while ``fn(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_big_field_io_runs_in_bounded_memory(tmp_path, rng):
    field = ws.SurfaceField(ws.Grid2(33, 33), rng.standard_normal((33, 33, 64)))
    ws.save_csv(field, tmp_path / "surface.csv")
    nbytes = field.values.nbytes
    # the parsed rows are 5x the field (s and t as float32), the int64 flat
    # index and the result 1x each; no full-size copies of the index columns
    assert traced_peak(ws.load_csv, tmp_path / "surface.csv") <= 8 * nbytes
    # the writer holds one chunk of text, never the whole document
    assert traced_peak(ws.save_json, field, tmp_path / "surface.json") <= nbytes
    # the reader holds the file's bytes (about 2.5x), the result (1x) and one block
    assert traced_peak(ws.load_json, tmp_path / "surface.json") <= 4.5 * nbytes
    # a second array leaves the document to one json.loads, which holds the
    # text (2.5x) and a Python float per value (4x), but never the bytes too
    text = (tmp_path / "surface.json").read_text()
    (tmp_path / "tagged.json").write_text(text.rstrip()[:-1] + ', "tags": ["copy"]}')
    assert traced_peak(ws.load_json, tmp_path / "tagged.json") <= 7 * nbytes
    # the flux divergence holds the cell tangents (2x) and its result (1x),
    # plus a few blocks of coordinates, however wide the field
    acfg = ws.AreaConfig(weights=ws.quantile_weights(64))
    assert traced_peak(ws.euler_lagrange_residual, field, acfg) <= 5 * nbytes
    assert traced_peak(ws.area_gradient, field, acfg) <= 5 * nbytes
    # a narrow field is one block, and the tangents are let go before the
    # full-size result is made; 9.7x is the peak of the one-pass residual
    narrow = ws.SurfaceField(ws.Grid2(65, 65), rng.standard_normal((65, 65, 3)))
    acfg = ws.AreaConfig(weights=ws.quantile_weights(3))
    assert traced_peak(ws.euler_lagrange_residual, narrow, acfg) <= 9.7 * narrow.values.nbytes
    assert traced_peak(ws.area_gradient, narrow, acfg) <= 9.7 * narrow.values.nbytes


def test_coons_init_runs_in_bounded_memory(rng):
    # the blend is filled a row at a time: the result, its finiteness check
    # (1/8) and a few rows, where a whole-field expression held 3x the field
    edges = ws.SurfaceField(ws.Grid2(65, 65), rng.standard_normal((65, 65, 128)))
    assert traced_peak(ws.coons_init, edges) <= 1.5 * 65 * 65 * 128 * 8


def _json_document(values: str, ns=2, nt=2, dim=1, **extra) -> str:
    """A JSON surface whose ``values`` array is the text ``values``, keys in save_json's order."""
    head = json.dumps(dict({"ns": ns, "nt": nt, "dim": dim}, **extra))
    return head[:-1] + f', "values": [{values}]}}'


FOUR = "1.5, 2.5, -0.0, 4e-300"
MANY = ", ".join(map(repr, np.random.default_rng(7).standard_normal(4 * 4 * 600).tolist()))
# whitespace, newlines included, around every token of a valid document
SPACED = ('\n {\n\t"ns" :\r\n 2 ,\n "nt"\n:\n2\n,"dim" : 1 , '
          '"values"\n:\n[\n1.5\n,\n 2 \n, 3e0\t,\n4 ]\n}\n')

# each loads as one json.loads of it does: to the same field, or the same message
JSON_DOCUMENTS = {
    "saved-order": _json_document(FOUR),
    "keys-reordered": '{"values": [%s], "dim": 1, "nt": 2, "ns": 2}' % FOUR,
    "extra-keys": _json_document(FOUR, note="x", scale=2.0),
    "array-before-values": _json_document(FOUR, before=[7.0, 8.0]),
    "array-after-values": _json_document(FOUR)[:-1] + ', "after": [7, 8]}',
    "values-nested": '{"ns": 2, "nt": 2, "dim": 1, "inner": {"values": [%s]}}' % FOUR,
    "values-also-nested": _json_document(FOUR)[:-1] + ', "inner": {"values": [1, 2, 3, 4]}}',
    "duplicate-values-arrays": _json_document("9, 9, 9, 9")[:-1] + ', "values": [%s]}' % FOUR,
    "duplicate-values-number-first": '{"ns": 2, "nt": 2, "dim": 1, "values": 5, "values": [%s]}'
                                     % FOUR,
    "duplicate-values-array-first": _json_document(FOUR)[:-1] + ', "values": 5}',
    "whitespace-everywhere": SPACED,
    "nan": _json_document("1.5, NaN, 3.5, 4.5"),
    "infinity": _json_document("1.5, 2.5, -Infinity, Infinity"),
    "overflowing-decimal": _json_document("1.5, 2.5, 3.5, 1e400"),
    "null": _json_document("1.5, 2.5, null, 4.5"),
    "nested-list": _json_document("[1.5, 2.5], [3.5, 4.5]"),
    "strings-and-booleans": _json_document('"1.5", true, false, "2e0"'),
    "boolean-later": _json_document("1.5, 2.5, true, 4.5"),
    "bracket-in-string-after": _json_document(FOUR, note="a]b"),
    "bracket-in-string-before": _json_document(FOUR, note="a[b"),
    "comma-in-string": _json_document('1.5, 2.5, "3,5", 4.5'),
    "empty-values": _json_document(""),
    "too-few-values": _json_document("1.5, 2.5, 3.5"),
    "too-many-values": _json_document(FOUR + ", 5.5"),
    "trailing-comma": _json_document(FOUR + ","),
    "empty-entry": _json_document("1.5, , 3.5, 4.5"),
    "integer-beyond-float-range": _json_document("1" + "0" * 400 + ", 1, 1, 1"),
    "large-integers": _json_document(f"{2 ** 64 + 1}, {-(2 ** 63) - 12345}, 3, {10 ** 300}"),
    "whole-float-size": _json_document(FOUR, ns=2.0),
    "fractional-size": _json_document(FOUR, ns=2.5),
    "one-node-direction": _json_document(FOUR, ns=1, nt=4),
    "negative-sizes": _json_document(FOUR, ns=-2, nt=-2),
    "sizes-beyond-any-array": _json_document(FOUR, ns=10 ** 9, nt=10 ** 9, dim=10 ** 9),
    "not-an-object": f"[{FOUR}]",
    "not-json": _json_document(FOUR)[:-1],
    "more-than-one-block": _json_document(MANY, ns=4, nt=4, dim=600),
}


@pytest.mark.parametrize("block", [1, grid.JSON_BLOCK], ids=["block=1", "block=default"])
@pytest.mark.parametrize("name", sorted(JSON_DOCUMENTS))
def test_load_json_matches_one_json_loads(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(grid, "JSON_BLOCK", block)
    path = tmp_path / "surface.json"
    path.write_text(JSON_DOCUMENTS[name])
    try:
        want = from_json_dict(json.loads(path.read_bytes()))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ws.load_json(path)
        assert str(info.value) == f"{path}: {exc}"
    else:
        got = ws.load_json(path)
        assert got.grid == want.grid and got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("name", ["saved-order", "keys-reordered", "whitespace-everywhere",
                                  "extra-keys", "duplicate-values-number-first",
                                  "more-than-one-block"])
def test_load_json_reads_plain_documents_block_by_block(tmp_path, monkeypatch, name):
    # these never reach the single json.loads of the whole document
    def whole_document(doc):
        raise AssertionError("load_json fell back to one json.loads")

    want = from_json_dict(json.loads(JSON_DOCUMENTS[name]))
    monkeypatch.setattr(grid, "from_json_dict", whole_document)
    path = tmp_path / "surface.json"
    path.write_text(JSON_DOCUMENTS[name])
    assert ws.load_json(path).values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("values, n", [('"1.5", true, false, "2e0"', 0),
                                       ("1.5, 2.5, true, 4.5", 2),
                                       ('1.5, 2.5, 3.5, {"x": 1}', 3)])
def test_json_surface_non_numeric_values_exit_2(tmp_path, capsys, values, n):
    # a number in a string and a boolean are no JSON numbers, as in a config
    path = tmp_path / "strings.json"
    path.write_text(_json_document(values))
    message = f"{path}: values[{n}] must be a real number, got {json.loads(f'[{values}]')[n]!r}"
    with pytest.raises(ValueError) as info:
        ws.load_json(path)
    assert str(info.value) == message
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "plot").exists()


def test_from_json_dict_rejects_non_object(tmp_path, capsys):
    with pytest.raises(ValueError, match="must be an object"):
        from_json_dict([1, 2])
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"problem": "gaussian-diag", "surface": str(path)}))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {path}: a JSON surface must be an object, got list"] * 2


@pytest.mark.parametrize("key", ["ns", "nt", "dim"])
def test_json_surface_fractional_size_exits_2(tmp_path, capsys, key):
    doc = {"ns": 2, "nt": 2, "dim": 1, "values": [0.0, 1.0, 2.0, 3.0]}
    # a whole float is a size; a fraction is an error, never truncated
    assert from_json_dict(dict(doc, **{key: float(doc[key])})).values.shape == (2, 2, 1)
    fractional = dict(doc, **{key: doc[key] + 0.9})
    with pytest.raises(ValueError, match=f"{key} must be a whole number, got {doc[key] + 0.9}"):
        from_json_dict(fractional)
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(fractional))
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_json_surface_integer_beyond_float_range_exits_2(tmp_path, capsys):
    # json reads 1 followed by 400 zeros as an exact int, which no float holds
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ns": 2, "nt": 2, "dim": 1, "values": [10 ** 400, 1, 1, 1]}))
    with pytest.raises(ValueError, match="malformed JSON surface"):
        ws.load_json(path)
    assert main(["export-plot", str(path), "--out", str(tmp_path / "plot")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}: malformed JSON surface: ")
    assert not (tmp_path / "plot").exists()


def test_edges_from_corner_vectors_linear_and_consistent():
    g = ws.Grid2(5, 9)
    c00 = np.array([1.0, 2.0])
    c10 = np.array([3.0, 2.5])
    c01 = np.array([0.5, 4.0])
    c11 = np.array([2.0, 5.0])
    b = ws.edges_from_corner_vectors(c00, c10, c01, c11, g)
    assert np.array_equal(b.values[0][0], c00)
    assert np.array_equal(b.values[0][-1], c01)
    assert np.array_equal(b.values[:, -1][-1], c11)
    mid = 0.5 * (c00 + c10)
    assert np.max(np.abs(b.values[:, 0][2] - mid)) <= 1e-15
