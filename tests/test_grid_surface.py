import json
import tracemalloc

import numpy as np
import pytest

import wassersurf as ws
from wassersurf.cli import main
from wassersurf.errors import CornerMismatchError, ShapeMismatchError
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
    fill = ws.coons_init(ws.BoundarySpec.of_field(exact))
    assert np.max(np.abs(fill.values - exact.values)) <= 1e-14


def test_coons_constant_edges_give_constant_field():
    g = ws.Grid2(6, 8)
    c = np.array([1.5, -2.0, 0.25])
    vals = np.broadcast_to(c, (6, 8, 3)).copy()
    fill = ws.coons_init(ws.BoundarySpec.of_field(ws.SurfaceField(g, vals)))
    assert np.max(np.abs(fill.values - vals)) <= 1e-15


def test_coons_exact_on_bilinear_fields(rng):
    g = ws.Grid2(11, 7)
    s = g.s_nodes[:, None, None]
    t = g.t_nodes[None, :, None]
    coef = rng.standard_normal((4, 3))
    vals = coef[0] + coef[1] * s + coef[2] * t + coef[3] * s * t
    exact = ws.SurfaceField(g, vals)
    fill = ws.coons_init(ws.BoundarySpec.of_field(exact))
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
    fill = ws.coons_init(ws.BoundarySpec.of_field(exact))
    gap = np.max(np.abs(fill.values[1:-1, 1:-1] - exact.values[1:-1, 1:-1]))
    assert gap <= 1e-15


def test_coons_catenoid_gap_regression():
    g = ws.Grid2(9, 9)
    u = 0.8 + (2.1 - 0.8) * g.s_nodes
    uu, vv = np.meshgrid(u, u, indexing="ij")
    z = ws.evaluate(ws.Catenoid(0.0, 1.0, 1), uu, vv).z
    exact = ws.SurfaceField(g, z[:, :, None])
    fill = ws.coons_init(ws.BoundarySpec.of_field(exact))
    gap = np.max(np.abs(fill.values[1:-1, 1:-1] - exact.values[1:-1, 1:-1]))
    assert gap > 1e-3
    assert gap == pytest.approx(CATENOID_COONS_GAP_9, rel=1e-12)


def test_apply_boundary_overwrites_edges_only():
    g = ws.Grid2(9, 9)
    plane = plane_field(g)
    b = ws.BoundarySpec.of_field(plane)
    zero = ws.SurfaceField(g, np.zeros((9, 9, 1)))
    out = ws.apply_boundary(zero, b)
    assert np.array_equal(out.values[0], b.edge_s0)
    assert np.array_equal(out.values[-1], b.edge_s1)
    assert np.array_equal(out.values[:, 0], b.edge_t0)
    assert np.array_equal(out.values[:, -1], b.edge_t1)
    assert np.all(out.values[1:-1, 1:-1] == 0.0)


def test_apply_boundary_idempotent():
    g = ws.Grid2(7, 7)
    b = ws.BoundarySpec.of_field(plane_field(g))
    zero = ws.SurfaceField(g, np.zeros((7, 7, 1)))
    once = ws.apply_boundary(zero, b)
    twice = ws.apply_boundary(once, b)
    assert np.array_equal(once.values, twice.values)


def test_apply_boundary_fixed_point_of_coons():
    g = ws.Grid2(9, 9)
    u = 0.8 + 1.3 * g.s_nodes
    uu, vv = np.meshgrid(u, u, indexing="ij")
    z = ws.evaluate(ws.Catenoid(0.0, 1.0, 1), uu, vv).z
    b = ws.BoundarySpec.of_field(ws.SurfaceField(g, z[:, :, None]))
    fill = ws.coons_init(b)
    again = ws.apply_boundary(fill, b)
    assert np.array_equal(fill.values, again.values)


def test_apply_boundary_shape_mismatch():
    b = ws.BoundarySpec.of_field(plane_field(ws.Grid2(9, 9)))
    small = ws.SurfaceField(ws.Grid2(5, 5), np.zeros((5, 5, 1)))
    with pytest.raises(ShapeMismatchError):
        ws.apply_boundary(small, b)


def test_corner_mismatch_rejected():
    g = ws.Grid2(5, 5)
    b = ws.BoundarySpec.of_field(plane_field(g))
    bad = b.edge_t0.copy()
    bad[0, 0] += 1e-9
    with pytest.raises(CornerMismatchError):
        ws.BoundarySpec(b.edge_s0, b.edge_s1, bad, b.edge_t1)


def test_corner_gap_within_tolerance_accepted():
    g = ws.Grid2(5, 5)
    b = ws.BoundarySpec.of_field(plane_field(g))
    nudged = b.edge_t0.copy()
    nudged[0, 0] += 5e-13
    ws.BoundarySpec(b.edge_s0, b.edge_s1, nudged, b.edge_t1)


def test_corner_gap_snapped_so_solve_accepts_coons_fill():
    g = ws.Grid2(9, 9)
    b = ws.BoundarySpec.of_field(plane_field(g))
    s0 = b.edge_s0.copy()
    s1 = b.edge_s1.copy()
    s0[-1, 0] += 1e-13
    s1[0, 0] -= 1e-13
    originals = (s0.copy(), s1.copy())
    snapped = ws.BoundarySpec(s0, s1, b.edge_t0, b.edge_t1)
    assert np.array_equal(snapped.edge_s0[-1], snapped.edge_t1[0])
    assert np.array_equal(snapped.edge_s1[0], snapped.edge_t0[-1])
    assert np.array_equal(s0, originals[0]) and np.array_equal(s1, originals[1])
    rep = ws.minimize(ws.coons_init(snapped), snapped, ws.SolverConfig(), ws.AreaConfig())
    out = rep.field.values
    assert np.array_equal(out[0], snapped.edge_s0)
    assert np.array_equal(out[-1], snapped.edge_s1)


def test_operations_are_pure_and_deterministic(rng):
    g = ws.Grid2(8, 6)
    vals = rng.standard_normal((8, 6, 2))
    f = ws.SurfaceField(g, vals)
    b = ws.BoundarySpec.of_field(f)
    a1 = ws.coons_init(b)
    a2 = ws.coons_init(b)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(ws.apply_boundary(f, b).values, ws.apply_boundary(f, b).values)


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
    # the six parsed columns are 6x the field and the result 1x; no full-size
    # copies of the index columns on top of them
    assert traced_peak(ws.load_csv, tmp_path / "surface.csv") <= 10 * nbytes
    # the writer holds one chunk of text, never the whole document
    assert traced_peak(ws.save_json, field, tmp_path / "surface.json") <= nbytes


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


def test_edges_from_corner_vectors_linear_and_consistent():
    g = ws.Grid2(5, 9)
    c00 = np.array([1.0, 2.0])
    c10 = np.array([3.0, 2.5])
    c01 = np.array([0.5, 4.0])
    c11 = np.array([2.0, 5.0])
    b = ws.edges_from_corner_vectors(c00, c10, c01, c11, g)
    assert np.array_equal(b.edge_s0[0], c00)
    assert np.array_equal(b.edge_s0[-1], c01)
    assert np.array_equal(b.edge_t1[-1], c11)
    mid = 0.5 * (c00 + c10)
    assert np.max(np.abs(b.edge_t0[2] - mid)) <= 1e-15
