"""Every CSV writer against the per-row formatter it replaced, byte for byte.

The reference below is the writer as it was before values were formatted
once per distinct value and the index fields once per shape or grid: one
row_fmt line per row of the stacked columns, 4096 rows per % operation.
"""

import types

import numpy as np
import pytest

from wsdelay import io as wio
from wsdelay.fields import MODE_LABELS, GridSpec
from wsdelay.geometry import make_strip, mesh_geometry
from wsdelay.modal import ModeSet

FMT = "%.17g"


def reference_write_csv(path, header, row_fmt, columns):
    """Write header, then one row_fmt line per row of the stacked columns,
    formatted 4096 rows per %; a mixed-type table is one object block."""
    table = np.column_stack(columns)
    line = row_fmt + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for part in np.split(table, range(4096, len(table), 4096)):
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def reference_complex_matrix(path, matrix):
    m = np.asarray(matrix)
    rows, cols = np.indices(m.shape)
    reference_write_csv(path, "row,col,re,im", f"%d,%d,{FMT},{FMT}",
                        [a.ravel() for a in (rows, cols, m.real, m.imag)])


def reference_spectrum(path, delays):
    reference_write_csv(path, "index,delay", f"%d,{FMT}",
                        [np.arange(1, len(delays) + 1), delays])


def reference_modeset(path, modes):
    if modes.dim == 3:
        ports = [(p.l, p.m) for p in modes.modes]
        header, row_fmt = "index,l,m", "%d,%d,%d"
    else:
        ports = [(p.n,) for p in modes.modes]
        header, row_fmt = "index,n", "%d,%d"
    reference_write_csv(path, header, row_fmt, [np.arange(len(ports)), ports])


def reference_field_grid(path, spec, values, mask):
    reference_write_csv(path, "x,y,re,im,masked", f"{FMT},{FMT},{FMT},{FMT},%d",
                        [spec.points(), values.real, values.imag, mask])


def reference_classification(path, rows):
    reference_write_csv(path, "index,label,delay,boundary_fraction,corner_fraction,"
                        "interior_fraction,warning", f"%d,%s,{FMT},{FMT},{FMT},{FMT},%d",
                        [np.array(rows, dtype=object)])


def reference_volume_residuals(path, rows):
    reference_write_csv(path, "p,q,route,value_re,value_im,reference_re,reference_im,rel_err",
                        "%d,%d,%s," + ",".join([FMT] * 5), [np.array(rows, dtype=object)])


def reference_mesh(path, mesh):
    reference_write_csv(path, "x,y,nx,ny,weight", ",".join([FMT] * 5),
                        [mesh.nodes, mesh.normals, mesh.weights])


# values where %.17g changes form or sign: signed zeros, the smallest
# subnormal, the switches to exponent form below 1e-4 and from 1e17, the
# non-finite values and integral floats
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 9.9999999999999991e-5, 1e16, 1e17,
    -1e17, 12345678901234567.0, np.inf, -np.inf, np.nan, 3.0, -7.0, 0.5, 1.0 / 3.0,
])


def same_bytes(tmp_path, write, reference, *args):
    """Write args with both writers; return True when the files are equal."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(str(new), *args)
    reference(str(old), *args)
    return new.read_bytes() == old.read_bytes()


def same_table_bytes(tmp_path, write, reference, columns, rows):
    """write(*columns) against reference(rows), the same table by rows."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(str(new), *columns)
    reference(str(old), rows)
    return new.read_bytes() == old.read_bytes()


def complex_from(re, im):
    """re + j im without arithmetic, which would mix inf and nan across the
    parts."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def special_matrix(shape, seed):
    """A matrix drawing its real and imaginary parts independently from
    SPECIAL and a few random doubles, so each part meets each sign of zero."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIAL, rng.normal(size=6)])
    return complex_from(rng.choice(pool, size=shape), rng.choice(pool, size=shape))


class TestComplexMatrix:
    @pytest.mark.parametrize("re, im", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zeros_apart_in_each_part(self, tmp_path, re, im):
        m = np.zeros((2, 3), dtype=complex)
        m[1, 2] = complex(re, im)
        m[0, 1] = complex(im, re)
        assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)
        text = (tmp_path / "new.csv").read_text().splitlines()
        assert text[6] == f"1,2,{FMT % re},{FMT % im}"

    @pytest.mark.parametrize("value", list(SPECIAL))
    def test_special_values(self, tmp_path, value):
        for m in (np.full((2, 2), complex(value, 1.0)), np.full((2, 2), complex(1.0, value))):
            assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (0, 0), (5, 7), (70, 70)])
    def test_shapes_mixed_values(self, tmp_path, shape):
        # 70 x 70 = 4900 rows crosses the writer's 2048-row chunk edges and
        # the reference's 4096-row edge
        m = special_matrix(shape, seed=sum(shape))
        assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (70, 70)])
    def test_all_zero(self, tmp_path, shape):
        m = np.zeros(shape, dtype=complex)
        assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)

    def test_sparse_with_a_nonzero_past_the_chunk_edge(self, tmp_path):
        m = np.zeros((70, 70), dtype=complex)
        m[np.diag_indices(70)] = np.arange(1, 71) * (0.1 - 0.3j)
        m[65, 3] = complex(-0.0, 2.5)     # row 65 * 70 + 3 = 4553, the third chunk
        assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)

    def test_real_matrix(self, tmp_path):
        m = np.array([[1.5, -0.0], [0.0, 1e17]])
        assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)

    def test_single_precision_and_integer_input(self, tmp_path):
        # the reference stacks every column to double; so does the writer
        rng = np.random.default_rng(9)
        for m in (special_matrix((6, 5), 9).astype(np.complex64),
                  rng.normal(size=(3, 4)).astype(np.float32), np.eye(3, dtype=int)):
            assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)
        delays = SPECIAL.astype(np.float32)
        assert same_bytes(tmp_path, wio.write_spectrum, reference_spectrum, delays)

    def test_memo_follows_the_shape(self, tmp_path):
        # two of one shape, another shape, then the first again
        shapes = [(4, 4), (4, 4), (3, 5), (5, 3), (4, 4)]
        for seed, shape in enumerate(shapes):
            m = special_matrix(shape, seed)
            assert same_bytes(tmp_path, wio.write_complex_matrix, reference_complex_matrix, m)


class TestTables:
    def test_spectrum_special_and_long(self, tmp_path):
        rng = np.random.default_rng(3)
        delays = np.concatenate([SPECIAL, rng.normal(size=5000) * 1e3])
        assert same_bytes(tmp_path, wio.write_spectrum, reference_spectrum, delays)

    @pytest.mark.parametrize("dim, top", [(2, 0), (2, 5), (3, 0), (3, 4)])
    def test_modeset(self, tmp_path, dim, top):
        modes = ModeSet(dim, top, 1.0)
        assert same_bytes(tmp_path, wio.write_modeset, reference_modeset, modes)

    def test_mesh(self, tmp_path):
        mesh = mesh_geometry(make_strip(), 1.0)
        assert same_bytes(tmp_path, wio.write_mesh, reference_mesh, mesh)

    def test_mesh_special_and_long(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 4100
        mesh = types.SimpleNamespace(nodes=rng.choice(SPECIAL, size=(n, 2)),
                                     normals=rng.normal(size=(n, 2)),
                                     weights=rng.choice(SPECIAL, size=n))
        assert same_bytes(tmp_path, wio.write_mesh, reference_mesh, mesh)

    def test_field_grid_with_masked_rows(self, tmp_path):
        spec = GridSpec(-2.0, 3.0, -1.0, 1e-5, nx=9, ny=7)
        rng = np.random.default_rng(5)
        n = spec.nx * spec.ny
        values = complex_from(rng.normal(size=n), rng.choice(SPECIAL, size=n))
        mask = rng.random(n) < 0.4
        values[mask] = 0.0
        values[~mask & (rng.random(n) < 0.2)] = complex(-0.0, 0.0)
        for _ in range(2):      # the second write reads the grid's memo
            assert same_bytes(tmp_path, wio.write_field_grid, reference_field_grid,
                              spec, values, mask)
        other = GridSpec(0.0, 1.0, 0.0, 1.0, nx=65, ny=65)    # 4225 rows
        zeros = np.zeros(other.nx * other.ny, dtype=complex)
        assert same_bytes(tmp_path, wio.write_field_grid, reference_field_grid,
                          other, zeros, np.ones(zeros.size, dtype=bool))
        # and the first grid again, after the memo moved to the other
        assert same_bytes(tmp_path, wio.write_field_grid, reference_field_grid,
                          spec, values, mask)

    def test_classification_columns(self, tmp_path):
        # hand-picked rows, SPECIAL values past one 2048-row block, and no rows
        hand = [(1, "corner", -0.0, 0.1, 0.5, 0.2, False),
                (2, "ballistic", -3.25, 1e-5, 0.0, 1.0, True),
                (3, "cavity", 1e17, 5e-324, 1.0 / 3.0, -0.0, False),
                (4, "corner", 2.0, 0.1, 0.5, 0.2, True)]
        rng = np.random.default_rng(7)
        special = [(i + 1, str(rng.choice(MODE_LABELS)), *rng.choice(SPECIAL, size=4).tolist(),
                    bool(rng.random() < 0.3)) for i in range(5000)]
        for rows in (hand, special):
            _, labels, delays, *fractions, warnings = map(np.array, zip(*rows))
            columns = delays, labels, np.array(fractions), warnings
            assert same_table_bytes(tmp_path, wio.write_classification,
                                    reference_classification, columns, rows)
        empty = np.zeros(0), np.zeros(0, str), np.zeros((3, 0)), np.zeros(0, bool)
        assert same_table_bytes(tmp_path, wio.write_classification,
                                reference_classification, empty, [])

    def test_volume_residual_columns(self, tmp_path):
        rows = [(p, p, route, re, im, 2.0 * p, -0.0, err)
                for route in ("symmetric", "a", "b")
                for p, (re, im, err) in enumerate([(1.5, -0.0, 0.0), (0.0, 1e-5, 5e-324),
                                                   (np.float64(-2.0), 1e16, 1.0 / 3.0),
                                                   (np.nan, -np.inf, np.inf)])]
        columns = [np.array(c) for c in zip(*rows)]
        assert same_table_bytes(tmp_path, wio.write_volume_residuals,
                                reference_volume_residuals, [columns], rows)
        empty = [np.zeros(0, int)] * 2 + [np.zeros(0, str)] + [np.zeros(0)] * 5
        assert same_table_bytes(tmp_path, wio.write_volume_residuals,
                                reference_volume_residuals, [empty], [])
