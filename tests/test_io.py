import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tslto import unfold
from tslto.io import (
    read_csv_triples,
    read_manifest,
    read_mask,
    read_tsr3,
    write_csv_triples,
    write_manifest,
    write_mask,
    write_tsr3,
)


class TestTsr3:
    def test_byte_layout(self, tmp_path):
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        path = tmp_path / "x.tsr3"
        write_tsr3(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"TSR3"
        assert struct.unpack("<3I", raw[4:16]) == (2, 3, 4)
        values = np.frombuffer(raw[16:], dtype="<f8")
        np.testing.assert_array_equal(values, unfold(x, 1).ravel(order="C"))
        assert len(raw) == 16 + 24 * 8

    def test_roundtrip_bit_identical(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((5, 4, 3))
        path = tmp_path / "r.tsr3"
        write_tsr3(path, x)
        assert np.array_equal(read_tsr3(path), x)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tsr3"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            read_tsr3(path)

    def test_truncated_payload(self, tmp_path):
        x = np.ones((2, 2, 2))
        path = tmp_path / "t.tsr3"
        write_tsr3(path, x)
        full = path.read_bytes()
        # a whole value, part of a value, part of the header
        for cut in (full[:-8], full[:-3], full[:10]):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_tsr3(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "z.tsr3"
        path.write_bytes(b"TSR3" + struct.pack("<3I", 2, 0, 2))
        with pytest.raises(ValueError):
            read_tsr3(path)

    def test_non_third_order_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tsr3(tmp_path / "m.tsr3", np.ones((2, 2)))

    @settings(deadline=None, max_examples=50)
    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
        elements=st.floats(allow_nan=False),
    ), st.data())
    def test_roundtrip_and_truncation_properties(self, x, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.tsr3"
            write_tsr3(path, x)
            assert np.array_equal(read_tsr3(path), x)
            full = path.read_bytes()
            cut = data.draw(st.integers(4, len(full) - 1), label="cut")
            path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_tsr3(path)

    def test_mask_roundtrip(self, tmp_path):
        mask = np.random.default_rng(1).random((4, 3, 2)) < 0.5
        path = tmp_path / "mask.tsr3"
        write_mask(path, mask)
        out = read_mask(path)
        assert out.dtype == bool
        assert np.array_equal(out, mask)


class TestCsvTriples:
    def test_roundtrip(self, tmp_path):
        x = np.random.default_rng(2).standard_normal((3, 4, 2))
        path = tmp_path / "x.csv"
        write_csv_triples(path, x)
        np.testing.assert_array_equal(read_csv_triples(path), x)

    def test_one_based_indices(self, tmp_path):
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.5
        path = tmp_path / "one.csv"
        write_csv_triples(path, x)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,k,value"
        assert lines[1].startswith("1,1,1,")

    def test_explicit_dims(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("i,j,k,value\n1,1,1,2.5\n")
        out = read_csv_triples(path, dims=(2, 2, 2))
        assert out.shape == (2, 2, 2)
        assert out[0, 0, 0] == 2.5
        assert out.sum() == 2.5

    @pytest.mark.parametrize("row", ["0,1,1,5", "1,-1,1,5", "2,1,0,5"])
    def test_non_positive_index_rejected(self, tmp_path, row):
        path = tmp_path / "zero.csv"
        path.write_text(f"i,j,k,value\n1,1,1,2.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            read_csv_triples(path)
        with pytest.raises(ValueError, match="1-based"):
            read_csv_triples(path, dims=(2, 2, 2))

    def test_index_beyond_dims_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("i,j,k,value\n1,1,1,2.5\n1,3,1,1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            read_csv_triples(path, dims=(2, 2, 2))
        assert read_csv_triples(path).shape == (1, 3, 1)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,1,1,0\n")
        with pytest.raises(ValueError, match="header"):
            read_csv_triples(path)

    def test_empty_needs_dims(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("i,j,k,value\n")
        with pytest.raises(ValueError):
            read_csv_triples(path)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = {"alpha": "1.5", "ranks": "3,3,3", "note": "a=b"}
        path = tmp_path / "m.txt"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nkey=value\n")
        assert read_manifest(path) == {"key": "value"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            read_manifest(path)
