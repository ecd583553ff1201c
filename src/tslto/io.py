"""File formats: TSR3 binary tensors, CSV index triples, and run manifests.

TSR3 layout: 4-byte magic b"TSR3", three little-endian uint32 dimensions,
then D1*D2*D3 little-endian float64 values in mode-1-unfolding order
(row i1 major, column index i2 + i3 * D2, zero-based).
"""

import csv

import numpy as np

from .tensor_ops import fold, unfold

MAGIC = b"TSR3"


def write_tsr3(path, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"TSR3 stores third-order tensors, got ndim={x.ndim}")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.asarray(x.shape, dtype="<u4").tobytes())
        f.write(unfold(x, 1).astype("<f8").tobytes(order="C"))


def read_tsr3(path):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = f.read(12)
        if len(header) != 12:
            raise ValueError(
                f"{path}: truncated header, {4 + len(header)} of 16 bytes"
            )
        dims = np.frombuffer(header, dtype="<u4")
        if np.any(dims == 0):
            raise ValueError(f"{path}: invalid dims {dims}")
        d1, d2, d3 = (int(d) for d in dims)
        payload = f.read()
        if len(payload) != 8 * d1 * d2 * d3:
            raise ValueError(
                f"{path}: expected {d1 * d2 * d3} values "
                f"({8 * d1 * d2 * d3} bytes), found {len(payload)} bytes"
            )
    raw = np.frombuffer(payload, dtype="<f8")
    return fold(raw.reshape(d1, d2 * d3), 1, (d1, d2, d3))


def write_mask(path, mask):
    write_tsr3(path, np.asarray(mask, dtype=bool).astype(np.float64))


def read_mask(path):
    return read_tsr3(path) != 0.0


def write_csv_triples(path, x):
    """Write a tensor as `i,j,k,value` rows with 1-based indices."""
    x = np.asarray(x)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["i", "j", "k", "value"])
        for (i, j, k), v in np.ndenumerate(x):
            w.writerow([i + 1, j + 1, k + 1, repr(float(v))])


def read_csv_triples(path, dims=None):
    """Read an `i,j,k,value` CSV with 1-based indices; dims default to the
    max index per mode.  An index below 1 or beyond `dims` raises."""
    triples = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if [h.strip().lower() for h in header] != ["i", "j", "k", "value"]:
            raise ValueError(f"{path}: expected header i,j,k,value, got {header}")
        for row in r:
            if not row:
                continue
            index = tuple(int(v) for v in row[:3])
            if min(index) < 1:
                raise ValueError(
                    f"{path}, line {r.line_num}: indices are 1-based, got {index}"
                )
            if dims is not None and any(i > d for i, d in zip(index, dims)):
                raise ValueError(
                    f"{path}, line {r.line_num}: index {index} exceeds dims "
                    f"{tuple(dims)}"
                )
            i, j, k = index
            triples.append((i - 1, j - 1, k - 1, float(row[3])))
    if dims is None:
        if not triples:
            raise ValueError(f"{path}: empty triple file needs explicit dims")
        dims = tuple(max(t[m] for t in triples) + 1 for m in range(3))
    x = np.zeros(dims)
    for i, j, k, v in triples:
        x[i, j, k] = v
    return x


def write_manifest(path, entries):
    """Write key=value lines; values are stringified."""
    with open(path, "w") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def read_manifest(path):
    entries = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries
