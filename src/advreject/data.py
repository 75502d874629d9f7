"""Dataset loading, normalization, and splitting.

Datasets are dense float64 matrices with labels in {-1, +1}. Two on-disk
formats are supported: LIBSVM sparse text and CSV with a header row whose
final column is the label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataFormatError(ValueError):
    """Malformed dataset text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class Dataset:
    """Ordered collection of labeled samples sharing one dimension."""

    x: np.ndarray  # shape (n, d)
    y: np.ndarray  # shape (n,), values in {-1, +1}
    name: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y length must match number of rows in x")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(self.y, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


DEFAULT_LABEL_MAP = {"+1": 1, "1": 1, "-1": -1}


def _label(token: str, label_map: dict[str, int], lineno: int) -> int:
    """The label a token maps to; a DataFormatError naming the line if the
    token is unknown or maps outside -1/+1."""
    if token not in label_map:
        raise DataFormatError(f"unknown label {token!r}", lineno)
    y = label_map[token]
    if y not in (-1, 1):
        raise DataFormatError(f"label map sends {token!r} to {y}, not -1/+1", lineno)
    return y


def parse_libsvm(text: str, label_map: dict[str, int] | None = None, name: str = "") -> Dataset:
    """Parse LIBSVM sparse text ("<label> <idx>:<val> ...") into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a line. The
    dimension is the maximum index seen anywhere. ``label_map`` translates
    label tokens to {-1, +1}; by default only "+1"/"1"/"-1" are accepted.
    """
    if label_map is None:
        label_map = DEFAULT_LABEL_MAP
    rows: list[dict[int, float]] = []
    labels: list[int] = []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        y = _label(parts[0], label_map, lineno)
        entries: dict[int, float] = {}
        prev = 0
        for item in parts[1:]:
            idx_s, sep, val_s = item.partition(":")
            if not sep:
                raise DataFormatError(f"expected idx:val, got {item!r}", lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataFormatError(f"non-numeric entry {item!r}", lineno) from None
            if not np.isfinite(val):
                raise DataFormatError(f"non-finite value {item!r}", lineno)
            if idx <= prev:
                raise DataFormatError(
                    f"indices must be strictly increasing and 1-based, got {idx} after {prev}",
                    lineno,
                )
            prev = idx
            entries[idx] = val
        max_idx = max(max_idx, prev)
        rows.append(entries)
        labels.append(y)
    if not rows:
        raise DataFormatError("empty dataset")
    x = np.zeros((len(rows), max_idx))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            x[i, idx - 1] = val
    return Dataset(x, np.array(labels), name=name)


def to_libsvm(ds: Dataset) -> str:
    """Serialize to LIBSVM text. Zero coordinates are omitted; re-parsing a
    parsed dataset reproduces it exactly (floats written with repr)."""
    lines = []
    for i in range(len(ds)):
        fields = [f"{'+1' if ds.y[i] > 0 else '-1'}"]
        for j in np.nonzero(ds.x[i])[0]:
            fields.append(f"{j + 1}:{float(ds.x[i, j])!r}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_csv(text: str, label_map: dict[str, int] | None = None, name: str = "") -> Dataset:
    """Parse CSV with a header row; the final column is the label."""
    if label_map is None:
        label_map = DEFAULT_LABEL_MAP
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DataFormatError("need a header row and at least one data row")
    ncol = len(lines[0].split(","))
    if ncol < 2:
        raise DataFormatError("need at least one feature column plus the label", 1)
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != ncol:
            raise DataFormatError(f"expected {ncol} columns, got {len(cells)}", lineno)
        y = _label(cells[-1], label_map, lineno)
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError:
            raise DataFormatError("non-numeric feature value", lineno) from None
        if not np.all(np.isfinite(row)):
            raise DataFormatError("non-finite feature value", lineno)
        xs.append(row)
        ys.append(y)
    return Dataset(np.array(xs), np.array(ys), name=name)


def to_csv(ds: Dataset) -> str:
    header = ",".join([f"x{j + 1}" for j in range(ds.d)] + ["y"])
    lines = [header]
    for i in range(len(ds)):
        lines.append(",".join([repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))]))
    return "\n".join(lines) + "\n"


@dataclass
class NormStats:
    """Per-dimension normalization parameters, reusable on held-out data.

    For minmax01, ``lo``/``hi`` are the training min/max; for zscore they
    hold mean/std. ``constant`` flags dimensions with no variation, which
    map to 0 under either scheme.
    """

    scheme: str  # minmax01 | zscore | none
    lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    constant: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def apply(self, ds: Dataset) -> Dataset:
        if self.scheme == "none":
            return Dataset(ds.x.copy(), ds.y.copy(), name=ds.name)
        if self.lo.shape[0] != ds.d:
            raise ValueError(f"stats are for dimension {self.lo.shape[0]}, dataset has {ds.d}")
        if self.scheme == "minmax01":
            span = np.where(self.constant, 1.0, self.hi - self.lo)
            x = (ds.x - self.lo) / span
        elif self.scheme == "zscore":
            std = np.where(self.constant, 1.0, self.hi)
            x = (ds.x - self.lo) / std
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        x[:, self.constant] = 0.0
        return Dataset(x, ds.y.copy(), name=ds.name)


SCHEMES = ("minmax01", "zscore", "none")


def check_scheme(scheme: str) -> None:
    """The normalization scheme names normalize() accepts."""
    if scheme not in SCHEMES:
        raise ValueError(f"normalize must be one of {'/'.join(SCHEMES)}, got {scheme!r}")


def check_fraction(train_fraction: float) -> None:
    """The train fractions split() accepts."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")


def normalize(ds: Dataset, scheme: str = "minmax01") -> tuple[Dataset, NormStats]:
    """Normalize per dimension and return the stats for reuse on test data."""
    if len(ds) == 0:
        raise ValueError("cannot normalize an empty dataset")
    check_scheme(scheme)
    if scheme == "none":
        stats = NormStats("none")
    elif scheme == "minmax01":
        lo, hi = ds.x.min(axis=0), ds.x.max(axis=0)
        stats = NormStats("minmax01", lo, hi, constant=(hi == lo))
    else:
        mean, std = ds.x.mean(axis=0), ds.x.std(axis=0)
        stats = NormStats("zscore", mean, std, constant=(std == 0.0))
    return stats.apply(ds), stats


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; the two parts cover the input disjointly."""
    n = len(ds)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    check_fraction(train_fraction)
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"fraction {train_fraction} leaves one side empty for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(ds.x[tr], ds.y[tr], name=ds.name),
        Dataset(ds.x[te], ds.y[te], name=ds.name),
    )
