"""Dataset loading, normalization, and splitting.

Datasets are dense float64 matrices with labels in {-1, +1}. Two on-disk
formats are supported: LIBSVM sparse text and CSV with a header row whose
final column is the label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        y = np.asarray(self.y)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        if y.shape != (self.x.shape[0],):
            raise ValueError("y length must match number of rows in x")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")
        if not ((y == 1) | (y == -1)).all():  # before the cast, which would truncate 1.5 to 1
            raise ValueError("labels must be -1 or +1")
        self.y = np.asarray(y, dtype=np.int64)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


LABELS = {"+1": 1, "1": 1, "-1": -1}


def _label(token: str, lineno: int) -> int:
    """The label a token stands for; a DataFormatError naming the line if
    the token is not one of LABELS."""
    if token not in LABELS:
        raise DataFormatError(f"unknown label {token!r}", lineno)
    return LABELS[token]


def parse_libsvm(text: str, name: str = "") -> Dataset:
    """Parse LIBSVM sparse text ("<label> <idx>:<val> ...") into a dense Dataset.

    Blank lines and lines starting with "#" are skipped. The dimension is
    the maximum index seen anywhere. The label token is "+1", "1" or "-1".
    Each line is checked in this order, and the first failure raises a
    DataFormatError naming the line:

    1. the label is one of those tokens;
    2. then, entry by entry: it has the ``idx:val`` separator, both parts
       are numeric, the value is finite, and the index is 1-based and
       strictly greater than the one before it.

    A text without data lines is an error too.
    """
    cols: list[int] = []  # 0-based column and value of every entry, line after line
    vals: list[float] = []
    counts: list[int] = []  # entries per data line
    labels: list[int] = []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        y = _label(parts[0], lineno)
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
            if not math.isfinite(val):
                raise DataFormatError(f"non-finite value {item!r}", lineno)
            if idx <= prev:
                raise DataFormatError(
                    f"indices must be strictly increasing and 1-based, got {idx} after {prev}",
                    lineno,
                )
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        max_idx = max(max_idx, prev)
        counts.append(len(parts) - 1)
        labels.append(y)
    if not labels:
        raise DataFormatError("empty dataset")
    x = np.zeros((len(labels), max_idx))
    x[np.repeat(np.arange(len(labels)), counts), cols] = vals
    return Dataset(x, np.array(labels), name=name)


def to_libsvm(ds: Dataset) -> str:
    """Serialize to LIBSVM text, one line per row: the label as "+1"/"-1",
    then " j:v" for each nonzero coordinate in increasing j (1-based).

    The text is byte-stable: each value is written as its shortest repr,
    which re-parses to the same double, and zero coordinates, -0.0
    included, are omitted (an all-zero row is its label alone). So
    re-parsing a parsed dataset reproduces it exactly.
    """
    prefixes = [f" {j}:" for j in range(1, ds.d + 1)]
    lines = []
    for label, row in zip(ds.y.tolist(), ds.x.tolist()):
        fields = ["+1" if label > 0 else "-1"]
        fields += [k + repr(v) for k, v in zip(prefixes, row) if v != 0]
        lines.append("".join(fields))
    return "\n".join(lines) + "\n"


def parse_csv(text: str, name: str = "") -> Dataset:
    """Parse CSV with a header row; the final column is the label, a token
    parse_libsvm accepts. Blank lines are skipped, and an error names the
    line of the text it is on."""
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) < 2:
        raise DataFormatError("need a header row and at least one data row")
    header_lineno, header = lines[0]
    ncol = len(header.split(","))
    if ncol < 2:
        raise DataFormatError("need at least one feature column plus the label", header_lineno)
    xs, ys = [], []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != ncol:
            raise DataFormatError(f"expected {ncol} columns, got {len(cells)}", lineno)
        y = _label(cells[-1], lineno)
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError:
            raise DataFormatError("non-numeric feature value", lineno) from None
        if not np.all(np.isfinite(row)):
            raise DataFormatError("non-finite feature value", lineno)
        xs.append(row)
        ys.append(y)
    return Dataset(np.array(xs), np.array(ys), name=name)


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # reads back to the same bits
    return "" if v is None else str(int(v)) if isinstance(v, (int, np.integer)) else v


def csv_text(columns, rows) -> str:
    """CSV text: the column names, then one line per row, every cell by one
    rule: None is empty, an int ``str(int(v))``, a float ``repr(float(v))``
    and a string itself."""
    lines = [",".join(columns), *(",".join(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def to_csv(ds: Dataset) -> str:
    return csv_text([*(f"x{j + 1}" for j in range(ds.d)), "y"], ([*x, y] for x, y in zip(ds.x, ds.y)))


@dataclass
class NormStats:
    """Per-dimension normalization parameters, reusable on held-out data.

    For minmax01, ``lo``/``hi`` are the training min/max; for zscore they
    hold mean/std. ``constant`` flags dimensions with no variation, which
    map to 0 under either scheme. The three are 1-D arrays of one length,
    empty under none. Under the other two schemes only stats that
    ``normalize`` can write are accepted: a finite range hi - lo >= 0 with
    ``constant`` exactly where hi == lo for minmax01, a std hi >= 0 with
    ``constant`` exactly where hi == 0 for zscore.
    """

    scheme: str  # minmax01 | zscore | none
    lo: np.ndarray
    hi: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        check_scheme(self.scheme, "norm_stats.scheme")
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        self.constant = np.asarray(self.constant, dtype=bool)
        shapes = (self.lo.shape, self.hi.shape, self.constant.shape)
        if self.lo.ndim != 1 or len(set(shapes)) != 1:
            raise ValueError(f"norm stats lo, hi and constant must be 1-D arrays of one length, got shapes {shapes}")
        for name in ("lo", "hi"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"norm_stats.{name} must be finite")
        if self.scheme == "none":
            return
        if self.scheme == "minmax01":
            with np.errstate(over="ignore"):
                span = self.hi - self.lo
            _check_features(np.isfinite(span), "norm_stats.hi - norm_stats.lo must be finite under minmax01")
            _check_features(span >= 0.0, "norm_stats.hi must be >= norm_stats.lo under minmax01")
            flat, where = self.hi == self.lo, "hi == lo"
        else:
            _check_features(self.hi >= 0.0, "norm_stats.hi is a std under zscore and must be >= 0")
            flat, where = self.hi == 0.0, "hi == 0"
        message = f"norm_stats.constant must be true exactly where {where} under {self.scheme}"
        _check_features(self.constant == flat, message)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scheme == other.scheme and all(
            np.array_equal(a, b)
            for a, b in ((self.lo, other.lo), (self.hi, other.hi), (self.constant, other.constant))
        )

    def apply(self, ds: Dataset) -> Dataset:
        """ds normalized by these stats. A row far enough outside the data
        the stats were taken on can overflow; the Dataset check then raises
        ValueError."""
        if self.scheme == "none":
            return Dataset(ds.x.copy(), ds.y.copy(), name=ds.name)
        if self.lo.shape[0] != ds.d:
            raise ValueError(f"stats are for dimension {self.lo.shape[0]}, dataset has {ds.d}")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.scheme == "minmax01":
                span = np.where(self.constant, 1.0, self.hi - self.lo)
                x = (ds.x - self.lo) / span
            else:
                std = np.where(self.constant, 1.0, self.hi)
                x = (ds.x - self.lo) / std
        x[:, self.constant] = 0.0
        return Dataset(x, ds.y.copy(), name=ds.name)


def _check_features(ok: np.ndarray, message: str) -> None:
    """Raise ValueError(message) naming the first feature (1-based) where ok
    is false."""
    if not ok.all():
        raise ValueError(f"{message}, not at feature {np.argmin(ok) + 1}")


SCHEMES = ("minmax01", "zscore", "none")


def check_scheme(scheme: str, key: str = "normalize") -> None:
    """The normalization scheme names normalize() accepts; the error names
    the key that held the scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"{key} must be one of {'/'.join(SCHEMES)}, got {scheme!r}")


_REALS, _INTS = (int, float, np.integer, np.floating), (int, np.integer)
# kind of number: (the types it may have, the test it must pass, what the test asks)
_NUMBER_KINDS = {
    "floats": (_REALS, None, ""),
    "positive": (_REALS, lambda v: 0 < v < math.inf, "finite and positive"),
    "nonnegative": (_REALS, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    "ints": (_INTS, None, ""),
    "counts": (_INTS, lambda v: v >= 1, ">= 1"),
    "naturals": (_INTS, lambda v: v >= 0, ">= 0"),
}


def check_numbers(obj, **kinds: tuple[str, ...]) -> None:
    """The number rule of the library's configs: each keyword, a kind of
    _NUMBER_KINDS, names fields of obj, and ValueError names the first that
    is not a real number (floats, positive, nonnegative) or an integer
    (ints, counts, naturals), or fails its kind's test. numpy's numbers
    pass; a bool does not, though Python counts it as an int: True would
    pass as 1. A tuple or list is checked element by element (``name[i]``)."""
    for kind, names in kinds.items():
        types, test, asks = _NUMBER_KINDS[kind]
        for name in names:
            value = getattr(obj, name)
            for i, v in enumerate(value) if isinstance(value, (tuple, list)) else ((None, value),):
                label = name if i is None else f"{name}[{i}]"
                if isinstance(v, bool) or not isinstance(v, types):
                    raise ValueError(f"{label} must be {'int' if types is _INTS else 'float'}, got {type(v).__name__}")
                if test and not test(v):
                    raise ValueError(f"{label} must be {asks}")


def check_fraction(train_fraction: float) -> None:
    """The train fractions split() accepts."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")


def normalize(ds: Dataset, scheme: str = "minmax01") -> tuple[Dataset, NormStats]:
    """Normalize per dimension and return the stats for reuse on test data.
    Raises ValueError when a feature's statistics (its mean and std, or its
    max - min range) overflow float64."""
    if len(ds) == 0:
        raise ValueError("cannot normalize an empty dataset")
    check_scheme(scheme)
    if scheme == "none":
        stats = NormStats("none", [], [], [])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if scheme == "minmax01":
                lo, hi = ds.x.min(axis=0), ds.x.max(axis=0)
                finite = np.isfinite(hi - lo)
            else:
                lo, hi = ds.x.mean(axis=0), ds.x.std(axis=0)
                finite = np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            raise ValueError(f"the {scheme} statistics of feature {np.argmin(finite) + 1} overflow float64")
        stats = NormStats(scheme, lo, hi, constant=(hi == lo) if scheme == "minmax01" else (hi == 0.0))
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
