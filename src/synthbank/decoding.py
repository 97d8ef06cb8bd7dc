"""Convert synthetic categorical codes back to numeric values.

Deterministic bin-edge decoding (left edge or midpoint) plus stochastic
decoding that samples a Gaussian kernel density estimate of the original
feature, renormalized within each code's bin so decoding never moves mass
across bins. The density is estimated on a grid by linear binning and one
FFT convolution, in O(n + G log G) for n values and G grid points; its only
approximation is the binning. Log-flagged columns are decoded in log space
and exponentiated back. Per-column decoding is independent; the
implementation is single-threaded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .binning import Codebook, EncodedDataset, log_pretransform
from .checks import is_int, is_real, reject_bools
from .tabular import CATEGORICAL, NUMERIC, ColumnSpec, Dataset

__all__ = [
    "DECODE_MODES",
    "DecodeError",
    "KdeSpec",
    "decode_left_edge",
    "decode_midpoint",
    "kde_decode",
    "decoded_schema",
    "decode_dataset",
]

DECODE_MODES = ("left_edge", "midpoint", "kde")


class DecodeError(ValueError):
    """Out-of-domain code or invalid decode configuration."""


@dataclass(frozen=True)
class KdeSpec:
    """Gaussian-KDE decode settings.

    ``bandwidth`` is an absolute kernel standard deviation or the tag
    "scott" (sample std times n^(-1/5)); ``grid_points`` fixes the sampling
    grid resolution; ``bounds`` defaults to the original feature's min and
    max.
    """

    bandwidth: float | str = "scott"
    grid_points: int = 512
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        reject_bools(DecodeError, bandwidth=self.bandwidth)
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "scott":
                raise DecodeError(f"unknown bandwidth rule '{self.bandwidth}'")
        elif not is_real(self.bandwidth) or not self.bandwidth > 0:
            raise DecodeError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if not is_int(self.grid_points) or self.grid_points < 16:
            raise DecodeError(f"grid_points must be an integer >= 16, got {self.grid_points!r}")
        if self.bounds is not None and not (self.bounds[0] < self.bounds[1]):
            if self.bounds[0] != self.bounds[1]:
                raise DecodeError("bounds must satisfy min <= max")


def _binned_codec(codebook: Codebook, column: str):
    codec = codebook[column]
    if codec.kind != "binned":
        raise DecodeError(f"column '{column}' is categorical, not binned")
    return codec


def _check_codes(codes: np.ndarray, codec) -> None:
    if codes.size == 0:
        return
    if codes.min() < 0 or codes.max() >= codec.domain_size:
        raise DecodeError(
            f"column '{codec.name}': code out of domain (size {codec.domain_size})"
        )


def decode_left_edge(codes, codebook: Codebook, column: str) -> np.ndarray:
    """Left-most bin edge of each code; exponentiated for log-flagged columns."""
    codec = _binned_codec(codebook, column)
    codes = np.asarray(codes, dtype=np.int64)
    _check_codes(codes, codec)
    edges = np.asarray(codec.edges)
    values = edges[codes]
    return np.exp(values) if codec.log_flag else values


def decode_midpoint(codes, codebook: Codebook, column: str) -> np.ndarray:
    """Bin midpoints, a diagnostic alternative quantifying left-edge loss.

    An unbounded final bin (infinite upper edge in a hand-written codebook)
    falls back to the left edge plus half of the previous bin's width.
    """
    codec = _binned_codec(codebook, column)
    codes = np.asarray(codes, dtype=np.int64)
    _check_codes(codes, codec)
    edges = np.asarray(codec.edges)
    left, right = edges[:-1], edges[1:]
    mids = 0.5 * (left + right)
    if not np.isfinite(edges[-1]):
        prev_width = left[-1] - left[-2] if len(left) > 1 else 1.0
        mids[-1] = left[-1] + 0.5 * prev_width
    values = mids[codes]
    return np.exp(values) if codec.log_flag else values


# exp(-0.5 * 40**2) underflows to 0.0 in float64, so a value more than 40
# bandwidths from a grid point adds nothing to its density
_KERNEL_REACH = 40.0


def _kde_density(values: np.ndarray, first: float, step: float, grid_n: int, bandwidth: float) -> np.ndarray:
    """Gaussian KDE of ``values`` at the grid ``first + step * arange(grid_n)``.

    Linear binning (Silverman 1982, AS 176; Wand 1994): each value within
    the kernel's reach of the grid splits its unit weight between the two
    lattice points ``first + step * j`` around it, in proportion to its
    distance from each; the lattice extends past the grid as far as those
    values lie. One FFT convolution then sums the Gaussian at every lattice
    lag, so the only approximation is the binning: O(n + G log G) instead of
    the direct sum's O(n G). Grid points beyond the kernel's reach of every
    occupied lattice point stay exactly 0, and FFT round-off below 0 is
    clamped to 0.
    """
    pos = (values - first) / step
    reach = _KERNEL_REACH * bandwidth / step
    pos = pos[(pos > -reach) & (pos < grid_n - 1 + reach)]
    density = np.zeros(grid_n)
    if pos.size == 0:
        return density
    cell = np.floor(pos)
    frac = pos - cell
    cell = cell.astype(np.int64)
    lat_lo = int(cell.min())
    n_lat = int(cell.max()) + 2 - lat_lo
    weights = np.bincount(cell - lat_lo, 1.0 - frac, n_lat) + np.bincount(cell - lat_lo + 1, frac, n_lat)

    out_lo = int(max(0, np.ceil(lat_lo - reach)))
    out_hi = int(min(grid_n - 1, np.floor(lat_lo + n_lat - 1 + reach)))
    n_out = out_hi - out_lo + 1
    # kernel at lags out_lo - lattice_max .. out_hi - lat_lo; the FFT length
    # holds the whole lag range, so the circular convolution never wraps
    # into the outputs read off below
    lags = np.arange(out_lo - (lat_lo + n_lat - 1), out_hi - lat_lo + 1)
    kernel = np.exp(-0.5 * (lags * (step / bandwidth)) ** 2)
    n_fft = 1 << (n_lat + n_out - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(weights, n_fft) * np.fft.rfft(kernel, n_fft), n_fft)
    density[out_lo : out_hi + 1] = np.maximum(conv[n_lat - 1 : n_lat - 1 + n_out], 0.0)
    return density / (values.size * bandwidth * np.sqrt(2.0 * np.pi))


def kde_decode(
    codes,
    codebook: Codebook,
    column: str,
    original_values,
    spec: KdeSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample numeric values from a KDE of the original feature, per bin.

    The density is evaluated on a uniformly spaced grid over the feature
    bounds whose phase is offset by a seeded random fraction of one step;
    grid values inside each code's bin are renormalized to a probability
    vector and sampled with replacement. Every output lies inside its
    source bin and inside the bounds. Bins containing no grid point fall
    back to the left edge with a warning; a bin whose grid points all have
    zero density, such as one beyond the kernel's reach of every value, is
    sampled uniformly.

    The grid densities come from linear binning and an FFT convolution
    (see ``_kde_density``), not from the direct O(n G) Gaussian sum. With
    15k values on 512 points their total-variation distance from the direct
    sum, both normalised, is at most 1e-3 when the bandwidth is at least
    2 grid steps and at most 1e-2 when it is at least half a step; it
    shrinks as the values per grid step grow. The generator draws the grid
    offset, then one ``choice`` per code, whichever density is used; so a
    decoded value differs from the direct sum's only where its draw falls
    next to a boundary of the cumulative probabilities: 2 to 8 cells in
    10,000 on 15k-deposit yield data.
    """
    codec = _binned_codec(codebook, column)
    codes = np.asarray(codes, dtype=np.int64)
    _check_codes(codes, codec)
    original = np.asarray(original_values, dtype=np.float64)
    if original.size == 0:
        raise DecodeError(f"column '{column}': KDE decode needs the original values")
    if codec.log_flag:
        original = log_pretransform(original)

    lo, hi = spec.bounds if spec.bounds is not None else (float(original.min()), float(original.max()))
    if not (lo <= hi):
        raise DecodeError(f"column '{column}': invalid bounds ({lo}, {hi})")
    edges = np.asarray(codec.edges)
    out = np.empty(codes.shape[0], dtype=np.float64)

    if hi == lo:
        out[:] = lo
        return np.exp(out) if codec.log_flag else out

    grid_n = spec.grid_points
    step = (hi - lo) / grid_n
    offset = rng.uniform(0.0, step)
    grid = lo + offset + step * np.arange(grid_n)

    if spec.bandwidth == "scott":
        sd = float(original.std(ddof=1)) if original.size > 1 else 0.0
        bandwidth = sd * original.size ** (-0.2)
        if bandwidth <= 0:
            bandwidth = step
    else:
        bandwidth = float(spec.bandwidth)

    density = _kde_density(original, lo + offset, step, grid_n, bandwidth)

    fallback_bins = []
    for code in np.unique(codes):
        idx = np.flatnonzero(codes == code)
        left, right = edges[code], edges[code + 1]
        in_bin = (grid >= left) & (grid < right)
        if code == codec.domain_size - 1:
            in_bin = (grid >= left) & (grid <= right)
        points = grid[in_bin]
        if points.size == 0:
            out[idx] = left
            fallback_bins.append(int(code))
            continue
        probs = density[in_bin]
        total = probs.sum()
        if total <= 0:
            probs = np.full(points.size, 1.0 / points.size)
        else:
            probs = probs / total
        out[idx] = rng.choice(points, size=idx.size, replace=True, p=probs)
    if fallback_bins:
        warnings.warn(
            f"column '{column}': bins {fallback_bins} contain no grid point; "
            "decoded to their left edge",
            stacklevel=2,
        )
    return np.exp(out) if codec.log_flag else out


def decoded_schema(codebook: Codebook) -> tuple[ColumnSpec, ...]:
    """Schema of a decoded dataset: binned columns become numeric, and
    categorical columns keep their codebook labels."""
    return tuple(
        ColumnSpec(codec.name, CATEGORICAL, levels=codec.labels)
        if codec.kind == "categorical"
        else ColumnSpec(codec.name, NUMERIC)
        for codec in codebook
    )


def decode_dataset(
    encoded: EncodedDataset,
    mode: str = "left_edge",
    source: Dataset | None = None,
    kde_spec: KdeSpec | None = None,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Decode every column of an encoded dataset back to a Dataset.

    Binned columns become numeric per the requested mode; categorical
    columns pass through with their original labels. KDE mode requires the
    original dataset (``source``) as the fit target and a seeded generator.
    """
    if mode not in DECODE_MODES:
        raise DecodeError(f"unknown decode mode '{mode}'")
    if mode == "kde":
        if source is None or rng is None:
            raise DecodeError("kde decode needs the source dataset and a generator")
        kde_spec = kde_spec or KdeSpec()

    columns = []
    for codec in encoded.codebook:
        codes = encoded.column_codes(codec.name)
        if codec.kind == "categorical":
            columns.append(codes.copy())
            continue
        if mode == "left_edge":
            columns.append(decode_left_edge(codes, encoded.codebook, codec.name))
        elif mode == "midpoint":
            columns.append(decode_midpoint(codes, encoded.codebook, codec.name))
        else:
            columns.append(
                kde_decode(
                    codes,
                    encoded.codebook,
                    codec.name,
                    source.column(codec.name),
                    kde_spec,
                    rng,
                )
            )
    return Dataset(decoded_schema(encoded.codebook), columns, provenance=encoded.provenance)
