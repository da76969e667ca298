"""Domain types: labelled constellations and channel parameters."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "phasecon-v1"

# A channel whose k_phi exceeds this multiple of k_n counts as jitter-free.
# There the jitter moves a rate by under 1e-9 bits, while the metrics'
# k_phi terms, rounded to within k_phi * 2^-52, swamp the k_n terms that
# carry the information: at ratio 1e12, 8-PSK's AMI at 12 dB came out
# 1e-3 bits high, and at 1e16 Monte Carlo fell from 2.88 to 1.15 bits.  Up
# to this ratio the rounding moved no quadrature rate of 8- and 16-PSK, 16-
# and 64-QAM by more than 4e-6 bits, from -10 to 40 dB.
_JITTER_FREE_RATIO = 1e9

# Jitter channels refused where they are built.  |w| = |k_phi + k_n conj(y) u|
# is about k_n |y||u|, so as k_n / k_phi grows the k_phi terms that carry the
# phase sink into the rounding of the k_n terms.  Against their rates at
# k_n / k_phi = 1e7, 8- and 16-PSK and 16- and 64-QAM at 1-30 deg (degree 7)
# moved by at most 5.6e-4 bits up to 1e12, by 7.7e-3 at 1e13 and by 0.033 at
# 1e14; from about 1e16 they fell to 0.  Monte Carlo fails the same way:
# 8-PSK at 5 deg scored 3.0 bits at 150 dB (k_n / k_phi = 1.5e13) but 0.0 at
# 170 dB.  Above _MAX_K_N, k_n^2 |y|^2 |u|^2 nears float64's overflow.
_MAX_NOISE_TO_PHASE = 1e12
_MAX_K_N = 1e150


class ConstellationError(ValueError):
    """Invalid constellation content (sizes, labels, degenerate points)."""


class FormatError(ValueError):
    """Malformed constellation file or schema violation."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _is_integer(value) -> bool:
    """An integer, Python's or numpy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    """A number as json.loads returns one: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def gray_code(index: int) -> int:
    """Binary-reflected Gray code of a non-negative integer."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return index ^ (index >> 1)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Immutable set of M = 2^m complex points with a bijective m-bit labeling.

    ``labels[i]`` is the integer whose m-bit pattern labels ``points[i]``.
    Instances are value objects; all operations return new instances.
    Use :func:`make_constellation` to construct with validation.
    """

    points: np.ndarray
    labels: np.ndarray
    m: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.complex128)
        labs = np.array(self.labels, dtype=np.int64)
        pts.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constellation):
            return NotImplemented
        return (
            self.m == other.m
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.labels, other.labels)
        )

    @property
    def size(self) -> int:
        return int(self.points.size)

    def average_power(self) -> float:
        """Mean of |point|^2, kept in the instance dict like `fingerprint`."""
        cached = self.__dict__.get("_average_power")
        if cached is None:
            cached = float(np.mean(np.abs(self.points) ** 2))
            object.__setattr__(self, "_average_power", cached)
        return cached

    def fingerprint(self) -> str:
        """Stable short hash of the serialized points and labels.

        Computed on the first call and kept in the instance dict: the
        points and labels are read-only, so the value cannot change.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            parts = [str(self.m)]
            parts += [f"{p.real:.17g},{p.imag:.17g}" for p in self.points]
            parts += [str(int(v)) for v in self.labels]
            cached = hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def make_constellation(points, labels) -> Constellation:
    """Validate and build a constellation.

    Args:
        points: sequence of M complex points, M = 2^m with m >= 1.
        labels: sequence of M integers forming a permutation of 0..M-1.

    Raises:
        ConstellationError: size not a power of two, repeated point,
            labels that are not integers (floats, strings or bools), or
            labels not a permutation.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if not all(map(_is_integer, np.asarray(labels, dtype=object).ravel())):
        raise ConstellationError("labels must be integers")
    labs = np.asarray(labels, dtype=np.int64)
    if pts.ndim != 1 or labs.ndim != 1:
        raise ConstellationError("points and labels must be one-dimensional")
    if pts.size != labs.size:
        raise ConstellationError(
            f"points ({pts.size}) and labels ({labs.size}) differ in length"
        )
    n = int(pts.size)
    if n < 2 or not _is_power_of_two(n):
        raise ConstellationError(f"constellation size must be 2^m with m >= 1, got {n}")
    if not np.all(np.isfinite(pts.view(np.float64))):
        raise ConstellationError("constellation points must be finite")
    # Equal points sort next to each other; np.unique compares the same way
    # (so -0.0 equals 0.0) but imports numpy.ma, 5-6 ms on a cold start.
    ordered = np.sort(pts)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ConstellationError("duplicate constellation point")
    if not np.array_equal(np.sort(labs), np.arange(n)):
        raise ConstellationError("labels must be a permutation of 0..M-1")
    return Constellation(points=pts, labels=labs, m=n.bit_length() - 1)


def normalize_average_power(c: Constellation) -> Constellation:
    """Rescale so the average symbol power (1/M) sum |x_i|^2 equals 1."""
    power = c.average_power()
    if power <= 0.0:
        raise ConstellationError("cannot normalize an all-zero constellation")
    scale = 1.0 / math.sqrt(power)
    return Constellation(points=c.points * scale, labels=c.labels, m=c.m)


def _square_qam_points(levels_i: int, levels_q: int):
    """Rectangular grid points and per-axis Gray labels, unnormalized."""
    bits_q = levels_q.bit_length() - 1
    points, labels = [], []
    for i in range(levels_i):
        for q in range(levels_q):
            re = 2 * i - levels_i + 1
            im = 2 * q - levels_q + 1
            points.append(complex(re, im))
            labels.append((gray_code(i) << bits_q) | gray_code(q))
    return points, labels


def reference_constellation(kind: str, size: int, ring_spec=None) -> Constellation:
    """Standard unit-power reference constellations.

    Args:
        kind: "psk", "qam", or "apsk".
        size: number of points, a power of two >= 2.
        ring_spec: for "apsk" only, a sequence of (count, radius) pairs
            whose counts sum to `size`.

    PSK carries a binary-reflected Gray labeling; QAM uses per-axis Gray
    labels on a square grid (rectangular for odd bit counts); APSK labels
    each ring as a contiguous block, Gray-coded within the ring when the
    ring count is a power of two.
    """
    if not _is_power_of_two(size) or size < 2:
        raise ConstellationError(f"size must be 2^m with m >= 1, got {size}")
    if kind == "psk":
        idx = np.arange(size)
        points = np.exp(2j * np.pi * idx / size)
        labels = np.array([gray_code(i) for i in idx])
        return make_constellation(points, labels)
    if kind == "qam":
        m = size.bit_length() - 1
        bits_i = (m + 1) // 2
        points, labels = _square_qam_points(1 << bits_i, 1 << (m - bits_i))
        return normalize_average_power(make_constellation(points, labels))
    if kind == "apsk":
        if ring_spec is None:
            raise ConstellationError("apsk requires a ring_spec of (count, radius) pairs")
        counts = [int(n) for n, _ in ring_spec]
        radii = [float(r) for _, r in ring_spec]
        if sum(counts) != size:
            raise ConstellationError(
                f"ring counts sum to {sum(counts)}, expected {size}"
            )
        if any(n < 1 for n in counts) or any(r <= 0 for r in radii):
            raise ConstellationError("ring counts must be >= 1 and radii > 0")
        points, labels = [], []
        base = 0
        for n_ring, radius in zip(counts, radii):
            for p in range(n_ring):
                points.append(radius * np.exp(2j * np.pi * p / n_ring))
                offset = gray_code(p) if _is_power_of_two(n_ring) else p
                labels.append(base + offset)
            base += n_ring
        return normalize_average_power(make_constellation(points, labels))
    raise ConstellationError(f"unsupported constellation kind {kind!r}")


# --- channel parameters ----------------------------------------------------


@dataclass(frozen=True)
class ChannelParams:
    """Noise and phase-jitter concentrations for the memoryless channel.

    ``k_n`` is the reciprocal of the per-dimension Gaussian noise variance;
    ``k_phi`` is the von Mises concentration of the residual phase.  SNR is
    k_n / 2 for unit-average-power input.  The whole domain is decided here:
    the channel is jitter-free (the AWGN limit) where k_phi > 1e9 k_n,
    ``math.inf`` included; a jitter channel with k_n > 1e12 k_phi or
    k_n > 1e150 is refused with a ValueError, since neither evaluation route
    can resolve its phase.
    """

    k_n: float
    k_phi: float

    def __post_init__(self):
        if not (math.isfinite(self.k_n) and self.k_n > 0):
            raise ValueError(f"k_n must be positive and finite, got {self.k_n}")
        if math.isnan(self.k_phi) or self.k_phi <= 0:
            raise ValueError(f"k_phi must be positive (or inf), got {self.k_phi}")
        k_n, k_phi = self.k_n, self.k_phi
        if self.has_phase_noise and not (k_n <= _MAX_NOISE_TO_PHASE * k_phi and k_n <= _MAX_K_N):
            raise ValueError(
                f"SNR {self.snr_db:.6g} dB is too high for the phase-jitter metric at "
                f"{self.pnsd_deg:.6g} deg: it needs k_n <= {_MAX_NOISE_TO_PHASE:.0e} k_phi and "
                f"k_n <= {_MAX_K_N:.0e}, got k_n = {k_n:.3g}, k_phi = {k_phi:.3g}"
            )

    @classmethod
    def from_snr_pnsd(cls, snr_db: float, pnsd_deg: float) -> "ChannelParams":
        """Build from SNR in dB and phase-noise standard deviation in degrees."""
        if not math.isfinite(snr_db):
            raise ValueError(f"snr_db must be finite, got {snr_db}")
        if pnsd_deg < 0 or math.isnan(pnsd_deg):
            raise ValueError(f"pnsd_deg must be >= 0, got {pnsd_deg}")
        try:
            k_n = 2.0 * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise ValueError(f"snr_db {snr_db} is out of range") from None
        sigma_rad = math.radians(pnsd_deg)
        if sigma_rad * sigma_rad == 0.0:
            # No jitter, or a spread whose square underflows.
            return cls(k_n=k_n, k_phi=math.inf)
        return cls(k_n=k_n, k_phi=1.0 / (sigma_rad * sigma_rad))

    @property
    def has_phase_noise(self) -> bool:
        return self.k_phi / self.k_n <= _JITTER_FREE_RATIO

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.k_n / 2.0)

    @property
    def pnsd_rad(self) -> float:
        """The spread asked for, also where the channel counts as jitter-free."""
        return math.sqrt(1.0 / self.k_phi)

    @property
    def pnsd_deg(self) -> float:
        return math.degrees(self.pnsd_rad)


# --- serialization ---------------------------------------------------------


def _g17(x: float) -> str:
    """Format a float with 17 significant digits (binary64 round-trip safe)."""
    return format(float(x), ".17g")


def constellation_to_json(c: Constellation, meta: dict | None = None) -> str:
    """Serialize to the versioned JSON document, deterministically.

    Point coordinates are written with 17 significant digits so the file
    round-trips bit-exactly.
    """
    rows = ",\n    ".join(f"[{_g17(p.real)}, {_g17(p.imag)}]" for p in c.points)
    labels = ", ".join(str(int(v)) for v in c.labels)
    lines = [
        "{",
        f'  "version": {json.dumps(SCHEMA_VERSION)},',
        f'  "m": {c.m},',
        '  "points": [',
        f"    {rows}",
        "  ],",
        f'  "labels": [{labels}]' + ("," if meta is not None else ""),
    ]
    if meta is not None:
        lines.append(f'  "meta": {json.dumps(meta, sort_keys=True)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def constellation_from_json(text: str) -> tuple[Constellation, dict]:
    """Parse a constellation document; returns (constellation, meta).

    Raises:
        FormatError: on any schema or content violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document root must be an object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema version {version!r}")
    for key in ("m", "points", "labels"):
        if key not in doc:
            raise FormatError(f"missing required field {key!r}")
    points_raw = doc["points"]
    if not isinstance(points_raw, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_json_number, p)) for p in points_raw
    ):
        raise FormatError("points must be a list of [re, im] pairs of numbers")
    try:
        points = np.array([complex(p[0], p[1]) for p in points_raw])
        c = make_constellation(points, doc["labels"])
    except (OverflowError, ConstellationError) as exc:
        raise FormatError(f"invalid constellation content: {exc}") from exc
    if not _is_integer(doc["m"]) or c.m != doc["m"]:
        raise FormatError(f"field m={doc['m']} disagrees with {c.size} points")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("meta must be an object")
    return c, meta


def save_constellation(path, c: Constellation, meta: dict | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(constellation_to_json(c, meta))


def load_constellation(path) -> tuple[Constellation, dict]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return constellation_from_json(text)
