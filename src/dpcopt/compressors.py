"""Compression operators, their bit accounting, and empirical validation
of the contraction contract E||C(x)/r - x||^2 <= (1 - phi)||x||^2.

Four kinds are provided:

- ``identity``: exact pass-through, the uncompressed baseline.
- ``topk``: keep the k largest-magnitude coordinates, zero the rest;
  magnitude ties broken by lower index for determinism.
- ``bbit``: biased b-bit dithered quantizer
  (||x||/xi) * sign(x) * 2^-(b-1) * floor(2^(b-1)|x|/||x|| + u) with
  u ~ U[0,1)^d and xi = 1 + min(d/2^(2(b-1)), sqrt(d)/2^(b-1)).
- ``normsign``: (||x||_inf / 2) * sign(x) with sign(0) = 0.

The (r, phi) constants are configurable because published values do not
exist for every kind; ``validate_contraction`` is the gatekeeper that
confirms a configured pair empirically before a run may start.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from dpcopt.errors import ConfigInvalid, DimensionMismatch, SpecDimensionMismatch

__all__ = [
    "IDENTITY",
    "TOPK",
    "BBIT",
    "NORMSIGN",
    "KINDS",
    "CompressorSpec",
    "ContractionReport",
    "make_spec",
    "xi_factor",
    "row_dots",
    "row_norms",
    "compress",
    "encode_decode",
    "bit_cost",
    "r0_constant",
    "validate_contraction",
]

IDENTITY = "identity"
TOPK = "topk"
BBIT = "bbit"
NORMSIGN = "normsign"
KINDS = (IDENTITY, TOPK, BBIT, NORMSIGN)

# Bits for one IEEE double scalar (norms, uncompressed coordinates).
FLOAT_BITS = 64

# validate_contraction runs its trials in chunks of about this many
# vector elements.
GATE_CHUNK_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class CompressorSpec:
    """Tagged compressor description plus its contraction constants."""

    kind: str
    k: int | None = None
    b: int | None = None
    r: float = 1.0
    phi: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigInvalid(f"compressor.kind: unknown kind {self.kind!r}")
        if not (self.r > 0):
            raise ConfigInvalid("compressor.r: must be positive")
        if not (0 < self.phi <= 1):
            raise ConfigInvalid("compressor.phi: must lie in (0, 1]")
        if self.kind == TOPK:
            if self.k is None or self.k < 1:
                raise ConfigInvalid("compressor.k: top-k needs k >= 1")
        elif self.k is not None:
            raise ConfigInvalid(f"compressor.k: not a parameter of {self.kind}")
        if self.kind == BBIT:
            # Above FLOAT_BITS a coordinate costs more than the identity's double.
            if self.b is None or not 1 <= self.b <= FLOAT_BITS:
                raise ConfigInvalid(f"compressor.b: bbit needs 1 <= b <= {FLOAT_BITS}")
        elif self.b is not None:
            raise ConfigInvalid(f"compressor.b: not a parameter of {self.kind}")
        if self.kind == IDENTITY:
            for name in ("r", "phi"):
                if getattr(self, name) != 1.0:
                    raise ConfigInvalid(f"compressor.{name}: identity is fixed at {name}=1")

    def check_dimension(self, d: int) -> None:
        """Raise SpecDimensionMismatch unless the compressor fits dimension d."""
        if self.kind == TOPK and self.k > d:
            raise SpecDimensionMismatch(f"compressor.k: top-k with k={self.k} exceeds d={d}")


@dataclass(frozen=True)
class ContractionReport:
    """Result of the empirical contraction check."""

    empirical_ratio: float
    threshold: float
    passes: bool


def xi_factor(d: int, b: int) -> float:
    """Normalization xi = 1 + min(d/2^(2(b-1)), sqrt(d)/2^(b-1))."""
    half_levels = 2.0 ** (b - 1)
    return 1.0 + min(d / half_levels**2, math.sqrt(d) / half_levels)


def make_spec(
    kind: str,
    d: int,
    k: int | None = None,
    b: int | None = None,
    r: float | None = None,
    phi: float | None = None,
) -> CompressorSpec:
    """Build a CompressorSpec for dimension d, filling default (r, phi).

    Defaults: identity (1, 1); topk (1, k/d); normsign (1, 1/(4d));
    bbit (1, 1/xi), kept below 1. Explicit r/phi override the defaults and
    are then subject to the validate_contraction gate.
    """
    if d < 1:
        raise ConfigInvalid(f"make_spec: d must be >= 1, got d={d}")
    spec = CompressorSpec(kind=kind, k=k, b=b)
    spec.check_dimension(d)
    if kind == TOPK:
        default_phi = k / d
    elif kind == BBIT:
        # Once d/4^(b-1) is at most half an ulp of 1 (b >= 29 at d = 4),
        # xi rounds to 1, and phi = 1 would claim an exact compressor: a gate
        # threshold of 0 that the quantizer's tiny error cannot meet. The
        # largest double below 1 only weakens that claim.
        default_phi = min(1.0 / xi_factor(d, b), math.nextafter(1.0, 0.0))
    elif kind == NORMSIGN:
        default_phi = 1.0 / (4.0 * d)
    else:
        default_phi = 1.0
    return replace(
        spec,
        r=spec.r if r is None else float(r),
        phi=default_phi if phi is None else float(phi),
    )


def row_dots(x: np.ndarray) -> np.ndarray:
    """x @ x of a vector, or of each row of an (n, d) array.

    A (1, d) by (d, 1) matmul per row is the BLAS dot product that
    row @ row takes, so each value equals it bit for bit.
    """
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of a vector, or of each row of an (n, d) array,
    equal bit for bit to np.linalg.norm(row) (see row_dots);
    np.linalg.norm(x, axis=-1) sums in another order and does not.
    """
    return np.sqrt(row_dots(x))


def compress(
    spec: CompressorSpec,
    x: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Decoded compressor output of each row of an (n, d) array of
    senders; bit_cost(spec, d) gives the payload bits of one row.

    Rows are independent: row i of the result depends on x[i] alone. Only
    the bbit kind consumes rngs, a sequence of n generators (another count
    raises DimensionMismatch) of which row i draws its d dither uniforms
    from rngs[i]; a row of zero norm draws nothing and decodes to +0.0, so
    rngs may be None when every row is zero.

    The result is written into out, a C-contiguous (n, d) block, and the
    kinds' temporaries (magnitudes, dither uniforms) into scratch, an
    (n, d) block, when they are given; fresh blocks stand in otherwise,
    with the same bits. Neither may be x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"x has shape {x.shape}, expected (n, d)")
    d = x.shape[1]
    spec.check_dimension(d)
    if out is None:
        out = np.empty(x.shape)

    if spec.kind == IDENTITY:
        np.copyto(out, x)
        return out

    if spec.kind == NORMSIGN:
        amax = np.abs(x, out=scratch).max(axis=-1, keepdims=True)
        # (amax / 2) * sign(x), with the sign written first.
        np.sign(x, out=out)
        out *= amax / 2.0
        return out

    if spec.kind == TOPK:
        # Stable sort on -|x| keeps the lower index first among ties.
        magnitude = np.abs(x, out=scratch)
        keep = np.negative(magnitude, out=magnitude).argsort(axis=-1, kind="stable")[:, : spec.k]
        # Row i's coordinates start at flat index i*d.
        keep += np.arange(0, x.size, d)[:, None]
        out.fill(0.0)
        out.reshape(-1)[keep] = x.reshape(-1)[keep]
        return out

    # bbit
    sq = row_dots(x)
    if rngs is None and sq.any():
        raise ConfigInvalid("compressor.bbit: dithering requires a random stream")
    if rngs is not None and len(rngs) != len(x):
        raise DimensionMismatch(f"compressor.bbit: {len(rngs)} generators for {len(x)} rows")
    u = np.empty(x.shape) if scratch is None else scratch
    for g, row, s in zip(rngs or (), u, sq.tolist()):
        if s:
            g.random(out=row)
    return _dither(spec, x, sq, u, out)


def _dither(
    spec: CompressorSpec, x: np.ndarray, sq, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """bbit levels of rows (n, d) with their squared norms sq (n,) and
    their dither uniforms u (n, d), which a zero row leaves unfilled.

    Computes (norms / xi) * sign(x) * (floor(2^(b-1) |x| / norms + u) / 2^(b-1))
    factor by factor into out (a fresh block when None), overwriting u;
    products are taken in either operand order, which keeps every bit. A
    row of zero norm (not a NaN one) is then overwritten with +0.0."""
    half_levels = 2.0 ** (spec.b - 1)
    norms = np.sqrt(sq)[:, None]
    # A zero row's 0/0 and whatever u holds there are discarded below.
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.abs(x, out=out)
        levels *= half_levels
        levels /= norms
        levels += u
        np.floor(levels, out=levels)
        levels /= half_levels
        sign = np.sign(x, out=u)
        sign *= norms / xi_factor(x.shape[-1], spec.b)
        levels *= sign
    levels[sq == 0.0] = 0.0
    return levels


def encode_decode(
    spec: CompressorSpec,
    target: np.ndarray,
    reference: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Shared decoded estimates reference + C(target - reference) of n
    senders' rows (n, d) at once (see compress for rngs).

    The identity kind passes the target through untouched so the decoded
    estimate equals the broadcast vector exactly, with no rounding from
    the subtract/add pair.

    The result is written into out, a C-contiguous (n, d) block, when it
    is given; scratch, a pair of (n, d) blocks, then holds the difference
    and compress's temporaries. Fresh blocks stand in for either when None,
    with the same bits.
    """
    if spec.kind == IDENTITY:
        return compress(spec, target, out=out)
    diff, work = (None, None) if scratch is None else scratch
    diff = np.subtract(target, reference, out=diff)
    out = compress(spec, diff, rngs, out, work)
    out += reference
    return out


def bit_cost(spec: CompressorSpec, d: int) -> int:
    """Payload bits for one compressed vector of dimension d.

    identity: 64d; topk: k*(64 + ceil(log2 d)) (value plus index);
    bbit: 64 + d*b (norm plus b bits per signed coordinate);
    normsign: 64 + d (norm plus one sign bit per coordinate).
    """
    if d < 1:
        raise ConfigInvalid("bit_cost: dimension must be >= 1")
    spec.check_dimension(d)
    if spec.kind == IDENTITY:
        return FLOAT_BITS * d
    if spec.kind == TOPK:
        index_bits = (d - 1).bit_length()  # exact ceil(log2 d)
        return spec.k * (FLOAT_BITS + index_bits)
    if spec.kind == BBIT:
        assert spec.b is not None
        return FLOAT_BITS + d * spec.b
    return FLOAT_BITS + d  # normsign


def r0_constant(spec: CompressorSpec) -> float:
    """Raw-error constant r0 = 2r^2(1 - phi) + 2(1 - r)^2 bounding
    E||C(x) - x||^2 / ||x||^2."""
    return 2.0 * spec.r**2 * (1.0 - spec.phi) + 2.0 * (1.0 - spec.r) ** 2


def validate_contraction(
    spec: CompressorSpec, d: int, trials: int, rng: np.random.Generator
) -> ContractionReport:
    """Estimate E||C(x)/r - x||^2 / ||x||^2 over standard Gaussian
    vectors and compare against (1 - phi) with Monte-Carlo slack.

    Fresh compressor randomness per trial. Passes iff the estimate is
    at most (1 - phi) * (1 + 3/sqrt(trials)).

    Trial t's vector is the t-th standard_normal(d) draw of rng, and for
    bbit its dither follows it on the same stream unless the vector is
    zero. The trials run in chunks of GATE_CHUNK_ELEMENTS // d, and the
    ratios are added in trial order, skipping zero vectors, so the
    estimate equals the one-trial-at-a-time sum bit for bit.
    """
    if trials < 1000:
        raise ConfigInvalid("contraction_trials: need at least 1000 trials")
    step = max(1, GATE_CHUNK_ELEMENTS // d)
    total = 0.0
    for start in range(0, trials, step):
        count = min(step, trials - start)
        if spec.kind == BBIT:
            x, sq, decoded = _bbit_trials(spec, d, count, rng)
        else:
            # No compressor randomness: one draw holds the chunk's vectors.
            x = rng.standard_normal((count, d))
            sq = row_dots(x)
            decoded = compress(spec, x)
        err_sq = row_dots(decoded / spec.r - x)
        live = sq != 0.0
        for trial_ratio in (err_sq[live] / sq[live]).tolist():
            total += trial_ratio
    ratio = total / trials
    threshold = (1.0 - spec.phi) * (1.0 + 3.0 / math.sqrt(trials))
    return ContractionReport(
        empirical_ratio=ratio, threshold=threshold, passes=ratio <= threshold
    )


def _bbit_trials(
    spec: CompressorSpec, d: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count gate trials of bbit: their vectors (count, d), squared norms
    and decoded outputs, drawn in the order of count compress calls.

    Each vector's dither follows it on rng, and a zero vector draws none,
    as compress does; one _dither gives the levels of the whole chunk.
    """
    x = np.empty((count, d))
    u = np.empty((count, d))
    sq = np.empty(count)
    for t in range(count):
        rng.standard_normal(out=x[t])
        sq[t] = s = x[t] @ x[t]
        if s:
            rng.random(out=u[t])
    return x, sq, _dither(spec, x, sq, u)
