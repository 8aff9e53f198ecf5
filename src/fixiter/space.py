"""Finite-dimensional p-normed spaces, convex domains, and convexity-modulus estimation.

Points are immutable ``Vector`` values; geometry (norms, distances, unit-ball
sampling) is owned by ``NormedSpace``.  Domains are closed boxes or norm balls
with an absolute membership tolerance ``TAU_DOM`` so that iterates produced by
convex combinations cannot drift out through rounding alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import ContractError, InfeasibleError

# Absolute tolerance for domain membership tests.
TAU_DOM = 1e-9

_BALL_BATCH = 4096
# The smallest normal float: a sum of |x_i|**p below it has lost precision or underflowed.
_TINY = float(np.finfo(float).tiny)
# Rejection from the cube serves the unit ball while it keeps at least this share
# of its draws; below it the exact sampler runs, whose draws do not grow with
# dimension.  At or above one half the loop cannot spin, and every ball stream
# that a shipped output pins (dim <= 2) stays on it.
_REJECTION_MIN_ACCEPTANCE = 0.5


def _finite(coords: tuple[float, ...] | list[float]) -> bool:
    """Whether every coordinate is finite.  An inf or nan term makes the float
    sum non-finite; a sum that overflows falls back to the per-term test."""
    return math.isfinite(sum(coords)) or all(map(math.isfinite, coords))


@dataclass(frozen=True, init=False)
class Vector:
    """A point with finite real coordinates, dimension >= 1."""

    coords: tuple[float, ...]

    def __init__(self, coords: Iterable[float]):
        coords = tuple(map(float, coords))
        if not coords:
            raise ContractError("vector must have dimension >= 1")
        if not _finite(coords):
            raise ContractError(f"vector has non-finite coordinates: {coords}")
        self.__dict__["coords"] = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        """``coords`` as a read-only float64 array: ``from_array`` keeps one from
        birth, and the constructor's vectors build it on first use and keep it."""
        arr = self.__dict__.get("_array")
        if arr is None:
            arr = np.asarray(self.coords, dtype=float)
            arr.setflags(write=False)
            self.__dict__["_array"] = arr
        return arr

    def __getstate__(self) -> dict:  # copies leave out the cached array, which numpy would copy writeable
        return {"coords": self.coords}

    @staticmethod
    def from_array(arr: np.ndarray | Iterable[float]) -> "Vector":
        """The vector of ``arr``; takes and refuses what the constructor does."""
        a = np.asarray(arr, dtype=float)
        coords = a.tolist()
        if a.ndim != 1 or not coords or not _finite(coords):
            return Vector(coords)
        # tolist() gave finite Python floats, which is all __init__ would check.
        # The vector keeps a copy as its array, read-only for good since its
        # buffer is a bytes object: the caller may still write ``arr``.
        v = object.__new__(Vector)
        d = v.__dict__  # two stores: a single update() builds a dict first and is slower
        d["coords"] = tuple(coords)
        d["_array"] = np.frombuffer(a.tobytes())
        return v

    def __add__(self, other: "Vector") -> "Vector":
        return Vector.from_array(self.array + _same_dim(self.dim, other).array)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector.from_array(self.array - _same_dim(self.dim, other).array)

    def __mul__(self, scalar: float) -> "Vector":
        return Vector.from_array(self.array * float(scalar))

    __rmul__ = __mul__


def _rng(seed: int) -> np.random.Generator:
    """The sampler stream of ``seed``, which must be >= 0."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _same_dim(dim: int, y: Vector) -> Vector:
    """``y``, once it has dimension ``dim``, that of the vector it meets."""
    if dim != y.dim:
        raise ContractError(f"dimension mismatch: vectors have dims {dim} and {y.dim}")
    return y


def combine(t: float, x: Vector, y: Vector) -> Vector:
    """Convex combination (1-t)*x + t*y."""
    return Vector.from_array((1.0 - t) * x.array + t * _same_dim(x.dim, y).array)


@dataclass(frozen=True)
class NormedSpace:
    """R^dim equipped with the l_p norm, 1 <= p <= inf (use ``math.inf``)."""

    dim: int
    p: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ContractError(f"space dimension must be >= 1, got {self.dim}")
        if not (self.p >= 1.0):
            raise ContractError(f"norm exponent must satisfy p >= 1, got {self.p}")

    @property
    def uniformly_convex(self) -> bool:
        # l_p is uniformly convex exactly for 1 < p < inf.
        return 1.0 < self.p < math.inf

    def _check_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise ContractError(f"dimension mismatch: space has dim {self.dim}, vector has dim {dim}")

    def norm(self, v: Vector) -> float:
        self._check_dim(v.dim)
        return float(self.norm_rows(v.array[None])[0])

    def norm_rows(self, points: np.ndarray) -> np.ndarray:
        """Norms of an (n, dim) array of row vectors.

        Each row's norm is reduced from that row alone, so it has the same bits
        whatever stack the row sits in, and ``norm`` is the one-row case.  The
        rows are copied to C order first; for p outside {1, 2, inf} the root is
        taken per row by ``math.pow``, and a row whose sum of |x_i|**p
        underflows below the smallest normal float or overflows is taken
        again as Blue's scaled norm m (sum (|x_i| / m)**p)**(1/p), m the
        row's largest |x_i|.
        """
        X = np.ascontiguousarray(points, dtype=float)
        if self.p == 2.0:
            return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])
        if self.p == 1.0:
            return np.add.reduce(np.abs(X), axis=1)
        if self.p == math.inf:
            return np.abs(X).max(axis=1)
        A, root = np.abs(X), 1.0 / self.p
        with np.errstate(over="ignore", under="ignore"):
            sums = np.add.reduce(A ** self.p, axis=1)
        listed = sums.tolist()
        norms = np.array([math.pow(s, root) for s in listed], dtype=float)
        # A NaN at the head of the list fails this test, and min and max skip one
        # elsewhere, so no lost row is missed; a NaN row keeps its NaN.
        if listed and not (_TINY <= min(listed) and max(listed) < math.inf):
            peak = A.max(axis=1)
            # A zero row keeps its 0, and a row with an inf entry its inf.
            lost = ~((sums >= _TINY) & (sums < math.inf)) & (peak > 0.0) & (peak < math.inf)
            with np.errstate(over="ignore", under="ignore"):
                scaled = np.add.reduce((A[lost] / peak[lost, None]) ** self.p, axis=1)
                norms[lost] = peak[lost] * np.array([math.pow(s, root) for s in scaled.tolist()])
        return norms

    def distance(self, x: Vector, y: Vector) -> float:
        return self.norm(x - y)

    def ball_acceptance(self) -> float:
        """Share of uniform cube draws that land in the unit ball: G(1+1/p)^dim / G(1+dim/p)."""
        if self.p == math.inf:
            return 1.0
        try:
            return math.gamma(1.0 + 1.0 / self.p) ** self.dim / math.gamma(1.0 + self.dim / self.p)
        except OverflowError:  # G(1+dim/p) > 1e308, so the share is below 1e-308
            return 0.0

    def unit_ball_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly from the closed unit ball.

        Rejection from the cube where it keeps at least half its draws (p = inf,
        or a low dim).  Elsewhere the exact sampler of Barthe, Guedon, Mendelson
        and Naor (Ann. Probab. 33, 2005): with g_i of density proportional to
        exp(-|t|**p) and W ~ Exp(1), g / (||g||_p**p + W)**(1/p) is uniform in
        the ball.  Each g_i is drawn as U * H**(1/p), U ~ Uniform(-1, 1) and
        H ~ Gamma(1 + 1/p), the same law as |g_i|**p ~ Gamma(1/p) with a random
        sign, but free of the underflow of Gamma(1/p) draws at large p.  Both
        branches draw a fixed sequence, so the same generator state gives the
        same array.
        """
        if self.ball_acceptance() < _REJECTION_MIN_ACCEPTANCE:
            p = self.p
            g = rng.uniform(-1.0, 1.0, size=(count, self.dim))
            g *= rng.standard_gamma(1.0 + 1.0 / p, size=(count, self.dim)) ** (1.0 / p)
            w = rng.standard_exponential(count)
            return g / ((np.abs(g) ** p).sum(axis=1) + w)[:, None] ** (1.0 / p)
        kept: list[np.ndarray] = []
        total = 0
        while total < count:
            batch = rng.uniform(-1.0, 1.0, size=(_BALL_BATCH, self.dim))
            inside = batch[self.norm_rows(batch) <= 1.0]
            kept.append(inside)
            total += len(inside)
        return np.concatenate(kept)[:count]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, lows[i] <= highs[i]."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        if len(lows) != len(highs) or len(lows) == 0:
            raise ContractError("box needs matching, nonempty lower and upper bounds")
        if any(lo > hi for lo, hi in zip(lows, highs)):
            raise ContractError(f"box has lo > hi: lows={lows} highs={highs}")
        if not all(math.isfinite(v) for v in lows + highs):
            raise ContractError("box bounds must be finite")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return len(self.lows)

    @cached_property
    def _faces(self) -> tuple[tuple[float, ...], tuple[float, ...], np.ndarray, np.ndarray]:
        """The tolerant faces lows - TAU_DOM and highs + TAU_DOM, as tuples for
        ``contains`` and as arrays of the same floats for ``inside_rows``."""
        lows = tuple(lo - TAU_DOM for lo in self.lows)
        highs = tuple(hi + TAU_DOM for hi in self.highs)
        return lows, highs, np.array(lows), np.array(highs)

    def contains(self, space: NormedSpace, v: Vector) -> bool:
        if v.dim != self.dim:
            raise ContractError(f"dimension mismatch: box has dim {self.dim}, vector has dim {v.dim}")
        lows, highs, _, _ = self._faces
        return all(lo <= c <= hi for c, lo, hi in zip(v.coords, lows, highs))

    def inside_rows(self, space: NormedSpace, points: np.ndarray) -> np.ndarray:
        """Which rows of a (k, dim) array ``contains`` accepts; the comparisons are the same, so exactly."""
        _, _, lows, highs = self._faces
        return ((lows <= points) & (points <= highs)).all(axis=1)

    def diameter(self, space: NormedSpace) -> float:
        side = Vector(tuple(hi - lo for lo, hi in zip(self.lows, self.highs)))
        return space.norm(side)

    def sample(self, space: NormedSpace, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lows, self.highs, size=(count, self.dim))

    def extreme_points(self) -> tuple[Vector, Vector]:
        """A maximally separated pair (the two opposite corners)."""
        return Vector(self.lows), Vector(self.highs)

    def clip(self, space: NormedSpace, v: Vector) -> Vector:
        return Vector(tuple(min(max(c, lo), hi) for c, lo, hi in zip(v.coords, self.lows, self.highs)))


@dataclass(frozen=True)
class Ball:
    """Closed norm ball; the norm is supplied by the space at query time."""

    center: Vector
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0) or not math.isfinite(self.radius):
            raise ContractError(f"ball radius must be finite and >= 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, space: NormedSpace, v: Vector) -> bool:
        with np.errstate(over="ignore"):  # a norm that overflows is inf: outside
            return space.distance(v, self.center) <= self.radius + TAU_DOM

    def inside_rows(self, space: NormedSpace, points: np.ndarray) -> np.ndarray:
        """Which rows of a (k, dim) array ``contains`` accepts; ``norm_rows`` is exact, so
        exactly.  A row whose offset from the center is not finite reads False
        (``contains`` raises ContractError on it)."""
        with np.errstate(over="ignore"):
            return space.norm_rows(points - self.center.array) <= self.radius + TAU_DOM

    def diameter(self, space: NormedSpace) -> float:
        return 2.0 * self.radius

    def sample(self, space: NormedSpace, rng: np.random.Generator, count: int) -> np.ndarray:
        pts = space.unit_ball_points(rng, count)
        return self.center.array + self.radius * pts

    def extreme_points(self) -> tuple[Vector, Vector]:
        offset = np.zeros(self.dim)
        offset[0] = self.radius
        return Vector.from_array(self.center.array - offset), Vector.from_array(self.center.array + offset)

    def clip(self, space: NormedSpace, v: Vector) -> Vector:
        # Radial projection; lands on the sphere for outside points, exact for every l_p.
        d = space.distance(v, self.center)
        if d <= self.radius:
            return v
        scale = self.radius / d
        return Vector.from_array(self.center.array + scale * (v.array - self.center.array))


Domain = Union[Box, Ball]


@dataclass(frozen=True)
class ModulusEstimate:
    """Sampled upper bound on the modulus of convexity at a given separation.

    ``estimate`` is the minimum of 1 - ||x+y||/2 over the evaluated admissible
    pairs (unit-ball points at distance >= epsilon), so it always sits at or
    above the true infimum.
    """

    epsilon: float
    estimate: float
    sample_count: int
    best_witness: tuple[Vector, Vector]


def _seed_pairs(space: NormedSpace, epsilon: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic near-extremal pairs on the unit sphere.

    Includes the antipodal pair and a same-cap pair at separation exactly
    epsilon; for p=1 also a pair along a flat face of the ball.  These make
    tiny budgets land on (or very near) the infimum for every p.
    """
    d, p = space.dim, space.p
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    if d == 1:
        # On the line the extremal pair is (1, 1 - epsilon).
        pairs.append((np.array([1.0]), np.array([1.0 - epsilon])))
        pairs.append((np.array([1.0]), np.array([-1.0])))
        return pairs
    b = epsilon / 2.0
    if p == math.inf:
        a = 1.0
    else:
        a = (1.0 - b**p) ** (1.0 / p) if b < 1.0 else 0.0
    cap_x = np.zeros(d)
    cap_y = np.zeros(d)
    cap_x[0] = a
    cap_y[0] = a
    cap_x[1] = b
    cap_y[1] = -b
    pairs.append((cap_x, cap_y))
    if p == 1.0:
        face_x = np.zeros(d)
        face_y = np.zeros(d)
        face_x[0] = 1.0
        face_y[0] = 1.0 - b
        face_y[1] = b
        pairs.append((face_x, face_y))
    anti = np.zeros(d)
    anti[0] = 1.0
    pairs.append((anti, -anti))
    return pairs


def modulus_of_convexity_estimate(
    space: NormedSpace, epsilon: float, sample_count: int, seed: int
) -> ModulusEstimate:
    """Estimate the convexity modulus by seeded sampling of admissible pairs.

    Draws ``sample_count`` independent pairs from the unit ball, keeps those at
    distance >= epsilon, adds the deterministic extremal seed pairs, and returns
    the minimum of 1 - ||x+y||/2 together with the achieving pair.  Identical
    seed and budget reproduce the result bit for bit.
    """
    if sample_count < 1:
        raise ContractError(f"sample_count must be >= 1, got {sample_count}")
    if not math.isfinite(epsilon):
        raise ContractError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0.0:
        raise ContractError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon > 2.0:
        raise InfeasibleError(
            f"no unit-ball pair has separation {epsilon} > 2; the constraint set is empty"
        )

    rng = _rng(seed)
    xs = space.unit_ball_points(rng, sample_count)
    ys = space.unit_ball_points(rng, sample_count)
    admissible = space.norm_rows(xs - ys) >= epsilon
    seeds = _seed_pairs(space, epsilon)
    k = len(seeds)
    # One pass over the seed pairs' sums, first so that they win ties, and the
    # samples'; a sample that is not admissible reads inf.
    sums = np.empty((k + sample_count, space.dim))
    sums[:k] = [sx + sy for sx, sy in seeds]
    np.add(xs, ys, out=sums[k:])
    vals = 1.0 - space.norm_rows(sums) / 2.0
    vals[k:][~admissible] = math.inf
    i = int(np.argmin(vals))
    wx, wy = map(Vector.from_array, seeds[i] if i < k else (xs[i - k], ys[i - k]))
    # Recompute through the scalar path so the witness reproduces the estimate exactly.
    estimate = 1.0 - space.norm(wx + wy) / 2.0
    return ModulusEstimate(epsilon=float(epsilon), estimate=estimate,
                           sample_count=k + int(admissible.sum()), best_witness=(wx, wy))
