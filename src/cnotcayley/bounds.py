"""Exact counting: group orders, sphere-product diameter bounds, and the
quadratic lower bound, all in big-integer arithmetic.

The sphere-product inequality |R(d)| <= prod |R(d_i)| over any partition
of d turns known sphere sizes R(1..k) into a diameter lower bound: the
group order cannot be covered before level ell_n(k).  Comparisons
against thresholds such as 3(n-1) are decided by integer reasoning
(2^(n^2-n) versus (n^2-n+1)^t), never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import FormatError, HorizonError, MissingRecordError, OrderError


def gl_order(n: int) -> int:
    """|GL(n,2)| = prod_{i<n} (2^n - 2^i)."""
    if n < 0:
        raise OrderError("order must be non-negative")
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


@dataclass(frozen=True)
class SphereProfile:
    """Sphere sizes R(0..k) of GL(n,2) with per-entry provenance."""

    n: int
    sizes: tuple[int, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sizes or self.sizes[0] != 1:
            raise ValueError("a profile starts with R(0) = 1")
        if len(self.sizes) != len(self.provenance):
            raise ValueError("provenance must align with sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("sphere sizes must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes) - 1

    @classmethod
    def from_exploration(cls, res, k: int) -> "SphereProfile":
        if k > res.max_exact_depth:
            raise HorizonError(
                f"exploration is exact to depth {res.max_exact_depth} < {k}")
        sizes = tuple(res.sphere_sizes[d] for d in range(k + 1))
        return cls(res.n, sizes, ("explored",) * (k + 1))

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, "PolyCoeffs"], n: int, k: int) -> "SphereProfile":
        from .essential import eval_poly
        sizes = [1]
        prov = ["exact"]
        for d in range(1, k + 1):
            if d not in coeffs:
                raise MissingRecordError(f"no degree-{d} coefficient record")
            c = coeffs[d]
            if not c.valid_at(n):
                raise OrderError(
                    f"f_{d} only certifies sphere sizes for n >= {2*d}, got {n}")
            value = eval_poly(c, n)
            if value < 1:
                raise FormatError(f"f_{d}({n}) = {value} is not a sphere size")
            sizes.append(value)
            prov.append(c.source)
        return cls(n, tuple(sizes), tuple(prov))


def ell(profile: SphereProfile) -> int:
    """Smallest ell with sum_{d<=ell} R(k)^q(d) * R(r(d)) >= |GL(n,2)|,
    where q, r = divmod(d, k); a certified lower bound on the diameter."""
    k = profile.k
    if k < 1:
        raise ValueError("the bound needs at least R(1)")
    target = gl_order(profile.n)
    # R(k) >= 2 makes the terms grow at least as 2^q, so the loop ends
    # within k*log2|GL(n,2)| levels; R(k) = 1 leaves them flat, which
    # only a profile that covers the group by itself can afford
    if profile.sizes[k] < 2 and sum(profile.sizes) < target:
        raise FormatError(f"R({k}) = 1 keeps the sphere product from growing; "
                          f"the bound needs R({k}) >= 2")
    total = 0
    power = 1  # R(k)^q, maintained incrementally
    level = 0
    while True:
        q, r = divmod(level, k)
        if r == 0 and level > 0:
            power *= profile.sizes[k]
        total += power * profile.sizes[r]
        if total >= target:
            return level
        level += 1


def quadratic_bound_exceeds(n: int, t: int) -> bool:
    """Exact test of (n^2-n)/log2(n^2-n+1) > t via 2^(n^2-n) > (n^2-n+1)^t."""
    if n < 2:
        raise OrderError("the quadratic bound needs n >= 2")
    a = n * n - n
    return (1 << a) > (a + 1) ** t


def quadratic_bound(n: int) -> tuple[float, int]:
    """The quadratic diameter lower bound and its exact ceiling.

    The float is for display only; the ceiling is certified by integer
    comparisons (the bound is irrational since n^2-n+1 is odd)."""
    if n < 2:
        raise OrderError("the quadratic bound needs n >= 2")
    a = n * n - n
    approx = a / math.log2(a + 1)
    # start safely below the ceiling; the float is not trusted
    c = max(0, int(approx) - 2)
    while quadratic_bound_exceeds(n, c):
        c += 1
    return approx, c


def quadratic_crossing(n_max: int = 200) -> int:
    """Smallest n whose quadratic bound exceeds 3(n-1)."""
    for n in range(2, n_max + 1):
        if quadratic_bound_exceeds(n, 3 * (n - 1)):
            return n
    raise RuntimeError(f"no crossing found up to {n_max}")


def n0_upper(k: int, coeffs: Mapping[int, "PolyCoeffs"], n_range) -> int | None:
    """Smallest n in the range with ell_n(k) > 3(n-1), restricted to
    n >= 2k where the polynomial sphere sizes are certified; None when
    the range is empty or never crosses."""
    for n in n_range:
        if n < 2 * k:
            continue
        profile = SphereProfile.from_coeffs(coeffs, n, k)
        if ell(profile) > 3 * (n - 1):
            return n
    return None


def product_inequality_check(res, d: int, partition) -> bool:
    """|R(d)| <= prod_i |R(d_i)| for a partition of d; test-only helper."""
    parts = tuple(partition)
    if sum(parts) != d or any(p < 1 for p in parts):
        raise ValueError(f"{parts} is not a partition of {d}")
    if d > res.max_exact_depth:
        raise HorizonError(f"exploration not exact through depth {d}")
    rhs = 1
    for p in parts:
        rhs *= res.sphere_sizes[p]
    return res.sphere_sizes[d] <= rhs


def bounds_csv(rows) -> str:
    """CSV lines (n, k, ell) for diameter lower-bound tables."""
    out = ["n,k,ell"]
    for n, k, e in rows:
        out.append(f"{n},{k},{e}")
    return "\n".join(out) + "\n"
