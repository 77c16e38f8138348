"""Exact counting: group orders, sphere-product bounds and the quadratic bound."""

import pytest

from cnotcayley.bounds import (
    SphereProfile,
    bounds_csv,
    ell,
    gl_order,
    n0_upper,
    product_inequality_check,
    quadratic_bound,
    quadratic_bound_exceeds,
    quadratic_crossing,
)
from cnotcayley.errors import FormatError, HorizonError, MissingRecordError, OrderError
from cnotcayley.essential import PolyCoeffs, load_coeffs
from cnotcayley.permcheck import partitions

# published column: |GL(n,2)|
GL_ORDERS = {1: 1, 2: 6, 3: 168, 4: 20160, 5: 9999360,
             6: 20158709760, 7: 163849992929280}


def test_gl_order_table():
    for n, v in GL_ORDERS.items():
        assert gl_order(n) == v
    assert gl_order(0) == 1


def test_gl_order_matches_exploration(explored):
    for n in (2, 3, 4, 5):
        assert explored(n).total_elements() == gl_order(n)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_from_exploration(explored):
    p = SphereProfile.from_exploration(explored(5), 3)
    assert p.sizes == (1, 20, 260, 2570)
    assert p.provenance == ("explored",) * 4


def test_profile_k0(explored):
    assert SphereProfile.from_exploration(explored(3), 0).sizes == (1,)


def test_profile_from_coeffs():
    coeffs = load_coeffs()
    p = SphereProfile.from_coeffs(coeffs, 20, 2)
    assert p.sizes == (1, 380, 79040)
    assert p.provenance[1:] == ("published", "published")


def test_profile_validity_restriction():
    coeffs = load_coeffs()
    with pytest.raises(OrderError):
        SphereProfile.from_coeffs(coeffs, 5, 3)  # needs n >= 6


def test_profile_needs_every_record():
    # the published table stops at d = 10: an input error, not a horizon
    with pytest.raises(MissingRecordError, match="no degree-11"):
        SphereProfile.from_coeffs(load_coeffs(), 30, 11)


def test_profile_needs_exact_depth(explored):
    res = explored(4, max_depth=3)
    with pytest.raises(HorizonError):
        SphereProfile.from_exploration(res, 5)


def test_profile_first_entry_checked():
    with pytest.raises(ValueError):
        SphereProfile(3, (2, 5), ("x", "x"))


# ---------------------------------------------------------------------------
# the diameter lower bound
# ---------------------------------------------------------------------------


def test_ell_published_row():
    coeffs = load_coeffs()
    expected = {20: 58, 21: 63, 22: 68, 23: 73, 24: 78, 25: 83, 26: 89,
                27: 95, 28: 101, 29: 107, 30: 113, 40: 183}
    for n, e in expected.items():
        assert ell(SphereProfile.from_coeffs(coeffs, n, 10)) == e


def test_ell_never_exceeds_diameter_on_true_data(explored):
    for n in (3, 4, 5):
        res = explored(n)
        diam = res.max_depth
        for k in range(1, diam + 1):
            assert ell(SphereProfile.from_exploration(res, k)) <= diam


def test_ell_monotone_in_k(explored):
    # more sphere data tightens the bound, so ell grows (never shrinks)
    # with k on true sphere data
    for n in (4, 5):
        res = explored(n)
        values = [ell(SphereProfile.from_exploration(res, k))
                  for k in range(1, 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    coeffs = load_coeffs()
    values20 = [ell(SphereProfile.from_coeffs(coeffs, 20, k))
                for k in range(1, 11)]
    assert all(a <= b for a, b in zip(values20, values20[1:]))


def test_ell_requires_k_at_least_one(explored):
    with pytest.raises(ValueError):
        ell(SphereProfile.from_exploration(explored(3), 0))


def test_ell_rejects_a_flat_profile(explored):
    # R(k) = 1 leaves the sphere product flat, so it is refused unless
    # the profile already covers the group, as GL(2,2) does: its
    # sphere sizes are 1, 2, 2, 1
    with pytest.raises(FormatError, match=r"R\(1\) = 1"):
        ell(SphereProfile(20, (1, 1), ("x", "x")))
    with pytest.raises(FormatError, match=r"R\(2\) = 1"):
        ell(SphereProfile(3, (1, 6, 1), ("x",) * 3))
    assert ell(SphereProfile.from_exploration(explored(2), 3)) == 3


# ---------------------------------------------------------------------------
# the quadratic bound
# ---------------------------------------------------------------------------


def test_quadratic_crossing_is_30():
    assert quadratic_crossing() == 30


def test_quadratic_bound_values():
    value, ceil2 = quadratic_bound(2)
    assert abs(value - 2 / 1.5849625007211562) < 1e-9
    assert value < 3 and ceil2 == 2
    assert quadratic_bound_exceeds(30, 87)
    assert not quadratic_bound_exceeds(29, 84)
    v29, _ = quadratic_bound(29)
    v30, _ = quadratic_bound(30)
    assert v29 <= 84 and v30 > 87


def test_quadratic_ceiling_consistency():
    for n in (2, 5, 17, 29, 30, 61):
        value, c = quadratic_bound(n)
        assert quadratic_bound_exceeds(n, c - 1)
        assert not quadratic_bound_exceeds(n, c)


# ---------------------------------------------------------------------------
# the n0 search
# ---------------------------------------------------------------------------


def test_n0_search_published():
    coeffs = load_coeffs()
    assert n0_upper(10, coeffs, range(20, 41)) == 20


def test_n0_search_empty_range():
    assert n0_upper(10, load_coeffs(), range(0)) is None


def test_n0_search_skips_uncertified_orders():
    coeffs = load_coeffs()
    # orders below 2k are skipped, not evaluated
    assert n0_upper(10, coeffs, range(2, 21)) == 20


def test_n0_k1_consistent_with_quadratic_argument():
    # with exact R(1) = n(n-1) the crossing cannot happen later than the
    # quadratic bound's, since ell_n(1) >= ceil(bound(n))
    coeffs = {1: PolyCoeffs(1, (0, 0, 2))}
    n0 = n0_upper(1, coeffs, range(2, 60))
    assert n0 is not None and n0 <= quadratic_crossing()
    for n in (10, 20, 29, 30, 40):
        profile = SphereProfile.from_coeffs(coeffs, n, 1)
        assert ell(profile) >= quadratic_bound(n)[1]


# ---------------------------------------------------------------------------
# the sphere-product inequality
# ---------------------------------------------------------------------------


def test_product_inequality_examples(explored):
    assert product_inequality_check(explored(4), 4, (2, 2))
    assert explored(4).sphere_sizes[4] == 2058 <= 96 * 96
    assert product_inequality_check(explored(5), 6, (3, 3))
    assert explored(5).sphere_sizes[6] == 540470 <= 2570 * 2570


def test_product_inequality_trivial_partition(explored):
    res = explored(4)
    for d in range(1, res.max_depth + 1):
        assert product_inequality_check(res, d, (d,))


def test_product_inequality_all_partitions(explored):
    for n in (4, 5):
        res = explored(n)
        for d in range(1, 7):
            for parts in partitions(d):
                assert product_inequality_check(res, d, parts)


def test_product_inequality_validation(explored):
    with pytest.raises(ValueError):
        product_inequality_check(explored(4), 4, (2, 3))


@pytest.mark.parametrize("call, error, message", [
    (lambda explored: gl_order(-1), OrderError, "order must be non-negative"),
    (lambda explored: SphereProfile(2, (1, 2), ("exact",)), ValueError,
     "provenance must align with sizes"),
    (lambda explored: SphereProfile(2, (1, 0), ("exact", "exact")), ValueError,
     "sphere sizes must be positive"),
    (lambda explored: quadratic_bound_exceeds(1, 0), OrderError,
     "the quadratic bound needs n >= 2"),
    (lambda explored: quadratic_bound(1), OrderError, "the quadratic bound needs n >= 2"),
    # the crossing is at 30
    (lambda explored: quadratic_crossing(29), RuntimeError, "no crossing found up to 29"),
    (lambda explored: product_inequality_check(explored(4, max_depth=3), 4, (2, 2)),
     HorizonError, "exploration not exact through depth 4"),
], ids=["gl-order-negative", "provenance", "sizes-positive", "exceeds-order",
        "bound-order", "no-crossing", "product-horizon"])
def test_bad_arguments_raise(explored, call, error, message):
    with pytest.raises(error, match=message):
        call(explored)


def test_bounds_csv():
    assert bounds_csv([(20, 10, 58)]) == "n,k,ell\n20,10,58\n"
