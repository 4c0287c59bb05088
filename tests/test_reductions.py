import math

import pytest

from lauricella import check_reduction, reduction_registry, representation_formulas_check
from lauricella.identities import EvalContext
from lauricella.reductions import (
    check_all_reductions,
    hermite_cubic_root,
    substitution_errors,
)

CUBIC_BETA = 1.4021821053254543
LEMNISCATIC = 2.6220575542921198      # sqrt2 * K(1/sqrt2)
CUBIC_K_FORM = 1.9923328995834907     # (4/3)**(1/4) * K(1/sqrt2)


def _base(id: str) -> str:
    return id.split("[")[0]


class TestRegistry:
    def test_eleven_base_records(self):
        records = reduction_registry()
        assert {_base(r.id) for r in records} == {
            "jacobi-g2", "hermite-ugu", "goursat-dig", "goursat-gb0",
            "goursat-011b", "hermite-b0", "hermite-full", "hermite-g3",
            "maier-g4", "legendre-z1", "legendre-z2",
        }
        assert len(records) == 17

    def test_goursat_dig_shape(self):
        (record,) = [r for r in reduction_registry() if r.id == "goursat-dig"]
        assert record.rhs.scale == 6.0 and record.lhs.scale == 1.0
        assert record.lhs.lo == 1.0 and math.isinf(record.lhs.hi)
        assert record.rhs.lo == 1.0 and math.isinf(record.rhs.hi)

    def test_z2_product_form(self):
        (record,) = [r for r in reduction_registry() if r.id == "legendre-z2[n=8,a=5]"]
        # lhs is the product of the two integral sides; rhs is the closed form
        assert record.closed_form is None
        closed = record.rhs(EvalContext())
        assert closed == pytest.approx(
            2.0 * math.pi / (8.0 * 2.0 * math.sin(5.0 * math.pi / 8.0)), rel=1e-15
        )
        assert closed == pytest.approx(0.4250544230926846, rel=1e-14)


class TestChecks:
    def test_goursat_dig(self):
        report = check_reduction("goursat-dig")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(CUBIC_BETA, rel=1e-9)
        assert report.rhs_value == pytest.approx(CUBIC_BETA, rel=1e-9)

    def test_hermite_b0(self):
        report = check_reduction("hermite-b0")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(LEMNISCATIC, rel=1e-10)

    def test_maier_g4(self):
        report = check_reduction("maier-g4")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(CUBIC_K_FORM, rel=1e-10)
        assert report.rhs_value == pytest.approx(CUBIC_K_FORM, rel=1e-10)

    def test_jacobi_value(self):
        report = check_reduction("jacobi-g2")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(1.7650261616665267, rel=1e-9)

    def test_hermite_ugu(self):
        report = check_reduction("hermite-ugu")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(1.5721050137883272, rel=1e-8)

    def test_all_pass_at_stated_tolerances(self):
        reports = check_all_reductions()
        assert len(reports) == 17
        assert all(r.status == "pass" for r in reports), [
            (r.id, r.rel_err) for r in reports if r.status != "pass"
        ]

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            check_reduction("no-such-reduction")

    def test_quad_tol_takes_effect(self):
        default = check_reduction("legendre-z1[n=4,a=1]")
        loose = check_reduction("legendre-z1[n=4,a=1]", quad_tol=1e-6)
        assert loose.status == "pass"
        assert (loose.lhs_value, loose.rhs_value) != (default.lhs_value, default.rhs_value)


class TestSubstitutions:
    def test_endpoints_land_on_interval_limits(self):
        for record in reduction_registry():
            for err in substitution_errors(record.id):
                assert err <= 1e-10, record.id

    def test_maier_map_images(self):
        (record,) = [r for r in reduction_registry() if r.id == "maier-g4"]
        map_, points = record.substitution
        images = [map_(x) for x, _ in points]
        assert images[0] == pytest.approx(0.0, abs=1e-12)
        assert images[1] == pytest.approx(-math.sqrt(3.0), rel=1e-13)


class TestRepresentationFormulas:
    def test_all_seven_cases(self):
        reports = representation_formulas_check()
        assert len(reports) == 7
        for report in reports:
            assert report.status == "pass", (report.id, report.rel_err)
            assert report.rel_err <= 1e-8

    def test_groups_present(self):
        ids = {r.id for r in representation_formulas_check()}
        assert {i.split("[")[0] for i in ids} == {"rep-quintic", "rep-sextic", "rep-quartic"}


class TestCubicRoot:
    def test_single_real_root(self):
        z1 = hermite_cubic_root(1.0, 2.0)
        assert z1 == pytest.approx(1.0979116727228236, rel=1e-13)
        assert abs(4.0 * z1 ** 3 - 3.0 * z1 - 2.0) < 1e-13

    def test_three_real_roots_takes_largest(self):
        z1 = hermite_cubic_root(1.0, 0.1)
        assert abs(4.0 * z1 ** 3 - 3.0 * z1 - 0.1) < 1e-13
        assert z1 > math.sqrt(3.0) / 2.0  # above the local minimum
