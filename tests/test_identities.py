import math
import re
import time
from dataclasses import replace

import pytest

from lauricella import catalog, check_reduction, registry, reductions, verify, verify_all
from lauricella.identities import (
    IdentityRecord,
    _verify_record,
    run_all,
)
from lauricella.reductions import (
    CHECKS, REDUCTIONS, REPRESENTATIONS, check_all_reductions, representation_formulas_check,
)

BASE_IDS = {
    "lunga", "enu5-1", "kummer", "effe1", "effe1b", "fd3", "fd3b", "fdn", "fdnb",
    "even", "even-reduced", "odd", "k12rep", "kr6r2rep", "fd3-two",
    "gr-3-183-2", "gr-3-184-1", "gr-3-185-2", "gr-3-185-4",
    "bf-576-00b", "bf-578-00b", "serretprol", "legendre-fd7", "richelot-fd7",
    "fd8a", "fd8b", "fd7a", "fd7b", "fd7c", "fd7d",
    "serret-fd6", "serretprol2", "capXXX205b", "capXXX205-fd4",
    "bg00", "bg00a", "bg01", "bg01-elliptic",
    "laured", "lauredb", "laured-fd5",
    "hermyF1", "her1876bth", "idhermiteK", "maier-g4", "pi-corollary",
}


def _base(id: str) -> str:
    return id.split("[")[0]


class TestRegistry:
    def test_documented_catalog(self):
        records = registry()
        assert {_base(r.id) for r in records} == BASE_IDS
        assert len(BASE_IDS) == 46
        assert len(records) == 62  # grid points expanded
        assert len({r.id for r in records}) == len(records)

    def test_lookup_enu51(self):
        (record,) = [r for r in registry() if r.id == "enu5-1"]
        assert record.tolerance == 1e-8
        assert record.erratum is None

    def test_bg00_carries_erratum(self):
        (record,) = [r for r in registry() if r.id == "bg00"]
        assert record.erratum is not None
        assert "factor 3" in record.erratum.note

    def test_semi_tolerances(self):
        loose = {"bf-578-00b", "serretprol", "legendre-fd7", "richelot-fd7",
                 "fd8a", "fd8b", "fd7a", "fd7b", "fd7c", "fd7d"}
        for record in registry():
            if record.id in loose:
                assert record.tolerance == 1e-7
            elif _base(record.id) == "kummer":
                assert record.tolerance == 1e-10


class TestVerify:
    def test_kummer_point(self):
        report = verify("kummer[a=1.0,b=0.5]")
        assert report.status == "pass"
        assert report.lhs_value == pytest.approx(math.pi / 4, rel=1e-12)
        assert report.rhs_value == pytest.approx(math.pi / 4, rel=1e-12)

    def test_enu51(self):
        report = verify("enu5-1")
        assert report.status == "pass"
        assert report.lhs_value.imag < 0

    def test_pi_corollary(self):
        report = verify("pi-corollary")
        assert report.status == "pass"
        assert abs(report.lhs_value - math.pi) <= 1e-8

    def test_bg00_erratum_protocol(self):
        report = verify("bg00")
        assert report.status == "pass_with_erratum"
        match = re.search(r"\|rhs/lhs\| = ([0-9.eE+-]+)", report.note)
        assert match, report.note
        assert abs(float(match.group(1)) - 3.0) <= 1e-6

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify("no-such-identity")

    def test_tolerance_override_fails(self):
        # the two sides agree to about 8.5e-17, so only a tighter override fails
        report = verify("enu5-1", tol_override=1e-17)
        assert report.status == "fail"

    def test_deterministic(self):
        one = verify("kr6r2rep")
        two = verify("kr6r2rep")
        assert one.lhs_value == two.lhs_value
        assert one.rhs_value == two.rhs_value
        assert one.rel_err == two.rel_err
        assert one.status == two.status

    def test_status_matches_rel_err_for_clean_records(self):
        for id in ("enu5-1", "k12rep", "hermyF1", "bg01"):
            report = verify(id)
            assert (report.status == "pass") == (report.rel_err <= 1e-8)


class TestVerifyAll:
    def test_filter_counts(self):
        assert len(verify_all("fd7*")) == 4
        assert len(verify_all("gr-*")) == 4
        assert len(verify_all("kummer*")) == 6

    def test_ordering(self):
        ids = [r.id for r in verify_all("fd*")]
        assert ids == sorted(ids)

    def test_gr_family_passes(self):
        assert all(r.status == "pass" for r in verify_all("gr-*"))


class TestVerifierMechanics:
    # a record is judged only as declared: a failure without a declared erratum
    # stays "fail", with no second evaluation and no search for a correction

    def test_side_flip_is_flagged(self):
        from lauricella import hyp2f1

        record = IdentityRecord(
            id="synthetic-above",
            anchor="synthetic record that holds only on the opposite side",
            lhs=lambda ctx: hyp2f1(0.5, 0.75, 1.5, 2.0, quad_tol=ctx.quad_tol),
            rhs=lambda ctx: 0.9270373386506859 * (1 + 1j),  # the above-side value
            tolerance=1e-10,
        )
        report = _verify_record(record)
        assert report.status == "fail"
        assert report.lhs_value.imag < 0
        assert report.note.startswith("lhs/rhs = ")

    def test_unseeded_erratum_detected(self):
        record = IdentityRecord(
            id="synthetic-half",
            anchor="synthetic record with a printed factor slip",
            lhs=lambda ctx: complex(math.pi),
            rhs=lambda ctx: complex(2.0 * math.pi),
            tolerance=1e-12,
        )
        report = _verify_record(record)
        assert report.status == "fail"
        assert report.note == "lhs/rhs = 0.5+0j"

    def test_zero_rhs_fails_without_ratio(self):
        record = IdentityRecord(
            id="synthetic-zero",
            anchor="synthetic record with a vanishing right side",
            lhs=lambda ctx: 1.0 + 0j,
            rhs=lambda ctx: 0j,
        )
        report = _verify_record(record)
        assert report.status == "fail"
        assert report.note == ""

    def test_abs_error_used_for_tiny_sides(self):
        record = IdentityRecord(
            id="synthetic-tiny",
            anchor="synthetic record with near-zero sides",
            lhs=lambda ctx: 1e-9 + 0j,
            rhs=lambda ctx: 1.5e-9 + 0j,
            tolerance=1e-8,
        )
        report = _verify_record(record)
        assert report.status == "pass"
        assert report.rel_err == report.abs_err


class TestRealnessInvariant:
    def test_conjugation_closed_records_are_real(self):
        for id in ("effe1[a=1.0,b=0.5]", "fd3", "k12rep", "fd8a", "serret-fd6"):
            report = verify(id)
            assert abs(report.lhs_value.imag) < 1e-9 * (1.0 + abs(report.lhs_value))


class TestOneProtocol:
    def test_closed_form_mismatch_fails(self):
        record = IdentityRecord(
            id="synthetic-closed",
            anchor="synthetic record whose closed form is off by 2",
            lhs=lambda ctx: complex(math.pi),
            rhs=lambda ctx: complex(math.pi),
            closed_form=lambda: complex(math.pi + 2.0),
        )
        report = _verify_record(record)
        assert report.status == "fail"
        assert report.note.startswith("closed-form mismatch")

    def test_closed_form_agreement_is_noted(self):
        report = check_reduction("goursat-gb0")
        assert report.status == "pass"
        assert report.note.startswith("closed form agrees to")

    def test_representation_correction_search(self):
        record = REPRESENTATIONS["rep-quintic[generic]"]
        doubled = replace(record, rhs=lambda ctx: 2.0 * record.rhs(ctx))
        report = _verify_record(doubled)
        assert report.status == "fail"
        assert re.fullmatch(r"lhs/rhs = 0\.5[+-]0j", report.note), report.note

    def test_representation_by_id(self):
        report = check_reduction("rep-quintic[source]")
        assert report.status == "pass"
        assert report.rel_err <= 1e-8

    def test_unknown_ids(self):
        with pytest.raises(KeyError):
            check_reduction("rep-no-such-case")
        with pytest.raises(KeyError, match="did you mean"):
            verify("kummer")

    def test_evaluation_error_is_a_fail_row(self):
        def check(id, tol, quad_tol):
            raise ValueError("boom")

        reports = run_all(REPRESENTATIONS, check, "rep-quartic*")
        assert [r.id for r in reports] == ["rep-quartic[generic]", "rep-quartic[source]"]
        for report in reports:
            assert report.status == "fail"
            assert report.note == "evaluation error: boom"
            assert report.anchor == REPRESENTATIONS[report.id].anchor

    def test_evaluation_error_row_reports_its_time(self):
        def check(id, tol, quad_tol):
            time.sleep(0.02)
            raise ValueError("boom")

        (report,) = run_all(REPRESENTATIONS, check, "rep-quartic[source]")
        assert report.status == "fail"
        assert report.elapsed >= 0.02

    def test_registries_are_id_maps(self):
        for records in (catalog.RECORDS, REDUCTIONS, CHECKS):
            assert all(id == record.id for id, record in records.items())
        assert set(CHECKS) == set(REDUCTIONS) | set(REPRESENTATIONS)
        assert len(CHECKS) == 24


class TestRegressionsAreNotMasked:
    # a broken evaluator must turn records to "fail", not to another verdict

    def test_negated_values_fail(self, monkeypatch):
        hyp2f1 = catalog.hyp2f1
        monkeypatch.setattr(catalog, "hyp2f1", lambda *args, **kw: -hyp2f1(*args, **kw))
        reports = verify_all("kummer*") + verify_all("gr-*") + [verify("enu5-1")]
        assert len(reports) == 11
        assert {r.id: r.status for r in reports} == {r.id: "fail" for r in reports}

    def test_conjugated_values_fail(self, monkeypatch):
        # an inverted branch convention conjugates every value off the real line
        hyp2f1 = catalog.hyp2f1
        monkeypatch.setattr(catalog, "hyp2f1",
                            lambda *args, **kw: hyp2f1(*args, **kw).conjugate())
        reports = verify_all("lunga*") + [verify("enu5-1")]
        assert len(reports) == 3
        assert {r.id: r.status for r in reports} == {r.id: "fail" for r in reports}


class TestClosedFormsAreValues:
    # every closed form is computed once, when its record is built at import

    def test_no_closed_form_runs_at_check_time(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed form was evaluated at check time")

        for name in ("gamma", "complete_k", "complete_e", "incomplete_f"):
            monkeypatch.setattr(catalog, name, refuse)
        for name in ("gamma", "complete_k", "incomplete_f"):
            monkeypatch.setattr(reductions, name, refuse)
        statuses = [r.status for r in verify_all()]
        assert (statuses.count("pass"), statuses.count("pass_with_erratum")) == (51, 11)
        reports = check_all_reductions() + representation_formulas_check()
        assert [r.status for r in reports] == ["pass"] * 24


def _row(report) -> str:
    # repr is exact for floats and complex numbers, signed zeros included
    return repr((report.lhs_value, report.rhs_value, report.abs_err, report.rel_err,
                 report.status, report.note))


class TestOneValuePerRun:
    # one run_all call computes each distinct value once; the next call computes it again

    @pytest.mark.parametrize("records, run, alone", [
        (catalog.RECORDS, verify_all, verify),
        (REDUCTIONS, check_all_reductions, check_reduction),
        (REPRESENTATIONS, representation_formulas_check, check_reduction),
    ])
    def test_sharing_changes_no_reported_number(self, records, run, alone):
        reports = run()
        assert [r.id for r in reports] == sorted(records)
        for report in reports:
            assert _row(report) == _row(alone(report.id)), report.id

    def test_shared_lauricella_value_is_evaluated_once_per_run(self, monkeypatch):
        # laured, lauredb and laured-fd5 share theorem 5.4's FD^(6)
        specs = []
        lauricella_fd = catalog.lauricella_fd

        def counting(spec, *args, **kwargs):
            specs.append(spec)
            return lauricella_fd(spec, *args, **kwargs)

        monkeypatch.setattr(catalog, "lauricella_fd", counting)
        reports = verify_all("laured*")
        assert [r.id for r in reports] == ["laured", "laured-fd5", "lauredb"]
        assert sorted(spec.order for spec in specs) == [5, 6]
        verify_all("laured*")
        assert sorted(spec.order for spec in specs) == [5, 5, 6, 6]
        # outside a run every plan computes its value
        verify("laured")
        verify("lauredb")
        assert sorted(spec.order for spec in specs) == [5, 5, 6, 6, 6, 6]

    def test_values_are_keyed_by_their_full_input(self, monkeypatch):
        calls = []

        def hyp2f1(*args, quad_tol):
            calls.append((args, quad_tol))
            return 1.0

        monkeypatch.setattr(catalog, "hyp2f1", hyp2f1)
        plan = catalog._2f1(1, 0.5, 1.5, complex(-1.0, 0.0))
        # the same inputs as floats share the value; a signed zero does not
        same = catalog._2f1(1.0, 0.5, 1.5, -1.0)
        signed = catalog._2f1(1.0, 0.5, 1.5, complex(-1.0, -0.0))
        records = {r.id: r for r in (
            IdentityRecord("a", "synthetic", plan, same, tolerance=1e-8),
            IdentityRecord("b", "synthetic", plan, signed, tolerance=1e-8),
            IdentityRecord("c", "synthetic", plan, plan, tolerance=1e-11),   # quad_tol 1e-12
        )}
        run_all(records, lambda id, tol, quad_tol: _verify_record(records[id], tol, quad_tol))
        assert [quad_tol for _, quad_tol in calls] == [1e-11, 1e-11, 1e-12]
        assert math.copysign(1.0, calls[1][0][3].imag) == -1.0

    def test_legendre_relations_share_their_semi_infinite_integrals(self, monkeypatch):
        # the product relation at (n, a) needs the first relation's integral at (n, n - a)
        calls = []
        integrate_semi_infinite = reductions.integrate_semi_infinite

        def counting(spec, lo, tol):
            calls.append(spec)
            return integrate_semi_infinite(spec, lo, tol)

        monkeypatch.setattr(reductions, "integrate_semi_infinite", counting)
        assert len(check_all_reductions("legendre-*")) == 8
        assert len(calls) == len(set(calls)) == 5
        check_all_reductions("legendre-*")
        assert len(calls) == 10
