"""The margin tally behind every check, the sub-report fold and the JSON form."""

import json
import math

import pytest

from padicqft.reporting import CheckReport, Margins, combine


def _never():
    raise AssertionError("violation text built for a passing margin")


class TestMargins:
    def test_empty_passes_with_infinite_margin(self):
        report = Margins("c").report()
        assert report == CheckReport("c", True, math.inf, ())

    def test_first_margin_wins_a_tie(self):
        margins = Margins("c")
        margins.add(0.0, _never)
        margins.add(-0.0, _never)
        worst = margins.report().worst_margin
        assert worst == 0.0 and math.copysign(1.0, worst) == 1.0

    def test_smallest_margin_is_the_worst(self):
        margins = Margins("c")
        for margin in (3.0, 1.0, 2.0):
            margins.add(margin, _never)
        assert margins.report() == CheckReport("c", True, 1.0, ())

    def test_nan_stays_the_worst_after_finite_margins(self):
        margins = Margins("c")
        margins.add(1.0, _never)
        margins.add(math.nan, lambda: "nan margin")
        margins.add(-5.0, lambda: "negative margin")
        margins.add(-math.inf, lambda: "infinite margin")
        report = margins.report()
        assert report.passed is False
        assert math.isnan(report.worst_margin)
        assert report.violations == ("nan margin", "negative margin", "infinite margin")

    def test_first_margin_nan(self):
        margins = Margins("c")
        margins.add(math.nan, lambda: "nan margin")
        margins.add(-1.0, lambda: "negative margin")
        assert math.isnan(margins.report().worst_margin)

    def test_text_never_built_for_a_passing_margin(self):
        margins = Margins("c")
        for margin in (0.0, 1e-300, 2.0, math.inf):
            margins.add(margin, _never)
        assert margins.report().passed

    def test_negative_margin_is_a_violation(self):
        margins = Margins("c")
        margins.add(-1e-300, lambda: "tiny excess")
        assert margins.report() == CheckReport("c", False, -1e-300, ("tiny excess",))

    def test_strict_margin_must_be_positive(self):
        margins = Margins("c")
        margins.add(1e-300, _never, strict=True)
        margins.add(0.0, lambda: "zero", strict=True)
        margins.add(-0.0, lambda: "negative zero", strict=True)
        assert margins.report() == CheckReport("c", False, 0.0, ("zero", "negative zero"))


class TestCombine:
    def test_nan_sub_margin_after_a_finite_one(self):
        report = combine("all", [CheckReport("a", True, 1.0), CheckReport("b", False, math.nan, ("b",))])
        assert report.passed is False
        assert math.isnan(report.worst_margin)
        assert report.violations == ("b",)

    def test_nan_sub_margin_before_a_smaller_one(self):
        report = combine("all", [CheckReport("a", False, math.nan), CheckReport("b", True, -1.0)])
        assert math.isnan(report.worst_margin)

    def test_passed_comes_from_the_sub_reports(self):
        # a negative margin within its check's tolerance still passes
        report = combine("all", [CheckReport("a", True, -1e-12), CheckReport("b", True, 2.0)])
        assert report == CheckReport("all", True, -1e-12, ())

    def test_empty(self):
        assert combine("all", []) == CheckReport("all", True, math.inf, ())


class TestJson:
    @pytest.mark.parametrize("margin, text", [(math.nan, "nan"), (math.inf, "inf"),
                                              (-math.inf, "-inf")])
    def test_non_finite_margin_written_as_a_string(self, margin, text):
        doc = CheckReport("c", False, margin, ("v",)).to_json_dict()
        assert doc == {"check": "c", "pass": False, "worst_margin": text, "violations": ["v"]}
        json.loads(json.dumps(doc), parse_constant=_reject)

    def test_finite_margin_unchanged(self):
        doc = CheckReport("c", True, 0.1 + 0.2).to_json_dict()
        assert doc == {"check": "c", "pass": True, "worst_margin": 0.30000000000000004}
        assert json.dumps(doc) == '{"check": "c", "pass": true, "worst_margin": 0.30000000000000004}'


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")
