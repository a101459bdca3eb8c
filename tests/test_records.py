import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdyck.reporting import CheckReport
from mdyck.series import TruncatedSeries

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_mdyck_loads_no_dataclasses():
    code = "import sys\nimport mdyck, mdyck.cli\nprint('dataclasses' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_check_report_compares_prints_and_mutates_like_its_fields():
    report = CheckReport("sweep")
    assert report == CheckReport(name="sweep", ok=True, checks=0, failures=[])
    assert repr(report) == "CheckReport(name='sweep', ok=True, checks=0, failures=[])"
    # each report gets its own failure list
    assert report.failures is not CheckReport("sweep").failures
    report.checks += 2
    report.fail("x")
    assert report == CheckReport("sweep", False, 2, ["x"])
    assert report != CheckReport("sweep", False, 2, ["y"])
    assert report != ("sweep", False, 2, ["x"])
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.extra = 1


FROZEN = [
    pytest.param(
        TruncatedSeries(2, (0, 1, 3)),
        TruncatedSeries(order=2, coeffs=(0, 1, 3)),
        TruncatedSeries(2, (0, 1, 4)),
        "TruncatedSeries(order=2, coeffs=(0, 1, 3))",
        id="TruncatedSeries",
    ),
]


@pytest.mark.parametrize("record, twin, other, text", FROZEN)
def test_frozen_records_compare_hash_and_print_by_their_fields(record, twin, other, text):
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert record != other
    assert len({record, twin, other}) == 2
    assert repr(record) == text


@pytest.mark.parametrize("record, twin, other, text", FROZEN)
def test_frozen_records_are_immutable(record, twin, other, text):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_a_truncated_series_checks_its_length():
    with pytest.raises(ValueError, match="coefficient count must be order \\+ 1"):
        TruncatedSeries(order=2, coeffs=(0, 1))
