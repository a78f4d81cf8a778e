"""Results from different hosts are never compared."""

import pytest

import compare

HOST = {
    "machine": "x86_64", "cpu_model": "cpu", "usable_cores": 2, "python": "3.11.7",
    "numpy": "2.4.6", "compiler": "gcc 12", "commit": "a",
}


def record(**host_changes):
    return {
        "workload": "tpch",
        "host": dict(HOST, **host_changes),
        "end_to_end": {"answers_per_s": 100.0},
    }


def test_same_host_is_compared():
    lines = compare.compare(record(), record(commit="b"))
    assert "x1.000" in lines[-1]


def test_different_core_count_is_refused():
    with pytest.raises(ValueError, match="usable_cores"):
        compare.compare(record(), record(usable_cores=8))
