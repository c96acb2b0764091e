"""A recorded defect excuses a job only when it fails the recorded way."""

from perfbench import reference as ref
from perfbench import run
from perfbench.workloads import DIMS_BROKEN_FROM, Session


def dims_job(tmp_path, k):
    return Session(0, run.ROOT / "src" / "tracecat" / "data", tmp_path).dims_level(k)


def dims_out(k, shift=0.0):
    values = ref.su2_dims(k)
    return "".join(f"{a}\t{v + shift:.12f}\n" for a, v in zip(range(1, k + 2), values))


def outcome(job, got):
    attempted, failed, unexpected, known = run.verify([job], [{"results": [got]}])
    assert attempted == 1
    return failed, len(unexpected), len(known)


def test_recorded_exception_is_a_known_defect(tmp_path):
    job = dims_job(tmp_path, 40)
    assert job.known_failure == "ArithmeticError"
    got = {"exc": "ArithmeticError", "msg": "dimension vector fails multiplicativity"}
    assert outcome(job, got) == (1, 0, 1)


def test_other_failures_at_broken_levels_are_wrong(tmp_path):
    k = DIMS_BROKEN_FROM + 5
    job = dims_job(tmp_path, k)
    wrong = [
        {"rc": 0, "out": dims_out(k, shift=1e-6), "err": ""},
        {"exc": "ValueError", "msg": "math domain error"},
        {"rc": 1, "out": "", "err": "error: no dims\n"},
    ]
    for got in wrong:
        assert outcome(job, got) == (1, 1, 0), got


def test_fixed_defect_counts_as_correct(tmp_path):
    k = DIMS_BROKEN_FROM + 5
    assert outcome(dims_job(tmp_path, k), {"rc": 0, "out": dims_out(k), "err": ""}) == (0, 0, 0)


def test_levels_below_the_defect_have_no_excuse(tmp_path):
    job = dims_job(tmp_path, DIMS_BROKEN_FROM - 1)
    assert job.known_failure is None
    assert outcome(job, {"exc": "ArithmeticError", "msg": ""}) == (1, 1, 0)
