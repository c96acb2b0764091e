"""Tracing must not change what the program prints."""

from perfbench import run
from perfbench.workloads import make_jobs


def test_traced_and_untraced_sessions_print_the_same(tmp_path):
    jobs = make_jobs("queries", 7, run.ROOT, tmp_path)
    plain = run.run_pass(jobs)
    traced = run.run_pass(jobs, tmp_path / "spans.jsonl")
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    for job, a, b in zip(jobs, plain["results"], traced["results"]):
        assert a == b, job.spec
    assert len(plain["results"]) == len(jobs) >= 200
