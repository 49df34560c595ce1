"""Section 6.3: multiple time-shared parallel applications.

Paper: executing multiple Split-C applications time-shared is within 15%
of running them in sequence; communication time stays nearly constant;
with load imbalance, time-sharing improves throughput by up to 20%.
"""


def test_sec63_balanced_within_15_percent(once, benchmark, figure):
    r = once(figure, "sec63/balanced")
    benchmark.extra_info.update(slowdown=r.slowdown, comm_ratio=r.comm_ratio)
    # paper: within 15% of sequential
    assert r.slowdown <= 1.2
    assert r.slowdown >= 0.85


def test_sec63_comm_time_nearly_constant(once, benchmark, figure):
    r = once(figure, "sec63/balanced")
    benchmark.extra_info["comm_ratio"] = r.comm_ratio
    assert 0.6 <= r.comm_ratio <= 1.6  # paper: "nearly constant"


def test_sec63_imbalance_improves_throughput(once, benchmark, figure):
    """Load imbalance lets time-sharing fill idle cycles (up to +20%)."""

    def both():
        bal = figure("sec63/balanced")
        imb = figure("sec63/imbalanced")
        return bal, imb

    bal, imb = once(both)
    benchmark.extra_info.update(balanced=bal.slowdown, imbalanced=imb.slowdown)
    # the imbalanced workload benefits more from sharing than the balanced
    assert imb.slowdown <= bal.slowdown + 0.05
    assert imb.slowdown < 1.05  # sharing recovers the idle cycles
