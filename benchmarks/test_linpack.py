"""Section 6.2: the massively-parallel Linpack headline number.

Paper: 10.14 GF sustained on 100 nodes — the first cluster on the
Top-500 list (#315, June 1997).
"""


def test_linpack_100_nodes(once, benchmark, figure):
    gf = once(figure, "linpack@100").gflops
    benchmark.extra_info["gflops"] = gf
    assert 9.0 <= gf <= 11.5  # paper: 10.14


def test_linpack_communication_overhead_modest(once, benchmark, figure):
    ratio = once(figure, "linpack@100").comm_over_compute
    benchmark.extra_info["comm_over_compute"] = ratio
    assert ratio < 0.25  # HPL at this scale is compute dominated
