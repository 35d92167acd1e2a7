"""FIG1 — Figure 1: behaviour of online Algorithm A for one server type.

The figure shows, for a single server type with ``\\bar t_j = 5``, the prefix
optima ``\\hat x^t_{t,j}`` (upper plot) and the resulting number of active
servers ``x^A_{t,j}`` (lower plot): every increase of the upper series triggers
power-ups, and every powered-up server runs for exactly five slots.

This benchmark regenerates both series for an equivalent scenario (the paper
does not list the numeric values of its example, only ``\\bar t_j = 5``), plus
the invariants the figure illustrates:

* ``x^A >= \\hat x`` in every slot,
* every power-up's block has length exactly ``\\bar t_j``.
"""

import numpy as np

from repro import ConstantCost, ProblemInstance, ServerType, run_online
from repro.analysis import step_plot
from repro.online import AlgorithmA, FixedSequenceTracker
from repro.online.blocks import fixed_runtime_blocks, power_up_log

from bench_utils import once, result_section, write_result

# A reference prefix-optimum series in the spirit of Figure 1 (T = 15, one type).
FIG1_XHAT = np.array([1, 1, 0, 2, 2, 1, 0, 0, 3, 1, 0, 0, 1, 0, 0])
FIG1_BETA = 5.0
FIG1_IDLE = 1.0  # -> \bar t_j = ceil(5/1) = 5


def _instance():
    types = (
        ServerType("fig1", count=4, switching_cost=FIG1_BETA, capacity=1.0,
                   cost_function=ConstantCost(level=FIG1_IDLE)),
    )
    return ProblemInstance(types, np.zeros(len(FIG1_XHAT)), name="figure-1")


def _run():
    instance = _instance()
    algo = AlgorithmA(tracker=FixedSequenceTracker(FIG1_XHAT))
    result = run_online(instance, algo)
    return algo, result


def test_fig1_algorithm_a_trace(benchmark):
    algo, result = once(benchmark, _run)
    x_a = result.schedule.x[:, 0]

    assert algo.runtimes[0] == 5
    assert np.all(x_a >= FIG1_XHAT)
    blocks = fixed_runtime_blocks(result.decisions, 0, algo.runtimes[0])
    assert all(b.length == 5 for b in blocks if b.end < len(FIG1_XHAT) - 1)

    powered_up = power_up_log(result.decisions)
    rows = [
        {"t": t + 1, "xhat_t": int(FIG1_XHAT[t]), "x_A_t": int(x_a[t]),
         "powered_up": int(powered_up[t, 0])}
        for t in range(len(FIG1_XHAT))
    ]
    text = "\n\n".join(
        [
            "Experiment FIG1 — Figure 1 (Algorithm A, one server type, bar_t_j = 5)",
            result_section("per-slot series", rows),
            step_plot(FIG1_XHAT, title="prefix optima  \\hat x^t_{t,j}  (upper plot of Figure 1)"),
            step_plot(x_a, title="Algorithm A      x^A_{t,j}          (lower plot of Figure 1)"),
            f"blocks A_(j,i): {[(b.start + 1, b.end + 1) for b in blocks]}  (1-based, length = bar_t_j = 5)",
        ]
    )
    write_result("FIG1_algorithm_a", text)
