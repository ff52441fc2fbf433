"""Metric catalogue of the benchmark: names, units, directions and targets.

``END_TO_END`` lists what a user of apmads sees, reported by untraced runs
(``--trace 0``); ``REPORTED`` is printed beside it but not gated. ``PER_LAYER`` lists what one traced pass measures at the
boundary of each package module (``--trace 1``), with the end-to-end
metric and workload each one should move. ``BENCHMARK.json`` at the
repository root mirrors the names, units and directions; the benchmark
refuses to run when the two disagree.
"""

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter: import apmads and build the workload's inputs "
     "(profile-logs: generate its logs); median over several set-ups"),
    ("ops_per_s", "ops/s", "higher", 0.25,
     "ops per second of one round of the ops, each op at its mean latency "
     "over the timed runs"),
    ("op_ms_p50", "ms", "lower", 0.25,
     "median over the workload's ops of each op's median latency"),
    ("iters_per_s", "iters/s", "higher", 0.25,
     "solver iterations per second (profile-logs: logged iterations read "
     "and profiled), each op at its mean latency over the timed runs"),
    ("peak_mem_mb", "MB", "lower", 0.25,
     "tracemalloc peak above the op's starting level, maximum over a "
     "separate pass of the first solver seed of each (problem, algo)"),
    ("draws_to_solve_gm.dp", "draws", "lower", 0.01,
     "geometric mean of budget_to_solve(TAU_SOLVE) over the solved "
     "instances of the draw-efficiency reference suite"),
    ("draws_to_solve_gm.mp", "draws", "lower", 0.01, "as above, mpmads"),
    ("draws_to_solve_gm.fixed", "draws", "lower", 0.01, "as above, fixed"),
    ("solved_frac.dp", "ratio", "higher", 0.01,
     "share of reference instances reaching accuracy 1 - TAU_SOLVE"),
    ("solved_frac.mp", "ratio", "higher", 0.01, "as above, mpmads"),
    ("solved_frac.fixed", "ratio", "higher", 0.01, "as above, fixed"),
]

# Printed beside END_TO_END but left out of BENCHMARK.json: fail_frac is 0
# on healthy code, which a gated metric may not be (the JSON's failed and
# attempted carry it), and op_ms_tail is one order statistic of a few
# dozen samples; on norm2-n20 its IQR/median over ten seeds was 0.22 and
# 0.27 on a shared two-core host, beyond any bound.
# name, unit, better, meaning
REPORTED = [
    ("op_ms_tail", "ms", "lower",
     "the highest percentile of op latency with at least 10 samples above "
     "it; the percentile and the sample count are printed beside it"),
    ("fail_frac", "ratio", "lower", "ops that raised or failed a check, over ops attempted"),
]

# name, unit, better, what it should move (end-to-end metric on workload)
PER_LAYER = [
    ("import.scipy_special_s", "s", "lower", "setup_s on every workload, most on profile-logs"),
    ("import.numpy_s", "s", "lower", "setup_s on every workload"),
    ("import.apmads_own_s", "s", "lower", "setup_s on every workload"),
    ("mesh.generate_poll.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("mesh.generate_poll.self_s", "s", "lower",
     "iters_per_s, op_ms_p50 on norm2-n20; none on profile-logs"),
    ("blackbox.observe.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("blackbox.observe.self_s", "s", "lower", "iters_per_s on norm2-n20"),
    ("blackbox.observe.feasible_frac", "ratio", "higher", "1 on norm2-n20; moustache's barrier runs only in profile-logs' setup_s"),
    ("blackbox.ledger_entries", "count", "lower", "peak_mem_mb on norm2-n20 (per_eval_log)"),
    ("problems.truth.calls", "count", "lower", "iters_per_s on norm2-n20; ops_per_s on profile-logs (make_run_result)"),
    ("problems.truth.self_s", "s", "lower", "iters_per_s on norm2-n20; ops_per_s on profile-logs (make_run_result)"),
    ("problems.feasible.calls", "count", "lower", "iters_per_s on norm2-n20; setup_s on profile-logs (moustache barrier)"),
    ("problems.feasible.self_s", "s", "lower", "iters_per_s on norm2-n20; setup_s on profile-logs (moustache barrier)"),
    ("estimation.record.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("estimation.record.self_s", "s", "lower", "iters_per_s on norm2-n20"),
    ("estimation.estimate.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("estimation.estimate.self_s", "s", "lower", "iters_per_s on norm2-n20"),
    ("estimation.incumbent.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("estimation.incumbent.self_s", "s", "lower", "iters_per_s on norm2-n20"),
    ("estimation.cache_points", "count", "lower", "peak_mem_mb, iters_per_s on norm2-n20"),
    ("estimation.revisit_frac", "ratio", "higher", "iters_per_s on norm2-n20"),
    ("solver.search_step.calls", "count", "lower", "iters_per_s on norm2-n20 (dp ops only)"),
    ("solver.search_step.self_s", "s", "lower",
     "iters_per_s on norm2-n20 dp; no change on its mp ops"),
    ("solver.search_step.scanned", "count", "lower", "iters_per_s on norm2-n20 dp"),
    ("solver.search_step.selected", "count", "lower", "draws_to_solve_gm.dp (behaviour)"),
    ("solver.search_step.select_frac", "ratio", "higher", "iters_per_s on norm2-n20 dp"),
    ("solver.poll_step.calls", "count", "lower", "iters_per_s on norm2-n20"),
    ("solver.poll_step.self_s", "s", "lower", "iters_per_s on norm2-n20"),
    ("solver.run.self_s", "s", "lower", "iters_per_s on norm2-n20 (loop overhead)"),
    ("solver.iterations", "count", "lower", "draws_to_solve_gm.* (behaviour)"),
    ("solver.write_log.self_s", "s", "lower", "ops_per_s on norm2-n20; setup_s on profile-logs"),
    ("solver.write_log.bytes", "B", "lower", "ops_per_s on norm2-n20; setup_s on profile-logs"),
    ("solver.read_log.self_s", "s", "lower", "ops_per_s on profile-logs"),
    ("normal.p_value.calls", "count", "lower", "iters_per_s on norm2-n20 (small share)"),
    ("normal.p_value.self_s", "s", "lower", "iters_per_s on norm2-n20 (small share)"),
    ("normal.phi_inv.calls", "count", "lower", "iters_per_s on norm2-n20 (small share)"),
    ("normal.phi_inv.self_s", "s", "lower", "iters_per_s on norm2-n20 (small share)"),
    ("precision.rho.calls", "count", "lower", "iters_per_s (small share)"),
    ("precision.rho.self_s", "s", "lower", "iters_per_s (small share)"),
    ("precision.update_r.calls", "count", "lower", "iters_per_s (small share)"),
    ("precision.update_r.self_s", "s", "lower", "iters_per_s (small share)"),
    ("precision.r_up", "count", "lower", "draws_to_solve_gm.*, solved_frac.* (behaviour)"),
    ("precision.r_down", "count", "lower", "draws_to_solve_gm.*, solved_frac.* (behaviour)"),
    ("profiles.make_run_result.self_s", "s", "lower", "ops_per_s, op_ms_p50 on profile-logs"),
    ("profiles.budget_to_solve.calls", "count", "lower", "ops_per_s on profile-logs"),
    ("profiles.performance_profile.self_s", "s", "lower", "ops_per_s on profile-logs"),
    ("profiles.data_profile.self_s", "s", "lower", "ops_per_s on profile-logs"),
    ("profiles.csv_render.self_s", "s", "lower", "ops_per_s, op_ms_p50 on profile-logs"),
    ("cli.cmd_profile.self_s", "s", "lower", "ops_per_s on profile-logs"),
    ("trace.overhead_x", "x", "lower",
     "none: untraced over traced ops_per_s, the cost of the tracing itself"),
]
