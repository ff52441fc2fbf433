"""Draw-budget post-processing of finished runs.

The accuracy of a run at budget N is the normalised best-so-far progress
of the incumbent's true objective value:

    f_acc = (truth(start) - best truth so far) / (truth(start) - truth(optimum))

so f_acc is 0 at the start point, 1 at the optimum, and nondecreasing in
the budget. Performance and data profiles then report, per algorithm, the
fraction of (problem, seed) instances solved to tolerance tau within a
budget ratio or a reference-estimate count. All computations are pure
functions of the logs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blackbox import draws_for_sigma
from .exceptions import DegenerateNormalizationError, InvalidInputError
from .mesh import IterationStatus, mesh_size, on_mesh
from .precision import VARIANTS
from .problems import ProblemDef
from .solver import IterationRecord, log_columns

# Standard deviation of the reference estimate that data profiles count in.
REFERENCE_SIGMA = 1e-3

# The first line of ``accuracy_csv``; its rows follow, sorted by (algo, problem, seed).
ACCURACY_HEADER = "budget,algo,problem,seed,f_acc\n"


@dataclass
class RunResult:
    """A finished run annotated with the true values of its incumbents."""

    algorithm: str
    problem: str
    seed: int
    records: list[IterationRecord]
    truth_trace: list[float]
    start_truth: float
    best_truth: float


@dataclass(frozen=True)
class SolveBudgets:
    """A run's (algorithm, problem, seed) and its ``budget_to_solve`` at some taus.

    ``budgets`` holds (tau, budget) pairs, all ``apmads profile`` keeps of a log. The
    performance and data profiles at those taus need no more, so they take a ``SolveBudgets``
    wherever they take a ``RunResult``; ``budget_to_solve`` at another tau raises.
    """

    algorithm: str
    problem: str
    seed: int
    budgets: tuple[tuple[float, float], ...]

    def budget(self, tau: float) -> float:
        for level, budget in self.budgets:
            if level == tau:
                return budget
        raise InvalidInputError(f"no solve budget at tau={tau} for "
                                f"{(self.algorithm, self.problem, self.seed)}")


def make_run_result(
    problem: ProblemDef, algorithm: str, seed: int, records: list[IterationRecord]
) -> RunResult:
    """Annotate a run log with the problem's truth oracle, by the rules of ``_truth_trace``."""
    trace = _truth_trace(problem, ((rec.k, rec.incumbent) for rec in records))
    return RunResult(algorithm, problem.name, seed, records, trace, problem.start_truth,
                     problem.best_truth)


def _truth_trace(problem: ProblemDef, rows) -> list[float]:
    """The truth value of the incumbent of each (k, incumbent) row.

    An incumbent equal to the previous row's shares its truth value, unless it has a zero
    coordinate: -0.0 == 0.0, but the oracle may tell them apart. An incumbent without
    ``problem.dimension`` coordinates raises ``InvalidInputError``.
    """
    trace = []
    last = truth = None
    for k, x in rows:
        if x != last or 0.0 in x:
            if len(x) != problem.dimension:
                raise InvalidInputError(f"incumbent at k={k} has {len(x)} coordinates; "
                                        f"{problem.name} has dimension {problem.dimension}")
            last, truth = x, problem.truth(x)
        trace.append(truth)
    return trace


def accuracy_curve(result: RunResult) -> tuple[np.ndarray, np.ndarray]:
    """(budgets, best-so-far accuracy) aligned with the run log, as read-only arrays."""
    return _curve([rec.draws for rec in result.records], result.truth_trace,
                  result.start_truth, result.best_truth)


def _curve(draws, truths, start_truth: float, best_truth: float):
    """``accuracy_curve`` of a run's draws and truth trace."""
    denom = start_truth - best_truth
    if denom == 0.0:
        raise DegenerateNormalizationError(f"start and optimum share the value {best_truth}")
    budgets = np.array(draws, dtype=float)
    best = np.minimum.accumulate(np.asarray(truths, dtype=float))
    facc = (start_truth - best) / denom
    budgets.flags.writeable = facc.flags.writeable = False
    return budgets, facc


def accuracy(result: RunResult, budget: float) -> float:
    """Accuracy of the best incumbent logged within ``budget`` draws."""
    if not budget >= 0:
        raise InvalidInputError(f"budget must be >= 0, got {budget}")
    budgets, facc = accuracy_curve(result)
    i = int(np.searchsorted(budgets, budget, side="right")) - 1
    return float(facc[i]) if i >= 0 else 0.0


def budget_to_solve(result: RunResult | SolveBudgets, tau: float) -> float:
    """Smallest logged budget reaching accuracy 1 - tau, +inf if never; a SolveBudgets' own."""
    if not 0.0 < tau < 1.0:
        raise InvalidInputError(f"tau must lie in (0, 1), got {tau}")
    if isinstance(result, SolveBudgets):
        return result.budget(tau)
    return _solve_budgets(accuracy_curve(result), (tau,))[0]


def _solve_budgets(curve, taus) -> tuple[float, ...]:
    """For each of ``taus``, the first budget of ``curve`` at accuracy 1 - tau; +inf if none."""
    budgets, facc = curve
    hits = [np.flatnonzero(facc >= 1.0 - tau) for tau in taus]
    return tuple(float(budgets[hit[0]]) if hit.size else math.inf for hit in hits)


def _solve_budget_table(results, tau: float) -> dict[str, np.ndarray]:
    """Per-algorithm solve budgets over the sorted (problem, seed) instances.

    Every algorithm's array follows the same instance order; a run an
    algorithm lacks costs +inf.
    """
    budgets = {}
    for res in results:
        key = (res.algorithm, (res.problem, res.seed))
        if key in budgets:
            raise InvalidInputError(f"duplicate run for {key}")
        budgets[key] = budget_to_solve(res, tau)
    if not budgets:
        raise InvalidInputError("no runs given")
    instances = sorted({inst for _, inst in budgets})
    return {
        algo: np.array([budgets.get((algo, inst), math.inf) for inst in instances])
        for algo in sorted({algo for algo, _ in budgets})
    }


def _solved_fractions(costs: dict[str, np.ndarray], grid: np.ndarray) -> dict[str, np.ndarray]:
    """Per algorithm, the fraction of instances whose cost is at most each grid value."""
    return {
        algo: np.searchsorted(np.sort(own), grid, side="right") / own.size
        for algo, own in costs.items()
    }


def performance_profile(results, tau: float):
    """Solved fraction per algorithm versus budget ratio to the per-instance best.

    Returns (alphas, {algorithm: fractions}) where both arrays share the
    breakpoint grid (ratios at which some fraction changes, starting at 1).
    Instances solved by no algorithm stay in the denominator.
    """
    budgets = _solve_budget_table(results, tau)
    best = np.min(list(budgets.values()), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {
            algo: np.where(np.isfinite(own) & (best > 0), own / best, math.inf)
            for algo, own in budgets.items()
        }
    every = np.concatenate(list(ratios.values()))
    alphas = np.unique(np.append(every[np.isfinite(every) & (every > 1.0)], 1.0))
    return alphas, _solved_fractions(ratios, alphas)


def data_profile(results, tau: float, sigma_ref: float = REFERENCE_SIGMA):
    """Solved fraction per algorithm versus groups of reference estimates.

    The abscissa counts how many observations at guaranteed standard
    deviation ``sigma_ref`` (each worth ``draws_for_sigma(sigma_ref)``
    draws, which vets it) would fit in the consumed budget.
    """
    n_ref = draws_for_sigma(sigma_ref)
    groups_of = {algo: own / n_ref for algo, own in _solve_budget_table(results, tau).items()}
    every = np.concatenate(list(groups_of.values()))
    groups = np.unique(every[np.isfinite(every)])
    if not groups.size:
        groups = np.zeros(1)
    return groups, _solved_fractions(groups_of, groups)


# --- CSV renderings -----------------------------------------------------------
#
# Floats use 17 significant digits, like the run log.


def performance_profile_csv(results, tau: float) -> str:
    return _profile_csv("alpha", *performance_profile(results, tau))


def data_profile_csv(results, tau: float, sigma_ref: float = REFERENCE_SIGMA) -> str:
    return _profile_csv("groups", *data_profile(results, tau, sigma_ref))


def _profile_csv(abscissa: str, xs: np.ndarray, fractions: dict) -> str:
    lines = [f"{abscissa},algo,fraction"]
    columns = [(algo, fractions[algo].tolist()) for algo in sorted(fractions)]
    for i, x in enumerate(xs.tolist()):
        lines.extend([f"{x:.17g},{algo},{column[i]:.17g}" for algo, column in columns])
    lines.append("")
    return "\n".join(lines)


def accuracy_csv(results) -> str:
    """``ACCURACY_HEADER``, then each run's rows, by (algorithm, problem, seed)."""
    ordered = sorted(results, key=lambda res: (res.algorithm, res.problem, res.seed))
    return "".join([ACCURACY_HEADER, *(run_outputs(res)[0] for res in ordered)])


def convergence_csv(result: RunResult) -> str:
    """Truth-versus-draws curve of one run (plus the estimates for context)."""
    return run_outputs(result)[1]


def run_outputs(result: RunResult) -> tuple[str, str]:
    """The run's rows of ``accuracy_csv`` and its ``convergence_csv``.

    ``_run_rows`` renders the records' fields in ``%.17g`` form, as ``write_log`` writes them.
    """
    columns = (["%.17g" % getattr(rec, name) for rec in result.records]
               for name in ("draws", "f_inc", "sig_inc"))
    return _run_rows(f"{result.algorithm},{result.problem},{result.seed}", *columns,
                     result.truth_trace, accuracy_curve(result)[1].tolist())


def log_outputs(problem: ProblemDef, algorithm: str, seed: int, text: str, taus):
    """A log's ``budget_to_solve`` at each of ``taus`` and its ``run_outputs``, from its text.

    The same as from ``make_run_result(problem, algorithm, seed, parse_log(text))``,
    without building records; a log is refused as that call refuses it. The log's
    draws, f_inc and sig_inc fields are copied, so the outputs are the same whenever
    those are in ``%.17g`` form, as ``write_log`` writes them. Each tau must lie in (0, 1).
    """
    n, fields, columns = log_columns(text)
    truths = _truth_trace(problem, zip(columns[0], zip(*columns[2:n + 2])))
    curve = _curve(columns[1], truths, problem.start_truth, problem.best_truth)
    acc, conv = _run_rows(f"{algorithm},{problem.name},{seed}", fields[1], fields[n + 2],
                          fields[n + 3], truths, curve[1].tolist())
    return _solve_budgets(curve, taus), acc, conv


def _run_rows(run: str, draws, f_inc, sig_inc, truths, facc) -> tuple[str, str]:
    """A run's rows of ``accuracy_csv`` and its ``convergence_csv``: the one renderer of both.

    ``draws``, ``f_inc`` and ``sig_inc`` are text; ``truths`` and ``facc`` are formatted here.
    """
    acc = "".join([f"{d},{run},{f}\n" for d, f in zip(draws, _formatted(facc))])
    conv = "".join(["draws,f_true_inc,f_inc,sig_inc\n"] + [
        f"{d},{t},{f},{s}\n" for d, t, f, s in zip(draws, _formatted(truths), f_inc, sig_inc)])
    return acc, conv


def _formatted(values) -> list[str]:
    """``%.17g`` of each value, once per run of equal values; a zero each time, as -0.0 == 0.0."""
    out, last, text = [], None, None
    for value in values:
        if value != last or value == 0.0:
            last, text = value, "%.17g" % value
        out.append(text)
    return out


# --- log validation -----------------------------------------------------------


def validate_records(
    records: list[IterationRecord],
    problem: ProblemDef | None = None,
    variant: str | None = None,
) -> list[tuple[str, bool, str]]:
    """Structural invariant checks on a parsed run log.

    Returns (check name, passed, detail) triples. When the problem is
    known, so are the incumbents' dimension and the start point; mesh
    membership of the logged incumbents (exact rational residuals against
    the finest mesh so far) is then checked, if the dimension check passes.
    A ``variant`` whose rules never lower r (``mp``, ``fixed``) is checked for it;
    one that is not None and not a key of ``VARIANTS`` raises ``InvalidInputError``.
    """
    if variant is not None and variant not in VARIANTS:
        raise InvalidInputError(f"variant must be None or one of {list(VARIANTS)}, got {variant!r}")
    checks: list[tuple[str, bool, str]] = []

    ks = [rec.k for rec in records]
    checks.append(("iteration-counter", ks == list(range(1, len(records) + 1)), ""))

    draws = [rec.draws for rec in records]
    ok = all(b >= a for a, b in zip(draws, draws[1:])) and all(d >= 0 for d in draws)
    checks.append(("draws-nondecreasing", ok, ""))

    ok = all(rec.delta_m == mesh_size(rec.delta_p) for rec in records)
    checks.append(("mesh-frame-coupling", ok, "delta_m == min(delta_p, delta_p^2)"))

    ok = all(0.0 <= rec.p <= 1.0 for rec in records)
    checks.append(("p-in-unit-interval", ok, ""))

    sizes = [rec.cache_size for rec in records]
    ok = all(b >= a for a, b in zip(sizes, sizes[1:]))
    checks.append(("cache-size-nondecreasing", ok, ""))

    ok = all(
        rec.p >= 0.5 if rec.status is IterationStatus.SUCCESS else True
        for rec in records
    ) and all(
        rec.p <= 0.5 if rec.status is IterationStatus.FAILURE else True
        for rec in records
    )
    checks.append(("status-p-consistency", ok, "success implies p >= 0.5"))

    if variant is not None and not VARIANTS[variant].lowers_r:
        rs = [rec.r for rec in records]
        ok = all(b >= a for a, b in zip(rs, rs[1:]))
        checks.append(("r-nondecreasing", ok, "the variant never lowers r"))

    if problem is None or not records:
        return checks
    n = problem.dimension
    bad = next((rec.k for rec in records if len(rec.incumbent) != n), None)
    detail = "" if bad is None else f"incumbent at k={bad} does not have {n} coordinates"
    checks.append(("dimension", bad is None, detail))
    if bad is not None:
        return checks  # on_mesh would zip the incumbent against a start of another length

    delta_min = math.inf
    ok = True
    detail = ""
    for rec in records:
        delta_min = min(delta_min, rec.delta_m)
        if not on_mesh(rec.incumbent, problem.start, delta_min):
            ok = False
            detail = f"incumbent off mesh at k={rec.k}"
            break
    checks.append(("incumbents-on-mesh", ok, detail))
    return checks
