"""The optimization loop of adaptive-precision direct search.

One loop, ``run``, runs every variant: it owns the start point's check, every
stop decision, the precision index, the run log and the frame update, and
calls the step rule of ``config.variant`` once per iteration. In ``dp`` and ``mp`` an optional
search step re-estimates cached points that plausibly beat the incumbent,
the poll step evaluates a positive basis of mesh candidates around the
(possibly re-centred) incumbent to the target standard deviation rho(r),
and the outcome's p-value drives the frame and precision updates. The
fixed-precision baseline ``fixed`` runs the same poll step, observing each
new point once at ``sigma_fixed``, and scores the poll with p in {0, 1}.

A run is strictly sequential. Independent runs (across seeds, problems or
variants) share no state and may execute in parallel.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .blackbox import SIGMA_MAX, DrawLedger, NoisyBlackbox, Point, as_point, draws_for_sigma
from .estimation import EvaluationCache, sigma_to_reach
from .exceptions import (ConfigError, InfeasibleStartError, InvalidInputError, InvalidSigmaError,
                         NoIncumbentError)
from .mesh import IterationStatus, generate_poll, mesh_size, update_frame
from .normal import p_value, phi_inv
from .precision import VARIANTS, VariantRules, rho, update_r
from .problems import ProblemDef


def _check_real(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters, every one checked when the config is built; it is frozen after.

    ``variant`` names a row of ``precision.VARIANTS``, read as ``rules``. A field holds what
    the caller gave: an unset (None) ``beta_l``, ``beta_u`` or ``search_enabled`` is the
    variant's default, resolved by ``betas`` and ``searches``, so ``dataclasses.replace`` to
    another variant takes that variant's defaults. ``sigma_fixed`` is required for ``fixed``
    and rejected elsewhere. ``fixed`` checks, but ignores, the fields that only ``dp`` and
    ``mp`` read (README lists them), so one config file serves every algorithm of ``apmads
    bench``. A field of the wrong type or out of range raises ``ConfigError``, as do, for
    ``dp`` and ``mp``, a ``sigma_max`` above ``SIGMA_MAX`` and an ``r_init`` past the precision
    floor. A ``sigma_fixed`` outside (0, SIGMA_MAX] or without a finite draw cost raises
    ``InvalidSigmaError``. So every config can be run.
    """

    sigma_min: float = 0.0
    sigma_max: float = SIGMA_MAX
    r0: float = 0.0
    theta: float = 0.1
    variant: str = "dp"
    sigma_fixed: float | None = None
    beta_l: float | None = None
    beta_u: float | None = None
    dp_decrease_threshold: float = 0.05
    search_enabled: bool | None = None
    r_s: float = -5.0
    tau: float = 0.25
    delta_p0: float = 1.0
    r_init: float = 0.0
    stop_delta_p: float | None = None
    stop_draws: float = math.inf
    max_iterations: int = 1_000_000
    seed: int = 0

    @cached_property  # cached: the run's loop reads these three as plain attributes
    def rules(self) -> VariantRules:
        return VARIANTS[self.variant]

    @cached_property
    def betas(self) -> tuple[float, float]:
        default_l, default_u = self.rules.betas
        return (default_l if self.beta_l is None else self.beta_l,
                default_u if self.beta_u is None else self.beta_u)

    @cached_property
    def searches(self) -> bool:
        return self.rules.searches if self.search_enabled is None else self.search_enabled

    def __post_init__(self):
        if self.variant not in VARIANTS:
            variants = ", ".join(map(repr, VARIANTS))
            raise ConfigError(f"variant must be one of {variants}, got {self.variant!r}")
        rules = self.rules
        if (self.sigma_fixed is None) != rules.adaptive:
            raise ConfigError(f"sigma_fixed must be set for variant 'fixed' only, got "
                              f"{self.sigma_fixed!r} for {self.variant!r}")
        for name in ("sigma_min", "sigma_max", "r0", "theta",
                     "dp_decrease_threshold", "r_s", "tau", "delta_p0", "r_init", "stop_draws"):
            _check_real(name, getattr(self, name))
        for name in ("sigma_fixed", "beta_l", "beta_u", "stop_delta_p"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name))
        for name in ("max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
        if not isinstance(self.searches, bool):
            raise ConfigError(f"search_enabled must be true or false, got {self.search_enabled!r}")
        beta_l, beta_u = self.betas
        for name, ok, rule in (  # every value is a real number now
            ("sigma_min", self.sigma_min >= 0, "be >= 0"),
            ("sigma_max", math.isfinite(self.sigma_max) and self.sigma_max > self.sigma_min,
             "be finite and above sigma_min"),
            ("theta", 0.0 < self.theta < math.inf, "be positive and finite"),
            ("beta_l", 0.0 < beta_l <= 0.5, "lie in (0, 0.5]"),
            ("beta_u", 0.5 <= beta_u < 1.0, "lie in [0.5, 1)"),
            ("dp_decrease_threshold",
             not rules.lowers_r or 0.0 < self.dp_decrease_threshold < beta_l, "lie in (0, beta_l)"),
            ("r0", math.isfinite(self.r0), "be finite"),
            ("r_s", math.isfinite(self.r_s), "be finite"),
            ("r_init", math.isfinite(self.r_init), "be finite"),
            ("tau", 0.0 < self.tau < 1.0, "lie in (0, 1)"),
            ("delta_p0", 0.0 < self.delta_p0 < math.inf, "be positive and finite"),
            ("stop_delta_p", self.stop_delta_p is None or self.stop_delta_p > 0, "be positive"),
            ("stop_draws", self.stop_draws >= 0, "be >= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must {rule}, got {getattr(self, name)}")
        if self.searches and not rules.adaptive:
            raise ConfigError("search_enabled must be false for the fixed variant")
        if not self.searches and self.sigma_min != 0.0:
            raise ConfigError("sigma_min must be 0 when the search step is disabled "
                              f"(got sigma_min={self.sigma_min})")
        if not rules.adaptive:
            if not 0.0 < self.sigma_fixed <= SIGMA_MAX:
                raise InvalidSigmaError(f"sigma_fixed must lie in (0, {SIGMA_MAX}], "
                                        f"got {self.sigma_fixed}")
            draws_for_sigma(self.sigma_fixed)
        elif self.sigma_max > SIGMA_MAX:
            raise ConfigError(f"sigma_max {self.sigma_max} exceeds the observable cap {SIGMA_MAX}")
        elif (floor := _past_precision_floor(self, self.r_init)) is not None:
            # the schedule's values that set rho(floor); r_s only when floor is the search's
            names = ("r_init", "r_s") if floor != self.r_init else ("r_init",)
            values = ", ".join(f"{name} = {getattr(self, name)}"
                               for name in (*names, "r0", "theta", "sigma_min", "sigma_max"))
            raise ConfigError(f"{values} start the run past the precision floor: "
                              f"rho({floor}) = {rho(self, floor)} has no finite draw cost")


@dataclass(slots=True)
class IterationRecord:
    """One row of the run log.

    ``delta_p``, ``delta_m`` and ``r`` are the values used during the
    iteration; ``draws`` and the incumbent fields are taken at its end.
    The class has slots, so it holds only these fields.
    """

    k: int
    draws: float
    incumbent: Point
    f_inc: float
    sig_inc: float
    delta_p: float
    delta_m: float
    r: float
    p: float
    status: IterationStatus
    cache_size: int


@dataclass
class RunOutput:
    """Result of one run: the incumbent, the full log and the run state.

    ``stop_reason`` is "frame" (the frame fell below the stopping
    threshold, doubled to +inf, or its mesh size underflowed to 0),
    "budget" (the draw budget is spent), "max_iterations", or
    "precision-floor": the next iteration's target sigma has no finite
    draw cost, the ledger total overflowed, or a fused estimate
    overflowed (its observations' value / sigma**2 passed the largest
    float). The row of an iteration that overflowed an estimate logs
    p = 0.5 (no evidence) unless it is a barrier.
    """

    incumbent: Point
    records: list[IterationRecord]
    cache: EvaluationCache
    ledger: DrawLedger
    stop_reason: str


def observe_points(cache, blackbox, coords, sigma_for, rng) -> list[int | None]:
    """Observe each row of the (k, n) array ``coords`` at ``sigma_for(row)``, skipping None.

    ``row`` is the point's cache row, or None when it is not cached yet.
    Points go to ``blackbox.observe_batch`` and ``cache.record_batch`` in
    batches of distinct points. A point met again while its earlier
    occurrence is still pending flushes the batch first, so its sigma is
    chosen from the estimate that occurrence left: the cache, the ledger
    and ``rng`` end exactly as after one observe-and-record per point.
    (A poll repeats a point when ``delta_m * z`` rounds away against a
    large coordinate.) Returns the row of every point afterwards (None if
    never recorded).
    """
    keys = cache.keys(coords)
    find = cache.find
    batch: list[int] = []  # row positions in coords
    sigmas: list[float] = []
    pending: set[bytes] = set()

    def flush():
        values, feasible = blackbox.observe_batch(coords.take(batch, axis=0), sigmas, rng)
        cache.record_batch([keys[j] for j in batch], values, sigmas, feasible)

    for j, key in enumerate(keys):
        if key in pending:
            flush()
            batch, sigmas, pending = [], [], set()
        sigma = sigma_for(find(key))
        if sigma is not None:
            batch.append(j)
            sigmas.append(sigma)
            pending.add(key)
    if batch:
        flush()
    return [find(key) for key in keys]


def _poll_sigma(cache, config: SolverConfig, r: float):
    """``sigma_for`` of a poll at precision index ``r``, as the variant's row says.

    In ``fixed`` a point not yet cached gets one observation at ``sigma_fixed``
    and any other point none. Otherwise a feasible point gets one observation
    bringing sig_hat to rho(r), or none once it is there; a sigma clamped at
    ``SIGMA_MAX`` overshoots rho(r) (see ``sigma_to_reach``), so one always suffices.
    """
    if not config.rules.adaptive:
        sigma_fixed = config.sigma_fixed
        return lambda i: sigma_fixed if i is None else None
    sigma_target = rho(config, r)
    fresh = sigma_to_reach(math.inf, sigma_target, SIGMA_MAX)
    feasible_at, estimate_at = cache.feasible_at, cache.estimate_at

    def sigma_for(i: int | None):
        if i is None:
            return fresh
        if not feasible_at(i):
            return None
        return sigma_to_reach(estimate_at(i)[1], sigma_target, SIGMA_MAX)

    return sigma_for


def poll_step(
    center: Point,
    delta_p: float,
    r: float,
    config: SolverConfig,
    cache: EvaluationCache,
    blackbox: NoisyBlackbox,
    rng,
) -> tuple[Point | None, IterationStatus, np.ndarray]:
    """The poll of every variant: observe ``center`` and its candidates, pick the best.

    Each point is observed as ``_poll_sigma`` says: to rho(config, r) in ``dp``
    and ``mp``, once at ``sigma_fixed`` in ``fixed``. Returns the first candidate
    with the lowest estimate (None exactly when no candidate is feasible), the
    iteration status, and the ``(m, n)`` array (m <= 2n) of candidates that
    ``generate_poll`` returned.
    """
    coords = generate_poll(center, delta_p, rng)
    rows = observe_points(cache, blackbox, np.concatenate(([center], coords)),
                          _poll_sigma(cache, config, r), rng)
    f_center, *f_poll = map(cache.estimate_arrays()[0].item, rows)
    best, best_f = None, math.inf
    for i, f in zip(rows[1:], f_poll):
        if f < best_f:
            best, best_f = i, f
    if best is None:
        return None, IterationStatus.BARRIER, coords
    status = IterationStatus.SUCCESS if best_f < f_center else IterationStatus.FAILURE
    return cache.point_at(best), status, coords


def search_step(
    cache: EvaluationCache,
    incumbent: Point,
    r: float,
    config: SolverConfig,
    blackbox: NoisyBlackbox,
    rng,
) -> Point:
    """Re-estimate promising cached points, then return the cache minimiser.

    ``config`` gives the schedule, ``r_s`` and ``tau``. A cached point
    qualifies when the plausibility that it beats the incumbent is at
    least ``tau`` on the pre-search estimates; each qualifying point
    receives one observation at rho(config, r - r_s). The incumbent
    compares against itself with plausibility exactly 0.5, so for
    tau <= 0.5 its own estimate is re-audited every call; this is what
    flushes out incumbents whose low estimates were lucky noise. Once an
    estimate has overflowed (``cache.overflowed``), ``incumbent`` is
    returned unchanged: the run stops after this iteration. So is an
    incumbent without a finite estimate (an empty cache, say), and then
    nothing is observed.
    """
    f_inc, sig_inc = cache.estimate(incumbent)
    if not math.isfinite(f_inc):
        return incumbent
    sigma_s = rho(config, r - config.r_s)
    # p_value(x, incumbent) >= tau is equivalent to z >= phi_inv(tau)
    rows = cache.searched_rows(f_inc, sig_inc, phi_inv(config.tau))
    observe_points(cache, blackbox, cache.coords_at(rows), lambda i: sigma_s, rng)
    return incumbent if cache.overflowed else cache.incumbent()


def _past_precision_floor(config: SolverConfig, r: float):
    """The precision index of an iteration at ``r`` that cannot be paid for, or None.

    The poll observes at rho(r) and, with the search enabled, the search
    at rho(r - r_s). Past the precision floor the draw cost of such a
    sigma overflows (and ``sigma_to_reach`` returns 0); the first index
    whose sigma has no finite draw cost is returned.
    """
    for index in (r, r - config.r_s) if config.searches else (r,):
        try:
            draws_for_sigma(rho(config, index))
        except InvalidSigmaError:
            return index
    return None


def _stop_reason(delta_p, stop_delta_p, draws, cache, k, r, config: SolverConfig) -> str | None:
    """Why the loop stops before iteration ``k`` at precision index ``r``, or None to go on.

    A frame that doubled to +inf, or whose mesh size delta_p**2 underflows
    to 0, also ends the run with "frame", since no poll can step on that
    mesh. The last test is the precision floor of ``dp`` and ``mp``: an
    iteration at ``r`` whose target sigma has no finite draw cost.
    """
    if delta_p < stop_delta_p or delta_p == math.inf or mesh_size(delta_p) == 0.0:
        return "frame"
    if draws == math.inf or cache.overflowed:  # the ledger total or an estimate overflowed
        return "precision-floor"
    if not draws < config.stop_draws:
        return "budget"
    if k > config.max_iterations:
        return "max_iterations"
    if config.rules.adaptive and _past_precision_floor(config, r) is not None:
        return "precision-floor"
    return None


def _adaptive_step(config, blackbox, cache, incumbent, delta_p, r, rng):
    """The step of ``dp`` and ``mp`` at index ``r``; returns ``(status, p, next r)``."""
    x_s = incumbent
    if config.searches:
        x_s = search_step(cache, incumbent, r, config, blackbox, rng)
    x_c, status, _ = poll_step(x_s, delta_p, r, config, cache, blackbox, rng)
    if status is IterationStatus.BARRIER:
        return status, 0.0, r
    if cache.overflowed:  # no evidence either way; the run stops after this iteration
        return status, 0.5, r
    p = p_value(cache, x_c, x_s)
    return status, p, update_r(config, r, p)


def _fixed_step(config, blackbox, cache, incumbent, delta_p, r, rng):
    """The step of ``fixed``: ``poll_step``, scored by strict decrease of single observations.

    p is 1.0 on success and 0.0 otherwise, so the frame doubles on success and
    halves on any other outcome; ``r`` is returned unchanged. On an empty cache
    (iteration 1) the start is observed first, so its noise precedes the poll direction.
    """
    if not len(cache):
        observe_points(cache, blackbox, np.array([incumbent]), _poll_sigma(cache, config, r), rng)
    _, status, _ = poll_step(incumbent, delta_p, r, config, cache, blackbox, rng)
    return status, float(status is IterationStatus.SUCCESS), r


def run(problem: ProblemDef, config: SolverConfig) -> RunOutput:
    """Minimise ``problem`` with the step rule of ``config.variant``.

    The loop holds the incumbent, the frame size and the precision index
    r: ``config.r_init`` for ``dp`` and ``mp``, and constantly 0 for
    ``fixed``. Each iteration's step runs its observations and returns
    ``(status, p, next r)``; the loop logs the row and updates the frame.
    ``_stop_reason`` makes every stop decision: the frame size falls below
    the stopping threshold (the problem default unless the config
    overrides it), the draw budget is spent, the iteration cap is hit, or
    the next iteration cannot be paid for; ``RunOutput.stop_reason`` says which.
    ``SolverConfig`` checks the settings when built; ``run`` checks the start point.
    """
    start = as_point(problem.start)
    blackbox = problem.blackbox()
    if not blackbox.feasible(start):
        raise InfeasibleStartError(f"start point {start} is infeasible")
    step, r = (_adaptive_step, config.r_init) if config.rules.adaptive else (_fixed_step, 0.0)
    beta_l, beta_u = config.betas

    rng = np.random.default_rng(config.seed)
    cache = EvaluationCache()
    delta_p = config.delta_p0
    stop_delta_p = problem.stop_delta_p if config.stop_delta_p is None else config.stop_delta_p
    records: list[IterationRecord] = []
    incumbent = start
    k = 1
    ledger = blackbox.ledger
    while (
        stop_reason := _stop_reason(delta_p, stop_delta_p, ledger.total_draws, cache, k, r, config)
    ) is None:
        status, p, next_r = step(config, blackbox, cache, incumbent, delta_p, r, rng)
        try:
            incumbent = cache.incumbent()
        except NoIncumbentError:
            if not cache.overflowed:
                raise
            # no finite estimate is left to choose from: log the last incumbent
        f_inc, sig_inc = cache.estimate(incumbent)
        records.append(IterationRecord(
            k=k, draws=ledger.total_draws, incumbent=incumbent, f_inc=f_inc,
            sig_inc=sig_inc, delta_p=delta_p, delta_m=mesh_size(delta_p), r=r, p=p,
            status=status, cache_size=len(cache),
        ))
        delta_p = update_frame(delta_p, status, p, beta_l, beta_u)
        r = next_r
        k += 1
    return RunOutput(incumbent, records, cache, ledger, stop_reason)


def run_fixed_precision_baseline(problem: ProblemDef, sigma_fixed: float,
                                 config: SolverConfig) -> RunOutput:
    """``run`` with ``config`` made a fixed run at ``sigma_fixed``.

    Its only caller is the benchmark (``perfbench/``); call ``run`` instead.
    """
    return run(problem, replace(config, variant="fixed", sigma_fixed=sigma_fixed))


# --- run-log serialisation ---------------------------------------------------
#
# Fixed header: k,draws,inc0..inc{n-1},f_inc,sig_inc,delta_p,delta_m,r,p,status,
# cache_size. Floats use 17 significant digits so a parsed log replays the
# original values exactly. Both directions work a column (or a row) at a
# time rather than a field at a time: a log is thousands of rows.

_STATUS = {status.value: status for status in IterationStatus}


def log_header(dimension: int) -> str:
    coords = ",".join(f"inc{i}" for i in range(dimension))
    return f"k,draws,{coords},f_inc,sig_inc,delta_p,delta_m,r,p,status,cache_size"


def _log_lines(records: list[IterationRecord], dimension: int | None):
    """The run log's header line, then one line per record, each ending in a newline.

    Every incumbent must have ``dimension`` coordinates (by default, as
    many as the first record's), else ``InvalidInputError``. That is
    checked before this returns, so a caller can check a log before it
    opens a file.
    """
    if dimension is None:
        if not records:
            raise InvalidInputError("cannot infer dimension from an empty log")
        dimension = len(records[0].incumbent)
    bad = next((rec for rec in records if len(rec.incumbent) != dimension), None)
    if bad is not None:
        raise InvalidInputError(
            f"a record does not fit a log row with {dimension} coordinates: "
            f"the incumbent at k={bad.k} has {len(bad.incumbent)}"
        )
    # one %-template per log: fills a row faster than a format call per field
    row = "%s,%.17g," + "%.17g," * dimension + "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\n"
    rows = (
        row % (rec.k, rec.draws, *rec.incumbent, rec.f_inc, rec.sig_inc, rec.delta_p,
               rec.delta_m, rec.r, rec.p, rec.status.value, rec.cache_size)
        for rec in records
    )
    return itertools.chain((log_header(dimension) + "\n",), rows)


def log_to_csv(records: list[IterationRecord], dimension: int | None = None) -> str:
    """The run log as CSV text: the header, then one row per record.

    Every incumbent must have ``dimension`` coordinates (by default, as
    many as the first record's), else ``InvalidInputError``.
    """
    return "".join(_log_lines(records, dimension))


def write_log(records: list[IterationRecord], path, dimension: int | None = None) -> None:
    """Write ``log_to_csv(records, dimension)`` to ``path``, a line at a time.

    The text is never held whole. A record that does not fit raises
    ``InvalidInputError`` before ``path`` is opened, so an existing file
    is left as it was.
    """
    lines = _log_lines(records, dimension)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def log_columns(text: str) -> tuple[int, list[tuple[str, ...]], list[list]]:
    """The run log's dimension n, its fields as text columns, and those columns parsed.

    The one reader of run logs, for ``parse_log`` and ``apmads profile``. Blank
    lines are skipped. The header must be ``log_header(n)``, the writer's, for
    some n >= 1. An empty log, any other header, and a row with the wrong number
    of fields, a field that does not parse (an integer for ``k`` and
    ``cache_size``, a float elsewhere, NaN only in ``f_inc``) or that holds text
    ``write_log`` never writes (``_stray_text``), or an unknown status all raise
    ``InvalidInputError``; a bad row is named by its line number.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise InvalidInputError("empty log")
    header = lines[0].split(",")
    n = len(header) - 10  # log_header(n) has n + 10 columns when n >= 1
    if lines[0] != log_header(n):
        raise InvalidInputError(f"unrecognised log header: {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    # one parser per column, in the header's order
    parsers = [int] + [float] * (len(header) - 3) + [_STATUS.__getitem__, int]
    if any(len(row) != len(header) for row in rows) or _stray_text("".join(lines[1:])):
        raise _row_error(text, header, parsers)
    fields = list(zip(*rows)) or [()] * len(header)
    try:
        columns = [list(map(parse, column)) for parse, column in zip(parsers, fields)]
    except (KeyError, ValueError):
        raise _row_error(text, header, parsers) from None
    # a column sums to NaN if it holds a NaN (or +inf and -inf); f_inc may hold one
    floats = columns[1:n + 2] + columns[n + 3:-2]
    if any(math.isnan(sum(c)) and any(map(math.isnan, c)) for c in floats):
        raise _row_error(text, header, parsers)
    return n, fields, columns


def _stray_text(text: str) -> bool:
    """Whether ``text``, a log's fields, holds a ``_``, a space, a tab or a non-ASCII character.

    ``float`` and ``int`` accept each, as in ``1_000``, a padded ``0.5`` or an
    Arabic-Indic digit, but ``write_log`` writes none, and ``apmads profile``
    copies some fields as written. Any other whitespace either ends a line or is
    refused by ``float`` and ``int``. The check is a few scans at C speed, so
    ``log_columns`` runs it over all the rows' text at once.
    """
    return not text.isascii() or "_" in text or " " in text or "\t" in text


def parse_log(text: str) -> list[IterationRecord]:
    """The records of a run-log CSV, losslessly; ``log_columns`` reads it, or refuses it."""
    n, _, columns = log_columns(text)
    k, draws, *fields = columns
    return list(map(IterationRecord, k, draws, zip(*fields[:n]), *fields[n:]))


def _row_error(text: str, header: list[str], parsers: list) -> InvalidInputError:
    """The error naming the first row of ``text`` that ``log_columns`` refuses."""
    rows = ((i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln)
    next(rows)  # the header
    for lineno, line in rows:
        parts = line.split(",")
        problem = None
        if len(parts) != len(header):
            problem = f"expected {len(header)} fields, got {len(parts)}"
        else:
            for name, parse, part in zip(header, parsers, parts):
                try:
                    if _stray_text(part):
                        raise ValueError
                    if (value := parse(part)) != value and name != "f_inc":
                        raise ValueError  # NaN; f_inc is inf / inf once its fusion sums overflow
                except (KeyError, ValueError):
                    problem = f"bad {name} {part!r}"
                    break
        if problem is not None:
            return InvalidInputError(f"malformed log row at line {lineno}: {problem}: {line!r}")
    raise AssertionError("log_columns failed on a log whose rows all parse")


def read_log(path) -> list[IterationRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_log(fh.read())
