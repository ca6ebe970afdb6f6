"""Compression advisors: the paper's "framework for informed decisions".

Four advisors answer the title question at different fidelities.  Each
prices candidates from one sweep kind, and the two (codec, bound)
searches rank them through one objective table:

- :class:`Advisor` evaluates the (codec, bound) grid at the nominal clock
  through :class:`~repro.core.tradeoff.TradeoffAnalyzer` and recommends the
  best plan satisfying every Section-III benefit condition.
- :class:`DvfsAdvisor` opens the frequency axis: it searches the full
  (frequency × codec × rel_bound) space per scenario, keeps the quality-
  feasible points, computes the time/energy Pareto frontier, compares
  race-to-idle against slow-and-steady for the winning configuration, and
  emits a :class:`CompressionAdvice` record answering *compress or not, with
  what, at what frequency* — the Ferragina–Tosoni observation that the
  energy-optimal and throughput-optimal operating points diverge, applied to
  compressed I/O.
- :class:`DalyAdvisor` lifts the question to whole-application scale:
  periodic checkpointing under failures, where compression shrinks the
  checkpoint cost, shifts the Young/Daly-optimal interval, and changes the
  expected wasted work — so the compress-or-not verdict can *flip* relative
  to the single-write analysis.  It emits a :class:`CheckpointAdvice`.
- :class:`ClusterAdvisor` lifts it to machine scale: concurrent tenants
  share one PFS, so each tenant's write time depends on what *everyone
  else* writes.  It sweeps every per-tenant compression mix of a scenario
  through the ``cluster`` kind and answers: does everyone compressing
  reduce global contention and machine-wide energy, which mix wins, and
  does contention flip the dedicated-machine verdict?  It emits a
  :class:`ClusterAdvice`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.formulation import CompressionPlan
from repro.core.tradeoff import TradeoffAnalyzer, TradeoffRecord
from repro.errors import ConfigurationError

__all__ = [
    "Recommendation",
    "Advisor",
    "CompressionAdvice",
    "DvfsAdvisor",
    "CheckpointAdvice",
    "DalyAdvisor",
    "ClusterAdvice",
    "ClusterAdvisor",
    "pareto_frontier",
]

#: How each objective ranks candidates: the winner has the smallest key.
#: Ties on the objective break toward fewer joules, then the faster clock.
#: Not compressing has ratio 1.0, so under "ratio" any feasible codec wins.
_OBJECTIVE_KEYS = {
    "energy": lambda p: (p.total_energy_j, p.total_time_s, -p.freq_ghz),
    "time": lambda p: (p.total_time_s, p.total_energy_j),
    "ratio": lambda p: (-p.ratio, p.total_energy_j, -p.freq_ghz),
}


def _objective_key(objective: str):
    """The ranking key for ``objective``; an unknown objective raises."""
    if objective not in _OBJECTIVE_KEYS:
        raise ConfigurationError(
            f"objective must be one of {tuple(_OBJECTIVE_KEYS)}, got {objective!r}"
        )
    return _OBJECTIVE_KEYS[objective]


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one dataset."""

    plan: CompressionPlan | None  # None = do not compress
    objective: str
    psnr_min_db: float
    rationale: str
    record: TradeoffRecord | None
    alternatives: tuple[TradeoffRecord, ...]

    @property
    def should_compress(self) -> bool:
        return self.plan is not None


class Advisor:
    """Recommend a (codec, bound) plan, or advise against compression."""

    def __init__(self, analyzer: TradeoffAnalyzer | None = None):
        self.analyzer = analyzer or TradeoffAnalyzer()

    def recommend(
        self,
        dataset: str,
        psnr_min_db: float = 60.0,
        objective: str = "energy",
        codecs=("sz2", "sz3", "zfp", "qoz", "szx"),
        bounds=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        require_time_benefit: bool = True,
        compression: str | None = None,
    ) -> Recommendation:
        """Pick the best plan meeting Eq. 5 (and, optionally, Eq. 3-4).

        ``objective``:

        - ``"energy"`` — minimize compress+write energy (Eq. 4 LHS);
        - ``"ratio"``  — maximize compression ratio (storage-bound sites);
        - ``"time"``   — minimize compress+write time (Eq. 3 LHS).

        ``compression`` (a spec string, see :mod:`repro.dataset.spec`)
        overrides ``codecs``/``bounds``: ``lossy`` pins both, ``auto``
        filters the bound grid to its quality floor.
        """
        key = _objective_key(objective)
        records = self.analyzer.evaluate(
            dataset,
            codecs=codecs,
            bounds=bounds,
            psnr_min_db=psnr_min_db,
            compression=compression,
        )
        feasible = [
            r
            for r in records
            if r.conditions.quality_acceptable
            and r.conditions.energy_beneficial
            and (r.conditions.time_beneficial or not require_time_benefit)
        ]
        best = min(feasible, key=key) if feasible else None
        if best is None:
            rationale = (
                "No (codec, bound) choice met the quality floor while "
                "beating uncompressed I/O in energy"
                + (" and time" if require_time_benefit else "")
                + "; write the data uncompressed (Eq. 3-5 infeasible)."
            )
        else:
            rationale = (
                f"{best.plan} meets PSNR >= {psnr_min_db:.0f} dB "
                f"({best.psnr_db:.1f} dB) with ratio {best.ratio:.1f}x, saving "
                f"{best.conditions.net_energy_saving_j:.0f} J and "
                f"{best.conditions.net_time_saving_s:.2f} s versus uncompressed "
                f"I/O through {best.io_library} (objective: {objective})."
            )
        others = records if best is None else [r for r in feasible if r is not best]
        return Recommendation(
            plan=best.plan if best else None,
            objective=objective,
            psnr_min_db=psnr_min_db,
            rationale=rationale,
            record=best,
            alternatives=tuple(others),
        )


# -- the DVFS-aware advisor ---------------------------------------------------


def pareto_frontier(points) -> tuple:
    """Non-dominated subset of DVFS points in (total_time_s, total_energy_j).

    A point survives unless another point is at least as fast *and* at least
    as frugal (and strictly better on one axis).  Returned sorted by time,
    fastest first — walking the tuple trades seconds for joules
    monotonically.
    """
    pts = sorted(points, key=lambda p: (p.total_time_s, p.total_energy_j))
    frontier = []
    best_energy = float("inf")
    for p in pts:
        if p.total_energy_j < best_energy - 1e-12:
            frontier.append(p)
            best_energy = p.total_energy_j
    return tuple(frontier)


@dataclass(frozen=True)
class CompressionAdvice:
    """The DVFS advisor's verdict: compress or not, with what, at what clock.

    ``race_to_idle_energy_j`` / ``slow_and_steady_energy_j`` compare the two
    canonical DVFS policies for the *chosen* (codec, bound) family over a
    common deadline — the family's slowest evaluated configuration.  Race
    runs at ``fmax`` and idles out the window; slow-and-steady occupies the
    window at the slowest clock.  Whichever is cheaper decides
    ``prefer_race_to_idle``.
    """

    dataset: str
    cpu: str
    io_library: str
    psnr_min_db: float
    objective: str  # energy | time | ratio
    compress: bool
    codec: str | None  # None = write uncompressed
    rel_bound: float | None
    freq_ghz: float
    time_s: float
    energy_j: float
    baseline_time_s: float  # uncompressed write at the nominal clock
    baseline_energy_j: float
    energy_saving_j: float
    time_saving_s: float
    race_to_idle_energy_j: float
    slow_and_steady_energy_j: float
    chosen_deadline_energy_j: float  # chosen point padded to the same window
    prefer_race_to_idle: bool
    pareto: tuple  # DvfsPoint frontier, fastest first
    chosen: object  # the winning DvfsPoint
    rationale: str

    @property
    def chosen_beats_both_policies(self) -> bool:
        """True when the (interior) chosen frequency beats both extremes
        under the common deadline — follow the chosen plan, not a policy."""
        return self.chosen_deadline_energy_j < min(
            self.race_to_idle_energy_j, self.slow_and_steady_energy_j
        )


@dataclass(frozen=True)
class CheckpointAdvice:
    """The Daly advisor's verdict: compress checkpoints or not, and whether
    failure-awareness *flips* the single-write answer.

    All energies are closed-form expectations (seed-independent);
    ``chosen``/``candidates`` carry the full
    :class:`~repro.core.experiments.CheckpointPoint` records, whose
    simulated fields realize one concrete failure history.
    ``flip_margin_j`` is the expected-energy gap between the best
    uncompressed and best compressed lifetimes — positive means compression
    wins at checkpoint scale by that many joules per run.
    """

    dataset: str
    cpu: str
    io_library: str
    psnr_min_db: float
    mttf_s: float  # per-node MTTF
    n_nodes: int
    work_s: float
    compress: bool
    codec: str | None
    rel_bound: float | None
    interval_s: float  # chosen configuration's Daly interval
    baseline_interval_s: float  # uncompressed checkpoints' Daly interval
    expected_energy_j: float
    expected_makespan_s: float
    baseline_energy_j: float  # best uncompressed lifetime
    baseline_makespan_s: float
    energy_saving_j: float
    time_saving_s: float
    single_write_compress: bool  # the paper's single-write verdict (Eq. 4)
    flips: bool  # checkpoint scale disagrees with single-write scale
    flip_margin_j: float
    chosen: object  # winning CheckpointPoint
    candidates: tuple  # every quality-feasible CheckpointPoint
    rationale: str


class _ScenarioAdvisor:
    """One (testbed, CPU, I/O library) scenario and the sweeps run over it."""

    def __init__(self, testbed=None, cpu_name: str = "plat8160", io_library: str = "hdf5"):
        if testbed is None:
            from repro.core.experiments import Testbed

            testbed = Testbed()
        self.testbed = testbed
        self.cpu_name = cpu_name
        self.io_library = io_library

    def _sweep(self, kind: str, dataset: str, compression: str | None = None, **axes):
        """Run one ``kind`` grid for ``dataset``, uncompressed baseline
        included; ``compression`` narrows the codec/bound axes exactly as it
        does for any sweep."""
        return self.testbed.run_sweep(
            kind,
            datasets=(dataset,),
            io_libraries=(self.io_library,),
            cpus=(self.cpu_name,),
            include_baseline=True,
            compression=compression or "",
            **axes,
        )


class DalyAdvisor(_ScenarioAdvisor):
    """Failure-aware compress-or-not: search (codec × bound) checkpointed
    lifetimes at a given MTTF and compare against uncompressed checkpoints.

    The decisive quantity is the closed-form expected lifetime energy: a
    smaller checkpoint shrinks both the per-checkpoint cost *and* — through
    the shorter Daly interval — the expected rework per failure, which is
    why compression can be energy-optimal here even when the single-write
    Eq. 4 criterion says it is not.
    """

    def advise(
        self,
        dataset: str,
        mttf_s: float = 86400.0,
        n_nodes: int = 16,
        work_s: float = 3600.0,
        psnr_min_db: float = 60.0,
        codecs=("sz2", "sz3", "zfp", "qoz", "szx"),
        bounds=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        interval: str | float = "daly",
        seed: int = 0,
        downtime_s: float = 60.0,
        n_chunks: int = 1,
        overlap: bool = False,
        compression: str | None = None,
    ) -> CheckpointAdvice:
        """Emit a :class:`CheckpointAdvice` for one dataset/CPU/IO scenario.

        ``compression`` overrides ``codecs``/``bounds`` from a spec string
        (see :meth:`Advisor.recommend`).
        """
        points = self._sweep(
            "checkpoint",
            dataset,
            compression,
            codecs=codecs,
            bounds=bounds,
            mttfs=(mttf_s,),
            work_s=work_s,
            interval=interval,
            n_nodes=n_nodes,
            seed=seed,
            downtime_s=downtime_s,
            n_chunks=n_chunks,
            overlap=overlap,
        )
        baseline = next(p for p in points if p.codec is None)
        feasible = [p for p in points if p.psnr_db >= psnr_min_db]
        chosen = min(
            feasible, key=lambda p: (p.expected_energy_j, p.expected_makespan_s)
        )
        best_codec_j = min(
            (p.expected_energy_j for p in feasible if p.codec is not None),
            default=baseline.expected_energy_j,
        )
        flip_margin = baseline.expected_energy_j - best_codec_j

        # The paper's single-write verdict (Eq. 4) on the same grid, before
        # failures enter the picture.
        single_write_compress = Advisor(
            TradeoffAnalyzer(self.testbed, self.cpu_name, self.io_library)
        ).recommend(
            dataset,
            psnr_min_db=psnr_min_db,
            codecs=codecs,
            bounds=bounds,
            require_time_benefit=False,
            compression=compression,
        ).should_compress
        compress = chosen.codec is not None
        flips = compress != single_write_compress
        e_save = baseline.expected_energy_j - chosen.expected_energy_j
        t_save = baseline.expected_makespan_s - chosen.expected_makespan_s
        what = (
            f"{chosen.codec} @ REL {chosen.rel_bound:.0e}"
            if chosen.codec
            else "uncompressed checkpoints"
        )
        if flips:
            flip_note = (
                "failure-awareness FLIPS the single-write verdict "
                f"({'compress' if compress else 'do not compress'} here, "
                f"{'compress' if single_write_compress else 'do not compress'} "
                f"for one write) by {abs(flip_margin):.0f} J per lifetime"
            )
        else:
            flip_note = (
                "the single-write verdict carries over "
                f"(margin {flip_margin:.0f} J per lifetime)"
            )
        rationale = (
            f"{dataset} on {self.cpu_name} via {self.io_library}, "
            f"{n_nodes} node(s) at node MTTF {mttf_s:.0f} s "
            f"({work_s:.0f} s of work): {what} minimizes expected lifetime "
            f"energy ({chosen.expected_energy_j:.0f} J, "
            f"{chosen.expected_makespan_s:.0f} s expected makespan, Daly "
            f"interval {chosen.interval_s:.1f} s vs {baseline.interval_s:.1f} s "
            f"uncompressed), saving {e_save:.0f} J and {t_save:.0f} s versus "
            f"uncompressed checkpoints; {flip_note}."
        )
        return CheckpointAdvice(
            dataset=dataset,
            cpu=self.cpu_name,
            io_library=self.io_library,
            psnr_min_db=psnr_min_db,
            mttf_s=float(mttf_s),
            n_nodes=int(n_nodes),
            work_s=float(work_s),
            compress=compress,
            codec=chosen.codec,
            rel_bound=chosen.rel_bound,
            interval_s=chosen.interval_s,
            baseline_interval_s=baseline.interval_s,
            expected_energy_j=chosen.expected_energy_j,
            expected_makespan_s=chosen.expected_makespan_s,
            baseline_energy_j=baseline.expected_energy_j,
            baseline_makespan_s=baseline.expected_makespan_s,
            energy_saving_j=e_save,
            time_saving_s=t_save,
            single_write_compress=single_write_compress,
            flips=flips,
            flip_margin_j=flip_margin,
            chosen=chosen,
            candidates=tuple(feasible),
            rationale=rationale,
        )


# -- the multi-tenant cluster advisor -----------------------------------------


@dataclass(frozen=True)
class ClusterAdvice:
    """The cluster advisor's verdict for one multi-tenant scenario.

    ``best_mix`` maps job name → codec (``None`` = uncompressed) for the
    machine-wide energy-optimal assignment; ``mixes`` carries every
    evaluated (assignment, :class:`~repro.cluster.kind.ClusterResult`)
    pair.  ``flips`` is True when shared-PFS contention reverses the
    everyone-compress verdict a dedicated machine would give — the paper's
    Eq. 4 inequality evaluated per tenant in isolation versus the same
    tenants contending for one aggregate.
    """

    dataset: str
    cpu: str
    io_library: str
    scenario: str  # canonical base scenario
    n_jobs: int
    compress: bool  # the winning mix uses at least one codec
    best_mix: tuple  # ((job name, codec | None), ...) in scenario order
    best_energy_j: float
    best_makespan_s: float
    all_energy_j: float  # everyone at their configured codec
    none_energy_j: float  # everyone uncompressed
    all_makespan_s: float
    none_makespan_s: float
    everyone_compress_saves: bool  # all-compress beats all-uncompressed
    dedicated_compress_saves: bool  # same comparison, tenants in isolation
    dedicated_all_energy_j: float
    dedicated_none_energy_j: float
    flips: bool  # contention reverses the dedicated verdict
    flip_margin_j: float  # contended all-vs-none gap (positive: compress wins)
    mixes: tuple  # ((mix assignment, ClusterResult), ...), cheapest first
    rationale: str


class ClusterAdvisor(_ScenarioAdvisor):
    """Search every per-tenant compression mix of a shared-PFS scenario.

    Built on the ``cluster`` experiment kind, so every evaluated mix is a
    content-addressed, memoized grid point — re-advising a scenario after
    one mix changes only recomputes the new assignments.
    """

    def advise(self, dataset: str, scenario: str) -> ClusterAdvice:
        """Emit a :class:`ClusterAdvice` for one scenario on one machine.

        ``scenario`` is a cluster scenario string whose per-job codecs mark
        each tenant's *candidate* compression (jobs with ``codec:none``
        stay uncompressed in every mix).
        """
        from dataclasses import replace

        from repro.cluster.scheduler import (
            ClusterSpec,
            compression_mixes,
            format_scenario,
            parse_scenario,
        )

        def solve(spec):
            return self._sweep("cluster", dataset, scenario=format_scenario(spec))[0]

        base = parse_scenario(scenario)
        canonical = format_scenario(base)
        evaluated = sorted(
            (
                (tuple((j.name, j.codec) for j in mix.jobs), solve(mix))
                for mix in compression_mixes(base)
            ),
            key=lambda pair: (pair[1].total_energy_j, pair[1].makespan_s),
        )

        all_assignment = tuple((j.name, j.codec) for j in base.jobs)
        none_assignment = tuple((j.name, None) for j in base.jobs)
        by_assignment = dict(evaluated)
        all_res = by_assignment[all_assignment]
        none_res = by_assignment[none_assignment]
        best_mix, best = evaluated[0]

        # The dedicated-machine comparison: each tenant alone on the same
        # cluster (submit time zeroed — alone, the queue is empty anyway),
        # summed over tenants.  Contention is the only thing that differs.
        def dedicated_total(jobs) -> float:
            return sum(
                solve(
                    ClusterSpec(n_nodes=base.n_nodes, jobs=(replace(j, submit_s=0.0),))
                ).total_energy_j
                for j in jobs
            )

        dedicated_all = dedicated_total(base.jobs)
        dedicated_none = dedicated_total(replace(j, codec=None) for j in base.jobs)

        everyone_saves = all_res.total_energy_j < none_res.total_energy_j
        dedicated_saves = dedicated_all < dedicated_none
        flips = everyone_saves != dedicated_saves
        flip_margin = none_res.total_energy_j - all_res.total_energy_j

        mix_text = ", ".join(f"{n}:{c or 'none'}" for n, c in best_mix)
        if flips:
            flip_note = (
                "shared-PFS contention FLIPS the dedicated-machine verdict "
                f"({'compress' if everyone_saves else 'do not compress'} "
                f"contended, "
                f"{'compress' if dedicated_saves else 'do not compress'} "
                f"dedicated)"
            )
        else:
            flip_note = "the dedicated-machine verdict carries over"
        rationale = (
            f"{dataset} on {self.cpu_name} via {self.io_library}, scenario "
            f"'{canonical}': everyone compressing "
            f"{'saves' if everyone_saves else 'costs'} "
            f"{abs(flip_margin):.0f} J machine-wide versus everyone "
            f"uncompressed (makespan {all_res.makespan_s:.2f} s vs "
            f"{none_res.makespan_s:.2f} s, max write stretch "
            f"{all_res.max_stretch:.2f}x vs {none_res.max_stretch:.2f}x); "
            f"the energy-optimal mix is [{mix_text}] at "
            f"{best.total_energy_j:.0f} J; {flip_note}."
        )
        return ClusterAdvice(
            dataset=dataset,
            cpu=self.cpu_name,
            io_library=self.io_library,
            scenario=canonical,
            n_jobs=len(base.jobs),
            compress=any(codec is not None for _, codec in best_mix),
            best_mix=best_mix,
            best_energy_j=best.total_energy_j,
            best_makespan_s=best.makespan_s,
            all_energy_j=all_res.total_energy_j,
            none_energy_j=none_res.total_energy_j,
            all_makespan_s=all_res.makespan_s,
            none_makespan_s=none_res.makespan_s,
            everyone_compress_saves=everyone_saves,
            dedicated_compress_saves=dedicated_saves,
            dedicated_all_energy_j=dedicated_all,
            dedicated_none_energy_j=dedicated_none,
            flips=flips,
            flip_margin_j=flip_margin,
            mixes=tuple(evaluated),
            rationale=rationale,
        )


class DvfsAdvisor(_ScenarioAdvisor):
    """Search (frequency × codec × rel_bound) for the energy-optimal plan."""

    def _race_vs_steady(
        self, family, idle_power_w: float, chosen
    ) -> tuple[float, float, float]:
        """(race J, steady J, chosen-under-deadline J) over the family window.

        ``family`` is one (codec, bound) configuration evaluated across the
        frequency axis; the deadline is its slowest configuration's total
        time.  Race runs at the fastest clock and pays node idle power for
        the remainder; steady occupies the window at the slowest clock.  The
        third value is the *chosen* frequency padded to the same deadline —
        when the energy optimum is interior, it can beat both extremes, and
        the advice must not steer the user to a worse extreme.
        """
        window = max(p.total_time_s for p in family)
        fastest = min(family, key=lambda p: (p.total_time_s, p.total_energy_j))
        slowest = max(family, key=lambda p: (p.total_time_s, -p.total_energy_j))
        race = fastest.total_energy_j + idle_power_w * (window - fastest.total_time_s)
        steady = slowest.total_energy_j
        chosen_padded = chosen.total_energy_j + idle_power_w * (
            window - chosen.total_time_s
        )
        return race, steady, chosen_padded

    def advise(
        self,
        dataset: str,
        psnr_min_db: float = 60.0,
        codecs=("sz2", "sz3", "zfp", "qoz", "szx"),
        bounds=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        freqs: tuple[float, ...] = (),
        objective: str = "energy",
        require_time_benefit: bool = False,
        compression: str | None = None,
    ) -> CompressionAdvice:
        """Emit a :class:`CompressionAdvice` for one dataset/CPU/IO scenario.

        The decision rule: among quality-feasible points (baseline included —
        not compressing always meets the floor), pick the best configuration
        under ``objective`` (``"energy"`` minimizes joules, ``"time"``
        seconds, ``"ratio"`` maximizes compression ratio); ``compress`` is
        whether that winner uses a codec.  ``require_time_benefit`` applies
        the paper's strict Eq. 3 criterion: codec points must also beat the
        nominal-clock uncompressed write in *both* time and energy.  Savings
        are quoted against that same baseline, the testbed's pre-DVFS
        operating point.
        """
        from repro.energy.cpus import get_cpu
        from repro.energy.power import PowerModel

        key = _objective_key(objective)
        cpu = get_cpu(self.cpu_name)
        points = self._sweep(
            "dvfs", dataset, compression, codecs=codecs, bounds=bounds, freqs=freqs
        )
        baseline_nom = self._sweep("dvfs", dataset, codecs=(), freqs=(cpu.fnom_ghz,))[0]
        quality_ok = [p for p in points if p.psnr_db >= psnr_min_db]
        # The baseline (psnr = inf) always passes; under the strict criterion
        # codec points must beat it (strict inequalities, as in Eq. 3/4).
        feasible = [
            p
            for p in quality_ok
            if p.codec is None
            or not require_time_benefit
            or (
                p.total_time_s < baseline_nom.total_time_s
                and p.total_energy_j < baseline_nom.total_energy_j
            )
        ]
        frontier = pareto_frontier(feasible)
        chosen = min(feasible, key=key)
        # The race/steady policies are defined over the chosen configuration's
        # *whole* frequency family — from quality_ok, not the strict-time
        # filter, which would drop slow-clock members and silently redefine
        # "slowest configuration" (and with it the deadline window).
        family = [
            p
            for p in quality_ok
            if p.codec == chosen.codec and p.rel_bound == chosen.rel_bound
        ]
        idle_w = PowerModel(cpu).node_idle_power()
        race, steady, chosen_padded = self._race_vs_steady(family, idle_w, chosen)

        e_save = baseline_nom.total_energy_j - chosen.total_energy_j
        t_save = baseline_nom.total_time_s - chosen.total_time_s
        what = (
            f"{chosen.codec} @ REL {chosen.rel_bound:.0e}"
            if chosen.codec
            else "no compression"
        )
        if chosen_padded < min(race, steady):
            policy_note = (
                f"neither extreme policy wins — the chosen "
                f"{chosen.freq_ghz:.2f} GHz point beats both under the same "
                f"deadline ({chosen_padded:.0f} J vs race {race:.0f} J, "
                f"steady {steady:.0f} J)"
            )
        else:
            policy = "race-to-idle" if race <= steady else "slow-and-steady"
            policy_note = (
                f"under a fixed deadline {policy} wins (race {race:.0f} J vs "
                f"steady {steady:.0f} J vs chosen-then-idle "
                f"{chosen_padded:.0f} J); with no deadline, run the chosen "
                f"point"
            )
        rationale = (
            f"{dataset} on {self.cpu_name} via {self.io_library}: {what} at "
            f"{chosen.freq_ghz:.2f} GHz is {objective}-optimal "
            f"({chosen.total_energy_j:.0f} J, {chosen.total_time_s:.2f} s), "
            f"saving {e_save:.0f} J and {t_save:.2f} s vs the uncompressed "
            f"write at the nominal {cpu.fnom_ghz:.2f} GHz clock; Pareto "
            f"frontier holds {len(frontier)} configuration(s); within the "
            f"chosen codec family, {policy_note}."
        )
        return CompressionAdvice(
            dataset=dataset,
            cpu=self.cpu_name,
            io_library=self.io_library,
            psnr_min_db=psnr_min_db,
            objective=objective,
            compress=chosen.codec is not None,
            codec=chosen.codec,
            rel_bound=chosen.rel_bound,
            freq_ghz=chosen.freq_ghz,
            time_s=chosen.total_time_s,
            energy_j=chosen.total_energy_j,
            baseline_time_s=baseline_nom.total_time_s,
            baseline_energy_j=baseline_nom.total_energy_j,
            energy_saving_j=e_save,
            time_saving_s=t_save,
            race_to_idle_energy_j=race,
            slow_and_steady_energy_j=steady,
            chosen_deadline_energy_j=chosen_padded,
            prefer_race_to_idle=race <= steady,
            pareto=frontier,
            chosen=chosen,
            rationale=rationale,
        )
