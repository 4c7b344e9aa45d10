"""The paper's checkin-to-visit matching algorithm (Section 4.1).

For each checkin, Step 1 gathers the user's visits within α metres of
the checkin's location; Step 2 picks the candidate closest in time and
accepts it when the time distance (footnote 2: zero inside the visit,
else distance to the nearer endpoint) is at most β.  When several
checkins claim the same visit, the *geographically closest* checkin
wins.  The paper's values α = 500 m, β = 30 min are the defaults.

The paper runs a single resolution round (each checkin has at most one
candidate match, losers become extraneous).  ``rematch_losers`` enables
an iterative variant used by the ablation bench: losers re-compete for
still-unclaimed visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geo import GridIndex, euclidean, units
from ..model import Checkin, Dataset, Visit
from ..obs import current as obs_current
from ..runtime import (
    RuntimeTimings,
    merge_user_maps,
    resolve_executor,
    run_stage,
    shard_count,
    shard_dataset,
)


@dataclass(frozen=True)
class MatchConfig:
    """Matching thresholds."""

    #: Spatial threshold α, metres.
    alpha_m: float = 500.0
    #: Temporal threshold β, seconds.
    beta_s: float = units.minutes(30)
    #: Let checkins that lose a tie-break re-compete for other visits.
    rematch_losers: bool = False
    #: Cap on rematch rounds; once hit, every still-pending checkin is
    #: extraneous.  Irrelevant when ``rematch_losers`` is off.
    max_rematch_rounds: int = 10

    def __post_init__(self) -> None:
        if self.alpha_m <= 0 or self.beta_s <= 0:
            raise ValueError("matching thresholds must be positive")
        if self.max_rematch_rounds < 1:
            raise ValueError(
                f"max_rematch_rounds must be >= 1, got {self.max_rematch_rounds}"
            )


@dataclass
class MatchStats:
    """Internals of one :func:`match_user` call the outputs don't expose.

    The streaming service (:mod:`repro.serve`) runs matching chunk by
    chunk and must reproduce the batch path's per-user counters exactly;
    round counts and per-round tie-loser totals are not derivable from a
    :class:`UserMatching`, so callers pass a ``MatchStats`` to receive
    them.  Purely observational — filling it never changes the result.
    """

    #: Resolution rounds executed (0 when the user had no checkins).
    rounds: int = 0
    #: Tie losers produced by each round, in round order.
    tie_losers_per_round: List[int] = field(default_factory=list)

    @property
    def tie_losers(self) -> int:
        """Total tie losers across all rounds."""
        return sum(self.tie_losers_per_round)


@dataclass
class UserMatching:
    """Per-user matching outcome."""

    user_id: str
    matches: List[Tuple[Checkin, Visit]] = field(default_factory=list)
    extraneous: List[Checkin] = field(default_factory=list)
    missing: List[Visit] = field(default_factory=list)

    @property
    def honest(self) -> List[Checkin]:
        """Checkins that matched a visit."""
        return [c for c, _ in self.matches]


class RegionCounts:
    """Figure 1's three regions and everything derived from them.

    Subclasses supply ``n_honest`` (checkins matching a visit, the Venn
    intersection), ``n_extraneous`` (checkins without one) and
    ``n_missing`` (visits without a checkin) as fields or properties;
    the totals and both fractions are defined here once.
    """

    @property
    def n_checkins(self) -> int:
        """Total checkins considered."""
        return self.n_honest + self.n_extraneous

    @property
    def n_visits(self) -> int:
        """Total visits considered."""
        return self.n_honest + self.n_missing

    def extraneous_fraction(self) -> float:
        """Share of checkins that are extraneous (the paper's ≈75%)."""
        return self.n_extraneous / self.n_checkins if self.n_checkins else 0.0

    def coverage_fraction(self) -> float:
        """Share of visits covered by checkins (the paper's ≈10%)."""
        return self.n_honest / self.n_visits if self.n_visits else 0.0


@dataclass
class MatchingResult(RegionCounts):
    """Dataset-wide matching outcome — the data behind Figure 1."""

    config: MatchConfig
    per_user: Dict[str, UserMatching]

    @property
    def honest_checkins(self) -> List[Checkin]:
        """All matched checkins across users."""
        return [c for m in self.per_user.values() for c, _ in m.matches]

    @property
    def extraneous_checkins(self) -> List[Checkin]:
        """All unmatched checkins across users."""
        return [c for m in self.per_user.values() for c in m.extraneous]

    @property
    def missing_visits(self) -> List[Visit]:
        """All unmatched visits across users (the 'missing checkins')."""
        return [v for m in self.per_user.values() for v in m.missing]

    @property
    def matched_pairs(self) -> List[Tuple[Checkin, Visit]]:
        """All (checkin, visit) matches across users."""
        return [pair for m in self.per_user.values() for pair in m.matches]

    @property
    def n_honest(self) -> int:
        """Count of honest checkins (Venn intersection)."""
        return sum(len(m.matches) for m in self.per_user.values())

    @property
    def n_extraneous(self) -> int:
        """Count of extraneous checkins (checkin-only region)."""
        return sum(len(m.extraneous) for m in self.per_user.values())

    @property
    def n_missing(self) -> int:
        """Count of missing checkins / unmatched visits (GPS-only region)."""
        return sum(len(m.missing) for m in self.per_user.values())


def _best_from_candidates(
    checkin: Checkin,
    candidates: Sequence[Tuple[float, Visit]],
    config: MatchConfig,
    exclude: Optional[set] = None,
) -> Optional[Tuple[Visit, float]]:
    """Step 2 for one checkin given its Step-1 candidate set.

    Picks the temporally closest candidate within β (ties broken by
    earlier ``t_start``); the choice is independent of candidate order,
    so batched and per-query candidate gathering agree exactly.
    """
    best: Optional[Tuple[Visit, float]] = None
    for _, visit in candidates:
        if exclude and visit.visit_id in exclude:
            continue
        dt = visit.time_distance(checkin.t)
        if dt > config.beta_s:
            continue
        if best is None or dt < best[1] or (
            dt == best[1] and visit.t_start < best[0].t_start
        ):
            best = (visit, dt)
    return best


def match_user(
    checkins: Sequence[Checkin],
    visits: Sequence[Visit],
    config: Optional[MatchConfig] = None,
    user_id: Optional[str] = None,
    obs=None,
    stats: Optional[MatchStats] = None,
) -> UserMatching:
    """Run the matching algorithm for one user.

    ``obs`` overrides the ambient observation context (pass
    :data:`repro.obs.NULL_OBS` to silence instrumentation explicitly —
    the streaming engine does: it counts each chunk's results in per-user
    dicts and folds them into its context once, at finish, in batch
    order).  ``stats``, when given, receives the call's round count and
    per-round tie-loser totals.
    """
    config = config or MatchConfig()
    if user_id is None:
        if checkins:
            user_id = checkins[0].user_id
        elif visits:
            user_id = visits[0].user_id
        else:
            user_id = "unknown"
    index: GridIndex = GridIndex.from_columns(
        [visit.x for visit in visits],
        [visit.y for visit in visits],
        visits,
        cell_size=max(100.0, config.alpha_m),
    )

    if obs is None:
        obs = obs_current()
    assigned: Dict[str, Tuple[Checkin, Visit]] = {}
    losers: List[Checkin] = []
    pending = list(checkins)
    rounds = 0
    while pending:
        rounds += 1
        with obs.span(
            "matching.round", user=user_id, round=rounds, pending=len(pending)
        ) as round_span:
            # Step 1, batched: one vectorised radius query for every
            # pending checkin at once (claims only change between
            # rounds, so the candidate sets for a round are fixed).
            candidate_lists = index.within_many(
                [c.x for c in pending], [c.y for c in pending], config.alpha_m
            )
            exclude = set(assigned) if config.rematch_losers else None
            # Tentative claims this round: visit_id -> list of (checkin, geo distance).
            claims: Dict[str, List[Tuple[float, Checkin, Visit]]] = {}
            unmatched: List[Checkin] = []
            for checkin, candidates in zip(pending, candidate_lists):
                if config.rematch_losers:
                    # Later rounds re-compete only for still-free visits.
                    best = _best_from_candidates(checkin, candidates, config, exclude)
                else:
                    # Paper behaviour: a single Step-2 choice per checkin.
                    best = _best_from_candidates(checkin, candidates, config)
                    if best is not None and best[0].visit_id in assigned:
                        best = None
                if best is None:
                    unmatched.append(checkin)
                    continue
                visit = best[0]
                geo = euclidean(checkin.x, checkin.y, visit.x, visit.y)
                claims.setdefault(visit.visit_id, []).append((geo, checkin, visit))
            round_losers: List[Checkin] = []
            for contenders in claims.values():
                contenders.sort(key=lambda item: (item[0], item[1].checkin_id))
                _, winner, visit = contenders[0]
                assigned[visit.visit_id] = (winner, visit)
                round_losers.extend(c for _, c, _ in contenders[1:])
            round_span.annotate(
                claims=len(claims),
                tie_losers=len(round_losers),
                unmatched=len(unmatched),
            )
            obs.count("matching.tie_losers_total", len(round_losers))
        if stats is not None:
            stats.tie_losers_per_round.append(len(round_losers))
        # Checkins with no candidate this round are settled either way.
        losers.extend(unmatched)
        if (
            not config.rematch_losers
            or not claims
            or rounds >= config.max_rematch_rounds
        ):
            # Final round (single-round paper mode, nothing was claimed,
            # or the round cap hit): every still-pending tie loser is
            # extraneous — nothing may stay pending past this point.
            losers.extend(round_losers)
            break
        # Claimed visits are excluded via `exclude` (built from `assigned`), so the
        # next round only considers still-free visits.
        pending = round_losers

    if stats is not None:
        stats.rounds = rounds
    obs.count("matching.users_total", 1)
    obs.count("matching.rounds_total", rounds)
    obs.count("matching.rematch_rounds", max(0, rounds - 1))
    obs.observe("matching.rounds_per_user", rounds)
    obs.count("matching.honest_total", len(assigned))
    obs.count("matching.extraneous_total", len(losers))
    matched_visit_ids = set(assigned)
    matches = sorted(assigned.values(), key=lambda pair: pair[0].t)
    missing = [v for v in visits if v.visit_id not in matched_visit_ids]
    obs.count("matching.missing_total", len(missing))
    return UserMatching(
        user_id=user_id,
        matches=matches,
        extraneous=sorted(losers, key=lambda c: c.t),
        missing=sorted(missing, key=lambda v: v.t_start),
    )


def _match_shard(payload: Tuple) -> Dict[str, UserMatching]:
    """Executor work unit: run :func:`match_user` for one shard of users.

    Top-level (picklable) so process-pool executors can ship it; the
    payload is ``(config, [(user_id, checkins, visits), ...])``.
    """
    config, users = payload
    return {
        user_id: match_user(checkins, visits, config, user_id=user_id)
        for user_id, checkins, visits in users
    }


def match_dataset(
    dataset: Dataset,
    config: Optional[MatchConfig] = None,
    executor=None,
    workers: Optional[int] = None,
    timings: Optional[RuntimeTimings] = None,
    resilience=None,
    fault_plan=None,
    health=None,
) -> MatchingResult:
    """Run matching for every user in a dataset with extracted visits.

    ``executor``/``workers`` shard the (per-user independent) algorithm
    across processes; any worker count returns results identical to the
    serial run.  ``timings`` collects the stage's shard timings.
    ``resilience``/``fault_plan``/``health`` arm the shard-level
    fault-tolerance layer; under ``skip_and_report`` a skipped shard's
    users are absent from ``per_user`` and recorded on ``health``.
    """
    config = config or MatchConfig()
    exec_, owned = resolve_executor(executor, workers)
    try:
        shards = shard_dataset(dataset, shard_count(exec_, len(dataset.users)))

        def payload_of(shard):
            return (
                config,
                [
                    (uid, dataset.users[uid].checkins, dataset.users[uid].require_visits())
                    for uid in shard.user_ids
                ],
            )

        results, timing = run_stage(
            "match", exec_, shards, _match_shard, payload_of,
            resilience=resilience, fault_plan=fault_plan, health=health,
        )
    finally:
        if owned:
            exec_.close()
    if timings is not None:
        timings.stages.append(timing)
    skipped = {
        user_id
        for shard, result in zip(shards, results)
        if result is None
        for user_id in shard.user_ids
    }
    per_user = merge_user_maps(
        dataset, [r for r in results if r is not None], allow_missing=skipped
    )
    return MatchingResult(config=config, per_user=per_user)
