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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import euclidean, units
from ..geo.grid import owner_pairs_within
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


def _float_columns(items: Sequence, *names: str) -> List[np.ndarray]:
    """The named attributes of ``items`` as float64 columns."""
    return [
        np.fromiter(map(attrgetter(name), items), dtype=np.float64, count=len(items))
        for name in names
    ]


def candidate_pairs(
    checkins: Sequence[Checkin],
    visits: Sequence[Visit],
    n_checkins: Sequence[int],
    n_visits: Sequence[int],
    alpha_m: float,
    beta_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every same-user (checkin, visit) pair within α metres and β seconds.

    ``checkins`` and ``visits`` are several users' lists laid end to
    end, ``n_checkins[k]``/``n_visits[k]`` long for user ``k``.  Step 1
    is one :func:`owner_pairs_within` pass at α; the time distance of
    footnote 2 (:meth:`Visit.time_distance`: zero inside
    ``[t_start, t_end]``, else the gap to the nearer endpoint) is then
    computed for every pair at once and pairs beyond β are dropped.
    Returns the checkin row, visit row, Δt and visit ``t_start`` of each
    pair, ordered by checkin, then by visit.
    """
    if not checkins or not visits:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0), np.zeros(0)
    cx, cy, ct = _float_columns(checkins, "x", "y", "t")
    vx, vy, vs, ve = _float_columns(visits, "x", "y", "t_start", "t_end")
    rows, hit, _ = owner_pairs_within(vx, vy, n_visits, cx, cy, n_checkins, alpha_m)
    t, s, e = ct[rows], vs[hit], ve[hit]
    # Visits have t_start <= t_end, so outside the visit the larger of
    # s - t and t - e is exactly min(|t - s|, |t - e|); inside both are
    # <= 0 and Δt is 0.
    dt = np.maximum(np.maximum(s - t, t - e), 0.0)
    keep = dt <= beta_s
    return rows[keep], hit[keep], dt[keep], s[keep]


def _match_users(
    users: Sequence[Tuple[str, Sequence[Checkin], Sequence[Visit]]],
    config: MatchConfig,
) -> List[Tuple[UserMatching, MatchStats]]:
    """Match several users at once: one candidate pass, then per-user claims.

    Step 2 picks each checkin's temporally closest candidate within β,
    ties going to the earlier ``t_start`` and then to the earlier visit
    in the user's list: one ``lexsort`` ranks every checkin's candidates
    in that order.  Claims only ever exclude visits, so a checkin's
    ranked candidates serve every rematch round: its choice in a round
    is its first candidate whose visit is still unclaimed.  A visit
    claimed by several checkins goes to the geographically closest
    (then the smaller ``checkin_id``), in plain Python per user.
    """
    checkins = [c for _, user_checkins, _ in users for c in user_checkins]
    visits = [v for _, _, user_visits in users for v in user_visits]
    n_checkins = [len(user_checkins) for _, user_checkins, _ in users]
    rows, hit, dt, t_start = candidate_pairs(
        checkins,
        visits,
        n_checkins,
        [len(user_visits) for _, _, user_visits in users],
        config.alpha_m,
        config.beta_s,
    )
    order = np.lexsort((hit, t_start, dt, rows))
    rows, hit = rows[order], hit[order]
    # Candidates of checkin i, best first, are hit[bounds[i]:bounds[i + 1]].
    bounds = np.searchsorted(rows, np.arange(len(checkins) + 1))
    has = bounds[1:] > bounds[:-1]
    best = np.full(len(checkins), -1, dtype=np.int64)
    best[has] = hit[bounds[:-1][has]]
    # Each checkin's choice while no visit is claimed: its best candidate.
    chosen = best.tolist()
    if config.rematch_losers:
        cuts, ranked = bounds.tolist(), hit.tolist()
    visit_ids = [v.visit_id for v in visits]

    def claim_key(i: int) -> Tuple[float, str]:
        """A contested claim's rank: distance to the visit, then id."""
        checkin, visit = checkins[i], visits[chosen[i]]
        return euclidean(checkin.x, checkin.y, visit.x, visit.y), checkin.checkin_id

    out: List[Tuple[UserMatching, MatchStats]] = []
    c0 = 0
    for (user_id, user_checkins, user_visits), n in zip(users, n_checkins):
        stats = MatchStats()
        assigned: Dict[str, Tuple[Checkin, Visit]] = {}
        losers: List[Checkin] = []
        pending: Sequence[int] = range(c0, c0 + n)
        c0 += n
        while pending:
            stats.rounds += 1
            # visit_id -> its first claimant; contested visits also list
            # every claimant, in claim order.
            claimed: Dict[str, int] = {}
            contested: Dict[str, List[int]] = {}
            for i in pending:
                if assigned:
                    # A rematch round: the best still-unclaimed candidate.
                    chosen[i] = -1
                    for j in ranked[cuts[i] : cuts[i + 1]]:
                        if visit_ids[j] not in assigned:
                            chosen[i] = j
                            break
                j = chosen[i]
                if j < 0:
                    losers.append(checkins[i])
                    continue
                first = claimed.setdefault(visit_ids[j], i)
                if first != i:
                    contested.setdefault(visit_ids[j], [first]).append(i)
            round_losers: List[int] = []
            for visit_id, i in claimed.items():
                if visit_id in contested:
                    claims = sorted(contested[visit_id], key=claim_key)
                    i = claims[0]
                    round_losers.extend(claims[1:])
                assigned[visit_id] = (checkins[i], visits[chosen[i]])
            stats.tie_losers_per_round.append(len(round_losers))
            if (
                not config.rematch_losers
                or not claimed
                or stats.rounds >= config.max_rematch_rounds
            ):
                # Final round (single-round paper mode, nothing was
                # claimed, or the round cap hit): every still-pending tie
                # loser is extraneous — nothing may stay pending.
                losers.extend(checkins[i] for i in round_losers)
                break
            pending = round_losers
        matching = UserMatching(
            user_id=user_id,
            matches=sorted(assigned.values(), key=lambda pair: pair[0].t),
            extraneous=sorted(losers, key=attrgetter("t")),
            missing=sorted(
                (v for v in user_visits if v.visit_id not in assigned),
                key=attrgetter("t_start"),
            ),
        )
        out.append((matching, stats))
    return out


def _count_matching(obs, outcomes: Sequence[Tuple[UserMatching, MatchStats]]) -> None:
    """Fold several users' matching counters into ``obs`` at once.

    The totals equal counting user by user.  ``tie_losers_total`` is
    only touched when some user ran a round, as a per-round count would.
    """
    rounds = [stats.rounds for _, stats in outcomes]
    if any(rounds):
        obs.count(
            "matching.tie_losers_total", sum(stats.tie_losers for _, stats in outcomes)
        )
    obs.count("matching.users_total", len(outcomes))
    obs.count("matching.rounds_total", sum(rounds))
    obs.count("matching.rematch_rounds", sum(max(0, r - 1) for r in rounds))
    for r in rounds:
        obs.observe("matching.rounds_per_user", r)
    obs.count("matching.honest_total", sum(len(m.matches) for m, _ in outcomes))
    obs.count("matching.extraneous_total", sum(len(m.extraneous) for m, _ in outcomes))
    obs.count("matching.missing_total", sum(len(m.missing) for m, _ in outcomes))


def match_user(
    checkins: Sequence[Checkin],
    visits: Sequence[Visit],
    config: Optional[MatchConfig] = None,
    user_id: Optional[str] = None,
    obs=None,
    stats: Optional[MatchStats] = None,
) -> UserMatching:
    """Run the matching algorithm for one user: the one-user shard.

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
    outcome = _match_users([(user_id, checkins, visits)], config)
    obs = obs_current() if obs is None else obs
    if obs.enabled:
        _count_matching(obs, outcome)
    matching, user_stats = outcome[0]
    if stats is not None:
        stats.rounds = user_stats.rounds
        stats.tie_losers_per_round.extend(user_stats.tie_losers_per_round)
    return matching


def _match_shard(payload: Tuple) -> Dict[str, UserMatching]:
    """Executor work unit: match one shard of users at once.

    Top-level (picklable) so process-pool executors can ship it; the
    payload is ``(config, [(user_id, checkins, visits), ...])``.  One
    candidate pass covers the whole shard (:func:`_match_users`) and
    the shard's counters are folded in once.
    """
    config, users = payload
    if not users:
        return {}
    outcomes = _match_users(users, config)
    _count_matching(obs_current(), outcomes)
    return {matching.user_id: matching for matching, _ in outcomes}


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
