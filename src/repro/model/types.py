"""Core record types shared by every subsystem.

The paper's study produces, per user, two parallel traces: a per-minute
GPS trace and a Foursquare checkin trace, plus a Foursquare profile
(friends / badges / mayorships).  Visits are derived from the GPS trace.
All records carry planar coordinates in metres (see ``repro.geo``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class PoiCategory(enum.Enum):
    """Foursquare's top-level POI categories as used in Figure 4."""

    PROFESSIONAL = "Professional"
    OUTDOORS = "Outdoors"
    NIGHTLIFE = "Nightlife"
    ARTS = "Arts"
    SHOP = "Shop"
    TRAVEL = "Travel"
    RESIDENCE = "Residence"
    FOOD = "Food"
    COLLEGE = "College"

    @classmethod
    def from_label(cls, label: str) -> "PoiCategory":
        """Look a category up by its human-readable label."""
        try:
            return cls(label)
        except ValueError:
            raise ValueError(f"unknown POI category label: {label!r}") from None


class CheckinType(enum.Enum):
    """Checkin classes from Sections 4–5 of the paper.

    ``HONEST`` checkins match a GPS visit.  The three extraneous classes
    are the behaviours of Section 5.1; ``OTHER`` is the residual ~10% of
    extraneous checkins "without distinctive features".
    """

    HONEST = "honest"
    SUPERFLUOUS = "superfluous"
    REMOTE = "remote"
    DRIVEBY = "driveby"
    OTHER = "other"

    @property
    def is_extraneous(self) -> bool:
        """True for every class except HONEST."""
        return self is not CheckinType.HONEST


#: Extraneous classes in the order the paper discusses them.
EXTRANEOUS_TYPES = (
    CheckinType.SUPERFLUOUS,
    CheckinType.REMOTE,
    CheckinType.DRIVEBY,
    CheckinType.OTHER,
)


@dataclass(frozen=True)
class Poi:
    """A point of interest in the world (synthetic stand-in for Foursquare's venue DB)."""

    poi_id: str
    name: str
    category: PoiCategory
    x: float
    y: float


@dataclass(frozen=True)
class GpsPoint:
    """One per-minute GPS sample: time (s since study epoch) and position (m)."""

    t: float
    x: float
    y: float

    def __reduce__(self):
        # GPS traces dominate inter-process payloads (millions of points
        # per study); the tuple form pickles ~3x faster and ~25% smaller
        # than the default dataclass state dict.
        return (GpsPoint, (self.t, self.x, self.y))


@dataclass(frozen=True)
class Visit:
    """A stationary period of ≥ the dwell threshold at one location.

    ``poi_id`` is the POI the visit is attributed to (ground truth from
    the simulator, or nearest-POI annotation from visit extraction); it
    may be ``None`` for visits to places with no registered POI.
    """

    visit_id: str
    user_id: str
    x: float
    y: float
    t_start: float
    t_end: float
    poi_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"visit {self.visit_id}: t_end {self.t_end} precedes t_start {self.t_start}"
            )

    @property
    def duration(self) -> float:
        """Visit length in seconds."""
        return self.t_end - self.t_start

    def time_distance(self, t: float) -> float:
        """Δt between the visit and a checkin timestamp, per footnote 2.

        Zero when ``t`` falls inside [t_start, t_end]; otherwise the gap
        to the nearer endpoint.
        """
        if self.t_start <= t <= self.t_end:
            return 0.0
        return min(abs(t - self.t_start), abs(t - self.t_end))


@dataclass(frozen=True)
class Checkin:
    """One Foursquare checkin event.

    Coordinates are the *POI's* reported location (what the Foursquare
    API returns), which for a remote checkin differs from where the user
    physically was.  ``intent`` is the generator's ground-truth label,
    present only on synthetic data; the classification pipeline never
    reads it — it exists so tests can score the classifier.
    """

    checkin_id: str
    user_id: str
    poi_id: str
    x: float
    y: float
    t: float
    category: PoiCategory
    intent: Optional[CheckinType] = field(default=None, compare=False)


@dataclass(frozen=True)
class UserProfile:
    """Foursquare profile features used in the incentive analysis (Table 2)."""

    user_id: str
    friends: int
    badges: int
    mayorships: int
    study_days: float

    def __post_init__(self) -> None:
        if self.friends < 0 or self.badges < 0 or self.mayorships < 0:
            raise ValueError(f"profile counts must be non-negative for {self.user_id}")
        if self.study_days <= 0:
            raise ValueError(f"study_days must be positive for {self.user_id}")

    def checkins_per_day(self, n_checkins: int) -> float:
        """Daily checkin rate given the user's observed checkin count."""
        return n_checkins / self.study_days
