"""The RUBBoS interaction catalog.

RUBBoS models a Slashdot-style bulletin board with 24 servlets. Each
entry carries per-tier demand multipliers relative to the workload's
base demands (so "ViewStory" is an average read, "Search" is a heavy
DB read, "StoreStory" is a write with disk cost) plus a write flag used
by the read/write-mix workload mode.

The multipliers are calibration inputs — the paper does not publish
per-servlet demands — chosen so the two standard mixes land on the mean
demands used by the capacity calibration in
:mod:`repro.experiments.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Interaction", "CATALOG"]


@dataclass(frozen=True, slots=True)
class Interaction:
    """One RUBBoS servlet and its relative resource footprint."""

    name: str
    web_mult: float
    app_mult: float
    db_mult: float
    write: bool = False


# name, web, app, db, write
CATALOG: tuple[Interaction, ...] = (
    Interaction("StoriesOfTheDay", 1.0, 1.0, 1.2),
    Interaction("ViewStory", 1.0, 1.0, 1.0),
    Interaction("ViewComment", 1.0, 0.9, 0.9),
    Interaction("ViewFullComment", 1.0, 1.1, 1.3),
    Interaction("BrowseCategories", 1.0, 0.6, 0.5),
    Interaction("BrowseStoriesByCategory", 1.0, 1.0, 1.1),
    Interaction("BrowseRegions", 1.0, 0.6, 0.5),
    Interaction("BrowseStoriesByRegion", 1.0, 1.0, 1.1),
    Interaction("OlderStories", 1.0, 1.0, 1.4),
    Interaction("SearchInStories", 1.0, 1.2, 2.0),
    Interaction("SearchInComments", 1.0, 1.2, 2.2),
    Interaction("SearchInUsers", 1.0, 1.0, 1.5),
    Interaction("ViewUserInfo", 1.0, 0.8, 0.8),
    Interaction("ModeratorConsole", 1.0, 0.7, 0.6),
    Interaction("ReviewStories", 1.0, 1.0, 1.2),
    Interaction("AuthorConsole", 1.0, 0.7, 0.6),
    Interaction("SubmitStoryForm", 1.0, 0.5, 0.2),
    Interaction("StoreStory", 1.0, 1.3, 2.5, write=True),
    Interaction("SubmitCommentForm", 1.0, 0.5, 0.3),
    Interaction("StoreComment", 1.0, 1.1, 1.8, write=True),
    Interaction("ModerateComment", 1.0, 0.9, 1.0),
    Interaction("StoreModeratorLog", 1.0, 0.8, 1.4, write=True),
    Interaction("RegisterUserForm", 1.0, 0.4, 0.2),
    Interaction("StoreRegisterUser", 1.0, 0.9, 1.6, write=True),
)
