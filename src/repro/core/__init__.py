"""Core algorithms: PageRank, degree de-coupled PageRank, personalisation,
baselines and hitting times."""

from repro.core.baselines import (
    degree_scores,
    teleport_adjusted_pagerank,
    weighted_pagerank,
)
from repro.core.d2pr import (
    d2pr,
    d2pr_operator,
    d2pr_transition,
    transition_probabilities,
)
from repro.core.engine import (
    SOLVERS,
    RankQuery,
    adjacency_and_theta,
    build_teleport,
    solve_many,
    update_scores,
    update_scores_many,
)
from repro.core.hits import HitsResult, hits
from repro.core.hitting import commute_time, hitting_times
from repro.core.manipulation import (
    FarmAttackResult,
    plant_link_farm,
    rank_boost_from_farm,
)
from repro.core.pagerank import pagerank
from repro.core.personalized import (
    personalized_d2pr,
    personalized_pagerank,
    robust_personalized_d2pr,
    seed_weights,
)
from repro.core.results import NodeScores
from repro.core.topics import Topic, TopicSensitiveD2PR
from repro.core.walkers import WalkResult, estimate_cover_time, simulate_walk

__all__ = [
    "pagerank",
    "d2pr",
    "d2pr_transition",
    "d2pr_operator",
    "transition_probabilities",
    "personalized_pagerank",
    "personalized_d2pr",
    "robust_personalized_d2pr",
    "seed_weights",
    "degree_scores",
    "teleport_adjusted_pagerank",
    "weighted_pagerank",
    "hitting_times",
    "commute_time",
    "hits",
    "HitsResult",
    "Topic",
    "TopicSensitiveD2PR",
    "simulate_walk",
    "estimate_cover_time",
    "WalkResult",
    "plant_link_farm",
    "rank_boost_from_farm",
    "FarmAttackResult",
    "NodeScores",
    "SOLVERS",
    "RankQuery",
    "solve_many",
    "update_scores",
    "update_scores_many",
    "adjacency_and_theta",
    "build_teleport",
]
