"""Deterministic engine for generating multi-skill dialogue corpora.

Per-skill dialogue agents and a moderator agent run a three-phase protocol
per turn (simulate candidates, filter contradictions with NLI, then rank
and gate by KL divergence between consecutive skill distributions) over
TF-IDF-retrieved seed contexts, producing fixed-length annotated episodes
plus corpus-level diagnostics.
"""

from .core import (
    AnnotatedTurn,
    DEFAULT_ROSTER,
    DialogueContext,
    EngineConfig,
    Episode,
    Refusal,
    ResponseCandidate,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    SkillId,
    Utterance,
    config_digest,
    make_roster,
    validate_episode,
)
from .orchestrator import BatchReport, EpisodeAbortError, run_batch, run_episode
from .seeds import SeedEpisode, build_index, build_seeds, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnnotatedTurn",
    "BatchReport",
    "DEFAULT_ROSTER",
    "DialogueContext",
    "EngineConfig",
    "Episode",
    "EpisodeAbortError",
    "Refusal",
    "ResponseCandidate",
    "SeedEpisode",
    "SkillContext",
    "SkillContextSet",
    "SkillDistribution",
    "SkillId",
    "Utterance",
    "build_index",
    "build_seeds",
    "config_digest",
    "make_roster",
    "run_batch",
    "run_episode",
    "tokenize",
    "validate_episode",
]
