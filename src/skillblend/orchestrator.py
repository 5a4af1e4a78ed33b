"""The episode state machine and batch generation.

One episode runs the three phases per turn: every roster agent simulates a
candidate under the consistency gate (bounded regeneration), then the
active agent ranks the surviving pool and the flow gate picks the final
response, passing the mic when an inactive agent wins. Episodes are
independent work units; batches fan out across a thread pool while output
order stays equal to seed order, so parallelism never changes the bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .agents import BackendError, SkillAgent
from .classifiers import NliJudge, NliVerdict, SkillScorer
from .core import (
    AnnotatedTurn,
    DialogueContext,
    EngineConfig,
    Episode,
    Refusal,
    SkillContext,
    SkillDistribution,
    Utterance,
    config_digest,
)
from .distmath import stable_argmax
from .moderator import select_final, simulate_approved
from .seeds import SeedEpisode


class EpisodeAbortError(RuntimeError):
    """Every agent exhausted its consistency-phase attempts for a turn; the
    episode cannot reach its fixed length and is dropped."""

    def __init__(self, episode_id: str, turn: int, message: str):
        super().__init__(f"episode {episode_id} aborted at turn {turn}: {message}")
        self.episode_id = episode_id
        self.turn = turn


@dataclass(frozen=True)
class BatchReport:
    episodes_written: int
    aborts: tuple[tuple[int, str], ...]
    refusal_total: int


class BatchError(RuntimeError):
    """Writer I/O failed mid-batch; carries the partial report."""

    def __init__(self, message: str, partial: BatchReport):
        super().__init__(message)
        self.partial = partial


class _EpisodeMemo:
    """The episode's NLI judge and skill scorer behind one memo: each
    (premise, hypothesis) pair is judged and each text scored at most once.

    Both backends are deterministic for fixed inputs, so the memo is exact.
    It lives as long as one episode, which runs on one thread; exceptions
    propagate uncached, so retries and backend errors behave as without it.
    """

    def __init__(self, judge: NliJudge, scorer: SkillScorer):
        self._judge = judge
        self._scorer = scorer
        self.roster = scorer.roster
        self._verdicts: dict[tuple[str, str], NliVerdict] = {}
        self._dists: dict[str, SkillDistribution] = {}

    def judge(self, premise: str, hypothesis: str) -> NliVerdict:
        key = (premise, hypothesis)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._judge.judge(premise, hypothesis)
        return verdict

    def score(self, text: str) -> SkillDistribution:
        dist = self._dists.get(text)
        if dist is None:
            dist = self._dists[text] = self._scorer.score(text)
        return dist


def _annotate(
    utt: Utterance,
    scorer: SkillScorer,
    mic_passed: bool,
    attempts: int,
    refusals: Sequence[Refusal],
) -> AnnotatedTurn:
    dist = scorer.score(utt.text)
    label = scorer.roster[stable_argmax(dist.probs)]
    return AnnotatedTurn(utt, label, dist, mic_passed, attempts, tuple(refusals))


def run_episode(
    seed: SeedEpisode,
    agents: Sequence[SkillAgent],
    judge: NliJudge,
    scorer: SkillScorer,
    cfg: EngineConfig,
    episode_id: str = "ep-000000",
    *,
    digest: str,
) -> Episode:
    """Generate one fixed-length episode from a seed; ``digest`` is
    ``config_digest(cfg)``, which the episode records.

    Seed turns are annotated exactly like generated turns (mic never passed,
    zero consistency attempts); each following turn alternates the speaking
    side, fans the simulation over every roster agent with the speaking
    side's contexts, and selects via the active agent plus the flow gate.
    Backend verdicts and distributions are memoized for the episode.
    """
    by_id = {agent.skill.id: agent for agent in agents}
    roster_ids = sorted(s.id for s in cfg.skill_roster)
    if sorted(by_id) != roster_ids or len(list(agents)) != len(cfg.skill_roster):
        raise ValueError("agents must cover the skill roster exactly")
    memo = _EpisodeMemo(judge, scorer)

    first = Utterance(0, 0, seed.pair[0].text)
    second = Utterance(1, 1, seed.pair[1].text)
    dtx = DialogueContext((first, second))
    active_skill = seed.seed_dataset
    annotated = [_annotate(first, memo, False, 0, ()), _annotate(second, memo, False, 0, ())]

    for turn in range(2, cfg.episode_length):
        side = turn % 2  # the sides alternate from the seed pair on
        stx_all = seed.contexts[side]

        refusals: list[Refusal] = []
        candidates = []
        try:
            for skill in cfg.skill_roster:
                agent = by_id[skill.id]
                stx_own = stx_all.get(skill) or SkillContext(skill, ())
                result = simulate_approved(agent, memo, stx_all, stx_own, dtx, cfg.max_attempts)
                refusals.extend(result.refusals)
                if result.candidate is not None:
                    candidates.append(result.candidate)
            if not candidates:
                raise EpisodeAbortError(
                    episode_id, turn, "every agent exhausted its consistency attempts"
                )
            active_agent = by_id[active_skill.id]
            stx_active = stx_all.get(active_skill) or SkillContext(active_skill, ())
            outcome = select_final(
                active_agent, memo, stx_active, dtx, candidates, cfg.alpha, cfg.epsilon
            )
        except BackendError as exc:
            raise type(exc)(f"episode {episode_id} turn {turn}: {exc}") from exc

        utt = Utterance(side, turn, outcome.winner.text)
        annotated.append(
            _annotate(utt, memo, outcome.mic_passed, outcome.winner.attempts, refusals)
        )
        dtx = dtx.extended(utt)
        if outcome.mic_passed:
            active_skill = outcome.winner.origin

    return Episode(
        id=episode_id,
        seed_dataset=seed.seed_dataset,
        seed_pair=(first, second),
        contexts=seed.contexts,
        turns=tuple(annotated),
        config_digest=digest,
    )


def run_batch(
    seeds: Sequence[SeedEpisode],
    agents: Sequence[SkillAgent],
    judge: NliJudge,
    scorer: SkillScorer,
    cfg: EngineConfig,
    parallelism: int = 1,
    write: Callable[[Episode], None] | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> BatchReport:
    """Generate episodes for every seed with up to ``parallelism`` workers.

    Output order equals seed order regardless of completion order; aborted
    episodes are recorded in the report, not written. Refusal totals count
    the written episodes, so recounting the output file reproduces them.
    A backend error or a failed write ends the batch at that episode; the
    episodes not yet started are not run.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    digest = config_digest(cfg)

    def work(index: int, seed: SeedEpisode) -> Episode | EpisodeAbortError:
        try:
            return run_episode(
                seed, agents, judge, scorer, cfg, episode_id=f"ep-{index:06d}", digest=digest
            )
        except EpisodeAbortError as exc:
            return exc

    aborts: list[tuple[int, str]] = []
    written = 0
    refusal_total = 0
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        # map yields in seed order and drops each future once consumed;
        # closing it cancels the episodes not yet started
        results = pool.map(work, range(len(seeds)), seeds)
        try:
            for index, result in enumerate(results):
                if isinstance(result, EpisodeAbortError):
                    aborts.append((index, str(result)))
                else:
                    if write is not None:
                        try:
                            write(result)
                        except OSError as exc:
                            raise BatchError(
                                f"writer failed on episode {result.id}: {exc}",
                                BatchReport(written, tuple(aborts), refusal_total),
                            ) from exc
                    written += 1
                    refusal_total += sum(len(t.refusals) for t in result.turns)
                if on_progress is not None:
                    on_progress(written, len(aborts))
        finally:
            results.close()

    return BatchReport(written, tuple(aborts), refusal_total)
