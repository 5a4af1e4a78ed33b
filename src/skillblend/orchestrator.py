"""The episode state machine and batch generation.

One episode runs the three phases per turn: every roster agent opens with
a candidate that the consistency gate filters (bounded regeneration), the
active agent ranks the surviving pool and the flow gate picks the final
response, passing the mic when an inactive agent wins. Episodes are
independent work units. A batch runs them in groups on a thread pool, at
most ``parallelism`` groups at once, while output order stays equal to
seed order, so parallelism never changes the bytes. With in-process
backends a group is one episode. With a remote backend it is up to
``_GROUP`` consecutive episodes in lockstep, one thread each: whenever all
of them wait on the backend, one request carries the items of those
furthest behind in their turns, and the others wait, so the episodes stay
in step. The requests do not depend on parallelism either."""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Sequence

from .agents import (
    BackendError,
    RemoteSkillAgent,
    SkillAgent,
    generate_texts,
    run_in_lockstep,
    shared_endpoint,
    thread_connections,
)
from .classifiers import NliJudge, RemoteNliJudge, RemoteSkillScorer, SkillScorer
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

# consecutive seeds that run as one lockstep group when a backend is remote
_GROUP = 8


class EpisodeAbortError(RuntimeError):
    """Every agent exhausted its consistency-phase attempts for a turn; the
    episode cannot reach its fixed length and is dropped."""

    def __init__(self, episode_id: str, turn: int, message: str):
        super().__init__(f"episode {episode_id} aborted at turn {turn}: {message}")


@dataclass(frozen=True)
class BatchReport:
    episodes_written: int
    aborts: tuple[tuple[int, str], ...]
    refusal_total: int


class BatchError(RuntimeError):
    """Writer I/O failed mid-batch; the message names the episode."""


class _EpisodeMemo:
    """The episode's NLI judge and skill scorer behind one memo: each
    (premise, hypothesis) pair is judged and each text scored at most once.

    A judge call forwards, in one batch, only the distinct premises not yet
    judged against that hypothesis, and nothing when none are left. Whole
    bit tuples are memoized by (premises, hypothesis) in front of the
    per-pair memo, so a side's gate call for a text seen before costs one
    lookup. Only the memo reads ``judge_batch`` and ``score_batch``:
    ``judge_all`` and ``score_all`` fill the same entries for many texts in
    one such call, and do nothing for a backend without it. Both backends
    are deterministic for fixed inputs, so the memo is exact. It lives as
    long as one episode, on one thread; exceptions propagate uncached, so
    retries and backend errors behave as without it.
    """

    def __init__(self, judge: NliJudge, scorer: SkillScorer):
        self._judge = judge
        self._scorer = scorer
        self.roster = scorer.roster
        # in-process backends stay per-item: batch adapters made run_batch 5-7% slower
        self._judge_batch = getattr(judge, "judge_batch", None)
        self._score_batch = getattr(scorer, "score_batch", None)
        self._batches: dict[tuple[tuple[str, ...], str], tuple[bool, ...]] = {}
        self._bits: dict[tuple[str, str], bool] = {}
        self._dists: dict[str, SkillDistribution] = {}

    def judge(self, premises: tuple[str, ...], hypothesis: str) -> tuple[bool, ...]:
        key = (premises, hypothesis)
        bits = self._batches.get(key)
        if bits is None:
            pairs = self._bits
            # lists, not generators, so that tuple() allocates the exact size
            pending = tuple(dict.fromkeys([p for p in premises if (p, hypothesis) not in pairs]))
            if pending:
                for premise, bit in zip(
                    pending, self._judge.judge(pending, hypothesis), strict=True
                ):
                    pairs[premise, hypothesis] = bit
            bits = self._batches[key] = tuple([pairs[p, hypothesis] for p in premises])
        return bits

    def judge_all(self, premises: tuple[str, ...], hypotheses: Sequence[str]) -> None:
        """Like ``judge`` for each hypothesis the memo does not hold yet, but
        in one ``judge_batch`` call: one (premises, hypothesis) item per
        such hypothesis with premises not yet judged against it, and no call
        when there are none or the judge has no ``judge_batch``."""
        if self._judge_batch is None:
            return
        pairs = self._bits
        fresh = [h for h in dict.fromkeys(hypotheses) if (premises, h) not in self._batches]
        items = []
        for hypothesis in fresh:
            pending = tuple(dict.fromkeys([p for p in premises if (p, hypothesis) not in pairs]))
            if pending:
                items.append((pending, hypothesis))
        if items:
            for (pending, hypothesis), bits in zip(items, self._judge_batch(items), strict=True):
                for premise, bit in zip(pending, bits, strict=True):
                    pairs[premise, hypothesis] = bit
        for hypothesis in fresh:
            self._batches[premises, hypothesis] = tuple([pairs[p, hypothesis] for p in premises])

    def score(self, text: str) -> SkillDistribution:
        dist = self._dists.get(text)
        if dist is None:
            dist = self._dists[text] = self._scorer.score(text)
        return dist

    def score_all(self, texts: Sequence[str]) -> None:
        """Score, in one ``score_batch`` call, every text not scored yet
        (none, or a scorer without ``score_batch``: no call)."""
        if self._score_batch is None:
            return
        dists = self._dists
        pending = list(dict.fromkeys([text for text in texts if text not in dists]))
        if pending:
            for text, dist in zip(pending, self._score_batch(pending), strict=True):
                dists[text] = dist


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
    zero consistency attempts). Each following turn alternates the speaking
    side: every roster agent generates its opening (attempt 1) with its own
    context, in one ``/generate`` when all share a remote endpoint; each
    opening then goes through the consistency gate with bounded
    regeneration, and the active agent plus the flow gate select. For a
    backend with a batch form, the memo judges a turn's openings, and scores
    its candidates and the seed texts, in one call each; only regenerations
    after a refusal go one at a time. A backend error, the seed turns'
    included, propagates with the episode and turn named first.
    """
    by_id = {agent.skill.id: agent for agent in agents}
    roster_ids = sorted(s.id for s in cfg.skill_roster)
    if sorted(by_id) != roster_ids or len(list(agents)) != len(cfg.skill_roster):
        raise ValueError("agents must cover the skill roster exactly")
    memo = _EpisodeMemo(judge, scorer)
    # the only choice of backend kind: who generates the openings
    endpoint = shared_endpoint(agents)
    # each side's (agent, own context) seats by skill id, in roster order
    seats = [
        {s.id: (by_id[s.id], stx_all.get(s) or SkillContext(s, ())) for s in cfg.skill_roster}
        for stx_all in seed.contexts
    ]

    # the pair is seated here, once: its first utterance is side 0's
    first = Utterance(0, seed.pair[0])
    second = Utterance(1, seed.pair[1])
    dtx = DialogueContext((first, second))
    active_skill = seed.seed_dataset
    # flattened once per episode; the consistency gate sends a side's lines in one batch
    side_lines = [stx.flat_lines() for stx in seed.contexts]
    annotated: list[AnnotatedTurn] = []
    turn = 0
    try:
        memo.score_all((first.text, second.text))
        for turn, utt in enumerate((first, second)):
            annotated.append(_annotate(utt, memo, False, 0, ()))
        for turn in range(2, cfg.episode_length):
            side = turn % 2  # the sides alternate from the seed pair on
            seated = seats[side].values()
            if endpoint is not None:
                items = [(agent.skill, stx_own, 1) for agent, stx_own in seated]
                openings = generate_texts(endpoint, dtx, items)
            else:
                openings = [agent.generate(stx_own, dtx, 1) for agent, stx_own in seated]
            memo.judge_all(side_lines[side][0], openings)

            refusals: list[Refusal] = []
            candidates = []
            for (agent, stx_own), opening in zip(seated, openings):
                result = simulate_approved(
                    agent, memo, side_lines[side], stx_own, dtx, cfg.max_attempts, opening
                )
                refusals.extend(result.refusals)
                if result.candidate is not None:
                    candidates.append(result.candidate)
            if not candidates:
                raise EpisodeAbortError(
                    episode_id, turn, "every agent exhausted its consistency attempts"
                )
            memo.score_all([c.text for c in candidates])
            active_agent, stx_active = seats[side][active_skill.id]
            outcome = select_final(
                active_agent, memo, stx_active, dtx, candidates, cfg.alpha, cfg.epsilon
            )

            utt = Utterance(side, outcome.winner.text)
            annotated.append(
                _annotate(utt, memo, outcome.mic_passed, outcome.winner.attempts, refusals)
            )
            dtx = dtx.extended(utt)
            if outcome.mic_passed:
                active_skill = outcome.winner.origin
    except BackendError as exc:
        # the same error, so its class and fields (a ProtocolError's raw
        # body) survive, with the episode and turn named first; a lockstep
        # group gives each member its own copy of a failed request's error
        exc.args = (f"episode {episode_id} turn {turn}: {exc}",)
        raise

    return Episode(
        id=episode_id,
        seed_dataset=seed.seed_dataset,
        seed_pair=(first, second),
        contexts=seed.contexts,
        turns=tuple(annotated),
        config_digest=digest,
    )


def run_batch(
    seeds: Iterable[SeedEpisode],
    agents: Sequence[SkillAgent],
    judge: NliJudge,
    scorer: SkillScorer,
    cfg: EngineConfig,
    parallelism: int = 1,
    write: Callable[[Episode], None] | None = None,
) -> BatchReport:
    """Generate episodes for every seed with up to ``parallelism`` groups
    running at once.

    When some backend is a remote client, each ``_GROUP`` consecutive seeds
    form a lockstep group: its episodes run on threads of their own and
    share one request per route and step (see ``agents.run_in_lockstep``).
    Otherwise a group is one episode, run on the worker thread. Output
    order equals seed order regardless of completion order; aborted
    episodes are recorded in the report, not written. Refusal totals count
    the written episodes, so recounting the output file reproduces them.
    At most 2 * ``parallelism`` groups are in flight at once, so ``seeds``
    may be a lazy iterable. A backend error or a failed write ends the
    batch at that episode; the episodes after it that have not started
    are not run.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    digest = config_digest(cfg)
    remote = (RemoteSkillAgent, RemoteNliJudge, RemoteSkillScorer)
    size = _GROUP if any(isinstance(b, remote) for b in (*agents, judge, scorer)) else 1
    # the index of the first episode that raised: the batch ends there, so
    # a group that starts afterwards skips its later episodes
    failed: list[int] = []

    def work(index: int, seed: SeedEpisode) -> Episode | Exception | None:
        """The episode, its abort, the exception it raised, or None when
        skipped."""
        if failed and index > failed[0]:
            return None
        try:
            return run_episode(
                seed, agents, judge, scorer, cfg, episode_id=f"ep-{index:06d}", digest=digest
            )
        except EpisodeAbortError as exc:
            return exc
        except Exception as exc:
            failed.append(index)
            return exc

    def run_group(group: list[tuple[int, SeedEpisode]]) -> list[Episode | Exception | None]:
        if len(group) == 1:
            return [work(*group[0])]
        return run_in_lockstep([partial(work, index, seed) for index, seed in group])

    aborts: list[tuple[int, str]] = []
    written = 0
    refusal_total = 0

    def consume(group: list[tuple[int, SeedEpisode]], future: Future) -> None:
        nonlocal written, refusal_total
        for (index, _seed), result in zip(group, future.result()):
            if isinstance(result, EpisodeAbortError):
                aborts.append((index, str(result)))
                continue
            if isinstance(result, Exception):
                raise result
            if write is not None:
                try:
                    write(result)
                except OSError as exc:
                    raise BatchError(f"writer failed on episode {result.id}: {exc}") from exc
            written += 1
            refusal_total += sum(len(t.refusals) for t in result.turns)

    # at most 2 * parallelism groups in flight, consumed in seed order;
    # each is dropped once consumed, and when the batch ends early the
    # ones not yet started are cancelled
    indexed = enumerate(seeds)
    window: deque[tuple[list[tuple[int, SeedEpisode]], Future]] = deque()
    # each pool thread's client connections
    held: list = []
    pool = ThreadPoolExecutor(
        max_workers=parallelism,
        thread_name_prefix="skillblend-batch",
        initializer=lambda: held.append(thread_connections()),
    )
    try:
        for group in iter(lambda: list(islice(indexed, size)), []):
            if len(window) == 2 * parallelism:
                consume(*window.popleft())
            window.append((group, pool.submit(run_group, group)))
        while window:
            consume(*window.popleft())
    finally:
        pool.shutdown(cancel_futures=True)
        # closed once the threads have ended, not left to the garbage
        # collector: an episode's exception holds frames that reach them
        # in a reference cycle
        for conns in held:
            conns.close()

    return BatchReport(written, tuple(aborts), refusal_total)
