from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from skillblend import orchestrator
from skillblend.agents import (
    BackendUnavailableError,
    RemoteSkillAgent,
    default_scripted_agents,
    serve_mock,
)
from skillblend.classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    LexiconSpec,
    RemoteNliJudge,
    RemoteSkillScorer,
    default_lexicon,
)
from skillblend.core import (
    DEFAULT_ROSTER,
    EngineConfig,
    SkillContext,
    SkillContextSet,
    Utterance,
    config_digest,
)
from skillblend.dataio import EpisodeWriter, episode_line
from skillblend.moderator import consistency_gate
from skillblend.orchestrator import BatchError, EpisodeAbortError, run_batch
from skillblend.seeds import SeedEpisode

import helpers

P, K, E = DEFAULT_ROSTER


def _plain_seed(seed_skill=P):
    contexts = (
        SkillContextSet(
            (
                SkillContext(P, ("i like to ski in winter",)),
                SkillContext(K, ("skiing",)),
                SkillContext(E, ("i was so proud last week", "proud")),
            )
        ),
        SkillContextSet(
            (
                SkillContext(P, ("i grow tomatoes in my garden",)),
                SkillContext(K, ("skiing", "alpine skiing became an olympic sport in 1936")),
            )
        ),
    )
    pair = (Utterance(0, 0, "do you enjoy skiing"), Utterance(1, 1, "i love skiing a lot"))
    return SeedEpisode(seed_skill, pair, contexts)


def _stack(cfg):
    return helpers.scripted_stack(cfg)


def test_run_episode_shape_and_annotation(cfg):
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    assert len(ep.turns) == 10  # 2-turn seed + 8 generated
    assert ep.turns[0].utterance.text == "do you enjoy skiing"
    assert ep.turns[1].utterance.text == "i love skiing a lot"
    assert [t.utterance.speaker for t in ep.turns] == [i % 2 for i in range(10)]
    for i, turn in enumerate(ep.turns[:2]):
        assert turn.phase2_attempts == 0 and not turn.mic_passed
    for turn in ep.turns[2:]:
        assert turn.phase2_attempts >= 1
    assert ep.config_digest == config_digest(cfg)
    assert ep.seed_dataset == P


def test_run_episode_is_deterministic(cfg):
    agents, judge, scorer = _stack(cfg)
    a = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    b = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    assert episode_line(a) == episode_line(b)


def test_run_episode_requires_exact_roster_coverage(cfg):
    agents, judge, scorer = _stack(cfg)
    with pytest.raises(ValueError):
        helpers.run_episode(_plain_seed(), agents[:2], judge, scorer, cfg)
    with pytest.raises(ValueError):
        helpers.run_episode(_plain_seed(), agents + agents[:1], judge, scorer, cfg)


def test_run_episode_generated_turns_reapprove(cfg):
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg)
    for turn in ep.turns[2:]:
        side = turn.utterance.speaker
        decision = consistency_gate(judge, ep.contexts[side], turn.utterance.text)
        assert decision.approved


def test_run_episode_matches_reference_replay(cfg):
    # independent re-execution of the turn loop with the public phase ops
    from skillblend.core import DialogueContext
    from skillblend.moderator import select_final, simulate_approved

    seed = _plain_seed()
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(seed, agents, judge, scorer, cfg)

    by_id = {a.skill.id: a for a in agents}
    dtx = DialogueContext(
        (Utterance(0, 0, seed.pair[0].text), Utterance(1, 1, seed.pair[1].text))
    )
    active = seed.seed_dataset
    for t in range(2, cfg.episode_length):
        side = t % 2
        stx_all = seed.contexts[side]
        candidates = []
        for skill in cfg.skill_roster:
            stx_own = stx_all.get(skill) or SkillContext(skill, ())
            result = simulate_approved(by_id[skill.id], judge, stx_all, stx_own, dtx, cfg.max_attempts)
            if result.candidate is not None:
                candidates.append(result.candidate)
        stx_active = stx_all.get(active) or SkillContext(active, ())
        outcome = select_final(by_id[active.id], scorer, stx_active, dtx, candidates, cfg.alpha, cfg.epsilon)
        assert ep.turns[t].utterance.text == outcome.winner.text
        assert ep.turns[t].mic_passed == outcome.mic_passed
        assert ep.turns[t].phase2_attempts == outcome.winner.attempts
        dtx = dtx.extended(Utterance(side, t, outcome.winner.text))
        if outcome.mic_passed:
            active = outcome.winner.origin


def test_run_episode_aborts_when_everything_contradicts(cfg):
    # every template rendering contains a vowel, so all attempts trip
    spec = LexiconSpec(
        DEFAULT_ROSTER,
        {},
        contradiction_pairs=tuple(("poison line", v) for v in "aeiou"),
    )
    judge = LexicalNliJudge(spec)
    scorer = LexicalSkillScorer(default_lexicon(DEFAULT_ROSTER))
    agents = default_scripted_agents(DEFAULT_ROSTER)
    contexts = (
        SkillContextSet((SkillContext(P, ("poison line",)),)),
        SkillContextSet((SkillContext(P, ("poison line",)),)),
    )
    seed = SeedEpisode(
        P,
        (Utterance(0, 0, "hello"), Utterance(1, 1, "hi")),
        contexts,
    )
    with pytest.raises(EpisodeAbortError) as excinfo:
        helpers.run_episode(seed, agents, judge, scorer, cfg, episode_id="ep-dead")
    assert excinfo.value.turn == 2
    assert excinfo.value.episode_id == "ep-dead"


def test_run_batch_order_is_seed_order_and_parallel_safe(tmp_path, corpus_files):
    cfg = EngineConfig(rng_seed=31)
    seeds = helpers.make_seeds(corpus_files, cfg, 24)
    agents, judge, scorer = _stack(cfg)

    lines_by_parallelism = {}
    for parallelism in (1, 8):
        collected = []
        report = run_batch(
            seeds, agents, judge, scorer, cfg,
            parallelism=parallelism, write=collected.append,
        )
        assert report.episodes_written == 24
        assert report.aborts == ()
        assert [ep.id for ep in collected] == [f"ep-{i:06d}" for i in range(24)]
        lines_by_parallelism[parallelism] = [episode_line(ep) for ep in collected]
    assert lines_by_parallelism[1] == lines_by_parallelism[8]


def test_default_stack_can_pass_the_mic(cfg):
    # contexts where the knowledge candidate covers more of the active
    # agent's context union than the active agent's own first-line echo
    agents, judge, scorer = _stack(cfg)
    contexts = SkillContextSet(
        (
            SkillContext(P, ("zzz", "qqq www")),
            SkillContext(K, ("qqq www",)),
            SkillContext(E, ("mmm",)),
        )
    )
    seed = SeedEpisode(
        P,
        (Utterance(0, 0, "hello there"), Utterance(1, 1, "hi pal")),
        (contexts, contexts),
    )
    ep = helpers.run_episode(seed, agents, judge, scorer, cfg)
    # turn 2: P echoes "zzz" (overlap 1 + 0.5) vs K echoing "qqq www" (overlap 2)
    assert ep.turns[2].mic_passed
    assert ep.turns[2].utterance.text == "Did you know? qqq www"


def test_run_batch_refusal_total_matches_recount(corpus_files):
    cfg = EngineConfig(rng_seed=5)
    seeds = helpers.make_seeds(corpus_files, cfg, 15)
    agents, judge, scorer = _stack(cfg)
    collected = []
    report = run_batch(seeds, agents, judge, scorer, cfg, write=collected.append)
    recount = sum(len(t.refusals) for ep in collected for t in ep.turns)
    assert report.refusal_total == recount


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_stamps_one_config_digest_per_batch(corpus_files, monkeypatch, parallelism):
    cfg = EngineConfig(rng_seed=5)
    seeds = helpers.make_seeds(corpus_files, cfg, 6)
    agents, judge, scorer = _stack(cfg)
    digests = []

    def counted(c):
        digests.append(config_digest(c))
        return digests[-1]

    monkeypatch.setattr(orchestrator, "config_digest", counted)
    collected = []
    run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism, write=collected.append)
    assert digests == [config_digest(cfg)]
    assert [ep.config_digest for ep in collected] == digests * 6


def test_run_batch_records_aborts_without_writing(cfg):
    spec = LexiconSpec(
        DEFAULT_ROSTER, {}, contradiction_pairs=tuple(("poison line", v) for v in "aeiou")
    )
    judge = LexicalNliJudge(spec)
    scorer = LexicalSkillScorer(default_lexicon(DEFAULT_ROSTER))
    agents = default_scripted_agents(DEFAULT_ROSTER)
    doomed = SeedEpisode(
        P,
        (Utterance(0, 0, "hello"), Utterance(1, 1, "hi")),
        (
            SkillContextSet((SkillContext(P, ("poison line",)),)),
            SkillContextSet((SkillContext(P, ("poison line",)),)),
        ),
    )
    collected = []
    report = run_batch([doomed], agents, judge, scorer, cfg, write=collected.append)
    assert report.episodes_written == 0
    assert collected == []
    assert len(report.aborts) == 1
    assert report.aborts[0][0] == 0


def test_run_batch_progress_callback(corpus_files):
    cfg = EngineConfig(rng_seed=2)
    seeds = helpers.make_seeds(corpus_files, cfg, 5)
    agents, judge, scorer = _stack(cfg)
    ticks = []
    run_batch(seeds, agents, judge, scorer, cfg, on_progress=lambda w, a: ticks.append((w, a)))
    assert ticks[-1] == (5, 0)
    assert [w for w, _ in ticks] == [1, 2, 3, 4, 5]


def test_run_batch_writer_failure_carries_partial_report(corpus_files, monkeypatch):
    cfg = EngineConfig(rng_seed=3)
    seeds = helpers.make_seeds(corpus_files, cfg, 100)
    agents, judge, scorer = _stack(cfg)
    started = []
    run_episode_uncounted = orchestrator.run_episode

    def counted(*args, **kwargs):
        started.append(kwargs["episode_id"])
        time.sleep(0.002)  # hands the writing thread the GIL
        return run_episode_uncounted(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", counted)
    written = []

    def flaky(ep):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(ep)

    with pytest.raises(BatchError) as excinfo:
        run_batch(seeds, agents, judge, scorer, cfg, write=flaky)
    assert excinfo.value.partial.episodes_written == 3
    assert len(written) == 3
    # the batch stops after the failed write: 5 episodes start on a quiet
    # machine (the worker is one ahead of the writer), far fewer than 100
    assert len(started) < 50


class _DeadJudge:
    """A judge whose backend is down: each call fails after a short wait,
    as a remote judge does once its retries run out. Every episode dies at
    its first verdict, so ``calls`` counts the episodes started."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def judge(self, premise, hypothesis):
        with self._lock:
            self.calls += 1
        time.sleep(0.005)
        raise BackendUnavailableError("/nli: backend unavailable")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_stops_at_first_backend_error(cfg, parallelism):
    agents, _, scorer = _stack(cfg)
    judge = _DeadJudge()
    seeds = [_plain_seed()] * 200
    with pytest.raises(BackendUnavailableError, match="episode ep-000000 "):
        run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism)
    # about parallelism + 1 episodes start; the bound leaves the main thread
    # over 100 ms to cancel the rest, since each episode sleeps 5 ms
    assert judge.calls < 50


def test_run_batch_rejects_bad_parallelism(cfg):
    agents, judge, scorer = _stack(cfg)
    with pytest.raises(ValueError):
        run_batch([], agents, judge, scorer, cfg, parallelism=0)


# --- per-episode memo of backend verdicts ----------------------------------------


class _CountingBackends:
    """Wraps a judge and a scorer; logs every call that reaches them as
    (route, episode id, input). The episode id is whatever ``episode``
    holds on the calling thread."""

    def __init__(self, judge, scorer):
        self._judge = judge
        self._scorer = scorer
        self.roster = scorer.roster
        self.local = threading.local()
        self.calls = []

    def judge(self, premise, hypothesis):
        self.calls.append(("nli", getattr(self.local, "episode", None), (premise, hypothesis)))
        return self._judge.judge(premise, hypothesis)

    def score(self, text):
        self.calls.append(("classify", getattr(self.local, "episode", None), text))
        return self._scorer.score(text)


def _write_corpus(path, seeds, agents, judge, scorer, cfg, parallelism):
    with EpisodeWriter(str(path)) as writer:
        run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism, write=writer.write)
    return path.read_bytes()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_sends_each_backend_input_once_per_episode(
    tmp_path, corpus_files, monkeypatch, parallelism
):
    cfg = EngineConfig(rng_seed=31)
    seeds = helpers.make_seeds(corpus_files, cfg, 12)
    agents, judge, scorer = _stack(cfg)
    plain = _write_corpus(tmp_path / "plain.jsonl", seeds, agents, judge, scorer, cfg, parallelism)

    counting = _CountingBackends(judge, scorer)
    run_episode_untagged = orchestrator.run_episode

    def tagged(*args, **kwargs):
        counting.local.episode = kwargs["episode_id"]
        return run_episode_untagged(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", tagged)
    counted = _write_corpus(
        tmp_path / "counted.jsonl", seeds, agents, counting, counting, cfg, parallelism
    )

    assert counted == plain
    assert {episode for _, episode, _ in counting.calls} == {f"ep-{i:06d}" for i in range(12)}
    repeated = [call for call, n in Counter(counting.calls).items() if n > 1]
    assert repeated == []


_REMOTE_TABLES = {
    "generate": {
        "by_skill": {
            "P": [{"text": "i love skiing", "score": 0.9}, {"text": "me too, personally", "score": 0.8}],
            "K": [{"text": "did you know skiing is old", "score": 0.7}],
            "E": [{"text": "that sounds fun", "score": 0.6}],
        }
    },
    "rank": {"by_text": {"that sounds fun": 0.9}, "default_score": 0.1},
    "nli": {
        "pairs": [
            {"premise": "i like to ski in winter", "hypothesis": "i love skiing", "label": "contradict"}
        ],
        "default": {"label": "neutral", "confidence": 0.5},
    },
    "classify": {"by_text": {"i love skiing a lot": [0.8, 0.1, 0.1]}, "default": [0.2, 0.3, 0.5]},
}


def _remote_stack(endpoint, cfg):
    agents = [RemoteSkillAgent(endpoint, skill) for skill in cfg.skill_roster]
    return agents, RemoteNliJudge(endpoint), RemoteSkillScorer(endpoint, cfg.skill_roster)


def test_remote_episode_sends_each_nli_and_classify_body_once(cfg):
    with serve_mock(_REMOTE_TABLES) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        ep = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg)
        requests = list(server.requests)
    assert len(ep.turns) == cfg.episode_length
    assert any(t.refusals for t in ep.turns)  # the consistency gate did refuse
    for route in ("/nli", "/classify"):
        bodies = Counter(body for r, body in requests if r == route)
        assert bodies and max(bodies.values()) == 1, route


def test_episode_memo_does_not_outlive_its_episode(cfg):
    agents, judge, scorer = _stack(cfg)
    counting = _CountingBackends(judge, scorer)
    first = helpers.run_episode(_plain_seed(), agents, counting, counting, cfg)
    calls_first = list(counting.calls)
    second = helpers.run_episode(_plain_seed(), agents, counting, counting, cfg)
    assert calls_first
    assert counting.calls[len(calls_first):] == calls_first
    assert episode_line(first) == episode_line(second)


def test_remote_batch_holds_one_connection_per_worker(tmp_path, corpus_files, cfg, connects):
    seeds = helpers.make_seeds(corpus_files, cfg, 8)
    corpora = {}
    with serve_mock(_REMOTE_TABLES) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        for parallelism in (1, 2):
            del connects[:]
            path = tmp_path / f"p{parallelism}.jsonl"
            corpora[parallelism] = _write_corpus(path, seeds, agents, judge, scorer, cfg, parallelism)
            assert 1 <= len(connects) <= parallelism
    assert corpora[1] == corpora[2]
    assert corpora[1].count(b"\n") == 8
