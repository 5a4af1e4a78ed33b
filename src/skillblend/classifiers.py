"""The moderator's two perception channels: NLI judgment and skill
classification.

Both come as interfaces with two implementations each: deterministic
lexical stand-ins (substring pattern tables and weighted keyword counts)
and remote clients speaking the wire protocol from :mod:`skillblend.agents`.
The NLI judge is batch-shaped: one call judges a hypothesis against every
premise it is given. It answers the one question the consistency gate
asks, whether the hypothesis contradicts a premise, with one bit per
premise; a remote judge's labels other than ``contradict`` and its
confidences are checked on the wire and then dropped. The remote clients
also take several items in one request (``judge_batch``, ``score_batch``),
which the engine's episode memo uses whenever a backend has them; in a
lockstep group (see :mod:`skillblend.agents`) the items of every member
waiting on the same route at the same step go out in one request.
The engine never embeds model weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .agents import BackendEndpoint, ProtocolError, exchange, finite_float, post_json, wire_list
from .core import SkillDistribution, SkillId
from .distmath import softmax


class NliJudge(Protocol):
    """Judges whether a hypothesis contradicts each of a batch of premises,
    returning one bit per premise in premise order (True: contradicts).
    Implementations must be deterministic for fixed inputs, and a premise's
    bit must not depend on the other premises in the batch."""

    def judge(self, premises: tuple[str, ...], hypothesis: str) -> tuple[bool, ...]:
        ...


class SkillScorer(Protocol):
    """Maps an utterance to a probability distribution over the roster.
    Implementations must be deterministic for fixed inputs."""

    roster: tuple[SkillId, ...]

    def score(self, text: str) -> SkillDistribution:
        ...


@dataclass(frozen=True)
class LexiconSpec:
    """Configuration for the lexical stand-ins.

    ``keywords`` maps each roster skill id to (keyword, weight) pairs;
    ``contradiction_pairs`` is a (premise-pattern, hypothesis-pattern)
    table. Both are stored lower-cased and matched by case-insensitive
    substring; a premise and hypothesis contradict iff some pair matches.
    """

    roster: tuple[SkillId, ...]
    keywords: Mapping[str, tuple[tuple[str, float], ...]]
    contradiction_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if len(self.roster) < 2:
            raise ValueError("a lexicon needs a roster of at least two skills")
        normalized = {}
        for skill in self.roster:
            entries = tuple(self.keywords.get(skill.id, ()))
            for keyword, _weight in entries:
                if not keyword.strip():
                    raise ValueError("keywords must be non-blank")
            normalized[skill.id] = tuple([(kw.lower(), weight) for kw, weight in entries])
        extra = set(self.keywords) - set(normalized)
        if extra:
            raise ValueError(f"keywords reference skills outside the roster: {sorted(extra)}")
        object.__setattr__(self, "keywords", normalized)
        for premise, hypothesis in self.contradiction_pairs:
            if not premise.strip() or not hypothesis.strip():
                raise ValueError("NLI patterns must be non-blank")
        pairs = tuple([(p.lower(), h.lower()) for p, h in self.contradiction_pairs])
        object.__setattr__(self, "contradiction_pairs", pairs)


@dataclass(frozen=True)
class LexicalNliJudge:
    spec: LexiconSpec

    def judge(self, premises: tuple[str, ...], hypothesis: str) -> tuple[bool, ...]:
        """Per premise: True iff a contradiction pair matches. Only the
        pairs whose hypothesis pattern the hypothesis contains can match, so
        they are picked once per batch."""
        hypothesis_l = hypothesis.lower()
        patterns = [p for p, h in self.spec.contradiction_pairs if h in hypothesis_l]
        lowered = map(str.lower, premises)
        return tuple([any(pat in premise for pat in patterns) for premise in lowered])


@dataclass(frozen=True)
class LexicalSkillScorer:
    spec: LexiconSpec

    @property
    def roster(self) -> tuple[SkillId, ...]:
        return self.spec.roster

    def score(self, text: str) -> SkillDistribution:
        """Raw score per skill = sum of weights of its keywords found in the
        text (case-insensitive substring); the result is the softmax of the
        raw scores, so keyword-free text comes out uniform."""
        spec = self.spec
        text_l = text.lower()
        raw = [
            sum(weight for keyword, weight in spec.keywords[skill.id] if keyword in text_l)
            for skill in spec.roster
        ]
        return softmax(raw)


def _wire_contradicts(item: object, raw: bytes) -> bool:
    """One ``{"label", "confidence"}`` object of an ``/nli`` response,
    checked whole; only its label decides the bit."""
    if not isinstance(item, dict):
        raise ProtocolError("/nli: verdict is not a JSON object", raw)
    label = item.get("label")
    if label not in ("entail", "neutral", "contradict"):
        raise ProtocolError(f"/nli: missing or unknown 'label' {label!r}", raw)
    message = "/nli: missing or non-numeric 'confidence'"
    confidence = finite_float(item.get("confidence"), message, raw)
    if not 0.0 <= confidence <= 1.0:
        raise ProtocolError("/nli: confidence must be in [0, 1]", raw)
    return label == "contradict"


@dataclass(frozen=True)
class RemoteNliJudge:
    endpoint: BackendEndpoint

    def judge(self, premises: tuple[str, ...], hypothesis: str) -> tuple[bool, ...]:
        """The batch as a one-item ``/nli`` request."""
        return self.judge_batch(((premises, hypothesis),))[0]

    def judge_batch(
        self, items: Sequence[tuple[tuple[str, ...], str]]
    ) -> list[tuple[bool, ...]]:
        """Several (premises, hypothesis) items in one ``/nli`` request; the
        response must hold one verdict list per item and one verdict per
        premise."""
        entries = [{"premises": list(p), "hypothesis": h} for p, h in items]
        lists, raw = exchange(post_json, self.endpoint, "/nli", entries)
        bits = []
        for (premises, _hypothesis), verdicts in zip(items, lists):
            verdicts = wire_list(verdicts, len(premises), "/nli", "verdicts", raw)
            bits.append(tuple([_wire_contradicts(item, raw) for item in verdicts]))
        return bits


@dataclass(frozen=True)
class RemoteSkillScorer:
    endpoint: BackendEndpoint
    roster: tuple[SkillId, ...]

    def score(self, text: str) -> SkillDistribution:
        """The text as a one-item ``/classify`` request."""
        return self.score_batch((text,))[0]

    def score_batch(self, texts: Sequence[str]) -> list[SkillDistribution]:
        """Several texts in one ``/classify`` request; the response must
        hold one distribution of roster length per text."""
        dists, raw = exchange(post_json, self.endpoint, "/classify", list(texts))
        return [self._distribution(dist, raw) for dist in dists]

    def _distribution(self, dist: object, raw: bytes) -> SkillDistribution:
        dist = wire_list(dist, len(self.roster), "/classify", "probabilities", raw)
        message = "/classify: non-numeric probability in response"
        probs = tuple([finite_float(p, message, raw) for p in dist])
        try:
            return SkillDistribution(probs)
        except ValueError as exc:
            raise ProtocolError(f"/classify: {exc}", raw)


_DEFAULT_KEYWORDS: dict[str, tuple[tuple[str, float], ...]] = {
    "P": (
        ("i love", 1.0),
        ("my favorite", 1.0),
        ("me too", 1.0),
        ("personally", 1.0),
        ("for me", 0.5),
        ("i like", 0.5),
    ),
    "K": (
        ("did you know", 1.0),
        ("actually", 1.0),
        ("fact", 1.0),
        ("known", 0.5),
        ("history", 0.5),
        ("designed", 0.5),
    ),
    "E": (
        ("sounds", 1.0),
        ("glad", 1.0),
        ("i hear you", 1.0),
        ("sorry", 1.0),
        ("hope", 0.5),
        ("feel", 0.5),
    ),
}

_DEFAULT_CONTRADICTIONS: tuple[tuple[str, str], ...] = (
    ("i wear sneakers everyday", "sandals"),
    ("i am a vegetarian", "bacon"),
    ("i live alone", "my roommate"),
)


def default_lexicon(roster: Sequence[SkillId]) -> LexiconSpec:
    """Shipped lexical configuration; skills beyond P/K/E get empty keyword
    lists (their texts then score uniform)."""
    keywords = {s.id: _DEFAULT_KEYWORDS.get(s.id, ()) for s in roster}
    return LexiconSpec(
        roster=tuple(roster),
        keywords=keywords,
        contradiction_pairs=_DEFAULT_CONTRADICTIONS,
    )
