"""Score candidate synonyms against a gap sentence and rank them.

Each candidate contributes the sum, over every non-stop token occurrence in
the sentence (the gap itself excluded), of the candidate network's relation
score for that word. Repeated words add evidence once per occurrence.
Unknown and unreachable words contribute nothing, so the totals are never
negative; when every candidate totals zero the ranking falls back to the
training-frequency baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import DEFAULT_STOP_TAGS, GAP, Token
from .network import CoocNetwork


def check_evidence_window(evidence_window: int | None) -> None:
    """Refuse a negative evidence window: it keeps no evidence, so every
    choice would fall back to the baseline."""
    if evidence_window is not None and evidence_window < 0:
        raise ValueError(f"evidence_window must be non-negative, got {evidence_window}")


def _check_members(set_id: str, words: list[str]) -> None:
    """Refuse a synonym set of fewer than two words or with a word listed twice."""
    if len(words) < 2:
        raise ValueError(f"set {set_id!r} needs at least two members")
    for i, word in enumerate(words):
        if word in words[:i]:
            raise ValueError(f"set {set_id!r}: member {word!r} is listed twice")


@dataclass
class GapSentence:
    """A tagged sentence with one position blanked out."""

    tokens: list[Token]
    gap_index: int

    def __post_init__(self):
        if not 0 <= self.gap_index < len(self.tokens):
            raise ValueError(f"gap index {self.gap_index} out of bounds")

    @classmethod
    def blank_out(cls, tokens: list[Token], gap_index: int) -> "GapSentence":
        """Copy ``tokens`` with position ``gap_index`` replaced by the placeholder."""
        blanked = list(tokens)
        original = blanked[gap_index]
        blanked[gap_index] = Token(GAP, original.pos, original.sentence_id, is_stop=False)
        return cls(blanked, gap_index)

    def evidence_tokens(self, evidence_window: int | None = None) -> list[Token]:
        """Non-stop tokens usable as evidence, optionally only those within
        ``evidence_window`` positions of the gap."""
        check_evidence_window(evidence_window)
        picked = []
        for i, tok in enumerate(self.tokens):
            if i == self.gap_index or tok.is_stop:
                continue
            if evidence_window is not None and abs(i - self.gap_index) > evidence_window:
                continue
            picked.append(tok)
        return picked


@dataclass
class Candidate:
    word: str
    network: CoocNetwork
    training_freq: int

    def __post_init__(self):
        if self.word != self.network.root:
            raise ValueError(
                f"candidate {self.word!r} paired with a network rooted at "
                f"{self.network.root!r}"
            )


@dataclass
class CandidateSet:
    set_id: str
    pos_category: str
    members: list[Candidate]

    def __post_init__(self):
        _check_members(self.set_id, [m.word for m in self.members])


@dataclass
class ChoiceScore:
    """One candidate's evidence total and its per-word breakdown."""

    candidate: str
    total: float
    per_word: dict[str, float] = field(default_factory=dict)

    def top_contributors(self, n: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.per_word.items(), key=lambda item: (-item[1], item[0]))
        return [(word, value) for word, value in ranked[:n] if value > 0]


def _evidence_surfaces(sentence: GapSentence, evidence_window: int | None) -> list[str]:
    return [tok.surface for tok in sentence.evidence_tokens(evidence_window)]


def _score_surfaces(net: CoocNetwork, surfaces: list[str]) -> ChoiceScore:
    """Total the network's path scores over ``surfaces``, in order."""
    scores = net.path_scores()
    total = 0.0
    per_word: dict[str, float] = {}
    for surface in surfaces:
        value = scores.get(surface, 0.0)
        total += value
        per_word[surface] = per_word.get(surface, 0.0) + value
    return ChoiceScore(candidate=net.root, total=total, per_word=per_word)


def choose(
    cands: CandidateSet,
    sentence: GapSentence,
    evidence_window: int | None = None,
) -> list[ChoiceScore]:
    """Rank candidates by evidence total, descending.

    The sentence's evidence is picked once and scored against each
    candidate's network. Ties (the all-zero case included) go to the
    candidate with the higher training frequency, then lexicographically, so
    the degenerate ranking reproduces the most-frequent-synonym baseline.
    """
    return _rank(cands, _evidence_surfaces(sentence, evidence_window))


def _rank(cands: CandidateSet, surfaces: list[str]) -> list[ChoiceScore]:
    """Score ``surfaces`` against each candidate's network and rank as
    ``choose`` does."""
    freq = {m.word: m.training_freq for m in cands.members}
    scores = [_score_surfaces(m.network, surfaces) for m in cands.members]
    scores.sort(key=lambda s: (-s.total, -freq[s.candidate], s.candidate))
    return scores


def parse_gap_sentence(
    text: str,
    gap_marker: str = GAP,
    stop_pos_tags: frozenset[str] = DEFAULT_STOP_TAGS,
) -> GapSentence:
    """Parse a one-line gap sentence.

    Tokens are whitespace-separated ``surface/TAG`` items (bare surfaces are
    accepted with an empty tag); exactly one token must equal ``gap_marker``,
    and no other may have the placeholder ``GAP`` as its surface. A token
    whose tag is in ``stop_pos_tags`` is flagged a stop word, as ingest
    flags training tokens, so it never counts as evidence.
    """
    tokens: list[Token] = []
    gap_index: int | None = None
    for piece in text.split():
        if piece == gap_marker:
            if gap_index is not None:
                raise ValueError("sentence contains more than one gap marker")
            gap_index = len(tokens)
            tokens.append(Token(GAP, "GAP", 0, is_stop=False))
            continue
        if "/" in piece:
            surface, pos = piece.rsplit("/", 1)
        else:
            surface, pos = piece, ""
        if surface == GAP:
            raise ValueError(f"token {piece!r} has the gap marker {GAP!r} as its surface")
        tokens.append(Token(surface.lower(), pos, 0, is_stop=pos in stop_pos_tags))
    if gap_index is None:
        raise ValueError(f"sentence contains no gap marker {gap_marker!r}")
    return GapSentence(tokens, gap_index)
