"""Score candidate synonyms against a gap sentence and rank them.

Each candidate contributes the sum, over every non-stop token occurrence in
the sentence (the gap itself excluded), of the candidate network's relation
score for that word. Repeated words add evidence once per occurrence.
Unknown and unreachable words contribute nothing, so the totals are never
negative; when every candidate totals zero the ranking falls back to the
training-frequency baseline.

A ranking holds totals alone. The per-word breakdown of a total
(``evidence_breakdown``) is derived again from the network and the sentence
by the code that shows it, so a ranking keeps no map of a network's scores.

A ``CandidateSet`` is read-only. Its members' tie order (higher training
frequency first, then the smaller word) is fixed once, when it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter

from .corpus import DEFAULT_STOP_TAGS, GAP, Token, Vocabulary
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

    def _window(self, window: int | None) -> list[Token]:
        """The tokens other than the gap, or those within ``window`` positions of it."""
        tokens, gap = self.tokens, self.gap_index
        if window is None:
            return tokens[:gap] + tokens[gap + 1:]
        check_evidence_window(window)
        return tokens[max(0, gap - window):gap] + tokens[gap + 1:gap + 1 + window]

    def evidence_tokens(self, evidence_window: int | None = None) -> list[Token]:
        """Non-stop tokens usable as evidence, optionally only those within
        ``evidence_window`` positions of the gap."""
        return [tok for tok in self._window(evidence_window) if not tok.is_stop]

    def evidence_surfaces(self, evidence_window: int | None = None) -> list[str]:
        """The surfaces of ``evidence_tokens``, picked in one pass."""
        return [tok.surface for tok in self._window(evidence_window) if not tok.is_stop]


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


@dataclass(frozen=True)
class CandidateSet:
    set_id: str
    pos_category: str
    members: tuple[Candidate, ...]

    def __post_init__(self):
        _check_members(self.set_id, [m.word for m in self.members])
        object.__setattr__(self, "members", tuple(
            sorted(self.members, key=lambda m: (-m.training_freq, m.word))))


@dataclass
class ChoiceScore:
    """One candidate's evidence total."""

    candidate: str
    total: float


def _total(net: CoocNetwork, surfaces: list[str]) -> float:
    """The network's path scores over ``surfaces``, added left to right from
    0.0 (``sum`` may add them otherwise, with other rounding). Only the
    surfaces with a score are read: the others would add exactly +0.0 to a
    sum that is never negative."""
    scores = net.path_scores()
    return reduce(add, map(scores.__getitem__, filter(scores.__contains__, surfaces)), 0.0)


def evidence_breakdown(
    net: CoocNetwork, sentence: GapSentence, evidence_window: int | None = None
) -> dict[str, float]:
    """Each evidence word's part of ``net``'s total for ``sentence``: its
    path score once per occurrence, added in sentence order, in the order
    the words first occur."""
    scores = net.path_scores()
    per_word: dict[str, float] = {}
    for surface in sentence.evidence_surfaces(evidence_window):
        per_word[surface] = per_word.get(surface, 0.0) + scores.get(surface, 0.0)
    return per_word


def top_contributors(per_word: dict[str, float], n: int = 5) -> list[tuple[str, float]]:
    """The ``n`` largest positive parts of an ``evidence_breakdown``,
    largest first, ties to the smaller word."""
    ranked = sorted(per_word.items(), key=lambda item: (-item[1], item[0]))
    return [(word, value) for word, value in ranked[:n] if value > 0]


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
    return _rank(cands, sentence.evidence_surfaces(evidence_window))


def _rank(cands: CandidateSet, surfaces: list[str]) -> list[ChoiceScore]:
    """Total ``surfaces`` against each candidate's network and rank as
    ``choose`` does: the members, already in tie order, by one stable sort
    on the totals, descending (``reverse`` keeps equal totals in tie order)."""
    scores = [ChoiceScore(m.word, _total(m.network, surfaces)) for m in cands.members]
    scores.sort(key=attrgetter("total"), reverse=True)
    return scores


def parse_gap_sentence(
    text: str,
    gap_marker: str = GAP,
    stop_pos_tags: frozenset[str] = DEFAULT_STOP_TAGS,
    vocab: Vocabulary | None = None,
) -> GapSentence:
    """Parse a one-line gap sentence.

    Tokens are whitespace-separated ``surface/TAG`` items, split at the
    last slash, so ``a/b/NN`` has surface ``a/b``; a bare surface has an
    empty tag, and an empty surface (``/NN``) is refused as ``Token`` refuses it.
    Exactly one token must equal ``gap_marker``, and no other may have the
    placeholder ``GAP`` as its surface. Surfaces are lowercased, and every
    token has sentence id 0. A token is flagged a stop word, so it never
    counts as evidence, when its tag is in ``stop_pos_tags``, as ingest
    flags training tokens, or, given the training vocabulary ``vocab``, when
    that counts its surface more than F times. With the default tags, that
    is the rule ``corpus.apply_stop_policy`` applies to a stream.
    """
    tokens: list[Token] = []
    gap_index: int | None = None
    new = Token.__new__
    for piece in text.split():
        if piece == gap_marker:
            if gap_index is not None:
                raise ValueError("sentence contains more than one gap marker")
            gap_index = len(tokens)
            tokens.append(Token(GAP, "GAP", 0, False))
            continue
        surface, slash, pos = piece.rpartition("/")
        if not slash:
            surface, pos = pos, ""
        elif not surface:
            raise ValueError("token surface must be non-empty")
        if surface == GAP:
            raise ValueError(f"token {piece!r} has the gap marker {GAP!r} as its surface")
        tok = new(Token)
        tok.surface = surface.lower()
        tok.pos = pos
        tok.sentence_id = 0
        tok.is_stop = pos in stop_pos_tags
        tokens.append(tok)
    if gap_index is None:
        raise ValueError(f"sentence contains no gap marker {gap_marker!r}")
    # The frequency rule, outside the loop, so a parse without a vocabulary hashes no surface.
    if vocab is not None:
        for tok in tokens:
            tok.is_stop = tok.is_stop or vocab.is_frequency_stopped(tok.surface)
    return GapSentence(tokens, gap_index)
