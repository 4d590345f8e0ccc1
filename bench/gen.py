"""Seeded synthetic corpus for the benchmark.

The generator lives beside the benchmark rather than in
``lexchoice.synthetic`` so that defining the benchmark changes no program
file; it can move there later.

A corpus needs four properties, or networks do not grow and nothing gets
benchmarked:

* a Zipf background whose head crosses the stop threshold F, plus ``CD``
  and ``.`` tokens, so both the frequency and the tag stop rules fire;
* topic clusters with links to several related topics, so order-2 and
  order-3 networks grow past the significance threshold's tipping point
  and their size hardly depends on the seed;
* sentence lengths that vary (6 to 40 tokens), so the k = 4, 10 and 50
  pair tables really differ;
* synonym sets whose members are each tied to a different topic, so gap
  evidence exists but is not universal.

The language, meaning the tags, the topics and their links, and the words
tied to synonym sets, comes from ``STRUCTURE_SEED``; the text
sampled from it comes from ``seed``. So every seed draws a different corpus
from the same language, and the networks, whose size follows the topic
links, cost about the same to build whatever the seed. The same parameters
and seed give byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

TAGS = ("NN", "NN", "NN", "VB", "JJ", "RB")
# The gap marker of lexchoice.choice.GAP; the generator imports nothing from the package.
GAP = "____"
# Seed of the language every corpus is drawn from.
STRUCTURE_SEED = 0


@dataclass(frozen=True)
class CorpusParams:
    train_tokens: int = 25_000
    heldout_tokens: int = 8_000
    background_types: int = 8_000
    zipf_s: float = 1.0
    topics: int = 30
    topic_words: int = 20
    related_topics: int = 6
    topic_share: float = 0.45
    related_share: float = 0.20
    number_share: float = 0.03
    min_len: int = 6
    max_len: int = 40
    sets: int = 8
    set_size: int = 3
    member_rate: float = 0.5
    stray_member_rate: float = 0.002

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Corpus:
    train_text: str
    heldout_text: str
    sets: list[dict]
    topic_words: list[str]
    queries: list[tuple[str, str]]

    def write(self, out_dir: Path) -> tuple[Path, Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        train, heldout = out_dir / "train.tag", out_dir / "heldout.tag"
        train.write_text(self.train_text, encoding="utf-8")
        heldout.write_text(self.heldout_text, encoding="utf-8")
        return train, heldout


class _Sampler:
    def __init__(self, p: CorpusParams, rng: random.Random):
        self.p = p
        self.rng = rng
        # The language; the text is drawn with ``rng``.
        lang = random.Random(STRUCTURE_SEED)
        self.background = [
            (f"w{i:05d}", lang.choice(TAGS)) for i in range(p.background_types)
        ]
        self.zipf_cum = list(accumulate(1.0 / (r ** p.zipf_s) for r in range(1, p.background_types + 1)))
        self.topic_vocab = [
            [(f"t{t:03d}x{j:02d}", lang.choice(TAGS)) for j in range(p.topic_words)]
            for t in range(p.topics)
        ]
        self.related = [
            lang.sample([o for o in range(p.topics) if o != t], p.related_topics)
            for t in range(p.topics)
        ]
        # Each member of each set is tied to its own topic; no topic serves two members.
        tied = lang.sample(range(p.topics), p.sets * p.set_size)
        self.sets: list[dict] = []
        self.member_of_topic: dict[int, str] = {}
        for s in range(p.sets):
            members = [f"s{s:02d}m{m}" for m in range(p.set_size)]
            for m, word in enumerate(members):
                self.member_of_topic[tied[s * p.set_size + m]] = word
            self.sets.append({"id": f"set{s:02d}", "pos": "NN", "members": members})
        self.members = [w for s in self.sets for w in s["members"]]
        self.set_of = {w: s["id"] for s in self.sets for w in s["members"]}
        self.tied = sorted(self.member_of_topic)

    def sentence(self, topic: int | None = None) -> list[str]:
        p, rng = self.p, self.rng
        if topic is None:
            topic = rng.randrange(p.topics)
        length = rng.randint(p.min_len, p.max_len)
        background = rng.choices(self.background, cum_weights=self.zipf_cum, k=length)
        tokens = []
        for i in range(length):
            roll = rng.random()
            if roll < p.topic_share:
                word, tag = rng.choice(self.topic_vocab[topic])
            elif roll < p.topic_share + p.related_share:
                word, tag = rng.choice(self.topic_vocab[rng.choice(self.related[topic])])
            elif roll < p.topic_share + p.related_share + p.number_share:
                word, tag = str(rng.randrange(1, 2000)), "CD"
            else:
                word, tag = background[i]
            tokens.append(f"{word}/{tag}")
        member = self.member_of_topic.get(topic)
        if member is not None and rng.random() < p.member_rate:
            tokens.insert(rng.randrange(len(tokens) + 1), f"{member}/NN")
        if rng.random() < p.stray_member_rate * len(self.members):
            tokens.insert(rng.randrange(len(tokens) + 1), f"{rng.choice(self.members)}/NN")
        tokens.append("./.")
        return tokens

    def gap_query(self) -> tuple[str, str]:
        """A held-out sentence from a topic tied to a set member, with the
        member blanked: (set id, text with the gap marker)."""
        topic = self.rng.choice(self.tied)
        member = self.member_of_topic[topic]
        while True:
            tokens = self.sentence(topic)
            if f"{member}/NN" in tokens:
                break
        tokens[tokens.index(f"{member}/NN")] = GAP
        return self.set_of[member], " ".join(tokens)

    def text(self, n_tokens: int) -> str:
        """Sentences whose topics are dealt in shuffled rounds, so each topic
        gets an equal share of sentences whatever the seed."""
        lines, total, deck = [], 0, []
        while total < n_tokens:
            if not deck:
                deck = list(range(self.p.topics))
                self.rng.shuffle(deck)
            tokens = self.sentence(deck.pop())
            total += len(tokens)
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"


def generate(seed: int, params: CorpusParams = CorpusParams(), queries: int = 0) -> Corpus:
    """Training and held-out text, the synonym sets, the topic words and
    ``queries`` gap queries, drawn with ``seed`` from the language of
    ``STRUCTURE_SEED``."""
    sampler = _Sampler(params, random.Random(seed))
    train = sampler.text(params.train_tokens)
    heldout = sampler.text(params.heldout_tokens)
    gap_queries = [sampler.gap_query() for _ in range(queries)]
    topic_words = [w for words in sampler.topic_vocab for w, _ in words]
    return Corpus(train, heldout, sampler.sets, topic_words, gap_queries)
