import pytest
from hypothesis import strategies as st

from lexchoice.cooc import PairCounts
from lexchoice.corpus import GAP, CorpusConfig, Vocabulary, build_vocabulary, ingest

TINY_CORPUS = """\
the/DT team/NN 's/POS most/RBS urgent/JJ task/NN was/VBD to/TO learn/VB fast/RB
a/DT difficult/JJ task/NN needs/VBZ time/NN and/CC care/NN
to/TO learn/VB a/DT difficult/JJ lesson/NN takes/VBZ effort/NN
the/DT new/JJ hire/NN will/MD learn/VB the/DT difficult/JJ role/NN
"""


@pytest.fixture
def tiny_config():
    return CorpusConfig(stop_threshold=100)


@pytest.fixture
def tiny_stream(tiny_config):
    return ingest(TINY_CORPUS, tiny_config)


@pytest.fixture
def tiny_vocab(tiny_stream, tiny_config):
    return build_vocabulary(tiny_stream, tiny_config)


# Surfaces the ingesters accept: no whitespace and not the gap marker, with
# slashes, '=', case folding and control characters among them.
surfaces = st.one_of(
    st.sampled_from(["a", "b", "B", "a/b", "x=y", "é", "ß", "İ"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
).filter(lambda w: not any(c.isspace() for c in w) and w.lower() != GAP)


def tagged_sentences_of(words: st.SearchStrategy[str],
                        max_sentences: int = 8) -> st.SearchStrategy:
    """Lists of 1 to 12 ``(surface, tag)`` tokens drawn from ``words``, one per sentence."""
    return st.lists(st.lists(st.tuples(words, st.sampled_from(["NN", "VB", "CD", "NNP"])),
                             min_size=1, max_size=12),
                    max_size=max_sentences)


# Few words, so that pairs repeat. Most pairs on such text fall short of
# t = 0.5, so a test wanting evidence draws a t_min near 0.
grid_text = tagged_sentences_of(st.sampled_from(["a", "b", "c", "d", "e", "F", "g/h"]),
                                max_sentences=16)


def tagged_text(sents: list[list[tuple[str, str]]], fmt: str) -> str:
    """``(surface, tag)`` sentences as corpus text in the ``slash`` or ``tsv`` layout."""
    if fmt == "slash":
        return "\n".join(" ".join(f"{w}/{tag}" for w, tag in sent) for sent in sents)
    return "\n\n".join("\n".join(f"{w}\t{tag}" for w, tag in sent) for sent in sents)


def pair_key(w1: str, w2: str) -> tuple[str, str]:
    """The pair's table key: its two words in sorted order."""
    return (w1, w2) if w1 <= w2 else (w2, w1)


def assert_same_table(got: PairCounts, want: PairCounts) -> None:
    """``got`` holds ``want``'s pair counts, vocabulary and window settings."""
    assert got.pairs == want.pairs
    for name in ("vocab", "half_width", "cross_sentences"):
        assert getattr(got, name) == getattr(want, name), name


def mirrored_rows(pairs: dict[tuple[str, str], int]) -> dict[str, dict[str, int]]:
    """The rows of a pair table, ``rows[w1][w2] == rows[w2][w1]``, holding ``pairs``."""
    rows: dict[str, dict[str, int]] = {}
    for (w1, w2), count in pairs.items():
        rows.setdefault(w1, {})[w2] = count
        rows.setdefault(w2, {})[w1] = count
    return rows


# A word in no pair, whose count brings a hand-made vocabulary up to its N.
FILLER = "<filler>"


def filled_vocabulary(freq: dict[str, int], total_tokens: int,
                      stop_threshold: int = 800) -> Vocabulary:
    """``freq`` plus ``FILLER`` for the tokens it leaves out of
    ``total_tokens``: a consistent vocabulary under which every pair of
    ``freq``'s words has the t and MI that N = ``total_tokens`` gives."""
    filler = total_tokens - sum(freq.values())
    assert filler >= 0 and FILLER not in freq
    return Vocabulary({**freq, FILLER: filler} if filler else freq, total_tokens, stop_threshold)


def from_pairs(pairs: dict[tuple[str, str], int], freq: dict[str, int], total_tokens: int,
               half_width: int, cross_sentences: bool = False,
               stop_threshold: int = 800) -> PairCounts:
    """A table holding ``pairs``, each keyed ``(w1, w2)`` with w1 < w2,
    under ``filled_vocabulary(freq, total_tokens, stop_threshold)``."""
    vocab = filled_vocabulary(freq, total_tokens, stop_threshold)
    return PairCounts(mirrored_rows(pairs), vocab, half_width, cross_sentences)


def make_counts(pairs: dict[tuple[str, str], int], freq: dict[str, int],
                total_tokens: int = 10_000, half_width: int = 4,
                stop_threshold: int = 800) -> PairCounts:
    """Hand-crafted pair table; keys are normalized to sorted order."""
    table = {pair_key(*key): value for key, value in pairs.items()}
    return from_pairs(table, freq, total_tokens, half_width, stop_threshold=stop_threshold)


def significant_counts(edges: list[tuple[str, str]], extra_freq: dict[str, int] | None = None,
                       counts: dict[tuple[str, str], int] | None = None) -> PairCounts:
    """Counts in which exactly the given word pairs clear the default
    thresholds (f_xy=20, marginals 50, N=10000, k=4 gives t=4.02, MI=3.32),
    but for the pairs that ``counts`` gives a count of their own."""
    pairs = {pair_key(*edge): 20 for edge in edges}
    pairs.update((pair_key(*key), n) for key, n in (counts or {}).items())
    freq: dict[str, int] = {}
    for w1, w2 in pairs:
        freq.setdefault(w1, 50)
        freq.setdefault(w2, 50)
    if extra_freq:
        freq.update(extra_freq)
    return make_counts(pairs, freq)
