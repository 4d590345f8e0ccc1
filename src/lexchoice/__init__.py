"""lexchoice: pick the most typical near-synonym for a gap in a sentence.

Train on a POS-tagged corpus, build per-word lexical co-occurrence networks
whose edges are significant collocations (t-score and mutual information
both above threshold, weighted by t-score), and score candidates by summing
discounted shortest-path relation scores between each candidate and the
sentence's words. Includes the gap-fill evaluation harness with a
most-frequent-synonym baseline and Pearson's chi-squared significance test.
"""

from .choice import (
    GAP,
    Candidate,
    CandidateSet,
    ChoiceScore,
    GapSentence,
    choose,
    parse_gap_sentence,
)
from .cooc import (
    PairCounts,
    SignificanceThresholds,
    WindowConfig,
    count_pairs,
)
from .corpus import (
    CorpusConfig,
    CorpusFormatError,
    Token,
    Vocabulary,
    build_vocabulary,
    ingest,
)
from .evaluation import (
    EvalReport,
    GapInstance,
    SetDefinition,
    baseline_choose,
    chi_square,
    run_grid,
)
from .network import (
    CoocNetwork,
    InvalidRootError,
    NetworkCaps,
    SigScore,
    build_network,
    max_sig_shortest_path,
    significance,
)

__version__ = "0.1.0"
