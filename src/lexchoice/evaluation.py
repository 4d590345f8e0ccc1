"""Gap-fill evaluation: instances from a held-out corpus, accuracy against
the most-frequent-synonym baseline, and Pearson's chi-squared significance.

Every occurrence of a candidate word in the held-out corpus (matching
surface and coarse POS category, word sense ignored) becomes one test
instance with that occurrence blanked; a sentence holding several candidate
occurrences yields several instances, the other occurrences staying visible
as evidence. An instance holds the evidence words around its gap, picked
once by ``choose``'s rule, so every grid cell judges it on the same words.
The program's choice is correct when it matches the word the author
originally used, an imperfect but automatic stand-in for human typicality
judgments, so a strong frequency baseline can legitimately win.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count

from .choice import (Candidate, CandidateSet, ChoiceScore, _check_members, _rank,
                     check_evidence_window)
from .cooc import _NOT_STOP, SignificanceThresholds, WindowConfig, count_pairs
from .corpus import TokenStream, Vocabulary, check_stream
# ``build_network`` stays importable here for profilers that wrap
# ``evaluation.build_network``; ``run_grid`` calls ``scoring_network``.
from .network import InvalidRootError, NetworkCaps, build_network, scoring_network  # noqa: F401

# Critical value for one degree of freedom at the 5% level.
CHI2_5PCT_CRITICAL = 3.841

WINDOW_NAMES = {4: "narrow", 10: "medium", 50: "wide"}


def coarse_category(tag: str) -> str:
    """Collapse inflected tags: NN/NNS -> NN, VB* -> VB, JJ* -> JJ.

    Proper-noun tags stay their own category so that a set of common nouns
    never captures name occurrences.
    """
    if tag.startswith("NNP"):
        return "NNP"
    for prefix in ("NN", "VB", "JJ", "RB"):
        if tag.startswith(prefix):
            return prefix
    return tag


@dataclass
class GapInstance:
    """A held-out occurrence: the evidence words around it, the word, and where it stands."""

    evidence: list[str]
    gold: str
    sentence_id: int
    position: int


@dataclass
class EvalReport:
    set_id: str
    sample_size: int
    accuracy: float
    baseline_accuracy: float
    chi2: float
    significant_at_5pct: bool

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        for value in (self.accuracy, self.baseline_accuracy):
            if not 0.0 <= value <= 1.0:
                raise ValueError("accuracies must lie in [0, 1]")


@dataclass
class InstanceOutcome:
    instance: GapInstance
    ranked: list[ChoiceScore]

    @property
    def chosen(self) -> str:
        return self.ranked[0].candidate

    @property
    def correct(self) -> bool:
        return self.chosen == self.instance.gold


def extract_instances(
    held_out: TokenStream, set_defs: list[SetDefinition], evidence_window: int | None = None
) -> dict[str, list[GapInstance]]:
    """Each set's instances, one per occurrence of a member word in its
    coarse category, in stream order, from one pass over the held-out
    stream. An occurrence that two sets both claim is one instance in each
    set's list. Its evidence is the surfaces of its sentence's non-stop
    positions but its own, or of those within ``evidence_window`` of it
    (``GapSentence.evidence_surfaces``'s rule); a negative window is refused."""
    check_stream(held_out)
    check_evidence_window(evidence_window)
    claims: dict[str, dict[str, list[list[GapInstance]]]] = {}
    instances: dict[str, list[GapInstance]] = {}
    for sdef in set_defs:
        found = instances.setdefault(sdef.set_id, [])
        for word in sdef.members:
            claims.setdefault(word, {}).setdefault(sdef.pos_category, []).append(found)
    surfaces, tags, ids = held_out.surfaces, held_out.tags, held_out.sentence_ids
    stops, bounds = held_out.stops, held_out.sentence_bounds()
    reach = len(surfaces) if evidence_window is None else evidence_window
    end = 0
    for i in compress(count(), map(claims.__contains__, surfaces)):
        lists = claims[surfaces[i]].get(coarse_category(tags[i]))
        if lists is None:
            continue
        if i >= end:  # the first instance of a sentence
            after = bisect_right(bounds, i)
            start, end = bounds[after - 1], bounds[after]
        lo, hi = max(start, i - reach), min(end, i + 1 + reach)
        keep = stops[lo:hi].translate(_NOT_STOP)  # 1 at each evidence position
        keep[i - lo] = 0
        instance = GapInstance(list(compress(surfaces[lo:hi], keep)), surfaces[i], ids[i],
                               i - start)
        for found in lists:
            found.append(instance)
    return instances


def baseline_choose(cands: CandidateSet) -> str:
    """The candidate most frequent in the training corpus (ties lexicographic):
    ``choose``'s ranking when no word gives evidence: the set's first member."""
    return cands.members[0].word


def judge_instances(cands: CandidateSet, instances: list[GapInstance]) -> list[InstanceOutcome]:
    """Rank the candidates for each instance on its evidence, as ``choose`` does."""
    return [InstanceOutcome(inst, _rank(cands, inst.evidence)) for inst in instances]


def chi_square(correct_a: int, n_a: int, correct_b: int, n_b: int) -> tuple[float, bool]:
    """Pearson's chi-squared on the 2x2 correct/incorrect table, 1 degree of
    freedom, no continuity correction. Degenerate margins give (0, False)."""
    if n_a < 1 or n_b < 1:
        raise ValueError("both samples must be non-empty")
    wrong_a = n_a - correct_a
    wrong_b = n_b - correct_b
    if min(correct_a, correct_b, wrong_a, wrong_b) < 0:
        raise ValueError("correct counts cannot exceed sample sizes or be negative")
    col_correct = correct_a + correct_b
    col_wrong = wrong_a + wrong_b
    if col_correct == 0 or col_wrong == 0:
        return 0.0, False
    total = n_a + n_b
    chi2 = (
        total
        * (correct_a * wrong_b - correct_b * wrong_a) ** 2
        / (col_correct * col_wrong * n_a * n_b)
    )
    return chi2, chi2 > CHI2_5PCT_CRITICAL


def summarize(cands: CandidateSet, outcomes: list[InstanceOutcome]) -> EvalReport:
    """Accuracy of the choice program and of the baseline over the outcomes."""
    n = len(outcomes)
    baseline_word = baseline_choose(cands)
    correct = sum(1 for o in outcomes if o.correct)
    baseline_correct = sum(1 for o in outcomes if o.instance.gold == baseline_word)
    chi2, significant = chi_square(correct, n, baseline_correct, n)
    return EvalReport(
        set_id=cands.set_id,
        sample_size=n,
        accuracy=correct / n,
        baseline_accuracy=baseline_correct / n,
        chi2=chi2,
        significant_at_5pct=significant,
    )


@dataclass
class SetDefinition:
    set_id: str
    pos_category: str
    members: list[str]

    def __post_init__(self):
        self.members = [w.lower() for w in self.members]
        _check_members(self.set_id, self.members)


@dataclass
class CellResult:
    """All per-set results for one (window, order) configuration."""

    window: int
    order: int
    reports: dict[str, EvalReport]
    outcomes: dict[str, list[InstanceOutcome]]


def grid_cells(windows: list[int], orders: list[int]) -> list[tuple[int, int]]:
    """The window/order sweep, omitting the wide third-order cell."""
    return [(k, d) for k in windows for d in orders if not (k == 50 and d == 3)]


def run_grid(
    train_ts: TokenStream,
    train_vocab: Vocabulary,
    heldout_ts: TokenStream,
    set_defs: list[SetDefinition],
    windows: list[int],
    orders: list[int],
    thresholds: SignificanceThresholds = SignificanceThresholds(),
    caps: NetworkCaps = NetworkCaps(),
    cross_sentences: bool = False,
    evidence_window: int | None = None,
) -> list[CellResult]:
    """Evaluate every synonym set at every grid cell.

    The training stream is walked once, by ``count_pairs`` at the widest
    window, and each window's pair table is derived from that occurrence
    record (``PairCounts.at_half_width``); the held-out stream is walked
    once, by ``extract_instances``. Every cell of a window builds its
    members' networks from the window's one table, so the significance rows
    it memoises, and the pair rows behind them, are computed once per window
    and only for the words the networks reach. The networks are
    ``scoring_network``'s: the relation scores read only shortest paths, so
    the same-depth edges that ``build_network`` keeps are left out, and the
    rows of each network's deepest layer, which only those edges need, are
    never counted. Each instance's evidence is picked once, when it is
    extracted, and every cell judges it on those words. Networks are
    queried read-only across all of a cell's instances, and an outcome
    keeps only each candidate's total.

    A window, an order or a set id listed twice is refused before any
    counting: the cells or the columns it names would be one. So is a
    negative evidence window, and so is a member that cannot root a network
    (``InvalidRootError``): one absent from training or counted more than F
    times. Either stream, if not a ``TokenStream``, raises ``TypeError``.
    """
    check_stream(train_ts)
    check_stream(heldout_ts)
    for name, values in (("windows", windows), ("orders", orders)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} must be a list of distinct integers, "
                             f"got {repeated[0]} twice in {values!r}")
    set_ids = [sdef.set_id for sdef in set_defs]
    repeated = [s for i, s in enumerate(set_ids) if s in set_ids[:i]]
    if repeated:
        raise ValueError(f"set ids must be distinct, got {repeated[0]!r} twice")
    for sdef in set_defs:
        for word in sdef.members:
            count = train_vocab.freq.get(word, 0)
            if count == 0 or train_vocab.is_frequency_stopped(word):
                why = "absent from training" if count == 0 else "a stop word"
                raise InvalidRootError(f"set {sdef.set_id!r}: member {word!r} is {why} "
                                       f"(count {count}, F = {train_vocab.stop_threshold})")
    order_cells = grid_cells(windows, orders)
    if not order_cells:
        raise ValueError(f"windows {windows} and orders {orders} leave no grid cell to "
                         "evaluate (window 50 has no order 3)")
    instances = extract_instances(heldout_ts, set_defs, evidence_window)
    for sdef in set_defs:
        if not instances[sdef.set_id]:
            raise ValueError(
                f"set {sdef.set_id!r}: no occurrences of {', '.join(sdef.members)} "
                "in the held-out corpus"
            )

    record = count_pairs(train_ts, train_vocab,
                         WindowConfig(max(k for k, _ in order_cells), cross_sentences))
    cells = []
    for window, order in order_cells:
        if not cells or cells[-1].window != window:  # the window's first cell
            counts = record.at_half_width(window)
        cell = CellResult(window, order, {}, {})
        for sdef in set_defs:
            cands = CandidateSet(sdef.set_id, sdef.pos_category, [
                Candidate(w, scoring_network(w, counts, thresholds, order, caps),
                          train_vocab.freq[w]) for w in sdef.members])
            outcomes = cell.outcomes[sdef.set_id] = judge_instances(cands, instances[sdef.set_id])
            cell.reports[sdef.set_id] = summarize(cands, outcomes)
        cells.append(cell)
    return cells


def _row_label(window: int, order: int) -> str:
    name = WINDOW_NAMES.get(window, f"k{window}")
    return f"{name}-{order}"


def render_grid_report(cells: list[CellResult], set_defs: list[SetDefinition],
                       header_config: dict | None = None) -> str:
    """Delimited accuracy grid: rows are window/order, columns synonym sets,
    baseline row first. '~' marks a cell whose difference from the baseline
    is not significant at the 5% level."""
    set_ids = [sdef.set_id for sdef in set_defs]
    lines = ["# lexical choice evaluation"]
    if header_config:
        pairs = " ".join(f"{key}={header_config[key]}" for key in sorted(header_config))
        lines.append(f"# config: {pairs}")
    lines.append("# '~' marks cells not significantly different from baseline (chi2, 5% level)")
    lines.append("\t".join(["set"] + set_ids))
    if cells:
        first = cells[0].reports
        lines.append("\t".join(["size"] + [str(first[s].sample_size) for s in set_ids]))
        lines.append(
            "\t".join(
                ["baseline"] + [f"{100 * first[s].baseline_accuracy:.1f}%" for s in set_ids]
            )
        )
    for cell in cells:
        row = [_row_label(cell.window, cell.order)]
        for set_id in set_ids:
            report = cell.reports[set_id]
            marker = "" if report.significant_at_5pct else "~"
            row.append(f"{100 * report.accuracy:.1f}%{marker}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def render_instance_log(cells: list[CellResult]) -> str:
    """Machine-readable per-instance log, one line per instance per cell."""
    lines = ["window\torder\tset\tsentence\tposition\tgold\tchosen\tcorrect\tscores"]
    for cell in cells:
        for set_id in sorted(cell.outcomes):
            for outcome in cell.outcomes[set_id]:
                inst = outcome.instance
                scores = ";".join(f"{s.candidate}={s.total:.6f}" for s in outcome.ranked)
                lines.append(
                    "\t".join(
                        [
                            str(cell.window),
                            str(cell.order),
                            set_id,
                            str(inst.sentence_id),
                            str(inst.position),
                            inst.gold,
                            outcome.chosen,
                            str(int(outcome.correct)),
                            scores,
                        ]
                    )
                )
    return "\n".join(lines) + "\n"
