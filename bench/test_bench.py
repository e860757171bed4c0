"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gen
import ref
import run
import spans

EXAMPLES = run.EXAMPLES


def _deck(workload, seed, index, tmp_path):
    directory = tmp_path / f"{workload}-{seed}-{index}"
    directory.mkdir(exist_ok=True)
    return gen.make_deck(workload, seed, index, EXAMPLES, str(directory))


def _portable(deck, tmp_path):
    """Argv and file contents with the per-test directory stripped."""
    root = str(tmp_path)
    argv = [[a.replace(root, "") for a in job.argv] for job in deck.jobs]
    files = {k.replace(root, ""): v for k, v in deck.files.items()}
    return argv, files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    first = _portable(_deck(workload, 7, 1, tmp_path), tmp_path)
    again = _portable(_deck(workload, 7, 1, tmp_path), tmp_path)
    other = _portable(_deck(workload, 8, 1, tmp_path), tmp_path)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_decks_keep_their_composition(workload, tmp_path):
    def shape(deck):
        return sorted((job.kind, job.size) for job in deck.jobs)

    assert shape(_deck(workload, 1, 0, tmp_path)) == shape(_deck(workload, 2, 0, tmp_path))


def test_library_words_keep_states_within_the_bound(tmp_path):
    # A word that raised RecursionError at the seed commit.
    g, _ = gen.library_grammar(47)
    assert gen.largest_state(g, "bbbbbbbb") > gen.MAX_FORMS
    library = {}
    for index in range(gen.LIBRARY_SIZE):
        g, _ = gen.library_grammar(index)
        library[gen.LANG_HEADER % ", ".join(g.alphabet) + g.dsl() + "\n"] = g
    redrawn = 0
    # Under seed 0, decks 32, 35 and 37 redraw words.
    for index in range(40):
        deck = _deck("grammar", 0, index, tmp_path)
        redrawn += deck.redrawn
        for job in deck.jobs:
            if job.kind == "cfg-member" and job.argv[1] in deck.files:
                g = library[deck.files[job.argv[1]]]
                assert gen.largest_state(g, job.argv[3]) <= gen.MAX_FORMS
    assert redrawn > 0


# -- references against the README ------------------------------------------------

def test_series_reproduces_the_stream_answers():
    ones = ref.var("ones")
    assert ref.series(ref.times(ones, ones), 5) == [1, 2, 3, 4, 5]
    assert ref.series(ref.times(ref.const(2), ones), 5) == [2] * 5
    # `run --state "ones * ones" --word tt` ends in this state, output 3.
    state = ref.parse("[1] + [2] * ones + [2] * X * ones + X * X * ones * ones")
    assert ref.series(state, 4) == ref.series(ref.times(ones, ones), 6)[2:]
    assert ref.series(state, 1) == [3]


def test_recognizer_reproduces_the_membership_answer():
    g = gen.BUNDLED_GRAMMARS["cfg.dsl"]
    assert ref.member(g, ref.var("S"), "aabb")
    assert not ref.member(g, ref.var("S"), "aab")
    assert not ref.member(g, ref.var("S"), "ba")


def test_language_enumeration_reproduces_the_equiv_answer():
    g = gen.BUNDLED_GRAMMARS["cfg.dsl"]
    lang = ref.languages(g, 6)
    witness = ref.least_difference(ref.language(g, ref.var("S"), 6, lang),
                                   ref.language(g, gen.ONE, 6, lang))
    assert witness == ("a", "b")


def test_verdict_tables_reproduce_the_preservation_answers():
    assert gen.BUNDLED_VERDICTS["three-zeros.dsl"] == [("zeros", "fails")]
    failing = [s for s, v in gen.BUNDLED_VERDICTS["convolution.dsl"] if v == "fails"]
    assert failing == ["times-comm"]
    assert all(v == "holds" for _, v in gen.BUNDLED_VERDICTS["stream.dsl"])


def test_enumeration_count_reproduces_the_commute_answer():
    # `quotient-commute stream.dsl --max-size 4 --depth 4`: 390 pairs.
    leaves, ops, letters = gen.QC_SHAPES["stream.dsl"]
    assert ref.term_count(leaves, ops, 4) * ref.word_count(letters, 4) == 390


def test_recognizer_and_enumeration_agree():
    rng = random.Random(3)
    for _ in range(30):
        g = gen.random_grammar(rng)
        start = ref.var(g.nonterminals[0])
        lang = ref.language(g, start, 5)
        for n in range(6):
            for _ in range(5):
                word = tuple(rng.choice(g.alphabet) for _ in range(n))
                assert ref.member(g, start, word) == (word in lang)


def test_sampled_words_are_members():
    rng = random.Random(4)
    g = gen.random_grammar(rng)
    counts = gen.derivation_counts(g, 8)
    for n in range(9):
        if counts[0][g.nonterminals[0]][n]:
            word = gen.sample_word(rng, g, g.nonterminals[0], n, counts)
            assert len(word) == n
            assert ref.member(g, ref.var(g.nonterminals[0]), word)


def test_parse_reads_printed_polynomials():
    ast = ref.parse("b_v*b_u - 1/2*b_w + 3")
    env = {"b_v": 2, "b_u": 5, "b_w": 4}
    assert ref.evaluate(ast, env) == Fraction(11)
    assert ref.render(ref.parse("(a + b) * c")) == "(a + b) * c"


def test_schema_validator(tmp_path):
    with open(run.SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    good = {"command": "stream", "n": 2, "values": ["1", "2"]}
    assert ref.schema_errors(schema, good) == []
    assert ref.schema_errors(schema, {**good, "n": -1})
    assert ref.schema_errors(schema, {**good, "extra": 1})
    assert ref.schema_errors(schema, {"command": "cfg-member", "word": [],
                                      "member": True})


# -- one job per workload, untraced and traced ----------------------------------

@pytest.fixture
def cli():
    sys.path.insert(0, run.SRC)
    yield run.import_lawbench()
    run.import_lawbench()  # drop any wrappers a test installed


def _first_jobs(workload, tmp_path):
    deck = _deck(workload, 5, 0, tmp_path)
    gen.write_files(deck)
    return gen.readme_jobs(workload, EXAMPLES) + deck.jobs[:1]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_one_job(workload, cli, tmp_path):
    with open(run.SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    stats = run.Stats()
    for job in _first_jobs(workload, tmp_path):
        run.run_job(cli, schema, job, stats, gen.GROWTH_KIND[workload])
    assert stats.failed == 0, stats.causes


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_self_times_fit_the_job(workload, cli, tmp_path):
    with open(run.SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    tracer = spans.Tracer()
    spans.install(tracer)
    stats = run.Stats()
    with run.Probe() as probe:
        probe.take(stats)
    for job in _first_jobs(workload, tmp_path):
        before = dict(tracer.self_seconds)
        tracer.job = stats.attempted
        run.run_job(cli, schema, job, stats, None, tracer)
        added = {k: v - before.get(k, 0.0) for k, v in tracer.self_seconds.items()}
        assert all(v >= 0 for v in added.values())
        assert sum(added.values()) <= stats.latencies[-1]
    assert stats.failed == 0, stats.causes
    assert tracer.self_seconds["cli.run"] > 0
    assert tracer.counts["dsl.load.calls"] == stats.attempted
    stats.loop_seconds = sum(stats.latencies)
    names = run.metric_units("per_layer")
    metrics = run.per_layer(tracer, stats, stats, names)
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.0)
    assert all(metrics[name] >= 0 for name in names)
    path = tmp_path / "spans.tsv.gz"
    tracer.write_spans(str(path))
    with gzip.open(path, "rt") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == len(tracer.span_name) + 1
    assert all(float(r.split("\t")[2]) >= float(r.split("\t")[1]) for r in rows[1:])


def test_setup_child_reports_ready():
    args = argparse.Namespace(workload="grammar", seed=1)
    assert run.setup_once(args) > 0


def test_without_the_package_the_run_fails_quietly(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(run.ROOT, "bench", "baseline.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["map"]
    listed = {name for group in layer_map for name in group["layers"]}
    assert listed == set(run.metric_units("per_layer"))


def test_quantile_tracks_the_order_statistics():
    values = [float(i) for i in range(1, 1001)]
    assert run.quantile(values, 0.5) == pytest.approx(500.5, rel=1e-3)
    assert run.quantile(values, 0.9) == pytest.approx(900.1, rel=1e-3)
    assert run.quantile([3.0] * 120, 0.9) == pytest.approx(3.0)
