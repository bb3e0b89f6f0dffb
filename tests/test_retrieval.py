"""Embedder and index behavior, checked against an independent oracle."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factpatch.errors import ValidationError
from factpatch.memory import EditFact, render_surface
from factpatch.retrieval import FactIndex, HashedEmbedder, tokenize

from conftest import add_to_index
from oracles import brute_force_top_ids, oracle_dot, oracle_embed, random_facts


def fact(seq: int, subject: str, relation: str = "The color of {s} is",
         new_object: str = "amber", surface: str | None = None) -> EditFact:
    return EditFact(
        fact_id=f"f{seq:06d}-aaaa",
        seq=seq,
        subject=subject,
        relation=relation,
        old_object=None,
        new_object=new_object,
        surface_text=surface or render_surface(subject, relation, new_object),
    )


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Who wrote 'Moby-Dick'?") == ["who", "wrote", "moby", "dick"]

    def test_digits_survive(self):
        assert tokenize("route 66!") == ["route", "66"]

    def test_no_content(self):
        assert tokenize("?! --") == []


def as_counts(vector) -> dict[int, int]:
    return dict(zip(vector.ids, vector.counts))


class TestHashedEmbedder:
    def test_matches_oracle_on_varied_strings(self):
        rng = np.random.default_rng(11)
        words = ["amber", "falcon", "basalt", "route", "66", "harbor", "vesper"]
        texts = [
            " ".join(rng.choice(words, size=int(rng.integers(2, 7))))
            for _ in range(20)
        ]
        embedder = HashedEmbedder(buckets=512)
        for text in texts:
            got = embedder.embed(text)
            want = oracle_embed(text, 512)
            assert as_counts(got) == want, text
            assert got.norm2 == oracle_dot(want, want), text

    def test_pairwise_dot_products_match_oracle(self):
        texts = [
            "The color of Mercury is amber",
            "The color of Venus is jade",
            "Which harbor belongs to Basalt Cove",
            "route 66 crosses the prairie",
        ]
        embedder = HashedEmbedder(buckets=256)
        for a in texts:
            for b in texts:
                got = oracle_dot(as_counts(embedder.embed(a)), as_counts(embedder.embed(b)))
                assert got == oracle_dot(oracle_embed(a, 256), oracle_embed(b, 256))

    def test_deterministic_across_instances(self):
        a = HashedEmbedder().embed("The color of Mercury is amber")
        b = HashedEmbedder().embed("The color of Mercury is amber")
        assert a == b

    def test_unit_norm_and_dtype(self):
        # The norm is carried exactly, as an integer squared norm.
        vec = HashedEmbedder().embed("amber falcon basalt")
        assert list(vec.ids) == sorted(set(vec.ids))
        assert all(type(i) is int and 0 <= i < 4096 for i in vec.ids)
        assert all(type(c) is int and c > 0 for c in vec.counts)
        assert type(vec.norm2) is int
        assert vec.norm2 == sum(c * c for c in vec.counts)

    def test_casing_and_punctuation_do_not_matter(self):
        e = HashedEmbedder()
        assert e.embed("Amber, Falcon!") == e.embed("amber falcon")

    def test_distinct_texts_not_identical(self):
        e = HashedEmbedder()
        a, b = e.embed("amber falcon basalt"), e.embed("vesper knoll drift")
        assert oracle_dot(as_counts(a), as_counts(b)) ** 2 < 0.999 * a.norm2 * b.norm2

    def test_result_is_read_only(self):
        vec = HashedEmbedder().embed("amber")
        with pytest.raises(TypeError):
            vec.counts[0] = 5
        with pytest.raises(AttributeError):
            vec.norm2 = 5

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            HashedEmbedder().embed("   ")

    def test_no_alphanumerics_rejected(self):
        with pytest.raises(ValidationError):
            HashedEmbedder().embed("?!")

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(ValidationError):
            HashedEmbedder(buckets=0)

    def test_distinct_texts_retain_a_bounded_memo(self):
        texts = [f"What is the colour of subject {i} in the garden" for i in range(5000)]
        for text in texts:  # fills the shared, separately bounded feature-hash cache
            HashedEmbedder().embed(text)
        e = HashedEmbedder()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for text in texts:
                e.embed(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1_500_000, f"5000 distinct texts retain {held} bytes"

    def test_uncached_vectors_equal_the_memoised_ones(self):
        e = HashedEmbedder(buckets=512)
        text = "The color of Mercury is amber"
        assert e.embed_uncached(text) == e.embed(text)

    def test_discarded_embedder_is_freed_without_the_cycle_collector(self):
        e = HashedEmbedder(buckets=64)
        e.embed("amber falcon")
        e.embed("vesper knoll")
        ref = weakref.ref(e)
        gc.disable()
        try:
            del e
            assert ref() is None, "the embedding cache holds the embedder in a reference cycle"
        finally:
            gc.enable()


class TestFactIndex:
    def test_empty_index_returns_nothing(self):
        index = FactIndex(HashedEmbedder(buckets=64))
        assert index.top_k("anything at all", 5) == []

    def test_k_below_one_rejected(self):
        index = FactIndex(HashedEmbedder(buckets=64))
        with pytest.raises(ValidationError):
            index.top_k("anything", 0)

    def test_self_retrieval_ranks_first(self):
        index = FactIndex(HashedEmbedder())
        facts = [fact(i, f"Subject{i}", new_object=f"obj{i}") for i in range(10)]
        for f in facts:
            add_to_index(index, f)
        for f in facts:
            top = index.top_k(f.surface_text, 1)
            assert top[0].fact.fact_id == f.fact_id
            assert top[0].score == pytest.approx(1.0, abs=1e-5)

    def test_scores_are_descending(self):
        index = FactIndex(HashedEmbedder())
        for f in random_facts(40, seed=3):
            add_to_index(index, f)
        scores = [sf.score for sf in index.top_k("the quartz heron of the marsh", 10)]
        assert scores == sorted(scores, reverse=True)

    def test_score_ties_prefer_newer_seq(self):
        index = FactIndex(HashedEmbedder())
        # Different keys, byte-identical surfaces: scores tie exactly.
        a = fact(0, "Mercury", surface="identical surface text here")
        b = fact(1, "Venus", surface="identical surface text here")
        for f in [a, b]:
            add_to_index(index, f)
        top = index.top_k("identical surface text here", 2)
        assert [sf.fact.seq for sf in top] == [1, 0]

    @pytest.mark.parametrize("seq", [2, 1])
    def test_seq_not_above_the_last_is_rejected(self, seq):
        index = FactIndex(HashedEmbedder(buckets=64))
        add_to_index(index, fact(2, "Mercury"))
        with pytest.raises(ValidationError, match="not above"):
            add_to_index(index, fact(seq, "Venus"))
        assert len(index) == 1
        assert [sf.fact.subject for sf in index.top_k("color of Venus", 5)] == ["Mercury"]

    def test_superseded_key_is_dropped_and_rank_refilled(self):
        index = FactIndex(HashedEmbedder())
        old = fact(0, "Mercury", new_object="amber")
        new = fact(1, "Mercury", new_object="jade")
        other = fact(2, "Venus", new_object="plum")
        for f in [old, new, other]:
            add_to_index(index, f)
        top = index.top_k("The color of Mercury is amber", 2)
        ids = [sf.fact.fact_id for sf in top]
        assert old.fact_id not in ids
        assert ids[0] == new.fact_id
        assert other.fact_id in ids  # refilled from deeper ranks

    def test_prefix_property(self):
        index = FactIndex(HashedEmbedder(buckets=512))
        for f in random_facts(60, seed=9, dup_rate=0.2):
            add_to_index(index, f)
        query = "People link the copper falcon with the harbor"
        previous: list[str] = []
        for k in range(1, 12):
            ids = [sf.fact.fact_id for sf in index.top_k(query, k)]
            assert ids[: len(previous)] == previous
            previous = ids

    def test_k_larger_than_survivors_returns_all(self):
        index = FactIndex(HashedEmbedder())
        for f in [fact(0, "Mercury"), fact(1, "Mercury"), fact(2, "Venus")]:
            add_to_index(index, f)
        top = index.top_k("color", 50)
        assert len(top) == 2  # one Mercury version superseded

    def test_matches_brute_force_oracle(self):
        buckets = 512
        facts = random_facts(120, seed=21, dup_rate=0.15)
        index = FactIndex(HashedEmbedder(buckets=buckets))
        for f in facts:
            add_to_index(index, f)
        queries = [
            "Which ember belongs to Maple Crest",
            "the onyx of the lagoon is frost",
            "People link Tarn Hollow with the sorrel",
            facts[7].surface_text,
            facts[50].surface_text,
        ]
        for query in queries:
            got = [sf.fact.fact_id for sf in index.top_k(query, 5)]
            want = brute_force_top_ids(facts, query, 5, buckets)
            assert got == want, query

    def test_exact_ties_follow_the_documented_order(self):
        # Criterion 03's data: these scores tie exactly, and float32 rounding
        # once put the older fact first.
        index = FactIndex(HashedEmbedder(buckets=512))
        for f in random_facts(1000, seed=0, dup_rate=0.05):
            add_to_index(index, f)
        raven = [sf.fact.seq for sf in index.top_k("Raven Bramble The", 5)]
        assert raven[4] == 916
        onyx = [sf.fact.seq for sf in index.top_k("0420 Onyx Lichen maple Onyx", 5)]
        assert onyx.index(555) < onyx.index(251)


_SUBJECTS = ("Mercury", "Venus", "Mars")
_RELATIONS = ("The color of {s} is", "Which moon belongs to {s}")
_OBJECTS = ("amber", "jade", "plum")
_QUERY_WORDS = ("mercury", "venus", "mars", "color", "moon", "amber", "jade", "plum", "zinc")

_ADD = st.tuples(
    st.just("add"),
    st.integers(1, 3),  # seq step: facts arrive in increasing seq, as the store assigns it
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_RELATIONS),
    st.sampled_from(_OBJECTS),
)
_QUERY = st.tuples(
    st.just("query"),
    st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=4).map(" ".join),
    st.integers(1, 7),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ADD, _QUERY), max_size=30))
def test_interleaved_adds_and_queries_match_the_oracle(ops):
    # 32 buckets force collisions, so exact score ties are common.
    index = FactIndex(HashedEmbedder(buckets=32))
    added: list[EditFact] = []
    seq = -1
    for op in ops:
        if op[0] == "add":
            _, step, subject, relation, new_object = op
            seq += step
            added.append(EditFact(
                fact_id=f"f{seq}", seq=seq, subject=subject, relation=relation,
                old_object=None, new_object=new_object,
                surface_text=render_surface(subject, relation, new_object),
            ))
            add_to_index(index, added[-1])
        else:
            _, query, k = op
            got = [sf.fact.fact_id for sf in index.top_k(query, k)]
            assert got == brute_force_top_ids(added, query, k, 32)
    assert len(index) == len(added)


def test_concurrent_adds_and_queries_lose_nothing():
    # Queries read the postings through buffer views while writers append to
    # them; a view that outlived the lock would make an append raise.
    index = FactIndex(HashedEmbedder(buckets=256))
    facts = random_facts(400, seed=5, dup_rate=0.1)
    query = "the quartz heron of the marsh"
    errors: list[BaseException] = []

    def guarded(work):
        def run():
            try:
                work()
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)
        return threading.Thread(target=run)

    # Writers take one lock, as Engine.add_fact does, so seqs arrive in order.
    pending = iter(facts)
    write_lock = threading.Lock()

    def write():
        while True:
            with write_lock:
                f = next(pending, None)
                if f is None:
                    return
                add_to_index(index, f)

    writers = [guarded(write) for _ in range(4)]
    readers = [guarded(lambda: [index.top_k(query, 5) for _ in range(150)]) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers + readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + readers)
    assert errors == []
    assert len(index) == len(facts)
    got = [sf.fact.fact_id for sf in index.top_k(query, 5)]
    assert got == brute_force_top_ids(facts, query, 5, 256)
