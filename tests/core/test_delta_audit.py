"""delta_audit: incremental replay after a data edit equals a fresh re-audit.

The delta-audit contract has three pinned halves:

* **equivalence** — the replayed ``after`` ranking is identical (patterns
  and scores to 1e-8) to re-running the whole engine search against the
  patched session, for every edit kind × top-k width × closed-form
  estimator, for chained edit sequences, and — for relabel edits, where
  the training table (hence the binning) is unchanged — to a *brand-new*
  session built from scratch on the edited data with the same model and
  encoder;
* **accounting** — a certified delta pass performs *zero* heavy rebuilds:
  the Hessian-factorization / alphabet / tidlist build counters are
  untouched and the edit cost lands under ``*_patches`` /
  ``solver_updates``, with the replay evaluating far fewer masks than the
  engine did;
* **policy** — one, decided by the session: a query replays when the
  edit left the level-1 alphabet unchanged and the before side recorded
  a depth-≤2 lattice search; every other query re-searches, names its
  reason, and still equals a fresh audit of the patched session.
"""

import numpy as np
import pytest

from repro.core import AuditSession
from repro.datasets import load_german, random_edit, train_test_split
from repro.mining.bitset import popcount
from repro.models import LogisticRegression
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.patterns.lattice import PatternStats
from repro.patterns.pattern import Pattern

SEARCH = dict(max_predicates=2, support_threshold=0.05, estimator="series")
METRICS = ["statistical_parity", "equal_opportunity"]
# The closed edit loop's search: smooth series scores, three metrics.
REPAIR_LOOP = dict(
    max_predicates=2,
    support_threshold=0.05,
    estimator="series",
    estimator_kwargs={"evaluation": "smooth"},
)
REPAIR_METRICS = ["statistical_parity", "equal_opportunity", "average_odds"]
# Edit seed chosen so every kind leaves the level-1 alphabet stable on the
# fixture split (most seeds do; a crossing seed would merely exercise the
# fallback path, which TestReplayPolicy pins separately).
EDIT_SEED = 3


def make_session(lr_model, train, test, **overrides):
    return AuditSession(lr_model, **{**SEARCH, **overrides}).fit(train, test)


def assert_chain_matches_oracle(sess, edits, metrics, k=3):
    """Delta-audit every edit in turn, so each replay chains off the last.

    An oracle session with the same model and encoder takes each edit
    through ``apply_edit`` and audits afresh; every link must match it.
    ``edits`` holds ``(kind, count, seed)`` triples for :func:`random_edit`.
    """
    # Warming builds the oracle's alphabet before the first edit, so both
    # sessions keep the pre-edit pattern language (bin edges).
    oracle = AuditSession(sess.model, sess.config).fit(
        sess.train_data, sess.test_data, encoder=sess.encoder
    ).warm()
    for kind, count, seed in edits:
        edit = random_edit(sess.train_data, kind, count, seed=seed)
        delta = sess.delta_audit(edit, metrics=metrics, k=k)
        oracle.apply_edit(edit)
        assert_matching_audits(delta.after, oracle.audit(metrics=metrics, k=k))


def assert_matching_audits(left, right, abs_tol=1e-8):
    """Two AuditResults agree query-for-query on patterns and scores."""
    assert len(left.queries) == len(right.queries)
    for ql, qr in zip(left.queries, right.queries):
        assert ql.metric == qr.metric and ql.group == qr.group
        le, re_ = ql.explanations, qr.explanations
        assert [e.pattern for e in le] == [e.pattern for e in re_]
        for a, b in zip(le, re_):
            assert a.est_responsibility == pytest.approx(
                b.est_responsibility, abs=abs_tol
            )
            assert a.est_bias_change == pytest.approx(b.est_bias_change, abs=abs_tol)
            assert a.support == pytest.approx(b.support, abs=1e-12)


class TestDeltaEqualsFreshReaudit:
    """Replay == re-running the engine on the patched session (all kinds × k)."""

    @pytest.mark.parametrize("kind", ["remove", "relabel", "add"])
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_kinds_and_widths(self, lr_model, german_train, german_test, kind, k):
        sess = make_session(lr_model, german_train, german_test)
        edit = random_edit(sess.train_data, kind, count=8, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=METRICS, k=k)
        fresh = sess.audit(metrics=METRICS, k=k)
        assert_matching_audits(delta.after, fresh)

    @pytest.mark.parametrize("estimator", ["first_order", "series", "exact"])
    def test_estimators(self, lr_model, german_train, german_test, estimator):
        sess = make_session(lr_model, german_train, german_test, estimator=estimator)
        edit = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        fresh = sess.audit(metrics=METRICS, k=3)
        assert_matching_audits(delta.after, fresh)

    @pytest.mark.parametrize("kind", ["remove", "relabel", "add"])
    def test_depth_one(self, lr_model, german_train, german_test, kind):
        """A depth-1 search merges no pairs, and neither does its replay
        (it once scored every supported skeleton pair into the result)."""
        sess = make_session(lr_model, german_train, german_test, max_predicates=1)
        edit = random_edit(sess.train_data, kind, count=8, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        assert delta.num_certified == len(delta.queries)
        for q in delta.queries:
            assert {len(c.pattern) for c in q.after.lattice.candidates} == {1}
        assert_matching_audits(delta.after, sess.audit(metrics=METRICS, k=3))

    def test_large_edit(self, lr_model, german_train, german_test):
        sess = make_session(lr_model, german_train, german_test)
        edit = random_edit(sess.train_data, "remove", count=64, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        assert_matching_audits(delta.after, sess.audit(metrics=METRICS, k=3))

    def test_chained_edits(self, lr_model, german_train, german_test):
        """A remove → relabel → add sequence stays equivalent at every step."""
        sess = make_session(lr_model, german_train, german_test)
        edits = [
            (kind, 5, EDIT_SEED + step)
            for step, kind in enumerate(["remove", "relabel", "add"])
        ]
        assert_chain_matches_oracle(sess, edits, METRICS)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_random_edit_sequences(self, lr_model, german_train, german_test, seed):
        """Seeded random edit sequences: delta == fresh whether or not certified."""
        rng = np.random.default_rng(seed)
        edits = [
            (
                ("remove", "relabel", "add")[rng.integers(0, 3)],
                int(rng.integers(1, 20)),
                int(rng.integers(1 << 16)),
            )
            for _ in range(3)
        ]
        sess = make_session(lr_model, german_train, german_test)
        assert_chain_matches_oracle(sess, edits, ["statistical_parity"])

    @pytest.mark.parametrize("data_seed,edit_seed", [(2, 10000), (3, 23000)])
    def test_chained_relabels_rescore_screened_pairs(self, data_seed, edit_seed):
        """A pair the boundary screen skipped keeps a score several edits
        old; a replay of a replay must re-score it, not calibrate it
        against one edit's drift (the seed-2 chain diverged on its 4th
        link when it did)."""
        train, test = train_test_split(
            load_german(1000, seed=data_seed), 0.25, seed=data_seed
        )
        sess = AuditSession(LogisticRegression(l2_reg=1e-3), **REPAIR_LOOP).fit(train, test)
        edits = [("relabel", 8, edit_seed + step) for step in range(6)]
        assert_chain_matches_oracle(sess, edits, REPAIR_METRICS)


class TestLastAuditBookmark:
    def test_apply_edit_clears_it(self, lr_model, german_train, german_test):
        """After audit → apply_edit(e1) → delta_audit(e2), the before side
        is the post-e1 data's audit, not the pre-e1 one, and the after side
        is still a fresh audit's answer."""
        sess = make_session(lr_model, german_train, german_test)
        oracle = AuditSession(sess.model, sess.config).fit(
            sess.train_data, sess.test_data, encoder=sess.encoder
        ).warm()
        sess.audit(metrics=METRICS, k=3)
        first = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)
        sess.apply_edit(first)
        assert sess.last_audit is None
        oracle.apply_edit(first)
        second = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED + 1)
        delta = sess.delta_audit(second, metrics=METRICS, k=3)
        assert_matching_audits(delta.before, oracle.audit(metrics=METRICS, k=3))
        oracle.apply_edit(second)
        assert_matching_audits(delta.after, oracle.audit(metrics=METRICS, k=3))
        assert sess.last_audit is delta.after


class TestRelabelFullPipelineOracle:
    """Relabel edits: delta == a brand-new session built on the edited data.

    Relabel leaves the training table (and therefore the quantile bin
    edges) unchanged, so a from-scratch pipeline over the edited dataset —
    same prefitted model, same encoder, no refit — speaks the same pattern
    language and must agree exactly.  (Row-changing edits keep the frozen
    pre-edit bins by design, so only the same-session oracle applies there.)
    """

    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_matches_from_scratch_session(
        self, lr_model, german_train, german_test, k
    ):
        sess = make_session(lr_model, german_train, german_test)
        edit = random_edit(sess.train_data, "relabel", count=8, seed=EDIT_SEED)
        edited_train = sess.train_data.apply_edit(edit)
        delta = sess.delta_audit(edit, metrics=METRICS, k=k)

        scratch = AuditSession(sess.model, **SEARCH).fit(
            edited_train, german_test, encoder=sess.encoder
        )
        assert_matching_audits(delta.after, scratch.audit(metrics=METRICS, k=k))


class TestCertificateAndCounters:
    """A certified pass replays — no rebuilds, far fewer evaluations."""

    @pytest.fixture()
    def certified(self, lr_model, german_train, german_test):
        sess = make_session(lr_model, german_train, german_test)
        before_audit = sess.audit(metrics=METRICS, k=3)
        before_stats = dict(sess.stats)
        edit = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)
        # test_every_query_certified fails on any fallback to a search.
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        return sess, before_audit, before_stats, delta

    def test_every_query_certified(self, certified):
        _, _, _, delta = certified
        assert delta.num_certified == len(delta.queries)
        assert delta.num_researched == 0
        for q in delta.queries:
            assert q.certified and not q.recheck_ran and q.reason == ""
            assert q.after.lattice.levels == []  # the replay ran no search level

    def test_no_heavy_rebuilds(self, certified):
        sess, _, before, delta = certified
        after = delta.stats
        for counter in (
            "influence.hessian_factorizations",
            "influence.per_sample_grad_builds",
            "influence.hessian_builds",
            "mining.alphabet_builds",
            "mining.tidlist_builds",
        ):
            assert after[counter] == before[counter], counter
        assert after["influence.edits"] == before["influence.edits"] + 1
        assert after["mining.alphabet_patches"] == before["mining.alphabet_patches"] + 1
        assert after["influence.solver_updates"] >= before["influence.solver_updates"]

    def test_replay_evaluates_fewer_masks(self, certified):
        _, before_audit, _, delta = certified
        for bq, dq in zip(before_audit.queries, delta.queries):
            assert dq.after.lattice.num_evaluated < bq.explanations.lattice.num_evaluated

    def test_replay_records_chain(self, certified):
        """The replay refreshes its lattice record so further edits replay too."""
        _, _, _, delta = certified
        for q in delta.queries:
            assert q.after.lattice.record is not None

    def test_delta_records_statuses(self, certified):
        _, _, _, delta = certified
        for q in delta.queries:
            rows = q.delta_records()
            assert len(rows) >= len(q.after)
            for row in rows:
                assert row.get("status") in {"kept", "moved", "entered", "dropped", None}
        text = delta.render()
        assert "Delta audit after edit(remove 8)" in text


NO_RECORD = "no replay record (engine or search depth unsupported)"


def assert_re_searched(delta, reason):
    for q in delta.queries:
        assert q.recheck_ran and not q.certified
        assert q.reason == reason
        assert q.after.lattice.levels  # a search ran


class TestReplayPolicy:
    def test_fresh_audit_re_searches_what_the_replay_certified(
        self, lr_model, german_train, german_test
    ):
        """A fresh audit of the patched session is the full search: it
        runs the engine and agrees with every certified replay."""
        sess = make_session(lr_model, german_train, german_test)
        edit = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        for q in delta.queries:
            assert q.certified and not q.recheck_ran and q.reason == ""
        fresh = sess.audit(metrics=METRICS, k=3)
        assert all(q.explanations.lattice.levels for q in fresh.queries)
        assert_matching_audits(delta.after, fresh)

    def test_mining_session_re_searches(self, lr_model, german_train, german_test):
        """The mining engine records no lattice, so no query replays."""
        sess = make_session(lr_model, german_train, german_test, engine="mining")
        edit = random_edit(sess.train_data, "remove", count=4, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=["statistical_parity"], k=3)
        assert_re_searched(delta, NO_RECORD)
        assert_matching_audits(delta.after, sess.audit(metrics=["statistical_parity"], k=3))

    def test_depth_three_re_searches(self, lr_model, german_train, german_test):
        sess = make_session(lr_model, german_train, german_test, max_predicates=3)
        edit = random_edit(sess.train_data, "remove", count=4, seed=EDIT_SEED)
        delta = sess.delta_audit(edit, metrics=["statistical_parity"], k=3)
        assert_re_searched(delta, NO_RECORD)
        assert_matching_audits(delta.after, sess.audit(metrics=["statistical_parity"], k=3))

    def test_a_level_one_change_re_searches(self, lr_model, german_train, german_test):
        """Removing most rows of the rarest entry pushes it below τ: the
        entry list, hence the pair skeleton, changed."""
        from repro.datasets import DataEdit
        from repro.mining.bitset import unpack_rows

        sess = make_session(lr_model, german_train, german_test)
        alphabet = sess.alphabet_for()
        _, mask = min(alphabet.entries, key=lambda entry: popcount(entry[1]))
        rows = np.flatnonzero(unpack_rows(mask, alphabet.num_rows))
        delta = sess.delta_audit(DataEdit.remove(rows[2:]), metrics=METRICS, k=3)
        assert_re_searched(delta, "the edit changed the level-1 alphabet")
        assert_matching_audits(delta.after, sess.audit(metrics=METRICS, k=3))

    def test_mining_session_builds_no_replay_geometry(
        self, lr_model, german_train, german_test
    ):
        """Only a lattice search records a replay: a mining session's delta
        audit builds neither the replay geometry nor the pair skeleton, and
        each query re-searches to a fresh audit's answer."""
        sess = make_session(lr_model, german_train, german_test, engine="mining")
        sess.audit(metrics=METRICS, k=3)
        edit = random_edit(sess.train_data, "relabel", count=8, seed=EDIT_SEED)
        with trace.tracing(Tracer()) as tracer:
            delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        assert sess.stats["mining.skeleton_builds"] == 0
        assert "delta.geometry" not in {span.name for span in tracer.walk()}
        for q in delta.queries:
            assert q.recheck_ran and not q.certified
        assert_matching_audits(delta.after, sess.audit(metrics=METRICS, k=3))

    def test_auto_falls_back_and_stays_correct(
        self, lr_model, german_train, german_test
    ):
        """Refused certificates silently re-search — and the answers still
        match; the trace says why each query fell back."""
        sess = make_session(lr_model, german_train, german_test, engine="mining")
        edit = random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)
        with trace.tracing(Tracer()) as tracer:
            delta = sess.delta_audit(edit, metrics=["statistical_parity"], k=3)
        spans = [span for span in tracer.walk() if span.name == "delta.query"]
        assert len(spans) == len(delta.queries)
        for q, span in zip(delta.queries, spans):
            assert not q.certified and q.recheck_ran
            assert q.reason != ""
            assert span.attrs["refusal"] == q.reason
        assert_matching_audits(
            delta.after, sess.audit(metrics=["statistical_parity"], k=3)
        )


class TestEditValidationThroughSession:
    def test_unfitted_session_rejects_delta(self):
        from repro.datasets import DataEdit

        sess = AuditSession(LogisticRegression(), **SEARCH)
        with pytest.raises(RuntimeError, match="not fitted"):
            sess.delta_audit(DataEdit.remove([0]))

    def test_out_of_range_edit_rejected(self, lr_model, german_train, german_test):
        from repro.datasets import DataEdit

        sess = make_session(lr_model, german_train, german_test)
        sess.audit(metrics=["statistical_parity"], k=3)
        with pytest.raises(IndexError):
            sess.delta_audit(
                DataEdit.remove([sess.train_data.num_rows + 5]),
                metrics=["statistical_parity"],
            )


class TestSelectionBuildsOnlyTheTopK:
    """Searches and the replay hand Algorithm 2 columns: a query builds a
    :class:`PatternStats` only for each row it selects, and the candidate
    list, built once when read, is the one the search describes."""

    @pytest.fixture()
    def built(self, monkeypatch):
        count = []
        init = PatternStats.__init__

        def counting(self, *args, **kwargs):
            count.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PatternStats, "__init__", counting)
        return count

    @pytest.fixture()
    def replayed(self, lr_model, german_train, german_test):
        sess = make_session(lr_model, german_train, german_test)
        sess.audit(metrics=METRICS, k=3)
        return sess, random_edit(sess.train_data, "remove", count=8, seed=EDIT_SEED)

    def test_replayed_queries_build_at_most_k_per_selection(self, replayed, built):
        sess, edit = replayed
        with trace.tracing() as tracer:
            delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        assert delta.num_certified == len(delta.queries)
        filters = [s for s in tracer.walk() if s.name == "delta.filter"]
        assert len(METRICS) <= len(filters) <= 2 * len(METRICS)
        assert 0 < len(built) <= 3 * len(filters)
        for span in filters:
            assert 3 <= span.attrs["visited"] <= span.attrs["pool"]
        # The whole pool is far larger than what was built.
        pools = [q.after.lattice.num_candidates for q in delta.queries]
        assert min(pools) > 20 * 3

    @pytest.mark.parametrize("engine", ["lattice", "mining"])
    def test_explain_builds_at_most_k_until_candidates_are_read(
        self, lr_model, german_train, german_test, built, engine
    ):
        sess = make_session(lr_model, german_train, german_test, engine=engine)
        view = sess.explainer(metric="statistical_parity")
        with trace.tracing() as tracer:
            result = view.explain(k=3, verify=False)
        assert len(built) == len(result) <= 3
        lattice = result.lattice
        (search,) = [s for s in tracer.walk() if s.name == "explain.search"]
        assert search.attrs["candidates"] == lattice.num_candidates > 3
        (selection,) = [s for s in tracer.walk() if s.name == "explain.filter"]
        assert selection.attrs["visited"] <= selection.attrs["pool"] <= lattice.num_candidates
        candidates = lattice.candidates
        assert len(built) == len(result) + lattice.num_candidates
        assert lattice.candidates is candidates  # built once

    def test_replayed_candidates_are_the_records(self, replayed):
        """Read, a replayed query's candidates are its record's level-1
        entries with R >= 0, then its in-result pairs, in skeleton order."""
        sess, edit = replayed
        delta = sess.delta_audit(edit, metrics=METRICS, k=3)
        assert delta.num_certified == len(delta.queries)
        cfg = sess.config
        alphabet = sess.alphabet_cache.get(cfg.support_threshold, cfg.num_bins, None)
        entries, n = alphabet.entries, alphabet.num_rows
        skeleton_left, skeleton_right = alphabet.pair_skeleton()
        for query in delta.queries:
            record = query.after.lattice.record
            want = [
                (Pattern([predicate]), popcount(mask) / n, popcount(mask),
                 record.level1_responsibilities[i], mask.tobytes())
                for i, (predicate, mask) in enumerate(entries)
                if record.level1_responsibilities[i] >= 0.0
            ]
            for e in np.flatnonzero(record.pair_in_result):
                position = record.pair_positions[e]
                (left, left_mask), (right, right_mask) = (
                    entries[skeleton_left[position]], entries[skeleton_right[position]]
                )
                size = popcount(left_mask & right_mask)
                want.append(
                    (Pattern([left, right]), size / n, size,
                     record.pair_responsibilities[e], (left_mask & right_mask).tobytes())
                )
            got = [
                (c.pattern, c.support, c.size, c.responsibility, c._packed_mask.tobytes())
                for c in query.after.lattice.candidates
            ]
            assert got == want
