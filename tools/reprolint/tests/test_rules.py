"""Each rule against its positive (seeded-violation) and negative fixtures.

Every positive test here fails if the rule stops seeing its seeded
violation — the acceptance gate for the analyzer itself.  The contract
sets are tiny synthetic registries, so the fixtures stay self-contained
and the tests exercise the injection path the CLI uses with
:data:`REPRO_CONTRACTS`.
"""

from pathlib import Path

from tools.reprolint.contracts import BuildContract, ContractSet
from tools.reprolint.engine import run_analysis
from tools.reprolint.rules.rl001_read_purity import RULE as RL001
from tools.reprolint.rules.rl002_counters import RULE as RL002
from tools.reprolint.rules.rl003_packed import RULE as RL003
from tools.reprolint.rules.rl004_factorization import RULE as RL004
from tools.reprolint.rules.rl005_nan import RULE as RL005
from tools.reprolint.rules.rl006_clock import RULE as RL006

FIXTURES = Path(__file__).parent / "fixtures"


def analyze(name: str, contracts: ContractSet, rule) -> list:
    return run_analysis([FIXTURES / name], contracts=contracts, rules=[rule])


# -- RL001 ---------------------------------------------------------------

RL001_CONTRACTS = ContractSet(
    shared_classes=frozenset({"SharedCache"}),
    read_roots=(("SharedCache", "get"),),
    build_methods={("SharedCache", "build"): BuildContract("builds")},
)


def test_rl001_flags_seeded_read_path_writes():
    findings = analyze("rl001_bad.py", RL001_CONTRACTS, RL001)
    assert len(findings) == 4
    messages = [f.message for f in findings]
    assert any("SharedCache.get assigns self._value" in m for m in messages)
    assert any("SharedCache._refresh mutates self.version" in m for m in messages)
    assert any("DerivedCache.get assigns self._hits" in m for m in messages)
    # The helper findings must explain *how* the read API reaches them.
    (refresh,) = [f for f in findings if "_refresh" in f.message]
    assert "via" in refresh.message and "get" in refresh.message
    # A lazy slot's drop() is a write of the slot attribute.
    (expire,) = [f for f in findings if "_expire" in f.message]
    assert "SharedCache._expire drops self._slot" in expire.message
    assert "via" in expire.message and "get" in expire.message


def test_rl001_clean_when_writes_live_in_registered_build():
    assert analyze("rl001_good.py", RL001_CONTRACTS, RL001) == []


# -- RL002 ---------------------------------------------------------------

RL002_BAD = ContractSet(
    build_methods={
        ("Registry", "build"): BuildContract("builds"),
        ("Registry", "patch"): BuildContract("patches", kind="edit"),
        ("Registry", "vanished"): BuildContract("ghost_builds"),
        ("Registry", "helper"): BuildContract(None),
    },
)

RL002_GOOD = ContractSet(
    build_methods={
        ("Registry", "build"): BuildContract("builds"),
        ("Registry", "helper"): BuildContract(None, reason="plain accessor"),
    },
)


def test_rl002_flags_missing_bump_drift_and_reasonless_exemption():
    findings = analyze("rl002_bad.py", RL002_BAD, RL002)
    assert len(findings) == 4
    messages = [f.message for f in findings]
    assert any('never bumps self.stats["builds"]' in m for m in messages)
    assert any("registry drift: Registry.vanished" in m for m in messages)
    assert any("exempt from counter discipline without" in m for m in messages)
    assert any('counter "patches" of Registry.patch is not declared' in m for m in messages)


def test_rl002_clean_when_counter_bumped_and_declared():
    assert analyze("rl002_good.py", RL002_GOOD, RL002) == []


RL002_REGISTRY = ContractSet(
    build_methods={
        ("Registry", "build"): BuildContract("builds"),
        ("Registry", "broken"): BuildContract("never_bumped"),
    },
)


def test_rl002_accepts_registry_backed_inc_and_statsview_declaration():
    findings = analyze("rl002_registry.py", RL002_REGISTRY, RL002)
    # build() is clean: stats.inc("builds") bumps, StatsView({...}) declares.
    assert not any("Registry.build" in f.message for f in findings)
    messages = [f.message for f in findings]
    assert any('never bumps self.stats["never_bumped"]' in m for m in messages)
    assert any('counter "never_bumped" of Registry.broken is not declared' in m for m in messages)
    assert len(findings) == 2


def test_rl002_flags_lazy_slots_with_undeclared_or_unnamed_counters():
    findings = analyze("rl002_lazy_bad.py", ContractSet(), RL002)
    assert len(findings) == 2
    messages = [f.message for f in findings]
    assert any('Lazy slot counter "bilds" is not declared' in m for m in messages)
    assert any("names its counter by an expression" in m for m in messages)


def test_rl002_clean_when_lazy_counters_are_declared():
    assert analyze("rl002_lazy_good.py", ContractSet(), RL002) == []


# -- RL003 ---------------------------------------------------------------


def test_rl003_flags_packed_batches_without_num_rows():
    findings = analyze("rl003_bad.py", ContractSet(), RL003)
    assert len(findings) == 3
    messages = [f.message for f in findings]
    assert any("bias_change_batch" in m and "num_rows" in m for m in messages)
    assert any("responsibility_batch" in m for m in messages)
    assert any("unpackbits without count=" in m for m in messages)


def test_rl003_clean_when_row_counts_are_threaded():
    assert analyze("rl003_good.py", ContractSet(), RL003) == []


# -- RL004 ---------------------------------------------------------------

RL004_CONTRACTS = ContractSet(factorization_authority=("rl004_authority.py",))


def test_rl004_flags_linalg_on_hessians_outside_authority():
    findings = analyze("rl004_bad.py", RL004_CONTRACTS, RL004)
    assert len(findings) == 2
    messages = [f.message for f in findings]
    assert any("linalg.cholesky" in m and "hessian" in m for m in messages)
    assert any("linalg.eigh" in m and "hess" in m for m in messages)
    # The covariance factorization is deliberately out of scope.
    assert not any("covariance" in m for m in messages)


def test_rl004_authority_file_is_exempt():
    assert analyze("rl004_authority.py", RL004_CONTRACTS, RL004) == []


# -- RL005 ---------------------------------------------------------------

RL005_CONTRACTS = ContractSet(metric_paths=("fixtures/",))


def test_rl005_flags_unguarded_metric_division():
    findings = analyze("rl005_bad.py", RL005_CONTRACTS, RL005)
    assert len(findings) == 1
    assert "unguarded metric division by denom" in findings[0].message


def test_rl005_accepts_eps_clamp_guard_pow_and_docstring():
    assert analyze("rl005_good.py", RL005_CONTRACTS, RL005) == []


def test_rl005_ignores_files_outside_metric_paths():
    off_path = ContractSet(metric_paths=("somewhere-else/",))
    assert analyze("rl005_bad.py", off_path, RL005) == []


# -- RL006 ---------------------------------------------------------------

RL006_CONTRACTS = ContractSet(clock_authority=("rl006_authority.py",))


def test_rl006_flags_clock_reads_outside_authority():
    findings = analyze("rl006_bad.py", RL006_CONTRACTS, RL006)
    assert len(findings) == 2
    messages = [f.message for f in findings]
    # Module attribute access and a renamed ``from time import``.
    assert any(m.startswith("time.perf_counter outside the clock authority") for m in messages)
    assert any(m.startswith("time.monotonic outside the clock authority") for m in messages)
    assert all("rl006_authority.py" in m and "trace span" in m for m in messages)
    # time.sleep reads no clock.
    assert not any("sleep" in m for m in messages)


def test_rl006_authority_file_is_exempt():
    assert analyze("rl006_authority.py", RL006_CONTRACTS, RL006) == []
