"""The counter catalogue: every memory counter is fed, folded, exported
and reported.

Each scalar counter is declared once, as a :class:`MemSystemStats` field
built by :func:`repro.stats.collector.counter`; the measurement reset,
the channel device fold, the timeline window columns, the metrics
registry and the canonical encoding are all derived from those
declarations.  This suite proves the derived surfaces behave, on a small
fixed list of runs that between them drive every counter:

* **fed** — every counter is non-zero in at least one run;
* **partition** — every counter is exactly one of ``completion`` or
  ``device``, and device counters only arrive through the finalize fold;
* **folded** — every ``BankStats`` slot but ``precharges`` and every
  ``TableStats`` field feeds a device counter, and the fold sums match
  the banks and tag stores of a finished run;
* **exported** — every counter is ``mem.<name>`` in the registry, every
  windowed counter is a ``WindowRecord`` field and CSV column whose
  window sums reconcile with the run totals, and the zero encodings of
  both dataclasses (which carry the elision flags) are pinned;
* **reported** — perturbing any one counter on a run where it is set
  changes the ``run_report`` text or a ``repro.stats.metrics`` value.
"""

import dataclasses
import hashlib
import inspect

import pytest

from repro.analysis.report import run_report
from repro.config import (
    AmbPrefetchConfig,
    InterleaveScheme,
    PagePolicy,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.channel_controller import _BANK_FOLD, _TABLE_FOLD
from repro.controller.prefetch_table import TableStats
from repro.dram.bank import BankStats
from repro.serialize import canonical_dumps, encode_value
from repro.stats import metrics
from repro.stats.collector import (
    COMPLETION,
    COMPLETION_COUNTERS,
    COUNTERS,
    DEVICE,
    DEVICE_COUNTERS,
    WINDOW_COLUMNS,
    MemSystemStats,
)
from repro.system import System
from repro.telemetry.registry import registry_from_stats
from repro.timeline.export import timeline_csv_lines
from repro.timeline.records import WindowRecord

NAMES = [f.name for f in COUNTERS]

#: Between them these runs drive every counter off zero.
SCENARIOS = {
    # Open page (row hits/misses), LPDDR4 (tFAW stalls), tREFI cut to
    # 1.2 us (refreshes) and the timeline (idle residency).
    "open-page-refresh": (
        dataclasses.replace(
            fbdimm_baseline(num_cores=4, logic_channels=1, dimms_per_channel=1)
            .with_memory(interleave=InterleaveScheme.PAGE,
                         page_policy=PagePolicy.OPEN_PAGE,
                         refresh_interval_ns=1200.0)
            .with_device("lpddr4-2400")
            .with_timeline(window_ns=500.0),
            instructions_per_core=30_000, seed=7,
        ),
        ("applu", "equake", "facerec", "fma3d"),
    ),
    # Lifecycle tracking with a 4-entry AMB cache (tag-store evictions),
    # link faults with one retry (recovered and dropped transfers), AMB
    # bit flips (parity errors) and a low degraded-mode threshold.
    "observed-faults": (
        dataclasses.replace(
            fbdimm_amb_prefetch(
                num_cores=2, logic_channels=2,
                prefetch=AmbPrefetchConfig(lifecycle=True, cache_entries=4),
            )
            .with_faults(error_rate=0.3, amb_bitflip_rate=0.2,
                         degraded_threshold=2, max_retries=1)
            .with_timeline(window_ns=500.0),
            instructions_per_core=20_000, seed=7,
        ),
        ("wupwise", "swim"),
    ),
    # One light core behind a 5 ns power-down threshold (power-down
    # residency), with a warm-up discard (the measurement reset path).
    "light-warmup": (
        dataclasses.replace(
            ddr2_baseline(num_cores=1).with_timeline(
                window_ns=500.0, powerdown_entry_ns=5.0
            ),
            instructions_per_core=20_000, warmup_instructions=5_000, seed=7,
        ),
        ("vortex",),
    ),
}

#: SHA-256 of the canonical encoding of an all-zero MemSystemStats and
#: WindowRecord: which counters are elided at zero is part of the
#: conformance-digest format.
ZERO_ENCODINGS = {
    "MemSystemStats": (
        "c2c6ebd766155ecbef0ad41245677d6b7ed9418ef73c52c5ea295a7d8e3d560c"
    ),
    "WindowRecord": (
        "6cb6d1a3a69e923be074484aaac722f1501d529e150894a3c35c7fb6a4f88f71"
    ),
}


class Run:
    """A finished scenario: its system, result and pre-fold stats."""

    def __init__(self, config, programs):
        self.system = System(config, programs)
        controller = self.system.controller
        fold = controller.finalize
        self.pre_fold = None

        def finalize():
            self.pre_fold = dataclasses.replace(controller.stats)
            return fold()

        controller.finalize = finalize
        self.result = self.system.run()

    def banks(self):
        for channel in self.system.controller.channels:
            for unit in channel.units:
                yield from unit.banks

    def tables(self):
        for channel in self.system.controller.channels:
            for amb in channel.ambs:
                if amb.table is not None:
                    yield amb.table


@pytest.fixture(scope="module")
def runs():
    return {name: Run(*scenario) for name, scenario in SCENARIOS.items()}


def _metric_functions():
    """Every ``repro.stats.metrics`` function of one ``stats`` argument."""
    return [
        fn for _, fn in inspect.getmembers(metrics, inspect.isfunction)
        if list(inspect.signature(fn).parameters) == ["stats"]
    ]


class TestFed:
    def test_every_counter_is_fed(self, runs):
        unfed = [
            name for name in NAMES
            if not any(getattr(run.result.mem, name) for run in runs.values())
        ]
        assert unfed == []


class TestPartition:
    def test_every_scalar_counter_is_in_the_catalogue(self):
        scalars = {
            f.name for f in dataclasses.fields(MemSystemStats)
            if f.type == "int"
        } - {"first_activity_ps", "last_activity_ps"}
        assert set(NAMES) == scalars

    def test_every_counter_has_exactly_one_source(self):
        for f in COUNTERS:
            assert f.metadata["source"] in (COMPLETION, DEVICE), f.name
        assert not set(COMPLETION_COUNTERS) & set(DEVICE_COUNTERS)
        assert sorted(COMPLETION_COUNTERS + DEVICE_COUNTERS) == sorted(NAMES)

    def test_device_counters_arrive_only_through_the_fold(self, runs):
        for name, run in runs.items():
            live = {
                counter: getattr(run.pre_fold, counter)
                for counter in DEVICE_COUNTERS
            }
            assert not any(live.values()), (name, live)

    def test_device_counters_are_the_channel_fold(self, runs):
        for name, run in runs.items():
            if run.result.config.warmup_instructions:
                continue  # the fold is baseline-subtracted there
            mem = run.result.mem
            assert {
                counter: getattr(mem, counter) for counter in DEVICE_COUNTERS
            } == run.system.controller.device_counters(), name

    def test_reset_zeroes_exactly_the_completion_counters(self):
        stats = MemSystemStats(**dict.fromkeys(NAMES, 7))
        stats.reset_measurement()
        for name in COMPLETION_COUNTERS:
            assert getattr(stats, name) == 0, name
        for name in DEVICE_COUNTERS:
            assert getattr(stats, name) == 7, name


class TestFolded:
    def test_every_bank_slot_but_precharges_folds(self):
        assert {attr for attr, _ in _BANK_FOLD} \
            == set(BankStats.__slots__) - {"precharges"}
        assert {name for _, name in _BANK_FOLD} <= set(DEVICE_COUNTERS)

    def test_every_table_field_folds(self):
        fields = {f.name for f in dataclasses.fields(TableStats)}
        assert {attr for attr, _ in _TABLE_FOLD} == fields
        assert {name for _, name in _TABLE_FOLD} <= set(DEVICE_COUNTERS)

    def test_bank_fold_matches_the_banks(self, runs):
        run = runs["open-page-refresh"]  # no warm-up: nothing subtracted
        mem = run.result.mem
        banks = list(run.banks())
        for attr, name in _BANK_FOLD:
            assert getattr(mem, name) \
                == sum(getattr(bank.stats, attr) for bank in banks), name
        assert mem.column_accesses == mem.column_reads + mem.column_writes

    def test_table_fold_matches_the_tag_stores(self, runs):
        run = runs["observed-faults"]
        tables = list(run.tables())
        assert tables
        for attr, name in _TABLE_FOLD:
            assert getattr(run.result.mem, name) \
                == sum(getattr(table.stats, attr) for table in tables), name


class TestExported:
    def test_every_counter_is_registered(self, runs):
        mem = runs["observed-faults"].result.mem
        registry = registry_from_stats(mem)
        assert registry.names()[:len(NAMES)] == [f"mem.{n}" for n in NAMES]
        for f in COUNTERS:
            metric = registry.get(f"mem.{f.name}")
            assert metric.kind == "counter", f.name
            assert metric.help == f.metadata["help"], f.name
            assert metric.value == getattr(mem, f.name), f.name

    def test_windowed_counters_are_window_and_csv_columns(self, runs):
        fields = [f.name for f in dataclasses.fields(WindowRecord)]
        header = timeline_csv_lines(
            runs["observed-faults"].result.timeline
        )[0].split(",")
        for name, column in WINDOW_COLUMNS:
            assert column in fields, name
            assert column in header, name

    def test_window_columns_reconcile_with_run_totals(self, runs):
        for label, run in runs.items():
            windows = run.result.timeline.windows
            for name, column in WINDOW_COLUMNS:
                assert sum(getattr(w, column) for w in windows) \
                    == getattr(run.result.mem, name), (label, name)

    def test_every_window_counter_column_is_in_the_catalogue(self):
        gauges = {
            f.name for f in dataclasses.fields(WindowRecord)
            if f.name in ("index", "start_ps", "end_ps", "queue_depth")
            or f.name.startswith(("latency_", "energy_"))
        }
        columns = {column for _, column in WINDOW_COLUMNS}
        assert {f.name for f in dataclasses.fields(WindowRecord)} - gauges \
            == columns

    def test_elided_window_columns_are_the_elided_windowed_counters(self):
        meta = {f.name: f.metadata for f in COUNTERS}
        assert WindowRecord.ENCODE_OPTIONAL_FIELDS == {
            column for name, column in WINDOW_COLUMNS
            if meta[name]["elide"]
        }

    @pytest.mark.parametrize("cls", [MemSystemStats, WindowRecord])
    def test_zero_encoding_is_pinned(self, cls):
        text = canonical_dumps(encode_value(cls()))
        assert hashlib.sha256(text.encode()).hexdigest() \
            == ZERO_ENCODINGS[cls.__name__]


class TestReported:
    def test_perturbing_any_counter_changes_the_report(self, runs):
        functions = _metric_functions()
        assert functions

        def rendered(result, baseline):
            return (
                run_report(result, baseline),
                [fn(result.mem) for fn in functions],
            )

        silent = []
        for name in NAMES:
            result = next(
                run.result for run in runs.values()
                if getattr(run.result.mem, name)
            )
            perturbed = dataclasses.replace(
                result,
                mem=dataclasses.replace(
                    result.mem, **{name: getattr(result.mem, name) + 10**6}
                ),
            )
            if rendered(perturbed, result) == rendered(result, result):
                silent.append(name)
        assert silent == []
