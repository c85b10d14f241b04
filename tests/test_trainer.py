"""End-to-end tests of the oblivious embedding trainers.

LAORAM runs on both storage backends: the per-object
:class:`LAORAMClient` and the array :class:`FastLAORAMClient`.  Both must
install the epoch's lookahead plan and train bit-identically.
"""

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.fast_laoram import FastLAORAMClient
from repro.core.laoram import LAORAMClient
from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.datasets.xnli import SyntheticXNLIDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.oram.config import ORAMConfig
from repro.oram.path_oram import PathORAM

EMBED_DIM = 8
TABLE_ROWS = 128

LAORAM_BACKENDS = pytest.mark.parametrize(
    "laoram_cls", [LAORAMClient, FastLAORAMClient], ids=["object", "array"]
)


def make_store(laoram_cls=None):
    """Store over PathORAM (``None``) or over a LAORAM client class at S4."""
    config = ORAMConfig(num_blocks=TABLE_ROWS, block_size_bytes=EMBED_DIM * 4, seed=31)
    if laoram_cls is not None:
        engine = laoram_cls(LAORAMConfig(oram=config, superblock_size=4))
    else:
        engine = PathORAM(config)
    table = EmbeddingTable(TABLE_ROWS, EMBED_DIM, seed=2)
    return SecureEmbeddingStore(engine, table)


def make_dlrm(dataset):
    return DLRMModel(
        num_dense_features=13,
        small_table_sizes=dataset.table_sizes[:-1],
        embedding_dim=EMBED_DIM,
        seed=0,
    )


class TestDLRMTraining:
    @pytest.mark.parametrize(
        "laoram_cls",
        [None, LAORAMClient, FastLAORAMClient],
        ids=["pathoram", "laoram", "fast_laoram"],
    )
    def test_epoch_produces_finite_metrics(self, laoram_cls):
        dataset = SyntheticCriteoDataset(
            num_samples=40, largest_table_rows=TABLE_ROWS, seed=4
        )
        trainer = ObliviousEmbeddingTrainer(make_store(laoram_cls))
        report = trainer.train_dlrm_epoch(make_dlrm(dataset), dataset, max_samples=40)
        assert np.isfinite(report.mean_loss)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.embedding_accesses >= 40

    @LAORAM_BACKENDS
    def test_laoram_fetches_fewer_paths_than_pathoram(self, laoram_cls):
        dataset = SyntheticCriteoDataset(
            num_samples=60, largest_table_rows=TABLE_ROWS, seed=5
        )
        reports = {}
        for engine_cls in (None, laoram_cls):
            trainer = ObliviousEmbeddingTrainer(make_store(engine_cls))
            reports[engine_cls] = trainer.train_dlrm_epoch(
                make_dlrm(dataset), dataset, max_samples=60
            )
        assert reports[laoram_cls].path_reads < reports[None].path_reads

    @LAORAM_BACKENDS
    def test_plan_installed_on_both_backends(self, laoram_cls):
        """200-sample epoch, 128 rows, S4: 99 path reads through the plan.

        Without the plan (the array client used to be skipped by a
        concrete-class check) the same epoch issues 344 path reads.
        """
        dataset = SyntheticCriteoDataset(
            num_samples=200, largest_table_rows=TABLE_ROWS, seed=4
        )
        store = make_store(laoram_cls)
        report = ObliviousEmbeddingTrainer(store).train_dlrm_epoch(
            make_dlrm(dataset), dataset
        )
        assert store.memory.plan is not None
        assert report.embedding_accesses == 400
        assert report.path_reads == 99


class TestBackendEquivalence:
    """Both LAORAM backends train bit-identically through the plan."""

    @staticmethod
    def _assert_same(runs):
        (ref_store, ref_report), (fast_store, fast_report) = runs
        assert fast_store.memory.statistics == ref_store.memory.statistics
        assert (fast_report.mean_loss, fast_report.accuracy) == (
            ref_report.mean_loss,
            ref_report.accuracy,
        )
        assert np.array_equal(
            fast_store.memory.position_map.as_array(),
            ref_store.memory.position_map.as_array(),
        )

    def test_dlrm_epoch(self):
        dataset = SyntheticCriteoDataset(
            num_samples=96, largest_table_rows=TABLE_ROWS, seed=9
        )
        runs = []
        for laoram_cls in (LAORAMClient, FastLAORAMClient):
            store = make_store(laoram_cls)
            report = ObliviousEmbeddingTrainer(store).train_dlrm_epoch(
                make_dlrm(dataset), dataset, batch_size=8
            )
            runs.append((store, report))
        self._assert_same(runs)

    def test_xlmr_epochs(self):
        dataset = SyntheticXNLIDataset(
            num_samples=24, vocabulary_size=TABLE_ROWS, sequence_length=6, seed=3
        )
        runs = []
        for laoram_cls in (LAORAMClient, FastLAORAMClient):
            store = make_store(laoram_cls)
            trainer = ObliviousEmbeddingTrainer(store)
            model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
            trainer.train_xlmr_epoch(model, dataset)
            # The second epoch plans from the advanced cursor, without a
            # second placement.
            report = trainer.train_xlmr_epoch(model, dataset)
            runs.append((store, report))
        self._assert_same(runs)


class TestXLMRTraining:
    @LAORAM_BACKENDS
    def test_epoch_trains_and_counts_token_accesses(self, laoram_cls):
        dataset = SyntheticXNLIDataset(
            num_samples=12, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=6
        )
        model = XLMRClassifier(embedding_dim=EMBED_DIM, seed=0)
        trainer = ObliviousEmbeddingTrainer(make_store(laoram_cls))
        report = trainer.train_xlmr_epoch(model, dataset, max_samples=12)
        assert report.embedding_accesses >= 12 * 4
        assert np.isfinite(report.mean_loss)

    def test_learning_signal_over_epochs(self):
        dataset = SyntheticXNLIDataset(
            num_samples=30, vocabulary_size=TABLE_ROWS, sequence_length=4, seed=7
        )
        model = XLMRClassifier(embedding_dim=EMBED_DIM, learning_rate=0.3, seed=0)
        trainer = ObliviousEmbeddingTrainer(make_store())
        first = trainer.train_xlmr_epoch(model, dataset)
        second = trainer.train_xlmr_epoch(model, dataset)
        assert second.mean_loss <= first.mean_loss * 1.05
