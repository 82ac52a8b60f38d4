"""Tables on demand: a random table generates its values on first read.

Only :meth:`InferenceEngine.score` (and pruning, which chooses rows by their
values) reads table values, so serving generates none, and a table that is
read holds the bytes an eager build would.
"""

import copy
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import M1_SPEC, ScenarioSpec, Session, build_scaled_model
from repro.api import create_backend
from repro.dlrm import EmbeddingTable, EmbeddingTableSpec, InferenceEngine, prune_table
from repro.dlrm.embedding import RandomRows
from repro.dlrm.quantization import quantize_rows
from repro.sim.rng import make_rng

from helpers import POOLED_SDM_OPTIONS

#: SHA-256 over the per-table SHA-256 hex digests (model order) of the
#: ledger-sized M1 — ``max_tables_per_group=8``, ``max_rows_per_table=16384``,
#: seed 0 — as the eager build generated it.
LEDGER_M1_TABLES_SHA256 = "697f947deac9932ce3c33dea1bba84e5b84366aed5a0c0a0a5b5c3f82b089dd4"


def _spec(**kwargs):
    defaults = dict(name="t", num_rows=64, dim=16, avg_pooling_factor=4.0)
    defaults.update(kwargs)
    return EmbeddingTableSpec(**defaults)


def _eager(spec, seed):
    """The eager build's table: every value drawn and quantised up front."""
    values = make_rng(seed, "embedding", spec.name).normal(0.0, 0.1, size=(spec.num_rows, spec.dim))
    return EmbeddingTable(spec, quantize_rows(values.astype(np.float32), bits=spec.quant_bits))


def _materialised(model):
    return {name for name, table in model.tables.items() if table.materialised}


def _scenario(backend, traffic=None, **options):
    return ScenarioSpec.from_dict(
        {
            "model": {"max_rows_per_table": 512},
            "backend": {"name": backend, "options": options},
            "workload": {"num_queries": 40},
            "traffic": traffic or {},
            "serving": {"warmup_queries": 5},
        }
    )


SERVE_SPECS = {
    "sdm": _scenario("sdm"),
    "tiered-3-split": _scenario(
        "tiered", tiers="dram:2KiB,cxl:40KiB:64KiB,nand:1GiB", split_rows=True
    ),
    "pooled": _scenario("sdm", **POOLED_SDM_OPTIONS),
    "dram": _scenario("dram"),
    "sdm-open": _scenario("sdm", traffic={"mode": "open", "offered_qps": 4000.0}),
}


class TestTableOnDemand:
    def test_random_table_generates_on_first_read(self):
        table = EmbeddingTable.random(_spec(), seed=3)
        assert not table.materialised
        assert table.size_bytes == table.spec.size_bytes
        assert table.check_indices([0, 63]).tolist() == [0, 63]
        assert not table.materialised
        data = table.data
        assert table.materialised
        assert table.data is data
        assert not data.flags.writeable
        np.testing.assert_array_equal(data, _eager(table.spec, 3).data)
        assert table.size_bytes == data.nbytes

    def test_explicit_data_is_materialised(self):
        raw = np.zeros((64, _spec().row_bytes), dtype=np.uint8)
        assert EmbeddingTable(_spec(), raw).materialised

    def test_materialised_is_read_only(self):
        table = EmbeddingTable.random(_spec())
        with pytest.raises(AttributeError):
            table.materialised = True

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize(
        "round_trip",
        [lambda table: pickle.loads(pickle.dumps(table)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip(self, round_trip, read_first):
        table = EmbeddingTable.random(_spec(), seed=9)
        if read_first:
            table.data
        copied = round_trip(table)
        assert copied.spec == table.spec
        assert copied.materialised == read_first
        np.testing.assert_array_equal(copied.data, _eager(table.spec, 9).data)
        assert not copied.data.flags.writeable
        assert copied.data is not table.data

    def test_the_lazy_source_is_a_small_record(self):
        table = EmbeddingTable.random(_spec(num_rows=100_000, dim=64), seed=1)
        assert len(pickle.dumps(table)) < 1024
        assert RandomRows(table.spec, 1) == RandomRows(table.spec, 1)

    def test_a_recipe_for_another_spec_is_rejected(self):
        with pytest.raises(ValueError, match="another spec"):
            EmbeddingTable(_spec(name="a"), RandomRows(_spec(name="b")))

    def test_every_ledger_m1_table_equals_the_eager_build(self):
        model = build_scaled_model(M1_SPEC, max_tables_per_group=8, max_rows_per_table=16384)
        assert len(model.tables) == 16
        assert not _materialised(model)
        assert model.embedding_size_bytes == sum(
            spec.num_rows * spec.row_bytes for spec in model.table_specs
        )
        combined = hashlib.sha256()
        for table in model.tables.values():
            digest = hashlib.sha256(table.data.tobytes()).hexdigest()
            assert digest == hashlib.sha256(_eager(table.spec, 0).data.tobytes()).hexdigest()
            combined.update(digest.encode())
        assert combined.hexdigest() == LEDGER_M1_TABLES_SHA256

    def test_pruning_reads_the_values_it_chooses_by(self):
        table = EmbeddingTable.random(_spec(), seed=2)
        pruned = prune_table(table, 0.25)
        assert table.materialised
        kept = pruned.mapping[pruned.mapping >= 0]
        assert kept.size == pruned.table.spec.num_rows


class TestServingReadsNoValues:
    @pytest.mark.parametrize("name", sorted(SERVE_SPECS))
    def test_a_run_materialises_no_table(self, name):
        session = Session(SERVE_SPECS[name])
        result = session.run()
        assert result.num_queries > 0
        assert not _materialised(session.model)

    def test_one_scores_read_materialises_only_the_tables_it_pools(self):
        session = Session(SERVE_SPECS["sdm"])
        engine = session.engine
        query = session.queries()[0]
        served = engine.run_query(query)
        assert not _materialised(session.model)
        served.scores
        assert _materialised(session.model) == set(query.user_indices) | set(query.item_indices)

    def test_scores_equal_those_of_an_eagerly_built_model(self):
        session = Session(SERVE_SPECS["sdm"])
        query = session.queries()[3]
        eager_model = copy.copy(session.model)
        eager_model.tables = {
            name: _eager(table.spec, 0) for name, table in session.model.tables.items()
        }
        eager = InferenceEngine(
            eager_model, session.compute, user_backend=create_backend("dram", eager_model)
        )
        np.testing.assert_array_equal(session.engine.run_query(query).scores, eager.score(query))

    def test_two_backends_on_one_model_generate_each_table_once(self, monkeypatch):
        generated = []
        generate = RandomRows.generate

        def counting(self):
            generated.append(self.spec.name)
            return generate(self)

        monkeypatch.setattr(RandomRows, "generate", counting)
        first = Session(SERVE_SPECS["sdm"])
        second = Session(SERVE_SPECS["dram"])
        second.adopt_backend(first.model)
        for session in (first, second):
            session.run()
        assert generated == []
        for session in (first, second):
            for query in session.queries()[:3]:
                session.engine.run_query(query).scores
        assert sorted(generated) == sorted(first.model.tables)


class TestBuildErrorsStillRaiseAtBuild:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"max_rows_per_table": True}, "max_rows_per_table must be a positive integer"),
            ({"max_rows_per_table": 2.5}, "max_rows_per_table must be a positive integer"),
            ({"max_rows_per_table": "x"}, "max_rows_per_table must be a positive integer"),
            ({"max_rows_per_table": 0}, "max_rows_per_table must be a positive integer"),
            ({"max_tables_per_group": 2.5}, "max_tables_per_group must be a positive integer"),
            ({"max_tables_per_group": 0}, "max_tables_per_group must be a positive integer"),
            ({"item_batch": 0}, "item_batch must be positive"),
        ],
    )
    def test_build_scaled_model(self, kwargs, error):
        with pytest.raises(ValueError, match=error):
            build_scaled_model(M1_SPEC, **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("num_rows", True), ("num_rows", 2.0), ("num_rows", 0), ("dim", False), ("dim", "8")],
    )
    def test_table_spec(self, field, value):
        with pytest.raises(ValueError, match=f"table 't': {field} must be a positive integer"):
            _spec(**{field: value})

    def test_numpy_integers_are_integers(self):
        assert _spec(num_rows=np.int64(8), dim=np.int32(4)).size_bytes == 8 * _spec(dim=4).row_bytes


class TestModelChoiceIsChecked:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_rows_per_table", True),
            ("max_rows_per_table", "x"),
            ("max_rows_per_table", 0),
            ("max_tables_per_group", 2.5),
            ("max_tables_per_group", -1),
            ("item_batch", 0),
            ("item_batch", False),
            ("seed", True),
            ("seed", 1.5),
        ],
    )
    def test_from_dict_names_the_dotted_path(self, field, value):
        data = json.loads(json.dumps({"model": {field: value}}))
        with pytest.raises(ValueError, match=rf"model\.{field} must be"):
            ScenarioSpec.from_dict(data)

    def test_valid_values_pass(self):
        spec = ScenarioSpec.from_dict({"model": {"item_batch": None, "seed": 3}})
        assert spec.model.item_batch is None and spec.model.seed == 3
