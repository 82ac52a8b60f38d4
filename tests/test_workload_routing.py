"""Tests for query routing (user-sticky vs random)."""

import pytest

from repro.workload import QueryGenerator, RequestRouter, RoutingPolicy, WorkloadConfig

from helpers import small_model


class TestRequestRouter:
    def test_sticky_routing_is_deterministic_per_user(self):
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=1)).generate(50)
        router = RequestRouter(num_hosts=4, policy=RoutingPolicy.USER_STICKY)
        by_user = {}
        for query in queries:
            host = router.route(query)
            if query.user_id in by_user:
                assert by_user[query.user_id] == host
            by_user[query.user_id] = host

    def test_sticky_routing_stable_across_router_instances(self):
        model = small_model()
        query = QueryGenerator(model, WorkloadConfig(item_batch=1)).generate(1)[0]
        a = RequestRouter(8, RoutingPolicy.USER_STICKY).route(query)
        b = RequestRouter(8, RoutingPolicy.USER_STICKY).route(query)
        assert a == b

    def test_random_routing_spreads_load(self):
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=1)).generate(200)
        router = RequestRouter(4, RoutingPolicy.RANDOM, seed=0)
        per_host = router.split(queries)
        assert len(per_host) == 4
        assert all(len(host_queries) > 20 for host_queries in per_host.values())

    def test_split_preserves_all_queries(self):
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=1)).generate(100)
        per_host = RequestRouter(4).split(queries)
        assert sum(len(v) for v in per_host.values()) == 100

    def test_invalid_host_count_rejected(self):
        with pytest.raises(ValueError):
            RequestRouter(0)

    def test_policy_accepts_string(self):
        assert RequestRouter(2, "random").policy is RoutingPolicy.RANDOM

    def test_sticky_routing_increases_per_host_reuse(self):
        """Figure 4c: a host sees higher temporal locality under user-sticky
        routing than under random routing, because a user's repeated index
        sequences all land on the same host."""
        model = small_model(num_rows=2048)
        config = WorkloadConfig(
            item_batch=1,
            num_users=64,
            user_zipf_alpha=1.3,
            sequence_repeat_probability=0.0,
            user_reuse_probability=1.0,
            sequence_pool_size=64,
        )
        generator = QueryGenerator(model, config, seed=0)
        queries = generator.generate(400)
        table = model.user_table_specs[0].name

        def mean_unique_fraction(router: RequestRouter) -> float:
            """Unique rows / total accesses per host; lower means more reuse."""
            fractions = []
            for host_queries in router.split(queries).values():
                if len(host_queries) < 10:
                    continue
                trace = generator.access_trace(host_queries, table)
                fractions.append(len(set(trace)) / len(trace))
            assert fractions
            return sum(fractions) / len(fractions)

        sticky = mean_unique_fraction(RequestRouter(4, RoutingPolicy.USER_STICKY))
        random = mean_unique_fraction(RequestRouter(4, RoutingPolicy.RANDOM, seed=1))
        assert sticky <= random
