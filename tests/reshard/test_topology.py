"""The JSON form of a router's prefix table, as reshard records carry it."""

import pytest

from repro.scale.router import ShardRouter, spec_from_json, spec_to_json


@pytest.mark.parametrize("n_shards", [1, 2, 5, 8])
def test_spec_json_round_trip_rebuilds_the_router(n_shards):
    spec = ShardRouter(n_shards).spec()
    restored = spec_from_json(spec_to_json(spec))
    assert restored == spec
    assert ShardRouter.from_spec(restored) == ShardRouter(n_shards)
