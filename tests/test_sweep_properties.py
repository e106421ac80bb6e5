"""Property-based tests (hypothesis) on the sweep orchestrator's
hashing, grid expansion, and result cache."""

import itertools
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st

from repro.bench.harness import BenchEnvironment
from repro.sweep import (
    JobSpec,
    ResultCache,
    build_jobs,
    environment_fingerprint,
    expand_grid,
)

# -- strategies ---------------------------------------------------------------

# JSON-ish payloads as they appear in cached cell results.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# Result-affecting environment fields: every field here feeds the
# environment fingerprint.  Also the base environments of the
# key-policy lemma in test_key_policy.py, which perturbs every field.
env_perturbations = st.fixed_dictionaries(
    {
        "scale": st.sampled_from(["tiny", "small", "default"]),
        "num_pes": st.integers(1, 64),
        "opt_mode": st.sampled_from(["quick", "full"]),
        "cache_shrink": st.sampled_from([1.0, 8.0, 32.0]),
        "row_panel_divisor": st.sampled_from([1, 4, 8]),
    }
)

grid_axes = st.dictionaries(
    st.text(
        alphabet="abcdefgh", min_size=1, max_size=4
    ),
    st.lists(
        st.integers(0, 9) | st.sampled_from(["x", "y", "z"]),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    min_size=1,
    max_size=3,
)


def make_env(fields) -> BenchEnvironment:
    return BenchEnvironment(**fields)


# -- grid expansion -----------------------------------------------------------

class TestExpandGrid:
    @given(axes=grid_axes)
    def test_matches_nested_loop_order(self, axes):
        """Odometer order == the serial for-loop nesting it replaces."""
        expected = list(itertools.product(*axes.values()))
        assert expand_grid(axes) == expected

    @given(axes=grid_axes)
    def test_deterministic_function_of_spec(self, axes):
        assert expand_grid(axes) == expand_grid(dict(axes))

    @given(axes=grid_axes)
    def test_covers_full_product_exactly_once(self, axes):
        points = expand_grid(axes)
        assert len(points) == len(set(points))
        expected_size = 1
        for pool in axes.values():
            expected_size *= len(pool)
        assert len(points) == expected_size


# -- job keys -----------------------------------------------------------------

class TestJobKeys:
    @given(
        envs=st.lists(env_perturbations, min_size=1, max_size=4,
                      unique_by=lambda d: tuple(sorted(d.items()))),
        points=st.lists(
            st.tuples(st.sampled_from(["KRO", "DEL"]),
                      st.sampled_from([32, 128])),
            min_size=1, max_size=4, unique=True,
        ),
    )
    def test_injective_over_env_and_point_grid(self, envs, points):
        """Distinct (environment, point) pairs get distinct keys; the
        key is a pure function of content, not identity or position."""
        keys = {}
        for fields in envs:
            env = make_env(fields)
            for spec in build_jobs("fig09", env, points):
                identity = (tuple(sorted(fields.items())), spec.point)
                key = spec.key
                assert keys.setdefault(key, identity) == identity, (
                    "key collision between distinct jobs"
                )
        assert len(keys) == len(envs) * len(points)

    @given(fields=env_perturbations,
           point=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_key_independent_of_grid_index(self, fields, point):
        env = make_env(fields)
        a = JobSpec(driver="d", index=0, point=point,
                    config_hash=environment_fingerprint(env))
        b = JobSpec(driver="d", index=7, point=point,
                    config_hash=environment_fingerprint(env))
        assert a.key == b.key and a.seed == b.seed


# -- result cache -------------------------------------------------------------

class TestCacheRoundTrip:
    @given(payload=json_values)
    @settings(max_examples=40, deadline=None)
    def test_round_trips_arbitrary_payloads(self, payload, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = "ab" + "0" * 62
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, payload)
        hit, value = cache.get(key)
        assert hit and value == payload

    @given(payloads=st.lists(json_values, min_size=2, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_concurrent_writers_never_corrupt(
        self, payloads, tmp_path_factory
    ):
        """N writers racing on one key: the surviving entry is some
        writer's payload, intact — never interleaved bytes."""
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = "cd" + "1" * 62
        with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
            list(pool.map(lambda p: cache.put(key, p), payloads))
        hit, value = cache.get(key)
        assert hit
        assert any(value == p for p in payloads)

    @given(
        entries=st.dictionaries(
            st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
            json_values,
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_concurrent_writers_distinct_keys(
        self, entries, tmp_path_factory
    ):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(
                lambda kv: cache.put(kv[0], kv[1]), entries.items()
            ))
        assert len(cache) == len(entries)
        for key, payload in entries.items():
            hit, value = cache.get(key)
            assert hit and value == payload
