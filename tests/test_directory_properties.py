"""Property tests: block-directory resolution == naive reversed-chain walk.

Two oracles back the O(log W) block directory:

* the dense reference: a simulator driven through a random modifier
  sequence must match it after every update, and
* after every update, a :class:`DirectoryReader` built "as of" each stage
  must agree with a naive walk over the same stage prefix, newest store
  first -- for the full vector and for gathers.

Both are exercised with and without fusion and copy-on-write, on the
sequential and the work-stealing executor.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.cow import DirectoryReader
from repro.core.simulator import QTaskSimulator

from .conftest import circuit_levels, reference_state
from .test_properties import _apply_modifier, levels_strategy, modifier_strategy

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _naive_block(sim, block, before_seq):
    """Walk the stages before ``before_seq`` newest-first (the O(S) oracle)."""
    for stage in reversed(sim.graph.stages[:before_seq]):
        if stage.store.has_block(block):
            return stage.store.get_block(block)
    return sim._initial.get_block(block)


def assert_directory_matches_naive_walk(sim: QTaskSimulator) -> None:
    """Directory-resolved reads == reversed-chain walk, for every stage view."""
    for prefix in range(len(sim.graph.stages) + 1):
        reader = DirectoryReader(sim._directory, prefix)
        expected = np.concatenate(
            [_naive_block(sim, b, prefix) for b in range(sim.n_blocks)]
        )
        np.testing.assert_array_equal(reader.full_vector(), expected)
        idx = np.arange(sim.dim, dtype=np.int64)[:: max(1, sim.dim // 16)]
        np.testing.assert_array_equal(reader.gather(idx), expected[idx])


@pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_matches_chain_under_modifiers(fusion, num_qubits, data):
    """Directory reads equal the chain walk and the dense state through modifiers."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=5))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1, fusion=fusion)
    ckt.from_levels(lv)
    sim.update_state()
    for mod in mods:
        _apply_modifier(ckt, mod, num_qubits)
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(ckt))
        np.testing.assert_allclose(sim.state(), expected, atol=1e-10, rtol=0)
        for basis in (0, sim.dim - 1):
            assert sim.amplitude(basis) == sim.state()[basis]
        assert_directory_matches_naive_walk(sim)
    sim.close()


@pytest.mark.parametrize("workers", [1, 3], ids=["sequential", "workstealing"])
@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_consistent_on_both_executors(workers, num_qubits, data):
    """The directory index stays exact under parallel block writes."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=4))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=workers)
    ckt.from_levels(lv)
    sim.update_state()
    for mod in mods:
        _apply_modifier(ckt, mod, num_qubits)
        sim.update_state()
        assert_directory_matches_naive_walk(sim)
    sim.close()


@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data())
def test_directory_purged_after_clearing_circuit(num_qubits, data):
    """Removing every net leaves no stale ownership entries behind."""
    lv = data.draw(levels_strategy(num_qubits))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
    ckt.from_levels(lv)
    sim.update_state()
    for net in list(ckt.nets()):
        ckt.remove_net(net)
    sim.update_state()
    for b in range(sim.n_blocks):
        assert sim._directory.writers_of(b) == ()
    state = sim.state()
    assert state[0] == 1.0
    assert np.all(state[1:] == 0.0)
    sim.close()
