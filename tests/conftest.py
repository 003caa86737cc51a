import numpy as np
import pytest

from pufledger.consensus import NodeState, ROLE_CLIENT, ROLE_TRUSTED
from pufledger.puf import PufConfig, manufacture
from pufledger.registry import Registry, enroll
from pufledger.fom import ScreeningPolicy


@pytest.fixture(scope="session")
def default_config():
    return PufConfig()


@pytest.fixture(scope="session")
def policy():
    return ScreeningPolicy()


@pytest.fixture(scope="session")
def devices(default_config):
    """Six deterministic devices from the default manufacturing line."""
    return [manufacture(default_config, 0x100000000000 + i, i) for i in range(6)]


@pytest.fixture(scope="session")
def enrolled(devices, policy):
    """A registry with all six devices enrolled (device 0 is trusted).

    Session-scoped because enrollment is the slow part; tests must treat
    the registry and records as read-only.
    """
    registry = Registry(trusted_node_ids=[devices[0].device_id])
    records = {}
    for i, device in enumerate(devices):
        records[device.device_id] = enroll(
            registry, device, 120, ScreeningPolicy(), seed=1000 + i)
    return registry, records


@pytest.fixture()
def fresh_nodes(devices, enrolled):
    """Mutable per-test node states: one trusted, five clients."""
    registry, records = enrolled
    nodes = []
    for i, device in enumerate(devices):
        role = ROLE_TRUSTED if i == 0 else ROLE_CLIENT
        nodes.append(NodeState(
            node_id=device.device_id,
            role=role,
            device=device,
            challenges=records[device.device_id].challenges,
        ))
    return registry, nodes


def rng_seeds(seed, count):
    """Deterministic evaluation seed lists for noisy reads in tests."""
    return np.random.default_rng([seed]).integers(0, 1 << 63, size=count).tolist()
