import random

import pytest

from helpers import random_rollout_instance


def test_random_rollout_instance_rejects_too_many_agents():
    # 5 agents need 10 distinct start and goal cells; a 3x3 grid has 9
    with pytest.raises(ValueError):
        random_rollout_instance(random.Random(1), height=3, width=3, n_agents=5)
    with pytest.raises(ValueError):
        random_rollout_instance(random.Random(1), height=4, width=4, n_agents=7, blocked_cells=3)
    schedule, _, _ = random_rollout_instance(random.Random(1), height=3, width=3, n_agents=4)
    assert len(schedule.agents) == 4
