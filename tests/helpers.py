"""Shared test helpers built on the library's public engine."""

from markovup.mc_engine import DEFAULT_MAX_STEPS, simulate_blocks


def simulated_trajectories(kernel, x0, n_traj, seed, max_steps=DEFAULT_MAX_STEPS, task_index=0):
    """The paths simulate_blocks yields, as Trajectory objects in path order."""
    blocks = simulate_blocks(kernel, x0, n_traj, seed, max_steps, task_index)
    return [traj for block in blocks for traj in block.trajectories()]
