"""Test-only oracles shared by more than one test module."""

import numpy as np

from shallowboson.sampling import as_seed_sequence


def finite_difference_gradient(objective, angles, index: int,
                               epsilon: float = 1e-5,
                               scheme: str = "forward",
                               stream_seed=None) -> float:
    """Numerical derivative, forward by default, central on request.

    A simulation-only oracle: experimentally this would demand
    epsilon-accurate hardware tuning, which is the reason the shift rule
    is the solver default.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    angles = np.asarray(angles, dtype=float)
    shifted = angles.copy()
    seeds = (as_seed_sequence(stream_seed).spawn(2)
             if objective.samples is not None else (None, None))
    if scheme == "forward":
        shifted[index] += epsilon
        return (objective.value(shifted, seeds[0])[0]
                - objective.value(angles, seeds[1])[0]) / epsilon
    if scheme == "central":
        shifted[index] += epsilon
        back = angles.copy()
        back[index] -= epsilon
        return (objective.value(shifted, seeds[0])[0]
                - objective.value(back, seeds[1])[0]) / (2 * epsilon)
    raise ValueError(f"unknown scheme {scheme!r}")
