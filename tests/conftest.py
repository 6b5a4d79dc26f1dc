import numpy as np
import pytest

from fkbench.model import indicator_function, make_model

TWO_STATE_KERNEL = np.array([[0.8, 0.2], [0.3, 0.7]])


@pytest.fixture
def two_state():
    """Horizon-2 two-state model with potentials (0.5, 2.0) at every time, eps = 0."""
    model = make_model(
        eta0=[0.5, 0.5],
        kernels=[TWO_STATE_KERNEL] * 2,
        potentials=[np.array([0.5, 2.0])] * 3,
    )
    return model, indicator_function(model.dims, 1)


@pytest.fixture
def flat_two_state():
    """Same chain, unit potentials, horizon 1."""
    model = make_model(
        eta0=[0.5, 0.5],
        kernels=[TWO_STATE_KERNEL],
        potentials=[np.ones(2)] * 2,
    )
    return model, indicator_function(model.dims, 1)
