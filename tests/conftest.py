import numpy as np
import pytest

from qpirlab.states import DensityOperator, PureState, RegisterLayout


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_pure(rng, layout: RegisterLayout) -> PureState:
    v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState.from_vector(layout, v, normalize=True)


def random_density(rng, dim: int, rank: int | None = None) -> DensityOperator:
    rank = rank or dim
    vecs = []
    w = rng.dirichlet(np.ones(rank))
    for k in range(rank):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vecs.append(np.sqrt(w[k]) * v / np.linalg.norm(v))
    return DensityOperator.from_ensemble(vecs)


def random_kraus(rng, dim: int, count: int) -> list[np.ndarray]:
    gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]
    s = sum(g.conj().T @ g for g in gs)
    evals, evecs = np.linalg.eigh(s)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [g @ inv_sqrt for g in gs]


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
