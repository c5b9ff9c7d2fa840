from fractions import Fraction

import pytest

from longeq import (
    GradedActionData,
    make_conjugate,
    make_diag,
    make_graded,
    make_homothety,
    make_pair,
    make_phi,
)
from longeq import linalg as la


def flip_matrix(n):
    """Matrix of the flip tau(m_a (x) m_b) = m_b (x) m_a."""
    t = la.zeros(n * n, n * n)
    for a in range(n):
        for b in range(n):
            t[b * n + a][a * n + b] = la.F1
    return t


def upper_pair_operator(a, b, c):
    """The upper-triangular pair solution with f = [[a,1],[0,a]],
    g = [[b,c],[0,b]]."""
    return make_pair([[a, 1], [0, a]], [[b, c], [0, b]])


def z2_graded_data():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    actions = {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, -1]]}
    return GradedActionData(["e", "g"], table, actions, ["e", "g"])


def build_corpus():
    """Named Long solutions exercising every constructor."""
    corpus = {
        "diag_2": make_diag(2, [[2, 3], [5, 7]]),
        "diag_groups": make_diag(2, [[2, 3], [0, 0]]),
        "pair_111": upper_pair_operator(1, 1, 1),
        "pair_235": upper_pair_operator(2, 3, 5),
        "pair_invertible": make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]]),
        "conjugate": make_conjugate(
            [[1, 1], [0, 1]], make_diag(2, [[2, 3], [5, 7]])
        ),
        "graded_z2": make_graded(z2_graded_data()),
        "homothety": make_homothety(
            [[[1, 0], [0, 1]], [[2, 0], [0, 3]]],
            [(Fraction(1), 1, 1), (Fraction(2), 0, 1)],
        ),
    }
    for n in (1, 2, 3):
        from longeq import idempotent_maps

        for phi in idempotent_maps(n):
            corpus[f"phi_{n}_" + "".join(map(str, phi))] = make_phi(n, phi)
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def phi4_solutions():
    from longeq import idempotent_maps

    return {tuple(phi): make_phi(4, phi) for phi in idempotent_maps(4)}
