"""Tests of the benchmark's certificates and input generation.

    python3 -m pytest benchmarks -q

The worked three-user model: bits a=1, b=c=1/2, d=1/10; user 1 observes
a, b, c, user 2 observes c, d and user 3 observes b, d.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import certify  # noqa: E402
from models import SPECS, Model, draw, model_document, subset_values, write  # noqa: E402

EGALITARIAN = [1.0, 0.55, 0.55]
EGALITARIAN_313 = [1.125, 0.375, 0.6]
SHAPLEY = [1.5, 0.3, 0.3]


def worked(weights=(1.0, 1.0, 1.0)):
    obs = np.array([[1, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]], dtype=bool)
    return Model(np.array([1.0, 0.5, 0.5, 0.1]), obs, np.array(weights))


def test_worked_example_is_certified():
    assert certify.egalitarian(worked(), EGALITARIAN) is None
    assert certify.egalitarian(worked((3, 1, 3)), EGALITARIAN_313) is None
    assert certify.shapley(worked(), SHAPLEY) is None
    assert certify.membership(worked(), SHAPLEY) is None


def test_raised_coordinate_is_rejected():
    raised = [1.0, 0.65, 0.55]
    assert certify.membership(worked(), raised) is not None
    assert certify.egalitarian(worked(), raised) is not None


def test_permuted_egalitarian_vector_is_rejected():
    permuted = np.array([0.55, 1.0, 0.55])     # user 2 over H{2} = 0.6
    assert certify.max_flow(worked(), permuted, 1e-12) < permuted.sum() - 1e-6
    assert certify.egalitarian(worked(), permuted) is not None


def test_shapley_and_egalitarian_are_told_apart():
    assert certify.shapley(worked(), EGALITARIAN) is not None
    # a member of the region, but {2, 3} at ratio 0.3 is not tight
    assert certify.egalitarian(worked(), SHAPLEY) is not None


def test_decomposition_certificate():
    chain = [np.array([False, True, True]), np.ones(3, dtype=bool)]
    assert certify.decomposition(worked(), EGALITARIAN, [0.55, 1.0],
                                 chain) is None
    chain_313 = [np.array([False, False, True]), np.ones(3, dtype=bool)]
    assert certify.decomposition(worked((3, 1, 3)), EGALITARIAN_313,
                                 [0.2, 0.375], chain_313) is None
    assert certify.decomposition(worked(), EGALITARIAN, [1.0, 0.55],
                                 chain) is not None
    wrong_chain = [np.array([False, True, False]), np.ones(3, dtype=bool)]
    assert certify.decomposition(worked(), EGALITARIAN, [0.55, 1.0],
                                 wrong_chain) is not None


def test_flow_agrees_with_every_subset():
    rng = np.random.default_rng(5)
    for k in range(40):
        model = draw(k, SPECS["audit"], 0, n=6)
        # a greedy vertex is a member; a random shift of it rarely is
        order = rng.permutation(6)
        vals = subset_values(model)
        prefix = np.cumsum([0] + [1 << int(i) for i in order])
        r = np.zeros(6)
        r[order] = np.diff(vals[prefix])
        if k % 2:
            shift = rng.normal(0.0, 0.2, 6)
            r = np.maximum(r + shift - shift.mean(), 0.0)
            r *= vals[-1] / r.sum()
        masks = np.arange(64)
        r_sub = np.array([r[[i for i in range(6) if m >> i & 1]].sum()
                          for m in masks])
        member = bool(np.all(r_sub <= vals + 1e-9))
        flow_ok = certify.max_flow(model, r, 1e-15) >= r.sum() - 1e-9
        assert flow_ok == member


def test_same_seed_same_models(tmp_path):
    for name, spec in SPECS.items():
        a, b = draw(7, spec, 3, n=10), draw(7, spec, 3, n=10)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.w, b.w)
        assert not np.array_equal(a.h, draw(8, spec, 3, n=10).h)
        fa = write(a, spec.kind, tmp_path, "a")
        fb = write(b, spec.kind, tmp_path, "b")
        assert fa.model.read_bytes() == fb.model.read_bytes()
        assert fa.weights.read_bytes() == fb.weights.read_bytes()


@pytest.mark.parametrize("kind", ["bit_pool", "table"])
def test_model_documents_carry_the_arrays(kind):
    model = worked()
    doc = model_document(model, kind)
    assert doc["type"] == kind
    if kind == "table":
        assert doc["values"]["u1,u2"] == pytest.approx(1.1)
        assert doc["values"]["u0,u1,u2"] == pytest.approx(2.1)
    else:
        assert doc["observes"]["u2"] == ["b1", "b3"]
