import dataclasses
import math
import warnings

import numpy as np
import pytest

import scipy.optimize

from clicklab import adaptive, attention, clicksim, matching, synthgen, trainer
from clicklab.core import DimensionError, ParameterError, rng_stream
from oracles import (bits, brute_force_lex_min_assignment, brute_force_min_cost,
                     reference_cost_matrix, reference_hungarian)

OBJECT = np.array([1.0, 0.0])


def square_mask(h=8, w=8):
    gt = np.zeros((h, w), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    return gt


def perfect_pred(gt):
    return matching.InstancePrediction(gt.astype(float), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# pair_cost
# ---------------------------------------------------------------------------

def test_pair_cost_perfect_pair_is_zero():
    gt = square_mask()
    cost = matching.pair_cost(perfect_pred(gt), matching.GroundTruthInstance(gt, OBJECT))
    assert cost == 0.0


def test_pair_cost_classification_term_only():
    # identical masks, class prob 0.5: lambda_cli * ln 2 with lambda_cli=2
    gt = square_mask()
    pred = matching.InstancePrediction(gt.astype(float), np.array([0.5, 0.5]))
    cost = matching.pair_cost(pred, matching.GroundTruthInstance(gt, OBJECT))
    assert cost == pytest.approx(2.0 * math.log(2.0), abs=1e-9)


def test_pair_cost_outer_weights_scale_linearly():
    gt = square_mask()
    pred = matching.InstancePrediction(np.full(gt.shape, 0.4), np.array([0.7, 0.3]))
    gti = matching.GroundTruthInstance(gt, OBJECT)
    base = matching.pair_cost(pred, gti, matching.LossWeights())
    tripled = matching.pair_cost(
        pred, gti, matching.LossWeights(lambda_mask=3.0, lambda_cli=6.0))
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# hungarian
# ---------------------------------------------------------------------------

def test_hungarian_diagonal_zero_identity():
    c = np.ones((3, 3)) - np.eye(3)
    m = matching.hungarian(c)
    assert m.assignment == [(0, 0), (1, 1), (2, 2)]
    assert m.total_cost == 0.0


def test_hungarian_two_by_two_brute_force():
    # both permutations by hand: 1+1=2 beats 2+3=5
    m = matching.hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert m.assignment == [(0, 0), (1, 1)]
    assert m.total_cost == 2.0


def test_hungarian_all_equal_tie_break_is_identity():
    m = matching.hungarian(np.full((4, 4), 3.0))
    assert m.assignment == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_hungarian_lexicographic_tie_break_rectangular():
    # two optimal choices for pred 0; the lower gt index must win
    m = matching.hungarian(np.array([[1.0, 1.0, 5.0]]))
    assert m.assignment == [(0, 0)]
    assert m.unmatched_predictions == []


def test_hungarian_more_preds_than_gts():
    c = np.array([[5.0, 1.0], [1.0, 5.0], [2.0, 2.0]])
    m = matching.hungarian(c)
    assert m.assignment == [(0, 1), (1, 0)]
    assert m.unmatched_predictions == [2]
    assert m.total_cost == 2.0


@pytest.mark.parametrize("cost, assignment, total", [
    # wide and tall with a +1e6 block: a 0.001 gap is a real gap, not a tie
    ([[1.001, 1.0] + [1e6] * 6], [(0, 1)], 1.0),
    ([[1.001], [1.0]] + [[1e6]] * 6, [(1, 0)], 1.0),
    # entries near the float64 maximum
    ([[1e307, 5.0, 1.0]], [(0, 2)], 1.0),
    ([[1e308, 5.0, 1.0]], [(0, 2)], 1.0),
    ([[1e308], [5.0], [1.0]], [(2, 0)], 1.0),
], ids=["wide_gap", "tall_gap", "wide_1e307", "wide_1e308", "tall_1e308"])
def test_hungarian_known_optimum(cost, assignment, total):
    m = matching.hungarian(np.array(cost))
    assert m.assignment == assignment
    assert m.total_cost == total


def test_hungarian_rejects_non_finite():
    with pytest.raises(ParameterError):
        matching.hungarian(np.array([[1.0, float("nan")], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        matching.hungarian(np.zeros((0, 3)))


def test_hungarian_matches_brute_force_on_seeded_matrices():
    rng = rng_stream(31, "test/hungarian")
    for _ in range(300):
        n, m = rng.integers(1, 8, size=2)
        c = rng.integers(0, 100, size=(int(n), int(m))).astype(np.float64)
        got = matching.hungarian(c)
        assert got.total_cost == brute_force_min_cost(c)
        # injective on both sides, size min(n, m)
        preds = [i for i, _ in got.assignment]
        gts = [j for _, j in got.assignment]
        assert len(set(preds)) == len(preds) == min(n, m)
        assert len(set(gts)) == len(gts)
        assert got.total_cost == pytest.approx(sum(got.pair_costs))


def test_hungarian_float_costs_against_brute_force():
    rng = rng_stream(32, "test/hungarian_float")
    for _ in range(100):
        n, m = rng.integers(2, 7, size=2)
        c = rng.uniform(0.0, 10.0, size=(int(n), int(m)))
        got = matching.hungarian(c).total_cost
        assert got == pytest.approx(brute_force_min_cost(c), rel=1e-9)


def test_hungarian_lexicographic_tie_break_against_enumeration():
    # tiny integer ranges force many cost-equal optima; the returned
    # assignment must be the enumerated lexicographic minimum every time.
    # A seeded share of the draws gets +1e6 on one column or one row, so
    # wide and tall inputs with a large-magnitude block are covered too.
    rng = rng_stream(35, "test/hungarian_lex")
    shift = rng_stream(35, "test/hungarian_lex_shift")
    for _ in range(400):
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        c = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        kind = shift.integers(0, 3)
        if kind == 1:
            c[:, shift.integers(0, m)] += 1e6
        elif kind == 2:
            c[shift.integers(0, n), :] += 1e6
        got = matching.hungarian(c).assignment
        assert got == brute_force_lex_min_assignment(c), c


def test_hungarian_negative_costs():
    rng = rng_stream(36, "test/hungarian_neg")
    for _ in range(100):
        n, m = (int(v) for v in rng.integers(1, 6, size=2))
        c = rng.integers(-50, 50, size=(n, m)).astype(np.float64)
        assert matching.hungarian(c).total_cost == brute_force_min_cost(c)


def _oracle_sweep_matrices():
    """Seeded tall, wide and square cost matrices: uniform floats, tie-heavy
    integers, negative costs, a +1e6 row or column, entries near the float64
    maximum, and 40 x 3 matrices shaped like a decoder's."""
    rng = rng_stream(39, "test/hungarian_oracle")
    for case in range(720):
        n, m = (int(v) for v in rng.integers(1, 9, size=2))
        kind = case % 6
        if kind == 0:
            c = rng.uniform(0.0, 10.0, size=(n, m))
        elif kind == 1:
            c = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        elif kind == 2:
            c = rng.integers(-50, 50, size=(n, m)).astype(np.float64)
        elif kind == 3:
            c = rng.integers(0, 4, size=(n, m)).astype(np.float64)
            if rng.random() < 0.5:
                c[:, rng.integers(0, m)] += 1e6
            else:
                c[rng.integers(0, n), :] += 1e6
        elif kind == 4:
            c = rng.choice([1e308, 5e307, -5e307, 1.0, 2.0], size=(n, m))
        else:
            c = rng.integers(0, 6, size=(40, 3)) + rng.choice([0.0, 0.5], size=(40, 3))
            c[rng.integers(0, 40, size=3), [0, 1, 2]] -= 1.0
        yield c


def test_hungarian_equals_forced_edge_oracle_sweep():
    for c in _oracle_sweep_matrices():
        try:
            want = reference_hungarian(c)
        except ParameterError:
            with pytest.raises(ParameterError):
                matching.hungarian(c)
            continue
        got = matching.hungarian(c)
        assert got.assignment == want.assignment, c
        assert got.unmatched_predictions == want.unmatched_predictions
        assert repr(got.pair_costs) == repr(want.pair_costs)
        assert repr(got.total_cost) == repr(want.total_cost)


def _decode_match_costs(seed):
    """The 40 x 3 matching costs of a 3-block decoder on one 128^2 sample."""
    sample = synthgen.generate(synthgen.SynthSpec(
        seed=seed, height=128, width=128, n_instances=3, shape_kind="ellipse"))
    click = clicksim.first_click(sample.gt_instances[0])
    scales, embed = attention.build_feature_stack(sample.feature_map[..., 3], [click], 16, seed)
    preds = attention.camd_forward(scales, embed, attention.AttentionParams.initialize(40, 16, seed), 3)
    gts = [matching.GroundTruthInstance(attention.resize_nearest(mask, 32, 32), OBJECT)
           for mask in sample.gt_instances]
    return matching._cost_matrix(preds, gts, matching.LossWeights(), adaptive.AflParams())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hungarian_solve_count_on_decode_match_costs(monkeypatch, seed):
    cost = _decode_match_costs(seed)
    assert cost.shape == (40, 3)
    solves = []
    solve = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda sub: solves.append(sub.shape) or solve(sub))
    got = matching.hungarian(cost)
    assert len(solves) <= 2 * cost.shape[1] + 1
    monkeypatch.undo()
    want = reference_hungarian(cost)
    assert got.assignment == want.assignment
    assert repr(got.total_cost) == repr(want.total_cost)


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------

def test_total_loss_perfect_single_pair_is_zero():
    gt = square_mask()
    total, match, breakdown = matching.total_loss(
        [perfect_pred(gt)], [matching.GroundTruthInstance(gt, OBJECT)])
    assert total == 0.0
    assert match.assignment == [(0, 0)]
    assert breakdown["unmatched"] == []


def test_total_loss_unclick_terms():
    gt = square_mask()
    confident = matching.InstancePrediction(gt.astype(float), np.array([0.0, 1.0]))
    total, _, _ = matching.total_loss([confident], [])
    assert total == 0.0

    unsure = matching.InstancePrediction(gt.astype(float), np.array([0.5, 0.5]))
    total, match, breakdown = matching.total_loss([unsure], [])
    # 0.1 * lambda_cli * ln 2 with the default lambda_cli = 2
    assert total == pytest.approx(0.1 * 2.0 * math.log(2.0), abs=1e-9)
    assert match.unmatched_predictions == [0]
    assert breakdown["matched_total"] == 0.0


def test_total_loss_permutation_invariance():
    rng = rng_stream(33, "test/perm")
    gts = []
    preds = []
    for k in range(3):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2 * k:2 * k + 2, 1:7] = 1
        gts.append(matching.GroundTruthInstance(gt, OBJECT))
        noisy = np.clip(gt + rng.normal(0.0, 0.2, size=gt.shape), 0.0, 1.0)
        preds.append(matching.InstancePrediction(noisy, np.array([0.8, 0.2])))

    total_a, match_a, _ = matching.total_loss(preds, gts)
    order = [2, 0, 1]
    total_b, match_b, _ = matching.total_loss(preds, [gts[o] for o in order])
    assert total_b == pytest.approx(total_a, abs=1e-12)
    remapped = sorted((i, order.index(j)) for i, j in match_a.assignment)
    assert sorted(match_b.assignment) == remapped


def test_total_loss_monotone_in_mask_quality():
    rng = rng_stream(34, "test/monotone_match")
    for _ in range(10):
        gt = square_mask()
        gti = [matching.GroundTruthInstance(gt, OBJECT)]
        raw = np.clip(gt + rng.normal(0.0, 0.3, size=gt.shape), 0.0, 1.0)
        pred = matching.InstancePrediction(raw, np.array([0.9, 0.1]))
        base, _, _ = matching.total_loss([pred], gti)
        better = matching.InstancePrediction(
            raw + 0.5 * (gt - raw), np.array([0.9, 0.1]))
        improved, _, _ = matching.total_loss([better], gti)
        assert improved <= base + 1e-12


def test_total_loss_requires_predictions():
    with pytest.raises(ParameterError):
        matching.total_loss([], [])


@pytest.mark.parametrize("build", ["direct", "replace"])
@pytest.mark.parametrize("cls, kwargs", [
    (adaptive.AflParams, {"gamma": 9.0}),
    (matching.LossWeights, {"unclick_weight": float("nan")}),
    (matching.LossWeights, {"lambda_cli": float("inf")}),
    (trainer.TrainConfig, {"steps": 0}),
    (synthgen.SynthSpec, {"nesting": True}),
    (synthgen.SynthSpec, {"height": 32.5}),
    (synthgen.SynthSpec, {"seed": True}),
    (synthgen.SynthSpec, {"n_instances": 2, "nesting": "yes"}),
    (synthgen.SynthSpec, {"boundary_noise": True}),
    (trainer.TrainConfig, {"steps": 2.5}),
    (trainer.TrainConfig, {"instance_index": False}),
    (trainer.TrainConfig, {"loss": "nope"}),
    (trainer.TrainConfig, {"loss_params": {"gamma": 9.0}}),
    (trainer.TrainConfig, {"loss": "bce", "loss_params": {"beta": 0.5}}),
], ids=["afl_gamma_nine", "unclick_nan", "lambda_cli_inf", "train_steps_zero", "synth_nesting_one",
        "synth_height_float", "synth_seed_bool", "synth_nesting_text", "synth_noise_bool",
        "train_steps_float", "train_instance_bool", "train_loss_unknown", "train_gamma_nine",
        "train_param_not_taken"])
def test_invalid_parameter_object_cannot_be_built(cls, kwargs, build):
    # every parameter object checks itself when it is built, so no function
    # that receives one re-checks it
    with pytest.raises(ParameterError):
        cls(**kwargs) if build == "direct" else dataclasses.replace(cls(), **kwargs)


def test_instance_validation():
    with pytest.raises(ParameterError):
        matching.InstancePrediction(np.full((2, 2), 0.5), np.array([0.6, 0.6]))
    with pytest.raises(ParameterError):
        matching.GroundTruthInstance(square_mask(), np.array([0.5, 0.5]))


def stack_inputs(n=5, h=3, w=4):
    rng = rng_stream(21, "test/instance_stack")
    obj = rng.random(n)
    return rng.random((n, h, w)), np.stack([obj, 1.0 - obj], axis=1)


def test_instance_stack_equals_per_object_construction():
    probs, cls = stack_inputs()
    probs[0], probs[1, 0, 0], cls[2] = 0.0, 1.0, [1.0, 0.0]
    for p_in, c_in in [(probs, cls), (probs.tolist(), cls.tolist()),
                       (probs.astype(np.float32), cls), (probs[:1], cls[:1])]:
        got = matching.InstancePrediction.stack(p_in, c_in)
        want = [matching.InstancePrediction(p, c) for p, c in zip(p_in, c_in)]
        assert len(got) == len(want) == len(p_in)
        for a, b in zip(got, want):
            assert type(a) is matching.InstancePrediction
            assert bits(a.mask_probs) == bits(b.mask_probs)
            assert bits(a.click_class_probs) == bits(b.click_class_probs)
            assert a.mask_probs.flags.c_contiguous


def _nan_map(probs, cls):
    probs[3, 1, 2] = np.nan


def _above_one(probs, cls):
    probs[4, 0, 0] = 1.0 + 1e-12


def _below_zero(probs, cls):
    probs[0, 2, 3] = -0.25


def _pair_sum(probs, cls):
    cls[1] = [0.6, 0.6]


def _nan_pair(probs, cls):
    cls[2, 0] = np.nan


@pytest.mark.parametrize("corrupt, exc", [
    (_nan_map, ParameterError), (_above_one, ParameterError), (_below_zero, ParameterError),
    (_pair_sum, ParameterError), (_nan_pair, ParameterError),
    (lambda probs, cls: None, None),
], ids=["nan_map", "above_one", "below_zero", "pair_sum", "nan_pair", "valid"])
def test_instance_stack_rejects_what_the_constructor_rejects(corrupt, exc):
    probs, cls = stack_inputs()
    corrupt(probs, cls)
    errors = set()
    for p, c in zip(probs, cls):
        try:
            matching.InstancePrediction(p, c)
        except (DimensionError, ParameterError) as err:
            errors.add(type(err))
    assert errors == ({exc} if exc else set())
    if exc:
        with pytest.raises(exc):
            matching.InstancePrediction.stack(probs, cls)
    else:
        matching.InstancePrediction.stack(probs, cls)


@pytest.mark.parametrize("probs, cls", [
    (np.full((2, 3, 4), 0.5), np.full((2, 3), 1 / 3)),  # a class triple per map
    (np.full((2, 3, 4), 0.5), np.full(2, 0.5)),          # one class value per map
    (np.full((2, 3, 4), 0.5), np.full((3, 2), 0.5)),     # more pairs than maps
    (np.full((3, 4), 0.5), np.full((3, 2), 0.5)),        # one map, not a stack
    (np.full((2, 1, 3, 4), 0.5), np.full((2, 2), 0.5)),
    (np.empty((0, 3, 4)), np.empty((0, 2))),
], ids=["class_triples", "class_values", "pairs_per_map", "one_map", "four_d", "empty"])
def test_instance_stack_rejects_bad_shapes(probs, cls):
    with pytest.raises(DimensionError):
        matching.InstancePrediction.stack(probs, cls)


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0]], ids=["nan_nan", "nan_one"])
def test_instance_rejects_nan_class_probs(probs):
    # NaN fails every comparison, so a check that rejects "min < 0" lets it through
    with pytest.raises(ParameterError, match="probability pair"):
        matching.InstancePrediction(np.full((2, 2), 0.5), np.array(probs))


@pytest.mark.parametrize("cost", [
    [[1e308, 1e308], [1e308, 1e308]],
    [[1e308] * 3] * 2,
    [[-1e308, -1e308], [-1e308, -1e308]],
], ids=["square_1e308", "wide_1e308", "square_neg_1e308"])
def test_hungarian_rejects_overflowing_optimum(cost):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflows"):
            matching.hungarian(cost)


def test_hungarian_overflowing_candidate_is_not_a_tie():
    # forcing (0, 0) leaves a completion of 1e308, so that candidate sums past
    # the float64 range; it must lose quietly to the optimum 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = matching.hungarian([[1e308, 1.0], [1.0, 1e308]])
    assert m.assignment == [(0, 1), (1, 0)]
    assert m.total_cost == 2.0


# ---------------------------------------------------------------------------
# batched cost matrix against the pair-at-a-time reference
# ---------------------------------------------------------------------------

def _random_instances(rng, n, m, h, w):
    preds = []
    for _ in range(n):
        probs = rng.random((h, w)) ** rng.uniform(0.2, 5.0)
        probs[rng.random((h, w)) < 0.1] = rng.choice([0.0, 1.0])  # pixels on the eps clamp
        cls = rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.random()
        preds.append(matching.InstancePrediction(probs, np.array([cls, 1.0 - cls])))
    gts = []
    for _ in range(m):
        mask = (rng.random((h, w)) < rng.choice([0.0, rng.random(), 1.0])).astype(np.uint8)
        cls = OBJECT if rng.random() < 0.8 else np.array([0.0, 1.0])
        gts.append(matching.GroundTruthInstance(mask, cls))
    return preds, gts


def _random_params(rng, case):
    weights, afl_params = matching.LossWeights(), adaptive.AflParams()
    if case % 3 == 1:
        weights = matching.LossWeights(*(float(v) for v in rng.uniform(0.0, 3.0, size=5)))
    if case % 2 == 1:
        afl_params = adaptive.AflParams(
            gamma=float(rng.uniform(0.0, 5.0)), alpha=float(rng.uniform(0.0, 2.0)),
            delta=float(rng.random()), ada_enabled=bool(rng.random() < 0.5),
            agr_enabled=bool(rng.random() < 0.5))
    return weights, afl_params


def _assert_matches_reference(preds, gts, weights, afl_params, monkeypatch):
    want_cost = reference_cost_matrix(preds, gts, weights, afl_params)
    if gts:
        got_cost = matching._cost_matrix(preds, gts, weights, afl_params)
        assert bits(got_cost) == bits(want_cost)
    for i, pr in enumerate(preds):
        for j, gt in enumerate(gts):
            got_pair = matching.pair_cost(pr, gt, weights, afl_params)
            assert repr(got_pair) == repr(float(want_cost[i, j]))

    got = matching.total_loss(preds, gts, weights, afl_params)
    with monkeypatch.context() as patched:
        patched.setattr(matching, "_cost_matrix", reference_cost_matrix)
        want = matching.total_loss(preds, gts, weights, afl_params)
    assert repr(got) == repr(want)


def test_cost_matrix_and_total_loss_match_reference_sweep(monkeypatch):
    rng = rng_stream(37, "test/cost_matrix")
    # wide, tall and square N x M, plus empty gts
    shapes = [(1, 1), (1, 5), (6, 1), (3, 3), (7, 2), (2, 7), (4, 0), (1, 0)]
    for case in range(64):
        n, m = shapes[case % len(shapes)]
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        preds, gts = _random_instances(rng, n, m, h, w)
        weights, afl_params = _random_params(rng, case)
        _assert_matches_reference(preds, gts, weights, afl_params, monkeypatch)


def _block_count(n, m, h, w):
    return math.ceil(n / max(1, matching.COST_BLOCK_ELEMENTS // (m * h * w)))


@pytest.mark.parametrize("n, m, seed", [(31, 3, 0), (25, 4, 1), (9, 12, 2), (40, 3, 3)])
def test_cost_matrix_matches_reference_across_row_blocks(monkeypatch, n, m, seed):
    rng = rng_stream(seed, "test/cost_matrix_blocks")
    assert _block_count(n, m, 32, 32) >= 3
    preds, gts = _random_instances(rng, n, m, 32, 32)
    for case in range(2):
        _assert_matches_reference(preds, gts, *_random_params(rng, case), monkeypatch)


def _edge_instances(rng, n, empty_gt=False, perfect_row=False):
    """32 x 32 instances: three ground truths (the middle one empty if asked)
    and ``n`` predictions, the first exactly 1.0 on gt 0's foreground if asked."""
    preds, gts = _random_instances(rng, n, 3, 32, 32)
    masks = [np.zeros((32, 32), dtype=np.uint8) for _ in range(3)]
    masks[0][4:20, 6:28] = 1
    masks[2][18:30, 2:12] = 1
    if not empty_gt:
        masks[1][::3, ::2] = 1
    gts = [matching.GroundTruthInstance(mask, OBJECT) for mask in masks]
    if perfect_row:
        probs = preds[0].mask_probs.copy()
        probs[masks[0] == 1] = 1.0
        preds[0] = matching.InstancePrediction(probs, preds[0].click_class_probs)
    return preds, gts


# every case meets an exponent gamma_d or gamma_d + 1 of exactly 0.5, 1.0 or
# 2.0, which numpy computes by sqrt, positive or square for a float exponent
@pytest.mark.parametrize("gamma, ada, agr, empty_gt, perfect_row", [
    (0.5, False, True, False, False),
    (1.0, False, True, False, False),
    (2.0, False, True, False, False),
    (0.5, False, False, False, False),
    (1.0, False, False, False, False),
    (2.0, False, False, False, False),
    (2.0, True, True, True, False),
    (1.0, True, True, True, False),
    (0.5, True, False, True, False),
    (0.0, True, True, True, False),
    (2.0, True, True, False, True),
    (1.0, True, False, False, True),
], ids=["ada_off_0.5", "ada_off_1", "ada_off_2", "ada_agr_off_0.5", "ada_agr_off_1",
        "ada_agr_off_2", "empty_gt_2", "empty_gt_1", "empty_gt_0.5_agr_off", "empty_gt_0",
        "perfect_fg_row_2", "perfect_fg_row_1_agr_off"])
def test_cost_matrix_matches_reference_on_exponent_edges(monkeypatch, gamma, ada, agr,
                                                         empty_gt, perfect_row):
    rng = rng_stream(38, f"test/cost_matrix_edges/{gamma}/{ada}/{agr}/{empty_gt}")
    preds, gts = _edge_instances(rng, 23, empty_gt, perfect_row)
    afl_params = adaptive.AflParams(gamma=gamma, ada_enabled=ada, agr_enabled=agr)
    assert _block_count(23, 3, 32, 32) >= 3
    _assert_matches_reference(preds, gts, matching.LossWeights(), afl_params, monkeypatch)


def test_cost_matrix_rejects_mixed_shapes():
    pred = matching.InstancePrediction(np.full((4, 4), 0.5), OBJECT)
    gts = [matching.GroundTruthInstance(square_mask(4, 4), OBJECT),
           matching.GroundTruthInstance(square_mask(4, 5), OBJECT)]
    with pytest.raises(DimensionError):
        matching.total_loss([pred], gts)
    with pytest.raises(DimensionError):
        matching.pair_cost(pred, gts[1])
