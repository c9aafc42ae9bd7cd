import numpy as np
import pytest

import locclab
from locclab import SpecError, cli, seeding
from locclab.seeding import (keyed_rng, philox_keys, rekey, rng_from,
                             seed_sequence)


def test_streams_named_by_python_ints_and_strings_stay_put():
    draws = rng_from(7, "trial", 3, "success").integers(0, 2**32, 4)
    assert draws.tolist() == [224748185, 151139802, 564961852, 590659543]


@pytest.mark.parametrize("root", [0, np.int64(0), np.uint32(0)])
def test_numpy_integer_label_names_the_python_int_stream(root):
    a = rng_from(root, np.int64(5)).integers(0, 2**32, 2)
    assert a.tolist() == rng_from(0, 5).integers(0, 2**32, 2).tolist()


@pytest.mark.parametrize("root", [-1, 2.5, 2.0, True, "3", None])
def test_root_must_be_an_integer_at_least_zero(root):
    # never truncated: 2.5 is not seed 2
    with pytest.raises(SpecError, match="seed"):
        seed_sequence(root)


ROOTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3]
# label tuples of str, int, negative int, numpy integers and long strings
STREAMS = [(), ("trial", 0, "success"), ("rate", 3200, 499, "rounds"),
           (-1,), ("x", -2**70), (np.int64(-5), np.uint8(200), "y"),
           ("a" * 5000,), ("trial", 1, "detect", "gamma", "strategy"),
           (2**80, "ψ→λ")]


@pytest.mark.parametrize("root", ROOTS)
def test_batch_keys_are_the_seed_sequence_keys(root):
    keys = philox_keys(root, STREAMS)
    assert keys.shape == (len(STREAMS), 2) and keys.dtype == np.uint64
    for key, labels in zip(keys, STREAMS):
        want = seed_sequence(root, *labels).generate_state(2, np.uint64)
        assert key.tolist() == want.tolist(), labels


def test_empty_batch_and_root_rule():
    assert philox_keys(3, []).shape == (0, 2)
    for root in (-1, 2.0, True):
        with pytest.raises(SpecError, match="seed"):
            philox_keys(root, [("x",)])


@pytest.mark.parametrize("draw", [
    lambda g: g.random(5).tolist(),
    lambda g: g.integers(0, 2, size=7).tolist(),
    lambda g: [g.integers(0, 2, size=3).tolist(), g.random(2).tolist()]])
def test_rekeyed_generator_draws_what_rng_from_draws(draw):
    labels = [("trial", t, "rounds") for t in range(3)]
    keys = philox_keys(11, labels)
    rng = keyed_rng(keys[0])
    for key, stream in zip(keys, labels):
        # an odd number of 32-bit draws leaves half of a 64-bit output
        # buffered (has_uint32, uinteger) and a part-used buffer
        # (buffer_pos); re-keying must drop both
        rng.integers(0, 2, size=5)
        rng.random(3)
        rekey(rng, key)
        assert draw(rng) == draw(rng_from(11, *stream)), stream


# the first two uint32 draws at root 7 of a label tuple of each kind the
# package passes, pinned before the label rule and the batch derivation
PINNED = {
    ("trial", 3, "success"): [224748185, 151139802],
    ("trial", 3, "strategy"): [1074746012, 2732653820],
    ("trial", 3, "rounds"): [1284998318, 3378020972],
    ("rate", 3200, 499, "rounds"): [2415055344, 2998131850],
    ("trial", 1, "detect", "gamma", "success"): [1854942023, 380740256],
    ("ensemble", "strategy"): [1550858262, 2319857946],
    ("rate", 20, "success"): [1061183920, 2930068580],
    ("accuracy", "tau", "success"): [3192720565, 2408065716],
    ("teleport", "outcome"): [3090520962, 2259566351],
    ("concentration-distribution", 64, 200000): [4013303906, 2579094489],
    ("concentration-success", 24, 200000): [3149146977, 1445398392],
    ("separable", "A", "B", 4): [1205416840, 3136262630],
}


def test_package_labels_name_their_pinned_streams():
    keys = philox_keys(7, list(PINNED))
    for key, (labels, draws) in zip(keys, PINNED.items()):
        assert rng_from(7, *labels).integers(0, 2**32, 2).tolist() == draws
        assert keyed_rng(key).integers(0, 2**32, 2).tolist() == draws


def test_every_label_the_package_passes_is_a_plain_str_or_int(
        monkeypatch, tmp_path, capsys):
    # such a tuple is its own normal form, so its repr, and its stream,
    # are those it had before the label rule
    seen = []

    def recording(labels, name=seeding._spawn_key):
        seen.append(labels)
        return name(labels)

    monkeypatch.setattr(seeding, "_spawn_key", recording)
    iid = locclab.IIDStrategy(0.6)
    block = locclab.memory_block_strategy(2, locclab.PsiSpec(0.5, 8), 24,
                                          seed=3)
    config = locclab.DetectionConfig(p_tau=0.9, p_locc=0.6, delta=0.1, n=5)
    locclab.simulate_ensemble(block, 30, 2, seed=1)
    locclab.estimate_rate(iid, None, 0.5, 2, (4, 6), 1)
    locclab.detection_accuracy(config, locclab.default_detection_oracle(
        config), 2, 1)
    locclab.run_teleport_discrimination(n=3, seed=1)
    locclab.play_trial(iid, 3, 1, ("trial", 2))
    locclab.concentration_distribution(
        locclab.psi_spectrum(locclab.PsiSpec(0.5, 8)), 64, mode="sample",
        samples=10, seed=2)
    layout = locclab.TensorLayout((("A", 2), ("B", 2)))
    locclab.sample_separable(layout, 3, seed=1)
    for argv in (["simulate", "--protocol", "iid", "--p", "0.6", "--rounds",
                  "4", "--trials", "2"],
                 ["rate", "--protocol", "memory-block", "--lambda", "0.5",
                  "--d2", "8", "--n-block", "24", "--r", "0.5", "--n-list",
                  "24", "--trials", "2"],
                 ["detect", "--n", "5", "--trials", "2"]):
        assert cli.main([*argv, "--seed", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    kinds = {labels[0] for labels in seen}
    assert kinds == {"ensemble", "rate", "accuracy", "teleport", "trial",
                     "concentration-distribution", "concentration-success",
                     "separable"}
    for labels in seen:
        assert {type(lab) for lab in labels} <= {str, int}, labels


@pytest.mark.parametrize("label", [1.0, np.float64(1.0), True, np.bool_(True),
                                   None, b"x", ("a",), 2 + 0j])
def test_label_must_be_a_str_or_an_integer(label):
    # np.float64(1.0) has the repr "1.0" under numpy 1.x but
    # "np.float64(1.0)" under numpy 2, and True is not the label 1
    for call in (lambda: seed_sequence(0, "x", label),
                 lambda: rng_from(0, label),
                 lambda: philox_keys(0, [("ok",), ("x", label)])):
        with pytest.raises(SpecError, match="must be a str or an integer"):
            call()


def test_str_subclass_names_the_str_stream():
    a = rng_from(2, np.str_("trial"), 1).integers(0, 2**32, 2).tolist()
    assert a == rng_from(2, "trial", 1).integers(0, 2**32, 2).tolist()
    (key,) = philox_keys(2, [(np.str_("trial"), 1)])
    assert key.tolist() == philox_keys(2, [("trial", 1)])[0].tolist()
