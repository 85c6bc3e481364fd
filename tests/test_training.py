"""Training framework tests: gradient check, loss descent, checkpoints."""

import numpy as np
import pytest

from opennre_ray import get_model
from opennre_ray.training import (
    AverageMeter,
    CnnSoftmaxTrainer,
    PcnnSoftmaxTrainer,
    SgdOptimizer,
    class_weights,
    fix_seed,
    load_checkpoint,
    save_checkpoint,
    train_sentence_re,
)

TEXTS = [
    ("the spark table join was fast", 4, 9, 16, 20, "father"),
    ("slow hash stream window merge", 5, 9, 10, 16, "country"),
    ("data batch merge sort key", 0, 4, 11, 16, "NA"),
    ("query group agg row line", 0, 5, 12, 15, "founder_of"),
]


def _enc_batch(model, rows):
    h = np.array([[r[1], r[2]] for r in rows])
    t = np.array([[r[3], r[4]] for r in rows])
    enc = model.encoder.encode_batch([r[0] for r in rows], h, t)
    labels = np.array([model.rel2id[r[5]] for r in rows])
    return enc, labels


def test_average_meter():
    m = AverageMeter()
    m.update(2.0, 2)
    m.update(5.0, 1)
    assert abs(m.avg - 3.0) < 1e-12


def test_class_weights():
    rel2id = {"NA": 0, "a": 1}
    w = class_weights({"NA": 9, "a": 1}, rel2id)
    # reference: weight = 1/(1+count)^0.05
    np.testing.assert_allclose(w, [10 ** -0.05, 2 ** -0.05], rtol=1e-6)


def test_gradient_check():
    """Analytic gradients match central differences on random coordinates."""
    fix_seed(0)
    model = get_model("wiki80_cnn_softmax")
    trainer = CnnSoftmaxTrainer(model, optimizer=SgdOptimizer(lr=0.0))
    enc, labels = _enc_batch(model, TEXTS)

    # capture analytic grads by monkeypatching the optimizer
    captured = {}
    trainer.opt.step = lambda params, grads: captured.update(grads)
    trainer.train_step(enc, labels)

    rng = np.random.default_rng(1)
    checks = [
        ("fc_w", (3, 17)), ("fc_b", (2,)), ("conv_w", (5, 10, 1)),
        ("conv_b", (7,)),
        ("word_emb", (int(enc["token"][0][1]), 3)),
        ("pos1_emb", (int(enc["pos1"][0][2]), 2)),
    ]
    for name, idx in checks:
        num = trainer.grads_numerical(enc, labels, name, idx)
        ana = captured[name][idx]
        assert abs(num - ana) < 5e-3 * max(1.0, abs(num)), (name, num, ana)


def test_training_reduces_loss_and_memorizes():
    fix_seed(0)
    model = get_model("wiki80_cnn_softmax")
    trainer = CnnSoftmaxTrainer(model, optimizer=SgdOptimizer(lr=0.3,
                                                              weight_decay=0))
    enc, labels = _enc_batch(model, TEXTS)
    losses = [trainer.train_step(enc, labels)[0] for _ in range(40)]
    assert losses[-1] < losses[0] * 0.2
    # trained model now predicts the memorized labels through the EVAL path
    rep = model.encoder(enc)
    pred, _ = model.head.infer_batch(rep)
    assert (pred == labels).mean() == 1.0


def test_checkpoint_roundtrip(tmp_path):
    model = get_model("wiki80_cnn_softmax")
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, {"enc": model.encoder.w, "fc_w": model.head.fc_w})
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded["fc_w"], model.head.fc_w)
    np.testing.assert_array_equal(loaded["enc"]["conv_w"],
                                  model.encoder.w["conv_w"])


def test_bert_checkpoint_list_layers_roundtrip(tmp_path):
    model = get_model("wiki80_bert_softmax")
    path = str(tmp_path / "bert.npz")
    save_checkpoint(path, {"enc": model.encoder.w})
    loaded = load_checkpoint(path)
    assert isinstance(loaded["enc"]["layers"], list)
    np.testing.assert_array_equal(loaded["enc"]["layers"][1]["q_w"],
                                  model.encoder.w["layers"][1]["q_w"])


def test_train_sentence_re_over_ray_dataset(ray_session, tmp_path):
    import ray.data as rd

    rows = [{"text": r[0], "h_start": r[1], "h_end": r[2], "t_start": r[3],
             "t_end": r[4], "relation": r[5]} for r in TEXTS * 8]
    ds = rd.from_items(rows)
    model = get_model("wiki80_cnn_softmax")
    ckpt = str(tmp_path / "best.npz")
    hist = train_sentence_re(model, ds, epochs=2, batch_size=8, lr=0.2,
                             val_ds=ds, ckpt_path=ckpt)
    assert len(hist) == 2
    assert hist[1]["loss"] < hist[0]["loss"]
    assert "val" in hist[1] and 0 <= hist[1]["val"]["acc"] <= 1
    loaded = load_checkpoint(ckpt)
    assert "fc_w" in loaded and "enc" in loaded


def test_train_sentence_re_dispatches_pcnn(ray_session):
    """PCNN sentence training must not shape-mismatch (regression)."""
    import ray.data as rd

    rows = [{"text": r[0], "h_start": r[1], "h_end": r[2], "t_start": r[3],
             "t_end": r[4], "relation": r[5]} for r in TEXTS * 4]
    model = get_model("wiki80_pcnn_softmax")
    hist = train_sentence_re(model, rd.from_items(rows), epochs=2,
                             batch_size=8, lr=0.2)
    assert len(hist) == 2 and hist[1]["loss"] < hist[0]["loss"]


def test_checkpoint_restore_refreshes_conv_cache(tmp_path):
    """Restoring weights into a FRESH model must reproduce the saved
    model's predictions exactly — assigning `.w` without re-deriving the
    GEMM-concatenated conv kernel (_wcat) silently kept the old conv."""
    fix_seed(7)
    model = get_model("wiki80_cnn_softmax")
    trainer = CnnSoftmaxTrainer(model, optimizer=SgdOptimizer(0.5))
    enc, labels = _enc_batch(model, TEXTS)
    for _ in range(5):
        trainer.train_step(enc, labels)

    rep = model.encoder(enc)
    want_pred, want_score = model.head.infer_batch(rep)

    ck = str(tmp_path / "ck_wcat_test")
    save_checkpoint(ck, {"enc": model.encoder.w,
                         "fc_w": model.head.fc_w,
                         "fc_b": model.head.fc_b})
    fresh = get_model("wiki80_cnn_softmax")
    w = load_checkpoint(ck)
    fresh.encoder.load_weights(w["enc"])
    fresh.head.fc_w = np.asarray(w["fc_w"], dtype=np.float32)
    fresh.head.fc_b = np.asarray(w["fc_b"], dtype=np.float32)

    rep2 = fresh.encoder(enc)
    got_pred, got_score = fresh.head.infer_batch(rep2)
    assert (got_pred == want_pred).all()
    np.testing.assert_allclose(got_score, want_score, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["wiki80_cnn_softmax", "wiki80_pcnn_softmax"])
def test_trained_encoder_equals_fresh_load(name):
    """After training steps the eval encoder is exactly a fresh model
    loaded with the trainer's weights: the trainer's per-step sync goes
    through the same ``load_weights`` as checkpoint restore."""
    fix_seed(3)
    model = get_model(name)
    trainer_cls = (PcnnSoftmaxTrainer if model.encoder.with_mask
                   else CnnSoftmaxTrainer)
    trainer = trainer_cls(model, optimizer=SgdOptimizer(0.5))
    enc, labels = _enc_batch(model, TEXTS)
    model.encoder(enc)                      # scratch sized before training
    for _ in range(3):
        trainer.train_step(enc, labels)
    enc_keys = ("word_emb", "pos1_emb", "pos2_emb", "conv_w", "conv_b")
    fresh = get_model(name).encoder.load_weights(
        {k: trainer.params[k].copy() for k in enc_keys})
    assert np.array_equal(model.encoder(enc), fresh(enc))


def test_linear_warmup_schedule_matches_reference():
    """multiplier(step) hand-computed for warmup_step in {0, 300} —
    the reference's get_linear_schedule_with_warmup semantics
    (framework/sentence_re.py:84-88)."""
    from opennre_ray.training import LinearWarmupSchedule

    s = LinearWarmupSchedule(300, 1000)
    # warmup leg: step / 300
    assert s.multiplier(0) == 0.0
    assert s.multiplier(150) == 150 / 300
    assert s.multiplier(299) == 299 / 300
    # decay leg: (1000 - step) / (1000 - 300)
    assert s.multiplier(300) == 700 / 700
    assert s.multiplier(650) == 350 / 700
    assert s.multiplier(1000) == 0.0
    assert s.multiplier(2000) == 0.0          # clamped at zero

    # warmup_step=0: reference sets scheduler=None -> constant lr; the
    # schedule object itself becomes pure linear decay
    z = LinearWarmupSchedule(0, 10)
    assert z.multiplier(0) == 1.0
    assert z.multiplier(5) == 0.5
    assert z.multiplier(10) == 0.0


def test_adamw_no_decay_groups():
    """Parameters matching the no-decay name list (bias vectors) must
    see NO weight decay; others decay by lr*wd*p (decoupled, i.e. not
    through the moment estimates) — framework/sentence_re.py:62-80."""
    from opennre_ray.training import AdamWOptimizer

    params = {"fc_w": np.ones(4, np.float64),
              "fc_b": np.ones(4, np.float64)}
    grads = {"fc_w": np.zeros(4), "fc_b": np.zeros(4)}
    opt = AdamWOptimizer(lr=0.1, weight_decay=0.01)
    opt.step(params, grads)
    # zero grads: moments stay zero, so the only movement is decay
    np.testing.assert_allclose(params["fc_w"], 1 - 0.1 * 0.01)
    np.testing.assert_allclose(params["fc_b"], 1.0)


def test_train_sentence_re_warmup_lr_trace(ray_session):
    """End-to-end: the optimizer's per-step lr trace equals
    base_lr * multiplier(step) for the computed training_steps."""
    import ray.data as rd

    from opennre_ray.training import LinearWarmupSchedule

    from opennre_ray.training import AdamWOptimizer

    rows = [{"text": r[0], "h_start": r[1], "h_end": r[2], "t_start": r[3],
             "t_end": r[4], "relation": r[5]} for r in TEXTS * 8]
    ds = rd.from_items(rows)
    model = get_model("wiki80_cnn_softmax")
    n = len(rows)
    epochs, bs, warmup = 2, 8, 3
    steps_total = (n // bs) * epochs
    sched = LinearWarmupSchedule(warmup, steps_total)
    opt = AdamWOptimizer(lr=0.2, schedule=sched)
    hist = train_sentence_re(model, ds, epochs=epochs, batch_size=bs,
                             optimizer=opt)
    assert len(hist) == epochs
    want = [0.2 * sched.multiplier(i) for i in range(len(opt.lr_trace))]
    assert len(opt.lr_trace) == steps_total
    np.testing.assert_allclose(opt.lr_trace, want, rtol=0, atol=0)
    assert opt.lr_trace[0] == 0.0 and opt.lr_trace[warmup] > 0
