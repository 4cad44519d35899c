"""The three desk workloads: set-up, one timed operation, and the output
checks that run outside the timed window.

Hyper-parameters mirror configs/phantom.cfg (D=4, L=2, dropout 0.18,
batch 2, 16-cube patches, min_fg_frac 0.02, f32) but are pinned here, so
that editing the config does not change the benchmark.

Every input comes from the workload seed: phantom i of split s (0 train,
2 test) is generated from SeedSequence([seed, s, i]), as
write_phantom_dataset does; replica r > 0 is initialised from
[seed, 3, r]; and training step i draws its patches and dropout masks
from [seed, 0, i].
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from uception import metrics, models, phantom, preprocess, training, volume
from uception.optim import AdamState

DESK = training.TrainConfig(depth=4, levels=2, dropout=0.18, lr_max=0.0025, batch=2,
                            patch=16, smooth=1.0, min_fg_frac=0.02, mode="f32")
N_TRAIN = 6
# Step time depends on the model's numerical state: subnormal gradient values
# slow conv3d_backward (0.094 s against 0.137 s per U-net step on two seeds),
# and how many appear depends on the initial weights. Training several
# models round-robin makes a run measure the typical step rather than one
# initialisation's.
REPLICAS = 8
N_TEST = 3
# non-unit spacing: resampling does real work and the 1 mm grid
# (43, 41, 46) is not a multiple of the 16-cube patch
TEST_SPACING = (0.9, 0.85, 0.95)
THRESHOLD = 0.9           # `uception segment` default
BASELINE_FRACTION = 0.70  # `uception evaluate` default
# f32 against an f64 replay of the same computation: relative L2 error of
# the whole gradient vector, and max abs error of any probability. The
# gradient error is usually 2e-7 to 7e-7, but in 3 of 40 seeds an f32
# near-tie in a max-pool or at a ReLU routed one voxel differently and the
# error reached 0.8e-4 to 2.5e-4; a wrong gradient is off by far more.
GRAD_RTOL = 1e-2
PROB_ATOL = 1e-5


def _sub_seed(seed, stream, i):
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


def _phantom(seed, split, i, **overrides):
    spec = replace(phantom.PhantomSpec(), seed=_sub_seed(seed, split, i), **overrides)
    return phantom.generate_phantom(spec)


def _as_f64(model):
    return models.load_checkpoint(models.save_checkpoint(model), dtype=np.float64)


class TrainWorkload:
    """One operation is one train_epoch call of a single batch, on the next
    of REPLICAS independently initialised models in turn."""

    def __init__(self, kind, seed):
        self.cfg = replace(DESK, model=kind, seed=seed)
        self.voxels_per_op = self.cfg.batch * self.cfg.patch ** 3
        self.losses = {}

    def setup(self):
        self.data = [training.preprocess_pair(*_phantom(self.cfg.seed, 0, i))[:2]
                     for i in range(N_TRAIN)]
        first = training.build_model_from_config(self.cfg)
        blob = models.save_checkpoint(first)
        self.models = [first] + [models.load_checkpoint(blob).init_params(_sub_seed(
            self.cfg.seed, 3, r)) for r in range(1, REPLICAS)]
        self.adams = [AdamState(lr=self.cfg.lr_max) for _ in self.models]
        self._step(self.models[0], self.adams[0], [self.cfg.seed, 1])  # warm-up
        self.start = {k: v.copy() for k, v in self.models[0].parameters().items()}

    def _step(self, model, adam, seed):
        c = self.cfg
        return training.train_epoch(model, self.data, adam, batch=c.batch,
                                    patch=c.patch, seed=seed, smooth=c.smooth,
                                    min_fg_frac=c.min_fg_frac, patches_per_epoch=c.batch)

    def op(self, i):
        r = i % REPLICAS
        return self._step(self.models[r], self.adams[r], [self.cfg.seed, 0, i])

    def check_op(self, i, loss):
        self.losses[i] = loss
        if not (np.isfinite(loss) and -1.0 <= loss <= 0.0):
            return [f"step {i}: loss {loss} is not finite in [-1, 0]"]
        return []

    def _replay_first_step(self, model):
        """Loss and gradients of step 0 from the weights it started with."""
        grads = {}

        def record(params, g, state):
            grads.update({k: np.asarray(v, dtype=np.float64) for k, v in g.items()})
            return params, state

        model.set_parameters(self.start)
        saved = training.adam_step
        training.adam_step = record
        try:
            loss = self._step(model, AdamState(), [self.cfg.seed, 0, 0])
        finally:
            training.adam_step = saved
        return loss, grads

    def final_checks(self):
        loss32, g32 = self._replay_first_step(self.models[0])
        if loss32 != self.losses.get(0):
            return [f"f32 replay of step 0 gave loss {loss32}, timed step gave "
                    f"{self.losses.get(0)}"]
        _, g64 = self._replay_first_step(_as_f64(self.models[0]))
        diff = np.sqrt(sum(np.sum((g32[k] - g64[k]) ** 2) for k in g64))
        norm = np.sqrt(sum(np.sum(g ** 2) for g in g64.values()))
        if set(g32) != set(g64) or not diff <= GRAD_RTOL * norm:
            return [f"step 0 gradients: f32 vs f64 relative error {diff / norm:.3g} "
                    f"exceeds {GRAD_RTOL}"]
        return []


def segment_and_evaluate(model, image_blob, truth_blob, patch):
    """`uception segment` then `uception evaluate --image`, on in-memory
    MetaImage bytes. Returns the 1 mm input, its probability volume, the
    written mask and the model and baseline reports."""
    vol, _ = volume.read_metaimage(image_blob)
    iso = preprocess.clip_normalize(preprocess.resample_trilinear(vol, (1.0, 1.0, 1.0)))
    prob = training.predict_volume(model, iso.data, patch)
    mask_iso = (prob >= THRESHOLD).astype(np.float32)
    idz, idy, idx = preprocess.resample_nearest_indices(vol.extents, vol.spacing,
                                                        mask_iso.shape, (1.0, 1.0, 1.0))
    mask_blob = volume.write_metaimage(
        volume.Volume(mask_iso[np.ix_(idz, idy, idx)], vol.spacing), "MET_UCHAR")

    mask_vol, _ = volume.read_metaimage(mask_blob)
    truth_vol, _ = volume.read_metaimage(truth_blob)
    truth = volume.volume_to_mask(truth_vol)
    report = metrics.evaluate_masks(volume.volume_to_mask(mask_vol), truth, truth_vol.spacing)
    raw, _ = volume.read_metaimage(image_blob)
    base_mask = preprocess.threshold_baseline(preprocess.clip_normalize(raw),
                                              BASELINE_FRACTION)
    base_report = metrics.evaluate_masks(base_mask, truth, truth_vol.spacing)
    return iso.data, prob, mask_vol, report, base_report


class SegmentWorkload:
    """One operation is segment + evaluate of one held-out volume, cycling
    through N_TEST volumes."""

    def __init__(self, seed):
        self.cfg = replace(DESK, seed=seed)
        self.probs = {}

    def setup(self):
        self.volumes = []
        for i in range(N_TEST):
            image, truth = _phantom(self.cfg.seed, 2, i, spacing=TEST_SPACING)
            self.volumes.append((volume.write_metaimage(image),
                                 volume.write_metaimage(truth, "MET_UCHAR"), image.extents))
        self.voxels_per_op = int(np.prod(self.volumes[0][2]))
        blob = models.save_checkpoint(training.build_model_from_config(self.cfg))
        self.model = models.load_checkpoint(blob)
        self.models = [self.model]
        training.predict_volume(self.model, np.zeros((self.cfg.patch,) * 3, np.float32),
                                self.cfg.patch)  # warm-up

    def op(self, i):
        image_blob, truth_blob, _ = self.volumes[i % N_TEST]
        return segment_and_evaluate(self.model, image_blob, truth_blob, self.cfg.patch)

    def check_op(self, i, out):
        iso, prob, mask_vol, report, base_report = out
        problems = []
        if prob.shape != iso.shape:
            problems.append(f"probability shape {prob.shape} != input shape {iso.shape}")
        elif not (np.isfinite(prob).all() and prob.min() >= 0.0 and prob.max() <= 1.0):
            problems.append("probabilities are not finite in [0, 1]")
        if mask_vol.extents != self.volumes[i % N_TEST][2]:
            problems.append(f"mask extents {mask_vol.extents} != image extents")
        if not (0.0 <= report.dice <= 1.0 and 0.0 <= base_report.dice <= 1.0):
            problems.append("Dice outside [0, 1]")
        if not np.isfinite(base_report.avg_hausdorff_mm):
            problems.append("baseline mask is empty: distance transform did not run")
        # same input, same weights: every repeat must match the first bit for bit;
        # the first is compared with f64 in final_checks
        first = self.probs.setdefault(i % N_TEST, (iso, prob))
        if not np.array_equal(first[1], prob):
            problems.append(f"volume {i % N_TEST}: probabilities changed between repeats")
        return [f"volume {i}: {p}" for p in problems]

    def final_checks(self):
        model64 = _as_f64(self.model)
        problems = []
        for j, (iso, prob) in sorted(self.probs.items()):
            err = np.abs(training.predict_volume(model64, iso, self.cfg.patch) - prob).max()
            if not err <= PROB_ATOL:
                problems.append(f"volume {j}: f32 vs f64 max abs error {err:.3g} "
                                f"exceeds {PROB_ATOL}")
        return problems


WORKLOADS = {
    "train_uception": lambda seed: TrainWorkload("uception", seed),
    "segment_uception": SegmentWorkload,
    "train_unet3d": lambda seed: TrainWorkload("unet3d", seed),
}
