"""
Training loop in miniature
==========================

Trains a tiny network on tiny phantoms for ten epochs: cosine cyclic
learning rate, Adam on the negative soft Dice, whole-volume validation,
snapshot capture at validation-loss local minima, and weight averaging.
Runs in a few seconds on a laptop CPU; the full desk-scale recipe
lives in configs/phantom.cfg.
"""
from uception import (
    AdamState,
    CyclicSchedule,
    PhantomSpec,
    UceptionCfg,
    build_uception,
    cyclic_lr,
    evaluate_masks,
    generate_phantom,
    snapshot_average,
    train_epoch,
    validate,
)
from uception.training import (SnapshotSet, predict_volume, snapshot_after_epoch,
                                snapshot_fallback)
from uception.volume import volume_to_mask

# six small phantoms: five to train on, one held out
volumes = []
for seed in range(6):
    img, tru = generate_phantom(PhantomSpec(extents=(24, 24, 24), tubes=2,
                                            radius_range=(1.4, 2.2), blobs=1,
                                            seed=seed))
    volumes.append((img.data, volume_to_mask(tru)))
train_set, val_set = volumes[:5], volumes[5:]

model = build_uception(UceptionCfg(base_depth=2, levels=1, dropout_rate=0.1), seed=0)
adam = AdamState()
schedule = CyclicSchedule(lr_max=2e-3, lr_min=1e-4, cycle_epochs=4)
snapshots = SnapshotSet(capacity=3)

for epoch in range(10):
    adam.lr = cyclic_lr(schedule, epoch)
    loss = train_epoch(model, train_set, adam, batch=2, patch=8,
                       seed=[0, epoch], patches_per_epoch=20, min_fg_frac=0.02)
    val_loss = validate(model, val_set, patch=8)
    # captures the previous epoch when its validation loss undercuts both neighbors
    captured = snapshot_after_epoch(snapshots, val_loss, model.parameters())
    print(f"epoch {epoch}: lr={adam.lr:.2e} train={loss:+.3f} val={val_loss:+.3f}"
          + ("  <- snapshot" if captured else ""))

snapshot_fallback(snapshots)
model.set_parameters(snapshot_average(snapshots))
val_loss = validate(model, val_set, patch=8)
# the held-out volume segmented at the `uception segment` threshold, then scored
val_img, val_truth = val_set[0]
report = evaluate_masks(predict_volume(model, val_img, 8) >= 0.9, val_truth)
print(f"\naveraged over {len(snapshots)} snapshot(s): val={val_loss:+.3f}, "
      f"dice@0.9={report.dice:.3f}")
print("ten epochs on 24-cube phantoms is a smoke test; the 40-epoch recipe in"
      "\nconfigs/phantom.cfg reaches test dice >= 0.8 on the default dataset.")
