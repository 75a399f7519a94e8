"""Write a base/delta/full checkpoint triple with the code on PYTHONPATH.

The committed ``*.ckpt`` files were written by this script at commit bfa57bd
(payload version 2); this code writes version 3, so do not run it over them.
See README.md.  Usage: ``make_fixtures.py OUT_DIR``.
"""

import random
import sys
from pathlib import Path

from repro.api import EpochTick, Zero07Service
from repro.loadgen import EvidenceLoadGenerator


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    generator = EvidenceLoadGenerator(fabric="tiny", events_per_epoch=160, seed=14)
    rng = random.Random(14)
    epochs = [generator.epoch_events(epoch, tick=False) for epoch in range(3)]
    for events in epochs:  # a few adjacent swaps: out-of-order delivery
        for _ in range(6):
            i = rng.randrange(len(events) - 1)
            events[i], events[i + 1] = events[i + 1], events[i]

    service = Zero07Service()
    service.ingest_batch(epochs[0][:100])
    service.ingest_batch(epochs[1][:60])
    base = service.checkpoint()
    base.save(out / "base.ckpt")
    service.ingest_batch(epochs[0][100:])
    service.ingest(EpochTick(0))  # epoch 0 finalizes between base and delta
    service.ingest_batch(epochs[1][60:] + epochs[1][50:65])  # + redeliveries
    service.ingest_batch(epochs[2][:80])
    service.checkpoint(base=base).save(out / "delta.ckpt")
    service.checkpoint().save(out / "full.ckpt")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
