"""Flight-recorder properties over small adversarial instances (hypothesis).

* **cross-engine identity** — on instances built to stress the engines'
  tie-breaks and edge handling (cost ties, ``m = 1``, one-edge clients,
  ``inf`` entries), the loop oracle, the vectorized engine, the columnar
  engine at shards 1 and 2, and the message-passing simulator produce
  digest-identical recordings, for both variants;
* **artifact integrity** — ``to_payload`` → JSON → ``from_payload``
  keeps ``final_digest``, and flipping any bit of any stored array is
  rejected by the Merkle-root check.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.fl.instance import FacilityLocationInstance
from repro.obs.recorder import FlightRecorder, diff_recordings, record_run

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Few distinct values, so equal costs (ties) are the common case.
_COSTS = (0.25, 0.5, 0.5, 1.0, np.inf)


@st.composite
def adversarial_instances(draw):
    """Tiny instances dense in ties, missing edges and single-edge clients."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=7))
    opening = draw(
        st.lists(st.sampled_from((0.5, 1.0, 1.0, 2.0)), min_size=m, max_size=m)
    )
    costs = np.array(
        draw(
            st.lists(
                st.lists(st.sampled_from(_COSTS), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
    # Client 0 keeps exactly one edge; every other client keeps at least one.
    home = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    costs[:, 0] = np.inf
    for j in range(n):
        if j == 0 or not np.isfinite(costs[:, j]).any():
            costs[home[j], j] = 0.5
    return FacilityLocationInstance(opening, costs, name="adversarial")


@_SETTINGS
@given(
    instance=adversarial_instances(),
    variant=st.sampled_from(("greedy", "dual_ascent")),
    rounding=st.sampled_from(("select_all", "randomized")),
    shards=st.sampled_from((1, 2)),
    seed=st.integers(0, 3),
)
def test_engines_record_identically(instance, variant, rounding, shards, seed):
    common = dict(k=3, variant=variant, seed=seed, rounding=rounding)
    oracle = record_run(instance, engine="loop", **common)
    for engine, count in (("vectorized", 1), ("columnar", 1), ("columnar", shards)):
        other = record_run(instance, engine=engine, shards=count, **common)
        report = diff_recordings(oracle, other)
        assert report.identical, report.render()
        assert other.final_digest() == oracle.final_digest()
    simulated = record_run(instance, engine="simulator", **common)
    report = diff_recordings(oracle, simulated)
    assert report.identical, report.render()
    assert report.compared >= 2
    assert all(label.startswith("sim:round:") for label in report.right_only)


def _columns(payload):
    """Every non-empty stored column: (checkpoint, field, column) paths."""
    return [
        (c, name, column)
        for c, checkpoint in enumerate(payload["checkpoints"])
        for name, spec in checkpoint["fields"].items()
        for column, data in spec["columns"].items()
        if data["data"]
    ]


@st.composite
def recordings(draw):
    engine = draw(st.sampled_from(("loop", "columnar", "simulator")))
    variant = draw(st.sampled_from(("greedy", "dual_ascent")))
    return record_run(draw(adversarial_instances()), engine=engine, k=3, variant=variant)


@_SETTINGS
@given(recording=recordings())
def test_payload_roundtrip_keeps_final_digest(recording):
    payload = json.loads(json.dumps(recording.to_payload()))
    loaded = FlightRecorder.from_payload(payload)
    assert loaded.final_digest() == recording.final_digest()
    assert diff_recordings(recording, loaded).identical
    assert [c.leaves(name) for c in loaded.checkpoints for name in c.fields] == [
        c.leaves(name) for c in recording.checkpoints for name in c.fields
    ]


@_SETTINGS
@given(recording=recordings(), data=st.data())
def test_any_flipped_array_byte_is_rejected(recording, data):
    payload = json.loads(json.dumps(recording.to_payload()))
    c, name, column = data.draw(st.sampled_from(_columns(payload)))
    spec = payload["checkpoints"][c]["fields"][name]["columns"][column]
    raw = bytearray(base64.b64decode(spec["data"]))
    position = data.draw(st.integers(0, len(raw) - 1))
    raw[position] ^= 1 << data.draw(st.integers(0, 7))
    spec["data"] = base64.b64encode(bytes(raw)).decode("ascii")
    with pytest.raises(ReproError):
        FlightRecorder.from_payload(payload)
