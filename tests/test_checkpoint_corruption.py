"""Checkpoint corruption matrix: every byte-level failure is typed.

Sweeps :mod:`repro.faults.corrupt` over the byte layout exposed by
:func:`repro.engine.live.checkpoint_manifest` — truncation at every
section boundary, bit-flips in every payload, magic/version/count
mutations, trailing garbage — and asserts the contract from the
robustness spec: a damaged checkpoint raises a
:class:`~repro.errors.CheckpointError` naming what broke, **never** a
raw ``EOFError``/``UnpicklingError`` and never a silently-wrong
engine.  The legacy un-sectioned v1 layout keeps restoring, with the
same typed-error surface.
"""

import pickle
import struct

import pytest

from repro import generators, insertion_stream, patterns
from repro.engine import EstimatorSpec, LiveEngine, checkpoint_manifest
from repro.engine.estimators import fgp_insertion_estimator
from repro.engine.live import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    _encode_sections,
    _FORMAT_FULL,
)
from repro.errors import CheckpointError
from repro.faults import append_garbage, flip_bit, overwrite_bytes, truncate_file

SECTIONS = ("engine", "journal", "estimators")


@pytest.fixture(scope="module")
def pristine():
    """One pristine checkpoint, shared read-only: ``(bytes, manifest,
    expected estimates)``."""
    graph = generators.barabasi_albert(80, 3, rng=21)
    stream = insertion_stream(graph, rng=22)
    engine = LiveEngine(n=stream.n)
    pattern = patterns.triangle()
    for index in range(2):
        engine.register_spec(EstimatorSpec(
            name=f"copy-{index}",
            factory=fgp_insertion_estimator,
            kwargs=dict(pattern=pattern, trials=15, rng=300 + index,
                        name=f"copy-{index}"),
        ))
    u, v, d = stream.columns()
    engine.feed((u, v, d))
    expected = {n: r.estimate for n, r in engine.estimate().items()}
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pristine.ckpt")
        engine.snapshot(path)
        blob = open(path, "rb").read()
        manifest = checkpoint_manifest(path)
    engine.close()
    return blob, manifest, expected


def _damaged(tmp_path, blob, name="damaged.ckpt"):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


class TestTruncationMatrix:
    """Cutting the file at ANY section boundary is a typed error."""

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("where", ["header", "payload_start", "mid", "end-1"])
    def test_truncation_at_every_boundary(self, pristine, tmp_path,
                                          section, where):
        blob, manifest, _ = pristine
        entry = {s["name"]: s for s in manifest["sections"]}[section]
        cut = {
            "header": entry["offset"],
            "payload_start": entry["payload_offset"],
            "mid": entry["payload_offset"] + entry["payload_length"] // 2,
            "end-1": entry["payload_offset"] + entry["payload_length"] - 1,
        }[where]
        path = _damaged(tmp_path, blob)
        truncate_file(path, cut)
        with pytest.raises(CheckpointError) as info:
            LiveEngine.restore(path)
        assert path in str(info.value)

    @pytest.mark.parametrize("cut", [0, 4, len(CHECKPOINT_MAGIC),
                                     len(CHECKPOINT_MAGIC) + 3])
    def test_truncation_inside_the_preamble(self, pristine, tmp_path, cut):
        blob, _, _ = pristine
        path = _damaged(tmp_path, blob)
        truncate_file(path, cut)
        with pytest.raises(CheckpointError):
            LiveEngine.restore(path)


class TestBitFlipMatrix:
    """Any flipped payload bit trips the section's CRC by name."""

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("position", [0.0, 0.5, 1.0])
    def test_payload_flip_names_the_section(self, pristine, tmp_path,
                                            section, position):
        blob, manifest, _ = pristine
        entry = {s["name"]: s for s in manifest["sections"]}[section]
        offset = entry["payload_offset"] + min(
            entry["payload_length"] - 1,
            int(position * (entry["payload_length"] - 1)),
        )
        path = _damaged(tmp_path, blob)
        flip_bit(path, offset, bit=2)
        with pytest.raises(CheckpointError) as info:
            LiveEngine.restore(path)
        message = str(info.value)
        assert section in message
        assert "CRC32" in message

    def test_flip_in_a_section_name(self, pristine, tmp_path):
        blob, manifest, _ = pristine
        entry = manifest["sections"][0]  # "engine"
        path = _damaged(tmp_path, blob)
        flip_bit(path, entry["offset"] + 1, bit=0)  # 'engine' -> 'dngine'
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            LiveEngine.restore(path)

    def test_flip_to_a_non_ascii_name(self, pristine, tmp_path):
        blob, manifest, _ = pristine
        entry = manifest["sections"][0]
        path = _damaged(tmp_path, blob)
        flip_bit(path, entry["offset"] + 1, bit=7)
        with pytest.raises(CheckpointError, match="non-ASCII"):
            LiveEngine.restore(path)


class TestHeaderMutations:
    def test_bad_magic(self, pristine, tmp_path):
        blob, _, _ = pristine
        path = _damaged(tmp_path, blob)
        overwrite_bytes(path, 0, b"X")
        with pytest.raises(CheckpointError, match="bad magic"):
            LiveEngine.restore(path)

    @pytest.mark.parametrize("version", [0, 1, 3, 99])
    def test_unsupported_container_version(self, pristine, tmp_path, version):
        blob, _, _ = pristine
        path = _damaged(tmp_path, blob)
        overwrite_bytes(path, len(CHECKPOINT_MAGIC),
                        struct.pack("<Q", version))
        with pytest.raises(CheckpointError, match="not supported"):
            LiveEngine.restore(path)

    def test_absurd_section_count(self, pristine, tmp_path):
        blob, _, _ = pristine
        path = _damaged(tmp_path, blob)
        overwrite_bytes(path, len(CHECKPOINT_MAGIC) + 8,
                        struct.pack("<Q", 2**60))
        with pytest.raises(CheckpointError, match="section count"):
            LiveEngine.restore(path)

    def test_trailing_garbage(self, pristine, tmp_path):
        blob, _, _ = pristine
        path = _damaged(tmp_path, blob)
        append_garbage(path, 12, seed=5)
        with pytest.raises(CheckpointError, match="trailing bytes"):
            LiveEngine.restore(path)

    def test_oversized_payload_length(self, pristine, tmp_path):
        blob, manifest, _ = pristine
        entry = manifest["sections"][0]
        path = _damaged(tmp_path, blob)
        # The payload-length u64 sits 8+4=12 bytes before the payload.
        overwrite_bytes(path, entry["payload_offset"] - 12,
                        struct.pack("<Q", 2**50))
        with pytest.raises(CheckpointError, match="truncated"):
            LiveEngine.restore(path)


class TestStructuralValidation:
    def test_missing_section_is_incomplete_not_a_crash(self, tmp_path):
        blob = _encode_sections([
            ("engine", {"format": _FORMAT_FULL, "n": 10}),
        ])
        path = _damaged(tmp_path, blob, "partial.ckpt")
        with pytest.raises(CheckpointError, match="structurally incomplete"):
            LiveEngine.restore(path)

    def test_never_a_raw_unpickling_error(self, pristine, tmp_path):
        """Sweep a burst of corruptions; whatever breaks is typed."""
        blob, manifest, _ = pristine
        for seed in range(8):
            import random
            rng = random.Random(seed)
            path = _damaged(tmp_path, blob, f"sweep-{seed}.ckpt")
            offset = rng.randrange(len(blob))
            flip_bit(path, offset, bit=rng.randrange(8))
            try:
                engine = LiveEngine.restore(path)
            except CheckpointError:
                continue  # typed, as required
            # A flip that still parses must still be the right engine
            # (e.g. a flipped bit inside ignored padding cannot exist
            # in this format, but a flip may hit a section name whose
            # absence restore tolerates — never wrong data).
            engine.close()
            pytest.fail(f"bit flip at offset {offset} (seed {seed}) was "
                        "silently accepted")

    def test_manifest_matches_the_parser(self, pristine):
        blob, manifest, _ = pristine
        assert manifest["version"] == CHECKPOINT_VERSION
        assert manifest["size"] == len(blob)
        offsets = [s["offset"] for s in manifest["sections"]]
        assert offsets == sorted(offsets)
        first = manifest["sections"][0]
        assert first["offset"] == len(CHECKPOINT_MAGIC) + 16


class TestLegacyV1:
    """The un-sectioned pickle-after-magic layout keeps restoring."""

    def _v1_blob(self, pristine_blob, path_hint="v1"):
        import io

        from repro.engine.live import _parse_container

        _, sections = _parse_container(pristine_blob, path_hint)
        document = {
            "format": _FORMAT_FULL,
            "version": 1,
            "engine": sections["engine"],
            "journal": sections["journal"],
            "estimators": sections["estimators"],
        }
        return CHECKPOINT_MAGIC + pickle.dumps(document)

    def test_v1_restores_bit_identical(self, pristine, tmp_path):
        blob, _, expected = pristine
        path = _damaged(tmp_path, self._v1_blob(blob), "legacy.ckpt")
        engine = LiveEngine.restore(path)
        assert {n: r.estimate for n, r in engine.estimate().items()} == expected
        engine.close()

    def test_truncated_v1_is_typed(self, pristine, tmp_path):
        blob, _, _ = pristine
        path = _damaged(tmp_path, self._v1_blob(blob), "legacy.ckpt")
        truncate_file(path, -20)
        with pytest.raises(CheckpointError, match="failed to deserialize"):
            LiveEngine.restore(path)

    def test_v1_non_mapping_document(self, tmp_path):
        path = _damaged(tmp_path, CHECKPOINT_MAGIC + pickle.dumps([1, 2]),
                        "legacy.ckpt")
        with pytest.raises(CheckpointError, match="not a mapping"):
            LiveEngine.restore(path)

    def test_v1_wrong_format_marker(self, tmp_path):
        document = {"format": "something-else", "version": 1}
        path = _damaged(tmp_path, CHECKPOINT_MAGIC + pickle.dumps(document),
                        "legacy.ckpt")
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            LiveEngine.restore(path)

    def test_v1_wrong_document_version(self, tmp_path):
        document = {"format": _FORMAT_FULL, "version": 7}
        path = _damaged(tmp_path, CHECKPOINT_MAGIC + pickle.dumps(document),
                        "legacy.ckpt")
        with pytest.raises(CheckpointError, match="not supported"):
            LiveEngine.restore(path)


class _Exploit:
    """Pickles as a call to *function* with *args* — the classic
    ``__reduce__`` code-execution payload."""

    def __init__(self, function, *args):
        self.function = function
        self.args = args

    def __reduce__(self):
        return self.function, self.args


def _payloads(marker):
    """Crafted payloads that would each create *marker* if executed."""
    import builtins
    import os

    import numpy as np

    command = f"touch {marker}"
    source = f"open({str(marker)!r}, 'w').close()"
    return {
        "os.system": _Exploit(os.system, command),
        "builtins.eval": _Exploit(builtins.eval, source),
        "builtins.exec": _Exploit(builtins.exec, source),
        # Allowed numpy reconstructors around a forbidden element.
        "object array": np.array([_Exploit(builtins.eval, source)], dtype=object),
    }


class TestCraftedPayloads:
    """A CRC-valid checkpoint whose payload names a callable is refused
    before the callable runs: restore never executes checkpoint bytes."""

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("kind", ["os.system", "builtins.eval",
                                      "builtins.exec", "object array"])
    def test_sectioned_payload_is_refused(self, tmp_path, section, kind):
        marker = tmp_path / "executed"
        payload = _payloads(marker)[kind]
        sections = {
            "engine": {"format": _FORMAT_FULL, "n": 10},
            "journal": {},
            "estimators": {},
        }
        sections[section] = {"format": _FORMAT_FULL, "payload": payload}
        path = _damaged(tmp_path, _encode_sections(list(sections.items())),
                        "crafted.ckpt")
        with pytest.raises(CheckpointError, match="not allowed") as info:
            LiveEngine.restore(path)
        assert section in str(info.value)
        assert not marker.exists()

    @pytest.mark.parametrize("kind", ["os.system", "builtins.eval",
                                      "builtins.exec", "object array"])
    def test_v1_document_payload_is_refused(self, tmp_path, kind):
        marker = tmp_path / "executed"
        document = {"format": _FORMAT_FULL, "version": 1,
                    "engine": _payloads(marker)[kind]}
        path = _damaged(tmp_path, CHECKPOINT_MAGIC + pickle.dumps(document),
                        "crafted-v1.ckpt")
        with pytest.raises(CheckpointError, match="not allowed"):
            LiveEngine.restore(path)
        assert not marker.exists()

    def test_genuine_checkpoint_still_restores(self, pristine, tmp_path):
        blob, _, expected = pristine
        engine = LiveEngine.restore(_damaged(tmp_path, blob, "genuine.ckpt"))
        assert {n: r.estimate for n, r in engine.estimate().items()} == expected
        engine.close()
