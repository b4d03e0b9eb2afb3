"""The block payload codec checkpoints store blocks in: raw bytes plus a CRC32."""

import numpy as np
import pytest

from repro.core.snapshot import decode_block, encode_block


class TestCodec:
    """The per-block payload codec: raw complex128 bytes plus a CRC32."""

    def test_roundtrip(self):
        arr = np.arange(8, dtype=np.complex128) * (1 + 2j)
        raw, crc = encode_block(arr)
        np.testing.assert_array_equal(decode_block(raw, crc, 8), arr)

    def test_decoded_view_is_read_only(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        assert not decode_block(raw, crc, 4).flags.writeable

    def test_crc_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(ValueError, match="CRC"):
            decode_block(raw, crc ^ 1, 4)

    def test_corrupt_payload_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        bad = bytes([raw[0] ^ 0xFF]) + raw[1:]
        with pytest.raises(ValueError, match="CRC"):
            decode_block(bad, crc, 4)

    def test_length_mismatch_raises(self):
        raw, crc = encode_block(np.ones(4, dtype=np.complex128))
        with pytest.raises(ValueError, match="amplitudes"):
            decode_block(raw, crc, 8)
