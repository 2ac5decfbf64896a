"""Multimodal column stages: image/audio/video as opaque binary columns.

Real decode WITHOUT external libraries, for the formats this container can
honestly handle:

* image: PPM (P6) — header parse + ``np.frombuffer`` reshape, nearest-
  neighbor resize, 16-dim grid-luminance features.  PNG/JPEG would need
  PIL, which is absent: those payloads raise ``NotImplementedError``
  unless ``fake=True`` (the old hash-feature plumbing mode, kept for
  pipelines that only need schema exercise).
* audio: WAV (PCM16 mono) via the stdlib ``wave`` module — per-window RMS
  energy over real samples.
* video: a simple raw container ("NVID": magic + <HHHH w,h,n_frames,fps>
  + raw RGB frames) — evenly-sampled REAL frame bytes.  mp4/webm need
  ffmpeg (absent): NotImplementedError unless ``fake=True``.

The Ray-side shape is the production one regardless of codec: stateful
actor-pool ``map_batches`` stages (decoder state in ``__init__``), small
batch sizes because a batch holds payload_bytes x batch_size in heap, and
Arrow-native outputs (fixed-size-list feature vectors).  Blocks with wide
binary rows should raise Ray Data's target max block size (``DataContext``)
rather than split absurdly.
"""

from __future__ import annotations

import hashlib
import io
import struct
import wave

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),       # image | audio | video
        ("mime", pa.string()),
        ("payload", pa.binary()),
        ("meta_width", pa.int32()),
        ("meta_height", pa.int32()),
        ("meta_duration_ms", pa.int32()),
    ]
)

_NVID_MAGIC = b"NVID"
_WAV_RATE = 8000


def _ppm_bytes(w: int, h: int, rng: np.random.Generator) -> bytes:
    pixels = rng.integers(0, 256, size=w * h * 3, dtype=np.uint8)
    return f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes()


def _wav_bytes(duration_ms: int, rng: np.random.Generator) -> bytes:
    n = max(1, duration_ms * _WAV_RATE // 1000)
    samples = rng.integers(-20000, 20000, size=n, dtype=np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(_WAV_RATE)
        f.writeframes(samples.tobytes())
    return buf.getvalue()


def _nvid_bytes(w: int, h: int, n_frames: int, fps: int,
                rng: np.random.Generator) -> bytes:
    head = _NVID_MAGIC + struct.pack("<HHHH", w, h, n_frames, fps)
    frames = rng.integers(0, 256, size=n_frames * w * h * 3, dtype=np.uint8)
    return head + frames.tobytes()


def synth_media_table(n: int, kind: str = "image", seed: int = 42) -> pa.Table:
    """Deterministic REAL media rows: P6 images / PCM16 WAV / NVID video,
    with metadata matching the actual payload."""
    ids, kinds, mimes, payloads, ws, hs, durs = [], [], [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        ids.append(i)
        kinds.append(kind)
        if kind == "image":
            w, h = int(rng.integers(16, 49)), int(rng.integers(16, 49))
            payloads.append(_ppm_bytes(w, h, rng))
            mimes.append("image/x-portable-pixmap")
            ws.append(w); hs.append(h); durs.append(0)
        elif kind == "audio":
            dur = int(rng.integers(1000, 4000))
            payloads.append(_wav_bytes(dur, rng))
            mimes.append("audio/wav")
            ws.append(0); hs.append(0); durs.append(dur)
        else:  # video
            w, h = int(rng.integers(16, 33)), int(rng.integers(16, 33))
            fps = 4
            nf = int(rng.integers(6, 13))
            payloads.append(_nvid_bytes(w, h, nf, fps, rng))
            mimes.append("video/x-nadry-raw")
            ws.append(w); hs.append(h)
            durs.append(int(nf * 1000 / fps))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "mime": pa.array(mimes, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta_width": pa.array(ws, pa.int32()),
            "meta_height": pa.array(hs, pa.int32()),
            "meta_duration_ms": pa.array(durs, pa.int32()),
        }
    )


def decode_ppm(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 from a P6 PPM payload."""
    if not payload.startswith(b"P6"):
        raise NotImplementedError(
            "only PPM (P6) images decode without PIL in this container"
        )
    # header: P6 <ws> w <ws> h <ws> maxval <ONE ws byte> data — a plain
    # split() would eat data bytes that happen to look like whitespace,
    # so parse with an anchored regex and slice at its exact end
    import re as _re

    m = _re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", payload)
    if m is None:
        raise NotImplementedError("malformed PPM header")
    w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != 255:
        raise NotImplementedError("16-bit PPM not supported")
    data = payload[m.end():]
    return np.frombuffer(data[: w * h * 3], dtype=np.uint8).reshape(h, w, 3)


def resize_nearest(img: np.ndarray, tw: int, th: int) -> np.ndarray:
    h, w = img.shape[:2]
    yi = (np.arange(th) * h // th).clip(0, h - 1)
    xi = (np.arange(tw) * w // tw).clip(0, w - 1)
    return img[yi][:, xi]


class DecodeImageBatch:
    """Actor-pool stage: decode + resize + feature-extract images.

    Real mode decodes PPM natively (PIL formats raise unless PIL exists);
    ``fake=True`` keeps the deterministic hash-feature plumbing mode."""

    FEATURE_DIM = 16

    def __init__(self, target_size: tuple[int, int] = (64, 64), fake: bool = False):
        self.target_size = target_size
        self.fake = fake
        try:
            from PIL import Image  # noqa: F401

            self._pil = True
        except ImportError:
            self._pil = False

    def _features(self, payload: bytes) -> np.ndarray:
        h = hashlib.sha256(payload).digest()
        return (
            np.frombuffer(h[: self.FEATURE_DIM * 2], dtype=np.uint16).astype(np.float64)
            / 65535.0
        )

    def _real_features(self, payload: bytes) -> tuple[np.ndarray, int, int]:
        if payload.startswith(b"P6"):
            img = decode_ppm(payload)
        elif self._pil:
            # PIL path (PNG/JPEG/...) — unreachable in this container (no
            # Pillow) but the advertised fallback when it exists
            import io as _io

            from PIL import Image

            img = np.asarray(Image.open(_io.BytesIO(payload)).convert("RGB"))
        else:
            raise NotImplementedError(
                "only PPM (P6) images decode without PIL in this container"
            )
        tw, th = self.target_size
        resized = resize_nearest(img, tw, th)
        # float64 throughout so the dumped-pixel SQL oracle's avg() is
        # rounding-stable against these values at 6 decimals
        gray = resized.astype(np.float64).mean(axis=2) / 255.0
        # 16-dim = mean luminance over a 4x4 grid of the resized image
        gh, gw = th // 4, tw // 4
        feats = gray[: gh * 4, : gw * 4].reshape(4, gh, 4, gw).mean(axis=(1, 3))
        return feats.reshape(-1), img.shape[1], img.shape[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, ws, hs = [], [], []
        for p in batch["payload"].to_pylist():
            if self.fake:
                feats.append(self._features(p))
                ws.append(self.target_size[0]); hs.append(self.target_size[1])
            else:
                f, w, h = self._real_features(p)
                feats.append(f); ws.append(w); hs.append(h)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
                "features": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.concatenate(feats), pa.float64()), self.FEATURE_DIM
                ),
            }
        )


class AudioFeaturesBatch:
    """Actor-pool stage: windowed audio feature extraction — per-window RMS
    energy over REAL decoded PCM16 WAV samples (stdlib ``wave``); non-WAV
    payloads raise unless ``fake=True`` (hash-energy plumbing mode)."""

    def __init__(self, window_ms: int = 1000, fake: bool = False):
        self.window_ms = window_ms
        self.fake = fake

    def _decode(self, payload: bytes) -> np.ndarray:
        if payload[:4] != b"RIFF":
            raise NotImplementedError(
                "only PCM WAV decodes without torchaudio/ffmpeg in this container"
            )
        with wave.open(io.BytesIO(payload), "rb") as f:
            raw = f.readframes(f.getnframes())
            rate = f.getframerate()
        return np.frombuffer(raw, dtype=np.int16).astype(np.float64), rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widx, wstart, energy = [], [], [], []
        for mid, payload, dur in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["meta_duration_ms"].to_pylist(),
        ):
            if self.fake:
                n_windows = max(1, int(dur or 1000) // self.window_ms)
                for w in range(n_windows):
                    h = hashlib.sha256(payload + w.to_bytes(4, "little")).digest()
                    ids.append(mid)
                    widx.append(w)
                    wstart.append(w * self.window_ms)
                    energy.append(int.from_bytes(h[:4], "little") / 2**32)
                continue
            samples, rate = self._decode(payload)
            win = max(1, rate * self.window_ms // 1000)
            n_windows = max(1, samples.size // win)
            for w in range(n_windows):
                seg = samples[w * win : (w + 1) * win]
                rms = float(np.sqrt(np.mean(seg * seg))) / 32768.0 if seg.size else 0.0
                ids.append(mid)
                widx.append(w)
                wstart.append(w * self.window_ms)
                energy.append(rms)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "window": pa.array(widx, pa.int32()),
                "window_start_ms": pa.array(wstart, pa.int32()),
                "energy": pa.array(energy, pa.float64()),
            }
        )


class SampleFramesBatch:
    """Actor-pool stage: sample N REAL frames per video from the NVID raw
    container; mp4/webm payloads raise unless ``fake=True``."""

    def __init__(self, n_frames: int = 4, fake: bool = False):
        self.n_frames = n_frames
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_idx, ts, frames = [], [], [], []
        for mid, payload, dur in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["meta_duration_ms"].to_pylist(),
        ):
            if self.fake:
                for f in range(self.n_frames):
                    t_ms = int((f + 0.5) * (dur or 1000) / self.n_frames)
                    ids.append(mid)
                    frame_idx.append(f)
                    ts.append(t_ms)
                    frames.append(
                        hashlib.sha256(payload + f.to_bytes(4, "little")).digest()
                    )
                continue
            if payload[:4] != _NVID_MAGIC:
                raise NotImplementedError(
                    "only the NVID raw container decodes without ffmpeg "
                    "in this container"
                )
            w, h, nf, fps = struct.unpack_from("<HHHH", payload, 4)
            frame_bytes = w * h * 3
            body = payload[12:]
            for f in range(self.n_frames):
                src = min(nf - 1, f * nf // self.n_frames)
                t_ms = int(src * 1000 / fps)
                ids.append(mid)
                frame_idx.append(f)
                ts.append(t_ms)
                frames.append(
                    body[src * frame_bytes : (src + 1) * frame_bytes]
                )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame": pa.array(frame_idx, pa.int32()),
                "ts_ms": pa.array(ts, pa.int32()),
                "frame_bytes": pa.array(frames, pa.binary()),
            }
        )


def decode_images(ds, concurrency: int = 2, batch_size: int = 16, fake: bool = False):
    """The canonical wiring: small batches, actor pool, Arrow in/out."""
    return ds.map_batches(
        DecodeImageBatch,
        fn_constructor_kwargs={"fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def audio_features(ds, window_ms: int = 1000, concurrency: int = 2,
                   batch_size: int = 8, fake: bool = False):
    return ds.map_batches(
        AudioFeaturesBatch,
        fn_constructor_kwargs={"window_ms": window_ms, "fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(ds, n_frames: int = 4, concurrency: int = 2,
                  batch_size: int = 8, fake: bool = False):
    return ds.map_batches(
        SampleFramesBatch,
        fn_constructor_kwargs={"n_frames": n_frames, "fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
