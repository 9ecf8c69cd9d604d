"""Synthetic data generation, LFBE feature extraction, and dataset I/O.

Generation works directly in feature space at desk scale: each
utterance is a (d, T) matrix of a stationary Gaussian background around
a random band-limited mean pattern (a stand-in for an acoustic scene),
and positives additionally carry a deterministic spectro-temporal ridge
whose gain is set by an event-to-background ratio in dB.

Per-utterance randomness comes from index-addressed substreams:
utterance i uses numpy's SeedSequence(seed, spawn_key=(i,)), so
generation order never changes the result.

The waveform path (read_wav -> lfbe) covers real feature extraction:
Hann window, magnitude-squared rFFT, triangular mel filterbank, natural
log with a 1e-10 floor.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from typing import BinaryIO, Optional

import numpy as np

from .errors import InputError, ParseError, open_input, write_atomic
from .numerics import as_f64

LOG_FLOOR = 1e-10

DATASET_MAGIC = b"RSED"
DATASET_VERSION = 1


@dataclass
class Utterance:
    """One fixed-length clip in feature space.

    features is (d, T). A positive (y = 1) holds one event on the 1-based
    inclusive frames onset..offset, 1 <= onset <= offset <= T; a negative
    (y = 0) holds none, and its onset and offset are None.
    """

    id: str
    features: np.ndarray
    y: int
    onset: Optional[int] = None
    offset: Optional[int] = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        # Ids are the first field of an annotation line: a tab or a line
        # break (anything str.splitlines breaks at) would split the line.
        if "\t" in self.id or self.id.splitlines() not in ([], [self.id]):
            raise ValueError(f"id {self.id!r} holds a tab or a line break")
        self.features = as_f64(self.features)
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(f"features must be a nonempty (d, T) matrix, "
                             f"got shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")
        bounds = (self.onset, self.offset)
        if self.y not in (0, 1):
            raise ValueError(f"bad label byte {self.y}: a label is 0 or 1")
        if self.y == 0 and bounds != (None, None):
            raise ValueError(f"negative record with event boundaries "
                             f"{self.onset}..{self.offset}")
        if self.y == 1 and (None in bounds
                            or not 1 <= self.onset <= self.offset <= self.n_frames):
            raise ValueError(f"bad event boundaries {self.onset}..{self.offset} "
                             f"for T={self.n_frames}")

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_frames(self) -> int:
        return self.features.shape[1]

    @classmethod
    def negative(cls, id: str, features: np.ndarray, meta: Optional[dict] = None) -> "Utterance":
        return cls(id=id, features=features, y=0, meta=meta or {})

    @classmethod
    def positive(cls, id: str, features: np.ndarray, onset: int, offset: int,
                 meta: Optional[dict] = None) -> "Utterance":
        return cls(id=id, features=features, y=1, onset=onset, offset=offset,
                   meta=meta or {})


# ---------------------------------------------------------------------------
# Synthetic feature-space generation
# ---------------------------------------------------------------------------

N_SCENES = 15
EBR_LIMIT_DB = 300.0
_BACKGROUND_NOISE_SIGMA = 1.0


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the feature-space synthesizer."""

    count: int
    positive_fraction: float
    frames: int
    dim: int
    ebr_db: tuple[float, ...] = (-6.0, 0.0, 6.0)
    duration_frames: tuple[int, int] = (20, 40)
    background_seed: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise InputError("utterance count must be nonnegative")
        for name in ("seed", "background_seed"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise InputError("positive fraction must lie in [0, 1]")
        if self.frames < 1 or self.dim < 1:
            raise InputError("frames and dim must be positive")
        if self.frames * self.dim >= 2**32:
            raise InputError(f"a clip of {self.frames} frames of {self.dim} "
                             f"values is too large (2**32 values or more)")
        if not self.ebr_db:
            raise InputError("need at least one EBR choice")
        # An event 300 dB above its background is 10**15 times louder: the
        # background is lost in the float64 features beyond that.
        if not all(-EBR_LIMIT_DB <= ebr <= EBR_LIMIT_DB for ebr in self.ebr_db):
            raise InputError(f"each EBR must lie within +-{EBR_LIMIT_DB:g} dB, "
                             f"got {list(self.ebr_db)!r}")
        lo, hi = self.duration_frames
        if not 1 <= lo <= hi <= self.frames:
            raise InputError(
                f"duration range {lo}..{hi} does not fit inside {self.frames} frames"
            )


def _scene_bank(config: SynthConfig) -> np.ndarray:
    """Smooth spectral envelopes shared across the dataset (scene proxies)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.background_seed))
    bins = (np.arange(config.dim) + 0.5) / config.dim
    bank = np.zeros((N_SCENES, config.dim))
    for s in range(N_SCENES):
        coef = rng.standard_normal(4)
        for k, c in enumerate(coef):
            bank[s] += c / (k + 1.0) * np.cos(np.pi * k * bins)
    return bank


def _event_template(dim: int, duration: int) -> np.ndarray:
    """Deterministic spectro-temporal ridge with unit peak amplitude.

    A Gaussian bump in the feature axis sweeps from 0.3d to 0.7d over
    the event, shaped by a Hann envelope in time.
    """
    rows = np.arange(dim)[:, None]
    tau = np.arange(duration)[None, :]
    frac = tau / max(duration - 1, 1)
    center = dim * (0.3 + 0.4 * frac)
    width = max(dim / 10.0, 1.0)
    ridge = np.exp(-0.5 * ((rows - center) / width) ** 2)
    envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * (tau + 0.5) / duration)
    return ridge * envelope


def _utterance_rng(seed: int, index: int) -> np.random.Generator:
    # Index-addressed substream: the documented splitting rule.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _synth_utterance(config: SynthConfig, bank: np.ndarray, index: int,
                     uid: str) -> Utterance:
    """Utterance ``index`` of the configured dataset, given the config's
    scene bank. Same (config, index) always yields the same record,
    independent of the order utterances are generated in."""
    rng = _utterance_rng(config.seed, index)

    scene = int(rng.integers(N_SCENES))
    jitter = rng.standard_normal(3)
    bins = (np.arange(config.dim) + 0.5) / config.dim
    mean = bank[scene].copy()
    for k, c in enumerate(jitter):
        mean += 0.3 * c / (k + 1.0) * np.cos(np.pi * (k + 1) * bins)

    background = mean[:, None] + _BACKGROUND_NOISE_SIGMA * rng.standard_normal(
        (config.dim, config.frames))
    is_positive = rng.uniform() < config.positive_fraction
    if not is_positive:
        return Utterance.negative(uid, background, meta={"scene": scene})

    lo, hi = config.duration_frames
    duration = int(rng.integers(lo, hi + 1))
    onset = int(rng.integers(1, config.frames - duration + 2))
    offset = onset + duration - 1
    ebr_db = float(config.ebr_db[rng.integers(len(config.ebr_db))])
    gain = float(np.sqrt(np.mean(background ** 2)) * 10.0 ** (ebr_db / 20.0))

    features = background
    features[:, onset - 1:offset] += gain * _event_template(config.dim, duration)
    return Utterance.positive(uid, features, onset, offset,
                              meta={"scene": scene, "ebr_db": ebr_db,
                                    "duration": duration})


class SynthDataset(Sequence):
    """``config.count`` utterances at indices start_index onwards, each
    generated when it is indexed: none is held, and every access gives
    the same bits. Slices give lists."""

    def __init__(self, config: SynthConfig, id_prefix: str, start_index: int) -> None:
        self.config = config
        self.id_prefix = id_prefix
        self.indices = range(start_index, start_index + config.count)
        self._bank = _scene_bank(config)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        index = self.indices[i]
        if isinstance(index, range):
            return [self[j - self.indices.start] for j in index]
        return _synth_utterance(self.config, self._bank, index,
                                f"{self.id_prefix}-{index:05d}")


def synth_dataset(config: SynthConfig, id_prefix: str = "utt",
                  start_index: int = 0) -> SynthDataset:
    """The ``config.count`` utterances at indices start_index onwards."""
    return SynthDataset(config, id_prefix, start_index)


# ---------------------------------------------------------------------------
# LFBE feature extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LfbeConfig:
    """Framing and filterbank geometry for log filter bank energies."""

    sample_rate: int = 44100
    frame_ms: float = 46.0
    shift_ms: float = 23.0
    n_filters: int = 64
    fft_size: Optional[int] = None  # default: next power of two >= frame length
    fmin_hz: float = 0.0
    fmax_hz: Optional[float] = None  # default: Nyquist

    def __post_init__(self) -> None:
        if self.shift_ms > self.frame_ms:
            raise InputError("frame shift must not exceed frame duration")
        if self.n_filters < 1:
            raise InputError("need at least one mel filter")
        if self.fft_size is not None and self.fft_size < self.frame_length:
            raise InputError("FFT size must cover a whole frame")

    @property
    def frame_length(self) -> int:
        return int(round(self.frame_ms * self.sample_rate / 1000.0))

    @property
    def shift_length(self) -> int:
        return int(round(self.shift_ms * self.sample_rate / 1000.0))

    @property
    def nfft(self) -> int:
        if self.fft_size is not None:
            return self.fft_size
        n = 1
        while n < self.frame_length:
            n *= 2
        return n

    @property
    def fmax(self) -> float:
        return self.fmax_hz if self.fmax_hz is not None else self.sample_rate / 2.0


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: LfbeConfig) -> np.ndarray:
    """Triangular filters, peaks equally spaced on the mel scale.

    Returns (n_filters, nfft//2 + 1) nonnegative weights; raises when the
    FFT resolution leaves some filter without any bin.
    """
    n_bins = config.nfft // 2 + 1
    bin_hz = np.arange(n_bins) * (config.sample_rate / config.nfft)
    mel_points = np.linspace(hz_to_mel(config.fmin_hz), hz_to_mel(config.fmax),
                             config.n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bank = np.zeros((config.n_filters, n_bins))
    for j in range(config.n_filters):
        left, peak, right = hz_points[j], hz_points[j + 1], hz_points[j + 2]
        rising = (bin_hz - left) / max(peak - left, 1e-30)
        falling = (right - bin_hz) / max(right - peak, 1e-30)
        bank[j] = np.clip(np.minimum(rising, falling), 0.0, None)
        if not np.any(bank[j] > 0.0):
            raise InputError(
                f"filter {j} covers no FFT bin: {config.n_filters} filters are "
                f"too many for FFT size {config.nfft}"
            )
    return bank


def lfbe(waveform: np.ndarray, config: LfbeConfig) -> np.ndarray:
    """Log mel filterbank energies, (n_filters, n_frames).

    Per frame: Hann window, magnitude-squared rFFT, triangular mel
    energies, natural log with the floor clamp. Frame count is
    1 + floor((N - frame_length) / shift).
    """
    waveform = as_f64(waveform)
    if waveform.ndim != 1:
        raise InputError("waveform must be a 1-D sample vector")
    flen = config.frame_length
    shift = config.shift_length
    if waveform.shape[0] < flen:
        raise InputError(
            f"waveform of {waveform.shape[0]} samples is shorter than one "
            f"{flen}-sample frame"
        )
    n_frames = 1 + (waveform.shape[0] - flen) // shift
    starts = np.arange(n_frames) * shift
    frames = waveform[starts[:, None] + np.arange(flen)[None, :]]
    window = np.hanning(flen)
    spectrum = np.fft.rfft(frames * window, n=config.nfft, axis=1)
    power = np.abs(spectrum) ** 2
    energies = power @ mel_filterbank(config).T
    return np.log(np.maximum(energies, LOG_FLOOR)).T


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a mono PCM16 or float32 WAV; returns (rate, samples in [-1, 1])."""
    # Imported here, not at module top: scipy.io loads hundreds of modules
    # that only WAV input needs.
    import scipy.io.wavfile

    with open_input(path) as fh:
        try:
            rate, samples = scipy.io.wavfile.read(fh)
        except ValueError as exc:
            raise InputError(f"unreadable WAV file {path}: {exc}")
    if samples.ndim != 1:
        raise InputError(f"{path}: only mono WAV input is supported")
    if samples.dtype == np.int16:
        return rate, samples.astype(np.float64) / 32768.0
    if samples.dtype == np.float32:
        return rate, samples.astype(np.float64)
    raise InputError(
        f"{path}: unsupported sample format {samples.dtype}; "
        "use PCM 16-bit or float32"
    )


# ---------------------------------------------------------------------------
# Dataset serialization (lossless binary, one record per utterance)
# ---------------------------------------------------------------------------
#
# Byte layout (all integers little-endian unsigned):
#   header:  magic "RSED" | u32 version | u64 record count
#   record:  u32 id length | id (UTF-8)
#            u8  label y
#            u32 d | u32 T
#            u32 onset | u32 offset   (1-based; both 0 when y = 0)
#            u32 metadata length | metadata (UTF-8 JSON)
#            d*T float64 feature values, row-major
# Feature bytes round-trip exactly; metadata floats survive via JSON's
# shortest-repr encoding.

@dataclass(frozen=True, eq=False, slots=True)
class SedRecord:
    """The header fields of record ``index`` of the `.sed` file at
    ``path``, and the file offset ``pos`` of its features.

    A record serves where an Utterance does for code that reads
    ``features`` once per use: each access opens the file, reads them
    and closes it.
    """

    id: str
    y: int
    dim: int
    n_frames: int
    onset: Optional[int]
    offset: Optional[int]
    meta: dict
    path: str | os.PathLike
    index: int
    pos: int

    @property
    def features(self) -> np.ndarray:
        features = np.empty((self.dim, self.n_frames), dtype="<f8")
        with open_input(self.path) as fh:
            fh.seek(self.pos)
            got = fh.readinto(features)
        if got != features.nbytes:
            raise ParseError(f"{self.path}: record {self.index}: unexpected end "
                             f"of file (wanted {features.nbytes} bytes, got {got})")
        return features


# Write buffer of save_dataset. With the default 8 KiB, each desk record
# (19.2 KB of features) is one write call between generating one
# utterance and the next, and streaming synth of the desk preset took
# about 25% longer than generating every utterance before writing any
# (one BLAS thread, 2-core machine); through 1 MiB it is as fast.
WRITE_BUFFER_BYTES = 2**20


def save_dataset(path, utterances: Sequence[Utterance]) -> list[SedRecord]:
    """Write records one at a time to the file, so no copy of the whole
    set is held in memory; the file appears at ``path`` only once it is
    whole. Returns a record for each one written."""
    records = []
    with write_atomic(path, buffering=WRITE_BUFFER_BYTES) as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IQ", DATASET_VERSION, len(utterances)))
        for index, utt in enumerate(utterances):
            id_bytes = utt.id.encode("utf-8")
            meta_bytes = json.dumps(utt.meta, sort_keys=True).encode("utf-8")
            onset, offset = utt.onset, utt.offset
            fh.write(struct.pack("<I", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<BII", utt.y, utt.dim, utt.n_frames))
            fh.write(struct.pack("<II", onset or 0, offset or 0))
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            records.append(SedRecord(utt.id, utt.y, utt.dim, utt.n_frames, onset,
                                     offset, utt.meta, path, index, fh.tell()))
            fh.write(np.ascontiguousarray(utt.features, dtype="<f8").tobytes())
    return records


def _read_exact(fh: BinaryIO, n: int, record: str, size: int) -> bytes:
    # A length field beyond the file's ``size`` is corrupt; it is not
    # passed to read(), which would allocate that much first.
    data = fh.read(n) if n <= size else b""
    if len(data) != n:
        raise ParseError(f"{record}: unexpected end of file "
                         f"(wanted {n} bytes, got {len(data)})")
    return data


def load_dataset(path) -> list[SedRecord]:
    """The records of a `.sed` file, in file order, each checked in one
    pass, features included; only headers and feature offsets are kept.

    Every fault raises ParseError naming the file and the record before
    the records are returned. Features pass through one buffer the size
    of the largest record.
    """
    records = []
    with open_input(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = f"{path}: header"
        magic = _read_exact(fh, 4, header, size)
        if magic != DATASET_MAGIC:
            raise ParseError(f"{header}: bad magic {magic!r}, not a dataset file")
        version, count = struct.unpack("<IQ", _read_exact(fh, 12, header, size))
        if version != DATASET_VERSION:
            raise ParseError(f"{header}: unsupported version {version}")
        buffer = np.empty(0, dtype="<f8")
        ids: set[str] = set()
        for rec in range(count):
            where = f"{path}: record {rec}"
            (id_len,) = struct.unpack("<I", _read_exact(fh, 4, where, size))
            try:
                uid = _read_exact(fh, id_len, where, size).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{where}: id is not UTF-8: {exc}")
            y, dim, t_len = struct.unpack("<BII", _read_exact(fh, 9, where, size))
            onset, offset = struct.unpack("<II", _read_exact(fh, 8, where, size))
            (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, where, size))
            try:
                meta = json.loads(_read_exact(fh, meta_len, where, size).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(f"{where}: bad metadata JSON: {exc}")
            pos = fh.tell()
            want = 8 * dim * t_len
            if want > size - pos:
                raise ParseError(f"{where}: unexpected end of file "
                                 f"(wanted {want} bytes, got {size - pos})")
            if buffer.nbytes < want:
                buffer = np.empty(dim * t_len, dtype="<f8")
            features = buffer[:dim * t_len]
            got = fh.readinto(features)
            if got != want:
                raise ParseError(f"{where}: unexpected end of file "
                                 f"(wanted {want} bytes, got {got})")
            # The record is checked as the Utterance it describes, then
            # dropped; 0 in the file is a boundary the record lacks.
            onset, offset = onset or None, offset or None
            try:
                Utterance(uid, features.reshape(dim, t_len), y, onset, offset, meta)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}")
            # Outputs and scoring are keyed by id.
            if uid in ids:
                raise ParseError(f"{where}: repeats the id {uid!r}")
            ids.add(uid)
            records.append(SedRecord(uid, y, dim, t_len, onset, offset, meta,
                                     path, rec, pos))
        trailing = fh.read(1)
        if trailing:
            raise ParseError(f"{path}: record {count}: trailing bytes after final record")
    return records
