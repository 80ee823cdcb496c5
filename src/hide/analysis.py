"""Dictionary-utilization diagnostics and entropy maps.

Utilization averages attention weights per dictionary entry over all
heads, tokens, slices, and images, normalized globally over the
evaluation set; the entropy of that distribution measures how evenly
the entries are used (log2 N bits = perfectly balanced, 0 = collapsed).

Entropy maps sum per-element -log2 p over channels at each latent
position; their total equals the model's rate estimate for the image.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from . import ppm
from .core.tensor import Tensor
from .entropy import likelihood
from .errors import FormatError, HideError
from .model import CompressionModel

# entries per dictionary whose attention maps the heatmaps show
TOP_K = 4


# -- matrix dump format: one ASCII header line, then little-endian f32 ----

def save_matrix(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float32)
    header = " ".join([str(arr.ndim)] + [str(d) for d in arr.shape]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f4", copy=False).tobytes())


def load_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        try:
            header = [int(f) for f in fh.readline().decode("ascii").split()]
        except ValueError as e:   # UnicodeDecodeError is a ValueError too
            raise FormatError(f"{path}: matrix header is not ascii integers: {e}") from None
        if not header:
            raise FormatError(f"{path}: empty matrix header")
        rank = header[0]
        if len(header) != rank + 1:
            raise FormatError(f"{path}: header rank {rank} but {len(header) - 1} dims")
        shape = tuple(header[1:])
        count = int(np.prod(shape)) if shape else 1
        payload = fh.read(4 * count)
        if len(payload) != 4 * count:
            raise FormatError(f"{path}: truncated matrix payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)


def scale_to_uint8(arr: np.ndarray) -> np.ndarray:
    """Min-max scale any real map to the 8-bit range (constant maps -> 0)."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    if hi - lo <= 0:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.clip(np.rint((arr - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)


# -- utilization ----------------------------------------------------------

def usage_from_attention(attention_maps: Sequence[np.ndarray]) -> np.ndarray:
    """Mean attention score per entry over [heads, tokens, N] maps."""
    if not attention_maps:
        raise HideError("no attention maps supplied")
    n = attention_maps[0].shape[-1]
    total = np.zeros(n, dtype=np.float64)
    rows = 0
    for a in attention_maps:
        if a.shape[-1] != n:
            raise HideError("attention maps disagree on dictionary size")
        flat = a.reshape(-1, n)
        total += flat.sum(axis=0)
        rows += flat.shape[0]
    return total / rows


def distribution_entropy(dist: np.ndarray) -> float:
    """Entropy in bits of a normalized distribution; 0 log 0 = 0."""
    dist = np.asarray(dist, dtype=np.float64)
    nz = dist[dist > 0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass
class UtilizationReport:
    usage: Dict[str, np.ndarray]          # mean attention per entry
    distribution: Dict[str, np.ndarray]   # usage normalized to sum 1
    entropy_bits: Dict[str, float]

    def lines(self) -> List[str]:
        out = []
        for name in sorted(self.usage):
            n = len(self.usage[name])
            out.append(f"dictionary={name} entries={n} "
                       f"usage_entropy_bits={self.entropy_bits[name]:.4f} "
                       f"max_bits={np.log2(n):.4f}")
        return out


def collect_attention(model: CompressionModel, images: Sequence[np.ndarray]):
    """Run the codec forward over images, keeping per-slice attention."""
    dicts = model.entropy.dict_ctx.dictionaries()
    if not dicts:
        raise HideError("model variant has no dictionary to analyze")
    maps: Dict[str, List[np.ndarray]] = {name: [] for name in dicts}
    from .codec import pad_image
    for img in images:
        fwd = model.encode_forward(pad_image(np.asarray(img, dtype=np.float64)),
                                   keep_attention=True)
        for rec in fwd["bundle"].slices:
            if "global" in maps and rec.attn_global is not None:
                maps["global"].append(rec.attn_global)
            if "detail" in maps and rec.attn_detail is not None:
                maps["detail"].append(rec.attn_detail)
            if "single" in maps and rec.attn_global is not None:
                maps["single"].append(rec.attn_global)
    return maps


def utilization_report(model: CompressionModel,
                       images: Sequence[np.ndarray]) -> UtilizationReport:
    maps = collect_attention(model, images)
    usage, dist, ent = {}, {}, {}
    for name, collected in maps.items():
        u = usage_from_attention(collected)
        d = u / u.sum()
        usage[name] = u
        dist[name] = d
        ent[name] = distribution_entropy(d)
    return UtilizationReport(usage=usage, distribution=dist, entropy_bits=ent)


def attention_heatmaps(model: CompressionModel,
                       img: np.ndarray) -> Dict[str, Dict[int, np.ndarray]]:
    """Spatial attention maps (head- and slice-averaged) of the TOP_K most
    used entries of each dictionary, for one image."""
    from .codec import pad_image
    padded = pad_image(np.asarray(img, dtype=np.float64))
    fwd = model.encode_forward(padded, keep_attention=True)
    h = padded.shape[1] // 16
    w = padded.shape[2] // 16
    dicts = model.entropy.dict_ctx.dictionaries()
    out: Dict[str, Dict[int, np.ndarray]] = {}
    for name in dicts:
        per_slice = []
        for rec in fwd["bundle"].slices:
            attn = rec.attn_global if name in ("global", "single") else rec.attn_detail
            per_slice.append(attn.mean(axis=0))          # heads averaged -> [T, N]
        mean_attn = np.mean(per_slice, axis=0)           # slices averaged
        usage = mean_attn.mean(axis=0)
        top = np.argsort(-usage)[:TOP_K]
        out[name] = {int(e): mean_attn[:, e].reshape(h, w) for e in top}
    return out


# -- entropy map -----------------------------------------------------------

@dataclass
class EntropyMap:
    bits_map: np.ndarray                  # [h, w] bits per latent position
    total_bits: float                     # equals the y-stream rate estimate
    per_slice: List[Dict[str, np.ndarray]]


def entropy_map(model: CompressionModel, img: np.ndarray) -> EntropyMap:
    from .codec import pad_image
    padded = pad_image(np.asarray(img, dtype=np.float64))
    fwd = model.encode_forward(padded)
    bits_map = None
    per_slice = []
    total = 0.0
    for rec in fwd["bundle"].slices:
        centered = rec.y_hat - rec.mu
        z = centered / rec.sigma
        p = likelihood(*(Tensor(a, dtype=a.dtype) for a in (rec.y_hat, rec.mu, rec.sigma)))
        bits = -np.log2(p.numpy().astype(np.float64))
        total += float(bits.sum())
        spatial = bits.sum(axis=(0, 1))
        bits_map = spatial if bits_map is None else bits_map + spatial
        per_slice.append({
            "mu": rec.mu[0], "sigma": rec.sigma[0],
            "residual": centered[0], "normalized_residual": z[0],
        })
    return EntropyMap(bits_map=bits_map, total_bits=total, per_slice=per_slice)


def write_analysis_outputs(model: CompressionModel, images: Sequence[np.ndarray],
                           out_dir: str) -> List[str]:
    """Emit the analyze artifacts; returns the report lines."""
    os.makedirs(out_dir, exist_ok=True)
    report = utilization_report(model, images)
    lines = report.lines()
    for name in report.usage:
        save_matrix(os.path.join(out_dir, f"usage_{name}.mat"), report.usage[name])
    heat = attention_heatmaps(model, images[0])
    for name, entries in heat.items():
        for entry, grid in entries.items():
            ppm.write_pgm(os.path.join(out_dir, f"attn_{name}_entry{entry:03d}.pgm"),
                          scale_to_uint8(grid))
            save_matrix(os.path.join(out_dir, f"attn_{name}_entry{entry:03d}.mat"), grid)
    emap = entropy_map(model, images[0])
    ppm.write_pgm(os.path.join(out_dir, "entropy_map.pgm"), scale_to_uint8(emap.bits_map))
    save_matrix(os.path.join(out_dir, "entropy_map.mat"), emap.bits_map)
    for i, tensors in enumerate(emap.per_slice):
        for key, arr in tensors.items():
            save_matrix(os.path.join(out_dir, f"slice{i}_{key}.mat"), arr)
    counts = model.component_counts()
    lines.append("parameter_counts " + " ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))
    lines.append(f"entropy_map_total_bits={emap.total_bits:.3f}")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines
