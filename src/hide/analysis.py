"""Dictionary-utilization diagnostics and entropy maps.

Utilization averages attention weights per dictionary entry over all
heads, tokens, slices, and images, normalized globally over the
evaluation set; the entropy of that distribution measures how evenly
the entries are used (log2 N bits = perfectly balanced, 0 = collapsed).

Entropy maps sum per-element -log2 p over channels at each latent
position; their total equals the model's rate estimate for the image.

Every report reads the slice records of one codec forward per image
(`slice_records`), taken through the same input path as `encode_image`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from . import ppm
from .codec import codec_input
from .errors import HideError
from .model import CompressionModel

# entries per dictionary whose attention maps the heatmaps show
TOP_K = 4


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


def slice_records(model: CompressionModel, img: np.ndarray) -> list:
    """The per-slice records, attention kept, of one codec forward of an
    image given as the codec takes it ([3,H,W], 8-bit or in [0, 1])."""
    return model.encode_forward(codec_input(img), keep_attention=True)["bundle"].slices


def _attention_maps(records: list) -> Dict[str, List[np.ndarray]]:
    """Each dictionary's attention maps, in record order; a single-level
    dictionary keeps its maps where the global one does."""
    if records[0].attn_detail is None:
        return {"single": [rec.attn_global for rec in records]}
    return {"global": [rec.attn_global for rec in records],
            "detail": [rec.attn_detail for rec in records]}


def _utilization(records_per_image: Sequence[list]) -> UtilizationReport:
    if not records_per_image:
        raise HideError("no images supplied")
    maps = _attention_maps([rec for records in records_per_image for rec in records])
    usage, dist, ent = {}, {}, {}
    for name, collected in maps.items():
        u = usage_from_attention(collected)
        d = u / u.sum()
        usage[name] = u
        dist[name] = d
        ent[name] = distribution_entropy(d)
    return UtilizationReport(usage=usage, distribution=dist, entropy_bits=ent)


def utilization_report(model: CompressionModel,
                       images: Sequence[np.ndarray]) -> UtilizationReport:
    return _utilization([slice_records(model, img) for img in images])


def attention_heatmaps(records: list) -> Dict[str, Dict[int, np.ndarray]]:
    """Spatial attention maps (head- and slice-averaged) of the TOP_K most
    used entries of each dictionary, from one image's slice records."""
    grid = records[0].y_hat.shape[2:]
    out: Dict[str, Dict[int, np.ndarray]] = {}
    for name, maps in _attention_maps(records).items():
        per_slice = [attn.mean(axis=0) for attn in maps]   # heads averaged -> [T, N]
        mean_attn = np.mean(per_slice, axis=0)             # slices averaged
        usage = mean_attn.mean(axis=0)
        top = np.argsort(-usage)[:TOP_K]
        out[name] = {int(e): mean_attn[:, e].reshape(grid) for e in top}
    return out


# -- entropy map -----------------------------------------------------------

@dataclass
class EntropyMap:
    bits_map: np.ndarray                  # [h, w] bits per latent position
    total_bits: float                     # equals the y-stream rate estimate
    per_slice: List[Dict[str, np.ndarray]]


def entropy_map(records: list) -> EntropyMap:
    """Bits per latent position, and each slice's parameters, from one
    image's slice records."""
    bits_map = None
    per_slice = []
    total = 0.0
    for rec in records:
        centered = rec.y_hat - rec.mu
        z = centered / rec.sigma
        bits = -np.log2(rec.likelihood.astype(np.float64))
        total += float(bits.sum())
        spatial = bits.sum(axis=(0, 1))
        bits_map = spatial if bits_map is None else bits_map + spatial
        per_slice.append({
            "mu": rec.mu[0], "sigma": rec.sigma[0],
            "residual": centered[0], "normalized_residual": z[0],
        })
    return EntropyMap(bits_map=bits_map, total_bits=total, per_slice=per_slice)


def _save_array(path: str, arr: np.ndarray) -> None:
    np.save(path, np.ascontiguousarray(arr, dtype="<f4"), allow_pickle=False)


def write_analysis_outputs(model: CompressionModel, images: Sequence[np.ndarray],
                           out_dir: str) -> List[str]:
    """Emit the analyze artifacts; returns the report lines."""
    records = [slice_records(model, img) for img in images]
    report = _utilization(records)
    os.makedirs(out_dir, exist_ok=True)
    lines = report.lines()
    for name in report.usage:
        _save_array(os.path.join(out_dir, f"usage_{name}.npy"), report.usage[name])
    heat = attention_heatmaps(records[0])
    for name, entries in heat.items():
        for entry, grid in entries.items():
            ppm.write_pgm(os.path.join(out_dir, f"attn_{name}_entry{entry:03d}.pgm"),
                          scale_to_uint8(grid))
            _save_array(os.path.join(out_dir, f"attn_{name}_entry{entry:03d}.npy"), grid)
    emap = entropy_map(records[0])
    ppm.write_pgm(os.path.join(out_dir, "entropy_map.pgm"), scale_to_uint8(emap.bits_map))
    _save_array(os.path.join(out_dir, "entropy_map.npy"), emap.bits_map)
    for i, tensors in enumerate(emap.per_slice):
        for key, arr in tensors.items():
            _save_array(os.path.join(out_dir, f"slice{i}_{key}.npy"), arr)
    counts = model.component_counts()
    lines.append("parameter_counts " + " ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))
    lines.append(f"entropy_map_total_bits={emap.total_bits:.3f}")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines
