"""The paper's contribution: the analytical ratio-quality model (§III).

From a one-time ~1% sample of a dataset's prediction errors, estimates for
any error bound: the Huffman (+ lossless) bit-rate, the compression-error
distribution, and the post-hoc analysis quality (PSNR / SSIM / FFT) — plus
the inverse mapping from a target bit-rate to an error bound.
"""
from .model import RatioQualityModel  # noqa: F401
