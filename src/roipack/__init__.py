"""Cut video object-detection compute by packing prior-frame regions of
interest into one reduced frame, detecting there and mapping results back.

Import from the submodules, e.g. `from roipack.packing import pack`.
"""

__version__ = "0.1.0"
