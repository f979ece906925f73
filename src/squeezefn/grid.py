"""The grid sweep: a rectangle of points evaluated through the batched kernel
chunked.grid_cells and rendered as CSV, for level-set plots.

The grid command loads the module; squeezefn.cli resolves GridJob, run_grid
and MAX_GRID_CELLS from it on first use (PEP 562), so that no other command
compiles it.
"""

from __future__ import annotations

import math
import operator

from .domains import Annulus, DomainError, FinitePunctures, SequencePunctures, _shown
from .hyperbolic import Record


# Largest number of cells in a grid sweep.  Per-cell state and CSV text cost
# about 0.2 KB a cell: a 400x400 sweep peaks at 60 MB resident, 32 MB above
# start-up, and a 1000x1000 sweep at this limit peaks at 224 MB.
MAX_GRID_CELLS = 1_000_000


class GridJob(Record):
    """A rectangle sweep: domain, [re_min, re_max, im_min, im_max], (nx, ny)."""

    domain: object
    rect: tuple[float, float, float, float]
    resolution: tuple[int, int]
    invariant: str

    def __post_init__(self):
        try:
            re_min, re_max, im_min, im_max = self.rect
            finite = all(map(math.isfinite, (*self.rect, re_max - re_min, im_max - im_min)))
        except (TypeError, ValueError):  # not four values, or not real numbers
            raise DomainError(f"grid rectangle must be four numbers, got {_shown(self.rect)}") from None
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            # infinite extents would put NaN coordinates into the grid
            raise DomainError(f"grid rectangle {_shown(self.rect)} does not have a finite extent")
        if not (re_min < re_max and im_min < im_max):
            raise DomainError(f"degenerate grid rectangle {_shown(self.rect)}")
        try:
            nx, ny = map(operator.index, self.resolution)
        except TypeError:  # a float would fail in range() in run_grid
            raise DomainError(f"grid resolution must be integers, got {_shown(self.resolution)}") from None
        except ValueError:  # not two values
            raise DomainError(f"grid resolution must be two integers, got {_shown(self.resolution)}") from None
        if nx < 2 or ny < 2:
            raise DomainError(f"grid resolution must be >= 2 in each direction, got {_shown(self.resolution)}")
        if nx * ny > MAX_GRID_CELLS:
            raise DomainError(f"grid resolution {_shown(nx)}x{_shown(ny)} has more than {MAX_GRID_CELLS} cells")
        # Python ints: numpy integers would make the cell coordinates numpy floats
        object.__setattr__(self, "resolution", (nx, ny))


def run_grid(job: GridJob, jobs: int = 1) -> str:
    """Render the grid CSV; rows in row-major order (im outer, re inner),
    byte-identical across runs and across ``jobs`` settings.

    The whole rectangle goes through one call of the batched kernel
    chunked.grid_cells, which generates each chunk of punctures once per
    sweep.  Its kernel temporaries hold at most about chunked.GRID_BLOCK
    elements; its per-cell state scales with the number of cells, as the CSV
    text does.  ``jobs`` (at least 1) is accepted and ignored: the kernel's
    numpy steps and the row formatting hold the GIL, so worker threads gave
    no speed-up."""
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs!r}")
    domain = job.domain
    if isinstance(domain, Annulus):
        if job.invariant != "squeezing":
            raise DomainError(f"grid invariant {job.invariant!r} does not apply to an annulus")
    elif isinstance(domain, (FinitePunctures, SequencePunctures)):
        if job.invariant not in ("squeezing", "fridman-c"):
            raise DomainError(f"grid invariant {job.invariant!r} does not apply to planar domains")
    else:
        raise DomainError(f"grid supports planar domains, not {type(domain).__name__}")
    re_min, re_max, im_min, im_max = job.rect
    nx, ny = job.resolution
    reals = [re_min + (re_max - re_min) * ix / (nx - 1) for ix in range(nx)]
    imags = [im_min + (im_max - im_min) * iy / (ny - 1) for iy in range(ny)]
    re_texts = [repr(re) for re in reals]
    from .chunked import grid_cells  # loaded here, with numpy

    values, indices, flags = grid_cells(domain, reals, imags)
    lines = ["re,im,value,truncation_index,certified"]
    for iy, im in enumerate(imags):
        im_text = repr(im)
        row = slice(iy * nx, (iy + 1) * nx)
        cells = zip(re_texts, values[row].tolist(), indices[row].tolist(), flags[row].tolist())
        lines.append("\n".join(
            f"{re_text},{im_text},,,false" if value != value  # NaN: outside or on a puncture
            else f"{re_text},{im_text},{value!r},{index},{'true' if certified else 'false'}"
            for re_text, value, index, certified in cells))
    return "\n".join(lines) + "\n"


def _comma_numbers(text: str, convert, count: int, need: str) -> tuple:
    try:
        values = tuple(convert(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise DomainError(f"{need}, got {text!r}")
    return values
