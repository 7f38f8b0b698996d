"""The byte pins: the stdout of each pinned command, kept as ``golden/<name>.out``.

The bytes the CLI prints are part of its interface.  ``PINS`` maps a pin's name to its
argv, and is the one list of pinned commands; ``argv(name)`` resolves each ``@name``
argument to the committed input ``golden/<name>.json``.  ``test_cli.test_pinned_output_bytes``
runs every pin in process, and CI reads this table to run every pin through the installed
console script against the same files.  Rewrite every ``.out`` file from its command with::

    PYTHONPATH=src python tests/pins.py

so a moved pin shows as a ``git diff``.

Inputs: ``sampler_z1`` and ``sampler_z2`` are the first two points of ``random point
--seed 1``; ``near_z2`` is ``sampler_z1`` moved by 1e-9 in Re tau and Im z; ``wide_*``
have factor heights 1e-6 and 1e6 at each end; the ``far`` pair has factor chords near
5e6 (lambda1 = 1e14, whose moved radius rounds to 1).  ``matrix_patterned`` is the
second motion of ``random motion --seed 3``, ``matrix_perturbed`` the same with entry
(0, 0) moved by 1e-9 (symplectic residuals near 1e-9, beyond ``_ABS_EPS``), and
``matrix_unpatterned`` is diag(A, A^-T) for the shear A = [[1, 1], [0, 1]].
``seed5_motion`` is ``random motion --seed 5``, ``seed5_z1`` and ``seed5_z2`` the two
points of ``random point --seed 5 --count 2``, ``seed5_factor`` the first factor of
``split`` of that motion and ``seed5_disc`` ``cayley --to disc`` of ``seed5_z1``.
``scaled_z1`` and ``scaled_z2`` have both factors at heights 5e-12 and 1e300 over 0: each
leg is past length 710, where it takes the e^{dt}-scaled form.
"""

import contextlib
import io
import sys
from pathlib import Path

from bisiegel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_STABILIZER = ["stabilizer", "--xi1", "0.6,0.8", "--xi2", "0,1", "--eps", "-1", "--model"]

PINS = {
    "random_motion": ["random", "motion", "--seed", "1", "--count", "100"],
    "random_point": ["random", "point", "--seed", "1", "--count", "100"],
    "geodesic_sampler": ["geodesic", "--z1", "@sampler_z1", "--z2", "@sampler_z2", "--samples", "101"],
    "geodesic_near": ["geodesic", "--z1", "@sampler_z1", "--z2", "@near_z2", "--samples", "101"],
    "geodesic_wide": ["geodesic", "--z1", "@wide_z1", "--z2", "@wide_z2", "--samples", "101"],
    "geodesic_scaled": ["geodesic", "--z1", "@scaled_z1", "--z2", "@scaled_z2", "--samples", "5"],
    "reduce_sampler": ["reduce", "--z1", "@sampler_z1", "--z", "@sampler_z2"],
    "reduce_near": ["reduce", "--z1", "@sampler_z1", "--z", "@near_z2"],
    "reduce_far": ["reduce", "--z1", "@far_z1", "--z", "@far_z2"],
    "check_matrix_patterned": ["check", "matrix", "@matrix_patterned"],
    "check_matrix_perturbed": ["check", "matrix", "@matrix_perturbed"],
    "check_matrix_unpatterned": ["check", "matrix", "@matrix_unpatterned"],
    # Every printed residual of the 19 checks; one trial runs each at its floor.
    "verify_42_200": ["verify", "--seed", "42", "--trials", "200"],
    "verify_42_1": ["verify", "--seed", "42", "--trials", "1"],
    "verify_42_1000": ["verify", "--seed", "42", "--trials", "1000"],
    "verify_7_1000": ["verify", "--seed", "7", "--trials", "1000"],
    # Two equal factors have off-diagonal half-differences 0.0, which eps = -1 turns into
    # -0.0, which must print as 0.
    "assemble_plus": ["assemble", "--m1", "@seed5_factor", "--m2", "@seed5_factor", "--eps", "1"],
    "assemble_minus": ["assemble", "--m1", "@seed5_factor", "--m2", "@seed5_factor", "--eps", "-1"],
    "split": ["split", "--matrix", "@seed5_motion"],
    "act": ["act", "--matrix", "@seed5_motion", "--point", "@seed5_z1"],
    "cayley_disc": ["cayley", "--to", "disc", "--point", "@seed5_z1"],
    "cayley_halfspace": ["cayley", "--to", "halfspace", "--point", "@seed5_disc"],
    "stabilizer_halfspace": _STABILIZER + ["halfspace"],
    "stabilizer_disc": _STABILIZER + ["disc"],
    "distance": ["distance", "--z1", "@seed5_z1", "--z2", "@seed5_z2"],
    "volume": ["volume", "--point", "@seed5_z1"],
    "check_point": ["check", "point", "@seed5_z1"],
}


def argv(name: str) -> list[str]:
    """The arguments of pin ``name``, each ``@input`` the path of ``golden/<input>.json``."""
    return [str(GOLDEN / f"{a[1:]}.json") if a.startswith("@") else a for a in PINS[name]]


def run_pin(name: str) -> tuple[int, bytes, str]:
    """Pin ``name`` run in this process: its exit code, stdout bytes and stderr."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="")  # no newline translation
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv(name))
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    for name in PINS:
        code, out, err = run_pin(name)
        if (code, err) != (0, ""):
            sys.exit(f"{name}: exit {code}: {err}")
        (GOLDEN / f"{name}.out").write_bytes(out)
