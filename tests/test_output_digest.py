"""The byte contract: the SHA-256 of every file the CLI writes for the
digested commands, against the committed ``tests/golden/DIGESTS``.

:func:`digest_commands` is the one command list.  ``tools/output_digest.py``
runs every command through ``pointersim.cli.main`` and prints the digests
(``--write`` regenerates ``DIGESTS``).  This test runs the same commands
through ``cli.main`` too, but takes the expensive results from what other
tests already computed, so it adds well under a second to the suite:

* ``run`` of each bundled scenario: the report ``test_golden`` serializes
  (``test_golden.bundled_run``);
* ``sweep`` of each 256^2 scenario: the sweep ``test_golden`` serializes
  (``test_golden.bundled_sweep``);
* ``validate``: the suite pass the acceptance tests check
  (``conftest.suite_results``);
* ``lg-check``, ``entangle`` and ``appendix-a``: run here as they are, about
  0.15 s in all;
* ``sweep`` of the four 64^3 scenarios (about 0.45 s each): no other test
  builds them, so only the tool digests their 8 files (:func:`tool_only`).

The bytes are exact within one machine class only (ROADMAP item 2), so
``DIGESTS`` records the :func:`fingerprint` it was made on.  On a machine
with another fingerprint the comparison skips and names both.  A changed
``DIGESTS`` is a declared output change.
"""

import ctypes
import hashlib
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pointersim import cli, validation
from test_golden import COMMANDS, GOLDEN, SWEEP_MULTIPLIERS, SWEPT, bundled_run, bundled_sweep

DIGESTS = GOLDEN / "DIGESTS"
FINGERPRINT_PREFIX = "# fingerprint: "


def digest_commands() -> list[list[str]]:
    """Every digested command: ``run`` and ``sweep`` (at ``SWEEP_MULTIPLIERS``)
    of each bundled scenario, the golden ``COMMANDS``, ``lg-check`` for l = 16
    (a 512^2 derived grid) and for l = 8 at sigma = 1e20, and ``validate``."""
    root = resources.files("pointersim").joinpath("scenarios")
    paths = sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))
    multipliers = [f"{m:g}" for m in SWEEP_MULTIPLIERS]
    return ([["run", path] for path in paths]
            + [["sweep", path, "--multipliers", *multipliers] for path in paths]
            + list(COMMANDS.values())
            + [["lg-check", "--l", "16"], ["lg-check", "--l", "8", "--sigma", "1e20"],
               ["validate"]])


def tool_only(argv: list[str]) -> bool:
    """Whether only ``tools/output_digest.py`` digests ``argv``'s files: the
    sweeps of the 64^3 scenarios."""
    return argv[0] == "sweep" and Path(argv[1]).stem not in SWEPT


def _openblas_core() -> str:
    """The kernel core the bundled OpenBLAS picked at run time, or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def fingerprint() -> str:
    """The machine class the output bytes belong to: numpy's version, its
    baseline and the dispatch targets this CPU enables
    (``__cpu_dispatch__`` filtered by ``__cpu_features__``), and the OpenBLAS
    core."""
    from numpy._core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"numpy {np.__version__}; baseline {' '.join(umath.__cpu_baseline__)}; "
            f"dispatch {' '.join(enabled)}; openblas {_openblas_core()}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(files: dict[str, bytes]) -> list[str]:
    """``sha256  name`` per file, sorted by name: what the tool prints."""
    return [f"{sha256(files[name])}  {name}" for name in sorted(files)]


def digest_file_text(files: dict[str, bytes]) -> str:
    """``DIGESTS`` for ``files`` made here: the fingerprint line, then
    :func:`digest_lines`."""
    return "\n".join([FINGERPRINT_PREFIX + fingerprint()] + digest_lines(files)) + "\n"


def read_digests(path: Path = DIGESTS) -> tuple[str, dict[str, str]]:
    """``(fingerprint, {name: sha256})`` of a digest file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(FINGERPRINT_PREFIX), f"{path} has no fingerprint line"
    return lines[0].removeprefix(FINGERPRINT_PREFIX), dict(
        reversed(line.split("  ", 1)) for line in lines[1:])


def committed_digests() -> dict[str, str]:
    """The committed digests; skips unless they were made on this machine class."""
    made_on, digests = read_digests()
    here = fingerprint()
    if made_on != here:
        pytest.skip(f"DIGESTS was made on [{made_on}], this machine is [{here}]")
    return digests


def mismatches(files: dict[str, bytes], digests: dict[str, str]) -> list[str]:
    """Names of ``files`` whose SHA-256 is not the one ``digests`` gives."""
    return sorted(name for name, data in files.items() if digests.get(name) != sha256(data))


def cli_files(argv: list[str], out: Path) -> dict[str, bytes]:
    """The files ``cli.main(argv)`` writes into the new directory ``out``."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture
def cached_cli(monkeypatch, suite_results):
    """``cli`` with its runs, sweeps and suite pass taken from the session's."""
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: bundled_run(cfg.scenario_id))
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, multipliers: bundled_sweep(cfg.scenario_id))
    monkeypatch.setattr(validation, "run_all", lambda: suite_results)


def test_outputs_match_committed_digests(cached_cli, tmp_path):
    digests = committed_digests()
    commands = digest_commands()
    files = {}
    for k, argv in enumerate(commands):
        if not tool_only(argv):
            files.update(cli_files(argv, tmp_path / str(k)))
    assert set(files) <= set(digests)
    assert len(digests) - len(files) == 2 * sum(map(tool_only, commands))  # csv + json each
    assert mismatches(files, digests) == []


def test_one_ulp_in_a_report_mean_moves_its_digests(monkeypatch, tmp_path):
    argv = next(argv for argv in digest_commands() if argv[0] == "run")
    report = bundled_run(Path(argv[1]).stem)
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: report)
    files = cli_files(argv, tmp_path / "as_run")
    moved = report.final_mean_q.copy()
    moved[0] = np.nextafter(moved[0], np.inf)
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: replace(report, final_mean_q=moved))
    reference = {name: sha256(data) for name, data in files.items()}
    assert mismatches(cli_files(argv, tmp_path / "moved"), reference) == sorted(files)


def test_another_machine_class_skips_and_names_both(monkeypatch):
    monkeypatch.setattr(f"{__name__}.fingerprint", lambda: "numpy 0; openblas Other")
    with pytest.raises(pytest.skip.Exception) as skipped:
        committed_digests()
    made_on, _digests = read_digests()
    assert "numpy 0; openblas Other" in str(skipped.value) and made_on in str(skipped.value)


def test_digest_file_round_trips(tmp_path):
    files = {"b.json": b"{}\n", "a.csv": b"x\n"}
    path = tmp_path / "DIGESTS"
    path.write_text(digest_file_text(files), encoding="utf-8")
    assert read_digests(path) == (fingerprint(), {name: sha256(data)
                                                  for name, data in files.items()})
