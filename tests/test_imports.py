"""The exact layer loads without numpy; the package resolves dense names on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucplab
from ucplab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy set to None in sys.modules makes every later `import numpy` raise.
NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
from ucplab.cli import main
search_out, logic, classify_out = sys.argv[1:]
codes = [
    main(["search", "--max-atoms", "5", "--blocks", "2", "--out", search_out]),
    main(["classify", "--logic", logic, "--out", classify_out]),
]
sys.exit(max(codes))
"""

FRESH_IMPORT_SCRIPT = """
import sys
import ucplab, ucplab.cli, ucplab.finite, ucplab.search
print("numpy" in sys.modules)
"""

# every name `ucplab` exported before its dense names became lazy
EXPORTED = """
CheckReport FiniteEvent FiniteLogic SumUndefinedError check_os_axioms check_uc1
check_uc2 conditional_table I2_scalar I3_scalar a1_check corridor_sample
corridor_samples eq10_check finite_I3_scan i3_basis_norm_max lemma_suite
saturating_configuration symmetry_battery t_structure_battery AlgebraDescriptor
AlgebraElement SpectralForm eigenvalues hermitian_basis identity inner
jordan_product order_unit_norm property_battery quadratic_map_U random_element
random_projection random_state_density spectral_decompose trace
ConditioningOnNullError State complement conditional_probability
conditional_state evaluate orthogonal cd_conj cd_mul cd_norm
multiplication_table SearchConfig classify enumerate_logics run_search
""".split()


def _python(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )


def test_search_and_classify_run_with_numpy_blocked(tmp_path, capsys):
    logic = tmp_path / "boolean.txt"
    logic.write_text("block: 1 2 3 4\n")
    blocked = _python(
        NO_NUMPY_SCRIPT, str(tmp_path / "search.jsonl"), str(logic), str(tmp_path / "classify.json")
    )
    assert blocked.returncode == 0, blocked.stderr

    search = ["search", "--max-atoms", "5", "--blocks", "2"]
    assert main([*search, "--out", str(tmp_path / "a.jsonl")]) == 0
    assert main(["classify", "--logic", str(logic), "--out", str(tmp_path / "a.json")]) == 0
    assert blocked.stdout == capsys.readouterr().out
    assert (tmp_path / "search.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    assert (tmp_path / "classify.json").read_bytes() == (tmp_path / "a.json").read_bytes()


def test_importing_the_package_leaves_numpy_unloaded():
    done = _python(FRESH_IMPORT_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_every_exported_name_resolves():
    namespace = {}
    exec(f"from ucplab import {', '.join(EXPORTED)}", namespace)
    assert [getattr(namespace[name], "__name__", name) for name in EXPORTED] == EXPORTED


def test_dense_names_resolve_to_their_modules():
    from ucplab import AlgebraDescriptor, interference, jordan

    assert AlgebraDescriptor is jordan.AlgebraDescriptor
    assert ucplab.corridor_samples is interference.corridor_samples


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ucplab.no_such_name
    with pytest.raises(ImportError):
        from ucplab import no_such_name  # noqa: F401
