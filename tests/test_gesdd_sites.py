"""Every SVD of the package goes through ``solvers._gesdd``, so that each
LAPACK failure describes its matrix."""

import ast
from pathlib import Path

import quantmc

PACKAGE = Path(quantmc.__file__).parent


def _calls_svd(node):
    """Whether node calls an ``svd``: an attribute (``np.linalg.svd``) or a
    bare name (``from numpy.linalg import svd``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if (isinstance(func, ast.Attribute) and func.attr == "svd") or (
                isinstance(func, ast.Name) and func.id == "svd"
            ):
                return True
    return False


def svd_call_sites(package=PACKAGE):
    """``module.name`` of each module-level definition of package's modules
    that calls an SVD, other than ``solvers._gesdd``; a call outside any
    definition is named ``module.<module>``."""
    sites = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            site = f"{path.stem}.{node.name if is_def else '<module>'}"
            if site != "solvers._gesdd" and _calls_svd(node) and site not in sites:
                sites.append(site)
    return sites


def test_every_svd_goes_through_gesdd():
    assert svd_call_sites() == []


def test_a_direct_svd_is_found(tmp_path):
    # the positive control: only the wrapper itself may call np.linalg.svd
    (tmp_path / "solvers.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "def _gesdd(Z):\n"
        "    return np.linalg.svd(Z, full_matrices=False)\n"
        "def _norm(Z):\n"
        "    return float(np.linalg.svd(Z, compute_uv=False)[0])\n"
        "S = svd(np.eye(2))\n"
    )
    assert svd_call_sites(tmp_path) == ["solvers._norm", "solvers.<module>"]
