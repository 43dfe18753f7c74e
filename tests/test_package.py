import importlib
import pathlib

import relphase

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["blocks", "cli", "factorize", "fock", "lattice", "spin", "twirl"]

# every public name that ``import relphase`` bound before the namespace came
# from the modules' ``__all__``: the package's old explicit list and its
# submodules
EARLIER_NAMES = """
BlockState DensityMatrix FactorizationReport InsufficientCutoffError Observable PriorGrid
QuditPairState SizeLimitError SpinParams UNIFORM UniformPrior approx_product
approx_product_balanced blocks cli coherence_witness coherent_vector contraction_overlap
default_cutoff displace embed_wh expectation factorization_fidelity factorize
fidelity_pure_mixed fock from_blocks from_relative_basis hs_distance inner lattice main
mean_photon_number momentum_eigenstate params_from_modes parse_prior point_prior product_pair
purity random_commutant_observable reduced_relative relative_pair relative_state_overlap
relative_target shift_prior spin spin_coherent sum_gate sweep_fidelity to_blocks
to_relative_basis twirl twirl_displacement twirl_single_mode twirl_two_mode
twirled_hs_distance twirled_relative two_mode_coherent two_point_prior von_mises_prior
__version__
""".split()


def test_package_exports_each_module_all_in_order():
    modules = [importlib.import_module(f"relphase.{name}") for name in MODULES]
    assert relphase.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(relphase.__all__)) == len(relphase.__all__)  # no module shadows another


def test_every_exported_name_resolves_to_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"relphase.{name}")
        for public in module.__all__:
            assert getattr(relphase, public) is getattr(module, public), public


def test_earlier_names_still_resolve():
    missing = [name for name in EARLIER_NAMES if not hasattr(relphase, name)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    """The "Library quick start" block of README.md runs as written and
    prints what its comments say."""
    section = README.read_text().split("## Library quick start", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    overlap, fidelities, window = capsys.readouterr().out.splitlines()
    assert abs(float(overlap) - 1.0) < 1e-12  # "~1.0"
    assert 0.99 < float(fidelities.split()[0]) <= 1.0
    lo1, lo2, *masses = window.split()
    assert (int(lo1), int(lo2)) == (0, 85)
    assert all(abs(float(mass) - 1.0) < 1e-8 for mass in masses)
