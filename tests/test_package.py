import barybinom

EXPORTED = {
    "bary_binom",
    "Method",
    "star_binom",
    "dstar_binom",
    "classic_binom",
    "to_digits",
    "digit_sum",
    "gf_expand",
    "ExpansionPoint",
    "LaurentSeries",
    "series_inverse",
    "enumerate_partitions",
    "enumerate_restricted",
}


def test_the_package_exports_exactly_the_documented_names():
    assert len(barybinom.__all__) == len(EXPORTED) == 13
    assert set(barybinom.__all__) == EXPORTED


def test_every_exported_name_resolves_to_its_home_module():
    namespace = {}
    exec("from barybinom import *", namespace)
    for name in EXPORTED:
        obj = getattr(barybinom, name)
        assert namespace[name] is obj
        assert obj.__module__.startswith("barybinom.")
