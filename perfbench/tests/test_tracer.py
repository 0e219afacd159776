from fractions import Fraction

import pytest

import symorders
from symorders import bundle, cli, forms, lattices, linalg, modp, orders
from symorders.bundle import bundle_from_dict, save_bundle
import workloads
from tracer import Tracer


def test_install_patches_every_binding_and_uninstall_restores():
    originals = (forms.dual_basis, forms.casimir, orders.make_order,
                 bundle.load_bundle, orders.Order.multiply, modp.FpAlgebra.radical)
    with Tracer():
        assert lattices.dual_basis is forms.dual_basis is symorders.dual_basis
        assert lattices.casimir is forms.casimir
        assert bundle.make_order is orders.make_order is symorders.make_order
        assert cli.load_bundle is bundle.load_bundle
        assert forms.dual_basis.__wrapped__ is originals[0]
        assert orders.Order.multiply.__wrapped__ is originals[4]
        assert modp.FpAlgebra.radical.__wrapped__ is originals[5]
    assert (forms.dual_basis, forms.casimir, orders.make_order, bundle.load_bundle,
            orders.Order.multiply, modp.FpAlgebra.radical) == originals
    assert lattices.dual_basis is forms.dual_basis
    assert cli.load_bundle is bundle.load_bundle


def test_self_times_partition_the_traced_time(s3_doc):
    b = bundle_from_dict(s3_doc)
    with Tracer() as tracer:
        cli.run("psp", b)
        cli.run("knorr", b)
    metrics = tracer.metrics()
    roots = [end - start for _, start, end, parent, _ in tracer.spans if parent == -1]
    assert len(roots) == 2 and metrics["cli.run.calls"] == 2
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
    assert metrics["cli.run.s"] == pytest.approx(sum(roots), rel=1e-9)
    assert metrics["forms.dual_basis.calls"] > 0
    assert metrics["modp.FpAlgebra.radical.elements"] > 0
    assert metrics["modp.FpAlgebra.radical.max_dim"] == 6
    assert all(0 <= parent < i or parent == -1
               for i, (_, _, _, parent, _) in enumerate(tracer.spans))


def test_raising_span_counts_as_layer_error():
    with Tracer() as tracer:
        with pytest.raises(ValueError, match="valuation"):
            linalg.smith_normal_form(linalg.as_matrix([[Fraction(1, 3)]]), 3)
    assert tracer.metrics()["linalg.smith_normal_form.errors"] == 1
    assert tracer.spans[-1][-1] is True


def test_tracing_leaves_the_json_report_byte_identical(s3_doc, tmp_path):
    path = tmp_path / "s3.json"
    save_bundle(bundle_from_dict(s3_doc), path)
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(["--bundle", str(path), "--check", "tate", "--json", str(plain)]) == 0
    with Tracer() as tracer:
        assert cli.main(["--bundle", str(path), "--check", "tate", "--json", str(traced)]) == 0
    assert tracer.metrics()["bundle.load_bundle.bytes"] == path.stat().st_size
    assert tracer.metrics()["lattices.verify_tate_duality.classes"] > 0
    assert plain.read_bytes() == traced.read_bytes()


def test_counts_repeat_exactly(s3_doc, tmp_path):
    from symorders import bundle as bundle_mod
    from worker import FractionCounter, Ledger, run_pass

    path = tmp_path / "s3.json"
    save_bundle(bundle_from_dict(s3_doc), path)
    expected = workloads.load_expected()["s3-fixture"]["s3-p3"]
    ledger = Ledger(cli.CHECK_NAMES, cli.CHECKS, {"s3": expected})
    counts, fractions_made = [], []
    for _ in range(2):
        with Tracer() as tracer:
            run_pass(bundle_mod, cli, [("s3", str(path))], ledger)
        counts.append({k: v for k, v in tracer.metrics().items()
                       if not k.endswith((".s", "_s"))})
        counter = FractionCounter()
        run_pass(bundle_mod, cli, [("s3", str(path))], ledger, fraction_counter=counter)
        fractions_made.append(counter.count)
    assert counts[0] == counts[1]
    assert counts[0]["lattices.verify_tate_duality.classes"] > 0
    assert fractions_made[0] == fractions_made[1] > 10**6
    assert counts[0]["bundle.load_bundle.bytes"] == path.stat().st_size
    assert ledger.summary()["failed"] == 0
