"""Plugin/service elaboration framework behavior."""

import itertools

import pytest

from windmill.arch import standard_preset
from windmill.elab import BuildContext, Phase, Plugin, ServiceKey, elaborate
from windmill.errors import DuplicatePlugin, MissingService, PhaseViolation
from windmill.plugins import elaborate_arch, standard_plugins


def make_plugin(name, provides=(), requires=(), payloads=None, emits=()):
    provides = frozenset(ServiceKey(p) for p in provides)
    requires = frozenset(ServiceKey(r) for r in requires)

    def early(ctx, params):
        for key in sorted(provides, key=lambda k: k.name):
            ctx.provide(key, (payloads or {}).get(key.name, f"{name}:{key.name}"))

    def late(ctx, params):
        for key in sorted(requires, key=lambda k: k.name):
            ctx.get_service(key)
        for artifact in emits:
            ctx.emit(artifact, "part")

    return Plugin(name, provides=provides, requires=requires,
                  on_early=early, on_late=late)


class TestRegistration:
    def test_register_has_no_side_effects(self):
        ctx = BuildContext()
        ctx.register(make_plugin("GpeCore"))
        assert [p.name for p in ctx.plugins] == ["GpeCore"]
        assert ctx.artifacts == []
        assert ctx.services == {}

    def test_duplicate_name_rejected(self):
        ctx = BuildContext()
        ctx.register(make_plugin("GpeCore"))
        with pytest.raises(DuplicatePlugin):
            ctx.register(make_plugin("GpeCore"))

    def test_registration_order_independent_sets(self):
        plugins = [make_plugin(f"P{i}") for i in range(5)]
        names = set()
        for perm in itertools.permutations(plugins):
            ctx = BuildContext()
            for p in perm:
                ctx.register(p)
            names.add(frozenset(p.name for p in ctx.plugins))
        assert len(names) == 1

    def test_register_after_elaboration_rejected(self):
        ctx = elaborate([make_plugin("A")], None)
        with pytest.raises(PhaseViolation,
                           match="^plugins may only be registered before elaboration$"):
            ctx.register(make_plugin("B"))
        assert [p.name for p in ctx.plugins] == ["A"]

    def test_provides_requires_disjoint(self):
        with pytest.raises(ValueError):
            Plugin("Bad", provides=frozenset({ServiceKey("x")}),
                   requires=frozenset({ServiceKey("x")}))


class TestServices:
    def test_provided_service_resolves(self):
        a = make_plugin("A", provides=["svc"], payloads={"svc": 41})
        b = make_plugin("B", requires=["svc"])
        ctx = elaborate([a, b], None)
        assert ctx.services[ServiceKey("svc")] == ("A", 41)

    def test_missing_service_names_key(self):
        b = make_plugin("B", requires=["svc"])
        with pytest.raises(MissingService) as err:
            elaborate([b], None)
        assert err.value.unmet == [("B", "svc")]

    def test_all_missing_dependencies_reported(self):
        b = make_plugin("B", requires=["svc1", "svc2"])
        c = make_plugin("C", requires=["svc1"])
        with pytest.raises(MissingService) as err:
            elaborate([b, c], None)
        assert set(err.value.unmet) == {("B", "svc1"), ("B", "svc2"), ("C", "svc1")}

    def test_dependency_edge_recorded(self):
        ctx = elaborate_arch(standard_preset())
        assert ("Lsu", "shared-memory", "SharedMemory") in ctx.dependency_edges

    def test_get_service_outside_callback_rejected(self):
        ctx = elaborate([make_plugin("A", provides=["svc"])], None)
        with pytest.raises(PhaseViolation):
            ctx.get_service(ServiceKey("svc"))

    @pytest.mark.parametrize("phase", ["on_config", "on_late"])
    def test_provide_outside_the_early_phase_rejected(self, phase):
        key = ServiceKey("svc")
        plugin = Plugin("A", provides=frozenset({key}),
                        **{phase: lambda ctx, params: ctx.provide(key, 1)})
        with pytest.raises(PhaseViolation, match=r"^provide\(svc\) outside the early phase$"):
            elaborate([plugin], None)

    def test_undeclared_provide_rejected(self):
        plugin = Plugin("A", on_early=lambda ctx, params: ctx.provide(ServiceKey("svc"), 1))
        with pytest.raises(PhaseViolation,
                           match="^plugin 'A' never declared that it provides svc$"):
            elaborate([plugin], None)

    def test_two_providers_of_one_key_rejected(self):
        a, b = make_plugin("A", provides=["svc"]), make_plugin("B", provides=["svc"])
        with pytest.raises(DuplicatePlugin, match="^service svc provided by both 'A' and 'B'$"):
            elaborate([a, b], None)

    def test_lookup_of_an_unprovided_key_names_the_caller(self):
        plugin = Plugin("A", on_late=lambda ctx, params: ctx.get_service(ServiceKey("svc")))
        with pytest.raises(MissingService) as err:
            elaborate([plugin], None)
        assert err.value.unmet == [("A", "svc")]


    @pytest.mark.parametrize("requires, error", [
        (frozenset({ServiceKey("x")}), MissingService), (frozenset(), RuntimeError)],
        ids=["unmet-requirement", "late-callback-raises"])
    def test_a_context_kept_past_a_failed_build_is_sealed(self, requires, error):
        """A callback may keep the context; outside a callback it takes no
        entry, also after a build that failed part way."""
        kept = []

        def late(ctx, params):
            raise RuntimeError("late callback fails")

        plugin = Plugin("A", requires=requires, on_late=late,
                        on_early=lambda ctx, params: kept.append(ctx))
        with pytest.raises(error):
            elaborate([plugin], None)
        ctx = kept[0]
        assert ctx.phase is Phase.SEALED
        for call in (lambda: ctx.provide(ServiceKey("y"), 1),
                     lambda: ctx.get_service(ServiceKey("y")),
                     lambda: ctx.emit("late", "part")):
            with pytest.raises(PhaseViolation):
                call()


class TestElaborate:
    def test_empty_plugin_list(self):
        ctx = elaborate([], None)
        assert ctx.phase is Phase.SEALED
        assert ctx.artifacts == []

    def test_standard_artifact_count(self):
        params = standard_preset()
        ctx = elaborate_arch(params)
        assert len(ctx.artifacts) == params.rows * params.cols + 2

    def test_phase_barrier(self):
        """Every early callback finishes before any late callback begins."""
        ctx = elaborate(standard_plugins(standard_preset()), standard_preset())
        seq = {(name, phase): i for name, phase, i in ctx.phase_log}
        for p, q in itertools.product([pl.name for pl in ctx.plugins], repeat=2):
            assert seq[(p, "early")] < seq[(q, "late")]
        for p, q in itertools.product([pl.name for pl in ctx.plugins], repeat=2):
            assert seq[(p, "config")] < seq[(q, "early")]

    def test_phase_violation_detected(self):
        def rogue(ctx, params):
            ctx.emit("too_soon", "part")

        with pytest.raises(PhaseViolation):
            elaborate([Plugin("Rogue", on_early=rogue)], None)

    def test_determinism_byte_identical(self):
        params = standard_preset()
        a = elaborate_arch(params).serialize()
        b = elaborate_arch(params).serialize()
        assert a == b


class TestDetachment:
    def test_cpe_detachment_leaves_no_residue(self):
        params = standard_preset()
        plugins = [p for p in standard_plugins(params) if p.name != "Cpe"]
        ctx = elaborate(plugins, params)
        assert ctx.artifacts_by_plugin("Cpe") == []
        assert ctx.services_by_plugin("Cpe") == []
        assert all("Cpe" not in edge for edge in ctx.dependency_edges)
        # the controller cell fell back to a plain GPE
        cell = [a for a in ctx.artifacts if a.name == "pe_1_1"]
        assert len(cell) == 1 and cell[0].detail["pe_type"] == "GPE"

    def test_removable_subsets_leave_no_residue(self):
        """Any subset not transitively required by the rest detaches clean."""
        params = standard_preset()
        all_names = {p.name for p in standard_plugins(params)}
        required_by = {"HostBridge": {"Cpe"}, "Topology": {"Gpe", "Lsu"},
                       "SharedRegs": {"Gpe"}, "SharedMemory": {"Lsu"}}
        for removed in ({"Cpe"}, {"Cpe", "HostBridge"}):
            kept = all_names - removed
            assert all(not (required_by.get(r, set()) & kept) for r in removed)
            plugins = [p for p in standard_plugins(params) if p.name in kept]
            ctx = elaborate(plugins, params)
            for name in removed:
                assert ctx.artifacts_by_plugin(name) == []
                assert ctx.services_by_plugin(name) == []

    def test_removing_required_provider_fails_loud(self):
        params = standard_preset()
        plugins = [p for p in standard_plugins(params) if p.name != "SharedMemory"]
        with pytest.raises(MissingService) as err:
            elaborate(plugins, params)
        assert ("Lsu", "shared-memory") in err.value.unmet
