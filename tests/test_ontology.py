"""Tests for the ontology subsystem: domain model, capabilities, service ontology."""

import pytest

from repro.constraints import parse_constraint
from repro.ontology import (
    AgentLocation,
    AgentProperties,
    Capabilities,
    CapabilityHierarchy,
    ContentInfo,
    OntClass,
    Ontology,
    OntologyError,
    ServiceDescription,
    Slot,
    SyntacticInfo,
    default_capability_hierarchy,
    demo_ontology,
    healthcare_ontology,
)
from repro.ontology.capability import CapabilityError
from repro.ontology.demo import hierarchy_ontology
from repro.ontology.service import ServiceOntologyError, example_resource_agent5


class TestSlotAndClass:
    def test_slot_validation(self):
        with pytest.raises(OntologyError):
            Slot("")
        with pytest.raises(OntologyError):
            Slot("x", "blob")

    def test_duplicate_slots_rejected(self):
        with pytest.raises(OntologyError):
            OntClass("c", (Slot("a"), Slot("a")))

    def test_slot_names(self):
        cls = OntClass("c", (Slot("a"), Slot("b")))
        assert cls.slot_names() == ["a", "b"]


class TestOntology:
    def build(self):
        onto = Ontology("demo")
        onto.add_class(OntClass("thing", (Slot("id", "number"),), key="id"))
        onto.add_class(OntClass("animal", (Slot("legs", "number"),), parent="thing"))
        onto.add_class(OntClass("dog", (Slot("breed"),), parent="animal"))
        onto.add_class(OntClass("rock", (), parent="thing"))
        return onto

    def test_contains_and_get(self):
        onto = self.build()
        assert "dog" in onto and "cat" not in onto
        with pytest.raises(OntologyError):
            onto.get("cat")

    def test_unknown_parent_rejected(self):
        onto = Ontology("x")
        with pytest.raises(OntologyError):
            onto.add_class(OntClass("a", (), parent="ghost"))

    def test_duplicate_class_rejected(self):
        onto = self.build()
        with pytest.raises(OntologyError):
            onto.add_class(OntClass("dog", ()))

    def test_key_must_be_a_slot(self):
        onto = Ontology("x")
        with pytest.raises(OntologyError):
            onto.add_class(OntClass("a", (Slot("s"),), key="ghost"))

    def test_key_may_be_inherited_slot(self):
        onto = self.build()
        onto.add_class(OntClass("cat", (), parent="animal", key="id"))
        assert onto.key_of("cat") == "id"

    def test_ancestors_and_descendants(self):
        onto = self.build()
        assert onto.ancestors("dog") == ["animal", "thing"]
        assert onto.descendants("thing") == ["animal", "dog", "rock"]
        assert onto.descendants("dog") == []

    def test_is_subclass_reflexive_transitive(self):
        onto = self.build()
        assert onto.is_subclass("dog", "dog")
        assert onto.is_subclass("dog", "thing")
        assert not onto.is_subclass("thing", "dog")
        assert not onto.is_subclass("rock", "animal")

    def test_slots_inherited_in_order(self):
        onto = self.build()
        assert onto.slot_names_of("dog") == ["id", "legs", "breed"]

    def test_key_inherited(self):
        onto = self.build()
        assert onto.key_of("dog") == "id"

    def test_roots(self):
        assert self.build().roots() == ["thing"]


class TestCapabilityHierarchy:
    def test_figure_2_containment(self):
        h = default_capability_hierarchy()
        assert h.covers("query-processing", "relational")
        assert h.covers("query-processing", "select")
        assert h.covers("relational", "join")
        assert not h.covers("select", "relational")
        assert not h.covers("relational", "object-oriented")

    def test_exact_match_always_covers(self):
        h = CapabilityHierarchy()
        assert h.covers("anything", "anything")

    def test_unknown_names_match_only_themselves(self):
        h = default_capability_hierarchy()
        assert not h.covers("query-processing", "tarot-reading")
        assert h.covers("tarot-reading", "tarot-reading")

    def test_duplicate_rejected(self):
        h = CapabilityHierarchy()
        h.add("a")
        with pytest.raises(CapabilityError):
            h.add("a")

    def test_unknown_parent_rejected(self):
        with pytest.raises(CapabilityError):
            CapabilityHierarchy().add("a", "ghost")

    def test_descendants(self):
        h = default_capability_hierarchy()
        assert "select" in h.descendants("query-processing")
        assert "object-oriented" in h.descendants("query-processing")

    def test_prune_redundant(self):
        h = default_capability_hierarchy()
        kept = h.prune_redundant(["query-processing", "select", "subscription"])
        assert kept == ["query-processing", "subscription"]


class TestServiceOntology:
    def test_location_validation(self):
        with pytest.raises(ServiceOntologyError):
            AgentLocation(name="")
        with pytest.raises(ServiceOntologyError):
            AgentLocation(name="x", agent_type="")

    def test_syntactic_info(self):
        s = SyntacticInfo(content_languages=("SQL 2.0",))
        assert s.speaks("SQL 2.0")
        assert not s.speaks("OQL")
        assert s.communicates_via("KQML")

    def test_properties_validation(self):
        with pytest.raises(ServiceOntologyError):
            AgentProperties(estimated_response_time=-1)
        with pytest.raises(ServiceOntologyError):
            AgentProperties(throughput=0)

    def test_section_2_4_example(self):
        ad = example_resource_agent5()
        assert ad.agent_name == "ResourceAgent5"
        assert ad.agent_type == "resource"
        assert ad.syntax.speaks("SQL 2.0")
        assert "ask-all" in ad.capabilities.conversations
        assert ad.content.ontology_name == "healthcare"
        assert set(ad.content.classes) == {"diagnosis", "patient"}
        assert ad.content.constraints.matches_record({"patient_age": 50})
        assert not ad.content.constraints.matches_record({"patient_age": 80})
        assert not ad.properties.mobile
        assert ad.properties.estimated_response_time == 5.0
        assert not ad.is_broker()

    def test_with_content(self):
        ad = example_resource_agent5()
        new = ad.with_content(ContentInfo(ontology_name="aerospace"))
        assert new.content.ontology_name == "aerospace"
        assert ad.content.ontology_name == "healthcare"  # original untouched

    def test_broker_detection(self):
        loc = AgentLocation(name="b1", agent_type="broker")
        assert ServiceDescription(location=loc).is_broker()

    def test_omitted_blocks_are_shared_and_immutable(self):
        """A description that leaves a block out gets the one default
        instance — safe because the blocks cannot be changed in place."""
        import dataclasses

        one = ServiceDescription(AgentLocation(name="a1"))
        other = ServiceDescription(AgentLocation(name="a2"))
        for block in ("syntax", "capabilities", "content", "properties"):
            assert getattr(one, block) is getattr(other, block)
        assert one.syntax == SyntacticInfo() and one.content == ContentInfo()
        assert one.capabilities == Capabilities()
        assert one.properties == AgentProperties()
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.properties.mobile = True


class TestSampleOntologies:
    def test_healthcare_classes(self):
        onto = healthcare_ontology()
        assert {"patient", "diagnosis", "hospital_stay"} <= set(onto.class_names())
        assert onto.is_subclass("podiatrist", "provider")
        assert onto.key_of("podiatrist") == "provider_id"
        assert "patient_age" in onto.slot_names_of("patient")

    def test_demo_ontology(self):
        onto = demo_ontology(3, slots_per_class=4)
        assert onto.class_names() == ["C1", "C2", "C3"]
        assert onto.key_of("C2") == "c2_id"
        assert len(onto.slots_of("C2")) == 4

    def test_demo_ontology_validation(self):
        with pytest.raises(ValueError):
            demo_ontology(0)
        with pytest.raises(ValueError):
            demo_ontology(1, slots_per_class=0)

    def test_hierarchy_ontology(self):
        onto = hierarchy_ontology(depth=3, fanout=2)
        assert len(onto.descendants("H")) == 6
        leaves = [c for c in onto.class_names() if not onto.descendants(c)]
        assert len(leaves) == 4
        for leaf in leaves:
            assert onto.key_of(leaf) == "h_id"
