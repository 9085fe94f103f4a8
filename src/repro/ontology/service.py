"""The service ontology: the vocabulary of agent advertisements.

This mirrors the paper's Figures 8 (syntactic information), 9 (semantic
information) and 13 (multibroker extensions).  A complete advertisement
is a :class:`ServiceDescription`, which the broker stores and reasons
over (see :mod:`repro.core`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple

from repro.constraints import Constraint


class ServiceOntologyError(ValueError):
    """Raised for malformed service descriptions."""


@dataclass(frozen=True)
class AgentLocation:
    """Agent name and location (Figure 8, first block)."""

    name: str
    address: str = ""  # e.g. "tcp://b1.mcc.com:4356"
    transport: str = "tcp"
    agent_type: str = "resource"  # e.g. "resource", "query", "broker", "user"

    def __post_init__(self):
        if not self.name:
            raise ServiceOntologyError("agent name must be non-empty")
        if not self.agent_type:
            raise ServiceOntologyError("agent type must be non-empty")


@dataclass(frozen=True)
class SyntacticInfo:
    """Agent syntactic knowledge (Figure 8, second block)."""

    content_languages: Tuple[str, ...] = ()  # e.g. ("SQL 2.0", "LDL")
    communication_languages: Tuple[str, ...] = ("KQML",)

    def __post_init__(self):
        object.__setattr__(self, "content_languages", tuple(self.content_languages))
        object.__setattr__(
            self, "communication_languages", tuple(self.communication_languages)
        )

    def speaks(self, content_language: str) -> bool:
        return content_language in self.content_languages

    def communicates_via(self, language: str) -> bool:
        return language in self.communication_languages


@dataclass(frozen=True)
class Capabilities:
    """Agent capabilities (Figure 9, first block)."""

    conversations: Tuple[str, ...] = ()  # e.g. ("ask-all", "subscribe")
    functions: Tuple[str, ...] = ()  # capability-hierarchy names
    restrictions: Tuple[str, ...] = ()  # free-text restrictions

    def __post_init__(self):
        object.__setattr__(self, "conversations", tuple(self.conversations))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "restrictions", tuple(self.restrictions))


@dataclass(frozen=True)
class ContentInfo:
    """Agent content (Figure 9, second block).

    ``constraints`` restricts the data the agent holds, expressed over
    the slots of ``ontology_name``'s classes.
    """

    ontology_name: str = ""
    classes: Tuple[str, ...] = ()
    slots: Tuple[str, ...] = ()
    keys: Tuple[str, ...] = ()
    constraints: Constraint = field(default_factory=Constraint.unconstrained)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(self, "keys", tuple(self.keys))

    def is_empty(self) -> bool:
        return not self.ontology_name and not self.classes


@dataclass(frozen=True)
class AgentProperties:
    """Agent pragmatic properties (Figure 9, third block)."""

    mobile: bool = False
    cloneable: bool = False
    estimated_response_time: Optional[float] = None  # seconds
    throughput: Optional[float] = None  # requests/second

    def __post_init__(self):
        if self.estimated_response_time is not None and self.estimated_response_time < 0:
            raise ServiceOntologyError("estimated response time must be >= 0")
        if self.throughput is not None and self.throughput <= 0:
            raise ServiceOntologyError("throughput must be > 0")


@dataclass(frozen=True)
class BrokerExtensions:
    """Multibroker service-ontology extensions (Figure 13)."""

    community: str = ""
    consortia: Tuple[str, ...] = ()
    specializations: Tuple[str, ...] = ()  # agent types / domains brokered
    supported_ontologies: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "consortia", tuple(self.consortia))
        object.__setattr__(self, "specializations", tuple(self.specializations))
        object.__setattr__(
            self, "supported_ontologies", tuple(self.supported_ontologies)
        )


@dataclass(frozen=True)
class ServiceDescription:
    """A complete advertisement payload: everything an agent says about
    itself, in service-ontology vocabulary.

    This is exactly the structure of the Section 2.4 example
    advertisement; :func:`example_resource_agent5` reproduces it.
    """

    location: AgentLocation
    # The blocks are immutable, so every description that leaves one
    # out shares the same default instance instead of building its own
    # (three objects fewer per typical advertisement).
    syntax: SyntacticInfo = SyntacticInfo()
    capabilities: Capabilities = Capabilities()
    content: ContentInfo = ContentInfo()
    properties: AgentProperties = AgentProperties()
    broker: Optional[BrokerExtensions] = None

    @property
    def agent_name(self) -> str:
        return self.location.name

    @property
    def agent_type(self) -> str:
        return self.location.agent_type

    def is_broker(self) -> bool:
        return self.broker is not None or self.location.agent_type == "broker"

    def with_content(self, content: ContentInfo) -> "ServiceDescription":
        return replace(self, content=content)


def example_resource_agent5() -> ServiceDescription:
    """The Section 2.4 example advertisement, verbatim."""
    from repro.constraints import parse_constraint

    return ServiceDescription(
        location=AgentLocation(
            name="ResourceAgent5",
            address="tcp://b1.mcc.com:4356",
            transport="tcp",
            agent_type="resource",
        ),
        syntax=SyntacticInfo(
            content_languages=("SQL 2.0",),
            communication_languages=("KQML",),
        ),
        capabilities=Capabilities(
            conversations=("subscribe", "update", "ask-all"),
            functions=("relational", "subscription"),
        ),
        content=ContentInfo(
            ontology_name="healthcare",
            classes=("diagnosis", "patient"),
            slots=("diagnosis_code", "patient_age"),
            keys=("patient_id",),
            constraints=parse_constraint("patient_age between 43 and 75"),
        ),
        properties=AgentProperties(mobile=False, estimated_response_time=5.0),
    )
