"""Tests for the Datalog-compiled matcher, including equivalence with the
direct engine on randomized advertisements and queries."""

from hypothesis import given, settings, strategies as st

from repro.constraints import Atom, Constraint, Op, parse_constraint
from repro.core import BrokerQuery, DatalogMatcher, MatchContext, match_advertisements
from repro.ontology import healthcare_ontology
from tests.test_core_matcher import make_ad


def direct_names(query, ads, context=None):
    return {m.agent_name for m in match_advertisements(query, ads, context)}


class TestDatalogMatcherScenarios:
    def test_type_and_language(self):
        ads = [make_ad("r1"), make_ad("q1", agent_type="query")]
        query = BrokerQuery(agent_type="resource", content_language="SQL 2.0")
        assert DatalogMatcher().match_names(query, ads) == {"r1"}

    def test_capability_hierarchy(self):
        ads = [
            make_ad("general", functions=("query-processing",)),
            make_ad("narrow", functions=("select",)),
        ]
        query = BrokerQuery(capabilities=("select",))
        assert DatalogMatcher().match_names(query, ads) == {"general", "narrow"}
        query = BrokerQuery(capabilities=("relational",))
        assert DatalogMatcher().match_names(query, ads) == {"general"}

    def test_class_hierarchy(self):
        context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
        ads = [make_ad("pod", classes=("podiatrist",)), make_ad("pat", classes=("patient",))]
        query = BrokerQuery(ontology_name="healthcare", classes=("provider",))
        assert DatalogMatcher(context).match_names(query, ads) == {"pod"}

    def test_constraint_overlap(self):
        ads = [
            make_ad("old", constraints="patient_age between 43 and 75"),
            make_ad("young", constraints="patient_age between 0 and 18"),
        ]
        query = BrokerQuery(
            constraints=parse_constraint("patient_age between 25 and 65")
        )
        assert DatalogMatcher().match_names(query, ads) == {"old"}

    def test_discrete_constraints(self):
        ads = [make_ad("tx", constraints="city in ('Dallas', 'Houston')")]
        yes = BrokerQuery(constraints=parse_constraint("city = 'Dallas'"))
        no = BrokerQuery(constraints=parse_constraint("city = 'Austin'"))
        assert DatalogMatcher().match_names(yes, ads) == {"tx"}
        assert DatalogMatcher().match_names(no, ads) == set()

    def test_complement_constraints(self):
        ads = [make_ad("not40w", constraints="diagnosis_code != '40W'")]
        hit = BrokerQuery(constraints=parse_constraint("diagnosis_code = '41A'"))
        miss = BrokerQuery(constraints=parse_constraint("diagnosis_code = '40W'"))
        assert DatalogMatcher().match_names(hit, ads) == {"not40w"}
        assert DatalogMatcher().match_names(miss, ads) == set()

    def test_open_interval_boundaries(self):
        ads = [make_ad("gt50", constraints="patient_age > 50")]
        below = BrokerQuery(constraints=parse_constraint("patient_age < 50"))
        at = BrokerQuery(constraints=parse_constraint("patient_age = 50"))
        above = BrokerQuery(constraints=parse_constraint("patient_age = 51"))
        matcher = DatalogMatcher()
        assert matcher.match_names(below, ads) == set()
        assert matcher.match_names(at, ads) == set()
        assert matcher.match_names(above, ads) == {"gt50"}

    def test_unsatisfiable_ad_never_matches(self):
        bad = Constraint.from_atoms([Atom("x", Op.LT, 0), Atom("x", Op.GT, 0)])
        ad = make_ad("broken")
        ad = type(ad)(ad.description.with_content(
            type(ad.description.content)(
                ontology_name="healthcare", constraints=bad,
            )
        ))
        assert DatalogMatcher().match_names(BrokerQuery(), [ad]) == set()
        assert direct_names(BrokerQuery(), [ad]) == set()


# ----------------------------------------------------------------------
# Randomized equivalence: the direct and Datalog engines must agree.
# ----------------------------------------------------------------------
slot_names = st.sampled_from(["patient_age", "cost", "city"])
numbers = st.integers(min_value=0, max_value=100)


@st.composite
def random_constraints(draw):
    atoms = []
    for slot in draw(st.lists(slot_names, max_size=2, unique=True)):
        kind = draw(st.sampled_from(["between", "cmp", "eq", "neq", "in"]))
        if kind == "between":
            lo, hi = sorted((draw(numbers), draw(numbers)))
            atoms.append(Atom(slot, Op.BETWEEN, (lo, hi)))
        elif kind == "cmp":
            op = draw(st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE]))
            atoms.append(Atom(slot, op, draw(numbers)))
        elif kind == "eq":
            atoms.append(Atom(slot, Op.EQ, draw(numbers)))
        elif kind == "neq":
            atoms.append(Atom(slot, Op.NEQ, draw(numbers)))
        else:
            values = draw(st.lists(numbers, min_size=1, max_size=3))
            atoms.append(Atom(slot, Op.IN, tuple(values)))
    return Constraint.from_atoms(atoms)


@st.composite
def random_ads(draw):
    ads = []
    n = draw(st.integers(min_value=1, max_value=5))
    for i in range(n):
        ads.append(
            make_ad(
                f"agent{i}",
                agent_type=draw(st.sampled_from(["resource", "query"])),
                functions=(draw(st.sampled_from(
                    ["query-processing", "relational", "select", "subscription"]
                )),),
                classes=tuple(draw(st.lists(
                    st.sampled_from(["patient", "diagnosis", "provider", "podiatrist"]),
                    max_size=2, unique=True,
                ))),
                constraints="",
            )._replace_constraints(draw(random_constraints()))
        )
    return ads


def _replace_constraints(ad, constraints):
    from dataclasses import replace

    content = replace(ad.description.content, constraints=constraints)
    return replace(ad, description=ad.description.with_content(content))


# Attach as a helper on Advertisement instances via monkey-friendly call:
import repro.core.advertisement as _adv_mod

_adv_mod.Advertisement._replace_constraints = _replace_constraints


@st.composite
def random_queries(draw):
    constraints = draw(random_constraints())
    if not constraints.is_satisfiable():
        constraints = Constraint.unconstrained()
    classes = tuple(draw(st.lists(
        st.sampled_from(["patient", "provider", "podiatrist"]), max_size=1
    )))
    return BrokerQuery(
        agent_type=draw(st.sampled_from([None, "resource", "query"])),
        capabilities=tuple(draw(st.lists(
            st.sampled_from(["query-processing", "relational", "select", "subscription"]),
            max_size=2, unique=True,
        ))),
        ontology_name="healthcare" if classes else None,
        classes=classes,
        constraints=constraints,
    )


@settings(max_examples=60, deadline=None)
@given(ads=random_ads(), query=random_queries())
def test_direct_and_datalog_engines_agree(ads, query):
    context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
    direct = direct_names(query, ads, context)
    datalog = DatalogMatcher(context).match_names(query, ads)
    assert direct == datalog
