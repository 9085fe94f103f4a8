"""Tests for the virtual-time bus and base-agent behaviours."""

import pytest

from repro.agents import Agent, AgentConfig, AgentError, BrokerAgent, CostModel, MessageBus
from repro.agents.base import HandlerResult
from repro.kqml import KqmlMessage, Performative


class Echo(Agent):
    """Replies to ask-one with its name; used to probe bus mechanics."""

    agent_type = "echo"

    def __init__(self, name, service_seconds=1.0, **kw):
        super().__init__(name, **kw)
        self.service_seconds = service_seconds
        self.handled_at = []

    def on_ask_one(self, message, result, now):
        self.handled_at.append(now)
        result.cost_seconds += self.service_seconds
        result.send(message.reply(Performative.TELL, content=self.name))


class Probe(Agent):
    """Records replies (and their virtual arrival times)."""

    agent_type = "probe"

    def __init__(self, name, **kw):
        super().__init__(name, **kw)
        self.replies = []

    def ask_echo(self, target, count=1):
        for _ in range(count):
            message = KqmlMessage(
                Performative.ASK_ONE, sender=self.name, receiver=target, content="?"
            )
            result = HandlerResult()
            self.ask(message, lambda r, res: self.replies.append((r, self.bus.now)), result)
            for msg, size in result.outbox:
                self.bus.send(msg, at=self.bus.now, size_bytes=size)
            for delay, token, maintenance in result.timers:
                self.bus.schedule_timer(self.name, self.bus.now + delay, token, maintenance)


def make_bus():
    return MessageBus(CostModel(latency_seconds=0.05, base_handling_seconds=0.0))


class TestBusMechanics:
    def test_register_and_duplicate(self):
        bus = make_bus()
        bus.register(Echo("e1"))
        with pytest.raises(AgentError):
            bus.register(Echo("e1"))
        with pytest.raises(AgentError):
            bus.agent("ghost")

    def test_message_roundtrip_advances_time(self):
        bus = make_bus()
        echo, probe = Echo("echo", service_seconds=2.0), Probe("probe")
        bus.register(echo)
        bus.register(probe)
        probe.ask_echo("echo")
        bus.run()
        assert len(probe.replies) == 1
        reply, arrived = probe.replies[0]
        assert reply.content == "echo"
        # latency + service + latency, plus transfer of small messages.
        assert arrived == pytest.approx(2.0 + 2 * 0.05, abs=0.01)

    def test_fifo_queueing_at_single_server(self):
        bus = make_bus()
        echo, probe = Echo("echo", service_seconds=10.0), Probe("probe")
        bus.register(echo)
        bus.register(probe)
        probe.ask_echo("echo", count=3)
        bus.run()
        # Three messages arrive together but are served back to back.
        assert echo.handled_at == pytest.approx(
            [0.052048, 10.052048, 20.052048], abs=0.01
        )

    def test_offline_agent_drops_messages(self):
        bus = make_bus()
        echo, probe = Echo("echo"), Probe("probe")
        bus.register(echo)
        bus.register(probe)
        bus.set_offline("echo")
        probe.ask_echo("echo")
        bus.run_until(30.0)
        assert bus.stats.messages_dropped == 1
        # The probe's timeout fires and delivers None.
        bus.run_until(100.0)
        assert probe.replies and probe.replies[0][0] is None

    def test_offline_validation(self):
        with pytest.raises(AgentError):
            make_bus().set_offline("ghost")

    def test_cancel_after_skipped_fire_does_not_leak(self):
        """Cancelling a timer that already fired (and was skipped because
        its owner was offline) must not leave a permanent entry in the
        lazy-cancellation set."""
        bus = make_bus()
        bus.register(Echo("echo"))
        bus.schedule_timer("echo", 5.0, "tok")
        bus.set_offline("echo")
        bus.run_until(10.0)  # the timer fires and is skipped
        bus.cancel_timer("echo", "tok")
        assert not bus._cancelled_timers
        assert not bus._pending_timers

    def test_cancel_pending_timer_still_suppresses_it(self):
        bus = make_bus()
        echo = Echo("echo")
        bus.register(echo)
        fired = []
        echo.on_custom_timer = lambda token, result, now: fired.append(token)
        bus.schedule_timer("echo", 5.0, "tok")
        bus.cancel_timer("echo", "tok")
        bus.run_until(10.0)
        assert fired == []
        assert not bus._cancelled_timers
        assert not bus._pending_timers

    def test_cancel_never_scheduled_timer_is_noop(self):
        bus = make_bus()
        bus.register(Echo("echo"))
        bus.cancel_timer("echo", "never-scheduled")
        assert not bus._cancelled_timers

    def test_runaway_guard(self):
        class Looper(Agent):
            def on_custom_timer(self, token, result, now):
                result.arm(0.0, "again")

            def on_start(self, now):
                result = super().on_start(now)
                result.arm(0.0, "again")
                return result

        bus = make_bus()
        bus.register(Looper("loop"))
        with pytest.raises(AgentError):
            bus.run(max_events=100)


class TestRedundantAdvertising:
    def test_agent_advertises_to_redundancy_brokers(self):
        bus = make_bus()
        brokers = [BrokerAgent(f"b{i}") for i in range(3)]
        for broker in brokers:
            bus.register(broker)
        agent = Echo(
            "e1",
            config=AgentConfig(preferred_brokers=("b0", "b1", "b2"), redundancy=2),
        )
        bus.register(agent)
        bus.run_until(10.0)
        assert agent.connected_broker_list == ["b0", "b1"]
        assert brokers[0].repository.knows("e1")
        assert brokers[1].repository.knows("e1")
        assert not brokers[2].repository.knows("e1")

    def test_readvertises_after_broker_death(self):
        bus = make_bus()
        for i in range(2):
            bus.register(BrokerAgent(f"b{i}"))
        agent = Echo(
            "e1",
            config=AgentConfig(
                preferred_brokers=("b0", "b1"), redundancy=1,
                ping_interval=100.0, reply_timeout=10.0,
            ),
        )
        bus.register(agent)
        bus.run_until(10.0)
        assert agent.connected_broker_list == ["b0"]
        bus.set_offline("b0")
        # Next ping cycle: b0 fails, and the following cycle re-advertises.
        bus.run_until(350.0)
        assert agent.connected_broker_list == ["b1"]
        assert bus.agent("b1").repository.knows("e1")

    def test_broker_forgetting_agent_triggers_reconnect(self):
        bus = make_bus()
        broker = BrokerAgent("b0")
        bus.register(broker)
        agent = Echo(
            "e1",
            config=AgentConfig(preferred_brokers=("b0",), redundancy=1,
                               ping_interval=50.0),
        )
        bus.register(agent)
        bus.run_until(10.0)
        broker.repository.unadvertise("e1")  # broker lost its memory
        bus.run_until(120.0)
        # Ping noticed the missing advertisement; re-advertising restored it.
        assert broker.repository.knows("e1")
        assert agent.connected_broker_list == ["b0"]


class TestBrokerPingsAgents:
    def test_broker_purges_dead_agents(self):
        bus = make_bus()
        broker = BrokerAgent("b0", agent_ping_interval=100.0)
        bus.register(broker)
        agent = Echo("e1", config=AgentConfig(preferred_brokers=("b0",), redundancy=1))
        bus.register(agent)
        bus.run_until(10.0)
        assert broker.repository.knows("e1")
        bus.set_offline("e1")
        bus.run_until(400.0)
        assert not broker.repository.knows("e1")


class TestShortOutageKeepsOneCycle:
    """An outage shorter than a recurring timer's interval leaves the old
    instance pending; ``on_start`` must retire it before arming the next,
    or every blip adds one more cycle running beside the others."""

    @staticmethod
    def pings_after_blips(crash_mode, blips):
        bus = make_bus()
        bus.register(BrokerAgent("b0"))
        agent = Agent("a", AgentConfig(preferred_brokers=("b0",),
                                       ping_interval=300.0,
                                       crash_mode=crash_mode))
        bus.register(agent)
        bus.trace = []
        for down, up in blips:
            bus.schedule_callback(down, lambda: bus.set_offline("a"))
            bus.schedule_callback(up, lambda: bus.set_offline("a", False))
        bus.run_until(3300.0)
        assert ("a", "ping-cycle") not in bus._cancelled_timers
        return [round(e.time) for e in bus.trace
                if e.sender == "a" and e.performative == "ping"]

    @pytest.mark.parametrize("crash_mode", ["lenient", "strict"])
    @pytest.mark.parametrize("blips", [
        [(100.0, 150.0)],
        # Three blips inside one interval: three stale instances pending.
        [(100.0, 110.0), (120.0, 130.0), (140.0, 150.0)],
    ])
    def test_one_ping_cycle_survives(self, crash_mode, blips):
        pings = self.pings_after_blips(crash_mode, blips)
        # One cycle, re-phased to the last recovery: 450, 750, ..., 3150.
        assert pings == list(range(450, 3300, 300))

    @pytest.mark.parametrize("crash_mode", ["lenient", "strict"])
    def test_blips_in_separate_intervals(self, crash_mode):
        pings = self.pings_after_blips(
            crash_mode, [(100.0, 150.0), (1000.0, 1040.0), (2000.0, 2040.0)])
        assert pings == [450, 750, 1340, 1640, 1940, 2340, 2640, 2940, 3240]

    @pytest.mark.parametrize("crash_mode", ["lenient", "strict"])
    def test_broker_cycles_are_not_doubled(self, crash_mode):
        bus = make_bus()
        broker = BrokerAgent("b0", agent_ping_interval=300.0, sync_interval=300.0,
                             peer_brokers=["b1"],
                             config=AgentConfig(crash_mode=crash_mode))
        bus.register(broker)
        bus.register(BrokerAgent("b1"))
        bus.register(Agent("a", AgentConfig(preferred_brokers=("b0",))))
        bus.trace = []
        bus.schedule_callback(100.0, lambda: bus.set_offline("b0"))
        bus.schedule_callback(150.0, lambda: bus.set_offline("b0", False))
        bus.run_until(1400.0)
        # Only reply timeouts (tuple tokens) may still await their fire.
        assert all(isinstance(token, tuple) for _a, token in bus._cancelled_timers)
        from_b0 = [(round(e.time), e.receiver, e.performative)
                   for e in bus.trace if e.sender == "b0" and e.time > 200.0]
        agent_pings = [t for t, to, verb in from_b0 if (to, verb) == ("a", "ping")]
        syncs = [t for t, to, verb in from_b0 if (to, verb) == ("b1", "ask-all")]
        assert syncs == [450, 750, 1050, 1350]
        # A strict crash emptied the repository: no one to ping at 450.
        assert agent_pings == (syncs if crash_mode == "lenient" else syncs[1:])
