//! The event loop.
//!
//! A simulation is a [`World`] (all mutable state plus an event handler) driven by an
//! [`Engine`]. The engine owns the clock and the [`EventQueue`]; each step pops the
//! earliest live event, advances the clock to it, and hands it to the world together
//! with a [`Scheduler`] through which the handler may schedule or cancel follow-up
//! events. Handlers never see wall-clock time or threads — everything is sequential
//! and deterministic.

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// The mutable state of a simulation plus its event handler.
pub trait World {
    /// The event type circulating through the queue.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Handle through which event handlers schedule and cancel events.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time would silently
    /// corrupt causality, so it is rejected loudly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        self.queue.schedule_at(at, event)
    }

    /// Schedules `event` to fire immediately (at the current time, after all events
    /// already queued for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.queue.schedule_at(self.now, event)
    }

    /// Cancels a pending event. See [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// Outcome of [`Engine::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The queue drained: no events remain.
    Drained,
    /// The step limit was reached before the queue drained.
    StepLimit,
}

/// Drives a [`World`] until its event queue drains.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    steps: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Seeds an initial event at absolute time `at` before running.
    pub fn prime_at(&mut self, at: SimTime, event: W::Event) -> EventId {
        self.queue.schedule_at(at, event)
    }

    /// Seeds an initial event at time zero.
    pub fn prime(&mut self, event: W::Event) -> EventId {
        self.prime_at(SimTime::ZERO, event)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Read access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the engine, returning the world and the final time.
    pub fn into_world(self) -> (W, SimTime) {
        (self.world, self.now)
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _, event)) = self.queue.pop_next() else {
            return false;
        };
        debug_assert!(
            time >= self.now,
            "event queue returned an event in the past"
        );
        self.now = time;
        self.steps += 1;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle(time, event, &mut sched);
        true
    }

    /// Runs until the queue drains or `max_steps` events have been processed.
    ///
    /// The step limit exists purely as a runaway-simulation backstop for tests and
    /// experiments; hitting it usually indicates a livelock in the modelled protocol.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        for _ in 0..max_steps {
            if !self.step() {
                return RunOutcome::Drained;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::StepLimit
        }
    }

    /// Runs to completion with a generous default backstop (2^40 events).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(1 << 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that models a ping-pong of `n` messages.
    struct PingPong {
        remaining: u32,
        log: Vec<(SimTime, &'static str)>,
    }

    enum Msg {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Msg;
        fn handle(&mut self, now: SimTime, event: Msg, sched: &mut Scheduler<'_, Msg>) {
            match event {
                Msg::Ping => {
                    self.log.push((now, "ping"));
                    sched.schedule_in(SimDuration::from_millis(10), Msg::Pong);
                }
                Msg::Pong => {
                    self.log.push((now, "pong"));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        sched.schedule_in(SimDuration::from_millis(10), Msg::Ping);
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut engine = Engine::new(PingPong {
            remaining: 2,
            log: vec![],
        });
        engine.prime(Msg::Ping);
        assert_eq!(engine.run_to_completion(), RunOutcome::Drained);
        let (world, end) = engine.into_world();
        assert_eq!(
            world.log.iter().map(|(_, m)| *m).collect::<Vec<_>>(),
            vec!["ping", "pong", "ping", "pong", "ping", "pong"]
        );
        assert_eq!(end, SimTime::from_nanos(50 * 1_000_000));
    }

    #[test]
    fn step_limit_is_reported() {
        let mut engine = Engine::new(PingPong {
            remaining: u32::MAX,
            log: vec![],
        });
        engine.prime(Msg::Ping);
        assert_eq!(engine.run(5), RunOutcome::StepLimit);
        assert_eq!(engine.steps(), 5);
    }

    #[test]
    fn empty_engine_drains_immediately() {
        let mut engine = Engine::new(PingPong {
            remaining: 0,
            log: vec![],
        });
        assert_eq!(engine.run_to_completion(), RunOutcome::Drained);
        assert_eq!(engine.now(), SimTime::ZERO);
    }

    /// Scheduling at the current instant runs after already-queued same-time events.
    struct Recorder(Vec<u32>);
    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.0.push(event);
            if event == 1 {
                sched.schedule_now(99);
            }
        }
    }

    #[test]
    fn schedule_now_preserves_fifo() {
        let mut engine = Engine::new(Recorder(vec![]));
        engine.prime(1);
        engine.prime(2);
        engine.run_to_completion();
        assert_eq!(engine.world().0, vec![1, 2, 99]);
    }
}
